"""``repro-sim``: run one workload on one machine from the command line.

Examples::

    repro-sim --app GE --param n=32 --design sc --sc-size 2048
    repro-sim --app FWA --design base --record fwa.trace
    repro-sim --replay fwa.trace --design nc
    repro-sim --app MM --design sc --nodes 32 --protocol mesi --verbose
    repro-sim --app GE --design sc --trace ge.json --metrics ge-metrics.json
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from typing import List, Optional

from .apps import PAPER_APPS, TraceApplication, TraceRecorder
from .errors import ConfigError
from .stats.counters import READ_CATEGORIES
from .stats.report import format_table, percent
from .system.machine import Machine
from .system.presets import (
    base_config,
    caesar_plus_config,
    netcache_config,
    switch_cache_config,
)

_DESIGNS = ("base", "nc", "sc", "sc+")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Simulate one workload on a CC-NUMA machine "
                    "(Switch Cache / CAESAR reproduction).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--app", choices=sorted(PAPER_APPS),
                        help="one of the paper's six kernels")
    source.add_argument("--replay", metavar="FILE",
                        help="replay a recorded op-trace file")
    parser.add_argument(
        "--param", action="append", default=[], metavar="K=V",
        help="application parameter override (repeatable), e.g. n=32",
    )
    parser.add_argument("--design", choices=_DESIGNS, default="base",
                        help="system design (default: base)")
    parser.add_argument("--nodes", type=int, default=16,
                        help="number of nodes (power of two, default 16)")
    parser.add_argument("--ppn", type=int, default=1,
                        help="processors per node (bus-based clusters)")
    parser.add_argument("--sc-size", type=int, default=2048,
                        help="switch-cache bytes per switch (sc/sc+ designs)")
    parser.add_argument("--nc-size", type=int, default=128 * 1024,
                        help="network-cache bytes per node (nc design)")
    parser.add_argument("--protocol", choices=("msi", "mesi"), default="msi")
    parser.add_argument("--record", metavar="FILE",
                        help="record the executed ops to a trace file")
    parser.add_argument("--trace", metavar="FILE", dest="trace_out",
                        help="write a Chrome/Perfetto trace-event JSON file")
    parser.add_argument("--trace-jsonl", metavar="FILE",
                        help="write the raw trace events as JSONL")
    parser.add_argument("--trace-limit", type=int, default=2_000_000,
                        help="max recorded trace events (default 2000000)")
    parser.add_argument("--metrics", metavar="FILE",
                        help="write counters/histograms/time-series JSON")
    parser.add_argument("--sample-interval", type=int, default=1000,
                        help="metrics sampling period in cycles "
                             "(default 1000; used with --metrics)")
    parser.add_argument("--verbose", action="store_true",
                        help="print per-category latencies and switch stats")
    parser.add_argument("--sanitize", action="store_true",
                        help="run with SCSan runtime invariant checks "
                             "(see repro.verify.sanitize)")
    return parser


def _parse_params(parser: argparse.ArgumentParser, app: str,
                  pairs: List[str]) -> dict:
    accepted = inspect.signature(PAPER_APPS[app]).parameters
    params = {}
    for pair in pairs:
        if "=" not in pair:
            parser.error(f"bad --param {pair!r}: expected K=V")
        key, value = pair.split("=", 1)
        if key not in accepted:
            parser.error(f"--param {key}: {app} takes "
                         f"{', '.join(accepted) or 'no parameters'}")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    return params


def _make_config(args):
    common = dict(num_nodes=args.nodes, procs_per_node=args.ppn,
                  protocol=args.protocol)
    if args.design == "base":
        return base_config(**common)
    if args.design == "nc":
        return netcache_config(netcache_size=args.nc_size, **common)
    if args.design == "sc":
        return switch_cache_config(size=args.sc_size, **common)
    return caesar_plus_config(size=args.sc_size, **common)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.replay:
        if not os.path.isfile(args.replay):
            parser.error(f"--replay: no such file: {args.replay}")
        app = TraceApplication(args.replay)
    else:
        app = PAPER_APPS[args.app](
            **_parse_params(parser, args.app, args.param))
    recorder = None
    if args.record:
        recorder = TraceRecorder(app)
        app = recorder

    tracer = None
    if args.trace_out or args.trace_jsonl:
        from .trace import Tracer

        tracer = Tracer(limit=args.trace_limit)
    metrics = None
    if args.metrics:
        from .trace import MetricsRegistry

        metrics = MetricsRegistry(sample_interval=args.sample_interval)

    try:
        config = _make_config(args)
        machine = Machine(
            config, sanitize=True if args.sanitize else None,
            tracer=tracer, metrics=metrics,
        )
        # a replayed trace checks its processor count against the machine
        stats = machine.run(app)
    except ConfigError as exc:
        parser.error(str(exc))

    print(f"design: {config.label()}   nodes: {config.num_nodes}"
          f" x {config.procs_per_node} procs   protocol: {config.protocol}")
    print(f"execution time: {stats.exec_time} cycles")
    dist = stats.service_distribution()
    rows = [(cat, stats.read_counts[cat], percent(dist[cat]))
            for cat in READ_CATEGORIES if stats.read_counts[cat]]
    print(format_table(("read served at", "count", "share"), rows))
    if args.verbose:
        from .stats.latency import breakdown_table, latency_table

        print()
        print(latency_table(stats))
        if stats.breakdown_count:
            print()
            print(breakdown_table(stats))
        print(f"\ntotal read stall: {stats.total_read_stall()} cycles")
        print(f"mean sharing degree: {stats.mean_sharing_degree():.2f}")
        if config.switch_caches_enabled:
            totals = machine.switch_cache_stats()
            print("switch caches:", ", ".join(f"{k}={v}" for k, v in totals.items()))
            print("hits by stage:", dict(sorted(stats.switch_hits_by_stage.items())))
    problems = machine.check_coherence()
    if problems:
        print(f"\nCOHERENCE VIOLATIONS ({len(problems)}):", file=sys.stderr)
        for problem in problems[:10]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    if recorder is not None:
        recorder.save(args.record)
        total_ops = sum(len(v) for v in recorder.recorded.values())
        print(f"\nrecorded {total_ops} ops to {args.record}")
    if tracer is not None:
        from .trace import write_chrome_trace, write_jsonl

        label = f"repro-sim {args.app or args.replay} {config.label()}"
        if args.trace_out:
            count = write_chrome_trace(tracer, args.trace_out, label=label)
            note = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
            print(f"trace: {count} events{note} -> {args.trace_out} "
                  f"(open in https://ui.perfetto.dev)")
        if args.trace_jsonl:
            count = write_jsonl(tracer, args.trace_jsonl)
            print(f"trace: {count} events -> {args.trace_jsonl}")
    if metrics is not None:
        import json as _json

        with open(args.metrics, "w") as handle:
            _json.dump(metrics.to_payload(), handle, indent=1)
        print(f"metrics: {len(metrics.counters)} counters, "
              f"{len(metrics.histograms)} histograms, "
              f"{len(metrics.series_map)} series -> {args.metrics}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
