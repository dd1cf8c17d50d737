"""Workloads, measurement and checks of the switch-cache simulator benchmark.

The benchmark drives the simulator from the outside, through its public
API only: the ``SystemConfig`` presets, ``Machine(config, sanitize=False)``,
the application constructors, ``Machine.run``, ``Machine.check_coherence``
and the counters the components expose after a run.  Host time is CPU
time of this one process (``time.process_time``).

One *pass* of a workload builds a fresh machine per application, runs it
and checks it.  Every ``Machine.run`` is one attempted run; a run fails
when it raises, leaves the machine incoherent or a processor unfinished,
breaks a cross-layer identity, repeats with different simulated numbers,
or (on the default seed) differs from the pinned reference values in
``pins.json``.  See README.md for why each workload exists.
"""

from __future__ import annotations

import cProfile
import contextlib
import gc
import json
import math
import os
import pstats
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Tuple

import repro
from repro.apps import PAPER_APPS, UniformRandom
from repro.system.config import KB
from repro.system.machine import Machine
from repro.system.presets import base_config, switch_cache_config

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"
DEFAULT_SEED = 1
#: environment switches that select another implementation of a layer (or
#: wrap it in the sanitizer); with any of them set the benchmark would
#: measure a different program than the default one
FORBIDDEN_ENV = (
    "REPRO_ENGINE", "REPRO_STATE", "REPRO_EXPRESS", "REPRO_OPS",
    "REPRO_SANITIZE",
)
#: ``src/repro`` packages that get their own ``<layer>.self_s``; everything
#: else (stdlib, builtins, the other repro packages, this benchmark) is
#: folded into ``other``
LAYERS = (
    "sim", "apps", "node", "cache", "coherence", "network", "core",
    "memory", "stats", "system",
)
#: dedicated set-up samples taken before each pass; spread over the
#: whole run, their median sees the same host as the passes' median
SETUP_SAMPLES_PER_PASS = 4
#: timed passes a run makes even when ``--seconds`` is already used up
MIN_PASSES = 3

# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

#: application sizes per workload and size class; ``full`` is measured,
#: ``tiny`` keeps the benchmark's own tests fast
SIZES: Dict[str, Dict[str, Dict[str, Dict[str, Any]]]] = {
    "full": {
        "paper-sc16": {
            "FWA": {"n": 48},
            "GS": {"n_vectors": 32, "length": 48},
            "GE": {"n": 64},
            "MM": {"n": 48},
        },
        "stream-base4": {
            "SOR": {"n": 128, "iterations": 3},
            "MM": {"n": 48},
            "GS": {"n_vectors": 32, "length": 48},
        },
        "random-sc16": {
            "RANDOM": {"ops_per_proc": 1000, "nbytes": 64 * KB,
                       "write_fraction": 0.3},
        },
    },
    "tiny": {
        "paper-sc16": {
            "FWA": {"n": 16},
            "GS": {"n_vectors": 16, "length": 16},
            "GE": {"n": 16},
            "MM": {"n": 16},
        },
        "stream-base4": {
            "SOR": {"n": 16, "iterations": 1},
            "MM": {"n": 12},
            "GS": {"n_vectors": 8, "length": 16},
        },
        "random-sc16": {
            "RANDOM": {"ops_per_proc": 40, "nbytes": 8 * KB,
                       "write_fraction": 0.3},
        },
    },
}

WORKLOADS = tuple(SIZES["full"])


def _config(workload: str):
    if workload == "stream-base4":
        return base_config(4)
    return switch_cache_config(16)


def _app(name: str, params: Dict[str, Any], seed: int):
    if name == "RANDOM":
        return UniformRandom(seed=seed, **params)
    return PAPER_APPS[name](**params)


def build(workload: str, size: str, seed: int) -> List[Tuple[str, Any, Any]]:
    """Set-up step: one ``(app name, Machine, app)`` per application."""
    return [
        (name, Machine(_config(workload), sanitize=False),
         _app(name, params, seed))
        for name, params in SIZES[size][workload].items()
    ]


def uses_seed(workload: str) -> bool:
    return workload == "random-sc16"


# ---------------------------------------------------------------------------
# observation and checks
# ---------------------------------------------------------------------------


def observe(machine) -> Dict[str, int]:
    """Exact counts of one finished run, read from public attributes.

    Everything except ``events`` and ``peak_pending`` is a simulated
    statistic: a change that only speeds the simulator up leaves it
    bit-identical, so it is pinned and compared between repeats.
    """
    stats = machine.stats
    stacks = list(machine.stacks())
    procs = [s.processor for s in stacks]
    wbufs = [s.write_buffer for s in stacks]
    nodes = machine.nodes
    ctrls = [node.netctrl(s) for node in nodes for s in node.stacks]
    homes = [node.home_ctrl for node in nodes]
    mems = [node.memory for node in nodes]
    fstats = machine.fabric.stats
    sc = machine.switch_cache_stats()
    counts = {
        "exec_time": stats.exec_time,
        "ops": sum(p.ops_executed for p in procs),
        "read_stall_cycles": sum(p.read_stall_cycles for p in procs),
        "wb_stall_cycles": sum(p.wb_stall_cycles for p in procs),
        "sync_stall_cycles": sum(p.sync_stall_cycles for p in procs),
        "remote_mem_reads": stats.reads_at_remote_memory(),
        "read_latency_sum": stats.total_read_stall(),
        "writes_completed": stats.writes_completed,
        "upgrades_completed": stats.upgrades_completed,
        "breakdown_count": stats.breakdown_count,
        "wb_stores": sum(w.stores_retired for w in wbufs),
        "wb_merged": sum(w.stores_merged for w in wbufs),
        "wb_full_stalls": sum(w.full_stalls for w in wbufs),
        "reads_issued": sum(c.reads_issued for c in ctrls),
        "writes_issued": sum(c.writes_issued for c in ctrls),
        "invs_received": sum(node.invs_received for node in nodes),
        "recalls": sum(h.reads_recalled for h in homes),
        "dir_updates": sum(h.dir_updates for h in homes),
        "corrective_invs": sum(h.corrective_invs for h in homes),
        "msgs": fstats.msgs_injected,
        "flits": fstats.flits_injected,
        "fabric_switch_hits": fstats.switch_hits,
        "dram_reads": sum(m.reads for m in mems),
        "dram_writes": sum(m.writes for m in mems),
        "mem_queued_cycles": sum(m.array.queued_cycles for m in mems),
        "mem_reservations": sum(m.array.reservations for m in mems),
        "events": machine.sim.events_fired,
        "peak_pending": machine.sim.peak_pending,
    }
    for category, count in stats.read_counts.items():
        counts["read_" + category] = count
    for component, total in stats.breakdown_sums.items():
        counts["breakdown_" + component] = total
    for key in ("lookups", "hits", "deposits", "snoops", "purges"):
        counts["sc_" + key] = sc[key]
    return counts


#: host-side counts: they depend on how the simulator schedules work, not
#: on what the modelled machine does, so they are neither pinned nor
#: required to repeat
HOST_COUNTS = ("events", "peak_pending")


def simulated(counts: Dict[str, int]) -> Dict[str, int]:
    return {k: v for k, v in counts.items() if k not in HOST_COUNTS}


def check(machine, counts: Dict[str, int]) -> List[str]:
    """Problems with one finished run (empty when it is correct)."""
    problems = list(machine.check_coherence())
    unfinished = [s.proc_id for s in machine.stacks() if not s.processor.done]
    if unfinished:
        problems.append(f"processors {unfinished} unfinished")
    # every switch-cache hit is one read served by a switch, one hit the
    # fabric recorded, and one directory update at the block's home
    identity = {
        "CAESAR hits": counts["sc_hits"],
        "MachineStats.read_counts['switch']": counts["read_switch"],
        "fabric.stats.switch_hits": counts["fabric_switch_hits"],
        "sum of home_ctrl.dir_updates": counts["dir_updates"],
    }
    if len(set(identity.values())) != 1:
        problems.append(f"switch-hit reconciliation broken: {identity}")
    return problems


def load_pins(path: Path = PINS_PATH) -> Dict[str, Any]:
    if not path.exists():
        return {}
    with open(path) as handle:
        return json.load(handle)


def write_pins(result: Result, size: str, path: Path = PINS_PATH) -> None:
    """Record ``result``'s simulated statistics as the reference values."""
    pins = load_pins(path)
    pins.setdefault(size, {})[result.workload] = {
        name: simulated(counts) for name, counts in result.counts.items()
    }
    with open(path, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


def pin_problems(pinned: Optional[Dict[str, int]],
                 counts: Dict[str, int]) -> List[str]:
    if pinned is None:
        return ["no pinned reference values"]
    actual = simulated(counts)
    return [
        f"{key}: {actual.get(key)} != pinned {pinned.get(key)}"
        for key in sorted(set(pinned) | set(actual))
        if actual.get(key) != pinned.get(key)
    ]


# ---------------------------------------------------------------------------
# tracing: spans around the benchmark's own calls, cProfile folded by layer
# ---------------------------------------------------------------------------


class Spans:
    """In-memory span recorder (CPU-time clock), written out at the end.

    Each span is ``{id, name, parent, start, end}``; ``parent`` is the id
    of the span that was open when it started.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "id": len(self.records), "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.process_time(), "end": 0.0,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.process_time()
            self._open.pop()

    def total(self, kind: str) -> float:
        """Summed duration of every span named ``<kind>:...``."""
        return math.fsum(
            r["end"] - r["start"] for r in self.records
            if r["name"].split(":", 1)[0] == kind
        )


def _no_span(_name: str) -> ContextManager[None]:
    return contextlib.nullcontext()


def layer_of(filename: str, repro_dir: str) -> str:
    """The ``src/repro`` package a profiled function belongs to."""
    if not filename.startswith(repro_dir):
        return "other"
    package = filename[len(repro_dir):].lstrip(os.sep).split(os.sep, 1)[0]
    return package if package in LAYERS else "other"


def fold_profile(profile: cProfile.Profile) -> Tuple[Dict[str, float], float]:
    """Self time per layer, and the profile's own total self time."""
    repro_dir = str(Path(repro.__file__).resolve().parent)
    raw = pstats.Stats(profile).stats
    parts: Dict[str, List[float]] = {layer: [] for layer in LAYERS + ("other",)}
    every: List[float] = []
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in raw.items():
        parts[layer_of(filename, repro_dir)].append(tottime)
        every.append(tottime)
    return ({layer: math.fsum(v) for layer, v in parts.items()},
            math.fsum(every))


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


@dataclass
class Result:
    """Everything one benchmark invocation measured."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    setup_samples: List[float] = field(default_factory=list)
    #: run seconds per app, one dict per pass whose runs all succeeded
    passes: List[Dict[str, float]] = field(default_factory=list)
    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    pinned: bool = False
    identity_ok: bool = True
    traced: Optional[Dict[str, Any]] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.identity_ok and bool(self.passes)

    def run_s(self) -> float:
        """Median over passes of the pass's summed ``Machine.run`` time."""
        return statistics.median(math.fsum(p.values()) for p in self.passes)


def _setup_sample(workload: str, size: str, seed: int) -> float:
    gc.collect()
    started = time.process_time()
    built = build(workload, size, seed)
    elapsed = time.process_time() - started
    del built
    return elapsed


def _check_run(result: Result, name: str, machine,
               pins: Optional[Dict[str, Any]]) -> List[str]:
    counts = observe(machine)
    problems = check(machine, counts)
    first = result.counts.setdefault(name, counts)
    if simulated(first) != simulated(counts):
        problems.append("simulated statistics differ between repeats")
    if pins is not None:
        problems += pin_problems(pins.get(name), counts)
    return problems


def _one_pass(result: Result, size: str, pins: Optional[Dict[str, Any]],
              spans: Optional[Spans] = None) -> Optional[Dict[str, float]]:
    """Build, run and check every app once; each app's run time, or None
    when any of the pass's runs failed."""
    span = spans.span if spans is not None else _no_span
    workload = result.workload
    failed_before = result.failed
    run_times: Dict[str, float] = {}
    with span("pass:" + workload):
        with span("setup:" + workload):
            built = build(workload, size, result.seed)
        for name, machine, app in built:
            result.attempted += 1
            try:
                gc.collect()
                with span("run:" + name):
                    started = time.process_time()
                    machine.run(app)
                    run_times[name] = time.process_time() - started
                with span("check:" + name):
                    problems = _check_run(result, name, machine, pins)
            except Exception:  # a run that raises is a failed run
                problems = [traceback.format_exc().strip()]
            if problems:
                result.failed += 1
                result.problems += [f"{workload}/{name}: {p}" for p in problems]
    return run_times if result.failed == failed_before else None


def measure(workload: str, seed: int, seconds: float, trace: bool = False,
            size: str = "full",
            pins: Optional[Dict[str, Any]] = None) -> Result:
    """Timed passes, each after a few set-up samples, for ``seconds`` of
    wall time; then, with ``trace``, one profiled pass.

    ``pins`` is the content of ``pins.json``; None skips the pin check
    (used to write the pins).  Runs of a workload whose seed is not the
    default one are only checked against themselves.
    """
    result = Result(workload, seed)
    workload_pins = None
    if pins is not None and (seed == DEFAULT_SEED or not uses_seed(workload)):
        workload_pins = pins.get(size, {}).get(workload, {})
        result.pinned = True
    _setup_sample(workload, size, seed)  # warm-up, not counted
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        passes += 1
        for _ in range(SETUP_SAMPLES_PER_PASS):
            result.setup_samples.append(_setup_sample(workload, size, seed))
        run_times = _one_pass(result, size, workload_pins)
        if run_times is not None:
            result.passes.append(run_times)
    if trace:
        result.traced = traced_pass(result, size, workload_pins)
    return result


def traced_pass(result: Result, size: str,
                pins: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """One pass under cProfile, with spans around setup/run/check."""
    spans = Spans()
    profile = cProfile.Profile()
    gc.collect()
    profile.enable()
    try:
        _one_pass(result, size, pins, spans)
    finally:
        profile.disable()
    self_s, total = fold_profile(profile)
    folded = math.fsum(self_s.values())
    if abs(folded - total) > 1e-9 * max(total, 1.0):
        result.identity_ok = False
        result.problems.append(
            f"per-layer self times sum to {folded!r}, profile total {total!r}")
    return {"self_s": self_s, "total_s": total, "spans": spans.records,
            "run_s": spans.total("run"), "setup_s": spans.total("setup"),
            "check_s": spans.total("check")}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _sum_counts(result: Result) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for counts in result.counts.values():
        for key, value in counts.items():
            if key == "peak_pending":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result: Result) -> Dict[str, Tuple[float, str]]:
    counts = _sum_counts(result)
    run_s = result.run_s()
    return {
        "run_s": (run_s, "s"),
        "kops_per_s": (counts["ops"] / run_s / 1000.0, "kops/s"),
        "setup_s": (statistics.median(result.setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sim_cycles": (counts["exec_time"], "cycles"),
        "remote_mem_reads": (counts["remote_mem_reads"], "count"),
        "read_stall_cycles": (counts["read_stall_cycles"], "cycles"),
    }


def per_layer(result: Result) -> Dict[str, Tuple[float, str]]:
    if result.traced is None:
        raise ValueError("per-layer metrics need a traced pass")
    c = _sum_counts(result)
    run_s = result.run_s()
    traced = result.traced
    metrics: Dict[str, Tuple[float, str]] = {
        f"{layer}.self_s": (seconds, "s")
        for layer, seconds in traced["self_s"].items()
    }
    metrics.update({
        "trace.total_s": (traced["total_s"], "s"),
        "trace.setup_s": (traced["setup_s"], "s"),
        "trace.run_s": (traced["run_s"], "s"),
        "trace.check_s": (traced["check_s"], "s"),
        "trace.overhead": (traced["run_s"] / run_s, "x"),
        "sim.events": (c["events"], "count"),
        "sim.peak_pending": (c["peak_pending"], "count"),
        "sim.us_per_event": (run_s / c["events"] * 1e6, "us"),
        "node.ops": (c["ops"], "count"),
        "node.wb_stall_cycles": (c["wb_stall_cycles"], "cycles"),
        "node.sync_stall_cycles": (c["sync_stall_cycles"], "cycles"),
        "cache.l1_hits": (c["read_l1"], "count"),
        "cache.l2_hits": (c["read_l2"], "count"),
        "cache.wb_hits": (c["read_wb"], "count"),
        "cache.wb_stores": (c["wb_stores"], "count"),
        "cache.wb_merged": (c["wb_merged"], "count"),
        "cache.wb_full_stalls": (c["wb_full_stalls"], "count"),
        "coherence.reads_issued": (c["reads_issued"], "count"),
        "coherence.writes_issued": (c["writes_issued"], "count"),
        "coherence.invs_received": (c["invs_received"], "count"),
        "coherence.recalls": (c["recalls"], "count"),
        "coherence.dir_updates": (c["dir_updates"], "count"),
        "coherence.corrective_invs": (c["corrective_invs"], "count"),
        "network.msgs": (c["msgs"], "count"),
        "network.flits": (c["flits"], "count"),
        "network.req_transit_mean": (
            _ratio(c["breakdown_req_transit"], c["breakdown_count"]), "cycles"),
        "network.reply_transit_mean": (
            _ratio(c["breakdown_reply_transit"], c["breakdown_count"]),
            "cycles"),
        "core.sc_lookups": (c["sc_lookups"], "count"),
        "core.sc_hits": (c["sc_hits"], "count"),
        "core.sc_hit_ratio": (_ratio(c["sc_hits"], c["sc_lookups"]), "ratio"),
        "core.sc_deposits": (c["sc_deposits"], "count"),
        "core.sc_snoops": (c["sc_snoops"], "count"),
        "core.sc_purges": (c["sc_purges"], "count"),
        "memory.dram_reads": (c["dram_reads"], "count"),
        "memory.dram_writes": (c["dram_writes"], "count"),
        "memory.mem_queue_mean": (
            _ratio(c["mem_queued_cycles"], c["mem_reservations"]), "cycles"),
    })
    return metrics


def write_trace(result: Result, env: Dict[str, Any]) -> Path:
    """Write the traced pass's spans and per-layer self times."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{result.workload}-seed{result.seed}-trace.json"
    with open(path, "w") as handle:
        json.dump({"workload": result.workload, "seed": result.seed,
                   "environment": env, **(result.traced or {})},
                  handle, indent=1)
    return path


def environment() -> Dict[str, Any]:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }


def forbidden_env() -> List[str]:
    return [name for name in FORBIDDEN_ENV if name in os.environ]

