"""The paper's tables and figures (see DESIGN.md experiment index).

Each experiment is a pair: a ``runs_*(scale)`` function declaring every
simulation it needs, as ``label -> (app, config, app overrides)``, and
a ``render_*(scale, records)`` function that reads those runs'
:class:`~repro.experiments.common.RunRecord` s by label and returns
``(text, data)``: ``text`` prints the same rows/series the paper
reports and ``data`` carries the raw numbers for programmatic checks
(the test suite asserts the paper's qualitative claims against these).
``registry.py`` pairs them under the experiment's id and titles.
"""

from __future__ import annotations

from typing import Dict, List

from ..stats.report import format_series, format_table, percent
from ..system.config import KB, SystemConfig
from ..system.presets import (
    base_config,
    caesar_plus_config,
    netcache_config,
    switch_cache_config,
)
from .common import APP_ORDER, APP_SCALES, grid

#: switch-cache sizes swept by the paper's evaluation (bytes per switch)
SC_SIZES = (512, 1024, 2048, 4096)


def no_runs(scale: str) -> Dict:
    """T1/T2 tabulate static parameters; they need no simulation."""
    return {}


def base_runs(scale: str) -> Dict:
    """Every app on the base machine (F3, F4, F5), labelled by app."""
    return {name: (name, base_config(), None) for name in APP_ORDER}


# ----------------------------------------------------------------------
# T1 — CAESAR access operations and delays (static)
# ----------------------------------------------------------------------
def render_t1(scale: str, records: Dict):
    from ..core.caesar import TAG_CYCLES, data_cycles

    rows = []
    for width in (64, 128, 256):
        block_cycles = TAG_CYCLES + data_cycles(64, width)
        rows.append(
            ("regular read hit", f"{width}-bit", "tag + data", block_cycles)
        )
        rows.append(
            ("regular read miss", f"{width}-bit", "tag", TAG_CYCLES)
        )
        rows.append(
            ("reply deposit", f"{width}-bit", "tag + data", block_cycles)
        )
    rows.append(("snoop probe (miss)", "-", "snoop tag port", TAG_CYCLES))
    rows.append(("snoop purge (hit)", "-", "snoop tag port", 2 * TAG_CYCLES))
    text = format_table(
        ("operation", "data width", "resources", "cycles"), rows,
        title="CAESAR switch-cache access operations and delays",
    )
    return text, {"rows": rows}


# ----------------------------------------------------------------------
# T2 — simulation parameters and application inputs (static)
# ----------------------------------------------------------------------
def render_t2(scale: str, records: Dict):
    cfg = SystemConfig()
    param_rows = [
        ("processors", cfg.num_nodes),
        ("L1 cache", f"{cfg.l1_size // KB}KB, {cfg.l1_assoc}-way, {cfg.l1_hit_cycles} cyc"),
        ("L2 cache", f"{cfg.l2_size // KB}KB, {cfg.l2_assoc}-way, {cfg.l2_hit_cycles} cyc"),
        ("cache block", f"{cfg.block_size}B"),
        ("write buffer", f"{cfg.write_buffer_entries} entries"),
        ("memory", f"{cfg.memory_access_cycles} cyc raw, "
                   f"{cfg.memory_access_cycles + 2 * cfg.memory_bus_cycles} cyc end-to-end"),
        ("network", "BMIN, 4x4 switches, wormhole, 2 VCs"),
        ("switch delay", f"{cfg.switch_delay} cyc"),
        ("link", f"16-bit, {cfg.cycles_per_flit} cyc/flit (8B flits)"),
        ("coherence", "MSI + full-map directory, release consistency"),
    ]
    app_rows = [
        (name, ", ".join(f"{k}={v}" for k, v in APP_SCALES[scale][name].items()))
        for name in APP_ORDER
    ]
    text = (
        format_table(("parameter", "value"), param_rows,
                     title="System parameters (paper Table 2)")
        + "\n\n"
        + format_table(("application", "input"), app_rows,
                       title=f"Application inputs (scale={scale})")
    )
    return text, {"params": param_rows, "apps": app_rows}


# ----------------------------------------------------------------------
# F3 — read sharing pattern
# ----------------------------------------------------------------------
def render_f3(scale: str, records: Dict):
    data: Dict[str, Dict[int, float]] = {}
    lines: List[str] = []
    buckets = (1, 2, 4, 8, 16)
    for name in APP_ORDER:
        record = records[name]
        histogram = record.stats.sharing_histogram(16)
        total = sum(histogram.values()) or 1
        # bucketize: 1, 2, 3-4, 5-8, 9-16 readers
        grouped = {1: 0, 2: 0, 4: 0, 8: 0, 16: 0}
        for degree, count in histogram.items():
            for b in buckets:
                if degree <= b:
                    grouped[b] += count
                    break
        data[name] = {b: grouped[b] / total for b in buckets}
        lines.append(
            format_series(
                f"{name} (mean degree {record.stats.mean_sharing_degree():.2f})",
                [f"<= {b}" for b in buckets],
                [data[name][b] for b in buckets],
            )
        )
    text = "Fraction of L2-miss reads to blocks read by k processors\n" + "\n".join(lines)
    return text, data


# ----------------------------------------------------------------------
# F4 — ideal global cache (Sec. 2.2 motivation)
# ----------------------------------------------------------------------
def render_f4(scale: str, records: Dict):
    rows = []
    data = {}
    for name in APP_ORDER:
        record = records[name]
        rate = record.stats.ideal_global_hit_rate()
        data[name] = rate
        rows.append((name, record.stats.shared_reads(), percent(rate)))
    text = format_table(
        ("app", "L2-miss reads", "ideal global-cache hit rate"), rows,
        title="Upper bound: reads an infinite shared network cache could serve",
    )
    return text, data


# ----------------------------------------------------------------------
# F5 — base-system remote read latency breakdown (Sec. 2.1)
# ----------------------------------------------------------------------
def render_f5(scale: str, records: Dict):
    rows = []
    data = {}
    for name in APP_ORDER:
        record = records[name]
        means = record.stats.breakdown_means()
        data[name] = means
        rows.append(
            (
                name,
                f"{record.stats.mean_latency('remote_mem'):.0f}",
                f"{means['req_ni_q']:.1f}",
                f"{means['req_transit']:.1f}",
                f"{means['mem_queue']:.1f}",
                f"{means['mem_service']:.1f}",
                f"{means['reply_ni_q']:.1f}",
                f"{means['reply_transit']:.1f}",
            )
        )
    text = format_table(
        ("app", "remote read lat", "req NI q", "req transit", "mem queue",
         "mem service", "reply NI q", "reply transit"),
        rows,
        title="Remote read latency breakdown, base system (cycles)",
    )
    return text, data


# ----------------------------------------------------------------------
# E1 — read service distribution: base vs switch cache
# ----------------------------------------------------------------------
def runs_e1(scale: str) -> Dict:
    return grid({"base": base_config(),
                 "sc": switch_cache_config(size=2 * KB)})


def render_e1(scale: str, records: Dict):
    rows = []
    data = {}
    for name in APP_ORDER:
        for tag in ("base", "sc"):
            record = records[(name, tag)]
            dist = record.stats.service_distribution()
            data[(name, record.config_label)] = dist
            rows.append(
                (
                    name,
                    record.config_label,
                    percent(dist["l1"] + dist["wb"]),
                    percent(dist["l2"]),
                    percent(dist["local_mem"]),
                    percent(dist["switch"]),
                    percent(dist["remote_mem"] + dist["owner"]),
                )
            )
    text = format_table(
        ("app", "config", "L1/WB", "L2", "local mem", "switch cache", "remote mem"),
        rows,
        title="Where reads are served",
    )
    return text, data


# ----------------------------------------------------------------------
# E2 — reduction in reads served at remote memory (claim C1, <= 45 %)
# ----------------------------------------------------------------------
def runs_e2(scale: str) -> Dict:
    configs = {"base": base_config()}
    configs.update((size, switch_cache_config(size=size)) for size in SC_SIZES)
    return grid(configs)


def render_e2(scale: str, records: Dict):
    rows = []
    data: Dict[str, Dict[int, float]] = {}
    for name in APP_ORDER:
        base_remote = records[(name, "base")].stats.reads_at_remote_memory()
        reductions = {}
        for size in SC_SIZES:
            remote = records[(name, size)].stats.reads_at_remote_memory()
            reductions[size] = (1 - remote / base_remote) if base_remote else 0.0
        data[name] = reductions
        rows.append(
            (name, base_remote)
            + tuple(percent(reductions[size]) for size in SC_SIZES)
        )
    text = format_table(
        ("app", "base remote reads") + tuple(f"SC {s}B" for s in SC_SIZES),
        rows,
        title="Reduction in reads served at remote memory",
    )
    return text, data


# ----------------------------------------------------------------------
# E3 — average remote read latency: base vs NC vs SC
# E4 — read stall time normalized to base (claim C3, <= 35 % reduction)
# ----------------------------------------------------------------------
E3_E4_TAGS = ("base", "nc", "sc")


def runs_e3_e4(scale: str) -> Dict:
    return grid(dict(zip(E3_E4_TAGS, (
        base_config(),
        netcache_config(),
        switch_cache_config(size=2 * KB),
    ))))


def render_e3(scale: str, records: Dict):
    rows = []
    data = {}
    for name in APP_ORDER:
        row = [name]
        for tag in E3_E4_TAGS:
            record = records[(name, tag)]
            latency = record.stats.mean_remote_read_latency()
            data[(name, record.config_label)] = latency
            row.append(f"{latency:.0f}")
        rows.append(tuple(row))
    text = format_table(
        ("app", "base", "network cache", "switch cache (2KB)"),
        rows,
        title="Mean remote read latency (cycles)",
    )
    return text, data


def render_e4(scale: str, records: Dict):
    rows = []
    data = {}
    for name in APP_ORDER:
        base_stall = records[(name, "base")].stats.total_read_stall() or 1
        row = [name]
        for tag in E3_E4_TAGS:
            record = records[(name, tag)]
            normalized = record.stats.total_read_stall() / base_stall
            data[(name, record.config_label)] = normalized
            row.append(f"{normalized:.3f}")
        rows.append(tuple(row))
    text = format_table(
        ("app", "base", "network cache", "switch cache (2KB)"),
        rows,
        title="Read stall time (normalized to base)",
    )
    return text, data


# ----------------------------------------------------------------------
# E5 — normalized execution time (claim C2, <= 20 % improvement)
# ----------------------------------------------------------------------
def runs_e5(scale: str) -> Dict:
    configs = {"base": base_config(), "NC": netcache_config()}
    configs.update((size, switch_cache_config(size=size)) for size in SC_SIZES)
    return grid(configs)


def render_e5(scale: str, records: Dict):
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    for name in APP_ORDER:
        base = records[(name, "base")]
        entries: Dict[str, float] = {"base": 1.0}
        entries["NC"] = records[(name, "NC")].exec_time / base.exec_time
        for size in SC_SIZES:
            entries[f"SC-{size}"] = (
                records[(name, size)].exec_time / base.exec_time
            )
        data[name] = entries
        rows.append(
            (name, base.exec_time, f"{entries['NC']:.3f}")
            + tuple(f"{entries[f'SC-{s}']:.3f}" for s in SC_SIZES)
        )
    text = format_table(
        ("app", "base cycles", "NC") + tuple(f"SC {s}B" for s in SC_SIZES),
        rows,
        title="Execution time normalized to base",
    )
    return text, data


# ----------------------------------------------------------------------
# E6 — switch-cache size sensitivity (claim C4: 512 B already helps)
# ----------------------------------------------------------------------
E6_SIZES = (512, 1024, 2048, 4096, 8192)


def runs_e6(scale: str) -> Dict:
    configs = {"base": base_config()}
    configs.update((size, switch_cache_config(size=size)) for size in E6_SIZES)
    return grid(configs)


def render_e6(scale: str, records: Dict):
    lines = []
    data: Dict[str, Dict[int, float]] = {}
    for name in APP_ORDER:
        base = records[(name, "base")]
        improvements = {
            size: 1 - records[(name, size)].exec_time / base.exec_time
            for size in E6_SIZES
        }
        data[name] = improvements
        lines.append(
            format_series(name, list(E6_SIZES),
                          [improvements[s] for s in E6_SIZES])
        )
    text = (
        "Execution-time improvement vs switch-cache size (bytes/switch)\n"
        + "\n".join(lines)
    )
    return text, data


# ----------------------------------------------------------------------
# E7 — CAESAR vs CAESAR+ (banked data arrays)
# ----------------------------------------------------------------------
def runs_e7(scale: str) -> Dict:
    return grid({"CAESAR": switch_cache_config(size=2 * KB, banks=1),
                 "CAESAR+": caesar_plus_config(size=2 * KB)})


def render_e7(scale: str, records: Dict):
    rows = []
    data = {}
    for name in APP_ORDER:
        for label in ("CAESAR", "CAESAR+"):
            record = records[(name, label)]
            data[(name, label)] = {
                "exec": record.exec_time,
                "data_queue": record.mean_data_queue,
                "deposit_skips": record.switch_totals["deposit_skips"],
                "bypasses": record.switch_totals["bypasses"],
            }
            rows.append(
                (
                    name,
                    label,
                    record.exec_time,
                    f"{record.mean_data_queue:.2f}",
                    record.switch_totals["deposit_skips"],
                    record.switch_totals["bypasses"],
                )
            )
    text = format_table(
        ("app", "design", "exec cycles", "data-port queue", "deposit skips",
         "bypasses"),
        rows,
        title="CAESAR (1 bank) vs CAESAR+ (2 interleaved banks)",
    )
    return text, data


# ----------------------------------------------------------------------
# E8 — data-array output width
# ----------------------------------------------------------------------
E8_WIDTHS = (64, 128, 256)


def runs_e8(scale: str) -> Dict:
    return grid({width: switch_cache_config(size=2 * KB, width_bits=width)
                 for width in E8_WIDTHS})


def render_e8(scale: str, records: Dict):
    rows = []
    data = {}
    for name in APP_ORDER:
        for width in E8_WIDTHS:
            record = records[(name, width)]
            data[(name, width)] = {
                "exec": record.exec_time,
                "data_queue": record.mean_data_queue,
                "switch_reads": record.stats.read_counts["switch"],
            }
            rows.append(
                (
                    name,
                    f"{width}b",
                    record.exec_time,
                    f"{record.mean_data_queue:.2f}",
                    record.stats.read_counts["switch"],
                )
            )
    text = format_table(
        ("app", "width", "exec cycles", "data-port queue", "switch-served reads"),
        rows,
        title="Switch-cache data-array output width",
    )
    return text, data


# ----------------------------------------------------------------------
# E9 — switch-cache hits by MIN stage
# ----------------------------------------------------------------------
def runs_e9(scale: str) -> Dict:
    return {name: (name, switch_cache_config(size=2 * KB), None)
            for name in APP_ORDER}


def render_e9(scale: str, records: Dict):
    lines = []
    data = {}
    for name in APP_ORDER:
        by_stage = records[name].switch_hits_by_stage
        total = sum(by_stage.values()) or 1
        shares = {s: by_stage.get(s, 0) / total for s in range(4)}
        data[name] = shares
        lines.append(
            format_series(
                f"{name} ({sum(by_stage.values())} hits)",
                [f"stage {s}" for s in range(4)],
                [shares[s] for s in range(4)],
            )
        )
    text = "Share of switch-cache hits by MIN stage (0 = nearest processors)\n" + "\n".join(lines)
    return text, data
