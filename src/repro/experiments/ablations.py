"""Ablation experiments beyond the paper's reported figures.

These probe the design choices DESIGN.md calls out:

* A1 — *stage placement*: cache only at one MIN stage at a time.  Where
  in the tree is the caching opportunity?
* A2 — *robustness thresholds*: the busy-bypass and deposit-skip
  policies that keep CAESAR off the crossbar's critical path.
* A3 — *associativity*: direct-mapped vs 2/4-way switch caches.
* A4 — *system size scaling*: the benefit as the machine grows (deeper
  BMIN, longer remote paths — the paper's scalability argument).

Each ablation is declared like the paper's experiments in
``runners.py``: ``runs_*(scale)`` names its simulations by label and
``render_*(scale, records)`` builds ``(text, data)`` from them.
"""

from __future__ import annotations

from typing import Dict

from ..stats.report import format_series, format_table
from ..system.config import KB, SystemConfig
from ..system.presets import base_config, switch_cache_config
from .common import grid

#: apps with enough sharing to make ablations meaningful
SHARING_APPS = ("FWA", "GS", "GE", "MM")


A1_PLACEMENTS = [({s}, f"stage {s}") for s in range(4)] + [(None, "all")]


def runs_a1(scale: str) -> Dict:
    configs = {"base": base_config()}
    configs.update((label, switch_cache_config(size=2 * KB, stages=stages))
                   for stages, label in A1_PLACEMENTS)
    return grid(configs, SHARING_APPS)


def render_a1(scale: str, records: Dict):
    """Cache at a single MIN stage at a time (plus all stages)."""
    rows = []
    data: Dict = {}
    for name in SHARING_APPS:
        base = records[(name, "base")]
        for _stages, label in A1_PLACEMENTS:
            record = records[(name, label)]
            improvement = 1 - record.exec_time / base.exec_time
            hits = record.stats.read_counts["switch"]
            data[(name, label)] = {"improvement": improvement, "hits": hits}
            rows.append((name, label, f"{improvement:.1%}", hits))
    text = format_table(
        ("app", "caching stages", "exec improvement", "switch hits"),
        rows,
        title="A1: switch-cache placement by MIN stage",
    )
    return text, data


A2_SETTINGS = ((0, 0), (4, 16), (64, 256))


def runs_a2(scale: str) -> Dict:
    configs = {"base": base_config()}
    configs.update(
        ((bypass, deposit), switch_cache_config(size=2 * KB).replaced(
            switch_cache_bypass_threshold=bypass,
            switch_cache_deposit_threshold=deposit,
        ))
        for bypass, deposit in A2_SETTINGS
    )
    return grid(configs, SHARING_APPS)


def render_a2(scale: str, records: Dict):
    """Busy-bypass / deposit-skip thresholds (0 = maximally defensive)."""
    rows = []
    data: Dict = {}
    for name in SHARING_APPS:
        base = records[(name, "base")]
        for bypass, deposit in A2_SETTINGS:
            record = records[(name, (bypass, deposit))]
            improvement = 1 - record.exec_time / base.exec_time
            data[(name, bypass, deposit)] = improvement
            rows.append(
                (
                    name,
                    f"bypass<={bypass}, deposit<={deposit}",
                    f"{improvement:.1%}",
                    record.switch_totals["bypasses"],
                    record.switch_totals["deposit_skips"],
                )
            )
    text = format_table(
        ("app", "policy", "exec improvement", "bypasses", "deposit skips"),
        rows,
        title="A2: CAESAR robustness-policy thresholds",
    )
    return text, data


A3_ASSOCS = (1, 2, 4)


def runs_a3(scale: str) -> Dict:
    configs = {"base": base_config()}
    configs.update((assoc, switch_cache_config(size=1 * KB, assoc=assoc))
                   for assoc in A3_ASSOCS)
    return grid(configs, SHARING_APPS)


def render_a3(scale: str, records: Dict):
    """Switch-cache associativity (conflict sensitivity)."""
    rows = []
    data: Dict = {}
    for name in SHARING_APPS:
        base = records[(name, "base")]
        for assoc in A3_ASSOCS:
            record = records[(name, assoc)]
            improvement = 1 - record.exec_time / base.exec_time
            data[(name, assoc)] = improvement
            rows.append(
                (name, f"{assoc}-way", f"{improvement:.1%}",
                 record.stats.read_counts["switch"])
            )
    text = format_table(
        ("app", "associativity", "exec improvement", "switch hits"),
        rows,
        title="A3: switch-cache associativity (1KB per switch)",
    )
    return text, data


A4_SIZES = (4, 8, 16, 32)


def _a4_rows_per_proc(scale: str) -> int:
    return 2 if scale == "quick" else 4


def runs_a4(scale: str) -> Dict:
    runs = {}
    for n in A4_SIZES:
        overrides = {"n": _a4_rows_per_proc(scale) * n}
        runs[(n, "base")] = ("GE", base_config(num_nodes=n), overrides)
        runs[(n, "sc")] = (
            "GE", switch_cache_config(size=2 * KB, num_nodes=n), overrides,
        )
    return runs


def render_a4(scale: str, records: Dict):
    """Benefit vs machine size (weak scaling: the GE matrix grows with N).

    Deeper BMINs mean longer remote paths and more switches per path for
    a reply to seed — the paper's scalability argument for in-network
    caching.  Problem size is scaled with the machine so per-processor
    work stays constant.
    """
    rows_per_proc = _a4_rows_per_proc(scale)
    lines = []
    data: Dict = {}
    improvements = []
    remote_fracs = []
    for n in A4_SIZES:
        base_stats = records[(n, "base")].stats
        sc_stats = records[(n, "sc")].stats
        improvement = 1 - sc_stats.exec_time / base_stats.exec_time
        total = base_stats.total_reads()
        remote = base_stats.remote_reads()
        improvements.append(improvement)
        remote_fracs.append(remote / total if total else 0.0)
        data[n] = {"improvement": improvement,
                   "remote_fraction": remote_fracs[-1],
                   "ge_n": rows_per_proc * n}
    lines.append(format_series("exec improvement", list(A4_SIZES),
                               improvements))
    lines.append(format_series("remote read fraction (base)", list(A4_SIZES),
                               remote_fracs))
    text = (
        f"A4: GE benefit vs machine size (weak scaling, n = {rows_per_proc}*N)\n"
        + "\n".join(lines)
    )
    return text, data


A6_SHAPES = ((16, 1), (8, 2), (4, 4))


def runs_a6(scale: str) -> Dict:
    overrides = {"n": 24 if scale == "quick" else 48}
    # small L2s so the streamed B matrix causes capacity re-fetches —
    # the miss class network caches exist to serve [16][29]
    small = dict(l1_size=512, l2_size=2 * KB)
    runs = {}
    for nodes, ppn in A6_SHAPES:
        shape = dict(num_nodes=nodes, procs_per_node=ppn, **small)
        runs[(nodes, ppn, "base")] = ("MM", base_config(**shape), overrides)
        runs[(nodes, ppn, "nc")] = (
            "MM", base_config(netcache_size=32 * KB, **shape), overrides,
        )
        runs[(nodes, ppn, "sc")] = (
            "MM", switch_cache_config(size=2 * KB, **shape), overrides,
        )
    return runs


def render_a6(scale: str, records: Dict):
    """Cluster organization: 16 processors as 16x1, 8x2, and 4x4 nodes.

    This is the paper's CC-NUMA context made explicit: with bus-based
    clusters a per-node network cache finally has multiple processors to
    serve, yet the switch caches — shared by *every* processor whose path
    crosses them — retain the advantage.  L2s are shrunk so capacity
    misses exist for the network cache to catch.
    """
    rows = []
    data: Dict = {}
    for nodes, ppn in A6_SHAPES:
        base = records[(nodes, ppn, "base")].stats
        nc = records[(nodes, ppn, "nc")].stats
        sc = records[(nodes, ppn, "sc")].stats
        data[(nodes, ppn)] = {
            "nc": nc.exec_time / base.exec_time,
            "sc": sc.exec_time / base.exec_time,
            "nc_hits": nc.read_counts["netcache"],
            "cluster_reads": base.read_counts["cluster"],
        }
        rows.append(
            (
                f"{nodes}x{ppn}",
                base.exec_time,
                f"{nc.exec_time / base.exec_time:.3f}",
                f"{sc.exec_time / base.exec_time:.3f}",
                nc.read_counts["netcache"],
                base.read_counts["cluster"],
            )
        )
    text = format_table(
        ("nodes x procs", "base cycles", "NC (norm)", "SC (norm)",
         "NC hits", "bus sibling reads"),
        rows,
        title="A6: cluster organization (MM, 16 processors total)",
    )
    return text, data


A7_POLICIES = ("lru", "fifo", "random")


def runs_a7(scale: str) -> Dict:
    configs = {"base": base_config()}
    configs.update(
        (policy, switch_cache_config(size=1 * KB).replaced(
            switch_cache_replacement=policy))
        for policy in A7_POLICIES
    )
    return grid(configs, SHARING_APPS)


def render_a7(scale: str, records: Dict):
    """Switch-cache replacement policy: LRU vs FIFO vs random.

    The paper's CAESAR uses LRU within a set; FIFO needs no hit-path
    update of replacement state (a simpler SRAM), and random is the
    cheapest of all.  With small caches and bursty producer-consumer
    reuse the policies should be close — which is itself a useful design
    data point.
    """
    rows = []
    data: Dict = {}
    for name in SHARING_APPS:
        base = records[(name, "base")]
        for policy in A7_POLICIES:
            record = records[(name, policy)]
            improvement = 1 - record.exec_time / base.exec_time
            data[(name, policy)] = improvement
            rows.append(
                (name, policy, f"{improvement:.1%}",
                 record.stats.read_counts["switch"])
            )
    text = format_table(
        ("app", "replacement", "exec improvement", "switch hits"),
        rows,
        title="A7: switch-cache replacement policy (1KB per switch)",
    )
    return text, data


A8_END_TO_END = (("GE n=16 end-to-end", 0),
                 ("GE n=16 + 1KB switch caches", 1024))
A8_MODELS = ("message", "flit")


def runs_a8(scale: str) -> Dict:
    # end-to-end: a full application run on a 4-node machine
    return {
        (label, model): ("GE", SystemConfig(
            num_nodes=4, l1_size=1024, l2_size=4096,
            switch_cache_size=sc_size, network_model=model,
        ), {"n": 16})
        for label, sc_size in A8_END_TO_END for model in A8_MODELS
    }


def render_a8(scale: str, records: Dict):
    """Network-model validation: message-level fabric vs flit reference.

    Runs identical microbenchmark traffic on the production
    message-granularity fabric and on the flit-accurate wormhole
    reference (finite VCs, credit flow control) and reports both
    latencies — the evidence behind DESIGN.md's wormhole substitution.
    The microbenchmarks are deterministic inline simulations of the bare
    network, not Machine runs, so they live in the render; only the
    end-to-end application runs are declared.
    """
    from ..network.fabric import Fabric
    from ..network.flitref import FlitNetwork
    from ..network.message import Message, MsgKind, flits_for
    from ..network.topology import BminTopology
    from ..sim.engine import Simulator

    def run_traffic(model_cls, traffic):
        sim = Simulator()
        network = model_cls(sim, BminTopology(16))
        for node in range(16):
            network.attach_node(node, lambda m: None)
        msgs = []
        for src, dst, kind in traffic:
            msg = Message(kind, src, dst, 0x40, flits_for(kind, 64), data=0)
            msgs.append(msg)
            network.inject(msg)
        sim.run()
        return msgs

    rows = []
    data: Dict = {}
    cases = [
        ("read 0->1", [(0, 1, MsgKind.READ)]),
        ("read 0->15", [(0, 15, MsgKind.READ)]),
        ("data 0->1", [(0, 1, MsgKind.DATA_S)]),
        ("data 0->15", [(0, 15, MsgKind.DATA_S)]),
        ("hotspot 15->1", [(s, 0, MsgKind.DATA_S) for s in range(1, 16)]),
    ]
    for label, traffic in cases:
        fast = run_traffic(Fabric, traffic)
        ref = run_traffic(FlitNetwork, traffic)
        fast_t = max(m.delivered_at - m.created_at for m in fast)
        ref_t = max(m.delivered_at - m.created_at for m in ref)
        data[label] = {"fabric": fast_t, "flit_ref": ref_t}
        rows.append((label, fast_t, ref_t, f"{fast_t / ref_t:.3f}"))
    for label, _sc_size in A8_END_TO_END:
        message = records[(label, "message")].exec_time
        flit = records[(label, "flit")].exec_time
        data[label] = {"fabric": message, "flit_ref": flit}
        rows.append((label, message, flit, f"{message / flit:.3f}"))
    text = format_table(
        ("microbenchmark", "fabric (cyc)", "flit reference (cyc)", "ratio"),
        rows,
        title="A8: message-level fabric vs flit-level wormhole reference",
    )
    return text, data
