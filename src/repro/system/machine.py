"""Full-machine assembly and run loop.

``Machine`` wires a :class:`SystemConfig` into a complete CC-NUMA
multiprocessor: BMIN fabric (with CAESAR engines when enabled), one
:class:`~repro.node.node.Node` per node, barrier/lock managers, a shared
address space, and the statistics collector.  ``run`` executes an
application to completion and returns the statistics.

The machine also exposes the whole-system coherence audit used by the
test suite (:meth:`check_coherence`): at quiescence every cached copy —
L1, L2, network cache, or switch cache — must agree with its home
directory, and directory ownership must be exact.
"""

from __future__ import annotations

import os
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..apps.opstream import compile_stream
from ..cache.states import DirState
from ..core.caesar import CaesarEngine
from ..errors import DeadlockError, SimulationError
from ..network.fabric import Fabric
from ..network.flitref import FlitNetwork
from ..network.message import MessagePool
from ..network.topology import BminTopology
from ..node.node import Node
from ..node.sync import BarrierManager, LockManager
from ..sim.engine import Simulator
from ..stats.counters import MachineStats
from .addressing import AddressSpace
from .config import SystemConfig

if TYPE_CHECKING:
    from ..trace.metrics import MetricsRegistry
    from ..trace.tracer import Tracer
    from ..verify.sanitize import Sanitizer


class Machine:
    """One configured CC-NUMA multiprocessor."""

    def __init__(
        self,
        config: SystemConfig,
        sanitize: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.metrics = metrics
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        self.sim = Simulator()
        # installed before any component is built, so every hook sees it
        self.sim.tracer = tracer
        # one message pool per machine: a single message-id stream shared
        # by the fabric and every controller
        self.pool = MessagePool(config.block_size)
        self.topology = BminTopology(config.num_nodes)
        self.sanitizer: Optional[Sanitizer] = None
        fabric_cls: Callable[..., Fabric] = Fabric
        if sanitize:
            from ..verify.sanitize import SanitizedFabric, Sanitizer

            self.sanitizer = Sanitizer()
            fabric_cls = partial(SanitizedFabric, self.sanitizer)
        if config.network_model == "flit":
            # the flit-granularity reference model has no ledger; SCSan
            # still covers coherence, sync and worm conservation
            fabric_cls = FlitNetwork
        self.fabric = fabric_cls(
            self.sim,
            self.topology,
            switch_delay=config.switch_delay,
            cycles_per_flit=config.cycles_per_flit,
            pool=self.pool,
        )
        if config.switch_caches_enabled:
            self.fabric.install_cache_engines(
                lambda switch_id: CaesarEngine(self.sim, switch_id, config)
            )
        self.space = AddressSpace(config.num_nodes, config.block_size)
        self.stats = MachineStats(
            config.num_nodes * config.procs_per_node, metrics=metrics
        )
        self.barriers = BarrierManager(
            self.sim,
            config.num_nodes * config.procs_per_node,
            config.barrier_wakeup_cycles,
        )
        self.locks = LockManager(self.sim, config.lock_handoff_cycles)
        self._sync_addrs: Dict[Tuple[str, int], int] = {}
        self._done_count = 0
        self._num_procs = config.num_nodes * config.procs_per_node
        self.nodes: List[Node] = [
            Node(
                self.sim,
                node_id,
                config,
                self.fabric,
                self.space.home_of,
                self.barriers,
                self.locks,
                self.stats,
                self.sync_addr,
                self._node_done,
                pool=self.pool,
            )
            for node_id in range(config.num_nodes)
        ]
        if self.sanitizer is not None:
            self.sanitizer.attach_machine(self)

    # ------------------------------------------------------------------
    # run-time callbacks
    # ------------------------------------------------------------------
    def sync_addr(self, kind: str, sync_id: int) -> int:
        """Block-aligned address of a synchronization variable."""
        key = (kind, sync_id)
        addr = self._sync_addrs.get(key)
        if addr is None:
            addr = self.space.alloc(self.config.block_size, interleave=True)
            self._sync_addrs[key] = addr
        return addr

    def _node_done(self, proc_id: int) -> None:
        self._done_count += 1
        self.stats.record_finish(proc_id, self.sim.now)
        if self._done_count >= self._num_procs:
            self.sim.request_stop()

    def _sample_metrics(self) -> None:
        """Periodic sampler: occupancy/hit-rate and memory backlogs.

        Scheduled from :meth:`run` only when ``metrics.sample_interval``
        is set, so harness runs (which leave it None) add no simulator
        events and keep cached results byte-stable.
        """
        metrics = self.metrics
        if metrics is None:  # only scheduled with a registry installed
            return
        now = self.sim.now
        tracer = self.sim.tracer
        sc_blocks = 0
        sc_hits = 0
        sc_lookups = 0
        for engine in self.fabric.cache_engines:
            occupancy = engine.occupancy()
            sc_blocks += occupancy
            sc_hits += engine.hits
            sc_lookups += engine.lookups
            metrics.series(f"sc_occupancy/{engine.trace_track}").sample(
                now, occupancy
            )
            if tracer is not None:
                tracer.counter(engine.trace_track, "sc_occupancy", now,
                               occupancy)
        metrics.series("sc_occupancy/total").sample(now, sc_blocks)
        hit_rate = sc_hits / sc_lookups if sc_lookups else 0.0
        metrics.series("sc_hit_rate").sample(now, hit_rate)
        for node in self.nodes:
            backlog = max(0, node.memory.array.free_at() - now)
            metrics.series(f"mem_backlog/home{node.node_id}").sample(
                now, backlog
            )
            if tracer is not None:
                tracer.counter(f"home{node.node_id}", "mem_backlog", now,
                               backlog)
        if self._done_count < self.num_procs:
            self.sim.call(metrics.sample_interval, self._sample_metrics)

    # ------------------------------------------------------------------
    # processor/node helpers
    # ------------------------------------------------------------------
    @property
    def num_procs(self) -> int:
        return self._num_procs

    def node_of_proc(self, proc_id: int) -> int:
        return proc_id // self.config.procs_per_node

    def stacks(self):
        for node in self.nodes:
            yield from node.stacks

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, app, max_cycles: Optional[int] = None) -> MachineStats:
        """Execute ``app`` on all processors until completion.

        ``max_cycles`` bounds the whole run (it becomes the simulator's
        horizon): processors still running when it is reached raise
        :class:`~repro.errors.DeadlockError`.
        """
        app.setup(self)
        for stack in self.stacks():
            stack.processor.start(compile_stream(app, stack.proc_id, self))
        metrics = self.metrics
        if metrics is not None and metrics.sample_interval:
            self.sim.call(metrics.sample_interval, self._sample_metrics)
        self.sim.horizon = max_cycles
        if self._done_count < self._num_procs:
            self.sim.run_until_stop()
        if self._done_count < self.num_procs:
            stuck = [s.proc_id for s in self.stacks() if not s.processor.done]
            if self.sim.pending:  # stopped at the horizon, not drained
                raise DeadlockError(
                    f"max_cycles={max_cycles} reached with processors "
                    f"{stuck} unfinished at cycle {self.sim.now}"
                    + self._open_work()
                )
            raise DeadlockError(
                f"event queue drained with processors {stuck} unfinished "
                f"at cycle {self.sim.now}" + self._open_work()
            )
        # let in-flight traffic (writebacks, late invalidations) quiesce
        self.sim.run(until=max_cycles)
        # the engines count the hits; the stats keep their per-stage sums
        by_stage: Dict[int, int] = {}
        for engine in self.fabric.cache_engines:
            if engine.hits:
                by_stage[engine.stage] = (
                    by_stage.get(engine.stage, 0) + engine.hits
                )
        self.stats.switch_hits_by_stage = by_stage
        if self.sanitizer is not None:
            self.sanitizer.final_check(self)
        if self.stats.exec_time is None:
            raise SimulationError("finish times missing")
        return self.stats

    def _open_work(self) -> str:
        """Every open home transaction and MSHR, one per line (cold path)."""
        lines = []
        for node in self.nodes:
            for block, txn in sorted(node.home_ctrl._active.items()):
                lines.append(
                    f"home {node.node_id}: {txn.msg.kind.name} of block "
                    f"{block:#x} from node {txn.requester}, "
                    f"{txn.acks_needed} acks outstanding"
                )
        for stack in self.stacks():
            for block, mshr in sorted(stack.netctrl._mshr.items()):
                lines.append(
                    f"proc {stack.proc_id}: {mshr.kind} MSHR for block "
                    f"{block:#x}"
                )
        return "".join(f"\n  {line}" for line in lines)

    # ------------------------------------------------------------------
    # whole-system coherence audit (used by tests)
    # ------------------------------------------------------------------
    def check_coherence(self) -> List[str]:
        """Return a list of invariant violations (empty when coherent).

        Only meaningful at quiescence (no events pending).
        """
        problems: List[str] = []
        # collect every directory entry
        for home in self.nodes:
            for block, entry in home.directory.entries():
                holders_m = []
                holders_s = []
                for node in self.nodes:
                    for stack in node.stacks:
                        line = stack.hierarchy.l2.probe(block)
                        if line is None:
                            continue
                        if line.state.owned():
                            holders_m.append((node.node_id, line.data))
                        else:
                            holders_s.append((node.node_id, line.data))
                if entry.state is DirState.MODIFIED:
                    if len(holders_m) != 1 or holders_m[0][0] != entry.owner:
                        problems.append(
                            f"block {block:#x}: dir owner {entry.owner} but "
                            f"M holders {holders_m}"
                        )
                    for node_id, version in holders_s:
                        problems.append(
                            f"block {block:#x}: node {node_id} holds stale "
                            f"S copy v{version} while block is MODIFIED "
                            f"(owner {entry.owner})"
                        )
                else:
                    if holders_m:
                        problems.append(
                            f"block {block:#x}: dir {entry.state} but M "
                            f"holders {holders_m}"
                        )
                    for node_id, version in holders_s:
                        if not entry.has_sharer(node_id):
                            problems.append(
                                f"block {block:#x}: node {node_id} holds S "
                                f"copy but is not a registered sharer"
                            )
                        if version != entry.version:
                            problems.append(
                                f"block {block:#x}: node {node_id} S copy "
                                f"v{version} != home v{entry.version}"
                            )
                # network caches must match home versions too
                for node in self.nodes:
                    if node.netcache is None:
                        continue
                    nc_line = node.netcache.array.probe(block)
                    if nc_line is not None:
                        if entry.state is DirState.MODIFIED:
                            problems.append(
                                f"block {block:#x}: netcache {node.node_id} "
                                f"copy while block is MODIFIED"
                            )
                        elif nc_line.data != entry.version:
                            problems.append(
                                f"block {block:#x}: netcache {node.node_id} "
                                f"v{nc_line.data} != home v{entry.version}"
                            )
        # switch caches must agree with home directories.  Entries are
        # never removed, so a copy of a block the home never saw is a bug
        # (peek, not entry(): the audit must not create directory state)
        for sid, block, version in self.fabric.switch_cache_blocks():
            home = self.nodes[self.space.home_of(block)]
            entry = home.directory.peek(block)
            if entry is None:
                problems.append(
                    f"block {block:#x}: switch {sid} copy v{version} but "
                    f"no directory entry at home {home.node_id}"
                )
            elif entry.state is DirState.MODIFIED:
                problems.append(
                    f"block {block:#x}: switch {sid} copy while MODIFIED"
                )
            elif version != entry.version:
                problems.append(
                    f"block {block:#x}: switch {sid} copy v{version} != "
                    f"home v{entry.version}"
                )
        return problems

    # convenience accessors -------------------------------------------------
    def memory_version(self, addr: int) -> int:
        home = self.nodes[self.space.home_of(addr)]
        return home.directory.version_of(addr)

    def summary(self) -> str:
        """Human-readable post-run report (service classes, latencies)."""
        from ..stats.latency import breakdown_table, latency_table

        lines = [
            f"machine: {self.config.label()}  nodes={self.config.num_nodes}"
            f" x {self.config.procs_per_node} procs",
        ]
        if self.stats.exec_time is not None:
            lines.append(f"execution time: {self.stats.exec_time} cycles")
        lines.append(latency_table(self.stats))
        if self.stats.breakdown_count:
            lines.append(breakdown_table(self.stats))
        if self.config.switch_caches_enabled:
            totals = self.switch_cache_stats()
            lines.append(
                "switch caches: "
                + ", ".join(f"{k}={v}" for k, v in totals.items())
            )
        return "\n\n".join(lines)

    def switch_cache_stats(self) -> Dict[str, int]:
        totals = {
            "lookups": 0, "hits": 0, "misses": 0, "bypasses": 0,
            "deposits": 0, "deposit_skips": 0, "snoops": 0, "purges": 0,
        }
        for engine in self.fabric.cache_engines:
            for key in totals:
                totals[key] += getattr(engine, key)
        return totals
