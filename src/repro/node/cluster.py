"""Intra-node clustering: processor stacks and the cluster bus.

The paper's CC-NUMA context is "small bus-based processor-memory clusters
connected by a scalable interconnect" [2][12][14][15].  With
``SystemConfig.procs_per_node > 1`` each node hosts several processor
stacks (processor + L1/L2 + write buffer + MSHRs) that share the node's
bus, network interface, network cache, and home memory.

Coherence is hierarchical, as in DASH [14]:

* the **directory tracks nodes** — an invalidation addressed to a node
  purges every stack's caches (and the network cache) in that node;
* the **cluster bus snoops siblings** before a miss leaves the node: a
  sibling's owned copy is transferred (or downgraded) across the bus, a
  sibling's shared copy supplies data, and only true node misses become
  directory transactions.

Per-block operations from different stacks of one node are serialized
through a FIFO (the bus's transaction order), which removes intra-node
races by construction; distinct blocks overlap, sharing only the bus's
occupancy timeline for timing.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..cache.hierarchy import CacheHierarchy
from ..cache.states import CODE_EXCLUSIVE, LineState
from ..cache.writebuffer import WriteBuffer
from ..coherence.l2ctrl import NodeController
from ..coherence.messages import Transaction
from ..errors import ProtocolError
from ..sim.engine import Simulator
from ..sim.resource import Timeline
from .processor import Processor


class ProcStack:
    """One processor's private stack inside a node.

    Exposes the execution context interface the :class:`Processor` model
    expects (``hierarchy``, ``write_buffer``, ``stats``, ``barriers``,
    ``kick_drain``, ``issue-`` hooks, ...); ``node_id`` here is the
    *global processor id* used for statistics and synchronization, while
    network addressing uses the owning node.
    """

    def __init__(self, sim: Simulator, node, proc_id: int, config) -> None:
        self.sim = sim
        self.node = node
        self.node_id = proc_id  # global processor id (Processor-facing name)
        self.proc_id = proc_id
        self.config = config
        block = config.block_size
        self.hierarchy = CacheHierarchy(
            config.l1_size, config.l2_size, block,
            l1_assoc=config.l1_assoc, l2_assoc=config.l2_assoc,
            node_id=proc_id,
        )
        self.write_buffer = WriteBuffer(config.write_buffer_entries, block)
        self.processor = Processor(sim, self, config)
        self._wb_waiters: List[Callable[[], None]] = []
        self._draining = False
        self._drain_started = 0
        self._l2_write_cycles = config.l2_write_cycles
        self._trace_values = config.trace_values
        self.write_trace: List[Tuple[str, int, int, int]] = []
        # context interface used by Processor: the node's shared managers
        self.stats = node.stats
        self.barriers = node.barriers
        self.locks = node.locks
        # this stack's network-side controller (MSHRs).  The bus owns the
        # network-cache probe; the controller fills the shared array on
        # remote replies
        self.netctrl = NodeController(
            sim, node.node_id, self.hierarchy, node.ni, node.home_of, block,
            netcache=node.netcache, proc_id=proc_id, pool=node._pool,
        )
        # the other stacks on the cluster bus (set by the node)
        self.siblings: Tuple[ProcStack, ...] = ()

    def sync_addr(self, kind: str, sync_id: int) -> int:
        return self.node.sync_addr(kind, sync_id)

    def on_processor_done(self) -> None:
        self.node.on_stack_done(self)

    # ------------------------------------------------------------------
    # miss issue (through the cluster bus)
    # ------------------------------------------------------------------
    def issue_read(self, addr: int, callback) -> None:
        self.node.bus.submit("read", self, addr, callback)

    def issue_write(self, addr: int, callback) -> None:
        self.node.bus.submit("write", self, addr, callback)

    # ------------------------------------------------------------------
    # write-buffer drain engine (one per stack)
    # ------------------------------------------------------------------
    def kick_drain(self) -> None:
        if self._draining:
            return
        block = self.write_buffer.begin_drain()
        if block is None:
            return
        self._draining = True
        sim = self.sim
        now = sim.now
        self._drain_started = now
        # the store probe: an owned (E/M) L2 copy takes the store at
        # once, any other state needs a write transaction
        if self.hierarchy.l2.lookup_state(block) >= CODE_EXCLUSIVE:
            self._apply_store(block)
            sim.call_at(now + self._l2_write_cycles, self._drain_done)
        else:
            self.issue_write(block, self._drain_owned)

    def _drain_owned(self, txn: Transaction) -> None:
        self._apply_store(txn.addr)
        self.stats.record_write_txn(txn)
        self._drain_done()

    def _apply_store(self, block: int) -> None:
        data = self.hierarchy.l2.probe_data(block)
        if data is None:
            raise ProtocolError(
                f"proc {self.proc_id}: store drain lost ownership of {block:#x}",
                node=self.proc_id, addr=block,
            )
        new_version = data + 1
        self.hierarchy.perform_write(block, new_version)
        if self._trace_values:
            self.write_trace.append(("w", block, new_version, self.sim.now))

    def _drain_done(self) -> None:
        self.write_buffer.finish_drain()
        self._draining = False
        tracer = self.sim.tracer
        if tracer is not None:
            started = self._drain_started
            tracer.complete(
                f"proc{self.proc_id}", "wb_drain", started,
                self.sim.now - started,
            )
        waiters = self._wb_waiters
        if waiters:
            # a resumed waiter may wait again, for the next change: run
            # only the waiters present now
            n = len(waiters)
            for i in range(n):
                waiters[i]()
            del waiters[:n]
        self.kick_drain()

    def wait_wb_change(self, waiter: Callable[[], None]) -> None:
        self._wb_waiters.append(waiter)
        self.kick_drain()


class _BusOp:
    __slots__ = ("kind", "stack", "block", "callback", "enqueued")

    def __init__(self, kind, stack, block, callback, enqueued) -> None:
        self.kind = kind
        self.stack = stack
        self.block = block
        self.callback = callback
        self.enqueued = enqueued


class ClusterBus:
    """Per-node snoopy bus: sibling service or hand-off to the directory.

    Operations to the same block are serialized; a network transaction in
    flight holds its block's queue until the reply lands.
    """

    def __init__(self, sim: Simulator, node, bus_cycles: int) -> None:
        self.sim = sim
        self.node = node
        self.bus_cycles = bus_cycles
        self.wire = Timeline(sim, f"bus{node.node_id}")
        self._queues: Dict[int, Deque[_BusOp]] = {}
        self._active: Dict[int, _BusOp] = {}
        self._block_mask = -node.config.block_size  # a power of two
        # statistics
        self.sibling_reads = 0
        self.sibling_transfers = 0
        self.ops = 0

    # ------------------------------------------------------------------
    def submit(self, kind: str, stack: ProcStack, addr: int, callback) -> None:
        block = addr & self._block_mask
        op = _BusOp(kind, stack, block, callback, self.sim.now)
        self.ops += 1
        if block in self._active:
            self._queues.setdefault(block, deque()).append(op)
        else:
            self._start(op)

    def _start(self, op: _BusOp) -> None:
        self._active[op.block] = op
        start = self.wire.reserve(self.bus_cycles)
        self.sim.call_at(start + self.bus_cycles, self._execute, op)

    def _complete(self, op: _BusOp, result: Transaction) -> None:
        del self._active[op.block]
        # promote the next queued op *before* running the callback: the
        # callback may resume a processor that synchronously submits a new
        # op to this block, which must queue behind the promoted one (and
        # must not slip into the just-vacated active slot, where the
        # promotion would clobber it and break per-block serialization)
        queue = self._queues.get(op.block)
        if queue:
            nxt = queue.popleft()
            if not queue:
                del self._queues[op.block]
            self._start(nxt)
        if op.callback is not None:
            op.callback(result)

    # ------------------------------------------------------------------
    def _execute(self, op: _BusOp) -> None:
        if op.kind == "read":
            self._execute_read(op)
        else:
            self._execute_write(op)

    def _execute_read(self, op: _BusOp) -> None:
        stack, block = op.stack, op.block
        # the stack may have been filled while this op was queued
        if stack.hierarchy.l2.probe_state(block):
            txn = self._local_txn("read", op, served_by="l2")
            self._complete(op, txn)
            return
        # snoop siblings (cache-to-cache within the cluster)
        for sibling in stack.siblings:
            sib_line = sibling.hierarchy.l2.probe(block)
            if sib_line is None:
                continue
            if sib_line.state.owned():
                # migratory transfer: the owned copy *moves* to the reader
                # so exactly one stack keeps holding the node's owned copy
                # (the directory's MODIFIED entry stays answerable)
                _state, data = sibling.hierarchy.invalidate(block)
                victim = stack.hierarchy.fill(block, LineState.MODIFIED, data,
                                              fill_l1=True)
            else:
                data = sib_line.data
                victim = stack.hierarchy.fill(block, LineState.SHARED, data,
                                              fill_l1=True)
            stack.netctrl.spill(victim)
            self.sibling_reads += 1
            txn = self._local_txn("read", op, served_by="cluster", data=data)
            self._complete(op, txn)
            return
        # shared network cache
        netcache = self.node.netcache
        if netcache is not None and self.node.home_of(block) != self.node.node_id:
            data, done = netcache.lookup(block)
            if data is not None:
                self.sim.call_at(done, self._netcache_read_done, op, data)
                return
            # miss: probe latency before the request departs
            self.sim.call_at(done, self._network_read, op)
            return
        self._network_read(op)

    def _netcache_read_done(self, op: _BusOp, data: int) -> None:
        victim = op.stack.hierarchy.fill(op.block, LineState.SHARED, data,
                                         fill_l1=True)
        op.stack.netctrl.spill(victim)
        txn = self._local_txn("read", op, served_by="netcache", data=data)
        self._complete(op, txn)

    def _network_read(self, op: _BusOp) -> None:
        op.stack.netctrl.issue_read(
            op.block, lambda txn: self._complete(op, txn)
        )

    def _execute_write(self, op: _BusOp) -> None:
        stack, block = op.stack, op.block
        code = stack.hierarchy.l2.probe_state(block)
        if code >= CODE_EXCLUSIVE:
            txn = self._local_txn("write", op, served_by="l2")
            self._complete(op, txn)
            return
        # an owned sibling copy transfers ownership across the bus
        for sibling in stack.siblings:
            sib_line = sibling.hierarchy.l2.probe(block)
            if sib_line is not None and sib_line.state.owned():
                _state, data = sibling.hierarchy.invalidate(block)
                victim = stack.hierarchy.fill(block, LineState.MODIFIED, data)
                stack.netctrl.spill(victim)
                self.sibling_transfers += 1
                txn = self._local_txn("write", op, served_by="cluster",
                                      data=data)
                self._complete(op, txn)
                return
        # otherwise the directory must be involved (upgrade or read-excl);
        # grab a sibling's shared data first so an upgrade suffices
        if not code:
            for sibling in stack.siblings:
                sib_line = sibling.hierarchy.l2.probe(block)
                if sib_line is not None:
                    victim = stack.hierarchy.fill(
                        block, LineState.SHARED, sib_line.data
                    )
                    stack.netctrl.spill(victim)
                    break

        def owned(txn: Transaction) -> None:
            # ownership granted globally: purge sibling shared copies
            for sibling in stack.siblings:
                sibling.hierarchy.invalidate(block)
            self._complete(op, txn)

        stack.netctrl.issue_write(block, owned)

    # ------------------------------------------------------------------
    def _local_txn(self, kind: str, op: _BusOp, served_by: str,
                   data: Optional[int] = None) -> Transaction:
        """A transaction record for an intra-node (bus-served) operation."""
        txn = Transaction(
            "read" if kind == "read" else "write",
            op.block, op.stack.proc_id, self.node.node_id,
            self.node.config.block_size, op.enqueued,
            txn_id=self.node._pool.next_txn_id(),
        )
        txn.completed_at = self.sim.now
        txn.served_by = served_by
        if data is None:
            line = op.stack.hierarchy.l2.probe(op.block)
            txn.data = line.data if line is not None else None
        else:
            txn.data = data
        return txn
