"""In-order processor front-end with fast-forward execution.

The processor executes an application's operation stream:

``('r', addr)`` / ``('w', addr)`` — shared-memory loads and stores;
``('work', n)`` — n cycles of local computation (models the non-memory
instructions RSIM would execute);
``('barrier', k)`` / ``('lock', k)`` / ``('unlock', k)`` — synchronization.

The stream arrives compiled into integer-coded chunks
(:mod:`repro.apps.opstream`, DESIGN.md §13).  :meth:`Processor._run` is
a short decode loop, and :meth:`~Processor._loop` is the one handler
that retires loads, stores and work: an ``OP_LOOP`` runs its body, and
an elementary ``OP_R``/``OP_W``/``OP_WORK`` runs as a one-slot body,
once.  The resumable state (local time, ops, ``ip``, loop progress)
lives on the processor; the handler runs from hoisted locals, writes
its progress and its hit counts back once when it returns, and says
whether it left the loop.

**Fast-forward on hits.**  Cache hits and local work advance a *local
clock* without touching the event queue; the processor re-enters the
queue only on a miss, a synchronization point, a full write buffer, or
after running ``quantum`` cycles ahead of global time (which bounds the
causality skew of applying remote invalidations at event time — see
DESIGN.md).  This is what makes an execution-driven multiprocessor
simulation tractable in Python.

**Release consistency.**  Stores retire into the write buffer in one
cycle and the processor continues; loads that match a pending buffered
store are forwarded.  Barrier arrival and lock release first wait for
the write buffer to drain (the release fence), then perform a real
read-modify-write coherence transaction on the synchronization variable.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from ..apps.opstream import (
    OP_BARRIER,
    OP_LOCK,
    OP_LOOP,
    OP_UNLOCK,
    OP_WORK,
)
from ..cache.states import CODE_MODIFIED, LineState
from ..coherence.messages import Transaction
from ..errors import SimulationError
from ..sim.engine import Simulator

Op = Tuple

#: hoisted fill state for L1 refills (an Enum attribute costs a
#: metaclass lookup per access)
_SHARED = LineState.SHARED

#: cycles a store takes to retire into the write buffer
STORE_CYCLES = 1


class Processor:
    """One in-order processor executing an operation stream."""

    def __init__(
        self,
        sim: Simulator,
        node,  # ProcStack (late-bound to avoid an import cycle)
        config,  # SystemConfig (ditto)
    ) -> None:
        # keep under 30 instance attributes: from 30 on, CPython 3.11
        # gives each instance a 1.6 KB dict of its own (no shared keys)
        self.sim = sim
        self.node = node
        self.l1_cycles = config.l1_hit_cycles
        self.l2_cycles = config.l2_hit_cycles
        self.quantum = config.quantum
        self.trace_values = config.trace_values
        self.time = 0  # local clock (>= sim.now except never behind on entry)
        self.done = False
        self.finish_time: Optional[int] = None
        # the chunk cursor plus the progress of a partially executed
        # loop (DESIGN.md §13.2): a miss, a full write buffer or a
        # quantum yield suspends it mid-flight, and _run resumes it
        # element-exact
        self._chunks: Optional[Iterator[List[int]]] = None
        self._code: List[int] = []
        self._ip = 0
        # the loop body, one list per slot field: kind, next address
        # (work slots: cycles) and stride
        self._kinds: List[int] = []
        self._addrs: List[int] = []
        self._strides: List[int] = []
        self._loop_iters = 0     # iterations left, current included
        self._loop_slot = 0      # next slot of the current iteration
        self._stall_started: Optional[int] = None
        self._sync_label = "sync"  # span name for the current sync stall
        self.value_trace: List[Tuple[str, int, int, int]] = []
        # statistics
        self.ops_executed = 0
        self.read_stall_cycles = 0
        self.sync_stall_cycles = 0
        self.wb_stall_cycles = 0

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    def start(self, chunks: Iterable[List[int]]) -> None:
        """Begin executing an integer-coded chunk stream (DESIGN.md §13)."""
        self._chunks = iter(chunks)
        self.sim.call(0, self._resume)

    def _resume(self) -> None:
        """(Re-)enter the execution loop at global time."""
        self.time = max(self.time, self.sim.now)
        self._run()

    def _run(self) -> None:
        # The decode loop.  Every return from here is an exit from the
        # processor loop, with the resumable state on the processor.  A
        # handler returns True when it left the loop (a miss, a full
        # write buffer or a quantum yield).  ``limit`` is the local time
        # at which the processor yields: ``sim.now`` is constant for the
        # whole loop, as no events fire inside it.
        limit = self.sim.now + self.quantum
        iters = self._loop_iters
        if iters:  # resume a suspended loop
            self._loop_iters = 0
            if self._loop(iters, self._loop_slot, limit):
                return
        code = self._code
        end = len(code)
        ip = self._ip
        while True:
            if ip >= end:
                nxt = next(self._chunks, None)
                if nxt is None:
                    self._ip = ip
                    self._begin_finish()
                    return
                self._code = code = nxt
                end = len(code)
                ip = 0
                continue
            opcode = code[ip]
            if opcode == OP_LOOP:
                first = ip + 3
                ip = first + 3 * code[ip + 2]
                self._kinds = code[first:ip:3]
                self._addrs = code[first + 1:ip:3]
                self._strides = code[first + 2:ip:3]
                exited = self._loop(code[first - 2], 0, limit)
            elif opcode <= OP_WORK:
                # OP_R/OP_W/OP_WORK are their own slot kinds: a one-slot
                # body run once.  It never reaches a second address, so
                # the stride list may alias the address list
                self._kinds = code[ip:ip + 1]
                ip += 2
                self._addrs = self._strides = code[ip - 1:ip]
                exited = self._loop(1, 0, limit)
            else:
                # synchronization (or a bad opcode): cold exits
                self._ip = ip + 2
                sync_id = code[ip + 1]
                if opcode == OP_BARRIER:
                    self._start_sync(("barrier", sync_id), is_barrier=True)
                    return
                if opcode == OP_LOCK:
                    self._start_sync(("lock", sync_id), is_barrier=False)
                    return
                if opcode == OP_UNLOCK:
                    self._start_unlock(("unlock", sync_id))
                    return
                raise SimulationError(f"bad opcode {opcode} at {ip}")
            if exited:
                self._ip = ip
                return

    # ------------------------------------------------------------------
    # the element handler (DESIGN.md §13.2): every load, store and work
    # op retires here, one element at a time.  Per element it pays only
    # for what the element changes; the hit counts, the L1's LRU clock
    # and the retired ops are written back once, when it returns.
    # ------------------------------------------------------------------
    def _loop(self, iters: int, s: int, limit: int) -> bool:
        """Run the body slot by slot from slot ``s``, for ``iters``
        iterations (the current one included; DESIGN.md §13.2)."""
        kinds = self._kinds
        addrs = self._addrs
        strides = self._strides
        n = len(kinds)
        todo = iters * n - s  # elements left, for the ops count at exit
        node = self.node
        wb = node.write_buffer
        entries = wb._entries
        draining = wb._draining
        wb_mask = wb._neg_mask
        kick_drain = node.kick_drain
        hierarchy = node.hierarchy
        l1 = hierarchy.l1
        l1_slot = l1._slot.get
        l1_states = l1._states
        l1_lrus = l1._lrus
        l1_shift = l1._block_shift
        tick = l1._tick
        l1_cycles = self.l1_cycles
        store_cycles = STORE_CYCLES
        trace_values = self.trace_values
        value_trace = self.value_trace
        time = self.time
        hit_wb = hit_l1 = hit_l2 = merged = 0
        missed = None
        slots = range(n)
        while True:
            for s in range(s, n) if s else slots:
                kind = kinds[s]
                if not kind:  # SLOT_R
                    addr = addrs[s]
                    block = addr & wb_mask
                    if block in entries or block == draining:
                        time += l1_cycles
                        hit_wb += 1
                    else:
                        i = l1_slot(addr >> l1_shift)
                        if i is not None and l1_states[i]:
                            tick += 1
                            l1_lrus[i] = tick
                            time += l1_cycles
                            hit_l1 += 1
                            if trace_values:
                                value_trace.append(
                                    ("r", addr, l1._data[i], time))
                        else:
                            l1.misses += 1
                            data = hierarchy.l2.lookup_data(addr)
                            if data is None:
                                # completes on the reply; step past it
                                missed = addr
                                addrs[s] = addr + strides[s]
                                break
                            l1._tick = tick
                            l1.insert(addr, _SHARED, data)
                            tick += 1
                            time += self.l2_cycles
                            hit_l2 += 1
                            if trace_values:
                                value_trace.append(("r", addr, data, time))
                    addrs[s] = addr + strides[s]
                elif kind == 1:  # SLOT_W
                    addr = addrs[s]
                    block = addr & wb_mask
                    if block != draining and block in entries:
                        # coalesce into the pending entry
                        entries[block] += 1
                        merged += 1
                    elif not wb.push(addr):
                        break  # full buffer: retry this store after a drain
                    time += store_cycles
                    if not node._draining:
                        kick_drain()
                        draining = wb._draining
                    addrs[s] = addr + strides[s]
                else:  # SLOT_WORK
                    time += addrs[s]
                if time >= limit:
                    break
            else:
                s = 0
                iters -= 1
                if iters:
                    continue
                break
            # left mid-iteration: step past the element just retired (a
            # store refused by a full buffer is retried)
            if missed is not None or time >= limit:
                s += 1
                if s == n:
                    s = 0
                    iters -= 1
            break
        self.time = time
        l1._tick = tick
        l1.hits += hit_l1
        node.stats.add_read_hits(node.node_id, hit_wb, hit_l1, hit_l2)
        wb.stores_retired += merged
        wb.stores_merged += merged
        # every element stepped past retired, bar a missing load
        self.ops_executed += todo - (iters * n - s) - (missed is not None)
        if iters:
            self._loop_iters, self._loop_slot = iters, s
        if missed is not None:
            self._start_read_miss(missed)
            return True
        if time >= limit:
            self._yield()
            return True
        if iters:
            self._wait_wb()
            return True
        return False

    # ------------------------------------------------------------------
    # exits: quantum yields, full write buffers and read misses
    # ------------------------------------------------------------------
    def _yield(self) -> None:
        """Re-enter the event queue at the local clock."""
        self.sim.call_at(self.time, self._resume)

    def _wait_wb(self) -> None:
        """Stall until the write buffer changes, then retry the store."""
        self._stall_started = self.time
        self.node.wait_wb_change(self._retry_after_wb)

    def _start_read_miss(self, addr: int) -> None:
        self._stall_started = self.time
        issue_at = self.time + self.l2_cycles  # miss detection through L1+L2
        if issue_at > self.sim.now:
            self.sim.call_at(issue_at, self._issue_read, addr)
        else:
            self._issue_read(addr)

    def _issue_read(self, addr: int) -> None:
        self.node.issue_read(addr, self._read_done)

    def _read_done(self, txn: Transaction) -> None:
        stall = self.sim.now - self._stall_started
        self.read_stall_cycles += stall
        self._stall_started = None
        self.ops_executed += 1
        self.node.stats.record_read_txn(self.node.node_id, txn, stall)
        if self.trace_values:
            self.value_trace.append(("r", txn.addr, txn.data, self.sim.now))
        self._resume()

    def _retry_after_wb(self) -> None:
        if self._stall_started is not None:
            stall = max(0, self.sim.now - self._stall_started)
            self.wb_stall_cycles += stall
            tracer = self.sim.tracer
            if tracer is not None and stall > 0:
                tracer.complete(
                    f"proc{self.node.node_id}", "wb_full",
                    self.sim.now - stall, stall,
                )
            self._stall_started = None
        self._resume()

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def _start_sync(self, op: Op, is_barrier: bool) -> None:
        """Barrier arrival / lock acquire: fence, RMW, then wait."""
        self._stall_started = self.time
        self._sync_label = "barrier" if is_barrier else "lock"
        self._fence_then(lambda: self._sync_rmw(op, is_barrier))

    def _fence_then(self, action: Callable[[], None]) -> None:
        """Wait (at local time) for the write buffer to drain, then act."""
        node = self.node

        def check() -> None:
            if node.write_buffer.is_empty():
                action()
            else:
                node.wait_wb_change(check)

        if self.time > self.sim.now:
            self.sim.call_at(self.time, check)
        else:
            check()

    def _sync_rmw(self, op: Op, is_barrier: bool) -> None:
        kind, sync_id = op[0], op[1]
        addr = self.node.sync_addr(kind, sync_id)
        self._rmw(addr, lambda: self._sync_arrived(op, is_barrier))

    def _rmw(self, addr: int, then: Callable[[], None]) -> None:
        """Read-modify-write the synchronization variable coherently."""
        node = self.node
        hierarchy = node.hierarchy
        if hierarchy.l2.lookup_state(addr) == CODE_MODIFIED:
            hierarchy.perform_write(addr, hierarchy.l2.probe_data(addr) + 1)
            self.sim.call(2, then)
        else:
            def owned(txn: Transaction) -> None:
                hierarchy.perform_write(addr, hierarchy.l2.probe_data(addr) + 1)
                then()

            node.issue_write(addr, owned)

    def _sync_arrived(self, op: Op, is_barrier: bool) -> None:
        node = self.node
        if is_barrier:
            node.barriers.arrive(op[1], node.node_id, self._sync_done)
        else:
            node.locks.acquire(op[1], node.node_id, self._sync_done)

    def _sync_done(self) -> None:
        if self._stall_started is not None:
            stall = max(0, self.sim.now - self._stall_started)
            self.sync_stall_cycles += stall
            tracer = self.sim.tracer
            if tracer is not None and stall > 0:
                tracer.complete(
                    f"proc{self.node.node_id}", self._sync_label,
                    self.sim.now - stall, stall,
                )
            self._stall_started = None
        self._resume()

    def _start_unlock(self, op: Op) -> None:
        self._stall_started = self.time
        self._sync_label = "unlock"

        def release() -> None:
            addr = self.node.sync_addr("lock", op[1])
            self._rmw(addr, lambda: self._finish_unlock(op[1]))

        self._fence_then(release)

    def _finish_unlock(self, lock_id: int) -> None:
        self.node.locks.release(lock_id, self.node.node_id)
        self._sync_done()

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def _begin_finish(self) -> None:
        # the stream is spent: drop the chunk iterator, the last chunk and
        # the loop body, so a finished machine holds only what its
        # statistics and checks read (DESIGN.md §13.2).  Done here, not
        # in _run, to keep the decode loop free of allocations
        self._chunks = None
        self._code, self._kinds, self._addrs, self._strides = [], [], [], []

        def finished() -> None:
            if not self.done:
                self.done = True
                self.finish_time = max(self.time, self.sim.now)
                self.node.on_processor_done()

        self._fence_then(finished)
