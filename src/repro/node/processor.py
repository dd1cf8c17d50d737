"""In-order processor front-end with fast-forward execution.

The processor executes an application's operation stream:

``('r', addr)`` / ``('w', addr)`` — shared-memory loads and stores;
``('work', n)`` — n cycles of local computation (models the non-memory
instructions RSIM would execute);
``('barrier', k)`` / ``('lock', k)`` / ``('unlock', k)`` — synchronization.

The stream arrives compiled into integer-coded chunks with stride
superops (:mod:`repro.apps.opstream`, DESIGN.md §13); one loop,
:meth:`Processor._run`, decodes them and expands the superops in place.

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
    OP_R,
    OP_R_RUN,
    OP_UNLOCK,
    OP_W,
    OP_W_RUN,
    OP_WORK,
)
from ..cache.states import LineState
from ..coherence.messages import Transaction
from ..errors import SimulationError
from ..sim.engine import Simulator

Op = Tuple


class Processor:
    """One in-order processor executing an operation stream."""

    def __init__(
        self,
        sim: Simulator,
        node,  # Node (late-bound to avoid an import cycle)
        l1_cycles: int = 1,
        l2_cycles: int = 10,
        store_cycles: int = 1,
        quantum: int = 500,
        trace_values: bool = False,
    ) -> None:
        self.sim = sim
        self.node = node
        self.l1_cycles = l1_cycles
        self.l2_cycles = l2_cycles
        self.store_cycles = store_cycles
        self.quantum = quantum
        self.trace_values = trace_values
        self.time = 0  # local clock (>= sim.now except never behind on entry)
        self.done = False
        self.finish_time: Optional[int] = None
        # chunk cursor plus the progress of a partially executed superop
        # (DESIGN.md §13), so a miss, a full write buffer or a quantum
        # yield can suspend a run/loop mid-flight and resume it
        # element-exact
        self._chunks: Optional[Iterator[List[int]]] = None
        self._code: List[int] = []
        self._ip = 0
        self._run_op = 0        # OP_R_RUN or OP_W_RUN while _run_left > 0
        self._run_addr = 0
        self._run_stride = 0
        self._run_left = 0
        self._loop_body: List[int] = []  # (kind, base|cycles, stride) triples
        self._loop_iters = 0    # iterations remaining, current included
        self._loop_slot = 0     # offset of the next slot triple to execute
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
        self.sim.schedule(0, self._resume)

    def _resume(self) -> None:
        """(Re-)enter the execution loop at global time."""
        self.time = max(self.time, self.sim.now)
        self._run()

    def _suspend(
        self,
        time: int,
        ops_executed: int,
        ip: int,
        run_op: int,
        run_addr: int,
        run_stride: int,
        run_left: int,
        loop_iters: int,
        loop_slot: int,
        hit_wb: int,
        hit_l1: int,
        hit_l2: int,
    ) -> None:
        """Write the loop's locals back before any exit."""
        self.time = time
        self.ops_executed = ops_executed
        self._ip = ip
        self._run_op = run_op
        self._run_addr = run_addr
        self._run_stride = run_stride
        self._run_left = run_left
        self._loop_iters = loop_iters
        self._loop_slot = loop_slot
        node = self.node
        node.stats.add_read_hits(node.node_id, hit_wb, hit_l1, hit_l2)

    def _run(self) -> None:
        # The simulator's hottest loop: every cache hit and local-work op
        # executes here without touching the event queue.  It consumes
        # integer-coded chunks (apps/opstream.py) and expands superops in
        # place: a hit run retires a whole cache block per probe, with the
        # same counters, LRU ticks and yield points as retiring its
        # elements one by one (the differential suite pins this against
        # an elementary stream); a loop runs its slots per element.
        # Attribute lookups are hoisted into locals; the local clock, op
        # counter and superop progress live in locals too, written back
        # by _suspend before any exit (the helpers called on exit paths
        # read ``self.time``).  ``sim.now`` is constant for the whole
        # loop — no events fire inside it.
        node = self.node
        sim = self.sim
        now = sim.now
        quantum = self.quantum
        l1_cycles = self.l1_cycles
        l2_cycles = self.l2_cycles
        store_cycles = self.store_cycles
        trace_values = self.trace_values
        write_buffer = node.write_buffer
        wb_entries = write_buffer._entries
        wb_mask = write_buffer._neg_mask  # 0 = block size not a power of 2
        wb_block = write_buffer.block_size
        wb_push = write_buffer.push
        kick_drain = node.kick_drain
        # the two-level read probe is inlined below (instead of calling
        # CacheHierarchy.read): the L1 probe is CacheArray.lookup_data
        # over the array's slot dict and column lists (same stats, same
        # LRU updates), which are stable for the array's lifetime.  Hit
        # statistics accumulate in locals (hit_wb/hit_l1/hit_l2) and
        # flush in one bulk call at every loop exit.
        hierarchy = node.hierarchy
        l1 = hierarchy.l1
        l2_lookup_data = hierarchy.l2.lookup_data
        l1_insert = l1.insert
        l1_slot_get = l1._slot.get
        l1_states = l1._states
        l1_data = l1._data
        l1_lrus = l1._lrus
        l1_shift = l1._block_shift
        l1_is_lru = l1._lru
        # bulk span: elements retired in one step must share both their
        # write buffer block and their L1 block, so span by the smaller
        span = min(1 << l1_shift, wb_block)
        shared = LineState.SHARED
        hit_wb = hit_l1 = hit_l2 = 0
        time = self.time
        ops_executed = self.ops_executed
        code = self._code
        end = len(code)
        ip = self._ip
        run_op = self._run_op
        run_addr = self._run_addr
        run_stride = self._run_stride
        run_left = self._run_left
        body = self._loop_body
        nbody = len(body)
        loop_iters = self._loop_iters
        loop_slot = self._loop_slot
        while True:
            # ---- pending stride run -----------------------------------
            while run_left:
                if run_op == OP_WORK:
                    # repeated equal-cost work ops: charge as many as
                    # fit before the quantum boundary in one step
                    c = run_addr  # cycles per op
                    k = run_left
                    if c:
                        m = (quantum - (time - now) + c - 1) // c
                        if k > m:
                            k = m
                    time += k * c
                    ops_executed += k
                    run_left -= k
                    if time - now >= quantum:
                        self._suspend(
                            time, ops_executed, ip, run_op, run_addr,
                            run_stride, run_left, loop_iters, loop_slot,
                            hit_wb, hit_l1, hit_l2)
                        sim.at(time, self._resume)
                        return
                    continue
                addr = run_addr
                stride = run_stride
                if run_op == OP_W_RUN:
                    # stores retire through the write buffer one per
                    # cycle: push, merge, then kick the drain engine
                    if wb_push(addr):
                        time += store_cycles
                        ops_executed += 1
                        run_left -= 1
                        run_addr = addr + stride
                        if not node._draining:
                            kick_drain()
                        # the rest of this block's stores are pure merges
                        # once the entry is settled: after the first push
                        # the drain engine is busy, so no kick can pop
                        # the entry mid-block and every push coalesces.
                        # Retire them in one step, quantum-capped like
                        # the read-run bulk.
                        if run_left and stride > 0:
                            block = (addr & wb_mask if wb_mask
                                     else addr // wb_block * wb_block)
                            addr = run_addr
                            if (block in wb_entries
                                    and block != write_buffer._draining
                                    and addr - block < wb_block):
                                k = (block + wb_block - addr
                                     + stride - 1) // stride
                                if k > run_left:
                                    k = run_left
                                if store_cycles:
                                    m = (quantum - (time - now)
                                         + store_cycles - 1) // store_cycles
                                    if k > m:
                                        k = m
                                if k > 0:
                                    wb_entries[block] += k
                                    write_buffer.stores_retired += k
                                    write_buffer.stores_merged += k
                                    time += k * store_cycles
                                    ops_executed += k
                                    run_left -= k
                                    run_addr = addr + stride * k
                        if time - now >= quantum:
                            self._suspend(
                                time, ops_executed, ip, run_op, run_addr,
                                run_stride, run_left, loop_iters, loop_slot,
                                hit_wb, hit_l1, hit_l2)
                            sim.at(time, self._resume)
                            return
                        continue
                    self._suspend(
                        time, ops_executed, ip, run_op, run_addr,
                        run_stride, run_left, loop_iters, loop_slot,
                        hit_wb, hit_l1, hit_l2)
                    self._stall_started = time
                    node.wait_wb_change(self._retry_after_wb)
                    return
                # read run: bulk-retire the hits of one cache block per
                # probe.  k = elements from addr that stay in the block,
                # capped at the run length and at the quantum boundary
                # (retiring the op that crosses it yields, exactly as
                # checking after every element would).
                block = addr & wb_mask if wb_mask else addr // wb_block * wb_block
                if stride > 0:
                    k = (addr // span * span + span - addr + stride - 1) // stride
                    if k > run_left:
                        k = run_left
                else:
                    k = 1
                if l1_cycles:
                    m = (quantum - (time - now) + l1_cycles - 1) // l1_cycles
                    if k > m:
                        k = m
                if block in wb_entries or block == write_buffer._draining:
                    # forwarded from pending stores (no value trace); the
                    # whole block span forwards alike
                    time += k * l1_cycles
                    ops_executed += k
                    hit_wb += k
                    run_left -= k
                    run_addr = addr + stride * k
                else:
                    i = l1_slot_get(addr >> l1_shift)
                    if i is not None and l1_states[i]:
                        if l1_is_lru:
                            # one bump per element, final tick wins
                            l1._tick = tick = l1._tick + k
                            l1_lrus[i] = tick
                        l1.hits += k
                        hit_l1 += k
                        run_left -= k
                        run_addr = addr + stride * k
                        if trace_values:
                            data = l1_data[i]
                            trace = self.value_trace
                            for _ in range(k):
                                time += l1_cycles
                                trace.append(("r", addr, data, time))
                                addr += stride
                        else:
                            time += k * l1_cycles
                        ops_executed += k
                    else:
                        l1.misses += 1
                        data = l2_lookup_data(addr)
                        if data is None:
                            run_left -= 1
                            run_addr = addr + stride
                            self._suspend(
                                time, ops_executed, ip, run_op, run_addr,
                                run_stride, run_left, loop_iters, loop_slot,
                                hit_wb, hit_l1, hit_l2)
                            self._start_read_miss(addr)
                            return
                        # L1 refill; the rest of the block hits L1 next
                        l1_insert(addr, shared, data)
                        time += l2_cycles
                        ops_executed += 1
                        hit_l2 += 1
                        run_left -= 1
                        run_addr = addr + stride
                        if trace_values:
                            self.value_trace.append(("r", addr, data, time))
                if time - now >= quantum:
                    self._suspend(
                        time, ops_executed, ip, run_op, run_addr,
                        run_stride, run_left, loop_iters, loop_slot,
                        hit_wb, hit_l1, hit_l2)
                    sim.at(time, self._resume)
                    return
            # ---- pending fixed-slot loop ------------------------------
            # one slot per pass: retiring whole iterations in bulk does
            # not pay for its lines (DESIGN.md §13.2)
            while loop_iters:
                s = loop_slot
                kind = body[s]
                if kind == 0:  # SLOT_R
                    addr = body[s + 1]
                    block = addr & wb_mask if wb_mask else addr // wb_block * wb_block
                    if block in wb_entries or block == write_buffer._draining:
                        time += l1_cycles
                        ops_executed += 1
                        hit_wb += 1
                    else:
                        i = l1_slot_get(addr >> l1_shift)
                        if i is None or not l1_states[i]:
                            l1.misses += 1
                            data = None
                        else:
                            if l1_is_lru:
                                l1._tick = tick = l1._tick + 1
                                l1_lrus[i] = tick
                            l1.hits += 1
                            data = l1_data[i]
                        if data is not None:
                            time += l1_cycles
                            ops_executed += 1
                            hit_l1 += 1
                            if trace_values:
                                self.value_trace.append(("r", addr, data, time))
                        else:
                            data = l2_lookup_data(addr)
                            if data is None:
                                # complete on the reply; advance past
                                # this element before suspending
                                body[s + 1] = addr + body[s + 2]
                                loop_slot = s + 3
                                if loop_slot == nbody:
                                    loop_slot = 0
                                    loop_iters -= 1
                                self._suspend(
                                    time, ops_executed, ip, run_op, run_addr,
                                    run_stride, run_left, loop_iters,
                                    loop_slot, hit_wb, hit_l1, hit_l2)
                                self._start_read_miss(addr)
                                return
                            l1_insert(addr, shared, data)
                            time += l2_cycles
                            ops_executed += 1
                            hit_l2 += 1
                            if trace_values:
                                self.value_trace.append(("r", addr, data, time))
                    body[s + 1] = addr + body[s + 2]
                elif kind == 1:  # SLOT_W
                    addr = body[s + 1]
                    if wb_push(addr):
                        time += store_cycles
                        ops_executed += 1
                        if not node._draining:
                            kick_drain()
                        body[s + 1] = addr + body[s + 2]
                    else:
                        # full buffer: retry this same store after a drain
                        self._suspend(
                            time, ops_executed, ip, run_op, run_addr,
                            run_stride, run_left, loop_iters, loop_slot,
                            hit_wb, hit_l1, hit_l2)
                        self._stall_started = time
                        node.wait_wb_change(self._retry_after_wb)
                        return
                else:  # SLOT_WORK
                    time += body[s + 1]
                    ops_executed += 1
                loop_slot = s + 3
                if loop_slot == nbody:
                    loop_slot = 0
                    loop_iters -= 1
                if time - now >= quantum:
                    self._suspend(
                        time, ops_executed, ip, run_op, run_addr,
                        run_stride, run_left, loop_iters, loop_slot,
                        hit_wb, hit_l1, hit_l2)
                    sim.at(time, self._resume)
                    return
            # ---- decode the next instruction --------------------------
            if ip >= end:
                nxt = next(self._chunks, None)
                if nxt is None:
                    self._suspend(
                        time, ops_executed, ip, run_op, run_addr,
                        run_stride, run_left, loop_iters, loop_slot,
                        hit_wb, hit_l1, hit_l2)
                    self._begin_finish()
                    return
                self._code = code = nxt
                end = len(code)
                ip = 0
                continue
            opcode = code[ip]
            if opcode == OP_R:
                run_op = OP_R_RUN
                run_addr = code[ip + 1]
                run_stride = 0
                run_left = 1
                ip += 2
            elif opcode == OP_R_RUN:
                run_op = OP_R_RUN
                run_addr = code[ip + 1]
                run_stride = code[ip + 2]
                run_left = code[ip + 3]
                ip += 4
            elif opcode == OP_W:
                run_op = OP_W_RUN
                run_addr = code[ip + 1]
                run_stride = 0
                run_left = 1
                ip += 2
            elif opcode == OP_W_RUN:
                run_op = OP_W_RUN
                run_addr = code[ip + 1]
                run_stride = code[ip + 2]
                run_left = code[ip + 3]
                ip += 4
            elif opcode == OP_WORK:
                run_op = OP_WORK
                run_addr = code[ip + 1]  # cycles per op
                run_stride = 0
                run_left = code[ip + 2]
                ip += 3
            elif opcode == OP_LOOP:
                iters = code[ip + 1]
                n3 = code[ip + 2] * 3
                body[:] = code[ip + 3:ip + 3 + n3]
                nbody = n3
                loop_iters = iters
                loop_slot = 0
                ip += 3 + n3
            else:
                # synchronization (or a bad opcode): cold exits
                self._suspend(
                    time, ops_executed, ip + 2, run_op, run_addr,
                    run_stride, run_left, loop_iters, loop_slot,
                    hit_wb, hit_l1, hit_l2)
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

    # ------------------------------------------------------------------
    # read misses
    # ------------------------------------------------------------------
    def _start_read_miss(self, addr: int) -> None:
        self._stall_started = self.time
        issue_at = self.time + self.l2_cycles  # miss detection through L1+L2
        if issue_at > self.sim.now:
            self.sim.call_at(issue_at, self._issue_read, addr)
        else:
            self._issue_read(addr)

    def _issue_read(self, addr: int) -> None:
        self.node.l2ctrl.issue_read(addr, self._read_done)

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
            self.sim.at(self.time, check)
        else:
            check()

    def _sync_rmw(self, op: Op, is_barrier: bool) -> None:
        kind, sync_id = op[0], op[1]
        addr = self.node.sync_addr(kind if kind != "lock" else "lock", sync_id)
        self._rmw(addr, lambda: self._sync_arrived(op, is_barrier))

    def _rmw(self, addr: int, then: Callable[[], None]) -> None:
        """Read-modify-write the synchronization variable coherently."""
        node = self.node
        hierarchy = node.hierarchy
        probe = hierarchy.write_probe(addr)
        if probe.action == "hit":
            hierarchy.perform_write(addr, hierarchy.l2.probe_data(addr) + 1)
            self.sim.schedule(2, then)
        else:
            def owned(txn: Transaction) -> None:
                hierarchy.perform_write(addr, hierarchy.l2.probe_data(addr) + 1)
                then()

            node.l2ctrl.issue_write(addr, owned)

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
        def finished() -> None:
            if not self.done:
                self.done = True
                self.finish_time = max(self.time, self.sim.now)
                self.node.on_processor_done()

        self._fence_then(finished)
