"""Synchronization primitives (barriers and queue locks).

The applications synchronize through shared memory.  Arrival at a barrier
(or a lock acquire) performs a *real* read-modify-write coherence
transaction on the synchronization variable — so the counter block
migrates between nodes exactly as it would in hardware, with recalls,
invalidations and all the attendant network traffic.  Only the *wakeup*
is idealized: instead of simulating millions of spin reads, released
waiters resume after a fixed ``wakeup_cycles`` delay that stands in for
the invalidate-and-reread of the release flag (see DESIGN.md,
substitution table).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Tuple

from ..errors import SimulationError
from ..sim.engine import Simulator

ResumeFn = Callable[[], None]


class BarrierManager:
    """Centralized sense-reversing barriers, one counter block per barrier."""

    def __init__(
        self, sim: Simulator, num_procs: int, wakeup_cycles: int = 120
    ) -> None:
        self.sim = sim
        self.num_procs = num_procs
        self.wakeup_cycles = wakeup_cycles
        self._waiting: Dict[int, List[Tuple[int, ResumeFn]]] = {}
        # statistics
        self.episodes = 0
        self.arrivals = 0

    def arrive(self, barrier_id: int, node_id: int, resume: ResumeFn) -> None:
        """Called after the node's fetch&inc transaction completed."""
        waiters = self._waiting.setdefault(barrier_id, [])
        for waiting_node, _fn in waiters:
            if waiting_node == node_id:
                raise SimulationError(
                    f"node {node_id} arrived twice at barrier {barrier_id}"
                )
        waiters.append((node_id, resume))
        self.arrivals += 1
        if len(waiters) == self.num_procs:
            self.episodes += 1
            released = self._waiting.pop(barrier_id)
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(
                    "sync", "barrier_release", self.sim.now,
                    {"barrier": barrier_id, "procs": len(released)},
                )
            for _node, fn in released:
                self.sim.call(self.wakeup_cycles, fn)

    def waiting_at(self, barrier_id: int) -> int:
        return len(self._waiting.get(barrier_id, []))


class LockManager:
    """FIFO queue locks (the RMW traffic is issued by the caller)."""

    def __init__(self, sim: Simulator, handoff_cycles: int = 80) -> None:
        self.sim = sim
        self.handoff_cycles = handoff_cycles
        self._holder: Dict[int, int] = {}
        self._queue: Dict[int, Deque[Tuple[int, ResumeFn]]] = {}
        # statistics
        self.acquires = 0
        self.contended_acquires = 0

    def acquire(self, lock_id: int, node_id: int, resume: ResumeFn) -> None:
        """Called after the node's test&set transaction completed."""
        self.acquires += 1
        if lock_id not in self._holder:
            self._holder[lock_id] = node_id
            self.sim.call(0, resume)
        else:
            self.contended_acquires += 1
            self._queue.setdefault(lock_id, deque()).append((node_id, resume))

    def release(self, lock_id: int, node_id: int) -> None:
        holder = self._holder.get(lock_id)
        if holder != node_id:
            raise SimulationError(
                f"node {node_id} released lock {lock_id} held by {holder}"
            )
        queue = self._queue.get(lock_id)
        if queue:
            next_node, resume = queue.popleft()
            if not queue:
                del self._queue[lock_id]
            self._holder[lock_id] = next_node
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(
                    "sync", "lock_handoff", self.sim.now,
                    {"lock": lock_id, "from": node_id, "to": next_node},
                )
            self.sim.call(self.handoff_cycles, resume)
        else:
            del self._holder[lock_id]

    def holder_of(self, lock_id: int):
        return self._holder.get(lock_id)
