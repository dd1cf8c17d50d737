"""Shared-resource primitives used by the timing models.

Two abstractions cover every contended resource in the machine:

* :class:`Timeline` — a serially-reusable resource (a bus wire, a memory
  bank, a cache data array).  Callers *reserve* an occupancy interval and
  are told when their turn starts.  Reservations are granted in request
  order (FIFO), which matches the age-based arbitration of the Spider-style
  switches at message granularity.

* :class:`FifoServer` — a single-server queue with an explicit service
  callback, used where the service time depends on the request (e.g. the
  memory module, whose occupancy differs for reads and writebacks).

Both record queueing-delay statistics, which the paper's latency-breakdown
figures report directly.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from .engine import Simulator


class Timeline:
    """Serially reusable resource granted in request order.

    ``reserve(duration)`` returns the cycle at which the caller's occupancy
    begins; the resource is then busy until ``start + duration``.  The
    caller is responsible for scheduling its own completion event.
    """

    __slots__ = ("sim", "name", "_free_at", "busy_cycles", "reservations", "queued_cycles")

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._free_at = 0
        self.busy_cycles = 0
        self.reservations = 0
        self.queued_cycles = 0

    def reserve(self, duration: int, earliest: Optional[int] = None) -> int:
        """Reserve ``duration`` cycles; returns the start cycle of the grant.

        ``earliest`` lets a caller that is not yet ready (e.g. a flit still
        in flight) ask for a slot no sooner than a future cycle.
        """
        # hot path (every link/port grant): branches instead of max()
        now = self.sim.now
        if earliest is None or earliest < now:
            request_at = now
        else:
            request_at = earliest
        start = self._free_at
        if start < request_at:
            start = request_at
        self._free_at = start + duration
        self.busy_cycles += duration
        self.reservations += 1
        self.queued_cycles += start - request_at
        return start

    def free_at(self) -> int:
        """Cycle at which the resource next becomes free."""
        return max(self._free_at, self.sim.now)

    def is_busy(self) -> bool:
        return self._free_at > self.sim.now

    def utilization(self) -> float:
        """Busy fraction of elapsed simulated time (0 if time has not advanced)."""
        if self.sim.now == 0:
            return 0.0
        return min(1.0, self.busy_cycles / self.sim.now)

    def mean_queueing_delay(self) -> float:
        if self.reservations == 0:
            return 0.0
        return self.queued_cycles / self.reservations


class FifoServer:
    """Single server with an explicit per-request service procedure.

    ``submit(request)`` enqueues; when the server is free it calls
    ``service(request)`` which must return the occupancy in cycles.  After
    that many cycles ``done(request)`` (if given) fires and the next request
    starts.
    """

    __slots__ = (
        "sim", "service", "done", "name", "_queue", "_busy", "served",
        "queued_cycles", "busy_cycles",
    )

    def __init__(
        self,
        sim: Simulator,
        service: Callable[[object], int],
        done: Optional[Callable[[object], None]] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.service = service
        self.done = done
        self.name = name
        self._queue: Deque[Tuple[object, int]] = deque()
        self._busy = False
        self.served = 0
        self.queued_cycles = 0
        self.busy_cycles = 0

    def submit(self, request: object) -> None:
        self._queue.append((request, self.sim.now))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        request, enqueued = self._queue.popleft()
        self.queued_cycles += self.sim.now - enqueued
        occupancy = self.service(request)
        self.busy_cycles += occupancy
        self.served += 1
        self.sim.call(occupancy, self._finish, request)

    def _finish(self, request: object) -> None:
        if self.done is not None:
            self.done(request)
        self._start_next()

    @property
    def depth(self) -> int:
        """Requests currently waiting (not counting the one in service)."""
        return len(self._queue)

    def mean_queueing_delay(self) -> float:
        if self.served == 0:
            return 0.0
        return self.queued_cycles / self.served
