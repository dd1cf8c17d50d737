"""Shared-resource primitive used by the timing models.

:class:`Timeline` is a serially-reusable resource (a bus wire, a memory
bank, a cache data array).  Callers *reserve* an occupancy interval and
are told when their turn starts.  Reservations are granted in request
order (FIFO), which matches the age-based arbitration of the Spider-style
switches at message granularity, so every fabric link is one too.  A
timeline counts its grants, the cycles they waited and the cycles they
held it: queueing delay (which the paper's latency-breakdown figures
report directly) and utilization derive from those three counters.
A timeline is unnamed: its owner (a link's switch, a node's memory, a
CAESAR engine) already identifies it.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .engine import Simulator


class Timeline:
    """Serially reusable resource granted in request order.

    ``reserve(duration)`` returns the cycle at which the caller's occupancy
    begins; the resource is then busy until ``start + duration``.  The
    caller is responsible for scheduling its own completion event.
    """

    __slots__ = (
        "sim", "_free_at", "reservations", "queued_cycles", "busy_cycles",
    )

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._free_at = 0
        self.reservations = 0
        self.queued_cycles = 0
        self.busy_cycles = 0

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
        self.reservations += 1
        self.queued_cycles += start - request_at
        self.busy_cycles += duration
        return start

    def free_at(self) -> int:
        """Cycle at which the resource next becomes free."""
        return max(self._free_at, self.sim.now)

    def is_busy(self) -> bool:
        return self._free_at > self.sim.now

    def utilization(self) -> float:
        """Busy fraction of elapsed simulated time (0 if time has not advanced)."""
        now = self.sim.now
        if now == 0:
            return 0.0
        return min(1.0, self.busy_cycles / now)

    def mean_queueing_delay(self) -> float:
        if self.reservations == 0:
            return 0.0
        return self.queued_cycles / self.reservations


def pooled_queueing_delay(timelines: Iterable[Timeline]) -> float:
    """Mean queueing delay per grant over several timelines (0 if none).

    Weighted by grants, so a timeline that granted nothing does not
    dilute the mean.
    """
    grants = 0
    queued = 0
    for timeline in timelines:
        grants += timeline.reservations
        queued += timeline.queued_cycles
    return queued / grants if grants else 0.0
