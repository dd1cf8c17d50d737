"""Deterministic discrete-event simulation engine.

The whole machine model is built on this small engine.  Components interact
only by scheduling callbacks at future cycle counts; there is no implicit
global step.  Two properties matter for a reproduction study:

* **Determinism** — events scheduled for the same cycle fire in scheduling
  order (a monotonically increasing sequence number breaks ties), so a run
  is a pure function of the configuration and the seeds.
* **Cheap idle time** — nothing happens between events, which lets the
  processor models fast-forward through long runs of cache hits without
  touching the queue (see :mod:`repro.node.processor`).

Pending events live in one binary heap of ``(time, seq, fn, args)``
tuples owned by the :class:`Simulator` (see DESIGN.md §9).  Ordering is a
C-level tuple comparison; ``seq`` is unique, so the callback is never
compared.  An event is plain data: there is no event object, no handle
and no cancellation, so scheduling returns nothing.

Scheduling is closure-free: ``sim.call(delay, fn, *args)`` queues the
function and its argument tuple directly instead of requiring a
per-event lambda.

Time is measured in integer *cycles* of the system clock (the paper's
switches, links and processors all run at 200 MHz, so a single clock domain
suffices; components with slower logic express their latency as a cycle
count).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError

Callback = Callable[..., Any]

#: one heap entry: ``(time, seq, fn, args)``, compared as a C-level tuple
Entry = Tuple[int, int, Callback, Tuple[Any, ...]]


class Simulator:
    """Event queue and clock for one simulated machine.

    Typical component code::

        sim.call(4, port.grant, msg)            # relative delay, no lambda
        sim.call_at(sim.now + latency, self._finish, txn)

    The engine never advances past ``horizon`` (if set): events beyond it
    stay queued, and the run loops return instead of firing them.
    """

    __slots__ = (
        "now", "_seq", "_heap", "_peak", "_events_fired", "horizon",
        "tracer", "_stop",
    )

    def __init__(self, horizon: Optional[int] = None) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._heap: List[Entry] = []
        self._peak: int = 0  # high-water heap size
        self._events_fired: int = 0
        self._stop: bool = False  # set by request_stop(), read per event
        self.horizon = horizon
        # observability hook: components reach the run's Tracer through
        # the simulator they already hold (None = tracing disabled; every
        # instrumentation site guards on that, which is the whole of the
        # disabled path's overhead)
        self.tracer: Optional[Any] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call(self, delay: int, fn: Callback, *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` cycles from now, closure-free."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.call_at(self.now + delay, fn, *args)

    def call_at(self, time: int, fn: Callback, *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute cycle ``time`` (>= now).

        ``Fabric._hop`` inlines this push for the next hop of a worm;
        keep the two in lockstep (sequence number, peak, past check).
        They are the only pushes onto the heap, so their past check is
        what keeps the clock from ever moving backwards.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self.now}"
            )
        self._seq = seq = self._seq + 1
        heap = self._heap
        heappush(heap, (time, seq, fn, args))
        if len(heap) > self._peak:
            self._peak = len(heap)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _limit(self, until: Optional[int]) -> Optional[int]:
        """The last cycle a run may fire: ``until`` capped by the horizon."""
        horizon = self.horizon
        if until is None or (horizon is not None and horizon < until):
            return horizon
        return until

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if none may fire."""
        heap = self._heap
        if not heap or (self.horizon is not None and heap[0][0] > self.horizon):
            return False
        time, _, fn, args = heappop(heap)
        self.now = time
        self._events_fired += 1
        fn(*args)
        return True

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains (or ``until`` cycles).  Returns now.

        Events after ``until`` (or the horizon) stay queued; with
        ``until`` the clock then advances to it, capped by the horizon.
        """
        heap = self._heap
        limit = self._limit(until)
        fired = 0
        try:
            if limit is None:
                while heap:
                    time, _, fn, args = heappop(heap)
                    self.now = time
                    fired += 1
                    fn(*args)
            else:
                while heap and heap[0][0] <= limit:
                    time, _, fn, args = heappop(heap)
                    self.now = time
                    fired += 1
                    fn(*args)
                if until is not None and limit > self.now:
                    self.now = limit
            return self.now
        finally:
            self._events_fired += fired

    def request_stop(self) -> None:
        """Ask the running :meth:`run_until_stop` loop to exit.

        Takes effect before the next event fires.
        """
        self._stop = True

    def run_until_stop(self) -> int:
        """Run events until :meth:`request_stop`, the horizon, or a drain.

        This is the main loop of a :class:`~repro.system.machine.Machine`,
        whose only stop condition is "every processor finished", so the
        per-event check is one attribute load.  An event beyond the
        horizon is pushed back, so the caller can tell a bounded run
        (``pending > 0``) from a drained queue.
        """
        heap = self._heap
        horizon = self.horizon
        fired = 0
        try:
            while not self._stop:
                if not heap:
                    return self.now
                time, seq, fn, args = heappop(heap)
                if horizon is not None and time > horizon:
                    heappush(heap, (time, seq, fn, args))
                    return self.now
                self.now = time
                fired += 1
                fn(*args)
            return self.now
        finally:
            self._stop = False
            # counted locally in the loop; published even on an exception
            self._events_fired += fired

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    @property
    def peak_pending(self) -> int:
        """High-water queue depth."""
        return self._peak

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def next_event_time(self) -> Optional[int]:
        """Time of the next queued event (None when none is queued)."""
        heap = self._heap
        return heap[0][0] if heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now} pending={self.pending}>"
