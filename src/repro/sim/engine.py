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

Pending events live in one binary heap of ``(time, seq, event)`` tuples
owned by the :class:`Simulator` (see DESIGN.md §9).  Ordering is a C-level
tuple comparison; ``seq`` is unique, so the event object itself is never
compared.

Scheduling is closure-free: ``sim.call(delay, fn, *args)`` stores the
function and its arguments on the :class:`Event` instead of requiring a
per-event lambda, and popped events are recycled through a small free
list, so steady-state simulation allocates (almost) nothing per event.

Time is measured in integer *cycles* of the system clock (the paper's
switches, links and processors all run at 200 MHz, so a single clock domain
suffices; components with slower logic express their latency as a cycle
count).
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError

Callback = Callable[..., Any]

#: ``sys.getrefcount`` is CPython-specific; without it the free list is
#: simply never fed (correct, just no recycling)
_getrefcount: Optional[Callable[[object], int]] = getattr(
    sys, "getrefcount", None
)

#: recycled events point here so the dead callback (and anything its cell
#: captured) is released immediately
def _no_callback() -> None:  # pragma: no cover - never scheduled
    raise SimulationError("recycled event fired")


#: free-list bound: enough to absorb the pop/push churn of a busy machine
#: without pinning an unbounded pile of dead objects
_FREE_MAX = 512


class Event:
    """A scheduled callback (plus its arguments).

    Holding on to the returned event allows cancellation; cancelled events
    stay queued but are skipped when popped (lazy deletion).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callback,
        sim: Optional["Simulator"] = None,
        args: Tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            # keep the owning simulator's live-event counter exact while
            # the event is still queued (cleared to None once popped)
            sim = self._sim
            if sim is not None:
                sim._cancelled_queued += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq}{state}>"


#: one heap entry: compared as a C-level tuple, never reaching the event
Entry = Tuple[int, int, Event]


class Simulator:
    """Event queue and clock for one simulated machine.

    Typical component code::

        sim.call(4, port.grant, msg)            # relative delay, no lambda
        sim.call_at(sim.now + latency, self._finish, txn)

    (``schedule``/``at`` remain as zero-argument conveniences.)  The
    engine never advances past ``horizon`` (if set), which the tests use
    to bound runaway models.
    """

    __slots__ = (
        "now", "_seq", "_heap", "_peak", "_events_fired",
        "_cancelled_queued", "horizon", "tracer", "_free", "_stop",
    )

    def __init__(self, horizon: Optional[int] = None) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._heap: List[Entry] = []
        self._peak: int = 0  # high-water heap size (incl. cancelled)
        self._events_fired: int = 0
        self._cancelled_queued: int = 0  # cancelled events still queued
        self._stop: bool = False  # set by request_stop(), read per event
        self._free: List[Event] = []
        self.horizon = horizon
        # observability hook: components reach the run's Tracer through
        # the simulator they already hold (None = tracing disabled; every
        # instrumentation site guards on that, which is the whole of the
        # disabled path's overhead)
        self.tracer: Optional[Any] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callback) -> Event:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.now + delay, callback)

    def at(self, time: int, callback: Callback) -> Event:
        """Schedule ``callback`` at absolute cycle ``time`` (>= now)."""
        return self.call_at(time, callback)

    def call(self, delay: int, fn: Callback, *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` cycles from now, closure-free."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.now + delay, fn, *args)

    def call_at(self, time: int, fn: Callback, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self.now}"
            )
        self._seq = seq = self._seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.seq = seq
            event.callback = fn
            event.args = args
            event.cancelled = False
            event._sim = self
        else:
            event = Event(time, seq, fn, self, args)
        heap = self._heap
        heappush(heap, (time, seq, event))
        if len(heap) > self._peak:
            self._peak = len(heap)
        return event

    def _recycle(self, event: Event) -> None:
        """Return a popped event to the free list if nobody else holds it.

        The refcount guard (local + argument + getrefcount's own temporary
        = 3) means an event whose handle a component kept — e.g. to cancel
        it later — is never recycled, so stale handles stay inert forever
        rather than cancelling an unrelated reused event.
        """
        free = self._free
        if (
            len(free) < _FREE_MAX
            and _getrefcount is not None
            and _getrefcount(event) == 3
        ):
            event.callback = _no_callback
            event.args = ()
            free.append(event)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False if the queue is empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            event._sim = None
            if event.cancelled:
                self._cancelled_queued -= 1
                self._recycle(event)
                continue
            if self.horizon is not None and event.time > self.horizon:
                return False
            self.now = event.time
            self._events_fired += 1
            callback = event.callback
            args = event.args
            self._recycle(event)
            callback(*args)
            return True
        return False

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains (or ``until`` cycles).  Returns now.

        Events after ``until`` stay queued.
        """
        heap = self._heap
        recycle = self._recycle
        horizon = self.horizon
        if until is None:
            while heap:
                event = heappop(heap)[2]
                event._sim = None
                if event.cancelled:
                    self._cancelled_queued -= 1
                    recycle(event)
                    continue
                if horizon is not None and event.time > horizon:
                    break  # beyond the horizon: drop, as step() does
                self.now = event.time
                self._events_fired += 1
                callback = event.callback
                args = event.args
                recycle(event)
                callback(*args)
        else:
            while heap and heap[0][0] <= until:
                event = heappop(heap)[2]
                event._sim = None
                if event.cancelled:
                    self._cancelled_queued -= 1
                    recycle(event)
                    continue
                if horizon is not None and event.time > horizon:
                    recycle(event)
                    continue  # beyond the horizon: drop, as step() does
                self.now = event.time
                self._events_fired += 1
                callback = event.callback
                args = event.args
                recycle(event)
                callback(*args)
            self.now = max(self.now, until)
        return self.now

    def request_stop(self) -> None:
        """Ask the running :meth:`run_until_stop` loop to exit.

        Takes effect before the next event fires.
        """
        self._stop = True

    def run_until_stop(self) -> int:
        """Run events until :meth:`request_stop` (or the queue drains).

        This is the main loop of a :class:`~repro.system.machine.Machine`,
        whose only stop condition is "every processor finished", so the
        per-event check is one attribute load.  The free-list recycle of
        :meth:`_recycle` is inlined (the refcount threshold is 2 here,
        not 3, because there is no extra callee frame holding the event).
        """
        heap = self._heap
        recycle = self._recycle
        free = self._free
        grc = _getrefcount
        horizon = self.horizon
        fired = 0
        try:
            while not self._stop:
                while True:
                    if not heap:
                        return self.now
                    event = heappop(heap)[2]
                    event._sim = None
                    if not event.cancelled:
                        break
                    self._cancelled_queued -= 1
                    recycle(event)
                if horizon is not None and event.time > horizon:
                    return self.now  # beyond the horizon: drop, as step()
                self.now = event.time
                fired += 1
                callback = event.callback
                args = event.args
                if (
                    len(free) < _FREE_MAX
                    and grc is not None
                    and grc(event) == 2
                ):
                    event.callback = _no_callback
                    event.args = ()
                    free.append(event)
                callback(*args)
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
        """Number of live (non-cancelled) events still queued.

        O(1): maintained as heap size minus the count of cancelled events
        that have not been lazily removed yet.
        """
        return len(self._heap) - self._cancelled_queued

    @property
    def peak_pending(self) -> int:
        """High-water queue depth (including cancelled-but-queued events)."""
        return self._peak

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def next_event_time(self) -> Optional[int]:
        """Time of the next live event (None when none is queued).

        Cancelled heads are discarded on the way, as a pop would.
        """
        heap = self._heap
        while heap:
            event = heap[0][2]
            if not event.cancelled:
                return event.time
            heappop(heap)
            event._sim = None
            self._cancelled_queued -= 1
            self._recycle(event)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now} pending={self.pending}>"
