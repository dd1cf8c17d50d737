"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0
    assert sim.pending == 0
    assert sim.events_fired == 0


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    fired = []
    sim.call(10, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [10]
    assert sim.now == 10


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call(30, lambda: order.append("c"))
    sim.call(10, lambda: order.append("a"))
    sim.call(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_cycle_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.call(5, lambda t=tag: order.append(t))
    sim.run()
    assert order == list("abcde")


def test_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.call_at(42, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [42]


def test_at_in_past_raises():
    sim = Simulator()
    sim.call(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call(-1, lambda: None)


def test_nested_scheduling_from_callback():
    sim = Simulator()
    trail = []

    def first():
        trail.append(("first", sim.now))
        sim.call(5, lambda: trail.append(("second", sim.now)))

    sim.call(3, first)
    sim.run()
    assert trail == [("first", 3), ("second", 8)]


def test_step_returns_false_on_empty_queue():
    sim = Simulator()
    assert sim.step() is False


def test_step_fires_exactly_one_event():
    sim = Simulator()
    fired = []
    sim.call(1, lambda: fired.append("a"))
    sim.call(2, lambda: fired.append("b"))
    assert sim.step() is True
    assert fired == ["a"]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.call(5, lambda: fired.append(5))
    sim.call(50, lambda: fired.append(50))
    sim.run(until=10)
    assert fired == [5]
    assert sim.now == 10
    sim.run()
    assert fired == [5, 50]


def test_run_until_stop_exits_on_request():
    sim = Simulator()
    count = []

    def tick():
        count.append(sim.now)
        if len(count) % 5 == 0:
            sim.request_stop()
        sim.call(1, tick)

    sim.call(0, tick)
    assert sim.run_until_stop() == 4
    assert len(count) == 5
    assert sim.pending == 1  # the next tick stays queued
    assert sim.run_until_stop() == 9  # the request was consumed: runs on
    assert len(count) == 10


def test_horizon_stops_run():
    sim = Simulator(horizon=100)
    fired = []
    sim.call(50, lambda: fired.append(50))
    sim.call(150, lambda: fired.append(150))
    sim.run()
    assert fired == [50]


def test_pending_counts_live_events_only():
    sim = Simulator()
    sim.call(1, lambda: None)
    sim.call(2, lambda: None)
    assert sim.pending == 2
    sim.step()  # a fired event is no longer pending
    assert sim.pending == 1


def test_next_event_time():
    sim = Simulator()
    assert sim.next_event_time() is None
    sim.call(7, lambda: None)
    assert sim.next_event_time() == 7


def test_events_fired_counter():
    sim = Simulator()
    for i in range(4):
        sim.call(i, lambda: None)
    sim.run()
    assert sim.events_fired == 4


def test_zero_delay_fires_at_current_time():
    sim = Simulator()
    sim.call(10, lambda: None)
    sim.run()
    fired = []
    sim.call(0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [10]


def test_determinism_across_identical_runs():
    def build_and_run():
        sim = Simulator()
        trail = []

        def spawn(depth):
            trail.append((sim.now, depth))
            if depth < 4:
                sim.call(2, lambda: spawn(depth + 1))
                sim.call(2, lambda: spawn(depth + 1))

        sim.call(0, lambda: spawn(0))
        sim.run()
        return trail

    assert build_and_run() == build_and_run()


def test_callback_exception_propagates():
    sim = Simulator()
    sim.call(1, lambda: (_ for _ in ()).throw(ValueError("boom")))
    with pytest.raises(ValueError):
        sim.run()


def test_call_passes_arguments():
    sim = Simulator()
    seen = []
    sim.call(3, seen.append, "a")
    sim.call_at(5, lambda x, y: seen.append((x, y)), 1, 2)
    sim.run()
    assert seen == ["a", (1, 2)]
    assert sim.now == 5


def test_peak_pending_high_water():
    sim = Simulator()
    for t in (4, 1, 9, 2):
        sim.call_at(t, lambda: None)
    sim.run()
    assert sim.peak_pending == 4
    assert sim.pending == 0


engines = pytest.mark.parametrize(
    "make", [lambda: Simulator(horizon=100)], ids=["base"],
)


@engines
@pytest.mark.parametrize("loop", ["run", "run_until_stop"])
def test_horizon_leaves_later_events_queued(make, loop):
    sim = make()
    fired = []
    sim.call(50, lambda: fired.append(50))
    sim.call(150, lambda: fired.append(150))
    assert getattr(sim, loop)() == 50
    assert fired == [50]
    assert sim.pending == 1 and sim.next_event_time() == 150
    assert sim.step() is False  # the horizon holds for single steps too
    assert sim.events_fired == 1


@engines
def test_run_until_is_capped_by_horizon(make):
    sim = make()
    fired = []
    sim.call(150, lambda: fired.append(150))
    assert sim.run(until=200) == 100  # the clock never passes the horizon
    assert fired == [] and sim.pending == 1


def test_scheduling_returns_no_handle():
    sim = Simulator()
    assert sim.call(1, int) is None
    assert sim.call_at(2, int) is None
    assert sim.pending == 2
