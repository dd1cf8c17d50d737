"""Unit tests for the Timeline resource."""

from repro.sim.engine import Simulator
from repro.sim.resource import Timeline, pooled_queueing_delay


class TestTimeline:
    def test_idle_grant_is_immediate(self):
        sim = Simulator()
        tl = Timeline(sim)
        assert tl.reserve(10) == 0

    def test_back_to_back_reservations_queue(self):
        sim = Simulator()
        tl = Timeline(sim)
        assert tl.reserve(10) == 0
        assert tl.reserve(10) == 10
        assert tl.reserve(5) == 20

    def test_earliest_defers_grant(self):
        sim = Simulator()
        tl = Timeline(sim)
        assert tl.reserve(10, earliest=100) == 100

    def test_earliest_in_past_is_clamped_to_now(self):
        sim = Simulator()
        sim.call(50, lambda: None)
        sim.run()
        tl = Timeline(sim)
        assert tl.reserve(10, earliest=5) == 50

    def test_gap_then_new_request(self):
        sim = Simulator()
        tl = Timeline(sim)
        tl.reserve(10)  # busy [0, 10)
        assert tl.reserve(10, earliest=50) == 50  # idle gap is not back-filled

    def test_free_at(self):
        sim = Simulator()
        tl = Timeline(sim)
        tl.reserve(10)
        assert tl.free_at() == 10

    def test_is_busy(self):
        sim = Simulator()
        tl = Timeline(sim)
        assert not tl.is_busy()
        tl.reserve(10)
        assert tl.is_busy()

    def test_busy_cycles_accumulate(self):
        sim = Simulator()
        tl = Timeline(sim)
        tl.reserve(10)
        tl.reserve(7)
        assert tl.free_at() == 17
        assert tl.reservations == 2
        assert tl.busy_cycles == 17

    def test_utilization_is_busy_share_of_elapsed_time(self):
        sim = Simulator()
        tl = Timeline(sim)
        assert tl.utilization() == 0.0  # no time has passed
        tl.reserve(10)
        tl.reserve(5, earliest=30)  # the idle gap is not busy time
        sim.now = 60
        assert tl.busy_cycles == 15
        assert tl.utilization() == 0.25
        sim.now = 10  # reserved beyond now: capped at fully busy
        assert tl.utilization() == 1.0

    def test_queueing_delay_statistics(self):
        sim = Simulator()
        tl = Timeline(sim)
        tl.reserve(10)  # no wait
        tl.reserve(10)  # waits 10
        assert tl.queued_cycles == 10
        assert tl.mean_queueing_delay() == 5.0

    def test_mean_queueing_delay_empty(self):
        sim = Simulator()
        tl = Timeline(sim)
        assert tl.mean_queueing_delay() == 0.0


class TestPooledQueueingDelay:
    def test_weighted_by_grants(self):
        sim = Simulator()
        busy, quiet, idle = Timeline(sim), Timeline(sim), Timeline(sim)
        for _ in range(3):
            busy.reserve(10)  # waits 0, 10, 20
        quiet.reserve(10)  # waits 0
        # 30 queued cycles over 4 grants; the idle timeline adds none
        assert pooled_queueing_delay([busy, quiet, idle]) == 7.5

    def test_no_grants(self):
        sim = Simulator()
        assert pooled_queueing_delay([Timeline(sim), Timeline(sim)]) == 0.0
        assert pooled_queueing_delay([]) == 0.0
