"""Unit tests for barrier and lock managers, plus machine-level sync."""

import pytest

from repro.errors import SimulationError
from repro.node.sync import BarrierManager, LockManager
from repro.sim.engine import Simulator
from repro.system.machine import Machine

from conftest import ScriptedApp, assert_coherent, tiny_config


class TestBarrierManager:
    def test_releases_when_all_arrive(self):
        sim = Simulator()
        barrier = BarrierManager(sim, num_procs=3, wakeup_cycles=10)
        released = []
        for node in range(3):
            barrier.arrive(1, node, lambda n=node: released.append((n, sim.now)))
        sim.run()
        assert sorted(n for n, _t in released) == [0, 1, 2]
        assert all(t == 10 for _n, t in released)

    def test_no_release_until_last(self):
        sim = Simulator()
        barrier = BarrierManager(sim, num_procs=3)
        released = []
        barrier.arrive(1, 0, lambda: released.append(0))
        barrier.arrive(1, 1, lambda: released.append(1))
        sim.run()
        assert released == []
        assert barrier.waiting_at(1) == 2

    def test_double_arrival_rejected(self):
        sim = Simulator()
        barrier = BarrierManager(sim, num_procs=3)
        barrier.arrive(1, 0, lambda: None)
        with pytest.raises(SimulationError):
            barrier.arrive(1, 0, lambda: None)

    def test_independent_barrier_ids(self):
        sim = Simulator()
        barrier = BarrierManager(sim, num_procs=2)
        released = []
        barrier.arrive(1, 0, lambda: released.append("b1"))
        barrier.arrive(2, 0, lambda: released.append("b2"))
        barrier.arrive(2, 1, lambda: released.append("b2"))
        sim.run()
        assert released == ["b2", "b2"]

    def test_barrier_reusable_after_episode(self):
        sim = Simulator()
        barrier = BarrierManager(sim, num_procs=2)
        count = []
        for _episode in range(2):
            barrier.arrive(7, 0, lambda: count.append(0))
            barrier.arrive(7, 1, lambda: count.append(1))
            sim.run()
        assert len(count) == 4
        assert barrier.episodes == 2


class TestLockManager:
    def test_uncontended_acquire(self):
        sim = Simulator()
        locks = LockManager(sim)
        got = []
        locks.acquire(1, 0, lambda: got.append(0))
        sim.run()
        assert got == [0]
        assert locks.holder_of(1) == 0

    def test_contended_fifo_handoff(self):
        sim = Simulator()
        locks = LockManager(sim, handoff_cycles=5)
        order = []
        locks.acquire(1, 0, lambda: order.append(0))
        locks.acquire(1, 1, lambda: order.append(1))
        locks.acquire(1, 2, lambda: order.append(2))
        sim.run()
        assert order == [0]
        locks.release(1, 0)
        sim.run()
        assert order == [0, 1]
        locks.release(1, 1)
        sim.run()
        assert order == [0, 1, 2]
        assert locks.contended_acquires == 2

    def test_release_by_non_holder_rejected(self):
        sim = Simulator()
        locks = LockManager(sim)
        locks.acquire(1, 0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            locks.release(1, 3)

    def test_release_frees_lock(self):
        sim = Simulator()
        locks = LockManager(sim)
        locks.acquire(1, 0, lambda: None)
        sim.run()
        locks.release(1, 0)
        assert locks.holder_of(1) is None


class TestMachineSync:
    def test_barrier_orders_processors(self):
        # each processor records its finish through barrier timing; a
        # straggler (heavy work) delays everyone's release
        app = ScriptedApp(
            {
                0: [("work", 5000), ("barrier", 1)],
                1: [("barrier", 1)],
                2: [("barrier", 1)],
                3: [("barrier", 1)],
            },
            blocks=1,
        )
        machine = Machine(tiny_config())
        stats = machine.run(app)
        # nobody can finish before the straggler's 5000 cycles of work
        assert min(stats.finish_times.values()) >= 5000

    def test_lock_mutual_exclusion_traffic(self):
        app = ScriptedApp(
            {
                p: [("lock", 1), ("w", ("blk", 0)), ("unlock", 1)]
                for p in range(4)
            },
            blocks=1,
            home=0,
        )
        machine = Machine(tiny_config())
        machine.run(app)
        block = app.block_addrs[0]
        # all four critical sections executed: version is 4
        assert machine.memory_version(block) >= 0  # directory exists
        versions = [
            n.hierarchy.l2.probe(block).data
            for n in machine.nodes
            if n.hierarchy.l2.probe(block) is not None
            and n.hierarchy.l2.probe(block).state.owned()
        ]
        assert versions and versions[0] == 4
        assert machine.locks.acquires == 4
        assert_coherent(machine)

    def test_barrier_counter_generates_coherence_traffic(self):
        app = ScriptedApp(
            {p: [("barrier", 1)] for p in range(4)}, blocks=1
        )
        machine = Machine(tiny_config())
        machine.run(app)
        # the barrier fetch&inc migrated the counter block through all nodes
        counter = machine.sync_addr("barrier", 1)
        home = machine.nodes[machine.space.home_of(counter)]
        entry = home.directory.peek(counter)
        assert entry is not None
        assert_coherent(machine)

    def test_sync_stall_recorded(self):
        app = ScriptedApp(
            {
                0: [("work", 3000), ("barrier", 1)],
                1: [("barrier", 1)],
                2: [("barrier", 1)],
                3: [("barrier", 1)],
            },
            blocks=1,
        )
        machine = Machine(tiny_config())
        machine.run(app)
        assert machine.nodes[1].processor.sync_stall_cycles > 2000
