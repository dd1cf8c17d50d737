"""Tests of machine assembly, the coherence audit, and failure modes."""

import pytest

from repro.cache.states import LineState
from repro.apps import GaussianElimination
from repro.apps.synthetic import SharedReaders
from repro.errors import DeadlockError
from repro.node.node import Node
from repro.system.machine import Machine
from repro.system.presets import switch_cache_config

from conftest import ScriptedApp, run_scripted, tiny_config


class TestAssembly:
    def test_node_count_and_wiring(self):
        machine = Machine(tiny_config())
        assert len(machine.nodes) == 4
        assert len(machine.fabric.switches) == 2 * 2  # 2 stages x 2 rows

    def test_switch_caches_installed_only_when_enabled(self):
        base = Machine(tiny_config())
        assert all(s.cache_engine is None for s in base.fabric.switches.values())
        sc = Machine(tiny_config(switch_cache_size=512))
        assert all(s.cache_engine is not None for s in sc.fabric.switches.values())

    def test_switch_caches_share_geometry_and_policy(self):
        # every engine is built from the machine's one config, and the
        # fabric lists them in switch order
        machine = Machine(switch_cache_config(
            16, size=1024, banks=2, switch_cache_deposit_threshold=8,
        ))
        engines = machine.fabric.cache_engines
        assert engines == [
            s.cache_engine for s in machine.fabric.switches.values()
        ]
        assert len(engines) == 32
        assert {
            (e.array.size, len(e.data_ports), e._bypass_threshold,
             e._deposit_threshold, e.enabled)
            for e in engines
        } == {(1024, 2, 4, 8, True)}

    def test_netcache_installed_only_when_enabled(self):
        base = Machine(tiny_config())
        assert all(n.netcache is None for n in base.nodes)
        nc = Machine(tiny_config(netcache_size=4096))
        assert all(n.netcache is not None for n in nc.nodes)

    def test_sync_addr_stable_and_unique(self):
        machine = Machine(tiny_config())
        a = machine.sync_addr("barrier", 1)
        b = machine.sync_addr("barrier", 2)
        c = machine.sync_addr("lock", 1)
        assert a == machine.sync_addr("barrier", 1)
        assert len({a, b, c}) == 3

    def test_sixteen_node_machine_builds(self):
        machine = Machine(tiny_config(num_nodes=16))
        assert len(machine.fabric.switches) == 4 * 8


class TestRunLoop:
    def test_deadlock_detection_on_mismatched_barriers(self):
        app = ScriptedApp(
            {0: [("barrier", 1)], 1: [], 2: [], 3: []}, blocks=1
        )
        machine = Machine(tiny_config())
        with pytest.raises(DeadlockError, match="event queue drained"):
            machine.run(app)

    def test_deadlock_names_open_transactions_and_mshrs(self, monkeypatch):
        # a node that never acknowledges an INV leaves the home's write
        # transaction waiting forever: the error says what is stuck
        on_inv = Node._on_inv

        def on_inv_without_ack(self, msg):
            msg.no_ack = True
            on_inv(self, msg)

        monkeypatch.setattr(Node, "_on_inv", on_inv_without_ack)
        app = ScriptedApp(
            {1: [("r", ("blk", 0))], 2: [("work", 400), ("w", ("blk", 0))]},
            blocks=1, home=0,
        )
        machine = Machine(tiny_config())
        with pytest.raises(DeadlockError) as excinfo:
            machine.run(app)
        block = app.block_addrs[0]
        message = str(excinfo.value)
        assert (
            f"home 0: READX of block {block:#x} from node 2, "
            f"1 acks outstanding" in message
        )
        assert f"proc 2: write MSHR for block {block:#x}" in message

    @pytest.mark.parametrize("sanitize", (False, True))
    def test_max_cycles_bounds_the_run(self, sanitize):
        machine = Machine(switch_cache_config(4), sanitize=sanitize)
        with pytest.raises(
            DeadlockError,
            match=r"max_cycles=100 reached with processors \[0, 1, 2, 3\]",
        ):
            machine.run(GaussianElimination(n=16), max_cycles=100)
        assert machine.sim.now <= 100
        assert machine.sim.pending > 0  # bounded, not drained

    def test_generous_max_cycles_changes_nothing(self):
        unbounded = Machine(switch_cache_config(4))
        free = unbounded.run(GaussianElimination(n=16))
        bounded = Machine(switch_cache_config(4))
        capped = bounded.run(GaussianElimination(n=16), max_cycles=10**6)
        assert capped.exec_time == free.exec_time == 11382
        assert bounded.sim.events_fired == unbounded.sim.events_fired

    def test_quiesce_after_completion(self):
        machine, _stats = run_scripted(
            {p: [("w", ("blk", 0))] for p in range(4)}, blocks=1, home=0
        )
        assert machine.sim.pending == 0

    def test_exec_time_is_max_finish(self):
        machine, stats = run_scripted(
            {0: [("work", 100)], 1: [("work", 9000)]}, blocks=1
        )
        assert stats.exec_time == max(stats.finish_times.values())


class TestCoherenceAudit:
    def test_clean_machine_audits_clean(self):
        machine, _stats = run_scripted(
            {p: [("r", ("blk", 0)), ("w", ("blk", 1))] for p in range(4)},
            blocks=2, home=0,
        )
        assert machine.check_coherence() == []

    def test_audit_detects_hidden_sharer(self):
        machine, _stats = run_scripted(
            {1: [("r", ("blk", 0))]}, blocks=1, home=0
        )
        # corrupt: node 2 conjures a copy the directory doesn't know about
        block_addr = machine.nodes[1].processor.value_trace[0][1]
        machine.nodes[2].hierarchy.l2.insert(block_addr, LineState.SHARED, 0)
        problems = machine.check_coherence()
        assert any("not a registered sharer" in p for p in problems)

    def test_audit_detects_version_mismatch(self):
        machine, _stats = run_scripted(
            {1: [("r", ("blk", 0))]}, blocks=1, home=0
        )
        block_addr = machine.nodes[1].processor.value_trace[0][1]
        machine.nodes[1].hierarchy.l2.probe(block_addr).data = 99
        problems = machine.check_coherence()
        assert any("v99" in p for p in problems)

    def test_audit_detects_rogue_owner(self):
        machine, _stats = run_scripted(
            {1: [("w", ("blk", 0))]}, blocks=1, home=0
        )
        block_addr = next(machine.nodes[1].hierarchy.l2.resident_blocks())[0]
        machine.nodes[2].hierarchy.l2.insert(block_addr, LineState.MODIFIED, 5)
        problems = machine.check_coherence()
        assert problems

    def test_audit_detects_stale_switch_copy(self):
        config = tiny_config(switch_cache_size=1024)
        machine, _stats = run_scripted(
            {1: [("r", ("blk", 0))]}, config=config, blocks=1, home=0
        )
        copies = machine.fabric.switch_cache_blocks()
        assert copies  # the read deposited along its path
        sid, addr, _v = copies[0]
        machine.fabric.switches[sid].cache_engine.array.probe(addr).data = 77
        problems = machine.check_coherence()
        assert any("switch" in p for p in problems)

    def test_audit_flags_switch_copy_without_directory_entry(self):
        machine = Machine(switch_cache_config(4))
        machine.run(SharedReaders())
        assert machine.check_coherence() == []
        block = 1 << 20  # never touched by the app
        home = machine.nodes[machine.space.home_of(block)]
        assert home.directory.peek(block) is None
        engine = next(s.cache_engine for s in machine.fabric.switches.values())
        engine.array.insert(block, LineState.SHARED, 0)
        entries_before = sum(len(list(n.directory.entries()))
                             for n in machine.nodes)
        problems = machine.check_coherence()
        assert any("no directory entry" in p for p in problems)
        # the audit only reads: it must not create directory state
        assert home.directory.peek(block) is None
        assert sum(len(list(n.directory.entries()))
                   for n in machine.nodes) == entries_before
        assert machine.memory_version(block) == 0
        assert home.directory.peek(block) is None

    def test_memory_version_accessor(self):
        machine, _stats = run_scripted(
            {1: [("w", ("blk", 0))]}, blocks=1, home=0
        )
        block_addr = next(machine.nodes[1].hierarchy.l2.resident_blocks())[0]
        # block is still MODIFIED at node 1; the home version is the
        # pre-write one (0) until a writeback happens
        assert machine.memory_version(block_addr) == 0


class TestNetworkReports:
    """The fabric's link reports on one fixed small switch-cache run.

    The values are pinned, so a change to how links keep their grant
    state or how their grants are counted cannot move them silently.
    The run includes switch-cache hits, so fabricated replies and
    DIR_UPDATE continuations are counted too.
    """

    @pytest.fixture(scope="class")
    def fabric(self):
        machine = Machine(switch_cache_config(4))
        machine.run(GaussianElimination(n=16))
        assert machine.sim.now == 11382
        assert machine.fabric.stats.switch_hits == 28
        return machine.fabric

    def test_utilization_by_stage(self, fabric):
        assert fabric.utilization_by_stage() == {
            0: 0.10661570901423299, 1: 0.08144438587243015,
        }

    def test_hottest_links(self, fabric):
        assert fabric.hottest_links() == [
            ((0, 1), (1, 0), 95, 3.2842105263157895),
            ((0, 0), (1, 0), 96, 1.71875),
            ((0, 0), 0, 117, 0.2564102564102564),
            ((1, 0), (0, 1), 96, 0.0),
            ((1, 0), (0, 0), 95, 0.0),
        ]

    def test_injection_queue_delay(self, fabric):
        # the mean over the 272 injected worms (1052 queued cycles)
        assert fabric.injection_queue_delay() == 3.8676470588235294

    def test_switch_routing_counts(self, fabric):
        # per switch: its output links' grants, and their busy cycles
        # in flits
        routed = {
            sid: (
                sum(link.reservations for link in switch.outputs().values()),
                sum(link.busy_cycles for link in switch.outputs().values())
                // fabric.cycles_per_flit,
            )
            for sid, switch in fabric.switches.items()
        }
        assert routed == {
            (0, 0): (275, 1363), (0, 1): (216, 1064),
            (1, 0): (191, 927), (1, 1): (0, 0),
        }
