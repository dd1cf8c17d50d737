"""End-to-end directory-protocol tests driven by scripted workloads.

Each test builds a small machine, runs an exact per-processor access
script, lets the system quiesce, and checks directory state, cached
copies, version values, and the whole-machine coherence audit.
"""

import pytest

from repro.cache.states import DirState, LineState

from conftest import (
    ScriptedApp,
    assert_coherent,
    assert_monotonic_reads,
    run_scripted,
    tiny_config,
)


class TestReads:
    def test_remote_read_served_at_remote_memory(self):
        machine, stats = run_scripted({1: [("r", ("blk", 0))]}, blocks=1, home=0)
        assert stats.read_counts["remote_mem"] == 1
        entry = machine.nodes[0].directory.entry(0)
        app_block = machine.nodes[1].processor.value_trace[0][1]
        entry = machine.nodes[0].directory.peek(app_block)
        assert entry.state is DirState.SHARED
        assert entry.sharers == {1}
        assert_coherent(machine)

    def test_reread_hits_l1(self):
        _machine, stats = run_scripted(
            {1: [("r", ("blk", 0)), ("r", ("blk", 0))]}, blocks=1, home=0
        )
        assert stats.read_counts["remote_mem"] == 1
        assert stats.read_counts["l1"] == 1

    def test_local_read_never_enters_network(self):
        machine, stats = run_scripted({0: [("r", ("blk", 0))]}, blocks=1, home=0)
        assert stats.read_counts["local_mem"] == 1
        assert machine.fabric.stats.msgs_injected == 0

    def test_read_returns_initial_version_zero(self):
        machine, _stats = run_scripted({1: [("r", ("blk", 0))]}, blocks=1, home=0)
        trace = machine.nodes[1].processor.value_trace
        assert trace[0][2] == 0

    def test_two_readers_both_registered(self):
        app = ScriptedApp(
            {1: [("r", ("blk", 0))], 2: [("r", ("blk", 0))]}, blocks=1, home=0
        )
        from repro.system.machine import Machine

        machine = Machine(tiny_config())
        machine.run(app)
        entry = machine.nodes[0].directory.peek(app.block_addrs[0])
        assert entry.sharers == {1, 2}
        assert_coherent(machine)


class TestWrites:
    def test_write_miss_takes_ownership(self):
        app = ScriptedApp({1: [("w", ("blk", 0))]}, blocks=1, home=0)
        from repro.system.machine import Machine

        machine = Machine(tiny_config())
        machine.run(app)
        block = app.block_addrs[0]
        entry = machine.nodes[0].directory.peek(block)
        assert entry.state is DirState.MODIFIED
        assert entry.owner == 1
        line = machine.nodes[1].hierarchy.l2.probe(block)
        assert line.state is LineState.MODIFIED
        assert line.data == 1  # version bumped by the store
        assert_coherent(machine)

    def test_read_then_write_uses_upgrade(self):
        app = ScriptedApp(
            {1: [("r", ("blk", 0)), ("w", ("blk", 0))]}, blocks=1, home=0
        )
        from repro.system.machine import Machine

        machine = Machine(tiny_config())
        machine.run(app)
        assert machine.nodes[1].l2ctrl.upgrades_issued == 1
        assert machine.nodes[1].l2ctrl.writes_issued == 0
        assert_coherent(machine)

    def test_write_then_remote_read_recalls_owner(self):
        app = ScriptedApp(
            {
                1: [("w", ("blk", 0)), ("barrier", 1)],
                0: [("barrier", 1)],
                2: [("barrier", 1), ("r", ("blk", 0))],
                3: [("barrier", 1)],
            },
            blocks=1,
            home=0,
        )
        from repro.system.machine import Machine

        machine = Machine(tiny_config())
        stats = machine.run(app)
        block = app.block_addrs[0]
        # the reader observed the written version
        reads = [v for op, a, v, _t in machine.nodes[2].processor.value_trace
                 if a == block]
        assert reads == [1]
        # directory is SHARED with writer and reader; memory updated
        entry = machine.nodes[0].directory.peek(block)
        assert entry.state is DirState.SHARED
        assert entry.sharers == {1, 2}
        assert entry.version == 1
        assert stats.read_counts["owner"] == 1
        assert machine.nodes[0].home_ctrl.reads_recalled == 1
        assert_coherent(machine)

    def test_writer_invalidates_reader(self):
        app = ScriptedApp(
            {
                1: [("r", ("blk", 0)), ("barrier", 1), ("barrier", 2),
                    ("r", ("blk", 0))],
                2: [("barrier", 1), ("w", ("blk", 0)), ("barrier", 2)],
                0: [("barrier", 1), ("barrier", 2)],
                3: [("barrier", 1), ("barrier", 2)],
            },
            blocks=1,
            home=0,
        )
        from repro.system.machine import Machine

        machine = Machine(tiny_config())
        machine.run(app)
        block = app.block_addrs[0]
        reads = [v for op, a, v, _t in machine.nodes[1].processor.value_trace
                 if a == block]
        assert reads == [0, 1]  # saw the new version after the barrier
        assert machine.nodes[1].l2ctrl.invs_received >= 1
        assert_monotonic_reads(machine)
        assert_coherent(machine)

    def test_concurrent_writers_serialize(self):
        app = ScriptedApp(
            {p: [("w", ("blk", 0))] for p in range(4)}, blocks=1, home=0
        )
        from repro.system.machine import Machine

        machine = Machine(tiny_config())
        machine.run(app)
        block = app.block_addrs[0]
        # four stores, four version bumps, exactly one final owner
        owners = [
            n.node_id
            for n in machine.nodes
            if n.hierarchy.state_of(block) is LineState.MODIFIED
        ]
        assert len(owners) == 1
        line = machine.nodes[owners[0]].hierarchy.l2.probe(block)
        assert line.data == 4
        assert_coherent(machine)

    def test_dirty_eviction_writes_back(self):
        # L2 with 4 direct-ish sets: writing many conflicting blocks forces
        # dirty evictions and standalone writebacks
        config = tiny_config(l2_size=1024, l2_assoc=1, l1_size=512)
        scripts = {1: [("w", ("blk", i)) for i in range(32)]}
        machine, _stats = run_scripted(scripts, config=config, blocks=32, home=0)
        assert machine.nodes[1].l2ctrl.writebacks_sent > 0
        assert machine.nodes[0].home_ctrl.writebacks > 0
        assert_coherent(machine)

    def test_write_after_eviction_reclaims_ownership(self):
        config = tiny_config(l2_size=1024, l2_assoc=1, l1_size=512)
        scripts = {1: [("w", ("blk", i)) for i in range(32)]
                   + [("w", ("blk", 0))]}
        machine, _stats = run_scripted(scripts, config=config, blocks=32, home=0)
        assert_coherent(machine)


class TestUpgradeRaces:
    def test_racing_upgrades_escalate(self):
        # both processors read (S everywhere) then write with no barrier:
        # the loser's upgrade must be escalated to a full data reply
        app = ScriptedApp(
            {
                1: [("r", ("blk", 0)), ("barrier", 1), ("w", ("blk", 0))],
                2: [("r", ("blk", 0)), ("barrier", 1), ("w", ("blk", 0))],
                0: [("barrier", 1)],
                3: [("barrier", 1)],
            },
            blocks=1,
            home=0,
        )
        from repro.system.machine import Machine

        machine = Machine(tiny_config())
        machine.run(app)
        block = app.block_addrs[0]
        # both stores landed: final version is 2
        owner = [n for n in machine.nodes
                 if n.hierarchy.state_of(block) is LineState.MODIFIED]
        assert len(owner) == 1
        assert owner[0].hierarchy.l2.probe(block).data == 2
        assert_coherent(machine)

    def test_ping_pong_ownership(self):
        app = ScriptedApp(
            {
                1: [("w", ("blk", 0)), ("barrier", 1), ("barrier", 2),
                    ("w", ("blk", 0))],
                2: [("barrier", 1), ("w", ("blk", 0)), ("barrier", 2)],
                0: [("barrier", 1), ("barrier", 2)],
                3: [("barrier", 1), ("barrier", 2)],
            },
            blocks=1,
            home=0,
        )
        from repro.system.machine import Machine

        machine = Machine(tiny_config())
        machine.run(app)
        block = app.block_addrs[0]
        entry = machine.nodes[0].directory.peek(block)
        assert entry.state is DirState.MODIFIED
        assert entry.owner == 1
        assert machine.nodes[1].hierarchy.l2.probe(block).data == 3
        assert_coherent(machine)


class TestWriteBufferSemantics:
    def test_read_forwarded_from_write_buffer(self):
        _machine, stats = run_scripted(
            {1: [("w", ("blk", 0)), ("r", ("blk", 0))]}, blocks=1, home=0
        )
        assert stats.read_counts["wb"] == 1

    def test_full_write_buffer_stalls(self):
        config = tiny_config(write_buffer_entries=2)
        scripts = {1: [("w", ("blk", i)) for i in range(16)]}
        machine, _stats = run_scripted(scripts, config=config, blocks=16, home=0)
        assert machine.nodes[1].write_buffer.full_stalls > 0
        assert machine.nodes[1].processor.wb_stall_cycles > 0
        assert_coherent(machine)

    def test_barrier_drains_write_buffer(self):
        app = ScriptedApp(
            {
                1: [("w", ("blk", 0)), ("barrier", 1)],
                2: [("barrier", 1), ("r", ("blk", 0))],
                0: [("barrier", 1)],
                3: [("barrier", 1)],
            },
            blocks=1,
            home=0,
        )
        from repro.system.machine import Machine

        machine = Machine(tiny_config())
        machine.run(app)
        block = app.block_addrs[0]
        reads = [v for _op, a, v, _t in machine.nodes[2].processor.value_trace
                 if a == block]
        assert reads == [1]  # release semantics: write visible after barrier


class TestMessageAccounting:
    @pytest.mark.parametrize("network_model", ("message", "flit"))
    @pytest.mark.parametrize("switch_cache_size", (0, 1024),
                             ids=("base", "switch_cache"))
    def test_no_stray_messages_after_quiesce(self, switch_cache_size,
                                             network_model):
        # proc 3's read of block 0 passes the switch that proc 1's reply
        # filled: with switch caches it is the run's one switch hit
        machine, _stats = run_scripted(
            {
                1: [("r", ("blk", 0)), ("barrier", 1), ("w", ("blk", 1))],
                3: [("barrier", 1), ("r", ("blk", 0)), ("w", ("blk", 0))],
                0: [("r", ("blk", 1)), ("barrier", 1)],
                2: [("barrier", 1), ("r", ("blk", 1)), ("r", ("blk", 0))],
            },
            tiny_config(switch_cache_size=switch_cache_size,
                        network_model=network_model),
            blocks=2,
            home=0,
        )
        stats = machine.fabric.stats
        assert machine.sim.pending == 0
        assert stats.switch_hits == (1 if switch_cache_size else 0)
        # a hit adds two deliveries (the switch's reply and the
        # DIR_UPDATE its READ became) for the one NI injection it consumed
        assert stats.msgs_delivered == stats.msgs_injected + stats.switch_hits

    def test_outstanding_mshrs_empty_at_end(self):
        machine, _stats = run_scripted(
            {p: [("r", ("blk", 0))] for p in range(4)}, blocks=1, home=0
        )
        for node in machine.nodes:
            assert node.l2ctrl.outstanding == 0
