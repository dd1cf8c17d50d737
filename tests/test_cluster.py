"""Tests for bus-based clusters (procs_per_node > 1).

The directory tracks nodes; the cluster bus snoops siblings before a
miss leaves the node (DASH-style hierarchical coherence [14]).
"""

import pytest

from repro.cache.states import DirState, LineState
from repro.errors import ConfigError
from repro.system.config import SystemConfig
from repro.system.machine import Machine

from conftest import ScriptedApp, assert_coherent, assert_monotonic_reads


def cluster_config(nodes=2, ppn=2, **overrides):
    defaults = dict(
        num_nodes=nodes,
        procs_per_node=ppn,
        l1_size=1024,
        l2_size=4096,
        quantum=100,
        trace_values=True,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def run_app(scripts, config, **app_kwargs):
    machine = Machine(config)
    app = ScriptedApp(scripts, **app_kwargs)
    stats = machine.run(app)
    return machine, app, stats


class TestShape:
    def test_proc_and_node_counts(self):
        machine = Machine(cluster_config(nodes=4, ppn=4))
        assert machine.num_procs == 16
        assert len(machine.nodes) == 4
        assert len(machine.nodes[0].stacks) == 4

    def test_proc_to_node_mapping(self):
        machine = Machine(cluster_config(nodes=2, ppn=4))
        assert machine.node_of_proc(0) == 0
        assert machine.node_of_proc(3) == 0
        assert machine.node_of_proc(4) == 1

    def test_global_proc_ids(self):
        machine = Machine(cluster_config(nodes=2, ppn=2))
        assert [s.proc_id for s in machine.stacks()] == [0, 1, 2, 3]

    def test_ppn_must_be_positive(self):
        with pytest.raises(ConfigError):
            SystemConfig(procs_per_node=0)


class TestSiblingService:
    def test_sibling_read_served_on_bus(self):
        # procs 0 and 1 are in node 0; block is homed remotely (node 1)
        scripts = {
            0: [("r", ("blk", 0)), ("barrier", 1)],
            1: [("barrier", 1), ("r", ("blk", 0))],
            2: [("barrier", 1)],
            3: [("barrier", 1)],
        }
        machine, app, stats = run_app(
            scripts, cluster_config(), blocks=1, home=1
        )
        assert stats.read_counts["cluster"] == 1
        assert stats.read_counts["remote_mem"] == 1  # only the first read
        assert machine.nodes[0].bus.sibling_reads == 1
        assert_coherent(machine)

    def test_sibling_service_returns_correct_version(self):
        scripts = {
            2: [("w", ("blk", 0)), ("barrier", 1), ("barrier", 2)],  # node 1
            0: [("barrier", 1), ("r", ("blk", 0)), ("barrier", 2)],
            1: [("barrier", 1), ("barrier", 2), ("r", ("blk", 0))],
            3: [("barrier", 1), ("barrier", 2)],
        }
        machine, app, stats = run_app(
            scripts, cluster_config(), blocks=1, home=1
        )
        block = app.block_addrs[0]
        for proc in (0, 1):
            stack = list(machine.stacks())[proc]
            reads = [v for _o, a, v, _t in stack.processor.value_trace
                     if a == block]
            assert reads == [1]
        assert_monotonic_reads(machine)
        assert_coherent(machine)

    def test_owned_copy_migrates_on_sibling_read(self):
        # proc 0 writes (M); proc 1 (same node) reads: the owned copy
        # must migrate so the node can still answer a recall
        scripts = {
            0: [("w", ("blk", 0)), ("barrier", 1)],
            1: [("barrier", 1), ("r", ("blk", 0))],
            2: [("barrier", 1)],
            3: [("barrier", 1)],
        }
        machine, app, stats = run_app(
            scripts, cluster_config(), blocks=1, home=1
        )
        block = app.block_addrs[0]
        stacks = machine.nodes[0].stacks
        assert stacks[0].hierarchy.state_of(block) is LineState.INVALID
        assert stacks[1].hierarchy.state_of(block) is LineState.MODIFIED
        entry = machine.nodes[1].directory.peek(block)
        assert entry.state is DirState.MODIFIED and entry.owner == 0
        assert_coherent(machine)

    def test_recall_after_intra_node_migration(self):
        scripts = {
            0: [("w", ("blk", 0)), ("barrier", 1), ("barrier", 2)],
            1: [("barrier", 1), ("r", ("blk", 0)), ("barrier", 2)],
            2: [("barrier", 1), ("barrier", 2), ("r", ("blk", 0))],
            3: [("barrier", 1), ("barrier", 2)],
        }
        machine, app, stats = run_app(
            scripts, cluster_config(), blocks=1, home=1
        )
        block = app.block_addrs[0]
        reads_2 = [v for _o, a, v, _t in
                   list(machine.stacks())[2].processor.value_trace
                   if a == block]
        assert reads_2 == [1]
        assert_coherent(machine)

    def test_write_transfer_between_siblings(self):
        scripts = {
            0: [("w", ("blk", 0)), ("barrier", 1)],
            1: [("barrier", 1), ("w", ("blk", 0))],
            2: [("barrier", 1)],
            3: [("barrier", 1)],
        }
        machine, app, stats = run_app(
            scripts, cluster_config(), blocks=1, home=1
        )
        block = app.block_addrs[0]
        assert machine.nodes[0].bus.sibling_transfers == 1
        stacks = machine.nodes[0].stacks
        assert stacks[1].hierarchy.l2.probe(block).data == 2
        # no extra directory transaction was needed for the second write
        entry = machine.nodes[1].directory.peek(block)
        assert entry.owner == 0
        assert_coherent(machine)


class TestNodeLevelInvalidation:
    def test_inv_purges_every_stack(self):
        scripts = {
            0: [("r", ("blk", 0)), ("barrier", 1), ("barrier", 2)],
            1: [("barrier", 1), ("r", ("blk", 0)), ("barrier", 2)],
            2: [("barrier", 1), ("barrier", 2), ("w", ("blk", 0))],
            3: [("barrier", 1), ("barrier", 2)],
        }
        machine, app, stats = run_app(
            scripts, cluster_config(), blocks=1, home=1
        )
        block = app.block_addrs[0]
        for stack in machine.nodes[0].stacks:
            assert stack.hierarchy.state_of(block) is LineState.INVALID
        assert machine.nodes[0].invs_received >= 1
        assert_coherent(machine)

    def test_upgrade_purges_sibling_shared_copies(self):
        scripts = {
            0: [("r", ("blk", 0)), ("barrier", 1), ("barrier", 2)],
            1: [("barrier", 1), ("r", ("blk", 0)), ("barrier", 2),
                ("w", ("blk", 0))],
            2: [("barrier", 1), ("barrier", 2)],
            3: [("barrier", 1), ("barrier", 2)],
        }
        machine, app, stats = run_app(
            scripts, cluster_config(), blocks=1, home=1
        )
        block = app.block_addrs[0]
        stacks = machine.nodes[0].stacks
        assert stacks[0].hierarchy.state_of(block) is LineState.INVALID
        assert stacks[1].hierarchy.state_of(block) is LineState.MODIFIED
        assert_coherent(machine)


class TestClusterWithExtras:
    def test_netcache_serves_cluster_capacity_misses(self):
        config = cluster_config(
            netcache_size=8192, l2_size=512, l2_assoc=1, l1_size=256
        )
        # proc 0 streams blocks (evicting constantly); proc 1 then reads
        # them: siblings have evicted, the shared NC still holds them
        scripts = {
            0: [("r", ("blk", i)) for i in range(16)] + [("barrier", 1)],
            1: [("barrier", 1)] + [("r", ("blk", i)) for i in range(16)],
            2: [("barrier", 1)],
            3: [("barrier", 1)],
        }
        machine, app, stats = run_app(scripts, config, blocks=16, home=1)
        assert stats.read_counts["netcache"] > 0
        assert_coherent(machine)

    def test_switch_caches_with_clusters(self):
        config = cluster_config(nodes=4, ppn=2, switch_cache_size=1024)
        scripts = {
            0: [("r", ("blk", 0)), ("barrier", 1)],
            # proc 4 lives in node 2: its read crosses the network
            4: [("barrier", 1), ("r", ("blk", 0))],
        }
        for p in range(8):
            scripts.setdefault(p, [("barrier", 1)])
        machine, app, stats = run_app(scripts, config, blocks=1, home=1)
        assert stats.read_counts["switch"] >= 1
        assert_coherent(machine)

    def test_paper_apps_run_on_clusters(self):
        from repro.apps import GaussianElimination

        machine = Machine(cluster_config(nodes=2, ppn=4))
        machine.run(GaussianElimination(n=16))
        assert_coherent(machine)
        assert_monotonic_reads(machine)

    def test_barriers_count_all_processors(self):
        scripts = {p: [("barrier", 1), ("work", 10)] for p in range(8)}
        machine, _app, stats = run_app(
            scripts, cluster_config(nodes=2, ppn=4), blocks=1
        )
        assert len(stats.finish_times) == 8


class TestBusSerialization:
    def test_synchronous_resubmit_queues_behind_promoted_op(self):
        """Regression: a completion callback that immediately submits a
        new op to the same block (read completes -> processor resumes ->
        write-buffer drain issues a write) must queue behind the op
        promoted from the block's FIFO, not race it.  The old ordering
        let the resubmission slip into the vacated active slot and be
        clobbered by the promotion, crashing on the write's completion.
        """
        config = cluster_config(nodes=2, ppn=2, switch_cache_size=512)
        scripts = {
            2: [("r", ("blk", 0)), ("w", ("blk", 0))],
            3: [("r", ("blk", 0))],
        }
        machine, _app, stats = run_app(scripts, config, blocks=6, home=0)
        assert_coherent(machine)
        assert_monotonic_reads(machine)
        assert stats.writes_completed + stats.upgrades_completed == 1
