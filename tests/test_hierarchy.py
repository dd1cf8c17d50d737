"""Unit tests for the L1+L2 cache hierarchy."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.states import CODE_MODIFIED, CODE_SHARED, LineState
from repro.system.machine import Machine

from conftest import ScriptedApp, tiny_config


def make_hierarchy():
    return CacheHierarchy(l1_size=512, l2_size=2048, block_size=64)


class TestRead:
    """The arrays a load probes: L1 first, then L2 (the processor's loop)."""

    def test_miss_on_empty(self):
        h = make_hierarchy()
        assert h.l1.lookup_data(0x100) is None
        assert h.l2.lookup_data(0x100) is None
        assert h.state_code(0x100) == 0

    def test_l2_hit_refills_l1(self):
        # a processor run: blocks 0, 8 and 16 share one 2-way L1 set
        # (8 sets) but fit the 4-way L2, so the third miss pushes block 0
        # out of L1 only; re-reading it hits L2 and refills L1, and the
        # read after that hits L1
        reads = [("r", ("blk", b)) for b in (0, 8, 16, 0, 0)]
        app = ScriptedApp({1: reads}, blocks=17, home=0)
        machine = Machine(tiny_config())
        stats = machine.run(app)
        node = machine.nodes[1]
        assert node.l2ctrl.reads_issued == 3
        assert (stats.read_counts["l2"], stats.read_counts["l1"]) == (1, 1)
        assert node.hierarchy.l1.probe(app.block_addrs[0]) is not None

    def test_l1_hits_within_block(self):
        h = make_hierarchy()
        h.fill(0x100, LineState.SHARED, 3, fill_l1=True)
        assert h.l1.lookup_data(0x100 + 56) == 3

    def test_modified_line_readable(self):
        h = make_hierarchy()
        h.fill(0x100, LineState.MODIFIED, 9)
        assert h.l1.lookup_data(0x100) is None
        assert h.l2.lookup_data(0x100) == 9


class TestWrite:
    """The store probe (drain and sync RMW): an owned L2 copy takes the
    store at once; a shared copy needs an upgrade, an absent one a
    read-for-ownership."""

    def test_write_miss(self):
        h = make_hierarchy()
        assert h.l2.lookup_state(0x100) == 0

    def test_write_needs_upgrade_on_shared(self):
        h = make_hierarchy()
        h.fill(0x100, LineState.SHARED, 1)
        assert h.l2.lookup_state(0x100) == CODE_SHARED

    def test_write_hit_on_modified(self):
        h = make_hierarchy()
        h.fill(0x100, LineState.MODIFIED, 1)
        assert h.l2.lookup_state(0x100) == CODE_MODIFIED

    def test_perform_write_updates_l2_and_l1(self):
        h = make_hierarchy()
        h.fill(0x100, LineState.MODIFIED, 1, fill_l1=True)
        h.perform_write(0x100, 2)
        assert h.l1.lookup_data(0x100) == 2  # L1 hit sees new data
        assert h.l2.probe(0x100).data == 2

    def test_perform_write_without_ownership_raises(self):
        h = make_hierarchy()
        h.fill(0x100, LineState.SHARED, 1)
        with pytest.raises(KeyError):
            h.perform_write(0x100, 2)

    def test_upgrade(self):
        h = make_hierarchy()
        h.fill(0x100, LineState.SHARED, 1)
        h.upgrade(0x100)
        assert h.state_of(0x100) is LineState.MODIFIED


class TestFillVictims:
    def test_clean_victim_dropped_silently(self):
        h = CacheHierarchy(l1_size=128, l2_size=128, block_size=64, l2_assoc=1)
        h.fill(0, LineState.SHARED, 1)
        victim = h.fill(128, LineState.SHARED, 2)  # same direct-mapped set
        assert victim is None
        assert h.state_of(0) is LineState.INVALID

    def test_dirty_victim_returned(self):
        h = CacheHierarchy(l1_size=128, l2_size=128, block_size=64, l2_assoc=1)
        h.fill(0, LineState.MODIFIED, 7)
        victim = h.fill(128, LineState.SHARED, 2)
        assert victim == (0, 7)

    def test_inclusion_l1_purged_on_l2_eviction(self):
        h = CacheHierarchy(l1_size=256, l2_size=128, block_size=64, l2_assoc=1)
        h.fill(0, LineState.SHARED, 1, fill_l1=True)  # now in L1
        h.fill(128, LineState.SHARED, 2)  # evicts block 0 from L2
        assert h.l1.probe(0) is None


class TestProtocolSide:
    def test_invalidate_both_levels(self):
        h = make_hierarchy()
        h.fill(0x100, LineState.SHARED, 1, fill_l1=True)
        former = h.invalidate(0x100)
        assert former == (LineState.SHARED, 1)
        assert h.l1.probe(0x100) is None
        assert h.l2.probe(0x100) is None

    def test_invalidate_absent(self):
        h = make_hierarchy()
        assert h.invalidate(0x100) is None

    def test_downgrade_returns_data(self):
        h = make_hierarchy()
        h.fill(0x100, LineState.MODIFIED, 11)
        assert h.downgrade(0x100) == 11
        assert h.state_of(0x100) is LineState.SHARED

    def test_downgrade_without_ownership_raises(self):
        h = make_hierarchy()
        with pytest.raises(KeyError):
            h.downgrade(0x100)

    def test_state_of_absent_is_invalid(self):
        h = make_hierarchy()
        assert h.state_of(0x500) is LineState.INVALID
