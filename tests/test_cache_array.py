"""Unit and property tests for the set-associative cache array."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.array import CacheArray
from repro.cache.states import LineState
from repro.errors import ConfigError
from repro.system.machine import Machine
from repro.system.presets import caesar_plus_config, switch_cache_config


def slots(array):
    """Slots the array holds; its four parallel lists stay in step."""
    columns = (array._tags, array._states, array._data, array._lrus)
    assert len({len(column) for column in columns}) == 1
    return len(array._tags)


class TestGeometry:
    def test_basic_shape(self):
        array = CacheArray(2048, 64, 2)
        assert array.num_sets == 16
        assert array.assoc == 2

    def test_direct_mapped(self):
        array = CacheArray(1024, 64, 1)
        assert array.num_sets == 16

    @pytest.mark.parametrize("size", [0, -64, 100])
    def test_bad_size_rejected(self, size):
        with pytest.raises(ConfigError):
            CacheArray(size, 64, 2)

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ConfigError):
            CacheArray(2048, 48, 2)

    def test_zero_assoc_rejected(self):
        with pytest.raises(ConfigError):
            CacheArray(2048, 64, 0)

    def test_non_power_of_two_sets_rejected(self):
        # 3 sets: 3 * 64 * 1 = 192 bytes
        with pytest.raises(ConfigError):
            CacheArray(192, 64, 1)


class TestLookupInsert:
    def test_miss_on_empty(self):
        array = CacheArray(1024, 64, 2)
        assert array.lookup(0) is None
        assert array.misses == 1

    def test_insert_then_hit(self):
        array = CacheArray(1024, 64, 2)
        array.insert(0x100, LineState.SHARED, 7)
        line = array.lookup(0x100)
        assert line is not None
        assert line.data == 7
        assert line.state is LineState.SHARED

    def test_whole_block_hits(self):
        array = CacheArray(1024, 64, 2)
        array.insert(0x100, LineState.SHARED, 1)
        assert array.lookup(0x100 + 63) is not None
        assert array.lookup(0x100 + 64) is None

    def test_insert_same_block_updates_in_place(self):
        array = CacheArray(1024, 64, 2)
        array.insert(0x40, LineState.SHARED, 1)
        victim = array.insert(0x40, LineState.MODIFIED, 2)
        assert victim is None
        line = array.probe(0x40)
        assert line.state is LineState.MODIFIED
        assert line.data == 2
        assert array.occupancy() == 1

    def test_probe_does_not_touch_stats_or_lru(self):
        array = CacheArray(1024, 64, 2)
        array.insert(0x40, LineState.SHARED, 1)
        array.probe(0x40)
        array.probe(0x999999)
        assert array.hits == 0
        assert array.misses == 0


class TestEvictionLru:
    def _fill_one_set(self, array):
        """Insert assoc blocks that all map to set 0."""
        stride = array.num_sets * array.block_size
        addrs = [i * stride for i in range(array.assoc)]
        for i, addr in enumerate(addrs):
            array.insert(addr, LineState.SHARED, i)
        return addrs, stride

    def test_eviction_of_lru_line(self):
        array = CacheArray(512, 64, 2)  # 4 sets
        addrs, stride = self._fill_one_set(array)
        array.lookup(addrs[0])  # make addrs[0] MRU
        victim = array.insert(array.assoc * stride, LineState.SHARED, 99)
        assert victim is not None
        victim_addr, victim_state, victim_data = victim
        assert victim_addr == addrs[1]
        assert victim_data == 1

    def test_eviction_returns_state_and_data(self):
        array = CacheArray(512, 64, 2)
        addrs, stride = self._fill_one_set(array)
        array.insert(addrs[0], LineState.MODIFIED, 42)
        array.lookup(addrs[1])
        victim = array.insert(99 * stride, LineState.SHARED, 0)
        assert victim == (addrs[0], LineState.MODIFIED, 42)

    def test_no_cross_set_eviction(self):
        array = CacheArray(512, 64, 2)
        array.insert(0 * 64, LineState.SHARED, 0)  # set 0
        array.insert(1 * 64, LineState.SHARED, 1)  # set 1
        array.insert(2 * 64, LineState.SHARED, 2)  # set 2
        assert array.occupancy() == 3
        assert array.evictions == 0

    def test_eviction_counter(self):
        array = CacheArray(128, 64, 1)  # 2 sets, direct mapped
        array.insert(0, LineState.SHARED, 0)
        array.insert(128, LineState.SHARED, 1)  # same set 0
        assert array.evictions == 1


class TestInvalidate:
    def test_invalidate_present(self):
        array = CacheArray(1024, 64, 2)
        array.insert(0x80, LineState.MODIFIED, 5)
        assert array.invalidate(0x80) == (LineState.MODIFIED, 5)
        assert array.probe(0x80) is None
        assert array.invalidations == 1

    def test_invalidate_absent_returns_none(self):
        array = CacheArray(1024, 64, 2)
        assert array.invalidate(0x80) is None
        assert array.invalidations == 0

    def test_set_state(self):
        array = CacheArray(1024, 64, 2)
        array.insert(0x80, LineState.MODIFIED, 5)
        array.set_state(0x80, LineState.SHARED)
        assert array.probe(0x80).state is LineState.SHARED

    def test_set_state_missing_raises(self):
        array = CacheArray(1024, 64, 2)
        with pytest.raises(KeyError):
            array.set_state(0x80, LineState.SHARED)

    def test_clear(self):
        array = CacheArray(1024, 64, 2)
        for i in range(4):
            array.insert(i * 64, LineState.SHARED, i)
        array.clear()
        assert array.occupancy() == 0


class TestSetsOpenOnFirstFill:
    """A set's ways are allocated at its first fill, not at construction."""

    def test_fresh_array_holds_no_slots(self):
        array = CacheArray(128 * 1024, 64, 4)
        assert slots(array) == 0
        assert array._base == [-1] * array.num_sets

    @pytest.mark.parametrize("make_config",
                             (switch_cache_config, caesar_plus_config))
    def test_fresh_machine_arrays_hold_no_slots(self, make_config):
        machine = Machine(make_config(16))
        arrays = [array for stack in machine.stacks()
                  for array in (stack.hierarchy.l1, stack.hierarchy.l2)]
        arrays += [node.netcache.array for node in machine.nodes
                   if node.netcache is not None]
        arrays += [engine.array for engine in machine.fabric.cache_engines]
        assert len(arrays) > 2 * 16
        assert [slots(array) for array in arrays] == [0] * len(arrays)

    def test_first_fill_opens_one_set(self):
        array = CacheArray(1024, 64, 4)  # 4 sets
        stride = array.num_sets * 64
        array.insert(0, LineState.SHARED, 0)
        assert slots(array) == 4
        for way in range(1, 6):  # fill set 0, then evict from it
            array.insert(way * stride, LineState.SHARED, way)
        assert slots(array) == 4 and array.evictions == 2
        array.insert(64, LineState.SHARED, 9)  # set 1's first fill
        assert slots(array) == 8

    def test_resident_blocks_stay_set_major(self):
        array = CacheArray(512, 64, 2)  # 4 sets of 2 ways

        def addr(tag, set_idx):
            return (tag * array.num_sets + set_idx) * 64

        # sets open in the order 2, 0, 3, so storage order is not set order
        for tag, set_idx in ((1, 2), (0, 0), (3, 2), (2, 3), (5, 0)):
            array.insert(addr(tag, set_idx), LineState.SHARED, tag)
        array.invalidate(addr(1, 2))  # set 2's last way fills the hole
        array.insert(addr(7, 2), LineState.SHARED, 7)
        assert slots(array) == 6
        assert [a for a, _line in array.resident_blocks()] == [
            addr(0, 0), addr(5, 0), addr(3, 2), addr(7, 2), addr(2, 3),
        ]

    def test_clear_returns_to_no_slots(self):
        array = CacheArray(1024, 64, 2)
        for i in range(8):
            array.insert(i * 64, LineState.SHARED, i)
        assert slots(array) == 16
        array.clear()
        assert slots(array) == 0
        assert array._base == [-1] * array.num_sets
        assert list(array.resident_blocks()) == []
        array.insert(3 * 64, LineState.SHARED, 5)
        assert slots(array) == 2
        assert array.probe_data(3 * 64) == 5


class TestIntrospection:
    def test_resident_blocks_roundtrip(self):
        array = CacheArray(1024, 64, 2)
        inserted = {i * 64: i for i in range(5)}
        for addr, data in inserted.items():
            array.insert(addr, LineState.SHARED, data)
        resident = {addr: line.data for addr, line in array.resident_blocks()}
        assert resident == inserted

    def test_hit_rate(self):
        array = CacheArray(1024, 64, 2)
        array.insert(0, LineState.SHARED, 0)
        array.lookup(0)
        array.lookup(64)
        assert array.hit_rate() == 0.5

    def test_hit_rate_empty(self):
        assert CacheArray(1024, 64, 2).hit_rate() == 0.0


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "lookup", "invalidate"]),
            st.integers(min_value=0, max_value=63),
        ),
        max_size=200,
    )
)
def test_property_occupancy_never_exceeds_capacity(ops):
    """Occupancy <= sets*assoc and a model dict agrees on membership."""
    array = CacheArray(512, 64, 2)  # 4 sets x 2 ways
    capacity = array.num_sets * array.assoc
    for op, block in ops:
        addr = block * 64
        if op == "insert":
            array.insert(addr, LineState.SHARED, block)
        elif op == "lookup":
            array.lookup(addr)
        else:
            array.invalidate(addr)
        assert array.occupancy() <= capacity
        # per-set occupancy bound
        for s in range(array.num_sets):
            assert array.set_len(s) <= array.assoc


@settings(max_examples=50, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=100)
)
def test_property_most_recent_insert_always_resident(blocks):
    """The block inserted last is always still resident (LRU never evicts MRU)."""
    array = CacheArray(512, 64, 2)
    for block in blocks:
        array.insert(block * 64, LineState.SHARED, block)
        assert array.probe(block * 64) is not None


@settings(max_examples=30, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=64),
)
def test_property_data_integrity(blocks):
    """A resident block's payload is the last value inserted for it."""
    array = CacheArray(2048, 64, 4)
    last = {}
    for i, block in enumerate(blocks):
        array.insert(block * 64, LineState.SHARED, i)
        last[block] = i
    for addr, line in array.resident_blocks():
        assert line.data == last[addr // 64]


class TestReplacementPolicies:
    def _fill_set(self, array):
        stride = array.num_sets * array.block_size
        addrs = [i * stride for i in range(array.assoc)]
        for i, addr in enumerate(addrs):
            array.insert(addr, LineState.SHARED, i)
        return addrs, stride

    def test_fifo_ignores_hits(self):
        array = CacheArray(512, 64, 2, replacement="fifo")
        addrs, stride = self._fill_set(array)
        array.lookup(addrs[0])  # would refresh under LRU; FIFO ignores it
        victim = array.insert(99 * stride, LineState.SHARED, 0)
        assert victim[0] == addrs[0]  # oldest insertion evicted anyway

    def test_lru_respects_hits(self):
        array = CacheArray(512, 64, 2, replacement="lru")
        addrs, stride = self._fill_set(array)
        array.lookup(addrs[0])
        victim = array.insert(99 * stride, LineState.SHARED, 0)
        assert victim[0] == addrs[1]

    def test_random_is_deterministic_per_seed(self):
        def victims(seed):
            array = CacheArray(512, 64, 1, replacement="random", seed=seed)
            out = []
            for i in range(8):
                victim = array.insert(i * 4 * 64, LineState.SHARED, i)
                out.append(victim)
            return out

        assert victims(1) == victims(1)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            CacheArray(512, 64, 2, replacement="plru")

    def test_machine_accepts_replacement_config(self):
        from repro.system.config import SystemConfig

        cfg = SystemConfig(
            num_nodes=4, switch_cache_size=512,
            switch_cache_replacement="fifo",
        )
        from repro.system.machine import Machine

        machine = Machine(cfg)
        engine = next(iter(machine.fabric.switches.values())).cache_engine
        assert engine.array.replacement == "fifo"

    def test_bad_replacement_config_rejected(self):
        from repro.errors import ConfigError as CE
        from repro.system.config import SystemConfig

        with pytest.raises(CE):
            SystemConfig(switch_cache_replacement="mru")
