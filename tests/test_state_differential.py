"""Differential tests: integer-coded hot state vs the object models.

The simulator's hot state is coded (DESIGN.md §10): directory sharer sets
are int bitmasks, cache sets are struct-of-arrays int lists, and message
kinds have table-driven predicates.  The original object models live on
as test oracles in ``reference_models.py``, and these tests hold the two
halves together:

* lockstep fuzzers drive a coded and an object instance through one
  seeded op-script, comparing every observable after every op;
* a golden test pins the seeded random-replacement victim to the *old*
  algorithm (``rng.choice(sorted(tags))``) computed independently;
* full machines run every paper app at quick scale and must reproduce
  frozen fingerprints — cycle count, event count, read classes and the
  message-id stream — recorded while the object models still ran
  machine-wide and agreed with the coded kernels on every one.
"""

import random

import pytest

from reference_models import CacheArrayObj, DirectoryObj
from repro.cache.array import CacheArray
from repro.cache.states import (
    CODE_INVALID,
    CODE_MODIFIED,
    CODE_SHARED,
    LINE_STATE_BY_CODE,
    LineState,
)
from repro.coherence.directory import Directory
from repro.errors import ProtocolError
from repro.network.message import (
    CARRIES_DATA,
    Message,
    MessagePool,
    MsgKind,
)

#: the coded kernel and its object-model oracle
STATE_MODELS = (CacheArray, CacheArrayObj)


def test_line_state_codes_round_trip():
    assert (CODE_INVALID, CODE_SHARED, CODE_MODIFIED) == (0, 1, 2)
    for state in LineState:
        assert LINE_STATE_BY_CODE[state.code] is state
        assert state.owned() == (state.code == CODE_MODIFIED)


# ----------------------------------------------------------------------
# cache-array lockstep fuzz
# ----------------------------------------------------------------------
def _array_pair(replacement):
    kwargs = dict(size=512, block_size=32, assoc=2, replacement=replacement)
    return CacheArray(**kwargs), CacheArrayObj(**kwargs)


def _array_observables(arr):
    resident = sorted(
        (addr, line.tag, line.state, line.data)
        for addr, line in arr.resident_blocks()
    )
    return (
        arr.hits, arr.misses, arr.evictions, arr.invalidations,
        arr.occupancy(),
        tuple(arr.set_len(s) for s in range(arr.num_sets)),
        tuple(resident),
    )


def _lockstep_arrays(seed, replacement, ops=600):
    """One seeded op-script through both models, compared every step."""
    rng = random.Random(seed)
    # a small address pool over few sets forces conflicts and evictions
    addrs = [b * 32 for b in range(64)]
    states = (LineState.SHARED, LineState.MODIFIED, LineState.INVALID)
    coded, obj = _array_pair(replacement)
    for op_idx in range(ops):
        roll = rng.random()
        addr = rng.choice(addrs)
        if roll < 0.35:
            state = rng.choice(states)
            data = rng.randrange(1 << 16)
            assert coded.insert(addr, state, data) == obj.insert(
                addr, state, data
            ), (op_idx, "insert", addr)
        elif roll < 0.50:
            a, b = coded.lookup(addr), obj.lookup(addr)
            assert (a is None) == (b is None), (op_idx, "lookup", addr)
            if a is not None:
                assert (a.tag, a.state, a.data) == (b.tag, b.state, b.data)
        elif roll < 0.58:
            a, b = coded.probe(addr), obj.probe(addr)
            assert (a is None) == (b is None), (op_idx, "probe", addr)
            if a is not None:
                assert (a.state, a.data) == (b.state, b.data)
        elif roll < 0.64:
            assert coded.probe_data(addr) == obj.probe_data(addr)
            assert coded.probe_state(addr) == obj.probe_state(addr)
        elif roll < 0.70:
            assert coded.lookup_data(addr) == obj.lookup_data(addr)
            assert coded.lookup_state(addr) == obj.lookup_state(addr)
        elif roll < 0.76:
            data = rng.randrange(1 << 16)
            assert coded.write_owned(addr, data) == obj.write_owned(addr, data)
        elif roll < 0.80:
            data = rng.randrange(1 << 16)
            assert coded.set_data(addr, data) == obj.set_data(addr, data)
        elif roll < 0.84:
            assert coded.downgrade_owned(addr) == obj.downgrade_owned(addr)
        elif roll < 0.90:
            assert coded.invalidate(addr) == obj.invalidate(addr)
        elif roll < 0.96:
            state = rng.choice(states)
            outcomes = []
            for arr in (coded, obj):
                try:
                    arr.set_state(addr, state)
                    outcomes.append("ok")
                except KeyError:
                    outcomes.append("keyerror")
            assert outcomes[0] == outcomes[1], (op_idx, "set_state", addr)
        else:
            coded.clear()
            obj.clear()
            assert coded._tags == [] and set(coded._base) == {-1}, op_idx
        assert _array_observables(coded) == _array_observables(obj), (
            op_idx, "observables",
        )


@pytest.mark.parametrize("replacement", CacheArray.REPLACEMENT_POLICIES)
@pytest.mark.parametrize("seed", range(4))
def test_array_lockstep_fuzz(seed, replacement):
    _lockstep_arrays(seed, replacement)


def test_array_lockstep_fuzz_long():
    _lockstep_arrays(seed=1234, replacement="random", ops=3000)


def test_random_victim_matches_legacy_choice():
    """The coded random victim must equal ``rng.choice(sorted(tags))``.

    The object model used to re-sort the set per eviction and draw with
    ``random.Random.choice``; the coded model keeps its set unsorted and
    maps the same draw through a tag-sorted view of the set.  Both are
    pinned here against the old algorithm computed independently with a
    twin RNG.
    """
    for model in STATE_MODELS:
        arr = model(256, 32, 4, replacement="random")  # 2 sets, 4 ways
        twin = random.Random(0xCAE5A)  # same default seed as the array
        resident = []
        for tag in (7, 3, 11, 5):  # insertion order deliberately unsorted
            addr = (tag * arr.num_sets) * 32  # all land in set 0
            arr.insert(addr, LineState.SHARED, tag)
            resident.append(tag)
        victim = arr.insert((13 * arr.num_sets) * 32, LineState.SHARED, 13)
        expected_tag = twin.choice(sorted(resident))
        assert victim is not None, model
        assert victim[0] == (expected_tag * arr.num_sets) * 32, model


def test_invalid_state_lines_occupy_slots():
    """INVALID-state lines stay resident-but-unreadable in both models."""
    for model in STATE_MODELS:
        arr = model(256, 32, 4)
        arr.insert(0, LineState.INVALID, 1)
        assert arr.probe(0) is None, model
        assert arr.occupancy() == 1, model  # the slot is held
        assert arr.invalidate(0) is None, model  # nothing valid to purge
        assert arr.occupancy() == 1, model
        arr.insert(0, LineState.SHARED, 2)  # in-place revalidation
        assert arr.occupancy() == 1 and arr.evictions == 0, model
        assert arr.probe(0).data == 2, model


# ----------------------------------------------------------------------
# directory lockstep fuzz
# ----------------------------------------------------------------------
def _entry_observables(d):
    out = []
    for addr, entry in sorted(d.entries()):
        out.append((
            addr, entry.state, entry.owner, entry.version,
            entry.num_sharers(), tuple(entry.sorted_sharers()),
            set(entry.sharers),
        ))
    return out


def _lockstep_directories(seed, ops=500, nodes=16):
    rng = random.Random(seed)
    mask_dir = Directory(0, 64)
    set_dir = DirectoryObj(0, 64)
    blocks = [b * 64 for b in range(8)]
    for op_idx in range(ops):
        roll = rng.random()
        block = rng.choice(blocks)
        node = rng.randrange(nodes)
        pair = (mask_dir, set_dir)
        if roll < 0.40:
            outcomes = []
            for d in pair:
                try:
                    d.add_sharer(block, node)
                    outcomes.append("ok")
                except ProtocolError:
                    outcomes.append("protoerr")
            assert outcomes[0] == outcomes[1], (op_idx, "add_sharer")
        elif roll < 0.55:
            version = rng.randrange(1 << 12)
            for d in pair:
                d.set_owner(block, node, version=version)
        elif roll < 0.70:
            version = rng.randrange(4)
            outcomes = []
            for d in pair:
                try:
                    d.writeback(block, node, version=version)
                    outcomes.append("ok")
                except ProtocolError:
                    outcomes.append("protoerr")
            assert outcomes[0] == outcomes[1], (op_idx, "writeback")
        elif roll < 0.85:
            assert mask_dir.clear_sharers(block) == set_dir.clear_sharers(
                block
            ), (op_idx, "clear_sharers")
        else:
            e_m, e_s = mask_dir.entry(block), set_dir.entry(block)
            assert e_m.has_sharer(node) == e_s.has_sharer(node)
            assert mask_dir.version_of(block) == set_dir.version_of(block)
            assert (mask_dir.peek(block) is None) == (
                set_dir.peek(block) is None
            )
        assert _entry_observables(mask_dir) == _entry_observables(set_dir), (
            op_idx, "observables",
        )


@pytest.mark.parametrize("seed", range(6))
def test_directory_lockstep_fuzz(seed):
    _lockstep_directories(seed)


def test_sorted_sharers_is_ascending():
    d = Directory(0, 64)
    for node in (9, 2, 14, 0, 5):
        d.add_sharer(0x40, node)
    assert d.entry(0x40).sorted_sharers() == [0, 2, 5, 9, 14]
    assert d.entry(0x40).sharers == {0, 2, 5, 9, 14}


# ----------------------------------------------------------------------
# message kinds and the worm pool
# ----------------------------------------------------------------------
def test_kind_tables_match_properties():
    data_kinds = {k for k in MsgKind if CARRIES_DATA[k.code]}
    assert data_kinds == {
        MsgKind.DATA_S, MsgKind.DATA_X, MsgKind.RECALL_REPLY,
        MsgKind.WRITEBACK,
    }
    assert [k.code for k in MsgKind] == list(range(len(MsgKind)))


def test_pool_id_streams_are_independent():
    a, b = MessagePool(64), MessagePool(64)
    ids_a = [a.make(MsgKind.READ, 0, 1, 0x40).id for _ in range(3)]
    ids_b = [b.make(MsgKind.READ, 0, 1, 0x40).id for _ in range(3)]
    assert ids_a == [0, 1, 2]
    assert ids_b == [0, 1, 2]  # a second machine replays the same stream


def test_pool_default_flits_by_kind():
    pool = MessagePool(block_size=64)
    assert pool.make(MsgKind.READ, 0, 1, 0x40).flits == 1
    assert pool.make(MsgKind.DATA_S, 1, 0, 0x40, data=7).flits == 1 + 64 // 8
    # RECALL_REPLY is a data kind even when it carries no data
    no_data = pool.make(MsgKind.RECALL_REPLY, 1, 0, 0x40)
    assert no_data.flits == 1 + 64 // 8
    assert pool.make(MsgKind.DATA_S, 1, 0, 0x40, flits=3).flits == 3


def test_bare_message_uses_global_fallback_ids():
    first = Message(MsgKind.READ, 0, 1, 0x40, flits=1)
    second = Message(MsgKind.READ, 0, 1, 0x40, flits=1)
    assert second.id == first.id + 1
    assert Message(MsgKind.READ, 0, 1, 0x40, flits=1, msg_id=77).id == 77


# ----------------------------------------------------------------------
# whole-machine golden fingerprints (every paper app, quick scale)
# ----------------------------------------------------------------------
#: (exec_time, sim.now, events_fired, read_counts, per_node_reads,
#: msgs_delivered, message ids issued) of one quick-scale run on
#: ``switch_cache_config(4)``.  Recorded when the coded and object state
#: models both still ran machine-wide and agreed on every field.
QUICK_GOLDENS = {
    "FWA": (32153, 32153, 7639,
            {"cluster": 0, "l1": 15168, "l2": 0, "local_mem": 72,
             "netcache": 0, "owner": 69, "remote_mem": 33, "switch": 114,
             "wb": 11592},
            (6762, 6762, 6762, 6762), 1108, 2030),
    "GS": (16396, 16396, 2923,
           {"cluster": 0, "l1": 5714, "l2": 0, "local_mem": 48,
            "netcache": 0, "owner": 45, "remote_mem": 14, "switch": 67,
            "wb": 256},
           (1248, 1440, 1632, 1824), 430, 868),
    "GE": (21891, 21891, 4151,
           {"cluster": 0, "l1": 5380, "l2": 0, "local_mem": 72,
            "netcache": 0, "owner": 47, "remote_mem": 24, "switch": 67,
            "wb": 4185},
           (2204, 2372, 2528, 2671), 528, 1138),
    "MM": (24702, 24702, 3279,
           {"cluster": 0, "l1": 27288, "l2": 0, "local_mem": 144,
            "netcache": 0, "owner": 0, "remote_mem": 146, "switch": 70,
            "wb": 0},
           (6912, 6912, 6912, 6912), 432, 864),
    "SOR": (11279, 11279, 3853,
            {"cluster": 0, "l1": 3625, "l2": 0, "local_mem": 128,
             "netcache": 0, "owner": 84, "remote_mem": 12, "switch": 0,
             "wb": 3351},
            (1680, 1920, 1920, 1680), 400, 1608),
    "FFT": (155374, 155374, 53431,
            {"cluster": 0, "l1": 6272, "l2": 11648, "local_mem": 256,
             "netcache": 0, "owner": 1536, "remote_mem": 768, "switch": 0,
             "wb": 0},
            (5120, 5120, 5120, 5120), 7730, 19014),
}


def _machine_fingerprint(app_name):
    from repro.experiments.common import make_app
    from repro.system.machine import Machine
    from repro.system.presets import switch_cache_config

    machine = Machine(switch_cache_config(4), sanitize=False)
    stats = machine.run(make_app(app_name, "quick"))
    assert machine.check_coherence() == []
    return (
        stats.exec_time,
        machine.sim.now,
        machine.sim.events_fired,
        dict(stats.read_counts),
        tuple(stats.per_node_reads),
        machine.fabric.stats.msgs_delivered,
        machine.pool._next_id,  # the full message-id stream length
    )


@pytest.mark.parametrize("app_name", sorted(QUICK_GOLDENS))
def test_machine_matches_quick_golden(app_name):
    assert _machine_fingerprint(app_name) == QUICK_GOLDENS[app_name]
