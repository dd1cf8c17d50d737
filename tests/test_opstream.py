"""Unit tests for the op-stream compiler (apps/opstream.py).

The peephole is the part of the front end with real logic — run
detection, equal-cost work merging, chunking, run splitting — so it is
pinned here op by op; the end-to-end bit-identity of fused and
elementary streams lives in tests/test_opstream_differential.py.
"""

import pytest

from repro.apps.opstream import (
    CHUNK_WORDS,
    OP_BARRIER,
    OP_LOCK,
    OP_LOOP,
    OP_R,
    OP_R_RUN,
    OP_UNLOCK,
    OP_W,
    OP_W_RUN,
    OP_WORK,
    SLOT_R,
    SLOT_W,
    SLOT_WORK,
    compile_chunks,
    elems_in_block,
    expand_chunks,
    expand_macro,
    row_pitch,
)
from repro.errors import ConfigError, SimulationError


def compile_flat(ops, **kwargs):
    """Compile and concatenate all chunks into one instruction list."""
    flat = []
    for chunk in compile_chunks(ops, **kwargs):
        flat.extend(chunk)
    return flat


def roundtrip(ops, **kwargs):
    return list(expand_chunks(compile_chunks(iter(ops), **kwargs)))


# ---------------------------------------------------------------------------
# work merging
# ---------------------------------------------------------------------------

def test_equal_cost_work_ops_merge():
    code = compile_flat([("work", 5)] * 7)
    assert code == [OP_WORK, 5, 7]


def test_unequal_cost_work_ops_stay_separate():
    code = compile_flat([("work", 5), ("work", 5), ("work", 9)])
    assert code == [OP_WORK, 5, 2, OP_WORK, 9, 1]


def test_work_merge_is_order_preserving_around_accesses():
    ops = [("work", 3), ("r", 64), ("work", 3)]
    assert roundtrip(ops) == ops


# ---------------------------------------------------------------------------
# stride-run detection
# ---------------------------------------------------------------------------

def test_constant_stride_reads_fuse_into_a_run():
    code = compile_flat([("r", 0), ("r", 8), ("r", 16), ("r", 24)])
    assert code == [OP_R_RUN, 0, 8, 4]


def test_constant_stride_writes_fuse_into_a_run():
    code = compile_flat([("w", 100), ("w", 110), ("w", 120)])
    assert code == [OP_W_RUN, 100, 10, 3]


def test_zero_stride_run_is_a_run():
    # repeated touches of one address are a stride-0 run
    code = compile_flat([("r", 64)] * 5)
    assert code == [OP_R_RUN, 64, 0, 5]


def test_negative_stride_run_is_a_run():
    code = compile_flat([("r", 24), ("r", 16), ("r", 8)])
    assert code == [OP_R_RUN, 24, -8, 3]


def test_single_access_stays_elementary():
    assert compile_flat([("r", 8)]) == [OP_R, 8]
    assert compile_flat([("w", 8)]) == [OP_W, 8]


def test_broken_stride_splits_the_run():
    code = compile_flat([("r", 0), ("r", 8), ("r", 16), ("r", 100)])
    assert code == [OP_R_RUN, 0, 8, 3, OP_R, 100]


def test_kind_change_splits_the_run():
    code = compile_flat([("r", 0), ("r", 8), ("w", 16), ("w", 24)])
    assert code == [OP_R_RUN, 0, 8, 2, OP_W_RUN, 16, 8, 2]


def test_sync_op_flushes_pending_fusion():
    code = compile_flat([("r", 0), ("r", 8), ("barrier", 3), ("work", 1)])
    assert code == [OP_R_RUN, 0, 8, 2, OP_BARRIER, 3, OP_WORK, 1, 1]


def test_lock_unlock_encode():
    code = compile_flat([("lock", 7), ("unlock", 7)])
    assert code == [OP_LOCK, 7, OP_UNLOCK, 7]


# ---------------------------------------------------------------------------
# explicit macros
# ---------------------------------------------------------------------------

def test_rr_macro_passes_through():
    assert compile_flat([("rr", 0, 8, 6)]) == [OP_R_RUN, 0, 8, 6]
    assert compile_flat([("wr", 32, 4, 3)]) == [OP_W_RUN, 32, 4, 3]


def test_rr_macro_of_one_lowers_to_elementary():
    assert compile_flat([("rr", 40, 8, 1)]) == [OP_R, 40]
    assert compile_flat([("wr", 40, 8, 1)]) == [OP_W, 40]


def test_rr_macro_of_zero_emits_nothing():
    assert compile_flat([("rr", 40, 8, 0)]) == []


def test_loop_macro_encodes_slots():
    body = [("r", 0, 8), ("work", 5), ("w", 256, 8)]
    code = compile_flat([("loop", 3, body)])
    assert code == [
        OP_LOOP, 3, 3,
        SLOT_R, 0, 8,
        SLOT_WORK, 5, 0,
        SLOT_W, 256, 8,
    ]


def test_empty_loop_emits_nothing():
    assert compile_flat([("loop", 0, [("r", 0, 8)])]) == []
    assert compile_flat([("loop", 4, [])]) == []


def test_expand_macro_matches_expand_chunks():
    macros = [
        ("rr", 0, 8, 5),
        ("work", 2),
        ("loop", 3, [("r", 64, 8), ("work", 1), ("w", 256, 8)]),
        ("wr", 1024, 16, 4),
        ("barrier", 0),
    ]
    assert list(expand_macro(iter(macros))) == roundtrip(macros)


# ---------------------------------------------------------------------------
# run splitting and chunking
# ---------------------------------------------------------------------------

def test_long_fused_run_splits_at_max_run():
    ops = [("r", 8 * k) for k in range(10)]
    code = compile_flat(iter(ops), max_run=4)
    assert code == [
        OP_R_RUN, 0, 8, 4,
        OP_R_RUN, 32, 8, 4,
        OP_R_RUN, 64, 8, 2,
    ]
    assert roundtrip(ops, max_run=4) == ops


def test_long_macro_run_splits_at_max_run():
    code = compile_flat([("wr", 0, 8, 9)], max_run=4)
    assert code == [
        OP_W_RUN, 0, 8, 4,
        OP_W_RUN, 32, 8, 4,
        OP_W_RUN, 64, 8, 1,
    ]


def test_instructions_never_straddle_chunks():
    ops = []
    for k in range(200):
        ops.append(("r", 64 * k))
        ops.append(("work", k % 3))
    chunks = list(compile_chunks(iter(ops), chunk_words=16))
    assert len(chunks) > 1
    for chunk in chunks:
        # each chunk decodes standalone — expand_chunks raises on a
        # truncated instruction
        list(expand_chunks([chunk]))
    assert list(expand_chunks(chunks)) == ops


def test_default_chunk_capacity_is_bounded():
    ops = [("r", 64 * k) for k in range(0, 3 * CHUNK_WORDS, 2)]
    # stride is constant, so this fuses to a handful of words
    chunks = list(compile_chunks(iter(ops)))
    assert len(chunks) == 1 and len(chunks[0]) == 4


def test_chunk_words_floor_is_enforced():
    with pytest.raises(ConfigError):
        list(compile_chunks(iter([]), chunk_words=8))
    with pytest.raises(ConfigError):
        list(compile_chunks(iter([]), max_run=1))


def test_unknown_op_raises():
    with pytest.raises(SimulationError):
        compile_flat([("frobnicate", 1)])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_elems_in_block_power_of_two():
    assert elems_in_block(0, 8, 64) == 8
    assert elems_in_block(56, 8, 64) == 1
    assert elems_in_block(60, 8, 64) == 1  # partial element still counts


def test_elems_in_block_non_power_of_two():
    # write-buffer blocks may be any size
    assert elems_in_block(0, 8, 48) == 6
    assert elems_in_block(50, 8, 48) == 6  # block [48, 96)


def test_elems_in_block_stride_larger_than_block():
    assert elems_in_block(0, 128, 64) == 1


def test_elems_in_block_rejects_bad_stride():
    with pytest.raises(ConfigError):
        elems_in_block(0, 0, 64)


class _FakeMatrix:
    def __init__(self, bases, row_bytes=64):
        self._row_base = bases
        self.row_bytes = row_bytes


def test_row_pitch_even_rows():
    assert row_pitch(_FakeMatrix([0, 128, 256, 384])) == 128


def test_row_pitch_uneven_rows_is_zero():
    assert row_pitch(_FakeMatrix([0, 128, 300])) == 0


def test_row_pitch_single_row_falls_back_to_row_bytes():
    assert row_pitch(_FakeMatrix([512], row_bytes=96)) == 96
