"""Unit tests for the op-stream compiler (apps/opstream.py).

The encoding is pinned here op by op — one instruction per elementary
op, one ``OP_LOOP`` per macro, chunking and ``expand_chunks`` round
trips; the end-to-end bit-identity of compiled and elementary streams
lives in tests/test_opstream_differential.py.
"""

import pytest

from repro.apps.opstream import (
    CHUNK_WORDS,
    OP_BARRIER,
    OP_LOCK,
    OP_LOOP,
    OP_R,
    OP_UNLOCK,
    OP_W,
    OP_WORK,
    SLOT_R,
    SLOT_W,
    SLOT_WORK,
    compile_chunks,
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
# elementary ops
# ---------------------------------------------------------------------------

def test_unequal_cost_work_ops_stay_separate():
    code = compile_flat([("work", 5), ("work", 5), ("work", 9)])
    assert code == [OP_WORK, 5, OP_WORK, 5, OP_WORK, 9]


def test_work_merge_is_order_preserving_around_accesses():
    ops = [("work", 3), ("r", 64), ("work", 3)]
    assert roundtrip(ops) == ops


def test_single_access_stays_elementary():
    assert compile_flat([("r", 8)]) == [OP_R, 8]
    assert compile_flat([("w", 8)]) == [OP_W, 8]


def test_constant_stride_elementary_ops_are_not_fused():
    code = compile_flat([("r", 0), ("r", 8), ("barrier", 3), ("w", 16),
                         ("w", 24), ("work", 1), ("work", 1)])
    assert code == [OP_R, 0, OP_R, 8, OP_BARRIER, 3, OP_W, 16, OP_W, 24,
                    OP_WORK, 1, OP_WORK, 1]


def test_lock_unlock_encode():
    code = compile_flat([("lock", 7), ("unlock", 7)])
    assert code == [OP_LOCK, 7, OP_UNLOCK, 7]


# ---------------------------------------------------------------------------
# explicit macros
# ---------------------------------------------------------------------------

def test_rr_macro_passes_through():
    # a stride run is a one-slot loop
    assert compile_flat([("rr", 0, 8, 6)]) == [OP_LOOP, 6, 1, SLOT_R, 0, 8]
    assert compile_flat([("wr", 32, 4, 3)]) == [OP_LOOP, 3, 1, SLOT_W, 32, 4]


def test_zero_stride_run_is_a_run():
    # repeated touches of one address are a stride-0 run
    assert compile_flat([("rr", 64, 0, 5)]) == [OP_LOOP, 5, 1, SLOT_R, 64, 0]
    assert roundtrip([("rr", 64, 0, 5)]) == [("r", 64)] * 5


def test_negative_stride_run_is_a_run():
    assert compile_flat([("wr", 24, -8, 3)]) == [OP_LOOP, 3, 1, SLOT_W, 24, -8]
    assert roundtrip([("wr", 24, -8, 3)]) == [("w", 24), ("w", 16), ("w", 8)]


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
# chunking
# ---------------------------------------------------------------------------

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
    # two words per op: 3 * CHUNK_WORDS words in three full chunks
    ops = [("r", 64 * k) for k in range(0, 3 * CHUNK_WORDS, 2)]
    chunks = list(compile_chunks(iter(ops)))
    assert [len(chunk) for chunk in chunks] == [CHUNK_WORDS] * 3
    assert list(expand_chunks(chunks)) == ops


def test_chunk_words_floor_is_enforced():
    with pytest.raises(ConfigError):
        list(compile_chunks(iter([]), chunk_words=8))


def test_unknown_op_raises():
    with pytest.raises(SimulationError):
        compile_flat([("frobnicate", 1)])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

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
