"""Op-stream compiler: integer-coded op arrays with loop instructions.

The op generators in this package are *execution-driven*: they resume
once per simulated memory operation, which makes the Python generator
machinery itself — frame resume, tuple allocation, interpreter dispatch
— the dominant front-end cost after the engine (DESIGN.md §9) and state
kernel (§10) passes.  This module lowers any operation stream to flat
integer-coded *chunks* (plain Python lists) the processor consumes with
indexed loads.  There are two kinds of memory and work instruction:

``OP_R addr`` / ``OP_W addr`` / ``OP_WORK cycles``
    one elementary op.  These opcodes equal the loop slot kinds
    ``SLOT_R``/``SLOT_W``/``SLOT_WORK``, so the processor runs each as a
    one-slot loop body, once;

``OP_LOOP iters nslots (kind a b) ...``
    ``iters`` repetitions of a fixed slot pattern — the inner loops of
    FWA/GE/GS/SOR/MM, where each iteration touches a few addresses that
    each advance by a constant stride (work slots allowed).  A
    ``('rr', base, stride, count)`` / ``('wr', ...)`` stride run is a
    one-slot loop.

Applications describe their streams through :meth:`Application.macro_ops`
(plain ops plus ``('rr', base, stride, count)`` / ``('wr', ...)`` /
``('loop', iters, body)`` macros); generators without a macro form
compile one instruction per op.  Compilation is streaming — chunks are
emitted as the source generator is consumed, so peak memory stays flat
regardless of stream length.

Every compiled stream is bit-identical to its *elementary* encoding
(one instruction per op) — same stats, same timing, same value traces —
which the differential suite in tests/test_opstream_differential.py
pins against frozen digests.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from ..errors import ConfigError, SimulationError

Op = Tuple

# ---------------------------------------------------------------------------
# instruction encoding
# ---------------------------------------------------------------------------

#: opcodes (word 0 of each instruction)
OP_R = 0        # [OP_R, addr]
OP_W = 1        # [OP_W, addr]
OP_WORK = 2     # [OP_WORK, cycles]
OP_BARRIER = 3  # [OP_BARRIER, id]
OP_LOCK = 4     # [OP_LOCK, id]
OP_UNLOCK = 5   # [OP_UNLOCK, id]
OP_LOOP = 6     # [OP_LOOP, iters, nslots, (kind, a, b) * nslots]

#: loop slot kinds: (SLOT_R|SLOT_W, base, stride) or (SLOT_WORK, cycles, 0).
#: An elementary op's opcode is its slot kind.
SLOT_R = OP_R
SLOT_W = OP_W
SLOT_WORK = OP_WORK

#: default chunk capacity in words; instructions never straddle a chunk
CHUNK_WORDS = 16384

_SYNC_OPCODE = {"barrier": OP_BARRIER, "lock": OP_LOCK, "unlock": OP_UNLOCK}
_SLOT_KIND = {"r": SLOT_R, "w": SLOT_W, "work": SLOT_WORK}


def row_pitch(matrix) -> int:
    """The constant row-to-row address delta of a matrix, or 0 if the
    rows are not evenly spaced (callers then emit elementary ops).

    Interleaved matrices are contiguous (pitch = ``row_bytes``);
    ``row_home`` matrices allocate their rows back to back, so the pitch
    is normally the block-rounded row size — but this is a property of
    the allocator, so ports verify it instead of assuming it.
    """
    bases = matrix._row_base
    if len(bases) < 2:
        return matrix.row_bytes
    pitch = bases[1] - bases[0]
    for k in range(2, len(bases)):
        if bases[k] - bases[k - 1] != pitch:
            return 0
    return pitch


# ---------------------------------------------------------------------------
# macro expansion (Application.ops derives the elementary stream from the
# macro form, so both describe the same stream by construction)
# ---------------------------------------------------------------------------

def expand_macro(macro_iter: Iterable[Op]) -> Iterator[Op]:
    """Expand a macro-op stream to the elementary op vocabulary."""
    for op in macro_iter:
        code = op[0]
        if code == "rr" or code == "wr":
            kind = "r" if code == "rr" else "w"
            _, base, stride, count = op
            addr = base
            for _ in range(count):
                yield (kind, addr)
                addr += stride
        elif code == "loop":
            _, iters, body = op
            for it in range(iters):
                for slot in body:
                    skind = slot[0]
                    if skind == "work":
                        yield ("work", slot[1])
                    else:
                        yield (skind, slot[1] + it * slot[2])
        else:
            yield op


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------

def compile_chunks(
    macro_iter: Iterable[Op],
    chunk_words: int = CHUNK_WORDS,
) -> Iterator[List[int]]:
    """Lower a (macro or elementary) op stream to integer-coded chunks.

    Each elementary op compiles to one two-word instruction; an
    ``rr``/``wr`` run of two or more elements to a one-slot ``OP_LOOP``
    and a ``loop`` macro to an ``OP_LOOP`` of its slots.  Chunks are
    plain lists of ints — the elements are created once here and only
    referenced by the consumer — and are yielded as they fill, so
    compilation streams with bounded memory.
    """
    if chunk_words < 16:
        raise ConfigError(f"chunk_words {chunk_words} too small for one loop op")
    out: List[int] = []
    for op in macro_iter:
        code = op[0]
        kind = _SLOT_KIND.get(code)
        if kind is not None:
            out += (kind, op[1])
        elif code == "rr" or code == "wr":
            _, base, stride, count = op
            kind = SLOT_R if code == "rr" else SLOT_W
            if count == 1:
                out += (kind, base)
            elif count:
                out += (OP_LOOP, count, 1, kind, base, stride)
        elif code == "loop":
            _, iters, body = op
            if iters and body:
                out += (OP_LOOP, iters, len(body))
                for slot in body:
                    out += (_SLOT_KIND[slot[0]], slot[1],
                            slot[2] if slot[0] != "work" else 0)
        else:
            opcode = _SYNC_OPCODE.get(code)
            if opcode is None:
                raise SimulationError(f"unknown op {op!r}")
            out += (opcode, op[1])
        if len(out) >= chunk_words:
            yield out
            out = []
    if out:
        yield out


def compile_stream(app, proc_id: int, machine,
                   chunk_words: int = CHUNK_WORDS) -> Iterator[List[int]]:
    """Compile one processor's stream, preferring the app's macro form."""
    macro_fn = getattr(app, "macro_ops", None)
    if macro_fn is not None:
        source = macro_fn(proc_id, machine)
    else:
        source = app.ops(proc_id, machine)
    return compile_chunks(source, chunk_words)


# ---------------------------------------------------------------------------
# decoding (tests and debugging; the processor interprets chunks directly)
# ---------------------------------------------------------------------------

def expand_chunks(chunks: Iterable[List[int]]) -> Iterator[Op]:
    """Decode chunks back to elementary ops (exact round trip)."""
    for code in chunks:
        ip, end = 0, len(code)
        while ip < end:
            opcode = code[ip]
            if opcode == OP_R:
                yield ("r", code[ip + 1])
                ip += 2
            elif opcode == OP_W:
                yield ("w", code[ip + 1])
                ip += 2
            elif opcode == OP_WORK:
                yield ("work", code[ip + 1])
                ip += 2
            elif opcode == OP_LOOP:
                iters, nslots = code[ip + 1], code[ip + 2]
                body = code[ip + 3:ip + 3 + 3 * nslots]
                for it in range(iters):
                    for s in range(nslots):
                        skind = body[3 * s]
                        if skind == SLOT_WORK:
                            yield ("work", body[3 * s + 1])
                        else:
                            yield ("r" if skind == SLOT_R else "w",
                                   body[3 * s + 1] + it * body[3 * s + 2])
                ip += 3 + 3 * nslots
            elif opcode == OP_BARRIER:
                yield ("barrier", code[ip + 1])
                ip += 2
            elif opcode == OP_LOCK:
                yield ("lock", code[ip + 1])
                ip += 2
            elif opcode == OP_UNLOCK:
                yield ("unlock", code[ip + 1])
                ip += 2
            else:
                raise ConfigError(f"bad opcode {opcode} at {ip}")
