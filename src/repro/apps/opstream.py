"""Op-stream compiler: integer-coded op arrays with stride superops.

The op generators in this package are *execution-driven*: they resume
once per simulated memory operation, which makes the Python generator
machinery itself — frame resume, tuple allocation, interpreter dispatch
— the dominant front-end cost after the engine (DESIGN.md §9) and state
kernel (§10) passes.  This module lowers any
operation stream to flat integer-coded *chunks* (plain Python lists) the
processor consumes with indexed loads, and fuses the regular access
patterns of the partitioned-matrix kernels into *superops* the processor
expands arithmetically:

``OP_R_RUN/OP_W_RUN base stride count``
    a constant-stride read/write run (``read_row``,
    ``touch_every_block``, a normalization sweep);

``OP_LOOP iters nslots (kind a b) ...``
    ``iters`` repetitions of a fixed slot pattern — the inner loops of
    FWA/GE/GS/SOR/MM, where each iteration touches a few addresses that
    each advance by a constant stride (work slots allowed);

``OP_WORK cycles count``
    ``count`` adjacent ``('work', cycles)`` ops of equal cost.  Only
    equal-cost neighbors fuse: the processor re-expands the count
    arithmetically, so per-op quantum yields — and therefore the event
    sequence — stay bit-identical to executing the ops one by one.

Applications describe their streams through :meth:`Application.macro_ops`
(plain ops plus ``('rr', base, stride, count)`` / ``('wr', ...)`` /
``('loop', iters, body)`` macros); generators without a macro form are
compiled op by op through the same peephole, which rediscovers runs from
the elementary stream.  Compilation is streaming — chunks are emitted as
the source generator is consumed, so peak memory stays flat regardless
of stream length.

Every fused stream is bit-identical to its *elementary* encoding (one
instruction per op, so no bulk-retirement path can fire) — same stats,
same timing, same value traces — which the differential suite in
tests/test_opstream_differential.py pins against frozen digests.
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
OP_WORK = 2     # [OP_WORK, cycles, count]  (count equal-cost ops merged)
OP_BARRIER = 3  # [OP_BARRIER, id]
OP_LOCK = 4     # [OP_LOCK, id]
OP_UNLOCK = 5   # [OP_UNLOCK, id]
OP_R_RUN = 6    # [OP_R_RUN, base, stride, count]
OP_W_RUN = 7    # [OP_W_RUN, base, stride, count]
OP_LOOP = 8     # [OP_LOOP, iters, nslots, (kind, a, b) * nslots]

#: loop slot kinds: (SLOT_R|SLOT_W, base, stride) or (SLOT_WORK, cycles, 0)
SLOT_R = 0
SLOT_W = 1
SLOT_WORK = 2

#: default chunk capacity in words; instructions never straddle a chunk
CHUNK_WORDS = 16384

#: default cap on the element count of one emitted run superop; a longer
#: fused run is split into several instructions (keeps any one decode
#: step bounded and gives the chunk-boundary tests a handle)
MAX_RUN = 1 << 20

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


def elems_in_block(addr: int, stride: int, block_size: int) -> int:
    """How many elements of a positive-stride run starting at ``addr``
    fall in ``addr``'s block (of any size)."""
    if stride <= 0:
        raise ConfigError(f"elems_in_block needs a positive stride, got {stride}")
    block_end = addr // block_size * block_size + block_size
    return (block_end - addr + stride - 1) // stride


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
    max_run: int = MAX_RUN,
) -> Iterator[List[int]]:
    """Lower a (macro or elementary) op stream to integer-coded chunks.

    The peephole fuses adjacent elementary ops as they stream through:
    consecutive equal-cost ``('work', n)`` merge into one ``OP_WORK``
    with a repeat count; consecutive same-kind ``r``/``w`` ops whose
    addresses advance by a constant stride (any stride, including
    zero) collapse into one run superop.  Explicit macros
    (``rr``/``wr``/``loop``) pass through unfused.  Chunks are plain
    lists of ints — the elements are created once here and only
    referenced by the consumer — and are yielded as they fill, so
    compilation streams with bounded memory.
    """
    if chunk_words < 16:
        raise ConfigError(f"chunk_words {chunk_words} too small for one loop op")
    if max_run < 2:
        raise ConfigError(f"max_run must be at least 2, got {max_run}")
    out: List[int] = []
    append = out.append
    # pending fusion window: exactly one of
    #   run_count  > 0 — a same-kind r/w stride run (run_kind/base/stride/last)
    #   work_count > 0 — a summed work op
    run_kind = run_base = run_stride = run_last = run_count = 0
    work_cycles = work_count = 0

    def flush_run() -> None:
        nonlocal run_count
        if run_count == 1:
            append(OP_R if run_kind == SLOT_R else OP_W)
            append(run_base)
        elif run_count:
            base, left = run_base, run_count
            while left > max_run:
                append(OP_R_RUN if run_kind == SLOT_R else OP_W_RUN)
                append(base)
                append(run_stride)
                append(max_run)
                base += run_stride * max_run
                left -= max_run
            append(OP_R_RUN if run_kind == SLOT_R else OP_W_RUN)
            append(base)
            append(run_stride)
            append(left)
        run_count = 0

    def flush_work() -> None:
        nonlocal work_cycles, work_count
        if work_count:
            append(OP_WORK)
            append(work_cycles)
            append(work_count)
        work_cycles = work_count = 0

    for op in macro_iter:
        code = op[0]
        if code == "r" or code == "w":
            kind = SLOT_R if code == "r" else SLOT_W
            addr = op[1]
            if run_count:
                if kind == run_kind:
                    if run_count == 1:
                        run_stride = addr - run_base
                        run_last = addr
                        run_count = 2
                        continue
                    if addr == run_last + run_stride:
                        run_last = addr
                        run_count += 1
                        continue
                flush_run()
            else:
                flush_work()
            run_kind, run_base, run_last, run_count = kind, addr, addr, 1
            run_stride = 0
        elif code == "work":
            flush_run()
            if work_count and op[1] != work_cycles:
                flush_work()
            work_cycles = op[1]
            work_count += 1
        else:
            flush_run()
            flush_work()
            if code == "rr" or code == "wr":
                _, base, stride, count = op
                if count == 1:
                    append(OP_R if code == "rr" else OP_W)
                    append(base)
                elif count:
                    left = count
                    while left:
                        n = left if left <= max_run else max_run
                        append(OP_R_RUN if code == "rr" else OP_W_RUN)
                        append(base)
                        append(stride)
                        append(n)
                        base += stride * n
                        left -= n
            elif code == "loop":
                _, iters, body = op
                if iters and body:
                    append(OP_LOOP)
                    append(iters)
                    append(len(body))
                    for slot in body:
                        append(_SLOT_KIND[slot[0]])
                        append(slot[1])
                        append(slot[2] if slot[0] != "work" else 0)
            else:
                opcode = _SYNC_OPCODE.get(code)
                if opcode is None:
                    raise SimulationError(f"unknown op {op!r}")
                append(opcode)
                append(op[1])
        if len(out) >= chunk_words:
            yield out
            out = []
            append = out.append
    flush_run()
    flush_work()
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
                cycles, count = code[ip + 1], code[ip + 2]
                for _ in range(count):
                    yield ("work", cycles)
                ip += 3
            elif opcode == OP_R_RUN or opcode == OP_W_RUN:
                kind = "r" if opcode == OP_R_RUN else "w"
                base, stride, count = code[ip + 1], code[ip + 2], code[ip + 3]
                for k in range(count):
                    yield (kind, base + k * stride)
                ip += 4
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
