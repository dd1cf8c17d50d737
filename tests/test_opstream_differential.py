"""Differential: compiled op streams vs their elementary encoding.

The compiler (DESIGN.md §13) lowers app streams to loops — stride runs
are one-slot loops — while an elementary op is one instruction that the
processor runs as a one-slot body, once.  Both promise *bit identity*
with executing the ops one by one: same statistics, same simulated
timing, same value and write traces, same event count, same final
cache arrays, the same exits from the processor loop and the same
write-buffer counters.  Each test runs one workload twice on the same
processor loop — once on the compiled stream, once on an *elementary*
stream with one instruction per op, so no loop resumes across elements
— and compares complete run fingerprints.  The compiled run must also
reproduce a frozen digest (``fixtures/opstream_digests.json``),
recorded when a separate generator-driven front end and the object
state models still existed and all three agreed on every cell.

The small app scales here keep the whole matrix in tier-1 time; at full
scale, ``perfbench/pins.json`` pins the statistics on every CI run.
"""

import hashlib
import json
from pathlib import Path

import pytest

import repro.system.machine as machine_module
from conftest import ScriptedApp
from repro.apps.opstream import (
    OP_BARRIER,
    OP_LOCK,
    OP_R,
    OP_UNLOCK,
    OP_W,
    OP_WORK,
    expand_macro,
)
from repro.apps.synthetic import PrivateWork, UniformRandom
from repro.experiments.common import make_app
from repro.node.processor import Processor
from repro.system.machine import Machine
from repro.system.presets import base_config, switch_cache_config

#: small instances of the six paper kernels — big enough to cross
#: block/chunk boundaries and fill the write buffer, small enough that
#: the 24-cell matrix stays cheap
SMALL_SCALE = {
    "FWA": {"n": 12},
    "GS": {"n_vectors": 8, "length": 12},
    "GE": {"n": 12},
    "MM": {"n": 12},
    "SOR": {"n": 16, "iterations": 1},
    "FFT": {"m": 8},
}

#: sha256 of each fused run's fingerprint, keyed by test id
FROZEN = json.loads(
    (Path(__file__).resolve().parent / "fixtures" / "opstream_digests.json")
    .read_text()
)

#: app x switch cache x value tracing (the ids keep the "msi" tag their
#: frozen digests are keyed on)
MATRIX = [
    pytest.param(app, switch, traced,
                 id=f"{app}-{switch}-msi" + ("-traced" if traced else ""))
    for app in sorted(SMALL_SCALE)
    for switch in ("off", "on")
    for traced in (False, True)
]

_SYNC_OPCODE = {"barrier": OP_BARRIER, "lock": OP_LOCK, "unlock": OP_UNLOCK}


def elementary_stream(app, proc_id, machine, work_extra=0):
    """Encode the app's elementary ops one instruction each (the stand-in
    for ``compile_stream``; ``work_extra`` perturbs every work op)."""
    code = []
    for op in app.ops(proc_id, machine):
        kind = op[0]
        if kind == "r":
            code += (OP_R, op[1])
        elif kind == "w":
            code += (OP_W, op[1])
        elif kind == "work":
            code += (OP_WORK, op[1] + work_extra)
        else:
            code += (_SYNC_OPCODE[kind], op[1])
    yield code


def _config(switch, traced=False):
    maker = switch_cache_config if switch == "on" else base_config
    return maker(4, trace_values=traced)


def run_cell(config, app):
    """Run once; return the fingerprint (everything observable: stats
    payload, event count, per-processor finish times, value traces and
    write traces) and, apart from it so the frozen digests stay as they
    are, each processor's final L1/L2 arrays, exit points and write
    buffer counters."""
    machine = Machine(config, sanitize=False)
    stats = machine.run(app)
    stacks = list(machine.stacks())
    fp = {
        "stats": stats.to_payload(),
        "events": machine.sim.events_fired,
        "finish": [s.processor.finish_time for s in stacks],
        "values": [s.processor.value_trace for s in stacks],
        "writes": [s.write_trace for s in stacks],
    }
    extra = {
        "caches": [
            (array._tags, array._states, array._data, array._lrus,
             array._tick, array.hits, array.misses)
            for s in stacks
            for array in (s.hierarchy.l1, s.hierarchy.l2)
        ],
        "exits": [s.processor.__dict__.get("exits") for s in stacks],
        "wb": [
            (s.write_buffer.stores_retired, s.write_buffer.stores_merged,
             s.write_buffer.full_stalls)
            for s in stacks
        ],
    }
    return fp, extra


def fingerprint(config, app):
    """The digested part of :func:`run_cell`."""
    return run_cell(config, app)[0]


def digest(fp):
    blob = json.dumps(fp, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def record_exits(monkeypatch):
    """Log (local time, ops retired) at every exit from the processor
    loop: each return from ``Processor._run`` leaves the processor's
    resumable state written back."""
    run = Processor._run

    def recording(self):
        run(self)
        self.__dict__.setdefault("exits", []).append(
            (self.time, self.ops_executed)
        )

    monkeypatch.setattr(Processor, "_run", recording)


def assert_fused_matches_elementary(cell, config, app_factory, monkeypatch,
                                    extra=("caches", "exits", "wb")):
    """Fused and elementary runs agree on the fingerprint and on the
    ``extra`` parts; ``cell`` names the frozen digest the fused run must
    reproduce (None: no digest).  Returns the fused run's extra parts."""
    record_exits(monkeypatch)
    fused, fused_extra = run_cell(config, app_factory())
    monkeypatch.setattr(machine_module, "compile_stream", elementary_stream)
    elementary, elementary_extra = run_cell(config, app_factory())
    for part in ("stats", "events", "finish", "values", "writes"):
        assert fused[part] == elementary[part], (
            f"{part} diverged between fused and elementary streams"
        )
    # a fused stream leaves the caches bit-identical, LRU ticks included,
    # and exits the loop at the same (time, ops) points
    for part in extra:
        assert fused_extra[part] == elementary_extra[part], (
            f"{part} diverged between fused and elementary streams"
        )
    if cell is not None:
        assert digest(fused) == FROZEN[cell], "fused run moved off its golden"
    return fused_extra


def test_frozen_digests_are_exactly_the_cells_looked_up():
    # a digest no cell reads would never fail, only rot: the matrix
    # cells plus the two synthetic cells below
    assert set(FROZEN) == {p.id for p in MATRIX} | {"alias", "random"}


@pytest.mark.parametrize("app_name, switch, traced", MATRIX)
def test_paper_kernels_bit_identical(request, app_name, switch, traced,
                                     monkeypatch):
    # traced cells also record every read's value and retire time
    assert_fused_matches_elementary(
        request.node.callspec.id, _config(switch, traced),
        lambda: make_app(app_name, "quick", SMALL_SCALE[app_name]),
        monkeypatch,
    )


@pytest.mark.parametrize("app_name", sorted(SMALL_SCALE))
def test_paper_kernels_bit_identical_at_odd_quantum(app_name, monkeypatch):
    # a quantum of 37 cycles puts yields mid-block inside hit runs and
    # write merges, where an off-by-one in the loop's resume point
    # shifts an exit by one element, often with no other visible effect
    # (exits only: the matrix cells compare the caches; no frozen digest:
    # these cells are newer than the fixture)
    assert_fused_matches_elementary(
        None, _config("on").replaced(quantum=37),
        lambda: make_app(app_name, "quick", SMALL_SCALE[app_name]),
        monkeypatch, extra=("exits", "wb"),
    )


def test_synthetic_alias_pattern_bit_identical(monkeypatch):
    # PrivateWork's loop reads and rewrites the same element: the read
    # hits L1 first, then forwards from the buffered store
    assert_fused_matches_elementary(
        "alias", _config("on"), PrivateWork, monkeypatch
    )


def test_synthetic_irregular_stream_bit_identical(monkeypatch):
    # seeded-random streams have no macro form: both runs take the
    # elementary-op decode path
    assert_fused_matches_elementary(
        "random", _config("off"),
        lambda: UniformRandom(ops_per_proc=150), monkeypatch,
    )


class MacroScript(ScriptedApp):
    """A ScriptedApp whose scripts may use the macro forms (``('wr', ...)``,
    ``('loop', iters, body)``) on ``("blk", i)`` addresses; its
    elementary stream is their expansion."""

    def macro_ops(self, proc_id, machine):
        for op in self.scripts.get(proc_id, ()):
            if op[0] == "loop":
                yield ("loop", op[1], [self._resolve(s) for s in op[2]])
            else:
                yield self._resolve(op)

    def ops(self, proc_id, machine):
        return expand_macro(self.macro_ops(proc_id, machine))


_A, _B = ("blk", 0), ("blk", 1)


def test_store_to_draining_block_takes_a_fresh_entry(monkeypatch):
    # the first store's drain (a write miss to a remote home) outlasts
    # the loop: every store to A while it drains goes through push into
    # a fresh entry and counts no merge, while the stores to B coalesce
    script = [("w", _A), ("loop", 3, [("w", _A, 0), ("w", _B, 0)])]
    extra = assert_fused_matches_elementary(
        None, _config("off"),
        lambda: MacroScript({0: script}, blocks=2, home=1), monkeypatch,
    )
    # (stores retired, stores merged, full-buffer stalls) on processor 0
    assert extra["wb"][0] == (7, 2, 0)


def test_store_resumed_from_the_drain_waiters_kicks_the_drain(monkeypatch):
    # with two entries, the third store to A (draining, buffer full)
    # stalls.  _drain_done resumes it from its waiter loop, where the
    # fresh entry for A is pending but no drain runs: the store merges
    # into it and must kick the drain at once, so the next store finds
    # A draining and takes a fresh entry instead of merging
    script = [("wr", _A, 0, 2),
              ("loop", 1, [("w", _B, 0), ("w", _A, 0), ("w", _A, 0)])]
    extra = assert_fused_matches_elementary(
        None, _config("off").replaced(write_buffer_entries=2),
        lambda: MacroScript({0: script}, blocks=2, home=1), monkeypatch,
    )
    assert extra["wb"][0] == (5, 1, 1)


def test_elementary_swap_takes_effect(monkeypatch):
    # the stand-in stream must really replace the compiler: a perturbed
    # encoding (every work op one cycle longer) has to move the run
    def perturbed(app, proc_id, machine):
        return elementary_stream(app, proc_id, machine, work_extra=1)

    config = _config("on")
    fused = fingerprint(config, make_app("GE", "quick", SMALL_SCALE["GE"]))
    monkeypatch.setattr(machine_module, "compile_stream", perturbed)
    moved = fingerprint(config, make_app("GE", "quick", SMALL_SCALE["GE"]))
    assert moved["stats"] != fused["stats"]
