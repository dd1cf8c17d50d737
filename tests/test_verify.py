"""Tests for :mod:`repro.verify`: model checker, SCSan, determinism rules.

The mutation tests deliberately break the protocol (or the kernel) and
assert the analyzers notice — that is the evidence the tooling actually
guards the invariants rather than vacuously passing.
"""

from pathlib import Path

import pytest

from repro.coherence.messages import make_message
from repro.core.caesar import CaesarEngine
from repro.errors import ProtocolError, SanitizerError
from repro.network.message import MsgKind
from repro.node.node import Node
from repro.node.processor import Processor
from repro.system.machine import Machine
from repro.verify.framework import get_rule, run_rules
from repro.verify.modelcheck import MUTATIONS, check
from repro.verify.sanitize import Sanitizer, SanitizedSimulator

from conftest import ScriptedApp, tiny_config


# ----------------------------------------------------------------------
# model checker: exhaustive enumeration on trunk is violation-free
# ----------------------------------------------------------------------
class TestModelChecker:
    @pytest.mark.parametrize("protocol", ["msi", "mesi"])
    @pytest.mark.parametrize("switch", [False, True])
    def test_two_node_exhaustive(self, protocol, switch):
        result = check(protocol=protocol, nodes=2, ops_per_node=2,
                       switch=switch)
        assert result.complete
        assert result.violations == []
        assert result.states > 10_000  # genuinely exhaustive, not a stub
        assert result.quiescent > 0
        assert f"states={result.states:>7d}" in result.summary()

    @pytest.mark.parametrize("protocol", ["msi", "mesi"])
    @pytest.mark.parametrize("switch", [False, True])
    def test_three_node_exhaustive(self, protocol, switch):
        # asymmetric budgets keep three-party interleavings tractable:
        # two ops on node 0 exhaust the two-party races against each
        # single-op peer while nodes 1/2 still exercise fan-out
        # invalidations and third-party depositor/reader roles
        result = check(protocol=protocol, nodes=3, ops_per_node=(2, 1, 1),
                       switch=switch)
        assert result.complete
        assert result.violations == []
        assert result.states > 30_000

    def test_mutations_each_caught(self):
        expected_kind = {
            "skip_inv": "quiescence",   # stale sharer survives a write
            "bad_dir_update": "transition",  # add_sharer on MODIFIED
            "no_snoop": "quiescence",   # switch retains a stale version
            "drop_ack": "stuck",        # home waits forever for an ack
        }
        assert set(expected_kind) == set(MUTATIONS)
        for mutation in MUTATIONS:
            switch = mutation in ("bad_dir_update", "no_snoop")
            result = check(protocol="msi", nodes=2, ops_per_node=2,
                           switch=switch, mutation=mutation)
            assert result.violations, f"{mutation} not caught"
            kinds = {v.kind for v in result.violations}
            assert expected_kind[mutation] in kinds, (mutation, kinds)

    def test_violation_carries_trace(self):
        result = check(protocol="msi", nodes=2, ops_per_node=2,
                       switch=False, mutation="skip_inv")
        traced = [v for v in result.violations if v.trace]
        assert traced, "violations should carry action traces"

    def test_bad_budget_length_rejected(self):
        with pytest.raises(ValueError):
            check(protocol="msi", nodes=3, ops_per_node=(2, 1), switch=False)


# ----------------------------------------------------------------------
# SCSan: clean runs stay clean (and timing-transparent)
# ----------------------------------------------------------------------
def _sc_config(**overrides):
    return tiny_config(switch_cache_size=2048, **overrides)


def _reader_writer_scripts():
    return {
        0: [("r", ("blk", 0)), ("barrier", 0), ("barrier", 1)],
        1: [("barrier", 0), ("w", ("blk", 0)), ("barrier", 1)],
        2: [("barrier", 0), ("barrier", 1)],
        3: [("barrier", 0), ("barrier", 1)],
    }


class TestSanitizerCleanRun:
    def test_clean_run_no_violations(self):
        machine = Machine(_sc_config(), sanitize=True)
        machine.run(ScriptedApp(_reader_writer_scripts(), home=3))
        assert machine.sanitizer.violations == []
        assert machine.sanitizer.deliveries_checked > 0
        assert machine.sanitizer.sync_checks > 0

    def test_sanitizer_is_timing_transparent(self):
        from repro.apps import GaussianElimination

        plain = Machine(_sc_config()).run(GaussianElimination(n=10))
        sane = Machine(_sc_config(), sanitize=True).run(
            GaussianElimination(n=10)
        )
        assert plain.exec_time == sane.exec_time

    def test_main_loop_checks_every_event(self):
        # Machine.run drives Simulator.run_until_stop; every event it
        # fires must pass through the sanitizer's checked step
        from repro.apps import GaussianElimination
        from repro.system.presets import switch_cache_config

        machine = Machine(switch_cache_config(4), sanitize=True)
        machine.run(GaussianElimination(n=16))
        assert machine.sim.events_fired > 0
        assert machine.sanitizer.events_checked == machine.sim.events_fired

    def test_env_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Machine(tiny_config()).sanitizer is not None
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert Machine(tiny_config()).sanitizer is None
        monkeypatch.delenv("REPRO_SANITIZE")
        assert Machine(tiny_config()).sanitizer is None


# ----------------------------------------------------------------------
# SCSan: injected live mutations are each detected
# ----------------------------------------------------------------------
class TestSanitizerMutations:
    def test_skipped_invalidation_detected(self, monkeypatch):
        """A node that acks INVs without purging keeps a stale copy."""

        def lazy_on_inv(self, msg):
            self.invs_received += 1
            block = (msg.addr // self.config.block_size) * self.config.block_size
            if not msg.payload.get("no_ack"):
                ack = make_message(
                    MsgKind.INV_ACK, self.node_id, msg.src, block,
                    self.config.block_size,
                )
                self.ni.send(ack)

        monkeypatch.setattr(Node, "_on_inv", lazy_on_inv)
        machine = Machine(tiny_config(), sanitize=True)
        with pytest.raises(SanitizerError, match="stale S copy|holds S"):
            machine.run(ScriptedApp(_reader_writer_scripts(), home=3))

    def test_stale_switch_version_detected(self, monkeypatch):
        """A switch cache that ignores INV snoops retains stale data."""
        monkeypatch.setattr(
            CaesarEngine, "snoop", lambda self, msg, now=-1: None
        )
        machine = Machine(_sc_config(), sanitize=True)
        with pytest.raises(SanitizerError, match="switch"):
            machine.run(ScriptedApp(_reader_writer_scripts(), home=3))
        assert machine.fabric.switch_cache_blocks(), (
            "mutation test vacuous: nothing was deposited in switch caches"
        )

    def test_unfenced_barrier_arrival_detected(self, monkeypatch):
        """Skipping the release fence leaves the write buffer non-empty."""
        monkeypatch.setattr(
            Processor, "_fence_then", lambda self, action: action()
        )
        scripts = {
            0: [("w", ("blk", i)) for i in range(4)] + [("barrier", 0)],
            1: [("barrier", 0)],
            2: [("barrier", 0)],
            3: [("barrier", 0)],
        }
        machine = Machine(tiny_config(), sanitize=True)
        with pytest.raises(SanitizerError, match="non-empty write buffer"):
            machine.run(ScriptedApp(scripts, blocks=4, home=3))

    def test_dropped_worm_detected(self):
        """A worm swallowed by the fabric fails the conservation audit."""
        machine = Machine(tiny_config(l1_size=256, l2_size=1024),
                          sanitize=True)
        dropped = []
        deliver = machine.fabric._deliver

        def lossy_deliver(msg):
            if msg.kind is MsgKind.WRITEBACK and not dropped:
                dropped.append(msg)
                return  # swallow the worm: ledger entry never popped
            deliver(msg)

        machine.fabric._deliver = lossy_deliver
        # enough dirty blocks to overflow the 16-line L2 and force
        # writeback evictions toward the remote home
        scripts = {0: [("w", ("blk", i)) for i in range(24)]}
        with pytest.raises(SanitizerError):
            machine.run(ScriptedApp(scripts, blocks=24, home=3))
        assert dropped, "mutation test vacuous: no WRITEBACK was dropped"

    def test_double_injection_detected(self):
        machine = Machine(tiny_config(), sanitize=True)
        msg = make_message(
            MsgKind.READ, 0, 3, 0x40, machine.config.block_size
        )
        machine.fabric.inject(msg)
        with pytest.raises(SanitizerError, match="injected while already"):
            machine.fabric.inject(msg)

    def test_clock_regression_detected(self):
        sim = SanitizedSimulator(Sanitizer())
        sim.at(5, lambda: None)
        sim.now = 10  # corrupt the clock past the queued event
        time, _, fn, args = sim._heap[0]
        with pytest.raises(SanitizerError, match="backwards"):
            sim._fire(time, fn, args)


# ----------------------------------------------------------------------
# ProtocolError context (sanitizer reports need node/addr/state)
# ----------------------------------------------------------------------
class TestProtocolErrorContext:
    def test_context_in_message_and_attributes(self):
        err = ProtocolError("boom", node=3, addr=0x40, state="M")
        assert "[node=3 addr=0x40 state=M]" in str(err)
        assert (err.node, err.addr, err.state) == (3, 0x40, "M")

    def test_directory_errors_carry_context(self):
        from repro.coherence.directory import Directory

        directory = Directory(node_id=0, block_size=64)
        directory.set_owner(0x40, 2, version=1)
        with pytest.raises(ProtocolError) as excinfo:
            directory.add_sharer(0x40, 1)
        assert excinfo.value.addr == 0x40
        assert "addr=0x40" in str(excinfo.value)
        assert excinfo.value.state is not None


# ----------------------------------------------------------------------
# determinism rules (W/R/S/H/L/B/N), run through the flowcheck framework
# ----------------------------------------------------------------------
DETERMINISM_RULES = [get_rule(rule_id) for rule_id in "WRSHLBN"]


class TestDeterminismLint:
    def _run_snippet(self, tmp_path: Path, rel: str, code: str):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(code)
        return run_rules(tmp_path, rules=DETERMINISM_RULES)

    def _lint_snippet(self, tmp_path: Path, rel: str, code: str):
        report = self._run_snippet(tmp_path, rel, code)
        return [f for f in report.findings if f.path == rel]

    def test_wall_clock_flagged(self, tmp_path):
        findings = self._lint_snippet(
            tmp_path, "sim/clock.py",
            "import time\n\ndef f():\n    return time.time()\n",
        )
        assert [f.rule for f in findings].count("W") == 2

    def test_wall_clock_imported_by_name_flagged(self, tmp_path):
        findings = self._lint_snippet(
            tmp_path, "sim/clock.py",
            "from time import perf_counter\n\n"
            "def f():\n    return perf_counter()\n",
        )
        assert [(f.rule, f.line) for f in findings] == [("W", 4)]

    def test_unseeded_random_flagged(self, tmp_path):
        findings = self._lint_snippet(
            tmp_path, "node/rng.py",
            "import random\n\ndef f(xs):\n    return random.choice(xs)\n",
        )
        assert any(f.rule == "R" for f in findings)

    @pytest.mark.parametrize("imported, call", [
        ("from random import choice", "choice(xs)"),
        ("import random as _random", "_random.choice(xs)"),
    ])
    def test_random_function_imported_by_name_flagged(
        self, tmp_path, imported, call
    ):
        findings = self._lint_snippet(
            tmp_path, "sim/rng.py",
            f"{imported}\n\ndef f(xs):\n    return {call}\n",
        )
        assert [(f.rule, f.line) for f in findings] == [("R", 4)]

    def test_unseeded_random_instance_flagged(self, tmp_path):
        findings = self._lint_snippet(
            tmp_path, "sim/rng.py",
            "import random\n\ndef f():\n    return random.Random()\n",
        )
        assert [(f.rule, f.line) for f in findings] == [("R", 4)]

    @pytest.mark.parametrize("imported, call", [
        ("import random", "random.SystemRandom().random()"),
        ("import uuid", "uuid.uuid1()"),
        ("import uuid", "uuid.uuid4()"),
        ("import os", "os.urandom(4)"),
        ("import secrets", "secrets.token_bytes(4)"),
        ("from secrets import randbelow", "randbelow(10)"),
    ])
    def test_host_entropy_flagged(self, tmp_path, imported, call):
        findings = self._lint_snippet(
            tmp_path, "sim/entropy.py",
            f"{imported}\n\ndef f():\n    return {call}\n",
        )
        assert [(f.rule, f.line) for f in findings] == [("R", 4)]

    def test_seeded_random_instance_allowed(self, tmp_path):
        findings = self._lint_snippet(
            tmp_path, "node/rng.py",
            "import random\n\ndef f(xs, seed):\n"
            "    rng = random.Random(seed)\n    return rng.choice(xs)\n",
        )
        assert not any(f.rule == "R" for f in findings)

    def test_bare_set_iteration_flagged_only_in_sensitive_code(self, tmp_path):
        code = ("def f(sharers):\n"
                "    targets = set(sharers)\n"
                "    return [t for t in targets]\n")
        sensitive = self._lint_snippet(tmp_path, "coherence/fanout.py", code)
        assert any(f.rule == "S" for f in sensitive)
        elsewhere = self._lint_snippet(tmp_path, "cache/util.py", code)
        assert not any(f.rule == "S" for f in elsewhere)

    def test_set_attribute_iteration_flagged(self, tmp_path):
        findings = self._lint_snippet(
            tmp_path, "coherence/pending.py",
            "class C:\n"
            "    def __init__(self):\n"
            "        self.pending = set()\n\n"
            "    def fan_out(self):\n"
            "        for n in self.pending:\n"
            "            yield n\n",
        )
        assert [(f.rule, f.line) for f in findings] == [("S", 6)]

    def test_set_operator_iteration_flagged(self, tmp_path):
        findings = self._lint_snippet(
            tmp_path, "coherence/union.py",
            "def f():\n    for n in {1, 2} | {3}:\n        yield n\n",
        )
        assert [(f.rule, f.line) for f in findings] == [("S", 2)]

    def test_arithmetic_on_names_not_taken_for_sets(self, tmp_path):
        findings = self._lint_snippet(
            tmp_path, "coherence/span.py",
            "def f(a, b):\n    for n in range(a - b):\n        yield n\n",
        )
        assert not findings

    def test_sorted_set_iteration_allowed(self, tmp_path):
        findings = self._lint_snippet(
            tmp_path, "coherence/fanout.py",
            "def f(sharers):\n"
            "    targets = set(sharers)\n"
            "    return [t for t in sorted(targets)]\n",
        )
        assert not any(f.rule == "S" for f in findings)

    def test_missing_slots_flagged_with_exemptions(self, tmp_path):
        findings = self._lint_snippet(
            tmp_path, "sim/engine.py",
            "import enum\n\n"
            "class Hot:\n    def __init__(self):\n        self.x = 1\n\n"
            "class Slotted:\n    __slots__ = ('x',)\n\n"
            "class Kind(enum.Enum):\n    A = 1\n\n"
            "class Boom(Exception):\n    pass\n",
        )
        slots = [f for f in findings if f.rule == "H"]
        assert len(slots) == 1
        assert "Hot" in slots[0].message

    def test_lambda_scheduling_flagged(self, tmp_path):
        findings = self._lint_snippet(
            tmp_path, "node/pump.py",
            "def f(sim, msg):\n"
            "    sim.schedule(4, lambda: deliver(msg))\n"
            "    sim.call_at(sim.now + 2, lambda: deliver(msg))\n",
        )
        assert [f.rule for f in findings].count("L") == 2

    def test_closure_free_scheduling_allowed(self, tmp_path):
        findings = self._lint_snippet(
            tmp_path, "node/pump.py",
            "def f(sim, deliver, msg):\n"
            "    sim.call(4, deliver, msg)\n"
            "    sim.call_at(sim.now + 2, deliver, msg)\n"
            "    xs = sorted([3, 1], key=lambda x: -x)\n",
        )
        assert not any(f.rule == "L" for f in findings)

    def test_set_typed_sharers_flagged_in_coherence(self, tmp_path):
        # a private name is no exemption: set-based reference models
        # live in tests/, not in src/
        for field in ("sharers", "_sharers"):
            findings = self._lint_snippet(
                tmp_path, "coherence/dir2.py",
                "from typing import Set\n\n"
                "class Entry:\n"
                "    def __init__(self):\n"
                f"        self.{field}: Set[int] = set()\n",
            )
            assert any(f.rule == "B" for f in findings), field

    def test_masked_sharers_allowed(self, tmp_path):
        # the coded bitmask is fine; so is a Set-typed field outside
        # coherence/
        clean = (
            "from typing import Set\n\n"
            "class Entry:\n"
            "    def __init__(self):\n"
            "        self.sharers_mask: int = 0\n"
        )
        findings = self._lint_snippet(tmp_path, "coherence/dir3.py", clean)
        assert not any(f.rule == "B" for f in findings)
        elsewhere = self._lint_snippet(
            tmp_path, "trace/readers.py",
            "from typing import Set\n\n"
            "class T:\n"
            "    def __init__(self):\n"
            "        self.sharers: Set[int] = set()\n",
        )
        assert not any(f.rule == "B" for f in elsewhere)

    def test_allow_comment_silences_one_finding(self, tmp_path):
        report = self._run_snippet(
            tmp_path, "sim/clock.py",
            "import time  # repro: allow[W]\n\n"
            "def f():\n    return time.time()\n",
        )
        assert [(f.rule, f.line) for f in report.findings] == [("W", 4)]
        assert report.suppressed == 1
