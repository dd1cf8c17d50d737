"""Tests for :mod:`repro.verify`: explorer, SCSan, determinism rules.

The mutation tests deliberately break the protocol (or the kernel) and
assert the analyzers notice — that is the evidence the tooling actually
guards the invariants rather than vacuously passing.
"""

import itertools
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cache.states import DirState
from repro.coherence.home import DIR_CYCLES, HomeController
from repro.core.caesar import CaesarEngine
from repro.errors import DeadlockError, ProtocolError, SanitizerError
from repro.network.message import MessagePool, MsgKind
from repro.node.node import Node
from repro.node.processor import Processor
from repro.sim.engine import Simulator
from repro.system.machine import Machine
from repro.verify.explore import (
    HOLDS,
    SCRIPTS,
    DelayOverlay,
    Script,
    config_for,
    explore,
    run_schedule,
)
from repro.verify.framework import get_rule, run_rules

from conftest import ScriptedApp, tiny_config


# ----------------------------------------------------------------------
# the seeded protocol bugs, as test-side patches of the real handlers
# ----------------------------------------------------------------------
def _skip_inv(monkeypatch):
    """The home forgets to invalidate one sharer on a write."""
    start_write = HomeController._start_write

    def start_write_skipping_one(self, txn, upgrade):
        send = self._send
        skipped = []

        def send_all_but_one(msg, at):
            if (msg.kind is MsgKind.INV and not skipped
                    and not msg.purge_only):
                skipped.append(msg)
            else:
                send(msg, at)

        self._send = send_all_but_one
        try:
            start_write(self, txn, upgrade)
        finally:
            self._send = send
        txn.acks_needed -= len(skipped)

    monkeypatch.setattr(
        HomeController, "_start_write", start_write_skipping_one
    )


def _bad_dir_update(monkeypatch):
    """A stale DIR_UPDATE registers the reader: no corrective INV."""

    def register_anyway(self, txn):
        self.dir_updates += 1
        self.directory.add_sharer(txn.block, txn.requester)
        self.sim.call(DIR_CYCLES, self._complete, txn)

    monkeypatch.setattr(HomeController, "_start_dir_update", register_anyway)


def _no_snoop(monkeypatch):
    """Switch caches ignore INV snoops and keep stale copies."""
    monkeypatch.setattr(CaesarEngine, "snoop", lambda self, msg: None)


def _drop_ack(monkeypatch):
    """A node invalidates on INV but never acknowledges."""
    on_inv = Node._on_inv

    def on_inv_without_ack(self, msg):
        if not msg.purge_only:
            msg.no_ack = True
        on_inv(self, msg)

    monkeypatch.setattr(Node, "_on_inv", on_inv_without_ack)


def _no_served_version(monkeypatch):
    """Revert the served-version check: only a MODIFIED block is stale."""
    start_dir_update = HomeController._start_dir_update

    def state_check_only(self, txn):
        txn.msg.data = None
        start_dir_update(self, txn)

    monkeypatch.setattr(HomeController, "_start_dir_update", state_check_only)


def _record_dir_updates(monkeypatch):
    """Spy: (directory state, served version, home version) per DIR_UPDATE."""
    seen = []
    start_dir_update = HomeController._start_dir_update

    def recording(self, txn):
        entry = self.directory.entry(txn.block)
        seen.append(
            (entry.state, txn.msg.data, entry.version)
        )
        start_dir_update(self, txn)

    monkeypatch.setattr(HomeController, "_start_dir_update", recording)
    return seen


def _invs_needing_acks(machine, _updates):
    return sum(stack.netctrl.invs_received for stack in machine.stacks()) >= 1


def _stale_dir_update(machine, updates):
    return machine.nodes[0].home_ctrl.corrective_invs >= 1 and any(
        state is DirState.MODIFIED or served != version
        for state, served, version in updates
    )


def _switch_copy_purged(machine, _updates):
    return machine.switch_cache_stats()["purges"] >= 1


def _stale_by_version_only(machine, updates):
    # a switch-served read whose DIR_UPDATE finds the block no longer
    # MODIFIED, but at a newer version than the one served
    return (machine.stats.read_counts["switch"] >= 1
            and machine.nodes[0].home_ctrl.corrective_invs >= 1
            and any(state is not DirState.MODIFIED and served != version
                    for state, served, version in updates))


#: mutation -> (patch, what the failure says, the trunk scenario it needs)
MUTATIONS = {
    "skip_inv": (_skip_inv, "S copy", _invs_needing_acks),
    "bad_dir_update": (_bad_dir_update, "", _stale_dir_update),
    "no_snoop": (_no_snoop, "switch", _switch_copy_purged),
    "drop_ack": (_drop_ack, "acks outstanding", _invs_needing_acks),
    "no_served_version": (
        _no_served_version, "S copy v0 != home", _stale_by_version_only,
    ),
}


#: without/with switch caches; the "-msi" tag keeps these cells' test ids
#: stable for tools that track tests by id
SWITCH_IDS = ["False-msi", "True-msi"]


# ----------------------------------------------------------------------
# delay-bounded explorer: trunk is clean, seeded bugs are each caught
# ----------------------------------------------------------------------
class TestExplorer:
    @pytest.mark.parametrize("name", sorted(SCRIPTS))
    @pytest.mark.parametrize("switch", [False, True], ids=SWITCH_IDS)
    def test_trunk_is_clean(self, name, switch):
        result = explore(SCRIPTS[name], switch)
        assert result.ok, str(result.failure)
        n = result.deliveries
        assert n >= 15  # a real protocol exchange, not a stub
        assert result.schedules == 1 + len(HOLDS) * (n + n * (n - 1) // 2)
        assert result.summary().endswith(
            f"{n} deliveries, {result.schedules} schedules, ok"
        )

    @pytest.mark.parametrize("name", sorted(SCRIPTS))
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_caught_with_replayable_schedule(
        self, mutation, name, monkeypatch
    ):
        patch, says, scenario = MUTATIONS[mutation]
        patch(monkeypatch)
        failure = explore(SCRIPTS[name], True).failure
        assert failure is not None, f"{mutation} escaped {name}"
        assert says in failure.error
        assert len(failure.ordinals) == len(failure.held) <= 2
        for ordinal, held in zip(failure.ordinals, failure.held):
            assert held.startswith(f"#{ordinal} ")
            assert held in str(failure)
        # the schedule replays to the very same failure
        assert failure.replay()[2] == failure.error
        # non-vacuity: without the bug, the failing schedule runs clean
        # and reaches the scenario the bug needs
        monkeypatch.undo()
        updates = _record_dir_updates(monkeypatch)
        machine, _overlay, error = failure.replay()
        assert error is None
        assert scenario(machine, updates), f"{mutation}: scenario not reached"

    def test_served_version_revert_needs_a_long_hold(self, monkeypatch):
        # the writeback race: the DIR_UPDATE reaches the home after the writer
        # has upgraded and written the block back, so only the served
        # version shows the reader's copy is stale
        _no_served_version(monkeypatch)
        script = SCRIPTS["write_evict_vs_dir_update"]
        result = explore(script, True)
        failure = result.failure
        assert failure.hold == 400
        assert [h.split()[1] for h in failure.held] == ["DIR_UPDATE"]
        assert "FAILED" in result.summary()
        # every one-delivery schedule with the short hold ran clean first
        assert result.schedules > 1 + result.deliveries
        _m, _o, short = run_schedule(script, True, failure.ordinals, 40)
        assert short is None
        monkeypatch.undo()
        machine, _overlay, error = failure.replay()
        home = machine.nodes[0].home_ctrl
        assert error is None
        assert home.corrective_invs >= 1 and home.writebacks >= 1
        assert machine.stats.read_counts["switch"] >= 1

    def test_schedule_failure_reports_deadlock_diagnosis(self, monkeypatch):
        _drop_ack(monkeypatch)
        _machine, _overlay, error = run_schedule(
            SCRIPTS["served_read_vs_write"], False
        )
        assert error.startswith(f"{DeadlockError.__name__}: ")
        assert "UPGRADE of block" in error and "acks outstanding" in error


def _programs(budgets):
    """Every read/write program with ``budgets[i]`` ops on node ``i + 1``.

    All ops touch one block.  Node ``i + 1`` starts 150 cycles after node
    ``i`` and spaces its ops 300 cycles apart, so later reads can be served
    by a switch copy on trunk; the explorer's holds then make them race.
    """
    choices = [itertools.product("rw", repeat=budget) for budget in budgets]
    for number, program in enumerate(itertools.product(*choices)):
        ops = {}
        for i, kinds in enumerate(program):
            steps = [("work", 150 * i)] if i else []
            for j, kind in enumerate(kinds):
                steps += [("work", 300)] if j else []
                steps.append((kind, ("blk", 0)))
            ops[i + 1] = steps
        yield Script(f"program{number}", ops)


def _check_all_programs(budgets, switch):
    """Explore every program with one delay; returns schedules and tallies.

    The built-in scripts carry the two-delay sweep; a one-delay sweep of
    every program already catches each seeded bug that two caching nodes
    (three, for the served-version revert) can show.
    """
    schedules = 0
    trunk = {"switch": 0, "owner": 0, "invs": 0, "corrective_invs": 0}
    for script in _programs(budgets):
        result = explore(script, switch, k=1)
        assert result.ok, str(result.failure)
        # complete: every schedule delaying at most one delivery was run
        assert result.schedules == 1 + len(HOLDS) * result.deliveries
        assert result.summary().endswith(f"{result.schedules} schedules, ok")
        schedules += result.schedules
        machine, _overlay, _error = run_schedule(script, switch)
        trunk["switch"] += machine.stats.read_counts["switch"]
        trunk["owner"] += machine.stats.read_counts["owner"]
        trunk["invs"] += sum(
            stack.netctrl.invs_received for stack in machine.stacks()
        )
        trunk["corrective_invs"] += machine.nodes[0].home_ctrl.corrective_invs
    return schedules, trunk


# ----------------------------------------------------------------------
# every small program on the real handlers, under every one-delay schedule
# ----------------------------------------------------------------------
class TestModelChecker:
    @pytest.mark.parametrize("switch", [False, True], ids=SWITCH_IDS)
    def test_two_node_exhaustive(self, switch):
        schedules, trunk = _check_all_programs((2, 2), switch)
        assert schedules > 350  # genuinely exhaustive, not a stub
        assert trunk["owner"] > 0 and trunk["invs"] > 0
        if switch:
            assert trunk["switch"] > 0

    @pytest.mark.parametrize("switch", [False, True], ids=SWITCH_IDS)
    def test_three_node_exhaustive(self, switch):
        # asymmetric budgets keep the program count small: two ops on
        # node 1 race each single-op peer, while nodes 2 and 3 still give
        # fan-out invalidations and third-party readers
        schedules, trunk = _check_all_programs((2, 1, 1), switch)
        assert schedules > 400
        assert trunk["owner"] > 0 and trunk["invs"] > 0
        if switch:
            # the paper's race: a switch-served read's DIR_UPDATE reaches
            # the home after a write, which sends the corrective INV
            assert trunk["switch"] > 0 and trunk["corrective_invs"] > 0


class TestDelayOverlay:
    def _overlay(self, ordinals, hold):
        sim = Simulator()
        handlers, got = {}, []
        node = SimpleNamespace(
            node_id=0, ni=SimpleNamespace(_dispatch=got.append)
        )
        machine = SimpleNamespace(
            sim=sim, nodes=[node],
            fabric=SimpleNamespace(attach_node=handlers.__setitem__),
        )
        overlay = DelayOverlay(machine, ordinals, hold)
        self._pool = MessagePool(64)
        return sim, handlers[0], got, overlay

    def _msg(self, src):
        return self._pool.make(MsgKind.READ, src, 0, 0x40)

    def test_worm_arriving_at_release_time_stays_behind(self):
        sim, arrive, got, overlay = self._overlay([0], hold=40)
        first, second = self._msg(1), self._msg(1)
        sim.call_at(0, arrive, first)
        sim.call_at(40, arrive, second)  # the cycle ``first`` is released
        sim.run()
        assert got == [first, second]
        assert overlay.held == ["#0 READ 1->0"]

    def test_hold_is_per_pair(self):
        sim, arrive, got, overlay = self._overlay([0], hold=40)
        held, same_pair, other_pair = self._msg(1), self._msg(1), self._msg(2)
        sim.call_at(0, arrive, held)
        sim.call_at(10, arrive, same_pair)
        sim.call_at(10, arrive, other_pair)
        sim.run()
        assert got == [other_pair, held, same_pair]
        assert overlay.delivered == 3

    def test_live_pairs_keep_fifo_order(self):
        # on a real run, each (src, dst) pair hands its worms to the node
        # in the order the fabric delivered them, holds or not
        arrived, dispatched = [], []

        class Recording(DelayOverlay):
            def _on_delivery(self, dispatch, msg):
                arrived.append(msg)
                super()._on_delivery(dispatch, msg)

        script = SCRIPTS["mixed_two_blocks"]
        machine = Machine(config_for(script, True), sanitize=True)
        for node in machine.nodes:
            def recording(msg, inner=node.ni._dispatch):
                dispatched.append(msg)
                inner(msg)

            node.ni._dispatch = recording
        overlay = Recording(machine, range(0, 30, 3), hold=400)
        machine.run(ScriptedApp(script.ops, blocks=script.blocks, home=0))
        assert len(overlay.held) == 10
        remote = {id(m) for m in arrived}
        from_fabric = [m for m in dispatched if id(m) in remote]
        assert len(from_fabric) == len(arrived)

        def by_pair(msgs):
            pairs = {}
            for m in msgs:
                pairs.setdefault((m.src, m.dst), []).append(id(m))
            return pairs

        assert by_pair(from_fabric) == by_pair(arrived)
        assert from_fabric != arrived  # the holds did reorder across pairs


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

    def test_sanitized_machine_runs_the_plain_engine(self):
        # SCSan is an overlay: the run loop it checks is the one
        # perfbench measures, not a checked copy of it
        from repro.verify.sanitize import SanitizedFabric

        machine = Machine(_sc_config(), sanitize=True)
        assert type(machine.sim) is Simulator
        assert type(machine.fabric) is SanitizedFabric

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
            if not msg.no_ack:
                ack = self._pool.make(
                    MsgKind.INV_ACK, self.node_id, msg.src, block
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

    @pytest.mark.parametrize("counter", ("engine", "stats", "home"))
    def test_switch_hit_miscount_detected(self, counter):
        """One switch hit counted twice by any one of its three
        counters breaks the end-of-run reconciliation."""
        scripts = {
            1: [("r", ("blk", 0)), ("barrier", 1)],
            3: [("barrier", 1), ("r", ("blk", 0))],
            0: [("barrier", 1)],
            2: [("barrier", 1)],
        }
        machine = Machine(_sc_config(), sanitize=True)
        if counter == "engine":
            machine.fabric.cache_engines[0].hits = 1
        elif counter == "stats":
            machine.stats.read_counts["switch"] = 1
        else:
            machine.nodes[0].home_ctrl.dir_updates = 1
        with pytest.raises(SanitizerError, match="switch-hit reconciliation"):
            machine.run(ScriptedApp(scripts, blocks=1, home=0))
        assert machine.stats.read_counts["switch"] >= 1, (
            "mutation test vacuous: no read was served by a switch"
        )

    def test_flit_worm_miscount_detected(self):
        """The flit reference has no ledger: its final audit checks
        delivered == injected + switch hits instead."""
        scripts = {
            1: [("r", ("blk", 0)), ("barrier", 1)],
            3: [("barrier", 1), ("r", ("blk", 0))],
            0: [("barrier", 1)],
            2: [("barrier", 1)],
        }
        machine = Machine(_sc_config(network_model="flit"), sanitize=True)
        machine.run(ScriptedApp(scripts, blocks=1, home=0))
        stats = machine.fabric.stats
        assert stats.switch_hits >= 1, (
            "mutation test vacuous: no read was served by a switch"
        )
        assert stats.msgs_delivered == stats.msgs_injected + stats.switch_hits
        stats.msgs_delivered += 1
        with pytest.raises(SanitizerError, match="worm count"):
            machine.sanitizer.final_check(machine)

    def test_double_injection_detected(self):
        machine = Machine(tiny_config(), sanitize=True)
        msg = MessagePool(machine.config.block_size).make(
            MsgKind.READ, 0, 3, 0x40
        )
        machine.fabric.inject(msg)
        with pytest.raises(SanitizerError, match="injected while already"):
            machine.fabric.inject(msg)


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
            "    sim.call(4, lambda: deliver(msg))\n"
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
