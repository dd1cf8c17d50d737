"""Tests for flowcheck: the rule framework, fixtures, and seeded mutations.

Three layers of evidence that the static gate actually guards the
protocol rather than vacuously passing:

* **golden fixtures** — each mini source tree under
  ``tests/fixtures/flowcheck/`` produces exactly the findings its
  ``expect.json`` lists (and a meta-test proves every registered rule id
  is exercised by at least one fixture);
* **whitelist liveness** — every intentional lane edge in the whitelist
  still exists in the real tree's flow graph, so justifications cannot
  outlive the edge they justify;
* **seeded mutations** — deleting a handler arm, adding a reply->request
  edge, and inserting an allocation into ``Fabric._arrive`` each turn
  the real tree red with the expected rule and a nonzero exit code.

The umbrella ``python -m repro.verify`` is covered here too: it passes
on the real tree and fails on a mutated one.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.verify import flowcheck
from repro.verify.__main__ import main as verify_main
from repro.verify.framework import all_rules, load_context, run_rules
from repro.verify.rules.flowgraph import build_flowgraph
from repro.verify.rules.lane_whitelist import WHITELIST
from repro.verify.rules.lanes import LANE_BY_KIND, LANE_ORDER

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "flowcheck"
REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _fixture_names():
    return sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())


def _expected(name):
    return json.loads((FIXTURES / name / "expect.json").read_text())


# ----------------------------------------------------------------------
# golden fixtures
# ----------------------------------------------------------------------
class TestFixtures:
    @pytest.mark.parametrize("name", _fixture_names())
    def test_fixture_matches_golden(self, name):
        expected = _expected(name)
        report = run_rules(FIXTURES / name)
        got = sorted((f.rule, f.path) for f in report.findings)
        want = sorted((e["rule"], e["path"]) for e in expected["findings"])
        assert got == want, "\n".join(str(f) for f in report.findings)
        assert report.suppressed == expected["suppressed"]
        # any unsuppressed finding fails the gate
        assert report.exit_code == (1 if want else 0)

    def test_every_registered_rule_has_a_fixture(self):
        covered = set()
        for name in _fixture_names():
            covered.update(e["rule"] for e in _expected(name)["findings"])
        registered = {rule.id for rule in all_rules()}
        missing = registered - covered
        assert not missing, f"rules without fixture coverage: {missing}"

    def test_suppression_is_counted_not_dropped(self):
        report = run_rules(FIXTURES / "suppressed")
        assert report.findings == []
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# the real tree
# ----------------------------------------------------------------------
class TestRealTree:
    def test_flowcheck_is_clean_against_baseline(self, capsys):
        assert flowcheck.main([str(REPO_SRC)]) == 0
        assert "[ok]" in capsys.readouterr().out

    def test_whitelist_entries_are_live_edges(self):
        graph = build_flowgraph(load_context(REPO_SRC))
        for edge, why in sorted(WHITELIST.items()):
            assert edge in graph.edges, (
                f"stale whitelist entry {edge[0]} -> {edge[1]} "
                f"(justified as: {why}) — the edge no longer exists; "
                f"delete the entry"
            )

    def test_whitelist_only_covers_non_increasing_edges(self):
        # a strictly increasing edge needs no exemption; an entry for one
        # would mask a future regression of that edge
        for src, dst in sorted(WHITELIST):
            assert (
                LANE_ORDER[LANE_BY_KIND[dst]]
                <= LANE_ORDER[LANE_BY_KIND[src]]
            ), f"{src} -> {dst} is lane-increasing; drop the entry"

    def test_lane_table_is_total_over_real_kinds(self):
        graph = build_flowgraph(load_context(REPO_SRC))
        assert set(graph.kinds) == set(LANE_BY_KIND)


# ----------------------------------------------------------------------
# seeded mutations on the real tree
# ----------------------------------------------------------------------
def _mutated_tree(tmp_path, rel, old, new):
    root = tmp_path / "repro"
    shutil.copytree(
        REPO_SRC, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    target = root / rel
    text = target.read_text()
    assert old in text, f"mutation anchor not found in {rel}"
    target.write_text(text.replace(old, new))
    return root


class TestSeededMutations:
    def test_deleting_a_handler_arm_is_caught(self, tmp_path, capsys):
        root = _mutated_tree(
            tmp_path, "coherence/home.py",
            "        elif kind is _WRITEBACK:\n"
            "            self._on_writeback(msg)\n",
            "",
        )
        report = run_rules(root)
        assert any(
            f.rule == "F-UNHANDLED" and "WRITEBACK" in f.message
            for f in report.findings
        ), "\n".join(str(f) for f in report.findings)
        assert flowcheck.main([str(root)]) == 1
        capsys.readouterr()

    def test_reply_to_request_edge_is_caught(self, tmp_path, capsys):
        root = _mutated_tree(
            tmp_path, "coherence/l2ctrl.py",
            "        self.hierarchy.upgrade(txn.addr)\n",
            "        self.hierarchy.upgrade(txn.addr)\n"
            "        self._probe(MsgKind.READ, msg.src)\n",
        )
        report = run_rules(root)
        assert any(
            f.rule == "C-BACKWARD"
            and "UPGR_ACK" in f.message and "READ" in f.message
            for f in report.findings
        ), "\n".join(str(f) for f in report.findings)
        assert flowcheck.main([str(root)]) == 1
        capsys.readouterr()

    def test_allocation_in_fabric_arrive_is_caught(self, tmp_path, capsys):
        root = _mutated_tree(
            tmp_path, "network/fabric.py",
            "    def _arrive(self, msg: Message, hop: int) -> None:\n",
            "    def _arrive(self, msg: Message, hop: int) -> None:\n"
            "        scratch = [msg]\n",
        )
        report = run_rules(root)
        assert any(
            f.rule == "P-ALLOC" and "_arrive" in f.message
            for f in report.findings
        ), "\n".join(str(f) for f in report.findings)
        assert flowcheck.main([str(root)]) == 1
        capsys.readouterr()


# ----------------------------------------------------------------------
# framework behaviors
# ----------------------------------------------------------------------
class TestFramework:
    def test_json_report_is_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert flowcheck.main(
            [str(FIXTURES / "lane_unknown"), "--json", str(out)]
        ) == 1
        payload = json.loads(out.read_text())
        assert payload["version"] == 2
        assert [f["rule"] for f in payload["findings"]] == ["C-NOLANE"]
        capsys.readouterr()

    def test_rule_ids_are_unique_and_ordered(self):
        ids = [rule.id for rule in all_rules()]
        assert len(ids) == len(set(ids))
        # determinism letters first, then flow, lanes, hot-path
        assert ids[:7] == ["W", "R", "S", "H", "L", "B", "N"]
        assert ids[7:] == [
            "F-UNHANDLED", "F-ORPHAN", "F-DEAD", "F-NOELSE",
            "C-NOLANE", "C-SAMELANE", "C-BACKWARD", "C-CYCLE",
            "P-ALLOC", "P-CLOSURE", "P-ATTR", "P-NOSLOTS", "P-STALE",
        ]


# ----------------------------------------------------------------------
# the umbrella: python -m repro.verify
# ----------------------------------------------------------------------
class TestUmbrella:
    def test_real_tree_passes(self, capsys):
        assert verify_main([str(REPO_SRC), "--skip-modelcheck"]) == 0
        assert "verify: static [ok]" in capsys.readouterr().out

    def test_deleted_handler_arm_fails(self, tmp_path, capsys):
        root = _mutated_tree(
            tmp_path, "coherence/home.py",
            "        elif kind is _WRITEBACK:\n"
            "            self._on_writeback(msg)\n",
            "",
        )
        assert verify_main([str(root), "--skip-modelcheck"]) == 1
        assert "verify: static [FAIL]" in capsys.readouterr().out

    def test_json_payload_carries_every_stage(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert verify_main([str(REPO_SRC), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["exit_code"] == 0
        assert payload["static"]["findings"] == []
        assert payload["static"]["suppressed"] == 1
        assert len(payload["static"]["rules"]) == len(all_rules())
        assert [(e["protocol"], e["switch"], e["ok"])
                for e in payload["modelcheck"]] == [
            ("msi", False, True), ("msi", True, True),
            ("mesi", False, True), ("mesi", True, True),
        ]
        capsys.readouterr()
