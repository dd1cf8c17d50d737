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
  edge, renaming a router's receiver, moving a kind to another lane, and
  inserting an allocation into ``Fabric._hop`` each turn the
  real tree red with the expected rule and a nonzero exit code, while
  renaming the switch-cache service keeps its edge.

Every gate run goes through the one entry point, ``python -m
repro.verify`` (``--static-only`` for the static stage alone).
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.network import message
from repro.verify.__main__ import main as verify_main
from repro.verify.explore import SCRIPTS
from repro.verify.framework import all_rules, load_context, run_rules
from repro.verify.rules.flowgraph import LANE_TABLES, build_flowgraph
from repro.verify.rules.lane_whitelist import WHITELIST
from repro.verify.rules.lanes import LANE_ORDER

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
        assert verify_main([str(REPO_SRC), "--static-only"]) == 0
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
        lanes = build_flowgraph(load_context(REPO_SRC)).lanes
        for src, dst in sorted(WHITELIST):
            assert (
                LANE_ORDER[lanes[dst]] <= LANE_ORDER[lanes[src]]
            ), f"{src} -> {dst} is lane-increasing; drop the entry"

    def test_node_router_resolves_its_home_table(self):
        # Node._dispatch selects home-bound kinds by indexing a predicate
        # table with the kind code; the graph must still see that arm,
        # or F-UNHANDLED falls back to "any receiver arm anywhere"
        graph = build_flowgraph(load_context(REPO_SRC))
        [router] = [r for r in graph.routers
                    if r.qualname == "Node._dispatch"]
        home = router.arms[0]
        assert home.kinds == {
            "READ", "READX", "UPGRADE", "DIR_UPDATE", "WRITEBACK",
            "RECALL_REPLY", "INV_ACK",
        }
        assert [attr for attr, _line in home.router_targets] == ["home_ctrl"]

    def test_lane_table_is_total_over_real_kinds(self):
        graph = build_flowgraph(load_context(REPO_SRC))
        assert set(graph.kinds) == set(graph.lanes)
        # the lanes read from the source are the tables the module builds
        for table, lane in LANE_TABLES.items():
            assert {kind.name for kind in getattr(message, table)} == {
                kind for kind, got in graph.lanes.items() if got == lane
            }, table


# ----------------------------------------------------------------------
# seeded mutations on the real tree
# ----------------------------------------------------------------------
def _copied_tree(tmp_path):
    root = tmp_path / "repro"
    shutil.copytree(
        REPO_SRC, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    return root


def _mutated_tree(tmp_path, rel, old, new):
    root = _copied_tree(tmp_path)
    target = root / rel
    text = target.read_text()
    assert old in text, f"mutation anchor not found in {rel}"
    target.write_text(text.replace(old, new))
    return root


def _renamed_tree(tmp_path, old, new):
    """A copy of the real tree with identifier ``old`` renamed everywhere."""
    root = _copied_tree(tmp_path)
    renamed = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        if old in text:
            path.write_text(text.replace(old, new))
            renamed += 1
    assert renamed, f"{old} not found in the tree"
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
        assert verify_main([str(root), "--static-only"]) == 1
        capsys.readouterr()

    def test_dropping_a_home_kind_from_the_router_is_caught(
        self, tmp_path, capsys
    ):
        root = _mutated_tree(
            tmp_path, "node/node.py", "        MsgKind.INV_ACK,\n", "",
        )
        report = run_rules(root)
        assert any(
            f.rule == "F-UNHANDLED" and "INV_ACK" in f.message
            for f in report.findings
        ), "\n".join(str(f) for f in report.findings)
        assert verify_main([str(root), "--static-only"]) == 1
        capsys.readouterr()

    def test_unresolved_router_target_is_caught(self, tmp_path, capsys):
        # the router's home arm now calls a receiver flowcheck cannot
        # resolve; it must not be taken as handling every home kind
        root = _renamed_tree(tmp_path, "home_ctrl", "home_controller")
        report = run_rules(root)
        unhandled = [f for f in report.findings if f.rule == "F-UNHANDLED"]
        assert unhandled and all(
            f.path == "node/node.py" and "home_controller" in f.message
            for f in unhandled
        ), "\n".join(str(f) for f in report.findings)
        assert any("WRITEBACK" in f.message for f in unhandled)
        assert verify_main([str(root), "--static-only"]) == 1
        capsys.readouterr()

    def test_moving_a_kind_to_a_later_lane_is_caught(self, tmp_path, capsys):
        # INV on the reply lane: its INV_ACK becomes a same-lane edge
        root = _mutated_tree(
            tmp_path, "network/message.py",
            "    MsgKind.INV, MsgKind.RECALL, MsgKind.RECALL_X,\n"
            "})\n"
            "REPLY_LANE: FrozenSet[MsgKind] = frozenset({\n",
            "    MsgKind.RECALL, MsgKind.RECALL_X,\n"
            "})\n"
            "REPLY_LANE: FrozenSet[MsgKind] = frozenset({\n"
            "    MsgKind.INV,\n",
        )
        report = run_rules(root)
        assert any(
            f.rule == "C-SAMELANE" and f.path == "node/node.py"
            and "MsgKind.INV generates MsgKind.INV_ACK" in f.message
            for f in report.findings
        ), "\n".join(str(f) for f in report.findings)
        assert verify_main([str(root), "--static-only"]) == 1
        capsys.readouterr()

    def test_renamed_switch_service_keeps_its_edge(self, tmp_path):
        # the READ handler is found through the fabric's hook table, not
        # by the name of the hook that serves the hit
        root = _renamed_tree(tmp_path, "_intercept", "_on_read")
        graph = build_flowgraph(load_context(root))
        assert ("READ", "DIR_UPDATE") in graph.edges
        assert graph.edges.keys() == build_flowgraph(
            load_context(REPO_SRC)).edges.keys()
        # no flow rule fires; only the hot-path gate flags the two
        # renamed hot regions, as it must
        findings = run_rules(root).findings
        assert sorted((f.rule, f.path) for f in findings) == [
            ("P-STALE", "core/caesar.py"), ("P-STALE", "network/fabric.py"),
        ], "\n".join(str(f) for f in findings)

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
        assert verify_main([str(root), "--static-only"]) == 1
        capsys.readouterr()

    def test_allocation_in_fabric_hop_is_caught(self, tmp_path, capsys):
        root = _mutated_tree(
            tmp_path, "network/fabric.py",
            "    def _hop(self, msg: Message, hop: int) -> None:\n",
            "    def _hop(self, msg: Message, hop: int) -> None:\n"
            "        scratch = [msg]\n",
        )
        report = run_rules(root)
        assert any(
            f.rule == "P-ALLOC" and "Fabric._hop" in f.message
            for f in report.findings
        ), "\n".join(str(f) for f in report.findings)
        assert verify_main([str(root), "--static-only"]) == 1
        capsys.readouterr()


# ----------------------------------------------------------------------
# framework behaviors
# ----------------------------------------------------------------------
class TestFramework:
    def test_json_report_is_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert verify_main(
            [str(FIXTURES / "lane_unknown"), "--static-only",
             "--json", str(out)]
        ) == 1
        payload = json.loads(out.read_text())
        assert payload["static"]["version"] == 2
        assert [f["rule"] for f in payload["static"]["findings"]] == [
            "C-NOLANE"
        ]
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
        assert verify_main([str(REPO_SRC), "--static-only"]) == 0
        assert "verify: static [ok]" in capsys.readouterr().out

    def test_list_rules_names_every_rule(self, capsys):
        assert verify_main(["--list-rules"]) == 0
        listed = capsys.readouterr().out.splitlines()[1:]
        assert [line.split()[0] for line in listed] == [
            rule.id for rule in all_rules()
        ]

    def test_missing_root_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            verify_main(["/no/such/dir", "--static-only"])
        assert exc.value.code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_deleted_handler_arm_fails(self, tmp_path, capsys):
        root = _mutated_tree(
            tmp_path, "coherence/home.py",
            "        elif kind is _WRITEBACK:\n"
            "            self._on_writeback(msg)\n",
            "",
        )
        assert verify_main([str(root), "--static-only"]) == 1
        assert "verify: static [FAIL]" in capsys.readouterr().out

    def test_json_payload_carries_every_stage(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert verify_main([str(REPO_SRC), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["exit_code"] == 0
        assert payload["static"]["findings"] == []
        assert payload["static"]["suppressed"] == 0
        assert len(payload["static"]["rules"]) == len(all_rules())
        assert [(e["script"], e["switch"], e["ok"])
                for e in payload["explore"]] == [
            (name, switch, True)
            for name in SCRIPTS for switch in (False, True)
        ]
        assert all("protocol" not in e for e in payload["explore"])
        assert all(e["schedules"] > 30 and e["failure"] is None
                   for e in payload["explore"])
        capsys.readouterr()
