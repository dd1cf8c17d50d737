"""Tests for the experiment harness (registry, static tables, CLI)."""

import dataclasses

import pytest

from repro.experiments import (
    APP_ORDER, APP_SCALES, EXPERIMENTS, make_app, run_experiments,
)
from repro.experiments import common, runcache
from repro.experiments.cli import build_parser, main
from repro.experiments.common import RunRecord, run
from repro.experiments.runners import no_runs
from repro.system.presets import base_config


class TestRegistry:
    def test_all_design_md_experiments_present(self):
        expected = {"T1", "T2", "F3", "F4", "F5",
                    "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
                    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"}
        assert set(EXPERIMENTS) == expected

    def test_every_entry_has_title_and_runner(self):
        for exp_id, exp in EXPERIMENTS.items():
            assert exp.exp_id == exp_id
            assert exp.title and exp.result_title
            assert callable(exp.runs) and callable(exp.render)

    def test_app_scales_cover_all_apps(self):
        for scale in ("quick", "full"):
            assert set(APP_SCALES[scale]) == set(APP_ORDER)

    def test_make_app_instantiates(self):
        app = make_app("GE", "quick")
        assert app.name == "GE"
        assert app.n == APP_SCALES["quick"]["GE"]["n"]


class TestStaticExperiments:
    def test_t1_rows(self):
        (result,), _counters = run_experiments(["T1"])
        assert result.exp_id == "T1"
        assert "snoop" in result.text
        # wider output width -> fewer cycles
        hits = {r[1]: r[3] for r in result.data["rows"] if r[0] == "regular read hit"}
        assert hits["256-bit"] < hits["128-bit"] < hits["64-bit"]

    def test_t2_lists_all_apps(self):
        (result,), _counters = run_experiments(["T2"])
        for name in APP_ORDER:
            assert name in result.text
        assert "release consistency" in result.text


class TestRunMemoization:
    def test_run_returns_record(self):
        record = run("GE", "quick", base_config())
        assert isinstance(record, RunRecord)
        assert record.exec_time > 0
        assert record.coherence_violations == 0

    def test_run_is_memoized(self):
        first = run("GE", "quick", base_config())
        second = run("GE", "quick", base_config())
        assert first is second


class RecordingRecords(dict):
    """The records a render sees, noting every label it reads."""

    def __init__(self, records):
        super().__init__(records)
        self.read = set()

    def __getitem__(self, label):
        self.read.add(label)
        return super().__getitem__(label)


class TestDeclarations:
    def test_renders_read_exactly_their_declared_runs(self):
        # shares the in-process memo with test_claims, which runs first;
        # 133 distinct runs: runs shared between experiments count once
        results, counters = run_experiments(list(EXPERIMENTS))
        assert counters["runs"] == 133
        for (exp_id, exp), result in zip(EXPERIMENTS.items(), results):
            runs = exp.runs("quick")
            records = RecordingRecords({
                label: run(app, "quick", config, overrides)
                for label, (app, config, overrides) in runs.items()
            })
            text, _data = exp.render("quick", records)
            assert records.read == set(runs), exp_id
            assert (result.exp_id, result.text) == (exp_id, text)

    def test_render_reading_an_undeclared_run_raises(self, monkeypatch):
        def simulate(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("an undeclared run was simulated")

        monkeypatch.setattr(common, "execute", simulate)
        monkeypatch.setitem(EXPERIMENTS, "F3", dataclasses.replace(
            EXPERIMENTS["F3"], runs=no_runs))
        with pytest.raises(KeyError):
            run_experiments(["F3"])


class TestNetworkModelAgreement:
    def test_a8_fabric_within_ten_percent_of_flit_reference(self):
        # the network models must agree within a few percent on every
        # microbenchmark and end-to-end run
        (result,), _counters = run_experiments(["A8"])
        assert result.data
        for label, entry in result.data.items():
            ratio = entry["fabric"] / entry["flit_ref"]
            assert 0.9 <= ratio <= 1.1, (label, entry)


class TestCli:
    @pytest.fixture(autouse=True)
    def disk_cache_stays_off(self):
        # `main` enables the disk cache unless --no-cache; later tests
        # must keep simulating live
        yield
        runcache.set_enabled(False)

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E5" in out and "T2" in out

    def test_run_requires_selection(self, capsys):
        assert main(["run"]) == 2

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["run", "--exp", "E99"]) == 2

    def test_run_single_static(self, capsys):
        assert main(["run", "--exp", "T1"]) == 0
        out = capsys.readouterr().out
        assert "CAESAR" in out

    def test_parser_scale_choices(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--all", "--scale", "full"])
        assert args.scale == "full"
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--scale", "huge"])

    def test_parallel_run_prints_the_serial_reports(self, capsys,
                                                    monkeypatch):
        bodies = []
        for jobs in ("1", "2"):
            monkeypatch.setattr(common, "_CACHE", {})  # simulate every run
            assert main(["run", "--exp", "F3", "--exp", "E9", "--no-cache",
                         "--jobs", jobs]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].startswith(
                "runs: 12 distinct (0 memoized, 0 from disk cache, "
                f"12 simulated, jobs={jobs})"
            )
            bodies.append(lines[1:])
        assert bodies[0] == bodies[1]
        assert "== E9: Hits by stage ==" in bodies[0]
