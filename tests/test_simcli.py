"""Tests for the repro-sim command-line interface."""

import pytest

from repro.simcli import build_parser, main


class TestParser:
    def test_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--design", "sc"])

    def test_design_choices(self):
        args = build_parser().parse_args(["--app", "GE", "--design", "sc+"])
        assert args.design == "sc+"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--app", "GE", "--design", "huge"])

    def test_bad_param_rejected_at_run(self):
        with pytest.raises(SystemExit):
            main(["--app", "GE", "--param", "nonsense"])


class TestUsageErrors:
    """Bad input exits 2 with a one-line ``repro-sim: error:``, no traceback."""

    def _usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err.splitlines()[-1]

    def test_app_is_required(self, capsys):
        line = self._usage_error(["--design", "sc"], capsys)
        assert line == ("repro-sim: error: the following arguments are "
                        "required: --app")

    def test_nodes_not_a_power_of_two(self, capsys):
        line = self._usage_error(["--app", "GE", "--nodes", "3"], capsys)
        assert line == ("repro-sim: error: num_nodes must be a power of two "
                        ">= 2, got 3")

    def test_unknown_app_param(self, capsys):
        line = self._usage_error(["--app", "GE", "--param", "bogus=1"], capsys)
        assert line == "repro-sim: error: --param bogus: GE takes n, work_per_elem"

    def test_switch_cache_size_not_a_set_multiple(self, capsys):
        line = self._usage_error(
            ["--app", "GE", "--design", "sc", "--sc-size", "1000"], capsys)
        assert line.startswith("repro-sim: error: switch_cache size 1000 ")



class TestRuns:
    def test_base_run(self, capsys):
        rc = main(["--app", "GE", "--param", "n=8", "--nodes", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "execution time:" in out
        assert "design: base" in out

    def test_switch_cache_run_verbose(self, capsys):
        rc = main(["--app", "GE", "--param", "n=12", "--nodes", "4",
                   "--design", "sc", "--sc-size", "1024", "--verbose"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "switch caches:" in out
        assert "switch" in out

    def test_netcache_run(self, capsys):
        rc = main(["--app", "MM", "--param", "n=8", "--nodes", "4",
                   "--design", "nc"])
        assert rc == 0
        assert "design: NC-" in capsys.readouterr().out

    def test_trace_and_metrics_outputs(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "ge.json"
        jsonl_path = tmp_path / "ge.jsonl"
        metrics_path = tmp_path / "ge-metrics.json"
        rc = main(["--app", "GE", "--param", "n=8", "--nodes", "4",
                   "--design", "sc", "--sc-size", "512",
                   "--trace", str(trace_path),
                   "--trace-jsonl", str(jsonl_path),
                   "--metrics", str(metrics_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "metrics:" in out
        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"]
        metrics = json.loads(metrics_path.read_text())
        assert any(k.startswith("read_latency/") for k in metrics["histograms"])
        assert metrics["series"]
        lines = jsonl_path.read_text().splitlines()
        assert lines and all(json.loads(line)["name"] for line in lines)


class TestMachineSummary:
    def test_summary_renders_after_run(self):
        from repro.apps import GaussianElimination
        from repro.system.config import SystemConfig
        from repro.system.machine import Machine

        machine = Machine(SystemConfig(num_nodes=4, l1_size=1024,
                                       l2_size=4096, switch_cache_size=512))
        machine.run(GaussianElimination(n=8))
        text = machine.summary()
        assert "execution time:" in text
        assert "switch caches:" in text
        assert "Read latency by service class" in text

    def test_summary_before_run(self):
        from repro.system.config import SystemConfig
        from repro.system.machine import Machine

        machine = Machine(SystemConfig(num_nodes=4))
        text = machine.summary()
        assert "machine:" in text


class TestExperimentsJsonExport:
    def test_json_written_and_parseable(self, tmp_path, capsys):
        import json

        from repro.experiments.cli import main as exp_main

        rc = exp_main(["run", "--exp", "T1", "--json", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "T1.json").read_text())
        assert payload["id"] == "T1"
        assert payload["data"]["rows"]

    def test_tuple_keys_stringified(self):
        from repro.experiments.cli import _jsonify

        data = {("GE", 64): {"x": 1}, "plain": [1, (2, 3)]}
        out = _jsonify(data)
        assert out["GE|64"] == {"x": 1}
        assert out["plain"] == [1, [2, 3]]
