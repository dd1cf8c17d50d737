"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402


def run_cli(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def result_line(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(declared, trace, section):
    proc = run_cli("--workload", "paper-sc16", "--seed", "1", "--seconds", "0",
                   "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench.MIN_PASSES
    expected = {m["name"]: m["unit"] for m in declared[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for name in expected:  # every metric is also printed by name
        assert any(line.split()[:1] == [name]
                   for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_runs_pass_every_check(workload):
    result = bench.measure(workload, bench.DEFAULT_SEED, 0, trace=True,
                           size="tiny", pins=bench.load_pins())
    assert result.pinned
    assert result.correct, result.problems
    assert result.attempted == (bench.MIN_PASSES + 1) * len(result.counts)
    metrics = bench.end_to_end(result)
    assert all(value > 0 for value, _unit in metrics.values())


def test_corrupted_pin_is_a_failed_run():
    pins = copy.deepcopy(bench.load_pins())
    pins["tiny"]["paper-sc16"]["GE"]["exec_time"] += 1
    result = bench.measure("paper-sc16", bench.DEFAULT_SEED, 0, size="tiny",
                           pins=pins)
    assert not result.correct
    assert result.failed == bench.MIN_PASSES  # every GE run, nothing else
    assert all("/GE: exec_time" in p for p in result.problems)


def test_run_that_raises_is_a_failed_run(monkeypatch):
    from repro.system.machine import Machine

    def broken(self, app, max_cycles=None):
        raise RuntimeError("injected")

    monkeypatch.setattr(Machine, "run", broken)
    result = bench.measure("random-sc16", bench.DEFAULT_SEED, 0, size="tiny",
                           pins=bench.load_pins())
    assert result.failed == result.attempted == bench.MIN_PASSES
    assert not result.correct and not result.passes


def test_seed_moves_random_workload_only():
    for workload in bench.WORKLOADS:
        first, second = (
            bench.measure(workload, seed, 0, size="tiny", pins=None)
            for seed in (1, 2)
        )
        assert first.correct and second.correct
        same = {k: bench.simulated(v) for k, v in first.counts.items()} == {
            k: bench.simulated(v) for k, v in second.counts.items()}
        assert same != bench.uses_seed(workload), workload


def test_other_seeds_are_not_pinned():
    result = bench.measure("random-sc16", 2, 0, size="tiny",
                           pins=bench.load_pins())
    assert result.correct and not result.pinned


def test_profile_folds_into_layers_and_sums_to_total():
    result = bench.measure("stream-base4", 1, 0, trace=True, size="tiny",
                           pins=None)
    traced = result.traced
    assert set(traced["self_s"]) == set(bench.LAYERS) | {"other"}
    assert traced["self_s"]["node"] > 0 and traced["self_s"]["other"] > 0
    assert result.identity_ok
    names = [span["name"].split(":")[0] for span in traced["spans"]]
    assert names[:3] == ["pass", "setup", "run"] and "check" in names
    assert bench.per_layer(result)["trace.overhead"][0] > 0


@pytest.mark.parametrize("variable", bench.FORBIDDEN_ENV)
def test_refuses_to_run_with_layer_switch_set(variable):
    env = dict(os.environ, **{variable: "1"})
    proc = run_cli("--workload", "random-sc16", "--seconds", "0",
                   "--size", "tiny", env=env)
    assert proc.returncode != 0
    assert variable in proc.stderr
    assert "{" not in proc.stdout


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_cli("--workload", "paper-sc16", "--seconds", "1",
                   cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
