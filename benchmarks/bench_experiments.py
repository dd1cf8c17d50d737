"""Regenerate every table and figure of the paper (DESIGN.md Sec. 4)."""

import pytest

from repro.experiments import EXPERIMENTS, run_experiments

from conftest import save_report


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_experiment(benchmark, report_dir, scale, jobs, exp_id):
    results, _counters = benchmark.pedantic(
        run_experiments, args=([exp_id], scale, jobs),
        rounds=1, iterations=1,
    )
    result = results[0]
    save_report(report_dir, result)
    assert result.exp_id == exp_id
    assert result.text
    if exp_id == "A8":
        # the network models must agree within a few percent on every
        # microbenchmark and end-to-end run
        for label, entry in result.data.items():
            ratio = entry["fabric"] / entry["flit_ref"]
            assert 0.9 <= ratio <= 1.1, (label, entry)
