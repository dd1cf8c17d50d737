"""Smoke tests for the runnable examples (the cheap ones).

Each example is imported and its ``main()`` executed with stdout
captured; the slow full-size examples (`compare_designs`, `size_sweep`)
are exercised indirectly by the experiment harness instead.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def load_example(name):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_directory_complete():
    present = {p.stem for p in EXAMPLES.glob("*.py")}
    assert {"quickstart", "compare_designs", "size_sweep",
            "custom_workload", "network_anatomy", "clusters"} <= present


def test_network_anatomy_runs(capsys):
    load_example("network_anatomy").main()
    out = capsys.readouterr().out
    assert "Uncontended worm latencies" in out
    assert "Hottest links" in out


def test_clusters_example_runs(capsys):
    load_example("clusters").main()
    out = capsys.readouterr().out
    assert "cluster organizations" in out
    assert "16 x 1" in out


def test_custom_workload_runs(capsys):
    load_example("custom_workload").main()
    out = capsys.readouterr().out
    assert "read service distribution" in out
    assert "switch hits by stage" in out


@pytest.mark.parametrize("name", ["quickstart", "compare_designs",
                                  "size_sweep"])
def test_slow_examples_are_importable(name):
    """Import (without running main) to catch syntax/API drift cheaply."""
    module = load_example(name)
    assert callable(module.main)
