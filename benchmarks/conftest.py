"""Shared fixtures for the benchmark harness.

``bench_experiments.py`` regenerates every table/figure of the paper
(see DESIGN.md Sec. 4), one parametrised test per experiment id, through
the same executor as the CLI (``repro.experiments.run_experiments``).
Simulation runs are memoized inside ``repro.experiments.common``, so the
whole harness executes each distinct (app, config) machine exactly once
per pytest session; reports are written to
``benchmarks/output/<exp-id>.txt`` for inspection.

Two options speed the harness up further (DESIGN.md):

* the on-disk run cache (``results/.runcache/``) persists completed
  runs across pytest sessions — disable with ``--no-runcache``;
* with ``--jobs N`` each experiment simulates the runs it declares
  that are not cached yet over N worker processes.
"""

from __future__ import annotations

import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--jobs", type=int, default=1, metavar="N",
        help="simulate each experiment's runs over N worker processes",
    )
    parser.addoption(
        "--no-runcache", action="store_true",
        help="do not read or write the on-disk run cache",
    )


@pytest.fixture(scope="session", autouse=True)
def run_cache(request: pytest.FixtureRequest) -> None:
    """Enable the on-disk run cache unless ``--no-runcache``."""
    from repro.experiments import runcache

    runcache.set_enabled(not request.config.getoption("--no-runcache"))


@pytest.fixture(scope="session")
def jobs(request: pytest.FixtureRequest) -> int:
    return request.config.getoption("--jobs")


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def scale() -> str:
    """Input scale used by the benchmark harness."""
    return "quick"


def save_report(report_dir: pathlib.Path, result) -> None:
    path = report_dir / f"{result.exp_id}.txt"
    path.write_text(f"{result}\n")
