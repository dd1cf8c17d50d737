"""Shared test fixtures and helpers."""

from __future__ import annotations

from typing import Dict, List, Sequence

import pytest

from repro.apps.base import Op
from repro.apps.scripted import ScriptedApp, monotone_read_problems
from repro.system.config import SystemConfig
from repro.system.machine import Machine


def tiny_config(**overrides) -> SystemConfig:
    """A 4-node machine with small caches (fast protocol tests)."""
    defaults = dict(
        num_nodes=4,
        l1_size=1024,
        l2_size=4096,
        quantum=100,
        trace_values=True,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def run_scripted(
    scripts: Dict[int, Sequence[Op]],
    config: SystemConfig = None,
    **app_kwargs,
):
    """Run a ScriptedApp; returns (machine, stats)."""
    config = config if config is not None else tiny_config()
    machine = Machine(config)
    stats = machine.run(ScriptedApp(scripts, **app_kwargs))
    return machine, stats


def all_barrier(procs: int, bid: int) -> Dict[int, List[Op]]:
    return {p: [("barrier", bid)] for p in range(procs)}


def assert_coherent(machine: Machine) -> None:
    problems = machine.check_coherence()
    assert problems == [], problems


def assert_monotonic_reads(machine: Machine) -> None:
    """Per (processor, block), observed versions never go backward."""
    problems = monotone_read_problems(machine)
    assert not problems, problems[0]


@pytest.fixture
def machine4() -> Machine:
    return Machine(tiny_config())
