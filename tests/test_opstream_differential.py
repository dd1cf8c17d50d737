"""Lockstep differential: ``REPRO_OPS=compiled`` vs ``gen``.

The compiled front end (integer-coded op chunks + stride superops,
DESIGN.md §13) promises *bit identity* with the generator path: same
statistics, same simulated timing, same value traces, same event count.
These tests run every paper kernel under both front ends across the
protocol / switch-cache matrix and compare complete run fingerprints.

The small app scales here are chosen so the whole matrix stays in
tier-1 time; at full scale, ``perfbench/pins.json`` pins the default
(compiled) path's statistics on every CI run.
"""

import pytest

from repro.apps.opstream import OPS_ENV
from repro.apps.synthetic import PrivateWork, UniformRandom
from repro.experiments.common import make_app
from repro.system.machine import Machine
from repro.system.presets import base_config, switch_cache_config

#: small instances of the six paper kernels — big enough to cross
#: block/chunk boundaries and fill the write buffer, small enough that
#: the 24-cell matrix stays cheap
SMALL_SCALE = {
    "FWA": {"n": 12},
    "GS": {"n_vectors": 8, "length": 12},
    "GE": {"n": 12},
    "MM": {"n": 12},
    "SOR": {"n": 16, "iterations": 1},
    "FFT": {"m": 8},
}

APPS = sorted(SMALL_SCALE)
PROTOCOLS = ("msi", "mesi")
SWITCH = ("off", "on")


def _config(protocol, switch, **overrides):
    if switch == "on":
        return switch_cache_config(4, protocol=protocol, **overrides)
    return base_config(4, protocol=protocol, **overrides)


def _small_app(name):
    return make_app(name, "quick", SMALL_SCALE[name])


def fingerprint(config, app, mode, monkeypatch):
    """Everything observable from one run: stats payload, event count,
    per-processor value and write traces."""
    monkeypatch.setenv(OPS_ENV, mode)
    machine = Machine(config, sanitize=False)
    stats = machine.run(app)
    traces = {}
    for stack in machine.stacks():
        traces[("v", stack.proc_id)] = list(stack.processor.value_trace)
        traces[("w", stack.proc_id)] = list(stack.write_trace)
    return stats.to_payload(), machine.sim.events_fired, traces


def assert_identical(config, app_factory, monkeypatch):
    gen = fingerprint(config, app_factory(), "gen", monkeypatch)
    compiled = fingerprint(config, app_factory(), "compiled", monkeypatch)
    assert gen[0] == compiled[0], "stats diverged between front ends"
    assert gen[1] == compiled[1], "event counts diverged between front ends"
    assert gen[2] == compiled[2], "traces diverged between front ends"


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("switch", SWITCH)
@pytest.mark.parametrize("app_name", APPS)
def test_paper_kernels_bit_identical(app_name, protocol, switch, monkeypatch):
    config = _config(protocol, switch)
    assert_identical(config, lambda: _small_app(app_name), monkeypatch)


@pytest.mark.parametrize("app_name", ["GE", "SOR"])
def test_value_tracing_bit_identical(app_name, monkeypatch):
    # trace_values=True takes the per-element paths (bulk retirement is
    # reserved for untraced runs); both modes must still agree
    config = _config("msi", "on", trace_values=True)
    assert_identical(config, lambda: _small_app(app_name), monkeypatch)


def test_object_state_kernels_bit_identical(monkeypatch):
    # the REPRO_STATE=obj reference models lack the slot fast path, so
    # the compiled loop falls back to per-element probes — still
    # bit-identical
    from repro.cache.states import STATE_ENV

    monkeypatch.setenv(STATE_ENV, "obj")
    assert_identical(_config("msi", "on"), lambda: _small_app("GE"),
                     monkeypatch)


def test_synthetic_alias_pattern_bit_identical(monkeypatch):
    # PrivateWork's loop reads and rewrites the same element: the
    # aliased read-before-write slot is the trickiest batch case
    config = _config("msi", "on")
    assert_identical(config, lambda: PrivateWork(), monkeypatch)


def test_synthetic_irregular_stream_bit_identical(monkeypatch):
    # seeded-random streams defeat the peephole almost everywhere:
    # exercises the elementary-op decode loop
    config = _config("msi", "off")
    assert_identical(
        config, lambda: UniformRandom(ops_per_proc=150), monkeypatch
    )
