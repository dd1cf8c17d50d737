"""Shared machinery for the per-figure/table experiment runners.

Experiments come in two scales:

* ``quick`` — small inputs for CI and the pytest-benchmark harness
  (each simulation finishes in roughly a second);
* ``full``  — the paper-scale inputs used to produce EXPERIMENTS.md
  (larger-than-L2 working sets, which is where the remote-access
  phenomena the paper reports fully develop).

Runs are memoized per process: most experiments reuse the same
(base, network-cache, switch-cache) simulations, so a full harness pass
executes each distinct machine exactly once.  On top of the in-process
memo sit two more layers (see DESIGN.md):

* the **on-disk run cache** (:mod:`repro.experiments.runcache`) —
  completed runs persist across processes, keyed by the full config;
* the **parallel executor** (:mod:`repro.experiments.parallel`) —
  fans the distinct runs an experiment set needs out over a process
  pool and rehydrates this module's memo, so the runners themselves
  stay serial and unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from ..apps import PAPER_APPS
from ..stats.counters import MachineStats
from ..system.config import SystemConfig
from ..system.machine import Machine
from ..trace.metrics import MetricsRegistry
from . import runcache

APP_ORDER = ("FWA", "GS", "GE", "MM", "SOR", "FFT")

#: application input sizes per scale (the paper's Table-2 analogue)
APP_SCALES: Dict[str, Dict[str, Dict[str, int]]] = {
    "quick": {
        "FWA": {"n": 24},
        "GS": {"n_vectors": 16, "length": 24},
        "GE": {"n": 24},
        "MM": {"n": 24},
        "SOR": {"n": 32, "iterations": 2},
        "FFT": {"m": 12},
    },
    "full": {
        "FWA": {"n": 48},
        "GS": {"n_vectors": 32, "length": 48},
        "GE": {"n": 64},
        "MM": {"n": 48},
        "SOR": {"n": 128, "iterations": 3},
        "FFT": {"m": 12},
    },
}


def make_app(name: str, scale: str, overrides: Optional[Dict] = None):
    """Instantiate one of the six paper kernels at the given scale.

    ``overrides`` replaces individual input parameters (e.g. the
    weak-scaling ablation grows GE's matrix with the machine); it is
    part of the run's identity for both caching layers.
    """
    kwargs = dict(APP_SCALES[scale][name])
    if overrides:
        kwargs.update(overrides)
    return PAPER_APPS[name](**kwargs)


@dataclasses.dataclass
class RunRecord:
    """Everything an experiment needs from one finished simulation."""

    app: str
    scale: str
    config_label: str
    exec_time: int
    stats: MachineStats
    switch_totals: Dict[str, int]
    switch_hits_by_stage: Dict[int, int]
    mean_tag_queue: float
    mean_data_queue: float
    ni_queue: float
    coherence_violations: int
    #: latency histograms etc. collected during the run (None for
    #: records cached before the metrics layer existed)
    metrics: Optional[MetricsRegistry] = None

    # ------------------------------------------------------------------
    # serialization: process-pool transport and the on-disk run cache
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict:
        """JSON-serializable payload capturing this record exactly."""
        return {
            "app": self.app,
            "scale": self.scale,
            "config_label": self.config_label,
            "exec_time": self.exec_time,
            "stats": self.stats.to_payload(),
            "switch_totals": dict(self.switch_totals),
            "switch_hits_by_stage": sorted(self.switch_hits_by_stage.items()),
            "mean_tag_queue": self.mean_tag_queue,
            "mean_data_queue": self.mean_data_queue,
            "ni_queue": self.ni_queue,
            "coherence_violations": self.coherence_violations,
            "metrics": (
                self.metrics.to_payload() if self.metrics is not None else None
            ),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "RunRecord":
        """Rebuild a record from :meth:`to_payload` output."""
        return cls(
            app=payload["app"],
            scale=payload["scale"],
            config_label=payload["config_label"],
            exec_time=payload["exec_time"],
            stats=MachineStats.from_payload(payload["stats"]),
            switch_totals=dict(payload["switch_totals"]),
            switch_hits_by_stage={
                int(k): v for k, v in payload["switch_hits_by_stage"]
            },
            mean_tag_queue=payload["mean_tag_queue"],
            mean_data_queue=payload["mean_data_queue"],
            ni_queue=payload["ni_queue"],
            coherence_violations=payload["coherence_violations"],
            metrics=(
                MetricsRegistry.from_payload(payload["metrics"])
                if payload.get("metrics") is not None else None
            ),
        )


_CACHE: Dict[Tuple, RunRecord] = {}


def config_key(config: SystemConfig) -> Tuple:
    """Hashable identity covering **every** ``SystemConfig`` field.

    Derived by walking ``dataclasses.fields`` so a newly added (or newly
    swept) parameter can never silently alias two different configs onto
    one cached run — the on-disk cache fingerprint walks the same fields
    (:func:`repro.experiments.runcache.config_fingerprint`).
    """
    values = []
    for field in dataclasses.fields(SystemConfig):
        value = getattr(config, field.name)
        if isinstance(value, (set, frozenset)):
            value = tuple(sorted(value))
        values.append(value)
    return tuple(values)


def run_key(
    app_name: str, scale: str, config: SystemConfig,
    app_overrides: Optional[Dict] = None,
) -> Tuple:
    """Memo-cache key of one distinct simulation run."""
    overrides = (
        tuple(sorted(app_overrides.items())) if app_overrides else None
    )
    return (app_name, scale, overrides, config_key(config))


def execute(
    app_name: str, scale: str, config: SystemConfig,
    app_overrides: Optional[Dict] = None,
) -> RunRecord:
    """Actually simulate one run (no cache layers).

    Pure function of its arguments: the engine is deterministic, so the
    parallel executor's workers call this and ship the payload back.
    """
    # histograms only: no sample_interval, so the registry adds zero
    # simulator events and the run stays byte-identical with/without it
    metrics = MetricsRegistry()
    machine = Machine(config, metrics=metrics)
    stats = machine.run(make_app(app_name, scale, app_overrides))
    tag_qs, data_qs = [], []
    for switch in machine.fabric.switches.values():
        engine = switch.cache_engine
        if engine is None:
            continue
        tag_qs.append(engine.tag_port.mean_queueing_delay())
        for port in engine.data_ports:
            data_qs.append(port.mean_queueing_delay())
    return RunRecord(
        app=app_name,
        scale=scale,
        config_label=config.label(),
        exec_time=stats.exec_time,
        stats=stats,
        switch_totals=machine.switch_cache_stats(),
        switch_hits_by_stage=dict(stats.switch_hits_by_stage),
        mean_tag_queue=sum(tag_qs) / len(tag_qs) if tag_qs else 0.0,
        mean_data_queue=sum(data_qs) / len(data_qs) if data_qs else 0.0,
        ni_queue=machine.fabric.injection_queue_delay(),
        coherence_violations=len(machine.check_coherence()),
        metrics=metrics,
    )


def run(
    app_name: str, scale: str, config: SystemConfig,
    app_overrides: Optional[Dict] = None,
) -> RunRecord:
    """Run (or fetch the cached run of) one app on one configuration.

    Lookup order: in-process memo, then the on-disk run cache (when
    enabled), then a live simulation (which populates both layers).
    """
    key = run_key(app_name, scale, config, app_overrides)
    record = _CACHE.get(key)
    if record is not None:
        return record
    payload = runcache.load(app_name, scale, config, app_overrides)
    if payload is not None:
        record = RunRecord.from_payload(payload)
    else:
        record = execute(app_name, scale, config, app_overrides)
        runcache.store(
            app_name, scale, config, record.to_payload(), app_overrides
        )
    _CACHE[key] = record
    return record


def memoize(key: Tuple, record: RunRecord) -> None:
    """Install a completed run in the in-process memo (parallel executor)."""
    _CACHE[key] = record


def memoized(key: Tuple) -> Optional[RunRecord]:
    """The memoized record for ``key``, or None."""
    return _CACHE.get(key)


def memoized_keys() -> Tuple:
    """Snapshot of the memo's keys (used by plan-coverage tests)."""
    return tuple(_CACHE)


def clear_cache() -> None:
    """Clear the in-process memo (the disk cache is unaffected)."""
    _CACHE.clear()


@dataclasses.dataclass
class ExperimentResult:
    """A rendered experiment: id, title, report text, raw series."""

    exp_id: str
    title: str
    text: str
    data: Dict

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"== {self.exp_id}: {self.title} ==\n{self.text}"
