"""Shared machinery for the per-figure/table experiment runners.

Experiments come in two scales:

* ``quick`` — small inputs for CI and the tests (each simulation
  finishes in roughly a second);
* ``full``  — the paper-scale inputs used to produce EXPERIMENTS.md
  (larger-than-L2 working sets, which is where the remote-access
  phenomena the paper reports fully develop).

Runs are memoized per process: most experiments reuse the same
(base, network-cache, switch-cache) simulations, so ``run --all``
executes each distinct machine exactly once.  Below the in-process memo
sits the **on-disk run cache** (:mod:`repro.experiments.runcache`):
completed runs persist across processes, keyed by the full config.
:func:`resolve` looks each run up in both layers and simulates the
rest, serially or over a process pool (see DESIGN.md); pool workers
return ``RunRecord.to_payload()`` dicts, the same canonical payload the
disk cache stores, so pooled and serial runs give bit-identical records.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Dict, Hashable, Iterable, Iterator, Optional, Tuple

from ..apps import PAPER_APPS
from ..sim.resource import pooled_queueing_delay
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


#: one simulation: (app, config, app-input overrides or None)
Run = Tuple[str, SystemConfig, Optional[Dict]]


def grid(
    configs: Dict[Hashable, SystemConfig], apps: Iterable[str] = APP_ORDER,
) -> Dict[Tuple, Run]:
    """Declared runs of every app on every config, labelled ``(app, tag)``."""
    return {(app, tag): (app, config, None)
            for app in apps for tag, config in configs.items()}


@dataclasses.dataclass
class RunRecord:
    """Everything an experiment needs from one finished simulation."""

    app: str
    scale: str
    config_label: str
    stats: MachineStats
    switch_totals: Dict[str, int]
    mean_data_queue: float
    coherence_violations: int
    #: the latency histograms collected during the run
    metrics: MetricsRegistry

    @property
    def exec_time(self) -> Optional[int]:
        return self.stats.exec_time

    # ------------------------------------------------------------------
    # serialization: process-pool transport and the on-disk run cache
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict:
        """JSON-serializable payload capturing this record exactly."""
        return {
            "app": self.app,
            "scale": self.scale,
            "config_label": self.config_label,
            "stats": self.stats.to_payload(),
            "switch_totals": dict(self.switch_totals),
            "mean_data_queue": self.mean_data_queue,
            "coherence_violations": self.coherence_violations,
            "metrics": self.metrics.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "RunRecord":
        """Rebuild a record from :meth:`to_payload` output."""
        return cls(
            app=payload["app"],
            scale=payload["scale"],
            config_label=payload["config_label"],
            stats=MachineStats.from_payload(payload["stats"]),
            switch_totals=dict(payload["switch_totals"]),
            mean_data_queue=payload["mean_data_queue"],
            coherence_violations=payload["coherence_violations"],
            metrics=MetricsRegistry.from_payload(payload["metrics"]),
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
    executor's pool workers call this and ship the payload back.
    """
    # histograms only: no sample_interval, so the registry adds zero
    # simulator events and the run stays byte-identical with/without it
    metrics = MetricsRegistry()
    machine = Machine(config, metrics=metrics)
    stats = machine.run(make_app(app_name, scale, app_overrides))
    return RunRecord(
        app=app_name,
        scale=scale,
        config_label=config.label(),
        stats=stats,
        switch_totals=machine.switch_cache_stats(),
        mean_data_queue=pooled_queueing_delay(
            port
            for engine in machine.fabric.cache_engines
            for port in engine.data_ports
        ),
        coherence_violations=len(machine.check_coherence()),
        metrics=metrics,
    )


def _worker(app_name: str, scale: str, config: SystemConfig,
            app_overrides: Optional[Dict]) -> Dict:
    """Pool worker: simulate one run, ship back its canonical payload."""
    return execute(app_name, scale, config, app_overrides).to_payload()


def _simulate(
    todo: Dict[Tuple, Run], scale: str, jobs: int
) -> Iterator[Tuple[Tuple, RunRecord]]:
    """Simulate every run in ``todo``, yielding ``(key, record)``."""
    if jobs <= 1 or len(todo) <= 1:
        for key, (app, config, overrides) in todo.items():
            yield key, execute(app, scale, config, overrides)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
        futures = {
            pool.submit(_worker, app, scale, config, overrides): key
            for key, (app, config, overrides) in todo.items()
        }
        for future in as_completed(futures):
            yield futures[future], RunRecord.from_payload(future.result())


def resolve(
    runs: Iterable[Run], scale: str, jobs: int = 1,
) -> Tuple[Dict[Tuple, RunRecord], Dict[str, int]]:
    """The record of every distinct run in ``runs``, by :func:`run_key`.

    Lookup order: the in-process memo, then the on-disk run cache (when
    enabled), then a simulation, serial or over ``jobs`` pool workers,
    whose record the parent stores in both layers.  Also returns
    counters: ``runs`` (distinct), ``memo``/``disk`` (already done) and
    ``executed``.  Each run probes the disk cache at most once, so
    ``runcache.stats()`` reconciles with them.
    """
    records: Dict[Tuple, RunRecord] = {}
    todo: Dict[Tuple, Run] = {}
    counters = {"runs": 0, "memo": 0, "disk": 0, "executed": 0}
    for app, config, overrides in runs:
        key = run_key(app, scale, config, overrides)
        if key in records or key in todo:
            continue
        counters["runs"] += 1
        if key in _CACHE:
            records[key] = _CACHE[key]
            counters["memo"] += 1
            continue
        payload = runcache.load(app, scale, config, overrides)
        if payload is None:
            todo[key] = (app, config, overrides)
            continue
        records[key] = _CACHE[key] = RunRecord.from_payload(payload)
        counters["disk"] += 1
    for key, record in _simulate(todo, scale, jobs):
        app, config, overrides = todo[key]
        records[key] = _CACHE[key] = record
        runcache.store(app, scale, config, record.to_payload(), overrides)
        counters["executed"] += 1
    return records, counters


def run(
    app_name: str, scale: str, config: SystemConfig,
    app_overrides: Optional[Dict] = None,
) -> RunRecord:
    """Run (or fetch the memoized or cached run of) one app on one config."""
    records, _counters = resolve([(app_name, config, app_overrides)], scale)
    return records[run_key(app_name, scale, config, app_overrides)]


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

    def __str__(self) -> str:
        return f"== {self.exp_id}: {self.title} ==\n{self.text}"
