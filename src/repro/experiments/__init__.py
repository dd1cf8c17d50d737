"""Per-table/figure experiment harness (see DESIGN.md Sec. 4)."""

from .common import (
    APP_ORDER,
    APP_SCALES,
    ExperimentResult,
    RunRecord,
    clear_cache,
    config_key,
    execute,
    make_app,
    run,
    run_key,
)
from .registry import EXPERIMENTS, Experiment, run_experiments

__all__ = [
    "APP_ORDER",
    "APP_SCALES",
    "ExperimentResult",
    "RunRecord",
    "clear_cache",
    "config_key",
    "execute",
    "make_app",
    "run",
    "run_key",
    "EXPERIMENTS",
    "Experiment",
    "run_experiments",
]
