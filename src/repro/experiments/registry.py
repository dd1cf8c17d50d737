"""Experiment declarations and the one executor that runs them.

Each experiment (DESIGN.md Sec. 4) is declared once: ``runs(scale)``
names every simulation it needs as ``label -> (app, config,
app overrides)``, and ``render(scale, records)`` builds the report text
and raw data from those runs' :class:`RunRecord` s, each bound to its
label.  :func:`run_experiments` resolves the union of the declared runs
once and renders every experiment from a mapping holding only its own
labels: a render that reads an undeclared run raises ``KeyError``
instead of simulating it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Hashable, Iterable, List, Tuple

from . import ablations, common, runners
from .common import ExperimentResult, Run, RunRecord


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One table, figure or ablation, declared once."""

    exp_id: str
    #: long title (``repro-experiments list``)
    title: str
    #: short title (the rendered report's header)
    result_title: str
    runs: Callable[[str], Dict[Hashable, Run]]
    render: Callable[[str, Dict[Hashable, RunRecord]], Tuple[str, Dict]]


EXPERIMENTS: Dict[str, Experiment] = {exp.exp_id: exp for exp in (
    Experiment("T1", "CAESAR access operations and delays",
               "CAESAR access delays", runners.no_runs, runners.render_t1),
    Experiment("T2", "Simulation parameters and application inputs",
               "Simulation parameters", runners.no_runs, runners.render_t2),
    Experiment("F3", "Read sharing pattern", "Read sharing pattern",
               runners.base_runs, runners.render_f3),
    Experiment("F4", "Ideal global cache hit rate", "Ideal global cache",
               runners.base_runs, runners.render_f4),
    Experiment("F5", "Base-system remote read latency breakdown",
               "Latency breakdown", runners.base_runs, runners.render_f5),
    Experiment("E1", "Read service distribution", "Read service distribution",
               runners.runs_e1, runners.render_e1),
    Experiment("E2", "Reduction in reads served at remote memory",
               "Remote read reduction", runners.runs_e2, runners.render_e2),
    Experiment("E3", "Mean remote read latency: base vs NC vs SC",
               "Remote read latency", runners.runs_e3_e4, runners.render_e3),
    Experiment("E4", "Read stall time normalized to base",
               "Read stall time", runners.runs_e3_e4, runners.render_e4),
    Experiment("E5", "Normalized execution time", "Normalized execution time",
               runners.runs_e5, runners.render_e5),
    Experiment("E6", "Switch-cache size sensitivity",
               "Cache size sensitivity", runners.runs_e6, runners.render_e6),
    Experiment("E7", "CAESAR vs CAESAR+ (banked)", "CAESAR vs CAESAR+",
               runners.runs_e7, runners.render_e7),
    Experiment("E8", "Data-array output width", "Output width",
               runners.runs_e8, runners.render_e8),
    Experiment("E9", "Switch-cache hits by MIN stage", "Hits by stage",
               runners.runs_e9, runners.render_e9),
    # ablations beyond the paper's figures (DESIGN.md Sec. 4)
    Experiment("A1", "Ablation: caching-stage placement",
               "Stage placement ablation", ablations.runs_a1, ablations.render_a1),
    Experiment("A2", "Ablation: robustness-policy thresholds",
               "Policy threshold ablation", ablations.runs_a2, ablations.render_a2),
    Experiment("A3", "Ablation: switch-cache associativity",
               "Associativity ablation", ablations.runs_a3, ablations.render_a3),
    Experiment("A4", "Ablation: system-size scaling",
               "System size scaling", ablations.runs_a4, ablations.render_a4),
    Experiment("A6", "Ablation: cluster organization (procs per node)",
               "Cluster organization", ablations.runs_a6, ablations.render_a6),
    Experiment("A7", "Ablation: switch-cache replacement policy",
               "Replacement policy", ablations.runs_a7, ablations.render_a7),
    Experiment("A8", "Validation: message-level vs flit-level network",
               "Network model validation", ablations.runs_a8, ablations.render_a8),
)}


def run_experiments(
    exp_ids: Iterable[str], scale: str = "quick", jobs: int = 1,
) -> Tuple[List[ExperimentResult], Dict[str, int]]:
    """Run and render the given experiments, in order.

    Resolves the union of their declared runs once (see
    :func:`common.resolve` for the lookup order and the counters it
    returns alongside the results), then renders each experiment from
    its own labels only.
    """
    declared = [(EXPERIMENTS[exp_id], EXPERIMENTS[exp_id].runs(scale))
                for exp_id in exp_ids]
    records, counters = common.resolve(
        (run for _exp, runs in declared for run in runs.values()),
        scale, jobs,
    )
    results = []
    for exp, runs in declared:
        text, data = exp.render(scale, {
            label: records[common.run_key(app, scale, config, overrides)]
            for label, (app, config, overrides) in runs.items()
        })
        results.append(
            ExperimentResult(exp.exp_id, exp.result_title, text, data)
        )
    return results, counters

