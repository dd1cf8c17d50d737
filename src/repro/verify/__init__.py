"""Correctness tooling for the simulator (``repro.verify``).

Run everything at once with ``python -m repro.verify`` (static rules +
model-check smoke, aggregated exit code).  The individual analyzers:

* :mod:`repro.verify.flowcheck` — the static analysis gate: every rule
  of the unified framework (:mod:`repro.verify.framework`) over the
  source tree.  Handler exhaustiveness (F-*) and lane-dependency
  deadlock freedom (C-*) over the extracted MsgKind send/receive graph,
  hot-path purity (P-*) for the inlined regions, and determinism
  (W/R/S/H/L/B/N) over the kernel packages.  Any unsuppressed finding
  fails; a single finding is silenced in place with
  ``# repro: allow[RULE-ID]``.
  Run as ``python -m repro.verify.flowcheck``.

* :mod:`repro.verify.modelcheck` — an explicit-state model checker that
  BFS-enumerates the reachable protocol state space for a small
  configuration (1 block x N nodes, with or without a switch cache on
  the reply path) and checks SWMR, directory/cache agreement,
  clean-SHARED switch copies, and absence of stuck states.
  Run as ``python -m repro.verify.modelcheck``.

* :mod:`repro.verify.sanitize` — "SCSan", an opt-in runtime invariant
  layer hooked into :class:`~repro.system.machine.Machine`
  (``--sanitize`` on the CLIs, ``REPRO_SANITIZE=1`` in the
  environment) that re-checks the same invariants during live
  simulation plus flit conservation, event-time monotonicity, and
  write-buffer drain-before-release ordering.
"""

from .framework import (
    AnalysisContext,
    Finding,
    Report,
    Rule,
    all_rules,
    load_context,
    run_rules,
)
from .modelcheck import CheckResult, ModelConfig, ProtocolModel, check
from .sanitize import SanitizedFabric, SanitizedSimulator, Sanitizer

__all__ = [
    "AnalysisContext",
    "CheckResult",
    "Finding",
    "ModelConfig",
    "ProtocolModel",
    "Report",
    "Rule",
    "SanitizedFabric",
    "SanitizedSimulator",
    "Sanitizer",
    "all_rules",
    "check",
    "load_context",
    "run_rules",
]
