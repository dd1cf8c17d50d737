"""Correctness tooling for the simulator (``repro.verify``).

Run everything at once with ``python -m repro.verify`` (static rules +
explorer smoke, aggregated exit code); ``--static-only`` runs the static
gate alone.  The individual analyzers:

* flowcheck, the static analysis gate: every rule of the unified
  framework (:mod:`repro.verify.framework`, rules under
  :mod:`repro.verify.rules`) over one source tree.  Handler
  exhaustiveness (F-*) and lane-dependency deadlock freedom (C-*) over
  the MsgKind send/receive graph and the lane tables read from that
  tree, hot-path purity (P-*) for the inlined regions, and determinism
  (W/R/S/H/L/B/N) over the kernel packages.  Any unsuppressed finding
  fails; a single finding is silenced in place with
  ``# repro: allow[RULE-ID]``.

* :mod:`repro.verify.explore` — delay-bounded exploration of the real
  protocol handlers: each built-in script runs on a sanitized 4-node
  machine under the trunk schedule and every schedule that holds at
  most two fabric deliveries back, checked by SCSan, the coherence
  audit and monotone reads.

* :mod:`repro.verify.sanitize` — "SCSan", an opt-in runtime invariant
  layer hooked into :class:`~repro.system.machine.Machine`
  (``--sanitize`` on the CLIs, ``REPRO_SANITIZE=1`` in the
  environment) that re-checks the same invariants during live
  simulation plus flit conservation and write-buffer
  drain-before-release ordering.
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
from .explore import Exploration, Failure, explore
from .sanitize import SanitizedFabric, Sanitizer

__all__ = [
    "AnalysisContext",
    "Exploration",
    "Failure",
    "Finding",
    "Report",
    "Rule",
    "SanitizedFabric",
    "Sanitizer",
    "all_rules",
    "explore",
    "load_context",
    "run_rules",
]
