"""Handler-exhaustiveness rules over the extracted message-flow graph.

* **F-UNHANDLED** — a kind is sent somewhere, but the dispatch path it
  would take has no arm for it.  With per-node routers (``_dispatch``)
  present, each sent kind is pushed through every router: the first arm
  whose guard covers the kind decides where it lands (a forwarded
  ``<recv>.receive(...)`` target must resolve, through
  ``RECEIVER_ATTRS``, to a receiver with an arm for it; a local
  ``self._on_x`` arm counts as handled; a raising else rejects it).
  Without routers, any receiver arm anywhere suffices.
* **F-ORPHAN** — a kind has a handler arm but is never sent: the arm is
  unreachable protocol surface (usually a leftover from a removed
  transition).
* **F-DEAD** — a kind is declared in ``MsgKind`` but neither sent nor
  handled.  Declared-but-unused kinds keep the header type space honest;
  intentional placeholders carry a ``# repro: allow[F-DEAD]``.
* **F-NOELSE** — a terminal ``receive`` dispatcher whose guard chain can
  fall through silently (no else arm, or an else that does not raise):
  an unexpected worm must fail loudly, not vanish.
"""

from __future__ import annotations

from typing import List, Optional

from ..framework import AnalysisContext, Finding, Rule, register
from .flowgraph import (
    RECEIVER_ATTRS,
    FlowGraph,
    FuncInfo,
    Site,
    build_flowgraph,
)


def _route_findings(
    graph: FlowGraph, router: FuncInfo, kind: str
) -> List[Finding]:
    """Findings for one sent kind pushed through one router."""
    for arm in router.arms:
        if arm.kinds is not None and kind not in arm.kinds:
            continue
        # the first arm whose guard covers the kind (or the else arm)
        # decides, mirroring the runtime elif chain
        if arm.router_targets:
            findings: List[Finding] = []
            for attr, line in arm.router_targets:
                cls = RECEIVER_ATTRS.get(attr)
                receiver = graph.receivers.get(cls) if cls is not None else None
                if receiver is None:
                    findings.append(Finding(
                        "F-UNHANDLED", router.rel_path, line,
                        f"MsgKind.{kind} is routed by {router.qualname} "
                        f"to {attr}.receive, which RECEIVER_ATTRS does "
                        f"not resolve to a receiver class",
                    ))
                    continue
                fn, arm_kinds = receiver
                if kind not in arm_kinds:
                    findings.append(Finding(
                        "F-UNHANDLED", fn.rel_path, fn.lineno,
                        f"MsgKind.{kind} is sent and routed to "
                        f"{fn.qualname} by {router.qualname}, but no "
                        f"arm handles it",
                    ))
            return findings
        if arm.calls or arm.sends:
            return []  # handled locally by the router's own arm
        if arm.kinds is None and arm.raises:
            return [Finding(
                "F-UNHANDLED", router.rel_path, router.lineno,
                f"MsgKind.{kind} is sent but {router.qualname} rejects "
                f"it (falls into the raising else arm)",
            )]
        return []
    return [Finding(
        "F-UNHANDLED", router.rel_path, router.lineno,
        f"MsgKind.{kind} is sent but no arm of {router.qualname} "
        f"covers it",
    )]


class UnhandledKindRule(Rule):
    id = "F-UNHANDLED"
    title = "every sent MsgKind reaches a handler arm"

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        graph = build_flowgraph(ctx)
        if not graph.kinds:
            return []
        handled = graph.handled_kinds()
        findings: List[Finding] = []
        for kind in graph.kinds:
            sites = graph.sends.get(kind)
            if not sites:
                continue
            if graph.routers:
                for router in graph.routers:
                    findings.extend(_route_findings(graph, router, kind))
            elif kind not in handled:
                path, line = sites[0]
                findings.append(Finding(
                    "F-UNHANDLED", path, line,
                    f"MsgKind.{kind} is sent but no receiver arm "
                    f"handles it",
                ))
        return findings


class OrphanKindRule(Rule):
    id = "F-ORPHAN"
    title = "every handled MsgKind is actually sent"

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        graph = build_flowgraph(ctx)
        findings: List[Finding] = []
        for kind in graph.kinds:
            if kind in graph.sends:
                continue
            site: Optional[Site] = graph.handled_kinds().get(kind)
            if site is not None:
                path, line = site
                findings.append(Finding(
                    "F-ORPHAN", path, line,
                    f"MsgKind.{kind} has a handler arm but is never "
                    f"sent (dead protocol surface)",
                ))
        return findings


class DeadKindRule(Rule):
    id = "F-DEAD"
    title = "every declared MsgKind is sent or handled"

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        graph = build_flowgraph(ctx)
        handled = graph.handled_kinds()
        findings: List[Finding] = []
        for kind in graph.kinds:
            if kind in graph.sends or kind in handled:
                continue
            findings.append(Finding(
                "F-DEAD", graph.enum_path, graph.kind_lines[kind],
                f"MsgKind.{kind} is declared but never sent nor "
                f"handled",
            ))
        return findings


class NoElseRule(Rule):
    id = "F-NOELSE"
    title = "terminal receive dispatchers reject unknown kinds loudly"

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        graph = build_flowgraph(ctx)
        findings: List[Finding] = []
        for _cls, (fn, _arm_kinds) in sorted(graph.receivers.items()):
            else_arms = [a for a in fn.arms if a.kinds is None]
            if not else_arms:
                findings.append(Finding(
                    "F-NOELSE", fn.rel_path, fn.lineno,
                    f"{fn.qualname} has no else arm: an unexpected "
                    f"kind would be dropped silently",
                ))
            elif not any(a.raises for a in else_arms):
                findings.append(Finding(
                    "F-NOELSE", fn.rel_path, fn.lineno,
                    f"{fn.qualname}'s else arm does not raise: an "
                    f"unexpected kind would be consumed silently",
                ))
        return findings


register(UnhandledKindRule())
register(OrphanKindRule())
register(DeadKindRule())
register(NoElseRule())
