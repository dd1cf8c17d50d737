"""Lane-dependency rules: static deadlock-freedom over the flow graph.

Every :class:`MsgKind` is assigned a virtual *lane* — request (0),
forward (1), or reply (2) — mirroring the virtual-channel classes a
CC-NUMA fabric needs for protocol-level deadlock freedom.  The lanes
are declared next to the enum, in its module's ``REQUEST_LANE``,
``FORWARD_LANE`` and ``REPLY_LANE`` tables, and read from the analysed
tree (:attr:`FlowGraph.lanes`).  The
sufficient condition checked here is the classic one: **handling a
message on lane L may only generate messages on lanes > L**.  If every
edge is strictly increasing, a full reply buffer can always drain
without waiting on requests, so no buffer-dependency cycle exists.

* **C-NOLANE** — a kind the tree declares in no lane table (the lanes
  must stay total or the other rules silently skip edges).
* **C-SAMELANE** — a handler generates a message on its own lane.
* **C-BACKWARD** — a handler generates a message on an *earlier* lane
  (reply -> request is the textbook deadlock ingredient).
* **C-CYCLE** — a cycle in the kind-dependency graph after whitelisted
  edges are removed (strongly connected component of size > 1, or a
  self-loop).

Intentional exceptions (NACK/retry-style edges, the switch-cache
DIR_UPDATE continuation) live in
:mod:`repro.verify.rules.lane_whitelist`, each with a one-line
justification; whitelisted edges are excluded from all three checks.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..framework import AnalysisContext, Finding, Rule, register
from .flowgraph import LANE_TABLES, FlowGraph, build_flowgraph
from .lane_whitelist import WHITELIST

#: lane priorities: handling lane L may only generate lanes > L
LANE_ORDER: Dict[str, int] = {
    lane: i for i, lane in enumerate(LANE_TABLES.values())
}


def _checked_edges(
    graph: FlowGraph,
) -> List[Tuple[str, str, Tuple[str, int]]]:
    """Non-whitelisted edges with lanes assigned, in kind-code order."""
    order = {kind: i for i, kind in enumerate(graph.kinds)}
    lanes = graph.lanes
    edges = [
        (src, dst, site)
        for (src, dst), site in graph.edges.items()
        if (src, dst) not in WHITELIST and src in lanes and dst in lanes
    ]
    edges.sort(key=lambda e: (order.get(e[0], 99), order.get(e[1], 99)))
    return edges


class UnknownLaneRule(Rule):
    id = "C-NOLANE"
    title = "every declared MsgKind has a lane assignment"

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        graph = build_flowgraph(ctx)
        tables = "/".join(LANE_TABLES)
        return [
            Finding(
                "C-NOLANE", graph.enum_path, graph.kind_lines[kind],
                f"MsgKind.{kind} is in no lane table ({tables}) of "
                f"{graph.enum_path} — the deadlock-freedom rules "
                f"cannot classify its edges",
            )
            for kind in graph.kinds
            if kind not in graph.lanes
        ]


class SameLaneRule(Rule):
    id = "C-SAMELANE"
    title = "handlers only generate messages on later lanes (no same-lane)"

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        graph = build_flowgraph(ctx)
        findings: List[Finding] = []
        for src, dst, (path, line) in _checked_edges(graph):
            src_lane = graph.lanes[src]
            if src_lane == graph.lanes[dst]:
                findings.append(Finding(
                    "C-SAMELANE", path, line,
                    f"handling MsgKind.{src} generates MsgKind.{dst} on "
                    f"the same {src_lane} lane — whitelist the edge "
                    f"with a justification or move one kind to another "
                    f"lane",
                ))
        return findings


class BackwardLaneRule(Rule):
    id = "C-BACKWARD"
    title = "handlers never generate messages on earlier lanes"

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        graph = build_flowgraph(ctx)
        findings: List[Finding] = []
        for src, dst, (path, line) in _checked_edges(graph):
            src_lane, dst_lane = graph.lanes[src], graph.lanes[dst]
            if LANE_ORDER[dst_lane] < LANE_ORDER[src_lane]:
                findings.append(Finding(
                    "C-BACKWARD", path, line,
                    f"handling MsgKind.{src} ({src_lane} lane) "
                    f"generates MsgKind.{dst} ({dst_lane} lane) — a "
                    f"backward lane dependency, the classic CC-NUMA "
                    f"deadlock ingredient",
                ))
        return findings


class LaneCycleRule(Rule):
    id = "C-CYCLE"
    title = "the kind-dependency graph is acyclic outside the whitelist"

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        graph = build_flowgraph(ctx)
        adjacency: Dict[str, List[str]] = {}
        sites: Dict[Tuple[str, str], Tuple[str, int]] = {}
        for src, dst, site in _checked_edges(graph):
            adjacency.setdefault(src, []).append(dst)
            sites[(src, dst)] = site
        findings: List[Finding] = []
        for cycle in _cycles(graph.kinds, adjacency):
            first_edge = (cycle[0], cycle[1 % len(cycle)])
            path, line = sites.get(first_edge, (graph.enum_path, 0))
            loop = " -> ".join(cycle + [cycle[0]])
            findings.append(Finding(
                "C-CYCLE", path, line,
                f"message-dependency cycle {loop}: a full buffer on "
                f"any kind in the cycle can block its own drain — "
                f"break the cycle or whitelist every edge with a "
                f"justification",
            ))
        return findings


def _cycles(
    kinds: List[str], adjacency: Dict[str, List[str]]
) -> List[List[str]]:
    """Cyclic strongly connected components (Tarjan, deterministic)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    out: List[List[str]] = []

    def strongconnect(node: str) -> None:
        index[node] = lowlink[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for succ in adjacency.get(node, []):
            if succ not in index:
                strongconnect(succ)
                lowlink[node] = min(lowlink[node], lowlink[succ])
            elif succ in on_stack:
                lowlink[node] = min(lowlink[node], index[succ])
        if lowlink[node] == index[node]:
            component: List[str] = []
            while True:
                popped = stack.pop()
                on_stack.discard(popped)
                component.append(popped)
                if popped == node:
                    break
            component.reverse()
            if (len(component) > 1
                    or component[0] in adjacency.get(component[0], [])):
                out.append(component)

    for kind in kinds:
        if kind in adjacency and kind not in index:
            strongconnect(kind)
    return out


register(UnknownLaneRule())
register(SameLaneRule())
register(BackwardLaneRule())
register(LaneCycleRule())
