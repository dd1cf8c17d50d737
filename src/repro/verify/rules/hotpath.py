"""Hot-path purity rules: keep the inlined hot regions allocation-free.

The perf passes hand-inlined the event engine, the fabric's per-hop
path, the coded cache kernels, the CAESAR hooks, and the processor front
end.  Nothing at runtime stops a refactor from
quietly reintroducing a dict display, a closure, or an attribute-chain
re-lookup into those regions — benchmarks only catch it after the fact.
These rules are the static gate, scoped to the exact (module, function)
regions listed in :data:`HOT_REGIONS`.

* **P-ALLOC** — list/dict/set displays, comprehensions, generator
  expressions, f-strings, and calls to allocating builtins inside a hot
  region.  Tuples are exempt (constant-folded or stack-built), as is
  everything inside a ``raise`` statement (error paths are cold by
  definition) and inside a tracer guard (``if tracer is not None:`` —
  tracing is off in measured runs).
* **P-CLOSURE** — ``lambda`` or nested ``def`` inside a hot region:
  each one allocates a function object (plus closure cells) per call,
  where the engine takes a bound method and an argument tuple as-is.
* **P-ATTR** — the same ≥2-hop attribute chain (``self.sim.now``) loaded
  more than once in a hot function: each re-lookup is two dict probes
  that a local hoist removes (the idiom every inlined region already
  uses).
* **P-NOSLOTS** — instantiating a class that does not declare
  ``__slots__`` inside a hot region (enums, exceptions, and dataclasses
  are exempt, by the same test rule H uses).
* **P-STALE** — a :data:`HOT_REGIONS` entry whose module or function
  does not exist, so a rename cannot silently drop a region from the
  gate.  Checked only on a whole package (an ``__init__.py`` at the
  scanned root); fixture trees are fragments.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Set, Tuple

from ..framework import (
    AnalysisContext,
    Finding,
    Rule,
    declares_slots,
    dotted_name,
    register,
    slots_exempt,
)

#: module -> the Class.method regions the perf PRs inlined (gate scope)
HOT_REGIONS: Dict[str, FrozenSet[str]] = {
    "sim/engine.py": frozenset({
        "Simulator.call_at", "Simulator.step", "Simulator.run",
        "Simulator.run_until_stop",
    }),
    # the per-worm hop path: injection, the per-kind hop callbacks and
    # their shared grant (_hop), the recorded hop, delivery
    "network/fabric.py": frozenset({
        "Fabric.inject", "Fabric._pick_hop", "Fabric._hop",
        "Fabric._hop_snoop", "Fabric._hop_deposit", "Fabric._hop_intercept",
        "Fabric._arrive", "Fabric._forward", "Fabric._deliver",
    }),
    "network/message.py": frozenset({"MessagePool.make"}),
    "cache/array.py": frozenset({
        "CacheArray.probe_data", "CacheArray.probe_state",
        "CacheArray.lookup_data", "CacheArray.lookup_state",
        "CacheArray.write_owned", "CacheArray.set_data",
        "CacheArray.downgrade_owned", "CacheArray.insert",
        "CacheArray.invalidate",
    }),
    "core/caesar.py": frozenset({
        "CaesarEngine.snoop", "CaesarEngine.try_deposit",
        "CaesarEngine.try_intercept",
    }),
    # the processor front end: the chunk decode loop (DESIGN.md §13)
    "node/processor.py": frozenset({"Processor._run"}),
}

#: builtins whose call allocates a container / sorted copy
ALLOC_CALLS: FrozenSet[str] = frozenset({
    "list", "dict", "set", "frozenset", "sorted", "bytearray", "deque",
    "defaultdict", "OrderedDict", "Counter",
})

#: AST display nodes that allocate (tuples deliberately excluded)
_ALLOC_NODES = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp,
    ast.GeneratorExp, ast.JoinedStr,
)


def _is_tracer_guard(test: ast.AST) -> bool:
    """``if tracer is not None:`` / ``if self._tracer is not None:`` /
    ``if trace_values:`` — observability is off in measured runs, so
    the guarded branch is cold by definition."""
    if isinstance(test, (ast.Name, ast.Attribute)):
        chain = dotted_name(test)
        return chain is not None and "trace" in chain.rsplit(".", 1)[-1]
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return False
    chain = dotted_name(test.left)
    return chain is not None and "tracer" in chain.rsplit(".", 1)[-1]


class _ClassIndex:
    """Slots status of every class defined in the scanned tree."""

    __slots__ = ("slotted", "exempt")

    def __init__(self, ctx: AnalysisContext) -> None:
        self.slotted: Set[str] = set()
        self.exempt: Set[str] = set()
        for module in ctx.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if slots_exempt(node):
                    self.exempt.add(node.name)
                elif declares_slots(node):
                    self.slotted.add(node.name)
                else:
                    # defined somewhere without slots; a same-named
                    # slotted definition elsewhere must not mask it
                    self.slotted.discard(node.name)

    def lacks_slots(self, name: str) -> bool:
        return name not in self.slotted and name not in self.exempt

    def is_class(self, name: str, ctx: AnalysisContext) -> bool:
        if name in self.slotted or name in self.exempt:
            return True
        for module in ctx.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name == name:
                    return True
        return False


def _class_index(ctx: AnalysisContext) -> _ClassIndex:
    cached = ctx.cache.get("hotpath-classes")
    if isinstance(cached, _ClassIndex):
        return cached
    index = _ClassIndex(ctx)
    ctx.cache["hotpath-classes"] = index
    return index


class _HotScan(ast.NodeVisitor):
    """One walk of one hot function, skipping raise/tracer-guard regions."""

    def __init__(self, rel_path: str, qualname: str,
                 classes: _ClassIndex) -> None:
        self.rel_path = rel_path
        self.qualname = qualname
        self.classes = classes
        self.allocs: List[Tuple[int, str]] = []
        self.closures: List[Tuple[int, str]] = []
        self.noslots: List[Tuple[int, str]] = []
        #: maximal ≥2-hop attribute chains -> load sites
        self.chains: Dict[str, List[int]] = {}

    # -- region skips ---------------------------------------------------
    def visit_Raise(self, node: ast.Raise) -> None:
        pass  # error paths are cold: nothing inside a raise is scanned

    def visit_If(self, node: ast.If) -> None:
        if _is_tracer_guard(node.test):
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)

    # -- P-CLOSURE ------------------------------------------------------
    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.closures.append((node.lineno, "lambda"))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.closures.append((node.lineno, f"nested def {node.name}"))
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.closures.append((node.lineno, f"nested def {node.name}"))
        self.generic_visit(node)

    # -- P-ALLOC / P-NOSLOTS --------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name):
            name = node.func.id
            if name in ALLOC_CALLS:
                self.allocs.append((node.lineno, f"{name}(...) call"))
            elif name[:1].isupper() and self.classes.lacks_slots(name):
                self.noslots.append((node.lineno, name))
        self.generic_visit(node)

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, _ALLOC_NODES):
            label = type(node).__name__
            if isinstance(node, ast.JoinedStr):
                label = "f-string"
            self.allocs.append((node.lineno, f"{label} display"))
        super().generic_visit(node)

    # -- P-ATTR ---------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            chain = dotted_name(node)
            if chain is not None:
                if chain.count(".") >= 2:
                    self.chains.setdefault(chain, []).append(node.lineno)
                return  # a pure chain: do not re-count its sub-chains
        self.generic_visit(node)


def _iter_hot_functions(
    ctx: AnalysisContext,
) -> List[Tuple[str, str, ast.FunctionDef]]:
    """(rel_path, qualname, node) for every configured hot region found."""
    out: List[Tuple[str, str, ast.FunctionDef]] = []
    for rel_path in sorted(HOT_REGIONS):
        module = ctx.module(rel_path)
        if module is None:
            continue
        regions = HOT_REGIONS[rel_path]
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and f"{node.name}.{item.name}" in regions):
                    out.append((rel_path, f"{node.name}.{item.name}", item))
    return out


def _scan_all(ctx: AnalysisContext) -> List[Tuple[str, str, _HotScan]]:
    cached = ctx.cache.get("hotpath-scans")
    if isinstance(cached, list):
        return cached
    classes = _class_index(ctx)
    scans: List[Tuple[str, str, _HotScan]] = []
    for rel_path, qualname, fn_node in _iter_hot_functions(ctx):
        scan = _HotScan(rel_path, qualname, classes)
        for stmt in fn_node.body:
            scan.visit(stmt)
        scans.append((rel_path, qualname, scan))
    ctx.cache["hotpath-scans"] = scans
    return scans


class HotAllocRule(Rule):
    id = "P-ALLOC"
    title = "no allocations inside inlined hot regions"

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        findings: List[Finding] = []
        for rel_path, qualname, scan in _scan_all(ctx):
            for line, what in scan.allocs:
                findings.append(Finding(
                    "P-ALLOC", rel_path, line,
                    f"{what} in hot region {qualname} — hoist it out "
                    f"of the per-event path or pool it",
                ))
        return findings


class HotClosureRule(Rule):
    id = "P-CLOSURE"
    title = "no closure creation inside inlined hot regions"

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        findings: List[Finding] = []
        for rel_path, qualname, scan in _scan_all(ctx):
            for line, what in scan.closures:
                findings.append(Finding(
                    "P-CLOSURE", rel_path, line,
                    f"{what} in hot region {qualname} — pass the bound "
                    f"method and arguments closure-free instead",
                ))
        return findings


class HotAttrRule(Rule):
    id = "P-ATTR"
    title = "no repeated attribute-chain lookups inside hot regions"

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        findings: List[Finding] = []
        for rel_path, qualname, scan in _scan_all(ctx):
            for chain in sorted(scan.chains):
                lines = scan.chains[chain]
                if len(lines) >= 2:
                    findings.append(Finding(
                        "P-ATTR", rel_path, lines[1],
                        f"attribute chain {chain!r} loaded "
                        f"{len(lines)}x in hot region {qualname} — "
                        f"hoist it to a local",
                    ))
        return findings


class HotNoSlotsRule(Rule):
    id = "P-NOSLOTS"
    title = "hot regions only instantiate __slots__ classes"

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        classes = _class_index(ctx)
        findings: List[Finding] = []
        for rel_path, qualname, scan in _scan_all(ctx):
            for line, name in scan.noslots:
                if classes.is_class(name, ctx):
                    findings.append(Finding(
                        "P-NOSLOTS", rel_path, line,
                        f"instantiating {name} (no __slots__) in hot "
                        f"region {qualname} — give it __slots__ or "
                        f"build it off the hot path",
                    ))
        return findings


class HotStaleRule(Rule):
    id = "P-STALE"
    title = "every configured hot region exists"

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        if ctx.module("__init__.py") is None:
            return []  # a fragment, not the package: nothing to miss
        found = {(rel, qual) for rel, qual, _ in _iter_hot_functions(ctx)}
        findings: List[Finding] = []
        for rel_path in sorted(HOT_REGIONS):
            if ctx.module(rel_path) is None:
                findings.append(Finding(
                    "P-STALE", rel_path, 0,
                    f"hot-region module {rel_path} does not exist — "
                    f"update or drop its HOT_REGIONS entry",
                ))
                continue
            for qualname in sorted(HOT_REGIONS[rel_path]):
                if (rel_path, qualname) not in found:
                    findings.append(Finding(
                        "P-STALE", rel_path, 0,
                        f"hot region {qualname} not found — update or "
                        f"drop its HOT_REGIONS entry",
                    ))
        return findings


register(HotAllocRule())
register(HotClosureRule())
register(HotAttrRule())
register(HotNoSlotsRule())
register(HotStaleRule())
