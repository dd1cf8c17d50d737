"""Message-flow graph extraction for the protocol-flow rules.

Builds a static send→receive graph over the protocol packages
(``coherence/``, ``network/``, ``node/``, ``memory/``, ``core/``) from
three kinds of evidence, all read straight from the AST:

* **kind mentions** — ``MsgKind.X`` appearing as a call argument (a
  message being built or a reply helper being invoked) or as the value
  of an attribute store (``msg.kind = MsgKind.DIR_UPDATE`` re-kinding a
  worm, ``txn.reply_kind = MsgKind.DATA_S`` latching a reply).  Local
  constant propagation resolves names bound to kind members, including
  tuple assignments (``kind, txn_kind = MsgKind.UPGRADE, "upgrade"``)
  and module-level hoisted aliases (``_INV = MsgKind.INV``).
* **dispatch sites** — functions named ``receive``/``_dispatch``/
  ``_start`` are parsed into guard *arms*: an if/elif chain whose tests
  compare a kind (``kind is MsgKind.X``, ``kind in (A, B)``, ``kind in
  _KINDS`` with the frozenset table resolved from module level) or
  index a module-level predicate table by kind code
  (``_TO_HOME[kind.code]``, where ``_TO_HOME = tuple(k in _HOME_KINDS
  for k in MsgKind)``).
* **edges** — for each handler arm and each kind the arm guards, a DFS
  over the intra-class call graph (direct calls, and bound-method
  references passed as scheduler callbacks, e.g. ``sim.call_at(done,
  self._finish_read_from_memory, txn)``) collects every kind the
  handler can cause to be sent.  Entering another dispatcher during the
  DFS re-selects the arm for the kind being traced, so ``receive ->
  _enqueue -> _start`` does not smear one request's sends onto another.
* **in-flight handlers** — a bound method stored in an index-by-code
  table (the fabric's ``hooks[_READ.code] = self._intercept``)
  handles that kind, like a ``receive`` arm does.
* **lanes** — read from the enum module's tables named in LANE_TABLES.

The graph is built once per :class:`~repro.verify.framework.AnalysisContext`
and cached; the exhaustiveness and lane rules both consume it.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..framework import AnalysisContext, Module

#: packages the flow rules scan (repo-relative path prefixes)
FLOW_PACKAGES: Tuple[str, ...] = (
    "coherence/", "network/", "node/", "memory/", "core/",
)

#: the message-kind enum the graph is keyed on
ENUM_NAME = "MsgKind"

#: function names treated as dispatch sites (parsed into guard arms)
DISPATCHER_NAMES: FrozenSet[str] = frozenset({"receive", "_dispatch", "_start"})

#: terminal handler entry points (exhaustiveness is judged against these)
RECEIVER_NAME = "receive"

#: per-node router functions (forward to a receiver or handle locally)
ROUTER_NAME = "_dispatch"

#: router-arm call bases -> the receiver class they forward to.  Covers
#: both ``self.home_ctrl.receive(msg)`` (attribute) and ``ctrl.receive(msg)``
#: (a local picked from ``self._netctrls``).  A base missing here fails
#: F-UNHANDLED, so a rename cannot silently unhook a receiver.
RECEIVER_ATTRS: Dict[str, str] = {
    "home_ctrl": "HomeController",
    "ctrl": "NodeController",
}

#: the enum module's lane tables, in lane order (request < forward < reply)
LANE_TABLES: Dict[str, str] = {
    "REQUEST_LANE": "request",
    "FORWARD_LANE": "forward",
    "REPLY_LANE": "reply",
}

#: one source location: (repo-relative path, line)
Site = Tuple[str, int]


class Arm:
    """One guard arm of a dispatcher's if/elif chain."""

    __slots__ = ("kinds", "lineno", "sends", "calls", "router_targets",
                 "raises")

    def __init__(self, kinds: Optional[FrozenSet[str]], lineno: int) -> None:
        self.kinds = kinds  # None for the else arm
        self.lineno = lineno
        self.sends: List[Tuple[str, int]] = []
        self.calls: Set[str] = set()
        self.router_targets: List[Tuple[str, int]] = []
        self.raises = False


class FuncInfo:
    """Sends, call candidates, and (for dispatchers) arms of one function."""

    __slots__ = ("rel_path", "cls", "name", "qualname", "lineno",
                 "sends", "calls", "arms", "table_handlers")

    def __init__(self, rel_path: str, cls: Optional[str], name: str,
                 lineno: int) -> None:
        self.rel_path = rel_path
        self.cls = cls
        self.name = name
        self.qualname = f"{cls}.{name}" if cls else name
        self.lineno = lineno
        # for dispatchers these hold the *shared* region only (statements
        # outside the guard chain); arm bodies keep their own
        self.sends: List[Tuple[str, int]] = []
        self.calls: Set[str] = set()
        self.arms: List[Arm] = []
        #: (kind, method) for each ``TABLE[kind.code] = self.method``
        self.table_handlers: List[Tuple[str, str]] = []

    @property
    def is_dispatcher(self) -> bool:
        return bool(self.arms)


class FlowGraph:
    """The extracted protocol graph for one scanned tree."""

    __slots__ = ("kinds", "kind_lines", "enum_path", "lanes", "sends",
                 "funcs", "methods", "module_fns", "receivers", "routers",
                 "in_flight", "edges")

    def __init__(self) -> None:
        #: MsgKind member names in declaration order
        self.kinds: List[str] = []
        #: member name -> declaration line (for F-DEAD / C-NOLANE sites)
        self.kind_lines: Dict[str, int] = {}
        self.enum_path: str = ""
        #: member name -> lane name, from the enum module's LANE_TABLES
        self.lanes: Dict[str, str] = {}
        #: kind -> every site where it is sent/mentioned as a message kind
        self.sends: Dict[str, List[Site]] = {}
        self.funcs: Dict[Tuple[str, str], FuncInfo] = {}
        #: class name -> {method name -> FuncInfo} (classes assumed unique)
        self.methods: Dict[str, Dict[str, FuncInfo]] = {}
        #: rel_path -> {function name -> FuncInfo} (module-level functions)
        self.module_fns: Dict[str, Dict[str, FuncInfo]] = {}
        #: receiver class -> (FuncInfo, {handled kind -> arm line})
        self.receivers: Dict[str, Tuple[FuncInfo, Dict[str, int]]] = {}
        self.routers: List[FuncInfo] = []
        #: (handler, kind) for each bound method stored in a by-code table
        self.in_flight: List[Tuple[FuncInfo, str]] = []
        #: (src kind, dst kind) -> first send site establishing the edge
        self.edges: Dict[Tuple[str, str], Site] = {}

    def handled_kinds(self) -> Dict[str, Site]:
        """Every kind some receiver or router arm accepts -> one site."""
        handled: Dict[str, Site] = {}
        for _cls, (fn, arm_kinds) in sorted(self.receivers.items()):
            for kind, line in arm_kinds.items():
                handled.setdefault(kind, (fn.rel_path, line))
        for router in self.routers:
            for arm in router.arms:
                if arm.kinds:
                    for kind in arm.kinds:
                        handled.setdefault(kind, (router.rel_path, arm.lineno))
        for fn, kind in self.in_flight:
            handled.setdefault(kind, (fn.rel_path, fn.lineno))
        return handled


# ----------------------------------------------------------------------
# kind-expression resolution
# ----------------------------------------------------------------------
def _resolve_kind(
    expr: ast.AST,
    consts: Dict[str, Set[str]],
    aliases: Dict[str, str],
    kinds: FrozenSet[str],
) -> FrozenSet[str]:
    """Kind members a single expression can denote (empty when unknown)."""
    if (isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == ENUM_NAME
            and expr.attr in kinds):
        return frozenset({expr.attr})
    if isinstance(expr, ast.Name):
        if expr.id in consts:
            return frozenset(consts[expr.id])
        if expr.id in aliases:
            return frozenset({aliases[expr.id]})
    return frozenset()


def _resolve_kind_group(
    expr: ast.AST,
    consts: Dict[str, Set[str]],
    aliases: Dict[str, str],
    tables: Dict[str, FrozenSet[str]],
    kinds: FrozenSet[str],
) -> FrozenSet[str]:
    """Kinds in a membership-test collection (tuple/set or a named table)."""
    if isinstance(expr, (ast.Tuple, ast.Set, ast.List)):
        out: Set[str] = set()
        for elt in expr.elts:
            out |= _resolve_kind(elt, consts, aliases, kinds)
        return frozenset(out)
    if isinstance(expr, ast.Name) and expr.id in tables:
        return tables[expr.id]
    return _resolve_kind(expr, consts, aliases, kinds)


def _guard_kinds(
    test: ast.AST,
    consts: Dict[str, Set[str]],
    aliases: Dict[str, str],
    tables: Dict[str, FrozenSet[str]],
    kinds: FrozenSet[str],
) -> FrozenSet[str]:
    """Every kind a dispatcher guard test can select."""
    out: Set[str] = set()
    for node in ast.walk(test):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id in tables
                and isinstance(node.slice, ast.Attribute)
                and node.slice.attr == "code"):
            # an index-by-code predicate table: TABLE[kind.code]
            out |= tables[node.value.id]
            continue
        if not isinstance(node, ast.Compare):
            continue
        for op, comparator in zip(node.ops, node.comparators):
            if isinstance(op, (ast.Is, ast.Eq)):
                out |= _resolve_kind(comparator, consts, aliases, kinds)
            elif isinstance(op, ast.In):
                out |= _resolve_kind_group(
                    comparator, consts, aliases, tables, kinds
                )
    return frozenset(out)


# ----------------------------------------------------------------------
# per-function scanning
# ----------------------------------------------------------------------
def _collect_consts(
    fn_node: ast.AST,
    aliases: Dict[str, str],
    kinds: FrozenSet[str],
) -> Dict[str, Set[str]]:
    """Flow-insensitive union of kind members each local may hold."""
    consts: Dict[str, Set[str]] = {}
    empty: Dict[str, Set[str]] = {}
    for node in ast.walk(fn_node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if isinstance(target, ast.Name):
            resolved = _resolve_kind(node.value, empty, aliases, kinds)
            if resolved:
                consts.setdefault(target.id, set()).update(resolved)
        elif (isinstance(target, ast.Tuple)
                and isinstance(node.value, ast.Tuple)
                and len(target.elts) == len(node.value.elts)):
            for t_elt, v_elt in zip(target.elts, node.value.elts):
                if isinstance(t_elt, ast.Name):
                    resolved = _resolve_kind(v_elt, empty, aliases, kinds)
                    if resolved:
                        consts.setdefault(t_elt.id, set()).update(resolved)
    return consts


def _scan_region(
    stmts: List[ast.stmt],
    consts: Dict[str, Set[str]],
    aliases: Dict[str, str],
    kinds: FrozenSet[str],
    sends: List[Tuple[str, int]],
    calls: Set[str],
    router_targets: List[Tuple[str, int]],
) -> bool:
    """Collect sends / call candidates / router targets; True if it raises."""
    raises = False
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                raises = True
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    if func.attr == RECEIVER_NAME:
                        base = func.value
                        if (isinstance(base, ast.Attribute)
                                and isinstance(base.value, ast.Name)
                                and base.value.id == "self"):
                            router_targets.append((base.attr, node.lineno))
                        elif isinstance(base, ast.Name):
                            router_targets.append((base.id, node.lineno))
                    if (isinstance(func.value, ast.Name)
                            and func.value.id == "self"):
                        calls.add(func.attr)
                elif isinstance(func, ast.Name):
                    calls.add(func.id)
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    for kind in _resolve_kind(arg, consts, aliases, kinds):
                        sends.append((kind, arg.lineno))
                    # a bound method passed as a callback is a deferred call
                    if (isinstance(arg, ast.Attribute)
                            and isinstance(arg.value, ast.Name)
                            and arg.value.id == "self"):
                        calls.add(arg.attr)
            elif isinstance(node, ast.Assign):
                if any(isinstance(t, ast.Attribute) for t in node.targets):
                    for kind in _resolve_kind(node.value, consts, aliases,
                                              kinds):
                        sends.append((kind, node.lineno))
    return raises


def _scan_function(
    rel_path: str,
    cls: Optional[str],
    fn_node: ast.FunctionDef,
    aliases: Dict[str, str],
    tables: Dict[str, FrozenSet[str]],
    kinds: FrozenSet[str],
) -> FuncInfo:
    info = FuncInfo(rel_path, cls, fn_node.name, fn_node.lineno)
    consts = _collect_consts(fn_node, aliases, kinds)

    chain: Optional[ast.If] = None
    shared: List[ast.stmt] = []
    if fn_node.name in DISPATCHER_NAMES:
        for stmt in fn_node.body:
            if (chain is None and isinstance(stmt, ast.If)
                    and _guard_kinds(stmt.test, consts, aliases, tables,
                                     kinds)):
                chain = stmt
            else:
                shared.append(stmt)
    else:
        shared = fn_node.body

    _scan_region(shared, consts, aliases, kinds,
                 info.sends, info.calls, [])
    for node in ast.walk(fn_node):
        # TABLE[<kind>.code] = self.<method>: the method handles the kind
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Subscript)
                and isinstance(node.targets[0].slice, ast.Attribute)
                and node.targets[0].slice.attr == "code"
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "self"):
            for kind in _resolve_kind(node.targets[0].slice.value, consts,
                                      aliases, kinds):
                info.table_handlers.append((kind, node.value.attr))

    cursor = chain
    while cursor is not None:
        arm = Arm(
            _guard_kinds(cursor.test, consts, aliases, tables, kinds) or None,
            cursor.lineno,
        )
        arm.raises = _scan_region(cursor.body, consts, aliases, kinds,
                                  arm.sends, arm.calls, arm.router_targets)
        info.arms.append(arm)
        orelse = cursor.orelse
        if (len(orelse) == 1 and isinstance(orelse[0], ast.If)
                and _guard_kinds(orelse[0].test, consts, aliases, tables,
                                 kinds)):
            cursor = orelse[0]
        else:
            if orelse:
                else_arm = Arm(None, orelse[0].lineno)
                else_arm.raises = _scan_region(
                    orelse, consts, aliases, kinds,
                    else_arm.sends, else_arm.calls, else_arm.router_targets,
                )
                info.arms.append(else_arm)
            cursor = None
    return info


# ----------------------------------------------------------------------
# module-level scanning
# ----------------------------------------------------------------------
def _scan_module_level(
    module: Module,
    kinds: FrozenSet[str],
) -> Tuple[Dict[str, str], Dict[str, FrozenSet[str]]]:
    """Hoisted kind aliases and frozenset/tuple kind tables."""
    aliases: Dict[str, str] = {}
    tables: Dict[str, FrozenSet[str]] = {}
    empty_consts: Dict[str, Set[str]] = {}
    no_tables: Dict[str, FrozenSet[str]] = {}
    target: ast.expr
    value: ast.expr
    for stmt in module.tree.body:
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        else:
            continue
        if not isinstance(target, ast.Name):
            continue
        name = target.id
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("frozenset", "set", "tuple")
                and len(value.args) == 1):
            value = value.args[0]
        predicate = _predicate_table(value, aliases, tables, kinds)
        if predicate:
            tables[name] = predicate
            continue
        resolved_single = _resolve_kind(value, empty_consts, aliases, kinds)
        if resolved_single and len(resolved_single) == 1:
            aliases[name] = next(iter(resolved_single))
            continue
        group = _resolve_kind_group(value, empty_consts, aliases, no_tables,
                                    kinds)
        if group:
            tables[name] = group
    return aliases, tables


def _predicate_table(
    value: ast.AST,
    aliases: Dict[str, str],
    tables: Dict[str, FrozenSet[str]],
    kinds: FrozenSet[str],
) -> FrozenSet[str]:
    """Kinds an index-by-code table marks true: the generator of
    ``tuple(k in TABLE for k in MsgKind)`` (or ``k is MsgKind.X``)."""
    if not (isinstance(value, ast.GeneratorExp)
            and len(value.generators) == 1):
        return frozenset()
    comp = value.generators[0]
    elt = value.elt
    if not (isinstance(comp.iter, ast.Name) and comp.iter.id == ENUM_NAME
            and isinstance(comp.target, ast.Name) and not comp.ifs
            and isinstance(elt, ast.Compare)
            and isinstance(elt.left, ast.Name)
            and elt.left.id == comp.target.id):
        return frozenset()
    return _guard_kinds(elt, {}, aliases, tables, kinds)


def _find_enum(modules: List[Module]) -> Tuple[str, List[str], Dict[str, int]]:
    """Locate the MsgKind enum; returns (path, members, member lines)."""
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == ENUM_NAME:
                members: List[str] = []
                lines: Dict[str, int] = {}
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if (isinstance(target, ast.Name)
                                    and not target.id.startswith("_")
                                    and target.id.isupper()):
                                members.append(target.id)
                                lines[target.id] = stmt.lineno
                if members:
                    return module.rel_path, members, lines
    return "", [], {}


# ----------------------------------------------------------------------
# edges (dispatcher-aware DFS)
# ----------------------------------------------------------------------
def _reachable_sends(
    graph: FlowGraph,
    fn: FuncInfo,
    kind: str,
    visited: Set[Tuple[str, str]],
    out: List[Tuple[str, Site]],
) -> None:
    key = (fn.rel_path, fn.qualname)
    if key in visited:
        return
    visited.add(key)
    sends = list(fn.sends)
    calls = set(fn.calls)
    if fn.is_dispatcher:
        matched = [a for a in fn.arms if a.kinds is not None and kind in a.kinds]
        if not matched:
            matched = [a for a in fn.arms if a.kinds is None]
        for arm in matched:
            sends.extend(arm.sends)
            calls.update(arm.calls)
    for sent_kind, line in sends:
        out.append((sent_kind, (fn.rel_path, line)))
    methods = graph.methods.get(fn.cls, {}) if fn.cls else {}
    module_fns = graph.module_fns.get(fn.rel_path, {})
    for callee in sorted(calls):
        target = methods.get(callee)
        if target is None:
            target = module_fns.get(callee)
        if target is not None:
            _reachable_sends(graph, target, kind, visited, out)


def build_flowgraph(ctx: AnalysisContext) -> FlowGraph:
    """Build (or fetch the cached) flow graph for the scanned tree."""
    cached = ctx.cache.get("flowgraph")
    if isinstance(cached, FlowGraph):
        return cached

    graph = FlowGraph()
    modules = ctx.modules_under(*FLOW_PACKAGES)
    enum_path, members, lines = _find_enum(modules)
    graph.enum_path = enum_path
    graph.kinds = members
    graph.kind_lines = lines
    kinds = frozenset(members)

    for module in modules:
        aliases, tables = _scan_module_level(module, kinds)
        if module.rel_path == enum_path:
            for kind in members:
                for table, lane in LANE_TABLES.items():
                    if kind in tables.get(table, ()):
                        graph.lanes[kind] = lane
                        break
        fns: List[Tuple[Optional[str], ast.FunctionDef]] = []
        for node in module.tree.body:
            if isinstance(node, ast.FunctionDef):
                fns.append((None, node))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        fns.append((node.name, item))
        for cls, fn_node in fns:
            info = _scan_function(module.rel_path, cls, fn_node, aliases,
                                  tables, kinds)
            graph.funcs[(module.rel_path, info.qualname)] = info
            if cls is not None:
                graph.methods.setdefault(cls, {})[info.name] = info
            else:
                graph.module_fns.setdefault(module.rel_path, {})[
                    info.name] = info

    # global send sites
    for info in graph.funcs.values():
        regions = [info.sends] + [arm.sends for arm in info.arms]
        for region in regions:
            for kind, line in region:
                graph.sends.setdefault(kind, []).append(
                    (info.rel_path, line)
                )
    for sites in graph.sends.values():
        sites.sort()

    # receivers and routers
    for info in graph.funcs.values():
        if not info.is_dispatcher:
            continue
        if info.name == RECEIVER_NAME and info.cls is not None:
            arm_kinds: Dict[str, int] = {}
            for arm in info.arms:
                if arm.kinds:
                    for kind in arm.kinds:
                        arm_kinds.setdefault(kind, arm.lineno)
            graph.receivers[info.cls] = (info, arm_kinds)
        elif info.name == ROUTER_NAME:
            graph.routers.append(info)
    graph.routers.sort(key=lambda fn: (fn.rel_path, fn.lineno))

    # in-flight handlers: bound methods stored in a by-code table
    for info in graph.funcs.values():
        methods = graph.methods.get(info.cls, {}) if info.cls else {}
        for kind, method in info.table_handlers:
            handler = methods.get(method)
            if handler is not None:
                graph.in_flight.append((handler, kind))

    # edges: kind handled -> kinds its handling can send
    entries: List[Tuple[FuncInfo, str]] = []
    for info in graph.funcs.values():
        for arm in info.arms:
            if arm.kinds:
                for kind in arm.kinds:
                    entries.append((info, kind))
    entries.extend(graph.in_flight)
    entries.sort(key=lambda e: (e[0].rel_path, e[0].lineno, e[1]))
    for info, kind in entries:
        reached: List[Tuple[str, Site]] = []
        _reachable_sends(graph, info, kind, set(), reached)
        for sent_kind, site in reached:
            graph.edges.setdefault((kind, sent_kind), site)

    ctx.cache["flowgraph"] = graph
    return graph
