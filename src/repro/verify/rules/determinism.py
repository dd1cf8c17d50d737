"""Determinism rules: keep every simulation a pure function of its seeds.

A run must be a pure function of the configuration and the seeds (see
:mod:`repro.sim.engine`).  Three classes of bug silently break that:

* **W (wall clock)** — ``time.time()``/``perf_counter()``/``datetime.now()``
  (or a bare ``perf_counter()`` imported from ``time``) inside a kernel
  module leaks host timing into simulated behavior; so does
  ``import time`` itself.
* **R (unseeded randomness)** — module-level ``random.*`` calls (or the
  same functions imported from ``random`` and called bare) draw from the
  interpreter's global, unseeded generator, and ``random.Random()`` with
  no seed argument seeds itself from the host.  Host entropy sources —
  ``random.SystemRandom``, ``uuid.uuid1``/``uuid4``, ``os.urandom`` and
  anything in ``secrets`` — cannot be seeded at all.  Components must
  take a seeded ``random.Random`` instance instead.
* **S (set iteration)** — iterating a bare ``set`` (e.g. a directory's
  sharer set) in an order-sensitive module makes message fan-out order
  depend on hash order, which varies across Python builds.  A set is a
  display, a ``set()`` call, a set-operator expression over one
  (``a | {b}``), or a name or attribute (``self.pending``) bound to
  one.  Wrap the iterable in ``sorted()``.

Four structural rules ride along:

* **H (hot-path slots)** — classes in the engine/fabric hot modules must
  declare ``__slots__``; attribute-dict lookups there dominate the
  simulator's profile.  Enums, exceptions and dataclasses are exempt,
  by the same test P-NOSLOTS uses.
* **L (lambda scheduling)** — scheduling a ``lambda`` through
  ``sim.call``/``call_at`` allocates a function
  object and closure cells per event, where the engine queues ``fn`` +
  ``args`` directly (DESIGN.md §9): ``sim.call(delay, self._finish, txn)``.
* **B (bitmask sharers)** — coherence modules must not declare
  ``Set``-typed sharer fields (private names included): the directory's
  sharer vector is an int bitmask (DESIGN.md §10), and a set-typed field
  brings back both the per-entry allocation and the hash-order hazard
  of rule S.  Set-based reference models live in ``tests/``.
* **N (salted hashing)** — builtin ``hash()`` of a str/bytes/tuple is
  salted per process (``PYTHONHASHSEED``), so any persistent or
  cross-process identifier derived from it differs between processes.
  Use a content hash (``zlib.crc32``) or an explicit counter instead.

Only the kernel packages are scanned.  Name resolution is module-wide
with no shadow tracking (kernel modules are small).  A finding that is
deliberate is silenced in place with ``# repro: allow[W]``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from ..framework import (
    AnalysisContext,
    Finding,
    Rule,
    declares_slots,
    dotted_name,
    register,
    slots_exempt,
)

#: packages whose modules form the deterministic simulation kernel
KERNEL_PACKAGES = (
    "apps/", "cache/", "coherence/", "core/", "memory/", "network/",
    "node/", "sim/", "system/", "trace/",
)

#: modules where iteration order feeds message timing (rule S)
ORDER_SENSITIVE = (
    "coherence/", "memory/netcache.py", "system/machine.py", "network/",
)

#: modules whose classes must declare __slots__ (rule H)
HOT_MODULES = frozenset({
    "sim/engine.py", "sim/resource.py",
    "network/switch.py", "network/fabric.py", "network/message.py",
    "trace/tracer.py", "trace/metrics.py",
})

#: (module-or-class, function) pairs that read the host clock
WALL_CLOCK_CALLS = frozenset({
    ("time", "time"), ("time", "monotonic"), ("time", "perf_counter"),
    ("time", "process_time"), ("time", "time_ns"), ("time", "monotonic_ns"),
    ("time", "perf_counter_ns"), ("datetime", "now"), ("datetime", "today"),
    ("datetime", "utcnow"),
})

#: module-level random functions (the unseeded global generator)
GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "random_sample", "seed",
})

#: calls that draw host entropy, which no seed reproduces
HOST_ENTROPY_CALLS = frozenset({
    "random.SystemRandom", "uuid.uuid1", "uuid.uuid4", "os.urandom",
})

#: binary operators that combine sets into a set
_SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: scheduling methods whose callback argument must not be a lambda (rule L)
SCHEDULING_METHODS = frozenset({"call", "call_at"})

#: annotation heads that make a sharer field set-typed (rule B)
_SET_TYPES = frozenset({"Set", "set", "FrozenSet", "frozenset", "MutableSet"})

#: rule id -> title, in report order
TITLES: Dict[str, str] = {
    "W": "no wall-clock reads in kernel packages",
    "R": "no unseeded randomness in kernel packages",
    "S": "no unordered-set iteration in order-sensitive modules",
    "H": "hot-module classes declare __slots__",
    "L": "no lambdas scheduled through the event engine",
    "B": "no Set-typed sharer fields in coherence modules",
    "N": "no builtin hash() derived identifiers in kernel packages",
}


class _ModuleScan(ast.NodeVisitor):
    """Every determinism rule over one kernel module, in one walk."""

    def __init__(self, rel_path: str, out: Dict[str, List[Finding]]) -> None:
        self.rel_path = rel_path
        self.out = out
        self.order_sensitive = rel_path.startswith(ORDER_SENSITIVE)
        self.hot = rel_path in HOT_MODULES
        self.coherence = rel_path.startswith("coherence/")
        #: local name -> the absolute dotted name an import bound it to
        self._imports: Dict[str, str] = {}
        #: names and dotted attributes (``self.pending``) bound to bare
        #: sets anywhere in the module
        self._set_names: Set[str] = set()

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.out[rule].append(
            Finding(rule, self.rel_path, getattr(node, "lineno", 0), message)
        )

    def _resolve(self, dotted: str) -> str:
        """``dotted`` with its import alias expanded."""
        head, _, rest = dotted.partition(".")
        full = self._imports.get(head, head)
        return f"{full}.{rest}" if rest else full

    # -- imports: rule W, plus the alias table the call rules read ------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "time":
                self._report(
                    "W", node,
                    "import time in a kernel module — simulated time "
                    "comes from Simulator.now",
                )
            if alias.asname is not None:
                self._imports[alias.asname] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module is not None:
            for alias in node.names:
                local = alias.asname or alias.name
                self._imports[local] = f"{node.module}.{alias.name}"

    # -- rules W, R, N, L: calls ----------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        shown = dotted_name(node.func)
        if shown is not None:
            target = self._resolve(shown)
            parts = target.split(".")
            if len(parts) >= 2 and (parts[-2], parts[-1]) in WALL_CLOCK_CALLS:
                self._report(
                    "W", node,
                    f"wall-clock call {shown}() in a kernel module "
                    f"(simulated time is Simulator.now)",
                )
            if (len(parts) == 2 and parts[0] == "random"
                    and parts[1] in GLOBAL_RANDOM_FNS):
                self._report(
                    "R", node,
                    f"unseeded global randomness {shown}() — take a "
                    f"seeded random.Random instance instead",
                )
            if target == "random.Random" and not (node.args or node.keywords):
                self._report(
                    "R", node,
                    f"{shown}() without a seed seeds itself from the "
                    f"host — pass the configured seed",
                )
            if target in HOST_ENTROPY_CALLS or parts[0] == "secrets":
                self._report(
                    "R", node,
                    f"host entropy {shown}() in a kernel module — no seed "
                    f"reproduces it; take a seeded random.Random instead",
                )
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            self._report(
                "N", node,
                "builtin hash() is salted per process (PYTHONHASHSEED) — "
                "derive ids from zlib.crc32 or an explicit counter so "
                "artifacts agree across processes",
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in SCHEDULING_METHODS
            and any(isinstance(arg, ast.Lambda) for arg in node.args)
        ):
            self._report(
                "L", node,
                f"lambda scheduled via .{node.func.attr}() — pass the "
                f"function and its arguments closure-free instead "
                f"(sim.call(delay, fn, *args))",
            )
        self.generic_visit(node)

    # -- rule S: bare-set iteration -------------------------------------
    def _is_bare_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return isinstance(node.func, ast.Name) and node.func.id == "set"
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPERATORS):
            return (self._is_bare_set_expr(node.left)
                    or self._is_bare_set_expr(node.right))
        if isinstance(node, (ast.Name, ast.Attribute)):
            return dotted_name(node) in self._set_names
        return False

    def _track_set_binding(self, target: ast.AST, value: ast.AST) -> None:
        if (isinstance(target, (ast.Name, ast.Attribute))
                and self._is_bare_set_expr(value)):
            name = dotted_name(target)
            if name is not None:
                self._set_names.add(name)

    def _check_iteration(self, iter_node: ast.AST) -> None:
        if self.order_sensitive and self._is_bare_set_expr(iter_node):
            self._report(
                "S", iter_node,
                "iteration over a bare set — wrap in sorted() so message "
                "order does not depend on hash order",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._track_set_binding(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._track_set_binding(node.target, node.value)
        if self.coherence:
            self._check_sharer_field(node.target, node.annotation)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    # -- rule B: Set-typed sharer fields in coherence modules ------------
    def _check_sharer_field(self, target: ast.AST,
                            annotation: ast.AST) -> None:
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        else:
            return
        if "sharers" not in name:
            return
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        if (dotted_name(annotation) or "").rsplit(".", 1)[-1] in _SET_TYPES:
            self._report(
                "B", target,
                f"Set-typed sharer field {name!r} in a coherence module — "
                f"sharer vectors are int bitmasks (sharers_mask); "
                f"set-based reference models belong in tests/",
            )

    # -- rule H: __slots__ on hot-module classes ------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.hot and not (slots_exempt(node) or declares_slots(node)):
            self._report(
                "H", node,
                f"hot-path class {node.name} must declare __slots__",
            )
        self.generic_visit(node)


def _scan(ctx: AnalysisContext) -> Dict[str, List[Finding]]:
    """Findings by rule id over every kernel module, one walk each."""
    cached = ctx.cache.get("determinism")
    if isinstance(cached, dict):
        return cached
    out: Dict[str, List[Finding]] = {rule_id: [] for rule_id in TITLES}
    for module in ctx.modules_under(*KERNEL_PACKAGES):
        _ModuleScan(module.rel_path, out).visit(module.tree)
    ctx.cache["determinism"] = out
    return out


class DeterminismRule(Rule):
    """One determinism rule id, reported from the shared module scan."""

    def __init__(self, rule_id: str) -> None:
        self.id = rule_id
        self.title = TITLES[rule_id]

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        return list(_scan(ctx)[self.id])


for _rule_id in TITLES:
    register(DeterminismRule(_rule_id))
