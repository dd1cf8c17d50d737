"""Determinism lint: AST rules that keep simulations reproducible.

A run must be a pure function of the configuration and the seeds (see
:mod:`repro.sim.engine`).  Three classes of bug silently break that:

* **W (wall clock)** — ``time.time()``/``perf_counter()``/``datetime.now()``
  inside a kernel module leaks host timing into simulated behavior.
* **R (unseeded randomness)** — module-level ``random.*`` calls draw from
  the interpreter's global, unseeded generator.  Components must take a
  seeded ``random.Random`` instance instead.
* **S (set iteration)** — iterating a bare ``set`` (e.g. a directory's
  sharer set) makes message fan-out order depend on hash order, which
  varies across Python builds.  Wrap the iterable in ``sorted()``.

Four structural rules ride along:

* **H (hot-path slots)** — classes in the engine/fabric hot paths must
  declare ``__slots__``; attribute-dict lookups there dominate the
  simulator's profile (see PR 1).
* **L (lambda scheduling)** — scheduling a ``lambda`` through
  ``sim.schedule``/``at``/``call``/``call_at`` allocates a function
  object and closure cells per event, where the engine queues ``fn`` +
  ``args`` directly (see DESIGN.md §9).  Kernel code must
  pass the bound method and its arguments instead:
  ``sim.call(delay, self._finish, txn)``.
* **B (bitmask sharers)** — coherence modules must not declare public
  ``Set``-typed sharer fields: the directory's sharer vector is an int
  bitmask (DESIGN.md §10), and a set-typed field reintroduces both the
  per-entry allocation and the hash-order iteration hazard that rule S
  guards against.  The object reference model keeps its set under a
  private ``_sharers`` name, which this rule deliberately skips.
* **N (salted hashing)** — builtin ``hash()`` of a str/bytes/tuple is
  salted per process (``PYTHONHASHSEED``), so deriving any persistent
  or cross-process identifier from it breaks run reproducibility: two
  processes disagree on every artifact that records the id.
  ``BarrierSequencer`` did exactly this before PR 10.  Kernel code must
  use a content hash (``zlib.crc32``) or an explicit counter instead.

Run as ``python -m repro.verify.lint_determinism`` (exit status 1 when
findings exist).  The rules are deliberately narrow — they whitelist
nothing via comments, so code that genuinely needs an exemption belongs
outside the scanned module sets below.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Set

#: packages whose modules form the deterministic simulation kernel
KERNEL_PACKAGES = (
    "apps", "cache", "coherence", "core", "memory", "network", "node",
    "sim", "system", "trace",
)

#: modules where iteration order feeds message timing (rule S)
ORDER_SENSITIVE = (
    "coherence/", "memory/netcache.py", "system/machine.py", "network/",
)

#: modules whose classes must declare __slots__ (rule H)
HOT_MODULES = (
    "sim/engine.py", "sim/resource.py", "network/link.py",
    "network/switch.py", "network/fabric.py", "network/message.py",
    "trace/tracer.py", "trace/metrics.py",
)

#: attribute calls that read the host clock
WALL_CLOCK_CALLS = {
    ("time", "time"), ("time", "monotonic"), ("time", "perf_counter"),
    ("time", "process_time"), ("time", "time_ns"), ("time", "monotonic_ns"),
    ("time", "perf_counter_ns"), ("datetime", "now"), ("datetime", "today"),
    ("datetime", "utcnow"),
}

#: module-level random functions (the unseeded global generator)
GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "random_sample", "seed",
}

#: scheduling methods whose callback argument must not be a lambda (rule L)
SCHEDULING_METHODS = {"schedule", "at", "call", "call_at"}


@dataclass(frozen=True)
class Finding:
    rule: str  # "W" | "R" | "S" | "H" | "L" | "B" | "N"
    path: str  # repo-relative module path
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _dotted(node: ast.AST) -> Optional[str]:
    """'a.b.c' for an attribute/name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ModuleLint(ast.NodeVisitor):
    """All per-module rules in one AST walk."""

    def __init__(self, rel_path: str, order_sensitive: bool,
                 hot: bool, coherence: bool = False) -> None:
        self.rel_path = rel_path
        self.order_sensitive = order_sensitive
        self.hot = hot
        self.coherence = coherence
        self.findings: List[Finding] = []
        # names bound to bare sets in the current scope chain (heuristic:
        # module-wide, no shadow tracking — kernel modules are small)
        self._set_names: Set[str] = set()

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(rule, self.rel_path, getattr(node, "lineno", 0), message)
        )

    # -- rule W + R + L: wall clock, randomness, lambda scheduling ------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if len(parts) >= 2 and (parts[-2], parts[-1]) in WALL_CLOCK_CALLS:
                self._report(
                    "W", node,
                    f"wall-clock call {dotted}() in a kernel module "
                    f"(simulated time is Simulator.now)",
                )
            if (len(parts) == 2 and parts[0] == "random"
                    and parts[1] in GLOBAL_RANDOM_FNS):
                self._report(
                    "R", node,
                    f"unseeded global randomness {dotted}() — take a "
                    f"seeded random.Random instance instead",
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

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "time":
                self._report(
                    "W", node,
                    "import time in a kernel module — simulated time "
                    "comes from Simulator.now",
                )
        self.generic_visit(node)

    # -- rule S: bare-set iteration -------------------------------------
    def _is_bare_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "set":
                return True
        if isinstance(node, ast.Name) and node.id in self._set_names:
            return True
        return False

    def _track_set_binding(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name) and self._is_bare_set_expr(value):
            self._set_names.add(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._track_set_binding(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._track_set_binding(node.target, node.value)
        self._check_sharer_field(node.target, node.annotation)
        self.generic_visit(node)

    # -- rule B: Set-typed sharer fields in coherence modules ------------
    def _check_sharer_field(self, target: ast.AST,
                            annotation: ast.AST) -> None:
        if not self.coherence:
            return
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
        ann = (_dotted(annotation) or "").rsplit(".", 1)[-1]
        if ann in ("Set", "set", "FrozenSet", "frozenset", "MutableSet"):
            self._report(
                "B", target,
                f"Set-typed sharer field {name!r} in a coherence module — "
                f"sharer vectors are int bitmasks (sharers_mask); "
                f"set-based reference models belong in tests/",
            )

    def _check_iteration(self, iter_node: ast.AST) -> None:
        if not self.order_sensitive:
            return
        if self._is_bare_set_expr(iter_node):
            self._report(
                "S", iter_node,
                "iteration over a bare set — wrap in sorted() so message "
                "order does not depend on hash order",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    # -- rule H: __slots__ on hot-path classes --------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.hot and not self._slots_exempt(node):
            has_slots = any(
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets
                )
                for stmt in node.body
            )
            if not has_slots:
                self._report(
                    "H", node,
                    f"hot-path class {node.name} must declare __slots__",
                )
        self.generic_visit(node)

    @staticmethod
    def _slots_exempt(node: ast.ClassDef) -> bool:
        """Enums, exceptions, and dataclasses may use instance dicts."""
        for base in node.bases:
            name = (_dotted(base) or "").rsplit(".", 1)[-1]
            if name.endswith(("Enum", "Error", "Exception", "Flag")):
                return True
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if (_dotted(target) or "").startswith("dataclass"):
                return True
        return False


def _rel(path: Path, root: Path) -> str:
    return path.relative_to(root).as_posix()


def lint_file(path: Path, root: Path) -> List[Finding]:
    rel = _rel(path, root)
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _ModuleLint(
        rel,
        order_sensitive=any(rel.startswith(p) for p in ORDER_SENSITIVE),
        hot=rel in HOT_MODULES,
        coherence=rel.startswith("coherence/"),
    )
    visitor.visit(tree)
    return sorted(visitor.findings, key=lambda f: (f.path, f.line, f.rule))


def _kernel_files(root: Path) -> Iterator[Path]:
    for package in KERNEL_PACKAGES:
        yield from sorted((root / package).rglob("*.py"))


def lint_tree(root: Optional[Path] = None) -> List[Finding]:
    """Lint the kernel packages under ``root`` (default: this install)."""
    if root is None:
        root = Path(__file__).resolve().parent.parent
    findings: List[Finding] = []
    for path in _kernel_files(root):
        findings.extend(lint_file(path, root))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.lint_determinism",
        description="Determinism lint over the simulation kernel.",
    )
    parser.add_argument(
        "root", nargs="?", default=None,
        help="package root to scan (default: the installed repro package)",
    )
    args = parser.parse_args(argv)
    root = Path(args.root).resolve() if args.root else None
    findings = lint_tree(root)
    for finding in findings:
        print(finding)
    scanned = sum(1 for _ in _kernel_files(
        root if root is not None
        else Path(__file__).resolve().parent.parent
    ))
    status = "FAIL" if findings else "ok"
    print(f"determinism lint: {scanned} modules, "
          f"{len(findings)} finding(s) [{status}]")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())
