"""Unified rule framework for the static analyzers (``repro.verify``).

Every static check in the verify suite — the determinism rules and the
protocol-flow/lane/hot-path passes — is a :class:`Rule` registered
here.  The framework owns everything the individual rules should not
have to reimplement:

* **Parsing** — one :class:`AnalysisContext` per run holds every module
  under the scanned root, parsed once and shared by all rules (plus a
  free-form ``cache`` so expensive artifacts like the message-flow graph
  are built once and reused across rules).
* **Suppressions** — a trailing or preceding ``# repro: allow[RULE-ID]``
  comment (comma-separated ids allowed) silences a finding at that line.
  Suppressions are the one way to exempt a finding: deliberate and
  reviewable, and their count is reported so they cannot rot silently.
* **Output** — stable human-readable lines plus a machine-readable JSON
  report (``python -m repro.verify --json``, uploaded as a CI artifact).

Rules read every protocol fact they check from the scanned tree, so a
fixture tree is judged by its own declarations.  Exit-code policy of
the one entry point, ``python -m repro.verify`` (:mod:`.__main__`): 0
when there are no unsuppressed findings, 1 when there are, 2 on usage
errors.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Sequence

#: format version of the JSON report
REPORT_VERSION = 2


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str  # registered rule id, e.g. "F-UNHANDLED" or "W"
    path: str  # repo-relative module path (posix)
    line: int  # 1-based line number (0 = whole-module finding)
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


#: ``# repro: allow[F-UNHANDLED]`` or ``# repro: allow[W, P-ALLOC]``
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_\-, ]+)\]")


def parse_allows(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> rule ids allowed by an inline comment there."""
    allows: Dict[int, FrozenSet[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(text)
        if match is not None:
            ids = frozenset(
                part.strip() for part in match.group(1).split(",")
                if part.strip()
            )
            if ids:
                allows[lineno] = ids
    return allows


class Module:
    """One parsed source module of the scanned tree."""

    __slots__ = ("rel_path", "path", "source", "tree", "allows")

    def __init__(self, rel_path: str, path: Path, source: str,
                 tree: ast.Module) -> None:
        self.rel_path = rel_path
        self.path = path
        self.source = source
        self.tree = tree
        self.allows = parse_allows(source)

    def allowed(self, rule_id: str, line: int) -> bool:
        """True when an allow comment on ``line`` (or the line above)
        names ``rule_id``."""
        for candidate in (line, line - 1):
            ids = self.allows.get(candidate)
            if ids is not None and rule_id in ids:
                return True
        return False


class AnalysisContext:
    """Parsed view of one source tree, shared by every rule in a run."""

    __slots__ = ("root", "modules", "by_path", "cache")

    def __init__(self, root: Path, modules: List[Module]) -> None:
        self.root = root
        self.modules = modules
        self.by_path: Dict[str, Module] = {m.rel_path: m for m in modules}
        #: scratch space for cross-rule artifacts (e.g. the flow graph)
        self.cache: Dict[str, Any] = {}

    def modules_under(self, *prefixes: str) -> List[Module]:
        """Modules whose repo-relative path starts with any prefix."""
        return [
            m for m in self.modules
            if any(m.rel_path.startswith(p) for p in prefixes)
        ]

    def module(self, rel_path: str) -> Optional[Module]:
        return self.by_path.get(rel_path)


def load_context(root: Path) -> AnalysisContext:
    """Parse every ``*.py`` under ``root`` (sorted, deterministic)."""
    modules: List[Module] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:  # pragma: no cover - scanned code parses
            raise SystemExit(f"flowcheck: cannot parse {path}: {exc}")
        modules.append(Module(rel, path, source, tree))
    return AnalysisContext(root, modules)


class Rule:
    """One registered static check.

    Subclasses set ``id`` (stable, referenced by suppressions) and
    ``title`` and implement :meth:`run`.  ``run`` returns raw findings;
    the framework applies suppressions afterwards.
    """

    id: str = ""
    title: str = ""

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        raise NotImplementedError


#: registration order is execution and report order (deterministic)
_REGISTRY: Dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    """Add a rule to the global registry (id must be unique)."""
    if not rule.id:
        raise ValueError(f"rule {rule!r} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule


def all_rules() -> List[Rule]:
    """Every registered rule, in registration order."""
    from . import rules as _rules  # noqa: F401  (imports register rules)

    return list(_REGISTRY.values())


def get_rule(rule_id: str) -> Rule:
    from . import rules as _rules  # noqa: F401

    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule id {rule_id!r} "
            f"(known: {', '.join(sorted(_REGISTRY))})"
        ) from None


@dataclass
class Report:
    """Outcome of one analysis run."""

    root: str
    rules: List[str]
    findings: List[Finding]
    suppressed: int

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": REPORT_VERSION,
            "root": self.root,
            "rules": self.rules,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": self.suppressed,
        }

    def render(self) -> str:
        """Human-readable report (stable ordering)."""
        lines = [str(f) for f in self.findings]
        status = "FAIL" if self.findings else "ok"
        lines.append(
            f"flowcheck: {len(self.rules)} rule(s), "
            f"{len(self.findings)} finding(s) "
            f"({self.suppressed} suppressed) [{status}]"
        )
        return "\n".join(lines)


def run_rules(
    root: Path,
    rules: Optional[Sequence[Rule]] = None,
    ctx: Optional[AnalysisContext] = None,
) -> Report:
    """Run ``rules`` (default: all registered) over the tree at ``root``."""
    if rules is None:
        rules = all_rules()
    if ctx is None:
        ctx = load_context(root)
    findings: List[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.run(ctx):
            module = ctx.module(finding.path)
            if module is not None and module.allowed(
                finding.rule, finding.line
            ):
                suppressed += 1
            else:
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return Report(
        root=str(root),
        rules=[r.id for r in rules],
        findings=findings,
        suppressed=suppressed,
    )


# ----------------------------------------------------------------------
# shared AST helpers (used by several rule modules)
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``'a.b.c'`` for a pure attribute/name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def declares_slots(node: ast.ClassDef) -> bool:
    """True when the class body assigns ``__slots__``."""
    return any(
        isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__"
            for t in stmt.targets
        )
        for stmt in node.body
    )


def slots_exempt(node: ast.ClassDef) -> bool:
    """Enums, exceptions and dataclasses may keep instance dicts."""
    for base in node.bases:
        name = (dotted_name(base) or "").rsplit(".", 1)[-1]
        if name.endswith(("Enum", "Error", "Exception", "Flag")):
            return True
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (dotted_name(target) or "").startswith("dataclass"):
            return True
    return False
