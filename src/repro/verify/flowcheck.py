"""flowcheck: static protocol-flow analyzer for the simulator kernel.

Runs every registered rule of the unified analysis framework
(:mod:`repro.verify.framework`) over the ``repro`` source tree:

* ``W R S H L B N`` — determinism (wall clock, unseeded randomness,
  bare-set iteration, hot-module ``__slots__``, lambda scheduling,
  set-typed sharer fields, salted ``hash()``),
* ``F-UNHANDLED F-ORPHAN F-DEAD F-NOELSE`` — handler exhaustiveness over
  the extracted MsgKind send/receive graph,
* ``C-NOLANE C-SAMELANE C-BACKWARD C-CYCLE`` — lane-dependency deadlock
  freedom (request < forward < reply, whitelist for intentional edges),
* ``P-ALLOC P-CLOSURE P-ATTR P-NOSLOTS P-STALE`` — hot-path purity for
  the inlined regions.

Usage::

    python -m repro.verify.flowcheck                  # gate
    python -m repro.verify.flowcheck --json out.json  # machine-readable
    python -m repro.verify.flowcheck --list-rules

Exit code 0 when there are no unsuppressed findings, 1 when there are,
2 on usage errors.  A single finding is silenced in place with a
trailing ``# repro: allow[RULE-ID]`` comment; intentional lane edges
live in :mod:`repro.verify.rules.lane_whitelist` with one-line
justifications.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .framework import all_rules, run_rules

#: default scan root: the ``repro`` package this module lives in
DEFAULT_ROOT = Path(__file__).resolve().parent.parent


def _list_rules() -> str:
    lines = ["registered rules (report order):"]
    for rule in all_rules():
        lines.append(f"  {rule.id:<12} {rule.title}")
    return "\n".join(lines)


def _list_whitelist() -> str:
    from .rules.lane_whitelist import WHITELIST

    lines = ["whitelisted lane edges (src -> dst: justification):"]
    for (src, dst), why in WHITELIST.items():
        lines.append(f"  {src} -> {dst}: {why}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.flowcheck",
        description="static protocol-flow / lane / hot-path analyzer",
    )
    parser.add_argument(
        "root", nargs="?", type=Path, default=DEFAULT_ROOT,
        help="source tree to scan (default: the installed repro package)",
    )
    parser.add_argument(
        "--json", type=Path, metavar="PATH", default=None,
        help="also write a machine-readable report to PATH",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--list-whitelist", action="store_true",
        help="print the whitelisted lane edges and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if args.list_whitelist:
        print(_list_whitelist())
        return 0

    root: Path = args.root.resolve()
    if not root.is_dir():
        parser.error(f"scan root {root} is not a directory")

    report = run_rules(root)
    if args.json is not None:
        args.json.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    print(report.render())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
