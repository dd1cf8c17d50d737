"""The verification entry point: ``python -m repro.verify``.

Runs every static and dynamic check the verify suite offers:

1. **Static analysis (flowcheck)** — every rule of the framework
   (:mod:`repro.verify.framework`) over one source tree: determinism
   W/R/S/H/L/B/N, protocol-flow F-*, lane C-*, hot-path P-*.  The
   protocol facts the F-* and C-* rules check (kinds, handler arms,
   in-flight handlers, lanes) are read from that tree.
2. **Explorer smoke** — every built-in script of the delay-bounded
   explorer (:mod:`repro.verify.explore`), with and without switch
   caches, over every schedule that holds one delivery
   back: the real handlers under many timings, catching dynamic
   protocol regressions the static passes cannot see.  The full k=2
   exploration runs in ``tests/test_verify.py``.

Usage::

    python -m repro.verify                      # static gate + smoke
    python -m repro.verify --static-only        # static gate only
    python -m repro.verify --json out.json      # machine-readable
    python -m repro.verify --list-rules
    python -m repro.verify --list-whitelist

The exit code is the logical OR of the stages: 0 only when the static
gate passes (no unsuppressed findings) *and* every smoke cell explores
clean; 2 on usage errors, including a scan root that is not a
directory.  A single finding is silenced in place with a trailing
``# repro: allow[RULE-ID]`` comment; intentional lane edges live in
:mod:`repro.verify.rules.lane_whitelist` with one-line justifications.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from .framework import all_rules, run_rules
from .rules.lane_whitelist import WHITELIST

#: default scan root: the ``repro`` package this module lives in
DEFAULT_ROOT = Path(__file__).resolve().parent.parent

#: the smoke's delay bound: k=1 keeps the 6 cells to a few seconds
SMOKE_K = 1


def _run_explorer_smoke() -> List[Dict[str, Any]]:
    from .explore import SCRIPTS, explore

    results: List[Dict[str, Any]] = []
    for name, script in SCRIPTS.items():
        for switch in (False, True):
            result = explore(script, switch, k=SMOKE_K)
            results.append({
                "script": name,
                "switch": switch,
                "schedules": result.schedules,
                "failure": (
                    None if result.failure is None else str(result.failure)
                ),
                "ok": result.ok,
                "summary": result.summary(),
            })
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="run every verification stage (static + smoke)",
    )
    parser.add_argument(
        "root", nargs="?", type=Path, default=DEFAULT_ROOT,
        help="source tree for the static stage "
             "(default: the installed repro package)",
    )
    parser.add_argument(
        "--json", type=Path, metavar="PATH", default=None,
        help="write an aggregated machine-readable report to PATH",
    )
    parser.add_argument(
        "--static-only", action="store_true",
        help="run only the static analysis stage, not the explorer smoke",
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
        print("registered rules (report order):")
        for rule in all_rules():
            print(f"  {rule.id:<12} {rule.title}")
        return 0
    if args.list_whitelist:
        print("whitelisted lane edges (src -> dst: justification):")
        for (src, dst), why in WHITELIST.items():
            print(f"  {src} -> {dst}: {why}")
        return 0

    root: Path = args.root.resolve()
    if not root.is_dir():
        parser.error(f"scan root {root} is not a directory")

    report = run_rules(root)
    print(report.render())
    exit_code = report.exit_code

    smoke: List[Dict[str, Any]] = []
    if not args.static_only:
        smoke = _run_explorer_smoke()
        for entry in smoke:
            print(f"explore: {entry['summary']}")
            if not entry["ok"]:
                print(f"  {entry['failure']}")
                exit_code = 1

    status = "ok" if exit_code == 0 else "FAIL"
    stages = "static" if args.static_only else "static+explore"
    print(f"verify: {stages} [{status}]")

    if args.json is not None:
        payload = {
            "static": report.to_dict(),
            "explore": smoke,
            "exit_code": exit_code,
        }
        args.json.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
