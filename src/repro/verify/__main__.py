"""Umbrella verification entry point: ``python -m repro.verify``.

Aggregates every static and dynamic check the verify suite offers:

1. **Static analysis** — all framework rules (determinism W/R/S/H/L/B/N,
   protocol-flow F-*, lane C-*, hot-path P-*), exactly as
   ``python -m repro.verify.flowcheck``.
2. **Explorer smoke** — every built-in script of the delay-bounded
   explorer (:mod:`repro.verify.explore`) under MSI and MESI, with and
   without switch caches, over every schedule that holds one delivery
   back: the real handlers under many timings, catching dynamic
   protocol regressions the static passes cannot see.  The full k=2
   exploration runs in ``tests/test_verify.py``.

The exit code is the logical OR of the stages: 0 only when the static
gate passes (no unsuppressed findings) *and* every smoke cell explores
clean.  ``--static-only`` runs only the static stage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from .flowcheck import DEFAULT_ROOT
from .framework import run_rules

#: the smoke's delay bound: k=1 keeps the 12 cells to a few seconds
SMOKE_K = 1


def _run_explorer_smoke() -> List[Dict[str, Any]]:
    from .explore import SCRIPTS, explore

    results: List[Dict[str, Any]] = []
    for name, script in SCRIPTS.items():
        for protocol in ("msi", "mesi"):
            for switch in (False, True):
                result = explore(script, protocol, switch, k=SMOKE_K)
                results.append({
                    "script": name,
                    "protocol": protocol,
                    "switch": switch,
                    "schedules": result.schedules,
                    "failure": (
                        None if result.failure is None
                        else str(result.failure)
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
        help="source tree for the static stage",
    )
    parser.add_argument(
        "--json", type=Path, metavar="PATH", default=None,
        help="write an aggregated machine-readable report to PATH",
    )
    parser.add_argument(
        "--static-only", action="store_true",
        help="run only the static analysis stage, not the explorer smoke",
    )
    args = parser.parse_args(argv)

    report = run_rules(args.root.resolve())
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
