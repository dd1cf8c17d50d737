"""Umbrella verification entry point: ``python -m repro.verify``.

Aggregates every static and dynamic check the verify suite offers:

1. **Static analysis** — all framework rules (determinism W/R/S/H/L/B/N,
   protocol-flow F-*, lane C-*, hot-path P-*), exactly as
   ``python -m repro.verify.flowcheck``.
2. **Model-check smoke** — a small exhaustive state-space sweep of the
   MSI and MESI protocols with the switch cache on and off (2 nodes,
   1 op per node), catching dynamic protocol regressions the static
   passes cannot see.

The exit code is the logical OR of the stages: 0 only when the static
gate passes (no unsuppressed findings) *and* every smoke
configuration verifies clean.  ``--skip-modelcheck`` runs only the
static stage (useful on machines where the sweep is too slow).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from .flowcheck import DEFAULT_ROOT
from .framework import run_rules

#: (protocol, switch) smoke matrix — small enough to finish in seconds
SMOKE_CONFIGS = (
    ("msi", False),
    ("msi", True),
    ("mesi", False),
    ("mesi", True),
)


def _run_modelcheck_smoke() -> List[Dict[str, Any]]:
    from .modelcheck import check

    results: List[Dict[str, Any]] = []
    for protocol, switch in SMOKE_CONFIGS:
        result = check(
            protocol=protocol, nodes=2, ops_per_node=1, switch=switch,
        )
        results.append({
            "protocol": protocol,
            "switch": switch,
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
        "--skip-modelcheck", action="store_true",
        help="run only the static analysis stage",
    )
    args = parser.parse_args(argv)

    report = run_rules(args.root.resolve())
    print(report.render())
    exit_code = report.exit_code

    smoke: List[Dict[str, Any]] = []
    if not args.skip_modelcheck:
        smoke = _run_modelcheck_smoke()
        for entry in smoke:
            status = "ok" if entry["ok"] else "FAIL"
            switch = "switch" if entry["switch"] else "no-switch"
            print(
                f"modelcheck[{entry['protocol']}/{switch}]: "
                f"{entry['summary']} [{status}]"
            )
            if not entry["ok"]:
                exit_code = 1

    status = "ok" if exit_code == 0 else "FAIL"
    stages = "static" if args.skip_modelcheck else "static+modelcheck"
    print(f"verify: {stages} [{status}]")

    if args.json is not None:
        payload = {
            "static": report.to_dict(),
            "modelcheck": smoke,
            "exit_code": exit_code,
        }
        args.json.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
