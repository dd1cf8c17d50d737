"""Benchmark of the switch-cache simulator: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload paper-sc16 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (it adds one profiled pass and writes its spans and self times to
``perfbench/out/``).  Every metric is printed by name with its unit, then
the failed-run count, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own tests")
    parser.add_argument("--write-pins", action="store_true",
                        help="record this run's simulated statistics as the "
                             "pinned reference values (default seed only)")
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"simulator sources not found at {SRC}")
    sys.path.insert(0, str(SRC))
    import bench  # beside this script, so already importable

    if args.workload not in bench.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(bench.WORKLOADS)}")
    forbidden = bench.forbidden_env()
    if forbidden:
        return fail(f"refusing to run with {', '.join(forbidden)} set: "
                    "the benchmark measures the default program only")
    if args.write_pins and args.seed != bench.DEFAULT_SEED:
        return fail(f"pins are recorded at the default seed "
                    f"{bench.DEFAULT_SEED} only")

    pins = None if args.write_pins else bench.load_pins()
    result = bench.measure(args.workload, args.seed, args.seconds,
                           trace=bool(args.trace), size=args.size, pins=pins)
    if args.write_pins or not result.passes:
        for problem in result.problems:
            print(problem, file=sys.stderr)
        if not result.correct:
            return fail("the run failed; see the problems above")
        bench.write_pins(result, args.size)
        print(f"pins for {args.workload} ({args.size}) written")
        return 0

    env = bench.environment()
    metrics = (bench.per_layer(result) if args.trace
               else bench.end_to_end(result))
    print(f"# workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} python={env['python']} nproc={env['nproc']}")
    print(f"# passes={len(result.passes)} "
          f"setup_samples={len(result.setup_samples)} "
          f"pins={'checked' if result.pinned else 'not checked (seed)'}")
    if result.traced is not None:
        path = bench.write_trace(result, env)
        print(f"# trace written to {path}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value!r:>24} {unit}")
    print(f"failed runs: {result.failed} of {result.attempted}")
    for problem in result.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
