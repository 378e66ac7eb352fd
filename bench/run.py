"""Period-latency benchmark of mgnet.

Usage, from the root of a checkout:

    python3 bench/run.py --workload resilient_f1 --seed 3 --seconds 35 --trace 0

Runs decision periods of one workload (see bench/workloads.json) back
to back for --seconds and prints a report, then one JSON line with
"correct", "attempted", "failed" and "metrics": the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Exits 1 without
numbers when a correctness gate fails and 2 when mgnet cannot be
imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
# A second BLAS thread made two identical runs differ by 20% on a 2-core
# machine; the variables only take effect if set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="default: the workload's default_seed")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    try:
        import mgnet
    except ImportError as exc:
        print(f"bench: cannot import mgnet from {SRC_DIR}: {exc}", file=sys.stderr)
        return 2
    if SRC_DIR.resolve() not in Path(mgnet.__file__).resolve().parents:
        print(f"bench: mgnet was imported from {mgnet.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2
    import harness
    from workloads import load_specs

    specs = load_specs()
    if args.workload not in specs:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(specs)}")
    spec = specs[args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed

    env = harness.environment()
    print("environment " + json.dumps(env, sort_keys=True))
    try:
        result = harness.measure(spec, seed, args.seconds, bool(args.trace))
    except harness.GateError as exc:
        print(f"bench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {seed} trace {args.trace}: "
          f"{result.attempted} periods attempted, {result.failed} failed")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for note in result.notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
