"""gradplay benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-sim --seed 3 --seconds 20 --trace 0

Workloads: ``paper-sim``, ``scale-tree``, ``audit-sweep`` (see README.md
beside this file).  ``--trace 0`` measures the end-to-end metrics with
nothing wrapped; ``--trace 1`` wraps each layer and reports per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when
every output check passed, 1 when one failed, 2 on a usage error or when
the gradplay sources are missing.
"""

import argparse
import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread, set before anything imports numpy; the set-up
# probes started from this process inherit it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper-sim", "scale-tree", "audit-sweep")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gradplay" / "__init__.py").is_file():
        print(f"perfbench: gradplay sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
