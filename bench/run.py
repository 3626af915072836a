"""Run one jointseg benchmark workload and print its metrics.

    python3 bench/run.py --workload train-512 --seed 1 --seconds 30 --trace 0

Run from the root of a jointseg checkout. With ``--trace 0`` the last line of
standard output is one JSON object whose metrics are the end-to-end metrics
declared in ``BENCHMARK.json``; with ``--trace 1`` they are the per-layer
metrics of a traced run, and the spans and a per-layer self-time table are
written under ``.bench_out/``. Exits 1 when an output check fails and 2 when
the benchmark cannot run (for example, without the program's ``src/``).
"""

from __future__ import annotations

import os

# Pinned before numpy loads; the environment record repeats the value.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_args(argv=None, workloads=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "jointseg" / "__init__.py").is_file():
        print(f"error: no jointseg sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from jsbench import harness
    from jsbench.workloads import WORKLOADS, SetupError

    args = parse_args(argv, WORKLOADS)
    try:
        return harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           ROOT, BLAS_THREADS)
    except (SetupError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
