"""Run one hgmatch benchmark workload and print its result as JSON.

    python3 hgbench/run.py --workload train-w1 --seed 1 --seconds 1 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Failed
checks are listed on standard error. See hgbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def limit_blas_threads():
    """One BLAS thread, set before numpy loads. The model's matmuls are
    narrow (d = 64), so a second thread buys little; and on a shared
    2-core machine, OpenBLAS threads waiting for a busy core made the
    training matmuls up to 20x slower."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, help="a key of workloads.WORKLOADS")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep running whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "hgmatch", ROOT / "tests" / "oracles.py")
               if not p.exists()]
    if missing:
        print(f"hgbench: missing {', '.join(str(p) for p in missing)}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    limit_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import workloads
    from tracing import LAYER_UNITS

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for line in result.pop("log"):
        print(f"hgbench: {args.workload} seed {args.seed}: {line}", file=sys.stderr)
    for problem in result.pop("problems"):
        print(f"hgbench: check failed: {problem}", file=sys.stderr)
    units = LAYER_UNITS if args.trace else workloads.E2E_UNITS
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
