"""Run a workload over several seeds and report each metric's spread.

    python3 hgbench/spread.py --workloads train-w1 train-match-x5 --seeds 1-10

The runs are untraced. For every end-to-end metric this prints the median,
the quartiles and the inter-quartile range as a share of the median
(Python's `statistics.quantiles(values, n=4)`), next to the metric's bound
from BENCHMARK.json. The raw results go to .hgbench_results/<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out_dir = ROOT / ".hgbench_results"
    out_dir.mkdir(exist_ok=True)
    ok = True
    for workload in args.workloads:
        runs = []
        with open(out_dir / f"{workload}.jsonl", "a", encoding="utf-8") as log:
            for seed in args.seeds:
                cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
                wall = time.perf_counter() - t0
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                result.update(workload=workload, seed=seed, wall_s=wall)
                log.write(json.dumps(result) + "\n")
                runs.append(result)
                ok &= result["correct"]
                print(f"{workload} seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
                      f"failed {result['failed']}/{result['attempted']}", flush=True)
        print(f"{workload}: {len(runs)} runs, mean wall {statistics.fmean(r['wall_s'] for r in runs):.1f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:34s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"iqr/median {share:7.4f}" + (f"  bound {bound}" if bound else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
