#!/usr/bin/env python3
"""Multi-seed ablation: run the variant grid per seed and average recalls.

Usage: python scripts/run_ablation.py [seeds] [k1,k2,...]
seeds is N (seeds 1 to N, default 3) or an inclusive range A-B.
Writes per-seed reports under runs/ablation/seed<N>/ and prints a mean
summary across seeds. When the K list holds 50, it also prints per seed
the margins acceptance criteria 7-9 compare, then each margin's quartiles
(a criterion holds on a 5-seed mean when its margin is >= 0; criteria 7
and 8 also count per-seed wins). The acceptance suite runs one BLAS
thread: set OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 to reproduce it.
"""

import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from hgmatch.cli import main
from hgmatch.config import ABLATION_ORDER
from hgmatch.pipeline import SECTION_COLD, SECTION_OVERALL

SEEDS_ARG = sys.argv[1] if len(sys.argv) > 1 else "3"
FIRST, _, LAST = SEEDS_ARG.rpartition("-")
SEEDS = range(int(FIRST or 1), int(LAST) + 1)
KS = sys.argv[2] if len(sys.argv) > 2 else "50,100,200"
MARGIN_K = 50
ROOT = Path("runs/ablation")


def sh(args):
    rc = main(args)
    if rc != 0:
        sys.exit(rc)


means = defaultdict(list)
for seed in SEEDS:
    data = ROOT / f"seed{seed}" / "data"
    out = ROOT / f"seed{seed}" / "grid"
    sh(["synth-gen", "--out-dir", str(data), "--seed", str(seed),
        "--set", "labels_per_view=2500"])
    sh(["ablate",
        "--edges", str(data / "edges.tsv"), "--nodes", str(data / "nodes.tsv"),
        "--labels", str(data / "labels.tsv"), "--features", str(data / "features.tsv"),
        "--task", str(data / "task.tsv"), "--ks", KS,
        "--seed", str(seed), "--set", "learning_rate=0.003",
        "--out-dir", str(out)])
    for line in (out / "report.tsv").read_text().splitlines()[1:]:
        variant, section, k, value = line.split("\t")
        if value != "-":
            means[(variant, section, int(k))].append(float(value))

print(f"\n== mean recall across {len(SEEDS)} seeds ==")
ks = sorted({k for (_, _, k) in means})
print("variant".ljust(14) + "".join(f"K={k}".rjust(10) for k in ks))
for variant in ABLATION_ORDER:
    cells = []
    for k in ks:
        vals = means.get((variant, SECTION_OVERALL, k))
        cells.append(f"{np.mean(vals):.4f}".rjust(10) if vals else "-".rjust(10))
    print(variant.ljust(14) + "".join(cells))

if MARGIN_K in ks:
    def at(variant, section=SECTION_OVERALL):
        return np.array(means[(variant, section, MARGIN_K)])

    margins = {
        "c7 full-1.10*dssm": at("full") - 1.10 * at("dssm"),
        "c7 full-no_siamese": at("full") - at("no_siamese"),
        "c8 cold full-single_view": at("full", SECTION_COLD) - at("single_view", SECTION_COLD),
        "c9 full-bid_only": at("full") - at("bid_only"),
        "c9 full-item_only": at("full") - at("item_only"),
    }
    print(f"\n== criteria 7-9 margins at K={MARGIN_K} ==")
    print("seed\t" + "\t".join(margins))
    for i, seed in enumerate(SEEDS):
        print(f"{seed}\t" + "\t".join(f"{m[i]:+.4f}" for m in margins.values()))
    print("\nmargin\t>=0\tq1\tmedian\tq3")
    for name, m in margins.items():
        q1, med, q3 = np.percentile(m, [25, 50, 75])
        print(f"{name}\t{int((m >= 0).sum())}/{len(m)}\t{q1:+.4f}\t{med:+.4f}\t{q3:+.4f}")
