"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Criteria 7-9 share one set of training runs (6 variants x 5 seeds) through
the session fixture below. Directional experiments use the default config
except for the learning rate, which is run at 0.003: the book default of
0.03 is tuned for ~10M-pair production epochs and is unstable over the
~75 optimizer steps a desk-scale run performs (see README). Everything
else -- batch 512, epochs 5, d 64, l 16, m 10, kappa 3, 5 negatives,
gamma 1 -- is the stock default.
"""

import time

import numpy as np
import pytest

from hgmatch.config import SynthConfig, TrainConfig, VARIANTS
from hgmatch.graph import NodeRef, NodeType
from hgmatch.model import AD_TOWER, KW_TOWER
from hgmatch.pipeline import (build_model, load_dataset, train_variant, evaluate_variant,
                              task_cohorts)
from hgmatch.retrieval import EmbeddingStore, EvalTask, recall_at_k, topk_retrieve
from hgmatch.sampling import CategoryIndex
from hgmatch.synthgen import generate
from hgmatch.trainer import TrainingPairs, build_training_pairs, grad_check, loss_from_forward

from oracles import naive_node_embedding, naive_recall, node_embedding, posterior


def report(criterion, name, ok, detail=""):
    line = f"ACCEPTANCE {criterion:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def make_dataset(tmp_factory, tag, synth_cfg):
    out = tmp_factory.mktemp(tag)
    paths, stats = generate(synth_cfg, out)
    ds = load_dataset(paths["edges"], paths["nodes"], paths["features"],
                      labels=paths["labels"], task=paths["task"])
    ds.paths = paths
    ds.stats = stats
    return ds


# --- criteria 7-9 share these runs -------------------------------------------

EXPERIMENT_SEEDS = (1, 2, 3, 4, 5)
EXPERIMENT_VARIANTS = ("full", "no_siamese", "single_view", "bid_only", "item_only", "dssm")
EXPERIMENT_K = 50
# desk-scale adaptation: stock defaults except the learning rate (see module docstring)
EXPERIMENT_LR = 0.003


@pytest.fixture(scope="session")
def experiment_results(tmp_path_factory):
    results = {}
    for seed in EXPERIMENT_SEEDS:
        ds = make_dataset(tmp_path_factory, f"exp_seed{seed}",
                          SynthConfig(seed=seed, labels_per_view=2500))
        for vname in EXPERIMENT_VARIANTS:
            cfg = TrainConfig(seed=seed, learning_rate=EXPERIMENT_LR)
            t0 = time.time()
            model, fit = train_variant(ds, cfg, VARIANTS[vname])
            seconds = time.time() - t0
            overall, cold = evaluate_variant(model, ds, ks=[EXPERIMENT_K],
                                             cohorts=task_cohorts(ds))
            results[(seed, vname)] = {
                "recall": overall[EXPERIMENT_K].overall,
                "cold": cold[EXPERIMENT_K].overall,
                "seconds": seconds,
                "epoch_losses": fit.epoch_losses,
            }
    return results


def test_criterion_1_gradient_correctness(tmp_path_factory):
    ds = make_dataset(
        tmp_path_factory, "gradcheck",
        SynthConfig(ads=40, keywords=80, items=20, categories=2, clusters=4,
                    density_ad_click_kw=0.05, density_ad_bid_kw=0.05,
                    density_item_click_kw=0.08, density_ad_coclick_item=0.08,
                    labels_per_view=60, term_vocab=50, seed=3),
    )
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=3)
    model = build_model(ds, cfg, VARIANTS["full"])
    assert len(model.params.names()) > 0
    pairs, _ = build_training_pairs(ds.labels[:16], ds.cat_index, cfg.negatives, (3, 0))
    t0 = time.time()
    rep = grad_check(model, pairs, probe_count=200, eps=1e-4, seed=3)
    elapsed = time.time() - t0
    report(1, "gradient correctness", rep.max_rel_error <= 1e-4 and elapsed < 60.0,
           f"max rel err {rep.max_rel_error:.2e}, {elapsed:.1f}s, 200 probes, all 6 metapaths")


def test_criterion_2_memoization_equivalence(tmp_path_factory):
    # exactly 1,000 nodes
    ds = make_dataset(
        tmp_path_factory, "memo",
        SynthConfig(ads=400, keywords=450, items=150, categories=3, clusters=10,
                    density_ad_click_kw=0.01, density_ad_bid_kw=0.01,
                    density_item_click_kw=0.02, density_ad_coclick_item=0.02,
                    labels_per_view=300, term_vocab=200, seed=5),
    )
    assert sum(ds.graph.num_nodes(t) for t in NodeType) == 1000
    cfg = TrainConfig(d=16, l=4, m=10, kappa=3, seed=5)
    model = build_model(ds, cfg, VARIANTS["full"])
    ads, kws = ds.graph.ids_of[NodeType.AD][:50], ds.graph.ids_of[NodeType.KEYWORD][:50]
    refs = [NodeRef(NodeType.AD, int(a)) for a in ads]
    refs += [NodeRef(NodeType.KEYWORD, int(q)) for q in kws]
    assert len(refs) == 100
    fwd = model.forward(ads, kws)

    def rel_diff(a, b):
        return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-9))

    worst = 0.0
    for ref in refs:
        got = node_embedding(fwd, ref)
        h_tilde, _, z, per_view = naive_node_embedding(model, ref)
        worst = max(worst, rel_diff(got.h_tilde, h_tilde), rel_diff(got.z, z))
        for view, vec in per_view.items():
            worst = max(worst, rel_diff(got.per_view[view], vec))
    # first-hop entries that read a row another entry of their pool reads:
    # a neighbor several roots share, computed once
    shared = sum(len(pp.child_pools[0].src_rows) - len(np.unique(pp.child_pools[0].src_rows))
                 for f in fwd.towers.values() for pp in f.plan.path_plans)
    report(2, "memoization equivalence",
           worst <= 1e-6 and shared > 0,
           f"max rel diff {worst:.2e}, shared first-hop reads {shared}")


def test_criterion_3_softmax_attention_invariants(tmp_path_factory):
    ds = make_dataset(
        tmp_path_factory, "attn",
        SynthConfig(ads=500, keywords=600, items=100, categories=3, clusters=10,
                    density_ad_click_kw=0.008, density_ad_bid_kw=0.008,
                    density_item_click_kw=0.015, density_ad_coclick_item=0.015,
                    labels_per_view=300, term_vocab=200, seed=6),
    )
    cfg = TrainConfig(d=16, l=4, seed=6)
    model = build_model(ds, cfg, VARIANTS["full"])
    rng = np.random.default_rng(6)
    ads = ds.graph.ids_of[NodeType.AD]
    kws = ds.graph.ids_of[NodeType.KEYWORD]
    picks_a = rng.choice(ads, size=500, replace=False)
    picks_q = rng.choice(kws, size=500, replace=False)
    fwd = model.forward(picks_a, picks_q)
    sums = []
    for tower in (AD_TOWER, KW_TOWER):
        w = fwd.towers[tower].att_weights
        sums.append(np.abs(w.sum(axis=1) - 1.0).max())
        assert np.all(w > 0)
    n_nodes = sum(len(fwd.towers[t].plan.all_ids) for t in (AD_TOWER, KW_TOWER))
    assert n_nodes >= 1000
    att_ok = max(sums) <= 1e-6

    # posterior slates sum to 1 +- 1e-9
    post_ok = True
    for _ in range(1000):
        scores = rng.normal(scale=4.0, size=6)
        gamma = float(rng.uniform(0.2, 3.0))
        total = sum(posterior(scores[i], np.delete(scores, i), gamma) for i in range(6))
        post_ok &= abs(total - 1.0) <= 1e-9

    # loss invariant under permutation of the negatives to 1e-9
    pairs, _ = build_training_pairs(ds.labels[:64], ds.cat_index, cfg.negatives, (6, 0))
    loss_fwd = model.forward(
        [p.ad for p in pairs],
        [p.positive_kw for p in pairs] + [n for p in pairs for n in p.negatives],
    )
    base = float(loss_from_forward(model, loss_fwd, pairs).data)
    perm_ok = True
    for _ in range(5):
        permuted = TrainingPairs(pairs.ad, pairs.positive_kw, pairs.view,
                                 rng.permuted(pairs.negatives, axis=1))
        got = float(loss_from_forward(model, loss_fwd, permuted).data)
        perm_ok &= abs(got - base) <= 1e-9
    report(3, "softmax/attention invariants", att_ok and post_ok and perm_ok,
           f"att sum dev {max(sums):.1e} on {n_nodes} nodes")


def test_criterion_4_retrieval_exactness():
    rng = np.random.default_rng(4)
    d = 16
    n_kws = 2000
    kw_mat = rng.normal(size=(n_kws, d))
    kw_mat[500] = kw_mat[400]  # plant exact ties
    kw_mat[501] = kw_mat[400]
    ok = True
    for trial in range(100):
        n_ads = 1
        ad_vec = rng.normal(size=(1, d))
        store = EmbeddingStore(
            d, ("ad_click",),
            {"ad_click": {NodeType.AD: (np.array([0]), ad_vec),
                          NodeType.KEYWORD: (np.arange(n_kws), kw_mat)}},
        )
        cands = rng.choice(n_kws, size=1000, replace=False).tolist()
        k = int(rng.integers(10, 400))
        got = topk_retrieve(store, 0, "ad_click", k, cands)
        scored = sorted(((-(kw_mat[q] @ ad_vec[0]), q) for q in cands))
        expect = [q for _, q in scored[:k]]
        ok &= got == expect
    report(4, "retrieval exactness", ok, "100 instances, |candidates|=1000, ties included")


def test_criterion_5_recall_arithmetic():
    rng = np.random.default_rng(55)
    ok_oracle, ok_mono = True, True
    for _ in range(50):
        n_ads = int(rng.integers(3, 10))
        ads = list(range(n_ads))
        targets = {
            a: set(rng.choice(200, size=int(rng.integers(1, 12)), replace=False).tolist())
            for a in ads
        }
        ranked = {a: rng.permutation(200).tolist() for a in ads}
        lines = [("ad_click", a, t) for a in ads for t in targets[a]]
        task = EvalTask.from_lines(lines)
        prev = -1.0
        for k in (5, 20, 50, 120):
            retrieved = {a: {"ad_click": ranked[a][:k]} for a in ads}
            got = recall_at_k(task, retrieved).overall
            union = {a: set(ranked[a][:k]) for a in ads}
            ok_oracle &= abs(got - naive_recall(ads, targets, union)) <= 1e-12
            ok_mono &= got >= prev - 1e-12
            prev = got
    report(5, "recall arithmetic", ok_oracle and ok_mono,
           "50 random tasks vs independent oracle, monotone in K")


def test_criterion_6_negative_sampler_distribution():
    from hgmatch.graph import NodeRecord
    from oracles import ingest

    records = [
        NodeRecord(NodeType.KEYWORD, 1, 0, 4.0, {}),
        NodeRecord(NodeType.KEYWORD, 2, 0, 9.0, {}),
        NodeRecord(NodeType.KEYWORD, 3, 0, 1.0, {}),
    ]
    idx = CategoryIndex.build(ingest([], records))
    n = 100_000
    pairs, _ = build_training_pairs([("ad_click", 0, 3)] * n, idx, 1, (777,))
    freq = np.count_nonzero(pairs.negatives[:, 0] == 2) / len(pairs)
    report(6, "negative sampler distribution", abs(freq - 0.6) <= 0.00466,
           f"freq {freq:.5f} vs 0.6 +- 0.00466")


def test_criterion_7_learning_signal(experiment_results):
    res = experiment_results
    full = [res[(s, "full")]["recall"] for s in EXPERIMENT_SEEDS]
    dssm = [res[(s, "dssm")]["recall"] for s in EXPERIMENT_SEEDS]
    nos = [res[(s, "no_siamese")]["recall"] for s in EXPERIMENT_SEEDS]
    times = [res[(s, v)]["seconds"] for s in EXPERIMENT_SEEDS for v in EXPERIMENT_VARIANTS]
    ratio_ok = np.mean(full) >= 1.10 * np.mean(dssm)
    siamese_wins = sum(f >= n for f, n in zip(full, nos))
    time_ok = max(times) < 600.0
    report(7, "learning signal",
           ratio_ok and siamese_wins >= 4 and time_ok,
           f"mean full {np.mean(full):.4f} vs dssm {np.mean(dssm):.4f}, "
           f"full>=no_siamese in {siamese_wins}/5 seeds, max run {max(times):.0f}s")


def test_planted_graph_loss_decreases_all_seeds(experiment_results):
    # not a numbered criterion: final-epoch mean loss < first-epoch mean loss
    # on the planted dataset, for every seed
    for s in EXPERIMENT_SEEDS:
        losses = experiment_results[(s, "full")]["epoch_losses"]
        assert losses[-1] < losses[0], (s, losses)


def test_criterion_8_cold_start_benefit(experiment_results):
    res = experiment_results
    wins = sum(
        res[(s, "full")]["cold"] >= res[(s, "single_view")]["cold"]
        for s in EXPERIMENT_SEEDS
    )
    full_mean = np.mean([res[(s, "full")]["cold"] for s in EXPERIMENT_SEEDS])
    sv_mean = np.mean([res[(s, "single_view")]["cold"] for s in EXPERIMENT_SEEDS])
    report(8, "cold-start benefit", wins >= 4,
           f"multi-view wins {wins}/5 seeds (means {full_mean:.4f} vs {sv_mean:.4f})")


def test_criterion_9_metapath_group_crossover(experiment_results):
    res = experiment_results
    full = np.mean([res[(s, "full")]["recall"] for s in EXPERIMENT_SEEDS])
    bid = np.mean([res[(s, "bid_only")]["recall"] for s in EXPERIMENT_SEEDS])
    item = np.mean([res[(s, "item_only")]["recall"] for s in EXPERIMENT_SEEDS])
    report(9, "metapath-group crossover", full >= max(bid, item),
           f"full {full:.4f} vs bid {bid:.4f} / item {item:.4f}")


ABLATE_OVERRIDES = [
    "--set", "d=16", "--set", "l=4", "--set", "m=5", "--set", "kappa=2",
    "--set", "batch_size=128", "--set", "learning_rate=0.01", "--set", "epochs=2",
]


def test_criterion_10_ablate_determinism(tmp_path_factory):
    from hgmatch.cli import main

    data = tmp_path_factory.mktemp("det_data")
    gen_overrides = []
    for k, v in dict(ads=120, keywords=240, items=60, categories=3, clusters=6,
                     density_ad_click_kw=0.02, density_ad_bid_kw=0.02,
                     density_item_click_kw=0.03, density_ad_coclick_item=0.03,
                     labels_per_view=300, term_vocab=120).items():
        gen_overrides += ["--set", f"{k}={v}"]
    assert main(["synth-gen", "--out-dir", str(data), "--seed", "21", *gen_overrides]) == 0
    reports = []
    for run in ("r1", "r2"):
        out = tmp_path_factory.mktemp(f"det_{run}")
        rc = main([
            "ablate",
            "--edges", str(data / "edges.tsv"), "--nodes", str(data / "nodes.tsv"),
            "--labels", str(data / "labels.tsv"), "--features", str(data / "features.tsv"),
            "--task", str(data / "task.tsv"),
            "--out-dir", str(out), "--seed", "21", *ABLATE_OVERRIDES,
        ])
        assert rc == 0
        reports.append(
            ((out / "report.txt").read_bytes(), (out / "report.tsv").read_bytes())
        )
    same = reports[0][0] == reports[1][0] and reports[0][1] == reports[1][1]
    report(10, "ablate determinism", same, "two runs byte-identical")


def test_criterion_11_hyperparameter_fidelity(tmp_path_factory):
    from hgmatch.cli import main
    from hgmatch.config import load_config_file

    data = tmp_path_factory.mktemp("fidelity_data")
    gen_overrides = []
    for k, v in dict(ads=60, keywords=120, items=30, categories=2, clusters=4,
                     density_ad_click_kw=0.04, density_ad_bid_kw=0.04,
                     density_item_click_kw=0.06, density_ad_coclick_item=0.06,
                     labels_per_view=100, term_vocab=60).items():
        gen_overrides += ["--set", f"{k}={v}"]
    assert main(["synth-gen", "--out-dir", str(data), "--seed", "31", *gen_overrides]) == 0
    out = tmp_path_factory.mktemp("fidelity_run")
    # all-default TrainConfig: the manifest must echo the stock values
    rc = main([
        "train",
        "--edges", str(data / "edges.tsv"), "--nodes", str(data / "nodes.tsv"),
        "--labels", str(data / "labels.tsv"), "--features", str(data / "features.tsv"),
        "--out-dir", str(out),
    ])
    assert rc == 0
    manifest = load_config_file(out / "manifest.txt")
    want = {
        "config.learning_rate": "0.03",
        "config.batch_size": "512",
        "config.epochs": "5",
        "config.d": "64",
        "config.l": "16",
        "config.m": "10",
        "config.kappa": "3",
        "config.negatives": "5",
        "optimizer": "Adam",
    }
    ok = all(manifest.get(k) == v for k, v in want.items())
    missing = {k: manifest.get(k) for k, v in want.items() if manifest.get(k) != v}
    report(11, "hyperparameter fidelity", ok, f"mismatches: {missing}" if missing else "all defaults echoed")
