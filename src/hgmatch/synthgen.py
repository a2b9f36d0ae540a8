"""Seeded synthetic heterogeneous networks with planted ad/keyword affinity.

Nodes are split into latent clusters; edges are mostly intra-cluster with a
configurable noise fraction, and weights follow a clipped power law (edge
weight stands for an occurrence count). A slice of every view's relations
is held out as evaluation targets and dropped from the graph; a cold-start
cohort of ads keeps bid edges only, with all of its clicks held out as
future targets. Categories are coarser groupings aligned with clusters
(cluster mod #categories), so candidate sets span several clusters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import SynthConfig, VIEW_AD_BID, VIEW_AD_CLICK, VIEW_ITEM_CLICK
from .features import (DEFAULT_BUCKETS, DEFAULT_WIDTH, KIND_ID, KIND_NUMERIC, KIND_TERMS,
                       FeatureManifest, FeatureSpec, save_manifest)
from .graph import NodeType, RELATION_SCHEMA, RELATIONS

BRANDS_PER_CLUSTER = 3
SHOP_VOCAB = 200


@dataclass
class GenStats:
    generated_edges: dict = field(default_factory=dict)  # relation -> distinct pairs
    graph_edges: dict = field(default_factory=dict)
    targets: dict = field(default_factory=dict)          # view -> target pair count
    labels: dict = field(default_factory=dict)
    cold_ads: list = field(default_factory=list)


def _heavy_counts(rng, n, cap=100):
    u = rng.random(n)
    return np.minimum(cap, np.floor(u ** (-1.0 / 1.3))).astype(np.int64)  # Pareto, alpha 1.3


def _assign_clusters(rng, n, clusters):
    base = np.tile(np.arange(clusters), n // clusters + 1)[:n]
    return base[rng.permutation(n)]


def _sample_relation(rng, cfg, rel, src_clusters, dst_clusters, stats):
    """Distinct (src, dst) pairs: intra-cluster quota plus uniform noise."""
    n_src, n_dst = len(src_clusters), len(dst_clusters)
    density = getattr(cfg, f"density_{rel.value}")  # <= 1, so at most every pair
    n_edges = int(round(density * (n_src * n_dst)))
    n_noise = int(round(n_edges * cfg.noise_edge_frac))
    n_intra = n_edges - n_noise

    by_cluster_src = {c: np.flatnonzero(src_clusters == c) for c in range(cfg.clusters)}
    by_cluster_dst = {c: np.flatnonzero(dst_clusters == c) for c in range(cfg.clusters)}
    capacities = (np.bincount(src_clusters, minlength=cfg.clusters)
                  * np.bincount(dst_clusters, minlength=cfg.clusters))
    cap_total = capacities.sum()
    n_intra = min(n_intra, int(cap_total))
    quotas = np.floor(n_intra * capacities / max(cap_total, 1)).astype(np.int64)
    remainder = n_intra - quotas.sum()
    order = np.argsort(-(n_intra * capacities / max(cap_total, 1) - quotas), kind="stable")
    quotas[order[:remainder]] += 1
    quotas = np.minimum(quotas, capacities)

    keys = []  # a pair is the key src * n_dst + dst, so keys sort as pairs do
    for c in range(cfg.clusters):
        srcs, dsts = by_cluster_src[c], by_cluster_dst[c]
        if quotas[c] == 0 or len(srcs) == 0 or len(dsts) == 0:
            continue
        flat = rng.choice(len(srcs) * len(dsts), size=quotas[c], replace=False)
        keys.append(srcs[flat // len(dsts)] * n_dst + dsts[flat % len(dsts)])
    # noise: one scalar draw at a time, src before dst
    keys.append(np.array([rng.integers(n_src) * n_dst + rng.integers(n_dst)
                          for _ in range(n_noise)], dtype=np.int64))
    keys = np.unique(np.concatenate(keys))
    weights = _heavy_counts(rng, len(keys))
    stats.generated_edges[rel.value] = len(keys)
    return dict(zip(zip((keys // n_dst).tolist(), (keys % n_dst).tolist()), weights.tolist()))


def _holdout(rng, edges: dict, frac: float, exclude_src=()):
    """Split target_frac of the edges out as evaluation targets."""
    exclude = set(exclude_src)
    eligible = [k for k in sorted(edges) if k[0] not in exclude]
    n_hold = int(round(len(eligible) * frac))
    idx = rng.choice(len(eligible), size=n_hold, replace=False) if n_hold else []
    held = {eligible[i] for i in sorted(idx)}
    kept = {k: w for k, w in edges.items() if k not in held}
    return kept, sorted(held)


def generate(cfg: SynthConfig, out_dir) -> tuple:
    """Write dataset files into out_dir; returns (paths dict, GenStats)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    stats = GenStats()

    ad_cluster = _assign_clusters(rng, cfg.ads, cfg.clusters)
    kw_cluster = _assign_clusters(rng, cfg.keywords, cfg.clusters)
    item_cluster = _assign_clusters(rng, cfg.items, cfg.clusters)
    ad_cat = ad_cluster % cfg.categories
    kw_cat = kw_cluster % cfg.categories
    item_cat = item_cluster % cfg.categories

    items_by_cluster = {c: np.flatnonzero(item_cluster == c) for c in range(cfg.clusters)}
    kws_by_cluster = {c: np.flatnonzero(kw_cluster == c) for c in range(cfg.clusters)}
    item_of_ad = np.array(
        [int(rng.choice(items_by_cluster[c])) for c in ad_cluster], dtype=np.int64
    )
    ads_of_item = {}
    for a, i in enumerate(item_of_ad):
        ads_of_item.setdefault(int(i), []).append(a)

    clusters = {NodeType.AD: ad_cluster, NodeType.KEYWORD: kw_cluster, NodeType.ITEM: item_cluster}
    click, bid, iclick, coclick = [  # one relation after another, in RELATIONS order
        _sample_relation(rng, cfg, rel, *(clusters[t] for t in RELATION_SCHEMA[rel]), stats)
        for rel in RELATIONS]

    n_cold = int(round(cfg.cold_start_frac * cfg.ads))
    cold = sorted(int(a) for a in rng.choice(cfg.ads, size=n_cold, replace=False))
    cold_set = set(cold)
    stats.cold_ads = cold

    # cold ads: clicks all become future targets, co-clicks vanish, bids stay
    cold_click_targets = {k for k in click if k[0] in cold_set}
    click = {k: w for k, w in click.items() if k[0] not in cold_set}
    coclick = {k: w for k, w in coclick.items() if k[0] not in cold_set}
    bidding = {k[0] for k in bid}
    have = Counter(s for s, _ in cold_click_targets)
    for a in cold:
        if a not in bidding:
            q = int(rng.choice(kws_by_cluster[ad_cluster[a]]))
            bid[(a, q)] = int(_heavy_counts(rng, 1)[0])
        pool = kws_by_cluster[ad_cluster[a]]
        for _ in range(max(0, 3 - have[a])):
            cold_click_targets.add((a, int(rng.choice(pool))))
    cold_click_targets = sorted(cold_click_targets)

    click, warm_click_targets = _holdout(rng, click, cfg.target_frac)
    bid, bid_targets = _holdout(rng, bid, cfg.target_frac, exclude_src=cold_set)
    iclick, iclick_held = _holdout(rng, iclick, cfg.target_frac)

    click_targets = sorted(set(warm_click_targets) | set(cold_click_targets))
    item_view_targets = sorted(
        {(a, q) for (i, q) in iclick_held for a in ads_of_item.get(i, [])}
    )
    targets = {VIEW_AD_CLICK: click_targets, VIEW_AD_BID: bid_targets,
               VIEW_ITEM_CLICK: item_view_targets}
    stats.targets = {v: len(pairs) for v, pairs in targets.items()}
    graph_edges = dict(zip(RELATIONS, (click, bid, iclick, coclick)))
    stats.graph_edges = {rel.value: len(edges) for rel, edges in graph_edges.items()}

    def _label_sample(pairs, quota):
        pairs = sorted(pairs)
        if len(pairs) <= quota:
            return pairs
        idx = rng.choice(len(pairs), size=quota, replace=False)
        return [pairs[i] for i in sorted(idx)]

    item_view_pairs = {(a, q) for (i, q) in iclick for a in ads_of_item.get(i, [])}
    labels = {
        VIEW_AD_CLICK: _label_sample(click.keys(), cfg.labels_per_view),
        VIEW_AD_BID: _label_sample(bid.keys(), cfg.labels_per_view),
        VIEW_ITEM_CLICK: _label_sample(item_view_pairs, cfg.labels_per_view),
    }
    stats.labels = {v: len(ls) for v, ls in labels.items()}

    # node features
    topic_block = max(1, cfg.term_vocab // cfg.clusters)

    def _terms(cluster):
        out = []
        for _ in range(cfg.terms_per_node):
            if rng.random() < cfg.term_noise:
                out.append(int(rng.integers(cfg.term_vocab)))
            else:
                out.append(int(cluster * topic_block % cfg.term_vocab + rng.integers(topic_block)))
        return ",".join(str(t) for t in out)

    def _brand(cluster):
        if rng.random() < 0.1:
            return int(rng.integers(BRANDS_PER_CLUSTER * cfg.clusters))
        return int(cluster * BRANDS_PER_CLUSTER + rng.integers(BRANDS_PER_CLUSTER))

    def _listing(kind, i, cluster, cat):
        """The node line of an ad or an item: both carry the same features."""
        feats = (f"{kind}_id={i} terms={_terms(cluster)} category_path={cat} "
                 f"brand={_brand(cluster)} shop={int(rng.integers(SHOP_VOCAB))}")
        return f"{kind}\t{i}\t{cat}\t0\t" + feats.replace(" ", "\t") + "\n"

    paths = {
        "edges": out_dir / "edges.tsv",
        "nodes": out_dir / "nodes.tsv",
        "labels": out_dir / "labels.tsv",
        "task": out_dir / "task.tsv",
        "features": out_dir / "features.tsv",
    }

    with open(paths["nodes"], "w", encoding="utf-8") as fh:
        fh.write("# node_type\tnode_id\tcategory_id\tsearched_count\tfeatures...\n")
        for a in range(cfg.ads):
            fh.write(_listing("ad", a, ad_cluster[a], ad_cat[a]))
        for q in range(cfg.keywords):
            searched = int(min(10000, np.floor(rng.random() ** (-1.0 / 1.1))))
            feats = (
                f"kw_id={q} terms={_terms(kw_cluster[q])} pred_category={kw_cat[q]} "
                f"bid_price={round(float(rng.lognormal(0.0, 1.0)), 4)} "
                f"bid_count={int(_heavy_counts(rng, 1, cap=1000)[0])} "
                f"inshop_count={int(_heavy_counts(rng, 1, cap=1000)[0])}"
            )
            fh.write(f"keyword\t{q}\t{kw_cat[q]}\t{searched}\t" + feats.replace(" ", "\t") + "\n")
        for i in range(cfg.items):
            fh.write(_listing("item", i, item_cluster[i], item_cat[i]))

    with open(paths["edges"], "w", encoding="utf-8") as fh:
        fh.write("# src_type\tsrc_id\trelation\tdst_type\tdst_id\tweight\n")
        for rel, edges in graph_edges.items():
            st, dt = RELATION_SCHEMA[rel]
            head, mid = f"{st.value}\t", f"\t{rel.value}\t{dt.value}\t"
            fh.write("".join(f"{head}{s}{mid}{d}\t{w}\n" for (s, d), w in sorted(edges.items())))

    for name, pairs_by_view in (("labels", labels), ("task", targets)):
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write("# view\tad_id\tkeyword_id\n")
            fh.write("".join(f"{view}\t{a}\t{q}\n"
                             for view, pairs in pairs_by_view.items() for a, q in pairs))

    w, b = DEFAULT_WIDTH, DEFAULT_BUCKETS
    brand = FeatureSpec("brand", KIND_ID, BRANDS_PER_CLUSTER * cfg.clusters, w)
    shop = FeatureSpec("shop", KIND_ID, SHOP_VOCAB, w)
    terms = FeatureSpec("terms", KIND_TERMS, cfg.term_vocab, w)
    category_path = FeatureSpec("category_path", KIND_ID, cfg.categories, w)
    save_manifest(FeatureManifest({
        NodeType.AD: [FeatureSpec("ad_id", KIND_ID, cfg.ads, w), terms, category_path, brand, shop],
        NodeType.KEYWORD: [
            FeatureSpec("kw_id", KIND_ID, cfg.keywords, w), terms,
            FeatureSpec("pred_category", KIND_ID, cfg.categories, w),
            *(FeatureSpec(n, KIND_NUMERIC, b, w) for n in ("bid_price", "bid_count", "inshop_count")),
        ],
        NodeType.ITEM: [FeatureSpec("item_id", KIND_ID, cfg.items, w), terms, category_path, brand, shop],
    }), paths["features"])

    # leakage guard: held-out targets must not survive as graph edges
    assert not (set(click_targets) & set(click))
    assert not (set(bid_targets) & set(bid))

    return {k: str(v) for k, v in paths.items()}, stats
