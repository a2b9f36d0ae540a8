"""Per-category keyword index: candidate lookup and weighted negative sampling.

Sampling weights are sqrt(searched count), precomputed at build time.
Draws are without replacement via exponential-key order statistics
(Efraimidis–Spirakis), so a single draw is exactly proportional to weight
and everything is deterministic given the caller's seed.
"""

from __future__ import annotations

import numpy as np

from .graph import HeteroGraph, NodeType


def stable_smallest(values, n):
    """The first n entries of np.argsort(values, kind="stable"): only the
    values not above the n-th smallest (ties and NaNs included) are sorted,
    and a stable sort puts those in the same order."""
    if 0 < n < len(values):
        kth = np.partition(values, n - 1)[n - 1]
        keep = np.flatnonzero(~(values > kth))
        return keep[np.argsort(values[keep], kind="stable")[:n]]
    return np.argsort(values, kind="stable")[:n]


class CategoryTooSmall(Exception):
    """Raised when a category cannot supply n negatives; skip the training pair."""


class CategoryIndex:
    def __init__(self, categories, kw_category):
        self.categories = categories      # {cat_id: (ids array, weights array)}
        self.kw_category = kw_category    # {kw_id: cat_id}
        self.unknown_category_count = 0

    @classmethod
    def build(cls, graph: HeteroGraph) -> "CategoryIndex":
        by_cat = {}
        kw_category = {}
        for kw_id in graph.ids_of[NodeType.KEYWORD]:
            rec = graph.nodes[NodeType.KEYWORD][int(kw_id)]
            if rec.category_id < 0:
                continue
            kw_category[int(kw_id)] = rec.category_id
            by_cat.setdefault(rec.category_id, []).append(
                (int(kw_id), float(np.sqrt(max(rec.searched_count, 0.0))))
            )
        categories = {}
        for cat, pairs in by_cat.items():
            pairs.sort()
            ids = np.array([p[0] for p in pairs], dtype=np.int64)
            ws = np.array([p[1] for p in pairs], dtype=np.float64)
            categories[cat] = (ids, ws)
        return cls(categories, kw_category)

    def candidate_keywords(self, graph: HeteroGraph, ad_id: int):
        """All keywords sharing the ad's leaf category (the retrieval universe)."""
        rec = graph.nodes[NodeType.AD].get(ad_id)
        cat = -1 if rec is None else rec.category_id
        entry = self.categories.get(cat)
        if entry is None:
            self.unknown_category_count += 1
            return np.empty(0, dtype=np.int64)
        return entry[0]

    def sample_negatives(self, positive_kw: int, n: int, rng_seed) -> list:
        """n same-category keywords, p proportional to sqrt(searched count),
        without replacement, never the positive itself."""
        cat = self.kw_category.get(positive_kw)
        entry = None if cat is None else self.categories.get(cat)
        if entry is None:
            raise CategoryTooSmall(f"keyword {positive_kw} has no sampleable category")
        ids, weights = entry
        mask = (ids != positive_kw) & (weights > 0)
        pool_ids = ids[mask]
        pool_w = weights[mask]
        if len(pool_ids) < n:
            raise CategoryTooSmall(
                f"category {cat} has {len(pool_ids)} sampleable keywords, need {n}; "
                f"skip this training pair"
            )
        rng = np.random.default_rng(rng_seed)
        # key = u^(1/w); the n largest keys are a weighted draw w/o replacement
        keys = rng.random(len(pool_ids)) ** (1.0 / pool_w)
        top = stable_smallest(-keys, n)
        return [int(i) for i in pool_ids[top]]
