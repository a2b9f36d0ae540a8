"""Per-category keyword index: candidate lookup and weighted negative sampling.

Sampling weights are sqrt(searched count). An epoch's negatives come from one
generator, by category in sorted order, by successive sampling (Wong & Easton
1980): inverse-CDF draws, a row keeping its first n distinct draws that are
not its positive, the law of Efraimidis & Spirakis's (2006) keys. A row still
short after `MAX_ROUNDS` rounds takes the rest of what it has left by keys.
"""

from __future__ import annotations

import numpy as np

from .graph import HeteroGraph, NodeType, _find


def stable_smallest(values, n):
    """The first n entries of np.argsort(values, kind="stable"): only the
    values not above the n-th smallest (ties and NaNs included) are sorted,
    and a stable sort puts those in the same order."""
    if 0 < n < len(values):
        kth = np.partition(values, n - 1)[n - 1]
        keep = np.flatnonzero(~(values > kth))
        return keep[np.argsort(values[keep], kind="stable")[:n]]
    return np.argsort(values, kind="stable")[:n]


MAX_ROUNDS = 8   # inverse-CDF rounds before a short row is completed by keys


class CategoryIndex:
    def __init__(self, kw_ids, kw_cats, weights):
        # every keyword id (ascending) and its category, negative for none
        self.kw_ids, self.kw_cats = kw_ids, kw_cats
        self.categories = {int(c): (kw_ids[kw_cats == c], weights[kw_cats == c])
                           for c in np.unique(kw_cats[kw_cats >= 0])}  # {cat: (ids, weights)}
        self.unknown_category_count = 0

    @classmethod
    def build(cls, graph: HeteroGraph) -> "CategoryIndex":
        ids = graph.ids_of[NodeType.KEYWORD]
        recs = [graph.nodes[NodeType.KEYWORD][int(k)] for k in ids]
        cats = np.array([r.category_id for r in recs], dtype=np.int64)
        return cls(ids, cats, np.sqrt(np.maximum([r.searched_count for r in recs], 0.0)))

    def candidate_keywords(self, graph: HeteroGraph, ad_id: int):
        """All keywords sharing the ad's leaf category (the retrieval universe)."""
        rec = graph.nodes[NodeType.AD].get(ad_id)
        cat = -1 if rec is None else rec.category_id
        entry = self.categories.get(cat)
        if entry is None:
            self.unknown_category_count += 1
            return np.empty(0, dtype=np.int64)
        return entry[0]

    def draw_negatives(self, positives, n: int, rng):
        """(len(positives), n) negatives, n distinct keywords of the positive's
        category but not it nor of zero weight, and the mask of rows that have
        them: not those with fewer than n such keywords or no category."""
        at, found = _find(self.kw_ids, positives)
        cats = np.full(len(positives), -1, dtype=np.int64)
        cats[found] = self.kw_cats[at[found]]
        out = np.zeros((len(positives), n), dtype=np.int64)
        for cat in np.unique(cats[cats >= 0]):
            ids, weights = self.categories[int(cat)]
            rows = np.flatnonzero(cats == cat)
            pos = np.searchsorted(ids, positives[rows])
            ok = np.count_nonzero(weights > 0) - (weights[pos] > 0) >= n
            cats[rows[~ok]] = -1
            out[rows[ok]] = ids[_successive(weights, pos[ok], n, rng)]
        return out, cats >= 0


def _successive(weights, pos, n, rng):
    """Per row, n distinct draws (indices) from `weights` in draw order, none its `pos`."""
    cum = np.cumsum(weights)
    got = np.column_stack([pos, np.full((len(pos), n), -1)])  # pos, then the draws kept
    short = np.arange(len(pos))
    earlier = np.tri(1 + 2 * n, k=-1, dtype=bool)
    for _ in range(MAX_ROUNDS):
        # side="right" never lands on a zero weight, whose cumulative sum is
        # its predecessor's; searching cum[:-1] caps the index at the last row
        draws = np.searchsorted(cum[:-1], rng.random((len(short), n)) * cum[-1], side="right")
        seen = np.concatenate([got[short], draws], axis=1)
        # a draw is kept if no earlier column holds it, while its row has room
        new = ~((seen[:, :, None] == seen[:, None, :]) & earlier).any(axis=2)
        new[:, :n + 1] = False
        slot = np.count_nonzero(got[short] >= 0, axis=1)[:, None] - 1 + np.cumsum(new, axis=1)
        r, c = np.nonzero(new & (slot <= n))
        got[short[r], slot[r, c]] = seen[r, c]
        short = short[got[short, -1] < 0]
        if not len(short):
            return got[:, 1:]
    for i in short:  # the rest from what the row has left, by exponential keys
        row = got[i]
        free = weights > 0
        free[row[row >= 0]] = False
        cand = np.flatnonzero(free)
        keys = rng.standard_exponential(len(cand)) / weights[cand]
        row[row < 0] = cand[stable_smallest(keys, np.count_nonzero(row < 0))]
    return got[:, 1:]
