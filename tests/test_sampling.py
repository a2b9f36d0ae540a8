import collections

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hgmatch.graph import NodeRecord, NodeType
from hgmatch.sampling import MAX_ROUNDS, CategoryIndex, stable_smallest
from hgmatch.trainer import build_training_pairs
from oracles import ingest


def kw(nid, cat, searched):
    return NodeRecord(NodeType.KEYWORD, nid, cat, searched, {})


def ad(nid, cat):
    return NodeRecord(NodeType.AD, nid, cat, 0.0, {})


def build_index(records):
    return CategoryIndex.build(ingest([], records))


def test_weights_are_sqrt_of_searched_count():
    idx = build_index([kw(1, 0, 4.0), kw(2, 0, 9.0)])
    ids, ws = idx.categories[0]
    assert list(ids) == [1, 2]
    assert list(ws) == [2.0, 3.0]


def draw(idx, positives, n, seed_key):
    """build_training_pairs over one label per positive keyword."""
    return build_training_pairs([("ad_click", 0, int(k)) for k in positives], idx, n, seed_key)


def test_single_draw_proportional_to_sqrt_weight():
    # counts {4, 9} -> weights {2, 3}; the positive kw3 is excluded, so
    # p(kw2) = 3 / 5 = 0.6; 3-sigma band
    idx = build_index([kw(1, 0, 4.0), kw(2, 0, 9.0), kw(3, 0, 1.0)])
    n = 20000
    pairs, _ = draw(idx, [3] * n, 1, (42,))
    hits = np.count_nonzero(pairs.negatives[:, 0] == 2)
    p = 3.0 / 5.0
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * sigma


def test_successive_draws_follow_the_sampling_law():
    """The ordered (first, second) negatives of 10^5 pairs in one call
    against successive sampling: p(i, j) = w_i / W * w_j / (W - w_i)."""
    # a zero-weight positive beside four keywords of weights 1, 2, 3, 4
    idx = build_index([kw(0, 0, 0.0), *(kw(i, 0, float(i * i)) for i in range(1, 5))])
    pairs, skipped = draw(idx, [0] * 100_000, 2, (5, 101, 0))
    assert skipped == 0
    w = {i: float(i) for i in range(1, 5)}
    total = sum(w.values())
    cells = [(i, j) for i in w for j in w if i != j]
    expected = np.array([w[i] / total * w[j] / (total - w[i]) for i, j in cells]) * len(pairs)
    seen = collections.Counter(map(tuple, pairs.negatives.tolist()))
    assert set(seen) <= set(cells)
    observed = np.array([seen[c] for c in cells])
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def test_never_returns_positive_or_duplicates():
    idx = build_index([kw(i, 0, float(i + 1)) for i in range(10)])
    positives = np.repeat(np.arange(10), 20)
    pairs, skipped = draw(idx, positives, 5, (0,))
    assert skipped == 0
    for pos, row in zip(positives, pairs.negatives.tolist()):
        assert pos not in row
        assert len(set(row)) == len(row) == 5


def test_exhaustion_returns_all_non_positive():
    idx = build_index([kw(i, 0, 1.0) for i in range(6)])
    pairs, _ = draw(idx, [2] * 50, 5, (0,))
    assert len(pairs) == 50
    for row in pairs.negatives.tolist():
        assert sorted(row) == [0, 1, 3, 4, 5]


def test_category_too_small_is_skipped():
    # category 0 has one sampleable keyword besides either positive; category
    # 1 has five besides its positive; kw 20 has no category
    idx = build_index([kw(1, 0, 1.0), kw(2, 0, 1.0), kw(20, -1, 1.0),
                       *(kw(i, 1, 1.0) for i in range(10, 16))])
    pairs, skipped = draw(idx, [1, 10, 2, 20, 11], 5, (0,))
    assert skipped == 3
    assert pairs.positive_kw.tolist() == [10, 11]


def test_zero_weight_keywords_not_sampleable():
    idx = build_index([kw(1, 0, 0.0), kw(2, 0, 4.0), kw(3, 0, 4.0), kw(4, 0, 4.0)])
    pairs, _ = draw(idx, [2] * 20, 2, (0,))
    assert len(pairs) == 20
    for row in pairs.negatives.tolist():
        assert sorted(row) == [3, 4]


def test_deterministic_given_seed():
    idx = build_index([kw(i, 0, float(i % 5 + 1)) for i in range(30)])
    positives = list(range(30)) * 4
    a, _ = draw(idx, positives, 5, (123,))
    b, _ = draw(idx, positives, 5, (123,))
    for col in ("ad", "positive_kw", "view", "negatives"):
        assert getattr(a, col).tobytes() == getattr(b, col).tobytes()
    c, _ = draw(idx, positives, 5, (124,))
    assert not np.array_equal(a.negatives, c.negatives)  # overwhelmingly likely


class CountingRng:
    """A seeded generator that counts the draw calls made on it."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def random(self, size):
        self.calls += 1
        return self.rng.random(size)

    def standard_exponential(self, size):
        self.calls += 1
        return self.rng.standard_exponential(size)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from([0.0, 1e-300, 1.0, 4.0, 100.0, 1e4]), min_size=1, max_size=9),
             min_size=1, max_size=4),
    st.integers(1, 5),
    st.lists(st.integers(0, 60), min_size=1, max_size=40),
    st.integers(0, 10_000),
)
def test_sample_negatives_property(counts, n, picks, seed):
    """Every positive gets n distinct negatives of its own category, none of
    zero weight and none itself, or is skipped exactly when its category
    has fewer than n sampleable keywords besides it; the draws are bounded
    by MAX_ROUNDS per category and one key draw per completed row."""
    # the drawn categories, then one with exactly n and one with n - 1
    # sampleable keywords besides a positive, then a keyword with no category
    counts = [*counts, [1.0] * (n + 1), [1.0] * n]
    records, cat_of = [], {}
    for cat, cs in enumerate(counts):
        for c in cs:
            cat_of[len(records)] = cat
            records.append(kw(len(records), cat, c))
    special = [len(records) - 2 * n - 1, len(records) - 1, len(records)]
    records.append(kw(len(records), -1, 1.0))
    idx = build_index(records)
    positives = np.array([p % len(records) for p in picks] + special, dtype=np.int64)
    rng = CountingRng(seed)
    negatives, keep = idx.draw_negatives(positives, n, rng)
    for pos, row, kept in zip(positives.tolist(), negatives.tolist(), keep):
        cat = cat_of.get(pos)
        room = 0 if cat is None else sum(
            1 for q, c in cat_of.items() if c == cat and q != pos and records[q].searched_count > 0)
        assert kept == (room >= n)
        if kept:
            assert len(set(row)) == n and pos not in row
            assert all(cat_of[q] == cat and records[q].searched_count > 0 for q in row)
    assert keep[-3] and not keep[-2] and not keep[-1]
    assert rng.calls <= len(counts) * MAX_ROUNDS + len(positives)
    pairs, skipped = draw(idx, positives, n, (seed,))
    assert skipped == np.count_nonzero(~keep)


def test_candidate_keywords_by_category():
    g = ingest([], [ad(1, 7), ad(2, -1), kw(1, 7, 1.0), kw(2, 7, 1.0), kw(9, 7, 1.0), kw(3, 1, 1.0)])
    idx = CategoryIndex.build(g)
    assert set(idx.candidate_keywords(g, 1).tolist()) == {1, 2, 9}
    assert len(idx.candidate_keywords(g, 2)) == 0  # missing category
    assert idx.unknown_category_count == 1


def test_candidate_sets_cover_keyword_universe(tiny_dataset):
    g, idx = tiny_dataset.graph, tiny_dataset.cat_index
    union = set()
    for a in g.ids_of[NodeType.AD]:
        union.update(idx.candidate_keywords(g, int(a)).tolist())
    assert union == set(g.ids_of[NodeType.KEYWORD].tolist())


def test_categories_partition_keywords(tiny_dataset):
    idx = tiny_dataset.cat_index
    seen = collections.Counter()
    for cat, (ids, _) in idx.categories.items():
        seen.update(ids.tolist())
    assert max(seen.values()) == 1


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, float("nan")]),
                       st.floats(-2.0, 2.0)), max_size=40),
    st.integers(0, 45),
)
def test_stable_smallest_is_the_head_of_a_stable_argsort(values, n):
    values = np.array(values, dtype=np.float64)
    want = np.argsort(values, kind="stable")[:n]
    assert np.array_equal(stable_smallest(values, n), want)


def test_negligible_weights_are_drawn_from_what_is_left():
    # searched counts near 1e-300 give weights too small to move the
    # cumulative sums, so inverse-CDF draws find only the three heavy
    # keywords; each row's last two come from what it has left, uniformly
    records = [kw(i, 0, 1e-300 if i % 20 else float(i + 1)) for i in range(60)]
    idx = build_index(records)
    pairs, skipped = draw(idx, [7] * 2000, 5, (3,))
    assert skipped == 0
    light = collections.Counter()
    for row in pairs.negatives.tolist():
        assert sorted(row[:3]) == [0, 20, 40]
        assert len(set(row)) == 5 and 7 not in row
        light.update(row[3:])
    assert set(light) == {i for i in range(60) if i % 20 and i != 7}
    assert stats.chisquare(list(light.values())).pvalue > 1e-3
