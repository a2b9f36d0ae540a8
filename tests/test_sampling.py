import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmatch.graph import NodeRecord, NodeType
from hgmatch.sampling import CategoryIndex, CategoryTooSmall, stable_smallest
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


def test_single_draw_proportional_to_sqrt_weight():
    # counts {4, 9} -> weights {2, 3} -> p(kw2) = 0.6; 3-sigma band
    idx = build_index([kw(1, 0, 4.0), kw(2, 0, 9.0), kw(3, 0, 1.0)])
    n = 20000
    hits = 0
    for i in range(n):
        got = idx.sample_negatives(3, 1, rng_seed=(42, i))
        # positive kw3 excluded; draw from {1, 2}... but kw3 weight joins the pool
        hits += got[0] == 2
    # pool is {1: 2.0, 2: 3.0} only when positive is 3?  No: all of category 0
    # minus the positive, so {1, 2} with weights {2, 3}.
    p = 3.0 / 5.0
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * sigma


def test_never_returns_positive_or_duplicates():
    idx = build_index([kw(i, 0, float(i + 1)) for i in range(10)])
    for seed in range(50):
        got = idx.sample_negatives(4, 5, rng_seed=seed)
        assert 4 not in got
        assert len(set(got)) == len(got) == 5


def test_exhaustion_returns_all_non_positive():
    idx = build_index([kw(i, 0, 1.0) for i in range(6)])
    got = idx.sample_negatives(2, 5, rng_seed=0)
    assert sorted(got) == [0, 1, 3, 4, 5]


def test_category_too_small_raises():
    idx = build_index([kw(1, 0, 1.0), kw(2, 0, 1.0)])
    with pytest.raises(CategoryTooSmall, match="skip"):
        idx.sample_negatives(1, 5, rng_seed=0)


def test_zero_weight_keywords_not_sampleable():
    idx = build_index([kw(1, 0, 0.0), kw(2, 0, 4.0), kw(3, 0, 4.0), kw(4, 0, 4.0)])
    for seed in range(20):
        got = idx.sample_negatives(2, 2, rng_seed=seed)
        assert 1 not in got and 2 not in got


def test_deterministic_given_seed():
    idx = build_index([kw(i, 0, float(i % 5 + 1)) for i in range(30)])
    a = idx.sample_negatives(7, 5, rng_seed=123)
    b = idx.sample_negatives(7, 5, rng_seed=123)
    assert a == b
    c = idx.sample_negatives(7, 5, rng_seed=124)
    assert a != c  # overwhelmingly likely


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 12),
    st.integers(1, 6),
    st.integers(0, 10_000),
)
def test_sample_negatives_property(cat_size, n, seed):
    idx = build_index([kw(i, 0, float(i + 1)) for i in range(cat_size)])
    positive = 0
    if cat_size - 1 < n:
        with pytest.raises(CategoryTooSmall):
            idx.sample_negatives(positive, n, rng_seed=seed)
        return
    got = idx.sample_negatives(positive, n, rng_seed=seed)
    assert positive not in got
    assert len(set(got)) == n


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


def test_sampled_negatives_equal_a_full_stable_sort_under_heavy_ties():
    # searched counts near 1e-300 give weights whose keys u ** (1 / w) are 0,
    # so all but three keys tie at the n-th largest
    records = [kw(i, 0, 1e-300 if i % 20 else float(i + 1)) for i in range(60)]
    idx = build_index(records)
    ids, weights = idx.categories[0]
    for seed in range(50):
        pool = ids != 7
        keys = np.random.default_rng((seed, 3)).random(pool.sum()) ** (1.0 / weights[pool])
        want = ids[pool][np.argsort(-keys, kind="stable")[:5]].tolist()
        assert idx.sample_negatives(7, 5, rng_seed=(seed, 3)) == want
