import hashlib
import logging
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from hgmatch import graph, retrieval
from hgmatch.config import ALL_VIEWS, TrainConfig, VARIANTS
from hgmatch.errors import DataError
from hgmatch.graph import NodeType
from hgmatch.pipeline import build_model, evaluate_variant, task_cohorts
from hgmatch.retrieval import (
    EmbeddingStore,
    EvalTask,
    _certified_top,
    _dump_lines,
    _quantize,
    _rank,
    cold_start_split,
    export_embeddings,
    load_embeddings,
    recall_at_k,
    retrieve_all,
    save_embeddings,
    topk_retrieve,
)

from oracles import (naive_dump_rows, naive_evaluate, naive_quantize, naive_rank, naive_recall,
                     neighbors, reference_load_embeddings)


def make_store(rng, n_ads=5, n_kws=40, d=8, views=("ad_click",)):
    vectors = {}
    for view in views:
        vectors[view] = {
            NodeType.AD: (np.arange(n_ads), rng.normal(size=(n_ads, d))),
            NodeType.KEYWORD: (np.arange(n_kws), rng.normal(size=(n_kws, d))),
        }
    return EmbeddingStore(d, tuple(views), vectors)


def test_topk_exhaustion_returns_all_sorted():
    rng = np.random.default_rng(0)
    store = make_store(rng)
    cands = list(range(10))
    got = topk_retrieve(store, 0, "ad_click", 50, cands)
    assert sorted(got) == cands
    z = store.vector("ad_click", NodeType.AD, 0)
    scores = [store.vector("ad_click", NodeType.KEYWORD, q) @ z for q in got]
    assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))


def test_topk_ties_break_by_ascending_id():
    vectors = {
        "ad_click": {
            NodeType.AD: (np.array([0]), np.ones((1, 2))),
            NodeType.KEYWORD: (np.arange(6), np.tile([0.5, 0.5], (6, 1))),
        }
    }
    store = EmbeddingStore(2, ("ad_click",), vectors)
    got = topk_retrieve(store, 0, "ad_click", 4, [5, 3, 1, 0, 2, 4])
    assert got == [0, 1, 2, 3]


def test_topk_empty_candidates_warns_and_returns_empty():
    rng = np.random.default_rng(0)
    store = make_store(rng)
    assert topk_retrieve(store, 0, "ad_click", 10, []) == []


def test_topk_matches_full_sort_oracle():
    rng = np.random.default_rng(7)
    store = make_store(rng, n_ads=3, n_kws=1000, d=16)
    cands = rng.choice(1000, size=800, replace=False).tolist()
    for ad_id in range(3):
        got = topk_retrieve(store, ad_id, "ad_click", 100, cands)
        z = store.vector("ad_click", NodeType.AD, ad_id)
        scored = sorted(
            ((-(store.vector("ad_click", NodeType.KEYWORD, q) @ z), q) for q in cands)
        )
        expect = [q for _, q in scored[:100]]
        assert got == expect


def test_store_lookup_of_a_missing_id_is_a_data_error():
    vectors = {"ad_click": {
        NodeType.AD: (np.array([0, 1]), np.ones((2, 2))),
        NodeType.KEYWORD: (np.array([0, 1, 2, 3, 4, 6]), np.ones((6, 2))),  # no keyword 5
    }}
    store = EmbeddingStore(2, ("ad_click",), vectors)
    with pytest.raises(DataError, match="no ad_click vector for keyword id 5"):
        topk_retrieve(store, 0, "ad_click", 3, [4, 5, 6])
    with pytest.raises(DataError, match="no ad_click vector for ad id 2"):
        topk_retrieve(store, 2, "ad_click", 3, [4, 6])
    with pytest.raises(DataError, match="no ad_bid vector for ad id 0"):
        store.vector("ad_bid", NodeType.AD, 0)


@pytest.mark.parametrize("drop", ["one keyword", "every keyword", "every ad"])
def test_retrieve_all_rejects_a_store_missing_a_node(tiny_dataset, tiny_model, drop):
    store = export_embeddings(tiny_model)
    g, task = tiny_dataset.graph, tiny_dataset.task
    missing = int(tiny_dataset.cat_index.candidate_keywords(g, task.ads[0])[0])
    ntype = NodeType.AD if drop == "every ad" else NodeType.KEYWORD
    for per_type in store.vectors.values():
        ids, mat = per_type.pop(ntype)
        if drop == "one keyword":
            keep = ids != missing
            per_type[ntype] = (ids[keep], mat[keep])
    name = f"{ntype.value} id {missing}" if drop == "one keyword" else f"{ntype.value} id"
    with pytest.raises(DataError, match=f"no ad_click vector for {name}"):
        retrieve_all(store, g, tiny_dataset.cat_index, task, k=5)


def test_retrieve_all_ties_break_by_ascending_id(tiny_dataset):
    g, cat_index, task = tiny_dataset.graph, tiny_dataset.cat_index, tiny_dataset.task
    ads, kws = g.ids_of[NodeType.AD], g.ids_of[NodeType.KEYWORD]
    per_type = {NodeType.AD: (ads, np.ones((len(ads), 1))),
                NodeType.KEYWORD: (kws, (kws % 3).astype(np.float64)[:, None])}  # 3 scores
    store = EmbeddingStore(1, ("ad_click", "ad_bid"), {"ad_click": per_type, "ad_bid": per_type})
    got = retrieve_all(store, g, cat_index, task, k=30)
    for ad_id in task.ads:
        cands = cat_index.candidate_keywords(g, ad_id).tolist()
        want = sorted(cands, key=lambda q: (-(q % 3), q))[:30]
        assert got[ad_id] == {"ad_click": want, "ad_bid": want}


@pytest.mark.parametrize("variant", ["full", "single_view"])
def test_evaluate_variant_matches_per_k_per_cohort_oracle(tiny_dataset, variant):
    model = build_model(tiny_dataset, TrainConfig(d=8, l=4, m=5, kappa=2, seed=11),
                        VARIANTS[variant])
    ks = [5, 1, 12, 3]
    got = evaluate_variant(model, tiny_dataset, ks, task_cohorts(tiny_dataset))
    assert got == naive_evaluate(model, tiny_dataset, ks)
    assert list(got[0]) == list(got[1]) == ks


def test_recall_perfect_retrieval_is_one():
    task = EvalTask.from_lines([("ad_click", 1, 10), ("ad_click", 1, 11), ("ad_click", 2, 12)])
    retrieved = {1: {"ad_click": [10, 11]}, 2: {"ad_click": [12]}}
    assert recall_at_k(task, retrieved).overall == 1.0


def test_recall_direct_arithmetic():
    # targets {2,3}-sized, intersections {1,2} -> 0.6
    task = EvalTask.from_lines(
        [("ad_click", 1, 1), ("ad_click", 1, 2),
         ("ad_click", 2, 3), ("ad_click", 2, 4), ("ad_click", 2, 5)]
    )
    retrieved = {1: {"ad_click": [1, 99]}, 2: {"ad_click": [3, 4, 98]}}
    assert recall_at_k(task, retrieved).overall == pytest.approx(0.6)


def test_recall_union_of_views():
    task = EvalTask.from_lines([("ad_click", 1, 1), ("ad_click", 1, 2)])
    retrieved = {1: {"ad_click": [1], "ad_bid": [2], "item_click": [7]}}
    assert recall_at_k(task, retrieved).overall == 1.0


def test_recall_no_targets_is_error():
    task = EvalTask.from_lines([("ad_bid", 1, 1)])  # no primary click targets
    with pytest.raises(DataError, match="no target"):
        recall_at_k(task, {1: {"ad_bid": [1]}})


def test_recall_matches_independent_oracle_random_tasks():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ads = list(range(rng.integers(2, 8)))
        targets = {a: set(rng.choice(50, size=rng.integers(1, 6), replace=False).tolist()) for a in ads}
        retrieved, union = {}, {}
        for a in ads:
            lists = {}
            u = set()
            for view in ("ad_click", "ad_bid"):
                lst = rng.choice(60, size=10, replace=False).tolist()
                lists[view] = lst
                u.update(lst)
            retrieved[a] = lists
            union[a] = u
        lines = [("ad_click", a, t) for a in ads for t in targets[a]]
        got = recall_at_k(EvalTask.from_lines(lines), retrieved).overall
        assert got == pytest.approx(naive_recall(ads, targets, union), abs=1e-12)


def test_recall_monotone_in_k(tiny_dataset, tiny_model):
    store = export_embeddings(tiny_model)
    prev = 0.0
    for k in (1, 3, 5, 10, 30):
        r = recall_at_k(tiny_dataset.task, retrieve_all(
            store, tiny_dataset.graph, tiny_dataset.cat_index, tiny_dataset.task, k))
        assert r.overall >= prev - 1e-12
        assert 0.0 <= r.overall <= 1.0
        prev = r.overall


def test_per_view_recall_scored_against_own_targets():
    task = EvalTask.from_lines([
        ("ad_click", 1, 1),
        ("ad_bid", 1, 2), ("ad_bid", 1, 3),
    ])
    retrieved = {1: {"ad_click": [1], "ad_bid": [3, 9]}}
    r = recall_at_k(task, retrieved)
    assert r.per_view["ad_click"] == 1.0
    assert r.per_view["ad_bid"] == pytest.approx(0.5)


def test_single_view_store_retrieves_top_3k(tiny_dataset):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(tiny_dataset, cfg, VARIANTS["single_view"])
    store = export_embeddings(model)
    assert store.views == ("ad_click",)
    retrieved = retrieve_all(store, tiny_dataset.graph, tiny_dataset.cat_index,
                             tiny_dataset.task, k=4)
    lengths = {len(lists["ad_click"]) for lists in retrieved.values()}
    assert max(lengths) == 12  # 3K from the lone view


def test_cold_start_split(tiny_dataset):
    task = tiny_dataset.task
    cohort = cold_start_split(tiny_dataset.graph, task)
    from hgmatch.graph import NodeRef, Relation

    assert cohort.ads
    for a in cohort.ads:
        ids, _ = neighbors(tiny_dataset.graph, NodeRef(NodeType.AD, a), Relation.AD_CLICK_KW)
        assert len(ids) == 0
    # cohort = all ads reduces to the global task
    same = task.restrict(task.ads)
    assert same.targets == task.targets


def test_cold_start_empty_cohort_errors(tiny_dataset):
    warm = [
        a for a in tiny_dataset.task.ads
        if a not in {c for c in cold_start_split(tiny_dataset.graph, tiny_dataset.task).ads}
    ]
    with pytest.raises(DataError, match="empty"):
        cold_start_split(tiny_dataset.graph, tiny_dataset.task.restrict(warm[:3]))


def test_cold_start_rejects_ad_not_in_graph(tiny_dataset):
    unknown = max(tiny_dataset.graph.ids_of[NodeType.AD]) + 1
    task = EvalTask.from_lines([("ad_click", tiny_dataset.task.ads[0], 1),
                                ("ad_click", unknown, 1)])
    with pytest.raises(DataError, match=f"ad id {unknown}"):
        cold_start_split(tiny_dataset.graph, task)


def _rendered(m):
    """(rows, values): the dump text of each row of `m` and the values it reads back as."""
    (digits, exponents), values = _quantize(m)
    return [line.decode()[:-1] for line in _dump_lines(digits, exponents, values)], values


_SPECIAL_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, float("inf"), float("-inf")])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(
    st.lists(st.one_of(_SPECIAL_VALUES, st.floats(allow_nan=False, width=64)),
             min_size=d, max_size=d),
    min_size=1, max_size=8)))
def test_quantize_equals_per_element_rendering(rows):
    m = np.array(rows, dtype=np.float64)
    text, values = _rendered(m)
    assert values.tobytes() == naive_quantize(m).tobytes()
    assert text == naive_dump_rows(m)


def _powers_of_ten_and_neighbours():
    powers = 10.0 ** np.arange(-7, 11)
    near = np.stack([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)], axis=1)
    return np.hstack([near, -near])


# mantissa x 10^e: ten significant digits reach the nine-digit ties, e covers
# every fixed-notation exponent and the exponent notation on either side
_SCALED = st.builds(lambda m, e: m * 10.0 ** e,
                    st.one_of(st.integers(-10 ** 10, 10 ** 10).map(lambda n: n / 1e9),
                              st.floats(-10, 10)),
                    st.integers(-7, 10))


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 50), st.integers(1, 64)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=_SCALED)))
@example(_powers_of_ten_and_neighbours())
@example(np.array([[9.9999999995e-5, 999999999.5, 123456788.5, 12345678.25]]))  # carries and ties
@example(np.arange(-8224.0, 8224.0).reshape(257, 64) / 7)  # three passes of 8,192 values
@example(np.array([[0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                    float("inf"), float("-inf"), float("nan")]]))
def test_quantize_array_path_equals_per_element_rendering(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text, values = _rendered(m)
    assert values.tobytes() == naive_quantize(m).tobytes()
    assert text == naive_dump_rows(m)


def test_dump_keeps_its_bytes(tiny_model, tmp_path):
    path = tmp_path / "emb.tsv"
    save_embeddings(export_embeddings(tiny_model), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "31c115dd54d925365000cdd1cc978157b7cc972753f12919ba38742ce2c88744")


def test_save_writes_the_same_bytes_with_or_without_kept_rows(tiny_model, tmp_path):
    store = export_embeddings(tiny_model)
    assert store.digits is not None
    bare = EmbeddingStore(store.d, store.views, store.vectors)
    save_embeddings(store, tmp_path / "kept.tsv")
    save_embeddings(bare, tmp_path / "bare.tsv")
    save_embeddings(load_embeddings(tmp_path / "kept.tsv"), tmp_path / "reloaded.tsv")
    kept = (tmp_path / "kept.tsv").read_bytes()
    assert kept == (tmp_path / "bare.tsv").read_bytes()
    assert kept == (tmp_path / "reloaded.tsv").read_bytes()


# scores from a few levels, so ties often straddle the k-th place
_SCORES = st.sampled_from([-1.0, 0.0, -0.0, 0.5, 2.0, float("inf"), float("-inf"), float("nan")])


@settings(max_examples=300, deadline=None)
@given(st.lists(_SCORES, max_size=30), st.integers(1, 34))
@example([], 3)                              # no candidates
@example([0.5], 1)                           # one candidate
@example([2.0, 0.5, 2.0], 5)                 # k beyond the candidate count
@example([0.5, 2.0, 0.5, 0.5, -1.0, 0.5], 3)  # ties across the k-th place
@example([float("nan"), 0.5, float("nan"), -1.0], 3)
def test_rank_equals_full_stable_argsort(scores, k):
    cand_ids = np.arange(100, 100 + 3 * len(scores), 3)
    cand_mat = np.array(scores, dtype=np.float64).reshape(-1, 1)
    z = np.ones(1)
    assert _rank(cand_ids, cand_mat, z, k) == naive_rank(cand_ids, cand_mat, z, k)


def test_export_round_trip_bit_identical(tiny_model, tmp_path):
    path = tmp_path / "emb.tsv"
    store = export_embeddings(tiny_model)
    save_embeddings(store, path)
    loaded = load_embeddings(path)
    assert loaded.views == store.views
    for view in store.views:
        for ntype in (NodeType.AD, NodeType.KEYWORD):
            ids0, mat0 = store.vectors[view][ntype]
            ids1, mat1 = loaded.vectors[view][ntype]
            assert np.array_equal(ids0, ids1)
            assert np.array_equal(mat0, mat1)  # bit-identical after quantized export


@pytest.mark.parametrize("row, message", [
    ("ad\t1\tad_clik\t0.5 0.5", "unknown view"),
    ("ad\tx1\tad_click\t0.5 0.5", "invalid literal"),
    ("ad\t1\tad_click\t0.5 nan", "non-finite"),
    ("ad\t1\tad_click\t0.5", "inconsistent vector length"),
    ("ad\t1\tad_click", "expected 4 tab-separated fields"),
    ("keyword\t1\tad_click\t0.5 0.5", "duplicate ad_click row for keyword:1"),
])
def test_load_embeddings_rejects_a_bad_row_with_its_location(tmp_path, row, message):
    path = tmp_path / "emb.tsv"
    path.write_text(f"# header\nkeyword\t1\tad_click\t0.25 0.25\n{row}\n")
    with pytest.raises(DataError, match=f"{re.escape(str(path))}:3: .*{message}"):
        load_embeddings(path)


def test_export_twice_identical_files(tiny_model, tmp_path):
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_embeddings(export_embeddings(tiny_model), p1)
    save_embeddings(export_embeddings(tiny_model), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_row_count(tiny_model, tmp_path):
    path = tmp_path / "emb.tsv"
    store = export_embeddings(tiny_model)
    save_embeddings(store, path)
    g = tiny_model.graph
    want = (g.num_nodes(NodeType.AD) + g.num_nodes(NodeType.KEYWORD)) * len(store.views)
    rows = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    assert len(rows) == want


def test_union_recall_at_least_single_view(tiny_dataset, tiny_model):
    store = export_embeddings(tiny_model)
    retrieved = retrieve_all(store, tiny_dataset.graph, tiny_dataset.cat_index,
                             tiny_dataset.task, k=5)
    full = recall_at_k(tiny_dataset.task, retrieved).overall
    for view in store.views:
        only = {a: {view: lists[view]} for a, lists in retrieved.items()}
        assert full >= recall_at_k(tiny_dataset.task, only).overall - 1e-12


# --- certified GEMM top-K ----------------------------------------------------

class Categories:
    """`CategoryIndex.candidate_keywords` over fixed categories: one shared id
    array per category, as the index hands them out."""

    def __init__(self, by_ad):
        self.by_ad = by_ad

    def candidate_keywords(self, graph, ad_id):
        return self.by_ad[ad_id]


def _keyword_rows(draw, rng, n, d, kind):
    """n keyword vectors of one kind: spread out, or with planted exact
    duplicates, 1-ulp neighbours, overflowing, subnormal or infinite values."""
    mat = rng.normal(size=(n, d))
    if n == 0 or kind == "normal":
        return mat
    pick = rng.integers(0, n, size=n)
    if kind == "duplicate":
        return mat[pick]
    if kind == "ulp":
        return np.nextafter(mat[pick], np.where(rng.random((n, d)) < 0.5, np.inf, -np.inf))
    if kind == "overflow":
        return mat * 1e307
    if kind == "subnormal":
        return np.round(mat * 4) * 5e-324
    mat[rng.random((n, d)) < 0.1] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return mat


@st.composite
def matching_cases(draw):
    """(store, categories, task, k, ads per GEMM block) over 1-3 categories,
    one of them possibly empty, of up to 12 keywords."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 6))
    views = draw(st.sampled_from([("ad_click",), ("ad_click", "ad_bid"), ALL_VIEWS]))
    kind = draw(st.sampled_from(["normal", "duplicate", "ulp", "overflow", "subnormal", "special"]))
    sizes = draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))
    kw_ids = rng.permutation(200)[:sum(sizes)] * 3 + 1
    cats = np.split(kw_ids, np.cumsum(sizes)[:-1])
    n_ads = draw(st.integers(1, 9))
    by_ad = {a: np.sort(cats[rng.integers(len(cats))]) for a in range(n_ads)}
    # ads of a category share its one id array
    shared = {c.tobytes(): c for c in by_ad.values()}
    by_ad = {a: shared[c.tobytes()] for a, c in by_ad.items()}
    vectors = {}
    for view in views:
        ad_mat = rng.normal(size=(n_ads, d))
        if kind in ("overflow", "subnormal"):
            ad_mat = np.round(ad_mat * 4) * 5e-324 if kind == "subnormal" else ad_mat * 1e307
        vectors[view] = {
            NodeType.AD: (np.arange(n_ads), ad_mat),
            NodeType.KEYWORD: (np.sort(kw_ids), _keyword_rows(draw, rng, len(kw_ids), d, kind)),
        }
    store, task = EmbeddingStore(d, views, vectors), EvalTask(list(range(n_ads)), {}, {})
    return store, Categories(by_ad), task, draw(st.integers(1, 14)), draw(st.sampled_from([1, 2, 256]))


def naive_retrieve_all(store, cats, task, k):
    """Each ad and view ranked on its own by a full stable argsort."""
    kk = 3 * k if len(store.views) == 1 else k
    out = {}
    for ad_id in task.ads:
        cand_ids = cats.candidate_keywords(None, ad_id)
        out[ad_id] = {view: naive_rank(cand_ids, store.gather(view, NodeType.KEYWORD, cand_ids),
                                       store.vector(view, NodeType.AD, ad_id), kk)
                      for view in store.views}
    return out


@settings(max_examples=300, deadline=None)
@given(matching_cases())
def test_retrieve_all_equals_a_full_sort_per_ad(case):
    store, cats, task, k, block = case
    with mock.patch.object(retrieval, "_ADS_PER_BLOCK", block), np.errstate(all="ignore"):
        got = retrieve_all(store, None, cats, task, k)
        assert got == naive_retrieve_all(store, cats, task, k)


def _counts(caplog):
    """(certified, ranked) from retrieve_all's debug lines."""
    lines = [r.getMessage() for r in caplog.records if r.name == "hgmatch.retrieval"
             and r.getMessage().startswith("retrieve_all:")]
    found = [re.fullmatch(r"retrieve_all: GEMM certified (\d+) ad-view lists, "
                          r"_rank ranked (\d+)", line) for line in lines]
    assert found and all(found)
    return tuple(sum(int(m[i]) for m in found) for i in (1, 2))


def _one_category(n_ads, kw_mat, ad_mat, views=("ad_click", "ad_bid")):
    kw_ids = np.arange(len(kw_mat)) * 2
    store = EmbeddingStore(kw_mat.shape[1], views, {view: {
        NodeType.AD: (np.arange(n_ads), ad_mat), NodeType.KEYWORD: (kw_ids, kw_mat)}
        for view in views})
    task = EvalTask(list(range(n_ads)), {}, {})
    return store, Categories(dict.fromkeys(range(n_ads), kw_ids)), task


def test_retrieve_all_counts_the_lists_it_certifies_and_ranks(caplog):
    """Well-separated scores over more ads than one GEMM block all take the
    GEMM lists; planted exact ties all fall back to `_rank`."""
    caplog.set_level(logging.DEBUG, logger="hgmatch.retrieval")
    rng = np.random.default_rng(5)
    n_ads = 2 * retrieval._ADS_PER_BLOCK + 7
    store, cats, task = _one_category(n_ads, rng.normal(size=(60, 8)), rng.normal(size=(n_ads, 8)))
    assert retrieve_all(store, None, cats, task, 5) == naive_retrieve_all(store, cats, task, 5)
    assert _counts(caplog) == (2 * n_ads, 0)

    caplog.clear()
    tied = np.repeat(rng.normal(size=(30, 8)), 2, axis=0)  # every keyword twice
    store, cats, task = _one_category(n_ads, tied, rng.normal(size=(n_ads, 8)))
    assert retrieve_all(store, None, cats, task, 5) == naive_retrieve_all(store, cats, task, 5)
    assert _counts(caplog) == (0, 2 * n_ads)


def test_retrieve_all_certifies_no_list_with_a_gap_within_the_bound(caplog):
    """Two keywords whose scores differ by a few ulps, where the GEMM and the
    matrix-vector product may order them differently, fall back."""
    caplog.set_level(logging.DEBUG, logger="hgmatch.retrieval")
    kw = np.array([[1.0, 0.0], [np.nextafter(1.0, 2.0), 0.0], [0.0, 1.0]])
    store, cats, task = _one_category(1, kw, np.array([[1.0, 0.25]]), views=("ad_click",))
    assert retrieve_all(store, None, cats, task, 1) == {0: {"ad_click": [2, 0, 4]}}
    assert _counts(caplog) == (0, 1)


def test_retrieve_all_warns_once_for_the_ads_without_candidates(caplog):
    caplog.set_level(logging.WARNING, logger="hgmatch.retrieval")
    store = make_store(np.random.default_rng(3), n_ads=6, n_kws=10)
    shared = np.arange(10)
    cats = Categories({a: np.empty(0, np.int64) if a in (2, 3, 5) else shared for a in range(6)})
    task = EvalTask(list(range(6)), {}, {})
    with mock.patch.object(retrieval, "_certified_top", wraps=retrieval._certified_top) as spy:
        got = retrieve_all(store, None, cats, task, 3)
    assert spy.call_count == len(store.views)  # the ads without candidates take no GEMM
    assert got == naive_retrieve_all(store, cats, task, 3)
    assert got[2] == got[3] == got[5] == {"ad_click": []}
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.WARNING, "3 ads have an empty candidate set, first ad 2")]


@pytest.mark.parametrize("a, c", [
    ([1.0, 0.25], [[1.0, 0.0], [np.nextafter(1.0, 2.0), 0.0]]),   # scores one ulp apart
    ([1e-170, 0.0], [[1e10, 0.0], [np.nextafter(1e10, 2e10), 0.0]]),  # |a|^2 underflows
    ([1e-300, 0.0], [[3e-20, 0.0], [2e-20, 0.0]]),  # subnormal scores
    ([1e154, 0.0], [[1e154, 0.0], [5e153, 0.0]]),  # |a| |c| near overflow
])
def test_certificate_refuses_a_row_it_cannot_bound(a, c):
    assert _certified_top(np.arange(2), np.array(c), np.array([a]), 1)[1].tolist() == [False]
    assert _certified_top(np.arange(2), np.array([[1.0, 0.0], [0.5, 0.0]]),
                          np.array([[1.0, 0.0]]), 1) == ([[0]], np.array([True]))


# --- the columnar dump reader ------------------------------------------------

def _store_bytes(store):
    """Everything a store holds, as bytes and dtypes to compare bit for bit."""
    return (store.d, store.views, sorted(
        (view, ntype.value, ids.dtype.str, ids.tobytes(), mat.dtype.str, mat.shape, mat.tobytes())
        for view, per_type in store.vectors.items() for ntype, (ids, mat) in per_type.items()))


_VALUE_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.9g}".format),
    st.sampled_from(["0", "-0", "+1.5", ".5", "5.", "1e5", "1E-5", "-0.0e+00", "4.9e-324",
                     "1e-400", "017", "1.7976931348623157e308"]))


@st.composite
def dumps(draw):
    """(text, rows) of an embedding dump: rows of 1-3 views and 3 node
    types in shuffled order, with comment and blank lines between them."""
    d = draw(st.integers(1, 4))
    views = draw(st.lists(st.sampled_from(ALL_VIEWS), min_size=1, max_size=3, unique=True))
    key = st.tuples(st.sampled_from(views), st.sampled_from(["ad", "keyword", "item"]),
                    st.integers(-2 ** 63, 2 ** 63 - 1))
    keys = draw(st.lists(key, min_size=1, max_size=40, unique=True))
    lines = []
    for view, ntype, node_id in keys:
        values = draw(st.lists(_VALUE_TEXT, min_size=d, max_size=d))
        sep = draw(st.sampled_from([" ", "  ", " \x0c"]))
        lines.append(f"{ntype}\t{node_id}\t{view}\t{sep.join(values)}")
        lines += draw(st.lists(st.sampled_from(["", "# a comment", "   ", "\t#x"]), max_size=1))
    return "# node_type\tnode_id\tview\tvalues...\n" + "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(dumps(), st.sampled_from([1, 2, 3, 1024]))
def test_load_embeddings_equals_the_line_by_line_reader(tmp_path_factory, text, chunk_lines):
    path = tmp_path_factory.mktemp("dump") / "emb.tsv"
    path.write_text(text)
    with mock.patch.object(graph, "LINES_PER_CHUNK", chunk_lines):
        got = load_embeddings(path)
    assert _store_bytes(got) == _store_bytes(reference_load_embeddings(path))


# fields a damaged dump line may hold: each token alone, or joined by spaces
_JUNK = st.sampled_from(["ad", "keyword", "item", "user", "ad_click", "ad_bid", "ad_clik", "7",
                         "99999999999999999999", "x1", "0.5", "-2", "nan", "inf", "-Infinity",
                         "1e999", "0x1", "1,5", "#", "'1'", "\x0c", "\xa0", "\u2003", "\x00",
                         "--1"])


@st.composite
def damaged_dumps(draw):
    """A valid dump with up to three lines replaced by tab-joined junk fields."""
    lines = [f"{t}\t{i}\tad_click\t{i}.5 -{i}" for t in ("ad", "keyword") for i in range(6)]
    for _ in range(draw(st.integers(1, 3))):
        fields = draw(st.lists(st.lists(_JUNK, min_size=1, max_size=3).map(" ".join),
                               min_size=2, max_size=5))
        lines[draw(st.integers(0, len(lines) - 1))] = "\t".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(damaged_dumps(), st.sampled_from([1, 4, 1024]))
def test_load_embeddings_fails_where_the_line_by_line_reader_fails(tmp_path_factory, text,
                                                                    chunk_lines):
    """Over tokens both parsers read alike, the chunked reader accepts the
    same dumps and names the same line, for the same reason."""
    path = tmp_path_factory.mktemp("dump") / "emb.tsv"
    path.write_text(text)
    try:
        want = _store_bytes(reference_load_embeddings(path))
    except DataError as exc:
        want = str(exc)
    try:
        with mock.patch.object(graph, "LINES_PER_CHUNK", chunk_lines):
            got = _store_bytes(load_embeddings(path))
    except DataError as exc:
        got = str(exc)
    if isinstance(want, str) and "could not convert" in want:  # the parsers word it apart
        assert re.match(re.escape(want.split(": ")[0]) + ": could not convert string ", got)
    else:
        assert got == want


def _big_dump(path, n_rows=2000, lines=None):
    """A dump of n_rows keyword rows of two values, header on line 1, so
    row i sits on line i + 2; `lines` replaces whole lines by number."""
    rows = [f"keyword\t{i}\tad_click\t{i}.25 -{i}" for i in range(n_rows)]
    for lineno, line in (lines or {}).items():
        rows[lineno - 2] = line
    path.write_text("# node_type\tnode_id\tview\tvalues...\n" + "\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("lines, message", [
    ({1500: "keyword\t1498\tad_click\t0.5 x"}, "could not convert string 'x'"),
    ({n: f"keyword\t{n - 2}\tad_click\t1 2 3" for n in range(1026, 2002)},
     "inconsistent vector length"),
    ({1500: "keyword\t8\tad_click\t0.5 0.5"}, "duplicate ad_click row for keyword:8"),
    ({1500: "keyword\t8\tad_click\t0.5 0.5", 1700: "keyword\t1698\tad_click\t0.5 y"},
     "duplicate ad_click row for keyword:8"),
    ({1500: "keyword\t1498\tad_click\t1_0 0.5"}, "could not convert string '1_0'"),
    ({1500: "keyword\t1498\tad_click\t0.5 \u0661"}, "could not convert string '\u0661'"),
    ({1500: "keyword\t1498\tad_click\t0.5 inf"}, "non-finite vector value"),
], ids=["bad value", "width change between chunks", "duplicate across chunks",
        "duplicate before a bad value", "underscore", "non-ASCII digit", "non-finite"])
def test_load_embeddings_names_a_bad_row_past_the_first_chunk(tmp_path, lines, message):
    path = _big_dump(tmp_path / "emb.tsv", lines=lines)
    where = 1026 if len(lines) > 2 else 1500
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{where}: {re.escape(message)}"):
        load_embeddings(path)


def test_load_embeddings_reads_a_dump_of_many_chunks(tmp_path):
    path = _big_dump(tmp_path / "emb.tsv", n_rows=3 * graph.LINES_PER_CHUNK + 5)
    assert _store_bytes(load_embeddings(path)) == _store_bytes(reference_load_embeddings(path))


# --- the fixed-width dump ----------------------------------------------------

def _dump_text(rows):
    """The dump text of (view, type, id, values) rows as save writes them."""
    lines = [f"{ntype}\t{node_id}\t{view}\t{line}\n" for (view, ntype, node_id, _), line
             in zip(rows, naive_dump_rows(np.array([values for *_, values in rows])))]
    return "# node_type\tnode_id\tview\tvalues...\n" + "".join(lines)


@st.composite
def fixed_width_dumps(draw):
    """Rows of 1-4 values from the scaled and special values, most of them
    fixed-width cells and some `%.9g`, with unique keys."""
    d = draw(st.integers(1, 4))
    keys = draw(st.lists(st.tuples(st.sampled_from(ALL_VIEWS), st.sampled_from(["ad", "keyword"]),
                                   st.integers(0, 50)), min_size=1, max_size=30, unique=True))
    value = st.one_of(_SCALED, _SCALED, _SCALED, st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-300, 1e-15, 1e-14, 9.99999999e-15, 1e9, 1e99, 1e100, -1e23]))
    return [(*key, draw(st.lists(value, min_size=d, max_size=d))) for key in keys]


# a cell "sd.ddddddddesdd" and its separator: each byte position by kind
_CELL_BYTES = {"sign": [0, 12], "digit": [1, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14], "point": [2],
               "e": [11], "separator": [15]}


# what a cell byte may become: each kind, and bytes that differ from one in a bit or two
_NEAR_MISSES = list("0189+-.e") + list(")/,:*E \t\r\x0b\x00\x7f")


def _mutate(draw, text):
    """`text` with one thing changed: a byte of one kind in a cell, a line
    ending, a comment line, a cell added or dropped, or a non-ASCII byte."""
    lines = text.split("\n")
    at = draw(st.integers(1, len(lines) - 2))
    line, kind = lines[at], draw(st.sampled_from(
        [*_CELL_BYTES, "crlf", "comment", "more cells", "fewer cells", "non-ascii"]))
    if kind in _CELL_BYTES:
        cells = line.split("\t")[-1] + "\n"
        cell = draw(st.integers(0, max(0, len(cells) // 16 - 1)))
        pos = len(line) + 1 - len(cells) + 16 * cell + draw(st.sampled_from(_CELL_BYTES[kind]))
        new = draw(st.sampled_from(_NEAR_MISSES))
        line = (line + "\n")[:pos] + new + (line + "\n")[pos + 1:]
        lines[at] = line[:-1] if line.endswith("\n") else line
    elif kind == "crlf":
        lines = [ln + "\r" for ln in lines[:-1]] + [""] if draw(st.booleans()) else lines
        lines[at] = lines[at].rstrip("\r") + "\r"
    elif kind == "comment":
        lines.insert(at, draw(st.sampled_from(["# x", "#", " # x", "", "#\r", "#\rx"])))
    elif kind == "more cells":
        lines[at] = line + draw(st.sampled_from([" +1.00000000e+00", " 1.5", " "]))
    elif kind == "fewer cells":
        lines[at] = line[:-16] if len(line.split("\t")[-1]) > 15 else line[:-1]
    else:
        pos = draw(st.integers(0, len(line)))
        lines[at] = line[:pos] + draw(st.sampled_from(["\u00e9", "\xa0", "\u2003", "\r"])) + line[pos:]
    return "\n".join(lines)


def _load_both(path, chunk_lines):
    """The store bytes, or the DataError text, of the reader and of the
    line-by-line reference."""
    out = []
    for load in (lambda: reference_load_embeddings(path), lambda: load_embeddings(path)):
        try:
            with mock.patch.object(graph, "LINES_PER_CHUNK", chunk_lines):
                out.append(_store_bytes(load()))
        except DataError as exc:
            out.append(str(exc))
    return out


def _assert_same(want, got):
    if isinstance(want, str) and "could not convert" in want:  # the parsers word it apart
        assert re.match(re.escape(want.split(": ")[0]) + ": could not convert string ", got)
    else:
        assert got == want


@settings(max_examples=300, deadline=None)
@given(fixed_width_dumps(), st.data(), st.sampled_from([1, 3, 256]))
def test_fixed_width_load_equals_the_line_by_line_reader(tmp_path_factory, rows, data, chunk_lines):
    """A dump as save writes it, and with one byte class mutated, reads to
    the reference's store or fails with its error on the same line."""
    text = _dump_text(rows)
    path = tmp_path_factory.mktemp("dump") / "emb.tsv"
    path.write_bytes(text.encode())
    want, got = _load_both(path, chunk_lines)
    assert got == want and not isinstance(want, str)
    path.write_bytes(_mutate(data.draw, text).encode())
    _assert_same(*_load_both(path, chunk_lines))


def test_every_cell_byte_mutation_reads_as_the_reference(tmp_path):
    """Each byte of a line's fields and first two cells, replaced by each
    near miss: the reader gives the reference's store or error."""
    text = _dump_text([("ad_click", "ad", i, [0.5, -1.25e-7, 3e8]) for i in range(10, 14)])
    path, start = tmp_path / "emb.tsv", text.index("\n", text.index("\n") + 1) + 1
    first = text.index("\t+", start) + 1  # the second data line's first cell
    for pos in range(start, first + 32):
        for new in _NEAR_MISSES:
            path.write_text(text[:pos] + new + text[pos + 1:])
            _assert_same(*_load_both(path, 2))


def test_fixed_width_load_of_bytes_that_are_not_utf8(tmp_path):
    text = _dump_text([("ad_click", "ad", i, [0.5, -1.25]) for i in range(5)]).encode()
    path = tmp_path / "emb.tsv"
    for bad in (text.replace(b"+5.0", b"+5\xff0", 1), text.replace(b"# node", b"# n\xffde")):
        path.write_bytes(bad)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load_embeddings(path)


def test_load_reads_a_dump_mixing_fixed_width_and_old_chunks(tmp_path):
    """Chunks of `%+.8e` cells, of the `%.9g` text earlier versions wrote,
    and chunks holding both read to the reference's store."""
    rng = np.random.default_rng(5)
    rows = [("ad_click", "keyword", i, rng.normal(size=3) * 10.0 ** rng.integers(-20, 20))
            for i in range(3 * graph.LINES_PER_CHUNK + 40)]
    lines = _dump_text(rows).split("\n")
    for i in list(range(300, 600)) + list(range(700, 720)):
        *fields, _ = lines[i].split("\t")
        lines[i] = "\t".join(fields + [" ".join("%.9g" % v for v in rows[i - 1][3])])
    path = tmp_path / "emb.tsv"
    path.write_text("\n".join(lines))  # no newline at the end
    want, got = _load_both(path, graph.LINES_PER_CHUNK)
    assert got == want and not isinstance(want, str)


_BOUNDARY = [0.0, -0.0, 5e-324, -2.5e-320, 1e-300, -1e-300, 1e-15, 999999999.5, 1e9,
             9.9999999995e-5, 123456788.5, 12345678.25, 99999999.95, 1e-14, 1e99, 1e100]


@pytest.mark.parametrize("stored", ["hand-built", "exported"])
def test_boundary_values_round_trip_bit_for_bit(tmp_path, stored):
    """Each boundary value, beside ordinary ones, is saved as the oracle
    writes it and loads as `%.9g` reads it back."""
    values = np.array(_BOUNDARY + _powers_of_ten_and_neighbours().ravel().tolist())
    m = np.column_stack([values, np.full(len(values), 0.75), -values[::-1]])
    ids = np.arange(len(m))
    store = EmbeddingStore(3, ("ad_click",), {"ad_click": {NodeType.AD: (ids, m),
                                                             NodeType.KEYWORD: (ids, m)}})
    if stored == "exported":
        digits, mat = _quantize(m)
        store = EmbeddingStore(3, ("ad_click",), {"ad_click": {t: (ids, mat) for t in NodeType}},
                               {"ad_click": {t: digits for t in NodeType}})
    path = tmp_path / "emb.tsv"
    save_embeddings(store, path)
    want = [row for _ in range(2) for row in naive_dump_rows(m)]
    assert [line.split("\t")[3] for line in path.read_text().splitlines()[1:]] == want
    loaded = load_embeddings(path)
    for ntype in (NodeType.AD, NodeType.KEYWORD):
        assert loaded.vectors["ad_click"][ntype][1].tobytes() == naive_quantize(m).tobytes()
    assert _store_bytes(loaded) == _store_bytes(reference_load_embeddings(path))
