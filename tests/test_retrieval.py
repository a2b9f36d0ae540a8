import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from hgmatch.config import TrainConfig, VARIANTS
from hgmatch.errors import DataError
from hgmatch.graph import NodeType
from hgmatch.pipeline import build_model, evaluate_variant
from hgmatch.retrieval import (
    EmbeddingStore,
    EvalTask,
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

from oracles import naive_evaluate, naive_quantize, naive_rank, naive_recall, neighbors


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
    got = evaluate_variant(model, tiny_dataset, ks)
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


_SPECIAL_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, float("inf"), float("-inf")])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(
    st.lists(st.one_of(_SPECIAL_VALUES, st.floats(allow_nan=False, width=64)),
             min_size=d, max_size=d),
    min_size=1, max_size=8)))
def test_quantize_equals_per_element_rendering(rows):
    m = np.array(rows, dtype=np.float64)
    text, values = _quantize(m)
    assert values.tobytes() == naive_quantize(m).tobytes()
    assert text == [" ".join(f"{x:.9g}" for x in row) for row in rows]


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
        text, values = _quantize(m)
    assert values.tobytes() == naive_quantize(m).tobytes()
    assert text == [" ".join(f"{x:.9g}" for x in row) for row in m.tolist()]


def test_dump_keeps_its_bytes(tiny_model, tmp_path):
    path = tmp_path / "emb.tsv"
    export_embeddings(tiny_model, path=path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "01870a9c03aaf2d69d47348df6b636c1ab2965464f440cfe68d74ce20a0c91cf")


def test_save_writes_the_same_bytes_with_or_without_kept_rows(tiny_model, tmp_path):
    store = export_embeddings(tiny_model)
    assert store.rendered is not None
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
    store = export_embeddings(tiny_model, path=path)
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
    export_embeddings(tiny_model, path=p1)
    export_embeddings(tiny_model, path=p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_row_count(tiny_model, tmp_path):
    path = tmp_path / "emb.tsv"
    store = export_embeddings(tiny_model, path=path)
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
