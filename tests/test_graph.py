import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmatch.config import TrainConfig, VARIANTS
from hgmatch.errors import DataError
from hgmatch.graph import (
    EdgeRecord,
    Metapath,
    NodeRecord,
    NodeRef,
    NodeType,
    Relation,
    RELATION_SCHEMA,
    ingest,
    load_graph,
    parse_edge_line,
    parse_node_line,
)
from hgmatch.model import build_plan
from oracles import influential_neighbors, naive_plan


def node(ntype, nid, cat=0, searched=1.0):
    return NodeRecord(ntype, nid, cat, searched, {})


def edge(rel, sid, did, w, loc="t:1"):
    st_, dt = RELATION_SCHEMA[rel]
    return EdgeRecord(st_, sid, rel, dt, did, w, loc)


def metapath_hops(g, root, path, m):
    """Neighbor ids per hop of a walk along `path` from `root`, one entry per
    branch, expanded hop by hop with `graph.expand` as `build_plan` does."""
    ids, hops = [root.node_id], []
    for ntype, rel in zip(path.type_chain(), path.steps):
        ids = g.expand(ntype, ids, rel, m)[0].tolist()
        hops.append(ids)
    return hops


def adjacency(g):
    """((relation, node type), node id, ids, weights) for every non-empty row."""
    for rel in Relation:
        for t in RELATION_SCHEMA[rel]:
            for nid in g.ids_of[t]:
                ids, ws = g.neighbors(NodeRef(t, int(nid)), rel)
                if len(ids):
                    yield (rel, t), int(nid), ids, ws


def basic_nodes():
    return [
        node(NodeType.AD, 1), node(NodeType.AD, 2),
        node(NodeType.KEYWORD, 1), node(NodeType.KEYWORD, 2), node(NodeType.KEYWORD, 3),
        node(NodeType.ITEM, 1),
    ]


def test_duplicate_edges_merge_by_weight_sum():
    g = ingest(
        [edge(Relation.AD_CLICK_KW, 1, 1, 2.0), edge(Relation.AD_CLICK_KW, 1, 1, 3.0)],
        basic_nodes(),
    )
    ids, ws = g.neighbors(NodeRef(NodeType.AD, 1), Relation.AD_CLICK_KW)
    assert list(ids) == [1]
    assert list(ws) == [5.0]


def test_empty_edge_stream_gives_isolated_nodes():
    g = ingest([], basic_nodes()[:3])
    for t in NodeType:
        for nid in g.ids_of[t]:
            for rel in Relation:
                ids, _ = g.neighbors(NodeRef(t, int(nid)), rel)
                assert len(ids) == 0


def test_degree_counts_match_brute_force_tally():
    edges = [
        edge(Relation.AD_CLICK_KW, 1, 1, 1.0),
        edge(Relation.AD_CLICK_KW, 1, 2, 2.0),
        edge(Relation.AD_BID_KW, 1, 3, 1.0),
        edge(Relation.AD_COCLICK_ITEM, 2, 1, 4.0),
        edge(Relation.ITEM_CLICK_KW, 1, 2, 1.0),
    ]
    g = ingest(edges, basic_nodes())
    tally = collections.Counter()
    for e in edges:
        tally[(e.relation, e.src_type, e.src_id)] += 1
        tally[(e.relation, e.dst_type, e.dst_id)] += 1
    for (rel, t, nid), want in tally.items():
        assert len(g.neighbors(NodeRef(t, nid), rel)[0]) == want


def test_adjacency_sorted_by_weight_then_id():
    edges = [
        edge(Relation.AD_CLICK_KW, 1, 1, 1.0),
        edge(Relation.AD_CLICK_KW, 1, 2, 5.0),
        edge(Relation.AD_CLICK_KW, 1, 3, 5.0),
    ]
    g = ingest(edges, basic_nodes())
    ids, ws = g.neighbors(NodeRef(NodeType.AD, 1), Relation.AD_CLICK_KW)
    assert list(ids) == [2, 3, 1]
    assert list(ws) == [5.0, 5.0, 1.0]


def test_schema_violation_rejected_with_location():
    bad = EdgeRecord(NodeType.KEYWORD, 1, Relation.AD_CLICK_KW, NodeType.AD, 1, 1.0, "f:9")
    with pytest.raises(DataError, match="f:9"):
        ingest([bad], basic_nodes())


def test_dangling_endpoint_rejected():
    with pytest.raises(DataError, match="dangling"):
        ingest([edge(Relation.AD_CLICK_KW, 99, 1, 1.0, "f:3")], basic_nodes())


def test_negative_weight_rejected():
    with pytest.raises(DataError, match="negative"):
        ingest([edge(Relation.AD_CLICK_KW, 1, 1, -2.0)], basic_nodes())


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weight_rejected_with_location(weight):
    edges = [edge(Relation.AD_CLICK_KW, 1, 1, 1.0, "f:1"),
             edge(Relation.AD_CLICK_KW, 1, 2, weight, "f:2")]
    with pytest.raises(DataError, match="f:2: non-finite"):
        ingest(edges, basic_nodes())


@pytest.mark.parametrize("searched", ["nan", "inf", "-inf"])
def test_non_finite_searched_count_rejected_with_location(searched):
    with pytest.raises(DataError, match=f"f:4: non-finite searched count '{searched}'"):
        parse_node_line(f"keyword 1 3 {searched}", "f:4")


def test_duplicate_node_rejected():
    with pytest.raises(DataError, match="duplicate node"):
        ingest([], [node(NodeType.AD, 1), node(NodeType.AD, 1)])


def test_metapath_requires_type_compatible_steps():
    with pytest.raises(ValueError):
        Metapath("bad", NodeType.AD, (Relation.ITEM_CLICK_KW, Relation.AD_CLICK_KW))
    p = Metapath("ok", NodeType.AD, (Relation.AD_CLICK_KW, Relation.AD_CLICK_KW))
    assert p.type_chain() == [NodeType.AD, NodeType.KEYWORD, NodeType.AD]


def test_metapath_neighbors_three_node_chain():
    # a1 - q1 - a2 under click: hop1 = {q1}, hop2 = {a2} (tree keeps a1 too)
    edges = [
        edge(Relation.AD_CLICK_KW, 1, 1, 1.0),
        edge(Relation.AD_CLICK_KW, 2, 1, 2.0),
    ]
    g = ingest(edges, basic_nodes())
    p = Metapath("a-q-a", NodeType.AD, (Relation.AD_CLICK_KW, Relation.AD_CLICK_KW))
    hops = metapath_hops(g, NodeRef(NodeType.AD, 1), p, 10)
    assert hops[0] == [1]
    assert sorted(hops[1]) == [1, 2]  # both ads click q1


def test_metapath_neighbors_top_m_truncation():
    nodes = [node(NodeType.AD, 1)] + [node(NodeType.KEYWORD, q) for q in range(12)]
    edges = [edge(Relation.AD_CLICK_KW, 1, q, float(q)) for q in range(12)]
    g = ingest(edges, nodes)
    p = Metapath("a-q", NodeType.AD, (Relation.AD_CLICK_KW,))
    hops = metapath_hops(g, NodeRef(NodeType.AD, 1), p, 10)
    assert hops[0] == list(range(11, 1, -1))  # ten highest weights


def test_metapath_neighbors_m_none_returns_all():
    nodes = [node(NodeType.AD, 1)] + [node(NodeType.KEYWORD, q) for q in range(12)]
    edges = [edge(Relation.AD_CLICK_KW, 1, q, float(q + 1)) for q in range(12)]
    g = ingest(edges, nodes)
    p = Metapath("a-q", NodeType.AD, (Relation.AD_CLICK_KW,))
    assert len(metapath_hops(g, NodeRef(NodeType.AD, 1), p, None)[0]) == 12
    assert metapath_hops(g, NodeRef(NodeType.AD, 1), p, 1)[0] == [11]


def test_metapath_neighbors_isolated_node():
    g = ingest([], basic_nodes())
    p = Metapath("a-q-a", NodeType.AD, (Relation.AD_CLICK_KW, Relation.AD_CLICK_KW))
    assert metapath_hops(g, NodeRef(NodeType.AD, 1), p, 10) == [[], []]


def test_influential_neighbors_top_weight():
    edges = [
        edge(Relation.AD_BID_KW, 1, 1, 5.0),
        edge(Relation.AD_BID_KW, 1, 2, 9.0),
        edge(Relation.AD_BID_KW, 1, 3, 1.0),
    ]
    g = ingest(edges, basic_nodes())
    got = influential_neighbors(g, NodeRef(NodeType.AD, 1), 2)
    assert [r.node_id for r in got] == [2, 1]


def test_influential_neighbors_empty_and_item_error():
    g = ingest([], basic_nodes())
    assert influential_neighbors(g, NodeRef(NodeType.KEYWORD, 1), 3) == []
    with pytest.raises(ValueError):
        influential_neighbors(g, NodeRef(NodeType.ITEM, 1), 3)


def test_influential_neighbors_matches_sort_oracle():
    rng = np.random.default_rng(5)
    nodes = [node(NodeType.AD, a) for a in range(4)] + [
        node(NodeType.KEYWORD, q) for q in range(10)
    ]
    edges = []
    for a in range(4):
        for q in rng.choice(10, size=5, replace=False):
            edges.append(edge(Relation.AD_BID_KW, a, int(q), float(rng.integers(1, 50))))
    g = ingest(edges, nodes)
    for a in range(4):
        pairs = [(e.dst_id, e.weight) for e in edges if e.src_id == a]
        expect = [q for q, _ in sorted(pairs, key=lambda p: (-p[1], p[0]))][:3]
        got = [r.node_id for r in influential_neighbors(g, NodeRef(NodeType.AD, a), 3)]
        assert got == expect


def test_parse_edge_and_node_lines():
    e = parse_edge_line("ad\t3\tad_click_kw\tkeyword\t7\t2.5", "f:1")
    assert (e.src_id, e.dst_id, e.weight) == (3, 7, 2.5)
    with pytest.raises(DataError, match="f:2"):
        parse_edge_line("ad 3 nope keyword 7 1", "f:2")
    n = parse_node_line("keyword\t4\t2\t9\tterms=1,2\tbid_price=0.5", "f:3")
    assert n.category_id == 2 and n.features["terms"] == "1,2"
    with pytest.raises(DataError):
        parse_node_line("keyword 4", "f:4")


def test_ingestion_idempotent_from_files(tiny_dataset):
    paths = tiny_dataset.paths
    g1 = load_graph(paths["edges"], paths["nodes"])
    g2 = load_graph(paths["edges"], paths["nodes"])
    seen = 0
    for (rel, ntype), nid, ids, ws in adjacency(g1):
        ids2, ws2 = g2.neighbors(NodeRef(ntype, nid), rel)
        assert np.array_equal(ids, ids2) and np.array_equal(ws, ws2)
        seen += 1
    assert seen > 0


def test_all_adjacency_sorted_after_ingest(tiny_dataset):
    g = tiny_dataset.graph
    checked = 0
    for _, _, ids, ws in adjacency(g):
        assert np.all(np.diff(ws) <= 0)
        # ties broken by ascending id
        for i in range(len(ws) - 1):
            if ws[i] == ws[i + 1]:
                assert ids[i] < ids[i + 1]
        checked += 1
    assert checked > 0


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(0, 10)),
    min_size=1, max_size=40,
))
def test_ingest_merge_property(pairs):
    nodes = [node(NodeType.AD, a) for a in range(6)] + [
        node(NodeType.KEYWORD, q) for q in range(6)
    ]
    edges = [edge(Relation.AD_CLICK_KW, a, q, w) for a, q, w in pairs]
    g = ingest(edges, nodes)
    merged = collections.defaultdict(float)
    for a, q, w in pairs:
        merged[(a, q)] += w
    for a in range(6):
        ids, ws = g.neighbors(NodeRef(NodeType.AD, a), Relation.AD_CLICK_KW)
        got = dict(zip(ids.tolist(), ws.tolist()))
        want = {q: w for (aa, q), w in merged.items() if aa == a}
        assert got == pytest.approx(want)


# --- CSR store and plans against per-node references ------------------------

# ids differ from their rows, so a row/id mix-up shows
SMALL_IDS = {
    NodeType.AD: (3, 7, 8, 20),
    NodeType.KEYWORD: (1, 2, 5, 9, 11),
    NodeType.ITEM: (4, 6, 30),
}
M_VALUES = st.one_of(st.none(), st.integers(0, 4))


@st.composite
def small_edges(draw):
    """Edges over SMALL_IDS with few distinct weights: duplicates and ties are common,
    and inexact sums make the merge order matter."""
    edges = []
    for _ in range(draw(st.integers(0, 30))):
        rel = draw(st.sampled_from(list(Relation)))
        src_t, dst_t = RELATION_SCHEMA[rel]
        edges.append(edge(
            rel,
            draw(st.sampled_from(SMALL_IDS[src_t])),
            draw(st.sampled_from(SMALL_IDS[dst_t])),
            draw(st.sampled_from([0.0, 0.1, 0.7, 2.5])),
        ))
    return edges


def small_graph(edges):
    return ingest(edges, [node(t, i) for t, ids in SMALL_IDS.items() for i in ids])


def dict_adjacency(edges):
    """Merged, sorted neighbor lists built with a dict per node."""
    acc = collections.defaultdict(lambda: collections.defaultdict(float))
    for e in edges:
        acc[(e.relation, e.src_type, e.src_id)][e.dst_id] += e.weight
        acc[(e.relation, e.dst_type, e.dst_id)][e.src_id] += e.weight
    return {k: sorted(v.items(), key=lambda kv: (-kv[1], kv[0])) for k, v in acc.items()}


@settings(max_examples=60, deadline=None)
@given(small_edges(), M_VALUES, st.data())
def test_expand_equals_per_node_neighbors(edges, m, data):
    g = small_graph(edges)
    want = dict_adjacency(edges)
    for rel in Relation:
        for t in RELATION_SCHEMA[rel]:
            for i in SMALL_IDS[t]:
                ids, ws = g.neighbors(NodeRef(t, i), rel)
                assert list(zip(ids.tolist(), ws.tolist())) == want.get((rel, t, i), [])
            ids = data.draw(st.lists(st.sampled_from(SMALL_IDS[t]), max_size=6))
            nbrs, parents, counts = g.expand(t, ids, rel, m)
            per_node = [g.neighbors(NodeRef(t, i), rel, m)[0].tolist() for i in ids]
            assert nbrs.tolist() == [n for p in per_node for n in p]
            assert parents.tolist() == [r for r, p in enumerate(per_node) for _ in p]
            assert counts.tolist() == [len(p) for p in per_node]


def assert_same(got, want, where="plan"):
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype, where
        assert np.array_equal(got, want), where
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same(a, b, f"{where}[{i}]")
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for k in want:
            assert_same(got[k], want[k], f"{where}[{k!r}]")
    elif dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    else:
        assert got == want, where


@settings(max_examples=60, deadline=None)
@given(small_edges(), M_VALUES, st.integers(0, 3), st.sampled_from(sorted(VARIANTS)), st.data())
def test_build_plan_matches_per_node_walk(edges, m, kappa, variant, data):
    g = small_graph(edges)
    ads = data.draw(st.lists(st.sampled_from(SMALL_IDS[NodeType.AD]), max_size=5))
    kws = data.draw(st.lists(st.sampled_from(SMALL_IDS[NodeType.KEYWORD]), max_size=5))
    cfg = TrainConfig(d=8, l=4, m=m, kappa=kappa)
    got = build_plan(g, ads, kws, cfg, VARIANTS[variant])
    assert_same(got, naive_plan(g, ads, kws, cfg, VARIANTS[variant]))


def test_build_plan_rejects_unknown_ids():
    g = small_graph([edge(Relation.AD_BID_KW, 3, 1, 1.0)])
    cfg = TrainConfig(d=8, l=4)
    for variant in ("full", "dssm"):
        with pytest.raises(DataError, match="unknown ad id 4"):
            build_plan(g, [3, 4], [1], cfg, VARIANTS[variant])
        with pytest.raises(DataError, match="unknown keyword id 3"):
            build_plan(g, [3], [3], cfg, VARIANTS[variant])
