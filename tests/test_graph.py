import ast
import collections
import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmatch import graph as hg
from hgmatch.cli import _load_retrieved
from hgmatch.config import TrainConfig, VARIANTS, load_config_file
from hgmatch.errors import DataError
from hgmatch.features import load_boundaries, load_manifest
from hgmatch.graph import (
    Metapath,
    NodeRecord,
    NodeRef,
    NodeType,
    Relation,
    RELATION_SCHEMA,
    load_graph,
    other_endpoint,
    parse_node_lines,
    read_records,
)
from hgmatch.model import build_plan, type_pools
from hgmatch.retrieval import load_embeddings, load_labels, load_task
from oracles import (EdgeRecord, influential_neighbors, ingest, naive_plan, neighbors,
                     parse_edge_line, reference_load_graph)


def node(ntype, nid, cat=0, searched=1.0):
    return NodeRecord(ntype, nid, cat, searched, {})


def edge(rel, sid, did, w, loc="t:1"):
    st_, dt = RELATION_SCHEMA[rel]
    return EdgeRecord(st_, sid, rel, dt, did, w, loc)


def expand(g, ntype, ids, rel, m=None):
    """`expand_rows` over node ids: (neighbor ids, index into `ids` of each
    neighbor's parent, neighbor count per entry of `ids`)."""
    nbrs, parents, counts = g.expand_rows(ntype, g.rows(ntype, ids), rel, m)
    return g.ids_of[other_endpoint(rel, ntype)][nbrs], parents, counts


def metapath_hops(g, root, path, m):
    """Neighbor ids per hop of a walk along `path` from `root`, one entry per
    branch, expanded hop by hop with `expand_rows` as `build_plan` does."""
    ids, hops = [root.node_id], []
    for ntype, rel in zip(path.type_chain(), path.steps):
        ids = expand(g, ntype, ids, rel, m)[0].tolist()
        hops.append(ids)
    return hops


def adjacency(g):
    """((relation, node type), node id, ids, weights) for every non-empty row."""
    for rel in Relation:
        for t in RELATION_SCHEMA[rel]:
            for nid in g.ids_of[t]:
                ids, ws = neighbors(g, NodeRef(t, int(nid)), rel)
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
    ids, ws = neighbors(g, NodeRef(NodeType.AD, 1), Relation.AD_CLICK_KW)
    assert list(ids) == [1]
    assert list(ws) == [5.0]


def test_empty_edge_stream_gives_isolated_nodes():
    g = ingest([], basic_nodes()[:3])
    for t in NodeType:
        for nid in g.ids_of[t]:
            for rel in Relation:
                ids, _ = neighbors(g, NodeRef(t, int(nid)), rel)
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
        assert len(neighbors(g, NodeRef(t, nid), rel)[0]) == want


def test_adjacency_sorted_by_weight_then_id():
    edges = [
        edge(Relation.AD_CLICK_KW, 1, 1, 1.0),
        edge(Relation.AD_CLICK_KW, 1, 2, 5.0),
        edge(Relation.AD_CLICK_KW, 1, 3, 5.0),
    ]
    g = ingest(edges, basic_nodes())
    ids, ws = neighbors(g, NodeRef(NodeType.AD, 1), Relation.AD_CLICK_KW)
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


def read_nodes(path, text):
    """`text` written to `path` and read as a nodes file."""
    path.write_text(text)
    return read_records(path, parse_node_lines)


@pytest.mark.parametrize("searched", ["nan", "inf", "-inf"])
def test_non_finite_searched_count_rejected_with_location(tmp_path, searched):
    f = tmp_path / "f"
    with pytest.raises(DataError, match=f"f:4: non-finite searched count '{searched}'"):
        read_nodes(f, f"# nodes\n\nad 1 3 1\nkeyword 1 3 {searched}\n")


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


def test_parse_edge_and_node_lines(tmp_path):
    e = parse_edge_line("ad\t3\tad_click_kw\tkeyword\t7\t2.5", "f:1")
    assert (e.src_id, e.dst_id, e.weight) == (3, 7, 2.5)
    with pytest.raises(DataError, match="f:2"):
        parse_edge_line("ad 3 nope keyword 7 1", "f:2")
    f = tmp_path / "f"
    [n] = read_nodes(f, "#\n\nkeyword\t4\t2\t9\tterms=1,2\tbid_price=0.5\n")
    assert n.category_id == 2 and n.features["terms"] == "1,2"
    with pytest.raises(DataError, match="f:4"):
        read_nodes(f, "#\n\nkeyword\t4\t2\t9\nkeyword 4\n")


def test_ingestion_idempotent_from_files(tiny_dataset):
    paths = tiny_dataset.paths
    g1 = load_graph(paths["edges"], paths["nodes"])
    g2 = load_graph(paths["edges"], paths["nodes"])
    seen = 0
    for (rel, ntype), nid, ids, ws in adjacency(g1):
        ids2, ws2 = neighbors(g2, NodeRef(ntype, nid), rel)
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
        ids, ws = neighbors(g, NodeRef(NodeType.AD, a), Relation.AD_CLICK_KW)
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
                ids, ws = neighbors(g, NodeRef(t, i), rel)
                assert list(zip(ids.tolist(), ws.tolist())) == want.get((rel, t, i), [])
            ids = data.draw(st.lists(st.sampled_from(SMALL_IDS[t]), max_size=6))
            nbrs, parents, counts = expand(g, t, ids, rel, m)
            per_node = [neighbors(g, NodeRef(t, i), rel, m)[0].tolist() for i in ids]
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
    got = build_plan(g, ads, kws, cfg, VARIANTS[variant], type_pools(g, cfg, VARIANTS[variant]))
    assert_same(got, naive_plan(g, ads, kws, cfg, VARIANTS[variant]))


def test_build_plan_rejects_unknown_ids():
    g = small_graph([edge(Relation.AD_BID_KW, 3, 1, 1.0)])
    cfg = TrainConfig(d=8, l=4)
    for variant in ("full", "dssm"):
        below = type_pools(g, cfg, VARIANTS[variant])
        with pytest.raises(DataError, match="unknown ad id 4"):
            build_plan(g, [3, 4], [1], cfg, VARIANTS[variant], below)
        with pytest.raises(DataError, match="unknown keyword id 3"):
            build_plan(g, [3], [3], cfg, VARIANTS[variant], below)


# --- the columnar edge reader against the line-by-line reference -------------

# how a valid id or weight may be written: Python's int() and float() accept
# signs, leading zeros, underscores and non-ASCII digits
ID_TEXTS = (str, lambda i: f"+{i}", lambda i: f"0{i}", lambda i: f"0_{i}",
            lambda i: chr(0x0660 + i) if i < 10 else str(i))
WEIGHTS = ("0", "1", "2.5", "0.1", "1e2", "-0", "+3", "1_0", "7.", ".5", "١.٥", "0.7")
BAD_TOKENS = {
    "fields": None,  # drop or add a field
    "type": ("Ad", "kw", "ad_click_kw", ""),
    "relation": ("ad_click", "AD_BID_KW", "keyword"),
    "id": ("x1", "1.0", "0x10", "1__0", "99", "-1", str(2 ** 70), "٣x"),
    "weight": ("nan", "NaN", "inf", "-inf", "1e400", "-1", "-0.5", "abc", "1,5"),
    "schema": None,  # src and dst types swapped, or one replaced
}


@st.composite
def edge_file(draw):
    """(bytes of an edge file, how it was mutated): valid lines over SMALL_IDS
    among comments and blank lines, then zero to three mutations."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        filler = draw(st.sampled_from([None, None, None, "", "   ", "# comment", "  #x 1 2"]))
        if filler is not None:
            lines.append(filler)
            continue
        rel = draw(st.sampled_from(list(Relation)))
        src_t, dst_t = RELATION_SCHEMA[rel]
        sid = draw(st.sampled_from(ID_TEXTS))(draw(st.sampled_from(SMALL_IDS[src_t])))
        did = draw(st.sampled_from(ID_TEXTS))(draw(st.sampled_from(SMALL_IDS[dst_t])))
        # str.split() splits at \x0b, \x85 and \u2028 too; a file's lines do not end there
        sep = draw(st.sampled_from(["\t", " ", "\t \t", "\x0b", "\x85", "\u2028"]))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(lead + sep.join([src_t.value, sid, rel.value, dst_t.value, did,
                                      draw(st.sampled_from(WEIGHTS))]))
    applied = []
    edge_rows = [i for i, line in enumerate(lines) if line.strip() and not line.strip().startswith("#")]
    for _ in range(draw(st.integers(0, 3)) if edge_rows else 0):
        i = draw(st.sampled_from(edge_rows))
        parts = lines[i].split()
        kind = draw(st.sampled_from(sorted(BAD_TOKENS)))
        if kind == "fields":
            if draw(st.booleans()):
                del parts[draw(st.integers(0, len(parts) - 1))]
            else:
                parts.insert(draw(st.integers(0, len(parts))), "7")
        elif kind == "schema":
            if draw(st.booleans()):
                parts[0], parts[3] = parts[3], parts[0]
            else:
                parts[draw(st.sampled_from([0, 3]))] = draw(st.sampled_from([t.value for t in NodeType]))
        elif len(parts) == 6:
            col = {"type": [0, 3], "relation": [2], "id": [1, 4], "weight": [5]}[kind]
            parts[draw(st.sampled_from(col))] = draw(st.sampled_from(BAD_TOKENS[kind]))
        lines[i] = "\t".join(parts)
        applied.append(kind)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = newline.join(lines).encode("utf-8") + draw(st.sampled_from([b"", newline.encode()]))
    if draw(st.integers(0, 9)) == 0:  # a byte that starts no UTF-8 sequence
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
        applied.append("non-utf8")
    return data, applied


def load_outcome(load, edge_path, node_path):
    """The DataError text of a load, or every CSR table's dtypes and bytes."""
    try:
        g = load(edge_path, node_path)
    except DataError as exc:
        return str(exc)
    return {key: [(a.dtype.str, a.tobytes()) for a in table] for key, table in g._csr.items()}


@settings(max_examples=300, deadline=None)
@given(edge_file())
def test_columnar_edge_reader_matches_the_line_by_line_reference(case):
    # the files stay under the 8 KiB the reference decodes before its first
    # line, so both readers meet a non-UTF-8 byte before any line check
    data, applied = case
    with tempfile.TemporaryDirectory() as d:
        node_path, edge_path = Path(d) / "nodes.tsv", Path(d) / "edges.tsv"
        node_path.write_text("".join(f"{t.value}\t{i}\t0\t1\n"
                                     for t, ids in SMALL_IDS.items() for i in ids))
        edge_path.write_bytes(data)
        got = load_outcome(load_graph, edge_path, node_path)
        assert got == load_outcome(reference_load_graph, edge_path, node_path), applied
    if not applied:
        assert isinstance(got, dict)


# --- the reader every record file goes through -------------------------------

# format -> (loader, i-th good line, a bad line and its message, what an empty
# file reads as: a predicate on the result, or the message of its DataError)
READER_FORMATS = {
    "edges": (hg.read_edges, lambda i: f"ad\t{i}\tad_click_kw\tkeyword\t{i}\t1.5",
              ("ad\t1\tad_click_kw\tkeyword\t1", "expected 6 fields, got 5"),
              lambda r: len(r.line) == 0),
    "nodes": (lambda p: read_records(p, parse_node_lines), lambda i: f"ad\t{i}\t0\t1\tad_id={i}",
              ("adx\t1\t0\t1", "unknown token 'adx'"), lambda r: r == []),
    "labels": (load_labels, lambda i: f"ad_click\t{i}\t{i}",
               ("ad_clik\t1\t1", "unknown view 'ad_clik'"), lambda r: r == []),
    "task": (load_task, lambda i: f"ad_bid\t{i}\t{i + 1}",
             ("ad_bid\t1\tx", "invalid literal for int() with base 10: 'x'"),
             lambda r: r.ads == []),
    "dump": (load_embeddings, lambda i: f"keyword\t{i}\tad_click\t+5.00000000e-01 -1.25000000e+00",
             ("keyword\t1\tad_click\t0.5 inf", "non-finite vector value"),
             "embedding dump has no rows"),
    "config": (load_config_file, lambda i: f"key{i} = {i}",
               ("no key", "expected key = value"), lambda r: r == {}),
    "manifest": (load_manifest, lambda i: f"ad\tf{i}\tid\t10\t4",
                 ("ad\tf\tid\t10", "expected 5 fields"), lambda r: r.per_type == {}),
    "boundaries": (load_boundaries, lambda i: f"f{i}\t0.5 1.5",
                   ("f\t2 1", "boundaries of f must be finite and increasing"), lambda r: r == {}),
    "retrieved": (_load_retrieved, lambda i: f"{i}\tad_click\t{i}",
                  ("1\tad_click", "expected `ad_id view kw_id`"), lambda r: r == {}),
}


@pytest.mark.parametrize("fmt", sorted(READER_FORMATS))
def test_every_record_file_reads_by_one_contract(tmp_path, monkeypatch, fmt):
    """Lines end at \\n, \\r\\n or \\r, blank and `#` lines count, the first
    bad line is named past the first chunk, and a file that is not UTF-8, or
    is empty, is reported as such."""
    load, good, (bad, message), empty = READER_FORMATS[fmt]
    monkeypatch.setattr(hg, "LINES_PER_CHUNK", 2)
    path = tmp_path / f"{fmt}.tsv"

    def outcome(text):
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        try:
            return load(path)
        except DataError as exc:
            return str(exc)

    lines = [good(i) for i in range(5)]
    assert not isinstance(outcome("\n".join(lines) + "\n"), str)
    assert outcome("\n".join(lines + [bad, good(5)]) + "\n") == f"{path}:6: {message}"
    for end in ("\r\n", "\r"):
        text = end.join(["# header", "", lines[0], "  \t", lines[1], bad]) + end
        assert outcome(text) == f"{path}:6: {message}"
    for brk in ("\x0b", "\x85", "\u2028"):  # str.splitlines would end a line here
        assert outcome(f"#{brk}no record here\n{lines[0]}\n{bad}\n") == f"{path}:3: {message}"
    assert outcome(f"{lines[0]}\n".encode() + b"\xff\n").startswith(f"{path}: not UTF-8 text (")
    got = outcome("")
    assert got == f"{path}: {empty}" if isinstance(empty, str) else empty(got)


def test_only_the_reader_opens_a_file_to_read_text():
    """No function in the package takes a `location` parameter, and no module
    but graph.py opens a file in a text mode that reads (`open` without `b`
    and with `r` or `+`, or `read_text`)."""
    problems = []
    for path in sorted(Path(hg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                problems += [f"{where}: parameter `location`" for p in params
                             if p and p.arg == "location"]
            if isinstance(node, ast.Call) and path.name != "graph.py":
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"
                if name == "read_text" or (name == "open" and "b" not in mode
                                           and ("r" in mode or "+" in mode)):
                    problems.append(f"{where}: {name}() reads text")
    assert problems == []
