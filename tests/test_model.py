import re

import numpy as np
import pytest
from hgmatch import autodiff as ad
from hgmatch.config import TrainConfig, VARIANTS
from hgmatch.graph import NodeRef, NodeType
from hgmatch.model import AD_TOWER, KW_TOWER, active_paths, tower_paths
from hgmatch.pipeline import build_model

from oracles import (
    conv_layer,
    naive_h0,
    naive_node_embedding,
    node_embedding,
    sage_layer,
    semantic_fuse,
    siamese_embed,
    view_transform,
)


def test_conv_layer_scalar_hand_forward():
    # d=1, l=1: W=2, V=1, U=3, h=1, neighbors {2,3}: sigma(2 + 3*sigma(5)) = 17
    out = conv_layer(
        np.array([1.0]), [np.array([2.0]), np.array([3.0])],
        W=np.array([[2.0]]), b=np.zeros(1), V=np.array([[1.0]]), U=np.array([[3.0]]),
    )
    assert np.allclose(out, [17.0])


def test_conv_layer_empty_neighbors_identity():
    x = np.array([0.5, 0.0, 2.0])
    out = conv_layer(x, [], W=np.eye(3), b=np.zeros(3), V=np.ones((3, 2)), U=np.ones((2, 3)))
    assert np.allclose(out, x)


def test_conv_layer_empty_neighbors_independent_of_U_V():
    x = np.array([0.5, -1.0, 2.0])
    rng = np.random.default_rng(0)
    W = rng.normal(size=(3, 3))
    outs = [
        conv_layer(x, [], W=W, b=np.zeros(3), V=rng.normal(size=(3, 2)), U=rng.normal(size=(2, 3)))
        for _ in range(3)
    ]
    assert np.allclose(outs[0], outs[1]) and np.allclose(outs[1], outs[2])


def test_conv_layer_all_zero_params():
    out = conv_layer(
        np.ones(4), [np.ones(4)], W=np.zeros((4, 4)), b=np.zeros(4),
        V=np.zeros((4, 2)), U=np.zeros((2, 4)),
    )
    assert np.allclose(out, 0.0)


def test_sage_layer_concat_projection():
    Ws = np.vstack([np.eye(2), 2 * np.eye(2)])
    out = sage_layer(np.array([1.0, -1.0]), [np.array([2.0, 4.0]), np.array([0.0, 2.0])], Ws, np.zeros(2))
    # concat(self, mean) = [1, -1, 1, 3] -> [1 + 2, -1 + 6] -> relu
    assert np.allclose(out, [3.0, 5.0])


def test_semantic_fuse_singleton():
    fused, w = semantic_fuse([("p", np.array([1.0, 2.0]))], np.array([0.3, -0.2]))
    assert np.allclose(fused, [1.0, 2.0])
    assert w == {"p": pytest.approx(1.0)}


def test_semantic_fuse_identical_paths_symmetric():
    h = np.array([0.5, -1.5])
    fused, w = semantic_fuse([("a", h), ("b", h), ("c", h)], np.array([1.0, 1.0]))
    assert np.allclose(fused, h)
    assert all(abs(x - 1 / 3) < 1e-12 for x in w.values())


def test_semantic_fuse_numeric_softmax():
    # W_att = [1, 0]; logits {1, 0} -> weights {e/(1+e), 1/(1+e)}
    fused, w = semantic_fuse(
        [("hot", np.array([1.0, 5.0])), ("cold", np.array([0.0, 5.0]))],
        np.array([1.0, 0.0]),
    )
    e = np.e
    assert w["hot"] == pytest.approx(e / (1 + e), abs=1e-6)
    assert w["cold"] == pytest.approx(1 / (1 + e), abs=1e-6)


def test_semantic_fuse_empty_raises():
    with pytest.raises(ValueError):
        semantic_fuse([], np.ones(2))


def test_siamese_embed_examples():
    h = np.array([1.0, 1.0])
    assert np.allclose(siamese_embed(h, [np.array([2.0, 0.0])] * 3), [3.0, 1.0])
    assert np.allclose(siamese_embed(h, []), h)
    got = siamese_embed(h, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.allclose(got, [1.5, 1.5])


def test_view_transform_examples():
    z = np.array([1.0, -2.0])
    assert np.allclose(
        view_transform(z, np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), np.zeros(2)), 0.0
    )
    # identity-initialized layers: z -> relu(z)
    got = view_transform(z, np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
    assert np.allclose(got, [1.0, 0.0])
    rng = np.random.default_rng(1)
    W1, b1 = rng.normal(size=(4, 4)), rng.normal(size=4)
    W2, b2 = rng.normal(size=(4, 4)), rng.normal(size=4)
    z4 = rng.normal(size=4)
    assert np.allclose(
        view_transform(z4, W1, b1, W2, b2),
        np.maximum(z4 @ W1 + b1, 0) @ W2 + b2,
    )


def test_tower_path_inventory():
    for tower in (AD_TOWER, KW_TOWER):
        paths = tower_paths(tower)
        assert len(paths) == 3
        assert sum(tp.group == "bid" for tp in paths) == 2
        assert sum(tp.group == "item" for tp in paths) == 1
        for tp in paths:
            assert len(tp.path.steps) == 2
    assert len(active_paths(AD_TOWER, "bid")) == 2
    assert len(active_paths(AD_TOWER, "item")) == 1


# --- batched forward vs naive per-node oracle --------------------------------

def test_memoized_forward_matches_naive(tiny_model):
    graph = tiny_model.graph
    ads = [int(i) for i in graph.ids_of[NodeType.AD][:12]]
    kws = [int(i) for i in graph.ids_of[NodeType.KEYWORD][:15]]
    refs = [NodeRef(NodeType.AD, a) for a in ads] + [NodeRef(NodeType.KEYWORD, q) for q in kws]
    fwd = tiny_model.forward(ads, kws)
    for ref in refs:
        got = node_embedding(fwd, ref)
        h_tilde, att, z, per_view = naive_node_embedding(tiny_model, ref)
        assert np.allclose(got.h, naive_h0(tiny_model, ref.node_type, ref.node_id), atol=1e-12)
        rel = np.abs(got.h_tilde - h_tilde) / np.maximum(np.abs(h_tilde), 1e-9)
        assert np.max(rel) <= 1e-6 or np.abs(got.h_tilde - h_tilde).max() <= 1e-9
        assert np.allclose(got.z, z, rtol=1e-6, atol=1e-9)
        for view, vec in per_view.items():
            assert np.allclose(got.per_view[view], vec, rtol=1e-6, atol=1e-9)
        for name, w in att.items():
            assert got.att_weights[name] == pytest.approx(w, abs=1e-9)


def test_memoized_forward_single_node_equals_naive(tiny_model):
    ref = NodeRef(NodeType.AD, int(tiny_model.graph.ids_of[NodeType.AD][0]))
    fwd = tiny_model.forward([ref.node_id], [])
    _, _, z, per_view = naive_node_embedding(tiny_model, ref)
    assert np.allclose(node_embedding(fwd, ref).z, z, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_no_grad_forward_equals_taped_forward(tiny_dataset, variant):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(tiny_dataset, cfg, VARIANTS[variant])
    ids = (tiny_dataset.graph.ids_of[NodeType.AD], tiny_dataset.graph.ids_of[NodeType.KEYWORD])
    taped = model.forward(*ids)
    with ad.no_grad():
        free = model.forward(*ids)
    for tower in (AD_TOWER, KW_TOWER):
        for view, want in taped.towers[tower].per_view.items():
            got = free.towers[tower].per_view[view]
            assert want._parents
            assert got._parents == () and got._backward is None and not got.requires_grad
            assert got.data.tobytes() == want.data.tobytes()


def test_node_of_a_non_root_raises(tiny_model):
    ads = tiny_model.graph.ids_of[NodeType.AD]
    fwd = tiny_model.forward([int(ads[0])], [])
    for missing in (int(ads[1]), int(ads[-1]) + 1):
        with pytest.raises(KeyError):
            node_embedding(fwd, NodeRef(NodeType.AD, missing))


def _row_reuse(pool):
    # (hits, misses) of a pool: repeat reads of a next-level row, and the
    # distinct rows it reads, each computed once however many parents reach it
    distinct = len(np.unique(pool.src_rows))
    return len(pool.src_rows) - distinct, distinct


def test_cache_hits_when_ads_share_neighbors(tiny_model):
    ads = [int(i) for i in tiny_model.graph.ids_of[NodeType.AD][:20]]
    first = [pp.child_pools[0] for pp in tiny_model.forward(ads, []).towers[AD_TOWER].plan.path_plans]
    hits, misses = map(sum, zip(*(_row_reuse(pool) for pool in first)))
    assert hits > 0
    assert misses > 0


def test_cache_hits_count_shared_pairs():
    # two ads with identical keyword neighborhood: the second ad's reads of
    # the shared keywords hit the rows the first ad's reads computed
    from hgmatch.graph import NodeRecord, RELATION_SCHEMA, Relation
    from oracles import EdgeRecord, ingest
    from hgmatch.features import FeatureManifest, FeatureSpec, FeatureEncoder
    from hgmatch.params import init_params
    from hgmatch.model import MatchingModel

    def rec(t, i):
        return NodeRecord(t, i, 0, 1.0, {"ad_id": str(i), "kw_id": str(i), "item_id": str(i)})

    nodes = [rec(NodeType.AD, 1), rec(NodeType.AD, 2)] + [rec(NodeType.KEYWORD, q) for q in (1, 2, 3)] + [rec(NodeType.ITEM, 9)]
    def edge(rel, s, d, w):
        st_, dt = RELATION_SCHEMA[rel]
        return EdgeRecord(st_, s, rel, dt, d, w)
    edges = [edge(Relation.AD_CLICK_KW, a, q, 1.0) for a in (1, 2) for q in (1, 2, 3)]
    g = ingest(edges, nodes)
    manifest = FeatureManifest({
        NodeType.AD: [FeatureSpec("ad_id", "id", 4, 4)],
        NodeType.KEYWORD: [FeatureSpec("kw_id", "id", 4, 4)],
        NodeType.ITEM: [FeatureSpec("item_id", "id", 16, 4)],
    })
    layouts = FeatureEncoder(manifest, {}).encode_graph(g)
    cfg = TrainConfig(d=4, l=2, m=5, kappa=2, seed=0)
    variant = VARIANTS["full"]
    params = init_params(manifest, cfg, variant, {t: active_paths(t, "all") for t in ("ad", "kw")},
                         np.random.default_rng(0))
    model = MatchingModel(g, layouts, manifest, params, cfg, variant)
    fwd = model.forward([1, 2], [])
    (pp,) = [pp for pp in fwd.towers[AD_TOWER].plan.path_plans if pp.path.name == "ad-click-kw-click-ad"]
    # 6 entries, one per (ad, keyword) pair, read the 3 rows of a 3-keyword level
    pool = pp.child_pools[0]
    assert (pool.n_out, pool.n_in) == (2, 3)
    assert pool.dst_rows.tolist() == [0, 0, 0, 1, 1, 1]
    assert pool.src_rows.tolist() == [0, 1, 2, 0, 1, 2]
    assert _row_reuse(pool) == (3, 3)


def test_attention_weights_sum_to_one(tiny_model):
    graph = tiny_model.graph
    fwd = tiny_model.forward(graph.ids_of[NodeType.AD], graph.ids_of[NodeType.KEYWORD])
    for tower in (AD_TOWER, KW_TOWER):
        w = fwd.towers[tower].att_weights
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-6
        assert np.all(w > 0)


def test_attention_shift_invariance(tiny_model):
    # adding a constant to every logit must not change the weights
    ref = NodeRef(NodeType.AD, int(tiny_model.graph.ids_of[NodeType.AD][0]))
    node = node_embedding(tiny_model.forward([ref.node_id], []), ref)
    base = node.att_weights
    per_path = [(n, node.per_path[n]) for n in sorted(base)]
    att = tiny_model.params["att/ad"].data.reshape(-1)
    logits = {n: h @ att for n, h in per_path}
    shifted = np.array([logits[n] + 7.5 for n in sorted(base)])
    e = np.exp(shifted - shifted.max())
    w_shifted = e / e.sum()
    for i, name in enumerate(sorted(base)):
        assert base[name] == pytest.approx(w_shifted[i], abs=1e-6)


def test_dssm_variant_bypasses_conv(tiny_dataset):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(tiny_dataset, cfg, VARIANTS["dssm"])
    ref = NodeRef(NodeType.AD, int(tiny_dataset.graph.ids_of[NodeType.AD][0]))
    node = node_embedding(model.forward([ref.node_id], []), ref)
    assert np.allclose(node.z, node.h)  # no conv, no attention, no siamese
    assert node.per_path == {} and node.att_weights == {}


def test_no_siamese_variant(tiny_dataset):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(tiny_dataset, cfg, VARIANTS["no_siamese"])
    ref = NodeRef(NodeType.AD, int(tiny_dataset.graph.ids_of[NodeType.AD][0]))
    node = node_embedding(model.forward([ref.node_id], []), ref)
    assert np.allclose(node.z, node.h_tilde)


def test_sage_variant_matches_naive(tiny_dataset):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(tiny_dataset, cfg, VARIANTS["sage"])
    graph = tiny_dataset.graph
    refs = [NodeRef(NodeType.AD, int(a)) for a in graph.ids_of[NodeType.AD][:6]]
    fwd = model.forward([r.node_id for r in refs], [])
    for ref in refs:
        _, _, z, per_view = naive_node_embedding(model, ref)
        assert np.allclose(node_embedding(fwd, ref).z, z, rtol=1e-6, atol=1e-9)


def test_group_variants_restrict_paths(tiny_dataset):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    for group, n_paths in (("bid_only", 2), ("item_only", 1)):
        model = build_model(tiny_dataset, cfg, VARIANTS[group])
        ref = NodeRef(NodeType.AD, int(tiny_dataset.graph.ids_of[NodeType.AD][0]))
        node = node_embedding(model.forward([ref.node_id], []), ref)
        assert len(node.per_path) == n_paths


def test_isolated_node_tower_collapses_to_nested_self(tiny_dataset):
    # a node with no edges: h^p = relu(W2 (relu(W1 h + b1)) + b2) per path
    from hgmatch.graph import NodeRecord
    from oracles import ingest
    from hgmatch.features import FeatureEncoder
    from hgmatch.params import init_params
    from hgmatch.model import MatchingModel

    base = tiny_dataset
    records = []
    for t, table in base.graph.nodes.items():
        records.extend(table.values())
    g = ingest([], records)  # same nodes, zero edges
    layouts = FeatureEncoder(base.manifest, base.boundaries).encode_graph(g)
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    variant = VARIANTS["full"]
    params = init_params(base.manifest, cfg, variant,
                         {t: active_paths(t, "all") for t in ("ad", "kw")},
                         np.random.default_rng((11, 31)))
    model = MatchingModel(g, layouts, base.manifest, params, cfg, variant)
    a = int(g.ids_of[NodeType.AD][0])
    node = node_embedding(model.forward([a], []), NodeRef(NodeType.AD, a))
    h0 = naive_h0(model, NodeType.AD, a)
    for tp in active_paths(AD_TOWER, "all"):
        h = h0
        for k in (1, 2):
            base_name = f"conv/{tp.path.name}/k{k}"
            h = np.maximum(h @ model.params[f"{base_name}/W"].data + model.params[f"{base_name}/b"].data, 0.0)
        assert np.allclose(node.per_path[tp.path.name], h, atol=1e-12)


def test_tower_symmetry_mirrored_parameters():
    # one ad and one keyword with identical features and symmetric edges;
    # mirror the kw-tower parameters onto the ad tower -> z vectors match
    from hgmatch.graph import NodeRecord, RELATION_SCHEMA, Relation
    from oracles import EdgeRecord, ingest
    from hgmatch.features import FeatureManifest, FeatureSpec, FeatureEncoder
    from hgmatch.params import init_params
    from hgmatch.model import MatchingModel

    nodes = [
        NodeRecord(NodeType.AD, 1, 0, 1.0, {"tok": "5"}),
        NodeRecord(NodeType.KEYWORD, 1, 0, 1.0, {"tok": "5"}),
        NodeRecord(NodeType.ITEM, 1, 0, 1.0, {"tok": "5"}),
    ]
    def edge(rel, s, d, w=1.0):
        st_, dt = RELATION_SCHEMA[rel]
        return EdgeRecord(st_, s, rel, dt, d, w)
    g = ingest([edge(Relation.AD_CLICK_KW, 1, 1), edge(Relation.AD_BID_KW, 1, 1)], nodes)
    manifest = FeatureManifest({
        NodeType.AD: [FeatureSpec("tok", "id", 8, 4)],
        NodeType.KEYWORD: [FeatureSpec("tok", "id", 8, 4)],
        NodeType.ITEM: [FeatureSpec("tok", "id", 8, 4)],
    })
    layouts = FeatureEncoder(manifest, {}).encode_graph(g)
    cfg = TrainConfig(d=4, l=2, m=5, kappa=2, seed=3)
    variant = VARIANTS["full"]
    params = init_params(manifest, cfg, variant,
                         {t: active_paths(t, "all") for t in ("ad", "kw")},
                         np.random.default_rng(9))
    # mirror: fusion nets equal; kw-tower conv/att copied from ad tower
    for suffix in ("W1", "b1", "W2", "b2"):
        params[f"fusion/keyword/{suffix}"].data[...] = params[f"fusion/ad/{suffix}"].data
    pairs = list(zip(active_paths(AD_TOWER, "all"), active_paths(KW_TOWER, "all")))
    for ad_tp, kw_tp in pairs:
        for k in (1, 2):
            for pname in ("W", "b", "V", "U"):
                src = f"conv/{ad_tp.path.name}/k{k}/{pname}"
                dst = f"conv/{kw_tp.path.name}/k{k}/{pname}"
                params[dst].data[...] = params[src].data
    params["att/kw"].data[...] = params["att/ad"].data
    model = MatchingModel(g, layouts, manifest, params, cfg, variant)
    fwd = model.forward([1], [1])
    za = node_embedding(fwd, NodeRef(NodeType.AD, 1)).z
    zq = node_embedding(fwd, NodeRef(NodeType.KEYWORD, 1)).z
    # the bid-group paths mirror exactly; the item paths see no edges so both
    # towers collapse identically as well
    assert np.allclose(za, zq, atol=1e-10)


@pytest.mark.parametrize("change", ["one more row", "missing"])
def test_checkpoint_table_shape_mismatch_rejected(tiny_dataset, tiny_model, change):
    from hgmatch.autodiff import Tensor
    from hgmatch.errors import DataError
    from hgmatch.model import MatchingModel
    from hgmatch.params import ModelParams

    name, spec = next(iter(tiny_dataset.manifest.tables.items()))
    tensors = dict(tiny_model.params.tensors)
    if change == "missing":
        del tensors[f"table/{name}"]
    else:
        tensors[f"table/{name}"] = Tensor(np.zeros((spec.size + 1, spec.width)))
    params = ModelParams(tensors, tiny_model.params.meta)
    with pytest.raises(DataError, match=f"checkpoint table/{name} has shape"):
        MatchingModel(tiny_dataset.graph, tiny_dataset.layouts, tiny_dataset.manifest,
                      params, tiny_model.cfg, VARIANTS["full"])


def test_checkpoint_dimension_mismatch_rejected(tiny_dataset, tiny_model):
    from hgmatch.errors import DataError
    from hgmatch.model import MatchingModel

    # the first tensor in `param_shapes` order whose shape follows d
    width = tiny_dataset.manifest.concat_width(NodeType.AD)
    bad_cfg = TrainConfig(d=16, l=4, m=5, kappa=2, seed=11)
    with pytest.raises(DataError, match=re.escape(
            f"checkpoint fusion/ad/W1 has shape ({width}, 8); the feature manifest, "
            f"config and variant need ({width}, 16)")):
        MatchingModel(tiny_dataset.graph, tiny_dataset.layouts, tiny_dataset.manifest,
                      tiny_model.params, bad_cfg, VARIANTS["full"])
