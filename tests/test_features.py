import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmatch.errors import DataError
from hgmatch.features import (
    FeatureManifest,
    FeatureSpec,
    FeatureEncoder,
    discretize,
    fit_quantiles,
    load_boundaries,
    load_manifest,
    save_boundaries,
    save_manifest,
    stable_hash,
)
from hgmatch.graph import NodeType


def test_fit_quantiles_linear_interpolation():
    q = fit_quantiles(range(1, 101), 4)
    assert np.allclose(q, [25.75, 50.5, 75.25])


def test_fit_quantiles_median_of_two():
    q = fit_quantiles([0.0, 10.0], 2)
    assert np.allclose(q, [5.0])


def test_fit_quantiles_constant_degenerates():
    q = fit_quantiles([3.0] * 50, 8)
    assert len(q) == 0
    assert discretize(3.0, q) == 0
    assert discretize(99.0, q) == 0


def test_fit_quantiles_duplicates_collapse():
    # heavy mass at one value produces duplicate quantiles -> fewer buckets
    q = fit_quantiles([1.0] * 90 + [2.0] * 10, 8)
    assert np.all(np.diff(q) > 0)


def test_discretize_boundary_conventions():
    q = np.array([10.0, 20.0, 30.0])
    assert discretize(5, q) == 0
    assert discretize(10, q) == 1  # boundary counts as <= x
    assert discretize(1e9, q) == 3
    assert discretize(float("nan"), q) == 0
    assert discretize(None, q) == 0


@settings(max_examples=50, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_discretize_monotone(x, y):
    q = np.array([-10.0, 0.0, 1.5, 400.0])
    if x <= y:
        assert discretize(x, q) <= discretize(y, q)
    else:
        assert discretize(y, q) <= discretize(x, q)


def test_manifest_shared_name_must_agree():
    with pytest.raises(DataError, match="conflicting"):
        FeatureManifest({
            NodeType.AD: [FeatureSpec("terms", "terms", 100, 8)],
            NodeType.ITEM: [FeatureSpec("terms", "terms", 50, 8)],
        })


def test_manifest_roundtrip(tmp_path):
    m = FeatureManifest({
        NodeType.AD: [FeatureSpec("ad_id", "id", 10, 4), FeatureSpec("terms", "terms", 30, 4)],
        NodeType.KEYWORD: [FeatureSpec("price", "numeric", 8, 4)],
    })
    path = tmp_path / "features.tsv"
    save_manifest(m, path)
    m2 = load_manifest(path)
    assert m2.per_type[NodeType.AD] == m.per_type[NodeType.AD]
    assert m2.per_type[NodeType.KEYWORD] == m.per_type[NodeType.KEYWORD]


@pytest.mark.parametrize("row, message", [
    ("ad\tad_id\tid\t10", "expected 5 fields"),
    ("shop\tad_id\tid\t10\t4", "'shop' is not a valid NodeType"),
    ("ad\tad_id\tbogus\t10\t4", "unknown feature kind 'bogus'"),
])
def test_manifest_bad_row_names_its_line(tmp_path, row, message):
    path = tmp_path / "features.tsv"
    path.write_text(f"# node_type\tfeature\tkind\tsize\twidth\nad\tterms\tterms\t30\t4\n{row}\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:3: {message}")):
        load_manifest(path)


def test_boundaries_roundtrip(tmp_path):
    bounds = {"price": fit_quantiles(np.linspace(0, 1, 77), 16, "price")}
    path = tmp_path / "bounds.tsv"
    save_boundaries(bounds, path)
    loaded = load_boundaries(path)
    assert np.array_equal(loaded["price"], bounds["price"])


# as `save_boundaries` writes them: sorted names, repr'd floats, a bare name for none
BOUNDARIES_FILE = ("# feature\tboundaries...\n"
                   "count\t0.17500000000000002 0.44999999999999996 1.275\n"
                   "flat\n"
                   "price\t0.25 0.5 0.75\n")


def test_boundaries_file_reads_to_equal_arrays_and_writes_back_the_same(tmp_path):
    fitted = {"price": fit_quantiles(np.linspace(0, 1, 9), 4),
              "flat": fit_quantiles([2.0] * 5, 4),
              "count": fit_quantiles([0.1, 0.2, 0.7, 3.0], 4)}
    path = tmp_path / "bounds.tsv"
    path.write_text(BOUNDARIES_FILE)
    loaded = load_boundaries(path)
    assert sorted(loaded) == sorted(fitted)
    assert all(np.array_equal(loaded[name], fitted[name]) for name in fitted)
    save_boundaries(fitted, tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_text() == BOUNDARIES_FILE


def test_manifest_shares_a_feature_name_across_node_types_but_not_within_one(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text("ad\tad_id\tid\t10\t8\nitem\tad_id\tid\t10\t8\n")
    m = load_manifest(path)
    assert list(m.tables) == ["ad_id"] and m.concat_width(NodeType.AD) == 8
    path.write_text("ad\tad_id\tid\t10\t8\n# again\nad\tad_id\tid\t10\t8\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:3: feature ad_id of ad is listed twice")):
        load_manifest(path)


def test_stable_hash_is_deterministic_across_runs():
    # frozen value: must never change, checkpoints depend on it
    assert stable_hash("terms", 12345) == stable_hash("terms", 12345)
    assert stable_hash("terms", 1) != stable_hash("brand", 1)


def test_encoder_oov_and_missing(tiny_dataset):
    graph = tiny_dataset.graph
    manifest = tiny_dataset.manifest
    enc = FeatureEncoder(manifest, tiny_dataset.boundaries)
    layouts = enc.encode_graph(graph)
    ad_layout = layouts[NodeType.AD]
    n_ads = graph.num_nodes(NodeType.AD)
    for spec in ad_layout.specs:
        if spec.kind == "terms":
            op = ad_layout.terms[spec.name]
            assert op.n_out == len(op.counts) == n_ads
            assert np.all(op.src_rows >= 0) and np.all(op.src_rows < spec.size)
        else:
            col = ad_layout.single[spec.name].src_rows
            assert col.shape == (n_ads,)
            assert np.all(col >= 0) and np.all(col < spec.size)


def test_encoder_out_of_vocab_hashes_in_range():
    manifest = FeatureManifest({NodeType.AD: [FeatureSpec("brand", "id", 7, 4)]})
    enc = FeatureEncoder(manifest, {})
    spec = manifest.per_type[NodeType.AD][0]
    idx = enc._index_value(spec, "999999")
    assert 0 <= idx < 7
    assert enc.stats.oov == 1
    assert enc._index_value(spec, None) == 0
    assert enc.stats.missing == 1


def test_node_fusion_hand_evaluated_toy():
    # d=4 with hand-set tables and identity fusion: h = concat(slots) exactly
    from hgmatch.graph import NodeRecord
    from oracles import ingest
    from hgmatch.params import ModelParams, param_shapes
    from hgmatch.model import MatchingModel
    from hgmatch.config import TrainConfig, VARIANTS
    from hgmatch.autodiff import Tensor
    from oracles import naive_h0

    nodes = [NodeRecord(NodeType.AD, 0, 0, 0.0, {"tok": "1", "terms": "0,2"})]
    g = ingest([], nodes)
    manifest = FeatureManifest({
        NodeType.AD: [FeatureSpec("tok", "id", 4, 2), FeatureSpec("terms", "terms", 4, 2)],
    })
    layouts = FeatureEncoder(manifest, {}).encode_graph(g)
    tok_table = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    cfg = TrainConfig(d=4, l=2, seed=0)
    # every tensor the model checks for; the view heads stay zero and unread
    tensors = {name: Tensor(np.zeros(shape), requires_grad=True)
               for name, shape in param_shapes(manifest, cfg, VARIANTS["dssm"], {}).items()}
    tensors.update({
        "table/tok": Tensor(tok_table.copy(), requires_grad=True),
        "table/terms": Tensor(tok_table.copy(), requires_grad=True),
        "fusion/ad/W1": Tensor(np.eye(4), requires_grad=True),
        "fusion/ad/b1": Tensor(np.zeros(4), requires_grad=True),
        "fusion/ad/W2": Tensor(np.eye(4), requires_grad=True),
        "fusion/ad/b2": Tensor(np.zeros(4), requires_grad=True),
    })
    params = ModelParams(tensors, {"d": 4, "l": 2, "variant": "dssm"})
    model = MatchingModel(g, layouts, manifest, params, cfg, VARIANTS["dssm"])
    h = model.node_level_all(NodeType.AD).data[0]
    # tok=1 -> [3,4]; terms mean of rows {0,2} -> [3,4]; identity fusion keeps it
    assert np.allclose(h, [3.0, 4.0, 3.0, 4.0])
    assert np.allclose(naive_h0(model, NodeType.AD, 0), h)


def test_zero_tables_zero_biases_give_zero_embedding(tiny_dataset, tmp_path):
    from hgmatch.config import TrainConfig, VARIANTS
    from hgmatch.pipeline import build_model

    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=1)
    model = build_model(tiny_dataset, cfg, VARIANTS["dssm"])
    for name in model.params.names():
        if name.startswith(("table/", "fusion/")):
            model.params[name].data[...] = 0.0
    h = model.node_level_all(NodeType.AD).data
    assert np.allclose(h, 0.0)


def test_shared_title_terms_identical_subvectors(tiny_dataset):
    # an ad and an item with the same term tokens resolve to the same table
    # rows, so their pooled term sub-vectors are identical before fusion
    from hgmatch.graph import NodeRecord
    from oracles import ingest

    manifest = tiny_dataset.manifest
    nodes = [
        NodeRecord(NodeType.AD, 0, 0, 0.0, {"ad_id": "0", "terms": "3,5,9"}),
        NodeRecord(NodeType.ITEM, 0, 0, 0.0, {"item_id": "0", "terms": "3,5,9"}),
    ]
    g = ingest([], nodes)
    enc = FeatureEncoder(manifest, tiny_dataset.boundaries)
    layouts = enc.encode_graph(g)
    ad_terms = layouts[NodeType.AD].terms["terms"].src_rows
    item_terms = layouts[NodeType.ITEM].terms["terms"].src_rows
    assert np.array_equal(ad_terms, item_terms)
    table = np.random.default_rng(0).normal(size=(manifest.tables["terms"].size, 8))
    assert np.allclose(table[ad_terms].mean(axis=0), table[item_terms].mean(axis=0))
