import hashlib
from pathlib import Path

from hgmatch.config import SynthConfig
from hgmatch.graph import NodeRef, NodeType, Relation, load_graph
from hgmatch.pipeline import load_labels
from hgmatch.retrieval import load_task
from hgmatch.synthgen import generate
from oracles import neighbors


SMALL = dict(
    ads=120, keywords=240, items=60, categories=3, clusters=6,
    density_ad_click_kw=0.02, density_ad_bid_kw=0.02,
    density_item_click_kw=0.03, density_ad_coclick_item=0.03,
    labels_per_view=300, term_vocab=120,
)


def test_same_seed_byte_identical(tmp_path):
    p1, _ = generate(SynthConfig(**SMALL, seed=5), tmp_path / "a")
    p2, _ = generate(SynthConfig(**SMALL, seed=5), tmp_path / "b")
    for key in p1:
        assert open(p1[key], "rb").read() == open(p2[key], "rb").read()


# sha256 of each output of SMALL at seed 5, as the generator wrote it when
# it built its pairs in a dict and wrote them one line at a time
SMALL_SEED5_SHA256 = {
    "edges": "89f432c35cf438b4b00259f195f4a6878f8cecaec6858193550f9856081a9551",
    "features": "dcff2f010d1cb3f219e36eee2f2111b6f1c28bc2bc2bc11e98f417699f30e812",
    "labels": "acbe240975f41d413cead31160c950a77a7e6331b0a5d5e2ab5bef857a9f06a5",
    "nodes": "e153cdeb847ae0cb098349b8cab35ee4cf935abcacb4e42435b6ff0bc3bd15f1",
    "task": "d956ccbcd3e4474a065e941c683cb1fae50228d8d147aa7ad11ef425de156c71",
}


def test_outputs_keep_their_bytes(tmp_path):
    paths, _ = generate(SynthConfig(**SMALL, seed=5), tmp_path)
    got = {k: hashlib.sha256(Path(p).read_bytes()).hexdigest() for k, p in paths.items()}
    assert got == SMALL_SEED5_SHA256


def test_different_seed_differs(tmp_path):
    p1, _ = generate(SynthConfig(**SMALL, seed=5), tmp_path / "a")
    p2, _ = generate(SynthConfig(**SMALL, seed=6), tmp_path / "b")
    assert open(p1["edges"], "rb").read() != open(p2["edges"], "rb").read()


def test_relation_counts_match_density(tmp_path):
    cfg = SynthConfig(ads=1000, keywords=2000, items=500, clusters=20, seed=2)
    _, stats = generate(cfg, tmp_path / "d")
    expect = {
        "ad_click_kw": cfg.density_ad_click_kw * cfg.ads * cfg.keywords,
        "ad_bid_kw": cfg.density_ad_bid_kw * cfg.ads * cfg.keywords,
        "item_click_kw": cfg.density_item_click_kw * cfg.items * cfg.keywords,
        "ad_coclick_item": cfg.density_ad_coclick_item * cfg.ads * cfg.items,
    }
    for rel, want in expect.items():
        got = stats.generated_edges[rel]
        assert abs(got - want) <= 0.05 * want, (rel, got, want)


def test_no_leakage_targets_not_in_graph(tmp_path):
    paths, _ = generate(SynthConfig(**SMALL, seed=9), tmp_path / "d")
    g = load_graph(paths["edges"], paths["nodes"])
    task = load_task(paths["task"])
    for ad_id, kws in task.targets.items():
        ids, _ = neighbors(g, NodeRef(NodeType.AD, ad_id), Relation.AD_CLICK_KW)
        assert not (set(ids.tolist()) & kws)
    for ad_id, kws in task.view_targets.get("ad_bid", {}).items():
        ids, _ = neighbors(g, NodeRef(NodeType.AD, ad_id), Relation.AD_BID_KW)
        assert not (set(ids.tolist()) & kws)


def test_cold_ads_have_bids_but_no_clicks(tmp_path):
    paths, stats = generate(SynthConfig(**SMALL, seed=9), tmp_path / "d")
    g = load_graph(paths["edges"], paths["nodes"])
    assert stats.cold_ads
    for a in stats.cold_ads:
        ref = NodeRef(NodeType.AD, a)
        assert len(neighbors(g, ref, Relation.AD_CLICK_KW)[0]) == 0
        assert len(neighbors(g, ref, Relation.AD_COCLICK_ITEM)[0]) == 0
        assert len(neighbors(g, ref, Relation.AD_BID_KW)[0]) > 0


def test_cold_ads_have_click_targets(tmp_path):
    paths, stats = generate(SynthConfig(**SMALL, seed=9), tmp_path / "d")
    task = load_task(paths["task"])
    for a in stats.cold_ads:
        assert len(task.targets.get(a, ())) >= 3


def test_zero_noise_targets_share_cluster_category(tmp_path):
    # noise 0: every click lands in the ad's cluster; category = cluster mod C,
    # so target keywords always share the ad's category (candidate membership)
    cfg = SynthConfig(**{**SMALL, "noise_edge_frac": 0.0}, seed=4)
    paths, _ = generate(cfg, tmp_path / "d")
    g = load_graph(paths["edges"], paths["nodes"])
    task = load_task(paths["task"])
    for ad_id, kws in task.targets.items():
        ad_cat = g.nodes[NodeType.AD][ad_id].category_id
        for q in kws:
            assert g.nodes[NodeType.KEYWORD][q].category_id == ad_cat


def test_labels_exclude_targets(tmp_path):
    paths, _ = generate(SynthConfig(**SMALL, seed=9), tmp_path / "d")
    labels = load_labels(paths["labels"])
    task = load_task(paths["task"])
    click_labels = {(a, q) for v, a, q in labels if v == "ad_click"}
    click_targets = {(a, q) for a, kws in task.targets.items() for q in kws}
    assert not (click_labels & click_targets)


def test_categories_partition_and_sizes(tmp_path):
    paths, _ = generate(SynthConfig(**SMALL, seed=9), tmp_path / "d")
    g = load_graph(paths["edges"], paths["nodes"])
    cats = {}
    for q in g.ids_of[NodeType.KEYWORD]:
        rec = g.nodes[NodeType.KEYWORD][int(q)]
        assert 0 <= rec.category_id < 3
        cats.setdefault(rec.category_id, 0)
        cats[rec.category_id] += 1
    assert sum(cats.values()) == 240


def test_searched_counts_positive_for_keywords(tmp_path):
    paths, _ = generate(SynthConfig(**SMALL, seed=9), tmp_path / "d")
    g = load_graph(paths["edges"], paths["nodes"])
    for q in g.ids_of[NodeType.KEYWORD]:
        assert g.nodes[NodeType.KEYWORD][int(q)].searched_count >= 1
