from hgmatch.config import SynthConfig
from hgmatch.graph import NodeRef, NodeType, Relation, load_graph
from hgmatch.pipeline import load_labels
from hgmatch.retrieval import load_task
from hgmatch.synthgen import generate


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
        ids, _ = g.neighbors(NodeRef(NodeType.AD, ad_id), Relation.AD_CLICK_KW)
        assert not (set(ids.tolist()) & kws)
    for ad_id, kws in task.view_targets.get("ad_bid", {}).items():
        ids, _ = g.neighbors(NodeRef(NodeType.AD, ad_id), Relation.AD_BID_KW)
        assert not (set(ids.tolist()) & kws)


def test_cold_ads_have_bids_but_no_clicks(tmp_path):
    paths, stats = generate(SynthConfig(**SMALL, seed=9), tmp_path / "d")
    g = load_graph(paths["edges"], paths["nodes"])
    assert stats.cold_ads
    for a in stats.cold_ads:
        ref = NodeRef(NodeType.AD, a)
        assert len(g.neighbors(ref, Relation.AD_CLICK_KW)[0]) == 0
        assert len(g.neighbors(ref, Relation.AD_COCLICK_ITEM)[0]) == 0
        assert len(g.neighbors(ref, Relation.AD_BID_KW)[0]) > 0


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
