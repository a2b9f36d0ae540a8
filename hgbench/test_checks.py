"""Each benchmark check accepts a right answer and rejects a wrong one.

    PYTHONPATH=src:tests:hgbench python3 -m pytest -q hgbench
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from hgmatch.config import SynthConfig, TrainConfig, VARIANTS
from hgmatch.graph import NodeType
from hgmatch.pipeline import build_model, load_dataset
from hgmatch.retrieval import export_embeddings, load_embeddings, recall_at_k, retrieve_all, save_embeddings
from hgmatch.synthgen import generate

import checks
from tracing import LAYER_UNITS, Tracer
from workloads import E2E_UNITS, WORKLOADS, Setup, paired_steps

K = 5
TINY = dict(
    ads=40, keywords=80, items=20, categories=2, clusters=4,
    density_ad_click_kw=0.05, density_ad_bid_kw=0.05,
    density_item_click_kw=0.08, density_ad_coclick_item=0.08,
    labels_per_view=60, term_vocab=50, seed=7,
)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    paths, _ = generate(SynthConfig(**TINY), out)
    ds = load_dataset(paths["edges"], paths["nodes"], paths["features"],
                      labels=paths["labels"], task=paths["task"])
    model = build_model(ds, TrainConfig(d=8, l=4, m=5, kappa=2, seed=11), VARIANTS["full"])
    store = export_embeddings(model)
    dump = out / "embeddings.tsv"
    save_embeddings(store, dump)
    loaded = load_embeddings(dump)
    retrieved = retrieve_all(loaded, ds.graph, ds.cat_index, ds.task, K)
    return ds, model, store, loaded, retrieved


def test_losses_finite_rejects_nan():
    assert checks.losses_finite([3.0, 2.5]) == []
    assert checks.losses_finite([3.0, float("nan")])
    assert checks.losses_finite([float("inf")])


def test_loss_decreases_rejects_a_rise_or_a_flat_run():
    assert checks.loss_decreases([5.0, 4.0, 3.0]) == []
    assert checks.loss_decreases([3.0, 4.0, 3.5])
    assert checks.loss_decreases([3.0, 3.0])
    assert checks.loss_decreases([3.0])


def test_same_losses_rejects_a_one_ulp_change():
    a = [1.5, 1.25]
    assert checks.same_losses(a, list(a)) == []
    assert checks.same_losses(a, [1.5, np.nextafter(1.25, 2.0)])
    assert checks.same_losses(a, a[:1])


def test_round_trip_rejects_one_flipped_bit(tiny):
    _, _, store, loaded, _ = tiny
    assert checks.round_trip_exact(store, loaded) == []
    bad = copy.deepcopy(loaded)
    mat = bad.vectors["ad_bid"][NodeType.KEYWORD][1]
    mat[3, 2] = np.nextafter(mat[3, 2], np.inf)
    assert checks.round_trip_exact(store, bad)


def test_topk_rejects_two_swapped_ranks(tiny):
    ds, _, _, loaded, retrieved = tiny
    assert checks.topk_lists(loaded, ds.graph, ds.task, K, retrieved) == []
    bad = copy.deepcopy(retrieved)
    ad = ds.task.ads[0]
    lst = bad[ad]["ad_click"]
    lst[0], lst[1] = lst[1], lst[0]
    assert checks.topk_lists(loaded, ds.graph, ds.task, K, bad)


def test_topk_rejects_a_list_one_short(tiny):
    ds, _, _, loaded, retrieved = tiny
    bad = copy.deepcopy(retrieved)
    bad[ds.task.ads[-1]]["item_click"].pop()
    assert checks.topk_lists(loaded, ds.graph, ds.task, K, bad)


def test_recall_check_rejects_a_perturbed_recall(tiny):
    ds, _, _, _, retrieved = tiny
    recall = recall_at_k(ds.task, retrieved).overall
    assert checks.recall_matches(ds.task, retrieved, recall, "recall_3k") == []
    assert checks.recall_matches(ds.task, retrieved, recall + 1e-12, "recall_3k")


def test_random_baseline_is_the_expected_hit_rate(tiny):
    ds, _, _, _, _ = tiny
    n_views = 3
    base = checks.random_recall(ds.task, ds.graph, K, n_views)
    # every target sits in its ad's category here, so each has the same chance
    cats = checks.category_keywords(ds.graph)
    n = len(next(iter(cats.values())))
    assert all(len(ids) == n for ids in cats.values())
    assert base == pytest.approx(1 - (1 - K / n) ** n_views)
    assert checks.beats_baseline(base + 0.01, base, "recall_3k") == []
    assert checks.beats_baseline(base, base, "recall_3k")


def test_oracle_sample_rejects_a_perturbed_vector(tiny):
    ds, model, store, _, _ = tiny
    refs = [(NodeType.AD, int(ds.graph.ids_of[NodeType.AD][0])),
            (NodeType.KEYWORD, int(ds.graph.ids_of[NodeType.KEYWORD][5]))]
    assert checks.oracle_sample(model, store, refs) == []
    bad = copy.deepcopy(store)
    ids, mat = bad.vectors["ad_click"][NodeType.KEYWORD]
    mat[5, 0] *= 1 + 1e-6
    assert checks.oracle_sample(model, bad, refs)


def test_tracing_leaves_results_and_functions_unchanged(tiny):
    import hgmatch.autodiff as autodiff
    import hgmatch.trainer as trainer

    ds, model, store, _, _ = tiny
    before = (autodiff.gather, trainer.build_plan, autodiff.Tensor.backward)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = "embed"
        traced = export_embeddings(model)
    finally:
        tracer.uninstall()
    assert (autodiff.gather, trainer.build_plan, autodiff.Tensor.backward) == before
    assert checks.round_trip_exact(store, traced) == []
    assert tracer.calls[("embed", "model.forward")] == 1
    assert tracer.calls[("embed", "autodiff.gather")] > 0


def test_paired_steps_agree_and_only_the_traced_one_is_timed(tiny):
    import hgmatch.trainer as trainer

    ds, _, _, _, _ = tiny
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(ds, cfg, VARIANTS["full"])
    s = Setup(ds, cfg, model, trainer.Trainer(model, ds.cat_index, ds.labels), [], None)
    before = trainer.Trainer.step
    tracer = Tracer()
    traced, plain, extra = paired_steps(s, tracer)
    assert trainer.Trainer.step is before
    assert traced and checks.same_losses(plain, traced) == []
    assert len(extra) == len(traced)
    assert tracer.calls[("overhead", "trainer.step")] == len(traced)
    assert tracer.rows_used == []  # only training-phase losses feed the ratio


def test_names_and_units_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
