import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmatch import autodiff as ad
from hgmatch.autodiff import Tensor
from hgmatch.config import TrainConfig, VARIANTS
from hgmatch.errors import DataError, NumericError
from hgmatch.features import FeatureEncoder
from hgmatch.graph import NodeRef, NodeType, Relation, iter_file_records
from hgmatch.model import AD_TOWER, KW_TOWER, MatchingModel, active_paths, build_plan
from hgmatch.params import ModelParams, init_params
from hgmatch.pipeline import build_model, train_variant
from hgmatch.trainer import (
    Adam,
    GradCheckReport,
    Trainer,
    TrainingPair,
    batch_plan,
    build_training_pairs,
    grad_check,
    loss_from_forward,
    relative_error,
)
from oracles import (gather_segment_sum_execute, ingest, neighbors, node_embedding, parse_edge_line,
                     posterior)


def test_posterior_equal_scores_is_uniform():
    assert posterior(2.0, [2.0] * 5, gamma=1.0) == pytest.approx(1 / 6)
    assert posterior(2.0, [2.0] * 5, gamma=7.3) == pytest.approx(1 / 6)


def test_posterior_gamma_zero_is_uniform():
    assert posterior(10.0, [0.0, -3.0, 2.0, 1.0, 5.0], gamma=0.0) == pytest.approx(1 / 6)


def test_posterior_numeric_oracle():
    # pos=1, five zeros, gamma=1 -> e/(e+5)
    want = np.e / (np.e + 5.0)
    assert posterior(1.0, [0.0] * 5, gamma=1.0) == pytest.approx(want, abs=1e-6)
    assert abs(want - 0.35219) < 1e-4


def test_posterior_overflow_stable():
    p = posterior(1e4, [9.9e3] * 5, gamma=1.0)
    assert 0.0 < p <= 1.0 and np.isfinite(p)


def test_posterior_sums_to_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        scores = rng.normal(scale=5.0, size=6)
        total = sum(
            posterior(scores[i], np.delete(scores, i), gamma=1.3) for i in range(6)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 4.0), st.floats(0.2, 3.0))
def test_posterior_monotone_in_gamma_when_pos_wins(gamma, delta):
    negs = [1.0, 0.5, 0.0, -0.5, 0.2]
    lo = posterior(1.0 + delta + max(negs), negs, gamma=gamma)
    hi = posterior(1.0 + delta + max(negs), negs, gamma=gamma + 0.5)
    assert hi > lo


def make_pairs(dataset, cfg, n=24):
    pairs, _ = build_training_pairs(
        dataset.labels[:n], dataset.cat_index, cfg.negatives, (13, 0)
    )
    return pairs


def test_batch_loss_uniform_scores(tiny_dataset):
    # zero all view-head output weights: every score 0 -> loss = B * ln 6
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(tiny_dataset, cfg, VARIANTS["full"])
    for name in model.params.names():
        if name.startswith("view/") and name.endswith("/W2"):
            model.params[name].data[...] = 0.0
    pairs = make_pairs(tiny_dataset, cfg)
    fwd = model.forward(
        [p.ad for p in pairs], [p.positive_kw for p in pairs] + [n for p in pairs for n in p.negatives]
    )
    loss = loss_from_forward(model, fwd, pairs)
    assert float(loss.data) == pytest.approx(len(pairs) * np.log(6.0), abs=1e-9)


def test_batch_loss_invariant_under_negative_permutation(tiny_dataset):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(tiny_dataset, cfg, VARIANTS["full"])
    pairs = make_pairs(tiny_dataset, cfg)
    ids = set()
    for p in pairs:
        ids.add(p.ad)
    kw_ids = [p.positive_kw for p in pairs] + [n for p in pairs for n in p.negatives]
    fwd = model.forward(sorted(ids), kw_ids)
    base = float(loss_from_forward(model, fwd, pairs).data)
    rng = np.random.default_rng(5)
    for _ in range(5):
        permuted = [
            TrainingPair(p.ad, p.positive_kw, p.view,
                         tuple(rng.permutation(p.negatives).tolist()))
            for p in pairs
        ]
        got = float(loss_from_forward(model, fwd, permuted).data)
        assert got == pytest.approx(base, abs=1e-9)


def test_batch_loss_matches_posterior_oracle(tiny_dataset):
    # loss == -sum log posterior computed pair by pair from exported vectors
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(tiny_dataset, cfg, VARIANTS["full"])
    pairs = make_pairs(tiny_dataset, cfg, n=12)
    fwd = model.forward(
        [p.ad for p in pairs],
        [p.positive_kw for p in pairs] + [n for p in pairs for n in p.negatives],
    )
    loss = float(loss_from_forward(model, fwd, pairs).data)
    want = 0.0
    for p in pairs:
        from hgmatch.graph import NodeRef

        za = node_embedding(fwd, NodeRef(NodeType.AD, p.ad)).per_view[p.view]
        zq = node_embedding(fwd, NodeRef(NodeType.KEYWORD, p.positive_kw)).per_view[p.view]
        s_pos = float(za @ zq)
        s_negs = [
            float(za @ node_embedding(fwd, NodeRef(NodeType.KEYWORD, n)).per_view[p.view])
            for n in p.negatives
        ]
        want -= np.log(posterior(s_pos, s_negs, cfg.gamma))
    assert loss == pytest.approx(want, rel=1e-9)


def test_perfect_separation_loss_goes_to_zero():
    # direct loss math: one pair, huge positive margin
    p = posterior(50.0, [0.0] * 5, gamma=2.0)
    assert -np.log(p) < 1e-8


def test_build_training_pairs_skips_small_categories(tiny_dataset):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    pairs, skipped = build_training_pairs(
        tiny_dataset.labels, tiny_dataset.cat_index, 5, (0, 0)
    )
    assert skipped == 0  # synthetic categories are large enough
    assert all(len(p.negatives) == 5 for p in pairs)
    assert all(p.positive_kw not in p.negatives for p in pairs)


def test_adam_zero_lr_keeps_parameters(tiny_dataset):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11, learning_rate=0.0)
    model = build_model(tiny_dataset, cfg, VARIANTS["full"])
    before = {n: model.params[n].data.copy() for n in model.params.names()}
    trainer = Trainer(model, tiny_dataset.cat_index, tiny_dataset.labels)
    pairs = make_pairs(tiny_dataset, cfg)
    l1 = trainer.step(pairs)
    l2 = trainer.step(pairs)
    assert l1 == l2
    for name in model.params.names():
        assert np.array_equal(before[name], model.params[name].data)


def test_adam_scalar_hand_trace():
    # loss = (w - 3)^2 from w=0: first Adam step is exactly -lr * sign(grad)
    w = Tensor(np.array([0.0]), requires_grad=True)
    params = ModelParams({"w": w}, {})
    opt = Adam(params, lr=0.1)
    for step in range(3):
        w.grad = None
        loss = ((w - 3.0) * (w - 3.0)).sum()
        loss.backward()
        opt.step()
    # hand trace: g1=-6 -> w=0.1; g2=-5.8 -> w ~ 0.19997...; g3 ~ -5.6
    g1 = -6.0
    m = 0.1 * g1
    v = 0.001 * g1 * g1
    w1 = 0.0 - 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    assert w1 == pytest.approx(0.1, abs=1e-9)
    assert w.data[0] > 0.28  # keeps moving toward 3
    assert w.data[0] == pytest.approx(0.2999, abs=1e-2)


def test_non_finite_gradient_aborts_with_tensor_name():
    w = Tensor(np.array([1.0]), requires_grad=True)
    params = ModelParams({"bad/tensor": w}, {})
    opt = Adam(params, lr=0.1)
    w.grad = np.array([np.inf])
    with pytest.raises(NumericError, match="bad/tensor"):
        opt.step()


def test_overflowing_update_aborts_with_tensor_name():
    w = Tensor(np.array([1.5e308, 0.0]), requires_grad=True)
    params = ModelParams({"big/tensor": w}, {})
    opt = Adam(params, lr=1e308)
    w.grad = np.array([-1.0, 1.0])  # moves w[0] up by ~lr: past the float64 range
    with pytest.raises(NumericError, match="non-finite parameter big/tensor"), \
            np.errstate(over="ignore"):
        opt.step()


def test_trainer_rejects_unknown_label_nodes(tiny_dataset):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(tiny_dataset, cfg, VARIANTS["full"])
    with pytest.raises(DataError, match="unknown ad"):
        Trainer(model, tiny_dataset.cat_index, [("ad_click", 10_000, 0)])
    ad_id = int(tiny_dataset.graph.ids_of[NodeType.AD][0])
    with pytest.raises(DataError, match="label references unknown keyword 10000"):
        Trainer(model, tiny_dataset.cat_index, [("ad_click", ad_id, 10_000)])


def test_trainer_requires_labels_for_active_views(tiny_dataset):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(tiny_dataset, cfg, VARIANTS["single_view"])
    bid_only_labels = [l for l in tiny_dataset.labels if l[0] == "ad_bid"]
    with pytest.raises(DataError, match="no training labels"):
        Trainer(model, tiny_dataset.cat_index, bid_only_labels)


def test_fit_is_bitwise_deterministic(tiny_dataset):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11, epochs=2, batch_size=64)
    runs = []
    for _ in range(2):
        model, fit = train_variant(tiny_dataset, cfg, VARIANTS["full"])
        runs.append((fit.batch_losses, {n: model.params[n].data.copy() for n in model.params.names()}))
    assert runs[0][0] == runs[1][0]  # bitwise identical loss trajectory
    for name in runs[0][1]:
        assert np.array_equal(runs[0][1][name], runs[1][1][name])


def test_overfit_single_repeated_pair(tiny_dataset):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11, learning_rate=0.01)
    model = build_model(tiny_dataset, cfg, VARIANTS["full"])
    trainer = Trainer(model, tiny_dataset.cat_index, tiny_dataset.labels)
    pairs = make_pairs(tiny_dataset, cfg, n=4)[:1]
    losses = [trainer.step(pairs) for _ in range(8)]
    # decreasing for at least 3 consecutive evaluations
    drops = [losses[i + 1] < losses[i] for i in range(len(losses) - 1)]
    assert any(drops[i] and drops[i + 1] and drops[i + 2] for i in range(len(drops) - 2))


def test_fit_reduces_loss_on_tiny_dataset(tiny_dataset):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11, epochs=3,
                      batch_size=64, learning_rate=0.01)
    model, fit = train_variant(tiny_dataset, cfg, VARIANTS["full"])
    assert fit.epoch_losses[-1] < fit.epoch_losses[0]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_gradients_equal_gather_segment_sum_reference(tiny_dataset, variant):
    """Before each of three Trainer steps, the loss and every parameter
    gradient equal bit for bit those of the gather->segment_sum reference."""
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11, learning_rate=0.01)
    model = build_model(tiny_dataset, cfg, VARIANTS[variant])
    trainer = Trainer(model, tiny_dataset.cat_index, tiny_dataset.labels)
    pairs, _ = build_training_pairs(trainer.labels, tiny_dataset.cat_index, cfg.negatives,
                                    (cfg.seed, 101, 0))

    def loss_and_grads(execute, batch):
        model.params.zero_grads()
        loss = loss_from_forward(model, execute(model, batch_plan(model, batch)), batch)
        loss.backward()
        grads = {n: None if t.grad is None else t.grad.tobytes()
                 for n, t in model.params.tensors.items()}
        return loss.data.tobytes(), grads

    for b0 in (0, 16, 32):
        batch = pairs[b0:b0 + 16]
        got = loss_and_grads(MatchingModel.execute, batch)
        assert got == loss_and_grads(gather_segment_sum_execute, batch)
        trainer.step(batch)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_backward_builds_no_pooling(tiny_dataset, monkeypatch, variant):
    """Every row index of a step is a Pooling built before its backward runs."""
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(tiny_dataset, cfg, VARIANTS[variant])
    pairs = make_pairs(tiny_dataset, cfg, n=16)
    built = []
    post_init = ad.Pooling.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ad.Pooling, "__post_init__", counting)
    loss = loss_from_forward(model, model.execute(batch_plan(model, pairs)), pairs)
    assert built  # the forward's plan and loss rows
    built.clear()
    loss.backward()
    assert len(built) == 0


def full_plan(model):
    """A plan over every ad and keyword of the model's graph."""
    graph = model.graph
    return build_plan(graph, graph.ids_of[NodeType.AD], graph.ids_of[NodeType.KEYWORD],
                      model.cfg, model.variant)


def plan_loss_and_grads(model, plan, pairs):
    model.params.zero_grads()
    loss = loss_from_forward(model, model.execute(plan), pairs)
    loss.backward()
    grads = {n: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
             for n, t in model.params.tensors.items()}
    model.params.zero_grads()
    return float(loss.data), grads


def assert_close_to_full_plan(model, pairs):
    """Loss and every parameter gradient of the batch plan equal the
    full-universe plan's within 1e-9 `relative_error`."""
    got_loss, got = plan_loss_and_grads(model, batch_plan(model, pairs), pairs)
    want_loss, want = plan_loss_and_grads(model, full_plan(model), pairs)
    assert relative_error(got_loss, want_loss) <= 1e-9
    for name, g in want.items():
        scale = np.maximum(1.0, np.maximum(np.abs(g), np.abs(got[name])))
        assert np.all(np.abs(got[name] - g) <= 1e-9 * scale), name
    return got_loss


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_batch_plan_equals_full_plan(tiny_dataset, variant):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(tiny_dataset, cfg, VARIANTS[variant])
    trainer = Trainer(model, tiny_dataset.cat_index, tiny_dataset.labels)
    pairs, _ = build_training_pairs(trainer.labels, tiny_dataset.cat_index, cfg.negatives,
                                    (cfg.seed, 101, 0))
    for b0 in (0, 16):
        batch = pairs[b0:b0 + 16]
        assert_close_to_full_plan(model, batch)
        trainer.step(batch)


def test_levels_below_the_roots_are_whole_types(tiny_dataset):
    """Two batches with different roots and the full plan share every pool
    below the roots: each reads and writes whole node types in ids_of order."""
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(tiny_dataset, cfg, VARIANTS["full"])
    trainer = Trainer(model, tiny_dataset.cat_index, tiny_dataset.labels)
    pairs, _ = build_training_pairs(trainer.labels, tiny_dataset.cat_index, cfg.negatives,
                                    (cfg.seed, 101, 0))
    plans = [batch_plan(model, pairs[b0:b0 + 16]) for b0 in (0, 16)]
    assert not np.array_equal(plans[0].towers[AD_TOWER].all_ids, plans[1].towers[AD_TOWER].all_ids)

    def deeper(plan):
        out = []
        for tower in plan.towers.values():
            for pp in tower.path_plans:
                for t, ids in zip(pp.path.type_chain()[1:], pp.level_ids[1:]):
                    assert np.array_equal(ids, model.graph.ids_of[t])
                out += [(pool.src_rows, pool.dst_rows, pool.counts) for pool in pp.child_pools[1:]]
        return out

    want = deeper(full_plan(model))
    assert len(want) == 6  # one deeper pool per two-hop metapath of each tower
    for plan in plans:
        got = deeper(plan)
        assert len(got) == len(want)
        for got_arrays, want_arrays in zip(got, want):
            for a, b in zip(got_arrays, want_arrays):
                assert np.array_equal(a, b)


def test_batch_plan_edge_cases_and_step_roots(tiny_dataset, monkeypatch):
    """An ad with no edges in any relation and a keyword with no influential
    neighbors train like any other node; a step plans exactly its batch."""
    base = tiny_dataset
    edges = list(iter_file_records(base.paths["edges"], parse_edge_line))
    lonely_ad = next(e.src_id for e in edges if e.src_type == NodeType.AD)
    bidless_kw = next(e.dst_id for e in edges if e.relation == Relation.AD_BID_KW)
    kept = [e for e in edges
            if not (e.src_type == NodeType.AD and e.src_id == lonely_ad)
            and not (e.relation == Relation.AD_BID_KW and e.dst_id == bidless_kw)]
    records = [r for table in base.graph.nodes.values() for r in table.values()]
    g = ingest(kept, records)
    for rel in Relation:
        assert not len(neighbors(g, NodeRef(NodeType.AD, lonely_ad), rel)[0])
    assert not len(neighbors(g, NodeRef(NodeType.KEYWORD, bidless_kw), Relation.AD_BID_KW)[0])

    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    variant = VARIANTS["full"]
    params = init_params(base.manifest, cfg, variant,
                         {t: active_paths(t, "all") for t in (AD_TOWER, KW_TOWER)},
                         np.random.default_rng((11, 31)))
    layouts = FeatureEncoder(base.manifest, base.boundaries).encode_graph(g)
    model = MatchingModel(g, layouts, base.manifest, params, cfg, variant)
    trainer = Trainer(model, base.cat_index, base.labels)
    kws = [int(k) for k in g.ids_of[NodeType.KEYWORD] if k != bidless_kw]
    batch = [
        TrainingPair(lonely_ad, bidless_kw, "ad_click", tuple(kws[:5])),
        TrainingPair(lonely_ad, kws[5], "ad_bid", (bidless_kw, *kws[6:10])),
        *make_pairs(base, cfg, n=6),
    ]
    want = assert_close_to_full_plan(model, batch)

    plans = []

    def spy(*args):
        plans.append(build_plan(*args))
        return plans[-1]

    monkeypatch.setattr("hgmatch.trainer.build_plan", spy)
    assert relative_error(trainer.step(batch), want) <= 1e-9
    (plan,) = plans
    ads = sorted({p.ad for p in batch})
    kw_roots = sorted({k for p in batch for k in (p.positive_kw, *p.negatives)})
    assert plan.towers[AD_TOWER].req_ids.tolist() == ads
    assert plan.towers[KW_TOWER].req_ids.tolist() == kw_roots


def test_negatives_resampled_per_epoch(tiny_dataset):
    p0, _ = build_training_pairs(tiny_dataset.labels[:20], tiny_dataset.cat_index, 5, (11, 101, 0))
    p1, _ = build_training_pairs(tiny_dataset.labels[:20], tiny_dataset.cat_index, 5, (11, 101, 1))
    assert [p.negatives for p in p0] != [p.negatives for p in p1]


# --- gradient checking -------------------------------------------------------

def test_relative_error_definition():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(0.0, 5e-9) < 1e-8
    assert relative_error(100.0, 101.0) == pytest.approx(1 / 101)


def test_grad_check_full_model(tiny_dataset):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(tiny_dataset, cfg, VARIANTS["full"])
    pairs = make_pairs(tiny_dataset, cfg, n=12)
    report = grad_check(model, pairs, probe_count=60, eps=1e-4, seed=3)
    assert report.max_rel_error <= 1e-4


def test_grad_check_without_tapes_equals_taped_probes(tiny_dataset, monkeypatch):
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
    model = build_model(tiny_dataset, cfg, VARIANTS["full"])
    pairs = make_pairs(tiny_dataset, cfg, n=6)
    free = grad_check(model, pairs, probe_count=10, eps=1e-4, seed=3)
    monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
    taped = grad_check(model, pairs, probe_count=10, eps=1e-4, seed=3)
    assert free == taped


def test_grad_check_sage_and_dssm(tiny_dataset):
    for vname in ("sage", "dssm"):
        cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11)
        model = build_model(tiny_dataset, cfg, VARIANTS[vname])
        pairs = make_pairs(tiny_dataset, cfg, n=8)
        report = grad_check(model, pairs, probe_count=30, eps=1e-4, seed=3)
        assert report.max_rel_error <= 1e-4


def test_grad_check_linear_only_tight():
    # pure linear scoring toy: two tensors, dot-product softmax loss
    rng = np.random.default_rng(0)
    za = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    zk = Tensor(rng.normal(size=(9, 6)), requires_grad=True)

    def loss_fn():
        def rows(t, idx):
            return ad.gather(t, ad.select(idx, len(t.data)))

        pos = (rows(za, [0, 1, 2, 3]) * rows(zk, [0, 1, 2, 3])).sum(axis=1, keepdims=True)
        n1 = (rows(za, [0, 1, 2, 3]) * rows(zk, [4, 5, 6, 7])).sum(axis=1, keepdims=True)
        scores = ad.concat_cols([pos, n1])
        return (ad.logsumexp_rows(scores) - pos).sum()

    loss = loss_fn()
    loss.backward()
    eps = 1e-5
    worst = 0.0
    for t in (za, zk):
        for i in range(t.data.size):
            orig = t.data.flat[i]
            t.data.flat[i] = orig + eps
            lp = float(loss_fn().data)
            t.data.flat[i] = orig - eps
            lm = float(loss_fn().data)
            t.data.flat[i] = orig
            worst = max(worst, relative_error(float(t.grad.flat[i]), (lp - lm) / (2 * eps)))
    assert worst <= 1e-6


def test_grad_check_dead_relu_probe():
    # a unit that never activates: analytic and numeric both zero
    w = Tensor(np.array([[-5.0]]), requires_grad=True)
    x = Tensor(np.array([[1.0]]))

    def loss_fn():
        return ad.relu(x @ w).sum()

    loss = loss_fn()
    loss.backward()
    eps = 1e-4
    orig = w.data[0, 0]
    w.data[0, 0] = orig + eps
    lp = float(loss_fn().data)
    w.data[0, 0] = orig - eps
    lm = float(loss_fn().data)
    w.data[0, 0] = orig
    numeric = (lp - lm) / (2 * eps)
    assert abs(float(w.grad[0, 0])) <= 1e-12
    assert abs(numeric) <= 1e-8
