"""Multi-view contrastive training with Adam, plus finite-difference checks.

Each training pair scores one positive keyword against sampled same-category
negatives in its view's transformed space; the loss is the summed negative
log posterior. Negatives are resampled every epoch from an epoch-indexed
seed, all shuffling comes from the run seed, and gradient reductions are
scatter-adds done as one-hot CSR products that add in source order (not
np.add.at, whose order they keep), so a (seed, data, config) triple fixes
the loss trajectory bit for bit. Each step runs on a plan built from its
batch's own roots (`batch_plan`: the distinct ads and the positive and
negative keywords, plus what `build_plan` adds for them); the metapath
levels below those roots are whole node types. `grad_check` evaluates its
loss on the same plan; its finite-difference loss evaluations run under
`autodiff.no_grad()`, so they record no tape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, NumericError
from .graph import NodeType, lookup_rows
from .model import AD_TOWER, KW_TOWER, ForwardPlan, MatchingModel, build_plan
from .sampling import CategoryIndex, CategoryTooSmall


@dataclass(frozen=True)
class TrainingPair:
    ad: int
    positive_kw: int
    view: str
    negatives: tuple


def build_training_pairs(labels, cat_index: CategoryIndex, n_negatives: int, seed_key):
    """Labels -> TrainingPairs with per-pair negative draws; undersized
    categories are skipped (padding would bias the softmax denominator)."""
    pairs, skipped = [], 0
    for idx, (view, ad_id, kw_id) in enumerate(labels):
        try:
            negs = cat_index.sample_negatives(kw_id, n_negatives, (*seed_key, idx))
        except CategoryTooSmall:
            skipped += 1
            continue
        pairs.append(TrainingPair(ad_id, kw_id, view, tuple(negs)))
    return pairs, skipped


def loss_from_forward(model: MatchingModel, fwd, pairs) -> Tensor:
    """Summed contrastive loss of `pairs` given a forward result."""
    gamma = model.cfg.gamma
    ad_ids = fwd.towers[AD_TOWER].plan.req_ids
    kw_ids = fwd.towers[KW_TOWER].plan.req_ids
    total = None
    for view in model.variant.views:
        group = [p for p in pairs if p.view == view]
        if not group:
            continue
        a_rows = np.searchsorted(ad_ids, [p.ad for p in group])
        Za = ad.gather(fwd.towers[AD_TOWER].per_view[view], ad.select(a_rows, len(ad_ids)))
        Zk = fwd.towers[KW_TOWER].per_view[view]
        # one gather per keyword column, the positives and then each negative:
        # a merged gather would re-associate the gradient sums
        kw_cols = np.searchsorted(kw_ids, [(p.positive_kw, *p.negatives) for p in group]).T
        cols = [(Za * ad.gather(Zk, ad.select(rows, len(kw_ids)))).sum(axis=1, keepdims=True)
                for rows in kw_cols]
        pos = cols[0]
        scores = ad.concat_cols(cols) * gamma
        contrib = (ad.logsumexp_rows(scores) - pos * gamma).sum()
        total = contrib if total is None else total + contrib
    if total is None:
        raise DataError("batch contains no pairs for the active views")
    return total


def batch_plan(model: MatchingModel, pairs) -> ForwardPlan:
    """The plan of a batch's roots: its distinct ads and its positive and
    negative keywords."""
    kw_ids = [kw for p in pairs for kw in (p.positive_kw, *p.negatives)]
    return build_plan(model.graph, [p.ad for p in pairs], kw_ids, model.cfg, model.variant)


class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name in self.params.names():
            tensor = self.params[name]
            g = tensor.grad
            if g is None:
                g = np.zeros_like(tensor.data)
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient in {name}")
            m = self.m[name] = b1 * self.m[name] + (1 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            tensor.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if not np.all(np.isfinite(tensor.data)):
                raise NumericError(f"non-finite parameter {name} after update")


@dataclass
class FitResult:
    batch_losses: list = field(default_factory=list)   # (epoch, batch, loss)
    epoch_losses: list = field(default_factory=list)   # mean batch loss per epoch
    skipped_pairs: int = 0
    seconds: float = 0.0


class Trainer:
    def __init__(self, model: MatchingModel, cat_index: CategoryIndex, labels):
        self.model = model
        self.cat_index = cat_index
        self.labels = [l for l in labels if l[0] in model.variant.views]
        if not self.labels:
            raise DataError("no training labels for the active views")
        ids_of = model.graph.ids_of
        lookup_rows(ids_of[NodeType.AD], [l[1] for l in self.labels], "label references unknown ad")
        lookup_rows(ids_of[NodeType.KEYWORD], [l[2] for l in self.labels],
                    "label references unknown keyword")
        self.optimizer = Adam(model.params, model.cfg.learning_rate)

    def step(self, pairs) -> float:
        fwd = self.model.execute(batch_plan(self.model, pairs))
        loss = loss_from_forward(self.model, fwd, pairs)
        value = float(loss.data)
        if not np.isfinite(value):
            raise NumericError("non-finite loss value")
        self.model.params.zero_grads()
        loss.backward()
        self.optimizer.step()
        self.model.params.zero_grads()
        return value

    def fit(self, log=None) -> FitResult:
        cfg = self.model.cfg
        result = FitResult()
        start = time.time()
        for epoch in range(cfg.epochs):
            pairs, skipped = build_training_pairs(
                self.labels, self.cat_index, cfg.negatives, (cfg.seed, 101, epoch)
            )
            result.skipped_pairs += skipped
            if not pairs:
                raise DataError("training set is empty after negative sampling")
            rng = np.random.default_rng((cfg.seed, 211, epoch))
            order = rng.permutation(len(pairs))
            losses = []
            for b0 in range(0, len(order), cfg.batch_size):
                batch = [pairs[i] for i in order[b0:b0 + cfg.batch_size]]
                value = self.step(batch)
                losses.append(value)
                result.batch_losses.append((epoch, b0 // cfg.batch_size, value))
            mean = float(np.mean(losses))
            result.epoch_losses.append(mean)
            if log:
                log(f"epoch {epoch}: mean batch loss {mean:.6f} ({len(losses)} batches)")
        result.seconds = time.time() - start
        return result


# --- gradient verification --------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_error: float
    probes: list  # (tensor name, flat index, analytic, numeric, rel error)


def relative_error(a: float, n: float) -> float:
    diff = abs(a - n)
    return diff / max(1.0, abs(a), abs(n))


def grad_check(model: MatchingModel, pairs, probe_count=200, eps=1e-4, seed=0) -> GradCheckReport:
    """Central finite differences vs backward() on randomly probed scalars."""
    plan = batch_plan(model, pairs)

    def loss_value() -> float:
        with ad.no_grad():
            fwd = model.execute(plan)
            return float(loss_from_forward(model, fwd, pairs).data)

    model.params.zero_grads()
    fwd = model.execute(plan)
    loss = loss_from_forward(model, fwd, pairs)
    loss.backward()
    grads = {
        n: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for n, t in model.params.tensors.items()
    }
    model.params.zero_grads()

    names = model.params.names()
    sizes = np.array([model.params[n].data.size for n in names])
    cum = np.cumsum(sizes)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, cum[-1], size=probe_count)

    probes = []
    for flat in picks:
        ti = int(np.searchsorted(cum, flat, side="right"))
        name = names[ti]
        offset = int(flat - (cum[ti] - sizes[ti]))
        data = model.params[name].data
        orig = data.flat[offset]
        data.flat[offset] = orig + eps
        lp = loss_value()
        data.flat[offset] = orig - eps
        lm = loss_value()
        data.flat[offset] = orig
        numeric = (lp - lm) / (2 * eps)
        analytic = float(grads[name].flat[offset])
        err = relative_error(analytic, numeric)
        probes.append((name, offset, analytic, numeric, err))
    # np.max, unlike max(), keeps a NaN error
    return GradCheckReport(float(np.max([p[4] for p in probes], initial=0.0)), probes)
