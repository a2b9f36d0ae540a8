"""Multi-view contrastive training with Adam, plus finite-difference checks.

Each training pair scores one positive keyword against sampled same-category
negatives in its view's transformed space; the loss is the summed negative
log posterior. Pairs are columns (`TrainingPairs`) that the fit loop permutes
and slices into batches. An epoch's negatives come from one generator seeded
from (seed, 101, epoch), all shuffling from the run seed, and gradient
reductions are scatter-adds done as one-hot CSR products that add in source
order (not np.add.at, whose order they keep), so a (seed, data, config)
triple fixes the loss trajectory bit for bit. Each step runs on a plan of its
batch's own roots (`batch_plan`: the distinct ads and the positive and
negative keywords, plus what `build_plan` adds for them); every metapath hop
below those roots is the model's own pooling, built once with the model.

Steps use mixed precision (Micikevicius et al., "Mixed Precision
Training", ICLR 2018): `step_loss` runs `execute`, the loss and so the
backward in float32 over a step-local cast of the float64 master
parameters, whose gradients, Adam moments and updates stay float64.
`Adam` updates the moments and each parameter in place, by the textbook
expressions in their order, so the bits are those of fresh arrays.
`grad_check` runs the same `execute` and loss in float64 on the masters,
as central differences need; its finite-difference loss evaluations run
under `autodiff.no_grad()`, so they record no tape.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ALL_VIEWS
from .errors import DataError, NumericError
from .graph import NodeType, lookup_rows
from .model import AD_TOWER, KW_TOWER, ForwardPlan, MatchingModel, build_plan
from .sampling import CategoryIndex

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class TrainingPairs:
    """Each pair's ad, positive keyword and view code (its index in ALL_VIEWS)
    and an (n_pairs, n) negatives matrix. A slice or index array selects pairs
    as columns; an int selects one pair as scalars, so iteration yields records."""
    ad: np.ndarray
    positive_kw: np.ndarray
    view: np.ndarray
    negatives: np.ndarray

    def __len__(self):
        return len(self.ad)

    def __getitem__(self, rows):
        return TrainingPairs(*(col[rows] for col in vars(self).values()))


def build_training_pairs(labels, cat_index: CategoryIndex, n_negatives: int, seed_key):
    """Labels -> (TrainingPairs, skipped count), the negatives drawn from one
    generator seeded by `seed_key`; a pair whose category cannot supply
    n_negatives is skipped (padding would bias the softmax denominator)."""
    views = np.array([ALL_VIEWS.index(l[0]) for l in labels], dtype=np.int64)
    ads, kws = (np.array([l[i] for l in labels], dtype=np.int64) for i in (1, 2))
    negatives, keep = cat_index.draw_negatives(kws, n_negatives, np.random.default_rng(seed_key))
    pairs = TrainingPairs(ads[keep], kws[keep], views[keep], negatives[keep])
    return pairs, len(labels) - len(pairs)


def loss_from_forward(model: MatchingModel, fwd, pairs: TrainingPairs) -> Tensor:
    """Summed contrastive loss of `pairs` given a forward result."""
    gamma = model.cfg.gamma
    ad_ids = fwd.towers[AD_TOWER].plan.req_ids
    kw_ids = fwd.towers[KW_TOWER].plan.req_ids
    total = None
    for view in model.variant.views:
        group = np.flatnonzero(pairs.view == ALL_VIEWS.index(view))
        if not len(group):
            continue
        a_rows = np.searchsorted(ad_ids, pairs.ad[group])
        Za = ad.gather(fwd.towers[AD_TOWER].per_view[view], ad.select(a_rows, len(ad_ids)))
        Zk = fwd.towers[KW_TOWER].per_view[view]
        # one gather per keyword column, the positives and then each negative:
        # a merged gather would re-associate the gradient sums
        kw_cols = np.searchsorted(
            kw_ids, np.column_stack([pairs.positive_kw[group], pairs.negatives[group]])).T
        cols = [(Za * ad.gather(Zk, ad.select(rows, len(kw_ids)))).sum(axis=1, keepdims=True)
                for rows in kw_cols]
        pos = cols[0]
        scores = ad.concat_cols(cols) * gamma
        contrib = (ad.logsumexp_rows(scores) - pos * gamma).sum()
        total = contrib if total is None else total + contrib
    if total is None:
        raise DataError("batch contains no pairs for the active views")
    return total


def step_loss(model: MatchingModel, plan: ForwardPlan, pairs) -> Tensor:
    """A training step's float32 loss of `pairs` on `plan`, computed over a
    float32 cast of the model's parameters; its backward() leaves float64
    gradients on the model's own tensors."""
    local = model.with_params(model.params.cast(np.float32))
    return loss_from_forward(local, local.execute(plan), pairs)


def batch_plan(model: MatchingModel, pairs: TrainingPairs) -> ForwardPlan:
    """The plan of a batch's roots: its distinct ads and its positive and
    negative keywords."""
    kw_ids = np.concatenate([pairs.positive_kw, pairs.negatives.ravel()])
    return build_plan(model.graph, pairs.ad, kw_ids, model.cfg, model.variant, model.type_pools)


class Adam:
    def __init__(self, params, lr):
        self.params, self.lr = params, lr
        self.t = 0
        self.m = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}

    def step(self):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for name in self.params.names():
            tensor = self.params[name]
            g = tensor.grad
            if g is None:
                g = np.zeros_like(tensor.data)
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient in {name}")
            # m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g and
            # data -= lr * m_hat / (sqrt(v_hat) + eps), in place, in that order
            m, v, gg = self.m[name], self.v[name], (1 - b2) * g
            np.add(np.multiply(m, b1, out=m), (1 - b1) * g, out=m)
            np.add(np.multiply(v, b2, out=v), np.multiply(gg, g, out=gg), out=v)
            den = v / (1 - b2 ** self.t)
            np.add(np.sqrt(den, out=den), eps, out=den)
            update = np.multiply(np.divide(m, 1 - b1 ** self.t, out=gg), self.lr, out=gg)
            tensor.data -= np.divide(update, den, out=update)
            if not np.all(np.isfinite(tensor.data)):
                raise NumericError(f"non-finite parameter {name} after update")


@dataclass
class FitResult:
    batch_losses: list = field(default_factory=list)   # (epoch, batch, loss)
    epoch_losses: list = field(default_factory=list)   # mean batch loss per epoch
    skipped_pairs: int = 0


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
        # an overflow ends as a non-finite loss, gradient or parameter, each
        # a NumericError here or in Adam, so numpy's warnings would repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            loss = step_loss(self.model, batch_plan(self.model, pairs), pairs)
            value = float(loss.data)
            if not np.isfinite(value):
                raise NumericError("non-finite loss value")
            self.model.params.zero_grads()
            loss.backward()
            self.optimizer.step()
        self.model.params.zero_grads()
        return value

    def fit(self) -> FitResult:
        cfg = self.model.cfg
        result = FitResult()
        for epoch in range(cfg.epochs):
            pairs, skipped = build_training_pairs(
                self.labels, self.cat_index, cfg.negatives, (cfg.seed, 101, epoch)
            )
            result.skipped_pairs += skipped
            if not pairs:
                raise DataError("training set is empty after negative sampling")
            pairs = pairs[np.random.default_rng((cfg.seed, 211, epoch)).permutation(len(pairs))]
            losses = []
            for b0 in range(0, len(pairs), cfg.batch_size):
                try:
                    value = self.step(pairs[b0:b0 + cfg.batch_size])
                except NumericError as exc:
                    raise NumericError(f"epoch {epoch}, batch {b0 // cfg.batch_size}: {exc}") from exc
                losses.append(value)
                result.batch_losses.append((epoch, b0 // cfg.batch_size, value))
            mean = float(np.mean(losses))
            result.epoch_losses.append(mean)
            logger.info("epoch %d: mean batch loss %.6f (%d batches)", epoch, mean, len(losses))
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
