"""Two-tower forward pass over the heterogeneous graph.

A forward call is split into a plan (pure graph walking: which nodes sit
at which depth of which metapath, with child linkage) and an execution
(vectorized autodiff ops over the plan's index arrays). Only a plan's
roots, level 0 of each metapath, depend on the call. Every deeper level is
the whole node type at that depth in ids_of order, since a batch's
neighborhoods reach nearly every node of each type anyway: each
intermediate embedding is computed once per node however many tree
branches reach it, and each pool reads the next level's rows straight
from the node-level table of their type. A plan walks graph rows, never
ids, so it is cheap enough to build for every training batch from that
batch's own roots. Every row index an execution reads is an `ad.Pooling`
built before it runs: the plan builds the neighbor sums (a metapath hop's
children, the influential neighbors) and the roots' selections
(`all_rows`, `req_rows`); the feature layout, once per dataset, builds
each feature slot's. A neighbor sum is one sparse product per pass, with
no gathered copy of the neighbor rows. `graph.expand_rows` emits
neighbors row after row, so each pooling is bucket-major as built and
needs no sort, and its `counts` are the only record of how many children,
neighbors or terms each mean divides by.

Per metapath of length K, a node at depth j carries hidden states for
layers 0..K-j: layer k of node u combines u's own layer k-1 state with
the pooled layer k-1 states of u's top-m children, through either the
bottleneck combiner (compress the pooled neighborhood d -> l -> d) or a
concat-projection combiner (mean pooling), per config. Path outputs are
fused by softmax attention, the influential neighbors' fused embeddings
are averaged in (the Siamese layer) and each view has its own MLP head.

This module holds only the batched executor. The same layers written
node by node, which the tests use as the reference for every output of
`execute`, live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig, VariantSpec
from .errors import DataError
from .features import KIND_TERMS
from .graph import HeteroGraph, Metapath, NodeType, Relation
from .params import param_shapes

AD_TOWER = "ad"
KW_TOWER = "kw"
TOWER_TYPE = {AD_TOWER: NodeType.AD, KW_TOWER: NodeType.KEYWORD}


@dataclass(frozen=True)
class TowerPath:
    path: Metapath
    group: str  # bid | item


def tower_paths(tower: str) -> list:
    """The metapath inventory per tower (two hops each)."""
    A, Q = NodeType.AD, NodeType.KEYWORD
    click, bid = Relation.AD_CLICK_KW, Relation.AD_BID_KW
    iclick, coclick = Relation.ITEM_CLICK_KW, Relation.AD_COCLICK_ITEM
    if tower == AD_TOWER:
        return [
            TowerPath(Metapath("ad-click-kw-click-ad", A, (click, click)), "bid"),
            TowerPath(Metapath("ad-bid-kw-click-ad", A, (bid, click)), "bid"),
            TowerPath(Metapath("ad-coclick-item-click-kw", A, (coclick, iclick)), "item"),
        ]
    if tower == KW_TOWER:
        return [
            TowerPath(Metapath("kw-click-ad-click-kw", Q, (click, click)), "bid"),
            TowerPath(Metapath("kw-click-ad-bid-kw", Q, (click, bid)), "bid"),
            TowerPath(Metapath("kw-click-item-coclick-ad", Q, (iclick, coclick)), "item"),
        ]
    raise ValueError(f"unknown tower {tower!r}")


def active_paths(tower: str, groups: str) -> list:
    paths = tower_paths(tower)
    if groups == "all":
        return paths
    return [tp for tp in paths if tp.group == groups]


# --- forward plan ----------------------------------------------------------

@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0


@dataclass
class PathPlan:
    path: Metapath
    level_ids: list          # depth 0: the roots' ids; depth j >= 1: ids_of[chain[j]]
    child_pools: list        # depth j: Pooling of each level-j row's top-m children,
                             # read as rows of the whole type chain[j + 1]


@dataclass
class TowerPlan:
    tower: str
    all_ids: np.ndarray      # roots incl. influential extras, sorted
    all_rows: ad.Pooling     # selects all_ids' rows of the type's node-level table
    req_ids: np.ndarray
    req_rows: ad.Pooling     # selects req_ids' rows of all_ids
    path_plans: list
    infl_pool: ad.Pooling    # the *other* tower's all_ids rows into req_ids rows


@dataclass
class ForwardPlan:
    towers: dict             # {"ad": TowerPlan, "kw": TowerPlan}
    cache: CacheStats


def _build_path_plan(graph, roots, path, m, stats: CacheStats) -> PathPlan:
    """Level 0 is `roots` (rows of the graph's ids_of); every deeper level is
    the whole node type, so each pool reads the next type's rows as they are.

    Per pool, the first entry that reads a source row is a miss and every
    later entry reading it is a hit; the roots are misses."""
    chain = path.type_chain()
    stats.misses += len(roots)
    rows, pools = roots, []
    for depth, rel in enumerate(path.steps):
        n_in = len(graph.ids_of[chain[depth + 1]])
        nbrs, segs, _ = graph.expand_rows(chain[depth], rows, rel, m)
        distinct = np.count_nonzero(np.bincount(nbrs, minlength=n_in))
        stats.misses += distinct
        stats.hits += len(nbrs) - distinct
        pools.append(ad.Pooling(nbrs, segs, len(rows), n_in))
        rows = np.arange(n_in)
    level_ids = [graph.ids_of[chain[0]][roots], *(graph.ids_of[t] for t in chain[1:])]
    return PathPlan(path, level_ids, pools)


def build_plan(
    graph: HeteroGraph,
    ad_ids,
    kw_ids,
    cfg: TrainConfig,
    variant: VariantSpec,
) -> ForwardPlan:
    """Plan a forward pass for the given roots; DataError for an id not in the graph.

    The walk runs on graph rows. Its first hop follows the roots; every
    deeper hop expands a whole node type.
    """
    stats = CacheStats()
    other = {AD_TOWER: KW_TOWER, KW_TOWER: AD_TOWER}
    req_ids = {
        AD_TOWER: np.unique(np.asarray(ad_ids, dtype=np.int64)),
        KW_TOWER: np.unique(np.asarray(kw_ids, dtype=np.int64)),
    }
    req_rows = {t: graph.rows(TOWER_TYPE[t], ids) for t, ids in req_ids.items()}
    # influential neighbors: (rows, row in req_ids, count per req row); none without Siamese
    kappa = cfg.kappa if variant.siamese else 0
    infl = {
        t: graph.expand_rows(TOWER_TYPE[t], rows, Relation.AD_BID_KW, kappa)
        for t, rows in req_rows.items()
    }
    all_rows = {t: np.union1d(req_rows[t], infl[other[t]][0]) for t in req_rows}

    towers = {}
    for tower, rows in all_rows.items():
        plans = []
        if variant.conv and len(rows):
            for tp in active_paths(tower, variant.groups):
                plans.append(_build_path_plan(graph, rows, tp.path, cfg.m, stats))
        nbrs, segs, _ = infl[tower]
        ids = graph.ids_of[TOWER_TYPE[tower]]
        towers[tower] = TowerPlan(
            tower=tower,
            all_ids=ids[rows],
            all_rows=ad.select(rows, len(ids)),
            req_ids=req_ids[tower],
            req_rows=ad.select(np.searchsorted(rows, req_rows[tower]), len(rows)),
            path_plans=plans,
            infl_pool=ad.Pooling(
                np.searchsorted(all_rows[other[tower]], nbrs), segs,
                len(req_ids[tower]), len(all_rows[other[tower]]),
            ),
        )
    return ForwardPlan(towers, stats)


# --- execution --------------------------------------------------------------

@dataclass
class TowerForward:
    plan: TowerPlan
    h0: Tensor                  # node-level embeddings for all_ids
    per_path: dict              # {path name: Tensor (n_all, d)}
    att_weights: np.ndarray     # (n_all, P) or None
    path_names: list
    h_tilde: Tensor             # (n_all, d)
    z: Tensor                   # (n_req, d)
    per_view: dict              # {view: Tensor (n_req, d)}


@dataclass
class ForwardResult:
    towers: dict             # {"ad": TowerForward, "kw": TowerForward}
    cache: CacheStats


class MatchingModel:
    """Binds graph, encoded features and parameters; runs forward passes."""

    def __init__(self, graph, layouts, manifest, params, cfg: TrainConfig, variant: VariantSpec):
        self.graph = graph
        self.layouts = layouts
        self.manifest = manifest
        self.params = params
        self.cfg = cfg
        self.variant = variant
        if params.meta.get("d") != cfg.d or params.meta.get("l") != cfg.l:
            raise DataError(
                f"checkpoint dimensions d={params.meta.get('d')}, l={params.meta.get('l')} "
                f"do not match config d={cfg.d}, l={cfg.l}"
            )
        paths = {tower: active_paths(tower, variant.groups) for tower in TOWER_TYPE}
        self.types = set(TOWER_TYPE.values())  # the node types a forward embeds
        if variant.conv:
            self.types.update(t for tps in paths.values() for tp in tps for t in tp.path.type_chain())
        # the layouts' poolings and every layer are built for exactly these shapes
        for key, want in param_shapes(manifest, cfg, variant, paths).items():
            shape = params[key].shape if key in params else None
            if shape != want:
                raise DataError(f"checkpoint {key} has shape {shape}; the feature manifest, "
                                f"config and variant need {want}")

    # node-level fusion, vectorized over every node of a type
    def node_level_all(self, ntype: NodeType) -> Tensor:
        layout = self.layouts[ntype]
        p = self.params
        slots = []
        for spec in layout.specs:
            table = p[f"table/{spec.name}"]
            if spec.kind == KIND_TERMS:
                op = layout.terms[spec.name]
                slots.append(ad.pool(table, op) * (1.0 / np.maximum(op.counts, 1.0))[:, None])
            else:
                slots.append(ad.gather(table, layout.single[spec.name]))
        x = ad.concat_cols(slots)
        t = ntype.value
        hidden = ad.affine(x, p[f"fusion/{t}/W1"], p[f"fusion/{t}/b1"], relu=True)
        return ad.affine(hidden, p[f"fusion/{t}/W2"], p[f"fusion/{t}/b2"])

    def _conv_step(self, path_name, k, h_self, neigh_sum, counts):
        p = self.params
        base = f"conv/{path_name}/k{k}"
        if self.variant.aggregator == "sage":
            inv = 1.0 / np.maximum(counts, 1.0)
            mean = neigh_sum * inv[:, None]
            x = ad.concat_cols([h_self, mean])
            return ad.affine(x, p[f"{base}/Ws"], p[f"{base}/b"], relu=True)
        pooled = ad.affine(neigh_sum, p[f"{base}/V"], relu=True) @ p[f"{base}/U"]
        return ad.affine(h_self, p[f"{base}/W"], p[f"{base}/b"], relu=True, extra=pooled)

    def _execute_path(self, plan: PathPlan, h0_roots: Tensor, h0_by_type: dict) -> Tensor:
        """One metapath's output for the plan's roots, whose h0 rows are `h0_roots`."""
        K = len(plan.path.steps)
        states = [h0_roots, *(h0_by_type[t] for t in plan.path.type_chain()[1:])]
        for k in range(1, K + 1):
            states = [
                self._conv_step(plan.path.name, k, states[j],
                                ad.pool(states[j + 1], plan.child_pools[j]),
                                plan.child_pools[j].counts)
                for j in range(K - k + 1)
            ]
        return states[0]

    def _fuse(self, tower, path_outputs):
        p = self.params
        att = p[f"att/{tower}"]
        logits = ad.concat_cols([h @ att for h in path_outputs])
        w = ad.softmax_rows(logits)
        fused = None
        for i, h in enumerate(path_outputs):
            contrib = ad.slice_cols(w, i, i + 1) * h
            fused = contrib if fused is None else fused + contrib
        return fused, w

    def _view_head(self, tower, view, z: Tensor) -> Tensor:
        p = self.params
        base = f"view/{tower}/{view}"
        hidden = ad.affine(z, p[f"{base}/W1"], p[f"{base}/b1"], relu=True)
        return ad.affine(hidden, p[f"{base}/W2"], p[f"{base}/b2"])

    def execute(self, plan: ForwardPlan) -> ForwardResult:
        h0_by_type = {t: self.node_level_all(t) for t in sorted(self.types, key=lambda t: t.value)}

        towers = {}
        for tower, tp in plan.towers.items():
            h0 = ad.gather(h0_by_type[TOWER_TYPE[tower]], tp.all_rows)
            fwd = towers[tower] = TowerForward(
                plan=tp, h0=h0, per_path={}, att_weights=None, path_names=[],
                h_tilde=h0, z=None, per_view={},
            )
            if self.variant.conv and tp.path_plans:
                for pp in tp.path_plans:
                    fwd.per_path[pp.path.name] = self._execute_path(pp, h0, h0_by_type)
                fwd.path_names = list(fwd.per_path)
                fwd.h_tilde, w = self._fuse(tower, list(fwd.per_path.values()))
                fwd.att_weights = w.data

        for tower, fwd in towers.items():
            tp = fwd.plan
            z = ad.gather(fwd.h_tilde, tp.req_rows)
            if self.variant.siamese:
                other = towers[KW_TOWER if tower == AD_TOWER else AD_TOWER]
                s = ad.pool(other.h_tilde, tp.infl_pool)
                z = z + s * (1.0 / np.maximum(tp.infl_pool.counts, 1.0))[:, None]
            fwd.z = z
            fwd.per_view = {v: self._view_head(tower, v, z) for v in self.variant.views}
        return ForwardResult(towers, plan.cache)

    def forward(self, ad_ids, kw_ids) -> ForwardResult:
        plan = build_plan(self.graph, ad_ids, kw_ids, self.cfg, self.variant)
        return self.execute(plan)
