"""Two-tower forward pass over the heterogeneous graph.

A forward call is split into a plan (pure graph walking: which nodes sit
at which depth of which metapath, with child linkage) and an execution
(vectorized autodiff ops over the plan's index arrays). Only a plan's
roots, level 0 of each metapath, depend on the call. Every deeper level is
the whole node type at that depth in ids_of order, since a batch's
neighborhoods reach nearly every node of each type anyway: each
intermediate embedding is computed once per node however many tree
branches reach it, and each pool reads the next level's rows straight
from the node-level table of their type. Every hop below the roots is
thus the same for every pass, and the model builds those pools once
(`type_pools`). Every row index an execution reads is an `ad.Pooling`
built before it runs: the feature layout builds each feature slot's once
per dataset, and a plan builds only what its roots decide, each
metapath's first hop, the influential neighbors and the roots'
selections (`all_rows`, `req_rows`). A plan walks graph rows, never ids,
so it is cheap enough to build for every training batch. A neighbor sum
is one sparse product per pass, with no gathered copy of the neighbor
rows. `graph.expand_rows` emits neighbors row after row, so each pooling
is bucket-major as built and needs no sort, and its `counts` are the only
record of how many children, neighbors or terms each mean divides by.

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

import copy
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig, VariantSpec
from .errors import DataError
from .features import KIND_TERMS
from .graph import HeteroGraph, Metapath, NodeType, Relation, other_endpoint
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
class PathPlan:
    path: Metapath
    child_pools: list        # depth j: Pooling of each level-j row's top-m children,
                             # read as rows of the whole type chain[j + 1]


@dataclass
class TowerPlan:
    all_ids: np.ndarray      # roots incl. influential extras, sorted
    all_rows: ad.Pooling     # selects all_ids' rows of the type's node-level table
    req_ids: np.ndarray
    req_rows: ad.Pooling     # selects req_ids' rows of all_ids
    path_plans: list
    infl_pool: ad.Pooling    # the *other* tower's all_ids rows into req_ids rows


@dataclass
class ForwardPlan:
    towers: dict             # {"ad": TowerPlan, "kw": TowerPlan}


def _hop_pool(graph, ntype, rows, rel, m) -> ad.Pooling:
    """Each of `rows`' top-m neighbors under `rel`, as rows of the whole
    neighbor type."""
    nbrs, segs, _ = graph.expand_rows(ntype, rows, rel, m)
    return ad.Pooling(nbrs, segs, len(rows), len(graph.ids_of[other_endpoint(rel, ntype)]))


def type_pools(graph: HeteroGraph, cfg: TrainConfig, variant: VariantSpec) -> dict:
    """{(node type, relation): Pooling} of each hop below the roots of the
    variant's metapaths, from every node of the type in ids_of order: the
    same for every plan, so a model builds them once."""
    if not variant.conv:
        return {}
    hops = dict.fromkeys(hop for tower in TOWER_TYPE for tp in active_paths(tower, variant.groups)
                         for hop in list(zip(tp.path.type_chain(), tp.path.steps))[1:])
    return {(t, rel): _hop_pool(graph, t, np.arange(len(graph.ids_of[t])), rel, cfg.m)
            for t, rel in hops}


def build_plan(graph: HeteroGraph, ad_ids, kw_ids, cfg: TrainConfig, variant: VariantSpec,
               below: dict) -> ForwardPlan:
    """Plan a forward pass for the given roots; DataError for an id not in the graph.

    The walk runs on graph rows. It builds each metapath's first hop from
    the roots and takes every deeper hop from `below`, the model's
    `type_pools`, as it is.
    """
    other = {AD_TOWER: KW_TOWER, KW_TOWER: AD_TOWER}
    # a flag per row of the node type marks distinct (and then united) rows in row order
    marked = {t: np.zeros(len(graph.ids_of[nt]), dtype=bool) for t, nt in TOWER_TYPE.items()}
    for t, ids in ((AD_TOWER, ad_ids), (KW_TOWER, kw_ids)):
        marked[t][graph.rows(TOWER_TYPE[t], ids)] = True
    req_rows = {t: np.flatnonzero(mask) for t, mask in marked.items()}
    req_ids = {t: graph.ids_of[TOWER_TYPE[t]][rows] for t, rows in req_rows.items()}
    # influential neighbors: (rows, row in req_ids, count per req row); none without Siamese
    kappa = cfg.kappa if variant.siamese else 0
    infl = {
        t: graph.expand_rows(TOWER_TYPE[t], rows, Relation.AD_BID_KW, kappa)
        for t, rows in req_rows.items()
    }
    for t, mask in marked.items():
        mask[infl[other[t]][0]] = True
    all_rows = {t: np.flatnonzero(mask) for t, mask in marked.items()}

    towers = {}
    for tower, rows in all_rows.items():
        plans = []
        if variant.conv and len(rows):
            for tp in active_paths(tower, variant.groups):
                (ntype, rel), *deeper = zip(tp.path.type_chain(), tp.path.steps)
                first = _hop_pool(graph, ntype, rows, rel, cfg.m)
                plans.append(PathPlan(tp.path, [first, *(below[hop] for hop in deeper)]))
        nbrs, segs, _ = infl[tower]
        ids = graph.ids_of[TOWER_TYPE[tower]]
        towers[tower] = TowerPlan(
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
    return ForwardPlan(towers)


# --- execution --------------------------------------------------------------

@dataclass
class TowerForward:
    plan: TowerPlan
    h0: Tensor                  # node-level embeddings for all_ids
    per_path: dict              # {path name: Tensor (n_all, d)}
    att_weights: np.ndarray     # (n_all, P) or None
    h_tilde: Tensor             # (n_all, d)
    z: Tensor                   # (n_req, d)
    per_view: dict              # {view: Tensor (n_req, d)}


@dataclass
class ForwardResult:
    towers: dict             # {"ad": TowerForward, "kw": TowerForward}


class MatchingModel:
    """Binds graph, encoded features and parameters; runs forward passes."""

    def __init__(self, graph, layouts, manifest, params, cfg: TrainConfig, variant: VariantSpec):
        self.graph = graph
        self.layouts = layouts
        self.params = params
        self.cfg = cfg
        self.variant = variant
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
        self.type_pools = type_pools(graph, cfg, variant)

    def with_params(self, params) -> "MatchingModel":
        """This model over other tensors of the same names and shapes (a
        training step's cast copy); this model is left as it is."""
        model = copy.copy(self)
        model.params = params
        return model

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
                plan=tp, h0=h0, per_path={}, att_weights=None, h_tilde=h0, z=None, per_view={},
            )
            if self.variant.conv and tp.path_plans:
                for pp in tp.path_plans:
                    fwd.per_path[pp.path.name] = self._execute_path(pp, h0, h0_by_type)
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
        return ForwardResult(towers)

    def forward(self, ad_ids, kw_ids) -> ForwardResult:
        plan = build_plan(self.graph, ad_ids, kw_ids, self.cfg, self.variant, self.type_pools)
        return self.execute(plan)
