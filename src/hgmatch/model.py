"""Two-tower forward pass over the heterogeneous graph.

A forward call is split into a plan (pure graph walking: which nodes sit
at which depth of which metapath, with child linkage) and an execution
(vectorized autodiff ops over the plan's index arrays). The plan builder
keeps a per-call cache keyed by (metapath, depth, node), so every distinct
intermediate embedding is computed exactly once no matter how many tree
branches reach it; plans depend only on the frozen graph and can be
reused across training steps.

Per metapath of length K, a node at depth j carries hidden states for
layers 0..K-j: layer k of node u combines u's own layer k-1 state with
the pooled layer k-1 states of u's top-m children, through either the
bottleneck combiner (compress the pooled neighborhood d -> l -> d) or a
concat-projection combiner (mean pooling), per config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig, VariantSpec
from .features import KIND_TERMS
from .graph import HeteroGraph, Metapath, NodeRef, NodeType, Relation

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


# --- spec-level single-node ops (plain numpy; also the unit-test surface) ---

def conv_layer(h_self, neighbor_vecs, W, b, V, U):
    """sigma(W.h + b + U.sigma(V.n)) with n = sum of neighbors (0 if none)."""
    h_self = np.asarray(h_self, dtype=np.float64)
    n = np.zeros_like(h_self)
    for v in neighbor_vecs:
        n = n + np.asarray(v, dtype=np.float64)
    out = h_self @ W + b + np.maximum(n @ V, 0.0) @ U
    return np.maximum(out, 0.0)


def sage_layer(h_self, neighbor_vecs, Ws, b):
    """sigma(concat(h, mean-of-neighbors) @ Ws + b)."""
    h_self = np.asarray(h_self, dtype=np.float64)
    if neighbor_vecs:
        mean = np.mean([np.asarray(v, dtype=np.float64) for v in neighbor_vecs], axis=0)
    else:
        mean = np.zeros_like(h_self)
    return np.maximum(np.concatenate([h_self, mean]) @ Ws + b, 0.0)


def semantic_fuse(per_path, att_vec, scale: bool = False):
    """Softmax-weighted sum of per-metapath embeddings; returns (fused, weights)."""
    if not per_path:
        raise ValueError("semantic_fuse needs at least one metapath embedding")
    names = [n for n, _ in per_path]
    H = np.stack([np.asarray(h, dtype=np.float64) for _, h in per_path])
    logits = H @ np.asarray(att_vec, dtype=np.float64).reshape(-1)
    if scale:
        logits = logits / np.sqrt(H.shape[1])
    e = np.exp(logits - logits.max())
    w = e / e.sum()
    return (w[:, None] * H).sum(axis=0), dict(zip(names, w))


def siamese_embed(h_tilde, neighbor_fused):
    """z = h + mean of influential neighbors' fused embeddings (h alone if none)."""
    h_tilde = np.asarray(h_tilde, dtype=np.float64)
    if not neighbor_fused:
        return h_tilde.copy()
    return h_tilde + np.mean([np.asarray(v) for v in neighbor_fused], axis=0)


def view_transform(z, W1, b1, W2, b2):
    return np.maximum(np.asarray(z, dtype=np.float64) @ W1 + b1, 0.0) @ W2 + b2


# --- forward plan ----------------------------------------------------------

@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0


@dataclass
class PathPlan:
    path: Metapath
    level_ids: list          # np arrays of node ids, depth 0..K
    level_rows: list         # depth j: rows of level_ids[j] in the graph's ids_of
    child_flat: list         # depth j: rows into level j+1
    child_segs: list         # depth j: row in level j per child
    child_counts: list       # depth j: children per row (float)


@dataclass
class TowerPlan:
    tower: str
    all_ids: np.ndarray      # roots incl. influential extras, sorted
    all_rows: np.ndarray     # rows of all_ids in the graph's ids_of
    req_ids: np.ndarray
    req_rows: np.ndarray     # rows of req_ids within all_ids
    path_plans: list
    infl_flat: np.ndarray    # rows into the *other* tower's all_ids
    infl_segs: np.ndarray
    infl_counts: np.ndarray


@dataclass
class ForwardPlan:
    towers: dict             # {"ad": TowerPlan, "kw": TowerPlan}
    cache: CacheStats


def _build_path_plan(graph, roots, path, m, stats: CacheStats) -> PathPlan:
    """Each level holds its distinct nodes in first-seen order."""
    chain = path.type_chain()
    level_ids = [roots]
    child_flat, child_segs, child_counts = [], [], []
    stats.misses += len(roots)
    for depth, rel in enumerate(path.steps):
        nbrs, segs, counts = graph.expand(chain[depth], level_ids[depth], rel, m)
        uniq, first, inverse = np.unique(nbrs, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        stats.misses += len(uniq)
        stats.hits += len(nbrs) - len(uniq)
        level_ids.append(uniq[order])
        child_flat.append(rank[inverse])
        child_segs.append(segs)
        child_counts.append(counts.astype(np.float64))
    level_rows = [graph.rows(t, ids) for t, ids in zip(chain, level_ids)]
    return PathPlan(path, level_ids, level_rows, child_flat, child_segs, child_counts)


def build_plan(
    graph: HeteroGraph,
    ad_ids,
    kw_ids,
    cfg: TrainConfig,
    variant: VariantSpec,
) -> ForwardPlan:
    """Plan a forward pass for the given roots; DataError for an id not in the graph."""
    stats = CacheStats()
    other = {AD_TOWER: KW_TOWER, KW_TOWER: AD_TOWER}
    req_ids = {
        AD_TOWER: np.unique(np.asarray(ad_ids, dtype=np.int64)),
        KW_TOWER: np.unique(np.asarray(kw_ids, dtype=np.int64)),
    }
    # influential neighbors: (ids, row in req_ids, count per req row); none without Siamese
    kappa = cfg.kappa if variant.siamese else 0
    infl = {
        t: graph.expand(TOWER_TYPE[t], req, Relation.AD_BID_KW, kappa)
        for t, req in req_ids.items()
    }
    all_ids = {t: np.union1d(req_ids[t], infl[other[t]][0]) for t in req_ids}

    towers = {}
    for tower, ids in all_ids.items():
        plans = []
        if variant.conv and len(ids):
            for tp in active_paths(tower, variant.groups):
                plans.append(_build_path_plan(graph, ids, tp.path, cfg.m, stats))
        nbrs, segs, counts = infl[tower]
        towers[tower] = TowerPlan(
            tower=tower,
            all_ids=ids,
            all_rows=graph.rows(TOWER_TYPE[tower], ids),
            req_ids=req_ids[tower],
            req_rows=np.searchsorted(ids, req_ids[tower]),
            path_plans=plans,
            infl_flat=np.searchsorted(all_ids[other[tower]], nbrs),
            infl_segs=segs,
            infl_counts=counts.astype(np.float64),
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
class TowerEmbedding:
    """All intermediate embeddings of one node, as plain arrays."""

    ref: NodeRef
    h: np.ndarray
    per_path: dict
    att_weights: dict
    h_tilde: np.ndarray
    z: np.ndarray
    per_view: dict


class ForwardResult:
    def __init__(self, towers: dict, cache: CacheStats):
        self.towers = towers
        self.cache = cache

    def node(self, ref: NodeRef) -> TowerEmbedding:
        tower = AD_TOWER if ref.node_type == NodeType.AD else KW_TOWER
        fwd = self.towers[tower]
        row = int(np.searchsorted(fwd.plan.req_ids, ref.node_id))
        if row == len(fwd.plan.req_ids) or fwd.plan.req_ids[row] != ref.node_id:
            raise KeyError(f"{ref} is not a root of this forward pass")
        all_row = int(fwd.plan.req_rows[row])
        att = {}
        if fwd.att_weights is not None:
            att = dict(zip(fwd.path_names, fwd.att_weights[all_row]))
        return TowerEmbedding(
            ref=ref,
            h=fwd.h0.data[all_row].copy(),
            per_path={n: t.data[all_row].copy() for n, t in fwd.per_path.items()},
            att_weights=att,
            h_tilde=fwd.h_tilde.data[all_row].copy(),
            z=fwd.z.data[row].copy(),
            per_view={v: t.data[row].copy() for v, t in fwd.per_view.items()},
        )

    def nodes(self):
        out = {}
        for tower, fwd in self.towers.items():
            ntype = TOWER_TYPE[tower]
            for i in fwd.plan.req_ids:
                ref = NodeRef(ntype, int(i))
                out[ref] = self.node(ref)
        return out


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
            from .errors import DataError

            raise DataError(
                f"checkpoint dimensions d={params.meta.get('d')}, l={params.meta.get('l')} "
                f"do not match config d={cfg.d}, l={cfg.l}"
            )

    # node-level fusion, vectorized over every node of a type
    def node_level_all(self, ntype: NodeType) -> Tensor:
        layout = self.layouts[ntype]
        p = self.params
        slots = []
        for spec in layout.specs:
            table = p[f"table/{spec.name}"]
            if spec.kind == KIND_TERMS:
                slot = layout.terms[spec.name]
                if len(slot.flat):
                    g = ad.gather(table, slot.flat)
                    s = ad.segment_sum(g, slot.rows, len(slot.counts))
                else:
                    s = Tensor(np.zeros((len(slot.counts), spec.width)))
                inv = 1.0 / np.maximum(slot.counts, 1.0)
                slots.append(s * inv[:, None])
            else:
                slots.append(ad.gather(table, layout.single[spec.name]))
        x = ad.concat_cols(slots)
        t = ntype.value
        hidden = ad.relu(x @ p[f"fusion/{t}/W1"] + p[f"fusion/{t}/b1"])
        return hidden @ p[f"fusion/{t}/W2"] + p[f"fusion/{t}/b2"]

    def _conv_step(self, path_name, k, h_self, neigh_sum, counts):
        p = self.params
        base = f"conv/{path_name}/k{k}"
        if self.variant.aggregator == "sage":
            inv = 1.0 / np.maximum(counts, 1.0)
            mean = neigh_sum * inv[:, None]
            x = ad.concat_cols([h_self, mean])
            return ad.relu(x @ p[f"{base}/Ws"] + p[f"{base}/b"])
        pooled = ad.relu(neigh_sum @ p[f"{base}/V"]) @ p[f"{base}/U"]
        return ad.relu(h_self @ p[f"{base}/W"] + p[f"{base}/b"] + pooled)

    def _execute_path(self, plan: PathPlan, h0_by_type: dict) -> Tensor:
        chain = plan.path.type_chain()
        K = len(plan.path.steps)
        states = []
        for j in range(K + 1):
            if len(plan.level_rows[j]):
                states.append(ad.gather(h0_by_type[chain[j]], plan.level_rows[j]))
            else:
                states.append(Tensor(np.zeros((0, self.cfg.d))))
        for k in range(1, K + 1):
            nxt = []
            for j in range(0, K - k + 1):
                n_rows = len(plan.level_ids[j])
                if len(plan.child_flat[j]):
                    gathered = ad.gather(states[j + 1], plan.child_flat[j])
                    neigh = ad.segment_sum(gathered, plan.child_segs[j], n_rows)
                else:
                    neigh = Tensor(np.zeros((n_rows, self.cfg.d)))
                nxt.append(
                    self._conv_step(
                        plan.path.name, k, states[j], neigh, plan.child_counts[j]
                    )
                )
            states = nxt
        return states[0]

    def _fuse(self, tower, path_outputs, path_names):
        p = self.params
        att = p[f"att/{tower}"]
        scale = 1.0 / np.sqrt(self.cfg.d) if self.cfg.attention_scale else 1.0
        logits = ad.concat_cols([(h @ att) * scale for h in path_outputs])
        w = ad.softmax_rows(logits)
        fused = None
        for i, h in enumerate(path_outputs):
            contrib = ad.slice_cols(w, i, i + 1) * h
            fused = contrib if fused is None else fused + contrib
        return fused, w

    def _view_head(self, tower, view, z: Tensor) -> Tensor:
        p = self.params
        base = f"view/{tower}/{view}"
        out = ad.relu(z @ p[f"{base}/W1"] + p[f"{base}/b1"]) @ p[f"{base}/W2"] + p[f"{base}/b2"]
        if self.cfg.l2_normalize:
            norm = ad.sqrt((out * out).sum(axis=1, keepdims=True) + 1e-12)
            out = out / norm
        return out

    def execute(self, plan: ForwardPlan) -> ForwardResult:
        types_needed = set()
        for tower, tp in plan.towers.items():
            types_needed.add(TOWER_TYPE[tower])
            for pp in tp.path_plans:
                types_needed.update(pp.path.type_chain())
        h0_by_type = {t: self.node_level_all(t) for t in sorted(types_needed, key=lambda t: t.value)}

        towers = {}
        for tower, tp in plan.towers.items():
            if len(tp.all_rows):
                h0 = ad.gather(h0_by_type[TOWER_TYPE[tower]], tp.all_rows)
            else:
                h0 = Tensor(np.zeros((0, self.cfg.d)))
            per_path, names = {}, []
            if self.variant.conv and tp.path_plans:
                outputs = []
                for pp in tp.path_plans:
                    out = self._execute_path(pp, h0_by_type)
                    per_path[pp.path.name] = out
                    outputs.append(out)
                    names.append(pp.path.name)
                h_tilde, w = self._fuse(tower, outputs, names)
                att_weights = w.data
            else:
                h_tilde, att_weights = h0, None
            towers[tower] = (tp, h0, per_path, att_weights, names, h_tilde)

        result = {}
        for tower, (tp, h0, per_path, att_weights, names, h_tilde) in towers.items():
            if len(tp.req_rows):
                h_req = ad.gather(h_tilde, tp.req_rows)
            else:
                h_req = Tensor(np.zeros((0, self.cfg.d)))
            if self.variant.siamese and len(tp.req_rows):
                other = KW_TOWER if tower == AD_TOWER else AD_TOWER
                other_h = towers[other][5]
                if len(tp.infl_flat):
                    s = ad.segment_sum(
                        ad.gather(other_h, tp.infl_flat), tp.infl_segs, len(tp.req_ids)
                    )
                else:
                    s = Tensor(np.zeros((len(tp.req_ids), self.cfg.d)))
                inv = 1.0 / np.maximum(tp.infl_counts, 1.0)
                z = h_req + s * inv[:, None]
            else:
                z = h_req
            per_view = {v: self._view_head(tower, v, z) for v in self.variant.views}
            result[tower] = TowerForward(
                plan=tp,
                h0=h0,
                per_path=per_path,
                att_weights=att_weights,
                path_names=names,
                h_tilde=h_tilde,
                z=z,
                per_view=per_view,
            )
        return ForwardResult(result, plan.cache)

    def forward(self, ad_ids, kw_ids) -> ForwardResult:
        plan = build_plan(self.graph, ad_ids, kw_ids, self.cfg, self.variant)
        return self.execute(plan)

    def memoized_forward(self, refs) -> ForwardResult:
        """Forward for a batch of ad/keyword roots with a per-call cache.

        Use .nodes() / .node(ref) on the result for per-node embeddings and
        .cache for hit/miss counters.
        """
        ad_ids, kw_ids = [], []
        for ref in refs:
            if ref.node_type == NodeType.AD:
                ad_ids.append(ref.node_id)
            elif ref.node_type == NodeType.KEYWORD:
                kw_ids.append(ref.node_id)
            else:
                raise ValueError("items do not have a tower")
        return self.forward(ad_ids, kw_ids)
