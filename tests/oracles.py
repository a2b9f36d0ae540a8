"""Independent reference implementations used as test oracles.

The model's layers written node by node in plain numpy (`conv_layer`,
`sage_layer`, `semantic_fuse`, `siamese_embed`, `view_transform`), the
contrastive `posterior`, the per-node `neighbors` query read off the CSR
tables and the `influential_neighbors` query live here, next to
`naive_node_embedding`, which chains them over per-node neighbor queries
for one node's full forward pass. `node_embedding` reads one
root's intermediate embeddings off a batched forward result, so tests can
compare the two node by node. The edge file's reader as it was before it
read columns, one `EdgeRecord` per line checked and merged one at a time,
is `reference_load_graph`; the embedding dump's reader as it was before it
read chunks of columns, one row parsed and stored at a time, is
`reference_load_embeddings`. Training pairs as the records they were
before they became columns are `TrainingPair`, with the loss, step loss
and batch plan that read them (`record_loss_from_forward`,
`record_step_loss`, `record_batch_plan`). `ReferenceAdam` is the optimizer
as it was before it updated in place.

Almost everything here recomputes results without touching the batched
executor or its plans; `naive_plan` fills the plan containers from
per-node neighbor queries. `gather_segment_sum_execute` is the exception:
it runs a plan with the executor's layer helpers, pooling in two ops, as a
bitwise reference for the fused pooling.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from hgmatch import autodiff as ad
from hgmatch.autodiff import Pooling, Tensor
from hgmatch.features import KIND_TERMS
from hgmatch import graph as hg
from hgmatch.errors import DataError, NumericError
from hgmatch.config import ALL_VIEWS
from hgmatch.graph import NodeRef, NodeType, Relation, other_endpoint
from hgmatch.model import (
    AD_TOWER,
    KW_TOWER,
    TOWER_TYPE,
    ForwardPlan,
    ForwardResult,
    PathPlan,
    TowerForward,
    TowerPlan,
    active_paths,
    build_plan,
)
from hgmatch.retrieval import EmbeddingStore
from hgmatch.trainer import TrainingPairs


# --- the layers for one node -------------------------------------------------

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


def semantic_fuse(per_path, att_vec):
    """Softmax-weighted sum of per-metapath embeddings; returns (fused, weights)."""
    if not per_path:
        raise ValueError("semantic_fuse needs at least one metapath embedding")
    names = [n for n, _ in per_path]
    H = np.stack([np.asarray(h, dtype=np.float64) for _, h in per_path])
    logits = H @ np.asarray(att_vec, dtype=np.float64).reshape(-1)
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


def posterior(score_pos: float, score_negs, gamma: float) -> float:
    """Softmax probability of the positive among positive + negatives."""
    logits = gamma * np.array([score_pos, *score_negs], dtype=np.float64)
    e = np.exp(logits - logits.max())
    return float(e[0] / e.sum())


def neighbors(graph, ref, relation, m=None):
    """Top-m neighbors of ref under relation, by descending edge weight, read
    off the graph's CSR table one node at a time.

    m=None means the full neighborhood. Returns (ids, weights) arrays; a
    node the relation does not touch has none.
    """
    table = graph._csr.get((relation, ref.node_type))
    known = graph.ids_of[ref.node_type]
    row = int(np.searchsorted(known, ref.node_id))
    if table is None or row == len(known) or known[row] != ref.node_id:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    indptr, nbrs, weights = table
    lo, hi = indptr[row], indptr[row + 1]
    if m is not None:
        hi = min(hi, lo + m)
    return graph.ids_of[other_endpoint(relation, ref.node_type)][nbrs[lo:hi]], weights[lo:hi]


def influential_neighbors(graph, ref, kappa):
    """Top-kappa cross-type neighbors by bid-edge weight (ads <-> keywords);
    ValueError for an item."""
    other = other_endpoint(Relation.AD_BID_KW, ref.node_type)
    ids, _ = neighbors(graph, ref, Relation.AD_BID_KW, kappa)
    return [NodeRef(other, int(i)) for i in ids]


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


def node_embedding(fwd, ref) -> TowerEmbedding:
    """One root's embeddings read off a batched forward result; KeyError if
    `ref` is not a root of it."""
    f = fwd.towers[AD_TOWER if ref.node_type == NodeType.AD else KW_TOWER]
    row = int(np.searchsorted(f.plan.req_ids, ref.node_id))
    if row == len(f.plan.req_ids) or f.plan.req_ids[row] != ref.node_id:
        raise KeyError(f"{ref} is not a root of this forward pass")
    all_row = int(f.plan.req_rows.src_rows[row])
    att = {} if f.att_weights is None else dict(zip(f.per_path, f.att_weights[all_row]))
    return TowerEmbedding(
        ref=ref,
        h=f.h0.data[all_row].copy(),
        per_path={n: t.data[all_row].copy() for n, t in f.per_path.items()},
        att_weights=att,
        h_tilde=f.h_tilde.data[all_row].copy(),
        z=f.z.data[row].copy(),
        per_view={v: t.data[row].copy() for v, t in f.per_view.items()},
    )


# --- one node's forward pass -------------------------------------------------

def naive_h0(model, ntype, node_id):
    layout = model.layouts[ntype]
    row = int(np.searchsorted(model.graph.ids_of[ntype], node_id))
    parts = []
    for spec in layout.specs:
        table = model.params[f"table/{spec.name}"].data
        if spec.kind == KIND_TERMS:
            op = layout.terms[spec.name]
            terms = op.src_rows[op.dst_rows == row]
            if len(terms):
                parts.append(table[terms].mean(axis=0))
            else:
                parts.append(np.zeros(spec.width))
        else:
            parts.append(table[layout.single[spec.name].src_rows[row]])
    x = np.concatenate(parts)
    t = ntype.value
    p = model.params
    hidden = np.maximum(x @ p[f"fusion/{t}/W1"].data + p[f"fusion/{t}/b1"].data, 0.0)
    return hidden @ p[f"fusion/{t}/W2"].data + p[f"fusion/{t}/b2"].data


def naive_path_embedding(model, ref, tower_path):
    """Recursive per-node tree evaluation of one metapath tower."""
    path = tower_path.path
    chain = path.type_chain()
    steps = path.steps
    K = len(steps)
    graph = model.graph
    p = model.params

    def emb(node_id, depth, k):
        if k == 0:
            return naive_h0(model, chain[depth], node_id)
        self_prev = emb(node_id, depth, k - 1)
        ids, _ = neighbors(graph, NodeRef(chain[depth], node_id), steps[depth], model.cfg.m)
        child_vecs = [emb(int(c), depth + 1, k - 1) for c in ids]
        base = f"conv/{path.name}/k{k}"
        if model.variant.aggregator == "sage":
            return sage_layer(self_prev, child_vecs, p[f"{base}/Ws"].data, p[f"{base}/b"].data)
        return conv_layer(
            self_prev, child_vecs,
            p[f"{base}/W"].data, p[f"{base}/b"].data,
            p[f"{base}/V"].data, p[f"{base}/U"].data,
        )

    return emb(ref.node_id, 0, K)


def naive_fused(model, ref):
    tower = AD_TOWER if ref.node_type == NodeType.AD else KW_TOWER
    if not model.variant.conv:
        return naive_h0(model, ref.node_type, ref.node_id), {}
    per_path = [
        (tp.path.name, naive_path_embedding(model, ref, tp))
        for tp in active_paths(tower, model.variant.groups)
    ]
    att = model.params[f"att/{tower}"].data
    return semantic_fuse(per_path, att)


def naive_node_embedding(model, ref):
    """Full pipeline for one node: fused, Siamese-combined, per-view vectors."""
    tower = AD_TOWER if ref.node_type == NodeType.AD else KW_TOWER
    h_tilde, att = naive_fused(model, ref)
    if model.variant.siamese:
        nbrs = influential_neighbors(model.graph, ref, model.cfg.kappa)
        nbr_fused = [naive_fused(model, n)[0] for n in nbrs]
        z = siamese_embed(h_tilde, nbr_fused)
    else:
        z = h_tilde.copy()
    p = model.params
    per_view = {}
    for view in model.variant.views:
        base = f"view/{tower}/{view}"
        per_view[view] = view_transform(
            z, p[f"{base}/W1"].data, p[f"{base}/b1"].data,
            p[f"{base}/W2"].data, p[f"{base}/b2"].data,
        )
    return h_tilde, att, z, per_view


def naive_recall(ads, targets, retrieved_union):
    """Plain Eq-style recall: sum of intersections over sum of target sizes."""
    hit = sum(len(set(retrieved_union[a]) & set(targets[a])) for a in ads)
    total = sum(len(targets[a]) for a in ads)
    return hit / total


def _dense_rows(graph, ntype, ids):
    row_of = {int(i): r for r, i in enumerate(graph.ids_of[ntype])}
    return np.array([row_of[int(i)] for i in ids], dtype=np.int64)


def naive_path_plan(graph, roots, path, m) -> PathPlan:
    """Node-by-node metapath walk: level 0 is `roots`, every deeper level the
    whole node type in ids_of order, each hop's pool built from scratch."""
    chain = path.type_chain()
    level_ids = [np.asarray(roots, dtype=np.int64), *(graph.ids_of[t] for t in chain[1:])]
    pools = []
    for depth, rel in enumerate(path.steps):
        child_row = {int(c): r for r, c in enumerate(level_ids[depth + 1])}
        flat, segs = [], []
        for row, pid in enumerate(level_ids[depth]):
            ids, _ = neighbors(graph, NodeRef(chain[depth], int(pid)), rel, m)
            for cid in ids:
                flat.append(child_row[int(cid)])
                segs.append(row)
        pools.append(Pooling(np.array(flat, dtype=np.int64), np.array(segs, dtype=np.int64),
                             len(level_ids[depth]), len(level_ids[depth + 1])))
    return PathPlan(path, pools)


def naive_plan(graph, ad_ids, kw_ids, cfg, variant) -> ForwardPlan:
    """build_plan recomputed with per-node neighbor queries and dicts, every
    hop of every metapath included."""
    req_ids = {
        AD_TOWER: np.array(sorted(set(int(i) for i in ad_ids)), dtype=np.int64),
        KW_TOWER: np.array(sorted(set(int(i) for i in kw_ids)), dtype=np.int64),
    }
    infl = {AD_TOWER: {}, KW_TOWER: {}}
    if variant.siamese:
        for tower, req in req_ids.items():
            for i in req:
                refs = influential_neighbors(graph, NodeRef(TOWER_TYPE[tower], int(i)), cfg.kappa)
                infl[tower][int(i)] = [r.node_id for r in refs]
    other = {AD_TOWER: KW_TOWER, KW_TOWER: AD_TOWER}
    all_ids = {}
    for tower, req in req_ids.items():
        extra = {i for lst in infl[other[tower]].values() for i in lst}
        all_ids[tower] = np.array(sorted(set(req.tolist()) | extra), dtype=np.int64)

    towers = {}
    for tower, ids in all_ids.items():
        row_of = {int(i): r for r, i in enumerate(ids)}
        req = req_ids[tower]
        plans = []
        if variant.conv and len(ids):
            for tp in active_paths(tower, variant.groups):
                plans.append(naive_path_plan(graph, ids, tp.path, cfg.m))
        other_rows = {int(i): r for r, i in enumerate(all_ids[other[tower]])}
        flat, segs = [], []
        for row, rid in enumerate(req):
            nbrs = infl[tower].get(int(rid), [])
            for nid in nbrs:
                flat.append(other_rows[int(nid)])
                segs.append(row)
        towers[tower] = TowerPlan(
            tower=tower,
            all_ids=ids,
            all_rows=ad.select(_dense_rows(graph, TOWER_TYPE[tower], ids),
                               len(graph.ids_of[TOWER_TYPE[tower]])),
            req_ids=req,
            req_rows=ad.select(np.array([row_of[int(i)] for i in req], dtype=np.int64), len(ids)),
            path_plans=plans,
            infl_pool=Pooling(
                np.array(flat, dtype=np.int64), np.array(segs, dtype=np.int64),
                len(req), len(all_ids[other[tower]]),
            ),
        )
    return ForwardPlan(towers)


def naive_scatter_add(idx, values, n):
    """Rows of `values` summed into n buckets with np.add.at, from zeros."""
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, idx, values)
    return out


def naive_evaluate(model, dataset, ks):
    """Recall at each K over the task and its cold-start cohort, as two
    {k: RecallResult} maps, the long way: a fresh export and a top-K pass
    for every cohort and every K, each ad's candidates read off the node
    records and ranked by a Python sort on (-score, id)."""
    from hgmatch.retrieval import cold_start_split, export_embeddings, recall_at_k

    graph = dataset.graph
    kw_category = {q: rec.category_id for q, rec in graph.nodes[NodeType.KEYWORD].items()}
    cohorts = (dataset.task, cold_start_split(graph, dataset.task))
    out = ({}, {})
    for task, results in zip(cohorts, out):
        for k in ks:
            store = export_embeddings(model)
            kk = 3 * k if len(store.views) == 1 else k
            retrieved = {}
            for ad in task.ads:
                cat = graph.nodes[NodeType.AD][ad].category_id
                cands = [q for q, c in kw_category.items() if c == cat and c >= 0]
                retrieved[ad] = {}
                for view in store.views:
                    kw_ids, kw_mat = store.vectors[view][NodeType.KEYWORD]
                    kw_row = {int(q): r for r, q in enumerate(kw_ids)}
                    ad_ids, ad_mat = store.vectors[view][NodeType.AD]
                    z = ad_mat[list(ad_ids).index(ad)]
                    scored = sorted((-float(kw_mat[kw_row[q]] @ z), q) for q in cands)
                    retrieved[ad][view] = [q for _, q in scored[:kk]]
            results[k] = recall_at_k(task, retrieved)
    return out


def naive_rank(cand_ids, cand_mat, z, k):
    """The k best candidates by a full stable argsort on -score."""
    return cand_ids[np.argsort(-(cand_mat @ z), kind="stable")[:k]].tolist()


def naive_quantize(matrix):
    """The dump's 9-significant-digit rendering read back, element by element."""
    out = np.empty_like(matrix)
    flat_in, flat_out = matrix.ravel(), out.ravel()
    for i, x in enumerate(flat_in):
        flat_out[i] = float(f"{x:.9g}")
    return out


def naive_dump_rows(matrix):
    """Each row of `matrix` as the dump writes it, value by value: `%+.8e`
    cells, or `%.9g` values if a cell's text is not 15 bytes long."""
    rows = []
    for row in matrix.tolist():
        cells = ["%+.8e" % x for x in row]
        rows.append(" ".join(cells if all(len(c) == 15 for c in cells) else ["%.9g" % x for x in row]))
    return rows


def _gather_segment_sum(a, pl):
    """Neighbor pooling in two ops: copy the source rows out with a gather,
    then segment_sum them into their buckets."""
    if not len(pl.src_rows):
        return Tensor(np.zeros((pl.n_out, a.shape[1]), dtype=a.data.dtype))
    return ad.segment_sum(ad.gather(a, ad.select(pl.src_rows, pl.n_in)), pl.dst_rows, pl.n_out)


def gather_segment_sum_execute(model, plan):
    """model.execute(plan) with every neighbor pooling done as a gather and
    a segment_sum: a bitwise reference for `ad.pool` inside the whole forward."""
    p = model.params

    def node_level_all(ntype):
        layout = model.layouts[ntype]
        slots = []
        for spec in layout.specs:
            table = p[f"table/{spec.name}"]
            if spec.kind == KIND_TERMS:
                pl = layout.terms[spec.name]
                s = _gather_segment_sum(table, pl)
                slots.append(s * (1.0 / np.maximum(pl.counts, 1.0))[:, None])
            else:
                slots.append(ad.gather(table, layout.single[spec.name]))
        x = ad.concat_cols(slots)
        t = ntype.value
        hidden = ad.relu(x @ p[f"fusion/{t}/W1"] + p[f"fusion/{t}/b1"])
        return hidden @ p[f"fusion/{t}/W2"] + p[f"fusion/{t}/b2"]

    def execute_path(pp, h0_roots, h0_by_type):
        K = len(pp.path.steps)
        states = [h0_roots, *(h0_by_type[t] for t in pp.path.type_chain()[1:])]
        for k in range(1, K + 1):
            states = [
                model._conv_step(
                    pp.path.name, k, states[j],
                    _gather_segment_sum(states[j + 1], pl),
                    pl.counts,
                )
                for j, pl in zip(range(K - k + 1), pp.child_pools)
            ]
        return states[0]

    types = set()
    for tower, tp in plan.towers.items():
        types.add(TOWER_TYPE[tower])
        for pp in tp.path_plans:
            types.update(pp.path.type_chain())
    h0_by_type = {t: node_level_all(t) for t in sorted(types, key=lambda t: t.value)}

    towers = {}
    for tower, tp in plan.towers.items():
        h0 = ad.gather(h0_by_type[TOWER_TYPE[tower]], tp.all_rows)
        per_path, att_weights, h_tilde = {}, None, h0
        if model.variant.conv and tp.path_plans:
            outputs = [execute_path(pp, h0, h0_by_type) for pp in tp.path_plans]
            per_path = dict(zip((pp.path.name for pp in tp.path_plans), outputs))
            h_tilde, w = model._fuse(tower, outputs)
            att_weights = w.data
        towers[tower] = TowerForward(tp, h0, per_path, att_weights, h_tilde, None, {})
    for tower, fwd in towers.items():
        tp = fwd.plan
        z = ad.gather(fwd.h_tilde, tp.req_rows)
        if model.variant.siamese:
            other = towers[KW_TOWER if tower == AD_TOWER else AD_TOWER].h_tilde
            pl = tp.infl_pool
            s = _gather_segment_sum(other, pl)
            z = z + s * (1.0 / np.maximum(pl.counts, 1.0))[:, None]
        fwd.z = z
        fwd.per_view = {v: model._view_head(tower, v, z) for v in model.variant.views}
    return ForwardResult(towers)



# --- training pairs as records -----------------------------------------------

@dataclass(frozen=True)
class TrainingPair:
    ad: int
    positive_kw: int
    view: str
    negatives: tuple


def pair_records(pairs) -> list:
    """Column pairs (`trainer.TrainingPairs`) as one TrainingPair each."""
    return [TrainingPair(int(p.ad), int(p.positive_kw), ALL_VIEWS[p.view],
                         tuple(int(n) for n in p.negatives)) for p in pairs]


def pair_columns(records):
    """TrainingPair records as column pairs (`trainer.TrainingPairs`)."""
    return TrainingPairs(np.array([p.ad for p in records], dtype=np.int64),
                         np.array([p.positive_kw for p in records], dtype=np.int64),
                         np.array([ALL_VIEWS.index(p.view) for p in records], dtype=np.int64),
                         np.array([p.negatives for p in records], dtype=np.int64))


def record_batch_plan(model, records):
    """The batch plan as it was built from TrainingPair records."""
    kw_ids = [kw for p in records for kw in (p.positive_kw, *p.negatives)]
    return build_plan(model.graph, [p.ad for p in records], kw_ids, model.cfg, model.variant,
                      model.type_pools)


def record_loss_from_forward(model, fwd, records):
    """The contrastive loss as it was computed from TrainingPair records, a
    list comprehension per view and per keyword column."""
    gamma = model.cfg.gamma
    ad_ids = fwd.towers[AD_TOWER].plan.req_ids
    kw_ids = fwd.towers[KW_TOWER].plan.req_ids
    total = None
    for view in model.variant.views:
        group = [p for p in records if p.view == view]
        if not group:
            continue
        a_rows = np.searchsorted(ad_ids, [p.ad for p in group])
        Za = ad.gather(fwd.towers[AD_TOWER].per_view[view], ad.select(a_rows, len(ad_ids)))
        Zk = fwd.towers[KW_TOWER].per_view[view]
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


def record_step_loss(model, plan, records):
    """`trainer.step_loss` over record_loss_from_forward."""
    local = model.with_params(model.params.cast(np.float32))
    return record_loss_from_forward(local, local.execute(plan), records)


# --- Adam as expressions -------------------------------------------------------

class ReferenceAdam:
    """`trainer.Adam` as it was before it updated in place: each step's new
    moments and parameter update are fresh arrays from the same expressions."""

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
            m = self.m[name] = b1 * self.m[name] + (1 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            tensor.data -= self.lr * m_hat / (np.sqrt(v_hat) + eps)
            if not np.all(np.isfinite(tensor.data)):
                raise NumericError(f"non-finite parameter {name} after update")


# --- the edge file, one line at a time ---------------------------------------

class EdgeRecord(NamedTuple):
    src_type: NodeType
    src_id: int
    relation: Relation
    dst_type: NodeType
    dst_id: int
    weight: float
    location: str = ""


_NODE_TYPE_BY_TOKEN = {t.value: t for t in NodeType}
_RELATION_BY_TOKEN = {r.value: r for r in Relation}


def parse_edge_line(line: str, location: str) -> EdgeRecord:
    parts = line.split()
    if len(parts) != 6:
        raise DataError(f"{location}: expected 6 fields, got {len(parts)}")
    st, sid, rel, dt, did, w = parts
    try:
        return EdgeRecord(
            src_type=_NODE_TYPE_BY_TOKEN[st],
            src_id=int(sid),
            relation=_RELATION_BY_TOKEN[rel],
            dst_type=_NODE_TYPE_BY_TOKEN[dt],
            dst_id=int(did),
            weight=float(w),
            location=location,
        )
    except KeyError as exc:
        raise DataError(f"{location}: unknown token {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise DataError(f"{location}: {exc}") from exc


def edge_columns(records) -> hg.EdgeColumns:
    """EdgeRecords as the columns `graph.ingest` takes; every location is
    `path:line` with one path, or empty."""
    path = {r.location.rpartition(":")[0] for r in records}
    assert len(path) <= 1, "records from more than one file"
    return hg.EdgeColumns(
        path.pop() if path else "",
        np.array([int(r.location.rpartition(":")[2] or 0) for r in records], dtype=np.int64),
        np.array([hg.NODE_TYPES.index(r.src_type) for r in records], dtype=np.int64),
        np.array([r.src_id for r in records], dtype=np.int64),
        np.array([hg.RELATIONS.index(r.relation) for r in records], dtype=np.int64),
        np.array([hg.NODE_TYPES.index(r.dst_type) for r in records], dtype=np.int64),
        np.array([r.dst_id for r in records], dtype=np.int64),
        np.array([r.weight for r in records], dtype=np.float64),
    )


def ingest(records, node_records) -> hg.HeteroGraph:
    """`graph.ingest` over EdgeRecords."""
    return hg.ingest(edge_columns(records), node_records)


def reference_ingest(records, node_records) -> hg.HeteroGraph:
    """`graph.ingest` checking and collecting one EdgeRecord at a time."""
    nodes = {t: {} for t in NodeType}
    for rec in node_records:
        if rec.node_id in nodes[rec.node_type]:
            raise DataError(f"duplicate node record {rec.node_type.value}:{rec.node_id}")
        nodes[rec.node_type][rec.node_id] = rec

    columns = {rel: ([], [], []) for rel in Relation}  # src ids, dst ids, weights
    for e in records:
        schema = hg.RELATION_SCHEMA[e.relation]
        if (e.src_type, e.dst_type) != schema:
            raise DataError(
                f"{e.location}: relation {e.relation.value} expects "
                f"{schema[0].value}->{schema[1].value}, got "
                f"{e.src_type.value}->{e.dst_type.value}"
            )
        if not math.isfinite(e.weight):
            raise DataError(f"{e.location}: non-finite edge weight {e.weight}")
        if e.weight < 0:
            raise DataError(f"{e.location}: negative edge weight {e.weight}")
        if e.src_id not in nodes[e.src_type]:
            raise DataError(f"{e.location}: dangling endpoint {e.src_type.value}:{e.src_id}")
        if e.dst_id not in nodes[e.dst_type]:
            raise DataError(f"{e.location}: dangling endpoint {e.dst_type.value}:{e.dst_id}")
        src, dst, weights = columns[e.relation]
        src.append(e.src_id)
        dst.append(e.dst_id)
        weights.append(e.weight)

    graph = hg.HeteroGraph(nodes)
    for rel, (src, dst, weights) in columns.items():
        src_t, dst_t = hg.RELATION_SCHEMA[rel]
        src_rows, dst_rows = graph.rows(src_t, src), graph.rows(dst_t, dst)
        n_dst = graph.num_nodes(dst_t)
        keys, inverse = np.unique(src_rows * n_dst + dst_rows, return_inverse=True)
        merged = np.zeros(len(keys))
        np.add.at(merged, inverse, np.asarray(weights, dtype=np.float64))
        src_rows, dst_rows = keys // n_dst, keys % n_dst
        graph._csr[(rel, src_t)] = hg._csr_table(graph.num_nodes(src_t), src_rows, dst_rows, merged)
        graph._csr[(rel, dst_t)] = hg._csr_table(graph.num_nodes(dst_t), dst_rows, src_rows, merged)
    return graph


def reference_load_graph(edge_path, node_path) -> hg.HeteroGraph:
    """`graph.load_graph` parsing the edge file one line at a time."""
    nodes = list(hg.iter_file_records(node_path, hg.parse_node_line))
    edges = list(hg.iter_file_records(edge_path, parse_edge_line))
    return reference_ingest(edges, nodes)


# --- the embedding dump, one line at a time ----------------------------------

def parse_embedding_line(line: str, location: str) -> tuple:
    """One `node_type node_id view values...` record, its values parsed by
    `np.array` of the split text (which also takes `1_0` and non-ASCII
    digits; `load_embeddings` takes neither)."""
    parts = line.split("\t")
    if len(parts) != 4:
        raise DataError(f"{location}: expected 4 tab-separated fields")
    ttok, nid, view, vals = parts
    if view not in ALL_VIEWS:
        raise DataError(f"{location}: unknown view {view!r}")
    try:
        ntype, node_id = hg.NODE_TYPES[hg.TYPE_CODE[ttok]], hg.parse_id(nid)
        vec = np.array(vals.split(), dtype=np.float64)
    except (KeyError, ValueError) as exc:
        raise DataError(f"{location}: {exc}") from exc
    if not np.isfinite(vec).all():
        raise DataError(f"{location}: non-finite vector value")
    return ntype, node_id, view, vec, location


def reference_load_embeddings(path) -> EmbeddingStore:
    """`retrieval.load_embeddings` checking and storing one row at a time."""
    rows = {}  # {(view, NodeType): {node id: vector}}
    d = None
    for ntype, node_id, view, vec, location in hg.iter_file_records(path, parse_embedding_line):
        if d is None:
            d = len(vec)
        elif len(vec) != d:
            raise DataError(f"{location}: inconsistent vector length")
        group = rows.setdefault((view, ntype), {})
        if node_id in group:
            raise DataError(f"{location}: duplicate {view} row for {ntype.value}:{node_id}")
        group[node_id] = vec
    if not rows:
        raise DataError(f"{path}: embedding dump has no rows")
    views = tuple(sorted({v for v, _ in rows}, key=lambda v: ALL_VIEWS.index(v)))
    vectors = {}
    for (view, ntype), group in rows.items():
        ids = sorted(group)
        vectors.setdefault(view, {})[ntype] = (np.array(ids, dtype=np.int64),
                                               np.stack([group[i] for i in ids]))
    return EmbeddingStore(d, views, vectors)
