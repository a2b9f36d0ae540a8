"""Embedding export, exact top-K retrieval, and recall evaluation.

Retrieval is brute-force dot product over the ad's same-category candidate
set: candidate pools at this scale are small enough that exactness is
cheap, and tests stay deterministic. A pass gathers each category's
candidate matrix once per view, through a checked id lookup, and ranks
each ad by one matrix-vector product. Exported embedding values are the
9-significant-digit decimals of the dump file, so export -> reload -> score
is reproducible bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import ALL_VIEWS
from .errors import DataError
from .graph import HeteroGraph, NodeType, Relation, iter_file_records, lookup_rows
from .model import AD_TOWER, KW_TOWER, MatchingModel
from .sampling import CategoryIndex

logger = logging.getLogger(__name__)


@dataclass
class EmbeddingStore:
    d: int
    views: tuple
    vectors: dict   # {view: {NodeType: (ascending ids array, matrix)}}

    def gather(self, view: str, ntype: NodeType, ids) -> np.ndarray:
        """Vectors of `ids`; a DataError names the view, type and first id without one."""
        known, mat = self.vectors.get(view, {}).get(
            ntype, (np.empty(0, np.int64), np.empty((0, self.d))))
        missing = f"embeddings have no {view} vector for {ntype.value} id"
        return mat[lookup_rows(known, ids, missing)]

    def vector(self, view: str, ntype: NodeType, node_id: int) -> np.ndarray:
        return self.gather(view, ntype, [node_id])[0]


def _quantize(matrix: np.ndarray) -> np.ndarray:
    """Round-trip through the dump's 9-significant-digit rendering."""
    text = map("{:.9g}".format, matrix.ravel().tolist())
    return np.fromiter(map(float, text), np.float64, matrix.size).reshape(matrix.shape)


def export_embeddings(model: MatchingModel, path=None) -> EmbeddingStore:
    """Compute final per-view vectors for every ad and keyword."""
    graph = model.graph
    fwd = model.forward(graph.ids_of[NodeType.AD], graph.ids_of[NodeType.KEYWORD])
    views = tuple(model.variant.views)
    vectors = {}
    for view in views:
        per_type = {}
        for ntype, tower in ((NodeType.AD, AD_TOWER), (NodeType.KEYWORD, KW_TOWER)):
            ids = fwd.towers[tower].plan.req_ids
            mat = _quantize(fwd.towers[tower].per_view[view].data)
            per_type[ntype] = (ids, mat)
        vectors[view] = per_type
    store = EmbeddingStore(model.cfg.d, views, vectors)
    if path is not None:
        save_embeddings(store, path)
    return store


def save_embeddings(store: EmbeddingStore, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# node_type\tnode_id\tview\tvalues...\n")
        for ntype in (NodeType.AD, NodeType.KEYWORD):
            for row, node_id in enumerate(store.vectors[store.views[0]][ntype][0]):
                for view in store.views:
                    vec = store.vectors[view][ntype][1][row]
                    vals = " ".join(f"{x:.9g}" for x in vec)
                    fh.write(f"{ntype.value}\t{int(node_id)}\t{view}\t{vals}\n")


_NODE_TYPES = {t.value: t for t in NodeType}


def _parse_embedding_line(line: str, location: str) -> tuple:
    """One `node_type node_id view values...` record of an embedding dump."""
    parts = line.split("\t")
    if len(parts) != 4:
        raise DataError(f"{location}: expected 4 tab-separated fields")
    ttok, nid, view, vals = parts
    if view not in ALL_VIEWS:
        raise DataError(f"{location}: unknown view {view!r}")
    try:
        ntype, node_id = _NODE_TYPES[ttok], int(nid)
        vec = np.array(vals.split(), dtype=np.float64)
    except (KeyError, ValueError) as exc:
        raise DataError(f"{location}: {exc}") from exc
    if not np.isfinite(vec).all():
        raise DataError(f"{location}: non-finite vector value")
    return ntype, node_id, view, vec, location


def load_embeddings(path) -> EmbeddingStore:
    rows = {}
    d = None
    for ntype, node_id, view, vec, location in iter_file_records(path, _parse_embedding_line):
        if d is None:
            d = len(vec)
        elif len(vec) != d:
            raise DataError(f"{location}: inconsistent vector length")
        rows.setdefault((view, ntype), []).append((node_id, vec))
    if not rows:
        raise DataError(f"{path}: embedding dump has no rows")
    views = tuple(sorted({v for v, _ in rows}, key=lambda v: ALL_VIEWS.index(v)))
    vectors = {}
    for (view, ntype), entries in rows.items():
        entries.sort(key=lambda e: e[0])
        ids = np.array([e[0] for e in entries], dtype=np.int64)
        mat = np.stack([e[1] for e in entries])
        vectors.setdefault(view, {})[ntype] = (ids, mat)
    return EmbeddingStore(d, views, vectors)


def list_length(views, k: int) -> int:
    """K per view, or 3K from a single-view store (it has no union to build)."""
    return 3 * k if len(views) == 1 else k


def _rank(cand_ids: np.ndarray, cand_mat: np.ndarray, z: np.ndarray, k: int) -> list:
    """The k candidates with the largest dot product with z. `cand_ids`
    ascend, so the stable sort breaks score ties by ascending id."""
    scores = cand_mat @ z
    return cand_ids[np.argsort(-scores, kind="stable")[:k]].tolist()


def topk_retrieve(store: EmbeddingStore, ad_id: int, view: str, k: int, candidate_ids):
    """Exact top-k candidates by dot product; ties break on ascending id."""
    candidate_ids = np.unique(np.asarray(candidate_ids, dtype=np.int64))
    if len(candidate_ids) == 0:
        logger.warning("ad %s has an empty candidate set", ad_id)
        return []
    cand_mat = store.gather(view, NodeType.KEYWORD, candidate_ids)
    return _rank(candidate_ids, cand_mat, store.vector(view, NodeType.AD, ad_id), k)


# --- evaluation tasks --------------------------------------------------------

@dataclass
class EvalTask:
    ads: list                      # sorted ad ids with at least one target
    targets: dict                  # {ad: set of kw} primary (click) targets
    view_targets: dict             # {view: {ad: set of kw}}

    @classmethod
    def from_lines(cls, lines) -> "EvalTask":
        view_targets = {}
        for view, ad_id, kw_id in lines:
            view_targets.setdefault(view, {}).setdefault(ad_id, set()).add(kw_id)
        targets = view_targets.get("ad_click", {})
        ads = sorted({a for per in view_targets.values() for a in per})
        return cls(ads, targets, view_targets)

    def restrict(self, ad_subset) -> "EvalTask":
        keep = set(ad_subset)
        return EvalTask(
            ads=[a for a in self.ads if a in keep],
            targets={a: s for a, s in self.targets.items() if a in keep},
            view_targets={
                v: {a: s for a, s in per.items() if a in keep}
                for v, per in self.view_targets.items()
            },
        )


def parse_view_line(line: str, location: str) -> tuple:
    """One `view ad_id kw_id` record of a labels or task file."""
    parts = line.split()
    if len(parts) != 3:
        raise DataError(f"{location}: expected `view ad_id kw_id`")
    view, ad_id, kw_id = parts
    if view not in ALL_VIEWS:
        raise DataError(f"{location}: unknown view {view!r}")
    try:
        return view, int(ad_id), int(kw_id)
    except ValueError as exc:
        raise DataError(f"{location}: {exc}") from exc


def load_labels(path) -> list:
    return list(iter_file_records(path, parse_view_line))


def load_task(path) -> EvalTask:
    return EvalTask.from_lines(load_labels(path))


def cold_start_split(graph: HeteroGraph, task: EvalTask) -> EvalTask:
    """Restrict to ads with no click edges at all (bid-only or isolated).

    A task ad the graph does not hold is a DataError, not a cold-start ad.
    """
    clicks = graph.expand(NodeType.AD, task.ads, Relation.AD_CLICK_KW)[2]
    sub = task.restrict(a for a, n in zip(task.ads, clicks) if n == 0)
    if not sub.ads:
        raise DataError("cold-start cohort is empty")
    return sub


@dataclass
class RecallResult:
    overall: float                # union of views vs primary targets
    per_view: dict                # {view: recall against its own targets}


def recall_at_k(task: EvalTask, retrieved: dict) -> RecallResult:
    """retrieved: {ad: {view: [kw ids]}}; lists are already sized by the caller."""
    hit = 0
    total = 0
    for ad_id in task.ads:
        tset = task.targets.get(ad_id, set())
        if not tset:
            continue
        union = set()
        for lst in retrieved.get(ad_id, {}).values():
            union.update(lst)
        hit += len(union & tset)
        total += len(tset)
    if total == 0:
        raise DataError("recall undefined: no target relations")
    per_view = {}
    for view, per_ad in task.view_targets.items():
        if not any(view in retrieved.get(a, {}) for a in task.ads):
            continue  # the model never retrieved this view; report no number
        vhit, vtotal = 0, 0
        for ad_id in task.ads:
            tset = per_ad.get(ad_id, set())
            if not tset:
                continue
            got = retrieved.get(ad_id, {}).get(view)
            if got is not None:
                vhit += len(set(got) & tset)
            vtotal += len(tset)
        if vtotal > 0:
            per_view[view] = vhit / vtotal
    return RecallResult(hit / total, per_view)


def retrieve_all(store: EmbeddingStore, graph: HeteroGraph, cat_index: CategoryIndex,
                 task: EvalTask, k: int) -> dict:
    """Per-ad per-view lists, `list_length(store.views, k)` long, ranked as
    topk_retrieve ranks them."""
    kk = list_length(store.views, k)
    # candidate_keywords hands out one shared id array per category; holding
    # the array in its entry keeps its id() from being reused
    groups = {}
    for ad_id in task.ads:
        cand_ids = cat_index.candidate_keywords(graph, ad_id)
        if len(cand_ids) == 0:
            logger.warning("ad %s has an empty candidate set", ad_id)
        groups.setdefault(id(cand_ids), (cand_ids, []))[1].append(ad_id)
    out = {ad_id: {} for ad_id in task.ads}
    for cand_ids, ads in groups.values():
        for view in store.views:
            cand_mat = store.gather(view, NodeType.KEYWORD, cand_ids)
            for ad_id, z in zip(ads, store.gather(view, NodeType.AD, ads)):
                out[ad_id][view] = _rank(cand_ids, cand_mat, z, kk)
    return out
