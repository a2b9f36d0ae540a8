"""Embedding export, exact top-K retrieval, and recall evaluation.

Retrieval is brute-force dot product over the ad's same-category candidate
set: candidate pools at this scale are small enough that exactness is
cheap, and tests stay deterministic. Exported embedding values are the
9-significant-digit decimals of the dump file, so export -> reload -> score
is reproducible bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .config import ALL_VIEWS
from .errors import DataError
from .graph import HeteroGraph, NodeType, Relation, iter_file_records
from .model import AD_TOWER, KW_TOWER, MatchingModel
from .sampling import CategoryIndex

logger = logging.getLogger(__name__)

_TOWER_OF_TYPE = {NodeType.AD: AD_TOWER, NodeType.KEYWORD: KW_TOWER}


@dataclass
class EmbeddingStore:
    d: int
    views: tuple
    vectors: dict   # {view: {NodeType: (ids array, matrix)}}
    _row: dict = field(default_factory=dict)

    def __post_init__(self):
        for view, per_type in self.vectors.items():
            for ntype, (ids, _) in per_type.items():
                self._row[(view, ntype)] = {int(i): r for r, i in enumerate(ids)}

    def vector(self, view: str, ntype: NodeType, node_id: int) -> np.ndarray:
        ids_mat = self.vectors[view][ntype]
        return ids_mat[1][self._row[(view, ntype)][node_id]]


def _quantize(matrix: np.ndarray) -> np.ndarray:
    """Round-trip through the dump's 9-significant-digit rendering."""
    out = np.empty_like(matrix)
    flat_in, flat_out = matrix.ravel(), out.ravel()
    for i, x in enumerate(flat_in):
        flat_out[i] = float(f"{x:.9g}")
    return out


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
            id_sets = [store.vectors[v][ntype][0] for v in store.views]
            ids = id_sets[0]
            for row, node_id in enumerate(ids):
                for view in store.views:
                    vec = store.vectors[view][ntype][1][row]
                    vals = " ".join(f"{x:.9g}" for x in vec)
                    fh.write(f"{ntype.value}\t{int(node_id)}\t{view}\t{vals}\n")


def load_embeddings(path) -> EmbeddingStore:
    rows = {}
    d = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 tab-separated fields")
            ttok, nid, view, vals = parts
            try:
                ntype = {t.value: t for t in NodeType}[ttok]
                vec = np.array([float(v) for v in vals.split()], dtype=np.float64)
            except (KeyError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if d is None:
                d = len(vec)
            elif len(vec) != d:
                raise DataError(f"{path}:{lineno}: inconsistent vector length")
            rows.setdefault((view, ntype), []).append((int(nid), vec))
    views = tuple(sorted({v for v, _ in rows}, key=lambda v: ALL_VIEWS.index(v)))
    vectors = {}
    for (view, ntype), entries in rows.items():
        entries.sort(key=lambda e: e[0])
        ids = np.array([e[0] for e in entries], dtype=np.int64)
        mat = np.stack([e[1] for e in entries])
        vectors.setdefault(view, {})[ntype] = (ids, mat)
    return EmbeddingStore(d, views, vectors)


def topk_retrieve(store: EmbeddingStore, ad_id: int, view: str, k: int, candidate_ids):
    """Exact top-k candidates by dot product; ties break on ascending id."""
    candidate_ids = np.asarray(sorted(int(c) for c in candidate_ids), dtype=np.int64)
    if len(candidate_ids) == 0:
        logger.warning("ad %s has an empty candidate set", ad_id)
        return []
    z = store.vector(view, NodeType.AD, ad_id)
    kw_ids, kw_mat = store.vectors[view][NodeType.KEYWORD]
    rows = np.searchsorted(kw_ids, candidate_ids)
    scores = kw_mat[rows] @ z
    order = np.lexsort((candidate_ids, -scores))
    return [int(candidate_ids[i]) for i in order[:k]]


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
    """Per-ad per-view top-K lists; a single-view store retrieves top-3K
    from its one view (it has no union to build)."""
    single = len(store.views) == 1
    out = {}
    for ad_id in task.ads:
        candidates = cat_index.candidate_keywords(graph, ad_id)
        per_view = {}
        for view in store.views:
            kk = 3 * k if single else k
            per_view[view] = topk_retrieve(store, ad_id, view, kk, candidates)
        out[ad_id] = per_view
    return out


def evaluate_store(store: EmbeddingStore, graph: HeteroGraph, cat_index: CategoryIndex,
                   task: EvalTask, k: int) -> RecallResult:
    return recall_at_k(task, retrieve_all(store, graph, cat_index, task, k))
