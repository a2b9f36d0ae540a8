"""Embedding export, exact top-K retrieval, and recall evaluation.

Retrieval is brute-force dot product over the ad's same-category candidate
set, ranked as a stable sort on -score ranks it (ties by ascending id, NaN
last). A pass scores blocks of a category's ads by one GEMM. A GEMM score
and a per-ad matrix-vector score each lie within B = gamma_d |a| max|c| of
the exact dot product (Higham 2002, section 3.1; gamma_d = d u / (1 - d u)),
so a row whose K + 1 best GEMM scores are finite and each more than 4B above
the next has the list either gives; every other row is ranked alone
(`_rank`). Export runs the forward without a tape, then array passes
(`_quantize`) write each matrix's 9-significant-digit dump text and the
values it reads back as; the store keeps both, so export -> dump -> reload
-> score is reproducible bit for bit. The dump is read back in chunks, one
`np.loadtxt` each (no `1_0`, no non-ASCII digits), fields checked as
columns; a dump failing a check is re-read line by line to name the line.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .config import ALL_VIEWS
from .errors import DataError
from .graph import (NODE_TYPES, TYPE_CODE, HeteroGraph, NodeType, Relation, _numbered_lines,
                    iter_file_records, lookup_rows, parse_id)
from .model import AD_TOWER, KW_TOWER, MatchingModel
from .sampling import CategoryIndex, stable_smallest

logger = logging.getLogger(__name__)


@dataclass
class EmbeddingStore:
    d: int
    views: tuple
    vectors: dict   # {view: {NodeType: (ascending ids array, matrix)}}
    # {view: {NodeType: dump text per row}} as export rendered the matrices;
    # None for a loaded or hand-built store, whose dump renders them anew
    rendered: dict = field(default=None, repr=False)

    def gather(self, view: str, ntype: NodeType, ids) -> np.ndarray:
        """Vectors of `ids`; a DataError names the view, type and first id without one."""
        known, mat = self.vectors.get(view, {}).get(
            ntype, (np.empty(0, np.int64), np.empty((0, self.d))))
        missing = f"embeddings have no {view} vector for {ntype.value} id"
        return mat[lookup_rows(known, ids, missing)]

    def vector(self, view: str, ntype: NodeType, node_id: int) -> np.ndarray:
        return self.gather(view, ntype, [node_id])[0]


# Four ASCII digits of 0..9999 as one little-endian word; the twin writes the
# entry's trailing zeros as NUL, and the dump text drops every NUL.
_DIGITS4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), "<u4").astype(np.uint64)
_TRIMMED4 = np.frombuffer(b"".join((b"%04d" % i).rstrip(b"0").ljust(4, b"\0")
                                   for i in range(10000)), "<u4").astype(np.uint64)
_POW10 = np.array([10 ** k for k in range(23)], dtype=np.float64)  # each one exact
# Indexed by X + 4 for the exponents X = -4..8 of fixed notation: the digits
# 1..X of a word of digits 1-8, the point after digit X, and "0." and zeros.
_FIXED = range(-4, 9)
_INTEGER = np.array([(1 << 8 * max(x, 0)) - 1 for x in _FIXED], np.uint64)
_DOT = np.array([46 << 8 * x if 0 <= x < 8 else 0 for x in _FIXED], np.uint64)
_LEAD = np.array([int.from_bytes(b"\x000." + b"0" * (-1 - x), "little") if x < 0 else 0
                  for x in _FIXED], np.uint64)
_BLOCK = 8192  # values per pass: 64 KiB arrays, in cache and below malloc's mmap threshold


def _quantize(matrix: np.ndarray) -> tuple:
    """(rows, values): each row of `matrix` as the dump writes it, its values
    in 9-significant-digit `%g` text joined by spaces, and the matrix that
    text reads back as, bit for bit, with no Python float or str per value.

    A value x of decimal exponent X in [-4, 8] has the nine digits
    r = round(|x| * 10^(8-X)) and reads back as r / 10^(8-X): both numbers
    are exact, so that one division is the correctly rounded decimal. The
    product carries one rounding (<= 6e-8), so a value is formatted one at a
    time if its scaled fraction lies within 1e-6 of one half, and also if it
    is zero or not finite, if `%g` writes it in exponent notation, or if
    log10 or the rounding move it out of nine digits. Each value's text is
    laid into 24 bytes, NUL where it has no character, separator last.
    """
    rows, values, step = [], np.empty(matrix.shape), max(1, _BLOCK // matrix.shape[1])
    for start in range(0, len(matrix), step):
        x = np.asarray(matrix[start:start + step], dtype=np.float64).ravel()
        a = np.abs(x)
        one_at_a_time = ~(np.isfinite(a) & (a > 0))
        a[one_at_a_time] = 1.0
        row = np.clip(np.floor(np.log10(a)), -4, 8).astype(np.intp) + 4  # X + 4
        p = a * _POW10[12 - row]
        r = np.rint(p)
        one_at_a_time |= (p < 1e8) | (r >= 1e9) | (np.abs(p - r) > 0.5 - 1e-6)
        r[one_at_a_time] = 1e8
        block = np.copysign(r / _POW10[12 - row], x)
        q, lo = np.divmod(r.astype(np.uint64), 10000)
        first, hi = np.divmod(q, 10000)
        integer, dot = _INTEGER[row], _DOT[row]
        trimmed = np.where(lo != 0, _DIGITS4[hi], _TRIMMED4[hi]) | _TRIMMED4[lo] << 32
        # ASCII digits are "0" | d: "0" restores the trimmed zeros, and "." shares a bit with each
        low, high = (trimmed | 0x3030303030303030) & integer, trimmed & ~integer
        body = low | high << 8 | dot * (trimmed & dot != 0)
        cells = np.full((len(x), 3), 32 << 56, "<u8")
        cells[:, 0] = (x < 0) * np.uint64(45) | _LEAD[row] | first + 48 << 48 | body << 56
        cells[:, 1] = body >> 8 | high >> 56 << 56
        cells.reshape(-1, matrix.shape[1], 3)[:, -1, 2] = 10 << 56

        idx = np.flatnonzero(one_at_a_time)
        texts = ["%.9g" % v for v in x[idx].tolist()]
        padded = np.frombuffer("".join(t.ljust(23, "\0") for t in texts).encode(), np.uint8)
        cells.view(np.uint8)[idx, :-1] = padded.reshape(-1, 23)
        block[idx] = [float(t) for t in texts]
        values[start:start + step] = block.reshape(-1, matrix.shape[1])
        rows += cells.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return rows, values


def export_embeddings(model: MatchingModel) -> EmbeddingStore:
    """Compute final per-view vectors for every ad and keyword.

    The forward records no tape; the store keeps each row's dump text."""
    graph = model.graph
    with ad.no_grad():
        fwd = model.forward(graph.ids_of[NodeType.AD], graph.ids_of[NodeType.KEYWORD])
    views = tuple(model.variant.views)
    vectors, rendered = {}, {}
    for view in views:
        for ntype, tower in ((NodeType.AD, AD_TOWER), (NodeType.KEYWORD, KW_TOWER)):
            rows, mat = _quantize(fwd.towers[tower].per_view[view].data)
            vectors.setdefault(view, {})[ntype] = (fwd.towers[tower].plan.req_ids, mat)
            rendered.setdefault(view, {})[ntype] = rows
    return EmbeddingStore(model.cfg.d, views, vectors, rendered)


def save_embeddings(store: EmbeddingStore, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# node_type\tnode_id\tview\tvalues...\n")
        for ntype in (NodeType.AD, NodeType.KEYWORD):
            ids = store.vectors[store.views[0]][ntype][0].tolist()
            texts = [store.rendered[view][ntype] if store.rendered is not None
                     else _quantize(store.vectors[view][ntype][1])[0] for view in store.views]
            for node_id, *row_texts in zip(ids, *texts):
                for view, text in zip(store.views, row_texts):
                    fh.write(f"{ntype.value}\t{node_id}\t{view}\t{text}\n")


_CHUNK_LINES = 1024  # dump lines whose values one np.loadtxt call parses
# float64 rows of whitespace-separated numbers as loadtxt reads them: no `1_0`, no non-ASCII digits
_parse_values = functools.partial(np.loadtxt, dtype=np.float64, ndmin=2, comments=None)


def _raise_first_bad_row(path):
    """Raise the DataError of the dump's first bad line, checking one line at
    a time what `load_embeddings` checks by the chunk."""
    d, seen = None, set()
    for lineno, line in _numbered_lines(path):
        where, parts = f"{path}:{lineno}", line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{where}: expected 4 tab-separated fields")
        ttok, nid, view, vals = parts
        if view not in ALL_VIEWS:
            raise DataError(f"{where}: unknown view {view!r}")
        try:
            key, vec = (view, NODE_TYPES[TYPE_CODE[ttok]], parse_id(nid)), _parse_values([vals])[0]
        except (KeyError, ValueError) as exc:
            raise DataError(f"{where}: {exc}") from exc
        d = len(vec) if d is None else d
        problem = ("non-finite vector value" if not np.isfinite(vec).all() else
                   "inconsistent vector length" if len(vec) != d else
                   f"duplicate {view} row for {key[1].value}:{key[2]}" if key in seen else None)
        if problem:
            raise DataError(f"{where}: {problem}")
        seen.add(key)
    raise DataError(f"{path}: " + ("unreadable rows" if seen else "embedding dump has no rows"))


def load_embeddings(path) -> EmbeddingStore:
    chunks, lines = [], (line for _, line in _numbered_lines(path))
    try:  # a ValueError also for a line without 4 fields, no rows or two widths
        while chunk := [line.split("\t") for line in itertools.islice(lines, _CHUNK_LINES)]:
            types, ids, views, vals = np.array(chunk, dtype=object).T
            values = _parse_values(vals)
            if len(values) != len(chunk) or not np.isfinite(values).all():
                raise ValueError("a row of values that is not finite")
            chunks.append((np.array([ALL_VIEWS.index(v) for v in views]),
                           np.array([TYPE_CODE[t] for t in types]),
                           np.array(list(map(parse_id, ids)), dtype=np.int64), values))
        views, types, ids, mat = (np.concatenate([c[k] for c in chunks]) for k in range(4))
    except (DataError, KeyError, ValueError):  # DataError: a file that is not UTF-8
        _raise_first_bad_row(path)
    del chunks
    order = np.lexsort((ids, types, views))  # stable: a repeat follows its first row
    key = np.stack([views, types, ids])[:, order]
    if (key[:, 1:] == key[:, :-1]).all(axis=0).any():
        _raise_first_bad_row(path)  # a duplicate row
    vectors = {}
    for rows in np.split(order, np.flatnonzero((key[:2, 1:] != key[:2, :-1]).any(axis=0)) + 1):
        view, ntype = ALL_VIEWS[views[rows[0]]], NODE_TYPES[types[rows[0]]]
        vectors.setdefault(view, {})[ntype] = (ids[rows], mat[rows])
    return EmbeddingStore(mat.shape[1], tuple(v for v in ALL_VIEWS if v in vectors), vectors)


def list_length(views, k: int) -> int:
    """K per view, or 3K from a single-view store (it has no union to build)."""
    return 3 * k if len(views) == 1 else k


def _rank(cand_ids: np.ndarray, cand_mat: np.ndarray, z: np.ndarray, k: int) -> list:
    """The k candidates with the largest dot product with z, in the order of
    a stable sort on -score: `cand_ids` ascend, so ties break by ascending
    id, and NaN scores come last.

    Only candidates scoring at least the k-th largest are sorted
    (`stable_smallest`).
    """
    return cand_ids[stable_smallest(-(cand_mat @ z), k)].tolist()


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
        return view, parse_id(ad_id), parse_id(kw_id)
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
    ad_rows = graph.rows(NodeType.AD, task.ads)
    clicks = graph.expand_rows(NodeType.AD, ad_rows, Relation.AD_CLICK_KW)[2]
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
    hit = total = 0
    for ad_id in task.ads:
        tset = task.targets.get(ad_id, set())
        hit += len(tset & set().union(*retrieved.get(ad_id, {}).values()))
        total += len(tset)
    if total == 0:
        raise DataError("recall undefined: no target relations")
    per_view = {}
    for view, per_ad in task.view_targets.items():
        if not any(view in retrieved.get(a, {}) for a in task.ads):
            continue  # the model never retrieved this view; report no number
        vhit = vtotal = 0
        for ad_id in task.ads:
            tset = per_ad.get(ad_id, set())
            vhit += len(tset.intersection(retrieved.get(ad_id, {}).get(view, ())))
            vtotal += len(tset)
        if vtotal > 0:
            per_view[view] = vhit / vtotal
    return RecallResult(hit / total, per_view)


_ADS_PER_BLOCK = 256  # ads scored by one GEMM: 256 x 2,500 scores take 5 MB


def _certified_top(cand_ids: np.ndarray, cand_mat: np.ndarray, ad_mat: np.ndarray, k: int):
    """(lists, certified): each ad row's k best candidates by one GEMM, and
    whether that is certainly `_rank`'s list (module docstring). B is 1%
    larger for the norms' rounding and d * tiny for underflow, which the
    bound leaves out; |a| max|c| near overflow certifies nothing."""
    scores = ad_mat @ cand_mat.T
    (n, d), fp = cand_mat.shape, np.finfo(scores.dtype)
    m = min(k + 1, n)
    top = np.argpartition(scores, n - m, axis=1)[:, n - m:]
    scores = np.take_along_axis(scores, top, axis=1)
    order = np.argsort(-scores, axis=1, kind="stable")
    top, scores = np.take_along_axis(top, order, 1), np.take_along_axis(scores, order, 1)
    norm_a, norm_c = (np.sqrt(np.einsum("ij,ij->i", x, x) + d * fp.tiny)
                      for x in (ad_mat, cand_mat))
    reach, u = norm_a * norm_c.max(initial=0.0), fp.eps / 2
    four_b = 4 * (1.01 * d * u / (1 - d * u) * reach + d * fp.tiny)
    certified = (np.isfinite(scores).all(axis=1) & (reach < fp.max / 2)
                 & (scores[:, :-1] - scores[:, 1:] > four_b[:, None]).all(axis=1))
    return cand_ids[top[:, :k]].tolist(), certified


def retrieve_all(store: EmbeddingStore, graph: HeteroGraph, cat_index: CategoryIndex,
                 task: EvalTask, k: int) -> dict:
    """Per-ad per-view lists, `list_length(store.views, k)` long, ranked as
    topk_retrieve ranks them (by certified GEMM blocks, module docstring)."""
    kk = list_length(store.views, k)
    # candidate_keywords hands out one shared id array per category; holding
    # the array in its entry keeps its id() from being reused
    groups, empty = {}, []
    for ad_id in task.ads:
        cand_ids = cat_index.candidate_keywords(graph, ad_id)
        if len(cand_ids):
            groups.setdefault(id(cand_ids), (cand_ids, []))[1].append(ad_id)
        else:
            empty.append(ad_id)
    if empty:
        logger.warning("%d ads have an empty candidate set, first ad %s", len(empty), empty[0])
    out = {ad_id: {view: [] for view in store.views} for ad_id in task.ads}
    certified = 0
    for cand_ids, ads in groups.values():
        for view in store.views:
            cand_mat = store.gather(view, NodeType.KEYWORD, cand_ids)
            ad_mat = store.gather(view, NodeType.AD, ads)
            for start in range(0, len(ads), _ADS_PER_BLOCK):
                block = slice(start, start + _ADS_PER_BLOCK)
                lists, ok = _certified_top(cand_ids, cand_mat, ad_mat[block], kk)
                certified += int(ok.sum())
                for ad_id, z, top, good in zip(ads[block], ad_mat[block], lists, ok):
                    out[ad_id][view] = top if good else _rank(cand_ids, cand_mat, z, kk)
    logger.debug("retrieve_all: GEMM certified %d ad-view lists, _rank ranked %d",
                 certified, (len(task.ads) - len(empty)) * len(store.views) - certified)
    return out
