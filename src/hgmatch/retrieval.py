"""Embedding export, exact top-K retrieval, and recall evaluation.

Retrieval is brute-force dot product over the ad's same-category candidate
set, ranked as a stable sort on -score ranks it (ties by ascending id, NaN
last). A pass scores blocks of a category's ads by one GEMM. A GEMM score
and a per-ad matrix-vector score each lie within B = gamma_d |a| max|c| of
the exact dot product (Higham 2002, section 3.1; gamma_d = d u / (1 - d u)),
so a row whose K + 1 best GEMM scores are finite and each more than 4B above
the next has the list either gives; every other row is ranked alone
(`_rank`). Export runs the forward without a tape, then array passes
(`_quantize`) find each value's nine significant digits and the value they
read back as; the dump writes the digits as 16-byte `%+.8e` cells, so export
-> dump -> reload -> score is reproducible bit for bit. The dump is read back
in chunks, fields checked as columns; cells are parsed as machine words
(`_parse_cells`), other values by np.loadtxt (no `1_0`, no non-ASCII digits).
A dump failing a check is re-read line by line to name the line.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .config import ALL_VIEWS
from .errors import DataError, NumericError
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
    # {view: {NodeType: (nine digits, decimal exponents)}} as export found them;
    # None for a loaded or hand-built store, whose dump quantizes the matrices
    digits: dict = field(default=None, repr=False)

    def gather(self, view: str, ntype: NodeType, ids) -> np.ndarray:
        """Vectors of `ids`; a DataError names the view, type and first id without one."""
        known, mat = self.vectors.get(view, {}).get(
            ntype, (np.empty(0, np.int64), np.empty((0, self.d))))
        missing = f"embeddings have no {view} vector for {ntype.value} id"
        return mat[lookup_rows(known, ids, missing)]

    def vector(self, view: str, ntype: NodeType, node_id: int) -> np.ndarray:
        return self.gather(view, ntype, [node_id])[0]


# A dump cell is `%+.8e` and a separator, 16 bytes: the little-endian words
# "sd.ddddd" "ddde+XX " (a row's last separator is a newline), rendered from
# four ASCII digits of 0..9999, the sign, first digit and point by
# 10 * negative + digit, and the exponent and separator by X + 99.
_DIGITS4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), "<u4").astype(np.uint64)
_HEAD = np.array([int.from_bytes(b"%c%d." % (s, f), "little") for s in b"+-" for f in range(10)],
                 np.uint64)
_TAIL = np.array([int.from_bytes(b"e%+03d " % x, "little") << 24 for x in range(-99, 100)], np.uint64)
_WIDE = -128  # the exponent of a value whose `%+.8e` text is not 15 bytes
_POW10 = np.array([10 ** k for k in range(23)], dtype=np.float64)  # each one exact
_BLOCK = 8192  # values per pass: 64 KiB arrays, in cache and below malloc's mmap threshold


def _quantize(matrix: np.ndarray) -> tuple:
    """((digits, exponents), values): each value's nine significant digits r
    and decimal exponent X as `%+.8e` writes them, and the matrix that text
    reads back as, bit for bit, with no Python float or str per value.

    For X in [-14, 8], r = round(|x| * 10^(8-X)) and x reads back as
    r / 10^(8-X): both numbers are exact, so that one division is the
    correctly rounded decimal. The product carries one rounding (<= 6e-8), so
    a value is formatted one at a time if its scaled fraction lies within
    1e-6 of one half, if it is zero or not finite, or if log10 or the rounding move
    it out of nine digits or out of that range; X is _WIDE if its text has no
    two-digit exponent.
    """
    (n, d), step = matrix.shape, max(1, _BLOCK // matrix.shape[1])
    digits, exponents, values = np.empty((n, d), np.uint32), np.empty((n, d), np.int8), np.empty((n, d))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        x = np.asarray(matrix[rows], dtype=np.float64)
        a = np.abs(x)
        one_at_a_time = ~(np.isfinite(a) & (a > 0))
        a[one_at_a_time] = 1.0
        e = np.clip(np.floor(np.log10(a)), -14, 8).astype(np.intp)
        p = a * _POW10[8 - e]
        r = np.rint(p)
        one_at_a_time |= (p < 1e8) | (r >= 1e9) | (np.abs(p - r) > 0.5 - 1e-6)
        values[rows] = np.copysign(r / _POW10[8 - e], x)
        for i, j in zip(*np.nonzero(one_at_a_time)):
            text = "%.8e" % x[i, j]
            values[start + i, j] = float(text)
            mantissa, _, exponent = text.lstrip("-").partition("e")
            r[i, j], e[i, j] = ((int(mantissa.replace(".", "")), int(exponent))
                                if len(exponent) == 3 else (0, _WIDE))
        digits[rows], exponents[rows] = r, e
    return (digits, exponents), values


def export_embeddings(model: MatchingModel) -> EmbeddingStore:
    """Compute final per-view vectors for every ad and keyword.

    The forward records no tape; the store keeps each value's digits. A
    non-finite vector is a NumericError naming its view, type and id."""
    graph = model.graph
    with ad.no_grad(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fwd = model.forward(graph.ids_of[NodeType.AD], graph.ids_of[NodeType.KEYWORD])
    views = tuple(model.variant.views)
    vectors, digits = {}, {}
    for view in views:
        for ntype, tower in ((NodeType.AD, AD_TOWER), (NodeType.KEYWORD, KW_TOWER)):
            ids, data = fwd.towers[tower].plan.req_ids, fwd.towers[tower].per_view[view].data
            bad = ~np.isfinite(data).all(axis=1)
            if bad.any():
                raise NumericError(f"non-finite {view} embedding for {ntype.value} id {ids[bad][0]}")
            digits.setdefault(view, {})[ntype], mat = _quantize(data)
            vectors.setdefault(view, {})[ntype] = (ids, mat)
    return EmbeddingStore(model.cfg.d, views, vectors, digits)


def _dump_lines(digits, exponents, mat) -> list:
    """Each row of `mat` as dump text: `%+.8e` cells, or `%.9g` if a cell is _WIDE."""
    r = digits.astype(np.intp)
    q = r // 10000
    first = q // 10000
    lo = _DIGITS4[r - q * 10000]
    words = np.empty(r.shape + (2,), "<u8")
    words[..., 0] = _HEAD[first + 10 * np.signbit(mat)] | _DIGITS4[q - first * 10000] << 24 | lo << 56
    words[..., 1] = lo >> 8 | _TAIL[exponents.astype(np.intp) + 99]
    words[:, -1, 1] ^= (32 ^ 10) << 56  # the last separator is a newline
    lines = words.reshape(len(r), -1).view(f"S{16 * r.shape[1]}").ravel().tolist()
    for i in np.flatnonzero((exponents == _WIDE).any(axis=1)).tolist():
        lines[i] = (" ".join("%.9g" % v for v in mat[i].tolist()) + "\n").encode()
    return lines


def save_embeddings(store: EmbeddingStore, path):
    step = max(1, _BLOCK // store.d)
    with open(path, "wb") as fh:
        fh.write(b"# node_type\tnode_id\tview\tvalues...\n")
        for ntype in (NodeType.AD, NodeType.KEYWORD):
            ids = store.vectors[store.views[0]][ntype][0].tolist()
            for start in range(0, len(ids), step):
                rows, columns = slice(start, start + step), []
                for view in store.views:
                    mat = store.vectors[view][ntype][1][rows]
                    digits, exponents = (_quantize(mat)[0] if store.digits is None
                                         else (a[rows] for a in store.digits[view][ntype]))
                    head = b"%s\t%%d\t%s\t" % (ntype.value.encode(), view.encode())
                    columns += [[head % i for i in ids[rows]], _dump_lines(digits, exponents, mat)]
                fh.write(b"".join([part for line in zip(*columns) for part in line]))


_CHUNK_LINES = 256  # dump lines per chunk: 16,384 cells at d = 64
# float64 rows of whitespace-separated numbers as loadtxt reads them: no `1_0`, no non-ASCII digits
_parse_values = functools.partial(np.loadtxt, dtype=np.float64, ndmin=2, comments=None)
# Per byte of a cell `%+.8e ` (s a sign, d a digit) as two words: the bits
# compared, what they read before and after the third row is added (a digit
# stays 0x3_ when 6 is added), and the bit in which a sign's bits 1 and 2 differ.
_CELL = np.array([{"d": (0xF0, 0x30, 6, 0), "s": (0xF9, 0x29, 0, 2)}.get(c, (0xFF, ord(c), 0, 0))
                  for c in "sd.ddddddddesdd "], np.uint8).T.copy().view("<u8")
# +-10^(8-X) by |X| + 128 * (X < 0) + 256 * (value < 0); NaN where it is not exact
_DIVISOR = np.full(512, np.nan)
_DIVISOR[[abs(x) + 128 * (x < 0) for x in range(-14, 9)]] = _POW10[::-1]
_DIVISOR[256:] = -_DIVISOR[:256]


def _parse_cells(vals) -> np.ndarray:
    """What `_parse_values` reads from `vals`; where all are `%+.8e` cells of one
    length, from their bytes as machine words: digits r, exponent X, r / 10^(8-X)."""
    width = len(vals[0])
    if width % 16 != 15 or set(map(len, vals)) != {width}:
        return _parse_values(vals)
    w = np.frombuffer((" ".join(vals) + " ").encode("ascii", "replace"), "<u8").reshape(len(vals), -1)
    mask, want, add, sign = np.tile(_CELL, w.shape[1] // 2)
    if ((w & mask ^ want) | ((w + add) & mask ^ want) | ((w ^ w >> 1) & sign ^ sign)).any():
        return _parse_values(vals)
    w0, w1 = w[:, 0::2], w[:, 1::2]
    m = (w0 >> 24 | w1 << 40) & 0x0F0F0F0F0F0F0F0F  # digits 2-9, combined in pairs
    m = (m * 10 + (m >> 8)) & 0x00FF00FF00FF00FF
    m = (m * 100 + (m >> 16)) & 0x0000FFFF0000FFFF
    m = ((m * 10000 + (m >> 32)) & 0xFFFFFFFF) + (w0 >> 8 & 0x0F) * 100000000
    x = w1 >> 40 & 0x0F0F
    values = m / _DIVISOR[(x * 10 + (x >> 8)) & 0xFF | (w1 >> 32 & 4) << 5 | (w0 & 4) << 6]
    return _parse_values(vals) if np.isnan(values).any() else values


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
            values = _parse_cells(vals)
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
