"""Typed weighted heterogeneous graph: ingestion and neighbor queries.

The graph is built once from edge/node files and then frozen. Every
relation is indexed from both endpoints as a CSR table of neighbor rows,
each row sorted by descending weight (ties: ascending node id), and all
query methods are read-only, so concurrent lookups are safe. Every record
file is read by `read_chunks`, a chunk of lines at a time, which alone names
a bad file's first bad line.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError


class NodeType(enum.Enum):
    AD = "ad"
    KEYWORD = "keyword"
    ITEM = "item"


class Relation(enum.Enum):
    AD_CLICK_KW = "ad_click_kw"
    AD_BID_KW = "ad_bid_kw"
    ITEM_CLICK_KW = "item_click_kw"
    AD_COCLICK_ITEM = "ad_coclick_item"


RELATION_SCHEMA = {
    Relation.AD_CLICK_KW: (NodeType.AD, NodeType.KEYWORD),
    Relation.AD_BID_KW: (NodeType.AD, NodeType.KEYWORD),
    Relation.ITEM_CLICK_KW: (NodeType.ITEM, NodeType.KEYWORD),
    Relation.AD_COCLICK_ITEM: (NodeType.AD, NodeType.ITEM),
}
NODE_TYPES, RELATIONS = tuple(NodeType), tuple(Relation)


@dataclass(frozen=True)
class NodeRef:
    node_type: NodeType
    node_id: int


@dataclass
class NodeRecord:
    node_type: NodeType
    node_id: int
    category_id: int  # -1 when unknown
    searched_count: float
    features: dict = field(default_factory=dict)


class EdgeColumns(NamedTuple):
    """An edge file as columns, one entry per edge line in file order. A
    type or relation is its index in NODE_TYPES or RELATIONS."""
    path: str
    line: np.ndarray  # line number of each edge
    src_type: np.ndarray
    src_id: np.ndarray  # int64, or object if an id does not fit
    relation: np.ndarray
    dst_type: np.ndarray
    dst_id: np.ndarray
    weight: np.ndarray


def other_endpoint(relation: Relation, node_type: NodeType) -> NodeType:
    src, dst = RELATION_SCHEMA[relation]
    if node_type == src:
        return dst
    if node_type == dst:
        return src
    raise ValueError(f"{relation.value} does not touch node type {node_type.value}")


@dataclass(frozen=True)
class Metapath:
    """A walk recipe: a relation per hop, starting from source_type.

    Hop direction is implied by the current node type (all relations here
    connect two distinct types, so each step has exactly one way forward).
    """

    name: str
    source_type: NodeType
    steps: tuple

    def __post_init__(self):
        if len(self.steps) < 1:
            raise ValueError("metapath needs at least one step")
        t = self.source_type
        for rel in self.steps:
            t = other_endpoint(rel, t)  # raises if incompatible

    def type_chain(self):
        """Node type at each depth, root first."""
        chain = [self.source_type]
        for rel in self.steps:
            chain.append(other_endpoint(rel, chain[-1]))
        return chain


def lookup_rows(known: np.ndarray, ids, missing: str) -> np.ndarray:
    """Rows of `ids` in the ascending id array `known`; an id not there is a
    DataError that reads `{missing} {id}`."""
    ids = np.asarray(ids, dtype=np.int64)
    rows, found = _find(known, ids)
    if not found.all():
        raise DataError(f"{missing} {int(ids[~found][0])}")
    return rows


def _find(known: np.ndarray, ids: np.ndarray) -> tuple:
    """(rows, found): where each of `ids` sorts into `known`, and whether it is there."""
    rows = np.searchsorted(known, ids)
    found = rows < len(known)
    found[found] = known[rows[found]] == ids[found]
    return rows, found


class HeteroGraph:
    """Frozen typed graph with one CSR table per (relation, side).

    A node's row is its index in the ascending `ids_of` of its type. Row r
    of a table lists r's neighbors as rows of the other type, by
    descending weight, ties by ascending id, so top-m is a prefix of the
    row and a hop is index arithmetic with no id lookup.
    """

    def __init__(self, nodes):
        # nodes: {NodeType: {node_id: NodeRecord}}
        self.nodes = nodes
        self.ids_of = {
            t: np.array(sorted(recs.keys()), dtype=np.int64) for t, recs in nodes.items()
        }
        # {(Relation, NodeType): (indptr, neighbor rows, weights)}, filled by ingest
        self._csr = {}

    def num_nodes(self, node_type: NodeType) -> int:
        return len(self.nodes[node_type])

    def rows(self, node_type: NodeType, ids) -> np.ndarray:
        """Rows of `ids` in ids_of[node_type]; DataError for an id not in the graph."""
        return lookup_rows(self.ids_of[node_type], ids, f"unknown {node_type.value} id")

    def expand_rows(self, node_type: NodeType, rows, relation: Relation, m=None):
        """Top-m neighbors of every node row in `rows` under relation, row
        after row.

        Returns (neighbor rows in the other type's `ids_of`, index into
        `rows` of each neighbor's parent, neighbor count per entry of `rows`).
        """
        rows = np.asarray(rows, dtype=np.int64)
        table = self._csr.get((relation, node_type))
        if table is None:
            return np.empty(0, np.int64), np.empty(0, np.int64), np.zeros(len(rows), np.int64)
        indptr, nbrs, _ = table
        start = indptr[rows]
        counts = indptr[rows + 1] - start
        if m is not None:
            counts = np.minimum(counts, m)
        parents = np.repeat(np.arange(len(rows)), counts)
        # entry i of parent p sits at start[p] + (i - first entry of p)
        idx = np.repeat(start - np.cumsum(counts) + counts, counts)
        idx += np.arange(len(idx))
        return nbrs[idx], parents, counts

    def edge_count(self, relation: Relation) -> int:
        """Distinct edges of one relation (counted from the source side)."""
        return len(self._csr[(relation, RELATION_SCHEMA[relation][0])][1])


def _csr_table(n_rows, rows, nbr_rows, weights):
    """Sort merged edges into one read-only CSR table over n_rows rows
    (rows ascend with ids, so ties by row are ties by id)."""
    order = np.lexsort((nbr_rows, -weights, rows))
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    table = (indptr, nbr_rows[order], weights[order])
    for arr in table:
        arr.flags.writeable = False
    return table


def ingest(edges: EdgeColumns, node_records) -> HeteroGraph:
    """Build a frozen HeteroGraph; duplicate (src, dst, rel) edges merge by
    weight sum in file order. A bad edge is a DataError at the first line
    that fails a check, naming the first check it fails."""
    nodes = {t: {} for t in NodeType}
    for rec in node_records:
        if rec.node_id in nodes[rec.node_type]:
            raise DataError(f"duplicate node record {rec.node_type.value}:{rec.node_id}")
        nodes[rec.node_type][rec.node_id] = rec
    graph = HeteroGraph(nodes)

    # each endpoint's row among the nodes of its type: [0] sources, [1] destinations
    rows, found = np.zeros((2, len(edges.line)), np.int64), np.zeros((2, len(edges.line)), bool)
    for end, types, ids in ((0, edges.src_type, edges.src_id), (1, edges.dst_type, edges.dst_id)):
        for code, t in enumerate(NODE_TYPES):
            sel = types == code
            rows[end, sel], found[end, sel] = _find(graph.ids_of[t], ids[sel])
    want = _SCHEMA_CODES[edges.relation]
    bad = np.stack([  # one row per check, in the order a line is checked
        (edges.src_type != want[:, 0]) | (edges.dst_type != want[:, 1]),
        ~np.isfinite(edges.weight), edges.weight < 0, ~found[0], ~found[1],
    ])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        rel, w = RELATIONS[edges.relation[i]], float(edges.weight[i])
        src_t, dst_t = (t.value for t in RELATION_SCHEMA[rel])
        st, dt = NODE_TYPES[edges.src_type[i]].value, NODE_TYPES[edges.dst_type[i]].value
        message = (
            f"relation {rel.value} expects {src_t}->{dst_t}, got {st}->{dt}",
            f"non-finite edge weight {w}",
            f"negative edge weight {w}",
            f"dangling endpoint {st}:{int(edges.src_id[i])}",
            f"dangling endpoint {dt}:{int(edges.dst_id[i])}",
        )[int(np.argmax(bad[:, i]))]
        raise DataError(f"{edges.path}:{edges.line[i]}: {message}")

    for code, rel in enumerate(RELATIONS):
        sel = edges.relation == code
        src_t, dst_t = RELATION_SCHEMA[rel]
        # one key per (src, dst) pair; duplicate weights sum in file order
        n_dst = graph.num_nodes(dst_t)
        keys, inverse = np.unique(rows[0, sel] * n_dst + rows[1, sel], return_inverse=True)
        merged = np.zeros(len(keys))
        np.add.at(merged, inverse, edges.weight[sel])
        src, dst = keys // n_dst, keys % n_dst
        graph._csr[(rel, src_t)] = _csr_table(graph.num_nodes(src_t), src, dst, merged)
        graph._csr[(rel, dst_t)] = _csr_table(graph.num_nodes(dst_t), dst, src, merged)
    return graph


TYPE_CODE = {t.value: code for code, t in enumerate(NODE_TYPES)}  # token -> index
_RELATION_CODE = {r.value: code for code, r in enumerate(RELATIONS)}
_SCHEMA_CODES = np.array([[NODE_TYPES.index(t) for t in RELATION_SCHEMA[r]] for r in RELATIONS])
# how each of an edge line's six fields parses, in the order a line is checked
_EDGE_FIELDS = (TYPE_CODE.__getitem__, int, _RELATION_CODE.__getitem__,
                TYPE_CODE.__getitem__, int, float)


# --- reading record files -----------------------------------------------------

LINES_PER_CHUNK = 512  # record lines parsed together


def read_chunks(path, parse, check=None) -> list:
    """[(line numbers, parse(lines)), ...] over the record lines of a UTF-8
    text file (stripped, neither blank nor `#` comments), LINES_PER_CHUNK at
    a time.

    A bad file is a DataError at `path:line` of the first line that `parse`
    fails on alone, or of an earlier line that `check(chunks)` names as
    (line number, message) for a rule across lines.
    """
    chunks, bad = [], None
    with open(path, "r", encoding="utf-8") as fh:  # lines end at \n, \r\n or \r only
        numbered = ((n, line) for n, line in enumerate(map(str.strip, fh), 1)
                    if line and line[0] != "#")
        try:
            while not bad and (chunk := list(itertools.islice(numbered, LINES_PER_CHUNK))):
                numbers, lines = np.array([n for n, _ in chunk]), [line for _, line in chunk]
                try:
                    chunks.append((numbers, parse(lines)))
                except (DataError, KeyError, ValueError):  # each line alone, to the first bad one
                    for n, line in zip(numbers, lines):
                        try:
                            chunks.append((np.array([n]), parse([line])))
                        except (DataError, KeyError, ValueError) as exc:
                            bad = n, (f"unknown token {exc.args[0]!r}"
                                      if isinstance(exc, KeyError) else str(exc))
                            break
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    found = (check and chunks and check(chunks)) or bad
    if found:
        raise DataError(f"{path}:{found[0]}: {found[1]}")
    return chunks


def read_records(path, parse, key=None) -> list:
    """The records `parse(lines)` yields for each chunk of a file. `key(record)`,
    when given, names what a line declares, and a second line naming it is a DataError."""
    def first_repeat(chunks):
        seen = set()
        for numbers, records in chunks:
            for n, name in zip(numbers, map(key, records)):
                if name in seen:
                    return n, f"{name} is listed twice"
                seen.add(name)

    chunks = read_chunks(path, lambda lines: list(parse(lines)), key and first_repeat)
    return [record for _, records in chunks for record in records]


def _column(parse, tokens) -> np.ndarray:
    values = list(map(parse, tokens))
    try:
        return np.array(values, dtype=np.float64 if parse is float else np.int64)
    except OverflowError:  # an id no node can have: ingest reports it dangling
        return np.array(values, dtype=object)


def parse_edge_lines(lines) -> tuple:
    """The six columns of `src_type src_id relation dst_type dst_id weight`
    lines; ids and weights parse as Python's int and float parse them."""
    for n in map(len, map(str.split, lines)):
        if n != 6:
            raise DataError(f"expected 6 fields, got {n}")
    tokens = " ".join(lines).split()
    return tuple(_column(parse, tokens[k::6]) for k, parse in enumerate(_EDGE_FIELDS))


def read_edges(path) -> EdgeColumns:
    chunks = read_chunks(path, parse_edge_lines) or [(np.empty(0, np.int64), parse_edge_lines([]))]
    return EdgeColumns(str(path), *map(np.concatenate, zip(*((n, *c) for n, c in chunks))))


def parse_id(token: str) -> int:
    """A node id as `int` parses it; ValueError unless it fits in int64."""
    node_id = int(token)
    if not -2 ** 63 <= node_id < 2 ** 63:
        raise ValueError(f"id {token} does not fit in 64 bits")
    return node_id


def parse_node_lines(lines):
    """A NodeRecord per `node_type node_id category searched name=value...` line."""
    for parts in map(str.split, lines):
        if len(parts) < 4:
            raise DataError(f"expected at least 4 fields, got {len(parts)}")
        ttok, nid, cat, searched = parts[:4]
        ntype, node_id, category = NODE_TYPES[TYPE_CODE[ttok]], parse_id(nid), int(cat)
        if not math.isfinite(searched_count := float(searched)):
            raise DataError(f"non-finite searched count {searched!r}")
        features = {}
        for kv in parts[4:]:
            name, sep, value = kv.partition("=")
            if not sep:
                raise DataError(f"feature field {kv!r} is not name=value")
            if name in features:
                raise DataError(f"feature {name} is listed twice")
            features[name] = value
        yield NodeRecord(ntype, node_id, category, searched_count, features)


def load_graph(edge_path, node_path) -> HeteroGraph:
    return ingest(read_edges(edge_path), read_records(node_path, parse_node_lines))
