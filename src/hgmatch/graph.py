"""Typed weighted heterogeneous graph: ingestion and neighbor queries.

The graph is built once from edge/node files and then frozen. Every
relation is indexed from both endpoints as a CSR table of neighbor rows,
each row sorted by descending weight (ties: ascending node id), and all
query methods are read-only, so concurrent lookups are safe.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class EdgeRecord:
    src_type: NodeType
    src_id: int
    relation: Relation
    dst_type: NodeType
    dst_id: int
    weight: float
    location: str = ""


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
    rows = np.searchsorted(known, ids)
    found = rows < len(known)
    found[found] = known[rows[found]] == ids[found]
    if not found.all():
        raise DataError(f"{missing} {int(ids[~found][0])}")
    return rows


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

    def neighbors(self, ref: NodeRef, relation: Relation, m=None):
        """Top-m neighbors of ref under relation, by descending edge weight.

        m=None means the full neighborhood. Returns read-only (ids, weights)
        arrays; a node the relation does not touch has none.
        """
        table = self._csr.get((relation, ref.node_type))
        known = self.ids_of[ref.node_type]
        row = int(np.searchsorted(known, ref.node_id))
        if table is None or row == len(known) or known[row] != ref.node_id:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        indptr, nbrs, weights = table
        lo, hi = indptr[row], indptr[row + 1]
        if m is not None:
            hi = min(hi, lo + m)
        ids = self.ids_of[other_endpoint(relation, ref.node_type)][nbrs[lo:hi]]
        ids.flags.writeable = False
        return ids, weights[lo:hi]

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


def ingest(edge_records, node_records) -> HeteroGraph:
    """Build a frozen HeteroGraph; duplicate (src, dst, rel) edges merge by weight sum."""
    nodes = {t: {} for t in NodeType}
    for rec in node_records:
        if rec.node_id in nodes[rec.node_type]:
            raise DataError(
                f"duplicate node record {rec.node_type.value}:{rec.node_id}"
            )
        nodes[rec.node_type][rec.node_id] = rec

    columns = {rel: ([], [], []) for rel in Relation}  # src ids, dst ids, weights
    for e in edge_records:
        schema = RELATION_SCHEMA[e.relation]
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
            raise DataError(
                f"{e.location}: dangling endpoint {e.src_type.value}:{e.src_id}"
            )
        if e.dst_id not in nodes[e.dst_type]:
            raise DataError(
                f"{e.location}: dangling endpoint {e.dst_type.value}:{e.dst_id}"
            )
        src, dst, weights = columns[e.relation]
        src.append(e.src_id)
        dst.append(e.dst_id)
        weights.append(e.weight)

    graph = HeteroGraph(nodes)
    for rel, (src, dst, weights) in columns.items():
        src_t, dst_t = RELATION_SCHEMA[rel]
        src_rows, dst_rows = graph.rows(src_t, src), graph.rows(dst_t, dst)
        # one key per (src, dst) pair; duplicate weights sum in file order
        n_dst = graph.num_nodes(dst_t)
        keys, inverse = np.unique(src_rows * n_dst + dst_rows, return_inverse=True)
        merged = np.zeros(len(keys))
        np.add.at(merged, inverse, np.asarray(weights, dtype=np.float64))
        src_rows, dst_rows = keys // n_dst, keys % n_dst
        graph._csr[(rel, src_t)] = _csr_table(graph.num_nodes(src_t), src_rows, dst_rows, merged)
        graph._csr[(rel, dst_t)] = _csr_table(graph.num_nodes(dst_t), dst_rows, src_rows, merged)
    return graph


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


def parse_node_line(line: str, location: str) -> NodeRecord:
    parts = line.split()
    if len(parts) < 4:
        raise DataError(f"{location}: expected at least 4 fields, got {len(parts)}")
    ttok, nid, cat, searched = parts[:4]
    try:
        ntype = _NODE_TYPE_BY_TOKEN[ttok]
        node_id = int(nid)
        category = int(cat)
        searched_count = float(searched)
    except (KeyError, ValueError) as exc:
        raise DataError(f"{location}: {exc}") from exc
    if not math.isfinite(searched_count):
        raise DataError(f"{location}: non-finite searched count {searched!r}")
    features = {}
    for kv in parts[4:]:
        if "=" not in kv:
            raise DataError(f"{location}: feature field {kv!r} is not name=value")
        name, value = kv.split("=", 1)
        features[name] = value
    return NodeRecord(ntype, node_id, category, searched_count, features)


def iter_file_records(path, parser):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                yield parser(line, f"{path}:{lineno}")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def load_graph(edge_path, node_path) -> HeteroGraph:
    nodes = list(iter_file_records(node_path, parse_node_line))
    edges = list(iter_file_records(edge_path, parse_edge_line))
    return ingest(edges, nodes)
