"""Raw node features -> integer lookup indices for the embedding tables.

Numeric features are quantile-discretized (type-7 linear interpolation),
id/term features are vocabulary indices with stable-hash fallback for
out-of-range values. Features with the same name share one lookup table
across node types. Bucket/index 0 doubles as the reserved slot for
missing or NaN values. Each feature of a node type is one `Pooling` into
its table, built once per dataset: a `select` of one row per node, or for
a terms feature each node's term indices, node after node (bucket-major),
with the term-list lengths as its `counts`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Pooling, select
from .errors import DataError
from .graph import HeteroGraph, NodeType, iter_file_records

KIND_ID = "id"
KIND_TERMS = "terms"
KIND_NUMERIC = "numeric"

DEFAULT_HASH_VOCAB = 50021
DEFAULT_BUCKETS = 16
DEFAULT_WIDTH = 8


def stable_hash(name: str, value) -> int:
    """FNV-1a on 'name:value'; independent of PYTHONHASHSEED."""
    h = 0xCBF29CE484222325
    for b in f"{name}:{value}".encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str  # id | terms | numeric
    size: int  # vocabulary size, or bucket count for numeric
    width: int

    def __post_init__(self):
        if self.kind not in (KIND_ID, KIND_TERMS, KIND_NUMERIC):
            raise DataError(f"unknown feature kind {self.kind!r}")
        if self.kind == KIND_NUMERIC and self.size < 2:
            raise DataError(f"numeric feature {self.name} needs >= 2 buckets")
        if self.size < 1 or self.width < 1:
            raise DataError(f"bad sizes for feature {self.name}")


@dataclass
class FeatureManifest:
    """Ordered feature lists per node type; same-name specs must agree."""

    per_type: dict  # {NodeType: [FeatureSpec, ...]}
    source: str = field(default="the feature manifest", compare=False)  # for messages

    def __post_init__(self):
        seen = {}
        for specs in self.per_type.values():
            for s in specs:
                if s.name in seen and seen[s.name] != s:
                    raise DataError(
                        f"feature {s.name!r} declared with conflicting spec "
                        f"(shared tables require identical kind/size/width)"
                    )
                seen[s.name] = s
        self.tables = seen  # {name: FeatureSpec}

    def concat_width(self, node_type: NodeType) -> int:
        return sum(s.width for s in self.per_type.get(node_type, []))


def save_manifest(manifest: FeatureManifest, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# node_type\tfeature\tkind\tsize\twidth\n")
        for ntype in NodeType:
            for s in manifest.per_type.get(ntype, []):
                fh.write(f"{ntype.value}\t{s.name}\t{s.kind}\t{s.size}\t{s.width}\n")


def parse_manifest_line(line: str, location: str) -> tuple:
    """`node_type feature kind size width` -> (NodeType, FeatureSpec); a size
    of `-` is the default hash vocabulary."""
    parts = line.split()
    if len(parts) != 5:
        raise DataError(f"{location}: expected 5 fields")
    ttok, name, kind, size, width = parts
    try:
        vocab = DEFAULT_HASH_VOCAB if size == "-" else int(size)
        return NodeType(ttok), FeatureSpec(name, kind, vocab, int(width))
    except (ValueError, DataError) as exc:
        raise DataError(f"{location}: {exc}") from exc


def load_manifest(path) -> FeatureManifest:
    per_type = {}
    for ntype, spec in iter_file_records(path, parse_manifest_line):
        per_type.setdefault(ntype, []).append(spec)
    return FeatureManifest(per_type, source=str(path))


# --- quantile discretization ---------------------------------------------

@dataclass
class QuantileBoundaries:
    feature_name: str
    boundaries: np.ndarray  # strictly increasing, length <= bucket_count - 1
    degenerate: bool = False  # all inputs identical -> single bucket


def fit_quantiles(values, bucket_count: int, feature_name: str = "") -> QuantileBoundaries:
    """Boundaries at empirical quantiles k/bucket_count (linear interpolation)."""
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        raise DataError(f"cannot fit quantiles for {feature_name!r}: no values")
    vals = vals[~np.isnan(vals)]
    if vals.size == 0 or np.all(vals == vals[0]):
        return QuantileBoundaries(feature_name, np.empty(0), degenerate=True)
    qs = np.arange(1, bucket_count) / bucket_count
    bounds = np.quantile(vals, qs, method="linear")
    bounds = np.unique(bounds)  # collapse duplicates; fewer effective buckets
    return QuantileBoundaries(feature_name, bounds)


def discretize(x, q: QuantileBoundaries) -> int:
    """Bucket id = number of boundaries <= x; NaN maps to the reserved bucket 0."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return 0
    return int(np.searchsorted(q.boundaries, x, side="right"))


def save_boundaries(bounds_by_name: dict, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# feature\tboundaries...\n")
        for name in sorted(bounds_by_name):
            q = bounds_by_name[name]
            vals = " ".join(repr(float(b)) for b in q.boundaries)
            fh.write(f"{name}\t{vals}\n".rstrip() + "\n")


def parse_boundary_line(line: str, location: str) -> QuantileBoundaries:
    name, *values = line.split()
    try:
        bounds = np.array([float(v) for v in values], dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"{location}: {exc}") from exc
    if not np.all(np.isfinite(bounds)) or np.any(np.diff(bounds) <= 0):
        raise DataError(f"{location}: boundaries of {name} must be finite and increasing")
    return QuantileBoundaries(name, bounds, degenerate=bounds.size == 0)


def load_boundaries(path) -> dict:
    return {q.feature_name: q for q in iter_file_records(path, parse_boundary_line)}


def fit_graph_quantiles(graph: HeteroGraph, manifest: FeatureManifest) -> dict:
    """Fit boundaries for every numeric feature from the ingested node records."""
    values = {}
    for ntype, specs in manifest.per_type.items():
        numeric = [s for s in specs if s.kind == KIND_NUMERIC]
        if not numeric:
            continue
        for rec in graph.nodes[ntype].values():
            for s in numeric:
                raw = rec.features.get(s.name)
                if raw is not None:
                    values.setdefault(s.name, []).append(_numeric(raw, s, rec))
    out = {}
    for ntype, specs in manifest.per_type.items():
        for s in specs:
            if s.kind == KIND_NUMERIC and s.name not in out:
                out[s.name] = fit_quantiles(values.get(s.name, [0.0]), s.size, s.name)
    return out


def _numeric(raw, spec: FeatureSpec, rec) -> float:
    """float(raw), or a DataError naming the feature and the node. NaN is a
    value (the reserved bucket); an infinity is not."""
    try:
        x = float(raw)
        if not math.isinf(x):
            return x
    except ValueError:
        pass
    raise DataError(f"bad numeric value {raw!r} for {spec.name} on "
                    f"{rec.node_type.value}:{rec.node_id}")


# --- encoded layout --------------------------------------------------------

@dataclass
class TypeLayout:
    node_type: NodeType
    specs: list
    single: dict  # {feature_name: `select` of each node's row of the table}
    terms: dict   # {feature_name: Pooling of each node's term rows of the table}


@dataclass
class EncodeStats:
    oov: int = 0
    nan: int = 0
    missing: int = 0


class FeatureEncoder:
    """Precomputes table indices for every node, in dense (sorted-id) order."""

    def __init__(self, manifest: FeatureManifest, boundaries: dict):
        self.manifest = manifest
        self.boundaries = boundaries
        self.stats = EncodeStats()

    def _index_value(self, spec: FeatureSpec, raw) -> int:
        if raw is None:
            self.stats.missing += 1
            return 0
        try:
            v = int(raw)
        except ValueError:
            self.stats.oov += 1
            return stable_hash(spec.name, raw) % spec.size
        if 0 <= v < spec.size:
            return v
        self.stats.oov += 1
        return stable_hash(spec.name, v) % spec.size

    def encode_graph(self, graph: HeteroGraph) -> dict:
        layouts = {}
        for ntype, specs in self.manifest.per_type.items():
            ids = graph.ids_of[ntype]
            records = [graph.nodes[ntype][int(i)] for i in ids]
            single, terms = {}, {}
            for spec in specs:
                if spec.kind == KIND_TERMS:
                    flat, counts = [], []
                    for rec in records:
                        raw = rec.features.get(spec.name)
                        toks = [] if raw in (None, "") else raw.split(",")
                        flat.extend(self._index_value(spec, t) for t in toks)
                        counts.append(len(toks))
                    rows = np.repeat(np.arange(len(records)), counts)
                    terms[spec.name] = Pooling(flat, rows, len(records), spec.size)
                elif spec.kind == KIND_NUMERIC:
                    q = self.boundaries.get(spec.name)
                    if q is None:
                        raise DataError(f"no quantile boundaries for {spec.name!r}")
                    if len(q.boundaries) >= spec.size:
                        raise DataError(f"{len(q.boundaries)} boundaries for {spec.name!r}, "
                                        f"which has {spec.size} buckets")
                    col = np.zeros(len(records), dtype=np.int64)
                    for row, rec in enumerate(records):
                        raw = rec.features.get(spec.name)
                        if raw is None:
                            self.stats.missing += 1
                            continue
                        x = _numeric(raw, spec, rec)
                        if math.isnan(x):
                            self.stats.nan += 1
                            continue
                        col[row] = discretize(x, q)
                    single[spec.name] = select(col, spec.size)
                else:  # id
                    col = [self._index_value(spec, rec.features.get(spec.name)) for rec in records]
                    single[spec.name] = select(col, spec.size)
            layouts[ntype] = TypeLayout(ntype, list(specs), single, terms)
        return layouts
