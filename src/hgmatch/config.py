"""Dataclass configs and the flat key=value config file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DataError
from .graph import iter_file_records

VIEW_AD_CLICK = "ad_click"
VIEW_AD_BID = "ad_bid"
VIEW_ITEM_CLICK = "item_click"
ALL_VIEWS = (VIEW_AD_CLICK, VIEW_AD_BID, VIEW_ITEM_CLICK)


def check_fields(cfg, positive=(), unit=()):
    """DataError unless every numeric field is finite and non-negative, each
    field named in `positive` is above 0 and each named in `unit` at most 1."""
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, float) and not math.isfinite(v):
            raise DataError(f"config field {f.name} must be finite, got {v}")
        if isinstance(v, (int, float)) and v < 0:
            raise DataError(f"config field {f.name} must be non-negative")
    for name in positive:
        if getattr(cfg, name) == 0:
            raise DataError(f"config field {name} must be positive")
    for name in unit:
        if getattr(cfg, name) > 1:
            raise DataError(f"config field {name} must be in [0, 1]")


@dataclass
class TrainConfig:
    learning_rate: float = 0.03
    batch_size: int = 512
    epochs: int = 5
    d: int = 64                 # hidden size
    l: int = 16                 # autoencoder latent size
    m: int = 10                 # neighbors kept per hop
    kappa: int = 3              # influential neighbors in the matching layer
    negatives: int = 5
    gamma: float = 1.0          # softmax smoothing factor
    seed: int = 0

    def __post_init__(self):
        check_fields(self, positive=("batch_size", "l", "negatives"))
        if self.l >= self.d:
            raise DataError("latent size l must be smaller than hidden size d")


@dataclass(frozen=True)
class VariantSpec:
    """One ablation row: which model pieces are switched on."""

    name: str
    conv: bool = True           # False -> plain two-tower on fused features
    siamese: bool = True
    views: tuple = ALL_VIEWS
    aggregator: str = "autoencoder"  # or "sage"
    groups: str = "all"         # metapath groups: all | bid | item


VARIANTS = {
    "full": VariantSpec("full"),
    "no_siamese": VariantSpec("no_siamese", siamese=False),
    "single_view": VariantSpec("single_view", views=(VIEW_AD_CLICK,)),
    "sage": VariantSpec("sage", aggregator="sage"),
    "bid_only": VariantSpec("bid_only", groups="bid"),
    "item_only": VariantSpec("item_only", groups="item"),
    "dssm": VariantSpec("dssm", conv=False, siamese=False),
}
ABLATION_ORDER = ("full", "no_siamese", "single_view", "sage", "bid_only", "item_only", "dssm")


@dataclass
class SynthConfig:
    ads: int = 1000
    keywords: int = 2000
    items: int = 500
    categories: int = 4
    clusters: int = 20
    # edge densities over the full src x dst pair space, per relation
    density_ad_click_kw: float = 0.005
    density_ad_bid_kw: float = 0.005
    density_item_click_kw: float = 0.010
    density_ad_coclick_item: float = 0.012
    noise_edge_frac: float = 0.05   # edges placed across clusters
    target_frac: float = 0.25       # held-out relations per view
    cold_start_frac: float = 0.10
    labels_per_view: int = 4000
    term_vocab: int = 1000
    terms_per_node: int = 6
    term_noise: float = 0.5         # chance a term ignores the cluster topic
    seed: int = 0

    def __post_init__(self):
        check_fields(
            self,
            positive=("ads", "keywords", "items", "categories", "clusters", "term_vocab"),
            unit=(
                "density_ad_click_kw", "density_ad_bid_kw", "density_item_click_kw",
                "density_ad_coclick_item", "noise_edge_frac", "target_frac",
                "cold_start_frac", "term_noise",
            ),
        )
        for name in ("keywords", "items"):  # every cluster draws from its own
            if getattr(self, name) < self.clusters:
                raise DataError(f"config field {name} ({getattr(self, name)}) must be at least "
                                f"clusters ({self.clusters})")


_CONFIG_KEYS = {f.name for cls in (SynthConfig, TrainConfig) for f in fields(cls)}


def parse_config_line(line: str, location: str) -> tuple:
    """`key = value`, with anything after a `#` a comment."""
    key, sep, value = line.split("#", 1)[0].partition("=")
    if not sep:
        raise DataError(f"{location}: expected key = value")
    return key.strip(), value.strip()


def load_config_file(path) -> dict:
    """Flat `key = value` lines; `#` comments; later keys win."""
    return dict(iter_file_records(path, parse_config_line))


def apply_overrides(cls, raw: dict):
    """Build a dataclass from key/values: strings, or a checkpoint's JSON values.

    Keys of the other config class are skipped, so one file can hold both;
    a key that belongs to neither is a DataError.
    """
    kwargs = {}
    types = {f.name: {"int": int, "float": float}[f.type] for f in fields(cls)}
    for key, value in raw.items():
        typ = types.get(key)
        if typ is None:
            if key not in _CONFIG_KEYS:
                raise DataError(f"unknown config key {key!r}")
            continue
        try:
            kwargs[key] = typ(str(value))
        except ValueError as exc:
            raise DataError(f"bad value {value!r} for config key {key}: {exc}") from exc
    return cls(**kwargs)


def config_as_dict(cfg) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}
