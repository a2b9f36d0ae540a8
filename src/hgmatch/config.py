"""Dataclass configs and the flat key=value config file format."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields

from .errors import DataError

VIEW_AD_CLICK = "ad_click"
VIEW_AD_BID = "ad_bid"
VIEW_ITEM_CLICK = "item_click"
ALL_VIEWS = (VIEW_AD_CLICK, VIEW_AD_BID, VIEW_ITEM_CLICK)


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
    attention_scale: bool = False   # divide attention logits by sqrt(d)
    l2_normalize: bool = False      # normalize z before dot products
    raw_prob_loss: bool = False     # sum raw posteriors instead of log-likelihood

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise DataError(f"config field {f.name} must be finite, got {v}")
            if isinstance(v, (int, float)) and not isinstance(v, bool) and v < 0:
                raise DataError(f"config field {f.name} must be non-negative")
        if self.batch_size == 0:
            raise DataError("config field batch_size must be positive")
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
        for name in ("ads", "keywords", "items", "categories", "clusters"):
            if getattr(self, name) <= 0:
                raise DataError(f"synth config {name} must be positive")
        for name in ("noise_edge_frac", "target_frac", "cold_start_frac", "term_noise"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DataError(f"synth config {name} must be in [0, 1]")


def parse_value(text: str, typ):
    if typ is bool:
        low = text.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise DataError(f"bad boolean {text!r}")
    if typ is tuple:
        return tuple(t for t in text.replace(",", " ").split() if t)
    return typ(text)


def load_config_file(path) -> dict:
    """Flat `key = value` lines; `#` comments; later keys win."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def apply_overrides(cls, raw: dict):
    """Build a dataclass from string key/values, ignoring unrelated keys."""
    kwargs = {}
    by_name = {f.name: f for f in fields(cls)}
    for key, value in raw.items():
        f = by_name.get(key)
        if f is None:
            continue
        typ = f.type if not isinstance(f.type, str) else {
            "int": int, "float": float, "bool": bool, "str": str, "tuple": tuple
        }.get(f.type, str)
        try:
            kwargs[key] = parse_value(str(value), typ)
        except (TypeError, ValueError) as exc:
            raise DataError(f"bad value {value!r} for config key {key}: {exc}") from exc
    return cls(**kwargs)


def config_as_dict(cfg) -> dict:
    return {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
