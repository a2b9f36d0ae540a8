"""Trainable tensors: creation, naming, and bit-exact checkpointing.

Every tensor has a stable slash-separated name (table/..., fusion/...,
conv/<path>/k<layer>/..., att/<tower>, view/<tower>/<view>/...) so the
optimizer state, checkpoints and gradient checks can address parameters
uniformly.
"""

from __future__ import annotations

import io
import json
import zipfile

import numpy as np

from .autodiff import Tensor
from .config import TrainConfig, VariantSpec, VARIANTS, config_as_dict
from .errors import DataError
from .features import FeatureManifest
from .graph import NodeType

CHECKPOINT_VERSION = 1


class ModelParams:
    def __init__(self, tensors: dict, meta: dict):
        self.tensors = tensors
        self.meta = meta

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def names(self):
        return sorted(self.tensors)

    def zero_grads(self):
        for t in self.tensors.values():
            t.grad = None


def _glorot(rng, shape):
    fan_in = shape[0] if len(shape) > 1 else 1
    fan_out = shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _table_init(rng, vocab, width):
    limit = np.sqrt(3.0 / width)
    return rng.uniform(-limit, limit, size=(vocab, width))


def init_params(
    manifest: FeatureManifest,
    cfg: TrainConfig,
    variant: VariantSpec,
    paths_by_tower: dict,
    rng,
) -> ModelParams:
    d, l = cfg.d, cfg.l
    tensors = {}

    def param(name, array):
        tensors[name] = Tensor(array, requires_grad=True)

    for name in sorted(manifest.tables):
        spec = manifest.tables[name]
        param(f"table/{name}", _table_init(rng, spec.size, spec.width))

    for ntype in NodeType:
        specs = manifest.per_type.get(ntype)
        if not specs:
            continue
        cw = manifest.concat_width(ntype)
        param(f"fusion/{ntype.value}/W1", _glorot(rng, (cw, d)))
        param(f"fusion/{ntype.value}/b1", np.zeros(d))
        param(f"fusion/{ntype.value}/W2", _glorot(rng, (d, d)))
        param(f"fusion/{ntype.value}/b2", np.zeros(d))

    if variant.conv:
        for tower in ("ad", "kw"):
            for tp in paths_by_tower[tower]:
                for k in range(1, len(tp.path.steps) + 1):
                    base = f"conv/{tp.path.name}/k{k}"
                    if variant.aggregator == "sage":
                        param(f"{base}/Ws", _glorot(rng, (2 * d, d)))
                        param(f"{base}/b", np.zeros(d))
                    else:
                        param(f"{base}/W", _glorot(rng, (d, d)))
                        param(f"{base}/b", np.zeros(d))
                        param(f"{base}/V", _glorot(rng, (d, l)))
                        param(f"{base}/U", _glorot(rng, (l, d)))
            param(f"att/{tower}", _glorot(rng, (d, 1)))

    for tower in ("ad", "kw"):
        for view in variant.views:
            base = f"view/{tower}/{view}"
            param(f"{base}/W1", _glorot(rng, (d, d)))
            param(f"{base}/b1", np.zeros(d))
            param(f"{base}/W2", _glorot(rng, (d, d)))
            param(f"{base}/b2", np.zeros(d))

    meta = {
        "format_version": CHECKPOINT_VERSION,
        "d": d,
        "l": l,
        "variant": variant.name,
        "views": list(variant.views),
        "aggregator": variant.aggregator,
        "groups": variant.groups,
        "config": config_as_dict(cfg),
    }
    return ModelParams(tensors, meta)


def save_checkpoint(params: ModelParams, path):
    arrays = {f"t:{name}": t.data for name, t in params.tensors.items()}
    meta_bytes = json.dumps(params.meta, sort_keys=True).encode("utf-8")
    # plain zip of .npy members with fixed timestamps -> reproducible files
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr(zipfile.ZipInfo("__meta__.json"), meta_bytes)
        for key in sorted(arrays):
            buf = io.BytesIO()
            np.save(buf, np.ascontiguousarray(arrays[key]))
            zf.writestr(zipfile.ZipInfo(key + ".npy"), buf.getvalue())


def load_checkpoint(path) -> ModelParams:
    tensors = {}
    try:
        with zipfile.ZipFile(path, "r") as zf:
            try:
                meta = json.loads(zf.read("__meta__.json").decode("utf-8"))
            except KeyError as exc:
                raise DataError(f"{path}: not a model checkpoint") from exc
            if not isinstance(meta, dict):
                raise DataError(f"{path}: not a model checkpoint")
            if meta.get("format_version") != CHECKPOINT_VERSION:
                raise DataError(
                    f"{path}: unsupported checkpoint version {meta.get('format_version')}"
                )
            for member in zf.namelist():
                if not member.startswith("t:"):
                    continue
                name, arr = member[2:-len(".npy")], np.load(io.BytesIO(zf.read(member)))
                if not np.isfinite(arr).all():
                    raise DataError(f"{path}: non-finite value in tensor {name}")
                tensors[name] = Tensor(arr, requires_grad=True)
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:  # truncated or corrupt bytes
        raise DataError(f"{path}: unreadable checkpoint: {exc}") from exc
    return ModelParams(tensors, meta)


def variant_from_meta(meta: dict) -> VariantSpec:
    spec = VARIANTS.get(meta.get("variant"))
    if spec is None:
        raise DataError(f"checkpoint has unknown variant {meta.get('variant')!r}")
    return spec
