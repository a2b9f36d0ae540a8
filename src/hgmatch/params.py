"""Trainable tensors: creation, naming, and bit-exact checkpointing.

Every tensor has a stable slash-separated name (table/..., fusion/...,
conv/<path>/k<layer>/..., att/<tower>, view/<tower>/<view>/...) so the
optimizer state, checkpoints and gradient checks can address parameters
uniformly. The tensors are float64 master weights, and a checkpoint holds
float64 tensors only; a training step computes over a float32 `cast` copy.
A checkpoint is a zip of one `.npy` per tensor and a `__meta__.json` of
the format version, the variant name and the config: every shape follows
from those and the feature manifest (`param_shapes`). The reader ignores
other meta keys.
"""

from __future__ import annotations

import io
import json
import zipfile

import numpy as np

from .autodiff import Tensor, cast
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

    def cast(self, dtype) -> "ModelParams":
        """A copy whose every tensor is a `cast` of this one's: a backward
        through the copy leaves its gradients, cast back, on these tensors."""
        return ModelParams({n: cast(t, dtype) for n, t in self.tensors.items()}, self.meta)

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


def param_shapes(manifest: FeatureManifest, cfg: TrainConfig, variant: VariantSpec,
                 paths_by_tower: dict) -> dict:
    """{name: shape} of every tensor a model of this manifest, config and
    variant reads, in the order `init_params` draws them."""
    d, l = cfg.d, cfg.l
    shapes = {f"table/{name}": (spec.size, spec.width)
              for name, spec in sorted(manifest.tables.items())}

    def layer(base, **named):
        shapes.update({f"{base}/{key}": shape for key, shape in named.items()})

    for ntype in NodeType:
        if manifest.per_type.get(ntype):
            layer(f"fusion/{ntype.value}", W1=(manifest.concat_width(ntype), d), b1=(d,),
                  W2=(d, d), b2=(d,))
    if variant.conv:
        for tower in ("ad", "kw"):
            for tp in paths_by_tower[tower]:
                for k in range(1, len(tp.path.steps) + 1):
                    if variant.aggregator == "sage":
                        layer(f"conv/{tp.path.name}/k{k}", Ws=(2 * d, d), b=(d,))
                    else:
                        layer(f"conv/{tp.path.name}/k{k}", W=(d, d), b=(d,), V=(d, l), U=(l, d))
            shapes[f"att/{tower}"] = (d, 1)
    for tower in ("ad", "kw"):
        for view in variant.views:
            layer(f"view/{tower}/{view}", W1=(d, d), b1=(d,), W2=(d, d), b2=(d,))
    return shapes


def init_params(
    manifest: FeatureManifest,
    cfg: TrainConfig,
    variant: VariantSpec,
    paths_by_tower: dict,
    rng,
) -> ModelParams:
    """Tables uniform, weights Glorot, biases zero, drawn in `param_shapes` order."""
    tensors = {}
    for name, shape in param_shapes(manifest, cfg, variant, paths_by_tower).items():
        if name.startswith("table/"):
            data = _table_init(rng, *shape)
        else:
            data = _glorot(rng, shape) if len(shape) == 2 else np.zeros(shape)
        tensors[name] = Tensor(data, requires_grad=True)

    meta = {"format_version": CHECKPOINT_VERSION, "variant": variant.name,
            "config": config_as_dict(cfg)}
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
                if arr.dtype != np.float64:
                    raise DataError(f"{path}: tensor {name} has dtype {arr.dtype}, not float64")
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
