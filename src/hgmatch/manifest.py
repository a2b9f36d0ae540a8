"""Run manifests: config echo, seed, input fingerprints, loss trajectory."""

from __future__ import annotations

import hashlib

from .config import config_as_dict


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return f"sha256:{h.hexdigest()}"


def write_manifest(path, cfg=None, variant=None, inputs=None, fit=None, extra=None):
    """Flat `key = value` text; no timestamps, so identical runs write
    identical manifests."""
    lines = ["# run manifest"]
    if cfg is not None:
        for key, value in config_as_dict(cfg).items():
            lines.append(f"config.{key} = {value}")
    if variant is not None:
        lines.append(f"variant = {variant}")
    for name, p in sorted((inputs or {}).items()):
        lines.append(f"input.{name} = {sha256_file(p)}")
    if fit is not None:
        lines.append(f"train.skipped_pairs = {fit.skipped_pairs}")
        lines.append(f"train.batches = {len(fit.batch_losses)}")
        for epoch, mean in enumerate(fit.epoch_losses):
            lines.append(f"loss.epoch.{epoch} = {mean!r}")
    for key, value in sorted((extra or {}).items()):
        lines.append(f"{key} = {value}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

