"""Run manifests: config echo, seed, input fingerprints, loss trajectory."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import scipy

from .config import config_as_dict

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return f"sha256:{h.hexdigest()}"


def write_manifest(path, cfg=None, variant=None, inputs=None, fit=None, extra=None):
    """Flat `key = value` text; no timestamps, so identical runs on one
    machine write identical manifests. `runtime.*` holds what a trajectory's
    bits also depend on: each BLAS thread variable set (else the CPU count)
    and the numpy and scipy versions."""
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
    threads = [f"runtime.{var} = {os.environ[var]}" for var in _THREAD_VARS if var in os.environ]
    lines += threads or [f"runtime.cpu_count = {os.cpu_count()}"]
    lines += [f"runtime.numpy = {np.__version__}", f"runtime.scipy = {scipy.__version__}"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

