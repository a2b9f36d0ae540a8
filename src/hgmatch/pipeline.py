"""End-to-end wiring: dataset loading, training runs, ablation grids."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ALL_VIEWS, TrainConfig, VariantSpec, VARIANTS, ABLATION_ORDER
from .errors import DataError
from .features import (
    FeatureEncoder,
    FeatureManifest,
    fit_graph_quantiles,
    load_boundaries,
    load_manifest,
    save_boundaries,
)
from .graph import HeteroGraph, load_graph
from .model import MatchingModel, active_paths
from .params import ModelParams, init_params, save_checkpoint
from .retrieval import (
    EvalTask,
    RecallResult,
    cold_start_split,
    export_embeddings,
    list_length,
    load_labels,
    load_task,
    recall_at_k,
    retrieve_all,
)
from .sampling import CategoryIndex
from .trainer import FitResult, Trainer

logger = logging.getLogger(__name__)


@dataclass
class Dataset:
    graph: HeteroGraph
    manifest: FeatureManifest
    boundaries: dict
    layouts: dict
    cat_index: CategoryIndex
    labels: list
    task: EvalTask


def load_dataset(edges, nodes, features, labels=None, task=None, boundaries=None) -> Dataset:
    graph = load_graph(edges, nodes)
    manifest = load_manifest(features)
    bounds = (fit_graph_quantiles(graph, manifest) if boundaries is None
              else load_boundaries(boundaries))
    encoder = FeatureEncoder(manifest, bounds)
    layouts = encoder.encode_graph(graph)
    return Dataset(
        graph=graph,
        manifest=manifest,
        boundaries=bounds,
        layouts=layouts,
        cat_index=CategoryIndex.build(graph),
        labels=load_labels(labels) if labels else [],
        task=load_task(task) if task else None,
    )


def build_model(dataset: Dataset, cfg: TrainConfig, variant: VariantSpec,
                params: ModelParams = None) -> MatchingModel:
    if params is None:
        rng = np.random.default_rng((cfg.seed, 31))
        paths_by_tower = {t: active_paths(t, variant.groups) for t in ("ad", "kw")}
        params = init_params(dataset.manifest, cfg, variant, paths_by_tower, rng)
    model = MatchingModel(dataset.graph, dataset.layouts, dataset.manifest, params, cfg, variant)
    missing = sorted(t.value for t in model.types - set(dataset.layouts))
    if missing:
        raise DataError(f"{dataset.manifest.source}: no features for node type {missing[0]!r}")
    return model


def train_variant(dataset: Dataset, cfg: TrainConfig, variant: VariantSpec, out_dir=None) -> tuple:
    """Train one variant; optionally persist checkpoint + boundaries."""
    model = build_model(dataset, cfg, variant)
    trainer = Trainer(model, dataset.cat_index, dataset.labels)
    result = trainer.fit() if cfg.epochs > 0 else FitResult()
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(model.params, out_dir / "model.ckpt")
        save_boundaries(dataset.boundaries, out_dir / "boundaries.tsv")
    return model, result


def task_cohorts(dataset: Dataset) -> tuple:
    """The dataset's task and its cold-start cohort."""
    if dataset.task is None:
        raise DataError("dataset has no evaluation task")
    return dataset.task, cold_start_split(dataset.graph, dataset.task)


def evaluate_variant(model: MatchingModel, dataset: Dataset, ks, cohorts) -> tuple:
    """Recall at each K over `cohorts` (the task and its cold-start cohort, from
    `task_cohorts`) as two {k: RecallResult} maps, from one export and one
    top-max(ks) pass: a stable sort makes a smaller K's lists prefixes of the longest."""
    store = export_embeddings(model)
    longest = retrieve_all(store, dataset.graph, dataset.cat_index, dataset.task, max(ks))
    results = ({}, {})
    for k in ks:
        n = list_length(store.views, k)
        lists = {ad: {v: lst[:n] for v, lst in per_view.items()}
                 for ad, per_view in longest.items()}
        for task, result in zip(cohorts, results):
            result[k] = recall_at_k(task, lists)
    return results


SECTION_OVERALL = "recall@3k"
SECTION_COLD = "cold-start recall@3k"


def view_section(view: str) -> str:
    return f"view {view} recall@k"


def run_ablation(dataset: Dataset, base_cfg: TrainConfig, ks, out_dir=None) -> "AblationReport":
    from .report import AblationReport

    sections = [SECTION_OVERALL] + [view_section(v) for v in ALL_VIEWS] + [SECTION_COLD]
    report = AblationReport(ks=list(ks), sections=sections, variants=list(ABLATION_ORDER), values={})
    cohorts = task_cohorts(dataset)  # a bad task fails before any variant trains
    for name in ABLATION_ORDER:
        variant = VARIANTS[name]
        vdir = None if out_dir is None else Path(out_dir) / name
        model, _ = train_variant(dataset, base_cfg, variant, out_dir=vdir)
        results, cold_results = evaluate_variant(model, dataset, ks, cohorts)
        for k in ks:
            r: RecallResult = results[k]
            report.values[(name, SECTION_OVERALL, k)] = r.overall
            for view in ALL_VIEWS:
                report.values[(name, view_section(view), k)] = r.per_view.get(view)
            report.values[(name, SECTION_COLD, k)] = cold_results[k].overall
        logger.info("variant %s: recall@3k %s", name, {k: round(results[k].overall, 4) for k in ks})
    return report
