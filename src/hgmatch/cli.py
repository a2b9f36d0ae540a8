"""Command-line entry point: synth-gen, build-graph, train, embed,
retrieve, evaluate, gradcheck, ablate.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
Partial output files are removed when a run fails.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import (
    ABLATION_ORDER,
    SynthConfig,
    TrainConfig,
    VARIANTS,
    apply_overrides,
    load_config_file,
)
from .errors import DataError, NumericError
from .graph import RELATION_SCHEMA, Relation, NodeType, iter_file_records, load_graph
from .manifest import write_manifest
from .params import load_checkpoint, variant_from_meta
from .pipeline import (
    Dataset,
    build_model,
    load_dataset,
    run_ablation,
    train_variant,
)
from .report import render_recall_result, render_text, render_tsv
from .retrieval import (
    EvalTask,
    export_embeddings,
    load_embeddings,
    load_task,
    recall_at_k,
    retrieve_all,
    save_embeddings,
)
from .sampling import CategoryIndex
from .synthgen import generate
from .trainer import build_training_pairs, grad_check


class OutputTracker:
    """Remembers files a subcommand intends to write; deletes them on failure."""

    def __init__(self):
        self.paths = []

    def register(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.paths.append(path)
        return path

    def cleanup(self):
        for p in self.paths:
            if p.exists() and p.is_file():
                p.unlink()


def _gather_config(args, cls):
    raw = {}
    if getattr(args, "config", None):
        raw.update(load_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise DataError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "epochs", None) is not None:
        raw["epochs"] = args.epochs
    return apply_overrides(cls, raw)


def cmd_synth_gen(args, tracker: OutputTracker) -> int:
    cfg = _gather_config(args, SynthConfig)
    out_dir = Path(args.out_dir)
    for name in ("edges.tsv", "nodes.tsv", "labels.tsv", "task.tsv", "features.tsv", "manifest.txt"):
        tracker.register(out_dir / name)
    paths, stats = generate(cfg, out_dir)
    extra = {f"generated.{r}": n for r, n in sorted(stats.generated_edges.items())}
    extra.update({f"graph.{r}": n for r, n in sorted(stats.graph_edges.items())})
    extra.update({f"targets.{v}": n for v, n in sorted(stats.targets.items())})
    extra.update({f"labels.{v}": n for v, n in sorted(stats.labels.items())})
    extra["cold_ads"] = len(stats.cold_ads)
    write_manifest(out_dir / "manifest.txt", cfg=cfg, extra=extra)
    print(f"wrote dataset under {out_dir}")
    for key, value in sorted(extra.items()):
        print(f"  {key} = {value}")
    return 0


def cmd_build_graph(args, tracker: OutputTracker) -> int:
    graph = load_graph(args.edges, args.nodes)
    counts = {rel.value: graph.edge_count(rel) for rel in Relation}
    for ntype in NodeType:
        print(f"nodes.{ntype.value} = {graph.num_nodes(ntype)}")
    for rel, n in counts.items():
        print(f"edges.{rel} = {n}")
    if args.out:
        out = tracker.register(args.out)
        extra = {f"nodes.{t.value}": graph.num_nodes(t) for t in NodeType}
        extra.update({f"edges.{r}": n for r, n in counts.items()})
        write_manifest(
            out, inputs={"edges": args.edges, "nodes": args.nodes}, extra=extra
        )
    return 0


def _load_dataset_from_args(args) -> Dataset:
    return load_dataset(
        edges=args.edges,
        nodes=args.nodes,
        features=args.features,
        labels=args.labels,
        task=getattr(args, "task", None),
    )


def cmd_train(args, tracker: OutputTracker) -> int:
    cfg = _gather_config(args, TrainConfig)
    if args.variant not in VARIANTS:
        raise DataError(f"unknown variant {args.variant!r}; choose from {sorted(VARIANTS)}")
    variant = VARIANTS[args.variant]
    dataset = _load_dataset_from_args(args)
    out_dir = Path(args.out_dir)
    for name in ("model.ckpt", "boundaries.tsv", "manifest.txt", "losses.tsv"):
        tracker.register(out_dir / name)
    model, fit = train_variant(dataset, cfg, variant, out_dir=out_dir, log=print)
    with open(out_dir / "losses.tsv", "w", encoding="utf-8") as fh:
        fh.write("epoch\tbatch\tloss\n")
        for epoch, batch, loss in fit.batch_losses:
            fh.write(f"{epoch}\t{batch}\t{loss!r}\n")
    inputs = {
        "edges": args.edges,
        "nodes": args.nodes,
        "labels": args.labels,
        "features": args.features,
    }
    write_manifest(out_dir / "manifest.txt", cfg=cfg, variant=variant.name,
                   inputs=inputs, fit=fit, extra={"optimizer": "Adam"})
    print(f"checkpoint: {out_dir / 'model.ckpt'}")
    return 0


def cmd_embed(args, tracker: OutputTracker) -> int:
    params = load_checkpoint(args.checkpoint)
    variant = variant_from_meta(params.meta)
    config = params.meta.get("config")
    if not isinstance(config, dict):
        raise DataError(f"{args.checkpoint}: checkpoint has no config mapping")
    cfg = apply_overrides(TrainConfig, config)
    dataset = load_dataset(
        edges=args.edges, nodes=args.nodes, features=args.features,
        boundaries=args.boundaries,
    )
    model = build_model(dataset, cfg, variant, params=params)
    out = tracker.register(args.out)
    store = export_embeddings(model, path=out)
    write_manifest(
        tracker.register(str(args.out) + ".manifest"),
        cfg=cfg,
        variant=variant.name,
        inputs={"checkpoint": args.checkpoint, "edges": args.edges, "nodes": args.nodes},
        extra={"rows": sum(len(store.vectors[v][t][0]) for v in store.views for t in store.vectors[v])},
    )
    print(f"wrote embeddings to {out}")
    return 0


def cmd_retrieve(args, tracker: OutputTracker) -> int:
    store = load_embeddings(args.embeddings)
    graph = load_graph(args.edges, args.nodes)
    cat_index = CategoryIndex.build(graph)
    task = load_task(args.task)
    retrieved = retrieve_all(store, graph, cat_index, task, args.k)
    out = tracker.register(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("# ad_id\tview\tkeyword_id (rank order)\n")
        for ad_id in task.ads:
            for view in store.views:
                for kw in retrieved[ad_id].get(view, []):
                    fh.write(f"{ad_id}\t{view}\t{kw}\n")
    write_manifest(
        tracker.register(str(args.out) + ".manifest"),
        inputs={"embeddings": args.embeddings, "task": args.task},
        extra={"k": args.k, "ads": len(task.ads)},
    )
    print(f"wrote retrieved lists to {out}")
    return 0


def _parse_retrieved_line(line: str, location: str) -> tuple:
    parts = line.split()
    if len(parts) != 3:
        raise DataError(f"{location}: expected `ad_id view kw_id`")
    ad_id, view, kw = parts
    try:
        return int(ad_id), view, int(kw)
    except ValueError as exc:
        raise DataError(f"{location}: {exc}") from exc


def _load_retrieved(path) -> dict:
    out = {}
    for ad_id, view, kw in iter_file_records(path, _parse_retrieved_line):
        out.setdefault(ad_id, {}).setdefault(view, []).append(kw)
    return out


def cmd_evaluate(args, tracker: OutputTracker) -> int:
    task = load_task(args.task)
    retrieved = _load_retrieved(args.retrieved)
    result = recall_at_k(task, retrieved)
    text = render_recall_result(result)
    print(text, end="")
    if args.out:
        out = tracker.register(args.out)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        write_manifest(
            tracker.register(str(args.out) + ".manifest"),
            inputs={"retrieved": args.retrieved, "task": args.task},
            extra={"recall.overall": f"{result.overall:.6f}"},
        )
    return 0


def cmd_gradcheck(args, tracker: OutputTracker) -> int:
    cfg = TrainConfig(
        d=args.d, l=args.l, m=5, kappa=2, seed=args.seed,
        batch_size=args.pairs, epochs=1,
    )
    with tempfile.TemporaryDirectory() as tmp:
        synth = SynthConfig(
            ads=40, keywords=80, items=20, categories=2, clusters=4,
            density_ad_click_kw=0.05, density_ad_bid_kw=0.05,
            density_item_click_kw=0.08, density_ad_coclick_item=0.08,
            labels_per_view=args.pairs * 3, term_vocab=50, seed=args.seed,
        )
        paths, _ = generate(synth, tmp)
        dataset = load_dataset(paths["edges"], paths["nodes"], paths["features"],
                               labels=paths["labels"])
        model = build_model(dataset, cfg, VARIANTS["full"])
        pairs, _ = build_training_pairs(
            dataset.labels[: args.pairs], dataset.cat_index, cfg.negatives, (args.seed, 1)
        )
        report = grad_check(model, pairs, probe_count=args.probes, eps=args.eps, seed=args.seed)
    worst = sorted(report.probes, key=lambda p: -p[4])[:5]
    print(f"probes: {len(report.probes)}")
    print(f"max relative error: {report.max_rel_error:.3e}")
    for name, offset, analytic, numeric, err in worst:
        print(f"  {name}[{offset}] analytic={analytic:.6e} numeric={numeric:.6e} rel={err:.3e}")
    if not np.isfinite(report.max_rel_error):
        raise NumericError("non-finite gradient check result")
    return 0


def cmd_ablate(args, tracker: OutputTracker) -> int:
    cfg = _gather_config(args, TrainConfig)
    dataset = _load_dataset_from_args(args)
    if dataset.task is None:
        raise DataError("ablate requires --task")
    out_dir = Path(args.out_dir)
    tracker.register(out_dir / "report.txt")
    tracker.register(out_dir / "report.tsv")
    tracker.register(out_dir / "manifest.txt")
    report = run_ablation(dataset, cfg, args.ks, variants=ABLATION_ORDER,
                          out_dir=out_dir, log=print)
    text = render_text(report)
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    (out_dir / "report.tsv").write_text(render_tsv(report), encoding="utf-8")
    inputs = {
        "edges": args.edges, "nodes": args.nodes,
        "labels": args.labels, "features": args.features, "task": args.task,
    }
    write_manifest(out_dir / "manifest.txt", cfg=cfg, inputs=inputs,
                   extra={"variants": ",".join(ABLATION_ORDER),
                          "ks": ",".join(map(str, args.ks))})
    print(text, end="")
    return 0


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _positive_ints(text: str) -> list:
    """One or more comma-separated positive integers."""
    values = [_positive_int(k) for k in text.split(",") if k]
    if not values:
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgmatch",
        description="heterogeneous-graph two-tower keyword matching pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="flat key=value config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="config override (repeatable)")
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("synth-gen", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("build-graph", help="ingest and validate graph files")
    p.add_argument("--edges", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--out", help="write a stats/fingerprint manifest here")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="train one model variant")
    common(p)
    p.add_argument("--edges", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--variant", default="full", choices=sorted(VARIANTS))
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="export embeddings from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--boundaries", help="persisted quantile boundaries")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("retrieve", help="top-K retrieval from an embedding dump")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("evaluate", help="recall of retrieved lists against a task")
    p.add_argument("--retrieved", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--l", type=int, default=4)
    p.add_argument("--probes", type=int, default=200)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--pairs", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="run the full variant grid and report")
    common(p)
    p.add_argument("--edges", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--ks", type=_positive_ints, default="100,200,500,1000")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tracker = OutputTracker()
    try:
        return args.func(args, tracker) or 0
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        tracker.cleanup()
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        tracker.cleanup()
        return 4
    except BaseException:
        tracker.cleanup()
        raise


if __name__ == "__main__":
    sys.exit(main())
