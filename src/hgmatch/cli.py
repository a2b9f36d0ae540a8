"""Command-line entry point: synth-gen, build-graph, train, embed,
retrieve, evaluate, gradcheck, ablate.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
Partial output files are removed when a run fails. This is the only
module that writes to the console; the library logs (see `main`).
"""

from __future__ import annotations

import argparse
import logging
import math
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
from .graph import RELATION_SCHEMA, Relation, NodeType, load_graph, read_records
from .manifest import write_manifest
from .params import load_checkpoint, variant_from_meta
from .pipeline import build_model, load_dataset, run_ablation, train_variant
from .report import render_recall_result, render_text, render_tsv
from .retrieval import (
    EvalTask,
    export_embeddings,
    load_embeddings,
    load_task,
    parse_view_lines,
    recall_at_k,
    retrieve_all,
    save_embeddings,
)
from .sampling import CategoryIndex
from .synthgen import generate
from .trainer import build_training_pairs, grad_check


class OutputTracker:
    """Remembers files a subcommand intends to write and the directories made
    for them; on failure deletes the files, then those directories if empty."""

    def __init__(self):
        self.paths = []
        self.dirs = []

    def register(self, path) -> Path:
        path = Path(path)
        self.dirs += [d for d in (path.parent, *path.parent.parents) if not d.exists()]
        path.parent.mkdir(parents=True, exist_ok=True)
        self.paths.append(path)
        return path

    def cleanup(self):
        for p in self.paths:
            if p.exists() and p.is_file():
                p.unlink()
        for d in sorted(self.dirs, key=lambda d: len(d.parts), reverse=True):
            if d.is_dir() and not any(d.iterdir()):
                d.rmdir()


# input-file flags a subcommand may leave out, with their help text
_OPTIONAL_INPUTS = {"boundaries": "persisted quantile boundaries"}


def _given_inputs(args) -> dict:
    """{flag: path} of each input file the subcommand declares and was given."""
    return {flag: getattr(args, flag) for flag in args.inputs
            if getattr(args, flag) is not None}


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
        write_manifest(out, inputs=_given_inputs(args), extra=extra)
    return 0


def cmd_train(args, tracker: OutputTracker) -> int:
    cfg = _gather_config(args, TrainConfig)
    variant = VARIANTS[args.variant]
    dataset = load_dataset(**_given_inputs(args))
    out_dir = Path(args.out_dir)
    for name in ("model.ckpt", "boundaries.tsv", "manifest.txt", "losses.tsv"):
        tracker.register(out_dir / name)
    model, fit = train_variant(dataset, cfg, variant, out_dir=out_dir)
    with open(out_dir / "losses.tsv", "w", encoding="utf-8") as fh:
        fh.write("epoch\tbatch\tloss\n")
        for epoch, batch, loss in fit.batch_losses:
            fh.write(f"{epoch}\t{batch}\t{loss!r}\n")
    write_manifest(out_dir / "manifest.txt", cfg=cfg, variant=variant.name,
                   inputs=_given_inputs(args), fit=fit, extra={"optimizer": "Adam"})
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
    store = export_embeddings(model)
    save_embeddings(store, out)
    write_manifest(
        tracker.register(str(args.out) + ".manifest"),
        cfg=cfg,
        variant=variant.name,
        inputs=_given_inputs(args),
        extra={"rows": sum(len(store.vectors[v][t][0]) for v in store.views for t in store.vectors[v])},
    )
    print(f"wrote embeddings to {out}")
    return 0


def cmd_retrieve(args, tracker: OutputTracker) -> int:
    store = load_embeddings(args.embeddings)
    graph = load_graph(args.edges, args.nodes)
    cat_index = CategoryIndex.build(graph)
    task = load_task(args.task)
    graph.rows(NodeType.AD, task.ads)  # a task ad the graph does not hold is a DataError
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
        inputs=_given_inputs(args),
        extra={"k": args.k, "ads": len(task.ads)},
    )
    print(f"wrote retrieved lists to {out}")
    return 0


def _load_retrieved(path) -> dict:
    out = {}
    for view, ad_id, kw in read_records(path, lambda x: parse_view_lines(x, "ad_id view kw_id")):
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
            inputs=_given_inputs(args),
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
    dataset = load_dataset(**_given_inputs(args))
    out_dir = Path(args.out_dir)
    variant_files = [f"{v}/{f}" for v in ABLATION_ORDER for f in ("model.ckpt", "boundaries.tsv")]
    for name in ("report.txt", "report.tsv", "manifest.txt", *variant_files):
        tracker.register(out_dir / name)
    report = run_ablation(dataset, cfg, args.ks, out_dir=out_dir)
    text = render_text(report)
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    (out_dir / "report.tsv").write_text(render_tsv(report), encoding="utf-8")
    write_manifest(out_dir / "manifest.txt", cfg=cfg, inputs=_given_inputs(args),
                   extra={"variants": ",".join(ABLATION_ORDER),
                          "ks": ",".join(map(str, args.ks))})
    print(text, end="")
    return 0


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


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

    def subcommand(name, help, func, inputs=(), config=False):
        """A subparser with the config flags when `config`, then a `--<flag>`
        for each input file in `inputs`, which the run's manifest fingerprints."""
        p = sub.add_parser(name, help=help)
        if config:
            p.add_argument("--config", help="flat key=value config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="config override (repeatable)")
            p.add_argument("--seed", type=int, default=None)
        for flag in inputs:
            p.add_argument(f"--{flag}", required=flag not in _OPTIONAL_INPUTS,
                           help=_OPTIONAL_INPUTS.get(flag))
        p.set_defaults(func=func, inputs=inputs)
        return p

    p = subcommand("synth-gen", "generate a synthetic dataset", cmd_synth_gen, config=True)
    p.add_argument("--out-dir", required=True)

    p = subcommand("build-graph", "ingest and validate graph files", cmd_build_graph,
                   ("edges", "nodes"))
    p.add_argument("--out", help="write a stats/fingerprint manifest here")

    p = subcommand("train", "train one model variant", cmd_train,
                   ("edges", "nodes", "labels", "features"), config=True)
    p.add_argument("--variant", default="full", choices=sorted(VARIANTS))
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--out-dir", required=True)

    p = subcommand("embed", "export embeddings from a checkpoint", cmd_embed,
                   ("checkpoint", "edges", "nodes", "features", "boundaries"))
    p.add_argument("--out", required=True)

    p = subcommand("retrieve", "top-K retrieval from an embedding dump", cmd_retrieve,
                   ("embeddings", "edges", "nodes", "task"))
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--out", required=True)

    p = subcommand("evaluate", "recall of retrieved lists against a task", cmd_evaluate,
                   ("retrieved", "task"))
    p.add_argument("--out")

    p = subcommand("gradcheck", "finite-difference gradient verification", cmd_gradcheck)
    p.add_argument("--d", type=_positive_int, default=8)
    p.add_argument("--l", type=_positive_int, default=4)
    p.add_argument("--probes", type=_positive_int, default=200)
    p.add_argument("--eps", type=_positive_float, default=1e-4)
    p.add_argument("--pairs", type=_positive_int, default=16)
    p.add_argument("--seed", type=int, default=0)

    p = subcommand("ablate", "run the full variant grid and report", cmd_ablate,
                   ("edges", "nodes", "labels", "features", "task"), config=True)
    p.add_argument("--ks", type=_positive_ints, default="100,200,500,1000")
    p.add_argument("--out-dir", required=True)

    return parser


class _Console(logging.StreamHandler):
    """INFO to stdout, WARNING and above to stderr, each stream looked up per record."""

    def emit(self, record):
        self.stream = sys.stdout if record.levelno < logging.WARNING else sys.stderr
        super().emit(record)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tracker = OutputTracker()
    logger, console = logging.getLogger("hgmatch"), _Console()
    level = logger.level
    logger.addHandler(console)
    logger.setLevel(logging.INFO)
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
    finally:
        logger.removeHandler(console)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
