"""The benchmark's workloads: set-up, timed rounds and their metrics.

A run sets up its dataset, model and plan `SETUPS` times (reporting the
median), then runs whole rounds until `--seconds` have passed. The machine
this was tuned on drifts by tens of percent over seconds, so each rate is
taken from several samples spread over the round: repeated embedding
passes, `retrieve_all` on chunks of ads, and single optimizer steps
interleaved with those chunks. Every hgmatch call goes through a module
attribute, so a traced run sees it.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import hgmatch.pipeline as pipeline
import hgmatch.retrieval as retrieval
import hgmatch.synthgen as synthgen
import hgmatch.trainer as trainer
from hgmatch.config import SynthConfig, TrainConfig, VARIANTS
from hgmatch.errors import DataError, NumericError
from hgmatch.graph import NodeType

import checks
from tracing import Tracer

K = 50
SETUPS = 3
LEARNING_RATE = 0.003   # the acceptance suite's desk-scale rate; all else stock
VARIANT = VARIANTS["full"]
ORACLE_NODES = 4        # nodes per embedding pass checked against tests/oracles.py
RETRIEVE_CHUNKS = 8     # retrieve_all calls per matching pass
PAIRED_STEPS = 4        # steps run both traced and untraced in a traced run

W1 = {"labels_per_view": 2500}
# five times the nodes at the same mean degree: densities / 5, clusters x 5
X5 = {
    "ads": 5000, "keywords": 10000, "items": 2500, "clusters": 100,
    "labels_per_view": 2500,
    **{name: getattr(SynthConfig, name) / 5 for name in (
        "density_ad_click_kw", "density_ad_bid_kw",
        "density_item_click_kw", "density_ad_coclick_item")},
}

# end-to-end metric -> unit, in the order BENCHMARK.json lists them
E2E_UNITS = {
    "setup_s": "s",
    "train_pairs_per_s": "pairs/s",
    "embed_nodes_per_s": "nodes/s",
    "retrieve_ads_per_s": "ads/s",
    "recall_3k": "fraction",
    "cold_recall_3k": "fraction",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    synth: dict
    train_steps: int | None  # None: one whole Trainer.fit (stock epochs)


WORKLOADS = {
    "train-w1": Workload(W1, None),
    "train-match-x5": Workload(X5, 3),
}


@dataclass
class Setup:
    dataset: object
    cfg: TrainConfig
    model: object
    trainer: object
    eval_chunks: list  # the task split into RETRIEVE_CHUNKS tasks
    cold_task: object


@dataclass
class Round:
    samples: dict = field(default_factory=lambda: defaultdict(list))  # seconds
    losses: list = field(default_factory=list)
    epoch_losses: list = field(default_factory=list)
    pairs: int = 0
    retrieved: dict = field(default_factory=dict)
    recall: float = 0.0
    cold_recall: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def set_up(wl: Workload, seed: int, data_dir: Path) -> Setup:
    paths, _ = synthgen.generate(SynthConfig(seed=seed, **wl.synth), data_dir)
    ds = pipeline.load_dataset(paths["edges"], paths["nodes"], paths["features"],
                               labels=paths["labels"], task=paths["task"])
    cfg = TrainConfig(seed=seed, learning_rate=LEARNING_RATE)
    model = pipeline.build_model(ds, cfg, VARIANT)
    fit = trainer.Trainer(model, ds.cat_index, ds.labels)
    chunks = [ds.task.restrict(c.tolist())
              for c in np.array_split(np.array(ds.task.ads), RETRIEVE_CHUNKS)]
    cold_task = retrieval.cold_start_split(ds.graph, ds.task)
    return Setup(ds, cfg, model, fit, chunks, cold_task)


def fresh_model(s: Setup):
    """The same seed's untrained model and trainer, for a repeated round."""
    s.model = pipeline.build_model(s.dataset, s.cfg, VARIANT)
    s.trainer = trainer.Trainer(s.model, s.dataset.cat_index, s.dataset.labels)


class Timer:
    """Times calls into a round's samples, switching the tracer's phase."""

    def __init__(self, r: Round, tracer: Tracer = None):
        self.r, self.tracer = r, tracer

    def __call__(self, phase: str, sample: str, fn, *args):
        if self.tracer is not None:
            self.tracer.phase = phase
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.phase = "check"
        self.r.samples[sample].append(dt)
        return out


def step_batches(s: Setup, steps: int):
    """`steps` batches drawn as Trainer.fit draws its first epoch, with
    negatives sampled only for the pairs those batches use."""
    bs = s.cfg.batch_size
    order = np.random.default_rng((s.cfg.seed, 211, 0)).permutation(len(s.trainer.labels))
    labels = [s.trainer.labels[i] for i in order[:steps * bs]]
    pairs, _ = trainer.build_training_pairs(
        labels, s.dataset.cat_index, s.cfg.negatives, (s.cfg.seed, 101, 0))
    return [pairs[b0:b0 + bs] for b0 in range(0, len(pairs), bs)]


def step(s: Setup, r: Round, timer: Timer, batch):
    r.attempted += 1
    r.losses.append(timer("train", "step", s.trainer.step, batch))
    r.pairs += len(batch)


def embed(s: Setup, r: Round, timer: Timer, dump: Path, seed: int):
    """One embedding pass and the dump read back; checks the round trip and
    a few vectors against the node-by-node reference."""
    def export_and_write():
        store = retrieval.export_embeddings(s.model)
        retrieval.save_embeddings(store, dump)
        return store

    r.attempted += 1
    store = timer("embed", "embed", export_and_write)
    loaded = timer("retrieve", "load", retrieval.load_embeddings, dump)
    r.problems += checks.round_trip_exact(store, loaded)
    graph = s.dataset.graph
    rng = np.random.default_rng((seed, 7))
    refs = [(ntype, int(i)) for ntype in (NodeType.AD, NodeType.KEYWORD)
            for i in rng.choice(graph.ids_of[ntype], ORACLE_NODES // 2, replace=False)]
    r.problems += checks.oracle_sample(s.model, store, refs)
    return loaded


def check_match(s: Setup, r: Round, loaded, trained: bool):
    task, graph = s.dataset.task, s.dataset.graph
    r.recall = retrieval.recall_at_k(task, r.retrieved).overall
    r.cold_recall = retrieval.recall_at_k(s.cold_task, r.retrieved).overall
    r.problems += checks.topk_lists(loaded, graph, task, K, r.retrieved)
    r.problems += checks.recall_matches(task, r.retrieved, r.recall, "recall_3k")
    r.problems += checks.recall_matches(s.cold_task, r.retrieved, r.cold_recall, "cold_recall_3k")
    if trained:  # a fully trained model must beat random retrieval
        n_views = len(loaded.views)
        for t, got, name in ((task, r.recall, "recall_3k"),
                             (s.cold_task, r.cold_recall, "cold_recall_3k")):
            r.problems += checks.beats_baseline(got, checks.random_recall(t, graph, K, n_views), name)


def match_pass(s: Setup, r: Round, timer: Timer, loaded, after_chunk=None):
    """retrieve_all over the whole task, chunk by chunk."""
    r.retrieved = {}
    for i, chunk in enumerate(s.eval_chunks):
        r.attempted += len(chunk.ads)
        got = timer("retrieve", "chunk", retrieval.retrieve_all,
                    loaded, s.dataset.graph, s.dataset.cat_index, chunk, K)
        r.samples["per_ad"].append(r.samples["chunk"][-1] / len(chunk.ads))
        r.retrieved.update(got)
        if after_chunk is not None:
            after_chunk(i)


def round_w1(wl: Workload, s: Setup, r: Round, timer: Timer, dump: Path, seed: int):
    # embed and match before and after the fit, so that those rates sample
    # both ends of the round; recall is the trained model's
    loaded = embed(s, r, timer, dump, seed)
    match_pass(s, r, timer, loaded)
    check_match(s, r, loaded, trained=False)
    fit = timer("train", "fit", s.trainer.fit)
    r.attempted += len(fit.batch_losses)
    r.losses = [loss for _, _, loss in fit.batch_losses]
    r.epoch_losses = fit.epoch_losses
    r.pairs = s.cfg.epochs * len(s.trainer.labels) - fit.skipped_pairs
    r.problems += checks.losses_finite(r.losses)
    r.problems += checks.loss_decreases(r.epoch_losses)
    loaded = embed(s, r, timer, dump, seed)
    match_pass(s, r, timer, loaded)
    check_match(s, r, loaded, trained=True)


def round_x5(wl: Workload, s: Setup, r: Round, timer: Timer, dump: Path, seed: int):
    # steps between the matching chunks; a second embedding pass at the end
    loaded = embed(s, r, timer, dump, seed)
    batches = timer("train", "sampling", step_batches, s, wl.train_steps)
    every = len(s.eval_chunks) // len(batches)

    def maybe_step(i):
        if (i + 1) % every == 0 and len(r.losses) < len(batches):
            step(s, r, timer, batches[len(r.losses)])

    match_pass(s, r, timer, loaded, maybe_step)
    r.problems += checks.losses_finite(r.losses)
    check_match(s, r, loaded, trained=False)
    del loaded
    embed(s, r, timer, dump, seed)


def paired_steps(s: Setup, tracer: Tracer):
    """The same batches stepped by two copies of the untrained model, one
    traced and one not, in alternating order so that the machine's drift
    and warm caches favour neither. Returns both loss lists and each
    pair's traced-minus-untraced seconds."""
    tracer.uninstall()
    batches = step_batches(s, PAIRED_STEPS)
    fresh_model(s)
    traced = s.trainer
    fresh_model(s)
    plain = s.trainer
    losses = {True: [], False: []}
    seconds = {}

    def timed_step(use_tracer, batch):
        if use_tracer:
            tracer.install()
            tracer.phase = "overhead"
        t0 = perf_counter()
        losses[use_tracer].append((traced if use_tracer else plain).step(batch))
        seconds[use_tracer] = perf_counter() - t0
        if use_tracer:
            tracer.uninstall()

    extra = []
    for i, batch in enumerate(batches):
        for use_tracer in ((True, False) if i % 2 == 0 else (False, True)):
            timed_step(use_tracer, batch)
        extra.append(seconds[True] - seconds[False])
    return losses[True], losses[False], extra


def run_round(wl: Workload, s: Setup, seed: int, work: Path, tracer: Tracer = None) -> Round:
    r = Round()
    body = round_w1 if wl.train_steps is None else round_x5
    try:
        body(wl, s, r, Timer(r, tracer), work / "embeddings.tsv", seed)
    except (DataError, NumericError) as exc:
        r.failed += 1
        r.problems.append(f"operation failed: {exc}")
    return r


def round_metrics(s: Setup, r: Round) -> dict:
    graph, smp = s.dataset.graph, r.samples
    n_nodes = len(graph.ids_of[NodeType.AD]) + len(graph.ids_of[NodeType.KEYWORD])
    n_ads = len(s.dataset.task.ads)
    if smp["fit"]:
        train_s = smp["fit"][0]
    else:
        train_s = smp["sampling"][0] + len(smp["step"]) * statistics.median(smp["step"])
    return {
        "train_pairs_per_s": r.pairs / train_s,
        "embed_nodes_per_s": n_nodes / statistics.median(smp["embed"]),
        "retrieve_ads_per_s": n_ads / (statistics.median(smp["load"])
                                       + n_ads * statistics.median(smp["per_ad"])),
        "recall_3k": r.recall,
        "cold_recall_3k": r.cold_recall,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One benchmark run; returns the result object the runner prints."""
    wl = WORKLOADS[workload]
    work = root / ".hgbench_work" / f"{workload}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    try:
        if tracer is not None:
            tracer.install()
        setup_times, s = [], None
        for _ in range(SETUPS):
            s = None  # free the previous copy before building the next
            t0 = perf_counter()
            s = set_up(wl, seed, work / "data")
            setup_times.append(perf_counter() - t0)
        rounds = []
        start = perf_counter()
        # a traced run times one round; its spans would add up over more
        while not rounds or (tracer is None and perf_counter() - start < seconds):
            if rounds:
                fresh_model(s)
            rounds.append(run_round(wl, s, seed, work, tracer))
        if tracer is not None:
            traced, plain, step_overhead = paired_steps(s, tracer)
            rounds[0].problems += checks.same_losses(plain, traced)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    log = [f"setup seconds {[round(t, 3) for t in setup_times]}"]
    log += [f"round {i} seconds " + " ".join(f"{k}={sum(v):.3f}" for k, v in r.samples.items())
            for i, r in enumerate(rounds)]
    losses = np.array(rounds[0].losses, dtype="<f8").tobytes()
    log.append(f"loss trajectory sha256 {hashlib.sha256(losses).hexdigest()} "
               f"({len(rounds[0].losses)} losses)")
    if tracer is not None:
        log.append("paired steps, traced minus untraced ms "
                   + " ".join(f"{1000 * x:.1f}" for x in step_overhead))
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": problems,
        "log": log,
    }
    if tracer is not None:
        result["metrics"] = tracer.metrics(len(rounds[0].samples["chunk"]) // RETRIEVE_CHUNKS,
                                           step_overhead)
        return result
    per_round = [round_metrics(s, r) for r in rounds if not r.failed]
    values = {"setup_s": statistics.median(setup_times)}
    if per_round:
        values.update({name: statistics.median(m[name] for m in per_round)
                       for name in per_round[0]})
    values["peak_rss_mb"] = peak_rss_mb()
    result["metrics"] = values
    return result
