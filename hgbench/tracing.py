"""Per-layer timing of hgmatch, attached from outside the package.

`Tracer.install()` replaces public functions and methods of the hgmatch
modules with wrappers that time each call; `uninstall()` puts the originals
back. A module-level function is replaced in every hgmatch module that
imported it by name, so `trainer.build_plan` is timed as well as
`model.build_plan`. Spans are inclusive: `model.execute` contains the
`autodiff` ops it calls. Nothing inside `src/` changes, so tracing cannot
alter results; traced steps are checked against untraced ones.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import hgmatch.autodiff as autodiff
import hgmatch.features as features
import hgmatch.graph as graph
import hgmatch.model as model
import hgmatch.retrieval as retrieval
import hgmatch.sampling as sampling
import hgmatch.synthgen as synthgen
import hgmatch.trainer as trainer

# autodiff ops timed one by one; every other primitive op counts as "other"
NAMED_OPS = ("segment_sum", "gather", "matmul")
OTHER_OPS = ("add", "mul", "div", "relu", "exp", "log", "sqrt", "tsum",
             "concat_cols", "slice_cols")

# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "synthgen.generate_s": "s",
    "graph.load_graph_s": "s",
    "features.fit_graph_quantiles_s": "s",
    "features.encode_graph_s": "s",
    "sampling.category_index_build_s": "s",
    "features.oov": "count",
    "features.missing": "count",
    "features.nan": "count",
    "sampling.skipped_pairs": "count",
    "model.build_plan_s": "s",
    "model.plan_rows": "count",
    "model.plan_cache_hit_ratio": "ratio",
    "trainer.batch_rows_used_ratio": "ratio",
    "trainer.step_ms_p50": "ms",
    "model.execute_ms": "ms",
    "model.node_level_all_ms": "ms",
    "trainer.loss_ms": "ms",
    "autodiff.backward_ms": "ms",
    "trainer.adam_ms": "ms",
    "sampling.build_training_pairs_ms": "ms",
    **{f"autodiff.{op}.fwd_ms": "ms" for op in NAMED_OPS + ("other",)},
    "autodiff.ops_per_step": "count",
    "model.forward_s": "s",
    "retrieval.export_embeddings_s": "s",
    "retrieval.save_embeddings_s": "s",
    "retrieval.dump_mb": "MB",
    "retrieval.load_embeddings_s": "s",
    "retrieval.retrieve_all_s": "s",
    "retrieval.topk_retrieve_calls": "count",
    "retrieval.topk_retrieve_ms": "ms",
    "sampling.candidate_set_mean": "count",
    "trace.overhead_s": "s",
    "trace.step_overhead_ms": "ms",
}


def _plan_rows(plan) -> int:
    rows = 0
    for tower in plan.towers.values():
        rows += len(tower.all_ids)
        rows += sum(len(ids) for pp in tower.path_plans for ids in pp.level_ids)
    return rows


class Tracer:
    """Collects span times per (phase, span) while installed.

    The caller sets `phase` ("setup", "train", "embed", "retrieve", or
    anything else for work that no metric should see).
    """

    def __init__(self):
        self.phase = "setup"
        self.seconds = defaultdict(float)   # (phase, span) -> total seconds
        self.calls = defaultdict(int)       # (phase, span) -> calls
        self.samples = defaultdict(list)    # (phase, span) -> per-call seconds
        self.counts = defaultdict(float)    # counter name -> value
        self.rows_used = []                 # per loss call: rows read / rows computed
        self.hook_seconds = defaultdict(float)  # phase -> seconds in counter hooks
        self._undo = []

    # --- wrapping --------------------------------------------------------
    def _wrap(self, fn, span, keep_samples, after):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            key = (tracer.phase, span)
            tracer.seconds[key] += dt
            tracer.calls[key] += 1
            if keep_samples:
                tracer.samples[key].append(dt)
            if after is not None:
                t1 = perf_counter()
                after(args, out)
                tracer.hook_seconds[tracer.phase] += perf_counter() - t1
            return out

        return timed

    def _function(self, module, name, span, keep_samples=False, after=None):
        """Replace module.name, and every hgmatch import of it, by a timed wrapper."""
        original = getattr(module, name)
        timed = self._wrap(original, span, keep_samples, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "hgmatch" and getattr(mod, name, None) is original:
                setattr(mod, name, timed)
                self._undo.append((mod, name, original))

    def _method(self, cls, name, span, keep_samples=False, after=None):
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            timed = classmethod(self._wrap(original.__func__, span, keep_samples, after))
        else:
            timed = self._wrap(original, span, keep_samples, after)
        setattr(cls, name, timed)
        self._undo.append((cls, name, original))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        f, m = self._function, self._method
        # set-up layers
        f(synthgen, "generate", "synthgen.generate", True)
        f(graph, "load_graph", "graph.load_graph", True)
        f(features, "fit_graph_quantiles", "features.fit_graph_quantiles", True)
        m(features.FeatureEncoder, "encode_graph", "features.encode_graph", True,
          after=self._after_encode)
        m(sampling.CategoryIndex, "build", "sampling.category_index_build", True)
        f(model, "build_plan", "model.build_plan", True, after=self._after_plan)
        # training layers
        m(trainer.Trainer, "step", "trainer.step", True)
        m(model.MatchingModel, "execute", "model.execute")
        m(model.MatchingModel, "node_level_all", "model.node_level_all")
        f(trainer, "loss_from_forward", "trainer.loss", after=self._after_loss)
        m(autodiff.Tensor, "backward", "autodiff.backward")
        m(trainer.Adam, "step", "trainer.adam")
        f(trainer, "build_training_pairs", "sampling.build_training_pairs",
          after=self._after_pairs)
        for op in NAMED_OPS:
            f(autodiff, op, f"autodiff.{op}")
        for op in OTHER_OPS:
            f(autodiff, op, "autodiff.other")
        # embedding and matching layers
        m(model.MatchingModel, "forward", "model.forward")
        f(retrieval, "export_embeddings", "retrieval.export_embeddings")
        f(retrieval, "save_embeddings", "retrieval.save_embeddings", after=self._after_save)
        f(retrieval, "load_embeddings", "retrieval.load_embeddings")
        f(retrieval, "retrieve_all", "retrieval.retrieve_all")
        f(retrieval, "topk_retrieve", "retrieval.topk_retrieve")
        m(sampling.CategoryIndex, "candidate_keywords", "sampling.candidate_keywords",
          after=self._after_candidates)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # --- counters read off call results -------------------------------------
    def _after_encode(self, args, out):
        stats = args[0].stats
        self.counts["features.oov"] = stats.oov
        self.counts["features.missing"] = stats.missing
        self.counts["features.nan"] = stats.nan

    def _after_plan(self, args, plan):
        if self.phase == "setup":  # the trainer's plan
            self.counts["model.plan_rows"] = _plan_rows(plan)
            cache = plan.cache
            self.counts["model.plan_cache_hit_ratio"] = cache.hits / max(cache.hits + cache.misses, 1)

    def _after_loss(self, args, out):
        if self.phase != "train":
            return
        _, fwd, pairs = args
        used = len({p.ad for p in pairs})
        used += len({p.positive_kw for p in pairs} | {n for p in pairs for n in p.negatives})
        computed = sum(len(t.plan.req_ids) for t in fwd.towers.values())
        self.rows_used.append(used / computed)

    def _after_pairs(self, args, out):
        if self.phase == "train":
            self.counts["sampling.skipped_pairs"] += out[1]

    def _after_save(self, args, out):
        self.counts["retrieval.dump_mb"] = os.path.getsize(args[1]) / 1e6

    def _after_candidates(self, args, out):
        if self.phase == "retrieve":
            self.counts["candidate_total"] += len(out)
            self.counts["candidate_calls"] += 1

    # --- metrics -------------------------------------------------------------
    def _wrapper_seconds(self, calls=20000, repeats=5) -> float:
        """What one timed call costs beyond the call itself: the best of
        `repeats` loops over a trivial function, wrapped and not."""
        def plain(x):
            return x

        timed = self._wrap(plain, "calibrate", False, None)
        best = []
        for fn in (plain, timed):
            loops = []
            for _ in range(repeats):
                t0 = perf_counter()
                for i in range(calls):
                    fn(i)
                loops.append(perf_counter() - t0)
            best.append(min(loops))
        return max(best[1] - best[0], 0.0) / calls

    def overhead_s(self) -> float:
        """Modelled time tracing added to the timed phases: wrapped calls x
        the cost of one wrapper, plus the counter hooks' measured time.
        `trace.step_overhead_ms` is the measured counterpart for steps."""
        phases = ("train", "embed", "retrieve")
        calls = sum(n for (phase, _), n in self.calls.items() if phase in phases)
        return calls * self._wrapper_seconds() + sum(self.hook_seconds[p] for p in phases)

    def _median(self, phase, span):
        values = self.samples[(phase, span)]
        return statistics.median(values) if values else 0.0

    def metrics(self, match_passes: int, step_overhead: list) -> dict:
        """Every metric of LAYER_UNITS, from what the spans collected.

        Embedding metrics are per export, matching metrics per pass of
        `retrieve_all` over the task's ads. `step_overhead` holds the
        traced-minus-untraced seconds of paired steps on the same batches.
        """
        s, c = self.seconds, self.calls
        exports = c[("embed", "retrieval.export_embeddings")] or 1
        loads = c[("retrieve", "retrieval.load_embeddings")] or 1
        steps = c[("train", "trainer.step")]

        def per_step_ms(span):
            return 1000.0 * s[("train", span)] / steps if steps else 0.0

        plan_samples = [x for (phase, span), v in self.samples.items()
                        if span == "model.build_plan" for x in v]
        op_calls = sum(n for (phase, span), n in c.items()
                       if phase == "train" and span.startswith("autodiff.")
                       and span != "autodiff.backward")
        values = {
            "synthgen.generate_s": self._median("setup", "synthgen.generate"),
            "graph.load_graph_s": self._median("setup", "graph.load_graph"),
            "features.fit_graph_quantiles_s": self._median("setup", "features.fit_graph_quantiles"),
            "features.encode_graph_s": self._median("setup", "features.encode_graph"),
            "sampling.category_index_build_s": self._median("setup", "sampling.category_index_build"),
            "features.oov": self.counts["features.oov"],
            "features.missing": self.counts["features.missing"],
            "features.nan": self.counts["features.nan"],
            "sampling.skipped_pairs": self.counts["sampling.skipped_pairs"],
            "model.build_plan_s": statistics.median(plan_samples) if plan_samples else 0.0,
            "model.plan_rows": self.counts["model.plan_rows"],
            "model.plan_cache_hit_ratio": self.counts["model.plan_cache_hit_ratio"],
            "trainer.batch_rows_used_ratio": statistics.fmean(self.rows_used) if self.rows_used else 0.0,
            "trainer.step_ms_p50": 1000.0 * self._median("train", "trainer.step"),
            "model.execute_ms": per_step_ms("model.execute"),
            "model.node_level_all_ms": per_step_ms("model.node_level_all"),
            "trainer.loss_ms": per_step_ms("trainer.loss"),
            "autodiff.backward_ms": per_step_ms("autodiff.backward"),
            "trainer.adam_ms": per_step_ms("trainer.adam"),
            "sampling.build_training_pairs_ms": per_step_ms("sampling.build_training_pairs"),
            **{f"autodiff.{op}.fwd_ms": per_step_ms(f"autodiff.{op}")
               for op in NAMED_OPS + ("other",)},
            "autodiff.ops_per_step": op_calls / steps if steps else 0.0,
            "model.forward_s": s[("embed", "model.forward")] / exports,
            "retrieval.export_embeddings_s": s[("embed", "retrieval.export_embeddings")] / exports,
            "retrieval.save_embeddings_s": s[("embed", "retrieval.save_embeddings")] / exports,
            "retrieval.dump_mb": self.counts["retrieval.dump_mb"],
            "retrieval.load_embeddings_s": s[("retrieve", "retrieval.load_embeddings")] / loads,
            "retrieval.retrieve_all_s": s[("retrieve", "retrieval.retrieve_all")] / match_passes,
            "retrieval.topk_retrieve_calls": c[("retrieve", "retrieval.topk_retrieve")] / match_passes,
            "retrieval.topk_retrieve_ms": 1000.0 * s[("retrieve", "retrieval.topk_retrieve")] / match_passes,
            "sampling.candidate_set_mean": (
                self.counts["candidate_total"] / self.counts["candidate_calls"]
                if self.counts["candidate_calls"] else 0.0
            ),
            "trace.overhead_s": self.overhead_s(),
            "trace.step_overhead_ms": 1000.0 * statistics.median(step_overhead),
        }
        assert values.keys() == LAYER_UNITS.keys()
        return values
