"""Correctness checks on the program's outputs.

Each check recomputes what it verifies from first principles (or from the
node-by-node reference in tests/oracles.py) and returns a list of problems;
an empty list means the output is right. None of them compares against a
recorded output of the program.
"""

from __future__ import annotations

import math

import numpy as np

from hgmatch.graph import NodeRef, NodeType

from oracles import naive_node_embedding, naive_recall


def losses_finite(losses) -> list:
    bad = [i for i, x in enumerate(losses) if not math.isfinite(x)]
    return [f"non-finite loss at steps {bad[:5]}"] if bad else []


def loss_decreases(epoch_losses) -> list:
    if len(epoch_losses) < 2 or not epoch_losses[-1] < epoch_losses[0]:
        return [f"last epoch's mean loss does not fall below the first: {epoch_losses}"]
    return []


def same_losses(a, b) -> list:
    """Two runs of the same steps from the same initial model agree bit for bit."""
    if np.array(a, dtype="<f8").tobytes() != np.array(b, dtype="<f8").tobytes():
        return ["loss trajectories differ between the traced and untraced runs"]
    return []


def round_trip_exact(exported, loaded) -> list:
    """The dump read back must reproduce the exported vectors bit for bit."""
    problems = []
    if tuple(exported.views) != tuple(loaded.views):
        return [f"dump views {loaded.views} != exported {exported.views}"]
    for view in exported.views:
        for ntype, (ids, mat) in exported.vectors[view].items():
            got = loaded.vectors[view].get(ntype)
            if got is None or not np.array_equal(got[0], ids):
                problems.append(f"dump ids differ for {view}/{ntype.value}")
            elif got[1].dtype != mat.dtype or got[1].tobytes() != mat.tobytes():
                problems.append(f"dump vectors differ for {view}/{ntype.value}")
    return problems


def category_keywords(graph) -> dict:
    """{category: ascending keyword ids}, read straight off the node records."""
    by_cat = {}
    for kw_id, rec in graph.nodes[NodeType.KEYWORD].items():
        if rec.category_id >= 0:
            by_cat.setdefault(rec.category_id, []).append(kw_id)
    return {c: np.array(sorted(ids), dtype=np.int64) for c, ids in by_cat.items()}


def brute_force_topk(store, graph, ads, k) -> dict:
    """{ad: {view: ids}} ranked by -score, then ascending id, over the ad's category."""
    cats = category_keywords(graph)
    kk = 3 * k if len(store.views) == 1 else k
    out = {ad_id: {} for ad_id in ads}
    for view in store.views:
        kw_ids, kw_mat = store.vectors[view][NodeType.KEYWORD]
        cand_mats = {c: kw_mat[np.searchsorted(kw_ids, ids)] for c, ids in cats.items()}
        for ad_id in ads:
            cat = graph.nodes[NodeType.AD][ad_id].category_id
            if cat not in cats:
                out[ad_id][view] = []
                continue
            scores = cand_mats[cat] @ store.vector(view, NodeType.AD, ad_id)
            # candidates ascend, so a stable sort on -score breaks ties by ascending id
            order = np.argsort(-scores, kind="stable")[:kk]
            out[ad_id][view] = cats[cat][order].tolist()
    return out


def topk_lists(store, graph, task, k, retrieved) -> list:
    expected = brute_force_topk(store, graph, task.ads, k)
    wrong = [a for a in task.ads if retrieved.get(a) != expected[a]]
    if wrong:
        return [f"top-K lists differ from brute force for {len(wrong)} ads, first {wrong[:3]}"]
    return []


def recall_matches(task, retrieved, reported, name) -> list:
    ads = [a for a in task.ads if task.targets.get(a)]
    union = {a: set().union(*retrieved.get(a, {}).values()) for a in ads}
    expected = naive_recall(ads, task.targets, union)
    if reported != expected:
        return [f"{name} {reported!r} != {expected!r} recomputed from the lists"]
    return []


def random_recall(task, graph, k, n_views) -> float:
    """Expected recall@3K if each view drew its K keywords uniformly from the candidates."""
    cats = category_keywords(graph)
    kk = 3 * k if n_views == 1 else k
    hit, total = 0.0, 0
    for ad_id in task.ads:
        targets = task.targets.get(ad_id, set())
        cands = cats.get(graph.nodes[NodeType.AD][ad_id].category_id, np.empty(0, np.int64))
        n = len(cands)
        if n:
            p = 1.0 - (1.0 - min(kk, n) / n) ** n_views
            hit += p * int(np.isin(list(targets), cands).sum())
        total += len(targets)
    return hit / total


def beats_baseline(value, baseline, name) -> list:
    if not value > baseline:
        return [f"{name} {value:.4f} does not beat random retrieval {baseline:.4f}"]
    return []


def oracle_sample(model, store, refs) -> list:
    """Exported vectors of a few nodes against the node-by-node reference.

    The dump keeps nine significant digits, hence the relative tolerance.
    """
    problems = []
    for ntype, node_id in refs:
        per_view = naive_node_embedding(model, NodeRef(ntype, node_id))[3]
        for view in store.views:
            want = per_view[view]
            got = store.vector(view, ntype, node_id)
            atol = 1e-12 * max(1.0, float(np.abs(want).max()))
            if not np.allclose(got, want, rtol=1e-8, atol=atol):
                err = float(np.abs(got - want).max())
                problems.append(f"{ntype.value} {node_id} {view}: max error {err:.3g} vs reference")
    return problems
