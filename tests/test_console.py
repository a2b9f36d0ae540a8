"""Console output: only `cli.py` writes to the console, through `print` for
its own lines and a handler on the `hgmatch` logger that lives as long as
one `main` call; the library only logs."""

import ast
import logging
from pathlib import Path

import numpy as np

import hgmatch
from hgmatch.cli import main
from hgmatch.config import TrainConfig, VARIANTS
from hgmatch.pipeline import build_model
from hgmatch.retrieval import export_embeddings, load_task, save_embeddings
from hgmatch.trainer import Trainer

SMALL = ["--set", "d=8", "--set", "l=4", "--set", "m=5", "--set", "kappa=2",
         "--set", "batch_size=64", "--set", "learning_rate=0.01"]


def test_only_the_cli_writes_to_the_console():
    """No `print` outside cli.py, no `log` parameter, and no module but
    cli.py adds a logging handler or configures logging."""
    problems = []
    for path in sorted(Path(hgmatch.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                problems += [f"{where}: parameter `log`" for p in params if p and p.arg == "log"]
            if isinstance(node, ast.Call) and path.name != "cli.py":
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                if name in ("print", "addHandler", "basicConfig"):
                    problems.append(f"{where}: {name}()")
    assert problems == []


def _train_args(paths, out):
    return ["train", "--edges", str(paths["edges"]), "--nodes", str(paths["nodes"]),
            "--labels", str(paths["labels"]), "--features", str(paths["features"]),
            "--out-dir", str(out), "--seed", "11", *SMALL, "--set", "epochs=2"]


def test_train_prints_each_epoch_line_once_per_run(tiny_dataset, tmp_path, capsys):
    hg = logging.getLogger("hgmatch")
    before = (list(hg.handlers), hg.level)
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(_train_args(tiny_dataset.paths, out)) == 0
        per_epoch = {}
        for line in (out / "losses.tsv").read_text().splitlines()[1:]:
            epoch, _, loss = line.split("\t")
            per_epoch.setdefault(int(epoch), []).append(float(loss))
        want = "".join(f"epoch {e}: mean batch loss {np.mean(v):.6f} ({len(v)} batches)\n"
                       for e, v in sorted(per_epoch.items()))
        assert capsys.readouterr() == (want + f"checkpoint: {out / 'model.ckpt'}\n", "")
    assert (list(hg.handlers), hg.level) == before


def test_a_library_fit_prints_nothing_and_logs_its_epochs(tiny_dataset, capsys, caplog):
    caplog.set_level(logging.INFO, logger="hgmatch")
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11, batch_size=64, epochs=2)
    model = build_model(tiny_dataset, cfg, VARIANTS["full"])
    fit = Trainer(model, tiny_dataset.cat_index, tiny_dataset.labels).fit()
    assert capsys.readouterr() == ("", "")
    batches = [sum(1 for e, _, _ in fit.batch_losses if e == epoch) for epoch in range(2)]
    assert [r.getMessage() for r in caplog.records if r.name == "hgmatch.trainer"] == [
        f"epoch {e}: mean batch loss {mean:.6f} ({n} batches)"
        for e, (mean, n) in enumerate(zip(fit.epoch_losses, batches))]


def test_retrieve_writes_one_line_for_the_ads_without_candidates(tiny_dataset, tiny_model,
                                                                 tmp_path, capsys):
    paths = tiny_dataset.paths
    emb, nodes, out = tmp_path / "emb.tsv", tmp_path / "nodes.tsv", tmp_path / "ret.tsv"
    save_embeddings(export_embeddings(tiny_model), emb)
    rows = [l.split("\t") for l in Path(paths["nodes"]).read_text().splitlines(keepends=True)]
    for row in rows:
        if row[0] == "ad":
            row[2] = "99"  # a category no keyword has
    nodes.write_text("".join("\t".join(row) for row in rows))
    assert main(["retrieve", "--embeddings", str(emb), "--edges", str(paths["edges"]),
                 "--nodes", str(nodes), "--task", str(paths["task"]), "--k", "5",
                 "--out", str(out)]) == 0
    ads = load_task(paths["task"]).ads
    assert capsys.readouterr() == (
        f"wrote retrieved lists to {out}\n",
        f"{len(ads)} ads have an empty candidate set, first ad {ads[0]}\n")
