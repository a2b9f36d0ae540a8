import contextlib
import hashlib
import io
import json
import os
import re
import warnings
import zipfile

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmatch import cli
from hgmatch.cli import main
from hgmatch.config import load_config_file
from hgmatch.manifest import write_manifest
from hgmatch.params import load_checkpoint
from conftest import TINY_SYNTH

# a run manifest is a flat `key = value` file, read like a config file
read_manifest = load_config_file


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    overrides = [f"--set={k}={v}" for k, v in TINY_SYNTH.items() if k != "seed"]
    rc = main(["synth-gen", "--out-dir", str(out), "--seed", "7", *overrides])
    assert rc == 0
    return out


def dataset_args(d):
    return [
        "--edges", str(d / "edges.tsv"),
        "--nodes", str(d / "nodes.tsv"),
        "--labels", str(d / "labels.tsv"),
        "--features", str(d / "features.tsv"),
    ]


def test_synth_gen_writes_all_files(data_dir):
    for name in ("edges.tsv", "nodes.tsv", "labels.tsv", "task.tsv", "features.tsv", "manifest.txt"):
        assert (data_dir / name).exists()
    manifest = read_manifest(data_dir / "manifest.txt")
    assert manifest["config.seed"] == "7"


def test_build_graph_ok(data_dir, tmp_path, capsys):
    rc = main(["build-graph", "--edges", str(data_dir / "edges.tsv"),
               "--nodes", str(data_dir / "nodes.tsv"),
               "--out", str(tmp_path / "stats.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nodes.ad = 40" in out
    stats = read_manifest(tmp_path / "stats.txt")
    assert stats["input.edges"].startswith("sha256:")


def test_train_epochs_zero_checkpoint_equals_init(data_dir, tmp_path):
    out = tmp_path / "run0"
    rc = main(["train", *dataset_args(data_dir), "--out-dir", str(out),
               "--epochs", "0", "--seed", "11",
               "--set", "d=8", "--set", "l=4", "--set", "m=5", "--set", "kappa=2"])
    assert rc == 0
    params = load_checkpoint(out / "model.ckpt")

    from hgmatch.config import TrainConfig, VARIANTS
    from hgmatch.model import active_paths
    from hgmatch.params import init_params
    from hgmatch.pipeline import load_dataset

    ds = load_dataset(data_dir / "edges.tsv", data_dir / "nodes.tsv", data_dir / "features.tsv")
    cfg = TrainConfig(d=8, l=4, m=5, kappa=2, seed=11, epochs=0)
    fresh = init_params(ds.manifest, cfg, VARIANTS["full"],
                        {t: active_paths(t, "all") for t in ("ad", "kw")},
                        np.random.default_rng((11, 31)))
    for name in fresh.names():
        assert np.array_equal(fresh[name].data, params[name].data)


def test_train_embed_retrieve_evaluate_chain(data_dir, tmp_path):
    run = tmp_path / "run"
    rc = main(["train", *dataset_args(data_dir), "--out-dir", str(run),
               "--epochs", "1", "--seed", "11",
               "--set", "d=8", "--set", "l=4", "--set", "m=5",
               "--set", "kappa=2", "--set", "batch_size=64",
               "--set", "learning_rate=0.01"])
    assert rc == 0
    manifest = read_manifest(run / "manifest.txt")
    assert manifest["config.learning_rate"] == "0.01"
    assert manifest["variant"] == "full"
    assert "loss.epoch.0" in manifest
    assert (run / "losses.tsv").exists()

    emb = tmp_path / "emb.tsv"
    rc = main(["embed", "--checkpoint", str(run / "model.ckpt"),
               "--edges", str(data_dir / "edges.tsv"),
               "--nodes", str(data_dir / "nodes.tsv"),
               "--features", str(data_dir / "features.tsv"),
               "--boundaries", str(run / "boundaries.tsv"),
               "--out", str(emb)])
    assert rc == 0

    retrieved = tmp_path / "retrieved.tsv"
    rc = main(["retrieve", "--embeddings", str(emb),
               "--edges", str(data_dir / "edges.tsv"),
               "--nodes", str(data_dir / "nodes.tsv"),
               "--task", str(data_dir / "task.tsv"),
               "--k", "5", "--out", str(retrieved)])
    assert rc == 0

    report = tmp_path / "report.txt"
    rc = main(["evaluate", "--retrieved", str(retrieved),
               "--task", str(data_dir / "task.tsv"), "--out", str(report)])
    assert rc == 0
    text = report.read_text()
    assert text.startswith("# recall report")
    assert "overall\t" in text


def test_manifest_records_the_runtime(data_dir, tmp_path, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    versions = {"runtime.numpy": np.__version__, "runtime.scipy": scipy.__version__}

    def runtime(name):
        write_manifest(tmp_path / name)
        return {k: v for k, v in read_manifest(tmp_path / name).items() if k.startswith("runtime.")}

    assert runtime("unset.txt") == {"runtime.cpu_count": str(os.cpu_count()), **versions}
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    assert runtime("set.txt") == {"runtime.OPENBLAS_NUM_THREADS": "1",
                                  "runtime.MKL_NUM_THREADS": "2", **versions}

    texts = []
    for name in ("a", "b"):
        rc = main(["train", *dataset_args(data_dir), "--out-dir", str(tmp_path / name),
                   "--epochs", "1", "--seed", "11", "--set", "d=8", "--set", "l=4",
                   "--set", "batch_size=64"])
        assert rc == 0
        texts.append((tmp_path / name / "manifest.txt").read_bytes())
    assert texts[0] == texts[1]
    assert b"runtime.OPENBLAS_NUM_THREADS = 1\n" in texts[0]


def test_evaluate_perfect_retrieval(tmp_path, capsys):
    task = tmp_path / "task.tsv"
    task.write_text("ad_click\t1\t10\nad_click\t1\t11\nad_click\t2\t12\n")
    retrieved = tmp_path / "retrieved.tsv"
    retrieved.write_text("1\tad_click\t10\n1\tad_click\t11\n2\tad_click\t12\n")
    rc = main(["evaluate", "--retrieved", str(retrieved), "--task", str(task)])
    assert rc == 0
    assert "overall\t1.000000" in capsys.readouterr().out


@pytest.mark.parametrize("line, message", [
    ("1\tad_clik\t11", "unknown view 'ad_clik'"),
    ("x1\tad_click\t11", "invalid literal for int() with base 10: 'x1'"),
    ("1\tad_click\t99999999999999999999", "id 99999999999999999999 does not fit in 64 bits"),
])
def test_evaluate_rejects_a_bad_retrieved_line_with_its_location(tmp_path, capsys, line, message):
    task = tmp_path / "task.tsv"
    task.write_text("ad_click\t1\t10\nad_click\t1\t11\n")
    retrieved = tmp_path / "retrieved.tsv"
    retrieved.write_text(f"1\tad_click\t10\n{line}\n")
    out = tmp_path / "report.txt"
    rc = main(["evaluate", "--retrieved", str(retrieved), "--task", str(task), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{retrieved}:2: {message}" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["retrieved.tsv", "task.tsv"]


def test_gradcheck_subcommand(capsys):
    rc = main(["gradcheck", "--d", "8", "--l", "4", "--probes", "40",
               "--pairs", "8", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    err = float(out.split("max relative error:")[1].split()[0])
    assert err <= 1e-4


@pytest.mark.parametrize("flag, value", [
    ("--eps", "0"), ("--eps", "-1e-4"), ("--eps", "nan"), ("--eps", "inf"), ("--eps", "x"),
    ("--probes", "-1"), ("--probes", "0"), ("--pairs", "0"), ("--d", "0"), ("--l", "-2"),
])
def test_gradcheck_rejects_bad_sizes_and_steps(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", f"{flag}={value}"])
    assert exc.value.code == 2
    assert "expected a positive" in capsys.readouterr().err


def test_gradcheck_nan_probe_exits_4(monkeypatch, capsys):
    monkeypatch.setattr("hgmatch.trainer.relative_error", lambda a, n: float("nan"))
    rc = main(["gradcheck", "--d", "8", "--l", "4", "--probes", "3", "--pairs", "8"])
    assert rc == 4
    captured = capsys.readouterr()
    assert "max relative error: nan" in captured.out
    assert "numeric failure" in captured.err


def test_unknown_flag_exits_2(data_dir):
    with pytest.raises(SystemExit) as exc:
        main(["build-graph", "--edges", str(data_dir / "edges.tsv"),
              "--nodes", str(data_dir / "nodes.tsv"), "--bogus"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag, value", [
    ("retrieve", "--k", "-1"), ("retrieve", "--k", "0"), ("retrieve", "--k", "x"),
    ("ablate", "--ks", ","), ("ablate", "--ks", "5,0"), ("ablate", "--ks", "5,-1"),
])
def test_non_positive_k_exits_2(data_dir, tmp_path, capsys, command, flag, value):
    inputs = {
        "retrieve": ["--embeddings", str(tmp_path / "emb.tsv"),
                     "--edges", str(data_dir / "edges.tsv"),
                     "--nodes", str(data_dir / "nodes.tsv"), "--out", str(tmp_path / "out.tsv")],
        "ablate": [*dataset_args(data_dir), "--out-dir", str(tmp_path / "ablate")],
    }
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs[command], "--task", str(data_dir / "task.tsv"), f"{flag}={value}"])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_missing_file_exits_3(tmp_path):
    rc = main(["build-graph", "--edges", str(tmp_path / "nope.tsv"),
               "--nodes", str(tmp_path / "nope2.tsv")])
    assert rc == 3


def test_malformed_data_exits_3_and_cleans_outputs(data_dir, tmp_path):
    bad = tmp_path / "bad_labels.tsv"
    bad.write_text("ad_click\tnot_a_number\t3\n")
    out = tmp_path / "runbad"
    rc = main(["train", *dataset_args(data_dir),
               "--labels", str(bad),  # later flag wins
               "--out-dir", str(out), "--epochs", "1", "--seed", "1",
               "--set", "d=8", "--set", "l=4"])
    assert rc == 3
    assert not (out / "model.ckpt").exists()
    assert not (out / "manifest.txt").exists()


def test_bad_config_value_exits_3(data_dir, tmp_path):
    rc = main(["train", *dataset_args(data_dir), "--out-dir", str(tmp_path / "x"),
               "--set", "learning_rate=banana"])
    assert rc == 3


def test_config_file_and_override_precedence(data_dir, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("d = 8\nl = 4\nm = 5\nkappa = 2\nepochs = 0\nseed = 2\n")
    out = tmp_path / "cfg_run"
    rc = main(["train", *dataset_args(data_dir), "--out-dir", str(out),
               "--config", str(cfgfile), "--set", "seed=9"])
    assert rc == 0
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["config.seed"] == "9"       # --set wins over file
    assert manifest["config.d"] == "8"


def test_ablate_report_shape(data_dir, tmp_path):
    out = tmp_path / "ablate"
    rc = main(["ablate", *dataset_args(data_dir),
               "--task", str(data_dir / "task.tsv"),
               "--out-dir", str(out), "--ks", "5,10",
               "--seed", "11", "--set", "d=8", "--set", "l=4", "--set", "m=5",
               "--set", "kappa=2", "--set", "batch_size=64",
               "--set", "learning_rate=0.01", "--set", "epochs=1"])
    assert rc == 0
    tsv = (out / "report.tsv").read_text().splitlines()
    body = [l for l in tsv[1:] if l]
    # 7 variants x 5 sections x 2 ks
    assert len(body) == 7 * 5 * 2
    text = (out / "report.txt").read_text()
    for section in ("recall@3k", "view ad_click", "view ad_bid", "view item_click", "cold-start"):
        assert section in text
    for variant in ("full", "no_siamese", "single_view", "sage", "bid_only", "item_only", "dssm"):
        assert variant in text
    # single_view reports '-' for the views it does not train
    assert "-" in text


def test_bad_boundaries_file_exits_3_with_location(data_dir, tmp_path, capsys):
    run = tmp_path / "run"
    rc = main(["train", *dataset_args(data_dir), "--out-dir", str(run), "--epochs", "0",
               "--set", "d=8", "--set", "l=4"])
    assert rc == 0
    bounds = tmp_path / "bounds.tsv"
    bounds.write_text("# feature\tboundaries...\nsearched\tabc\n")
    emb = tmp_path / "emb.tsv"
    capsys.readouterr()
    rc = main(["embed", "--checkpoint", str(run / "model.ckpt"),
               "--edges", str(data_dir / "edges.tsv"),
               "--nodes", str(data_dir / "nodes.tsv"),
               "--features", str(data_dir / "features.tsv"),
               "--boundaries", str(bounds), "--out", str(emb)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{bounds}:2:" in err and "Traceback" not in err
    assert not emb.exists()


@pytest.mark.parametrize(
    "override",
    ["batch_size=0", "learning_rate=nan", "gamma=inf", "learnig_rate=0.003", "attention_scale=1",
     "negatives=0", "l=0"],
)
def test_invalid_train_config_exits_3(data_dir, tmp_path, capsys, override):
    out = tmp_path / "run"
    rc = main(["train", *dataset_args(data_dir), "--out-dir", str(out), "--epochs", "1",
               "--set", "d=8", "--set", "l=4", "--set", override])
    assert rc == 3
    err = capsys.readouterr().err
    assert override.split("=")[0] in err and "Traceback" not in err
    assert not (out / "model.ckpt").exists()


def test_config_file_shared_by_synth_and_train(data_dir, tmp_path):
    conf = tmp_path / "shared.conf"
    keys = {k: v for k, v in TINY_SYNTH.items() if k != "seed"}
    conf.write_text("".join(f"{k} = {v}\n" for k, v in keys.items())
                    + "d = 8\nl = 4\nlearning_rate = 0.01\n")
    rc = main(["synth-gen", "--config", str(conf), "--seed", "7",
               "--out-dir", str(tmp_path / "data")])
    assert rc == 0
    out = tmp_path / "run"
    rc = main(["train", *dataset_args(data_dir), "--config", str(conf),
               "--epochs", "0", "--out-dir", str(out)])
    assert rc == 0
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["config.learning_rate"] == "0.01"


@pytest.mark.parametrize("override", [
    "term_vocab=0", "density_ad_click_kw=-0.5", "density_ad_bid_kw=nan",
    "labels_per_view=-1", "terms_per_node=-1", "density_ad_coclick_item=1.5",
])
def test_invalid_synth_config_exits_3(tmp_path, capsys, override):
    out = tmp_path / "data"
    rc = main(["synth-gen", "--out-dir", str(out), "--set", "ads=40", "--set", override])
    assert rc == 3
    err = capsys.readouterr().err
    assert override.split("=")[0] in err and "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("sets, named", [
    (["items=1", "clusters=2", "ads=4", "keywords=4"],
     "config field items (1) must be at least clusters (2)"),
    (["keywords=3", "clusters=4", "ads=40", "items=8"],
     "config field keywords (3) must be at least clusters (4)"),
])
def test_synth_config_with_an_empty_cluster_exits_3(tmp_path, capsys, sets, named):
    out = tmp_path / "data"
    rc = main(["synth-gen", "--out-dir", str(out), *(a for kv in sets for a in ("--set", kv))])
    assert rc == 3
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


def test_config_file_comments_and_blank_lines(tmp_path):
    conf = tmp_path / "run.cfg"
    conf.write_text("# a run\n\nd = 8   # hidden size\n  \nl=4\n# d = 16\nd = 12\n")
    assert load_config_file(conf) == {"d": "12", "l": "4"}


def test_config_line_without_equals_exits_3_with_location(data_dir, tmp_path, capsys):
    conf = tmp_path / "run.cfg"
    conf.write_text("d = 8\nl 4\n")
    out = tmp_path / "run"
    rc = main(["train", *dataset_args(data_dir), "--config", str(conf), "--out-dir", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{conf}:2: expected key = value" in err and "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.fixture(scope="module")
def dump(data_dir, tmp_path_factory):
    """An untrained model's checkpoint and embedding dump of the module's dataset."""
    out = tmp_path_factory.mktemp("dump")
    rc = main(["train", *dataset_args(data_dir), "--out-dir", str(out), "--epochs", "0",
               "--set", "d=8", "--set", "l=4", "--set", "m=5", "--set", "kappa=2"])
    assert rc == 0
    rc = main(["embed", "--checkpoint", str(out / "model.ckpt"),
               "--edges", str(data_dir / "edges.tsv"), "--nodes", str(data_dir / "nodes.tsv"),
               "--features", str(data_dir / "features.tsv"),
               "--boundaries", str(out / "boundaries.tsv"), "--out", str(out / "emb.tsv")])
    assert rc == 0
    return out


@pytest.mark.parametrize("drop", ["keyword 5", "every keyword", "every ad"])
def test_retrieve_from_a_dump_missing_a_node_exits_3(data_dir, dump, tmp_path, capsys, drop):
    lines = (dump / "emb.tsv").read_text().splitlines(keepends=True)
    cut = {"keyword 5": "keyword\t5\t", "every keyword": "keyword\t", "every ad": "ad\t"}[drop]
    emb = tmp_path / "emb.tsv"
    emb.write_text("".join(l for l in lines if not l.startswith(cut)))
    out = tmp_path / "retrieved.tsv"
    rc = main(["retrieve", "--embeddings", str(emb),
               "--edges", str(data_dir / "edges.tsv"), "--nodes", str(data_dir / "nodes.tsv"),
               "--task", str(data_dir / "task.tsv"), "--k", "5", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    kind = "ad" if drop == "every ad" else "keyword"
    assert f"no ad_click vector for {kind} id" in err and "Traceback" not in err
    if drop == "keyword 5":
        assert "keyword id 5" in err
    assert not out.exists() and not (tmp_path / "retrieved.tsv.manifest").exists()


@pytest.mark.parametrize("damage", ["truncated", "flipped byte"])
def test_damaged_checkpoint_exits_3(data_dir, dump, tmp_path, capsys, damage):
    data = bytearray((dump / "model.ckpt").read_bytes())
    if damage == "truncated":
        data = data[:3000]
    else:
        data[len(data) // 2] ^= 0xFF  # inside a stored tensor member
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(bytes(data))
    emb = tmp_path / "emb.tsv"
    rc = main(["embed", "--checkpoint", str(ckpt),
               "--edges", str(data_dir / "edges.tsv"), "--nodes", str(data_dir / "nodes.tsv"),
               "--features", str(data_dir / "features.tsv"), "--out", str(emb)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{ckpt}: unreadable checkpoint" in err and "Traceback" not in err
    assert not emb.exists()


def test_checkpoint_that_is_a_directory_exits_3(data_dir, tmp_path, capsys):
    ckpt = tmp_path / "ckpt_dir"
    ckpt.mkdir()
    emb = tmp_path / "emb.tsv"
    rc = main(["embed", "--checkpoint", str(ckpt),
               "--edges", str(data_dir / "edges.tsv"), "--nodes", str(data_dir / "nodes.tsv"),
               "--features", str(data_dir / "features.tsv"), "--out", str(emb)])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err and "Traceback" not in err
    assert not emb.exists() and not (tmp_path / "emb.tsv.manifest").exists()


def test_retrieve_from_an_empty_dump_exits_3(data_dir, tmp_path, capsys):
    emb = tmp_path / "emb.tsv"
    emb.write_text("# node_type\tnode_id\tview\tvector...\n")
    out = tmp_path / "retrieved.tsv"
    rc = main(["retrieve", "--embeddings", str(emb),
               "--edges", str(data_dir / "edges.tsv"), "--nodes", str(data_dir / "nodes.tsv"),
               "--task", str(data_dir / "task.tsv"), "--k", "5", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{emb}: embedding dump has no rows" in err and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "retrieved.tsv.manifest").exists()


def test_non_finite_searched_count_exits_3(data_dir, tmp_path, capsys):
    lines = (data_dir / "nodes.tsv").read_text().splitlines(keepends=True)
    at = next(i for i, l in enumerate(lines) if l.startswith("keyword\t"))
    fields = lines[at].split("\t")
    fields[3] = "nan"
    lines[at] = "\t".join(fields)
    nodes = tmp_path / "nodes.tsv"
    nodes.write_text("".join(lines))
    out = tmp_path / "stats.txt"
    rc = main(["build-graph", "--edges", str(data_dir / "edges.tsv"),
               "--nodes", str(nodes), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{nodes}:{at + 1}: non-finite searched count 'nan'" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("where", ["nodes", "task", "dump"])
def test_id_beyond_int64_exits_3_with_location(data_dir, dump, tmp_path, capsys, where):
    big = "99999999999999999999"
    src = {"nodes": data_dir / "nodes.tsv", "task": data_dir / "task.tsv",
           "dump": dump / "emb.tsv"}[where]
    lines = src.read_text().splitlines(keepends=True)
    at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    fields = lines[at].split("\t")
    fields[1] = big
    lines[at] = "\t".join(fields)
    bad = tmp_path / src.name
    bad.write_text("".join(lines))
    files = {"nodes": data_dir / "nodes.tsv", "task": data_dir / "task.tsv",
             "dump": dump / "emb.tsv", where: bad}
    out = tmp_path / "out.tsv"
    if where == "nodes":
        argv = ["build-graph", "--edges", str(data_dir / "edges.tsv"),
                "--nodes", str(files["nodes"]), "--out", str(out)]
    else:
        argv = ["retrieve", "--embeddings", str(files["dump"]),
                "--edges", str(data_dir / "edges.tsv"), "--nodes", str(files["nodes"]),
                "--task", str(files["task"]), "--k", "5", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"{bad}:{at + 1}: id {big} does not fit in 64 bits" in err and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "out.tsv.manifest").exists()


def test_checkpoint_with_a_non_finite_tensor_exits_3(data_dir, dump, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    member = "t:view/ad/ad_bid/W1.npy"
    with zipfile.ZipFile(dump / "model.ckpt") as src, zipfile.ZipFile(ckpt, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            if info.filename == member:
                arr = np.load(io.BytesIO(data))
                arr[0, 0] = np.nan
                buf = io.BytesIO()
                np.save(buf, arr)
                data = buf.getvalue()
            dst.writestr(info, data)
    emb = tmp_path / "emb.tsv"
    rc = main(["embed", "--checkpoint", str(ckpt),
               "--edges", str(data_dir / "edges.tsv"), "--nodes", str(data_dir / "nodes.tsv"),
               "--features", str(data_dir / "features.tsv"),
               "--boundaries", str(dump / "boundaries.tsv"), "--out", str(emb)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{ckpt}: non-finite value in tensor view/ad/ad_bid/W1" in err and "Traceback" not in err
    assert not emb.exists() and not (tmp_path / "emb.tsv.manifest").exists()


@pytest.mark.parametrize("dtype", ["<U1", "complex128", "float32", "int64", "bool"])
def test_checkpoint_tensor_not_float64_exits_3(data_dir, dump, tmp_path, capsys, dtype):
    ckpt = tmp_path / "model.ckpt"
    member = "t:att/ad.npy"
    with zipfile.ZipFile(dump / "model.ckpt") as src, zipfile.ZipFile(ckpt, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            if info.filename == member:
                shape = np.load(io.BytesIO(data)).shape
                buf = io.BytesIO()
                np.save(buf, np.full(shape, "a") if dtype == "<U1" else np.ones(shape, dtype))
                data = buf.getvalue()
            dst.writestr(info, data)
    emb = tmp_path / "emb.tsv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a dropped imaginary part warns
        rc = main(["embed", "--checkpoint", str(ckpt),
                   "--edges", str(data_dir / "edges.tsv"), "--nodes", str(data_dir / "nodes.tsv"),
                   "--features", str(data_dir / "features.tsv"),
                   "--boundaries", str(dump / "boundaries.tsv"), "--out", str(emb)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{ckpt}: tensor att/ad has dtype {np.dtype(dtype)}, not float64" in err
    assert "Traceback" not in err
    assert not emb.exists() and not (tmp_path / "emb.tsv.manifest").exists()


def test_diverging_training_exits_4_naming_the_step(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings
        rc = main(["train", *dataset_args(data_dir), "--out-dir", str(out),
                   "--set", "d=8", "--set", "l=4", "--set", "learning_rate=1e300",
                   "--set", "epochs=2"])
    assert rc == 4
    err = capsys.readouterr().err
    assert re.search(r"numeric failure: epoch 1, batch \d+: non-finite loss value", err)
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("member, damage, named", [
    ("view/ad/ad_click/W1", "missing", "checkpoint view/ad/ad_click/W1 has shape None"),
    ("fusion/ad/W1", "one row short", "checkpoint fusion/ad/W1 has shape ("),
])
def test_checkpoint_missing_or_misshaping_a_tensor_exits_3(data_dir, dump, tmp_path, capsys,
                                                            member, damage, named):
    ckpt = tmp_path / "model.ckpt"
    with zipfile.ZipFile(dump / "model.ckpt") as src, zipfile.ZipFile(ckpt, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            if info.filename == f"t:{member}.npy":
                if damage == "missing":
                    continue
                buf = io.BytesIO()
                np.save(buf, np.load(io.BytesIO(data))[:-1])
                data = buf.getvalue()
            dst.writestr(info, data)
    emb = tmp_path / "emb.tsv"
    rc = main(["embed", "--checkpoint", str(ckpt),
               "--edges", str(data_dir / "edges.tsv"), "--nodes", str(data_dir / "nodes.tsv"),
               "--features", str(data_dir / "features.tsv"),
               "--boundaries", str(dump / "boundaries.tsv"), "--out", str(emb)])
    assert rc == 3
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not emb.exists() and not (tmp_path / "emb.tsv.manifest").exists()


def test_unexpected_exception_removes_outputs_and_propagates(monkeypatch, tmp_path):
    boom = RuntimeError("boom")

    def failing(args, tracker):
        tracker.register(args.out).write_text("partial\n")
        raise boom

    monkeypatch.setattr(cli, "cmd_build_graph", failing)
    out = tmp_path / "stats.txt"
    with pytest.raises(RuntimeError) as info:
        main(["build-graph", "--edges", "e.tsv", "--nodes", "n.tsv", "--out", str(out)])
    assert info.value is boom
    assert not out.exists()


@pytest.mark.parametrize("edit, named", [
    ("stray key", "unknown config key 'bogus'"),
    ("attention_scale", "unknown config key 'attention_scale'"),
    ("no config", "{ckpt}: checkpoint has no config mapping"),
    ("string config", "{ckpt}: checkpoint has no config mapping"),
    ("list meta", "{ckpt}: not a model checkpoint"),
])
def test_checkpoint_with_a_bad_config_exits_3(data_dir, dump, tmp_path, capsys, edit, named):
    ckpt = tmp_path / "model.ckpt"
    with zipfile.ZipFile(dump / "model.ckpt") as src, zipfile.ZipFile(ckpt, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            if info.filename == "__meta__.json":
                meta = json.loads(data)
                meta = {
                    "stray key": {**meta, "config": {**meta["config"], "bogus": 1}},
                    "attention_scale": {**meta, "config": {**meta["config"], "attention_scale": False}},
                    "no config": {k: v for k, v in meta.items() if k != "config"},
                    "string config": {**meta, "config": "d=8"},
                    "list meta": [meta],
                }[edit]
                data = json.dumps(meta).encode("utf-8")
            dst.writestr(info, data)
    emb = tmp_path / "emb.tsv"
    rc = main(["embed", "--checkpoint", str(ckpt),
               "--edges", str(data_dir / "edges.tsv"), "--nodes", str(data_dir / "nodes.tsv"),
               "--features", str(data_dir / "features.tsv"),
               "--boundaries", str(dump / "boundaries.tsv"), "--out", str(emb)])
    assert rc == 3
    err = capsys.readouterr().err
    assert named.format(ckpt=ckpt) in err and "Traceback" not in err
    assert not emb.exists() and not (tmp_path / "emb.tsv.manifest").exists()


@pytest.mark.parametrize("damage", ["bad numeric value", "too many boundaries", "nan boundary"])
def test_bad_numeric_feature_or_boundaries_exits_3(data_dir, dump, tmp_path, capsys, damage):
    nodes, bounds = tmp_path / "nodes.tsv", tmp_path / "bounds.tsv"
    node_lines = (data_dir / "nodes.tsv").read_text().splitlines(keepends=True)
    bound_lines = (dump / "boundaries.tsv").read_text().splitlines(keepends=True)
    at = next(i for i, l in enumerate(bound_lines) if l.startswith("bid_price\t"))
    if damage == "bad numeric value":
        kw = next(i for i, l in enumerate(node_lines) if "\tbid_price=" in l)
        node_id = node_lines[kw].split("\t")[1]
        node_lines[kw] = re.sub(r"\tbid_price=[^\t\n]*", "\tbid_price=abc", node_lines[kw])
        named = f"bad numeric value 'abc' for bid_price on keyword:{node_id}"
    elif damage == "too many boundaries":
        bound_lines[at] = "bid_price\t" + " ".join(str(v) for v in range(39)) + "\n"
        named = "39 boundaries for 'bid_price', which has 16 buckets"
    else:
        bound_lines[at] = "bid_price\t3 2 1 nan\n"
        named = f"{bounds}:{at + 1}: boundaries of bid_price must be finite and increasing"
    nodes.write_text("".join(node_lines))
    bounds.write_text("".join(bound_lines))
    emb = tmp_path / "emb.tsv"
    rc = main(["embed", "--checkpoint", str(dump / "model.ckpt"),
               "--edges", str(data_dir / "edges.tsv"), "--nodes", str(nodes),
               "--features", str(data_dir / "features.tsv"),
               "--boundaries", str(bounds), "--out", str(emb)])
    assert rc == 3
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not emb.exists() and not (tmp_path / "emb.tsv.manifest").exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "1e999"])
def test_infinite_numeric_feature_exits_3_naming_the_node(data_dir, tmp_path, capsys, value):
    nodes = tmp_path / "nodes.tsv"
    node_lines = (data_dir / "nodes.tsv").read_text().splitlines(keepends=True)
    kw = next(i for i, l in enumerate(node_lines) if "\tbid_price=" in l)
    node_id = node_lines[kw].split("\t")[1]
    node_lines[kw] = re.sub(r"\tbid_price=[^\t\n]*", f"\tbid_price={value}", node_lines[kw])
    nodes.write_text("".join(node_lines))
    out = tmp_path / "run"
    rc = main(["train", *dataset_args(data_dir), "--nodes", str(nodes),
               "--out-dir", str(out), "--epochs", "1", "--seed", "1",
               "--set", "d=8", "--set", "l=4"])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"bad numeric value '{value}' for bid_price on keyword:{node_id}" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nodes.tsv"]


def test_non_utf8_input_exits_3_naming_the_file(data_dir, tmp_path, capsys):
    edges = tmp_path / "edges.tsv"
    edges.write_bytes(np.random.default_rng(0).bytes(3000))
    out = tmp_path / "stats.txt"
    rc = main(["build-graph", "--edges", str(edges), "--nodes", str(data_dir / "nodes.tsv"),
               "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{edges}: not UTF-8 text" in err and "Traceback" not in err
    assert not out.exists()


def test_manifest_without_a_needed_node_type_exits_3(data_dir, tmp_path, capsys):
    features = tmp_path / "features.tsv"
    features.write_text("")
    out = tmp_path / "run"
    rc = main(["train", *dataset_args(data_dir), "--features", str(features),
               "--out-dir", str(out), "--epochs", "1", "--seed", "1",
               "--set", "d=8", "--set", "l=4"])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{features}: no features for node type 'ad'" in err and "Traceback" not in err
    assert not out.exists()


def test_failed_train_removes_the_directories_it_made(data_dir, tmp_path):
    labels = tmp_path / "labels.tsv"
    labels.write_text("")
    out = tmp_path / "new" / "run"
    rc = main(["train", *dataset_args(data_dir), "--labels", str(labels),
               "--out-dir", str(out), "--epochs", "1", "--seed", "1",
               "--set", "d=8", "--set", "l=4"])
    assert rc == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.tsv"]


def test_output_tracker_removes_only_the_empty_directories_it_made(tmp_path):
    kept = tmp_path / "kept"
    kept.mkdir()
    tracker = cli.OutputTracker()
    tracker.register(kept / "a" / "b" / "out.txt").write_text("partial\n")
    tracker.register(kept / "c" / "out.txt")
    (kept / "c" / "other.txt").write_text("not ours\n")
    tracker.cleanup()
    assert sorted(p.name for p in kept.iterdir()) == ["c"]
    assert sorted(p.name for p in (kept / "c").iterdir()) == ["other.txt"]


def test_failed_ablate_removes_the_variant_outputs(data_dir, tmp_path, capsys):
    # every ad in the task has clicks, so the cold-start cohort is empty
    clicked = sorted({line.split("\t")[1] for line in (data_dir / "edges.tsv").read_text().splitlines()
                      if "\tad_click_kw\t" in line})
    task = tmp_path / "task.tsv"
    task.write_text("".join(f"ad_click\t{a}\t0\n" for a in clicked))
    out = tmp_path / "ablate"
    rc = main(["ablate", *dataset_args(data_dir), "--task", str(task),
               "--out-dir", str(out), "--ks", "5", "--seed", "1",
               "--set", "d=8", "--set", "l=4", "--set", "epochs=1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "cold-start cohort is empty" in err and "Traceback" not in err
    assert not (out / "full").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["task.tsv"]


@pytest.mark.parametrize("field", ["size", "width"])
def test_zero_size_or_width_in_a_manifest_exits_3_with_location(data_dir, tmp_path, capsys, field):
    lines = (data_dir / "features.tsv").read_text().splitlines(keepends=True)
    row = lines[2].split("\t")
    row[3 if field == "size" else 4] = "0\n" if field == "width" else "0"
    lines[2] = "\t".join(row)
    features = tmp_path / "features.tsv"
    features.write_text("".join(lines))
    out = tmp_path / "run"
    rc = main(["train", *dataset_args(data_dir), "--features", str(features),
               "--out-dir", str(out), "--epochs", "0", "--set", "d=8", "--set", "l=4"])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{features}:3:" in err and "Traceback" not in err
    assert not out.exists()


def test_retrieve_names_a_bad_dump_row_past_the_first_chunk(data_dir, dump, tmp_path, capsys):
    """Item rows (which matching never reads) push a bad row past the first
    chunk of lines that the reader parses at once."""
    text = (dump / "emb.tsv").read_text()
    filler = "".join(f"item\t{i}\tad_click\t{' '.join(['0.5'] * 8)}\n" for i in range(1200))
    bad_line = len(text.splitlines()) + 1200 + 1
    emb = tmp_path / "emb.tsv"
    emb.write_text(text + filler + f"item\t1200\tad_click\t{' '.join(['0.5'] * 7)} 0,5\n")
    out = tmp_path / "retrieved.tsv"
    rc = main(["retrieve", "--embeddings", str(emb),
               "--edges", str(data_dir / "edges.tsv"), "--nodes", str(data_dir / "nodes.tsv"),
               "--task", str(data_dir / "task.tsv"), "--k", "5", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert bad_line > 1024 and f"{emb}:{bad_line}: could not convert string '0,5'" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.tsv"]


def test_ablate_reports_keep_their_bytes(data_dir, tmp_path):
    out = tmp_path / "ablate"
    rc = main(["ablate", *dataset_args(data_dir),
               "--task", str(data_dir / "task.tsv"),
               "--out-dir", str(out), "--ks", "5,10",
               "--seed", "11", "--set", "d=8", "--set", "l=4", "--set", "m=5",
               "--set", "kappa=2", "--set", "batch_size=64",
               "--set", "learning_rate=0.01", "--set", "epochs=1"])
    assert rc == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("report.tsv", "report.txt")}
    assert digests == {
        "report.tsv": "2dec801b2574d26c4164d4237af1f0036b5aa1873bc8e3b4634cf0f85bbc5b02",
        "report.txt": "c3f748084eaab336acf06bb34462afd1cbc08e65e1586932d6fd6f518c0bd9cc",
    }


def _scaled_checkpoint(src_path, dst_path, members, factor):
    """A copy of a checkpoint whose `members` tensors are multiplied by `factor`."""
    with zipfile.ZipFile(src_path) as src, zipfile.ZipFile(dst_path, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            if info.filename in members:
                buf = io.BytesIO()
                np.save(buf, np.load(io.BytesIO(data)) * factor)
                data = buf.getvalue()
            dst.writestr(info, data)


def test_embed_of_non_finite_vectors_exits_4_naming_the_node(data_dir, dump, tmp_path, capsys):
    """Finite weights whose vectors overflow: embed stops before it writes a
    dump that retrieve would refuse."""
    ckpt = tmp_path / "model.ckpt"
    _scaled_checkpoint(dump / "model.ckpt", ckpt,
                       {"t:view/ad/ad_click/W1.npy", "t:view/ad/ad_click/W2.npy"}, 1e200)
    emb = tmp_path / "emb.tsv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings
        rc = main(["embed", "--checkpoint", str(ckpt),
                   "--edges", str(data_dir / "edges.tsv"), "--nodes", str(data_dir / "nodes.tsv"),
                   "--features", str(data_dir / "features.tsv"),
                   "--boundaries", str(dump / "boundaries.tsv"), "--out", str(emb)])
    assert rc == 4
    err = capsys.readouterr().err
    assert re.search(r"numeric failure: non-finite ad_click embedding for ad id \d+", err)
    assert "Traceback" not in err and "Warning" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


@st.composite
def damaged_bytes(draw, data: bytes):
    """`data` with a few bytes flipped, dropped or inserted, or cut short."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data) - 1))
        kind = draw(st.sampled_from(["flip", "drop", "insert", "cut"]))
        if kind == "flip":
            data[at] ^= draw(st.integers(1, 255))
        elif kind == "drop":
            del data[at:at + draw(st.integers(1, 20))]
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        else:
            del data[at:]
        if not data:
            break
    return bytes(data)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_retrieve_of_a_damaged_dump_exits_0_or_3(data_dir, dump, tmp_path_factory, data):
    """Mutated bytes of a dump never give a traceback or leave outputs behind on failure."""
    work = tmp_path_factory.mktemp("damaged")
    emb, out = work / "emb.tsv", work / "retrieved.tsv"
    emb.write_bytes(data.draw(damaged_bytes((dump / "emb.tsv").read_bytes())))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["retrieve", "--embeddings", str(emb),
                   "--edges", str(data_dir / "edges.tsv"), "--nodes", str(data_dir / "nodes.tsv"),
                   "--task", str(data_dir / "task.tsv"), "--k", "5", "--out", str(out)])
    assert rc in (0, 3) and "Traceback" not in err.getvalue()
    if rc == 3:
        assert sorted(p.name for p in work.iterdir()) == ["emb.tsv"]


def _fingerprint(path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", [
    "build-graph", "train", "embed", "embed --boundaries", "retrieve", "evaluate", "ablate",
])
def test_manifest_fingerprints_every_input_file_given(data_dir, dump, tmp_path, command):
    files = {name: data_dir / f"{name}.tsv" for name in ("edges", "nodes", "labels", "features", "task")}
    files.update(checkpoint=dump / "model.ckpt", boundaries=dump / "boundaries.tsv",
                 embeddings=dump / "emb.tsv", retrieved=tmp_path / "retrieved.tsv")
    files["retrieved"].write_text("1\tad_click\t10\n")
    dataset = ("edges", "nodes", "labels", "features")
    small = ["--set", "epochs=0", "--set", "d=8", "--set", "l=4", "--set", "m=5", "--set", "kappa=2"]
    t = tmp_path
    inputs, rest, manifest = {
        "build-graph": (("edges", "nodes"), ["--out", t / "stats.txt"], "stats.txt"),
        "train": (dataset, ["--out-dir", t / "run", *small], "run/manifest.txt"),
        "embed": (("checkpoint", "edges", "nodes", "features"), ["--out", t / "emb.tsv"],
                  "emb.tsv.manifest"),
        "embed --boundaries": (("checkpoint", "edges", "nodes", "features", "boundaries"),
                               ["--out", t / "emb.tsv"], "emb.tsv.manifest"),
        "retrieve": (("embeddings", "edges", "nodes", "task"),
                     ["--k", "5", "--out", t / "out.tsv"], "out.tsv.manifest"),
        "evaluate": (("retrieved", "task"), ["--out", t / "report.txt"], "report.txt.manifest"),
        "ablate": ((*dataset, "task"), ["--out-dir", t / "ablate", "--ks", "5", *small],
                   "ablate/manifest.txt"),
    }[command]
    given = [a for name in inputs for a in (f"--{name}", files[name])]
    assert main([command.split()[0], *map(str, given + rest)]) == 0
    recorded = {k: v for k, v in read_manifest(tmp_path / manifest).items() if k.startswith("input.")}
    assert recorded == {f"input.{name}": _fingerprint(files[name]) for name in inputs}


def test_checkpoint_meta_holds_only_the_version_variant_and_config(dump):
    meta = load_checkpoint(dump / "model.ckpt").meta
    assert sorted(meta) == ["config", "format_version", "variant"]


def test_checkpoint_meta_with_config_copies_embeds_the_same_bytes(data_dir, dump, tmp_path):
    """A checkpoint whose meta also repeats d, l and the variant's fields, as
    checkpoints once did, loads and embeds as one without them."""
    from hgmatch.config import VARIANTS

    full = VARIANTS["full"]
    ckpt = tmp_path / "model.ckpt"
    with zipfile.ZipFile(dump / "model.ckpt") as src, zipfile.ZipFile(ckpt, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            if info.filename == "__meta__.json":
                meta = {**json.loads(data), "d": 8, "l": 4, "views": list(full.views),
                        "aggregator": full.aggregator, "groups": full.groups}
                data = json.dumps(meta, sort_keys=True).encode("utf-8")
            dst.writestr(info, data)
    emb = tmp_path / "emb.tsv"
    rc = main(["embed", "--checkpoint", str(ckpt),
               "--edges", str(data_dir / "edges.tsv"), "--nodes", str(data_dir / "nodes.tsv"),
               "--features", str(data_dir / "features.tsv"),
               "--boundaries", str(dump / "boundaries.tsv"), "--out", str(emb)])
    assert rc == 0
    assert emb.read_bytes() == (dump / "emb.tsv").read_bytes()


@pytest.mark.parametrize("file", ["features", "boundaries"])
def test_a_feature_listed_twice_exits_3_at_the_second_line(data_dir, dump, tmp_path, capsys, file):
    features, bounds = tmp_path / "features.tsv", tmp_path / "bounds.tsv"
    feature_lines = (data_dir / "features.tsv").read_text().splitlines(keepends=True)
    bound_lines = (dump / "boundaries.tsv").read_text().splitlines(keepends=True)
    if file == "features":
        ad_id = next(l for l in feature_lines if l.startswith("ad\tad_id\t"))
        feature_lines.append(ad_id)
        named = f"{features}:{len(feature_lines)}: feature ad_id of ad is listed twice"
    else:
        bound_lines.append(next(l for l in bound_lines if l.startswith("bid_price\t")))
        named = f"{bounds}:{len(bound_lines)}: feature bid_price is listed twice"
    features.write_text("".join(feature_lines))
    bounds.write_text("".join(bound_lines))
    emb = tmp_path / "out" / "emb.tsv"
    rc = main(["embed", "--checkpoint", str(dump / "model.ckpt"),
               "--edges", str(data_dir / "edges.tsv"), "--nodes", str(data_dir / "nodes.tsv"),
               "--features", str(features), "--boundaries", str(bounds), "--out", str(emb)])
    assert rc == 3
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bounds.tsv", "features.tsv"]


def _with_line(src, dst, edit):
    """`src` copied to `dst` with its first record line replaced by
    `edit(line)`; returns that line's number."""
    lines = src.read_text().splitlines(keepends=True)
    at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    lines[at] = edit(lines[at])
    dst.write_text("".join(lines))
    return at + 1


def test_a_node_naming_a_feature_twice_exits_3_at_its_line(data_dir, tmp_path, capsys):
    nodes, out = tmp_path / "nodes.tsv", tmp_path / "stats.txt"
    at = _with_line(data_dir / "nodes.tsv", nodes, lambda l: l.rstrip("\n") + "\tad_id=999\n")
    rc = main(["build-graph", "--edges", str(data_dir / "edges.tsv"),
               "--nodes", str(nodes), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{nodes}:{at}: feature ad_id is listed twice" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nodes.tsv"]


@pytest.mark.parametrize("where", ["nodes", "dump"])
def test_an_unknown_type_token_exits_3_naming_it(data_dir, dump, tmp_path, capsys, where):
    files = {"nodes": data_dir / "nodes.tsv", "dump": dump / "emb.tsv"}
    bad = tmp_path / files[where].name
    at = _with_line(files[where], bad, lambda l: "adx" + l[l.index("\t"):])
    files[where] = bad
    out = tmp_path / "retrieved.tsv"
    rc = main(["retrieve", "--embeddings", str(files["dump"]),
               "--edges", str(data_dir / "edges.tsv"), "--nodes", str(files["nodes"]),
               "--task", str(data_dir / "task.tsv"), "--k", "5", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{bad}:{at}: unknown token 'adx'" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [bad.name]


def test_retrieve_of_a_task_ad_the_graph_does_not_hold_exits_3(data_dir, dump, tmp_path, capsys):
    task, out = tmp_path / "task.tsv", tmp_path / "retrieved.tsv"
    task.write_text((data_dir / "task.tsv").read_text() + "ad_click\t123456\t1\n")
    rc = main(["retrieve", "--embeddings", str(dump / "emb.tsv"),
               "--edges", str(data_dir / "edges.tsv"), "--nodes", str(data_dir / "nodes.tsv"),
               "--task", str(task), "--k", "5", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "unknown ad id 123456" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["task.tsv"]
