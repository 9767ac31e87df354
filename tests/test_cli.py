import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liptrack.ensembles as ensembles
import liptrack.harness as harness
from liptrack import __version__
from liptrack.cli import main
from liptrack.ensembles import BIASVAR_CSV_COLUMNS
from liptrack.harness import ExperimentConfig
from liptrack.models import load_checkpoint
from liptrack.training import DivergenceError


def write_cfg(tmp_path, name="cfg.json", **kw):
    """A fast CLI config: tiny synthetic data shaped like the default set."""
    d = ExperimentConfig().to_dict()
    d["dataset"].update({"n_train": 60, "n_test": 20, "d": 40, "num_classes": 10})
    d.update(width=4, widths=[4, 6], seeds=[0, 1], max_epochs=2, eval_every=1,
             batch_size=32, base_lr=0.05, grad_norm_threshold=1e-9)
    d.update(kw)
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return path, ExperimentConfig.from_dict(d)


def run_main(argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# Parser basics


def test_version_flag(capsys):
    assert run_main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_missing_subcommand_exits_one(capsys):
    assert run_main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_one():
    assert run_main(["frobnicate"]) == 1


# ---------------------------------------------------------------------------
# train


def test_train_writes_trace_and_checkpoint(tmp_path, capsys):
    cfg_path, cfg = write_cfg(tmp_path)
    out = tmp_path / "runs"
    assert run_main(["train", "--config", cfg_path, "--out", out]) == 0
    run_dir = out / f"run-{cfg.config_hash()}"
    assert json.loads((run_dir / "meta.json").read_text())["subcommand"] == "train"
    assert json.loads((run_dir / "config.json").read_text())["config"] == cfg.to_dict()

    lines = (run_dir / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert json.loads(line)["wall_ms"] is None

    net, meta = load_checkpoint(run_dir / "checkpoint.json")
    assert meta["epoch"] == 2
    assert meta["seed"] == 0
    assert net.arch_spec() == {"family": "ff", "input_dim": 40,
                               "widths": [4], "output_dim": 10}
    err = capsys.readouterr().err
    assert "stopped after epoch 2" in err


def test_train_rerun_is_byte_identical(tmp_path):
    cfg_path, cfg = write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_main(["train", "--config", cfg_path, "--out", out_a]) == 0
    assert run_main(["train", "--config", cfg_path, "--out", out_b]) == 0
    run = f"run-{cfg.config_hash()}"
    for name in ["trace.jsonl", "checkpoint.json", "config.json"]:
        assert (out_a / run / name).read_bytes() == (out_b / run / name).read_bytes()


def test_train_profile_and_overrides_land_in_config(tmp_path):
    cfg_path, _ = write_cfg(tmp_path)
    out = tmp_path / "runs"
    assert run_main(["train", "--config", cfg_path, "--profile", "desk",
                     "--set", "max_epochs=2", "--set", "batch_size=32",
                     "--set", "base_lr=0.05", "--out", out]) == 0
    run_dirs = list(out.glob("run-*"))
    assert len(run_dirs) == 1
    eff = json.loads((run_dirs[0] / "config.json").read_text())["config"]
    # Profile applied, then explicit overrides win.
    assert eff["schedule"] == "warmup20000step25"
    assert eff["dataset"]["label_noise"] == 0.2
    assert eff["max_epochs"] == 2
    assert eff["batch_size"] == 32


def test_config_error_paths_exit_one(tmp_path, capsys):
    out = tmp_path / "runs"
    assert run_main(["train", "--config", tmp_path / "missing.json", "--out", out]) == 1
    assert "not found" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run_main(["train", "--config", bad, "--out", out]) == 1
    assert "not valid JSON" in capsys.readouterr().err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"momentum": 0.9}))
    assert run_main(["train", "--config", unknown, "--out", out]) == 1
    assert "unknown config key" in capsys.readouterr().err

    cfg_path, _ = write_cfg(tmp_path)
    assert run_main(["train", "--config", cfg_path, "--set", "turbo=1",
                     "--out", out]) == 1
    assert run_main(["train", "--config", cfg_path, "--set", "no-equals",
                     "--out", out]) == 1
    assert "key=value" in capsys.readouterr().err
    assert run_main(["train", "--config", cfg_path, "--profile", "cloud",
                     "--out", out]) == 1
    # Bad power-iteration settings fail when the config is built: no run dir.
    for subcommand, override in (("sweep", "power_iter.max_iters=0"),
                                 ("biasvar", "power_iter.rel_tol=0")):
        assert run_main([subcommand, "--config", cfg_path, "--set", override,
                         "--out", out]) == 1
        assert "bad config value" in capsys.readouterr().err
        assert not out.exists()
    # batch_size is checked against the built train set, before any run dir.
    for subcommand in ("train", "biasvar"):
        assert run_main([subcommand, "--config", cfg_path, "--set", "batch_size=1000",
                         "--out", out]) == 1
        assert "config error: batch_size 1000 not in" in capsys.readouterr().err
        assert not out.exists()
    # x' is resolved against the 20-point test set before anything trains.
    for xprime in ("centroid", "test_point", "test_point:x", "test_point:1.5",
                   "test_point:-1", "test_point:20", "test_point:5000"):
        assert run_main(["biasvar", "--config", cfg_path, "--xprime", xprime,
                         "--out", out]) == 1
        assert "xprime_kind" in capsys.readouterr().err
        assert not out.exists()
    # The probe set is sized by `bounds` flags; the config keys are gone.
    for key in ("probe_pairs", "probe_seed"):
        legacy = tmp_path / f"{key}.json"
        legacy.write_text(json.dumps({key: 10}))
        assert run_main(["train", "--config", legacy, "--out", out]) == 1
        assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["train", "biasvar"])
@pytest.mark.parametrize("override, message", [("loss=hinge", "unknown loss kind 'hinge'"),
                                               ("family=rnn", "unknown family 'rnn'")])
def test_unknown_loss_or_family_is_named(tmp_path, capsys, subcommand, override, message):
    cfg_path, _ = write_cfg(tmp_path, grad_norm_threshold=None)
    assert run_main([subcommand, "--config", cfg_path, "--set", override,
                     "--out", tmp_path / "runs"]) == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_run_dir_and_reruns_identically(tmp_path):
    cfg_path, cfg = write_cfg(tmp_path, seeds=[0], widths=[4, 6], eval_every=2)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_main(["sweep", "--config", cfg_path, "--axis", "width",
                     "--out", out_a]) == 0
    run = f"run-{cfg.config_hash()}"
    records = (out_a / run / "records.jsonl").read_text().splitlines()
    sizes = {json.loads(line)["size"] for line in records}
    assert sizes == {4, 6}
    config = json.loads((out_a / run / "config.json").read_text())
    assert (config["subcommand"], config["axis"]) == ("sweep", "width")
    meta = json.loads((out_a / run / "meta.json").read_text())
    assert (meta["subcommand"], meta["axis"]) == ("sweep", "width")
    with open(out_a / run / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert [row["size"] for row in summary] == ["4", "6"]

    assert run_main(["sweep", "--config", cfg_path, "--axis", "width",
                     "--out", out_b]) == 0
    for name in ["records.jsonl", "summary.csv", "config.json"]:
        assert (out_a / run / name).read_bytes() == (out_b / run / name).read_bytes()


def test_sweep_clean_rerun_removes_stale_failures(tmp_path, monkeypatch):
    cfg_path, cfg = write_cfg(tmp_path, seeds=[0], widths=[4, 6], max_epochs=1)
    out = tmp_path / "runs"
    failures = out / f"run-{cfg.config_hash()}" / "failures.json"
    real_run_cell = harness.run_cell

    def failing_run_cell(c, axis, size, seed):
        if size == 6:
            raise DivergenceError(1)
        return real_run_cell(c, axis, size, seed)

    monkeypatch.delenv("LIPTRACK_WORKERS", raising=False)
    monkeypatch.setattr(harness, "run_cell", failing_run_cell)
    assert run_main(["sweep", "--config", cfg_path, "--out", out]) == 0
    assert [f["size"] for f in json.loads(failures.read_text())] == [6]
    monkeypatch.setattr(harness, "run_cell", real_run_cell)
    assert run_main(["sweep", "--config", cfg_path, "--out", out]) == 0
    assert not failures.exists()


def test_sweep_rejects_unknown_axis(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path)
    assert run_main(["sweep", "--config", cfg_path, "--axis", "temperature",
                     "--out", tmp_path / "runs"]) == 1
    assert "unknown sweep axis" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bounds


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ckpt")
    cfg_path, cfg = write_cfg(tmp)
    out = tmp / "runs"
    assert run_main(["train", "--config", cfg_path, "--out", out]) == 0
    return out / f"run-{cfg.config_hash()}" / "checkpoint.json"


def test_bounds_prints_single_json_report(trained_checkpoint, capsys):
    assert run_main(["bounds", "--checkpoint", trained_checkpoint,
                     "--data", "synthetic"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 1
    report = json.loads(out)
    assert report["c_avg_norm"] <= report["c_lower"] <= report["c_upper"]
    assert report["c_probe"] is None
    assert report["softmax_composed"] is False
    assert report["snapshot"]["epoch"] == 2
    assert "probe_fidelity" not in report


def test_bounds_with_probe_and_softmax(trained_checkpoint, capsys):
    assert run_main(["bounds", "--checkpoint", trained_checkpoint,
                     "--data", "synthetic", "--probe",
                     "--pairs-per-lambda", 50]) == 0
    probed = json.loads(capsys.readouterr().out)
    assert probed["c_lower"] <= probed["c_probe"] <= probed["c_upper"]
    assert 0.0 <= probed["probe_fidelity"] <= 1.0

    assert run_main(["bounds", "--checkpoint", trained_checkpoint,
                     "--data", "synthetic", "--softmax"]) == 0
    composed = json.loads(capsys.readouterr().out)
    assert composed["softmax_composed"] is True
    assert composed["c_lower"] <= 0.5 * probed["c_lower"] + 1e-12


def test_bounds_missing_inputs(tmp_path, trained_checkpoint, capsys):
    assert run_main(["bounds", "--checkpoint", tmp_path / "none.json",
                     "--data", "synthetic"]) == 1
    assert "checkpoint not found" in capsys.readouterr().err
    assert run_main(["bounds", "--checkpoint", trained_checkpoint,
                     "--data", tmp_path / "nothing"]) == 1
    assert "data reference not found" in capsys.readouterr().err
    assert run_main(["bounds"]) == 1  # required flags missing
    capsys.readouterr()
    # A negative pair count is a configuration error, caught at parsing.
    assert run_main(["bounds", "--checkpoint", trained_checkpoint, "--data", "synthetic",
                     "--probe", "--pairs-per-lambda", "-1"]) == 1
    assert "--pairs-per-lambda" in capsys.readouterr().err


def test_bounds_runtime_failure_exits_two(tmp_path, capsys):
    # Checkpoint trained on 8-dim inputs cannot score 40-dim data; the
    # failure surfaces as a runtime error, not a config error.
    cfg_path, cfg = write_cfg(tmp_path, name="d8.json")
    d = json.loads(cfg_path.read_text())
    d["dataset"]["d"] = 8
    cfg_path.write_text(json.dumps(d))
    out = tmp_path / "runs"
    assert run_main(["train", "--config", cfg_path, "--out", out]) == 0
    ckpt = next(out.glob("run-*/checkpoint.json"))
    assert run_main(["bounds", "--checkpoint", ckpt, "--data", "synthetic"]) == 2
    assert "run failed" in capsys.readouterr().err


def test_bounds_stdout_identical_across_blas_thread_counts(tmp_path):
    # Wide enough that the Jacobian GEMMs are large enough for OpenBLAS to
    # split them across threads.
    cfg_path, cfg = write_cfg(tmp_path, width=256, max_epochs=1)
    out = tmp_path / "runs"
    assert run_main(["train", "--config", cfg_path, "--out", out]) == 0
    ckpt = out / f"run-{cfg.config_hash()}" / "checkpoint.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for extra in ([], ["--softmax"]):
            proc = subprocess.run(
                [sys.executable, "-m", "liptrack.cli", "bounds", "--checkpoint", str(ckpt),
                 "--data", "synthetic", "--probe", "--pairs-per-lambda", "300", *extra],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs[threads, tuple(extra)] = proc.stdout
    for extra in ((), ("--softmax",)):
        assert json.loads(outputs["1", extra])["c_probe"] is not None
        assert outputs["1", extra] == outputs["2", extra]


@pytest.mark.parametrize("subcommand, files", [
    (["sweep", "--axis", "width"], ["records.jsonl", "summary.csv"]),
    (["biasvar"], ["biasvar.csv"]),
])
def test_run_files_identical_across_blas_thread_counts(tmp_path, subcommand, files):
    # Width 256 has 12800 parameters, past the 10000 entries from which
    # OpenBLAS splits a dot product across threads, and GEMMs big enough
    # to be threaded too.
    cfg_path, cfg = write_cfg(tmp_path, widths=[16, 256], max_epochs=2, loss="mse")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, LIPTRACK_WORKERS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "liptrack.cli", *subcommand, "--config", str(cfg_path),
             "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        run_dir = out / f"run-{cfg.config_hash()}"
        outputs[threads] = [(run_dir / name).read_bytes() for name in files]
    assert all(outputs["1"])
    assert outputs["1"] == outputs["2"]


# ---------------------------------------------------------------------------
# biasvar


def test_biasvar_writes_csv(tmp_path):
    cfg_path, cfg = write_cfg(tmp_path, widths=[4, 6], seeds=[0, 1], loss="mse")
    out = tmp_path / "runs"
    assert run_main(["biasvar", "--config", cfg_path, "--out", out]) == 0
    csv_path = out / f"run-{cfg.config_hash()}" / "biasvar.csv"
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == BIASVAR_CSV_COLUMNS
    assert [r[0] for r in rows[1:]] == ["4", "6"]
    assert all(r[-1] == "zero" for r in rows[1:])
    assert not (out / f"run-{cfg.config_hash()}" / "failures.json").exists()


def test_biasvar_xprime_variants(tmp_path):
    cfg_path, cfg = write_cfg(tmp_path, widths=[4], seeds=[0, 1], loss="mse")
    out = tmp_path / "runs"
    assert run_main(["biasvar", "--config", cfg_path, "--out", out,
                     "--xprime", "test_point:0"]) == 0
    csv_path = out / f"run-{cfg.config_hash()}" / "biasvar.csv"
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["xprime_kind"] == "test_point:0"
    assert run_main(["biasvar", "--config", cfg_path, "--out", out,
                     "--xprime", "centroid"]) == 1


def test_biasvar_honours_depth(tmp_path, monkeypatch):
    cfg_path, _ = write_cfg(tmp_path, widths=[4, 6], seeds=[0, 1], loss="mse", depth=2)
    real_report = ensembles.build_biasvar_report
    member_widths = []

    def recording_report(e, *args, **kwargs):
        member_widths.append([m.arch_spec()["widths"] for m in e.members])
        return real_report(e, *args, **kwargs)

    monkeypatch.setattr(ensembles, "build_biasvar_report", recording_report)
    assert run_main(["biasvar", "--config", cfg_path, "--out", tmp_path / "runs"]) == 0
    assert member_widths == [[[4, 4], [4, 4]], [[6, 6], [6, 6]]]


def test_biasvar_honours_grad_norm_threshold(tmp_path):
    # A threshold every gradient norm is below stops each member as soon
    # as min_epochs allows: the CSV matches a one-epoch cap.
    csvs = []
    for name, kw in [("stop.json", {"grad_norm_threshold": 1e9, "min_epochs": 1,
                                    "max_epochs": 5}),
                     ("cap.json", {"grad_norm_threshold": None, "max_epochs": 1})]:
        cfg_path, cfg = write_cfg(tmp_path, name=name, widths=[4], seeds=[0, 1],
                                  loss="mse", **kw)
        assert run_main(["biasvar", "--config", cfg_path, "--out", tmp_path / "runs"]) == 0
        csvs.append((tmp_path / "runs" / f"run-{cfg.config_hash()}" / "biasvar.csv").read_bytes())
    assert csvs[0] == csvs[1]


# ---------------------------------------------------------------------------
# emit-plot-data


def test_emit_plot_data_from_run_files(tmp_path, capsys):
    cfg_path, cfg = write_cfg(tmp_path, seeds=[0], widths=[4, 6])
    out = tmp_path / "runs"
    assert run_main(["sweep", "--config", cfg_path, "--axis", "width",
                     "--out", out]) == 0
    run_dir = out / f"run-{cfg.config_hash()}"

    plot = tmp_path / "widths.csv"
    assert run_main(["emit-plot-data", "--input", run_dir / "summary.csv",
                     "--kind", "bounds-vs-width", "--out", plot]) == 0
    with open(plot, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["size"] for r in rows] == ["4", "6"]
    assert float(rows[0]["c_lower_mean"]) > 0

    epochs = tmp_path / "epochs.csv"
    assert run_main(["emit-plot-data", "--input", run_dir / "records.jsonl",
                     "--kind", "bounds-vs-epoch", "--out", epochs,
                     "--size", "4"]) == 0
    with open(epochs, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["epoch"] == "0"

    assert run_main(["emit-plot-data", "--input", run_dir / "summary.csv",
                     "--kind", "loss-vs-time", "--out", tmp_path / "x.csv"]) == 1
    assert "unknown plot kind" in capsys.readouterr().err
    assert run_main(["emit-plot-data", "--input", tmp_path / "none.csv",
                     "--kind", "bounds-vs-width", "--out", tmp_path / "x.csv"]) == 1
    assert run_main(["emit-plot-data", "--input", run_dir / "records.jsonl",
                     "--kind", "bounds-vs-epoch", "--out", tmp_path / "x.csv",
                     "--size", "999"]) == 1
    assert "no rows" in capsys.readouterr().err
