import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from liptrack import __version__
from liptrack.cli import main
from liptrack.ensembles import BIASVAR_CSV_COLUMNS
from liptrack.harness import ExperimentConfig
from liptrack.models import load_checkpoint


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
    assert run_main(["train", "--config", cfg_path, "--set", "batch_size=1000",
                     "--out", out]) == 2  # validated at runtime, not parse time


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
    assert json.loads((out_a / run / "config.json").read_text())["axis"] == "width"
    with open(out_a / run / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert [row["size"] for row in summary] == ["4", "6"]

    assert run_main(["sweep", "--config", cfg_path, "--axis", "width",
                     "--out", out_b]) == 0
    for name in ["records.jsonl", "summary.csv", "config.json"]:
        assert (out_a / run / name).read_bytes() == (out_b / run / name).read_bytes()


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
                     "--xprime", "centroid"]) == 2


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
