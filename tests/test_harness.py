import csv
import hashlib
import json

import pytest

import liptrack.harness as harness
from liptrack import __version__
from liptrack.ensembles import build_biasvar_report
from liptrack.harness import (
    PLOT_KINDS,
    PROFILES,
    ExperimentConfig,
    apply_overrides,
    apply_profile,
    build_data,
    cell_net,
    cnn_param_count,
    emit_plot_data,
    ff_param_count,
    final_records,
    interpolation_threshold,
    read_records_jsonl,
    run_cell,
    run_sweep,
    summarize,
    summary_columns,
    write_records_jsonl,
    write_run_dir,
    write_summary_csv,
)
from liptrack.training import DivergenceError
from tests.test_ensembles import random_ensemble, small_test_set


def quick_cfg(**kw) -> ExperimentConfig:
    """A seconds-scale config on the synthetic dataset."""
    d = ExperimentConfig().to_dict()
    d["dataset"].update({"n_train": 60, "n_test": 20, "d": 8, "num_classes": 3})
    d.update(widths=[4, 8], depths=[1, 2], samples_list=[20, 40],
             noise_list=[0.0, 1.0], seeds=[0, 1], max_epochs=3, eval_every=2,
             batch_size=32, base_lr=0.05, grad_norm_threshold=1e-9)
    d.update(kw)
    return ExperimentConfig.from_dict(d)


# ---------------------------------------------------------------------------
# Config plumbing


def test_config_round_trip_and_hash():
    cfg = quick_cfg()
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert again.canonical_json() == cfg.canonical_json()
    want = hashlib.sha256(cfg.canonical_json().encode()).hexdigest()[:12]
    assert cfg.config_hash() == want
    other = quick_cfg(base_lr=0.06)
    assert other.config_hash() != cfg.config_hash()


def test_config_rejects_unknown_key():
    with pytest.raises(KeyError, match="unknown config key: momentum"):
        ExperimentConfig.from_dict({"momentum": 0.9})


def test_apply_overrides_dotted_paths():
    d = ExperimentConfig().to_dict()
    apply_overrides(d, {"base_lr": 0.5, "dataset.label_noise": 0.3})
    assert d["base_lr"] == 0.5
    assert d["dataset"]["label_noise"] == 0.3
    with pytest.raises(KeyError, match="unknown config key: turbo"):
        apply_overrides(d, {"turbo": 1})
    with pytest.raises(KeyError, match="dataset.turbo"):
        apply_overrides(d, {"dataset.turbo": 1})
    with pytest.raises(KeyError, match="base_lr.x"):
        apply_overrides(d, {"base_lr.x": 1})


def test_profiles_apply_expected_settings():
    desk = apply_profile(ExperimentConfig().to_dict(), "desk")
    assert desk["widths"] == [16, 32, 64, 80, 96, 128, 256, 512, 1024]
    assert desk["max_epochs"] == 300
    assert desk["schedule"] == "warmup20000step25"
    assert desk["base_lr"] == 1.0
    assert desk["batch_size"] == 128
    assert desk["dataset"]["label_noise"] == 0.2

    full = apply_profile(ExperimentConfig().to_dict(), "paper")
    assert full["widths"][0] == 16 and full["widths"][-1] == 131072
    assert len(full["widths"]) == 16
    assert full["max_epochs"] == 300000 and full["min_epochs"] == 10000
    assert full["base_lr"] == 0.005 and full["batch_size"] == 512

    with pytest.raises(KeyError, match="unknown profile"):
        apply_profile(ExperimentConfig().to_dict(), "cloud")
    assert set(PROFILES) == {"desk", "paper"}


def test_stop_rule_and_settings_from_config():
    cfg = quick_cfg(grad_norm_threshold=None, loss="ce", min_epochs=2, max_epochs=9)
    rule = cfg.stop_rule()
    assert rule.grad_norm_threshold == 0.01
    assert (rule.min_epochs, rule.max_epochs) == (2, 9)
    assert quick_cfg(grad_norm_threshold=None, loss="mse").stop_rule().grad_norm_threshold == 0.001
    assert quick_cfg(grad_norm_threshold=0.5).stop_rule().grad_norm_threshold == 0.5
    with pytest.raises(ValueError, match="unknown loss kind 'hinge'"):
        quick_cfg(grad_norm_threshold=None, loss="hinge").stop_rule()
    s = quick_cfg(power_iter={"max_iters": 7, "rel_tol": 1e-3, "seed": 5}).settings()
    assert (s.max_iters, s.rel_tol, s.seed) == (7, 1e-3, 5)


# ---------------------------------------------------------------------------
# Parameter counts


def test_ff_param_count_examples():
    assert ff_param_count(40, [16], 10) == 800
    assert ff_param_count(40, [80], 10) == 4000
    assert ff_param_count(40, [800], 10) == 40000
    assert ff_param_count(40, [64, 64], 10) == 7296
    assert ff_param_count(40, [64] * 5, 10) == 19584


def test_cnn_param_count_examples():
    assert cnn_param_count(5) == 9985
    assert cnn_param_count(12) == 55716
    assert cnn_param_count(60) == 1367220
    # Cross-check against the instantiated net.
    from liptrack.models import init_cnn
    assert cnn_param_count(2) == init_cnn(2, seed=0).param_count


def test_interpolation_threshold_known_values():
    assert interpolation_threshold(4000, 40, 10, "ce") == 80
    assert interpolation_threshold(4000, 40, 10, "mse") == 800
    assert interpolation_threshold(50000, 3072, 10, "ce", family="cnn") == 12


def test_interpolation_threshold_brackets_target():
    for n, loss, depth in [(1000, "ce", 1), (1000, "mse", 2), (4000, "ce", 3)]:
        t = interpolation_threshold(n, 40, 10, loss, depth=depth)
        target = n * (10 if loss == "mse" else 1)
        assert ff_param_count(40, [t] * depth, 10) >= target
        if t > 1:
            assert ff_param_count(40, [t - 1] * depth, 10) < target
    with pytest.raises(ValueError, match="loss kind"):
        interpolation_threshold(100, 40, 10, "hinge")
    with pytest.raises(ValueError, match="family"):
        interpolation_threshold(100, 40, 10, "ce", family="rnn")


# ---------------------------------------------------------------------------
# Data construction


def test_build_data_synthetic_with_mutations():
    cfg = quick_cfg()
    plain = build_data(cfg)
    assert plain.train_x.shape == (60, 8)
    assert plain.test_x.shape == (20, 8)

    d = cfg.to_dict()
    d["dataset"].update({"subsample": 30, "label_noise": 1.0, "corrupt_test": True})
    mutated = build_data(ExperimentConfig.from_dict(d))
    assert mutated.train_x.shape == (30, 8)
    kinds = [m["kind"] for m in mutated.train.provenance()["mutations"]]
    # Subsampling must run before label corruption so alpha applies to the
    # retained subset.
    assert kinds == ["synthetic", "subsample", "shuffle_labels"]
    assert [m["kind"] for m in mutated.test.provenance()["mutations"]] == \
        ["synthetic", "shuffle_labels"]

    d = cfg.to_dict()
    d["dataset"]["kind"] = "imagenet"
    with pytest.raises(ValueError, match="dataset kind"):
        build_data(ExperimentConfig.from_dict(d))


def test_subsample_zero_is_an_error_not_the_whole_train_set(monkeypatch):
    # A size-0 subsample, from the config or from a samples sweep's grid,
    # must not train on all 60 rows under a "0" label.
    monkeypatch.delenv("LIPTRACK_WORKERS", raising=False)
    d = quick_cfg().to_dict()
    d["dataset"]["subsample"] = 0
    with pytest.raises(ValueError, match=r"subsample size 0 not in \[1, 60\]"):
        build_data(ExperimentConfig.from_dict(d))
    with pytest.raises(ValueError, match=r"subsample size 0 not in \[1, 60\]"):
        run_sweep(quick_cfg(samples_list=[0, 20], seeds=[0], max_epochs=1), "samples")


# ---------------------------------------------------------------------------
# Cells and sweeps


def test_run_cell_record_structure():
    cfg = quick_cfg(seeds=[0], max_epochs=5, eval_every=2)
    records = run_cell(cfg, "width", 4, seed=0)
    assert [r["epoch"] for r in records] == [0, 2, 4, 5]
    for rec in records:
        assert list(rec) == ["config_hash", "size", "seed", "epoch", "train_loss", "test_loss",
                             "c_lower", "c_avg_norm", "c_upper", "param_dist", "grad_norm", "eta"]
        assert rec["config_hash"] == cfg.config_hash()
        assert rec["size"] == 4 and rec["seed"] == 0
        assert rec["c_avg_norm"] <= rec["c_lower"] <= rec["c_upper"]
        assert rec["grad_norm"] >= 0
    assert records[0]["param_dist"] == 0.0
    assert records[-1]["param_dist"] > 0
    # Logged epochs carry the param_dist of train's own epoch records.
    data = build_data(cfg)
    trace = harness.train_cell(cfg, cell_net(cfg, data, 0, "width", 4), data, seed=0)
    by_epoch = {rec.epoch: rec.param_dist for rec in trace.records}
    assert [r["param_dist"] for r in records[1:]] == [by_epoch[r["epoch"]] for r in records[1:]]


def test_run_cell_cadence_boundary():
    # When the final epoch lands on the cadence there is no duplicate row.
    cfg = quick_cfg(seeds=[0], max_epochs=4, eval_every=2)
    records = run_cell(cfg, "width", 4, seed=0)
    assert [r["epoch"] for r in records] == [0, 2, 4]


def test_cell_net_sizes_follow_axis():
    cfg = quick_cfg(width=5, depth=2)
    data = build_data(cfg)
    for axis, size, widths in [("width", None, [5, 5]), ("width", 7, [7, 7]),
                               ("depth", 3, [5, 5, 5]), ("samples", 20, [5, 5])]:
        spec = cell_net(cfg, data, 0, axis, size).arch_spec()
        assert spec == {"family": "ff", "input_dim": 8, "widths": widths, "output_dim": 3}
    assert cell_net(quick_cfg(family="cnn", width=2), data, 0, "width", 3).arch_spec() == \
        {"family": "cnn", "width": 3}
    with pytest.raises(ValueError, match="unknown family 'rnn'"):
        cell_net(quick_cfg(family="rnn"), data, 0)


def test_run_sweep_serial_matches_workers(monkeypatch, tmp_path):
    cfg = quick_cfg()
    monkeypatch.delenv("LIPTRACK_WORKERS", raising=False)
    serial_records, serial_summary, serial_failures = run_sweep(cfg, "width")
    monkeypatch.setenv("LIPTRACK_WORKERS", "2")
    pooled_records, pooled_summary, pooled_failures = run_sweep(cfg, "width")
    assert serial_records == pooled_records
    assert serial_summary == pooled_summary
    assert serial_failures == pooled_failures == []
    sizes = sorted({r["size"] for r in serial_records})
    assert sizes == [4, 8]
    assert {r["seed"] for r in serial_records} == {0, 1}


def test_run_sweep_unknown_axis():
    with pytest.raises(ValueError, match="sweep axis"):
        run_sweep(quick_cfg(), "temperature")


def test_axis_wrappers_route_sizes(monkeypatch):
    monkeypatch.delenv("LIPTRACK_WORKERS", raising=False)
    cfg = quick_cfg(seeds=[0], max_epochs=1, eval_every=1, depths=[1, 2],
                    samples_list=[20, 40], noise_list=[0.0, 1.0])
    for axis, want in [("width", [4, 8]), ("depth", [1, 2]),
                       ("samples", [20, 40]), ("noise", [0.0, 1.0])]:
        records, summary, failures = run_sweep(cfg, axis)
        assert sorted({r["size"] for r in records}) == want
        assert failures == []
    # The samples axis actually shrinks the train set.
    cfg_small = quick_cfg(seeds=[0])
    recs = run_cell(cfg_small, "samples", 20, seed=0)
    assert recs[0]["size"] == 20


def test_sweep_survives_weights_past_gram_overflow():
    # Adam at a huge step drives the weights past 1e154, where a layer's
    # Gram overflows while every loss stays finite; the norms still come out.
    cfg = quick_cfg(optimizer="adam", base_lr=1e150, widths=[8], seeds=[0],
                    max_epochs=4, eval_every=4, grad_norm_threshold=None)
    records, _, failures = run_sweep(cfg, "width")
    assert failures == [] and [r["epoch"] for r in records] == [0, 4]
    assert 1e300 < records[-1]["c_upper"] < float("inf")
    assert 0 < records[-1]["c_lower"] <= records[-1]["c_upper"]


def test_run_sweep_collects_failures(monkeypatch, tmp_path):
    cfg = quick_cfg(seeds=[0], max_epochs=1, eval_every=1)

    real_run_cell = harness.run_cell

    def failing_run_cell(c, axis, size, seed):
        if size == 8:
            raise DivergenceError(2)
        return real_run_cell(c, axis, size, seed)

    monkeypatch.delenv("LIPTRACK_WORKERS", raising=False)
    monkeypatch.setattr(harness, "run_cell", failing_run_cell)
    records, summary, failures = run_sweep(cfg, "width", out_dir=tmp_path)
    assert sorted({r["size"] for r in records}) == [4]
    assert failures == [{"size": 8, "seed": 0, "epoch": 2,
                         "error": "training diverged at epoch 2"}]
    run_dir = tmp_path / f"run-{cfg.config_hash()}"
    assert json.loads((run_dir / "failures.json").read_text()) == failures


# ---------------------------------------------------------------------------
# Aggregation and files


def fake_record(size, seed, epoch, value):
    rec = {"config_hash": "abc", "size": size, "seed": seed, "epoch": epoch}
    for key in ("train_loss", "test_loss", "c_lower", "c_avg_norm", "c_upper",
                "param_dist", "grad_norm", "eta"):
        rec[key] = float(value)
    return rec


def test_final_records_and_summarize_hand_check():
    records = [fake_record(4, 0, 0, 9.0), fake_record(4, 0, 5, 1.0),
               fake_record(4, 1, 5, 3.0), fake_record(8, 0, 5, 2.0)]
    finals = final_records(records)
    assert finals[(4, 0)]["train_loss"] == 1.0
    rows = summarize(records)
    assert [r["size"] for r in rows] == [4, 8]
    assert rows[0]["seeds"] == 2
    assert rows[0]["train_loss_mean"] == 2.0
    assert rows[0]["train_loss_min"] == 1.0
    assert rows[0]["train_loss_max"] == 3.0
    assert rows[1]["seeds"] == 1


def test_record_and_summary_files_round_trip(tmp_path):
    records = [fake_record(4, 0, 1, 1.5), fake_record(8, 0, 1, 2.5)]
    jsonl = tmp_path / "records.jsonl"
    write_records_jsonl(records, jsonl)
    assert read_records_jsonl(jsonl) == records
    rows = summarize(records)
    csv_path = tmp_path / "summary.csv"
    write_summary_csv(rows, csv_path)
    with open(csv_path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == summary_columns()
    assert len(parsed) == 3


def test_write_run_dir_layout(tmp_path):
    cfg = quick_cfg()
    run_dir = write_run_dir(cfg, tmp_path, {"axis": "width"})
    assert run_dir == tmp_path / f"run-{cfg.config_hash()}"
    meta = json.loads((run_dir / "config.json").read_text())
    assert meta["axis"] == "width"
    assert meta["config"] == cfg.to_dict()
    assert json.loads((run_dir / "meta.json").read_text()) == {"version": __version__,
                                                               "axis": "width"}
    assert sorted(p.name for p in run_dir.iterdir()) == ["config.json", "meta.json"]


def test_run_sweep_writes_run_dir(monkeypatch, tmp_path):
    monkeypatch.delenv("LIPTRACK_WORKERS", raising=False)
    cfg = quick_cfg(seeds=[0], max_epochs=1, eval_every=1)
    records, summary, _ = run_sweep(cfg, "width", out_dir=tmp_path)
    run_dir = tmp_path / f"run-{cfg.config_hash()}"
    meta = json.loads((run_dir / "config.json").read_text())
    assert (meta["subcommand"], meta["axis"]) == ("sweep", "width")
    assert meta["config"] == cfg.to_dict()
    assert json.loads((run_dir / "meta.json").read_text()) == {
        "version": __version__, "subcommand": "sweep", "axis": "width"}
    assert read_records_jsonl(run_dir / "records.jsonl") == records
    with open(run_dir / "summary.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == len(summary) == 2
    assert not (run_dir / "failures.json").exists()


# ---------------------------------------------------------------------------
# Plot data


def test_emit_plot_data_kinds(tmp_path, monkeypatch):
    monkeypatch.delenv("LIPTRACK_WORKERS", raising=False)
    cfg = quick_cfg(seeds=[0], max_epochs=2, eval_every=1)
    records, summary, _ = run_sweep(cfg, "width")

    for kind, rows in [("bounds-vs-width", summary), ("param-dist-vs-width", summary),
                       ("bounds-vs-epoch", records)]:
        out = tmp_path / f"{kind}.csv"
        emit_plot_data(rows, kind, out)
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert parsed

    out = tmp_path / "epoch-filtered.csv"
    emit_plot_data(records, "bounds-vs-epoch", out, size=4)
    with open(out, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert [row["epoch"] for row in parsed] == ["0", "1", "2"]

    e = random_ensemble()
    test = small_test_set()
    brow = {"width": 10}
    brow.update(build_biasvar_report(e, test))
    out = tmp_path / "var.csv"
    emit_plot_data([brow], "variance-vs-width", out)
    with open(out, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[0]["width"] == "10"

    with pytest.raises(ValueError, match="plot kind"):
        emit_plot_data(summary, "loss-vs-time", tmp_path / "x.csv")
    with pytest.raises(ValueError, match="no rows"):
        emit_plot_data([], "bounds-vs-width", tmp_path / "x.csv")
    with pytest.raises(ValueError, match="no rows"):
        emit_plot_data(records, "bounds-vs-epoch", tmp_path / "x.csv", size=999)
    assert set(PLOT_KINDS) == {"bounds-vs-width", "bounds-vs-epoch",
                               "variance-vs-width", "param-dist-vs-width"}
