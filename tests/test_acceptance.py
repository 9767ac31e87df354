"""End-to-end acceptance checks, one printed verdict line per check.

Each test here exercises the toolkit at its stated tolerance and prints a
[PASS]/[FAIL] line on the terminal so the verdicts can be read straight off
the run log.  The desk-scale width sweep and the qualitative-trend runs are
module-scoped because they take minutes; everything else runs in seconds.
"""

import csv
import json
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from liptrack import bounds
from liptrack.bounds import ProbeSet, build_report, lower_bound, softmax_composed_lower_bound
from liptrack.cli import main as cli_main
from liptrack.datasets import DataPair, synthetic_fallback
from liptrack.ensembles import (
    SeedEnsemble,
    decompose,
    lower_estimates,
    sweep_biasvar,
    train_ensemble,
    upper_estimates,
    variance_bound,
    write_biasvar_csv,
)
from liptrack.harness import (
    ExperimentConfig,
    apply_profile,
    build_data,
    cnn_param_count,
    ff_param_count,
    interpolation_threshold,
    read_records_jsonl,
    run_sweep,
)
from liptrack.linalg import PowerIterSettings, make_rng, spectral_norm_dense
from liptrack.models import conv2d, conv_spectral_norm, init_cnn, init_ff
from liptrack.training import (
    LrSchedule,
    StopRule,
    dataset_loss,
    make_optimizer,
    one_hot,
    param_grad,
    schedule_coeff,
    train,
)
from tests.conftest import active_input
from tests.oracles import materialize_operator, set_param_vector, svd_oracle

TIGHT = PowerIterSettings(max_iters=5000, rel_tol=1e-13, seed=0)

PEAK_WINDOW = {64, 80, 96, 128}


@contextmanager
def verdict(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {label}")
        raise
    with capsys.disabled():
        print(f"[PASS] {label}")


# ---------------------------------------------------------------------------
# Shared heavy runs


@pytest.fixture(scope="module")
def desk_sweep():
    """The full desk-profile width sweep: 9 widths x 4 seeds."""
    cfg = ExperimentConfig.from_dict(apply_profile(ExperimentConfig().to_dict(), "desk"))
    t0 = time.perf_counter()
    records, summary, failures = run_sweep(cfg, "width")
    return cfg, records, summary, failures, time.perf_counter() - t0


def _trend_cfg(**kw):
    d = ExperimentConfig().to_dict()
    d.update(width=256, widths=[256], schedule="warmup20000step25", base_lr=1.0,
             batch_size=128, min_epochs=150, max_epochs=150, eval_every=150,
             seeds=[0, 1, 2, 3])
    d.update(kw)
    return ExperimentConfig.from_dict(d)


def _seed_mean_final(records, metric):
    finals = {}
    for r in records:
        key = (r["size"], r["seed"])
        if key not in finals or r["epoch"] > finals[key]["epoch"]:
            finals[key] = r
    out = {}
    for (size, _), rec in finals.items():
        out.setdefault(size, []).append(rec[metric])
    return {size: float(np.mean(v)) for size, v in out.items()}


@pytest.fixture(scope="module")
def trend_runs():
    """Matched-epoch runs behind the qualitative-trend checks."""
    t0 = time.perf_counter()
    records = []

    rec_noise, _, f1 = run_sweep(_trend_cfg(noise_list=[0.0, 1.0]), "noise")
    records += rec_noise
    rec_samples, _, f2 = run_sweep(_trend_cfg(samples_list=[100, 4000]), "samples")
    records += rec_samples

    opt_dist = {}
    opt_failures = []
    for opt in ("sgd", "adam"):
        cfg = _trend_cfg(optimizer=opt, schedule="constant", base_lr=0.01,
                         min_epochs=100, max_epochs=100, eval_every=100)
        rec, _, f3 = run_sweep(cfg, "width")
        records += rec
        opt_failures += f3
        opt_dist[opt] = _seed_mean_final(rec, "param_dist")[256]

    data = build_data(_trend_cfg())
    net = init_ff(40, [64], 10, seed=0)
    train(net, data, "ce", make_optimizer("sgd", 1.0), "warmup20000step25",
          StopRule(1e-12, 50, 50), 128, seed=0)
    plain, _, _ = lower_bound(net, data.train_x)
    composed = softmax_composed_lower_bound(net, data.train_x)

    return {
        "noise": _seed_mean_final(rec_noise, "c_lower"),
        "samples": _seed_mean_final(rec_samples, "c_lower"),
        "opt_dist": opt_dist,
        "plain": plain,
        "composed": composed,
        "records": records,
        "failures": f1 + f2 + opt_failures,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def ensemble_suite():
    """20 synthetic seed-ensembles of varied shape plus one trained one."""
    suite = []
    for i in range(20):
        d = 6 + 2 * (i % 3)
        k = 2 + (i % 3)
        width = 8 + 3 * (i % 5)
        n_members = 2 + (i % 4)
        members = [init_ff(d, [width], k, seed=1000 * i + j) for j in range(n_members)]
        test_set = synthetic_fallback(10, 30, d, k, seed=500 + i)[1]
        suite.append((SeedEnsemble(members, list(range(n_members))), test_set))

    train_d, test_d = synthetic_fallback(400, 100, 12, 4, seed=7)
    cfg = ExperimentConfig(loss="mse", optimizer="sgd", base_lr=0.05, schedule="constant",
                           min_epochs=0, max_epochs=40, batch_size=64, seeds=[0, 1, 2, 3])
    trained = train_ensemble(cfg, DataPair(train_d, test_d), 24)
    suite.append((trained, test_d))
    return suite


# ---------------------------------------------------------------------------
# 1-3: numerical engines against independent oracles


def test_01_dense_spectral_norm_matches_svd_oracle(capsys):
    with verdict(capsys, " 1 dense spectral norm vs SVD oracle, 100 matrices, rel 1e-6"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20260822)
        worst = 0.0
        for _ in range(100):
            rows, cols = (int(v) for v in rng.integers(1, 65, size=2))
            m = rng.standard_normal((rows, cols)) * float(rng.uniform(0.1, 10.0))
            want = svd_oracle(m)
            got = spectral_norm_dense(m, TIGHT)
            worst = max(worst, abs(got - want) / want)
        assert worst < 1e-6
        assert time.perf_counter() - t0 < 10.0


def test_02_conv_operator_norm_matches_materialized_svd(capsys):
    with verdict(capsys, " 2 conv operator norm vs materialized SVD, 20 configs, rel 1e-6"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(17)
        for _ in range(20):
            c_out = int(rng.integers(1, 5))
            c_in = int(rng.integers(1, 4))
            h = int(rng.integers(3, 7))
            w = int(rng.integers(3, 7))
            kernel = rng.standard_normal((c_out, c_in, 3, 3))
            got = conv_spectral_norm(kernel, (h, w), TIGHT)
            mat = materialize_operator(lambda v: conv2d(v[None], kernel)[0], (c_in, h, w))
            want = svd_oracle(mat)
            assert abs(got - want) / want < 1e-6
        assert time.perf_counter() - t0 < 30.0


def test_03_gradients_match_central_finite_differences(capsys):
    with verdict(capsys, " 3 param grads and input Jacobians vs central FD, 50 nets, abs 1e-5"):
        t0 = time.perf_counter()
        h = 1e-6
        for case in range(50):
            kind = "mse" if case % 2 else "ce"
            net = init_ff(40, [16], 10, seed=9000 + case)
            rng = make_rng(case, 0xACCE)
            # Inputs are drawn so every unit sits well away from its kink;
            # the net is then exactly linear across the FD stencil.
            x = active_input(net, rng, margin=1e-3)

            jac = net.input_jacobians(x[None])[0]
            fd = np.empty_like(jac)
            for i in range(40):
                e = np.zeros(40)
                e[i] = h
                fd[:, i] = (net.forward(x + e) - net.forward(x - e)) / (2 * h)
            assert np.max(np.abs(fd - jac)) < 1e-5

            xb = x[None]
            yb = np.array([int(rng.integers(0, 10))])
            _, grad = param_grad(net, xb, yb, kind)
            theta = net.param_vector()
            work = net.copy()
            fd_grad = np.empty_like(grad)
            for i in range(theta.size):
                tp = theta.copy()
                tp[i] += h
                set_param_vector(work, tp)
                up = dataset_loss(work, xb, yb, kind)
                tp[i] -= 2 * h
                set_param_vector(work, tp)
                down = dataset_loss(work, xb, yb, kind)
                fd_grad[i] = (up - down) / (2 * h)
            assert np.max(np.abs(fd_grad - grad)) < 1e-5
        assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 4-5: parameter counts and interpolation thresholds


FF_COUNT_TABLE = [
    ([16], 800),
    ([32], 1_600),
    ([80], 4_000),
    ([800], 40_000),
    ([131072], 6_553_600),
    ([64] * 2, 7_296),
    ([64] * 3, 11_392),
    ([64] * 4, 15_488),
    ([64] * 5, 19_584),
]

CNN_COUNT_TABLE = [(5, 9_985), (7, 19_271), (10, 38_870), (11, 46_915),
                   (12, 55_716), (15, 86_655), (60, 1_367_220)]


def test_04_param_count_tables_are_exact(capsys):
    with verdict(capsys, " 4 parameter-count tables reproduced exactly"):
        for widths, expect in FF_COUNT_TABLE:
            assert ff_param_count(40, widths, 10) == expect
        for width, expect in CNN_COUNT_TABLE:
            assert cnn_param_count(width) == expect
        # The formulas agree with actual instantiated nets.
        assert init_ff(40, [16], 10, seed=0).param_count == 800
        assert init_ff(40, [64] * 3, 10, seed=0).param_count == 11_392
        assert init_cnn(5, seed=0).param_count == 9_985


def test_05_interpolation_thresholds(capsys):
    with verdict(capsys, " 5 interpolation thresholds: 80 (ce), 800 (mse), conv bracket 11/12"):
        assert interpolation_threshold(4000, 40, 10, "ce") == 80
        assert interpolation_threshold(4000, 40, 10, "mse") == 800
        assert interpolation_threshold(50_000, 3072, 10, "ce", family="cnn") == 12
        assert cnn_param_count(11) < 50_000 <= cnn_param_count(12)


# ---------------------------------------------------------------------------
# 6: bound ordering on every checkpoint


def bound_chain(after_lower=()) -> list[list[str]]:
    """Test 6's chain, read from ``bounds.ESTIMATES``: groups of names, and
    no value of a group may exceed a value of the next one.  The average
    side comes first, then each lower-side name on its own in table order,
    then ``after_lower``, then the upper side."""
    by_side = {"average": [], "lower": [], "upper": []}
    for sides, _ in bounds.ESTIMATES:
        for name, side in sides.items():
            by_side[side].append(name)
    groups = [by_side["average"], *([name] for name in by_side["lower"] + list(after_lower)),
              by_side["upper"]]
    return [g for g in groups if g]


def assert_chain(values: dict, chain) -> None:
    for below, above in zip(chain, chain[1:]):
        low = np.max([values[name] for name in below])
        high = np.min([values[name] for name in above])
        assert low <= high, (below, above, values)


def test_06_bound_ordering_never_violated(capsys, desk_sweep, trend_runs):
    report_chain = bound_chain(after_lower=["c_probe"])
    label = " <= ".join("/".join(group) for group in report_chain)
    with verdict(capsys, f" 6 {label} on every checkpoint"):
        _, desk_records, _, _, _ = desk_sweep
        all_records = desk_records + trend_runs["records"]
        assert len(all_records) > 200
        for rec in all_records:
            assert_chain(rec, bound_chain())

        # Probe estimates are not part of sweep records, so the full chain
        # is checked on freshly trained nets with real probe sets.
        train_d, test_d = synthetic_fallback(1200, 300, 20, 6, seed=3)
        pair = DataPair(train_d, test_d)
        probe = ProbeSet(pair.train_x, pair.test_x, pair_count=500, seed=0)
        for kind, width, epochs, softmax in [("ce", 48, 60, False),
                                             ("mse", 32, 40, False),
                                             ("ce", 48, 60, True)]:
            net = init_ff(20, [width], 6, seed=11)
            train(net, pair, kind, make_optimizer("sgd", 1.0), "warmup20000step25",
                  StopRule(1e-12, epochs, epochs), 128, seed=11)
            report = build_report(net, pair.train_x, {"epoch": epochs}, TIGHT,
                                  probe=probe, softmax_composed=softmax)
            assert_chain(report, report_chain)


def test_an_estimate_entry_reaches_every_output(monkeypatch, tmp_path, capsys):
    # One more ESTIMATES entry shows up in records.jsonl, summary.csv, the
    # bounds report and test 6's chain, with no other edit.
    assert bound_chain(["c_probe"]) == [["c_avg_norm"], ["c_lower"], ["c_probe"], ["c_upper"]]
    dummy = ({"c_dummy": "upper"},
             lambda net, x, settings, jacobians: (2 * bounds.upper_bound(net, settings),))
    monkeypatch.setattr(bounds, "ESTIMATES", bounds.ESTIMATES + (dummy,))
    monkeypatch.delenv("LIPTRACK_WORKERS", raising=False)
    small = ["--set", "dataset.n_train=40", "--set", "dataset.n_test=10", "--set", "seeds=[0]",
             "--set", "max_epochs=2", "--set", "eval_every=1", "--set", "batch_size=20",
             "--set", "width=5"]
    assert cli_main(["sweep", "--axis", "width", "--set", "widths=[4]", *small,
                     "--out", str(tmp_path / "sweep")]) == 0
    run_dir = next((tmp_path / "sweep").glob("run-*"))
    records = read_records_jsonl(run_dir / "records.jsonl")
    assert len(records) == 3
    for rec in records:
        assert list(rec)[6:10] == ["c_lower", "c_avg_norm", "c_upper", "c_dummy"]
        assert rec["c_dummy"] == 2 * rec["c_upper"]
        assert_chain(rec, bound_chain())
    with open(run_dir / "summary.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header[-9:-6] == ["c_dummy_mean", "c_dummy_min", "c_dummy_max"]

    assert cli_main(["train", *small, "--out", str(tmp_path / "train")]) == 0
    checkpoint = next((tmp_path / "train").glob("run-*/checkpoint.json"))
    capsys.readouterr()
    assert cli_main(["bounds", "--checkpoint", str(checkpoint), "--data", "synthetic",
                     "--probe", "--pairs-per-lambda", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["c_lower", "c_avg_norm", "c_upper", "c_dummy", "c_probe",
                            "softmax_composed", "snapshot", "probe_fidelity"]
    assert report["c_dummy"] == 2 * report["c_upper"]
    report_chain = bound_chain(["c_probe"])
    assert report_chain == [["c_avg_norm"], ["c_lower"], ["c_probe"], ["c_upper", "c_dummy"]]
    assert_chain(report, report_chain)


# ---------------------------------------------------------------------------
# 7-9: ensemble decomposition and its bounds


def _naive_decompose(e, test_set):
    """Per-point, per-member double loop; the reference the fast path must match."""
    k = e.members[0].output_dim
    y = one_hot(test_set.labels, k)
    preds = [m.forward(test_set.inputs) for m in e.members]
    n = test_set.inputs.shape[0]
    s = len(preds)
    bias = var = loss = 0.0
    for i in range(n):
        fbar = sum(p[i] for p in preds) / s
        bias += float(np.sum((y[i] - fbar) ** 2))
        var += sum(float(np.sum((fbar - p[i]) ** 2)) for p in preds) / s
        loss += sum(float(np.sum((y[i] - p[i]) ** 2)) for p in preds) / s
    return bias / n, var / n, loss / n


def test_07_bias_variance_identity_and_oracle(capsys, ensemble_suite):
    with verdict(capsys, " 7 bias-variance identity within 1e-8, terms vs double loop within 1e-10"):
        t0 = time.perf_counter()
        for e, test_set in ensemble_suite:
            bias_sq, variance, expected = decompose(e, test_set)
            assert abs(expected - (bias_sq + variance)) < 1e-8
            nb, nv, nl = _naive_decompose(e, test_set)
            assert abs(bias_sq - nb) < 1e-10
            assert abs(variance - nv) < 1e-10
            assert abs(expected - nl) < 1e-10
        assert time.perf_counter() - t0 < 60.0


def test_08_variance_bounds_dominate(capsys, ensemble_suite):
    with verdict(capsys, " 8 variance <= bound_v1 <= bound_v2 at upper constants, zero violations"):
        for e, test_set in ensemble_suite:
            _, variance, _ = decompose(e, test_set)
            up = upper_estimates(e)
            v1, v2 = variance_bound(e, test_set, None, up)
            assert variance <= v1 <= v2


def test_09_mean_net_constant_never_exceeds_mean_constant(capsys, ensemble_suite):
    with verdict(capsys, " 9 ensemble-mean estimate <= per-member mean estimate, every ensemble"):
        for e, test_set in ensemble_suite:
            lo = lower_estimates(e, test_set.inputs)
            assert lo.c_bar <= lo.c_bar_zeta


# ---------------------------------------------------------------------------
# 10: learning-rate schedules are exact


def test_10_schedule_exactness(capsys):
    with verdict(capsys, "10 schedules: warmup hits 1.0 and 0.421875 exactly, cont100 is 0.95^(e//100)"):
        for upe in (1, 32, 313):
            s = LrSchedule("warmup20000step25", upe)
            assert schedule_coeff(s, 20_000) == 1.0
            last_drop = 20_000 + 3 * 2_500 * upe
            for u in (last_drop, last_drop + 1, last_drop + 123_456):
                assert schedule_coeff(s, u) == 0.421875

            c = LrSchedule("cont100", upe)
            for epoch in (0, 1, 99, 100, 199, 200, 250, 999):
                for u in (epoch * upe, epoch * upe + upe - 1):
                    assert schedule_coeff(c, u) == 0.95 ** (epoch // 100)


# ---------------------------------------------------------------------------
# 11: desk-scale double descent


def test_11_desk_width_sweep_shows_double_descent(capsys, desk_sweep):
    with verdict(capsys, "11 desk sweep: test loss and c_lower peak in 64..128, both lower at 1024"):
        _, _, summary, failures, elapsed = desk_sweep
        assert failures == []
        assert elapsed < 4 * 3600

        test_loss = {row["size"]: row["test_loss_mean"] for row in summary}
        c_lower = {row["size"]: row["c_lower_mean"] for row in summary}
        for curve in (test_loss, c_lower):
            peak = max(curve, key=curve.get)
            assert peak in PEAK_WINDOW
            assert curve[1024] < curve[peak]


# ---------------------------------------------------------------------------
# 12: qualitative trends


def test_12_qualitative_trends(capsys, trend_runs):
    with verdict(capsys, "12 trends: label noise, sample count, Adam displacement, softmax composition"):
        assert trend_runs["failures"] == []
        assert trend_runs["elapsed"] < 3600

        assert trend_runs["noise"][1.0] < trend_runs["noise"][0.0]
        assert trend_runs["samples"][100] < trend_runs["samples"][4000]
        assert trend_runs["opt_dist"]["adam"] > trend_runs["opt_dist"]["sgd"]
        assert trend_runs["composed"] < trend_runs["plain"]


# ---------------------------------------------------------------------------
# 13: bit-exact reruns


def test_13_reruns_are_bit_exact(capsys, tmp_path):
    with verdict(capsys, "13 identical seeds reproduce every JSONL/CSV byte for byte"):
        d = ExperimentConfig().to_dict()
        d["dataset"].update(n_train=300, n_test=80, d=12, num_classes=4)
        d.update(widths=[8, 16], seeds=[0, 1], max_epochs=5, eval_every=5,
                 batch_size=64, base_lr=0.05)
        cfg = ExperimentConfig.from_dict(d)

        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_a = run_sweep(cfg, "width", out_dir=out_a)
        run_b = run_sweep(cfg, "width", out_dir=out_b)
        assert run_a[0] == run_b[0]
        run_name = f"run-{cfg.config_hash()}"
        for name in ("records.jsonl", "summary.csv", "config.json"):
            assert (out_a / run_name / name).read_bytes() == (out_b / run_name / name).read_bytes()

        pair = build_data(cfg)
        # base_lr and power_iter pinned to the values the ensemble study
        # used before it read them from the config.
        bv_cfg = replace(cfg, widths=[6, 10], loss="mse", max_epochs=8, base_lr=0.01,
                         power_iter={**cfg.power_iter, "max_iters": 10000})
        csvs = []
        for sub in ("x", "y"):
            rows, failures = sweep_biasvar(bv_cfg, pair)
            assert failures == []
            path = tmp_path / f"biasvar_{sub}.csv"
            write_biasvar_csv(rows, path)
            csvs.append(path.read_bytes())
        assert csvs[0] == csvs[1]

        traces = []
        for sub in ("x", "y"):
            net = init_ff(12, [8], 4, seed=2)
            trace = train(net, pair, "mse", make_optimizer("sgd", 0.05), "constant",
                          StopRule(1e-12, 5, 5), 64, seed=2)
            path = tmp_path / f"trace_{sub}.jsonl"
            trace.write_jsonl(path)
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]
