import csv

import numpy as np
import pytest

from liptrack.bounds import batch_spectral_norms, lower_bound
from liptrack.datasets import DataPair, Dataset, synthetic_fallback
from liptrack.ensembles import (
    BIASVAR_CSV_COLUMNS,
    SeedEnsemble,
    build_biasvar_report,
    decompose,
    lower_estimates,
    mean_sq_dist,
    sweep_biasvar,
    train_ensemble,
    upper_estimates,
    variance_at,
    variance_bounds,
    write_biasvar_csv,
)
from liptrack import ensembles, linalg
from liptrack.harness import ExperimentConfig
from liptrack.linalg import PowerIterSettings, make_rng
from liptrack.models import init_ff
from liptrack.training import one_hot
from tests.oracles import svd_oracle

TIGHT = PowerIterSettings(max_iters=5000, rel_tol=1e-13, seed=0)


def random_ensemble(n_members=3, d=8, width=10, k=3, base_seed=0) -> SeedEnsemble:
    members = [init_ff(d, [width], k, seed=base_seed + s) for s in range(n_members)]
    return SeedEnsemble(members)


def small_test_set(n=25, d=8, k=3, seed=1) -> Dataset:
    _, test = synthetic_fallback(10, n, d=d, num_classes=k, seed=seed)
    return test


def bounds_at_origin(e: SeedEnsemble, test: Dataset, constants):
    origin = np.zeros(test.dim)
    return variance_bounds(mean_sq_dist(test.inputs, origin), variance_at(e, origin), *constants)


# ---------------------------------------------------------------------------
# Ensemble container


def test_seed_ensemble_validation():
    net = init_ff(4, [5], 2, seed=0)
    with pytest.raises(ValueError, match="at least 2"):
        SeedEnsemble([net])
    other = init_ff(4, [6], 2, seed=1)
    with pytest.raises(ValueError, match="mixed architectures"):
        SeedEnsemble([net, other])


# ---------------------------------------------------------------------------
# Decomposition


def test_decompose_matches_double_loop_oracle():
    e = random_ensemble()
    test = small_test_set()
    bias_sq, variance, expected = decompose(e, test)

    y = one_hot(test.labels, 3)
    preds = np.stack([m.forward(test.inputs) for m in e.members])
    fbar = preds.mean(axis=0)
    want_bias = np.mean(np.sum((y - fbar) ** 2, axis=1))
    want_var = np.mean([np.mean(np.sum((preds[s] - fbar) ** 2, axis=1))
                        for s in range(len(e.members))])
    want_loss = np.mean([np.mean(np.sum((y - preds[s]) ** 2, axis=1))
                         for s in range(len(e.members))])
    assert bias_sq == pytest.approx(want_bias, rel=1e-12)
    assert variance == pytest.approx(want_var, rel=1e-12)
    assert expected == pytest.approx(want_loss, rel=1e-12)


def test_decompose_additive_identity_and_chunking(monkeypatch):
    e = random_ensemble(n_members=4, base_seed=5)
    test = small_test_set(n=33, seed=2)
    bias_sq, variance, expected = decompose(e, test)
    assert bias_sq + variance == pytest.approx(expected, rel=1e-12)
    monkeypatch.setattr(linalg, "ROW_CHUNK", 7)
    b2, v2, e2 = decompose(e, test)
    assert (b2, v2, e2) == (pytest.approx(bias_sq, rel=1e-12),
                            pytest.approx(variance, rel=1e-12),
                            pytest.approx(expected, rel=1e-12))
    empty = Dataset(np.zeros((0, 8)), np.zeros(0, dtype=np.int64), "test", "t")
    with pytest.raises(ValueError, match="nonempty"):
        decompose(e, empty)


# ---------------------------------------------------------------------------
# Ensemble Lipschitz estimates


def test_lower_estimates_linear_regime_analytic():
    # Two all-positive single-layer stacks on positive inputs are exactly
    # linear, so both estimates reduce to matrix norms computed by the
    # dense oracle: the mean-function constant is ||(P1 + P2) / 2|| and
    # the per-member average is (||P1|| + ||P2||) / 2.
    rng = make_rng(1, 40)
    nets = []
    prods = []
    for s in range(2):
        w1 = rng.uniform(0.1, 1.0, size=(7, 5))
        w2 = rng.uniform(0.1, 1.0, size=(3, 7))
        net = init_ff(5, [7], 3, seed=s)
        net.weights[0][...] = w1
        net.weights[1][...] = w2
        nets.append(net)
        prods.append(w2 @ w1)
    e = SeedEnsemble(nets)
    x = rng.uniform(0.1, 2.0, size=(15, 5))
    c_bar, c_bar_zeta = lower_estimates(e, x)
    assert c_bar == pytest.approx(svd_oracle((prods[0] + prods[1]) / 2), rel=1e-11)
    assert c_bar_zeta == pytest.approx((svd_oracle(prods[0]) + svd_oracle(prods[1])) / 2,
                                       rel=1e-11)
    assert c_bar <= c_bar_zeta + 1e-12


def test_lower_estimates_jensen_inequality():
    e = random_ensemble(n_members=4, base_seed=9)
    x = make_rng(2, 40).standard_normal((30, 8))
    c_bar, c_bar_zeta = lower_estimates(e, x)
    # The norm of a mean of Jacobians never exceeds the mean of the sups.
    assert c_bar <= c_bar_zeta + 1e-12
    with pytest.raises(ValueError, match="at least one sample"):
        lower_estimates(e, np.zeros((0, 8)))


def test_lower_estimates_matches_separate_passes(monkeypatch):
    # One Jacobian pass per member and chunk feeds both estimates; the
    # values equal the mean-Jacobian sup and the mean of each member's own
    # lower_bound over the same chunks, bit for bit.  The members are
    # depth 1, so each reuses one Jacobian workspace over the chunks and
    # the mean must not alias a member's result.
    cases = [(random_ensemble(n_members=3, d=8, width=12, k=4, base_seed=21),
              make_rng(3, 40).standard_normal((23, 8)), (256, 5)),
             (random_ensemble(n_members=3, d=40, width=64, k=10, base_seed=41),
              make_rng(4, 40).standard_normal((300, 40)), (128,))]
    for e, x, chunks in cases:
        for chunk in chunks:
            monkeypatch.setattr(linalg, "ROW_CHUNK", chunk)
            best = 0.0
            for lo in range(0, len(x), chunk):
                xb = x[lo:lo + chunk]
                mean_jac = sum(m.input_jacobians(xb) for m in e.members) / len(e.members)
                best = max(best, float(batch_spectral_norms(mean_jac).max()))
            per_seed = [lower_bound(m, x)[0] for m in e.members]
            assert lower_estimates(e, x) == (best, float(np.mean(per_seed)))


@pytest.mark.parametrize("norms", [(1.0, float("nan")), (float("nan"), 1.0)])
def test_ensemble_lower_constants_keep_a_nan_norm(monkeypatch, norms):
    # Stub norms: both members and the mean see [a] on the first one-row
    # chunk and [b] on the second, three norm calls per chunk.
    calls = []

    def stub(jac):
        calls.append(jac)
        return np.array([norms[(len(calls) - 1) // 3]])

    monkeypatch.setattr(linalg, "ROW_CHUNK", 1)
    monkeypatch.setattr(ensembles, "batch_spectral_norms", stub)
    c_bar, c_bar_zeta = lower_estimates(random_ensemble(n_members=2), np.ones((2, 8)))
    assert len(calls) == 6
    assert np.isnan(c_bar) and np.isnan(c_bar_zeta)


def test_variance_at_and_mean_sq_dist_oracles():
    e = random_ensemble()
    x = make_rng(3, 40).standard_normal(8)
    preds = np.stack([m.forward(x) for m in e.members])
    fbar = preds.mean(axis=0)
    want = np.mean([np.sum((p - fbar) ** 2) for p in preds])
    assert variance_at(e, x) == pytest.approx(want, rel=1e-13)

    rows = make_rng(4, 40).standard_normal((9, 8))
    want_msd = np.mean([np.sum((r - x) ** 2) for r in rows])
    assert mean_sq_dist(rows, x) == pytest.approx(want_msd, rel=1e-13)


def test_variance_at_origin_is_zero_for_zero_bias_nets():
    e = random_ensemble()
    assert variance_at(e, np.zeros(8)) == 0.0


# ---------------------------------------------------------------------------
# Variance bounds


def test_variance_bound_formula_recompute():
    e = random_ensemble(base_seed=3)
    test = small_test_set(seed=3)
    xp = test.inputs[4]
    msd = mean_sq_dist(test.inputs, xp)
    vxp = variance_at(e, xp)
    v1, v2 = variance_bounds(msd, vxp, 1.5, 2.0)
    assert v1 == pytest.approx(3 * (1.5 ** 2 + 2.0 ** 2) * msd + 3 * vxp, rel=1e-13)
    assert v2 == pytest.approx(6 * msd * 2.0 ** 2 + 3 * vxp, rel=1e-13)


def test_estimate_labels_and_upper_symmetry():
    e = random_ensemble(base_seed=6)
    test = small_test_set(seed=6)
    lo = lower_estimates(e, test.inputs)
    up = upper_estimates(e, TIGHT)
    # The layer-product value serves for both constants on the upper side.
    assert up[0] == up[1]
    assert lo[0] <= up[0]
    assert lo[1] <= up[1]
    # Equal constants collapse the two bound forms into one (up to the
    # one-ulp difference in evaluation order).
    v1, v2 = bounds_at_origin(e, test, up)
    assert v1 == pytest.approx(v2, rel=1e-15)


def test_second_bound_dominates_first_at_lower_constants():
    e = random_ensemble(n_members=4, base_seed=7)
    test = small_test_set(n=30, seed=7)
    v1, v2 = bounds_at_origin(e, test, lower_estimates(e, test.inputs))
    # v2 - v1 = 3 msd (c_bar_zeta^2 - c_bar^2) >= 0 by Jensen.
    assert v2 >= v1


def test_measured_variance_below_upper_constant_bounds():
    e = random_ensemble(n_members=4, base_seed=8)
    test = small_test_set(n=30, seed=8)
    _, variance, _ = decompose(e, test)
    v1, v2 = bounds_at_origin(e, test, upper_estimates(e, TIGHT))
    assert variance <= v1
    assert variance <= v2


# ---------------------------------------------------------------------------
# Reports and sweeps


def test_build_biasvar_report_contents():
    e = random_ensemble(base_seed=10)
    test = small_test_set(seed=10)
    row = build_biasvar_report(e, test, xprime_kind="zero", settings=TIGHT)
    assert list(row) == BIASVAR_CSV_COLUMNS[1:]
    assert row["xprime_kind"] == "zero"
    assert row["bias_sq"] + row["variance"] == pytest.approx(row["test_loss"], rel=1e-12)
    assert row["r_sq"] == pytest.approx(
        mean_sq_dist(test.inputs, np.zeros(test.dim)), rel=1e-13)
    # At the origin E||x − x′||² is r_sq and the zero-bias variance term is 0.
    assert (row["bound_v1_lower"], row["bound_v2_lower"]) == variance_bounds(
        row["r_sq"], 0.0, row["c_bar"], row["c_bar_zeta"])
    assert row["bound_v1_upper"] == pytest.approx(row["bound_v2_upper"], rel=1e-15)


def test_build_biasvar_report_test_point_xprime():
    e = random_ensemble(base_seed=11)
    test = small_test_set(seed=11)
    row = build_biasvar_report(e, test, xprime_kind="test_point:4", settings=TIGHT)
    assert row["xprime_kind"] == "test_point:4"
    xp = test.inputs[4]
    msd, vxp = mean_sq_dist(test.inputs, xp), variance_at(e, xp)
    assert vxp > 0.0
    # Both sides are built from the variance at this x′, not the origin.
    assert (row["bound_v1_lower"], row["bound_v2_lower"]) == variance_bounds(
        msd, vxp, row["c_bar"], row["c_bar_zeta"])
    assert (row["bound_v1_upper"], row["bound_v2_upper"]) == variance_bounds(
        msd, vxp, *upper_estimates(e, TIGHT))
    with pytest.raises(ValueError, match="xprime_kind"):
        build_biasvar_report(e, test, xprime_kind="centroid")


def test_train_ensemble_deterministic_and_distinct_members():
    train_set, test_set = synthetic_fallback(60, 20, d=8, num_classes=3, seed=12)
    data = DataPair(train_set, test_set)
    cfg = ExperimentConfig(loss="mse", optimizer="sgd", base_lr=0.05, schedule="constant",
                           min_epochs=0, max_epochs=2, batch_size=32, seeds=[0, 1])
    a = train_ensemble(cfg, data, 6)
    b = train_ensemble(cfg, data, 6)
    assert len(a.members) == 2
    for ma, mb in zip(a.members, b.members):
        assert np.array_equal(ma.param_vector(), mb.param_vector())
    assert not np.array_equal(a.members[0].param_vector(), a.members[1].param_vector())
    assert a.members[0].arch_spec() == a.members[1].arch_spec()


def test_sweep_biasvar_rows_and_failures():
    train_set, test_set = synthetic_fallback(60, 20, d=8, num_classes=3, seed=13)
    data = DataPair(train_set, test_set)
    cfg = ExperimentConfig(widths=[4, 6], seeds=[0, 1], loss="mse", base_lr=0.05,
                           max_epochs=2, batch_size=32,
                           power_iter={"max_iters": 5000, "rel_tol": 1e-13, "seed": 0})
    rows, failures = sweep_biasvar(cfg, data)
    assert failures == []
    assert [r["width"] for r in rows] == [4, 6]
    for row in rows:
        assert list(row) == BIASVAR_CSV_COLUMNS

    # Astronomical inputs overflow the first MSE forward pass, so every
    # width lands in the failure list instead of the row list.
    huge = Dataset(train_set.inputs * 1e200, train_set.labels, "train", "t", 3)
    huge_pair = DataPair(huge, Dataset(test_set.inputs, test_set.labels, "test", "t", 3))
    with np.errstate(over="ignore", invalid="ignore"):
        rows, failures = sweep_biasvar(cfg, huge_pair)
    assert rows == []
    assert [f["width"] for f in failures] == [4, 6]
    for f in failures:
        assert f["epoch"] == 1
        assert "diverged" in f["error"]


def test_write_biasvar_csv_column_order(tmp_path):
    e = random_ensemble(base_seed=14)
    test = small_test_set(seed=14)
    row = {"width": 10, **build_biasvar_report(e, test, settings=TIGHT)}
    path = tmp_path / "biasvar.csv"
    write_biasvar_csv([row], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == BIASVAR_CSV_COLUMNS
    assert len(rows) == 2
    assert rows[1][0] == "10"
    assert float(rows[1][1]) == pytest.approx(row["bias_sq"], rel=1e-15)
    assert rows[1][-1] == "zero"
