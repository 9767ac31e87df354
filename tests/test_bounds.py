import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liptrack.bounds import (
    PROBE_LAMBDAS,
    LipschitzReport,
    ProbeSet,
    batch_spectral_norms,
    build_report,
    lower_bound,
    probe_bound,
    softmax_composed_lower_bound,
    softmax_jacobian,
    upper_bound,
)
from liptrack import bounds, linalg, models
from liptrack.linalg import PowerIterSettings, make_rng, svd_oracle
from liptrack.models import init_ff

TIGHT = PowerIterSettings(max_iters=5000, rel_tol=1e-13, seed=0)


def softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Norm stacks and Jacobian bounds


def test_batch_spectral_norms_match_svd_oracle():
    rng = make_rng(0, 30)
    mats = rng.standard_normal((12, 5, 9))
    got = batch_spectral_norms(mats)
    want = [svd_oracle(m) for m in mats]
    np.testing.assert_allclose(got, want, rtol=1e-11)
    assert batch_spectral_norms(np.zeros((0, 3, 4))).shape == (0,)


def test_batch_spectral_norms_iterative_branch():
    # min(k, d) above linalg.EXACT_SIDE_CAP (128) falls back to per-matrix
    # power iteration; numpy's SVD is the independent reference there.
    rng = make_rng(1, 30)
    mats = rng.standard_normal((2, 513, 520))
    got = batch_spectral_norms(mats, TIGHT)
    want = [np.linalg.svd(m, compute_uv=False)[0] for m in mats]
    np.testing.assert_allclose(got, want, rtol=1e-8)


def test_lower_bound_constant_jacobian_regime():
    # All-positive weights and inputs keep every ReLU active, so the net
    # is exactly linear on the sample set and the Jacobian is W2 @ W1.
    rng = make_rng(2, 30)
    w1 = rng.uniform(0.1, 1.0, size=(7, 5))
    w2 = rng.uniform(0.1, 1.0, size=(3, 7))
    net = init_ff(5, [7], 3, seed=0)
    net.weights[0][...] = w1
    net.weights[1][...] = w2
    x = rng.uniform(0.1, 2.0, size=(20, 5))
    best, mean, idx = lower_bound(net, x)
    want = svd_oracle(w2 @ w1)
    assert best == pytest.approx(want, rel=1e-12)
    assert mean == pytest.approx(want, rel=1e-12)
    assert idx == 0


def test_lower_bound_matches_per_sample_oracle():
    net = init_ff(6, [9, 8], 4, seed=3)
    x = make_rng(3, 30).standard_normal((25, 6))
    best, mean, idx = lower_bound(net, x)
    per = np.array([svd_oracle(net.input_jacobians(s[None])[0]) for s in x])
    assert best == pytest.approx(per.max(), rel=1e-11)
    assert idx == int(np.argmax(per))
    assert mean == pytest.approx(per.mean(), rel=1e-11)


def test_lower_bound_chunk_invariance_and_errors(monkeypatch):
    net = init_ff(6, [9], 3, seed=4)
    x = make_rng(4, 30).standard_normal((23, 6))
    b1, m1, i1 = lower_bound(net, x)
    monkeypatch.setattr(linalg, "ROW_CHUNK", 5)
    b2, m2, i2 = lower_bound(net, x)
    assert (b1, i1) == (b2, i2)
    assert m1 == pytest.approx(m2, rel=1e-13)
    with pytest.raises(ValueError, match="at least one sample"):
        lower_bound(net, np.zeros((0, 6)))


def test_sup_mean_reports_nan_norms_as_nan_not_negative():
    nan = float("nan")
    streams = {
        "all NaN": ([[nan, nan], [nan]], 0),
        "NaN in the middle": ([[1.0, 2.0], [0.5, nan, 3.0], [4.0]], 3),
        "NaN in the first batch": ([[0.5, nan], [9.0]], 1),
    }
    for name, (batches, nan_index) in streams.items():
        sup, mean, idx = bounds._sup_mean(iter([np.array(b) for b in batches]))
        assert np.isnan(sup) and np.isnan(mean), name
        assert idx == nan_index, name
    # Without NaNs the sup is never negative, even for all-zero norms.
    assert bounds._sup_mean(iter([np.zeros(3), np.zeros(2)])) == (0.0, 0.0, 0)
    assert bounds._sup_mean(iter([np.array([1.0, 3.0]), np.array([3.0, 2.0])])) == (3.0, 2.25, 1)


@pytest.mark.parametrize("norms", [(1.0, float("nan")), (float("nan"), 1.0)])
def test_every_sup_keeps_a_nan_norm_wherever_it_falls(monkeypatch, norms):
    # Stub norm batches [a] then [b], one per one-row chunk: the train pass
    # and the probe remainder of a report, or a sample set's two chunks.
    def stub():
        values = iter(norms)
        monkeypatch.setattr(bounds, "batch_spectral_norms",
                            lambda jac: np.array([next(values)]))

    monkeypatch.setattr(linalg, "ROW_CHUNK", 1)
    net = init_ff(4, [5], 3, seed=0)
    x = make_rng(0, 30).standard_normal((2, 4))
    probe = ProbeSet(x[:1], x[1:], pair_count=0, seed=0)
    for softmax_composed in (False, True):
        stub()
        report = build_report(net, x[:1], {}, TIGHT, probe=probe,
                              softmax_composed=softmax_composed)
        assert np.isnan(report.c_probe)
    stub()
    assert np.isnan(probe_bound(net, probe))
    stub()
    assert np.isnan(softmax_composed_lower_bound(net, x))


def test_upper_bound_is_product_of_layer_norms():
    net = init_ff(5, [8, 6], 3, seed=5)
    got = upper_bound(net, TIGHT)
    want = 1.0
    for w in net.weights:
        want *= svd_oracle(w)
    assert got == pytest.approx(want, rel=1e-9)


def test_lower_never_exceeds_upper():
    net = init_ff(7, [10, 9], 4, seed=6)
    x = make_rng(6, 30).standard_normal((40, 7))
    best, mean, _ = lower_bound(net, x)
    up = upper_bound(net, TIGHT)
    assert mean <= best <= up


# ---------------------------------------------------------------------------
# Probe sets


def probe_points(probe: ProbeSet) -> np.ndarray:
    return np.concatenate(list(probe.batches()))


def test_probe_set_len_and_base_coverage():
    rng = make_rng(7, 30)
    tr = rng.standard_normal((11, 4))
    te = rng.standard_normal((5, 4))
    probe = ProbeSet(tr, te, pair_count=6, seed=0)
    pts = probe_points(probe)
    assert len(probe) == 11 + 5 + 2 * len(PROBE_LAMBDAS) * 6
    assert pts.shape == (len(probe), 4)
    assert np.array_equal(pts[:11], tr)
    assert np.array_equal(pts[11:16], te)


def test_probe_set_zero_pairs_is_just_the_bases():
    rng = make_rng(8, 30)
    tr = rng.standard_normal((7, 3))
    te = rng.standard_normal((4, 3))
    probe = ProbeSet(tr, te, pair_count=0, seed=0)
    assert len(probe) == 11
    assert np.array_equal(probe_points(probe), np.concatenate([tr, te]))


def test_probe_set_deterministic_and_batch_size_invariant(monkeypatch):
    rng = make_rng(9, 30)
    tr = rng.standard_normal((13, 5))
    te = rng.standard_normal((6, 5))
    a = probe_points(ProbeSet(tr, te, pair_count=25, seed=3))
    c = probe_points(ProbeSet(tr, te, pair_count=25, seed=4))
    assert not np.array_equal(a, c)
    monkeypatch.setattr(linalg, "ROW_CHUNK", 7)
    b = probe_points(ProbeSet(tr, te, pair_count=25, seed=3))
    assert np.array_equal(a, b)


def test_probe_set_pair_counts_nest_as_prefixes():
    rng = make_rng(10, 30)
    tr = rng.standard_normal((9, 4))
    te = rng.standard_normal((5, 4))
    small = probe_points(ProbeSet(tr, te, pair_count=37, seed=1))
    large = probe_points(ProbeSet(tr, te, pair_count=100, seed=1))
    base = 9 + 5
    for block in range(2 * len(PROBE_LAMBDAS)):
        s = small[base + 37 * block: base + 37 * (block + 1)]
        l = large[base + 100 * block: base + 100 * (block + 1)]
        assert np.array_equal(s, l[:37])


def test_probe_points_stay_in_coordinate_hull():
    rng = make_rng(11, 30)
    tr = rng.standard_normal((10, 6))
    te = rng.standard_normal((8, 6))
    pts = probe_points(ProbeSet(tr, te, pair_count=50, seed=2))
    lo = np.minimum(tr.min(axis=0), te.min(axis=0))
    hi = np.maximum(tr.max(axis=0), te.max(axis=0))
    assert np.all(pts >= lo - 1e-12)
    assert np.all(pts <= hi + 1e-12)


def test_probe_set_validation():
    with pytest.raises(ValueError, match="pair_count"):
        ProbeSet(np.zeros((2, 3)), np.zeros((2, 3)), pair_count=-1, seed=0)
    with pytest.raises(ValueError, match="input dimension"):
        ProbeSet(np.zeros((2, 3)), np.zeros((2, 4)), pair_count=1, seed=0)


def test_probe_bound_dominates_train_sup_and_grows_with_pairs():
    net = init_ff(6, [9, 8], 4, seed=12)
    rng = make_rng(12, 30)
    tr = rng.standard_normal((30, 6))
    te = rng.standard_normal((10, 6))
    c_train, _, _ = lower_bound(net, tr)
    few = probe_bound(net, ProbeSet(tr, te, pair_count=20, seed=0))
    many = probe_bound(net, ProbeSet(tr, te, pair_count=200, seed=0))
    assert few >= c_train
    # Same seed means the smaller probe set is a subset of the larger one,
    # so the sup can only grow.
    assert many >= few


# ---------------------------------------------------------------------------
# Softmax composition


def test_softmax_jacobian_structure():
    z = make_rng(13, 30).standard_normal((6, 5))
    p = softmax(z)
    jac = softmax_jacobian(p)
    assert jac.shape == (6, 5, 5)
    np.testing.assert_allclose(jac.sum(axis=2), 0.0, atol=1e-15)
    np.testing.assert_allclose(jac, jac.transpose(0, 2, 1), atol=0)


def test_softmax_jacobian_matches_finite_differences():
    z = make_rng(14, 30).standard_normal(4)
    jac = softmax_jacobian(softmax(z)[None])[0]
    h = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd = (softmax(z + e) - softmax(z - e)) / (2 * h)
        np.testing.assert_allclose(fd, jac[:, j], atol=1e-9)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=2, max_value=12))
@settings(max_examples=60, deadline=None)
def test_softmax_jacobian_norm_never_exceeds_half(seed, k):
    z = 4.0 * make_rng(seed, 31).standard_normal((3, k))
    norms = batch_spectral_norms(softmax_jacobian(softmax(z)))
    assert np.all(norms <= 0.5 + 1e-12)


def test_softmax_composition_contracts():
    net = init_ff(6, [9, 8], 4, seed=15)
    x = make_rng(15, 30).standard_normal((30, 6))
    plain, _, _ = lower_bound(net, x)
    composed = softmax_composed_lower_bound(net, x)
    assert composed <= 0.5 * plain + 1e-12
    assert composed > 0


def test_softmax_composition_needs_two_outputs():
    net = init_ff(5, [6], 1, seed=0)
    with pytest.raises(ValueError, match="2 outputs"):
        softmax_composed_lower_bound(net, np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# Reports


def test_build_report_ordering_and_round_trip():
    net = init_ff(6, [9, 8], 4, seed=16)
    rng = make_rng(16, 30)
    tr = rng.standard_normal((25, 6))
    te = rng.standard_normal((10, 6))
    probe = ProbeSet(tr, te, pair_count=40, seed=0)
    report = build_report(net, tr, {"epoch": 3}, TIGHT, probe=probe)
    assert report.c_avg_norm <= report.c_lower <= report.c_probe <= report.c_upper
    assert report.snapshot == {"epoch": 3}
    assert not report.softmax_composed
    fid = report.probe_fidelity()
    assert 0.0 <= fid <= 1.0
    d = json.loads(report.to_json())
    assert d["c_lower"] == report.c_lower
    assert d["probe_fidelity"] == fid
    assert d["snapshot"] == {"epoch": 3}


def test_build_report_without_probe_omits_fidelity():
    net = init_ff(5, [7], 3, seed=17)
    x = make_rng(17, 30).standard_normal((12, 5))
    report = build_report(net, x, {}, TIGHT)
    assert report.c_probe is None
    assert report.probe_fidelity() is None
    assert "probe_fidelity" not in report.to_dict()


def test_build_report_softmax_variant():
    net = init_ff(6, [9], 4, seed=18)
    rng = make_rng(18, 30)
    x = rng.standard_normal((20, 6))
    plain = build_report(net, x, {}, TIGHT)
    comp = build_report(net, x, {}, TIGHT, softmax_composed=True)
    assert comp.softmax_composed
    assert comp.c_lower == pytest.approx(softmax_composed_lower_bound(net, x), rel=1e-12)
    assert comp.c_lower <= 0.5 * plain.c_lower + 1e-12
    assert comp.c_upper == plain.c_upper
    assert comp.c_avg_norm <= comp.c_lower


def test_build_report_softmax_with_probe_keeps_ordering():
    net = init_ff(5, [8], 3, seed=19)
    rng = make_rng(19, 30)
    tr = rng.standard_normal((15, 5))
    te = rng.standard_normal((6, 5))
    probe = ProbeSet(tr, te, pair_count=30, seed=1)
    report = build_report(net, tr, {}, TIGHT, probe=probe, softmax_composed=True)
    assert report.c_avg_norm <= report.c_lower <= report.c_probe <= report.c_upper


def softmax_norms(net, x):
    """Test-local softmax composition: J_softmax(f(x)) @ J_f(x), then norms."""
    composed = softmax_jacobian(softmax(net.forward(x))) @ net.input_jacobians(x)
    return batch_spectral_norms(composed)


@pytest.mark.parametrize("chunk", [256, 7])
def test_build_report_equals_public_estimators(monkeypatch, chunk):
    # One pass over the train set gives c_lower and c_avg_norm, and the
    # probe scan skips the train points; the values are those of the
    # public estimators run separately.
    monkeypatch.setattr(linalg, "ROW_CHUNK", chunk)
    net = init_ff(6, [9, 8], 4, seed=20)
    rng = make_rng(20, 30)
    tr = rng.standard_normal((25, 6))
    te = rng.standard_normal((10, 6))
    probe = ProbeSet(tr, te, pair_count=12, seed=2)

    plain = build_report(net, tr, {}, TIGHT, probe=probe)
    c_lower, c_avg, _ = lower_bound(net, tr)
    assert (plain.c_lower, plain.c_avg_norm) == (c_lower, c_avg)
    assert plain.c_probe == max(probe_bound(net, probe), c_lower)

    comp = build_report(net, tr, {}, TIGHT, probe=probe, softmax_composed=True)
    assert comp.c_lower == softmax_composed_lower_bound(net, tr)
    assert comp.c_avg_norm == pytest.approx(softmax_norms(net, tr).mean(), rel=1e-12)
    probe_sup = max(softmax_composed_lower_bound(net, b) for b in probe.batches())
    assert comp.c_probe == max(probe_sup, comp.c_lower)
    want = max(softmax_norms(net, b).max() for b in probe.batches())
    assert comp.c_probe == pytest.approx(want, rel=1e-12)

    # A probe whose train part is not the report's sample set is scanned
    # whole: here the sup sits on those train points.
    bases = ProbeSet(tr, te, pair_count=0, seed=2)
    other = build_report(net, te, {}, TIGHT, probe=bases)
    assert other.c_probe == c_lower > other.c_lower

    # A probe set that is the sample set alone leaves nothing to scan.
    alone = build_report(net, tr, {}, TIGHT, probe=ProbeSet(tr, te[:0], pair_count=0, seed=2))
    assert alone.c_probe == alone.c_lower == c_lower


@pytest.mark.parametrize("softmax_composed", [False, True])
def test_build_report_keeps_one_jacobian_stream(monkeypatch, softmax_composed):
    # The train pass and the probe pass share one depth-1 workspace, and
    # every chunk still goes through FFReluNet.input_jacobians.
    net = init_ff(6, [9], 4, seed=21)
    rng = make_rng(21, 30)
    tr = rng.standard_normal((25, 6))
    probe = ProbeSet(tr, rng.standard_normal((10, 6)), pair_count=12, seed=2)
    monkeypatch.setattr(linalg, "ROW_CHUNK", 7)
    want = build_report(net, tr, {}, TIGHT, probe=probe, softmax_composed=softmax_composed)

    workspaces = []
    chunks = []

    class CountedWorkspace(models.Depth1Workspace):
        def __init__(self, net):
            super().__init__(net)
            workspaces.append(self)

    def counted_jacobians(self, x, cotangents=None, workspace=None):
        chunks.append(len(x))
        return original(self, x, cotangents, workspace)

    original = models.FFReluNet.input_jacobians
    monkeypatch.setattr(models, "Depth1Workspace", CountedWorkspace)
    monkeypatch.setattr(models.FFReluNet, "input_jacobians", counted_jacobians)
    got = build_report(net, tr, {}, TIGHT, probe=probe, softmax_composed=softmax_composed)
    assert len(workspaces) == 1
    assert chunks == [len(b) for b in probe.batches()]
    assert got.to_json() == want.to_json()


def test_probe_fidelity_zero_gap():
    report = LipschitzReport(c_lower=2.0, c_avg_norm=1.5, c_upper=2.0,
                             c_probe=2.0, softmax_composed=False, snapshot={})
    assert report.probe_fidelity() == 0.0
