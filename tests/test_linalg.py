import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liptrack import linalg
from liptrack.linalg import (PowerIterSettings, gram_spectral_norms, make_rng, row_chunks,
                             spectral_norm_dense, spectral_norm_operator, vector_dot,
                             vector_norm)
from tests.oracles import ORACLE_DIM_CAP, materialize_operator, svd_oracle

TIGHT = PowerIterSettings(max_iters=5000, rel_tol=1e-13, seed=0)


def _dense_power_iteration(m, settings):
    m = np.asarray(m, dtype=np.float64)
    return spectral_norm_operator(lambda v: m @ v, lambda u: m.T @ u,
                                  (m.shape[1],), (m.shape[0],), settings)


# spectral_norm_dense is exact for every shape these tests draw (all within
# EXACT_SIDE_CAP); power iteration on the same map keeps its oracle checks.
DENSE_NORMS = pytest.mark.parametrize("norm", [spectral_norm_dense, _dense_power_iteration],
                                      ids=["dense", "power_iteration"])


def test_make_rng_deterministic_and_stream_separated():
    a = make_rng(7).standard_normal(5)
    b = make_rng(7).standard_normal(5)
    c = make_rng(7, 1).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_svd_oracle_matches_numpy_svd():
    rng = make_rng(0)
    for case in range(30):
        m = rng.standard_normal((int(rng.integers(1, 40)), int(rng.integers(1, 40))))
        want = float(np.linalg.svd(m, compute_uv=False)[0])
        got = svd_oracle(m)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12), f"case {case}"


def test_svd_oracle_known_values():
    assert svd_oracle(np.diag([3.0, -5.0, 1.0])) == pytest.approx(5.0, rel=1e-12)
    assert svd_oracle(np.zeros((4, 6))) == 0.0
    # rank-1 uv^T has top singular value ||u|| ||v||
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([3.0, 4.0])
    assert svd_oracle(np.outer(u, v)) == pytest.approx(15.0, rel=1e-12)


def test_svd_oracle_rejects_oversize():
    with pytest.raises(ValueError):
        svd_oracle(np.zeros((ORACLE_DIM_CAP + 1, ORACLE_DIM_CAP + 1)))


@DENSE_NORMS
def test_power_iteration_matches_oracle(norm):
    rng = make_rng(1)
    for case in range(25):
        shape = (int(rng.integers(1, 64)), int(rng.integers(1, 64)))
        m = rng.standard_normal(shape) * float(rng.uniform(0.1, 10))
        want = svd_oracle(m)
        got = norm(m, TIGHT)
        assert got == pytest.approx(want, rel=1e-6), f"case {case} shape {shape}"


@DENSE_NORMS
def test_power_iteration_zero_matrix(norm):
    assert norm(np.zeros((5, 3)), TIGHT) == 0.0


@DENSE_NORMS
def test_power_iteration_gap_free_matrix(norm):
    # Equal singular values leave nothing for the iteration to separate.
    m = 2.5 * np.eye(6)
    assert norm(m, TIGHT) == pytest.approx(2.5, rel=1e-9)


def test_settings_validation():
    with pytest.raises(ValueError):
        PowerIterSettings(max_iters=0)
    with pytest.raises(ValueError):
        PowerIterSettings(rel_tol=0.0)


@DENSE_NORMS
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 20), st.integers(1, 20))
def test_power_iteration_never_exceeds_oracle_property(norm, seed, rows, cols):
    m = make_rng(seed).standard_normal((rows, cols))
    got = norm(m, TIGHT)
    want = svd_oracle(m)
    assert got <= want * (1 + 1e-9)
    assert got == pytest.approx(want, rel=1e-6)


def test_gram_norms_scale_exactly_past_gram_overflow():
    # Entries near 2**600 square past the float64 maximum, so those Grams
    # overflow; the norms come from power-of-two rescaled copies, which is
    # exact.  The stack's other matrices keep their plain Grams.
    mats = make_rng(3, 7).standard_normal((4, 10, 40))
    s = 2.0 ** 600
    plain = gram_spectral_norms(mats)
    assert np.array_equal(gram_spectral_norms(s * mats), s * plain)
    mixed = mats.copy()
    mixed[[1, 3]] *= s
    assert np.array_equal(gram_spectral_norms(mixed), plain * [1.0, s, 1.0, s])
    assert spectral_norm_dense(s * mats[0].T) == s * plain[0]


def test_operator_norm_matches_dense():
    rng = make_rng(2)
    m = rng.standard_normal((12, 9))
    got = spectral_norm_operator(lambda v: m @ v, lambda u: m.T @ u, (9,), (12,), TIGHT)
    assert got == pytest.approx(svd_oracle(m), rel=1e-8)


def test_operator_norm_rejects_wrong_adjoint():
    rng = make_rng(3)
    m = rng.standard_normal((6, 6))
    wrong = rng.standard_normal((6, 6))
    with pytest.raises(ValueError, match="adjoint"):
        spectral_norm_operator(lambda v: m @ v, lambda u: wrong.T @ u, (6,), (6,), TIGHT)


def test_materialize_operator_reconstructs_matrix():
    rng = make_rng(4)
    m = rng.standard_normal((7, 5))
    got = materialize_operator(lambda v: m @ v, (5,))
    assert np.allclose(got, m, atol=1e-14)


def test_materialize_operator_multi_axis_shapes():
    rng = make_rng(5)
    m = rng.standard_normal((6, 8))

    def apply(v):
        return (m @ v.reshape(8)).reshape(2, 3)

    got = materialize_operator(apply, (2, 4))
    assert got.shape == (6, 8)
    assert np.allclose(got, m, atol=1e-14)


def test_vector_norm_blocks_long_vectors():
    rng = np.random.default_rng(3)
    for n in (0, 1, 9999, 10000):
        v = rng.standard_normal(n)
        assert vector_norm(v) == float(np.linalg.norm(v))
    v = rng.standard_normal(25001)
    blocks = [v[:10000], v[10000:20000], v[20000:]]
    assert vector_norm(v) == float(np.sqrt(sum(float(b @ b) for b in blocks)))
    assert vector_norm(v) == pytest.approx(float(np.linalg.norm(v)), rel=1e-14)


def test_vector_dot_blocks_long_arrays():
    rng = np.random.default_rng(4)
    for n in (0, 1, 9999, 10000):
        a, b = rng.standard_normal((2, n))
        assert vector_dot(a, b) == float(np.vdot(a, b))
    a, b = rng.standard_normal((2, 3, 5, 1667))  # 25005 entries, three blocks
    fa, fb = a.ravel(), b.ravel()
    blocks = [slice(0, 10000), slice(10000, 20000), slice(20000, None)]
    assert vector_dot(a, b) == sum(float(fa[s] @ fb[s]) for s in blocks)
    assert vector_dot(a, b) == pytest.approx(float(np.vdot(a, b)), rel=1e-12)


def test_row_chunks_are_aligned_views(monkeypatch):
    monkeypatch.setattr(linalg, "ROW_CHUNK", 4)
    x = np.arange(30.0).reshape(10, 3)
    y = np.arange(10)
    pairs = list(row_chunks(x, y))
    assert [len(xb) for xb, _ in pairs] == [4, 4, 2]
    assert all(np.shares_memory(xb, x) and np.array_equal(xb[:, 0] / 3, yb) for xb, yb in pairs)
    assert [len(xb) for xb in row_chunks(x)] == [4, 4, 2]  # one array: the slices themselves
    assert list(row_chunks(x[:0])) == []
    with pytest.raises(ValueError, match="row counts differ"):
        list(row_chunks(x, y[:9]))
