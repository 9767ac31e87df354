"""Seeded randomness, spectral norms, an exact oracle, and the row slices
(``ROW_CHUNK``, ``row_chunks``) that every sample-set pass takes.  Dense norms are
exact up to ``EXACT_SIDE_CAP`` on the smaller side; wider dense matrices
and implicit operators (the convs) get power iteration.

A power-iteration step costs one apply of the Gram map plus a fixed amount
of bookkeeping, so the bookkeeping is kept small: the Rayleigh-Ritz basis
``[x, r, p]`` and its images live in one stacked array allocated once per
solve, and the 3x3 projection and the Ritz combinations are a few small
GEMMs rather than a loop of dots.  The conv applies
(``models.conv_spectral_norm``) likewise keep their padded image, window
view and patch matrix across steps.  Long sums are blocked (``vector_dot``,
``stable_matmul``) so that the norms liptrack takes (dense matrices, and
convs on the CNN's 32/16/8 grids) are the same at 1 and 2 OpenBLAS 0.3.x
threads.  That was measured, not derived: some other shapes still differ
(see the CHANGES.md FOUND note on uneven conv grids).

All analysis quantities are 64-bit floats.  Matrices are plain 2-D
``numpy`` arrays (row-major), vectors 1-D arrays.  Randomness always
flows through :func:`make_rng` so that a single 64-bit seed fixes every
stream in the toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

# Side cap for the exact oracle; it is O(n^3) per sweep and meant for tests.
ORACLE_DIM_CAP = 512

# Largest smaller side whose dense norm is exact: up to here eigvalsh of the
# Gram gives the same bits at 1 and 2 OpenBLAS threads (from side 224 it did not).
EXACT_SIDE_CAP = 128


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Seeded PCG64 generator; extra ints select independent substreams.

    The same (seed, stream) pair yields the identical draw sequence on
    every platform.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *[int(s) for s in stream]]))


@dataclass(frozen=True)
class PowerIterSettings:
    """Knobs for the power method.

    The iteration runs on the Gram matrix ``G = M' M`` and stops once the
    eigen-residual ``||G v - rho v||`` drops below ``rel_tol * rho``, or
    after ``max_iters`` rounds.  The residual bounds the distance from
    ``rho`` to a true eigenvalue, so a plain increment test cannot stall
    it on near-degenerate top singular values.
    """

    max_iters: int = 1000
    rel_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")


# OpenBLAS (0.3.x) sums a dot product on one thread up to this length and
# splits longer ones across its threads, which reorders the sum.
_SERIAL_DOT_LEN = 10000


def vector_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two same-size arrays, the same at every BLAS thread
    count: one dot per block of ``_SERIAL_DOT_LEN`` entries, so shorter
    arrays match ``np.vdot``."""
    if a.size <= _SERIAL_DOT_LEN:
        return float(np.vdot(a, b))
    a = np.ravel(a)
    b = np.ravel(b)
    return sum(float(np.vdot(a[lo:lo + _SERIAL_DOT_LEN], b[lo:lo + _SERIAL_DOT_LEN]))
               for lo in range(0, a.size, _SERIAL_DOT_LEN))


def vector_norm(v: np.ndarray) -> float:
    """2-norm of ``v`` from :func:`vector_dot`, so it matches
    ``np.linalg.norm`` up to ``_SERIAL_DOT_LEN`` entries."""
    return math.sqrt(vector_dot(v, v))


# Past this inner length OpenBLAS (0.3.x) may order a matrix product's sums
# differently at 1 and 2 threads (seen from 400 on).  Up to it, the products
# liptrack makes (the conv GEMMs on the CNN's 32/16/8 grids, dense matrix-
# vector products) gave the same bits at both; other grids may not (CHANGES.md
# FOUND note on uneven conv grids).
_SERIAL_INNER_LEN = 384

# OpenBLAS runs a GEMM on one thread when M*N*K <= 65536 * 4 (its
# SMP_THRESHOLD_MIN times the default GEMM_MULTITHREAD_THRESHOLD).  The
# power-iteration GEMMs below are at most 4*6 by 10000 columns: 240000.
_SERIAL_GEMM_COLS = 10000


def _inner_blocked_matmul(a: np.ndarray, b: np.ndarray, step: int,
                          out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` summed over the inner dimension in blocks of ``step``,
    added in order; a product no longer than ``step`` is one ``np.matmul``."""
    out = np.matmul(a[..., :step], b[:step], out=out)
    for lo in range(step, a.shape[-1], step):
        out += a[..., lo:lo + step] @ b[lo:lo + step]
    return out


def stable_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` with the inner sum blocked at ``_SERIAL_INNER_LEN``, so
    that a long inner dimension does not make the result depend on the BLAS
    thread count.  Measured thread-stable on the shapes liptrack uses: the
    conv GEMMs on 32/16/8 grids and dense matrix-vector products."""
    return _inner_blocked_matmul(a, b, _SERIAL_INNER_LEN, out)


# Rows per slice of every pass over a whole sample set (stop-rule gradient,
# test loss, Jacobian norms, ensemble passes); sums over slices follow it.
ROW_CHUNK = 256


def row_chunks(*arrays: np.ndarray) -> Iterator:
    """Aligned ``ROW_CHUNK``-row slices (views) of arrays that share their
    row count: the slice itself for one array, a tuple for several."""
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError(f"row counts differ: {[len(a) for a in arrays]}")
    step = ROW_CHUNK
    for lo in range(0, n, step):
        rows = tuple(a[lo:lo + step] for a in arrays)
        yield rows[0] if len(rows) == 1 else rows


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def _combine_rows(coef: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """``out = coef @ rows`` in column blocks of ``_SERIAL_GEMM_COLS``,
    each small enough for OpenBLAS to run on one thread."""
    for lo in range(0, rows.shape[1], _SERIAL_GEMM_COLS):
        hi = lo + _SERIAL_GEMM_COLS
        np.matmul(coef, rows[:, lo:hi], out=out[:, lo:hi])


def _top_gram_eigenvalue(
    gmul: Callable[[np.ndarray], np.ndarray],
    in_shape: tuple[int, ...],
    rng: np.random.Generator,
    settings: PowerIterSettings,
) -> float:
    """Largest eigenvalue of the implicit PSD map ``gmul`` (one apply per step).

    Power iteration accelerated by Rayleigh-Ritz extraction on the span of
    the current iterate, its eigen-residual, and the previous search
    direction.  A near-tied top pair makes the plain iteration crawl; the
    3-dim subspace restores fast convergence at the same one-apply-per-step
    cost.  Stops when ``||G x - rho x|| <= rel_tol * rho``, which certifies
    an eigenvalue within ``rel_tol * rho`` of the estimate.  Every estimate
    is a Rayleigh quotient, hence a lower bound in exact arithmetic.

    The basis ``[x, r, p]`` and its images under G sit in one (3, 2, n)
    array allocated once and updated in place.  Orthogonalizing ``p``, the
    3x3 projection and the Ritz combinations are one small GEMM each per
    block of ``_SERIAL_GEMM_COLS`` entries, which OpenBLAS runs on one
    thread, and dots and norms go through :func:`vector_dot`, so the
    estimate does not depend on the BLAS thread count through them.
    """
    n = math.prod(in_shape)
    rows = np.empty((3, 2, n))  # (x, gx), (r, gr), (p, gp): a basis vector, its image
    flat = rows.reshape(6, n)
    (x, gx), (r, gr), (p, gp) = rows
    new = np.empty((2, 2, n))  # the next (x, gx) and (p, gp), before normalizing
    for _ in range(8):
        x[:] = rng.standard_normal(in_shape).ravel()
        x /= vector_norm(x)
        gx[:] = np.ravel(gmul(x.reshape(in_shape)))
        rho = vector_dot(x, gx)
        if rho > 0.0:
            break
    else:
        # Eight unit Gaussians in the null space: the map is zero in practice.
        return 0.0
    k = 2  # basis vectors in use; p joins after the first step
    for _ in range(settings.max_iters):
        np.multiply(x, rho, out=r)
        np.subtract(gx, r, out=r)
        if vector_norm(r) <= settings.rel_tol * rho:
            break
        # Orthonormalize [x, r, p]; images follow the same combinations.
        r -= vector_dot(x, r) * x
        rn = vector_norm(r)
        if rn <= 1e-300:
            break
        r /= rn
        gr[:] = np.ravel(gmul(r.reshape(in_shape)))
        if k == 3:
            # p - a x - b r and its image: p minus its parts along x and r.
            a, b = vector_dot(x, p), vector_dot(r, p)
            _combine_rows(np.array([[-a, 0.0, -b, 0.0, 1.0, 0.0],
                                    [0.0, -a, 0.0, -b, 0.0, 1.0]]), flat, new[0])
            qn = vector_norm(new[0, 0])
            if qn > 1e-12:
                np.divide(new[0], qn, out=rows[2])
            else:
                k = 2
        h = _inner_blocked_matmul(rows[:k, 0], rows[:k, 1].T, _SERIAL_GEMM_COLS)
        evals, evecs = np.linalg.eigh(0.5 * (h + h.T))
        y = evecs[:, -1]
        rho = float(evals[-1])
        # The new iterate, and the momentum: the part of the step orthogonal
        # to the old iterate.  Both are normalized into rows x and p.
        coef = np.zeros((4, 2 * k))
        coef[0, 0::2] = coef[1, 1::2] = y
        coef[2, 2::2] = coef[3, 3::2] = y[1:]
        _combine_rows(coef, flat[:2 * k], new.reshape(4, n))
        np.divide(new[0], vector_norm(new[0, 0]), out=rows[0])
        pn = vector_norm(new[1, 0])
        k = 3 if pn > 1e-12 else 2
        if k == 3:
            np.divide(new[1], pn, out=rows[2])
    return max(rho, 0.0)


def _grams(mats: np.ndarray) -> np.ndarray:
    tr = mats.transpose(0, 2, 1)
    return mats @ tr if mats.shape[1] <= mats.shape[2] else tr @ mats


def gram_spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Exact spectral norms of a (n, k, d) stack from its smaller-side Grams.

    A Gram overflows once entries pass about 1e154.  Only those matrices are
    redone, divided by a power of two at least their largest entry (exact,
    so each norm is the scaled matrix's norm times that power)."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _grams(mats)
    scale = np.ones(len(mats))
    overflow = ~np.isfinite(gram).all(axis=(1, 2))
    if overflow.any():
        scale[overflow] = np.ldexp(1.0, np.frexp(np.abs(mats[overflow]).max(axis=(1, 2)))[1])
        gram[overflow] = _grams(mats[overflow] / scale[overflow, None, None])
    return scale * np.sqrt(np.clip(np.linalg.eigvalsh(gram)[:, -1], 0.0, None))


def spectral_norm_dense(m: np.ndarray, settings: PowerIterSettings = PowerIterSettings()) -> float:
    """Largest singular value of a dense matrix, exact when the smaller side
    is at most ``EXACT_SIDE_CAP``.  Above it, power iteration: the estimate
    is ``||m v||`` for a unit vector ``v``, so it can only approach the true
    value from below.  A zero matrix returns 0.
    """
    m = _as_matrix(m)
    if min(m.shape) <= EXACT_SIDE_CAP:
        return float(gram_spectral_norms(m[None])[0])

    rng = make_rng(settings.seed, 0x5BEC)
    rho = _top_gram_eigenvalue(lambda v: stable_matmul(m.T, stable_matmul(m, v)),
                               (m.shape[1],), rng, settings)
    return math.sqrt(rho)


def _jacobi_max_eigenvalue(g: np.ndarray, tol: float = 1e-15, max_sweeps: int = 50) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by cyclic Jacobi sweeps."""
    a = np.array(g, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return 0.0
    skip = tol * scale / n
    for _ in range(max_sweeps):
        off = math.sqrt(max(float(np.sum(a * a) - np.sum(np.diag(a) ** 2)), 0.0))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    return float(np.max(np.diag(a)))


def svd_oracle(m: np.ndarray) -> float:
    """Largest singular value via Jacobi rotations on the Gram matrix.

    Independent of the LAPACK and power-iteration paths; the ground truth in
    tests.  Capped at 512 per side because each sweep is cubic.
    """
    m = _as_matrix(m)
    rows, cols = m.shape
    if rows > ORACLE_DIM_CAP or cols > ORACLE_DIM_CAP:
        raise ValueError(f"oracle capped at {ORACLE_DIM_CAP} per side, got {rows}x{cols}")
    gram = m.T @ m if cols <= rows else m @ m.T
    lam = _jacobi_max_eigenvalue(gram)
    return math.sqrt(max(lam, 0.0))


LinearMap = Callable[[np.ndarray], np.ndarray]


def spectral_norm_operator(
    apply: LinearMap,
    apply_adjoint: LinearMap,
    in_shape: Sequence[int],
    out_shape: Sequence[int],
    settings: PowerIterSettings = PowerIterSettings(),
) -> float:
    """Largest singular value of an implicit linear operator.

    ``apply`` maps arrays of ``in_shape`` to ``out_shape`` and
    ``apply_adjoint`` must be its exact adjoint; this is spot-checked on
    3 random unit pairs before iterating, because a silently wrong
    adjoint makes the power method converge to garbage.
    """
    in_shape = tuple(int(d) for d in in_shape)
    out_shape = tuple(int(d) for d in out_shape)
    rng = make_rng(settings.seed, 0x09E7)

    for pair in range(3):
        v = rng.standard_normal(in_shape)
        v /= np.linalg.norm(v)
        u = rng.standard_normal(out_shape)
        u /= np.linalg.norm(u)
        lhs = float(np.vdot(apply(v), u))
        rhs = float(np.vdot(v, apply_adjoint(u)))
        if abs(lhs - rhs) > 1e-8:
            raise ValueError(
                f"adjoint check failed on pair {pair}: <Av,u>={lhs!r} vs <v,A'u>={rhs!r}"
            )

    rho = _top_gram_eigenvalue(
        lambda v: np.asarray(apply_adjoint(apply(v)), dtype=np.float64),
        in_shape,
        rng,
        settings,
    )
    return math.sqrt(rho)


def materialize_operator(apply: LinearMap, in_shape: Sequence[int]) -> np.ndarray:
    """Build the dense matrix of a linear map column-by-column via unit impulses.

    Test-scale only: calls ``apply`` once per input coordinate.
    """
    in_shape = tuple(int(d) for d in in_shape)
    n_in = int(np.prod(in_shape))
    cols = []
    for j in range(n_in):
        e = np.zeros(n_in)
        e[j] = 1.0
        cols.append(np.asarray(apply(e.reshape(in_shape))).ravel())
    return np.stack(cols, axis=1)
