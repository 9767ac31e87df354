"""Seeded randomness, spectral norms, and an exact oracle.  Dense norms are
exact up to ``EXACT_SIDE_CAP`` on the smaller side; wider dense matrices
and implicit operators (the convs) get power iteration.

All analysis quantities are 64-bit floats.  Matrices are plain 2-D
``numpy`` arrays (row-major), vectors 1-D arrays.  Randomness always
flows through :func:`make_rng` so that a single 64-bit seed fixes every
stream in the toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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

    max_iters: int = 10000
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


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


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
    is a Rayleigh quotient, hence a lower bound in exact arithmetic.  Dots
    and norms go through :func:`vector_dot`, so the estimate is the same at
    every BLAS thread count.
    """
    for _ in range(8):
        x = rng.standard_normal(in_shape)
        x /= vector_norm(x)
        gx = np.asarray(gmul(x), dtype=np.float64)
        rho = vector_dot(x, gx)
        if rho > 0.0:
            break
    else:
        # Eight unit Gaussians in the null space: the map is zero in practice.
        return 0.0
    p = None  # previous search direction, with its image under G
    gp = None
    for _ in range(settings.max_iters):
        r = gx - rho * x
        if vector_norm(r) <= settings.rel_tol * rho:
            break
        # Orthonormalize [x, r, p]; images follow the same combinations.
        cx = vector_dot(x, r)
        r = r - cx * x
        rn = vector_norm(r)
        if rn <= 1e-300:
            break
        r /= rn
        gr = np.asarray(gmul(r), dtype=np.float64)
        basis = [x, r]
        images = [gx, gr]
        if p is not None:
            q = p - vector_dot(x, p) * x
            gq = gp - vector_dot(x, p) * gx
            q2 = q - vector_dot(r, q) * r
            gq2 = gq - vector_dot(r, q) * gr
            qn = vector_norm(q2)
            if qn > 1e-12:
                basis.append(q2 / qn)
                images.append(gq2 / qn)
        k = len(basis)
        h = np.empty((k, k))
        for i in range(k):
            for j in range(k):
                h[i, j] = vector_dot(basis[i], images[j])
        h = 0.5 * (h + h.T)
        evals, evecs = np.linalg.eigh(h)
        y = evecs[:, -1]
        rho = float(evals[-1])
        x_new = sum(y[i] * basis[i] for i in range(k))
        gx_new = sum(y[i] * images[i] for i in range(k))
        # Momentum: the part of the step orthogonal to the old iterate.
        p = sum(y[i] * basis[i] for i in range(1, k))
        gp = sum(y[i] * images[i] for i in range(1, k))
        pn = vector_norm(p)
        if pn > 1e-12:
            p /= pn
            gp /= pn
        else:
            p = None
            gp = None
        xn = vector_norm(x_new)
        x = x_new / xn
        gx = gx_new / xn
    return max(rho, 0.0)


def gram_spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Exact spectral norms of a (n, k, d) stack from its smaller-side Grams."""
    tr = mats.transpose(0, 2, 1)
    gram = mats @ tr if mats.shape[1] <= mats.shape[2] else tr @ mats
    return np.sqrt(np.clip(np.linalg.eigvalsh(gram)[:, -1], 0.0, None))


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
    rho = _top_gram_eigenvalue(lambda v: m.T @ (m @ v), (m.shape[1],), rng, settings)
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
