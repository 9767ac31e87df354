"""Seeded randomness, spectral norms, and the row slices
(``ROW_CHUNK``, ``row_chunks``) that every sample-set pass takes.  Dense norms are
exact up to ``EXACT_SIDE_CAP`` on the smaller side; wider dense matrices
and implicit operators (the convs) get an iterative eigensolver on their
Gram map: thick-restart Lanczos (:func:`_top_gram_eigenvalue`).

A solver step costs one apply of the Gram map plus bookkeeping that grows
with the basis, so both are kept small: the Krylov basis and its images
live in one array allocated once per solve, a restart keeps only a few
Ritz vectors, and the projections and Ritz combinations are small GEMMs
rather than loops of dots.  The conv applies (``models.conv_spectral_norm``)
likewise keep their padded image, window view and patch matrix across
steps.  Long sums are blocked (``vector_dot``, ``stable_matmul``) and the
solver's GEMMs cut to sizes OpenBLAS runs on one thread, so that the
norms liptrack takes (dense matrices, and convs on the CNN's 32/16/8
grids) are the same at 1 and 2 OpenBLAS 0.3.x threads.  That was
measured, not derived: some other shapes still differ (see the
CHANGES.md FOUND note on uneven conv grids).

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
    """Knobs for the iterative norms (the config's ``power_iter``).

    The eigensolver runs on the Gram matrix ``G = M' M`` and stops once the
    eigen-residual ``||G v - rho v||`` drops below ``rel_tol * rho``, or
    after ``max_iters`` applies of ``G``.  The residual bounds the distance
    from ``rho`` to a true eigenvalue, so a plain increment test cannot
    stall it on near-degenerate top singular values.
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
# eigensolver cuts its GEMMs over long vectors to that size, and gives each
# at least two rows and two columns, so that NumPy calls GEMM, not GEMV.
_SERIAL_GEMM_SIZE = 65536 * 4


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
    """``out = coef @ rows`` in column blocks, each small enough for
    OpenBLAS to run on one thread (``_SERIAL_GEMM_SIZE``)."""
    step = max(1, _SERIAL_GEMM_SIZE // coef.size)
    for lo in range(0, rows.shape[1], step):
        np.matmul(coef, rows[:, lo:lo + step], out=out[:, lo:lo + step])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b.T`` for two stacks of long rows: the inner sum in blocks,
    each product small enough for OpenBLAS to run on one thread.  With a
    single row on either side it is :func:`vector_dot`s instead."""
    if min(len(a), len(b)) == 1:
        return np.array([[vector_dot(u, v) for v in b] for u in a])
    return _inner_blocked_matmul(a, b.T, max(1, _SERIAL_GEMM_SIZE // (len(a) * len(b))))


# Largest Krylov basis of the eigensolver, and the top Ritz vectors a
# restart keeps (the previous step's top Ritz vector is kept besides).
_KRYLOV_DIM = 16
_KRYLOV_KEEP = 4


def _top_gram_eigenvalue(
    gmul: Callable[[np.ndarray, np.ndarray], object],
    in_shape: tuple[int, ...],
    rng: np.random.Generator,
    settings: PowerIterSettings,
) -> float:
    """Largest eigenvalue of the implicit PSD map ``G``; ``gmul(v, out)``
    writes ``G v`` into the flat row ``out``.

    Thick-restart Lanczos with full reorthogonalization: Rayleigh-Ritz on a
    Krylov basis whose vectors are stored with their images under ``G``.
    Each step appends the Ritz residual, reorthogonalized once against the
    basis, and applies ``G`` to it once.  When the basis holds
    ``_KRYLOV_DIM`` vectors, it restarts on the top ``_KRYLOV_KEEP`` Ritz
    vectors and the previous step's top Ritz vector (as in GD+k), whose
    images follow from the stored ones.  Stops when
    ``||G x - rho x|| <= rel_tol * rho`` for the top Ritz pair, which
    certifies an eigenvalue within ``rel_tol * rho`` of the estimate, after
    ``max_iters`` applies of ``G``, or when the basis spans the whole space.
    Every estimate is a Rayleigh quotient, hence a lower bound in exact
    arithmetic; the kept vectors are orthonormalized again at each restart,
    so rounding does not build up past it over many restarts.

    The basis and its images sit interleaved in one (``_KRYLOV_DIM``, 2, n)
    array allocated once.  Dots and norms go through :func:`vector_dot`, and
    the projections and Ritz combinations are GEMMs cut by
    :func:`_combine_rows` and :func:`_cross` to sizes OpenBLAS runs on one
    thread, so the estimate does not depend on the BLAS thread count
    through them.
    """
    n = math.prod(in_shape)
    m, keep = _KRYLOV_DIM, _KRYLOV_KEEP
    basis = np.empty((m, 2, n))  # row i: a basis vector v_i and its image G v_i
    flat = basis.reshape(2 * m, n)
    vecs = basis[:, 0]
    h = np.empty((m, m))  # the projection: h[i, j] = h[j, i] = v_i . G v_j for i <= j
    work = np.empty((2, n))
    kept = np.empty((keep + 1, 2, n))
    v, gv = basis[0]
    for _ in range(8):
        v[:] = rng.standard_normal(in_shape).ravel()
        v /= vector_norm(v)
        gmul(v.reshape(in_shape), gv)
        rho = vector_dot(v, gv)
        if rho > 0.0:
            break
    else:
        # Eight unit Gaussians in the null space: the map is zero in practice.
        return 0.0
    h[0, 0] = rho
    k, applies, y_prev = 1, 1, np.zeros(0)
    while True:
        evals, evecs = np.linalg.eigh(h[:k, :k])
        rho, y = float(evals[-1]), evecs[:, -1]
        # work rows: the Ritz residual G x - rho x, and the Ritz vector x
        # (whose row keeps the products over ``work`` GEMMs, not GEMVs).
        coef = np.zeros((2, 2 * k))
        coef[0, 0::2] = -rho * y
        coef[0, 1::2] = coef[1, 0::2] = y
        _combine_rows(coef, flat[:2 * k], work)
        if (vector_norm(work[0]) <= settings.rel_tol * rho
                or applies >= settings.max_iters or k == n):
            break
        if k == m:
            # Keep the top Ritz vectors and the previous step's top one, made
            # orthonormal to them; the residual is orthogonal to all of them.
            top = evecs[:, -keep:]
            prev = np.zeros(m)
            prev[:len(y_prev)] = y_prev
            for _ in range(2):
                prev -= top @ (top.T @ prev)
            prev_norm = float(np.linalg.norm(prev))
            z = np.column_stack([top, prev / prev_norm]) if prev_norm > 1e-12 else top
            k = z.shape[1]
            _combine_rows(z.T, basis.reshape(m, 2 * n), kept[:k].reshape(k, 2 * n))
            # Orthonormalize them again (Cholesky QR).  Without it their
            # rounding builds up over restarts, and the Ritz values, which
            # favour any direction whose norm grew, creep past the top one.
            gram = _cross(kept[:k, 0], kept[:k, 0])
            _combine_rows(np.linalg.inv(np.linalg.cholesky(gram)), kept[:k].reshape(k, 2 * n),
                          basis[:k].reshape(k, 2 * n))
            vw = _cross(vecs[:k], basis[:k, 1])
            h[:k, :k] = np.triu(vw) + np.triu(vw, 1).T
        # v_k: the residual minus its parts along the basis, normalized.
        v, gv = basis[k]
        np.copyto(v, work[0])
        coef = np.zeros((2, k))
        coef[0] = _cross(vecs[:k], work)[:, 0]
        _combine_rows(coef, vecs[:k], work)
        v -= work[0]
        vn = vector_norm(v)
        if vn <= 1e-300:
            break
        v /= vn
        gmul(v.reshape(in_shape), gv)
        applies += 1
        h[:k + 1, k] = h[k, :k + 1] = _cross(vecs[:k + 1], basis[k])[:, 1]
        k, y_prev = k + 1, y
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
    is at most ``EXACT_SIDE_CAP``.  Above it, thick-restart Lanczos on
    ``m' m`` (:func:`_top_gram_eigenvalue`, restarting on its top Ritz
    vectors and the previous step's one): the estimate is ``||m v||`` for a
    unit vector ``v``, so in exact arithmetic it approaches the true value
    from below.  A zero matrix returns 0.
    """
    m = _as_matrix(m)
    if min(m.shape) <= EXACT_SIDE_CAP:
        return float(gram_spectral_norms(m[None])[0])

    rng = make_rng(settings.seed, 0x5BEC)
    rho = _top_gram_eigenvalue(lambda v, out: stable_matmul(m.T, stable_matmul(m, v), out=out),
                               (m.shape[1],), rng, settings)
    return math.sqrt(rho)


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
    adjoint makes the eigensolver converge to garbage.  The norm is the
    square root of the top eigenvalue of ``apply_adjoint(apply(.))`` from
    :func:`_top_gram_eigenvalue`.
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

    def gram(v, out):
        out[:] = np.ravel(apply_adjoint(apply(v)))

    return math.sqrt(_top_gram_eigenvalue(gram, in_shape, rng, settings))
