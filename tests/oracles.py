"""Test-only references: an exact spectral-norm oracle, dense matrices of
linear maps, plain FF and CNN forward/backward passes, a parameter-vector
setter and a trace reader.

None of these is on a library path; they are the ground truth and the
round-trip helpers that the tests check the library against.
"""

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from liptrack.linalg import _as_matrix
from liptrack.models import (CnnNet, conv2d, conv2d_adjoint, conv2d_kernel_grad, maxpool,
                             maxpool_backward)
from liptrack.training import EpochRecord, TrainTrace

# Side cap for the exact oracle; it is O(n^3) per sweep.
ORACLE_DIM_CAP = 512


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

    Independent of the LAPACK and Krylov-solver paths.  Capped at
    ``ORACLE_DIM_CAP`` per side because each sweep is cubic.
    """
    m = _as_matrix(m)
    rows, cols = m.shape
    if rows > ORACLE_DIM_CAP or cols > ORACLE_DIM_CAP:
        raise ValueError(f"oracle capped at {ORACLE_DIM_CAP} per side, got {rows}x{cols}")
    gram = m.T @ m if cols <= rows else m @ m.T
    lam = _jacobi_max_eigenvalue(gram)
    return math.sqrt(max(lam, 0.0))


def materialize_operator(apply, in_shape: Sequence[int]) -> np.ndarray:
    """Build the dense matrix of a linear map column-by-column via unit
    impulses: one ``apply`` per input coordinate."""
    in_shape = tuple(int(d) for d in in_shape)
    n_in = int(np.prod(in_shape))
    cols = []
    for j in range(n_in):
        e = np.zeros(n_in)
        e[j] = 1.0
        cols.append(np.asarray(apply(e.reshape(in_shape))).ravel())
    return np.stack(cols, axis=1)


def ff_forward(weights: Sequence[np.ndarray], x: np.ndarray):
    """A zero-bias ReLU FF stack's activations (input first) and
    pre-activations, every one a fresh array."""
    acts, pres = [x], []
    for w in weights:
        pres.append(acts[-1] @ w.T)
        acts.append(np.maximum(pres[-1], 0.0))
    return acts, pres


def ff_backward(weights: Sequence[np.ndarray], acts, pres, g: np.ndarray):
    """Weight gradients (for (n, out) rows ``g``; None for seed rows) and
    input cotangents of ``g`` swept back through :func:`ff_forward`'s masks,
    ``pre > 0``, out of place at every layer."""
    grads = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        mask = pres[i] > 0
        g = g * (mask if g.ndim == 2 else mask[:, None, :])
        if g.ndim == 2:
            grads[i] = g.T @ acts[i]
        w = weights[i]
        g = (g.reshape(-1, w.shape[0]) @ w).reshape(*g.shape[:-1], w.shape[1])
    return grads, g


def cnn_forward(weights: Sequence[np.ndarray], x: np.ndarray):
    """A :class:`CnnNet`'s blocks, each (input, pre-activation, pooling
    routes), its (n, 8w) features and (n, 10) outputs, every one a fresh
    array; ``weights`` in ``weight_arrays()`` order, ``x`` flat rows."""
    *kernels, linear_w = weights
    a, blocks = x.reshape(-1, *CnnNet.input_shape), []
    for k, p in zip(kernels, CnnNet.pools):
        z = conv2d(a, k)
        pooled, idx = maxpool(np.maximum(z, 0.0), p)
        blocks.append((a, z, idx))
        a = pooled
    feat = a.reshape(a.shape[0], -1)
    return blocks, feat, feat @ linear_w.T


def cnn_backward(weights: Sequence[np.ndarray], blocks, feat, g: np.ndarray):
    """Weight gradients and flat input cotangents of (n, 10) rows ``g``
    swept back through :func:`cnn_forward`'s masks, ``pre > 0``, out of
    place at every block."""
    *kernels, linear_w = weights
    grads = [None] * len(weights)
    grads[-1] = g.T @ feat
    g = (g @ linear_w).reshape(*feat.shape, 1, 1)
    for i in range(len(kernels) - 1, -1, -1):
        a_in, z, idx = blocks[i]
        g = maxpool_backward(g, idx, CnnNet.pools[i]) * (z > 0)
        grads[i] = conv2d_kernel_grad(a_in, g)
        g = conv2d_adjoint(g, kernels[i])
    return grads, g.reshape(g.shape[0], -1)


def set_param_vector(net, theta: np.ndarray) -> None:
    """Write a flat parameter vector (``net.param_vector()``'s layout) into
    ``net``'s weights in place."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (net.param_count,):
        raise ValueError(f"parameter vector length {theta.shape}, expected ({net.param_count},)")
    ofs = 0
    for a in net.weight_arrays():
        a[...] = theta[ofs:ofs + a.size].reshape(a.shape)
        ofs += a.size


def read_trace_jsonl(path) -> TrainTrace:
    trace = TrainTrace()
    for line in Path(path).read_text().splitlines():
        if line.strip():
            trace.records.append(EpochRecord(**json.loads(line)))
    return trace
