"""Lipschitz-constant estimators for trained nets.

Lower and average estimates come from per-sample input-Jacobian spectral
norms; the upper estimate is the product of per-layer operator norms
(activations and pooling are 1-Lipschitz and contribute a factor of 1).
A probe set of convex sample combinations tightens the lower estimate
without leaving the data's convex hull.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .linalg import ORACLE_DIM_CAP, PowerIterSettings, make_rng, spectral_norm_dense

_PROBE_STREAM = 0x9B0E

PROBE_LAMBDAS = (0.1, 0.2, 0.3, 0.4, 0.5)


def batch_spectral_norms(mats: np.ndarray, settings: PowerIterSettings = PowerIterSettings()) -> np.ndarray:
    """Spectral norm of each matrix in a (n, k, d) stack.

    When the smaller side is modest the whole stack is handled with one
    batched eigen-solve of the Gram matrices, which for 10 x 40 Jacobians
    is orders of magnitude faster than per-matrix iteration.
    """
    mats = np.asarray(mats, dtype=np.float64)
    n, k, d = mats.shape
    if n == 0:
        return np.zeros(0)
    if min(k, d) <= ORACLE_DIM_CAP:
        if k <= d:
            gram = mats @ mats.transpose(0, 2, 1)
        else:
            gram = mats.transpose(0, 2, 1) @ mats
        eigs = np.linalg.eigvalsh(gram)[:, -1]
        return np.sqrt(np.clip(eigs, 0.0, None))
    return np.array([spectral_norm_dense(m, settings) for m in mats])


def _softmax(out: np.ndarray) -> np.ndarray:
    shifted = out - out.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_jacobian(p: np.ndarray) -> np.ndarray:
    """diag(p) − p pᵀ for each row of class probabilities."""
    p = np.atleast_2d(p)
    eye = np.eye(p.shape[1])
    return eye[None, :, :] * p[:, :, None] - p[:, :, None] * p[:, None, :]


def _softmax_cotangents(out: np.ndarray) -> np.ndarray:
    return softmax_jacobian(_softmax(out))


def _row_batches(x: np.ndarray, batch: int) -> Iterator[np.ndarray]:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    for lo in range(0, x.shape[0], batch):
        yield x[lo:lo + batch]


def _norm_stream(net, batches, softmax: bool = False) -> Iterator[np.ndarray]:
    """Per-sample Jacobian spectral norms, one array per batch.

    With ``softmax`` the Jacobians are those of softmax ∘ net: the softmax
    Jacobian rows seed the net's reverse sweep.
    """
    cotangents = _softmax_cotangents if softmax else None
    for x in batches:
        yield batch_spectral_norms(net.input_jacobians(x, cotangents))


def _sup(norm_batches: Iterator[np.ndarray]) -> float:
    return max((float(norms.max()) for norms in norm_batches), default=0.0)


def _sup_mean(norm_batches: Iterator[np.ndarray]):
    """``(sup, mean, argmax_index)`` over a stream of norm batches, in stream order."""
    best = -1.0
    best_idx = 0
    total = 0.0
    seen = 0
    for norms in norm_batches:
        i = int(np.argmax(norms))
        if norms[i] > best:
            best = float(norms[i])
            best_idx = seen + i
        total += float(norms.sum())
        seen += len(norms)
    if seen == 0:
        raise ValueError("Lipschitz estimates need at least one sample")
    return best, total / seen, best_idx


def _check_softmax(net) -> None:
    if net.output_dim < 2:
        raise ValueError("softmax composition needs at least 2 outputs")


def lower_bound(net, samples: np.ndarray, chunk: int = 256):
    """Sup and mean of the input-Jacobian spectral norm over a sample set.

    Returns ``(c_lower, c_avg, argmax_index)``; the index points at the
    sample attaining the sup.  Streams in chunks with a fixed reduction
    order, so results are deterministic and memory stays flat.
    """
    return _sup_mean(_norm_stream(net, _row_batches(samples, chunk)))


def upper_bound(net, settings: PowerIterSettings = PowerIterSettings()) -> float:
    """Product of the per-layer operator norms."""
    out = 1.0
    for sigma in net.layer_spectral_norms(settings):
        out *= sigma
    return out


@dataclass(frozen=True)
class ProbeSet:
    """Train ∪ test plus random convex combinations λ·x_i + (1−λ)·x_j.

    ``pair_count`` pairs are drawn per λ per source set, uniformly with
    replacement, from the stated seed.  Points are generated lazily in a
    fixed order so CIFAR-sized probes never have to be materialized.
    The train points come first, in ``batch``-row slices of ``train_x``;
    ``beyond_train`` yields the rest, so a caller that has already scanned
    the train set in the same slices (as :func:`build_report` does) can
    skip it.
    """

    train_x: np.ndarray
    test_x: np.ndarray
    pair_count: int
    seed: int
    lambdas: tuple = PROBE_LAMBDAS

    def __post_init__(self):
        if self.pair_count < 0:
            raise ValueError(f"pair_count must be >= 0, got {self.pair_count}")
        if np.atleast_2d(self.train_x).shape[1] != np.atleast_2d(self.test_x).shape[1]:
            raise ValueError("train and test probes must share the input dimension")

    def __len__(self) -> int:
        return len(self.train_x) + len(self.test_x) + 2 * len(self.lambdas) * self.pair_count

    def batches(self, batch: int = 512) -> Iterator[np.ndarray]:
        """All probe points in their fixed order: train, test, then pairs."""
        yield from _row_batches(self.train_x, batch)
        yield from self.beyond_train(batch)

    def beyond_train(self, batch: int = 512) -> Iterator[np.ndarray]:
        """The probe points after the train set: test, then pairs."""
        yield from _row_batches(self.test_x, batch)
        for src_idx, source in enumerate((self.train_x, self.test_x)):
            source = np.atleast_2d(np.asarray(source, dtype=np.float64))
            n = source.shape[0]
            for lam_idx, lam in enumerate(self.lambdas):
                # One generator per (source, λ) block, drawing full-range
                # 64-bit words (fixed consumption, no rejection), so a larger
                # pair_count extends the block's pair sequence as a prefix and
                # probe sets are nested across pair_count and batch choices.
                rng = make_rng(self.seed, _PROBE_STREAM, src_idx, lam_idx)
                done = 0
                while done < self.pair_count:
                    take = min(batch, self.pair_count - done)
                    raw = rng.integers(0, 2 ** 64, size=(take, 2), dtype=np.uint64,
                                       endpoint=False)
                    i = raw[:, 0] % n
                    j = raw[:, 1] % n
                    yield lam * source[i] + (1.0 - lam) * source[j]
                    done += take


def probe_bound(net, probe: ProbeSet, chunk: int = 256) -> float:
    """Sup-Jacobian norm over the probe set (a superset of the train sup)."""
    return _sup(_norm_stream(net, probe.batches(chunk)))


def softmax_composed_lower_bound(net, samples: np.ndarray, chunk: int = 256) -> float:
    """Sup over samples of ||J_softmax(f(x)) · ∇_x f(x)||₂.

    This is the lower estimate for the classifier with a softmax layer on
    top; since softmax contracts, it never exceeds the plain estimate.
    """
    _check_softmax(net)
    return _sup(_norm_stream(net, _row_batches(samples, chunk), softmax=True))


@dataclass
class LipschitzReport:
    """One checkpoint's bound estimates, ordered c_avg_norm ≤ c_lower ≤ c_probe ≤ c_upper."""

    c_lower: float
    c_avg_norm: float
    c_upper: float
    c_probe: float | None
    softmax_composed: bool
    snapshot: dict

    def probe_fidelity(self) -> float | None:
        """Where c_probe sits in [c_lower, c_upper], as a fraction of the gap."""
        if self.c_probe is None:
            return None
        gap = self.c_upper - self.c_lower
        if gap <= 0:
            return 0.0
        return (self.c_probe - self.c_lower) / gap

    def to_dict(self) -> dict:
        out = {"c_lower": self.c_lower, "c_avg_norm": self.c_avg_norm,
               "c_upper": self.c_upper, "c_probe": self.c_probe,
               "softmax_composed": self.softmax_composed, "snapshot": self.snapshot}
        fid = self.probe_fidelity()
        if fid is not None:
            out["probe_fidelity"] = fid
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def build_report(net, samples: np.ndarray, snapshot: dict,
                 settings: PowerIterSettings = PowerIterSettings(),
                 probe: ProbeSet | None = None, softmax_composed: bool = False,
                 chunk: int = 256) -> LipschitzReport:
    """Assemble the full report for one checkpoint.

    With ``softmax_composed`` the lower and probe estimates describe
    softmax ∘ net; the upper estimate is unchanged because softmax is
    1-Lipschitz, so the ordering invariant still holds.

    Each sample's Jacobian is built once: one pass over ``samples`` gives
    both ``c_lower`` and ``c_avg_norm``.  When the probe's train part
    equals ``samples``, its norms are the ones that pass already took (the
    chunks match), so only the rest of the probe set is scanned and
    ``c_probe`` is the same as ``max(probe_bound(...), c_lower)``.
    """
    if softmax_composed:
        _check_softmax(net)
    c_lower, c_avg, _ = _sup_mean(_norm_stream(net, _row_batches(samples, chunk), softmax_composed))
    c_probe = None
    if probe is not None:
        same = np.array_equal(samples, probe.train_x)
        batches = probe.beyond_train(chunk) if same else probe.batches(chunk)
        c_probe = max(c_lower, _sup(_norm_stream(net, batches, softmax_composed)))
    return LipschitzReport(c_lower=c_lower, c_avg_norm=c_avg, c_upper=upper_bound(net, settings),
                           c_probe=c_probe, softmax_composed=softmax_composed, snapshot=snapshot)
