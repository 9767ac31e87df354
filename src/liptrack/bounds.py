"""Lipschitz-constant estimators for trained nets.

Lower and average estimates come from per-sample input-Jacobian spectral
norms; the upper estimate is the product of per-layer operator norms
(activations and pooling are 1-Lipschitz and contribute a factor of 1).
A probe set of convex sample combinations tightens the lower estimate
without leaving the data's convex hull.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Iterator

import numpy as np

from . import linalg
from .linalg import (EXACT_SIDE_CAP, PowerIterSettings, gram_spectral_norms, make_rng,
                     row_chunks, spectral_norm_dense)
from .models import jacobian_stream

_PROBE_STREAM = 0x9B0E

PROBE_LAMBDAS = (0.1, 0.2, 0.3, 0.4, 0.5)


def batch_spectral_norms(mats: np.ndarray, settings: PowerIterSettings = PowerIterSettings()) -> np.ndarray:
    """Spectral norm of each matrix in a (n, k, d) stack: exact, from one
    batched eigen-solve of the Gram stack, when the smaller side is at most
    ``EXACT_SIDE_CAP`` (10 x 40 Jacobians, say); else the iterative
    :func:`~liptrack.linalg.spectral_norm_dense` each."""
    mats = np.asarray(mats, dtype=np.float64)
    n, k, d = mats.shape
    if n == 0:
        return np.zeros(0)
    if min(k, d) <= EXACT_SIDE_CAP:
        return gram_spectral_norms(mats)
    return np.array([spectral_norm_dense(m, settings) for m in mats])


def softmax_jacobian(p: np.ndarray) -> np.ndarray:
    """diag(p) − p pᵀ for each row of class probabilities."""
    p = np.atleast_2d(p)
    eye = np.eye(p.shape[1])
    return eye[None, :, :] * p[:, :, None] - p[:, :, None] * p[:, None, :]


def _softmax_cotangents(out: np.ndarray) -> np.ndarray:
    e = np.exp(out - out.max(axis=1, keepdims=True))
    return softmax_jacobian(e / e.sum(axis=1, keepdims=True))


def _row_batches(x: np.ndarray) -> Iterator[np.ndarray]:
    return row_chunks(np.atleast_2d(np.asarray(x, dtype=np.float64)))


def _norm_stream(jacobians, batches) -> Iterator[np.ndarray]:
    """Per-sample Jacobian spectral norms, one array per batch, from a
    :func:`~liptrack.models.jacobian_stream`.  Seeded with
    ``_softmax_cotangents``, the stream gives the Jacobians of softmax ∘ net.
    A depth-1 net builds its Jacobian workspace once per stream.
    """
    for x in batches:
        yield batch_spectral_norms(jacobians(x))


def _sup_mean(norm_batches: Iterator[np.ndarray]):
    """``(sup, mean, argmax_index)`` over a stream of norm batches, in stream order.

    A NaN norm makes the sup NaN, whatever follows it, and the index points
    at the first one.  Every sup in this module is taken here."""
    best = 0.0
    best_idx = 0
    total = 0.0
    seen = 0
    for norms in norm_batches:
        i = int(np.argmax(norms))  # the first NaN, if the batch has one
        if norms[i] > best or math.isnan(norms[i]) and not math.isnan(best):
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


def lower_bound(net, samples: np.ndarray):
    """Sup and mean of the input-Jacobian spectral norm over a sample set.

    Returns ``(c_lower, c_avg, argmax_index)``; the index points at the
    sample attaining the sup.  Streams in chunks with a fixed reduction
    order, so results are deterministic and memory stays flat.
    """
    return _sup_mean(_norm_stream(jacobian_stream(net), _row_batches(samples)))


def upper_bound(net, settings: PowerIterSettings = PowerIterSettings()) -> float:
    """Product of the per-layer operator norms, each exact for a dense layer
    with a side within ``EXACT_SIDE_CAP``, else an estimate from below by
    thick-restart Lanczos on the layer's Gram map, which restarts on its top
    Ritz vectors and the previous step's one (``linalg._top_gram_eigenvalue``)."""
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
    The train points come first, in the :func:`~liptrack.linalg.row_chunks`
    slices of ``train_x``, and no block holds more than ``ROW_CHUNK`` rows;
    ``beyond_train`` yields the rest, so a caller that has already scanned
    the train set in the same slices (as :func:`build_report` does) can
    skip it.
    """

    train_x: np.ndarray
    test_x: np.ndarray
    pair_count: int
    seed: int

    def __post_init__(self):
        if self.pair_count < 0:
            raise ValueError(f"pair_count must be >= 0, got {self.pair_count}")
        if np.atleast_2d(self.train_x).shape[1] != np.atleast_2d(self.test_x).shape[1]:
            raise ValueError("train and test probes must share the input dimension")

    def __len__(self) -> int:
        return len(self.train_x) + len(self.test_x) + 2 * len(PROBE_LAMBDAS) * self.pair_count

    def batches(self) -> Iterator[np.ndarray]:
        """All probe points in their fixed order: train, test, then pairs."""
        yield from _row_batches(self.train_x)
        yield from self.beyond_train()

    def beyond_train(self) -> Iterator[np.ndarray]:
        """The probe points after the train set: test, then pairs."""
        yield from _row_batches(self.test_x)
        for src_idx, source in enumerate((self.train_x, self.test_x)):
            source = np.atleast_2d(np.asarray(source, dtype=np.float64))
            n = source.shape[0]
            for lam_idx, lam in enumerate(PROBE_LAMBDAS):
                # One generator per (source, λ) block, drawing full-range
                # 64-bit words (fixed consumption, no rejection), so a larger
                # pair_count extends the block's pair sequence as a prefix and
                # probe sets are nested across pair_count and ROW_CHUNK.
                rng = make_rng(self.seed, _PROBE_STREAM, src_idx, lam_idx)
                done = 0
                while done < self.pair_count:
                    take = min(linalg.ROW_CHUNK, self.pair_count - done)
                    raw = rng.integers(0, 2 ** 64, size=(take, 2), dtype=np.uint64,
                                       endpoint=False)
                    i = raw[:, 0] % n
                    j = raw[:, 1] % n
                    yield lam * source[i] + (1.0 - lam) * source[j]
                    done += take


def probe_bound(net, probe: ProbeSet) -> float:
    """Sup-Jacobian norm over the probe set (a superset of the train sup)."""
    return _sup_mean(_norm_stream(jacobian_stream(net), probe.batches()))[0]


def softmax_composed_lower_bound(net, samples: np.ndarray) -> float:
    """Sup over samples of ||J_softmax(f(x)) · ∇_x f(x)||₂.

    This is the lower estimate for the classifier with a softmax layer on
    top; since softmax contracts, it never exceeds the plain estimate.
    """
    _check_softmax(net)
    jacobians = jacobian_stream(net, _softmax_cotangents)
    return _sup_mean(_norm_stream(jacobians, _row_batches(samples)))[0]


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
        out = asdict(self)
        fid = self.probe_fidelity()
        if fid is not None:
            out["probe_fidelity"] = fid
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def build_report(net, samples: np.ndarray, snapshot: dict,
                 settings: PowerIterSettings = PowerIterSettings(),
                 probe: ProbeSet | None = None,
                 softmax_composed: bool = False) -> LipschitzReport:
    """Assemble the full report for one checkpoint.

    With ``softmax_composed`` the lower and probe estimates describe
    softmax ∘ net; the upper estimate is unchanged because softmax is
    1-Lipschitz, so the ordering invariant still holds.

    Each sample's Jacobian is built once: one pass over ``samples`` gives
    both ``c_lower`` and ``c_avg_norm``.  When the probe's train part
    equals ``samples``, its norms are the ones that pass already took (the
    chunks match), so only the rest of the probe set is scanned and
    ``c_probe`` is the same as ``max(probe_bound(...), c_lower)``.  Both
    passes draw on one Jacobian stream.
    """
    if softmax_composed:
        _check_softmax(net)
    jacobians = jacobian_stream(net, _softmax_cotangents if softmax_composed else None)
    c_lower, c_avg, _ = _sup_mean(_norm_stream(jacobians, _row_batches(samples)))
    c_probe = None
    if probe is not None:
        same = np.array_equal(samples, probe.train_x)
        batches = probe.beyond_train() if same else probe.batches()
        # c_lower leads the stream, so an empty remainder leaves it as the
        # sup, and a NaN from either pass wins.
        lead = np.array([c_lower])
        c_probe = _sup_mean(chain([lead], _norm_stream(jacobians, batches)))[0]
    return LipschitzReport(c_lower=c_lower, c_avg_norm=c_avg, c_upper=upper_bound(net, settings),
                           c_probe=c_probe, softmax_composed=softmax_composed, snapshot=snapshot)
