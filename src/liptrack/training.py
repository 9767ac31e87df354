"""Losses, optimizers, LR schedules, and the epoch loop with gradient-norm stopping."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .linalg import make_rng

LOSS_KINDS = ("mse", "ce")
SCHEDULE_VARIANTS = ("warmup20000step25", "cont100", "constant")

# Full-train-set gradient-norm thresholds used as stopping defaults.
STOP_THRESHOLDS = {"ce": 0.01, "mse": 0.001}

_SHUFFLE_STREAM = 0x5807


class DivergenceError(RuntimeError):
    """Raised when the training loss goes non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}")
        self.epoch = epoch


def _check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        bad = labels[(labels < 0) | (labels >= num_classes)][0]
        raise ValueError(f"label {bad} out of range [0, {num_classes})")
    return labels


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = _check_labels(labels, num_classes)
    return np.eye(num_classes)[labels]


def _loss_sum_and_dout(out: np.ndarray, labels: np.ndarray, kind: str):
    """Summed (not averaged) loss over the batch plus d(sum)/d(out)."""
    if kind == "mse":
        resid = out - one_hot(labels, out.shape[1])
        return float(np.sum(resid * resid)), 2.0 * resid
    if kind == "ce":
        labels = _check_labels(labels, out.shape[1])
        shifted = out - out.max(axis=1, keepdims=True)
        logz = np.log(np.sum(np.exp(shifted), axis=1))
        value = float(np.sum(logz - shifted[np.arange(len(labels)), labels]))
        dout = np.exp(shifted - logz[:, None])
        dout[np.arange(len(labels)), labels] -= 1.0
        return value, dout
    raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")


def batch_loss(net, x: np.ndarray, labels: np.ndarray, kind: str) -> float:
    """Mean loss of the net on a batch; MSE is the squared 2-norm against one-hots."""
    out = net.forward(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    value, _ = _loss_sum_and_dout(out, labels, kind)
    return value / out.shape[0]


def loss_and_grad(net, x: np.ndarray, labels: np.ndarray, kind: str):
    """Mean batch loss and its gradient w.r.t. every weight array."""
    out, cache = net.forward_cached(x)
    value, dout = _loss_sum_and_dout(out, labels, kind)
    n = out.shape[0]
    grads = net.backprop_params(cache, dout / n)
    return value / n, grads


def param_grad(net, x: np.ndarray, labels: np.ndarray, kind: str, chunk: int = 256):
    """Mean loss over a (possibly large) sample set and its flat θ-gradient.

    Evaluated in chunks so the full training set fits; the result is the
    exact mean-loss gradient, not a minibatch estimate.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels)
    n = x.shape[0]
    total = 0.0
    acc = None
    for lo in range(0, n, chunk):
        out, cache = net.forward_cached(x[lo:lo + chunk])
        value, dout = _loss_sum_and_dout(out, labels[lo:lo + chunk], kind)
        total += value
        grads = net.backprop_params(cache, dout)
        flat = np.concatenate([g.ravel() for g in grads])
        acc = flat if acc is None else acc + flat
    return total / n, acc / n


def dataset_loss(net, x: np.ndarray, labels: np.ndarray, kind: str, chunk: int = 256) -> float:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    total = 0.0
    for lo in range(0, x.shape[0], chunk):
        out = net.forward(x[lo:lo + chunk])
        value, _ = _loss_sum_and_dout(out, np.asarray(labels)[lo:lo + chunk], kind)
        total += value
    return total / x.shape[0]


# ---------------------------------------------------------------------------
# Optimizers


class Sgd:
    """Plain SGD, no momentum: θ ← θ − ηλ·g."""

    kind = "sgd"

    def __init__(self, base_lr: float):
        if base_lr < 0:
            raise ValueError(f"base_lr must be nonnegative, got {base_lr}")
        self.base_lr = float(base_lr)

    def step(self, arrays: Sequence[np.ndarray], grads: Sequence[np.ndarray], coeff: float) -> None:
        lr = coeff * self.base_lr
        for a, g in zip(arrays, grads):
            a -= lr * g


class Adam:
    """Adam with the usual defaults: β1 0.9, β2 0.999, ε 1e-8, bias correction."""

    kind = "adam"

    def __init__(self, base_lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        if base_lr < 0:
            raise ValueError(f"base_lr must be nonnegative, got {base_lr}")
        self.base_lr = float(base_lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None

    def step(self, arrays: Sequence[np.ndarray], grads: Sequence[np.ndarray], coeff: float) -> None:
        if self._m is None:
            self._m = [np.zeros_like(a) for a in arrays]
            self._v = [np.zeros_like(a) for a in arrays]
        self.t += 1
        lr = coeff * self.base_lr
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for a, g, m, v in zip(arrays, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            a -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def make_optimizer(name: str, base_lr: float):
    if name == "sgd":
        return Sgd(base_lr)
    if name == "adam":
        return Adam(base_lr)
    raise ValueError(f"unknown optimizer {name!r}; expected 'sgd' or 'adam'")


# ---------------------------------------------------------------------------
# LR schedules


def updates_per_epoch(n: int, batch_size: int) -> int:
    # Last partial batch is kept, so this is a ceiling division.
    return -(-int(n) // int(batch_size))


@dataclass(frozen=True)
class LrSchedule:
    """A named LR-coefficient curve, stepped once per update.

    ``upe`` (updates per epoch) makes epoch-denominated phases of the
    curve exact for the actual dataset length and batch size.
    """

    variant: str
    upe: int

    def __post_init__(self):
        if self.variant not in SCHEDULE_VARIANTS:
            raise ValueError(f"unknown schedule {self.variant!r}; expected one of {SCHEDULE_VARIANTS}")
        if self.upe < 1:
            raise ValueError(f"updates per epoch must be >= 1, got {self.upe}")

    def coeff(self, update_index: int) -> float:
        return schedule_coeff(self, update_index)


def schedule_coeff(s: LrSchedule, update_index: int) -> float:
    """LR coefficient in (0, 1] at a 0-based update index."""
    u = int(update_index)
    if u < 0:
        raise ValueError(f"update index must be >= 0, got {u}")
    if s.variant == "constant":
        return 1.0
    if s.variant == "cont100":
        # Drops by 0.95 every 100 epochs; constant within an epoch.
        epoch = u // s.upe
        return 0.95 ** (epoch // 100)
    # warmup20000step25: linear ramp 1/20000 -> 1 over 20000 updates, then
    # three 0.75 drops at 2500-epoch marks and a plateau at 0.75^3.
    if u <= 20000:
        return max(1, u) / 20000.0
    k = (u - 20000) // (2500 * s.upe)
    return 0.75 ** min(k, 3)


# ---------------------------------------------------------------------------
# Stop rule and trace


@dataclass(frozen=True)
class StopRule:
    """Stop when the full-train-set gradient norm dips below the threshold.

    Only consulted from ``min_epochs`` on; ``max_epochs`` is a hard cap.
    An infinite threshold disables the gradient-norm stop entirely, so
    the run always lasts ``max_epochs``.
    """

    grad_norm_threshold: float
    min_epochs: int
    max_epochs: int

    def __post_init__(self):
        if not self.grad_norm_threshold > 0:
            raise ValueError(f"threshold must be > 0, got {self.grad_norm_threshold}")
        if not 0 <= self.min_epochs <= self.max_epochs:
            raise ValueError(f"need 0 <= min_epochs <= max_epochs, got {self.min_epochs}, {self.max_epochs}")

    def should_stop(self, epoch: int, grad_norm: float) -> bool:
        if math.isinf(self.grad_norm_threshold):
            return False
        return epoch >= self.min_epochs and grad_norm <= self.grad_norm_threshold


def default_stop(kind: str, min_epochs: int, max_epochs: int) -> StopRule:
    if kind not in STOP_THRESHOLDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    return StopRule(STOP_THRESHOLDS[kind], min_epochs, max_epochs)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    test_loss: float
    grad_norm: float
    eta: float
    param_dist: float
    wall_ms: float

    def to_dict(self) -> dict:
        return {"epoch": self.epoch, "train_loss": self.train_loss,
                "test_loss": self.test_loss, "grad_norm": self.grad_norm,
                "eta": self.eta, "param_dist": self.param_dist,
                "wall_ms": self.wall_ms}


@dataclass
class TrainTrace:
    records: list[EpochRecord] = field(default_factory=list)
    stop_reason: str = ""

    @property
    def final(self) -> EpochRecord:
        return self.records[-1]

    def write_jsonl(self, path) -> None:
        """One fixed-key object per epoch.

        wall_ms serializes as null: it is the one nondeterministic field,
        and the file contract is byte-for-byte reproducibility per seed.
        The measured value stays on the in-memory records.
        """
        with open(path, "w") as fh:
            for rec in self.records:
                row = rec.to_dict()
                row["wall_ms"] = None
                fh.write(json.dumps(row) + "\n")


def read_trace_jsonl(path) -> TrainTrace:
    trace = TrainTrace()
    for line in Path(path).read_text().splitlines():
        if line.strip():
            trace.records.append(EpochRecord(**json.loads(line)))
    return trace


# ---------------------------------------------------------------------------
# Epoch loop


def train(net, dataset, kind: str, optimizer, schedule_variant: str, stop: StopRule,
          batch_size: int, seed: int,
          on_epoch: Callable[[int, object, EpochRecord], None] | None = None) -> TrainTrace:
    """Run the epoch loop on ``net`` in place and return the per-epoch trace.

    Sample order is reshuffled every epoch from a generator derived from
    ``seed``, so the whole run is reproducible.  ``on_epoch`` (if given)
    fires after each epoch's record is appended; the harness uses it to
    evaluate bounds mid-run.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    x, y = dataset.train_x, dataset.train_y
    n = x.shape[0]
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size {batch_size} not in [1, {n}]")
    schedule = LrSchedule(schedule_variant, updates_per_epoch(n, batch_size))
    rng = make_rng(seed, _SHUFFLE_STREAM)
    theta0 = net.param_vector()
    trace = TrainTrace()
    update = 0
    coeff = schedule.coeff(0)
    for epoch in range(1, stop.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            idx = order[lo:lo + batch_size]
            coeff = schedule.coeff(update)
            value, grads = loss_and_grad(net, x[idx], y[idx], kind)
            if not math.isfinite(value):
                raise DivergenceError(epoch)
            optimizer.step(net.weight_arrays(), grads, coeff)
            update += 1
        train_loss, grad = param_grad(net, x, y, kind)
        if not math.isfinite(train_loss):
            raise DivergenceError(epoch)
        grad_norm = float(np.linalg.norm(grad))
        test_loss = dataset_loss(net, dataset.test_x, dataset.test_y, kind)
        record = EpochRecord(
            epoch=epoch, train_loss=train_loss, test_loss=test_loss,
            grad_norm=grad_norm, eta=coeff,
            param_dist=float(np.linalg.norm(net.param_vector() - theta0)),
            wall_ms=(time.perf_counter() - started) * 1e3)
        trace.records.append(record)
        if on_epoch is not None:
            on_epoch(epoch, net, record)
        if stop.should_stop(epoch, grad_norm):
            trace.stop_reason = "grad_norm"
            break
    else:
        trace.stop_reason = "max_epochs"
    return trace
