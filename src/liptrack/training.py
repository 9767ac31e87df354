"""Losses, optimizers, LR schedules, and the epoch loop with gradient-norm stopping."""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .linalg import make_rng, row_chunks, vector_norm
from .models import param_distance

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


def loss_and_grad(net, x: np.ndarray, labels: np.ndarray, kind: str):
    """Mean batch loss and its gradient w.r.t. every weight array."""
    out, cache = net.forward_cached(x)
    value, dout = _loss_sum_and_dout(out, labels, kind)
    n = out.shape[0]
    grads = net.backprop_params(cache, dout / n)
    return value / n, grads


def param_grad(net, x: np.ndarray, labels: np.ndarray, kind: str):
    """Mean loss over a (possibly large) sample set and its flat θ-gradient.

    Evaluated in :func:`~liptrack.linalg.row_chunks` slices so the full
    training set fits; the result is the exact mean-loss gradient, not a
    minibatch estimate.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    total = 0.0
    acc = None
    for xb, yb in row_chunks(x, np.asarray(labels)):
        out, cache = net.forward_cached(xb)
        value, dout = _loss_sum_and_dout(out, yb, kind)
        total += value
        grads = net.backprop_params(cache, dout)
        flat = np.concatenate([g.ravel() for g in grads])
        acc = flat if acc is None else acc + flat
    return total / x.shape[0], acc / x.shape[0]


def dataset_loss(net, x: np.ndarray, labels: np.ndarray, kind: str) -> float:
    """Mean loss of the net over a sample set, in ``row_chunks`` slices; MSE
    is the squared 2-norm against one-hots."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    total = 0.0
    for xb, yb in row_chunks(x, np.asarray(labels)):
        value, _ = _loss_sum_and_dout(net.forward(xb), yb, kind)
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


def check_batch_size(batch_size: int, n: int) -> None:
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size {batch_size} not in [1, {n}]")


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

    def reads_gradient(self, epoch: int) -> bool:
        """Whether the rule looks at this epoch's gradient norm at all."""
        return not math.isinf(self.grad_norm_threshold) and epoch >= self.min_epochs

    def should_stop(self, epoch: int, grad_norm: float) -> bool:
        return self.reads_gradient(epoch) and grad_norm <= self.grad_norm_threshold


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
        return asdict(self)


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


# ---------------------------------------------------------------------------
# Epoch loop


# An epoch that computes no full-train loss may skip the divergence check
# only below this bound on an FF net's outputs.  For a zero-bias ReLU net,
# each pre-activation entry w·a, and each partial sum of it in whatever
# order it is summed, is at most ‖w‖‖a‖ ≤ ‖W‖_F‖a‖ in size (Cauchy–Schwarz);
# ‖Wa‖ ≤ ‖W‖_F‖a‖ too, and a ReLU does not raise a norm.  So every entry the
# forward pass makes is at most B = max_i ‖x_i‖ · Π_l ‖W_l‖_F, and the
# outputs lie in [0, B].  MSE then sums n·K squares of at most (B + 1)², and
# CE sums n terms of at most B + log K (its shifted logits lie in [-B, 0]).
# With B < 1e100 both totals stay below about n·K·1e200, finite in float64
# (max 1.8e308) for any n·K below 1e108, with rounding far inside the margin.
_FINITE_LOSS_BOUND = 1e100


def _loss_cannot_overflow(net, x_norm: float) -> bool:
    """True when ``net``'s loss on inputs of norm at most ``x_norm`` is
    provably finite; NaN or inf weights and every CNN give False."""
    if net.family != "ff":
        return False
    bound = x_norm
    for w in net.weights:
        bound *= vector_norm(w)
    return bound < _FINITE_LOSS_BOUND


def train(net, dataset, kind: str, optimizer, schedule_variant: str, stop: StopRule,
          batch_size: int, seed: int,
          on_epoch: Callable[[int, object, EpochRecord], None] | None = None,
          eval_every: int = 1) -> TrainTrace:
    """Run the epoch loop on ``net`` in place and return the trace of its
    recorded epochs.

    Sample order is reshuffled every epoch from a generator derived from
    ``seed``, so the whole run is reproducible.  An epoch is recorded when
    it is a multiple of ``eval_every`` or the final one (it hits
    ``max_epochs`` or the grad-norm stop).  Only a recorded epoch computes
    the test loss and the distance from the initial weights, and only a
    recorded epoch or one whose gradient norm the stop rule reads computes
    the full-train gradient; the weights and the recorded values are the
    same at every cadence.  Every epoch checks the full-train loss for
    divergence, or proves it finite (``_FINITE_LOSS_BOUND``), so
    ``DivergenceError`` names the same epoch at every cadence.
    ``on_epoch`` (if given) fires with epoch 0's record of the initial net
    (which is not added to the trace), then after each recorded epoch's
    record is appended; the harness uses it to evaluate bounds mid-run.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    if eval_every < 1:
        raise ValueError(f"eval_every must be >= 1, got {eval_every}")
    x, y = dataset.train_x, dataset.train_y
    n = x.shape[0]
    check_batch_size(batch_size, n)
    schedule = LrSchedule(schedule_variant, updates_per_epoch(n, batch_size))
    rng = make_rng(seed, _SHUFFLE_STREAM)
    x_norm = float(np.sqrt(np.max(np.einsum("ij,ij->i", x, x))))  # max_i ‖x_i‖

    def train_loss_and_grad_norm(epoch: int) -> tuple[float, float]:
        train_loss, grad = param_grad(net, x, y, kind)
        if epoch and not math.isfinite(train_loss):  # epoch 0 has taken no step
            raise DivergenceError(epoch)
        return train_loss, vector_norm(grad)

    def record(epoch: int, eta: float, train_loss: float, grad_norm: float,
               param_dist: float, started: float) -> EpochRecord:
        return EpochRecord(
            epoch=epoch, train_loss=train_loss,
            test_loss=dataset_loss(net, dataset.test_x, dataset.test_y, kind),
            grad_norm=grad_norm, eta=eta, param_dist=param_dist,
            wall_ms=(time.perf_counter() - started) * 1e3)

    trace = TrainTrace()
    update = 0
    coeff = schedule.coeff(0)
    if on_epoch is not None:
        started = time.perf_counter()
        on_epoch(0, net, record(0, coeff, *train_loss_and_grad_norm(0), 0.0, started))
    # Copied after epoch 0's evaluation: before it, it raised a width sweep's peak RSS by 1 MB.
    theta0 = net.param_vector()
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
        on_cadence = epoch % eval_every == 0 or epoch == stop.max_epochs
        if on_cadence or stop.reads_gradient(epoch):
            train_loss, grad_norm = train_loss_and_grad_norm(epoch)
            stopping = stop.should_stop(epoch, grad_norm)
            if on_cadence or stopping:
                rec = record(epoch, coeff, train_loss, grad_norm,
                             param_distance(net, theta0), started)
                trace.records.append(rec)
                if on_epoch is not None:
                    on_epoch(epoch, net, rec)
            if stopping:
                trace.stop_reason = "grad_norm"
                break
        elif (not _loss_cannot_overflow(net, x_norm)
              and not math.isfinite(dataset_loss(net, x, y, kind))):
            raise DivergenceError(epoch)
    else:
        trace.stop_reason = "max_epochs"
    return trace
