"""Seed-ensemble bias-variance decomposition and variance upper bounds.

An ensemble is the same architecture trained from several seeds on one
fixed dataset.  Averaging over seeds splits the expected test MSE into a
bias term and a variance term, and the variance admits closed-form upper
bounds driven by Lipschitz estimates of the members.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# lower_bound is no longer called here but stays bound: perfbench's tracer
# patches it by name in every module that imports it.
from .bounds import batch_spectral_norms, lower_bound, upper_bound  # noqa: F401
from .linalg import PowerIterSettings
from .training import DivergenceError, default_stop, make_optimizer, one_hot, train

BIASVAR_CSV_COLUMNS = ["width", "bias_sq", "variance", "test_loss", "r_sq",
                       "c_bar", "c_bar_zeta", "bound_v1_lower", "bound_v2_lower",
                       "bound_v1_upper", "bound_v2_upper", "xprime_kind"]


@dataclass
class SeedEnsemble:
    """Trained copies of one architecture, one per seed."""

    members: list
    seeds: list

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError(f"an ensemble needs at least 2 members, got {len(self.members)}")
        if len(self.members) != len(self.seeds):
            raise ValueError(f"{len(self.members)} members vs {len(self.seeds)} seeds")
        spec0 = self.members[0].arch_spec()
        for m in self.members[1:]:
            if m.arch_spec() != spec0:
                raise ValueError(f"mixed architectures in ensemble: {spec0} vs {m.arch_spec()}")

    @property
    def size(self) -> int:
        return len(self.members)

    def mean_forward(self, x: np.ndarray) -> np.ndarray:
        out = self.members[0].forward(x)
        for m in self.members[1:]:
            out = out + m.forward(x)
        return out / self.size


def decompose(e: SeedEnsemble, test_set, chunk: int = 1024):
    """Split expected test MSE into bias² and variance over the seed draw.

    Returns ``(bias_sq, variance, expected_test_loss)``.  All three are
    empirical means, so the additive identity holds to rounding and is
    asserted by callers, never re-derived here.
    """
    x, labels = test_set.inputs, test_set.labels
    if x.shape[0] == 0:
        raise ValueError("decompose needs a nonempty test set")
    k = e.members[0].output_dim
    bias_total = 0.0
    var_total = 0.0
    loss_total = 0.0
    for lo in range(0, x.shape[0], chunk):
        xb = x[lo:lo + chunk]
        y = one_hot(labels[lo:lo + chunk], k)
        preds = np.stack([m.forward(xb) for m in e.members])
        fbar = preds.mean(axis=0)
        bias_total += float(np.sum((y - fbar) ** 2))
        var_total += float(np.mean(np.sum((fbar[None] - preds) ** 2, axis=2), axis=0).sum())
        loss_total += float(np.mean(np.sum((y[None] - preds) ** 2, axis=2), axis=0).sum())
    n = x.shape[0]
    return bias_total / n, var_total / n, loss_total / n


def ensemble_lipschitz_lower(e: SeedEnsemble, samples: np.ndarray, chunk: int = 256):
    """Lower Lipschitz estimates for the mean function and the mean of members.

    ``c_bar_hat`` takes the Jacobian of the averaged function (mean of
    member Jacobians) before the sup; ``c_bar_zeta_hat`` averages each
    member's own sup, the member's ``lower_bound`` over the same chunks.
    Jensen puts the first below the second.  Each member's Jacobians are
    built once per chunk and feed both estimates.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] == 0:
        raise ValueError("ensemble_lipschitz_lower needs at least one sample")
    best = 0.0
    per_seed = [0.0] * e.size
    for lo in range(0, samples.shape[0], chunk):
        xb = samples[lo:lo + chunk]
        mean_jac = None
        for i, m in enumerate(e.members):
            jac = m.input_jacobians(xb)
            per_seed[i] = max(per_seed[i], float(batch_spectral_norms(jac).max()))
            if mean_jac is None:
                mean_jac = jac
            else:
                mean_jac += jac
        mean_jac /= e.size
        best = max(best, float(batch_spectral_norms(mean_jac).max()))
    return best, float(np.mean(per_seed))


def variance_at(e: SeedEnsemble, xprime: np.ndarray) -> float:
    """Var over seeds of the member outputs at one input point."""
    preds = np.stack([m.forward(xprime) for m in e.members])
    fbar = preds.mean(axis=0)
    return float(np.mean(np.sum((preds - fbar[None]) ** 2, axis=1)))


def mean_sq_dist(x: np.ndarray, xprime: np.ndarray) -> float:
    """E over rows of ||x − x′||², in 64-bit over the whole set."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(xprime, dtype=np.float64)[None, :]
    return float(np.mean(np.sum(diff * diff, axis=1)))


@dataclass(frozen=True)
class BoundConstants:
    """Values plugged in for the two Lipschitz constants, with their origin."""

    c_bar: float
    c_bar_zeta: float
    label: str  # "lower" or "upper"


def lower_estimates(e: SeedEnsemble, samples: np.ndarray, chunk: int = 256) -> BoundConstants:
    c_bar_hat, c_bar_zeta_hat = ensemble_lipschitz_lower(e, samples, chunk)
    return BoundConstants(c_bar_hat, c_bar_zeta_hat, "lower")


def upper_estimates(e: SeedEnsemble, settings: PowerIterSettings = PowerIterSettings()) -> BoundConstants:
    # The layer-product bound dominates both constants, so the mean over
    # seeds serves for the ensembled function and the per-seed average alike.
    uppers = [upper_bound(m, settings) for m in e.members]
    mean_upper = float(np.mean(uppers))
    return BoundConstants(mean_upper, mean_upper, "upper")


def variance_bound(e: SeedEnsemble, test_set, xprime: np.ndarray | None,
                   constants: BoundConstants):
    """The two closed-form variance bounds at a reference point x′.

    x′ = None means the origin, where the E||x − x′||² factor reduces to
    the mean squared radius of the test set and (for zero-bias nets) the
    Var term vanishes.  Returns ``(bound_v1, bound_v2)``.
    """
    dim = test_set.inputs.shape[1]
    if xprime is None:
        xprime = np.zeros(dim)
    xprime = np.asarray(xprime, dtype=np.float64)
    if xprime.shape != (dim,):
        raise ValueError(f"x′ shape {xprime.shape}, expected ({dim},)")
    msd = mean_sq_dist(test_set.inputs, xprime)
    var_xp = variance_at(e, xprime)
    # Shared evaluation order keeps v1 <= v2 at the bit level whenever
    # c_bar <= c_bar_zeta (rounding is monotone), so the dominance chain
    # never breaks by one ulp.
    a2 = constants.c_bar ** 2
    b2 = constants.c_bar_zeta ** 2
    bound_v1 = 3.0 * msd * (a2 + b2) + 3.0 * var_xp
    bound_v2 = 3.0 * msd * (b2 + b2) + 3.0 * var_xp
    return bound_v1, bound_v2


@dataclass
class BiasVarReport:
    """Everything the variance study records for one trained ensemble."""

    bias_sq: float
    variance: float
    expected_test_loss: float
    r_sq: float
    c_bar: float
    c_bar_zeta: float
    var_at_xprime: float
    bound_v1: float
    bound_v2: float
    xprime_kind: str


def build_biasvar_report(e: SeedEnsemble, test_set, xprime_kind: str = "zero",
                         settings: PowerIterSettings = PowerIterSettings(),
                         chunk: int = 256) -> dict:
    """One row of the study: decomposition, constants, and all four bounds.

    ``xprime_kind`` is ``"zero"`` or ``"test_point:<i>"`` for the i-th
    test sample.  The row carries the bounds instantiated with both the
    measured lower estimates and the provable upper estimates.
    """
    bias_sq, variance, expected = decompose(e, test_set)
    lo = lower_estimates(e, test_set.inputs, chunk)
    up = upper_estimates(e, settings)
    if xprime_kind == "zero":
        xprime = None
    elif xprime_kind.startswith("test_point:"):
        idx = int(xprime_kind.split(":", 1)[1])
        xprime = test_set.inputs[idx]
    else:
        raise ValueError(f"unknown xprime_kind {xprime_kind!r}")
    v1_lo, v2_lo = variance_bound(e, test_set, xprime, lo)
    v1_up, v2_up = variance_bound(e, test_set, xprime, up)
    xp = np.zeros(test_set.inputs.shape[1]) if xprime is None else xprime
    return {"bias_sq": bias_sq, "variance": variance, "test_loss": expected,
            "r_sq": mean_sq_dist(test_set.inputs, np.zeros(test_set.inputs.shape[1])),
            "c_bar": lo.c_bar, "c_bar_zeta": lo.c_bar_zeta,
            "var_at_xprime": variance_at(e, xp),
            "bound_v1_lower": v1_lo, "bound_v2_lower": v2_lo,
            "bound_v1_upper": v1_up, "bound_v2_upper": v2_up,
            "xprime_kind": xprime_kind}


def train_ensemble(width: int, data, seeds, kind: str, optimizer_name: str,
                   base_lr: float, schedule: str, min_epochs: int, max_epochs: int,
                   batch_size: int) -> SeedEnsemble:
    """Train one single-hidden-layer net per seed on a shared dataset."""
    from .models import init_ff

    members = []
    for seed in seeds:
        net = init_ff(data.train_x.shape[1], [width], data.num_classes, seed)
        opt = make_optimizer(optimizer_name, base_lr)
        train(net, data, kind, opt, schedule, default_stop(kind, min_epochs, max_epochs),
              batch_size, seed)
        members.append(net)
    return SeedEnsemble(members, list(seeds))


def sweep_biasvar(widths, data, seeds, *, kind: str = "mse", optimizer_name: str = "sgd",
                  base_lr: float = 0.01, schedule: str = "constant",
                  min_epochs: int = 0, max_epochs: int = 50, batch_size: int = 512,
                  xprime_kind: str = "zero",
                  settings: PowerIterSettings = PowerIterSettings()):
    """Run the per-width variance study; returns (rows, failures).

    A width whose training diverges is recorded in ``failures`` and the
    sweep moves on, so one bad configuration cannot sink a long run.
    """
    rows = []
    failures = []
    for width in widths:
        try:
            e = train_ensemble(width, data, seeds, kind, optimizer_name, base_lr,
                               schedule, min_epochs, max_epochs, batch_size)
        except DivergenceError as err:
            failures.append({"width": int(width), "error": str(err), "epoch": err.epoch})
            continue
        row = {"width": int(width)}
        row.update(build_biasvar_report(e, data.test, xprime_kind, settings))
        del row["var_at_xprime"]
        rows.append(row)
    return rows, failures


def write_biasvar_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BIASVAR_CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in BIASVAR_CSV_COLUMNS})
