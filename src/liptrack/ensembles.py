"""Seed-ensemble bias-variance decomposition and variance upper bounds.

An ensemble is the same architecture trained from several seeds on one
fixed dataset.  Averaging over seeds splits the expected test MSE into a
bias term and a variance term, and the variance admits closed-form upper
bounds driven by Lipschitz estimates of the members.  Members are built
and trained by the harness's cell driver, exactly as sweep cells are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# lower_bound is no longer called here but stays bound: perfbench's tracer
# patches it by name in every module that imports it.
from .bounds import batch_spectral_norms, lower_bound, upper_bound  # noqa: F401
from .harness import ExperimentConfig, cell_net, train_cell, write_csv
from .linalg import PowerIterSettings, row_chunks
from .models import jacobian_stream
from .training import DivergenceError, one_hot

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


def decompose(e: SeedEnsemble, test_set):
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
    for xb, yb in row_chunks(x, labels):
        y = one_hot(yb, k)
        preds = np.stack([m.forward(xb) for m in e.members])
        fbar = preds.mean(axis=0)
        bias_total += float(np.sum((y - fbar) ** 2))
        var_total += float(np.mean(np.sum((fbar[None] - preds) ** 2, axis=2), axis=0).sum())
        loss_total += float(np.mean(np.sum((y[None] - preds) ** 2, axis=2), axis=0).sum())
    n = x.shape[0]
    return bias_total / n, var_total / n, loss_total / n


def ensemble_lipschitz_lower(e: SeedEnsemble, samples: np.ndarray):
    """Lower Lipschitz estimates for the mean function and the mean of members.

    ``c_bar_hat`` takes the Jacobian of the averaged function (mean of
    member Jacobians) before the sup; ``c_bar_zeta_hat`` averages each
    member's own sup, the member's ``lower_bound`` over the same chunks.
    Jensen puts the first below the second.  As in :mod:`~liptrack.bounds`,
    a NaN norm makes a sup NaN wherever it falls.  Each member's Jacobians
    are built once per chunk and feed both estimates.  Each member keeps one
    Jacobian stream (:func:`~liptrack.models.jacobian_stream`) over all the
    chunks; since a stream's result is overwritten by its next call, the
    mean is summed in its own array (sized by the first, largest chunk),
    members in order.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] == 0:
        raise ValueError("ensemble_lipschitz_lower needs at least one sample")
    best = 0.0
    per_seed = [0.0] * e.size
    streams = [jacobian_stream(m) for m in e.members]
    total = None
    for xb in row_chunks(samples):
        for i, jacobians in enumerate(streams):
            jac = jacobians(xb)
            per_seed[i] = float(np.maximum(per_seed[i], batch_spectral_norms(jac).max()))
            if i == 0:
                if total is None:
                    total = np.empty_like(jac)
                mean_jac = total[:len(xb)]
                mean_jac[...] = jac
            else:
                mean_jac += jac
        mean_jac /= e.size
        best = float(np.maximum(best, batch_spectral_norms(mean_jac).max()))
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
    """Values plugged in for the two Lipschitz constants."""

    c_bar: float
    c_bar_zeta: float


def lower_estimates(e: SeedEnsemble, samples: np.ndarray) -> BoundConstants:
    c_bar_hat, c_bar_zeta_hat = ensemble_lipschitz_lower(e, samples)
    return BoundConstants(c_bar_hat, c_bar_zeta_hat)


def upper_estimates(e: SeedEnsemble, settings: PowerIterSettings = PowerIterSettings()) -> BoundConstants:
    # The layer-product bound dominates both constants, so the mean over
    # seeds serves for the ensembled function and the per-seed average alike.
    uppers = [upper_bound(m, settings) for m in e.members]
    mean_upper = float(np.mean(uppers))
    return BoundConstants(mean_upper, mean_upper)


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


def resolve_xprime(xprime_kind: str, test_inputs: np.ndarray) -> np.ndarray:
    """x′ named by ``xprime_kind``: the origin for ``"zero"``, test row i for
    ``"test_point:<i>"`` with 0 <= i < n_test; anything else raises ValueError."""
    if xprime_kind == "zero":
        return np.zeros(test_inputs.shape[1])
    index = xprime_kind.removeprefix("test_point:")
    if index == xprime_kind or not index.isdecimal() or int(index) >= len(test_inputs):
        raise ValueError(f"bad xprime_kind {xprime_kind!r}: expected 'zero' or "
                         f"'test_point:<i>' with 0 <= i < {len(test_inputs)}")
    return test_inputs[int(index)]


def build_biasvar_report(e: SeedEnsemble, test_set, xprime_kind: str = "zero",
                         settings: PowerIterSettings = PowerIterSettings()) -> dict:
    """One row of the study: decomposition, constants, and all four bounds.

    ``xprime_kind`` names x′ for :func:`resolve_xprime`.  The row carries
    the bounds instantiated with both the measured lower estimates and the
    layer-product upper estimates.  The upper ones are certified only when
    every layer norm is exact: dense layers whose smaller side is at most
    ``EXACT_SIDE_CAP`` (128), which covers every depth-1 FF net on
    40-dimensional inputs (ROADMAP item 1).
    """
    xprime = resolve_xprime(xprime_kind, test_set.inputs)
    bias_sq, variance, expected = decompose(e, test_set)
    lo = lower_estimates(e, test_set.inputs)
    up = upper_estimates(e, settings)
    v1_lo, v2_lo = variance_bound(e, test_set, xprime, lo)
    v1_up, v2_up = variance_bound(e, test_set, xprime, up)
    return {"bias_sq": bias_sq, "variance": variance, "test_loss": expected,
            "r_sq": mean_sq_dist(test_set.inputs, np.zeros(test_set.inputs.shape[1])),
            "c_bar": lo.c_bar, "c_bar_zeta": lo.c_bar_zeta,
            "var_at_xprime": variance_at(e, xprime),
            "bound_v1_lower": v1_lo, "bound_v2_lower": v2_lo,
            "bound_v1_upper": v1_up, "bound_v2_upper": v2_up,
            "xprime_kind": xprime_kind}


def train_ensemble(cfg: ExperimentConfig, data, width: int) -> SeedEnsemble:
    """Train one width-``width`` net per config seed on a shared dataset."""
    members = []
    for seed in cfg.seeds:
        net = cell_net(cfg, data, seed, "width", width)
        # A cadence of max_epochs records only the final epoch.
        train_cell(cfg, net, data, seed, eval_every=max(cfg.max_epochs, 1))
        members.append(net)
    return SeedEnsemble(members, list(cfg.seeds))


def sweep_biasvar(cfg: ExperimentConfig, data, xprime_kind: str = "zero"):
    """Run the variance study over ``cfg.widths``; returns (rows, failures).

    A width whose training diverges is recorded in ``failures`` and the
    sweep moves on, so one bad configuration cannot sink a long run.
    """
    rows = []
    failures = []
    for width in cfg.widths:
        try:
            e = train_ensemble(cfg, data, width)
        except DivergenceError as err:
            failures.append({"width": int(width), "error": str(err), "epoch": err.epoch})
            continue
        row = {"width": int(width)}
        row.update(build_biasvar_report(e, data.test, xprime_kind, cfg.settings()))
        del row["var_at_xprime"]
        rows.append(row)
    return rows, failures


def write_biasvar_csv(rows, path) -> None:
    write_csv(rows, BIASVAR_CSV_COLUMNS, path)
