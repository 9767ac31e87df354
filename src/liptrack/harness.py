"""Experiment orchestration: configs, the cell driver, sweeps, and run dirs.

Every net of every experiment (a single run, a size x seed sweep over
width, depth, sample count or label noise, a bias-variance seed
ensemble) is built by ``cell_net`` and trained by ``train_cell``; every
run dir is created by ``write_run_dir``.  Everything is deterministic per
(config, seeds), so re-running a config reproduces the files byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, bounds
# lower_bound is called through bounds.estimates but stays bound here:
# perfbench's tracer patches it by name in every module that imports it.
from .bounds import lower_bound  # noqa: F401
from .datasets import (DataPair, load_cifar10, load_mnist1d, shuffle_labels, subsample,
                       synthetic_fallback)
from .linalg import PowerIterSettings
from .models import init_cnn, init_ff, weight_shapes
from .training import (DivergenceError, StopRule, STOP_THRESHOLDS, default_stop,
                       make_optimizer, train)

# Sweep axis -> the config list holding its sizes.
AXIS_SIZES = {"width": "widths", "depth": "depths", "samples": "samples_list",
              "noise": "noise_list"}
SWEEP_AXES = tuple(AXIS_SIZES)

ENV_WORKERS = "LIPTRACK_WORKERS"


def _default_dataset() -> dict:
    return {"kind": "synthetic", "path": None, "n_train": 4000, "n_test": 1000,
            "d": 40, "num_classes": 10, "seed": 0,
            "subsample": None, "subsample_seed": 0,
            "label_noise": None, "noise_seed": 0, "corrupt_test": False}


@dataclass
class ExperimentConfig:
    """Everything a sweep needs; round-trips losslessly through JSON."""

    family: str = "ff"
    widths: list = field(default_factory=lambda: [16, 32, 64, 80, 96, 128, 256, 512, 1024])
    depth: int = 1
    width: int = 64
    depths: list = field(default_factory=lambda: [1, 2, 3, 4, 5])
    samples_list: list = field(default_factory=lambda: [100, 500, 1000, 4000])
    noise_list: list = field(default_factory=lambda: [0.0, 0.1, 0.15, 0.2, 0.25, 0.5, 0.75, 1.0])
    dataset: dict = field(default_factory=_default_dataset)
    loss: str = "ce"
    optimizer: str = "sgd"
    base_lr: float = 0.005
    schedule: str = "constant"
    grad_norm_threshold: float | None = None
    min_epochs: int = 0
    max_epochs: int = 100
    batch_size: int = 512
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3])
    eval_every: int = 10
    power_iter: dict = field(default_factory=lambda: asdict(PowerIterSettings()))

    def __post_init__(self):
        self.settings()  # bad power_iter values fail here, before any run starts

    def stop_rule(self) -> StopRule:
        if self.grad_norm_threshold is None:
            return default_stop(self.loss, self.min_epochs, self.max_epochs)
        return StopRule(self.grad_norm_threshold, self.min_epochs, self.max_epochs)

    def settings(self) -> PowerIterSettings:
        return PowerIterSettings(**self.power_iter)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise KeyError(f"unknown config key: {sorted(unknown)[0]}")
        return cls(**d)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


def apply_overrides(d: dict, overrides: dict) -> dict:
    """Apply dotted-key overrides (e.g. ``dataset.label_noise=0.2``) to a config dict."""
    for key, value in overrides.items():
        parts = key.split(".")
        node = d
        for p in parts[:-1]:
            if p not in node or not isinstance(node[p], dict):
                raise KeyError(f"unknown config key: {key}")
            node = node[p]
        if parts[-1] not in node:
            raise KeyError(f"unknown config key: {key}")
        node[parts[-1]] = value
    return d


# Profiles: `desk` shows the full-scale trends in minutes, `paper` carries
# the overnight full-scale settings.  The desk recipe was validated over 4
# seeds: its 300-epoch runs stay inside the warmup ramp (peak coefficient
# about 0.48), which is what lets one learning rate train widths 16..1024
# without detaching the widest nets, and the 0.2 label noise keeps the
# teacher non-realizable so the mid widths overfit visibly.
PROFILES = {
    "desk": {
        "widths": [16, 32, 64, 80, 96, 128, 256, 512, 1024],
        "max_epochs": 300, "min_epochs": 0, "eval_every": 50,
        "schedule": "warmup20000step25", "base_lr": 1.0, "batch_size": 128,
        "dataset.label_noise": 0.2,
    },
    "paper": {
        "widths": [16, 32, 64, 80, 96, 128, 256, 512, 1024, 2048, 4096,
                   8192, 16384, 32768, 65536, 131072],
        "max_epochs": 300000, "min_epochs": 10000, "eval_every": 1000,
        "schedule": "warmup20000step25", "base_lr": 0.005, "batch_size": 512,
    },
}


def apply_profile(d: dict, profile: str) -> dict:
    if profile not in PROFILES:
        raise KeyError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}")
    return apply_overrides(d, PROFILES[profile])


# ---------------------------------------------------------------------------
# Parameter counts and the interpolation threshold


def ff_param_count(input_dim: int, widths, output_dim: int) -> int:
    arch = {"family": "ff", "input_dim": input_dim, "widths": widths, "output_dim": output_dim}
    return sum(math.prod(shape) for shape in weight_shapes(arch))


def cnn_param_count(width: int) -> int:
    return sum(math.prod(shape) for shape in weight_shapes({"family": "cnn", "width": width}))


def interpolation_threshold(n_samples: int, input_dim: int, output_dim: int,
                            loss: str, depth: int = 1, family: str = "ff") -> int:
    """Smallest width whose parameter count reaches the interpolation target.

    The target is n for cross-entropy and K·n for MSE (K outputs can
    each be interpolated).  Width-uniform depth-d stacks are solved by
    bisection on the monotone parameter count.
    """
    if loss not in STOP_THRESHOLDS:
        raise ValueError(f"unknown loss kind {loss!r}")
    target = int(n_samples) * (int(output_dim) if loss == "mse" else 1)

    if family == "cnn":
        count = cnn_param_count
    elif family == "ff":
        def count(w: int) -> int:
            return ff_param_count(input_dim, [w] * depth, output_dim)
    else:
        raise ValueError(f"unknown family {family!r}")

    lo, hi = 1, 1
    while count(hi) < target:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if count(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


# ---------------------------------------------------------------------------
# Data and cell construction


def build_data(cfg: ExperimentConfig) -> DataPair:
    ds = cfg.dataset
    kind = ds["kind"]
    if kind == "synthetic":
        train_d, test_d = synthetic_fallback(ds["n_train"], ds["n_test"], ds["d"],
                                             ds["num_classes"], ds["seed"])
    elif kind == "mnist1d":
        train_d, test_d = load_mnist1d(ds["path"])
    elif kind == "cifar10":
        train_d, test_d = load_cifar10(ds["path"])
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    if ds.get("subsample") is not None:  # a 0 is an error, not "all rows"
        train_d = subsample(train_d, ds["subsample"], ds.get("subsample_seed", 0))
    noise = ds.get("label_noise")
    if noise:
        train_d = shuffle_labels(train_d, noise, ds.get("noise_seed", 0))
        if ds.get("corrupt_test"):
            test_d = shuffle_labels(test_d, noise, ds.get("noise_seed", 0))
    return DataPair(train_d, test_d)


def _cell_config(cfg: ExperimentConfig, axis: str, size) -> ExperimentConfig:
    """Specialize the sweep config to one grid cell along the axis."""
    if axis in ("width", "depth"):
        return cfg
    ds = dict(cfg.dataset)
    if axis == "samples":
        ds["subsample"] = int(size)
    else:
        ds["label_noise"] = float(size)
    return replace(cfg, dataset=ds)


def cell_net(cfg: ExperimentConfig, data: DataPair, seed: int, axis: str = "width", size=None):
    """The initialized net of one cell: ``size`` sets the width or depth along
    ``axis``, otherwise the config's ``width`` x ``depth`` (CNNs take only a width)."""
    width = int(size) if axis == "width" and size is not None else cfg.width
    if cfg.family == "cnn":
        return init_cnn(width, seed)
    if cfg.family != "ff":
        raise ValueError(f"unknown family {cfg.family!r}")
    depth = int(size) if axis == "depth" else cfg.depth
    return init_ff(data.train_x.shape[1], [width] * depth, data.num_classes, seed)


def train_cell(cfg: ExperimentConfig, net, data: DataPair, seed: int, on_epoch=None,
               eval_every: int | None = 1):
    """Train ``net`` in place with the config's loss, optimizer, schedule and
    stop rule, recording every ``eval_every``-th epoch and the final one (None: none)."""
    opt = make_optimizer(cfg.optimizer, cfg.base_lr)
    return train(net, data, cfg.loss, opt, cfg.schedule, cfg.stop_rule(),
                 cfg.batch_size, seed, on_epoch=on_epoch, eval_every=eval_every)


def run_cell(cfg: ExperimentConfig, axis: str, size, seed: int, data: DataPair | None = None):
    """Train one grid cell and return its SweepRecord dicts (epoch 0 included).

    ``data`` is the cell's dataset when the caller holds it already (see
    ``_SweepCells``); by default it is built from the cell's config."""
    cell_cfg = _cell_config(cfg, axis, size)
    if data is None:
        data = build_data(cell_cfg)
    # A small or subsampled train set can fall below the configured batch
    # size; the cell then runs full-batch.
    cell_cfg = replace(cell_cfg, batch_size=min(cfg.batch_size, data.train_x.shape[0]))
    net = cell_net(cell_cfg, data, seed, axis, size)
    chash = cfg.config_hash()
    settings = cfg.settings()
    records = []

    def log(epoch, current, rec):
        records.append({
            "config_hash": chash, "size": size, "seed": seed, "epoch": epoch,
            "train_loss": rec.train_loss, "test_loss": rec.test_loss,
            **bounds.estimates(current, data.train_x, settings),
            "param_dist": rec.param_dist, "grad_norm": rec.grad_norm, "eta": rec.eta})

    train_cell(cell_cfg, net, data, seed, on_epoch=log, eval_every=cfg.eval_every)
    return records


class _SweepCells:
    """Trains the cells of one sweep, building each dataset once for the run
    of cells that share its spec.  Cells come in size order, so only the
    last dataset is kept: one build for the width and depth axes, one per
    size for samples and noise."""

    def __init__(self, cfg: ExperimentConfig, axis: str):
        self.cfg, self.axis = cfg, axis
        self.spec = self.data = None

    def run(self, task):
        size, seed = task
        cell_cfg = _cell_config(self.cfg, self.axis, size)
        if cell_cfg.dataset != self.spec:
            self.spec = self.data = None  # free the old set before building the next
            self.data = build_data(cell_cfg)
            self.spec = cell_cfg.dataset
        try:
            return run_cell(self.cfg, self.axis, size, seed, self.data), None
        except DivergenceError as err:
            return [], {"size": size, "seed": seed, "epoch": err.epoch, "error": str(err)}


# The sweep whose cells a pool process trains, set by the pool's initializer.
_pool_cells: _SweepCells | None = None


def _start_pool_process(cfg: ExperimentConfig, axis: str) -> None:
    global _pool_cells
    _pool_cells = _SweepCells(cfg, axis)


def _run_pool_cell(task):
    return _pool_cells.run(task)


def run_sweep(cfg: ExperimentConfig, axis: str, out_dir=None):
    """Run the full grid for one axis; returns (records, summary, failures).

    With ``out_dir``, the run dir is created first and gets the records,
    summary and failures at the end.  Cells run on a process pool when
    LIPTRACK_WORKERS asks for more than one worker; output order is fixed.
    """
    if axis not in AXIS_SIZES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    sizes = getattr(cfg, AXIS_SIZES[axis])
    meta = {"subcommand": "sweep", "axis": axis}
    run_dir = None if out_dir is None else write_run_dir(cfg, out_dir, meta)
    tasks = [(size, seed) for size in sizes for seed in cfg.seeds]
    workers = int(os.environ.get(ENV_WORKERS, "1"))
    if workers > 1:
        # Imported here: the pool machinery (multiprocessing and what it
        # loads) is a quarter of `import liptrack.cli`, and only pools use it.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_start_pool_process,
                                 initargs=(cfg, axis)) as pool:
            results = list(pool.map(_run_pool_cell, tasks))
    else:
        cells = _SweepCells(cfg, axis)
        results = [cells.run(task) for task in tasks]
    records = []
    failures = []
    for recs, failure in results:
        records.extend(recs)
        if failure is not None:
            failures.append(failure)
    summary = summarize(records)
    if run_dir is not None:
        write_records_jsonl(records, run_dir / "records.jsonl")
        write_summary_csv(summary, run_dir / "summary.csv")
        write_failures(failures, run_dir)
    return records, summary, failures


# ---------------------------------------------------------------------------
# Aggregation and output files


def final_records(records) -> dict:
    """Last logged record per (size, seed) cell."""
    finals = {}
    for rec in records:
        key = (rec["size"], rec["seed"])
        if key not in finals or rec["epoch"] > finals[key]["epoch"]:
            finals[key] = rec
    return finals


def summary_metrics() -> tuple:
    """The record keys ``summary.csv`` aggregates, estimates in ``ESTIMATES`` order."""
    names = [name for sides, _ in bounds.ESTIMATES for name in sides]
    return ("train_loss", "test_loss", *names, "param_dist", "grad_norm")


def summarize(records) -> list[dict]:
    """Seed-averaged summary: mean/min/max of each final-epoch metric per size."""
    metrics = summary_metrics()
    finals = final_records(records)
    by_size: dict = {}
    for (size, _seed), rec in sorted(finals.items(), key=lambda kv: (float(kv[0][0]), kv[0][1])):
        by_size.setdefault(size, []).append(rec)
    rows = []
    for size in sorted(by_size, key=lambda s: float(s)):
        cell = by_size[size]
        row = {"size": size, "seeds": len(cell)}
        for metric in metrics:
            values = [r[metric] for r in cell]
            row[f"{metric}_mean"] = float(np.mean(values))
            row[f"{metric}_min"] = float(np.min(values))
            row[f"{metric}_max"] = float(np.max(values))
        rows.append(row)
    return rows


def summary_columns() -> list[str]:
    cols = ["size", "seeds"]
    for metric in summary_metrics():
        cols += [f"{metric}_mean", f"{metric}_min", f"{metric}_max"]
    return cols


def write_records_jsonl(records, path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read_records_jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def write_csv(rows, cols, path) -> None:
    """A CSV with header ``cols`` and one line per row, holding the row's ``cols``."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        writer.writerows({k: row[k] for k in cols} for row in rows)


def write_summary_csv(rows, path) -> None:
    write_csv(rows, summary_columns(), path)


def write_run_dir(cfg: ExperimentConfig, out_dir, meta: dict) -> Path:
    """Create ``out_dir/run-<config-hash>/`` with ``config.json`` (``meta`` and
    the config) and ``meta.json`` (``meta`` and the version); returns its path."""
    run_dir = Path(out_dir) / f"run-{cfg.config_hash()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(
        json.dumps({**meta, "config": cfg.to_dict()}, indent=2, sort_keys=True) + "\n")
    (run_dir / "meta.json").write_text(json.dumps({"version": __version__, **meta}) + "\n")
    return run_dir


def write_failures(failures, run_dir) -> None:
    """Write ``failures.json``, or remove one left by an earlier run when there are none."""
    path = Path(run_dir) / "failures.json"
    if failures:
        path.write_text(json.dumps(failures, indent=2) + "\n")
    else:
        path.unlink(missing_ok=True)


# Plot kind -> its CSV columns; bounds-vs-epoch averages each "<metric>_mean"
# over the records of one epoch, the others copy summary or biasvar rows.
PLOT_COLUMNS = {
    "bounds-vs-width": ["size", "test_loss_mean", "train_loss_mean", "c_lower_mean",
                        "c_lower_min", "c_lower_max", "c_avg_norm_mean", "c_upper_mean"],
    "bounds-vs-epoch": ["epoch", "train_loss_mean", "test_loss_mean", "c_lower_mean",
                        "c_avg_norm_mean", "c_upper_mean", "param_dist_mean"],
    "variance-vs-width": ["width", "bias_sq", "variance", "test_loss", "bound_v1_lower",
                          "bound_v2_lower", "bound_v1_upper", "bound_v2_upper"],
    "param-dist-vs-width": ["size", "param_dist_mean", "param_dist_min", "param_dist_max"],
}
PLOT_KINDS = tuple(PLOT_COLUMNS)


def emit_plot_data(rows, plot_kind: str, path, size=None) -> None:
    """Write a log-scale-ready CSV for one figure family.

    ``rows`` is the summary table (or raw records for the vs-epoch kind,
    filtered to one ``size``); values are written untransformed.
    """
    if plot_kind not in PLOT_COLUMNS:
        raise ValueError(f"unknown plot kind {plot_kind!r}; expected one of {PLOT_KINDS}")
    cols = PLOT_COLUMNS[plot_kind]
    if plot_kind == "bounds-vs-epoch":
        by_epoch: dict = {}
        for rec in rows:
            if size is None or rec["size"] == size:
                by_epoch.setdefault(rec["epoch"], []).append(rec)
        rows = []
        for epoch, cell in sorted(by_epoch.items()):
            row = {"epoch": epoch}
            for col in cols[1:]:
                row[col] = float(np.mean([r[col.removesuffix("_mean")] for r in cell]))
            rows.append(row)
    out = [{k: row[k] for k in cols} for row in rows]
    if not out:
        raise ValueError(f"no rows to plot for {plot_kind!r}")
    write_csv(out, cols, path)
