"""In-memory spans around liptrack's public functions, and their reduction.

The package binds functions by name (``from .bounds import lower_bound``),
so a wrapper only sees a call when it replaces the name in every module
namespace that holds it.  ``Tracer.install`` does that for each entry of
``SPANS`` and ``Tracer.uninstall`` puts the originals back.

A span is ``(id, parent, name, phase, start, end, counts)``.  Spans stay in
memory until ``write_jsonl``; ``reduce_spans`` turns them into per-name
calls, self time (duration minus the time covered by direct children),
call-duration percentiles and summed counts.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _ff_jacobian_flops(net, x) -> int:
    """Floating-point operations of FFReluNet.input_jacobians, from shapes."""
    n = _rows(x)
    d = net.input_dim
    flops = 0
    for i, w in enumerate(net.weights):
        out_dim, in_dim = w.shape
        flops += 2 * n * out_dim * in_dim  # forward pre-activations
        if i == 0:
            flops += n * out_dim * d  # mask times the first weight matrix
        else:
            flops += 2 * n * out_dim * in_dim * d + n * out_dim * d
    return flops


def _dir_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(f.stat().st_size for f in path.iterdir() if f.is_file())
    return path.stat().st_size


# name -> (module, attribute, counts(args, kwargs, result) -> dict or None).
# "matrices" and "applies" are not read from arguments: they are added to
# every open span when batch_spectral_norms runs or an operator is applied.
SPANS = {
    "cli.main": ("liptrack.cli", "main", None),
    "harness.build_data": ("liptrack.harness", "build_data", None),
    "harness.write_run_dir": ("liptrack.harness", "write_run_dir",
                              lambda a, k, r: {"bytes": _dir_bytes(r)}),
    "datasets.synthetic_fallback": ("liptrack.datasets", "synthetic_fallback", None),
    "datasets.load_mnist1d": ("liptrack.datasets", "load_mnist1d",
                              lambda a, k, r: {"bytes": _dir_bytes(_arg(a, k, 0, "path"))}),
    "training.train": ("liptrack.training", "train", None),
    "training.loss_and_grad": ("liptrack.training", "loss_and_grad", None),
    "training.param_grad": ("liptrack.training", "param_grad", None),
    "training.dataset_loss": ("liptrack.training", "dataset_loss", None),
    "bounds.lower_bound": ("liptrack.bounds", "lower_bound",
                           lambda a, k, r: {"points": _rows(_arg(a, k, 1, "samples"))}),
    "bounds.probe_bound": ("liptrack.bounds", "probe_bound",
                           lambda a, k, r: {"points": len(_arg(a, k, 1, "probe"))}),
    "bounds.softmax_composed_lower_bound": ("liptrack.bounds", "softmax_composed_lower_bound",
                                            lambda a, k, r: {"points": _rows(_arg(a, k, 1, "samples"))}),
    "bounds.batch_spectral_norms": ("liptrack.bounds", "batch_spectral_norms", None),
    "bounds.upper_bound": ("liptrack.bounds", "upper_bound", None),
    "linalg.spectral_norm_operator": ("liptrack.linalg", "spectral_norm_operator", None),
    "linalg.spectral_norm_dense": ("liptrack.linalg", "spectral_norm_dense", None),
    "models.FFReluNet.input_jacobians": (
        "liptrack.models", "FFReluNet.input_jacobians",
        lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "x")),
                         "gflop_computed": _ff_jacobian_flops(a[0], _arg(a, k, 1, "x")) / 1e9}),
    "models.CnnNet.input_jacobians": ("liptrack.models", "CnnNet.input_jacobians",
                                      lambda a, k, r: {"rows": int(r.shape[0])}),
    "models.save_checkpoint": ("liptrack.models", "save_checkpoint",
                               lambda a, k, r: {"bytes": _dir_bytes(_arg(a, k, 1, "path"))}),
    "models.load_checkpoint": ("liptrack.models", "load_checkpoint",
                               lambda a, k, r: {"bytes": _dir_bytes(_arg(a, k, 0, "path"))}),
    "ensembles.train_ensemble": ("liptrack.ensembles", "train_ensemble", None),
    "ensembles.lower_estimates": ("liptrack.ensembles", "lower_estimates", None),
    "ensembles.decompose": ("liptrack.ensembles", "decompose", None),
    "ensembles.upper_estimates": ("liptrack.ensembles", "upper_estimates", None),
}


class Tracer:
    """Records spans for the functions in ``SPANS`` while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "run"
        self._stack: list[dict] = []
        self._patched: list[tuple] = []

    def _add_to_open(self, key: str, amount) -> None:
        for span in self._stack:
            span["counts"][key] = span["counts"].get(key, 0) + amount

    def wrap(self, name: str, fn, counts=None):
        tracer = self

        def traced(*args, **kwargs):
            span = {"id": len(tracer.spans), "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                    "name": name, "phase": tracer.phase, "start": 0.0, "end": 0.0, "counts": {}}
            tracer.spans.append(span)
            tracer._stack.append(span)
            if name == "bounds.batch_spectral_norms":
                tracer._add_to_open("matrices", int(np.shape(_arg(args, kwargs, 0, "mats"))[0]))
            elif name == "linalg.spectral_norm_operator":
                args = (tracer._counting(args[0]),) + args[1:]
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    span["counts"][key] = span["counts"].get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting(self, apply):
        def counted(v):
            self._add_to_open("applies", 1)
            return apply(v)
        return counted

    def install(self) -> None:
        """Replace every binding of each traced function in liptrack's modules."""
        if self._patched:
            return
        for name, (module, attr, counts) in SPANS.items():
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, orig, counts))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, counts)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "liptrack" or mod_name.startswith("liptrack.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    index = {s["id"]: i for i, s in enumerate(spans)}
    for s in spans:
        if s["parent"] is not None and s["parent"] in index:
            own[index[s["parent"]]] -= s["end"] - s["start"]
    return own


def reduce_spans(spans, iterations: int) -> dict:
    """Per-name stats for one phase, averaged per workload iteration.

    ``calls``, ``self_s`` and the counts are totals divided by
    ``iterations``; ``p50_ms``/``p90_ms`` are percentiles of single-call
    durations, children included.
    """
    selfs = self_times(spans)
    by_name: dict = {}
    for span, own in zip(spans, selfs):
        entry = by_name.setdefault(span["name"], {"calls": 0, "self_s": 0.0, "durations": [], "counts": {}})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["durations"].append(span["end"] - span["start"])
        for key, value in span["counts"].items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    out = {}
    for name, entry in by_name.items():
        stats = {"calls": entry["calls"] / iterations, "self_s": entry["self_s"] / iterations,
                 "p50_ms": float(np.percentile(entry["durations"], 50)) * 1e3,
                 "p90_ms": float(np.percentile(entry["durations"], 90)) * 1e3}
        for key, value in entry["counts"].items():
            stats[key] = value / iterations
        out[name] = stats
    return out


def root_seconds(spans) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
