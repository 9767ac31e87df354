"""The four benchmark workloads and the checks on their outputs.

Every input comes from the workload seed: the dataset seed, the label-noise
seed, the net seeds and the probe seed are derived from it by name.  The
one exception is the CNN net seed (see ``CnnSweep``).  A
workload's ``setup`` makes what its CLI calls need, ``calls`` lists the
``liptrack`` argument vectors of one iteration, and ``inspect`` reads what
they wrote, counts the work done and checks the outputs.

Each workload has two sizes: ``full`` is what the benchmark times, and
``smoke`` is a seconds-scale version used by the tests and by the
reference check (``references.json`` holds its values at this commit).
"""

from __future__ import annotations

import base64
import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Relative tolerance of the reference check (final losses and bound
# estimates).  Loose enough for a changed summation order, tight enough to
# catch any change in what is computed.
REFERENCE_RTOL = 1e-6
# FF c_upper against the product of exact layer norms.
UPPER_RTOL = 1e-6
# bias_sq + variance = test_loss, to rounding.
IDENTITY_RTOL = 1e-12

SIZES = {
    "sweep_width": {
        "full": {"widths": [16, 64, 128, 1024], "epochs": 8},
        "smoke": {"widths": [8, 16], "epochs": 2, "n_train": 400, "n_test": 100},
    },
    "bounds_probe": {
        "full": {"width": 1024, "epochs": 10, "pairs": 300},
        "smoke": {"width": 8, "epochs": 1, "pairs": 2},
    },
    "cnn_sweep": {
        "full": {"widths": [2, 4], "epochs": 2, "n_train": 16, "n_test": 16, "batch": 8},
        "smoke": {"widths": [1], "epochs": 1, "n_train": 4, "n_test": 4, "batch": 4},
    },
    "biasvar": {
        "full": {"widths": [16, 64, 256], "seeds": 4, "epochs": 10},
        "smoke": {"widths": [4, 8], "seeds": 2, "epochs": 2, "n_train": 400, "n_test": 100,
                  "batch": 128},
    },
}

# The bounds CLI reads MNIST1D-format CSVs, whose loader requires these shapes.
MNIST1D_SHAPE = {"n_train": 4000, "n_test": 1000, "d": 40}


def derive_seed(seed: int, tag: str) -> int:
    """A 31-bit seed for one named input stream of a workload seed."""
    digest = hashlib.sha256(f"{int(seed)}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def experiment_config(profile: str | None, overrides: dict):
    """The config the CLI builds from ``--profile`` and ``--set`` flags."""
    from liptrack.harness import ExperimentConfig, apply_overrides, apply_profile

    d = ExperimentConfig().to_dict()
    if profile:
        apply_profile(d, profile)
    return ExperimentConfig.from_dict(apply_overrides(d, overrides))


def _sets(pairs: dict) -> list[str]:
    argv = []
    for key, value in pairs.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    return argv


class Checks:
    """Counts attempted and failed cells, reports and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def _all_finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _only_run_dir(out: Path) -> Path:
    dirs = sorted(out.glob("run-*"))
    if len(dirs) != 1:
        raise RuntimeError(f"expected one run directory under {out}, found {len(dirs)}")
    return dirs[0]


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        parsed = {}
        for key, value in row.items():
            try:
                parsed[key] = float(value)
            except ValueError:
                parsed[key] = value
        out.append(parsed)
    return out


@dataclass
class Iteration:
    """What one iteration produced: work counts, a digest of its byte-stable
    outputs, and the values the reference check compares."""

    epochs: int
    jac_norms: int
    digest: str
    values: dict


# ---------------------------------------------------------------------------
# Width sweeps (FF desk recipe, and the CNN family)


class _Sweep:
    name: str
    profile: str | None = None

    def overrides(self, seed: int, sizes: dict) -> dict:
        raise NotImplementedError

    def setup(self, seed: int, sizes: dict, workdir: Path, run_cli) -> dict:
        from liptrack.harness import build_data

        cfg = experiment_config(self.profile, self.overrides(seed, sizes))
        data = build_data(cfg)
        return {"seed": seed, "sizes": sizes, "out": workdir / "out",
                "n_train": int(data.train_x.shape[0]), "seeds": list(cfg.seeds),
                "eval_every": cfg.eval_every}

    def calls(self, state) -> list[list[str]]:
        profile = ["--profile", self.profile] if self.profile else []
        return [["sweep", "--axis", "width"] + profile + ["--out", str(state["out"])]
                + _sets(self.overrides(state["seed"], state["sizes"]))]

    def inspect(self, state, outputs, checks: Checks) -> Iteration | None:
        sizes = state["sizes"]
        rc, _ = outputs[0]
        if not checks.expect("sweep_exit", rc == 0, f"exit code {rc}"):
            return None
        run_dir = _only_run_dir(state["out"])
        records = [json.loads(line) for line in (run_dir / "records.jsonl").read_text().splitlines()]
        summary = _csv_rows(run_dir / "summary.csv")
        epochs, every = sizes["epochs"], state["eval_every"]
        per_cell = 1 + epochs // every + (1 if epochs % every else 0)
        finals = {}
        for rec in records:
            key = (rec["size"], rec["seed"])
            if key not in finals or rec["epoch"] > finals[key]["epoch"]:
                finals[key] = rec
        for width in sizes["widths"]:
            for s in state["seeds"]:
                rec = finals.get((width, s))
                checks.expect("cell", rec is not None and rec["epoch"] == epochs,
                              f"width {width} seed {s}")
        checks.expect("record_count", len(records) == per_cell * len(sizes["widths"]) * len(state["seeds"]),
                      f"{len(records)} records")
        checks.expect("summary_rows", len(summary) == len(sizes["widths"]), f"{len(summary)} rows")
        checks.expect("no_failures", not (run_dir / "failures.json").exists())
        numbers = [v for rec in records for k, v in rec.items() if k != "config_hash"]
        numbers += [v for row in summary for v in row.values()]
        checks.expect("finite", _all_finite(numbers))
        bad = [r for r in records if not r["c_avg_norm"] <= r["c_lower"] <= r["c_upper"]]
        checks.expect("ordering", not bad, f"{len(bad)} records out of order")
        values = {f"{w}/{s}/{m}": rec[m] for (w, s), rec in sorted(finals.items())
                  for m in ("train_loss", "test_loss", "c_lower", "c_avg_norm", "c_upper")}
        return Iteration(epochs=sum(r["epoch"] for r in finals.values()),
                         jac_norms=len(records) * state["n_train"],
                         digest=_digest([run_dir / "records.jsonl", run_dir / "summary.csv"]),
                         values=values)


class SweepWidth(_Sweep):
    name = "sweep_width"
    profile = "desk"

    def overrides(self, seed, sizes):
        out = {"widths": sizes["widths"], "seeds": [derive_seed(seed, "net")],
               "max_epochs": sizes["epochs"], "min_epochs": sizes["epochs"],
               "dataset.seed": derive_seed(seed, "data"),
               "dataset.noise_seed": derive_seed(seed, "noise")}
        for key in ("n_train", "n_test"):
            if key in sizes:
                out[f"dataset.{key}"] = sizes[key]
        return out


class CnnSweep(_Sweep):
    name = "cnn_sweep"
    # Power iteration runs at the config's default tolerance, as users run
    # it.  The number of steps it takes follows each net's spectral gap.
    # With the net seed derived from the workload seed, the step count per
    # conv layer ranged from about 40 to the 1000 cap across seeds, and the
    # run time by a factor of 1.8.  So the net seed is derived from this
    # fixed tag: the initial nets, and the power iteration on them, repeat
    # for every workload seed, while the data, and so the trained nets,
    # change.
    NET_SEED_TAG = "cnn-net"

    def overrides(self, seed, sizes):
        return {"family": "cnn", "widths": sizes["widths"],
                "seeds": [derive_seed(0, self.NET_SEED_TAG)],
                "max_epochs": sizes["epochs"], "min_epochs": sizes["epochs"],
                "batch_size": sizes["batch"], "dataset.d": 3072,
                "dataset.n_train": sizes["n_train"], "dataset.n_test": sizes["n_test"],
                "dataset.seed": derive_seed(seed, "data")}


# ---------------------------------------------------------------------------
# Bounds reports on a trained checkpoint


def write_mnist1d_dir(train, test, path: Path) -> None:
    path.mkdir(parents=True, exist_ok=True)
    header = ["label"] + [f"x{i}" for i in range(train.inputs.shape[1])]
    for name, split in (("train", train), ("test", test)):
        with open(path / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for label, row in zip(split.labels.tolist(), split.inputs.tolist()):
                writer.writerow([label] + [repr(v) for v in row])


def read_checkpoint_weights(path: Path) -> list[np.ndarray]:
    """Decode a checkpoint's weight arrays without going through liptrack."""
    obj = json.loads(Path(path).read_text())
    return [np.frombuffer(base64.b64decode(layer["data"]), dtype=layer["dtype"]).reshape(layer["shape"])
            for layer in obj["layers"]]


class BoundsProbe:
    name = "bounds_probe"

    def setup(self, seed: int, sizes: dict, workdir: Path, run_cli) -> dict:
        from liptrack.datasets import synthetic_fallback

        shape = MNIST1D_SHAPE
        train, test = synthetic_fallback(shape["n_train"], shape["n_test"], shape["d"], 10,
                                         derive_seed(seed, "data"))
        data_dir = workdir / "data"
        write_mnist1d_dir(train, test, data_dir)
        out = workdir / "ckpt"
        argv = ["train", "--profile", "desk", "--out", str(out)] + _sets({
            "width": sizes["width"], "seeds": [derive_seed(seed, "net")],
            "max_epochs": sizes["epochs"], "min_epochs": sizes["epochs"],
            "dataset.kind": "mnist1d", "dataset.path": str(data_dir),
            "dataset.noise_seed": derive_seed(seed, "noise")})
        rc, _ = run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"training the checkpoint failed with exit code {rc}")
        ckpt = _only_run_dir(out) / "checkpoint.json"
        return {"seed": seed, "sizes": sizes, "data": data_dir, "checkpoint": ckpt}

    def calls(self, state) -> list[list[str]]:
        base = ["bounds", "--checkpoint", str(state["checkpoint"]), "--data", str(state["data"]),
                "--probe", "--pairs-per-lambda", str(state["sizes"]["pairs"]),
                "--probe-seed", str(derive_seed(state["seed"], "probe"))]
        return [base, base + ["--softmax"]]

    def inspect(self, state, outputs, checks: Checks) -> Iteration | None:
        reports = []
        for (rc, stdout), kind in zip(outputs, ("plain", "softmax")):
            report = None
            if rc == 0:
                try:
                    report = json.loads(stdout)
                except json.JSONDecodeError:
                    pass
            if checks.expect("report", isinstance(report, dict), f"{kind}: exit {rc}"):
                reports.append(report)
        if len(reports) != 2:
            return None
        plain, soft = reports
        keys = ("c_avg_norm", "c_lower", "c_probe", "c_upper")
        checks.expect("report_keys", all(k in r for r in reports for k in keys + ("probe_fidelity",)))
        checks.expect("finite", _all_finite([r[k] for r in reports for k in keys]))
        for kind, r in (("plain", plain), ("softmax", soft)):
            checks.expect("ordering", r["c_avg_norm"] <= r["c_lower"] <= r["c_probe"] <= r["c_upper"],
                          f"{kind}: {[r[k] for k in keys]}")
        checks.expect("softmax_contracts", soft["c_lower"] <= plain["c_lower"]
                      and soft["c_upper"] == plain["c_upper"])
        exact = float(np.prod([np.linalg.norm(w, 2) for w in read_checkpoint_weights(state["checkpoint"])]))
        checks.expect("upper_is_layer_product", abs(plain["c_upper"] - exact) <= UPPER_RTOL * exact,
                      f"{plain['c_upper']!r} vs {exact!r}")
        from liptrack.bounds import PROBE_LAMBDAS

        n_train = MNIST1D_SHAPE["n_train"]
        probe = n_train + MNIST1D_SHAPE["n_test"] + 2 * len(PROBE_LAMBDAS) * state["sizes"]["pairs"]
        values = {f"{kind}/{k}": r[k] for kind, r in (("plain", plain), ("softmax", soft)) for k in keys}
        # plain: train set + probe set; softmax: train set twice (sup, then
        # mean) + probe set.
        return Iteration(epochs=0, jac_norms=3 * n_train + 2 * probe,
                         digest=hashlib.sha256("".join(out for _, out in outputs).encode()).hexdigest(),
                         values=values)


# ---------------------------------------------------------------------------
# Seed-ensemble bias-variance study


class BiasVar:
    name = "biasvar"

    def overrides(self, seed: int, sizes: dict) -> dict:
        out = {"loss": "mse", "widths": sizes["widths"],
               "seeds": [derive_seed(seed, f"net{i}") for i in range(sizes["seeds"])],
               "max_epochs": sizes["epochs"], "min_epochs": sizes["epochs"],
               "dataset.seed": derive_seed(seed, "data")}
        for key in ("n_train", "n_test"):
            if key in sizes:
                out[f"dataset.{key}"] = sizes[key]
        if "batch" in sizes:
            out["batch_size"] = sizes["batch"]
        return out

    def setup(self, seed: int, sizes: dict, workdir: Path, run_cli) -> dict:
        from liptrack.harness import build_data

        data = build_data(experiment_config(None, self.overrides(seed, sizes)))
        return {"seed": seed, "sizes": sizes, "out": workdir / "out",
                "n_test": int(data.test_x.shape[0])}

    def calls(self, state) -> list[list[str]]:
        return [["biasvar", "--out", str(state["out"])]
                + _sets(self.overrides(state["seed"], state["sizes"]))]

    def inspect(self, state, outputs, checks: Checks) -> Iteration | None:
        sizes = state["sizes"]
        rc, _ = outputs[0]
        if not checks.expect("biasvar_exit", rc == 0, f"exit code {rc}"):
            return None
        run_dir = _only_run_dir(state["out"])
        rows = _csv_rows(run_dir / "biasvar.csv")
        got = {int(r["width"]) for r in rows}
        for width in sizes["widths"]:
            checks.expect("cell", width in got, f"width {width}")
        checks.expect("row_count", len(rows) == len(sizes["widths"]), f"{len(rows)} rows")
        checks.expect("no_failures", not (run_dir / "failures.json").exists())
        checks.expect("finite", _all_finite([v for r in rows for k, v in r.items() if k != "xprime_kind"]))
        for r in rows:
            total = r["bias_sq"] + r["variance"]
            checks.expect("identity", abs(total - r["test_loss"]) <= IDENTITY_RTOL * abs(r["test_loss"]),
                          f"width {r['width']}: {total!r} vs {r['test_loss']!r}")
            checks.expect("variance_bounds", r["variance"] <= r["bound_v1_upper"] <= r["bound_v2_upper"],
                          f"width {r['width']}")
            checks.expect("mean_net_constant", r["c_bar"] <= r["c_bar_zeta"], f"width {r['width']}")
        values = {f"{int(r['width'])}/{k}": r[k] for r in rows
                  for k in ("bias_sq", "variance", "test_loss", "c_bar", "c_bar_zeta")}
        members = len(sizes["widths"]) * sizes["seeds"]
        return Iteration(epochs=members * sizes["epochs"],
                         jac_norms=len(sizes["widths"]) * (1 + sizes["seeds"]) * state["n_test"],
                         digest=_digest([run_dir / "biasvar.csv"]), values=values)


WORKLOADS = {
    "sweep_width": SweepWidth(),
    "bounds_probe": BoundsProbe(),
    "cnn_sweep": CnnSweep(),
    "biasvar": BiasVar(),
}


def compare_reference(values: dict, reference: dict, checks: Checks) -> None:
    """Check each reference value within ``REFERENCE_RTOL`` (relative)."""
    checks.expect("reference_keys", set(values) == set(reference),
                  f"{sorted(set(values) ^ set(reference))[:4]}")
    for key, want in sorted(reference.items()):
        got = values.get(key)
        ok = got is not None and abs(got - want) <= REFERENCE_RTOL * abs(want)
        checks.expect("reference", ok, f"{key}: {got!r} vs {want!r}")
