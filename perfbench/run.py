"""Run one liptrack benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_width --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each run starts a fresh worker process (``worker.py``) with
``LIPTRACK_WORKERS=1`` and the BLAS thread count set to ``nproc``.  With
``--trace 0`` it reports the end-to-end metrics of untraced iterations;
with ``--trace 1`` it reports per-layer metrics from a traced run at
``nproc`` BLAS threads, plus a reference traced run at 1 BLAS thread.

Metric lines (name, value, unit, sample count) go to standard error; with
``--trace 0`` they include the throughput metrics that apply to the
workload.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Result files
with the recorded environment, and the span files of traced runs, are
written under ``perfbench/out/``.  The exit code is 0 when every check
passed, 1 when a check failed and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from env import nproc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sweep_width", "bounds_probe", "cnn_sweep", "biasvar")
# A run must end within 180 s; the workers share what is left of this.
RUN_BUDGET_S = 175.0
# Share of --seconds given to the traced run at nproc threads; the 1-thread
# reference run gets the rest.
TRACE_SHARE = 0.6
# Processes that only import the package, half before the worker and half
# after it, so they sample the machine's speed on both sides of the timed
# part; set-up time uses their median import time.  Each imports NumPy
# first and times it apart: NumPy's import starts the OpenBLAS threads,
# which took 0.06 s or 0.14 s by turns (in spells of a minute or more) on
# a shared 2-core machine, and no change to liptrack can move it.
IMPORT_PROBES = 20

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
# Throughput, in the result file and the metric lines but not in the JSON
# line: every end-to-end metric must be reported on every workload, and
# each has meaning only on some.  Every iteration does the same work, so
# each is a fixed multiple of 1 / wall_s.  name -> (unit, workloads)
THROUGHPUT = {
    "epochs_per_s": ("1/s", ("sweep_width", "cnn_sweep", "biasvar")),
    "jac_norms_per_s": ("1/s", ("bounds_probe",)),
}

# Spans reported per layer (calls, self_s, p50_ms), with their extra stats.
LAYER_SPANS = {
    "cli.main": [],
    "harness.build_data": [],
    "harness.write_run_dir": ["bytes"],
    "datasets.synthetic_fallback": [],
    "datasets.load_mnist1d": ["bytes"],
    "training.train": [],
    "training.loss_and_grad": [],
    "training.param_grad": ["p90_ms"],
    "training.dataset_loss": [],
    "bounds.lower_bound": ["points"],
    "bounds.probe_bound": ["points", "matrices"],
    "bounds.softmax_composed_lower_bound": ["points", "matrices"],
    "bounds.batch_spectral_norms": ["matrices"],
    "bounds.upper_bound": ["applies"],
    "linalg.spectral_norm_operator": ["applies"],
    "linalg.spectral_norm_dense": [],
    "models.FFReluNet.input_jacobians": ["rows", "gflop_computed"],
    "models.CnnNet.input_jacobians": ["rows"],
    "models.load_checkpoint": ["bytes"],
    "ensembles.train_ensemble": [],
    "ensembles.lower_estimates": [],
    "ensembles.decompose": [],
    "ensembles.upper_estimates": [],
}
# Self time of the set-up phase (checkpoint training and data generation).
SETUP_SPANS = ["cli.main", "datasets.synthetic_fallback", "harness.build_data", "training.train",
               "training.loss_and_grad", "training.param_grad", "training.dataset_loss",
               "models.save_checkpoint"]
# Self time at 1 BLAS thread, for the spans where threading matters.
ONE_THREAD_SPANS = ["cli.main", "training.train", "training.loss_and_grad", "training.param_grad",
                    "training.dataset_loss", "bounds.lower_bound", "bounds.batch_spectral_norms",
                    "bounds.upper_bound", "linalg.spectral_norm_operator",
                    "models.FFReluNet.input_jacobians", "models.CnnNet.input_jacobians",
                    "ensembles.lower_estimates"]
STAT_UNITS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "p90_ms": "ms", "bytes": "B",
              "points": "count", "matrices": "count", "rows": "count", "applies": "count",
              "gflop_computed": "GFLOP"}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, extras in LAYER_SPANS.items():
        for stat in ["calls", "self_s", "p50_ms", *extras]:
            units[f"{span}.{stat}"] = STAT_UNITS[stat]
    units["trace_overhead_s"] = "s"
    units["trace_coverage"] = "ratio"
    for span in SETUP_SPANS:
        units[f"setup.{span}.self_s"] = "s"
    units["setup.models.save_checkpoint.bytes"] = "B"
    units["t1.wall_s"] = "s"
    for span in ONE_THREAD_SPANS:
        units[f"t1.{span}.self_s"] = "s"
    units["t1.training.param_grad.p50_ms"] = "ms"
    return units


def _median(values) -> float:
    return float(statistics.median(values))


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["LIPTRACK_WORKERS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def import_seconds(threads: int, deadline: float, probes: int) -> list[list[float]]:
    """Time ``import numpy`` and then ``import liptrack.cli`` in fresh
    processes; returns one ``[numpy_s, liptrack_s]`` pair per process."""
    code = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
            "import liptrack.cli; print(t1 - t0, time.perf_counter() - t1)")
    times = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=worker_env(threads),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if done.returncode != 0:
            raise RuntimeError(f"importing liptrack failed: {done.stderr.strip()}")
        times.append([float(t) for t in done.stdout.split()])
    return times


def run_worker(workload: str, seed: int, seconds: float, mode: str, threads: int,
               out_dir: Path, deadline: float) -> dict:
    result_path = out_dir / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--out", str(out_dir)]
    done = subprocess.run(cmd, cwd=ROOT, env=worker_env(threads), stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker for {workload} ({mode}) exited {done.returncode}")
    return json.loads(result_path.read_text())


def end_to_end(res: dict, imports: list[float]) -> dict:
    """name -> (value, sample count) from a measure-mode worker result and
    the liptrack import times of the import-only processes."""
    walls = [it["wall_s"] for it in res["iterations"] if not it["traced"]]
    return {
        "setup_s": (_median(imports) + _median(res["setup_s"]), len(res["setup_s"])),
        "wall_s": (_median(walls), len(walls)),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
    }


def throughput(workload: str, res: dict) -> dict:
    """name -> (value, sample count) of the throughput metrics that apply to
    ``workload``, from a measure-mode worker result."""
    timed = [it for it in res["iterations"] if not it["traced"]]
    work = {"epochs_per_s": "epochs", "jac_norms_per_s": "jac_norms"}
    return {name: (_median([it[work[name]] / it["wall_s"] for it in timed]), len(timed))
            for name, (_, scope) in THROUGHPUT.items() if workload in scope}


def per_layer(default: dict, one_thread: dict) -> dict:
    """name -> (value, sample count) from the two traced worker results."""
    traced = [it for it in default["iterations"] if it["traced"]]
    plain = [it for it in default["iterations"] if not it["traced"] and not it["warmup"]]
    n = len(traced)
    out = {}
    for span, extras in LAYER_SPANS.items():
        stats = default["layers"].get(span, {})
        for stat in ["calls", "self_s", "p50_ms", *extras]:
            out[f"{span}.{stat}"] = (stats.get(stat, 0), n)
    out["trace_overhead_s"] = (_median([it["wall_s"] for it in traced])
                               - _median([it["wall_s"] for it in plain]), n)
    out["trace_coverage"] = (sum(it["root_s"] for it in traced) / sum(it["wall_s"] for it in traced), n)
    for span in SETUP_SPANS:
        out[f"setup.{span}.self_s"] = (default["setup_layers"].get(span, {}).get("self_s", 0), 1)
    out["setup.models.save_checkpoint.bytes"] = (
        default["setup_layers"].get("models.save_checkpoint", {}).get("bytes", 0), 1)
    t1 = [it for it in one_thread["iterations"] if it["traced"]]
    out["t1.wall_s"] = (_median([it["wall_s"] for it in t1]), len(t1))
    for span in ONE_THREAD_SPANS:
        out[f"t1.{span}.self_s"] = (one_thread["layers"].get(span, {}).get("self_s", 0), len(t1))
    out["t1.training.param_grad.p50_ms"] = (
        one_thread["layers"].get("training.param_grad", {}).get("p50_ms", 0), len(t1))
    return out


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the worker(s) for one workload; returns the result file's content."""
    deadline = time.monotonic() + RUN_BUDGET_S
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    out_dir = OUT / tag
    out_dir.mkdir(parents=True, exist_ok=True)
    threads = nproc()
    probes, rates = [], {}
    if not trace:
        probes = import_seconds(threads, deadline, IMPORT_PROBES // 2)
        res = run_worker(workload, seed, seconds, "measure", threads, out_dir, deadline)
        workers = [res]
        probes += import_seconds(threads, deadline, IMPORT_PROBES - IMPORT_PROBES // 2)
        metrics = end_to_end(res, [liptrack_s for _, liptrack_s in probes])
        units = END_TO_END
        rates = throughput(workload, res)
    else:
        res = run_worker(workload, seed, seconds * TRACE_SHARE, "trace", threads,
                         out_dir / "default", deadline)
        one = run_worker(workload, seed, seconds * (1 - TRACE_SHARE), "trace-only", 1,
                         out_dir / "one_thread", deadline)
        workers = [res, one]
        metrics = per_layer(res, one)
        units = per_layer_units()
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    result = {
        "workload": workload, "trace": int(trace), "run_seconds": seconds,
        "env": res["env"], "sizes": res["sizes"],
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures": [f for w in workers for f in w["failures"]],
        "metrics": {name: {"value": metrics[name][0], "unit": unit, "samples": metrics[name][1]}
                    for name, unit in units.items()},
        "throughput": {name: {"value": value, "unit": THROUGHPUT[name][0], "samples": n}
                       for name, (value, n) in rates.items()},
        "import_probes_s": {"numpy": [n for n, _ in probes], "liptrack": [t for _, t in probes]},
        "workers": [{k: w[k] for k in ("mode", "setup_s", "iterations", "peak_rss_mb")}
                    | {"blas_threads_in_use": w["env"]["blas_threads_in_use"]} for w in workers],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def _print_metrics(workload: str, result: dict) -> None:
    for name, m in (result["metrics"] | result["throughput"]).items():
        print(f"{workload:>13} {name:<44} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}",
              file=sys.stderr)
    print(f"{workload:>13} {'failed_frac':<44} {result['failed_frac']:>14.6g} ratio  "
          f"n={result['attempted']}", file=sys.stderr)
    for failure in result["failures"]:
        print(f"{workload:>13} check failed: {failure}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="liptrack benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "liptrack" / "__init__.py").is_file():
        print(f"no liptrack sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
            _print_metrics(name, results[name])
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {f"{w}.{k}": {"value": m["value"], "unit": m["unit"]}
                   for w, r in results.items() for k, m in r["metrics"].items()}
    else:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in results[args.workload]["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
