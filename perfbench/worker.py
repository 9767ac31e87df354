"""One benchmark process: set up, check against the reference, and time one workload.

``run.py`` starts this script in a fresh process with the BLAS thread
count and ``LIPTRACK_WORKERS`` fixed in its environment:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode measure|trace|trace-only --out DIR

It writes ``DIR/result.json`` and, when tracing, ``DIR/spans.jsonl``.
Modes: ``measure`` times untraced iterations; ``trace`` alternates traced
and untraced iterations after one warm-up, so the tracing overhead is
measured in one process; ``trace-only`` traces every iteration.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
REFERENCE_SEED = 0
# Set-up runs at least SETUP_REPEATS times and, when it is quick, until
# SETUP_SECONDS have passed, at most SETUP_MAX times: a set-up of a few
# milliseconds needs many samples for a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 0.5
SETUP_MAX = 20
# In trace mode, a warm-up and then at least two traced and two untraced
# iterations, so that the tracing overhead is not one pair's difference.
MIN_ITERATIONS = {"measure": 3, "trace": 5, "trace-only": 1}


def run_cli(argv) -> tuple[int, str]:
    """Call ``liptrack.cli.main`` in-process; returns (exit code, stdout)."""
    import liptrack.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = liptrack.cli.main(argv)
    if rc != 0:
        print(f"liptrack {' '.join(argv[:1])} exited {rc}: {err.getvalue().strip()}", file=sys.stderr)
    return rc, out.getvalue()


def reference_values(workload, workdir: Path, checks) -> dict | None:
    """Run the smoke size at the reference seed and return its checked values."""
    from workloads import SIZES

    state = workload.setup(REFERENCE_SEED, SIZES[workload.name]["smoke"], workdir, run_cli)
    outputs = [run_cli(argv) for argv in workload.calls(state)]
    it = workload.inspect(state, outputs, checks)
    return None if it is None else it.values


def run(workload_name: str, seed: int, seconds: float, mode: str, out, size: str = "full") -> dict:
    """Set up, check against the reference, and time one workload; returns
    the result.  ``size`` is ``full`` (what the benchmark times) or
    ``smoke`` (what the tests run)."""
    import liptrack.cli  # noqa: F401  (run.py times this import on its own)
    import tracing
    import workloads
    from env import environment

    workload = workloads.WORKLOADS[workload_name]
    sizes = workloads.SIZES[workload_name][size]
    work = Path(out) / "work"
    checks = workloads.Checks()
    tracer = None if mode == "measure" else tracing.Tracer()

    # Set-up: repeated for a median, except when traced (one traced set-up
    # gives the set-up phase's spans).
    setup_s, state = [], None
    for _ in range(SETUP_MAX if tracer is None else 1):
        if len(setup_s) >= SETUP_REPEATS and sum(setup_s) >= SETUP_SECONDS:
            break
        shutil.rmtree(work / "setup", ignore_errors=True)
        if tracer is not None:
            tracer.phase = "setup"
            tracer.install()
        t0 = time.perf_counter()
        state = workload.setup(seed, sizes, work / "setup", run_cli)
        setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
            tracer.phase = "run"

    # The reference check also warms every code path before timing starts.
    ref_values = reference_values(workload, work / "reference", checks)
    if ref_values is not None:
        reference = json.loads(REFERENCES.read_text())
        workloads.compare_reference(ref_values, reference.get(workload_name, {}), checks)

    iterations, first_digest = [], None
    loop_start = time.perf_counter()
    while (time.perf_counter() - loop_start < seconds
           or len(iterations) < MIN_ITERATIONS[mode]):
        # In trace mode the first iteration warms up and is not used; then
        # traced and untraced iterations alternate.
        warmup = mode == "trace" and not iterations
        traced = mode == "trace-only" or (mode == "trace" and len(iterations) % 2 == 1)
        first_span = 0
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
        wall, outputs = 0.0, []
        for argv in workload.calls(state):
            t0 = time.perf_counter()
            outputs.append(run_cli(argv))
            wall += time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        try:
            it = workload.inspect(state, outputs, checks)
        except (OSError, ValueError, KeyError, RuntimeError) as err:
            checks.expect("outputs_readable", False, repr(err))
            it = None
        if it is not None:
            if first_digest is None:
                first_digest = it.digest
            else:
                checks.expect("bytes_stable", it.digest == first_digest)
        iterations.append({
            "wall_s": wall, "traced": traced, "warmup": warmup,
            "epochs": it.epochs if it else 0, "jac_norms": it.jac_norms if it else 0,
            "root_s": tracing.root_seconds(tracer.spans[first_span:]) if traced else None})

    result = {
        "workload": workload_name, "seed": seed, "mode": mode,
        "env": environment(ROOT, seed), "sizes": sizes,
        "setup_s": setup_s,
        "iterations": iterations,
        "attempted": checks.attempted, "failed": checks.failed, "failures": checks.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        traced_iters = sum(1 for it in iterations if it["traced"])
        result["layers"] = tracing.reduce_spans([s for s in tracer.spans if s["phase"] == "run"],
                                                traced_iters)
        result["setup_layers"] = tracing.reduce_spans(
            [s for s in tracer.spans if s["phase"] == "setup"], 1)
        tracer.write_jsonl(Path(out) / "spans.jsonl")
    shutil.rmtree(work, ignore_errors=True)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=sorted(MIN_ITERATIONS), default="measure")
    p.add_argument("--out", required=True, help="directory for result.json and spans.jsonl")
    args = p.parse_args(argv)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, args.mode, args.out)
    (Path(args.out) / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
