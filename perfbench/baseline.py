"""Collect finished runs into a committed baseline file.

    python3 perfbench/baseline.py --label baseline --seeds 11-20 --trace-seed 11

Reads ``perfbench/out/<workload>-seed<N>-trace0.json`` for every seed, and
``-trace1.json`` for the trace seed, and writes
``perfbench/baselines/<label>.json``: per workload and end-to-end metric the
median, the quartiles, the spread ((q3 - q1) / median, the quantity the
bounds in BENCHMARK.json are compared with) and every value; the same for
the workload's throughput, which has no bound; the per-layer metrics of the
traced run; and the recorded environment.  It prints each spread next to
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", required=True, type=seed_range, help="e.g. 1-10")
    p.add_argument("--trace-seed", type=int, default=None)
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"label": args.label, "run_seconds": spec["run_seconds"], "seeds": args.seeds,
           "workloads": {}}
    worst = 0.0
    for wl in (w["name"] for w in spec["workloads"]):
        runs = [json.loads((HERE / "out" / f"{wl}-seed{s}-trace0.json").read_text()) for s in args.seeds]
        entry = {"env": runs[0]["env"], "sizes": runs[0]["sizes"],
                 "failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {}}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            worst = max(worst, stats["spread"] / bound)
            print(f"{wl:>13} {name:<16} median {stats['median']:12.6g} {stats['unit']:<4} "
                  f"spread {stats['spread']:.4f} (bound {bound})", file=sys.stderr)
        entry["throughput"] = {
            name: summarize([r["throughput"][name]["value"] for r in runs]) | {"unit": m["unit"]}
            for name, m in runs[0]["throughput"].items()}
        if args.trace_seed is not None:
            traced = json.loads((HERE / "out" / f"{wl}-seed{args.trace_seed}-trace1.json").read_text())
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
            entry["per_layer_env"] = traced["env"]
        out["workloads"][wl] = entry
    path = HERE / "baselines" / f"{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}; largest spread is {worst:.2f} of its bound", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
