import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
import workloads

BENCH = Path(run.__file__).resolve().parent


def smoke(name: str, out: Path, mode: str = "trace") -> dict:
    return worker.run(name, seed=3, seconds=0.0, mode=mode, out=out, size="smoke")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_size_passes_every_check(name, tmp_path):
    res = smoke(name, tmp_path)
    assert res["failed"] == 0, res["failures"]
    # cells or reports, output checks, the reference comparison
    assert res["attempted"] >= 10
    assert (tmp_path / "spans.jsonl").exists()
    assert res["layers"]["cli.main"]["calls"] == (2 if name == "bounds_probe" else 1)
    e2e = run.end_to_end(res, [0.1])
    assert set(e2e) == set(run.END_TO_END)
    assert all(value > 0 for value, _ in e2e.values())
    rates = run.throughput(name, res)
    assert set(rates) == {k for k, (_, scope) in run.THROUGHPUT.items() if name in scope}
    assert all(value > 0 for value, _ in rates.values())
    assert set(run.per_layer(res, res)) == set(run.per_layer_units())


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_checks_count_a_broken_record(tmp_path):
    wl = workloads.WORKLOADS["sweep_width"]
    state = wl.setup(5, workloads.SIZES["sweep_width"]["smoke"], tmp_path, worker.run_cli)
    outputs = [worker.run_cli(argv) for argv in wl.calls(state)]
    clean = workloads.Checks()
    assert wl.inspect(state, outputs, clean) is not None and clean.failed == 0
    path = next(tmp_path.glob("out/run-*/records.jsonl"))
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["c_upper"] = rec["c_lower"] / 2
    path.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    broken = workloads.Checks()
    wl.inspect(state, outputs, broken)
    assert broken.failed == 1 and broken.failures[0].startswith("ordering")


def test_reference_comparison_uses_its_tolerance():
    ref = {"a": 2.0, "b": -3.0}
    close = workloads.Checks()
    workloads.compare_reference({"a": 2.0 * (1 + 1e-8), "b": -3.0}, ref, close)
    assert close.failed == 0
    far = workloads.Checks()
    workloads.compare_reference({"a": 2.0 * (1 + 1e-5), "b": -3.0}, ref, far)
    assert far.failed == 1


def test_seeds_are_derived_by_name():
    assert workloads.derive_seed(7, "net") == workloads.derive_seed(7, "net")
    assert len({workloads.derive_seed(7, t) for t in ("net", "data", "noise", "probe")}) == 4
    assert workloads.derive_seed(7, "data") != workloads.derive_seed(8, "data")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "biasvar", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
