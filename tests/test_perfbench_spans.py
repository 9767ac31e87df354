"""perfbench's tracer patches liptrack by name: every ``SPANS`` target must
still resolve, and every estimate call must go through a patched name, or
a benchmark run would lose that span.

``perfbench/tests`` runs separately (both test directories have a
``conftest.py``), so these checks load ``perfbench/tracing.py`` by file path.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from liptrack.bounds import ProbeSet, build_report
from liptrack.harness import ExperimentConfig, run_sweep
from liptrack.linalg import make_rng
from liptrack.models import init_ff

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_tracing().SPANS
    assert spans
    for name, (module, attr, _counts) in spans.items():
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # The tracer patches the class's own dict entry.
            assert meth in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, attr)), name


def test_every_bound_call_is_traced(monkeypatch):
    # One lower_bound and one upper_bound span per sweep record and per
    # report: no producer holds a function object the tracer cannot
    # replace, and no record or report makes an extra pass.
    monkeypatch.delenv("LIPTRACK_WORKERS", raising=False)
    d = ExperimentConfig().to_dict()
    d["dataset"].update({"n_train": 40, "n_test": 10, "d": 6, "num_classes": 3})
    d.update(widths=[4, 8], seeds=[0], max_epochs=2, eval_every=1, batch_size=20)
    cfg = ExperimentConfig.from_dict(d)
    net = init_ff(6, [5], 3, seed=0)
    rng = make_rng(0, 40)
    x = rng.standard_normal((12, 6))
    probe = ProbeSet(x, rng.standard_normal((4, 6)), pair_count=3, seed=0)

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        tracer.phase = "sweep"
        records, _, _ = run_sweep(cfg, "width")
        for softmax_composed in (False, True):
            tracer.phase = f"report softmax={softmax_composed}"
            build_report(net, x, {}, probe=probe, softmax_composed=softmax_composed)
    finally:
        tracer.uninstall()
    calls = Counter((s["phase"], s["name"]) for s in tracer.spans)
    assert len(records) == 2 * 3
    assert calls["sweep", "bounds.lower_bound"] == len(records)
    assert calls["sweep", "bounds.upper_bound"] == len(records)
    for softmax_composed in (False, True):
        phase = f"report softmax={softmax_composed}"
        assert calls[phase, "bounds.lower_bound"] == 1
        assert calls[phase, "bounds.upper_bound"] == 1
