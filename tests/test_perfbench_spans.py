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

import pytest

import liptrack.ensembles as ensembles
import liptrack.training as training
from liptrack.bounds import ProbeSet, build_report
from liptrack.ensembles import sweep_biasvar, train_ensemble
from liptrack.harness import ExperimentConfig, build_data, run_sweep
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


def test_every_biasvar_pass_is_traced_once_per_row(monkeypatch):
    # One span per row for each ensemble phase perfbench times, one
    # upper_bound per member, and one evaluation of each x′ term: a
    # producer that captures these functions, or repeats a pass, fails.
    monkeypatch.delenv("LIPTRACK_WORKERS", raising=False)
    d = ExperimentConfig().to_dict()
    d["dataset"].update({"n_train": 40, "n_test": 10, "d": 6, "num_classes": 3})
    d.update(widths=[4, 8], seeds=[0, 1], loss="mse", max_epochs=2, batch_size=20)
    cfg = ExperimentConfig.from_dict(d)
    data = build_data(cfg)
    calls = Counter()
    for name in ("variance_at", "mean_sq_dist"):
        def counted(*args, _fn=getattr(ensembles, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(ensembles, name, counted)

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        tracer.phase = "biasvar"
        rows, failures = sweep_biasvar(cfg, data, "test_point:3")
    finally:
        tracer.uninstall()
    calls.update(s["name"] for s in tracer.spans)
    assert failures == [] and len(rows) == 2
    for name in ("train_ensemble", "lower_estimates", "upper_estimates", "decompose"):
        assert calls[f"ensembles.{name}"] == len(rows), name
    assert calls["bounds.upper_bound"] == len(rows) * len(cfg.seeds)
    assert calls["variance_at"] == len(rows)
    # One for E||x − x′||² and one for r_sq.
    assert calls["mean_sq_dist"] == 2 * len(rows)


@pytest.mark.parametrize("min_epochs, grads_per_member", [(3, 0), (0, 2)])
def test_ensemble_members_make_only_the_full_set_passes_read(monkeypatch, min_epochs,
                                                             grads_per_member):
    # train_ensemble reads no record: a member takes the full-train gradient
    # only where the stop rule could still end the run early (epochs
    # min_epochs..max_epochs-1), and never the test loss.
    d = ExperimentConfig().to_dict()
    d["dataset"].update({"n_train": 40, "n_test": 10, "d": 6, "num_classes": 3})
    d.update(seeds=[0, 1], loss="mse", grad_norm_threshold=1e-12, min_epochs=min_epochs,
             max_epochs=3, batch_size=20)
    cfg = ExperimentConfig.from_dict(d)
    data = build_data(cfg)
    calls = Counter()
    real_grad, real_loss = training.param_grad, training.dataset_loss

    def counting_grad(*args):
        calls["param_grad"] += 1
        return real_grad(*args)

    def counting_loss(net, x, labels, kind):
        calls["train loss" if x is data.train_x else "test loss"] += 1
        return real_loss(net, x, labels, kind)

    monkeypatch.setattr(training, "param_grad", counting_grad)
    monkeypatch.setattr(training, "dataset_loss", counting_loss)
    e = train_ensemble(cfg, data, 4)
    assert len(e.members) == 2
    assert calls == Counter({"param_grad": grads_per_member * len(e.members)})
