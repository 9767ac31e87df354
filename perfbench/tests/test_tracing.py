import liptrack.bounds as bounds
import liptrack.ensembles as ensembles
import liptrack.harness as harness
from liptrack.harness import ExperimentConfig, run_sweep
from liptrack.linalg import PowerIterSettings
from liptrack.models import init_cnn

from tracing import Tracer, reduce_spans, root_seconds, self_times


def span(i, parent, name, start, end, **counts):
    return {"id": i, "parent": parent, "name": name, "phase": "run",
            "start": start, "end": end, "counts": counts}


# main [0, 10] -> a [1, 4] -> c [2, 3]
#              -> b [5, 9] -> c [6, 8]
TREE = [span(0, None, "main", 0.0, 10.0), span(1, 0, "a", 1.0, 4.0, points=5),
        span(2, 1, "c", 2.0, 3.0), span(3, 0, "b", 5.0, 9.0), span(4, 3, "c", 6.0, 8.0, points=7)]


def test_self_time_subtracts_direct_children_only():
    assert self_times(TREE) == [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0 - 2.0, 2.0]
    assert sum(self_times(TREE)) == root_seconds(TREE) == 10.0


def test_reduce_averages_over_iterations():
    stats = reduce_spans(TREE, iterations=2)
    assert stats["c"]["calls"] == 1.0
    assert stats["c"]["self_s"] == 1.5
    assert stats["c"]["p50_ms"] == 1500.0
    assert stats["main"]["self_s"] == 1.5
    assert stats["a"]["points"] == 2.5
    assert stats["c"]["points"] == 3.5


def tiny_cfg(**kw) -> ExperimentConfig:
    d = ExperimentConfig().to_dict()
    d["dataset"].update({"n_train": 40, "n_test": 10, "d": 6, "num_classes": 3})
    d.update(widths=[4, 8], seeds=[0], max_epochs=2, eval_every=1, batch_size=20)
    d.update(kw)
    return ExperimentConfig.from_dict(d)


def test_patching_reaches_names_bound_in_other_modules():
    original = bounds.lower_bound
    tracer = Tracer()
    tracer.install()
    try:
        assert harness.lower_bound is not original
        assert ensembles.lower_bound is harness.lower_bound
        records, _, _ = run_sweep(tiny_cfg(), "width")
    finally:
        tracer.uninstall()
    assert harness.lower_bound is original and ensembles.lower_bound is original
    lower = [s for s in tracer.spans if s["name"] == "bounds.lower_bound"]
    assert len(lower) == len(records) == 2 * 3
    assert all(s["counts"]["points"] == 40 for s in lower)
    names = {s["name"] for s in tracer.spans}
    assert {"training.train", "training.param_grad", "models.FFReluNet.input_jacobians",
            "bounds.batch_spectral_norms", "bounds.upper_bound"} <= names


def test_operator_applies_are_counted_on_every_open_span():
    tracer = Tracer()
    tracer.install()
    try:
        bounds.upper_bound(init_cnn(1, 0), PowerIterSettings(max_iters=20, rel_tol=1e-6, seed=0))
    finally:
        tracer.uninstall()
    ops = [s for s in tracer.spans if s["name"] == "linalg.spectral_norm_operator"]
    upper = [s for s in tracer.spans if s["name"] == "bounds.upper_bound"]
    assert len(ops) == 4 and len(upper) == 1
    assert all(s["counts"]["applies"] > 0 for s in ops)
    assert upper[0]["counts"]["applies"] == sum(s["counts"]["applies"] for s in ops)
