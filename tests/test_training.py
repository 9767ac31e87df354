import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liptrack import linalg, training
from liptrack.bounds import _softmax_cotangents
from liptrack.datasets import DataPair, synthetic_fallback
from liptrack.linalg import make_rng, vector_norm
from liptrack.models import FFReluNet, init_cnn, init_ff
from liptrack.training import (
    Adam,
    DivergenceError,
    EpochRecord,
    LrSchedule,
    Sgd,
    StopRule,
    TrainTrace,
    dataset_loss,
    default_stop,
    loss_and_grad,
    make_optimizer,
    one_hot,
    param_grad,
    train,
    updates_per_epoch,
)
from tests.conftest import active_input, tiny_pair
from tests.oracles import cnn_backward, cnn_forward, ff_backward, ff_forward, read_trace_jsonl


def identity_net(k: int) -> FFReluNet:
    """Single-layer net with identity weights: forward(x) == x for x >= 0."""
    return FFReluNet(k, [], k, [np.eye(k)])


# ---------------------------------------------------------------------------
# Losses


def test_one_hot_values_and_label_validation():
    got = one_hot(np.array([2, 0]), 3)
    assert np.array_equal(got, [[0, 0, 1], [1, 0, 0]])
    with pytest.raises(ValueError, match="integers"):
        one_hot(np.array([0.0, 1.0]), 3)
    with pytest.raises(ValueError, match="out of range"):
        one_hot(np.array([0, 3]), 3)
    with pytest.raises(ValueError, match="out of range"):
        one_hot(np.array([-1]), 3)


def test_mse_loss_hand_oracle():
    net = identity_net(3)
    x = np.array([[0.2, 0.5, 0.1], [1.0, 0.0, 0.25]])
    labels = np.array([1, 0])
    want = (np.sum((x[0] - [0, 1, 0]) ** 2) + np.sum((x[1] - [1, 0, 0]) ** 2)) / 2
    assert dataset_loss(net, x, labels, "mse") == pytest.approx(want, rel=1e-14)


def test_ce_loss_hand_oracle():
    net = identity_net(3)
    x = np.array([[0.2, 0.5, 0.1], [1.0, 0.0, 0.25]])
    labels = np.array([1, 0])
    per = [np.log(np.sum(np.exp(row))) - row[lab] for row, lab in zip(x, labels)]
    assert dataset_loss(net, x, labels, "ce") == pytest.approx(np.mean(per), rel=1e-14)


def test_loss_rejects_unknown_kind():
    net = identity_net(2)
    with pytest.raises(ValueError, match="loss kind"):
        dataset_loss(net, np.ones((1, 2)), np.array([0]), "hinge")


@pytest.mark.parametrize("kind", ["mse", "ce"])
def test_loss_and_grad_matches_finite_differences(kind):
    net = init_ff(5, [7, 6], 3, seed=17)
    rng = make_rng(17, 20)
    x = np.stack([active_input(net, rng, margin=1e-3) for _ in range(4)])
    labels = np.array([0, 2, 1, 2])
    value, grads = loss_and_grad(net, x, labels, kind)
    assert value == pytest.approx(dataset_loss(net, x, labels, kind), rel=1e-13)
    h = 1e-6
    for li in range(len(net.weights)):
        for idx in [(0, 0), (1, 2)]:
            probe = net.copy()
            probe.weights[li][idx] += h
            up = dataset_loss(probe, x, labels, kind)
            probe.weights[li][idx] -= 2 * h
            down = dataset_loss(probe, x, labels, kind)
            fd = (up - down) / (2 * h)
            np.testing.assert_allclose(fd, grads[li][idx], rtol=1e-5, atol=1e-8)


def test_param_grad_chunking_is_exact(monkeypatch):
    net = init_ff(6, [8], 3, seed=23)
    rng = make_rng(23, 21)
    x = rng.standard_normal((37, 6))
    labels = rng.integers(0, 3, size=37)
    monkeypatch.setattr(linalg, "ROW_CHUNK", 64)
    whole_loss, whole = param_grad(net, x, labels, "ce")
    monkeypatch.setattr(linalg, "ROW_CHUNK", 5)
    split_loss, split = param_grad(net, x, labels, "ce")
    assert whole_loss == pytest.approx(split_loss, rel=1e-13)
    np.testing.assert_allclose(split, whole, rtol=1e-12, atol=1e-15)
    mean_loss, grads = loss_and_grad(net, x, labels, "ce")
    flat = np.concatenate([g.ravel() for g in grads])
    assert whole_loss == pytest.approx(mean_loss, rel=1e-13)
    np.testing.assert_allclose(whole, flat, rtol=1e-12, atol=1e-15)


def test_dataset_loss_chunk_invariance(monkeypatch):
    net = init_ff(6, [8], 3, seed=29)
    rng = make_rng(29, 22)
    x = rng.standard_normal((23, 6))
    labels = rng.integers(0, 3, size=23)
    monkeypatch.setattr(linalg, "ROW_CHUNK", 23)
    a = dataset_loss(net, x, labels, "mse")
    monkeypatch.setattr(linalg, "ROW_CHUNK", 4)
    b = dataset_loss(net, x, labels, "mse")
    assert a == pytest.approx(b, rel=1e-13)


def _ff_kink_batches():
    """A depth-3 net and two batches: one whose row 0 puts a hidden unit
    exactly at 0, and the same batch with a NaN input row appended."""
    net = init_ff(6, [8, 7, 5], 4, seed=31)
    x = make_rng(31, 1).standard_normal((5, 6))
    x[0, :2] = 0.5
    net.weights[0][0] = [1.0, -1.0, 0.0, 0.0, 0.0, 0.0]
    nan_row = x[1:2].copy()
    nan_row[0, 3] = np.nan
    return net, [x, np.concatenate([x, nan_row])]


@pytest.mark.parametrize("kind", ["ce", "mse"])
def test_ff_passes_match_the_out_of_place_oracle_bit_for_bit(kind):
    net, batches = _ff_kink_batches()
    for x in batches:
        n = x.shape[0]
        labels = np.arange(n) % 4
        acts, pres = ff_forward(net.weights, x)
        assert pres[0][0, 0] == 0.0
        value, dout = training._loss_sum_and_dout(acts[-1], training._targets(labels, 4, kind), kind)
        want, _ = ff_backward(net.weights, acts, pres, dout / n)
        got_value, got = loss_and_grad(net, x, labels, kind)
        assert np.array_equal(got_value, value / n, equal_nan=True)
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)
        # One row_chunks slice: param_grad sums one chunk's gradient.
        want, _ = ff_backward(net.weights, acts, pres, dout)
        got_value, got = param_grad(net, x, labels, kind)
        assert np.array_equal(got_value, value / n, equal_nan=True)
        assert np.array_equal(got, np.concatenate([w.ravel() for w in want]) / n, equal_nan=True)
        assert np.array_equal(dataset_loss(net, x, labels, kind), value / n, equal_nan=True)
        assert np.array_equal(net.forward(x), acts[-1], equal_nan=True)
        assert np.array_equal(net.forward(x[0]), ff_forward(net.weights, x[:1])[0][-1][0])
        for cotangents, seeds in ((None, np.broadcast_to(np.eye(4), (n, 4, 4))),
                                  (_softmax_cotangents, _softmax_cotangents(acts[-1]))):
            _, want = ff_backward(net.weights, acts, pres, seeds)
            assert np.array_equal(net.input_jacobians(x, cotangents), want, equal_nan=True)


@pytest.mark.parametrize("kind", ["ce", "mse"])
def test_cnn_passes_match_the_out_of_place_oracle_bit_for_bit(kind):
    # A width-2 net on two random images and an all-zero one (every unit
    # exactly at 0), then the same batch plus an image with a NaN pixel: the
    # in-place ReLUs and masks must give the bits of the pre-activation masks.
    net = init_cnn(2, seed=33)
    weights = net.weight_arrays()
    batch = make_rng(33, 1).standard_normal((4, 3072))
    batch[2] = 0.0
    batch[3, 1000] = np.nan
    for x in (batch[:3], batch):
        n = x.shape[0]
        labels = np.arange(n) % 10
        blocks, feat, out = cnn_forward(weights, x)
        assert np.isnan(out[3:]).all() and not np.isnan(out[:3]).any()
        value, dout = training._loss_sum_and_dout(out, training._targets(labels, 10, kind), kind)
        want, _ = cnn_backward(weights, blocks, feat, dout / n)
        got_value, got = loss_and_grad(net, x, labels, kind)
        assert np.array_equal(got_value, value / n, equal_nan=True)
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)
        want, _ = cnn_backward(weights, blocks, feat, dout)
        got_value, got = param_grad(net, x, labels, kind)
        assert np.array_equal(got_value, value / n, equal_nan=True)
        assert np.array_equal(got, np.concatenate([w.ravel() for w in want]) / n, equal_nan=True)
        assert np.array_equal(dataset_loss(net, x, labels, kind), value / n, equal_nan=True)
        assert np.array_equal(net.forward(x), out, equal_nan=True)
        for cotangents, seeds in ((None, np.broadcast_to(np.eye(10), (n, 10, 10))),
                                  (_softmax_cotangents, _softmax_cotangents(out))):
            want = np.stack([cnn_backward(weights, blocks, feat, seeds[:, k])[1]
                             for k in range(10)], axis=1)
            assert np.array_equal(net.input_jacobians(x, cotangents), want, equal_nan=True)


# ---------------------------------------------------------------------------
# Optimizers


def test_sgd_step_is_exact():
    opt = Sgd(0.1)
    a = np.array([1.0, -2.0, 0.5])
    g = np.array([0.5, 0.25, -1.0])
    want = a - (0.5 * 0.1) * g
    opt.step([a], [g], coeff=0.5)
    assert np.array_equal(a, want)


def test_adam_first_step_closed_form():
    # After one step m/c1 == g and sqrt(v/c2) == |g|, so the update is
    # lr * g / (|g| + eps) regardless of the gradient's scale.
    opt = Adam(0.01)
    a = np.zeros(4)
    g = np.array([3.0, -0.004, 1e6, -2e-7])
    opt.step([a], [g], coeff=1.0)
    want = -0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(a, want, rtol=1e-9, atol=1e-18)
    assert np.all(np.abs(a) <= 0.01 + 1e-12)


def test_adam_state_persists_across_steps():
    opt = Adam(0.1)
    a = np.zeros(2)
    for _ in range(3):
        opt.step([a], [np.ones(2)], coeff=1.0)
    assert opt.t == 3
    # Constant gradient keeps m/c1 == g and v/c2 == g^2, so each step
    # moves by almost exactly lr.
    np.testing.assert_allclose(a, -0.3 * np.ones(2) / (1 + 1e-8), rtol=1e-12)


def test_make_optimizer_and_validation():
    assert isinstance(make_optimizer("sgd", 0.1), Sgd)
    assert isinstance(make_optimizer("adam", 0.1), Adam)
    with pytest.raises(ValueError, match="optimizer"):
        make_optimizer("lbfgs", 0.1)
    with pytest.raises(ValueError, match="base_lr"):
        Sgd(-1.0)
    with pytest.raises(ValueError, match="base_lr"):
        Adam(-0.5)


# ---------------------------------------------------------------------------
# Schedules


def test_updates_per_epoch_rounds_up():
    assert updates_per_epoch(10, 3) == 4
    assert updates_per_epoch(9, 3) == 3
    assert updates_per_epoch(1, 512) == 1
    assert updates_per_epoch(4000, 128) == 32


def test_warmup_schedule_exact_values():
    s = LrSchedule("warmup20000step25", upe=10)
    assert s.coeff(0) == 1 / 20000
    assert s.coeff(1) == 1 / 20000
    assert s.coeff(10000) == 0.5
    assert s.coeff(19999) == 19999 / 20000
    assert s.coeff(20000) == 1.0
    # Drops of 0.75 at 2500-epoch marks past the ramp; plateau at 0.75^3.
    assert s.coeff(20001) == 1.0
    assert s.coeff(20000 + 2500 * 10 - 1) == 1.0
    assert s.coeff(20000 + 2500 * 10) == 0.75
    assert s.coeff(20000 + 5000 * 10) == 0.5625
    assert s.coeff(20000 + 7500 * 10) == 0.421875
    assert s.coeff(20000 + 100000 * 10) == 0.421875


def test_cont100_schedule_exact_values():
    s = LrSchedule("cont100", upe=5)
    assert s.coeff(0) == 1.0
    assert s.coeff(5 * 100 - 1) == 1.0
    assert s.coeff(5 * 100) == 0.95
    assert s.coeff(5 * 200) == 0.95 ** 2
    assert s.coeff(5 * 550) == 0.95 ** 5


def test_constant_schedule():
    s = LrSchedule("constant", upe=3)
    assert s.coeff(0) == 1.0
    assert s.coeff(10 ** 9) == 1.0


def test_schedule_validation():
    with pytest.raises(ValueError, match="schedule"):
        LrSchedule("linear", upe=1)
    with pytest.raises(ValueError, match="updates per epoch"):
        LrSchedule("constant", upe=0)
    with pytest.raises(ValueError, match="update index"):
        LrSchedule("constant", upe=1).coeff(-1)


@given(st.sampled_from(["warmup20000step25", "cont100", "constant"]),
       st.integers(min_value=1, max_value=64),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=80, deadline=None)
def test_schedule_coefficients_stay_in_unit_interval(variant, upe, u):
    # u capped at 1e6: past ~1.4M epochs the cont100 curve underflows to
    # exactly 0.0 in float64, far beyond any configured run length.
    c = LrSchedule(variant, upe).coeff(u)
    assert 0 < c <= 1.0


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=19999))
@settings(max_examples=60, deadline=None)
def test_warmup_ramp_is_nondecreasing(upe, u):
    s = LrSchedule("warmup20000step25", upe)
    assert s.coeff(u) <= s.coeff(u + 1)


# ---------------------------------------------------------------------------
# Stop rule


def test_stop_rule_validation():
    with pytest.raises(ValueError, match="threshold"):
        StopRule(0.0, 0, 10)
    with pytest.raises(ValueError, match="threshold"):
        StopRule(float("nan"), 0, 10)
    with pytest.raises(ValueError, match="min_epochs"):
        StopRule(0.01, 5, 4)
    with pytest.raises(ValueError, match="min_epochs"):
        StopRule(0.01, -1, 4)


def test_stop_rule_semantics():
    rule = StopRule(0.01, min_epochs=3, max_epochs=10)
    assert not rule.should_stop(2, 1e-9)
    assert rule.should_stop(3, 0.01)
    assert not rule.should_stop(3, 0.0100001)
    assert [rule.reads_gradient(e) for e in (2, 3, 10)] == [False, True, True]
    off = StopRule(float("inf"), 0, 10)
    assert not off.should_stop(10, 0.0)
    assert not off.reads_gradient(10)


def test_default_stop_thresholds():
    assert default_stop("ce", 0, 5).grad_norm_threshold == 0.01
    assert default_stop("mse", 0, 5).grad_norm_threshold == 0.001
    with pytest.raises(ValueError, match="loss kind"):
        default_stop("hinge", 0, 5)


# ---------------------------------------------------------------------------
# Epoch loop


def test_train_is_deterministic_per_seed():
    data = tiny_pair()
    net_a = init_ff(12, [16], 4, seed=1)
    net_b = net_a.copy()
    trace_a = train(net_a, data, "ce", Sgd(0.05), "constant",
                    StopRule(float("inf"), 0, 3), batch_size=32, seed=7)
    trace_b = train(net_b, data, "ce", Sgd(0.05), "constant",
                    StopRule(float("inf"), 0, 3), batch_size=32, seed=7)
    assert np.array_equal(net_a.param_vector(), net_b.param_vector())
    for ra, rb in zip(trace_a.records, trace_b.records):
        da, db = ra.to_dict(), rb.to_dict()
        da.pop("wall_ms"), db.pop("wall_ms")
        assert da == db
    net_c = net_a.copy()
    train(net_c, data, "ce", Sgd(0.05), "constant",
          StopRule(float("inf"), 0, 3), batch_size=32, seed=8)
    assert not np.array_equal(net_a.param_vector(), net_c.param_vector())


def test_infinite_threshold_runs_to_max_epochs():
    data = tiny_pair()
    net = init_ff(12, [16], 4, seed=2)
    trace = train(net, data, "ce", Sgd(0.05), "constant",
                  StopRule(float("inf"), 0, 3), batch_size=32, seed=0)
    assert [r.epoch for r in trace.records] == [1, 2, 3]
    assert trace.stop_reason == "max_epochs"
    assert trace.final.epoch == 3


def test_grad_norm_stop_respects_min_epochs():
    data = tiny_pair()
    net = init_ff(12, [16], 4, seed=3)
    # A huge finite threshold is met immediately, so the run stops at the
    # first epoch the rule is consulted.
    trace = train(net, data, "ce", Sgd(0.05), "constant",
                  StopRule(1e9, min_epochs=2, max_epochs=10), batch_size=32, seed=0)
    assert trace.stop_reason == "grad_norm"
    assert [r.epoch for r in trace.records] == [1, 2]


def test_train_records_running_quantities():
    data = tiny_pair()
    net = init_ff(12, [16], 4, seed=4)
    theta0 = net.param_vector()
    trace = train(net, data, "mse", Sgd(0.05), "constant",
                  StopRule(float("inf"), 0, 2), batch_size=32, seed=0)
    for rec in trace.records:
        assert rec.eta == 1.0
        assert rec.grad_norm >= 0
        assert rec.wall_ms > 0
        assert math.isfinite(rec.train_loss) and math.isfinite(rec.test_loss)
    assert trace.final.param_dist == pytest.approx(
        float(np.linalg.norm(net.param_vector() - theta0)))


def test_train_validation_errors():
    data = tiny_pair()
    net = init_ff(12, [16], 4, seed=5)
    stop = StopRule(float("inf"), 0, 1)
    with pytest.raises(ValueError, match="loss kind"):
        train(net, data, "hinge", Sgd(0.1), "constant", stop, batch_size=32, seed=0)
    with pytest.raises(ValueError, match="batch_size"):
        train(net, data, "ce", Sgd(0.1), "constant", stop, batch_size=0, seed=0)
    with pytest.raises(ValueError, match="batch_size"):
        train(net, data, "ce", Sgd(0.1), "constant", stop, batch_size=97, seed=0)
    with pytest.raises(ValueError, match="eval_every"):
        train(net, data, "ce", Sgd(0.1), "constant", stop, batch_size=32, seed=0, eval_every=0)
    with pytest.raises(ValueError, match="on_epoch"):
        train(net, data, "ce", Sgd(0.1), "constant", stop, batch_size=32, seed=0,
              on_epoch=lambda *args: None, eval_every=None)


def test_divergence_raises_with_epoch():
    # A huge LR alone cannot overflow this family: one giant step drives
    # every pre-activation negative and the trailing ReLU flatlines the
    # net at zero output instead.  Astronomical weights overflow the very
    # first forward pass, which is the honest way to reach the check.
    data = tiny_pair()
    net = init_ff(12, [16], 4, seed=6)
    for w in net.weights:
        w *= 1e200
    with pytest.raises(DivergenceError, match="diverged") as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            train(net, data, "mse", Sgd(0.1), "constant",
                  StopRule(float("inf"), 0, 20), batch_size=32, seed=0)
    assert exc.value.epoch == 1


class _ScaleOnce(Sgd):
    """SGD that multiplies every weight by ``factor`` right after update ``at``
    (0-based): a stand-in for a step that blows the weights up."""

    def __init__(self, base_lr: float, at: int, factor: float):
        super().__init__(base_lr)
        self.at, self.factor, self.updates = at, factor, 0

    def step(self, arrays, grads, coeff):
        super().step(arrays, grads, coeff)
        if self.updates == self.at:
            for a in arrays:
                a *= self.factor
        self.updates += 1


def test_divergence_at_end_of_skipped_epoch():
    # 96 samples, batch 32: 3 updates per epoch, so update 5 is epoch 2's
    # last.  Epoch 2 is off the cadence and the stop rule never reads a
    # gradient, so no param_grad runs there; the output bound overflows and
    # the train-set forward pass finds the loss non-finite, as the full-train
    # check of an every-epoch cadence does.
    data = tiny_pair()
    net = init_ff(12, [16], 4, seed=6)
    with pytest.raises(DivergenceError) as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            train(net, data, "mse", _ScaleOnce(0.1, at=5, factor=1e200), "constant",
                  StopRule(float("inf"), 0, 20), batch_size=32, seed=0, eval_every=10)
    assert exc.value.epoch == 2


@pytest.mark.parametrize("every", [2, None])
def test_divergence_in_the_last_epoch_with_and_without_records(every):
    # Update 5 is epoch 2's last, and epoch 2 the run's last.  With records
    # its full-train gradient finds the loss non-finite; without, the stop
    # rule cannot shorten the run there, and the train-set forward pass does.
    data = tiny_pair()
    net = init_ff(12, [16], 4, seed=6)
    with pytest.raises(DivergenceError) as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            train(net, data, "mse", _ScaleOnce(0.1, at=5, factor=1e200), "constant",
                  StopRule(1e-12, 0, 2), batch_size=32, seed=0, eval_every=every)
    assert exc.value.epoch == 2


@pytest.mark.parametrize("stop, reason", [(StopRule(float("inf"), 0, 3), "max_epochs"),
                                          (StopRule(1e9, 2, 10), "grad_norm")])
def test_training_without_records_keeps_the_weights(stop, reason):
    data = tiny_pair()
    nets = [init_ff(12, [16], 4, seed=9) for _ in range(2)]
    traces = [train(net, data, "mse", Sgd(0.05), "constant", stop, batch_size=32, seed=4,
                    eval_every=every) for net, every in zip(nets, (1, None))]
    assert np.array_equal(nets[0].param_vector(), nets[1].param_vector())
    assert traces[0].stop_reason == traces[1].stop_reason == reason
    assert traces[1].records == []
    with pytest.raises(ValueError, match="no epoch was recorded"):
        traces[1].final


def test_large_but_finite_weights_do_not_raise(monkeypatch):
    # Scaling both layers by 1e55 puts the output bound past the limit, so
    # the skipped epoch 2 runs the train-set forward pass; the outputs
    # (about 1e110) and the loss stay finite, so training goes on.  With a
    # zero learning rate the scaled weights are kept to the end.
    data = tiny_pair()
    net = init_ff(12, [16], 4, seed=6)
    x_norm = float(np.max(np.linalg.norm(data.train_x, axis=1)))
    assert training._loss_cannot_overflow(net, x_norm)
    train_passes = []
    real_loss = training.dataset_loss

    def counting_loss(net_, x, labels, kind):
        if x is data.train_x:
            train_passes.append(opt.updates // 3)
        return real_loss(net_, x, labels, kind)

    monkeypatch.setattr(training, "dataset_loss", counting_loss)
    opt = _ScaleOnce(0.0, at=5, factor=1e55)
    with np.errstate(over="ignore"):
        trace = train(net, data, "mse", opt, "constant", StopRule(float("inf"), 0, 3),
                      batch_size=32, seed=0, eval_every=10)
    assert not training._loss_cannot_overflow(net, x_norm)
    assert train_passes == [2]
    assert [r.epoch for r in trace.records] == [3]
    assert math.isfinite(trace.final.train_loss) and trace.final.train_loss > 1e200


def _stripped(records):
    out = []
    for rec in records:
        d = rec.to_dict()
        d.pop("wall_ms")
        out.append(d)
    return out


def _cnn_pair():
    train_d, test_d = synthetic_fallback(8, 4, 3072, 10, seed=3)
    return DataPair(train_d, test_d)


CADENCE_CASES = [
    # (net factory, data factory, kind, stop rule, cadence, recorded epochs)
    (lambda: init_ff(12, [16], 4, seed=9), tiny_pair, "ce",
     StopRule(float("inf"), 0, 7), 3, [3, 6, 7]),
    # The stop rule reads gradients from epoch 5 and its huge threshold is
    # met there: the run stops off the cadence, and epoch 5 is recorded.
    (lambda: init_ff(12, [16], 4, seed=9), tiny_pair, "mse",
     StopRule(1e9, 5, 20), 3, [3, 5]),
    (lambda: init_ff(12, [16, 8], 4, seed=10), tiny_pair, "mse",
     StopRule(float("inf"), 0, 5), 2, [2, 4, 5]),
    (lambda: init_cnn(1, seed=2), _cnn_pair, "ce",
     StopRule(float("inf"), 0, 4), 3, [3, 4]),
    (lambda: init_cnn(1, seed=2), _cnn_pair, "ce",
     StopRule(1e9, 2, 6), 4, [2]),
]


@pytest.mark.parametrize("make_net, make_data, kind, stop, every, recorded", CADENCE_CASES)
def test_cadence_leaves_weights_and_recorded_values_unchanged(make_net, make_data, kind, stop,
                                                               every, recorded):
    data = make_data()
    batch = 4 if data.train_x.shape[0] == 8 else 32
    runs = {}
    for k in (1, every):
        net = make_net()
        seen = []
        trace = train(net, data, kind, Sgd(0.05), "constant", stop, batch_size=batch, seed=4,
                      on_epoch=lambda epoch, _net, rec: seen.append((epoch, rec)),
                      eval_every=k)
        runs[k] = (net.param_vector(), trace, seen)
    (theta_all, trace_all, seen_all), (theta, trace, seen) = runs[1], runs[every]
    assert np.array_equal(theta, theta_all)
    assert [r.epoch for r in trace.records] == recorded
    assert trace.stop_reason == trace_all.stop_reason
    kept = [r for r in trace_all.records if r.epoch in recorded]
    assert _stripped(trace.records) == _stripped(kept)
    # on_epoch sees epoch 0 and exactly the recorded epochs.
    assert [e for e, _ in seen] == [0] + recorded
    assert _stripped(r for _, r in seen) == _stripped([seen_all[0][1]] + kept)


CALL_CASES = [
    # (net factory, data factory, stop rule, cadence, on_epoch given,
    #  param_grad epochs, test-loss epochs, train-loss epochs)
    (lambda: init_ff(12, [16], 4, seed=9), tiny_pair,
     StopRule(float("inf"), 0, 7), 3, True, [0, 3, 6, 7], [0, 3, 6, 7], []),
    # The rule reads gradients from epoch 5 on; the threshold is never met.
    (lambda: init_ff(12, [16], 4, seed=9), tiny_pair,
     StopRule(1e-12, 5, 7), 3, False, [3, 5, 6, 7], [3, 6, 7], []),
    # The stop at epoch 5 reuses that epoch's gradient for its record.
    (lambda: init_ff(12, [16], 4, seed=9), tiny_pair,
     StopRule(1e9, 5, 20), 3, False, [3, 5], [3, 5], []),
    # No output bound for a CNN: skipped epochs run the train-set forward pass.
    (lambda: init_cnn(1, seed=2), _cnn_pair,
     StopRule(float("inf"), 0, 4), 3, False, [3, 4], [3, 4], [1, 2]),
    # No records: the rule's gradient only where a stop could still shorten
    # the run, and the last epoch's divergence check takes the loss path.
    (lambda: init_ff(12, [16], 4, seed=9), tiny_pair,
     StopRule(1e-12, 2, 4), None, False, [2, 3], [], []),
    (lambda: init_cnn(1, seed=2), _cnn_pair,
     StopRule(float("inf"), 0, 3), None, False, [], [], [1, 2, 3]),
]


@pytest.mark.parametrize("make_net, make_data, stop, every, with_callback, grad_epochs, "
                         "test_epochs, train_epochs", CALL_CASES)
def test_cadence_pins_full_set_passes(monkeypatch, make_net, make_data, stop, every,
                                      with_callback, grad_epochs, test_epochs, train_epochs):
    data = make_data()
    n = data.train_x.shape[0]
    batch = 4 if n == 8 else 32
    upe = updates_per_epoch(n, batch)
    opt = _ScaleOnce(0.05, at=-1, factor=1.0)  # plain SGD that counts its updates
    calls = {"param_grad": [], "test": [], "train": []}
    real_grad, real_loss = training.param_grad, training.dataset_loss

    def counting_grad(net, x, labels, kind):
        calls["param_grad"].append(opt.updates // upe)
        return real_grad(net, x, labels, kind)

    def counting_loss(net, x, labels, kind):
        calls["train" if x is data.train_x else "test"].append(opt.updates // upe)
        return real_loss(net, x, labels, kind)

    monkeypatch.setattr(training, "param_grad", counting_grad)
    monkeypatch.setattr(training, "dataset_loss", counting_loss)
    on_epoch = (lambda *args: None) if with_callback else None
    train(make_net(), data, "ce", opt, "constant", stop, batch_size=batch, seed=4,
          on_epoch=on_epoch, eval_every=every)
    assert calls == {"param_grad": grad_epochs, "test": test_epochs, "train": train_epochs}


def test_on_epoch_callback_fires_in_order():
    data = tiny_pair()
    net = init_ff(12, [16], 4, seed=7)
    loss0, grad0 = param_grad(net, data.train_x, data.train_y, "ce")
    seen = []
    records = []

    def on_epoch(epoch, n, rec):
        seen.append((epoch, rec.epoch, n is net))
        records.append(rec)

    trace = train(net, data, "ce", Sgd(0.05), "constant", StopRule(float("inf"), 0, 3),
                  batch_size=32, seed=0, on_epoch=on_epoch)
    assert seen == [(0, 0, True), (1, 1, True), (2, 2, True), (3, 3, True)]
    # Epoch 0 is the initial net: reported to on_epoch, not added to the trace.
    first = records[0]
    assert first.param_dist == 0.0
    assert (first.train_loss, first.grad_norm) == (loss0, vector_norm(grad0))
    assert records[1:] == trace.records


def test_train_eta_tracks_schedule():
    data = tiny_pair(n_train=64)
    net = init_ff(12, [16], 4, seed=8)
    # 64 samples, batch 32 -> 2 updates per epoch; cont100 stays at 1.0
    # for the first hundred epochs.
    trace = train(net, data, "ce", Sgd(0.05), "cont100",
                  StopRule(float("inf"), 0, 2), batch_size=32, seed=0)
    assert [r.eta for r in trace.records] == [1.0, 1.0]


# ---------------------------------------------------------------------------
# Trace files


def test_trace_round_trip_and_null_wall_ms(tmp_path):
    trace = TrainTrace(records=[
        EpochRecord(1, 0.5, 0.6, 0.1, 1.0, 0.0, 12.5),
        EpochRecord(2, 0.4, 0.55, 0.05, 1.0, 0.3, 13.1),
    ], stop_reason="max_epochs")
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        row = json.loads(line)
        assert list(row) == ["epoch", "train_loss", "test_loss", "grad_norm",
                             "eta", "param_dist", "wall_ms"]
        assert row["wall_ms"] is None
    back = read_trace_jsonl(path)
    assert [r.epoch for r in back.records] == [1, 2]
    assert back.records[0].train_loss == 0.5
    # Re-serializing the parsed trace reproduces the file byte for byte.
    again = tmp_path / "again.jsonl"
    back.write_jsonl(again)
    assert again.read_bytes() == path.read_bytes()
