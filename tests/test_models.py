import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liptrack import linalg, models
from liptrack.bounds import _softmax_cotangents
from liptrack.linalg import PowerIterSettings, make_rng, spectral_norm_operator
from liptrack.models import (
    CnnNet,
    FFReluNet,
    build_net,
    conv2d,
    conv2d_adjoint,
    conv2d_kernel_grad,
    conv_spectral_norm,
    init_cnn,
    init_ff,
    load_checkpoint,
    maxpool,
    maxpool_backward,
    param_distance,
    save_checkpoint,
    weight_shapes,
)
from tests.conftest import active_input
from tests.oracles import materialize_operator, set_param_vector, svd_oracle

TIGHT = PowerIterSettings(max_iters=5000, rel_tol=1e-13, seed=0)


# ---------------------------------------------------------------------------
# Feed-forward nets


def test_ff_forward_shapes_and_nonnegativity():
    net = init_ff(6, [8, 7], 3, seed=0)
    x = make_rng(1, 0).standard_normal(6)
    single = net.forward(x)
    assert single.shape == (3,)
    batch = net.forward(np.stack([x, 2 * x, -x]))
    assert batch.shape == (3, 3)
    assert np.all(single >= 0.0)
    assert np.all(batch >= 0.0)


def test_ff_forward_rejects_wrong_input_dim():
    net = init_ff(6, [8], 3, seed=0)
    with pytest.raises(ValueError, match="input dim"):
        net.forward(np.zeros(5))


def test_ff_batch_forward_matches_per_sample():
    net = init_ff(9, [12, 10], 4, seed=3)
    xs = make_rng(4, 0).standard_normal((17, 9))
    batch = net.forward(xs)
    singles = np.stack([net.forward(x) for x in xs])
    # BLAS may reorder the sums between the two shapes, so compare to
    # rounding error rather than bit for bit.
    np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-12)


@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_ff_positive_homogeneity_exact_for_dyadic_scales(log2_c, xseed):
    # Scaling by a power of two is exact in binary floating point, so
    # f(c x) == c f(x) holds bit for bit, not just approximately.
    net = init_ff(7, [9, 8], 3, seed=11)
    x = make_rng(xseed, 0).standard_normal(7)
    c = 2.0 ** log2_c
    assert np.array_equal(net.forward(c * x), c * net.forward(x))


@given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_ff_positive_homogeneity_general_scale(c, xseed):
    net = init_ff(7, [9, 8], 3, seed=11)
    x = make_rng(xseed, 0).standard_normal(7)
    np.testing.assert_allclose(net.forward(c * x), c * net.forward(x),
                               rtol=1e-12, atol=1e-12)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_ff_jacobian_times_input_recovers_output(xseed):
    # Zero-bias ReLU stacks are positively homogeneous of degree one, so
    # J(x) x equals f(x) at every x under the strict ">0" mask convention.
    net = init_ff(8, [10, 9], 4, seed=2)
    x = make_rng(xseed, 1).standard_normal(8)
    jac = net.input_jacobians(x[None])[0]
    np.testing.assert_allclose(jac @ x, net.forward(x), rtol=1e-10, atol=1e-12)


def test_ff_jacobian_matches_finite_differences():
    net = init_ff(6, [8, 7], 3, seed=7)
    rng = make_rng(7, 2)
    x = active_input(net, rng, margin=1e-3)
    jac = net.input_jacobians(x[None])[0]
    h = 1e-6
    fd = np.empty_like(jac)
    for j in range(net.input_dim):
        e = np.zeros(net.input_dim)
        e[j] = h
        fd[:, j] = (net.forward(x + e) - net.forward(x - e)) / (2 * h)
    # The net is exactly linear inside a fixed activation region, so the
    # central difference agrees to rounding error, not merely O(h^2).
    np.testing.assert_allclose(fd, jac, rtol=1e-8, atol=1e-9)


def test_ff_jacobian_zero_at_origin():
    net = init_ff(5, [6], 2, seed=1)
    assert np.array_equal(net.input_jacobians(np.zeros(5)[None])[0], np.zeros((2, 5)))


def test_ff_batched_jacobians_match_single_sample():
    for widths in ([9, 8], [9]):
        net = init_ff(6, widths, 3, seed=9)
        xs = make_rng(2, 3).standard_normal((11, 6))
        batch = net.input_jacobians(xs)
        assert batch.shape == (11, 3, 6)
        singles = np.stack([net.input_jacobians(x[None])[0] for x in xs])
        np.testing.assert_allclose(batch, singles, rtol=1e-13, atol=0)


def forward_mode_jacobians(net, xs):
    """Per-sample masked products, built input side first, as the reference."""
    a = xs
    masks = []
    for w in net.weights:
        z = a @ w.T
        masks.append(z > 0)
        a = np.maximum(z, 0.0)
    jac = masks[0][:, :, None] * net.weights[0][None, :, :]
    for w, m in zip(net.weights[1:], masks[1:]):
        jac = np.matmul(w[None, :, :], jac) * m[:, :, None]
    return jac


def test_ff_reverse_jacobians_match_forward_mode_product():
    # Depth 3 takes the reverse sweep, depth 1 the mask GEMM.
    for widths in ([9, 8, 6], [9]):
        net = init_ff(7, widths, 4, seed=31)
        # Output 0 sees only nonnegative inputs through negative weights, so
        # its mask is zero on every sample; the origin zeroes every mask at
        # once.
        net.weights[-1][0] = -np.abs(net.weights[-1][0])
        xs = make_rng(31, 3).standard_normal((17, 7))
        xs[4] = 0.0
        got = net.input_jacobians(xs)
        want = forward_mode_jacobians(net, xs)
        assert got.shape == (17, 4, 7)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        assert np.array_equal(got[:, 0, :], np.zeros((17, 7)))
        assert np.array_equal(got[4], np.zeros((4, 7)))
        assert np.any(got[:, 1:, :] != 0.0)


def test_ff_jacobians_seeded_by_cotangents():
    for widths in ([9, 8], [9]):
        net = init_ff(6, widths, 3, seed=32)
        xs = make_rng(32, 3).standard_normal((5, 6))
        seeds = make_rng(33, 3).standard_normal((5, 2, 3))
        outs = []

        def cotangents(out):
            outs.append(out)
            return seeds

        got = net.input_jacobians(xs, cotangents)
        assert np.array_equal(outs[0], net.forward(xs))
        np.testing.assert_allclose(got, seeds @ forward_mode_jacobians(net, xs),
                                   rtol=1e-12, atol=1e-14)


def test_ff_depth1_workspace_reuse_matches_fresh_calls():
    # One workspace over chunks of 5, 9 and 3 rows (its buffers grow, then
    # serve a shorter chunk) gives the bits of a fresh call per chunk.
    net = init_ff(6, [20], 4, seed=34)
    xs = make_rng(34, 3).standard_normal((17, 6))
    chunks = [xs[:5], xs[5:14], xs[14:]]
    seeds = make_rng(35, 3).standard_normal((17, 2, 4))
    for cot in (None, lambda out: seeds[:out.shape[0]]):
        workspace = models.Depth1Workspace(net)
        for xb in chunks:
            reused = net.input_jacobians(xb, cot, workspace=workspace)
            assert np.array_equal(reused, net.input_jacobians(xb, cot))
        stream = models.jacobian_stream(net, cot)
        got = [stream(xb).copy() for xb in chunks]
        assert all(np.array_equal(g, net.input_jacobians(xb, cot)) for g, xb in zip(got, chunks))


def test_ff_depth1_jacobians_identical_across_blas_thread_counts():
    # The mask GEMM sums over the hidden width; at widths 1024 and 4096
    # OpenBLAS splits the (256, width) @ (width, 400) product across threads.
    code = (
        "import hashlib, numpy as np\n"
        "from liptrack.bounds import _softmax_cotangents\n"
        "from liptrack.linalg import make_rng\n"
        "from liptrack.models import init_ff, jacobian_stream\n"
        "x = make_rng(15, 11).standard_normal((488, 40))\n"
        "for width in (1024, 4096):\n"
        "    net = init_ff(40, [width], 10, seed=15)\n"
        "    for cot in (None, _softmax_cotangents):\n"
        "        h = hashlib.sha256()\n"
        "        stream = jacobian_stream(net, cot)\n"
        "        for lo in (0, 256):\n"
        "            h.update(stream(x[lo:lo + 256]).tobytes())\n"
        "        print(width, cot is not None, h.hexdigest())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = proc.stdout
    assert len(outputs["1"].splitlines()) == 4
    assert outputs["1"] == outputs["2"]


def test_ff_backprop_params_matches_finite_differences():
    net = init_ff(5, [7, 6], 2, seed=13)
    rng = make_rng(13, 4)
    x = np.stack([active_input(net, rng, margin=1e-3) for _ in range(3)])
    w = rng.standard_normal((3, 2))

    def scalar(n):
        return float(np.sum(w * n.forward(x)))

    _, cache = net.forward_cached(x)
    grads = net.backprop_params(cache, w)
    h = 1e-6
    for li, g in enumerate(grads):
        probe = net.copy()
        for idx in [(0, 0), (g.shape[0] - 1, g.shape[1] - 1)]:
            probe.weights[li][idx] += h
            up = scalar(probe)
            probe.weights[li][idx] -= 2 * h
            down = scalar(probe)
            probe.weights[li][idx] += h
            np.testing.assert_allclose((up - down) / (2 * h), g[idx], rtol=1e-5, atol=1e-7)


def test_ff_backprop_input_matches_jacobian_transpose():
    net = init_ff(6, [8, 7], 3, seed=4)
    xs = make_rng(5, 6).standard_normal((4, 6))
    dout = make_rng(6, 7).standard_normal((4, 3))
    _, cache = net.forward_cached(xs)
    got = net.backprop_input(cache, dout)
    jacs = net.input_jacobians(xs)
    want = np.einsum("nk,nkd->nd", dout, jacs)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("widths", [[5], [5, 4], [5, 4, 3], "cnn"])
def test_ff_backprop_leaves_the_rows_passed_in_unchanged(widths):
    # The backward loops mask their own products in place; the caller's rows,
    # plain or a read-only broadcast view, must come back as they went in.
    rng = make_rng(len(widths), 8)
    if widths == "cnn":  # seed rows reach a CNN one (n, 10) slice at a time
        net, x = init_cnn(2, seed=3), rng.standard_normal((2, 3072))
    else:
        net, x = init_ff(6, widths, 3, seed=len(widths)), rng.standard_normal((4, 6))
    n, k = x.shape[0], net.output_dim
    rows = {"2-D": rng.standard_normal((n, k)),
            "read-only 2-D": np.broadcast_to(rng.standard_normal(k), (n, k))}
    if widths != "cnn":
        rows["read-only seeds"] = np.broadcast_to(np.eye(k), (n, k, k))
    for name, g in rows.items():
        before = g.copy()
        _, cache = net.forward_cached(x)
        if g.ndim == 2:
            net.backprop_params(cache, g)
            assert np.array_equal(g, before), name
        net.backprop_input(cache, g)
        assert np.array_equal(g, before), name


def test_ff_layer_spectral_norms_match_svd():
    net = init_ff(6, [8, 7], 3, seed=21)
    got = net.layer_spectral_norms(TIGHT)
    want = [svd_oracle(w) for w in net.weights]
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_init_ff_is_deterministic_and_fan_in_bounded():
    a = init_ff(40, [64, 64], 10, seed=123)
    b = init_ff(40, [64, 64], 10, seed=123)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = init_ff(40, [64, 64], 10, seed=124)
    assert not np.array_equal(a.weights[0], c.weights[0])
    fans = [40, 64, 64]
    for w, fan in zip(a.weights, fans):
        bound = np.sqrt(6.0 / fan)
        assert np.max(np.abs(w)) <= bound
        # Uniform draws should come close to the edge on a layer this size.
        assert np.max(np.abs(w)) > 0.9 * bound


def test_init_ff_rejects_bad_dimensions():
    with pytest.raises(ValueError, match="positive"):
        init_ff(5, [0], 2, seed=0)
    with pytest.raises(ValueError, match="positive"):
        init_ff(0, [4], 2, seed=0)


def test_ff_constructor_rejects_wrong_weight_shape():
    with pytest.raises(ValueError, match="layer 1"):
        FFReluNet(4, [5], 2, [np.zeros((5, 4)), np.zeros((2, 4))])


def test_constructors_check_the_number_of_weight_arrays():
    w1, w2 = init_ff(4, [5], 2, seed=0).weights
    for arrays in ([w1], [w1, w2, np.zeros((2, 2))]):
        with pytest.raises(ValueError, match=f"{len(arrays)} weight arrays, expected 2"):
            FFReluNet(4, [5], 2, arrays)
    cnn = init_cnn(1, seed=0)
    with pytest.raises(ValueError, match="4 weight arrays, expected 5"):
        CnnNet(1, cnn.kernels[:3], cnn.linear_w)
    with pytest.raises(ValueError, match="6 weight arrays, expected 5"):
        CnnNet(1, [*cnn.kernels, cnn.kernels[0]], cnn.linear_w)
    for arch in ({"family": "ff", "input_dim": 4, "widths": [5], "output_dim": 2},
                 {"family": "cnn", "width": 1}):
        with pytest.raises(ValueError, match="0 weight arrays"):
            build_net(arch, [])


def test_weight_shapes_is_the_layer_plan_of_both_families():
    ff = init_ff(12, [5, 7, 3], 4, seed=0)
    assert weight_shapes(ff.arch_spec()) == [(5, 12), (7, 5), (3, 7), (4, 3)]
    cnn = init_cnn(2, seed=0)
    assert weight_shapes(cnn.arch_spec()) == [(2, 3, 3, 3), (4, 2, 3, 3), (8, 4, 3, 3),
                                              (16, 8, 3, 3), (10, 16)]
    for net in (ff, cnn):
        assert [a.shape for a in net.weight_arrays()] == weight_shapes(net.arch_spec())


# sha256 of param_vector().tobytes() of fresh nets: the fan-in draws, their
# order on the init stream and the parameter layout are all pinned.
GOLDEN_INIT = [
    (lambda: init_ff(40, [16], 10, 0), "36ea5ef4c5967da2"),
    (lambda: init_ff(40, [1024], 10, 3), "2557e34034ef9e66"),
    (lambda: init_ff(12, [5, 7, 3], 4, 9), "7a13c3f5955b4ceb"),
    (lambda: init_cnn(1, 0), "0ebdcb8285669780"),
    (lambda: init_cnn(2, 5), "f96a8596bd31eb38"),
    (lambda: init_cnn(4, 11), "1914fdad9dcf23d6"),
]


def _ff_jacobians(widths, cotangents):
    net = init_ff(7, widths, 4, seed=51)
    net.weights[-1][0] = -np.abs(net.weights[-1][0])  # a dead output row
    x = make_rng(51, 3).standard_normal((9, 7))
    x[2] = 0.0
    return net.input_jacobians(x, cotangents)


def _cnn_param_grads():
    net = init_cnn(2, seed=52)
    rng = make_rng(52, 3)
    _, cache = net.forward_cached(rng.standard_normal((3, 3072)))
    grads = net.backprop_params(cache, rng.standard_normal((3, 10)))
    return np.concatenate([g.ravel() for g in grads])


# sha256 of the result bytes, signed zeros included: a change to either
# family's backward loop or to the seed rows must keep these bits.
GOLDEN_BACKWARD = [
    (lambda: _ff_jacobians([9, 8], None), "91edcc216523449c"),
    (lambda: _ff_jacobians([9, 8], _softmax_cotangents), "274e18f7f0a4a97a"),
    (lambda: _ff_jacobians([9, 8, 6], None), "ec88c69c866bba44"),
    (lambda: _ff_jacobians([9, 8, 6], _softmax_cotangents), "6e51d9f559a255d6"),
    (_cnn_param_grads, "07e4c23ae082e6de"),
]


@pytest.mark.parametrize("make, digest", GOLDEN_BACKWARD)
def test_backward_sweeps_keep_their_golden_bits(make, digest):
    assert hashlib.sha256(make().tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("make, digest", GOLDEN_INIT)
def test_init_weights_keep_their_golden_bits(make, digest, tmp_path):
    def bits(net):
        return hashlib.sha256(net.param_vector().tobytes()).hexdigest()[:16]

    net = make()
    assert bits(net) == digest
    assert bits(net.copy()) == digest
    assert bits(build_net(net.arch_spec(), net.weight_arrays())) == digest
    save_checkpoint(net, tmp_path / "ckpt.json", seed=0, epoch=0)
    assert bits(load_checkpoint(tmp_path / "ckpt.json")[0]) == digest


def test_ff_param_vector_round_trip():
    net = init_ff(5, [6, 4], 3, seed=8)
    theta = net.param_vector()
    assert theta.shape == (net.param_count,)
    clone = build_net(net.arch_spec())
    set_param_vector(clone, theta)
    for wa, wb in zip(net.weights, clone.weights):
        assert np.array_equal(wa, wb)
    with pytest.raises(ValueError, match="length"):
        set_param_vector(clone, theta[:-1])


def test_ff_copy_is_independent():
    net = init_ff(4, [5], 2, seed=3)
    dup = net.copy()
    dup.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != dup.weights[0][0, 0]


def test_param_distance_euclidean():
    net = init_ff(4, [5], 2, seed=6)
    ref = net.param_vector()
    assert param_distance(net, ref) == 0.0
    shifted = net.copy()
    shifted.weights[0][1, 2] += 3.0
    assert param_distance(shifted, ref) == pytest.approx(3.0)
    with pytest.raises(ValueError, match="reference"):
        param_distance(net, ref[:-1])


# ---------------------------------------------------------------------------
# Conv primitives


def conv2d_naive(x, kernel):
    """Direct 6-loop 3x3 convolution with zero padding, as an oracle."""
    n, c_in, h, w = x.shape
    c_out = kernel.shape[0]
    out = np.zeros((n, c_out, h, w))
    for s in range(n):
        for co in range(c_out):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for ci in range(c_in):
                        for di in range(3):
                            for dj in range(3):
                                ii, jj = i + di - 1, j + dj - 1
                                if 0 <= ii < h and 0 <= jj < w:
                                    acc += x[s, ci, ii, jj] * kernel[co, ci, di, dj]
                    out[s, co, i, j] = acc
    return out


def test_conv2d_matches_naive_loops():
    rng = make_rng(0, 10)
    x = rng.standard_normal((2, 3, 5, 5))
    k = rng.standard_normal((4, 3, 3, 3))
    np.testing.assert_allclose(conv2d(x, k), conv2d_naive(x, k), rtol=1e-12, atol=1e-12)


def test_conv2d_adjoint_inner_product_identity():
    rng = make_rng(1, 10)
    x = rng.standard_normal((2, 3, 6, 6))
    k = rng.standard_normal((5, 3, 3, 3))
    y = rng.standard_normal((2, 5, 6, 6))
    lhs = float(np.vdot(conv2d(x, k), y))
    rhs = float(np.vdot(x, conv2d_adjoint(y, k)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_conv2d_kernel_grad_inner_product_identity():
    # conv2d is linear in the kernel, so <conv(x, k), g> == <k, kernel_grad(x, g)>.
    rng = make_rng(2, 10)
    x = rng.standard_normal((3, 2, 4, 4))
    k = rng.standard_normal((4, 2, 3, 3))
    g = rng.standard_normal((3, 4, 4, 4))
    lhs = float(np.vdot(conv2d(x, k), g))
    rhs = float(np.vdot(k, conv2d_kernel_grad(x, g)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("c_out, c_in, h, w", [(3, 2, 5, 7), (2, 3, 7, 5), (2, 3, 1, 1),
                                               (3, 1, 4, 6), (1, 2, 2, 3)])
def test_conv_kernels_match_naive_at_edge_shapes(c_out, c_in, h, w):
    # The patch layout depends on w, so non-square and 1x1 images and a
    # single input channel each get their own oracle check.
    rng = make_rng(12, 10, c_out, c_in, h, w)
    x = rng.standard_normal((2, c_in, h, w))
    k = rng.standard_normal((c_out, c_in, 3, 3))
    g = rng.standard_normal((2, c_out, h, w))
    np.testing.assert_allclose(conv2d(x, k), conv2d_naive(x, k), rtol=1e-12, atol=1e-12)
    mat = materialize_operator(lambda v: conv2d_naive(v[None], k)[0], (c_in, h, w))
    for b in range(2):
        np.testing.assert_allclose(conv2d_adjoint(g[b:b + 1], k)[0].ravel(), mat.T @ g[b].ravel(),
                                   rtol=1e-12, atol=1e-12)
    # conv2d is linear in the kernel: the gradient's entries are <conv(x, e), g>
    # over the unit kernels e.
    want = np.zeros(k.size)
    for i in range(k.size):
        e = np.zeros(k.size)
        e[i] = 1.0
        want[i] = np.vdot(conv2d_naive(x, e.reshape(k.shape)), g)
    np.testing.assert_allclose(conv2d_kernel_grad(x, g).ravel(), want, rtol=1e-12, atol=1e-12)


def test_conv_kernels_batch_images_equal_single_calls():
    rng = make_rng(13, 10)
    x = rng.standard_normal((3, 4, 6, 5))
    k = rng.standard_normal((5, 4, 3, 3))
    g = rng.standard_normal((3, 5, 6, 5))
    out, back = conv2d(x, k), conv2d_adjoint(g, k)
    for b in range(3):
        assert np.array_equal(out[b], conv2d(x[b:b + 1], k)[0])
        assert np.array_equal(back[b], conv2d_adjoint(g[b:b + 1], k)[0])
    # The kernel gradient adds the images' terms in batch order.
    singles = [conv2d_kernel_grad(x[b:b + 1], g[b:b + 1]) for b in range(3)]
    assert np.array_equal(conv2d_kernel_grad(x, g), singles[0] + singles[1] + singles[2])


def test_conv_kernels_identical_across_blas_thread_counts():
    # A 12->24-channel kernel at 32x32: the operator has 12288 input entries,
    # past the 10000 from which OpenBLAS splits a dot product across threads.
    # With whole-vector dots in the power iteration, this kernel's norm
    # changed in the last bit between 1 and 2 threads.
    code = (
        "import hashlib, numpy as np\n"
        "from liptrack.linalg import make_rng\n"
        "from liptrack.models import conv2d, conv2d_adjoint, conv2d_kernel_grad, conv_spectral_norm\n"
        "rng = make_rng(14, 11)\n"
        "k = rng.standard_normal((24, 12, 3, 3))\n"
        "x = rng.standard_normal((2, 12, 32, 32))\n"
        "g = rng.standard_normal((2, 24, 32, 32))\n"
        "h = hashlib.sha256()\n"
        "for a in (conv2d(x, k), conv2d_adjoint(g, k), conv2d_kernel_grad(x, g)):\n"
        "    h.update(a.tobytes())\n"
        "print(h.hexdigest(), repr(conv_spectral_norm(k, (32, 32))))\n"
        # Dense norms: exact at the side cap and for a tall matrix, and the
        # batched Jacobian path at the cap.
        "from liptrack.bounds import batch_spectral_norms\n"
        "from liptrack.linalg import EXACT_SIDE_CAP as cap, spectral_norm_dense\n"
        "print(repr(spectral_norm_dense(rng.standard_normal((cap, cap)))),\n"
        "      repr(spectral_norm_dense(rng.standard_normal((20000, 40)))),\n"
        "      batch_spectral_norms(rng.standard_normal((3, cap, cap + 7))).tolist())\n"
        # Power iteration on a dense matrix above the cap, and on a conv whose
        # adjoint GEMM sums 432 terms over 32768 entries: plain BLAS products
        # changed the last bit of both between 1 and 2 threads.
        "print(repr(spectral_norm_dense(rng.standard_normal((2048, 300)))),\n"
        "      repr(conv_spectral_norm(rng.standard_normal((48, 32, 3, 3)), (32, 32))))\n"
        # A width-12 CNN: its last convs sum 432 and (adjoint) 864 terms.
        # With a plain GEMM there, its gradients and Jacobians changed
        # between 1 and 2 threads.
        "from liptrack.bounds import _softmax_cotangents\n"
        "from liptrack.models import init_cnn\n"
        "from liptrack.training import loss_and_grad\n"
        "net = init_cnn(12, seed=16)\n"
        "x = rng.standard_normal((4, 3072))\n"
        "_, grads = loss_and_grad(net, x, np.array([0, 3, 5, 9]), 'ce')\n"
        "for a in (*grads, net.input_jacobians(x[:2]), net.input_jacobians(x[:2], _softmax_cotangents)):\n"
        "    print(hashlib.sha256(a.tobytes()).hexdigest())\n"
        "print(repr(conv_spectral_norm(net.kernels[-1], (8, 8))))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = proc.stdout
    assert len(outputs["1"].splitlines()) == 3 + 5 + 2 + 1
    assert outputs["1"] == outputs["2"]


def test_maxpool_matches_naive_and_pool1_passthrough():
    rng = make_rng(3, 10)
    x = rng.standard_normal((2, 3, 8, 8))
    out, idx = maxpool(x, 2)
    assert out.shape == (2, 3, 4, 4)
    for s in range(2):
        for c in range(3):
            for i in range(4):
                for j in range(4):
                    win = x[s, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                    assert out[s, c, i, j] == win.max()
    same, none_idx = maxpool(x, 1)
    assert same is x and none_idx is None
    assert maxpool_backward(x, None, 1) is x


def test_maxpool_ties_route_to_first_window_slot():
    x = np.full((1, 1, 2, 2), 5.0)
    out, idx = maxpool(x, 2)
    assert out[0, 0, 0, 0] == 5.0
    assert idx[0, 0, 0, 0] == 0
    g = np.ones((1, 1, 1, 1))
    back = maxpool_backward(g, idx, 2)
    assert np.array_equal(back[0, 0], [[1.0, 0.0], [0.0, 0.0]])


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_maxpool_backward_preserves_mass_and_hits_argmax(seed):
    rng = make_rng(seed, 11)
    x = rng.standard_normal((2, 2, 4, 4))
    g = rng.standard_normal((2, 2, 2, 2))
    out, idx = maxpool(x, 2)
    back = maxpool_backward(g, idx, 2)
    assert back.shape == x.shape
    assert float(back.sum()) == pytest.approx(float(g.sum()), rel=1e-12)
    # Every routed entry lands on a window maximum; everything else is zero.
    nonzero = back != 0
    assert np.count_nonzero(nonzero) <= g.size
    assert np.all(x[nonzero] == np.repeat(np.repeat(out, 2, axis=2), 2, axis=3)[nonzero])


def test_conv_spectral_norm_matches_materialized_svd():
    rng = make_rng(4, 10)
    # Square grids, then a 1x1 grid, a non-square one, c_in=1 and c_out=1.
    for c_out, c_in, h, w in [(2, 3, 5, 5), (3, 2, 4, 4),
                              (2, 3, 1, 1), (3, 2, 3, 5), (4, 1, 4, 3), (1, 5, 5, 4)]:
        k = rng.standard_normal((c_out, c_in, 3, 3))
        got = conv_spectral_norm(k, (h, w), TIGHT)
        mat = materialize_operator(lambda v: conv2d(v[None], k)[0], (c_in, h, w))
        assert got == pytest.approx(svd_oracle(mat), rel=1e-9)


def test_conv_spectral_norm_of_zero_kernel_is_zero():
    assert conv_spectral_norm(np.zeros((3, 2, 3, 3)), (4, 4)) == 0.0


def test_conv_spectral_norm_converges_on_tied_top_pair(monkeypatch):
    # The same 1-channel kernel on two channel blocks: every singular value of
    # the conv, the top one included, comes twice.
    block = make_rng(5, 10).standard_normal((1, 1, 3, 3))
    k = np.zeros((2, 2, 3, 3))
    k[0, 0] = k[1, 1] = block[0, 0]
    applies = []

    def counting(apply, *args):
        def counted(v):
            applies.append(1)
            return apply(v)
        return spectral_norm_operator(counted, *args)

    monkeypatch.setattr(models, "spectral_norm_operator", counting)
    got = conv_spectral_norm(k, (6, 6), TIGHT)
    single = svd_oracle(materialize_operator(lambda v: conv2d(v[None], block)[0], (1, 6, 6)))
    assert got == pytest.approx(single, rel=1e-9)
    # The stop rule, not the step cap, ended the iteration (3 applies are the
    # adjoint spot checks, one starts the iteration).
    assert len(applies) < 3 + 1 + TIGHT.max_iters


def _count_applies(monkeypatch) -> list:
    """Record each forward apply that conv_spectral_norm's operator makes."""
    applies = []

    def counting(apply, *args):
        def counted(v):
            applies.append(1)
            return apply(v)
        return spectral_norm_operator(counted, *args)

    monkeypatch.setattr(models, "spectral_norm_operator", counting)
    return applies


def test_conv_spectral_norm_matches_eigvalsh_across_restarts(monkeypatch):
    applies = _count_applies(monkeypatch)
    k = make_rng(7, 10).standard_normal((3, 4, 3, 3))
    got = conv_spectral_norm(k, (7, 7), TIGHT)
    mat = materialize_operator(lambda v: conv2d(v[None], k)[0], (4, 7, 7))
    want = np.sqrt(np.linalg.eigvalsh(mat.T @ mat)[-1])
    assert got == pytest.approx(want, rel=1e-9)
    # More Gram applies than the basis holds: the solver restarted.
    assert len(applies) > 3 + linalg._KRYLOV_DIM


def test_conv_spectral_norm_stops_at_max_iters(monkeypatch):
    applies = _count_applies(monkeypatch)
    k = make_rng(8, 10).standard_normal((3, 4, 3, 3))
    capped = PowerIterSettings(max_iters=linalg._KRYLOV_DIM // 2, rel_tol=1e-13)
    got = conv_spectral_norm(k, (7, 7), capped)
    # 3 applies are the adjoint spot checks.
    assert 3 + 1 < len(applies) <= 3 + capped.max_iters
    mat = materialize_operator(lambda v: conv2d(v[None], k)[0], (4, 7, 7))
    assert 0.0 < got <= svd_oracle(mat) * (1 + 1e-12)


def test_conv_spectral_norm_of_initial_cnn_layer_stays_cheap(monkeypatch):
    # The third conv of the benchmark's initial width-4 CNN (the seed is
    # derive_seed(0, "cnn-net") of perfbench/workloads.py) at its 16x16
    # grid, at the default tolerance.  Power iteration with a 3-vector
    # Rayleigh-Ritz basis took 870 Gram applies here.
    applies = _count_applies(monkeypatch)
    conv_spectral_norm(init_cnn(4, seed=1569516577).kernels[2], (16, 16))
    assert len(applies) < 400


def test_image_conv_matches_conv2d_bit_for_bit_and_keeps_no_state():
    rng = make_rng(6, 10)
    # conv2d runs the same apply per image; from 43 channels in (an inner
    # sum past 384) both block it.
    for c_out, c_in, hw in [(5, 3, 8), (2, 42, 6), (42, 4, 4), (3, 48, 4)]:
        k = rng.standard_normal((c_out, c_in, 3, 3))
        forward, adjoint = models._image_conv(k, hw, hw), models._image_conv(
            models._adjoint_kernel(k), hw, hw)
        for _ in range(2):  # the second call runs on reused buffers
            x = rng.standard_normal((c_in, hw, hw))
            g = rng.standard_normal((c_out, hw, hw))
            got_x, got_g = forward(x), adjoint(g)
            assert np.array_equal(got_x, conv2d(x[None], k)[0])
            assert np.array_equal(got_g, conv2d_adjoint(g[None], k)[0])
        # The same input gives the same bits on reused and on fresh buffers.
        assert np.array_equal(got_x, models._image_conv(k, hw, hw)(x))
        assert np.array_equal(forward(x), got_x)


# ---------------------------------------------------------------------------
# Conv net


def test_cnn_shapes_and_param_count_formula():
    for w in [1, 2, 3]:
        net = init_cnn(w, seed=0)
        assert net.param_count == 378 * w * w + 107 * w
        x = make_rng(w, 12).standard_normal(3072)
        out = net.forward(x)
        assert out.shape == (10,)
        batch = net.forward(np.stack([x, x]))
        assert batch.shape == (2, 10)
        assert np.array_equal(batch[0], batch[1])


def test_cnn_accepts_flat_and_image_inputs():
    net = init_cnn(1, seed=2)
    x = make_rng(9, 12).standard_normal((2, 3, 32, 32))
    flat = x.reshape(2, -1)
    assert np.array_equal(net.forward(x), net.forward(flat))
    with pytest.raises(ValueError, match="input dim"):
        net.forward(np.zeros((2, 100)))
    with pytest.raises(ValueError, match="input shape"):
        net.forward(np.zeros((2, 3, 16, 16)))


def test_cnn_positive_homogeneity_exact_for_dyadic_scales():
    net = init_cnn(1, seed=5)
    x = make_rng(3, 13).standard_normal(3072)
    for c in [0.25, 0.5, 2.0, 8.0]:
        assert np.array_equal(net.forward(c * x), c * net.forward(x))


def test_cnn_jacobian_times_input_recovers_output():
    net = init_cnn(1, seed=7)
    x = make_rng(4, 13).standard_normal(3072)
    jac = net.input_jacobians(x[None])[0]
    assert jac.shape == (10, 3072)
    np.testing.assert_allclose(jac @ x, net.forward(x), rtol=1e-9, atol=1e-11)


def test_cnn_jacobian_matches_directional_difference():
    net = init_cnn(1, seed=8)
    rng = make_rng(5, 13)
    x = rng.standard_normal(3072)
    v = rng.standard_normal(3072)
    v /= np.linalg.norm(v)
    jac = net.input_jacobians(x[None])[0]
    h = 1e-6
    fd = (net.forward(x + h * v) - net.forward(x - h * v)) / (2 * h)
    np.testing.assert_allclose(fd, jac @ v, rtol=1e-5, atol=1e-6)


def test_cnn_batched_jacobians_stack_singles():
    net = init_cnn(1, seed=9)
    xs = make_rng(6, 13).standard_normal((3, 3072))
    batch = net.input_jacobians(xs)
    assert batch.shape == (3, 10, 3072)
    for i in range(3):
        assert np.array_equal(batch[i], net.input_jacobians(xs[i][None])[0])


def test_cnn_batched_jacobians_match_per_image_backprop():
    # Reference: each image repeated once per output row and swept back
    # with the identity cotangent, one image at a time.
    net = init_cnn(2, seed=11)
    xs = make_rng(8, 13).standard_normal((3, 3072))
    got = net.input_jacobians(xs)
    for i in range(3):
        batch = np.repeat(xs[i].reshape(1, 3, 32, 32), 10, axis=0)
        _, cache = net.forward_cached(batch)
        want = net.backprop_input(cache, np.eye(10))
        np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-14)
        assert np.array_equal(got[i], net.input_jacobians(xs[i][None])[0])
    seeds = make_rng(9, 13).standard_normal((3, 4, 10))
    np.testing.assert_allclose(net.input_jacobians(xs, lambda out: seeds), seeds @ got,
                               rtol=1e-11, atol=1e-13)


def test_cnn_backprop_params_matches_finite_differences():
    net = init_cnn(1, seed=10)
    rng = make_rng(7, 13)
    x = rng.standard_normal((2, 3072))
    w = rng.standard_normal((2, 10))

    def scalar(n):
        return float(np.sum(w * n.forward(x)))

    _, cache = net.forward_cached(x)
    grads = net.backprop_params(cache, w)
    h = 1e-6
    arrays = net.weight_arrays()
    for li in [0, 2, 4]:
        flat_idx = [0, arrays[li].size - 1]
        for fi in flat_idx:
            idx = np.unravel_index(fi, arrays[li].shape)
            arrays[li][idx] += h
            up = scalar(net)
            arrays[li][idx] -= 2 * h
            down = scalar(net)
            arrays[li][idx] += h
            np.testing.assert_allclose((up - down) / (2 * h), grads[li][idx],
                                       rtol=1e-4, atol=1e-6)


def test_cnn_layer_spectral_norms_shape_and_head_value():
    net = init_cnn(1, seed=11)
    norms = net.layer_spectral_norms(TIGHT)
    assert len(norms) == 5
    assert all(v > 0 for v in norms)
    assert norms[-1] == pytest.approx(svd_oracle(net.linear_w), rel=1e-9)


def test_init_cnn_is_deterministic():
    a = init_cnn(2, seed=42)
    b = init_cnn(2, seed=42)
    assert np.array_equal(a.param_vector(), b.param_vector())
    c = init_cnn(2, seed=43)
    assert not np.array_equal(a.param_vector(), c.param_vector())
    with pytest.raises(ValueError, match="width"):
        init_cnn(0, seed=0)


def test_cnn_constructor_rejects_wrong_shapes():
    good = init_cnn(1, seed=0)
    with pytest.raises(ValueError, match="conv 0"):
        CnnNet(1, [np.zeros((2, 3, 3, 3)), *good.kernels[1:]], good.linear_w)
    with pytest.raises(ValueError, match="linear"):
        CnnNet(1, good.kernels, np.zeros((10, 4)))


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    for net in [init_ff(7, [5, 4], 3, seed=31), init_cnn(1, seed=31)]:
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path, seed=31, epoch=12)
        loaded, meta = load_checkpoint(path)
        assert meta == {"seed": 31, "epoch": 12, "arch": net.arch_spec()}
        assert np.array_equal(loaded.param_vector(), net.param_vector())


def test_checkpoint_rejects_foreign_and_tampered_files(tmp_path):
    import json

    net = init_ff(4, [3], 2, seed=0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(net, path, seed=0, epoch=0)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(bad)

    obj = json.loads(path.read_text())
    obj["version"] = 99
    bad.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(bad)

    obj = json.loads(path.read_text())
    obj["layers"] = obj["layers"][:1]
    bad.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="weight arrays"):
        load_checkpoint(bad)

    obj = json.loads(path.read_text())
    obj["layers"][0]["shape"] = [2, 2]
    bad.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(bad)

    obj = json.loads(path.read_text())
    obj["layers"][0]["shape"] = obj["layers"][0]["shape"][::-1]
    bad.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=r"bad\.json: layer 0 weight shape \(4, 3\), expected \(3, 4\)"):
        load_checkpoint(bad)


def test_build_net_rejects_unknown_family():
    with pytest.raises(ValueError, match="family"):
        build_net({"family": "transformer"})
    with pytest.raises(ValueError, match="family"):
        weight_shapes({"family": "rnn"})
