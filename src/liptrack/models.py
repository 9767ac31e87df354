"""Zero-bias ReLU networks: feed-forward stacks and a 4-block conv net.

Both families expose the same small surface: ``forward``, cached
forward/backward for training, per-sample input Jacobians, per-layer
spectral norms, and a flat parameter vector.  Weights are 64-bit
throughout so analysis quantities cross-check against exact oracles.

Each family has one forward pass, ``forward_cached``; ``forward`` is that
pass with its cache dropped.  Both apply every ReLU in place on its
layer's output and keep only the activations, so the backward loop reads
each mask as ``act > 0``: true exactly where the pre-activation is > 0,
since a NaN stays NaN.

:func:`weight_shapes` is each family's one layer plan: the constructors,
initialization, checkpoints and parameter counts all derive from it.

Input Jacobians of a depth-1 FF net, ``J_i = D2_i W2 D1_i W1`` with sample
i's 0/1 ReLU masks on the diagonals, are one GEMM per chunk: the (n, width)
hidden masks times the (width, out·in) matrix ``W2[k, j] · W1[j, l]``, then
the output masks; no (n, out, width) tensor is built.  That matrix and the
chunk's row buffers live in a :class:`Depth1Workspace`.  A stream of chunks
over one net with fixed weights (:func:`jacobian_stream`, used by the
bounds and ensembles) builds one and reuses it, so each result is valid
only until the stream's next call.  Deeper FF nets and the conv net sweep
seed rows back through their family's one backward loop, which also gives
the training gradients.  Every 3x3 conv is one :func:`_image_conv` per image.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .linalg import (PowerIterSettings, make_rng, spectral_norm_dense, spectral_norm_operator,
                     stable_matmul, vector_norm)

CHECKPOINT_FORMAT = "liptrack-checkpoint"
CHECKPOINT_VERSION = 1

_INIT_STREAM = 0x11A7


def weight_shapes(arch: dict) -> list[tuple]:
    """The weight shapes of an architecture spec (``arch_spec()``), input
    side first: the only place that spells out a family's layer plan."""
    family = arch.get("family")
    if family == "ff":
        dims = [int(arch["input_dim"]), *(int(w) for w in arch["widths"]), int(arch["output_dim"])]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
    if family == "cnn":
        # Channels 3 -> w -> 2w -> 4w -> 8w with 3x3 kernels; the pools leave
        # one pixel of 8w channels for the 10-way head.
        w = int(arch["width"])
        chans = [3, w, 2 * w, 4 * w, 8 * w]
        return [*((chans[i + 1], chans[i], 3, 3) for i in range(4)), (10, 8 * w)]
    raise ValueError(f"unknown architecture family {family!r}")


class _ZeroBiasNet:
    """What both families share: the weights are ``weight_arrays()``, one
    array per entry of the layer plan, and the parameter vector is their
    concatenation in that order."""

    def _checked_weights(self, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        """``arrays`` as float64, checked against this net's layer plan."""
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        shapes = weight_shapes(self.arch_spec())
        if len(arrays) != len(shapes):
            raise ValueError(f"{len(arrays)} weight arrays, expected {len(shapes)}")
        for i, (a, shape) in enumerate(zip(arrays, shapes)):
            if a.shape != shape:
                raise ValueError(f"{self._layer_name(i)} weight shape {a.shape}, expected {shape}")
        return arrays

    @property
    def param_count(self) -> int:
        return sum(a.size for a in self.weight_arrays())

    def copy(self):
        return build_net(self.arch_spec(), [a.copy() for a in self.weight_arrays()])

    def param_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.weight_arrays()])

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the net to one flat sample or a batch: :meth:`forward_cached`'s
        output, its cache dropped."""
        out, _ = self.forward_cached(x)
        return out[0] if np.ndim(x) == 1 else out

    def backprop_params(self, cache, dout: np.ndarray) -> list[np.ndarray]:
        """Gradients of a scalar loss w.r.t. each weight, given d(loss)/d(output)."""
        grads: list[np.ndarray] = [None] * len(self.weight_arrays())
        self._backward(cache, dout, grads)
        return grads

    def backprop_input(self, cache, dout: np.ndarray) -> np.ndarray:
        """Cotangent rows swept back to the flat input, ``(n, input_dim)``."""
        return self._backward(cache, dout)


class FFReluNet(_ZeroBiasNet):
    """Fully-connected net: zero-bias linear layers, ReLU after every one.

    The trailing ReLU is applied after the last linear layer too, so
    outputs are always nonnegative.  ``widths`` lists hidden sizes from
    input side to output side.
    """

    family = "ff"

    def __init__(self, input_dim: int, widths: Sequence[int], output_dim: int,
                 weights: Sequence[np.ndarray]):
        self.input_dim = int(input_dim)
        self.widths = [int(w) for w in widths]
        self.output_dim = int(output_dim)
        self.weights = self._checked_weights(weights)

    @staticmethod
    def _layer_name(i: int) -> str:
        return f"layer {i}"

    def weight_arrays(self) -> list[np.ndarray]:
        return self.weights

    def arch_spec(self) -> dict:
        return {"family": "ff", "input_dim": self.input_dim,
                "widths": list(self.widths), "output_dim": self.output_dim}

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dim:
            raise ValueError(f"input dim {x.shape[-1]}, expected {self.input_dim}")
        return x

    def forward_cached(self, x: np.ndarray):
        """Batch forward that keeps every layer's activations, the input
        first, for backprop; each ReLU acts in place on its GEMM's output."""
        a = self._check_input(np.atleast_2d(x))
        acts = [a]
        for w in self.weights:
            a = a @ w.T
            np.maximum(a, 0.0, out=a)
            acts.append(a)
        return a, acts

    def _backward(self, acts, g: np.ndarray, grads: list | None = None) -> np.ndarray:
        """Sweep cotangent rows, (n, out) or seed rows (n, m, out), back to the
        input; or, into ``grads``, the weight gradients of (n, out) rows."""
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            # A unit is active where its activation, like its pre-activation, is > 0 (a NaN
            # stays NaN).  The caller's rows are masked out of place, this loop's own products
            # in place.  Each sample's mask, broadcast over its seed rows, is freed before the
            # GEMMs (held across them, it multiplied SGD steps' page faults: glibc trimming).
            g = np.multiply(g, acts[i + 1] > 0 if g.ndim == 2 else (acts[i + 1] > 0)[:, None, :],
                            out=None if i == last else g)
            if grads is not None:
                grads[i] = g.T @ acts[i]
                if i == 0:
                    break
            w = self.weights[i]
            g = (g.reshape(-1, w.shape[0]) @ w).reshape(*g.shape[:-1], w.shape[1])
        return g

    def input_jacobians(self, x: np.ndarray,
                        cotangents: Callable[[np.ndarray], np.ndarray] | None = None,
                        workspace: "Depth1Workspace | None" = None) -> np.ndarray:
        """Per-sample Jacobians d(output)/d(input), shape ``(n, out, in)``.

        ``cotangents``, when given, maps the ``(n, out)`` outputs to
        ``(n, m, out)`` seed rows and the result is their product with the
        Jacobian, ``(n, m, in)``; this composes an output map such as
        softmax without a separate per-sample matrix product.

        Depth 1 (two weight matrices): ``J_i = D2_i W2 D1_i W1`` with the
        samples' 0/1 ReLU masks on the diagonals, so row k of ``J_i`` is
        ``m2_ik · Σ_j m1_ij · W2[k, j] W1[j, :]``.  All ``n`` Jacobians are
        one ``(n, width) @ (width, out·in)`` GEMM of the hidden masks with
        the outer-product matrix of :class:`Depth1Workspace`, times the
        output masks; seed rows multiply that stack as one batched product.
        A ``workspace`` built once for a stream of chunks keeps that matrix
        and the row buffers across calls; the result is then a view into the
        workspace, valid until its next call.  Without one, a fresh
        workspace serves this call alone.

        Deeper nets use reverse mode: one forward pass records the ReLU
        masks, then :meth:`backprop_input` sweeps the seed rows (identity
        rows without ``cotangents``) of all ``n`` samples back together, one
        ``(n·m, width) @ W`` product per layer.

        ReLU units exactly at zero count as inactive, so the Jacobian at
        the origin is the zero matrix.
        """
        if len(self.weights) == 2:
            if workspace is None:
                workspace = Depth1Workspace(self)
            return self._depth1_jacobians(self._check_input(np.atleast_2d(x)), cotangents, workspace)
        out, cache = self.forward_cached(x)
        return self.backprop_input(cache, _seed_rows(out, cotangents))

    def _depth1_jacobians(self, x: np.ndarray, cotangents, ws: "Depth1Workspace") -> np.ndarray:
        w1, w2 = self.weights
        n = x.shape[0]
        out_dim = w2.shape[0]
        # One row buffer holds the pre-activations, then the hidden
        # activations, then the 0/1 hidden mask (a unit is active exactly
        # where its activation is positive).
        hidden = np.matmul(x, w1.T, out=ws.rows("hidden", n, w1.shape[0]))
        np.maximum(hidden, 0.0, out=hidden)
        out = hidden @ w2.T
        np.maximum(out, 0.0, out=out)
        np.greater(hidden, 0.0, out=hidden)
        jac = np.matmul(hidden, ws.outer, out=ws.rows("jac", n, ws.outer.shape[1]))
        jac = jac.reshape(n, out_dim, self.input_dim)
        active = out > 0
        if cotangents is None:
            jac *= active[:, :, None]
            return jac
        seeds = cotangents(out) * active[:, None, :]
        return np.matmul(seeds, jac, out=ws.rows("seeded", n, seeds.shape[1], self.input_dim))

    def layer_spectral_norms(self, settings: PowerIterSettings = PowerIterSettings()) -> list[float]:
        """2-norm of every linear layer, exact up to ``EXACT_SIDE_CAP`` on the
        smaller side (the Krylov eigensolver above); the ReLUs are 1-Lipschitz."""
        return [spectral_norm_dense(w, settings) for w in self.weights]


class Depth1Workspace:
    """What a depth-1 :meth:`FFReluNet.input_jacobians` keeps across the
    chunks of one stream, for a net whose weights stay fixed meanwhile.

    ``outer`` is the (width, out·in) matrix ``outer[j, k·in + l] =
    W2[k, j] · W1[j, l]``, built once.  The row buffers grow to the largest
    chunk seen and are reused, so a stream of chunks allocates nothing of
    a chunk's (rows, width) or (rows, out·in) size: per-chunk temporaries
    that large made glibc trim and re-grow its heap on every chunk.
    """

    def __init__(self, net: FFReluNet):
        w1, w2 = net.weights
        self.outer = (w2.T[:, :, None] * w1[:, None, :]).reshape(w1.shape[0], -1)
        self._buffers: dict[str, np.ndarray] = {}

    def rows(self, name: str, n: int, *shape: int) -> np.ndarray:
        """The first ``n`` rows of the reused buffer ``name``, of row shape ``shape``."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] < n or buf.shape[1:] != shape:
            buf = self._buffers[name] = np.empty((n, *shape))
        return buf[:n]


def _seed_rows(out: np.ndarray, cotangents: Callable[[np.ndarray], np.ndarray] | None) -> np.ndarray:
    """The ``(n, m, out)`` rows a Jacobian sweep starts from: ``cotangents(out)``,
    or without it each sample's identity rows, which give the plain Jacobian."""
    if cotangents is not None:
        return cotangents(out)
    n, k = out.shape
    return np.broadcast_to(np.eye(k), (n, k, k))


def jacobian_stream(net, cotangents: Callable[[np.ndarray], np.ndarray] | None = None
                    ) -> Callable[[np.ndarray], np.ndarray]:
    """``x -> net.input_jacobians(x, cotangents)`` for the chunks of one
    stream.  A depth-1 FF net's calls share one :class:`Depth1Workspace`,
    so each result is overwritten by the next call."""
    if isinstance(net, FFReluNet) and len(net.weights) == 2:
        workspace = Depth1Workspace(net)
        return lambda x: net.input_jacobians(x, cotangents, workspace=workspace)
    return lambda x: net.input_jacobians(x, cotangents)


def init_ff(input_dim: int, widths: Sequence[int], output_dim: int, seed: int) -> FFReluNet:
    """Fresh feed-forward net, fan-in-scaled uniform weights (ReLU gain).

    Each entry is uniform on ``[-b, b]`` with ``b = sqrt(3) * sqrt(2 / fan_in)``,
    drawn from the seeded generator, so the same seed reproduces the net.
    """
    widths = [int(w) for w in widths]
    if any(w <= 0 for w in widths) or int(input_dim) <= 0 or int(output_dim) <= 0:
        raise ValueError(f"all dimensions must be positive, got widths={widths}")
    return _fan_in_init({"family": "ff", "input_dim": int(input_dim), "widths": widths,
                         "output_dim": int(output_dim)}, seed)


def _fan_in_init(arch: dict, seed: int):
    """``arch``'s net with one draw per layer of the plan, in order (see :func:`init_ff`)."""
    rng = make_rng(seed, _INIT_STREAM)
    arrays = []
    for shape in weight_shapes(arch):
        bound = math.sqrt(3.0) * math.sqrt(2.0 / math.prod(shape[1:]))  # fan-in: all but axis 0
        arrays.append(rng.uniform(-bound, bound, size=shape))
    return build_net(arch, arrays)


# ---------------------------------------------------------------------------
# Conv net


def _patch_builder(c: int, h: int, w: int) -> Callable[[np.ndarray], np.ndarray]:
    """im2col of (c, h, w) images, zero-padded by 1, into one reused patch
    matrix: rows ordered (channel, di, dj), one column per output pixel, so
    a (c_out, c·9) kernel matrix times it is the 3x3 convolution.

    Keeps a zero-padded image whose border stays zero, a 3x3 window view of
    it and the patch matrix across calls.  Each call copies the image into
    the padding and the windows into the patch matrix, and returns that
    matrix, which the next call overwrites.
    """
    padded = np.zeros((c, h + 2, w + 2))
    interior = padded[:, 1:-1, 1:-1]
    sc, sh, sw = padded.strides  # windows[c, di, dj, i, j] = padded[c, i + di, j + dj]
    windows = np.lib.stride_tricks.as_strided(padded, (c, 3, 3, h, w), (sc, sh, sw, sh, sw),
                                              writeable=False)
    cols = np.empty((c, 3, 3, h, w))
    patch_matrix = cols.reshape(c * 9, h * w)

    def build(img: np.ndarray) -> np.ndarray:
        interior[...] = img
        np.copyto(cols, windows)
        return patch_matrix

    return build


def _image_conv(kernel: np.ndarray, h: int, w: int) -> Callable[..., np.ndarray]:
    """The 3x3 convolution of one (c_in, h, w) image, for calling many times:
    every conv of this module is this GEMM.

    Builds its :func:`_patch_builder` once, so the padded image, window view
    and patch matrix live across calls.  The GEMM is :func:`stable_matmul`,
    so the result does not depend on the BLAS thread count through the
    ``c_in * 9`` inner sum; up to 384 terms that is one ``np.matmul``.  The
    result goes into ``out``, a C-contiguous array of ``c_out * h * w``
    entries, or else into a new (c_out, h, w) array; nothing of one call
    shows in the next.
    """
    c_out, c_in = kernel.shape[:2]
    kmat = kernel.reshape(c_out, -1)
    patches = _patch_builder(c_in, h, w)

    def apply(img: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((c_out, h, w))
        stable_matmul(kmat, patches(img), out=out.reshape(c_out, h * w))
        return out

    return apply


def conv2d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """3x3 convolution, stride 1, zero padding 1, zero bias.

    ``x``: (n, c_in, h, w); ``kernel``: (c_out, c_in, 3, 3).  Each image is
    one :func:`_image_conv` apply, so a sample's result does not depend on
    the batch it sits in, nor on the BLAS thread count.
    """
    n, _, h, w = x.shape
    apply = _image_conv(kernel, h, w)
    out = np.empty((n, kernel.shape[0], h, w))
    for b in range(n):
        apply(x[b], out=out[b])
    return out


def _adjoint_kernel(kernel: np.ndarray) -> np.ndarray:
    """The kernel whose convolution is the transpose of ``kernel``'s: flipped
    in space, channels swapped."""
    return kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


def conv2d_adjoint(g: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Exact transpose of :func:`conv2d` as a linear map in ``x``: the
    convolution of ``g`` with the kernel flipped in space and transposed in
    channels."""
    return conv2d(g, _adjoint_kernel(kernel))


def conv2d_kernel_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of ``<conv2d(x, k), g>`` in ``k``: per image, ``g`` times the
    transposed patch matrix, summed over the images in order."""
    n, c_in, h, w = x.shape
    c_out = g.shape[1]
    patches = _patch_builder(c_in, h, w)
    dk = np.zeros((c_out, c_in * 9))
    for b in range(n):
        dk += g[b].reshape(c_out, -1) @ patches(x[b]).T
    return dk.reshape(c_out, c_in, 3, 3)


def maxpool(x: np.ndarray, p: int):
    """p-by-p max pooling with stride p; returns output and argmax indices.

    Ties go to the first maximal element in row-major window order, so
    the backward routing is deterministic.
    """
    if p == 1:
        return x, None
    n, c, h, w = x.shape
    xr = x.reshape(n, c, h // p, p, w // p, p)
    win = xr.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // p, w // p, p * p)
    idx = np.argmax(win, axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return out, idx


def maxpool_backward(g: np.ndarray, idx, p: int) -> np.ndarray:
    if p == 1:
        return g
    n, c, ho, wo = g.shape
    win_g = np.zeros((n, c, ho, wo, p * p))
    np.put_along_axis(win_g, idx[..., None], g[..., None], axis=-1)
    xr = win_g.reshape(n, c, ho, wo, p, p).transpose(0, 1, 2, 4, 3, 5)
    return xr.reshape(n, c, ho * p, wo * p)


def conv_spectral_norm(kernel: np.ndarray, in_hw: tuple[int, int],
                       settings: PowerIterSettings = PowerIterSettings()) -> float:
    """Operator 2-norm of a padded 3x3 conv layer at a given spatial size.

    Runs the Krylov eigensolver of :func:`~liptrack.linalg.spectral_norm_operator`
    on the implicit map instead of materializing the block-Toeplitz matrix
    of the convolution.  The forward and adjoint single-image applies are
    built once per call (:func:`_image_conv`) and reuse their padded image,
    window view and patch matrix at every step.
    """
    c_out, c_in = kernel.shape[0], kernel.shape[1]
    h, w = in_hw
    return spectral_norm_operator(_image_conv(kernel, h, w),
                                  _image_conv(_adjoint_kernel(kernel), h, w),
                                  (c_in, h, w), (c_out, h, w), settings)


class CnnNet(_ZeroBiasNet):
    """Four Conv-ReLU-MaxPool blocks plus a zero-bias linear head.

    Conv channels follow ``[w, 2w, 4w, 8w]`` with 3x3 kernels, stride 1,
    padding 1; pool sizes are ``[1, 2, 2, 8]``, which collapse a 32x32x3
    input to a single 8w-vector before the 10-way linear layer.
    """

    family = "cnn"
    pools = (1, 2, 2, 8)
    input_shape = (3, 32, 32)
    input_dim = math.prod(input_shape)

    def __init__(self, width: int, kernels: Sequence[np.ndarray], linear_w: np.ndarray):
        self.width = int(width)
        *self.kernels, self.linear_w = self._checked_weights([*kernels, linear_w])

    def _layer_name(self, i: int) -> str:
        return f"conv {i}" if i < len(self.pools) else "linear"

    @property
    def output_dim(self) -> int:
        return self.linear_w.shape[0]

    def weight_arrays(self) -> list[np.ndarray]:
        return [*self.kernels, self.linear_w]

    def arch_spec(self) -> dict:
        return {"family": "cnn", "width": self.width}

    def _as_images(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None]
        if x.ndim == 2:
            if x.shape[1] != self.input_dim:
                raise ValueError(f"input dim {x.shape[1]}, expected {self.input_dim}")
            return x.reshape(-1, *self.input_shape)
        if x.ndim == 3:
            if x.shape != self.input_shape:
                raise ValueError(f"input shape {x.shape}, expected {self.input_shape}")
            return x[None]
        if x.shape[1:] != self.input_shape:
            raise ValueError(f"input shape {x.shape[1:]}, expected {self.input_shape}")
        return x

    def forward_cached(self, x: np.ndarray):
        """Batch forward that keeps each block's input, ReLU activation and
        pooling routes for backprop; each ReLU acts in place on its conv's
        output, as in :meth:`FFReluNet.forward_cached`."""
        a = self._as_images(x)
        block_caches = []
        for k, p in zip(self.kernels, self.pools):
            act = conv2d(a, k)
            np.maximum(act, 0.0, out=act)
            pooled, idx = maxpool(act, p)
            block_caches.append((a, act, idx))
            a = pooled
        feat = a.reshape(a.shape[0], -1)
        out = feat @ self.linear_w.T
        return out, (block_caches, feat)

    def _backward(self, cache, dout: np.ndarray, grads: list | None = None) -> np.ndarray:
        """Sweep (n, 10) cotangent rows back to flat (n, 3072) input rows; or,
        into ``grads``, the weight gradients (see :meth:`FFReluNet._backward`).
        Every cotangent is this loop's own product, from ``dout @ linear_w``
        on, so each ReLU mask, read from the activation, applies in place."""
        block_caches, feat = cache
        if grads is not None:
            grads[-1] = dout.T @ feat
        g = (dout @ self.linear_w).reshape(*feat.shape, 1, 1)
        for i in range(len(self.kernels) - 1, -1, -1):
            a_in, act, idx = block_caches[i]
            g = maxpool_backward(g, idx, self.pools[i])
            np.multiply(g, act > 0, out=g)
            if grads is not None:
                grads[i] = conv2d_kernel_grad(a_in, g)
                if i == 0:
                    break
            g = conv2d_adjoint(g, self.kernels[i])
        return g.reshape(g.shape[0], -1)

    def input_jacobians(self, x: np.ndarray,
                        cotangents: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
        """Per-sample Jacobians, shape ``(n, 10, 3072)``.

        One forward pass over the batch fixes the ReLU masks and pooling
        routes, then one backward sweep per seed row carries that row's
        cotangent for every sample at once.  ``cotangents`` works as in
        :meth:`FFReluNet.input_jacobians`.
        """
        out, cache = self.forward_cached(x)
        seeds = _seed_rows(out, cotangents)
        jac = np.empty((out.shape[0], seeds.shape[1], self.input_dim))
        for k in range(seeds.shape[1]):
            jac[:, k, :] = self.backprop_input(cache, seeds[:, k, :])
        return jac

    def layer_spectral_norms(self, settings: PowerIterSettings = PowerIterSettings()) -> list[float]:
        """Operator norms of the 4 convs (at their true spatial sizes) + the head."""
        norms = []
        hw = self.input_shape[1]
        for k, p in zip(self.kernels, self.pools):
            norms.append(conv_spectral_norm(k, (hw, hw), settings))
            hw //= p
        norms.append(spectral_norm_dense(self.linear_w, settings))
        return norms


def init_cnn(width: int, seed: int) -> CnnNet:
    """Fresh conv net with the same fan-in uniform scheme as :func:`init_ff`."""
    width = int(width)
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return _fan_in_init({"family": "cnn", "width": width}, seed)


def param_distance(net, reference: np.ndarray) -> float:
    """2-norm of (current parameters - reference vector)."""
    reference = np.asarray(reference, dtype=np.float64)
    theta = net.param_vector()
    if theta.shape != reference.shape:
        raise ValueError(f"parameter length {theta.shape[0]} vs reference {reference.shape[0]}")
    return vector_norm(theta - reference)


def build_net(arch: dict, arrays: Sequence[np.ndarray] | None = None):
    """The net of an architecture spec with ``arrays`` as its weights, in
    ``weight_arrays()`` order (taken as they are, not copied, when float64),
    or with zero weights when ``arrays`` is None."""
    shapes = weight_shapes(arch)
    if arrays is None:
        arrays = [np.zeros(shape) for shape in shapes]
    if arch["family"] == "ff":
        return FFReluNet(arch["input_dim"], arch["widths"], arch["output_dim"], arrays)
    if len(arrays) != len(shapes):  # before the head is split off
        raise ValueError(f"{len(arrays)} weight arrays, expected {len(shapes)}")
    return CnnNet(arch["width"], arrays[:-1], arrays[-1])


def save_checkpoint(net, path, seed: int, epoch: int) -> None:
    """Write a self-describing JSON checkpoint (weights as little-endian f8, base64)."""
    layers = []
    for a in net.weight_arrays():
        raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
        layers.append({"shape": list(a.shape), "dtype": "<f8",
                       "data": base64.b64encode(raw).decode("ascii")})
    obj = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
           "arch": net.arch_spec(), "seed": int(seed), "epoch": int(epoch),
           "layers": layers}
    Path(path).write_text(json.dumps(obj))


def load_checkpoint(path):
    """Read a checkpoint; returns (net, meta) with meta = {seed, epoch, arch}."""
    obj = json.loads(Path(path).read_text())
    if obj.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a checkpoint file")
    if obj.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {obj.get('version')!r}")
    arrays = []
    for layer in obj["layers"]:
        raw = base64.b64decode(layer["data"])
        arrays.append(np.frombuffer(raw, dtype=layer["dtype"]).reshape(layer["shape"]).astype(np.float64))
    try:
        net = build_net(obj["arch"], arrays)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return net, {"seed": obj["seed"], "epoch": obj["epoch"], "arch": obj["arch"]}
