"""Zero-bias ReLU networks: feed-forward stacks and a 4-block conv net.

Both families expose the same small surface: ``forward``, cached
forward/backward for training, per-sample input Jacobians, per-layer
spectral norms, and a flat parameter vector.  Weights are 64-bit
throughout so analysis quantities cross-check against exact oracles.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .linalg import PowerIterSettings, make_rng, spectral_norm_dense, spectral_norm_operator

CHECKPOINT_FORMAT = "liptrack-checkpoint"
CHECKPOINT_VERSION = 1

_INIT_STREAM = 0x11A7


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


class FFReluNet:
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
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        dims = [self.input_dim, *self.widths, self.output_dim]
        for i, w in enumerate(self.weights):
            if w.shape != (dims[i + 1], dims[i]):
                raise ValueError(f"layer {i} weight shape {w.shape}, expected {(dims[i + 1], dims[i])}")

    @property
    def param_count(self) -> int:
        return sum(w.size for w in self.weights)

    def weight_arrays(self) -> list[np.ndarray]:
        return self.weights

    def arch_spec(self) -> dict:
        return {"family": "ff", "input_dim": self.input_dim,
                "widths": list(self.widths), "output_dim": self.output_dim}

    def copy(self) -> "FFReluNet":
        return FFReluNet(self.input_dim, self.widths, self.output_dim,
                         [w.copy() for w in self.weights])

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dim:
            raise ValueError(f"input dim {x.shape[-1]}, expected {self.input_dim}")
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the net to one sample ``(d,)`` or a batch ``(n, d)``."""
        x = self._check_input(x)
        single = x.ndim == 1
        a = x[None, :] if single else x
        for w in self.weights:
            a = _relu(a @ w.T)
        return a[0] if single else a

    def forward_cached(self, x: np.ndarray):
        """Batch forward that keeps pre-activations for backprop."""
        a = self._check_input(np.atleast_2d(x))
        acts = [a]
        pres = []
        for w in self.weights:
            z = a @ w.T
            pres.append(z)
            a = _relu(z)
            acts.append(a)
        return a, (acts, pres)

    def backprop_params(self, cache, dout: np.ndarray) -> list[np.ndarray]:
        """Gradients of a scalar loss w.r.t. each weight, given d(loss)/d(output)."""
        acts, pres = cache
        g = dout
        grads: list[np.ndarray] = [None] * len(self.weights)
        for i in range(len(self.weights) - 1, -1, -1):
            g = g * (pres[i] > 0)
            grads[i] = g.T @ acts[i]
            if i > 0:
                g = g @ self.weights[i]
        return grads

    def backprop_input(self, cache, dout: np.ndarray) -> np.ndarray:
        acts, pres = cache
        g = dout
        for i in range(len(self.weights) - 1, -1, -1):
            g = g * (pres[i] > 0)
            g = g @ self.weights[i]
        return g

    def input_jacobians(self, x: np.ndarray,
                        cotangents: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
        """Per-sample Jacobians d(output)/d(input), shape ``(n, out, in)``.

        Reverse mode: one forward pass records the ReLU masks, then the
        output rows of all ``n`` samples are swept back together, one
        ``(n·out, width) @ W`` product per layer.  ``cotangents``, when
        given, maps the ``(n, out)`` outputs to ``(n, m, out)`` seed rows
        and the result is their product with the Jacobian, ``(n, m, in)``;
        this composes an output map such as softmax without a separate
        per-sample matrix product.

        ReLU units exactly at zero count as inactive, so the Jacobian at
        the origin is the zero matrix.
        """
        a = self._check_input(np.atleast_2d(x))
        masks = []
        for w in self.weights:
            z = a @ w.T
            masks.append(z > 0)
            a = _relu(z)
        n = a.shape[0]
        last = self.weights[-1]
        if cotangents is None:
            g = masks[-1][:, :, None] * last[None, :, :]
        else:
            seeds = cotangents(a) * masks[-1][:, None, :]
            g = (seeds.reshape(-1, last.shape[0]) @ last).reshape(n, -1, last.shape[1])
        for w, m in zip(self.weights[-2::-1], masks[-2::-1]):
            g *= m[:, None, :]
            g = (g.reshape(-1, w.shape[0]) @ w).reshape(n, -1, w.shape[1])
        return g

    def input_jacobian(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("input_jacobian takes a single sample; use input_jacobians for batches")
        return self.input_jacobians(x[None, :])[0]

    def layer_spectral_norms(self, settings: PowerIterSettings = PowerIterSettings()) -> list[float]:
        """2-norm of every linear layer; the ReLUs in between are 1-Lipschitz."""
        return [spectral_norm_dense(w, settings) for w in self.weights]

    def param_vector(self) -> np.ndarray:
        return np.concatenate([w.ravel() for w in self.weights])

    def set_param_vector(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.param_count,):
            raise ValueError(f"parameter vector length {theta.shape}, expected ({self.param_count},)")
        ofs = 0
        for w in self.weights:
            w[...] = theta[ofs:ofs + w.size].reshape(w.shape)
            ofs += w.size


def init_ff(input_dim: int, widths: Sequence[int], output_dim: int, seed: int) -> FFReluNet:
    """Fresh feed-forward net, fan-in-scaled uniform weights (ReLU gain).

    Each entry is uniform on ``[-b, b]`` with ``b = sqrt(3) * sqrt(2 / fan_in)``,
    drawn from the seeded generator, so the same seed reproduces the net.
    """
    widths = [int(w) for w in widths]
    if any(w <= 0 for w in widths) or int(input_dim) <= 0 or int(output_dim) <= 0:
        raise ValueError(f"all dimensions must be positive, got widths={widths}")
    rng = make_rng(seed, _INIT_STREAM)
    dims = [int(input_dim), *widths, int(output_dim)]
    weights = []
    for i in range(len(dims) - 1):
        bound = math.sqrt(3.0) * math.sqrt(2.0 / dims[i])
        weights.append(rng.uniform(-bound, bound, size=(dims[i + 1], dims[i])))
    return FFReluNet(input_dim, widths, output_dim, weights)


# ---------------------------------------------------------------------------
# Conv net


def _pad1(x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2, w + 2))
    out[:, :, 1:-1, 1:-1] = x
    return out


def conv2d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """3x3 convolution, stride 1, zero padding 1, zero bias.

    ``x``: (n, c_in, h, w); ``kernel``: (c_out, c_in, 3, 3).
    Written as 9 shifted channel contractions so BLAS does the work.
    """
    n, c_in, h, w = x.shape
    xp = _pad1(x)
    out = np.zeros((n, kernel.shape[0], h, w))
    for di in range(3):
        for dj in range(3):
            patch = xp[:, :, di:di + h, dj:dj + w]
            contrib = np.tensordot(patch, kernel[:, :, di, dj], axes=([1], [1]))
            out += contrib.transpose(0, 3, 1, 2)
    return out


def conv2d_adjoint(g: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Exact transpose of :func:`conv2d` as a linear map in ``x``.

    ``g`` is copied to one channel-last row-major matrix first, so every
    batch size reaches BLAS with the same layout and a sample's result
    does not depend on the batch it sits in.
    """
    n, c_out, h, w = g.shape
    rows = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * h * w, c_out)
    dxp = np.zeros((n, kernel.shape[1], h + 2, w + 2))
    for di in range(3):
        for dj in range(3):
            contrib = (rows @ kernel[:, :, di, dj]).reshape(n, h, w, -1)
            dxp[:, :, di:di + h, dj:dj + w] += contrib.transpose(0, 3, 1, 2)
    return dxp[:, :, 1:-1, 1:-1]


def conv2d_kernel_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    n, c_in, h, w = x.shape
    c_out = g.shape[1]
    xp = _pad1(x)
    dk = np.zeros((c_out, c_in, 3, 3))
    for di in range(3):
        for dj in range(3):
            patch = xp[:, :, di:di + h, dj:dj + w]
            dk[:, :, di, dj] = np.tensordot(g, patch, axes=([0, 2, 3], [0, 2, 3]))
    return dk


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

    Runs power iteration on the implicit map instead of materializing
    the block-Toeplitz matrix of the convolution.
    """
    c_out, c_in = kernel.shape[0], kernel.shape[1]
    h, w = in_hw
    return spectral_norm_operator(
        lambda v: conv2d(v[None], kernel)[0],
        lambda u: conv2d_adjoint(u[None], kernel)[0],
        (c_in, h, w), (c_out, h, w), settings)


class CnnNet:
    """Four Conv-ReLU-MaxPool blocks plus a zero-bias linear head.

    Conv channels follow ``[w, 2w, 4w, 8w]`` with 3x3 kernels, stride 1,
    padding 1; pool sizes are ``[1, 2, 2, 8]``, which collapse a 32x32x3
    input to a single 8w-vector before the 10-way linear layer.
    """

    family = "cnn"
    pools = (1, 2, 2, 8)
    input_shape = (3, 32, 32)

    def __init__(self, width: int, kernels: Sequence[np.ndarray], linear_w: np.ndarray):
        self.width = int(width)
        self.kernels = [np.asarray(k, dtype=np.float64) for k in kernels]
        self.linear_w = np.asarray(linear_w, dtype=np.float64)
        chans = self.channels()
        for i, k in enumerate(self.kernels):
            if k.shape != (chans[i + 1], chans[i], 3, 3):
                raise ValueError(f"conv {i} kernel shape {k.shape}, expected {(chans[i + 1], chans[i], 3, 3)}")
        if self.linear_w.shape != (10, 8 * self.width):
            raise ValueError(f"linear shape {self.linear_w.shape}, expected (10, {8 * self.width})")

    def channels(self) -> list[int]:
        w = self.width
        return [3, w, 2 * w, 4 * w, 8 * w]

    @property
    def input_dim(self) -> int:
        return 3 * 32 * 32

    @property
    def output_dim(self) -> int:
        return 10

    @property
    def param_count(self) -> int:
        return sum(k.size for k in self.kernels) + self.linear_w.size

    def weight_arrays(self) -> list[np.ndarray]:
        return [*self.kernels, self.linear_w]

    def arch_spec(self) -> dict:
        return {"family": "cnn", "width": self.width}

    def copy(self) -> "CnnNet":
        return CnnNet(self.width, [k.copy() for k in self.kernels], self.linear_w.copy())

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

    def forward(self, x: np.ndarray) -> np.ndarray:
        single = np.asarray(x).ndim == 1
        out, _ = self.forward_cached(x)
        return out[0] if single else out

    def forward_cached(self, x: np.ndarray):
        a = self._as_images(x)
        block_caches = []
        for k, p in zip(self.kernels, self.pools):
            z = conv2d(a, k)
            r = _relu(z)
            pooled, idx = maxpool(r, p)
            block_caches.append((a, z, idx))
            a = pooled
        feat = a.reshape(a.shape[0], -1)
        out = feat @ self.linear_w.T
        return out, (block_caches, feat)

    def backprop_params(self, cache, dout: np.ndarray) -> list[np.ndarray]:
        block_caches, feat = cache
        grads: list[np.ndarray] = [None] * (len(self.kernels) + 1)
        grads[-1] = dout.T @ feat
        g = (dout @ self.linear_w).reshape(feat.shape[0], 8 * self.width, 1, 1)
        for i in range(len(self.kernels) - 1, -1, -1):
            a_in, z, idx = block_caches[i]
            g = maxpool_backward(g, idx, self.pools[i])
            g = g * (z > 0)
            grads[i] = conv2d_kernel_grad(a_in, g)
            if i > 0:
                g = conv2d_adjoint(g, self.kernels[i])
        return grads

    def backprop_input(self, cache, dout: np.ndarray) -> np.ndarray:
        block_caches, feat = cache
        g = (dout @ self.linear_w).reshape(feat.shape[0], 8 * self.width, 1, 1)
        for i in range(len(self.kernels) - 1, -1, -1):
            _, z, idx = block_caches[i]
            g = maxpool_backward(g, idx, self.pools[i])
            g = g * (z > 0)
            g = conv2d_adjoint(g, self.kernels[i])
        return g.reshape(g.shape[0], -1)

    def input_jacobian(self, x: np.ndarray) -> np.ndarray:
        """Jacobian (10, 3072) at one sample."""
        imgs = self._as_images(x)
        if imgs.shape[0] != 1:
            raise ValueError("input_jacobian takes a single sample")
        return self.input_jacobians(imgs)[0]

    def input_jacobians(self, x: np.ndarray,
                        cotangents: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
        """Per-sample Jacobians, shape ``(n, 10, 3072)``.

        One forward pass over the batch fixes the ReLU masks and pooling
        routes, then one backward sweep per output row carries that row's
        cotangent for every sample at once.  ``cotangents`` works as in
        :meth:`FFReluNet.input_jacobians`.
        """
        imgs = self._as_images(x)
        out, cache = self.forward_cached(imgs)
        n = imgs.shape[0]
        if cotangents is None:
            seeds = np.broadcast_to(np.eye(self.output_dim), (n, self.output_dim, self.output_dim))
        else:
            seeds = cotangents(out)
        jac = np.empty((n, seeds.shape[1], self.input_dim))
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

    def param_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.weight_arrays()])

    def set_param_vector(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.param_count,):
            raise ValueError(f"parameter vector length {theta.shape}, expected ({self.param_count},)")
        ofs = 0
        for a in self.weight_arrays():
            a[...] = theta[ofs:ofs + a.size].reshape(a.shape)
            ofs += a.size


def init_cnn(width: int, seed: int) -> CnnNet:
    """Fresh conv net with the same fan-in uniform scheme as :func:`init_ff`."""
    width = int(width)
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    rng = make_rng(seed, _INIT_STREAM)
    chans = [3, width, 2 * width, 4 * width, 8 * width]
    kernels = []
    for i in range(4):
        fan_in = chans[i] * 9
        bound = math.sqrt(3.0) * math.sqrt(2.0 / fan_in)
        kernels.append(rng.uniform(-bound, bound, size=(chans[i + 1], chans[i], 3, 3)))
    bound = math.sqrt(3.0) * math.sqrt(2.0 / (8 * width))
    linear = rng.uniform(-bound, bound, size=(10, 8 * width))
    return CnnNet(width, kernels, linear)


def param_distance(net, reference: np.ndarray) -> float:
    """2-norm of (current parameters - reference vector)."""
    reference = np.asarray(reference, dtype=np.float64)
    theta = net.param_vector()
    if theta.shape != reference.shape:
        raise ValueError(f"parameter length {theta.shape[0]} vs reference {reference.shape[0]}")
    return float(np.linalg.norm(theta - reference))


def build_net(arch: dict):
    """Instantiate an architecture spec with zero weights (filled by caller)."""
    if arch["family"] == "ff":
        dims = [arch["input_dim"], *arch["widths"], arch["output_dim"]]
        weights = [np.zeros((dims[i + 1], dims[i])) for i in range(len(dims) - 1)]
        return FFReluNet(arch["input_dim"], arch["widths"], arch["output_dim"], weights)
    if arch["family"] == "cnn":
        w = arch["width"]
        chans = [3, w, 2 * w, 4 * w, 8 * w]
        kernels = [np.zeros((chans[i + 1], chans[i], 3, 3)) for i in range(4)]
        return CnnNet(w, kernels, np.zeros((10, 8 * w)))
    raise ValueError(f"unknown architecture family {arch.get('family')!r}")


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
    net = build_net(obj["arch"])
    arrays = []
    for layer in obj["layers"]:
        raw = base64.b64decode(layer["data"])
        arrays.append(np.frombuffer(raw, dtype=layer["dtype"]).reshape(layer["shape"]).astype(np.float64))
    expected = net.weight_arrays()
    if len(arrays) != len(expected):
        raise ValueError(f"{path}: {len(arrays)} weight arrays, expected {len(expected)}")
    for tgt, src in zip(expected, arrays):
        if tgt.shape != src.shape:
            raise ValueError(f"{path}: weight shape {src.shape}, expected {tgt.shape}")
        tgt[...] = src
    return net, {"seed": obj["seed"], "epoch": obj["epoch"], "arch": obj["arch"]}
