"""3D convolution, pooling, upsampling and activation layers with adjoints.

All layers act on (batch, time, rows, cols, channels) arrays with stride 1.
Convolutions zero-pad so spatial dims are preserved; the temporal axis is
either preserved ("same", odd extent) or consumed ("valid") per layer.  A
convolution is one GEMM per kernel tap on a row-shifted window of its padded
input, so no im2col copy is made, and the padded input is all it caches.
Pooling uses non-overlapping windows with ceiling semantics, so a ragged
last window simply shrinks; upsampling is nearest-neighbor repetition with
an explicit target-dims override that inverts ceiling-pooled sizes exactly.
"""

from __future__ import annotations

import math

import numpy as np


def ensure_array5(x, name: str = "input") -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 5:
        raise ValueError(f"{name} must be rank-5 (batch, time, rows, cols, channels), got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} has a zero-length axis: shape {arr.shape}")
    return arr


class Parameter:
    """A named trainable block: value plus accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.ascontiguousarray(value)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Conv3d:
    """Stride-1 3D convolution, spatially zero-padded to "same".

    Weights are (kt, kh, kw, in, out), He-uniform initialized from the given
    generator; bias starts at zero.  `temporal_pad` is "same" (odd kt,
    preserves time) or "valid" (output time = T - kt + 1).

    The zero-padded input of each batch item is viewed as (Tp*Hp*Wp, in)
    rows.  Kernel tap (it, ih, iw) is then a shift of (it*Hp + ih)*Wp + iw
    rows, so forward adds one 2-D GEMM per item and tap, window @ W[tap],
    on the padded (To, Hp, Wp) output grid and crops it to (To, H, W).
    Backward mirrors it on grad_out embedded in a zeroed padded grid:
    weight.grad[tap] += window.T @ G and grad_in[window] += G @ W[tap].T.
    A one-channel input (`in` = 1 in the weight's shape) would make every
    per-tap product an outer product, so its forward gathers the tap windows
    into one (taps, cells) block for a single GEMM.  Only the padded input
    is cached between forward and backward.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel=(1, 3, 3), *,
                 temporal_pad: str = "same", name: str = "conv",
                 rng: np.random.Generator | None = None, dtype=np.float32):
        kt, kh, kw = kernel
        if min(kt, kh, kw) < 1:
            raise ValueError(f"kernel dims must be >= 1, got {kernel}")
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError(f"spatial kernel dims must be odd for same padding, got {kernel}")
        if temporal_pad not in ("same", "valid"):
            raise ValueError(f"temporal_pad must be 'same' or 'valid', got {temporal_pad!r}")
        if temporal_pad == "same" and kt % 2 == 0:
            raise ValueError(f"temporal extent must be odd for same padding, got {kt}")
        self.kernel = (kt, kh, kw)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.temporal_pad = temporal_pad
        self.name = name
        rng = rng if rng is not None else np.random.default_rng(0)
        fan_in = kt * kh * kw * in_channels
        limit = math.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(kt, kh, kw, in_channels, out_channels))
        self.weight = Parameter(f"{name}.weight", w.astype(dtype))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_channels, dtype=dtype))
        self._cache = None

    def params(self):
        return [self.weight, self.bias]

    @property
    def param_count(self) -> int:
        return self.weight.value.size + self.bias.value.size

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = ensure_array5(x, self.name)
        b, T, H, W, c = x.shape
        kt, kh, kw = self.kernel
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} input channels, got {c}")
        pt = (kt - 1) // 2 if self.temporal_pad == "same" else 0
        if self.temporal_pad == "valid" and T < kt:
            raise ValueError(f"{self.name}: temporal extent {kt} exceeds input time {T}")
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
        xp = np.pad(x, ((0, 0), (pt, pt), (ph, ph), (pw, pw), (0, 0)))
        w = self.weight.value
        To = T - kt + 1 + 2 * pt
        if w.shape[3] == 1:
            # per-tap products of inner size 1 are outer products, so the tap
            # windows of a one-channel input are gathered for one GEMM instead
            taps = list(np.ndindex(kt, kh, kw))
            cols = np.empty((len(taps), b, To, H, W), xp.dtype)
            for i, (it, ih, iw) in enumerate(taps):
                cols[i] = xp[:, it:it + To, ih:ih + H, iw:iw + W, 0]
            out = cols.reshape(len(taps), -1).T @ w.reshape(len(taps), -1)
            out = out.reshape(b, To, H, W, -1)
        else:
            taps, rows = _taps(xp.shape, self.kernel)
            Hp, Wp = xp.shape[2:4]
            xf = xp.reshape(b, -1, c)
            acc = np.zeros((b, To * Hp * Wp, self.out_channels), np.result_type(xp, w))
            for k, s in taps:
                for n in range(b):
                    acc[n, :rows] += xf[n, s:s + rows] @ w[k]
            out = acc.reshape(b, To, Hp, Wp, -1)[:, :, :H, :W]
        out = out + self.bias.value
        self._cache = (xp, (pt, ph, pw), x.shape, out.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        xp, (pt, ph, pw), in_shape, out_shape = self._cache
        grad_out = np.asarray(grad_out)
        if grad_out.shape != out_shape:
            raise ValueError(f"{self.name}: grad shape {grad_out.shape} != output shape {out_shape}")
        b, To, H, W, cout = out_shape
        _, _, Hp, Wp, c = xp.shape
        taps, rows = _taps(xp.shape, self.kernel)
        self.bias.grad += grad_out.sum(axis=(0, 1, 2, 3))
        # grad_out on the padded output grid; the cropped rows stay zero
        g = np.zeros((b, To, Hp, Wp, cout), grad_out.dtype)
        g[:, :, :H, :W] = grad_out
        gf = g.reshape(b, -1, cout)
        xf = xp.reshape(b, -1, c)
        gxp = np.zeros_like(xp)
        gxf = gxp.reshape(b, -1, c)
        w = self.weight.value
        for k, s in taps:
            for n in range(b):
                self.weight.grad[k] += xf[n, s:s + rows].T @ gf[n, :rows]
                gxf[n, s:s + rows] += gf[n, :rows] @ w[k].T
        T = in_shape[1]
        return gxp[:, pt:pt + T, ph:ph + H, pw:pw + W, :]


def _taps(padded_shape, kernel):
    """Kernel taps as ((it, ih, iw), row shift) on the flattened padded grid.

    Output cell (t, h, w) sits at row (t * Hp + h) * Wp + w of the padded
    grid, and tap (it, ih, iw) reads the input row shifted by
    (it * Hp + ih) * Wp + iw.  `rows` ends at the last output cell kept, so
    every shifted window of that length stays inside the padded input.
    """
    _, _, Hp, Wp, _ = padded_shape
    kt, kh, kw = kernel
    to = padded_shape[1] - kt + 1
    taps = [((it, ih, iw), (it * Hp + ih) * Wp + iw) for it, ih, iw in np.ndindex(kt, kh, kw)]
    return taps, to * Hp * Wp - (kh - 1) * Wp - (kw - 1)


class MaxPool3d:
    """Non-overlapping max pooling; a ragged last window shrinks.

    Backward routes each window's gradient to its argmax, first occurrence
    in (t, h, w) window order on ties.
    """

    def __init__(self, window=(2, 2, 1)):
        if min(window) < 1:
            raise ValueError(f"pool window dims must be >= 1, got {window}")
        self.window = tuple(window)
        self._cache = None

    def params(self):
        return []

    @staticmethod
    def output_dims(dims, window):
        return tuple(-(-d // w) for d, w in zip(dims, window))

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = ensure_array5(x, "maxpool")
        b, T, H, W, c = x.shape
        wt, wh, ww = self.window
        ot, oh, ow = self.output_dims((T, H, W), self.window)
        pad = ((0, 0), (0, ot * wt - T), (0, oh * wh - H), (0, ow * ww - W), (0, 0))
        xp = np.pad(x, pad, constant_values=-np.inf)
        xr = xp.reshape(b, ot, wt, oh, wh, ow, ww, c)
        flat = xr.transpose(0, 1, 3, 5, 7, 2, 4, 6).reshape(b, ot, oh, ow, c, wt * wh * ww)
        idx = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        self._cache = (x.shape, idx)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("maxpool backward before forward")
        in_shape, idx = self._cache
        b, T, H, W, c = in_shape
        wt, wh, ww = self.window
        ot, oh, ow = self.output_dims((T, H, W), self.window)
        grad_out = np.asarray(grad_out)
        if grad_out.shape != idx.shape:
            raise ValueError(f"maxpool grad shape {grad_out.shape} != output shape {idx.shape}")
        flat = np.zeros((b, ot, oh, ow, c, wt * wh * ww), dtype=grad_out.dtype)
        np.put_along_axis(flat, idx[..., None], grad_out[..., None], axis=-1)
        xr = flat.reshape(b, ot, oh, ow, c, wt, wh, ww).transpose(0, 1, 5, 2, 6, 3, 7, 4)
        g = xr.reshape(b, ot * wt, oh * wh, ow * ww, c)
        return np.ascontiguousarray(g[:, :T, :H, :W, :])


class Upsample3d:
    """Nearest-neighbor repetition by integer factors per (t, h, w) axis.

    `target_dims` crops the repeated output so ceiling-pooled sizes invert
    exactly; backward sums the gradient over each repetition group.
    """

    def __init__(self, factors=(2, 2, 1)):
        if min(factors) < 1:
            raise ValueError(f"upsample factors must be >= 1, got {factors}")
        self.factors = tuple(factors)
        self._cache = None

    def params(self):
        return []

    def forward(self, x: np.ndarray, target_dims=None) -> np.ndarray:
        x = ensure_array5(x, "upsample")
        in_dims = x.shape[1:4]
        if target_dims is None:
            target_dims = tuple(d * f for d, f in zip(in_dims, self.factors))
        for d, f, t in zip(in_dims, self.factors, target_dims):
            if t < d:
                raise ValueError(f"target dim {t} smaller than input dim {d}")
            if t > d * f or t <= (d - 1) * f:
                raise ValueError(
                    f"target dim {t} not reachable from {d} cells repeated x{f}")
        out = x
        for axis, (f, t) in enumerate(zip(self.factors, target_dims), start=1):
            if f > 1:
                out = np.repeat(out, f, axis=axis)
            out = out[(slice(None),) * axis + (slice(0, t),)]
        self._cache = (in_dims, tuple(target_dims))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("upsample backward before forward")
        in_dims, target_dims = self._cache
        grad_out = np.asarray(grad_out)
        if grad_out.shape[1:4] != target_dims:
            raise ValueError(f"upsample grad dims {grad_out.shape[1:4]} != target {target_dims}")
        g = grad_out
        for axis, (f, d) in enumerate(zip(self.factors, in_dims), start=1):
            if f > 1:
                g = np.add.reduceat(g, np.arange(d) * f, axis=axis)
        return g


class ReLU:
    """Elementwise max(0, x); the subgradient at exactly 0 is taken as 0."""

    def __init__(self):
        self._mask = None

    def params(self):
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("relu backward before forward")
        return np.where(self._mask, grad_out, 0)
