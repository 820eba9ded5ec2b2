"""3D convolution, pooling, upsampling and activation layers with adjoints.

Every layer takes and returns (batch, time, rows, cols, channels) arrays:
that shape is the API.  In memory, activations are channels-first: a layer
returns the (b, t, h, w, c) transpose of the interior of a C-contiguous
(b, c, t, h', w') buffer, so the next layer's `x.transpose(0, 4, 1, 2, 3)`
is a free view and every kernel runs on long rows of one channel.  ReLU,
pooling and upsampling (`upsample`, which also builds the decoder input
`[upsampled | skip]`) write into a buffer with a zero border one cell deep
in rows and cols (`bordered`): that buffer is exactly the padded
input of a following 3x3 convolution, which reads it in place instead of
copying it.  Time is never padded, so a time slice of such a buffer is
read in place too: a network input is a window of one frame buffer
(`models.load_frames`).  A conv's own output is a crop of its
accumulator, whose border holds leftovers of the GEMMs.  The conv bias
and ReLU's forward run over whole buffers, border included, in
contiguous passes: a numpy ufunc writing the strided interior costs
about twice as much.  Any other input (C-ordered channels-last, a
non-zero border, a view of something else) gives the same results bit
for bit; it only costs a copy.

Gradients go the same way backward.  ReLU's backward writes into a
zero-bordered buffer that sits one row and one cell into a 1-D
allocation with zero margins (`_margined`), multiplying whole buffers
when the incoming gradient is the interior of one shaped like its
output's, as a conv's input gradient is.  Read from the start of that
allocation, one row per channel, it is exactly the zero-margined padded
grid that the conv before needs for its backward (`_padded_grad`), so
that conv reads it in place instead of copying it into a zeroed one.

Layers have stride 1.  Convolutions zero-pad so spatial dims are
preserved; the temporal axis is either preserved ("same", extent 1) or
consumed ("valid") per layer.  A convolution is one stacked-tap GEMM per
block of output cells on shifted windows of its padded input, so no
im2col copy of the whole input is made, and the padded input is all it
caches.  Pooling uses non-overlapping windows with ceiling semantics, so a
ragged last window simply shrinks; upsampling is nearest-neighbor
repetition with an explicit target-dims override that inverts
ceiling-pooled sizes exactly.

Each layer keeps what its backward needs in one attribute, `_cache`, from a
forward to the backward that follows it.  Backward takes the cache and
clears it, so the cached arrays are freed once the gradients exist, and a
second backward without a new forward raises RuntimeError.  A forward that
no backward follows (inference) leaves its cache until the caller sets
`_cache` to None or the next forward replaces it: the model's inference
forward sets it to None right after each layer's forward, so an activation
lives only until the next layer has read it.  The cache may be the
input or the output itself, not a copy: neither may be written to between
a forward and its backward.  What is cheap to rebuild is not cached: a
ragged pool pads its windows again in backward, and a conv whose input is
easy to build again can drop it after its forward (`Conv3d.drop_input`)
and take it back just before its backward (`Conv3d.restore_input`), which
is how the decoder input lives only while its conv runs.  A conv's input
gradient may come in two parts on the channel axis (`Conv3d.split`):
`backward` gives the first and `backward_rest` the second, so the two
need not exist at once, and a caller that wants no input gradient leaves
the second part uncomputed.

The first conv GEMM of a process pins glibc's malloc thresholds
(`keep_freed_pages`), so that memory freed between training samples stays
with the process instead of being faulted in again.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .._malloc import keep_freed_pages

# Output cells per conv GEMM block.  It bounds the stacked-tap intermediate
# (taps x channels x cells) that each block allocates.
_ROW_BLOCK = 4096
# Border (rows, cols) of ReLU, pooling and upsample outputs, and of ReLU's
# input gradient: the padding of a following 3x3 conv.
_PADS = (1, 1)


def ensure_array5(x, name: str = "input") -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 5:
        raise ValueError(f"{name} must be rank-5 (batch, time, rows, cols, channels), got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} has a zero-length axis: shape {arr.shape}")
    return arr


def _take_cache(layer, name: str):
    """The cache of `layer`'s last forward, cleared on the layer: a backward
    consumes what its forward cached."""
    cache = layer._cache
    if cache is None:
        raise RuntimeError(f"{name}: backward before forward")
    layer._cache = None
    return cache


def _channels_first(x: np.ndarray) -> np.ndarray:
    """The (b, c, t, h, w) memory view of a (b, t, h, w, c) activation."""
    return x.transpose(0, 4, 1, 2, 3)


def _channels_last(buf: np.ndarray) -> np.ndarray:
    """The (b, t, h, w, c) view of a (b, c, t, h, w) buffer, as layers return it."""
    return buf.transpose(0, 2, 3, 4, 1)


def _border(buf: np.ndarray, pads):
    """(border slabs, interior) of a channels-first (b, c, t, h, w) buffer
    whose border is `pads` = (ph, pw) cells deep on each side of its rows
    and cols; empty slabs are left out."""
    ph, pw = pads
    H, W = buf.shape[3] - 2 * ph, buf.shape[4] - 2 * pw
    rows = buf[:, :, :, ph:ph + H]
    slabs = (buf[:, :, :, :ph], buf[:, :, :, ph + H:], rows[..., :pw], rows[..., pw + W:])
    return [slab for slab in slabs if slab.size], rows[..., pw:pw + W]


def _zero_border(buf: np.ndarray, pads=_PADS) -> np.ndarray:
    """Zero the border of `buf` (see `_border`) and return its interior."""
    slabs, interior = _border(buf, pads)
    for slab in slabs:
        slab[...] = 0
    return interior


def _all_zero(parts) -> bool:
    """Whether every bit of every array in `parts` is zero (-0.0 and NaN are
    not)."""
    return not any(part.view(f"u{part.itemsize}").any() for part in parts)


def bordered(shape, dtype, pads=_PADS) -> np.ndarray:
    """The channels-first interior, of `shape` (b, c, t, h, w), of a new
    C-contiguous buffer (its `.base`) whose border, `pads` cells deep in
    rows and cols, is zero; the interior is left for the caller to write.
    A following 3x3 conv reads that buffer, or a time slice of it, in
    place as its padded input."""
    b, c, T, H, W = shape
    ph, pw = pads
    return _zero_border(np.empty((b, c, T, H + 2 * ph, W + 2 * pw), dtype), pads)


def _bordered_copy(x: np.ndarray, pads=_PADS) -> np.ndarray:
    """A new zero-bordered buffer (see `bordered`) holding the (b, t, h, w, c)
    activation `x` in its interior."""
    b, T, H, W, c = x.shape
    interior = bordered((b, c, T, H, W), x.dtype, pads)
    interior[...] = _channels_first(x)
    return interior.base


def _is_view(x: np.ndarray, interior: np.ndarray) -> bool:
    """Whether the (b, t, h, w, c) array `x` is the channels-first array
    `interior`, transposed: the same first cell and, on every axis longer
    than 1, the same stride.  The stride of an axis of length 1 addresses
    nothing, so a sample with a batch axis added (`x[None]`) still is."""
    xc = _channels_first(x)
    return xc.ctypes.data == interior.ctypes.data and all(
        n == 1 or a == b for n, a, b in zip(xc.shape, xc.strides, interior.strides))


def _buffer(x: np.ndarray, pads):
    """The channels-first buffer whose interior, inside a border `pads`
    cells deep in rows and cols, is exactly `x`: a C-contiguous buffer, or a
    time slice of one with the same batch, channels, rows and cols (a
    window of the frame buffer, `models.load_frames`); None when `x` is not
    such a view.  Each channel's (t, h, w) block of a time slice is
    contiguous, so it still reshapes to (b, c, cells) as a view."""
    buf = x.base
    b, T, H, W, c = x.shape
    ph, pw = pads
    if not (isinstance(buf, np.ndarray) and buf.ndim == 5 and buf.dtype == x.dtype
            and buf.flags.c_contiguous and buf.shape[:2] == (b, c) and buf.shape[2] >= T
            and buf.shape[3:] == (H + 2 * ph, W + 2 * pw)):
        return None
    start, rest = divmod(x.ctypes.data - _border(buf, pads)[1].ctypes.data, buf.strides[2])
    if rest or not 0 <= start <= buf.shape[2] - T:
        return None
    if T < buf.shape[2]:
        buf = buf[:, :, start:start + T]
    return buf if _is_view(x, _border(buf, pads)[1]) else None


def _padded_input(x: np.ndarray, pads) -> np.ndarray:
    """`x` zero-padded by `pads`: `_buffer(x, pads)` when every bit of its
    border is zero, else a zero-bordered copy."""
    buf = _buffer(x, pads)
    if buf is None or not _all_zero(_border(buf, pads)[0]):
        return _bordered_copy(x, pads)
    return buf


def _margined(shape, dtype) -> np.ndarray:
    """A new channels-first buffer of `shape` (b, c, t, Hp, Wp) that sits
    Wp + 1 cells into a 1-D allocation (its `.base`) whose first and last
    Wp + 1 cells, its margins, are zero; the buffer is left for the caller
    to write.  With a zero border one cell deep in rows and cols, its
    interior is an incoming gradient that a 3x3 conv's backward reads in
    place (`_padded_grad`)."""
    lead = _PADS[0] * shape[4] + _PADS[1]
    flat = np.empty(math.prod(shape) + 2 * lead, dtype)
    flat[:lead] = 0
    flat[-lead:] = 0
    return flat[lead:-lead].reshape(shape)


def _padded_grad(g: np.ndarray, pads):
    """The incoming gradient `g` of a conv padded by `pads`, on its padded
    output grid behind a zero margin of one halo: a read-only
    (b, c, halo + cells) view with one row per channel of the allocation
    that `g` lies in (see `_margined`); None when `g` is not the interior
    of such a buffer, or a bit of its border or margins is not zero.

    Read from `ph*Wp + pw` cells before the buffer, its border is exactly
    the zero margin of one halo before each row and the zero right and
    bottom cells of the padded grid that a zeroed copy of `g` would hold,
    so every cell of a row holds the copy's value.  A row runs on into the
    border of the next channel, or into the last margin."""
    flat = g.base
    b, T, H, W, c = g.shape
    ph, pw = pads
    Wp = W + 2 * pw
    lead, cells = ph * Wp + pw, T * (H + 2 * ph) * Wp
    if not (isinstance(flat, np.ndarray) and flat.ndim == 1 and flat.dtype == g.dtype
            and flat.flags.c_contiguous and flat.size == b * c * cells + 2 * lead):
        return None
    buf = flat[lead:lead + b * c * cells].reshape(b, c, T, H + 2 * ph, Wp)
    slabs, interior = _border(buf, pads)
    if not (_is_view(g, interior) and _all_zero([flat[:lead], flat[lead + buf.size:], *slabs])):
        return None
    step = flat.itemsize
    return np.lib.stride_tricks.as_strided(flat, (b, c, 2 * lead + cells),
                                           (c * cells * step, cells * step, step), writeable=False)


def upsample(x: np.ndarray, factors, target_dims, skip: np.ndarray | None = None) -> np.ndarray:
    """The activation `x` repeated by `factors` and cropped to `target_dims`,
    followed on the channel axis by `skip` when one is given, in the
    interior of a new zero-bordered buffer (see `bordered`): the decoder
    input `[upsampled | skip]`.  Output cell (i, j, k) copies input cell
    (i // ft, j // fh, k // fw), so the upsampled channels split into
    ft*fh*fw repetition phases, the strided views [pt::ft, ph::fh, pw::fw],
    and each phase is one assignment into the buffer: the upsampled
    features are never an array of their own."""
    b, c = x.shape[0], x.shape[4]
    width = c if skip is None else c + skip.shape[4]
    dtype = x.dtype if skip is None else np.result_type(x, skip)
    out = bordered((b, width, *target_dims), dtype)
    xc, up = _channels_first(x), out[:, :c]
    for phase in itertools.product(*(range(f) for f in factors)):
        dst = up[(..., *(slice(p, None, f) for p, f in zip(phase, factors)))]
        dst[...] = xc[(..., *(slice(n) for n in dst.shape[2:]))]
    if skip is not None:
        out[:, c:] = _channels_first(skip)
    return _channels_last(out)


def _tap_gemms(dst, src, w, offsets, base, stack_dst):
    """dst[:, u] += sum over taps k of w[k] @ src[:, base + u + offsets[k]].

    dst is (dst channels, cells) and src (src channels, cells) with one
    contiguous row per channel; w is (taps, dst channels, src channels).
    The cells of dst go in blocks of `_ROW_BLOCK`, and each block is one
    GEMM with the taps stacked on dst's side when `stack_dst` (the products
    of all taps over the block plus its halo, added shifted), else on src's
    (the tap-shifted source rows gathered under one another).  Callers
    stack on the side with fewer channels.  Those block temporaries are
    freed before the next block's are allocated, so one product exists at a
    time; the first call of a process pins the malloc thresholds
    (`keep_freed_pages`), so their pages stay with the process.
    """
    keep_freed_pages()
    taps, cd, cs = w.shape
    lo, hi = min(offsets), max(offsets)
    ws = w.reshape(taps * cd, cs) if stack_dst else w.transpose(1, 0, 2).reshape(cd, taps * cs)
    for u0 in range(0, dst.shape[1], _ROW_BLOCK):
        block = dst[:, u0:u0 + _ROW_BLOCK]
        n = block.shape[1]
        s0 = base + u0
        if stack_dst:
            y = (ws @ src[:, s0 + lo:s0 + hi + n]).reshape(taps, cd, -1)
            for k, off in enumerate(offsets):
                block += y[k, :, off - lo:off - lo + n]
            del y  # before the next block allocates its product
        else:
            block += ws @ np.concatenate([src[:, s0 + off:s0 + off + n] for off in offsets])


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
    generator; bias starts at zero.  `temporal_pad` is "same" (kt = 1,
    preserves time) or "valid" (output time = T - kt + 1): time is never
    padded.

    The padded input is a channels-first (b, in, T, Hp, Wp) buffer: the
    input's own buffer, or the time slice of it that holds `x`, when `x` is
    the interior of a zero-bordered buffer (`_padded_input`; ReLU, pooling
    and `upsample` outputs before a 3x3 conv, and the network input, a
    window of the frame buffer), else a zero-bordered copy.  Each item is
    viewed as (in, T*Hp*Wp): one contiguous row of cells per channel.
    Kernel tap (it, ih, iw) reads the input shifted by (it*Hp + ih)*Wp + iw
    cells.  The accumulator is a (b, out, To, Hp, Wp) grid too, and output
    cell (t, h, w) is its cell (t, h + ph, w + pw): the GEMMs write behind a
    leading margin of ph*Wp + pw cells, so the output is a crop view of the
    accumulator, whose border holds the GEMMs' wrap-around cells; the bias
    is added to the whole accumulator in place.
    Forward runs `_tap_gemms` once per item and temporal tap: one GEMM per
    block of `_ROW_BLOCK` output cells, with the kh*kw spatial taps stacked
    on the side with fewer channels,

    - out <= in: Y = W(taps*out, in) @ X[block + halo], and each tap's
      slice of Y is added to the block at that tap's shift;
    - out > in: the tap-shifted input rows are gathered into
      cols(taps*in, block), and the block gets W(out, taps*in) @ cols.

    Backward adds X[shifted] @ G.T to each tap's weight gradient and the
    sum of G to the bias gradient, item by item, so that a batch gives the
    gradients of its items run one at a time, bit for bit.  It then drops
    the padded input (freeing it unless the layer before still holds it)
    and only then allocates the input gradient.  That is `_tap_gemms` the
    other way round: W[tap] (in, out) applied to grad_out at minus each
    tap's shift, read from a padded grid behind a zero margin of one halo.
    That grid is a view of grad_out's own allocation when ReLU's backward
    wrote it (`_padded_grad`), else a zeroed copy.  Only the padded input
    is cached, from a forward to its backward, which frees it.
    `drop_input` frees it early, after the forward, and `restore_input`
    caches a rebuilt copy of the input before the backward; `cached_input`
    is the input as a view that a forward reads in place.

    With `split` set, `backward` returns the gradient of the first `split`
    input channels only and keeps the padded grad_out, and `backward_rest`
    then gives the gradient of the others and frees it.  Both parts run the
    GEMM path of the whole conv, picked on all its input channels, so they
    are the whole gradient's channels bit for bit; a part whose channels
    alone would take the other path would not be.
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
        if temporal_pad == "same" and kt != 1:
            raise ValueError(f"{name}: same temporal padding needs a temporal extent of 1, "
                             f"got {kt}")
        self.kernel = (kt, kh, kw)
        self.pads = ((kh - 1) // 2, (kw - 1) // 2)  # rows, cols
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
        # input channels whose gradient `backward` returns; None: all of them
        self.split = None
        self._cache = None
        self._rest = None  # what `backward` left for `backward_rest`

    def params(self):
        return [self.weight, self.bias]

    def _grid(self, padded_shape):
        """(cells per padded frame, halo, rows, spatial tap shifts).

        `rows` ends at the last output cell kept, so every tap-shifted
        window of that many cells stays inside the padded input; a block
        of output rows reads its rows plus the halo.
        """
        _, _, T, Hp, Wp = padded_shape
        kt, kh, kw = self.kernel
        halo = (kh - 1) * Wp + kw - 1
        shifts = [ih * Wp + iw for ih, iw in np.ndindex(kh, kw)]
        return Hp * Wp, halo, (T - kt + 1) * Hp * Wp - halo, shifts

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = ensure_array5(x, self.name)
        b, T, H, W, c = x.shape
        kt, kh, kw = self.kernel
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} input channels, got {c}")
        if T < kt:
            raise ValueError(f"{self.name}: temporal extent {kt} exceeds input time {T}")
        ph, pw = self.pads
        self._rest = None  # a gradient part that no `backward_rest` took
        xp = _padded_input(x, self.pads)
        Hp, Wp = xp.shape[3:]
        To = T - kt + 1
        plane, halo, rows, shifts = self._grid(xp.shape)
        w = self.weight.value
        cout = self.out_channels
        wt = w.transpose(0, 1, 2, 4, 3).reshape(kt, len(shifts), cout, c)  # (kt, taps, out, in)
        xf = xp.reshape(b, c, -1)
        acc = np.zeros((b, cout, To, Hp, Wp), np.result_type(xp, w))
        accf = acc.reshape(b, cout, -1)
        lead = ph * Wp + pw
        for n in range(b):
            for it in range(kt):
                _tap_gemms(accf[n, :, lead:lead + rows], xf[n], wt[it], shifts, it * plane,
                           cout <= c)
        acc += self.bias.value[:, None, None, None]  # the whole grid: one contiguous pass
        self._cache = (xp, x.shape, (b, To, H, W, cout))
        return _channels_last(acc[:, :, :, ph:ph + H, pw:pw + W])

    def cached_input(self) -> np.ndarray:
        """The last forward's input, as the interior of the padded input that
        it cached: a forward on it reads that buffer in place."""
        if self._cache is None or self._cache[0] is None:
            raise RuntimeError(f"{self.name}: no cached input")
        return _channels_last(_border(self._cache[0], self.pads)[1])

    def drop_input(self):
        """Free the padded input that the last forward cached.  `backward`
        raises RuntimeError until `restore_input` caches it again."""
        if self._cache is None:
            raise RuntimeError(f"{self.name}: drop_input before forward")
        self._cache = (None, *self._cache[1:])

    def restore_input(self, x: np.ndarray):
        """Cache `x`, the last forward's input built once more, as the padded
        input that `drop_input` freed: in place when it is the interior of a
        zero-bordered buffer, as the forward's input was, else as a copy."""
        if self._cache is None or self._cache[0] is not None:
            raise RuntimeError(f"{self.name}: restore_input without drop_input")
        _, in_shape, out_shape = self._cache
        x = ensure_array5(x, self.name)
        if x.shape != in_shape:
            raise ValueError(f"{self.name}: restored input shape {x.shape} != {in_shape}")
        self._cache = (_padded_input(x, self.pads), in_shape, out_shape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xp, in_shape, out_shape = _take_cache(self, self.name)
        if xp is None:
            raise RuntimeError(f"{self.name}: backward after drop_input without restore_input")
        grad_out = np.asarray(grad_out)
        if grad_out.shape != out_shape:
            raise ValueError(f"{self.name}: grad shape {grad_out.shape} != output shape {out_shape}")
        b, To, H, W, cout = out_shape
        padded = xp.shape
        _, c, _, Hp, Wp = padded
        kt = self.kernel[0]
        plane, halo, rows, shifts = self._grid(padded)
        # grad_out on the padded output grid behind a zero margin of one halo,
        # so that every tap-shifted read of it stays inside the buffer
        gbuf = _padded_grad(grad_out, self.pads)
        if gbuf is None:
            gbuf = np.zeros((b, cout, halo + To * plane), grad_out.dtype)
            gbuf[:, :, halo:].reshape(b, cout, To, Hp, Wp)[:, :, :, :H, :W] = \
                _channels_first(grad_out)
        gf = gbuf[:, :, halo:]
        xf = xp.reshape(b, c, -1)
        wgrad = self.weight.grad.reshape(kt, len(shifts), c, cout)
        for n in range(b):
            # summed from the buffer, so the order does not depend on grad_out's
            # layout, and sample by sample, as the weight gradient is
            self.bias.grad += gbuf[n].sum(axis=1)
            for it in range(kt):
                x0 = it * plane
                for k, s in enumerate(shifts):
                    wgrad[it, k] += xf[n, :, x0 + s:x0 + s + rows] @ gf[n, :, :rows].T
        rest = (gbuf, padded, xp.dtype, in_shape)
        del xp, xf  # the input goes before its gradient is allocated
        if self.split is not None:
            self._rest = rest
        return self._input_grad(*rest, slice(0, self.split))

    def backward_rest(self) -> np.ndarray:
        """The gradient of the input channels from `split` on, which the last
        `backward` left: it consumes what that backward kept, grad_out on its
        padded grid, and a second call raises RuntimeError."""
        rest, self._rest = self._rest, None
        if rest is None:
            raise RuntimeError(f"{self.name}: backward_rest without a split backward")
        return self._input_grad(*rest, slice(self.split, None))

    def _input_grad(self, gbuf, padded, dtype, in_shape, channels: slice) -> np.ndarray:
        """The input gradient of `channels` (a slice of the input channels):
        `_tap_gemms` the other way round, W[tap] (in, out) applied to `gbuf`
        at minus each tap's shift, on the GEMM path of the whole conv."""
        b, c = padded[:2]
        kt, cout = self.kernel[0], self.out_channels
        plane, halo, _, shifts = self._grid(padded)
        To = (gbuf.shape[2] - halo) // plane
        w = self.weight.value.reshape(kt, len(shifts), c, cout)[:, :, channels]  # (kt, taps, in, out)
        width = w.shape[2]
        gxp = np.zeros((b, width, *padded[2:]), dtype)
        gxf = gxp.reshape(b, width, math.prod(padded[2:]))
        if width:
            for n in range(b):
                for it in range(kt):
                    x0 = it * plane
                    _tap_gemms(gxf[n, :, x0:x0 + To * plane], gbuf[n], w[it],
                               [-s for s in shifts], halo, c <= cout)
        (ph, pw), (H, W) = self.pads, in_shape[2:4]
        return _channels_last(gxp[:, :, :, ph:ph + H, pw:pw + W])


def _where(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`np.where(mask, values, 0)` bit for bit, as an AND of the float bits
    with an all-ones or all-zeros integer, several times faster."""
    bits = values.view(f"i{values.itemsize}")
    return (bits & np.negative(mask.view(np.int8))).view(values.dtype)


class MaxPool3d:
    """Non-overlapping max pooling; a ragged last window shrinks.

    Forward takes the elementwise maximum over the window positions of the
    reshaped input, one strided view per position, and copies it into the
    interior of a zero-bordered buffer.  A ragged input is first padded
    with -inf to whole windows, a copy that lives only while forward or
    backward runs: the cache holds the input view and the output, nothing
    else.  Backward rebuilds the windows from the input and routes each
    window's gradient to its first maximum in (t, h, w) window order, as
    `argmax` would: ties go to the first cell, and a window holding NaN
    routes to its first NaN.
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

    def _windows(self, x):
        """The channels-first (b, c, ot, wt, oh, wh, ow, ww) windows of `x`:
        a view, or a -inf padded copy when the last windows are ragged."""
        b, T, H, W, c = x.shape
        wt, wh, ww = self.window
        ot, oh, ow = self.output_dims((T, H, W), self.window)
        xc = _channels_first(x)
        if (ot * wt, oh * wh, ow * ww) != (T, H, W):
            pad = ((0, 0), (0, 0), (0, ot * wt - T), (0, oh * wh - H), (0, ow * ww - W))
            xc = np.pad(xc, pad, constant_values=-np.inf)
        return xc.reshape(b, c, ot, wt, oh, wh, ow, ww)

    def _cells(self, windows):
        """The cell at each window position, across all windows, in (t, h, w) order."""
        return [windows[:, :, :, dt, :, dh, :, dw] for dt, dh, dw in np.ndindex(*self.window)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = ensure_array5(x, "maxpool")
        first, *rest = self._cells(self._windows(x))
        peak = first.copy()
        for cell in rest:
            np.maximum(peak, cell, out=peak)
        out = bordered(peak.shape, peak.dtype)
        out[...] = peak
        self._cache = (x, _channels_last(out))
        return self._cache[1]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, y = _take_cache(self, "maxpool")
        grad_out = np.asarray(grad_out)
        if grad_out.shape != y.shape:
            raise ValueError(f"maxpool grad shape {grad_out.shape} != output shape {y.shape}")
        out, gc = _channels_first(y), _channels_first(grad_out)
        windows = self._windows(x)
        grad = np.empty(windows.shape, grad_out.dtype)
        free = np.ones(out.shape, bool)  # windows whose gradient is not yet routed
        for cell, grad_cell in zip(self._cells(windows), self._cells(grad)):
            hit = (cell == out) | np.isnan(cell)
            hit &= free
            grad_cell[...] = _where(hit, gc)
            free ^= hit
        b, T, H, W, c = x.shape
        g = grad.reshape(b, c, *(d * w for d, w in zip(out.shape[2:], self.window)))
        return _channels_last(g[:, :, :T, :H, :W])


class Upsample3d:
    """Nearest-neighbor repetition by integer factors per (t, h, w) axis.

    `target_dims` crops the repeated output so ceiling-pooled sizes invert
    exactly.  Forward writes the output through `upsample`, into a
    zero-bordered buffer, followed on the channel axis by `skip` when one is
    given (the decoder input, whose (t, h, w) are then the target dims).
    Backward takes the gradient
    of the upsampled channels only and sums it over each repetition group,
    one axis at a time in (t, h, w) order: phase 0 (which covers every
    group) is copied and the others are added in order, a ragged last
    group simply taking fewer of them.  For the network's factors of 1 and
    2 that is np.add.reduceat over the groups bit for bit, signed zeros
    included.
    """

    def __init__(self, factors=(2, 2, 1)):
        if min(factors) < 1:
            raise ValueError(f"upsample factors must be >= 1, got {factors}")
        self.factors = tuple(factors)
        self._cache = None

    def params(self):
        return []

    def forward(self, x: np.ndarray, target_dims=None, skip: np.ndarray | None = None) -> np.ndarray:
        x = ensure_array5(x, "upsample")
        in_dims = x.shape[1:4]
        if skip is not None:
            skip = ensure_array5(skip, "skip")
            if target_dims is None:
                target_dims = skip.shape[1:4]
            if skip.shape[:4] != (x.shape[0], *target_dims):
                raise ValueError(f"skip shape {skip.shape} does not match batch {x.shape[0]} "
                                 f"and target dims {tuple(target_dims)}")
        if target_dims is None:
            target_dims = tuple(d * f for d, f in zip(in_dims, self.factors))
        for d, f, t in zip(in_dims, self.factors, target_dims):
            if t < d:
                raise ValueError(f"target dim {t} smaller than input dim {d}")
            if t > d * f or t <= (d - 1) * f:
                raise ValueError(
                    f"target dim {t} not reachable from {d} cells repeated x{f}")
        self._cache = tuple(target_dims)
        return upsample(x, self.factors, self._cache, skip)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        target_dims = _take_cache(self, "upsample")
        grad_out = np.asarray(grad_out)
        if grad_out.shape[1:4] != target_dims:
            raise ValueError(f"upsample grad dims {grad_out.shape[1:4]} != target {target_dims}")
        g = _channels_first(grad_out)
        for axis, f in enumerate(self.factors, start=2):
            if f > 1:
                lead = (slice(None),) * axis
                summed = g[(*lead, slice(0, None, f))].copy()
                for p in range(1, f):
                    phase = g[(*lead, slice(p, None, f))]
                    summed[(*lead, slice(phase.shape[axis]))] += phase
                g = summed
        return _channels_last(g)


class ReLU:
    """Elementwise max(0, x), as np.where(x > 0, x, 0) bit for bit.

    Forward is fmax(x, 0) + 0, two passes with no temporaries: np.fmax
    returns the non-NaN operand, so NaN maps to +0.0, and the + 0 turns
    -0.0 into +0.0.  It runs over the whole buffer that `x` is the interior
    of when that buffer has a one-cell border in rows and cols (a 3x3
    conv's accumulator), else over a bordered copy of `x`, into a new
    buffer whose border it then zeroes, and caches the interior: the
    output.  It is out of place, so a second forward of the same input
    gives the same output.  Backward's mask is out > 0, which equals x > 0,
    so the subgradient at exactly 0 is 0.  Backward is grad * mask, plus
    +0.0 so that a negative gradient at an inactive unit gives +0.0, not
    -0.0.  For finite gradients that is np.where(mask, grad, 0) bit for
    bit, except that a -0.0 gradient at an active unit comes back as +0.0.
    A non-finite upstream gradient propagates (NaN * 0 is NaN) instead of
    being masked, so `Adam.step` raises and names the block.  The gradient
    is written into a new buffer shaped like the output's, which sits in a
    1-D allocation with zero margins (`_margined`), and its border is
    zeroed: the conv before reads it in place as its padded incoming
    gradient.  When grad is the interior of a buffer shaped like the
    output's (a 3x3 conv's input gradient), both whole buffers are
    multiplied in contiguous passes; else only the interior is written.
    """

    def __init__(self):
        self._cache = None

    def params(self):
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = ensure_array5(x, "relu")
        buf = _buffer(x, _PADS)
        if buf is None:
            buf = _bordered_copy(x)
        out = np.fmax(buf, 0)
        out += 0
        self._cache = _channels_last(_zero_border(out))
        return self._cache

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        out = _take_cache(self, "relu")
        grad_out = np.asarray(grad_out)
        if grad_out.shape != out.shape:
            raise ValueError(f"relu grad shape {grad_out.shape} != output shape {out.shape}")
        g = _margined(out.base.shape, grad_out.dtype)
        whole = _buffer(grad_out, _PADS)
        if whole is None:
            np.multiply(_channels_first(grad_out), _channels_first(out) > 0, out=_zero_border(g))
        else:
            np.multiply(whole, out.base > 0, out=g)
        g += 0
        return _channels_last(_zero_border(g))
