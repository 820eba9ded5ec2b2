"""3D convolution, pooling and activation layers with adjoints, and the
decoder conv that upsamples.

A layer runs one sample.  Its API takes and returns (1, time, rows, cols,
channels) arrays, whose leading 1 is the only trace of a batch: it exists
in `ensure_array5`, which rejects any other leading axis, in the two views
that cross the API (`_channels_first`, `_channels_last`) and in
`bordered`; nothing inside a layer has a batch axis.  In memory there is
one layout.  Every buffer that a layer writes, forward or backward, is a
grid (`_grid`): a channels-first (c, t, H + 2, W + 2) array with a border
one cell deep in rows and cols, inside a 1-D allocation with zero margins
of W + 3 cells before and after it.  A layer returns the (1, t, h, w, c)
view of the grid's interior, so the next layer's channels-first view of
it is free and every kernel runs on long rows of one channel.  One
finder, `_buffer`, gives back the grid, or the time slice of it, that an
array is the interior of, and every in-place read goes through it.  With
a zero border the grid is the padded input of any conv, 3x3 or 1x1,
which pads by that one cell and reads it in place: ReLU and pooling zero
the border of their outputs.  Time is never padded, so a time slice is
read in place too: a network input is a window of one frame buffer
(`bordered`, `models.load_frames`).  With its margins zero too, the grid
read from the start of its allocation, one row per channel, is the padded
incoming gradient that a conv's backward needs, so the conv before a ReLU
reads ReLU's gradient in place.  A conv's output and input gradient are
the interiors of its accumulators, whose borders hold leftovers of the
GEMMs; the conv bias and ReLU, forward and backward, run over whole
grids, border included, in contiguous passes, as a numpy ufunc writing
the strided interior costs about twice as much.  Any other input or
gradient (C-ordered channels-last, a non-zero border, a view of something
else) is copied into a new grid (`_bordered_copy`) and read the same way,
with the same results bit for bit.

Layers have stride 1.  Convolutions have kernel dims of 1 or 3 in rows
and cols, zero-pad so spatial dims are preserved, and never pad time: a
temporal extent kt takes T frames to T - kt + 1.  A convolution is one
stacked-tap GEMM per block of output cells on shifted windows of its
padded input, so no im2col copy of the whole input is made, and the
padded input is all it caches.  Every forward and every input gradient
stacks the kw taps of a kernel row on K and puts the kh rows on the
output side of each GEMM.  One test of its channel counts picks its
weight gradient: one whole-row GEMM per tap when it is wide-input, in >
2*out (`Conv3d.wide_input`; of the network's plain convs, only
`head_a`), else one GEMM per block of gathered tap-shifted input rows;
the timings per form are in the `Conv3d` docstring.  Pooling uses
non-overlapping windows with ceiling semantics, so a ragged last window
simply shrinks.

The first conv of a decoder stage (`UpsampleConv3d`) is a 3x3 conv of the
decoder input `[upsampled | skip]`, where upsampled is nearest-neighbour
repetition of the coarse features cropped to the skip's dims (which
inverts ceiling-pooled sizes exactly), but that input is never built: the
conv reads the coarse features and the skip in place.  A repeated cell's
taps read 2 coarse cells per axis with factor 2, so per repetition phase
the up rows' taps fold onto the coarse cells they read and run at coarse
resolution (the sub-pixel view of upsampling, Shi et al.,
arXiv:1609.05158); the skip rows run as a plain conv's.

Each layer keeps what its backward needs in one attribute, `_cache`, from a
forward to the backward that follows it.  Backward checks the gradient's
shape (ValueError, the cache kept for a retry), then takes the cache and
clears it, so the cached arrays are freed once the gradients exist, and a
second backward without a new forward raises RuntimeError.  Each layer
has one backward, which returns the whole adjoint of its input; for
`UpsampleConv3d`, which has two inputs, the pair (coarse gradient, skip
gradient).  A conv whose `input_grad` is false (the network's first conv
in a training step) runs no input-gradient GEMM and returns None.  A
forward that no backward follows (inference) leaves its cache until the
caller sets `_cache` to None or the next forward replaces it: the model's
inference forward sets it to None right after each layer's forward, so an
activation lives only until the next layer has read it.  The cache may be
the input or the output itself, not a copy: neither may be written to
between a forward and its backward.  What is cheap to rebuild is not
cached: a ragged pool pads its windows again in backward, and a conv
whose input is easy to build again can drop it after its forward
(`Conv3d.drop_input`) and take it back just before its backward
(`Conv3d.restore_input`).  Such an input is built again by a layer before
it: a conv can `rerun`, giving its last forward's output once more from
the input that it cached.

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
# Bytes of the gathered input rows of one weight-gradient GEMM block:
# 1024 cells of 9 taps x 8 float32 channels, well inside a core's L2.
_COLS_BYTES = 288 << 10


def ensure_array5(x, name: str = "input") -> np.ndarray:
    """`x` as an array of the layer API's shape (1, time, rows, cols,
    channels); ValueError naming `name` for another rank, a leading axis
    other than 1 or a zero-length axis."""
    arr = np.asarray(x)
    if arr.ndim != 5:
        raise ValueError(f"{name} must be rank-5 (1, time, rows, cols, channels), "
                         f"got shape {arr.shape}")
    if arr.shape[0] != 1:
        raise ValueError(f"{name} must hold one sample, a leading axis of 1, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} has a zero-length axis: shape {arr.shape}")
    return arr


def _take_cache(layer, name: str, grad_out: np.ndarray, output_shape):
    """The cache of `layer`'s last forward, cleared on the layer: a backward
    consumes what its forward cached.  `grad_out` must have that forward's
    output shape, `output_shape(cache)`, or ValueError is raised and the
    cache stays for a backward with the right gradient."""
    cache = layer._cache
    if cache is None:
        raise RuntimeError(f"{name}: backward before forward")
    shape = output_shape(cache)
    if grad_out.shape != shape:
        raise ValueError(f"{name}: grad shape {grad_out.shape} != output shape {shape}")
    layer._cache = None
    return cache


def _channels_first(x: np.ndarray) -> np.ndarray:
    """The (c, t, h, w) memory view of a (1, t, h, w, c) activation."""
    return x[0].transpose(3, 0, 1, 2)


def _channels_last(buf: np.ndarray) -> np.ndarray:
    """The (1, t, h, w, c) view of a (c, t, h, w) buffer, as layers return it."""
    return buf.transpose(1, 2, 3, 0)[None]


def _grid(shape, dtype, zeros: bool = False) -> np.ndarray:
    """A new grid around an interior of `shape` (c, t, H, W): a C-ordered
    channels-first (c, t, H + 2, W + 2) array, one cell of border on each
    side of its rows and cols, that sits W + 3 cells into a 1-D allocation
    (its `.base`) whose first and last W + 3 cells, its margins, are zero.
    It is zero throughout with `zeros`, else left for the caller to write.
    Every buffer that a layer writes is one."""
    c, T, H, W = shape
    lead = W + 3
    flat = (np.zeros if zeros else np.empty)(c * T * (H + 2) * (W + 2) + 2 * lead, dtype)
    if not zeros:
        flat[:lead] = 0
        flat[-lead:] = 0
    return flat[lead:-lead].reshape(c, T, H + 2, W + 2)


def _interior(grid: np.ndarray) -> np.ndarray:
    return grid[..., 1:-1, 1:-1]


def _border(grid: np.ndarray):
    """The border slabs of a grid: its first and last row, and the first
    and last col of the rows between."""
    rows = grid[..., 1:-1, :]
    return [grid[..., :1, :], grid[..., -1:, :], rows[..., :1], rows[..., -1:]]


def _zero_border(grid: np.ndarray) -> np.ndarray:
    """Zero the border of `grid` and return its interior."""
    for slab in _border(grid):
        slab[...] = 0
    return _interior(grid)


def _all_zero(parts) -> bool:
    """Whether every bit of every array in `parts` is zero (-0.0 and NaN are
    not)."""
    return not any(part.view(f"u{part.itemsize}").any() for part in parts)


def bordered(shape, dtype) -> np.ndarray:
    """The channels-first interior, of `shape` (1, c, t, h, w), of a new
    grid (see `_grid`) whose border is zero; the interior is left for the
    caller to write.  A following conv reads that grid, or a time slice of
    it, in place as its padded input.  A leading axis other than 1 raises
    ValueError."""
    if len(shape) != 5 or shape[0] != 1:
        raise ValueError(f"bordered must hold one sample, a (1, channels, time, rows, cols) "
                         f"shape, got {tuple(shape)}")
    return _zero_border(_grid(shape[1:], dtype))[None]


def _bordered_copy(x: np.ndarray) -> np.ndarray:
    """A new grid with a zero border and the (c, t, h, w) array `x` in its
    interior."""
    grid = _grid(x.shape, x.dtype)
    _zero_border(grid)[...] = x
    return grid


def _is_view(x: np.ndarray, interior: np.ndarray) -> bool:
    """Whether the (c, t, h, w) array `x` is the array `interior`: the same
    first cell and, on every axis longer than 1, the same stride.  The
    stride of an axis of length 1 addresses nothing."""
    return x.ctypes.data == interior.ctypes.data and all(
        n == 1 or a == b for n, a, b in zip(x.shape, x.strides, interior.strides))


def _buffer(x: np.ndarray):
    """The grid (see `_grid`) whose interior is exactly the (c, t, h, w)
    array `x`, or the time slice of it that is (a window of the frame
    buffer, `models.load_frames`): the allocation that `x` lies in, read as
    a (c, t', H + 2, W + 2) grid with the channels, rows and cols of `x`;
    None when `x` is not such a view.  Each channel's (t, h, w) block of a
    time slice is contiguous, so it still reshapes to (c, cells) as a
    view."""
    flat = x.base
    c, T, H, W = x.shape
    if not (x.size and isinstance(flat, np.ndarray) and flat.ndim == 1
            and flat.dtype == x.dtype and flat.flags.c_contiguous):
        return None
    frames, rest = divmod(flat.size - 2 * (W + 3), c * (H + 2) * (W + 2))
    if rest or frames < T:
        return None
    grid = flat[W + 3:flat.size - W - 3].reshape(c, frames, H + 2, W + 2)
    start, rest = divmod(x.ctypes.data - _interior(grid).ctypes.data, grid.strides[1])
    if rest or not 0 <= start <= frames - T:
        return None
    grid = grid[:, start:start + T]
    return grid if _is_view(x, _interior(grid)) else None


def _padded(x: np.ndarray, margins: bool = False) -> np.ndarray:
    """The (c, t, h, w) array `x` zero-padded by one cell in rows and cols:
    the grid `_buffer(x)` when every bit of its border is zero and, with
    `margins` (an incoming gradient), it is its whole allocation and the
    margins are zero too; else a zero-bordered copy (`_bordered_copy`)."""
    grid = _buffer(x)
    if grid is None:
        return _bordered_copy(x)
    flat, lead = grid.base, x.shape[3] + 3
    parts = _border(grid) + ([flat[:lead], flat[-lead:]] if margins else [])
    if margins and flat.size != grid.size + 2 * lead or not _all_zero(parts):
        return _bordered_copy(x)
    return grid


def _tap_gemms(dst, src, w, out_shifts, k_shifts, base):
    """dst[:, u] += sum over taps (i, j) of
    w[i*len(k_shifts) + j] @ src[:, base + u + out_shifts[i] + k_shifts[j]].

    dst is (dst channels, cells) and src (src channels, cells) with one
    contiguous row per channel; w is (taps, dst channels, src channels),
    its taps in (output shift, K shift) order.  The cells of dst go in
    blocks of `_ROW_BLOCK`, and each block is one GEMM.  Each tap's shift
    is the sum of a shift on each side of the GEMM:

    - on the K side, the source windows at the K shifts are stacked by rows
      into cols(K shifts * src channels, block + halo); a single window
      stays a view;
    - on the output side, the product W(output shifts * dst channels,
      K shifts * src channels) @ cols holds one slice per output shift,
      and each is added to the block at its shift.

    Every caller puts a kernel's row shifts on the output side and its col
    shifts on K: every forward and input gradient of `Conv3d`, and the skip
    rows and each phase of the folded up rows of `UpsampleConv3d`, forward
    and backward (timings of the other splits in `Conv3d`).  A one-tap
    kernel has no halo and no stacked product: it runs as one block.  The
    block
    temporaries are freed before the next block's are allocated, so one
    product exists at a time; the first call of a process pins the malloc
    thresholds (`keep_freed_pages`), so their pages stay with the process.
    """
    keep_freed_pages()
    _, cd, cs = w.shape
    lo, hi = min(out_shifts), max(out_shifts)
    ws = w.reshape(len(out_shifts), len(k_shifts), cd, cs).transpose(0, 2, 1, 3).reshape(
        len(out_shifts) * cd, len(k_shifts) * cs)
    step = _ROW_BLOCK if len(out_shifts) * len(k_shifts) > 1 else dst.shape[1]
    for u0 in range(0, dst.shape[1], step):
        block = dst[:, u0:u0 + step]
        n = block.shape[1]
        s0 = base + u0 + lo
        windows = [src[:, s0 + k:s0 + k + hi - lo + n] for k in k_shifts]
        y = (ws @ (windows[0] if len(k_shifts) == 1 else np.concatenate(windows))).reshape(
            len(out_shifts), cd, -1)
        for i, off in enumerate(out_shifts):
            block += y[i, :, off - lo:off - lo + n]
        del y  # before the next block allocates its product


def _gathered_wgrad(wg, src, g, shifts, rows):
    """wg[k] += src[:, shifts[k] + u] @ g[:, u].T, summed over the cells
    u < rows: wg is (taps, src channels, g channels), src and g have one
    row per channel.  The tap-shifted rows of each block of cells are
    gathered into cols(taps * src channels, block) of about `_COLS_BYTES`,
    and each block is one GEMM, cols @ g[:, block].T."""
    taps, c, cout = wg.shape
    step = max(1, _COLS_BYTES // (taps * c * src.itemsize))
    for u0 in range(0, rows, step):
        u1 = min(u0 + step, rows)
        cols = np.concatenate([src[:, s + u0:s + u1] for s in shifts])
        wg += (cols @ g[:, u0:u1].T).reshape(taps, c, cout)


def _gradient_rows(grad_out: np.ndarray, lead: int) -> np.ndarray:
    """The (c, t, h, w) grad_out on its padded grid, as (c, 2 * lead +
    cells): each channel's row read from one lead before its grid to one
    lead after it, a halo of zero border or zero margin in front, so that
    every tap-shifted read stays inside.  The rows are those of grad_out's
    own allocation when it is the interior of a grid with a zero border and
    zero margins (`_padded` with `margins`; ReLU's backward writes it so),
    else of a zero-bordered copy's."""
    grid = _padded(grad_out, margins=True)
    c = grid.shape[0]
    cells, step = grid[0].size, grid.itemsize
    return np.lib.stride_tricks.as_strided(
        grid.base, (c, 2 * lead + cells), (cells * step, step), writeable=False)


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
    generator; bias starts at zero.  Time is never padded: the output time
    is T - kt + 1, so the kernel alone decides whether a conv keeps the
    time axis (kt = 1) or consumes it.

    Kernel dims in rows and cols are 1 or 3, and every conv pads by one
    cell: its padded input is an (in, T, H + 2, W + 2) grid (see `_grid`),
    the one that `x` is the interior of, or a time slice of it, when its
    border is zero (`_padded`: ReLU and pooling outputs, and the network
    input, a window of the frame buffer), else a zero-bordered copy.  It is
    viewed as (in, T*Hp*Wp): one contiguous row of cells per channel, and
    kernel tap (it, ih, iw) reads it shifted by it*Hp*Wp cells plus a
    spatial shift (`_taps`); a 1x1 kernel reads the centre.  The
    accumulator is a zeroed (out, To, Hp, Wp) grid, and output cell (t, h,
    w) is its cell (t, h + 1, w + 1): the GEMMs write behind a leading
    margin of Wp + 1 cells, so the output is the interior of the
    accumulator, whose border holds the GEMMs' wrap-around cells; the bias
    is added to the whole accumulator in place.  Forward runs `_tap_gemms`
    once per temporal tap: one GEMM per block of `_ROW_BLOCK` output cells,
    the kw col-shifted input rows stacked into cols(kw*in, block + row
    halo), Y = W(kh*out, kw*in) @ cols, and each kernel row's slice of Y
    added to the block at that row's shift ("kw").

    Timed against it at the desk's shapes (64x64, levels 3, base 8, one
    sample; 1 BLAS thread, 2-core Xeon with AVX-512; interquartile range of
    80 interleaved pairs), every tap on the output side ("out", Y =
    W(taps*out, in) @ X[block + halo]) took 1.15-1.24 of the time of "kw"
    on the kt = 6, 8 -> 2 `head_a` and 1.19-1.99 on every other conv
    (about 10 on the radar 1 -> 8 `enc1a`); it won only on the 48 -> 16
    and 24 -> 8 convs of the whole decoder input (0.87-1.00), which no
    layer runs since `UpsampleConv3d`.  Every tap on K ("k", with
    cols(taps*in, block) gathered) took 1.10-1.97 of "kw" on most convs,
    0.97-1.08 on the multimodal 8 -> 16 `enc2a` and 32 -> 32
    `bottleneck_b`, and less only on the radar 1 -> 8 `enc1a` (0.66-0.72,
    0.11 ms a sample) and the multimodal 16 -> 32 `bottleneck_a`
    (0.84-0.91, 0.02 ms a sample).

    Backward adds the sum of G to the bias gradient and takes the weight
    gradient GEMMs.  A conv that is not wide-input, in <= 2*out
    (`wide_input`), gathers the tap-shifted input rows of each block of
    output cells into cols(taps*in, block) of about `_COLS_BYTES`, and the
    weight gradient gets cols @ G[:, block].T; a wide-input conv gives each
    tap X[shifted] @ G.T over all the cells.
    Against one GEMM per tap, the gathered blocks took 0.41-0.50 of the
    time for the 8 -> 8 convs, 0.56-0.59 for 16 -> 32 and 0.74-0.80 for
    16 -> 16 and 32 -> 32 at the radar net's dims, 0.64-0.70 for the
    multimodal 12 -> 8 and 0.81-0.88 for the radar 1 -> 8, but 1.33-1.57
    for 8 -> 16 and for the multimodal 16 -> 16 convs at 3x32x32, and
    1.10-1.20 for its 32 -> 32 at 2x16x16, which the test keeps for
    simplicity; on the wide-input `head_a` they took 2.00-2.21.  It then
    drops the padded input (freeing it unless the layer before still holds
    it) and only then allocates the input gradient (`_input_grad`), in the
    "kw" form whatever the channels, read from a padded grid behind a zero
    margin of one halo: the rows of grad_out's own allocation when it is
    the interior of a grid with a zero border and zero margins (`_padded`
    with `margins`; ReLU's backward writes it so), else of a zero-bordered
    copy's.  The input gradient is a zeroed grid too.  Only the padded
    input is cached, from a forward to its backward, which frees it.
    `drop_input` frees it early, after the forward, and `restore_input`
    caches a rebuilt copy of the input before the backward; `rerun` runs
    the forward again on the cached input, read in place.  With
    `input_grad` false, `backward` returns None and runs no input-gradient
    GEMM.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel=(1, 3, 3), *,
                 name: str = "conv", rng: np.random.Generator | None = None, dtype=np.float32):
        kt, kh, kw = kernel
        if kt < 1:
            raise ValueError(f"{name}: temporal kernel extent must be >= 1, got {kernel}")
        if not {kh, kw} <= {1, 3}:
            raise ValueError(f"{name}: spatial kernel dims must be 1 or 3, got {kernel}")
        self.kernel = (kt, kh, kw)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.name = name
        rng = rng if rng is not None else np.random.default_rng(0)
        fan_in = kt * kh * kw * in_channels
        limit = math.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(kt, kh, kw, in_channels, out_channels))
        self.weight = Parameter(f"{name}.weight", w.astype(dtype))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_channels, dtype=dtype))
        self.input_grad = True  # whether `backward` computes the input gradient
        self._cache = None

    def params(self):
        return [self.weight, self.bias]

    @property
    def wide_input(self) -> bool:
        """Whether the conv has more than twice as many input channels as
        output channels, the one test that picks its weight-gradient form."""
        return self.in_channels > 2 * self.out_channels

    @property
    def temporal_pad(self) -> str:
        """The time padding: "same" when kt = 1 keeps the time axis, else
        "valid".  Only the benchmark's tracer reads it."""
        return "same" if self.kernel[0] == 1 else "valid"

    def _taps(self, dims):
        """(cells per padded frame, lead, rows, row shifts, col shifts) of an
        input of (t, h, w) `dims`, read on its padded grid.

        Output cell (t, h, w) is cell (t, h + 1, w + 1) of the padded grid,
        `lead` = Wp + 1 cells on from the grid cell at the same (t, h, w),
        and its tap (ih, iw) reads that grid cell shifted by row shift
        (ih + oh)*Wp plus col shift iw + ow cells, where oh and ow are 0
        for a kernel dim of 3 and 1 for a dim of 1, whose one tap is the
        centre.  `rows` ends at the last output cell kept, so every
        tap-shifted window of that many cells stays inside the padded
        input; a block of output rows reads its rows plus a halo of
        2 * lead cells.
        """
        T, H, W = dims
        Hp, Wp = H + 2, W + 2
        kt, kh, kw = self.kernel
        oh, ow = (3 - kh) // 2, (3 - kw) // 2
        return (Hp * Wp, Wp + 1, (T - kt + 1) * Hp * Wp - 2 * (Wp + 1),
                [(ih + oh) * Wp for ih in range(kh)], [iw + ow for iw in range(kw)])

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = ensure_array5(x, self.name)
        _, T, H, W, c = x.shape
        kt = self.kernel[0]
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} input channels, got {c}")
        if T < kt:
            raise ValueError(f"{self.name}: temporal extent {kt} exceeds input time {T}")
        xp = _padded(_channels_first(x))
        plane, lead, rows, dy, dx = self._taps((T, H, W))
        w = self.weight.value
        cout = self.out_channels
        wt = w.transpose(0, 1, 2, 4, 3).reshape(kt, -1, cout, c)  # (kt, taps, out, in)
        xf = xp.reshape(c, -1)
        acc = _grid((cout, T - kt + 1, H, W), np.result_type(xp, w), zeros=True)
        accf = acc.reshape(cout, -1)
        for it in range(kt):
            _tap_gemms(accf[:, lead:lead + rows], xf, wt[it], dy, dx, it * plane)
        acc += self.bias.value[:, None, None, None]  # the whole grid: one contiguous pass
        out = _channels_last(_interior(acc))
        self._cache = (xp, x.shape, out.shape)
        return out

    def rerun(self) -> np.ndarray:
        """The last forward's output, computed again by a forward on the
        padded input that it cached, read in place: the same output bit for
        bit, and the same cache."""
        if self._cache is None or self._cache[0] is None:
            raise RuntimeError(f"{self.name}: rerun without a cached input")
        return self.forward(_channels_last(_interior(self._cache[0])))

    def drop_input(self):
        """Free the padded input that the last forward cached.  `backward`
        raises RuntimeError until `restore_input` caches it again."""
        if self._cache is None:
            raise RuntimeError(f"{self.name}: drop_input before forward")
        self._cache = (None, *self._cache[1:])

    def restore_input(self, x: np.ndarray):
        """Cache `x`, the last forward's input built once more, as the padded
        input that `drop_input` freed: in place when it is the interior of a
        zero-bordered grid, as the forward's input was, else as a copy."""
        if self._cache is None or self._cache[0] is not None:
            raise RuntimeError(f"{self.name}: restore_input without drop_input")
        _, in_shape, out_shape = self._cache
        x = ensure_array5(x, self.name)
        if x.shape != in_shape:
            raise ValueError(f"{self.name}: restored input shape {x.shape} != {in_shape}")
        self._cache = (_padded(_channels_first(x)), in_shape, out_shape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        grad_out = np.asarray(grad_out)
        xp, in_shape, _ = _take_cache(self, self.name, grad_out, lambda cache: cache[2])
        if xp is None:
            raise RuntimeError(f"{self.name}: backward after drop_input without restore_input")
        c = xp.shape[0]
        kt, cout = self.kernel[0], self.out_channels
        plane, lead, rows, dy, dx = self._taps(in_shape[1:4])
        shifts = [r + s for r in dy for s in dx]
        gbuf = _gradient_rows(_channels_first(grad_out), lead)
        gf = gbuf[:, 2 * lead:]
        xf = xp.reshape(c, -1)
        wgrad = self.weight.grad.reshape(kt, len(shifts), c, cout)
        # summed from the buffer, so the order does not depend on grad_out's layout
        self.bias.grad += gbuf.sum(axis=1)
        for it in range(kt):
            x0 = it * plane
            if self.wide_input:
                for k, s in enumerate(shifts):
                    wgrad[it, k] += xf[:, x0 + s:x0 + s + rows] @ gf[:, :rows].T
            else:
                _gathered_wgrad(wgrad[it], xf[:, x0:], gf, shifts, rows)
        dtype = xp.dtype
        del xp, xf  # the input goes before its gradient is allocated
        if not self.input_grad:
            return None
        return self._input_grad(gbuf, in_shape, dtype, slice(None))

    def _input_grad(self, gbuf, in_shape, dtype, channels: slice) -> np.ndarray:
        """The gradient of `channels` (a slice of the input channels) of an
        input of `in_shape`: `_tap_gemms` the other way round, W[tap] (in,
        out) applied to `gbuf` (`_gradient_rows`) at minus each tap's shift,
        in the "kw" form for every conv: the kw col-shifted rows of `gbuf`
        stacked on K, the kh row shifts on the output side.  Timed as in
        `Conv3d`, every tap on K took 0.78-0.88 of the time of "kw" on the
        kt = 6 `head_a` and 1.00-1.66 on the up and on the skip channels
        of the former 48 -> 16 and 24 -> 8 convs of the whole decoder
        input, and every tap on the output side took 1.11-2.45 of "kw" on
        every desk conv."""
        T, H, W = in_shape[1:4]
        kt, cout = self.kernel[0], self.out_channels
        plane, lead, _, dy, dx = self._taps((T, H, W))
        To = (gbuf.shape[1] - 2 * lead) // plane
        w = self.weight.value.reshape(kt, -1, self.in_channels, cout)[:, :, channels]
        width = w.shape[2]
        gxp = _grid((width, T, H, W), dtype, zeros=True)
        gxf = gxp.reshape(width, T * plane)
        for it in range(kt):
            x0 = it * plane
            _tap_gemms(gxf[:, x0:x0 + To * plane], gbuf, w[it],
                       [-r for r in dy], [-s for s in dx], 2 * lead)
        return _channels_last(_interior(gxp))


def _folded_taps(phase: int, factor: int):
    """(coarse offsets, fold) of one axis of a 3-tap kernel read at output
    phase `phase` of a nearest-neighbour repetition by `factor`: output
    cell f*i + phase, tap k, reads repeated cell f*i + phase + k - 1, which
    is coarse cell i + (phase + k - 1) // f.  The taps fold onto those
    offsets (2 of them for f = 2, 3 for f = 1), sorted, and fold is the
    (offsets, 3) 0/1 matrix that sums each offset's taps."""
    reads = [(phase + k - 1) // factor for k in range(3)]
    offsets = sorted(set(reads))
    return offsets, np.array([[r == o for r in reads] for o in offsets], np.float64)


class UpsampleConv3d(Conv3d):
    """The first conv of a decoder stage: a 3x3 conv of the decoder input
    `[upsampled | skip]`, run on the coarse features and the skip in place,
    so that the decoder input is never built.

    Its weights are those of a (1, 3, 3) `Conv3d` of up + skip input
    channels, the up rows first.  The up channels are the coarse input
    repeated by `factors` (t, h, w), nearest neighbour, cropped to the
    skip's (t, h, w); the caller sets `skip` just before each `forward(x)`
    (x: the coarse features), which takes it.  Rows and cols must be the
    coarse ones times their factors exactly, and time may end in a ragged
    group, as ceiling pooling leaves it; else ValueError, as for a skip of
    another channel count.

    Forward runs the up rows first.  A repeated cell's 3x3 taps read only
    2 coarse cells per axis with factor 2 (3 with factor 1), so for each
    spatial repetition phase the up rows' taps fold onto the coarse offsets
    they read (`_folded_taps`) and run as "kw" GEMMs on the coarse padded
    grid, and the phase's result is written to its strided cells of the
    zeroed accumulator once for each time repetition, the ragged last group
    cropped: the phases cover every cell, and writing costs a third to a
    half of the time of adding.  The skip rows' taps then add a plain
    conv's "kw" GEMMs on the skip's padded grid.  The up channels thus cost
    1/3 of the FLOPs of a conv on the repeated input for factors (2, 2, 1)
    and 2/9 for (2, 2, 2).

    Backward returns the adjoint of both inputs, (coarse gradient, skip
    gradient); `input_grad` is the plain conv's and is not read here.  The
    skip rows' weight gradient takes the gathered form and the skip's
    gradient the "kw" form, as a plain conv's; the skip's gradient is
    allocated last, once the up rows' phase buffers are freed.  The up
    rows run the adjoint of their forward, phase by phase: grad_out's
    cells of the phase, summed over the time repetitions, fill a
    zero-bordered coarse grid G; each folded tap's weight gradient gets
    X[shifted] @ G.T over all the coarse cells, one GEMM per tap, and the
    coarse gradient gets the folded taps' "kw" GEMMs on G at minus their
    shifts, as a plain conv's input gradient.  The folded weight gradients
    are summed back onto the 3x3 taps they came from.  At the desk's shapes
    (one sample, 1 BLAS thread, 80 interleaved pairs) this
    took 0.85-0.92 of the time of summing grad_out, shifted by each of the
    9 taps, over every repetition group into one stack for two GEMMs on
    `dec1a`, and 1.04-1.11 on `dec2a`: 0.96 (radar) and 0.97 (multimodal)
    of it on both.  With the folded taps' weight gradient gathered instead
    of one GEMM per tap, `dec2a`'s backward took 1.08 (radar) and 1.16
    (multimodal) of the stack's time.  Both inputs are cached as they are,
    not copied: in a network they are ReLU outputs that their ReLUs hold
    anyway, so there is nothing to drop or rebuild (`drop_input`,
    `restore_input` and `rerun` raise).
    """

    def __init__(self, up_channels: int, skip_channels: int, out_channels: int, factors, *,
                 name: str = "conv", rng: np.random.Generator | None = None, dtype=np.float32):
        super().__init__(up_channels + skip_channels, out_channels, (1, 3, 3), name=name, rng=rng,
                         dtype=dtype)
        if min(factors) < 1:
            raise ValueError(f"{name}: repetition factors must be >= 1, got {factors}")
        self.factors = tuple(factors)
        self.up_channels = up_channels
        self.skip = None  # the skip that the next forward joins
        # each spatial phase (ph, pw) with its coarse row and col offsets, and
        # the matrix that folds the 3x3 taps onto every phase's offsets
        self._phases, folds = [], []
        for ph, pw in itertools.product(range(self.factors[1]), range(self.factors[2])):
            (rows_at, fold_h), (cols_at, fold_w) = (_folded_taps(ph, self.factors[1]),
                                                    _folded_taps(pw, self.factors[2]))
            self._phases.append(((ph, pw), rows_at, cols_at))
            folds.append(np.kron(fold_h, fold_w))
        self._fold = np.concatenate(folds)

    def _held_inputs(self, *_):
        raise RuntimeError(f"{self.name}: its inputs are held by the layers before it")

    drop_input = restore_input = rerun = _held_inputs

    def _phase_taps(self, Wcp: int):
        """Per spatial phase: ((ph, pw), the slice of its folded taps, its
        coarse row offsets, its coarse col offsets and its taps' shifts), on
        a coarse padded grid of Wcp cols.  Phase cell p reads coarse padded
        cell p + r*Wcp + c at offsets (r, c): from the first interior cell
        Wcp + 1, that is the shift (r + 1)*Wcp + c + 1."""
        first = 0
        for phase, rows_at, cols_at in self._phases:
            taps = slice(first, first + len(rows_at) * len(cols_at))
            first = taps.stop
            yield (phase, taps, rows_at, cols_at,
                   [(r + 1) * Wcp + c + 1 for r in rows_at for c in cols_at])

    def _folded_weights(self) -> np.ndarray:
        """The up rows' weights folded onto every phase's coarse offsets:
        (folded taps, up, out), in the weights' dtype."""
        w = self.weight.value[0, :, :, :self.up_channels]
        return (self._fold @ w.reshape(9, -1)).astype(w.dtype).reshape(-1, self.up_channels,
                                                                         self.out_channels)

    def forward(self, x: np.ndarray) -> np.ndarray:
        skip, self.skip = self.skip, None
        if skip is None:
            raise RuntimeError(f"{self.name}: forward without a skip")
        x = ensure_array5(x, self.name)
        skip = ensure_array5(skip, f"{self.name} skip")
        _, Tc, Hc, Wc, cu = x.shape
        _, T, H, W, cs = skip.shape
        ft, fh, fw = self.factors
        if (cu, cs) != (self.up_channels, self.in_channels - self.up_channels):
            raise ValueError(f"{self.name}: expected {self.up_channels} up and "
                             f"{self.in_channels - self.up_channels} skip channels, "
                             f"got {cu} and {cs}")
        if (H, W) != (Hc * fh, Wc * fw) or not (Tc - 1) * ft < T <= Tc * ft:
            raise ValueError(f"{self.name}: skip shape {skip.shape} does not match "
                             f"dims {x.shape[1:4]} repeated x{self.factors}")
        xp, sp = _padded(_channels_first(x)), _padded(_channels_first(skip))
        w, cout = self.weight.value[0], self.out_channels
        acc = _grid((cout, T, H, W), np.result_type(xp, sp, w), zeros=True)
        up = _interior(acc)
        # the up rows first, phase by phase on the coarse grid, each result
        # written to its strided cells of the accumulator, which it covers
        Wcp = Wc + 2
        cells = Tc * (Hc + 2) * Wcp
        xf = xp.reshape(cu, cells)
        folded = self._folded_weights().transpose(0, 2, 1)  # (taps, out, up)
        phase_out = np.empty((cout, cells), acc.dtype)
        coarse = _interior(phase_out.reshape(cout, Tc, Hc + 2, Wcp))
        for (ph, pw), taps, rows_at, cols_at, _ in self._phase_taps(Wcp):
            phase_out[...] = 0
            _tap_gemms(phase_out[:, Wcp + 1:cells - Wcp - 1], xf, folded[taps],
                       [(r + 1) * Wcp for r in rows_at], [c + 1 for c in cols_at], 0)
            for pt in range(ft):
                dst = up[:, pt::ft, ph::fh, pw::fw]
                dst[...] = coarse[:, :dst.shape[1]]
        del phase_out, coarse  # before the skip rows' GEMMs allocate theirs
        # then the skip rows, added on the skip's padded grid
        _, lead, rows, dy, dx = self._taps((T, H, W))
        ws = w[:, :, cu:].transpose(0, 1, 3, 2).reshape(9, cout, cs)
        _tap_gemms(acc.reshape(cout, -1)[:, lead:lead + rows], sp.reshape(cs, -1), ws, dy, dx, 0)
        acc += self.bias.value[:, None, None, None]  # the whole grid: one contiguous pass
        self._cache = (xp, sp, skip.shape)
        return _channels_last(up)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grad_out = np.asarray(grad_out)
        xp, sp, skip_shape = _take_cache(self, self.name, grad_out,
                                         lambda cache: (*cache[2][:4], self.out_channels))
        cu, Tc, Hcp, Wcp = xp.shape
        T, H, W, cs = skip_shape[1:]
        ft, fh, fw = self.factors
        cout = self.out_channels
        _, lead, rows, dy, dx = self._taps((T, H, W))
        g = _channels_first(grad_out)
        gbuf = _gradient_rows(g, lead)
        wgrad = self.weight.grad.reshape(9, self.in_channels, cout)
        self.bias.grad += gbuf.sum(axis=1)
        _gathered_wgrad(wgrad[:, cu:], sp.reshape(cs, -1), gbuf[:, 2 * lead:],
                        [r + s for r in dy for s in dx], rows)
        folded = self._folded_weights()  # (taps, up, out)
        wg_folded = np.zeros(folded.shape, wgrad.dtype)
        cells = Tc * Hcp * Wcp
        xf = xp.reshape(cu, cells)
        gx = _grid((cu, Tc, Hcp - 2, Wcp - 2), xp.dtype, zeros=True)
        gxf = gx.reshape(cu, cells)
        # one phase's gradient on the coarse padded grid, its border zero,
        # behind a zero margin of one halo (Wcp + 1) at each end
        halo, inner = Wcp + 1, cells - 2 * (Wcp + 1)
        g_rows = np.zeros((cout, cells + 2 * halo), grad_out.dtype)
        g_phase = _interior(g_rows[:, halo:-halo].reshape(cout, Tc, Hcp, Wcp))
        g_inner = g_rows[:, 2 * halo:2 * halo + inner]  # from the first interior cell
        for (ph, pw), taps, rows_at, cols_at, shifts in self._phase_taps(Wcp):
            g_phase[...] = g[:, ::ft, ph::fh, pw::fw]  # every group has a first frame
            for pt in range(1, ft):
                src = g[:, pt::ft, ph::fh, pw::fw]
                g_phase[:, :src.shape[1]] += src
            for k, s in zip(range(taps.start, taps.stop), shifts):
                wg_folded[k] += xf[:, s:s + inner] @ g_inner.T
            _tap_gemms(gxf[:, halo:halo + inner], g_rows, folded[taps],
                       [-r * Wcp for r in rows_at], [-c for c in cols_at], 2 * halo)
        # the folded taps summed back onto their 3x3 taps
        wgrad[:, :cu] += (self._fold.T @ wg_folded.reshape(len(folded), -1)).reshape(9, cu, cout)
        del g_rows, g_phase, g_inner, wg_folded, folded  # before the skip's gradient
        return (_channels_last(_interior(gx)),
                self._input_grad(gbuf, skip_shape, sp.dtype, slice(cu, None)))


def _where(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`np.where(mask, values, 0)` bit for bit, as an AND of the float bits
    with an all-ones or all-zeros integer, several times faster."""
    bits = values.view(f"i{values.itemsize}")
    return (bits & np.negative(mask.view(np.int8))).view(values.dtype)


class MaxPool3d:
    """Non-overlapping max pooling; a ragged last window shrinks.

    Forward takes the elementwise maximum over the window positions of the
    reshaped input, one strided view per position, and copies it into the
    interior of a zero-bordered grid.  A ragged input is first padded
    with -inf to whole windows, a copy that lives only while forward or
    backward runs: the cache holds the input view and the output, nothing
    else.  Backward rebuilds the windows from the input and routes each
    window's gradient to its first maximum in (t, h, w) window order, as
    `argmax` would: ties go to the first cell, and a window holding NaN
    routes to its first NaN.  Each window position's gradient is written
    into its strided cells of the interior of a zero-bordered grid.
    """

    def __init__(self, window):
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
        """The (c, ot, wt, oh, wh, ow, ww) windows of the (c, t, h, w) `x`:
        a view, or a -inf padded copy when the last windows are ragged."""
        c, T, H, W = x.shape
        wt, wh, ww = self.window
        ot, oh, ow = self.output_dims((T, H, W), self.window)
        if (ot * wt, oh * wh, ow * ww) != (T, H, W):
            pad = ((0, 0), (0, ot * wt - T), (0, oh * wh - H), (0, ow * ww - W))
            x = np.pad(x, pad, constant_values=-np.inf)
        return x.reshape(c, ot, wt, oh, wh, ow, ww)

    def _cells(self, windows):
        """The cell at each window position, across all windows, in (t, h, w) order."""
        return [windows[:, :, dt, :, dh, :, dw] for dt, dh, dw in np.ndindex(*self.window)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = ensure_array5(x, "maxpool")
        first, *rest = self._cells(self._windows(_channels_first(x)))
        peak = first.copy()
        for cell in rest:
            np.maximum(peak, cell, out=peak)
        out = _zero_border(_grid(peak.shape, peak.dtype))
        out[...] = peak
        self._cache = (x, _channels_last(out))
        return self._cache[1]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_out = np.asarray(grad_out)
        x, y = _take_cache(self, "maxpool", grad_out, lambda cache: cache[1].shape)
        xc, out, gc = _channels_first(x), _channels_first(y), _channels_first(grad_out)
        grad = _zero_border(_grid(xc.shape, grad_out.dtype))
        free = np.ones(out.shape, bool)  # windows whose gradient is not yet routed
        for position, cell in zip(np.ndindex(*self.window), self._cells(self._windows(xc))):
            hit = (cell == out) | np.isnan(cell)
            hit &= free
            # this position's cells of the input; a ragged last window may lack it
            dst = grad[(..., *(slice(p, None, w) for p, w in zip(position, self.window)))]
            dst[...] = _where(hit, gc)[(..., *(slice(n) for n in dst.shape[1:]))]
            free ^= hit
        return _channels_last(grad)


class ReLU:
    """Elementwise max(0, x), as np.where(x > 0, x, 0) bit for bit.

    Forward is fmax(x, 0) + 0, two passes with no temporaries: np.fmax
    returns the non-NaN operand, so NaN maps to +0.0, and the + 0 turns
    -0.0 into +0.0.  It runs over the whole grid that `x` is the interior
    of (`_buffer`; a conv's accumulator), else over a bordered copy of
    `x`, into a new grid whose border it then zeroes, and caches that grid:
    the output is its interior.  It is out of place, so a second forward of
    the same input gives the same output.  Backward's mask is out > 0, which
    equals x > 0, so the subgradient at exactly 0 is 0.  Backward is
    grad * mask, plus +0.0 so that a negative gradient at an inactive unit
    gives +0.0, not -0.0.  For finite gradients that is
    np.where(mask, grad, 0) bit for bit, except that a -0.0 gradient at an
    active unit comes back as +0.0.  A non-finite upstream gradient
    propagates (NaN * 0 is NaN) instead of being masked, so `Adam.step`
    raises and names the block.  The gradient is written into a new grid
    whose border is zeroed: the conv before reads it in place as its padded
    incoming gradient.  Like forward, it runs over the whole grid that grad
    is the interior of (a conv's input gradient or a pool's), else over a
    bordered copy of grad, multiplying whole grids
    in contiguous passes.
    """

    def __init__(self):
        self._cache = None

    def params(self):
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        xc = _channels_first(ensure_array5(x, "relu"))
        src = _buffer(xc)
        if src is None:
            src = _bordered_copy(xc)
        out = _grid(xc.shape, xc.dtype)
        np.fmax(src, 0, out=out)
        out += 0
        _zero_border(out)
        self._cache = out
        return _channels_last(_interior(out))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_out = np.asarray(grad_out)
        out = _take_cache(self, "relu", grad_out,
                          lambda cache: _channels_last(_interior(cache)).shape)
        gc = _channels_first(grad_out)
        src = _buffer(gc)
        if src is None:
            src = _bordered_copy(gc)
        g = _grid(gc.shape, gc.dtype)
        np.multiply(src, out > 0, out=g)
        g += 0
        return _channels_last(_zero_border(g))
