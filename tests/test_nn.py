import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from rainfusion.grids import FormatError
from rainfusion.nn import layers
from rainfusion.nn import (
    Adam,
    Conv3d,
    MaxPool3d,
    Parameter,
    ReLU,
    UpsampleConv3d,
    gradient_check,
    load_arrays,
    logcosh_loss,
    lr_for_epoch,
    mse_loss,
    save_arrays,
)


def conv3d_oracle(x, w, b):
    """Direct summation over every tap: the naive reference convolution,
    zero-padded in rows and cols and never in time."""
    bdim, T, H, W, cin = x.shape
    kt, kh, kw, _, cout = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    To = T - kt + 1
    out = np.zeros((bdim, To, H, W, cout))
    for n in range(bdim):
        for t in range(To):
            for i in range(H):
                for j in range(W):
                    for co in range(cout):
                        acc = b[co]
                        for dt in range(kt):
                            for di in range(kh):
                                for dj in range(kw):
                                    tt, ii, jj = t + dt, i + di - ph, j + dj - pw
                                    if 0 <= tt < T and 0 <= ii < H and 0 <= jj < W:
                                        for ci in range(cin):
                                            acc += x[n, tt, ii, jj, ci] * w[dt, di, dj, ci, co]
                        out[n, t, i, j, co] = acc
    return out


def projection_loss(layer, x, proj):
    """Scalar probe: sum(proj * layer(x)); grads via backward(proj)."""
    def loss_fn():
        return float(np.sum(proj * layer.forward(x.value)))
    return loss_fn


def channels_first_backed(x):
    """The same values as `x`, as the (1, t, h, w, c) view of channels-first memory."""
    return np.ascontiguousarray(x[0].transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)[None]


def grid_backed(x, border=0.0, frames=None, start=0):
    """The same values as the one-sample `x`, as the (1, t, h, w, c) view of
    the interior of a grid from the layers' allocator (`layers._grid`) whose
    border holds `border`; with `frames`, of the time slice from `start` of
    a grid that many frames long."""
    _, T, H, W, c = x.shape
    grid = layers._grid((c, frames or T, H, W), x.dtype)
    grid[...] = border
    interior = grid[:, start:start + T, 1:-1, 1:-1]
    interior[...] = x[0].transpose(3, 0, 1, 2)
    return interior.transpose(1, 2, 3, 0)[None]


def grid_of(x):
    """The channels-first (c, t', H + 2, W + 2) grid, checked by hand, whose
    interior is the one-sample `x` or a time slice of which it is (t' >=
    t): it fills the 1-D allocation `x.base` but for zero margins of W + 3
    cells at each end, the one layout of every buffer a layer writes.
    Fails the test otherwise."""
    flat = x.base
    one, T, H, W, c = x.shape
    lead, plane = W + 3, (H + 2) * (W + 2)
    assert one == 1
    assert isinstance(flat, np.ndarray) and flat.ndim == 1 and flat.flags.c_contiguous
    assert flat.dtype == x.dtype and (flat.size - 2 * lead) % (c * plane) == 0
    bits = flat.view(f"u{x.itemsize}")
    assert not bits[:lead].any() and not bits[-lead:].any()
    grid = flat[lead:-lead].reshape(c, -1, H + 2, W + 2)
    interior = grid[..., 1:-1, 1:-1]
    start, rest = divmod(x.ctypes.data - interior.ctypes.data, interior.strides[1])
    assert rest == 0 and 0 <= start <= grid.shape[1] - T
    xc = x[0].transpose(3, 0, 1, 2)
    assert all(n == 1 or p == q for n, p, q in zip(xc.shape, xc.strides, interior.strides))
    return grid


def assert_zero_border(x):
    """`x` is the interior, or a time slice of it, of a grid (see `grid_of`)
    whose border bits are all zero."""
    bits = grid_of(x).view(f"u{x.itemsize}").copy()
    bits[..., 1:-1, 1:-1] = 0
    assert not bits.any()


def assert_bits_equal(a, b):
    """Equal bit for bit, signed zeros included; any NaN matches any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    nan = np.isnan(a)
    np.testing.assert_array_equal(nan, np.isnan(b))
    ints = f"u{a.itemsize}"
    np.testing.assert_array_equal(a[~nan].view(ints), b[~nan].view(ints))


def pool_windows(x, window):
    """Channels-last (b, ot, oh, ow, c, cells) pool windows, -inf padded."""
    b, T, H, W, c = x.shape
    wt, wh, ww = window
    ot, oh, ow = MaxPool3d.output_dims((T, H, W), window)
    pad = ((0, 0), (0, ot * wt - T), (0, oh * wh - H), (0, ow * ww - W), (0, 0))
    xr = np.pad(x, pad, constant_values=-np.inf).reshape(b, ot, wt, oh, wh, ow, ww, c)
    return xr.transpose(0, 1, 3, 5, 7, 2, 4, 6).reshape(b, ot, oh, ow, c, wt * wh * ww)


def maxpool_oracle(x, window, grad_out):
    """Channels-last argmax pooling: its output, and grad_out routed back."""
    b, T, H, W, c = x.shape
    wt, wh, ww = window
    ot, oh, ow = MaxPool3d.output_dims((T, H, W), window)
    flat = pool_windows(x, window)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    routed = np.zeros((b, ot, oh, ow, c, wt * wh * ww), dtype=grad_out.dtype)
    np.put_along_axis(routed, idx[..., None], grad_out[..., None], axis=-1)
    g = routed.reshape(b, ot, oh, ow, c, wt, wh, ww).transpose(0, 1, 5, 2, 6, 3, 7, 4)
    return out, g.reshape(b, ot * wt, oh * wh, ow * ww, c)[:, :T, :H, :W, :]


class TestConv3d:
    def test_identity_kernel(self):
        conv = Conv3d(1, 1, kernel=(1, 1, 1), dtype=np.float64)
        conv.weight.value[...] = 1.0
        conv.bias.value[...] = 0.0
        x = np.random.default_rng(0).normal(size=(1, 3, 4, 5, 1))
        np.testing.assert_allclose(conv.forward(x), x, atol=1e-12)

    def test_zero_weights_give_bias(self):
        conv = Conv3d(2, 3, kernel=(1, 3, 3), dtype=np.float64)
        conv.weight.value[...] = 0.0
        conv.bias.value[...] = np.array([1.0, -2.0, 0.5])
        out = conv.forward(np.random.default_rng(1).normal(size=(1, 2, 4, 4, 2)))
        np.testing.assert_allclose(out[..., 0], 1.0)
        np.testing.assert_allclose(out[..., 1], -2.0)
        np.testing.assert_allclose(out[..., 2], 0.5)

    @pytest.mark.parametrize(
        "shape,kernel,pad",
        [
            ((1, 2, 3, 3, 2), (1, 3, 3), "same"),
            ((1, 4, 5, 4, 3), (1, 3, 3), "same"),
            ((1, 6, 4, 4, 2), (6, 3, 3), "valid"),
            ((1, 3, 5, 5, 1), (1, 1, 1), "same"),
            ((1, 3, 5, 4, 1), (1, 3, 3), "same"),
            ((1, 4, 5, 4, 3), (3, 3, 3), "valid"),
        ],
    )
    def test_matches_naive_oracle(self, shape, kernel, pad):
        rng = np.random.default_rng(42)
        conv = Conv3d(shape[-1], 2, kernel=kernel, rng=rng, dtype=np.float64)
        assert conv.temporal_pad == pad  # set by the kernel's temporal extent
        x = rng.normal(size=shape)
        out = conv.forward(x)
        ref = conv3d_oracle(x, conv.weight.value, conv.bias.value)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_backward_zero_grad(self):
        conv = Conv3d(2, 2, dtype=np.float64)
        x = np.random.default_rng(2).normal(size=(1, 2, 3, 3, 2))
        out = conv.forward(x)
        gx = conv.backward(np.zeros_like(out))
        assert not gx.any()
        assert not conv.weight.grad.any()
        assert not conv.bias.grad.any()

    def test_bias_grad_is_sum_over_positions(self):
        conv = Conv3d(1, 2, dtype=np.float64)
        x = np.random.default_rng(3).normal(size=(1, 2, 4, 4, 1))
        out = conv.forward(x)
        g = np.random.default_rng(4).normal(size=out.shape)
        conv.backward(g)
        np.testing.assert_allclose(conv.bias.grad, g.sum(axis=(0, 1, 2, 3)), atol=1e-12)

    @pytest.mark.parametrize(
        "pad,kernel,shape",
        [
            ("same", (1, 3, 3), (1, 4, 5, 5, 2)),
            ("valid", (4, 3, 3), (1, 4, 5, 5, 2)),
            ("same", (1, 3, 3), (1, 4, 5, 4, 2)),  # rows != cols
            ("valid", (4, 3, 3), (1, 4, 4, 5, 1)),  # one input channel
        ],
        ids=["same-kernel0", "valid-kernel1", "same-5x4", "valid-1channel"],
    )
    def test_gradients_match_finite_differences(self, pad, kernel, shape):
        rng = np.random.default_rng(5)
        conv = Conv3d(shape[-1], 2, kernel=kernel, rng=rng, dtype=np.float64)
        assert conv.temporal_pad == pad
        xp = Parameter("x", rng.normal(size=shape))
        proj = rng.normal(size=conv.forward(xp.value).shape)
        conv.weight.zero_grad(), conv.bias.zero_grad()
        xp.grad = conv.backward(proj)
        err = gradient_check(projection_loss(conv, xp, proj),
                             [conv.weight, conv.bias, xp],
                             [conv.weight.grad, conv.bias.grad, xp.grad],
                             n_samples=120, seed=0)
        assert err < 1e-7  # purely linear map

    @pytest.mark.parametrize("cin", [3, 1])
    def test_parameter_gradients_accumulate(self, cin):
        rng = np.random.default_rng(6)
        conv = Conv3d(cin, 2, kernel=(2, 3, 3), rng=rng, dtype=np.float64)
        x = rng.normal(size=(1, 3, 5, 4, cin))
        g = rng.normal(size=conv.forward(x).shape)
        conv.backward(g)
        once = conv.weight.grad.copy(), conv.bias.grad.copy()
        conv.forward(x)  # backward consumed the first forward's cache
        conv.backward(g)  # no zero_grad in between
        np.testing.assert_allclose(conv.weight.grad, 2 * once[0], rtol=1e-12)
        np.testing.assert_allclose(conv.bias.grad, 2 * once[1], rtol=1e-12)

    @pytest.mark.parametrize(
        "shape,cout,kernel,pad",
        [
            ((1, 6, 12, 10, 24), 8, (1, 3, 3), "same"),
            ((1, 6, 12, 10, 1), 8, (1, 3, 3), "same"),
            ((1, 6, 12, 10, 8), 2, (6, 3, 3), "valid"),
        ],
    )
    def test_backward_is_adjoint_of_forward(self, shape, cout, kernel, pad):
        """<conv(x), g> = <x, backward(g)> = <W, weight.grad> with zero bias."""
        rng = np.random.default_rng(7)
        conv = Conv3d(shape[-1], cout, kernel=kernel, rng=rng, dtype=np.float64)
        assert conv.temporal_pad == pad
        x = rng.normal(size=shape)
        out = conv.forward(x)
        g = rng.normal(size=out.shape)
        gx = conv.backward(g)
        ref = np.vdot(out, g)
        np.testing.assert_allclose(np.vdot(x, gx), ref, rtol=1e-10)
        np.testing.assert_allclose(np.vdot(conv.weight.value, conv.weight.grad), ref, rtol=1e-10)

    @pytest.mark.parametrize(
        "shape,cout,kernel,pad",
        [
            ((1, 6, 64, 24, 24), 8, (1, 3, 3), "same"),
            ((1, 6, 64, 24, 8), 2, (6, 3, 3), "valid"),
        ],
    )
    def test_forward_allocates_no_im2col(self, shape, cout, kernel, pad):
        """Peak allocation of a forward stays within 2x input + output + padded input."""
        rng = np.random.default_rng(8)
        conv = Conv3d(shape[-1], cout, kernel=kernel, rng=rng)
        assert conv.temporal_pad == pad
        x = rng.random(shape, dtype=np.float32)
        tracemalloc.start()
        try:
            out = conv.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        padded = conv._cache[0]
        assert peak <= 2 * (x.nbytes + out.nbytes + padded.nbytes)

    def test_dropped_input_restored_gives_held_gradients(self):
        """An input dropped after the forward and restored from a rebuilt
        copy gives the gradients of the input held throughout, bit for bit;
        restored in place when the copy is a zero-bordered buffer."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 3, 5, 4, 3)).astype(np.float32)
        g = rng.normal(size=(1, 3, 5, 4, 2)).astype(np.float32)
        results = []
        for drop in (False, True):
            conv = Conv3d(3, 2, rng=np.random.default_rng(10))
            conv.forward(x)
            if drop:
                conv.drop_input()
                assert conv._cache[0] is None
                rebuilt = grid_backed(x)
                conv.restore_input(rebuilt)
                assert conv._cache[0].base is rebuilt.base
            results.append((conv.backward(g), conv.weight.grad, conv.bias.grad))
        for a, b in zip(*results):
            assert_bits_equal(a, b)

    def test_rerun_gives_the_forward_output_from_the_cached_input(self):
        """`rerun` is a forward on the cached padded input, read in place;
        with no forward, or with the input dropped, it has nothing to run."""
        conv = Conv3d(3, 2, name="enc9a", rng=np.random.default_rng(12))
        with pytest.raises(RuntimeError, match="enc9a: rerun without a cached input"):
            conv.rerun()
        x = grid_backed(np.random.default_rng(13).normal(size=(1, 2, 4, 5, 3)).astype(np.float32))
        out = conv.forward(x)
        assert_bits_equal(conv.rerun(), out)
        assert conv._cache[0].base is x.base
        conv.drop_input()
        with pytest.raises(RuntimeError, match="enc9a: rerun without a cached input"):
            conv.rerun()

    def test_dropped_input_never_restored_raises(self):
        conv = Conv3d(3, 2, name="dec9a", rng=np.random.default_rng(11))
        x = np.ones((1, 2, 4, 4, 3))
        with pytest.raises(RuntimeError, match="dec9a: drop_input before forward"):
            conv.drop_input()
        g = np.ones_like(conv.forward(x))
        with pytest.raises(RuntimeError, match="dec9a: restore_input without drop_input"):
            conv.restore_input(x)
        conv.drop_input()
        with pytest.raises(ValueError, match="dec9a: restored input shape"):
            conv.restore_input(x[:, :1])
        with pytest.raises(RuntimeError, match="dec9a: backward after drop_input"):
            conv.backward(g)
        with pytest.raises(RuntimeError, match="dec9a: backward before forward"):
            conv.backward(g)

    @pytest.mark.parametrize("cin,cout", [(24, 8), (6, 9)], ids=["wide-input", "gathered"])
    def test_backward_without_input_gradient(self, cin, cout, monkeypatch):
        """With `input_grad` false, `backward` returns None, runs no
        `_tap_gemms` (a backward runs them only for the input gradient) and
        adds the parameter gradients of a backward that returns the input
        gradient, bit for bit."""
        rng = np.random.default_rng(12)
        x = rng.normal(size=(1, 4, 40, 36, cin)).astype(np.float32)  # several GEMM blocks
        g = rng.normal(size=(1, 4, 40, 36, cout)).astype(np.float32)
        tap_gemms, calls = layers._tap_gemms, []

        def spy(*args):
            calls.append(args)
            return tap_gemms(*args)

        monkeypatch.setattr(layers, "_tap_gemms", spy)
        results = []
        for input_grad in (True, False):
            conv = Conv3d(cin, cout, rng=np.random.default_rng(13))
            conv.input_grad = input_grad
            conv.forward(x)
            calls.clear()
            gx = conv.backward(g)
            assert (gx is None, bool(calls)) == (not input_grad, input_grad)
            results.append((conv.weight.grad, conv.bias.grad))
        for a, b in zip(*results, strict=True):
            assert_bits_equal(a, b)

    def test_shape_validation(self):
        conv = Conv3d(2, 2)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 2, 3, 3, 5)))
        with pytest.raises(ValueError):
            conv.forward(np.zeros((2, 3, 3, 5)))
        with pytest.raises(ValueError):
            Conv3d(1, 1, kernel=(1, 2, 3))
        with pytest.raises(ValueError, match="wide: spatial kernel dims must be 1 or 3"):
            Conv3d(1, 1, kernel=(1, 5, 5), name="wide")
        with pytest.raises(ValueError):
            Conv3d(1, 1, kernel=(2, 3, 3)).forward(np.zeros((1, 1, 3, 3, 1)))


def conv_direct_f64(x, w, g):
    """Float64 direct sums over the taps of a conv zero-padded in rows and
    cols: its output without bias, the input gradient of the output
    gradient `g`, and the weight gradient."""
    x, w, g = (np.asarray(a, np.float64) for a in (x, w, g))
    H, W = x.shape[2:4]
    kt, kh, kw = w.shape[:3]
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw), (0, 0)))
    out, gxp, gw = np.zeros(g.shape), np.zeros_like(xp), np.zeros_like(w)
    for dt, di, dj in np.ndindex(kt, kh, kw):
        window = (slice(None), slice(dt, dt + g.shape[1]), slice(di, di + H), slice(dj, dj + W))
        out += xp[window] @ w[dt, di, dj]
        gxp[window] += g @ w[dt, di, dj].T
        gw[dt, di, dj] = np.tensordot(xp[window], g, axes=([0, 1, 2, 3], [0, 1, 2, 3]))
    return out, gxp[:, :, ph:ph + H, pw:pw + W], gw


class TestTapSplits:
    """Each GEMM form of a conv against float64 direct sums."""

    # (in, out, kernel, input (t, h, w), wide-input): each side of the one
    # test (in > 2 * out), which takes a weight gradient per tap (else from
    # gathered blocks); every forward and input gradient takes "kw".  The
    # kt = 6 head and a 1x1 kernel too; every 3x3 case spans two GEMM blocks
    # (`_ROW_BLOCK`) and several gathered blocks (`_COLS_BYTES`)
    CASES = [
        (8, 8, (1, 3, 3), (3, 40, 36), False),
        (16, 8, (1, 3, 3), (3, 40, 36), False),
        (24, 8, (1, 3, 3), (3, 40, 36), True),
        (8, 16, (1, 3, 3), (3, 40, 36), False),
        (8, 24, (1, 3, 3), (3, 40, 36), False),
        (1, 8, (1, 3, 3), (3, 40, 36), False),
        (8, 2, (6, 3, 3), (6, 64, 64), True),
        (2, 1, (1, 1, 1), (1, 64, 64), False),
    ]

    @pytest.mark.parametrize("dtype,bound", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: "{}-{}-{}x{}x{}-{}".format(
        *c[:2], *c[2], "wide" if c[4] else "narrow"))
    def test_matches_float64_direct_sums(self, case, dtype, bound, monkeypatch):
        cin, cout, kernel, dims, wide = case
        rng = np.random.default_rng(cin * 100 + cout)
        conv = Conv3d(cin, cout, kernel, rng=rng, dtype=dtype)
        assert conv.wide_input == wide
        conv.bias.value[...] = rng.normal(size=cout)
        x = rng.normal(size=(1, *dims, cin)).astype(dtype)
        g = rng.normal(size=(1, dims[0] - kernel[0] + 1, *dims[1:], cout)).astype(dtype)
        k_shifts, gathered = [], []
        tap_gemms, gathered_wgrad = layers._tap_gemms, layers._gathered_wgrad

        def tap_spy(dst, src, w, out_shifts, ks, base):
            k_shifts.append(len(ks))
            return tap_gemms(dst, src, w, out_shifts, ks, base)

        def gathered_spy(*args):
            gathered.append(args)
            return gathered_wgrad(*args)

        monkeypatch.setattr(layers, "_tap_gemms", tap_spy)
        monkeypatch.setattr(layers, "_gathered_wgrad", gathered_spy)
        out, gx, gw, _ = conv_step(conv, x, g)
        calls = kernel[0]  # one per temporal tap
        assert k_shifts == [kernel[2]] * 2 * calls  # forward, then input gradient: kw taps on K
        assert len(gathered) == (0 if wide else calls)
        want = conv_direct_f64(x, conv.weight.value, g)
        got = (out - conv.bias.value, gx, gw)
        for name, a, b in zip(("output", "input gradient", "weight gradient"), got, want):
            assert a.dtype == dtype
            assert np.abs(a - b).max() <= bound * np.abs(b).max(), name


def conv_step(conv, x, g):
    """(output, input gradient, weight gradient, bias gradient) of one
    forward and backward, the gradients accumulated from zero."""
    conv.weight.zero_grad()
    conv.bias.zero_grad()
    out = conv.forward(x)
    return out, conv.backward(g), conv.weight.grad.copy(), conv.bias.grad.copy()


class TestGemmScratch:
    """The conv GEMM block temporaries are private to the call that makes
    them."""

    # (in, out, kernel, input (t, h, w)): both weight-gradient forms (per
    # tap for the wide-input 12 -> 4, gathered for the others), and inputs
    # of one block and of several
    CONVS = [
        (3, 2, (1, 3, 3), (4, 6, 5)),
        (12, 4, (3, 3, 3), (8, 40, 36)),
        (8, 5, (1, 3, 3), (2, 50, 44)),
        (2, 6, (2, 3, 3), (3, 5, 4)),
    ]

    @classmethod
    def case(cls, i, dtype):
        """A conv of `CONVS[i]` in `dtype`, its input and its output gradient."""
        cin, cout, kernel, (t, h, w) = cls.CONVS[i]
        rng = np.random.default_rng(20 + i)
        conv = Conv3d(cin, cout, kernel, rng=rng, dtype=dtype)
        x = rng.normal(size=(1, t, h, w, cin)).astype(dtype)
        return conv, x, rng.normal(size=(1, t - kernel[0] + 1, h, w, cout)).astype(dtype)

    def test_two_threads_get_their_own_results(self):
        """Two threads running different convs at once each get the results
        of the same conv run alone."""
        keys = [(1, np.float32), (2, np.float64)]
        want = [conv_step(*self.case(*key)) for key in keys]
        start = threading.Barrier(2, timeout=60)
        results = [None, None]

        def run(slot):
            start.wait()
            results[slot] = [conv_step(*self.case(*keys[slot])) for _ in range(3)]

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch between the threads' Python steps often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, expected in zip(results, want, strict=True):
            assert got is not None and len(got) == 3
            for step in got:
                for a, b in zip(step, expected, strict=True):
                    assert_bits_equal(a, b)


def untied_pool_input(rng, shape, window):
    """Random input whose pool windows have clear, unique maxima."""
    for _ in range(50):
        x = rng.normal(size=shape)
        top2 = np.sort(pool_windows(x, window), axis=-1)[..., -2:]
        gaps = top2[..., 1] - top2[..., 0]
        if np.min(gaps[np.isfinite(gaps)]) > 1e-3:
            return x
    raise AssertionError("could not draw a tie-free pooling input")


class TestMaxPool3d:
    def test_unit_window_is_identity(self):
        x = np.random.default_rng(6).normal(size=(1, 3, 4, 5, 2))
        pool = MaxPool3d((1, 1, 1))
        np.testing.assert_array_equal(pool.forward(x), x)

    def test_ceiling_semantics_on_time(self):
        x = np.zeros((1, 6, 4, 4, 1))
        assert MaxPool3d((2, 2, 2)).forward(x).shape == (1, 3, 2, 2, 1)
        x = np.zeros((1, 3, 4, 4, 1))
        assert MaxPool3d((2, 2, 2)).forward(x).shape == (1, 2, 2, 2, 1)

    def test_ragged_window_takes_real_max(self):
        x = np.full((1, 3, 1, 1, 1), -5.0)
        x[0, 2, 0, 0, 0] = -1.0  # alone in the shrunken last window
        out = MaxPool3d((2, 1, 1)).forward(x)
        np.testing.assert_allclose(out[0, :, 0, 0, 0], [-5.0, -1.0])

    def test_tie_routes_to_first_occurrence(self):
        x = np.zeros((1, 1, 2, 2, 1))
        pool = MaxPool3d((1, 2, 2))
        out = pool.forward(x)
        g = pool.backward(np.ones_like(out))
        assert g[0, 0, 0, 0, 0] == 1.0
        assert g.sum() == 1.0

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = untied_pool_input(rng, (1, 5, 6, 6, 2), (2, 2, 2))
        pool = MaxPool3d((2, 2, 2))
        xp = Parameter("x", x)
        proj = rng.normal(size=pool.forward(x).shape)
        xp.grad = pool.backward(proj)
        err = gradient_check(projection_loss(pool, xp, proj), [xp], [xp.grad],
                             n_samples=150, seed=1)
        assert err < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fill", ["normal", "relu", "nan"])
    @pytest.mark.parametrize(
        "window,shape",
        [
            ((2, 2, 1), (1, 6, 8, 6, 3)),
            ((2, 2, 2), (1, 6, 8, 6, 3)),
            ((2, 2, 1), (1, 5, 7, 4, 2)),  # ragged time, odd rows
            ((2, 2, 2), (1, 3, 5, 5, 2)),  # ragged in every axis
        ],
    )
    def test_matches_argmax_oracle(self, window, shape, fill, dtype):
        rng = np.random.default_rng(20)
        x = rng.normal(size=shape).astype(dtype)
        if fill == "relu":  # as after a ReLU: most windows are all zero
            x = np.where(x > 1.0, x, 0)
        elif fill == "nan":
            x[0, 0, 1, 0, 0] = x[0, 1, 0, 0, 0] = np.nan  # (0, 1, 0) is first in window order
            x[0, -1, -1, -1, -1] = np.nan  # in the ragged last window
        pool = MaxPool3d(window)
        out = pool.forward(x)
        g = rng.normal(size=out.shape).astype(dtype)
        ref_out, ref_grad = maxpool_oracle(x, window, g)
        assert_bits_equal(out, ref_out)
        assert_bits_equal(pool.backward(g), ref_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window", [(2, 2, 1), (2, 2, 2)])
    def test_ragged_pool_caches_only_input_and_output(self, window, dtype):
        """Ragged in t, h and w, with ties and NaN: output and gradient equal
        the argmax oracle bit for bit, and between forward and backward the
        cache holds the input view and the output, not the -inf padded copy
        of the windows."""
        rng = np.random.default_rng(21)
        x = np.where(rng.normal(size=(1, 5, 7, 5, 3)) > 0.8, 1.0, 0.0).astype(dtype)  # ties
        x[0, 4, 6, 4, 0] = x[0, 0, 0, 0, 2] = x[0, 1, 0, 0, 2] = np.nan
        pool = MaxPool3d(window)
        out = pool.forward(x)
        arrays = [a for a in pool._cache if isinstance(a, np.ndarray)]
        assert len(arrays) == 2 and arrays[0] is x and arrays[1] is out
        g = rng.normal(size=out.shape).astype(dtype)
        ref_out, ref_grad = maxpool_oracle(x, window, g)
        assert_bits_equal(out, ref_out)
        assert_bits_equal(pool.backward(g), ref_grad)


def upsample_conv_reference(layer, x, skip, g):
    """Float64 (output, coarse input gradient, skip gradient, weight
    gradient, bias gradient) of the `UpsampleConv3d` `layer` on `x` and
    `skip`, for output gradient `g`: the decoder input built by np.repeat,
    a crop to the skip's dims and np.concatenate, run through a plain
    float64 `Conv3d` with the same weights, and the gradient of its up
    channels summed over each repetition group (np.add.reduceat)."""
    x, skip, g = (np.asarray(a, np.float64) for a in (x, skip, g))
    up = x
    for axis, (f, n) in enumerate(zip(layer.factors, skip.shape[1:4]), start=1):
        up = np.repeat(up, f, axis=axis)[(slice(None),) * axis + (slice(n),)]
    conv = Conv3d(layer.in_channels, layer.out_channels, dtype=np.float64)
    conv.weight.value[...] = layer.weight.value
    conv.bias.value[...] = layer.bias.value
    out = conv.forward(np.concatenate([up, skip], axis=-1))
    joined_grad = conv.backward(g)
    gx = joined_grad[..., :layer.up_channels]
    for axis, (f, d) in enumerate(zip(layer.factors, x.shape[1:4]), start=1):
        gx = np.add.reduceat(gx, np.arange(d) * f, axis=axis)
    return out, gx, joined_grad[..., layer.up_channels:], conv.weight.grad, conv.bias.grad


def upsample_conv_step(layer, x, skip, g):
    """(output, coarse input gradient, skip gradient, weight gradient, bias
    gradient) of one forward and backward of `layer`, from zero gradients."""
    for p in layer.params():
        p.zero_grad()
    layer.skip = skip
    out = layer.forward(x)
    gx, gs = layer.backward(g)
    return out, gx, gs, layer.weight.grad.copy(), layer.bias.grad.copy()


class TestUpsampleConv3d:
    """The decoder conv on [upsampled | skip], run on the coarse input and
    the skip without building the decoder input."""

    # (up, skip, out channels, factors, coarse (t, h, w), skip (t, h, w)):
    # the radar and multimodal pool windows, the (1, 2, 2) window that
    # pools cols too, a ragged last time group (3 frames from 2) and unit
    # factors; the first spans several GEMM blocks (`_ROW_BLOCK`) and
    # several blocks of the backward's stack (`_COLS_BYTES`)
    CASES = [
        (16, 8, 8, (2, 2, 1), (3, 30, 36), (6, 60, 36)),
        (16, 8, 8, (2, 2, 2), (3, 30, 18), (6, 60, 36)),
        (16, 8, 8, (1, 2, 2), (3, 30, 18), (3, 60, 36)),
        (6, 3, 4, (2, 2, 2), (2, 10, 9), (3, 20, 18)),
        (4, 2, 3, (1, 1, 1), (2, 9, 7), (2, 9, 7)),
    ]

    @pytest.mark.parametrize("dtype,bound", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: "{}{}{}-{}x{}x{}-from-{}x{}x{}".format(
        *c[3], *c[4], *c[5]))
    def test_matches_repeat_concat_conv_reference(self, case, dtype, bound):
        """Output, coarse and skip input gradients and weight and bias
        gradients within `bound` of the float64 reference, as max |diff| /
        max |reference|."""
        cu, cs, cout, factors, coarse, dims = case
        rng = np.random.default_rng(cu * 100 + sum(dims))
        layer = UpsampleConv3d(cu, cs, cout, factors, rng=rng, dtype=dtype)
        layer.bias.value[...] = rng.normal(size=cout)
        x = rng.normal(size=(1, *coarse, cu)).astype(dtype)
        skip = rng.normal(size=(1, *dims, cs)).astype(dtype)
        g = rng.normal(size=(1, *dims, cout)).astype(dtype)
        got = upsample_conv_step(layer, x, skip, g)
        want = upsample_conv_reference(layer, x, skip, g)
        names = ("output", "coarse gradient", "skip gradient", "weight gradient", "bias gradient")
        for name, a, b in zip(names, got, want, strict=True):
            assert a.dtype == dtype and a.shape == b.shape, name
            assert np.abs(a - b).max() <= bound * np.abs(b).max(), name

    def test_backward_counts_repetitions(self):
        """With the centre tap of the up channel as the only weight, the
        output is the repeated input cropped to the skip (ceiling-pooled
        dims: time groups of 2, 2 and 1) and the coarse gradient of ones
        counts each group's cells."""
        layer = UpsampleConv3d(1, 1, 1, (2, 2, 1), dtype=np.float64)
        layer.weight.value[...] = 0
        layer.weight.value[0, 1, 1, 0, 0] = 1
        x = np.random.default_rng(8).normal(size=(1, 3, 2, 2, 1))
        out, gx, gs, *_ = upsample_conv_step(layer, x, np.zeros((1, 5, 4, 2, 1)),
                                             np.ones((1, 5, 4, 2, 1)))
        assert_bits_equal(out, np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)[:, :5])
        np.testing.assert_array_equal(gx[0, :, :, :, 0], np.array([4.0, 4.0, 2.0])[:, None, None]
                                      * np.ones((3, 2, 2)))
        assert not gs.any()

    def test_inverts_ceiling_pooled_dims(self):
        """Pooled with ceiling semantics (time 5 -> 3) and joined to the
        pool's input, the output has the skip's dims."""
        skip = np.random.default_rng(9).normal(size=(1, 5, 4, 6, 2))
        layer = UpsampleConv3d(2, 2, 3, (2, 2, 2))
        layer.skip = skip
        assert layer.forward(MaxPool3d((2, 2, 2)).forward(skip)).shape == (1, 5, 4, 6, 3)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        layer = UpsampleConv3d(3, 2, 2, (2, 2, 2), rng=rng, dtype=np.float64)
        layer.bias.value[...] = rng.normal(size=2)
        x = Parameter("x", rng.normal(size=(1, 2, 3, 2, 3)))
        skip = Parameter("skip", rng.normal(size=(1, 3, 6, 4, 2)))
        proj = rng.normal(size=(1, 3, 6, 4, 2))

        def loss_fn():
            layer.skip = skip.value
            return float(np.sum(proj * layer.forward(x.value)))

        loss_fn()
        x.grad, skip.grad = layer.backward(proj)
        params = [layer.weight, layer.bias, x, skip]
        assert gradient_check(loss_fn, params, n_samples=150, seed=2) < 1e-7  # linear

    def test_shape_validation(self):
        layer = UpsampleConv3d(2, 1, 3, (2, 2, 2), name="dec9a")
        x = np.zeros((1, 3, 3, 4, 2))

        def forward(skip, coarse=x):
            layer.skip = np.zeros(skip)
            return layer.forward(coarse)

        forward((1, 6, 6, 8, 1))
        forward((1, 5, 6, 8, 1))  # a ragged last time group
        for dims in [(4, 6, 8),  # last time group unused
                     (7, 6, 8),  # beyond reach of x2
                     (6, 5, 8),  # rows not the coarse rows x2
                     (6, 6, 7),  # cols ceiling-pooled, not exact
                     (6, 6, 9)]:
            with pytest.raises(ValueError, match="dec9a: skip shape"):
                forward((1, *dims, 1))
        with pytest.raises(ValueError, match="dec9a: expected 2 up and 1 skip channels, got 2 and 2"):
            forward((1, 6, 6, 8, 2))
        with pytest.raises(ValueError, match="dec9a: expected 2 up and 1 skip channels, got 3 and 1"):
            forward((1, 6, 6, 8, 1), np.zeros((1, 3, 3, 4, 3)))
        with pytest.raises(ValueError, match="repetition factors must be >= 1"):
            UpsampleConv3d(2, 1, 3, (2, 0, 2))

    def test_forward_without_skip_raises(self):
        """`forward` takes the skip that the caller set: a second forward
        without setting it again has none."""
        layer = UpsampleConv3d(2, 1, 3, (2, 2, 2), name="dec9a")
        x = np.zeros((1, 3, 3, 4, 2))
        with pytest.raises(RuntimeError, match="dec9a: forward without a skip"):
            layer.forward(x)
        layer.skip = np.zeros((1, 6, 6, 8, 1))
        layer.forward(x)
        assert layer.skip is None
        with pytest.raises(RuntimeError, match="dec9a: forward without a skip"):
            layer.forward(x)

    def test_inputs_are_held_and_backward_gives_both_gradients_once(self):
        """The inputs, which the layers before hold, cannot be dropped,
        restored or run again.  One backward gives the gradients of both
        inputs, at their own shapes, and a second one raises."""
        layer = UpsampleConv3d(2, 1, 3, (2, 2, 2), name="dec9a")
        layer.skip = np.zeros((1, 6, 6, 8, 1))
        out = layer.forward(np.zeros((1, 3, 3, 4, 2)))
        for held in (layer.drop_input, layer.rerun,
                     lambda: layer.restore_input(np.zeros((1, 3, 3, 4, 2)))):
            with pytest.raises(RuntimeError, match="dec9a: its inputs are held by the layers"):
                held()
        with pytest.raises(ValueError, match="dec9a: grad shape"):  # the up channels' count
            layer.backward(np.ones((1, 6, 6, 8, 2)))
        gx, gs = layer.backward(np.ones_like(out))
        assert (gx.shape, gs.shape) == ((1, 3, 3, 4, 2), (1, 6, 6, 8, 1))
        with pytest.raises(RuntimeError, match="dec9a: backward before forward"):
            layer.backward(np.ones_like(out))


class TestReLU:
    def test_positive_identity_negative_zero(self):
        r = ReLU()
        x = np.array([[[[[1.5, -2.0, 0.0]]]]])
        np.testing.assert_array_equal(r.forward(x), [[[[[1.5, 0.0, 0.0]]]]])
        g = r.backward(np.ones_like(x))
        np.testing.assert_array_equal(g, [[[[[1.0, 0.0, 0.0]]]]])

    def test_finite_differences_away_from_kink(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 2, 3, 3, 2))
        x[np.abs(x) < 0.05] = 0.1  # keep clear of the kink
        relu = ReLU()
        xp = Parameter("x", x)
        proj = rng.normal(size=x.shape)
        relu.forward(x)
        xp.grad = relu.backward(proj)
        err = gradient_check(projection_loss(relu, xp, proj), [xp], [xp.grad],
                             n_samples=80, seed=3)
        assert err < 1e-7

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("repeat", [1, 1000])  # scalar and vectorized loops
    def test_forward_maps_nan_and_zeros_to_positive_zero(self, dtype, repeat):
        x = np.tile(np.array([-0.0, np.nan, 0.0, -1.5, 2.5], dtype), repeat)
        out = ReLU().forward(x.reshape(1, repeat, 1, 1, 5))
        want = np.tile(np.array([0.0, 0.0, 0.0, 0.0, 2.5], dtype), repeat)
        assert_bits_equal(out.ravel(), want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_is_where_on_any_bits(self, dtype):
        """Random bit patterns (NaN payloads of either sign, subnormals,
        infinities) give np.where(x > 0, x, 0) bit for bit, with no
        floating-point warning."""
        ints = f"u{np.dtype(dtype).itemsize}"
        bits = np.random.default_rng(26).integers(0, np.iinfo(ints).max, size=(1, 6, 8, 8, 4),
                                                  dtype=ints, endpoint=True)
        x = bits.view(dtype)
        with np.errstate(all="raise"):
            assert_bits_equal(ReLU().forward(x), np.where(x > 0, x, dtype(0)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_is_where_on_finite_gradients(self, dtype):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(1, 3, 8, 8, 4)).astype(dtype)
        x[..., 0] = 0.0  # the subgradient at exactly 0 is 0
        g = rng.normal(size=x.shape).astype(dtype)
        g[0, 0] = 0.0
        relu = ReLU()
        relu.forward(x)
        assert_bits_equal(relu.backward(g), np.where(x > 0, g, 0))

    def test_nonfinite_gradient_propagates(self):
        relu = ReLU()
        relu.forward(np.array([-1.0, 1.0, 0.0, -2.0]).reshape(1, 1, 1, 1, 4))
        with np.errstate(invalid="ignore"):  # inf * 0
            g = relu.backward(np.array([np.nan, np.inf, -np.inf, 3.0]).reshape(1, 1, 1, 1, 4))
        assert np.isnan(g[..., 0]) and np.isnan(g[..., 2])
        assert g[..., 1] == np.inf and g[..., 3] == 0.0

    @pytest.mark.parametrize("border", [0.0, np.nan], ids=["zero", "nan"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bordered_gradient_runs_on_whole_buffers(self, dtype, border):
        """A gradient that is the interior of a buffer shaped like the
        output's, as a conv's input gradient is, gives the bits of the same
        gradient as a plain array, signed zeros and non-finite values
        included, whatever its border holds.  Both are written into the
        layout that the conv before reads in place, border zeroed."""
        rng = np.random.default_rng(22)
        x = rng.normal(size=(1, 3, 8, 8, 4)).astype(dtype)
        x[..., 0] = 0.0
        g = rng.normal(size=x.shape).astype(dtype)
        g[0, 0] = -0.0
        g[0, 2, 3] = [np.nan, np.inf, -np.inf, 3.0]
        bordered_g = grid_backed(g, border=border)
        # the whole-buffer path
        assert layers._buffer(layers._channels_first(bordered_g)) is not None
        relu = ReLU()
        with np.errstate(invalid="ignore"):  # inf * 0
            relu.forward(x)
            whole = relu.backward(bordered_g)
            relu.forward(x)
            plain = relu.backward(g)
        assert_bits_equal(whole, plain)
        assert_zero_border(whole)
        assert_zero_border(plain)


LAYOUT_LAYERS = {
    "conv-out>in": lambda: Conv3d(3, 5, rng=np.random.default_rng(1)),
    "conv-out<=in": lambda: Conv3d(5, 3, rng=np.random.default_rng(2)),
    "conv-valid": lambda: Conv3d(5, 2, kernel=(4, 3, 3), rng=np.random.default_rng(3)),
    "pool": lambda: MaxPool3d((2, 2, 2)),
    "upsample-conv": lambda: UpsampleConv3d(4, 2, 3, (2, 2, 2), rng=np.random.default_rng(4)),
    "relu": ReLU,
}


def input_grads(grads):
    """A backward's input gradients as a list: the decoder conv's two, or
    another layer's one."""
    return list(grads) if isinstance(grads, tuple) else [grads]


@pytest.mark.parametrize("make", LAYOUT_LAYERS.values(), ids=LAYOUT_LAYERS)
def test_layers_ignore_input_memory_order(make):
    """A C-ordered channels-last input, a channels-first-backed view and the
    interior of a zero-bordered grid give the same outputs and gradients
    bit for bit.  Every output and input gradient is the interior of a grid
    (see `grid_of`), and ReLU and pooling give their output grid a zero
    border.  The decoder conv joins a skip arranged the same way and gives
    its gradient too."""
    rng = np.random.default_rng(23)
    layer = make()
    joins = isinstance(layer, UpsampleConv3d)
    channels = layer.up_channels if joins else getattr(layer, "in_channels", 4)
    x = rng.normal(size=(1, 5, 7, 6, channels)).astype(np.float32)
    skip = rng.normal(size=(1, 10, 14, 12, 2)).astype(np.float32)
    results = []
    for arrange in (np.ascontiguousarray, channels_first_backed, grid_backed):
        for p in layer.params():
            p.zero_grad()
        if joins:
            layer.skip = arrange(skip)
        out = layer.forward(arrange(x))
        grid_of(out)
        if isinstance(layer, (ReLU, MaxPool3d)):
            assert_zero_border(out)
        g = np.random.default_rng(24).normal(size=out.shape).astype(np.float32)
        grads = input_grads(layer.backward(arrange(g)))
        for gx in grads:
            grid_of(gx)
        results.append((out, *grads, *(p.grad.copy() for p in layer.params())))
    for other in results[1:]:
        for a, b in zip(results[0], other):
            assert_bits_equal(a, b)


def hand_bordered(x, order="C", flat=False):
    """The same values as the one-sample `x` in the interior of a
    zero-bordered channels-first (c, t, H + 2, W + 2) array made by hand,
    not by the layers' allocator: 4-D in `order`, or with `flat` a view of
    a 1-D allocation that it fills, with no margins."""
    _, T, H, W, c = x.shape
    shape = (c, T, H + 2, W + 2)
    buf = np.zeros(math.prod(shape), x.dtype).reshape(shape) if flat else np.zeros(
        shape, x.dtype, order=order)
    buf[..., 1:-1, 1:-1] = x[0].transpose(3, 0, 1, 2)
    return buf[..., 1:-1, 1:-1].transpose(1, 2, 3, 0)[None]


class TestPaddedInputReuse:
    """A conv, 3x3 or 1x1, reads its input in place only when the input is
    the interior of a grid (see `grid_of`), or of a time slice of one, whose
    border bits are all zero; any other input is copied, with the same
    output."""

    SHAPE = (1, 3, 5, 4, 3)

    def check(self, x, reused, kernel=(1, 3, 3)):
        conv = Conv3d(3, 2, kernel, rng=np.random.default_rng(30), dtype=np.float64)
        out = conv.forward(x)
        xp = conv._cache[0]
        assert (xp.base is x.base) == reused
        assert np.shares_memory(xp, x.base) == reused
        np.testing.assert_allclose(out, conv3d_oracle(x, conv.weight.value, conv.bias.value),
                                   atol=1e-10)

    def values(self):
        return np.random.default_rng(31).normal(size=self.SHAPE)

    @pytest.mark.parametrize("kernel", [(1, 3, 3), (1, 1, 1), (2, 1, 3)])
    def test_zero_bordered_interior_is_reused(self, kernel):
        self.check(grid_backed(self.values()), reused=True, kernel=kernel)

    @pytest.mark.parametrize("value", [1.0, -0.0, np.nan], ids=["one", "negative-zero", "nan"])
    @pytest.mark.parametrize("cell", [(2, 0, 0, 3), (0, 2, 3, 0), (2, 2, 6, 5)],
                             ids=["top-row", "left-col", "last-cell"])
    def test_nonzero_border_bit_is_copied(self, value, cell):
        x = grid_backed(self.values())
        grid_of(x)[cell] = value
        self.check(x, reused=False)

    def test_added_batch_axis_is_reused(self):
        """A sample's (t, h, w, c) interior with the leading axis of the
        layer API added, as `models.predict_grid` passes it, is read in
        place."""
        x = grid_backed(self.values())[0]
        self.check(x[None], reused=True)

    def test_shifted_view_is_copied(self):
        x = grid_backed(self.values())
        H, W = x.shape[2:4]
        shifted = grid_of(x)[:, :, 1:1 + H, 2:2 + W].transpose(1, 2, 3, 0)[None]  # one col right
        self.check(shifted, reused=False)

    def test_deeper_border_is_copied(self):
        """The centre of a grid two cells in from its edge: the allocation
        does not hold a grid one cell bigger than it."""
        _, T, H, W, c = self.SHAPE
        grid = layers._grid((c, T, H + 2, W + 2), np.float64, zeros=True)
        x = grid[..., 2:-2, 2:-2].transpose(1, 2, 3, 0)[None]
        x[...] = self.values()
        self.check(x, reused=False)

    def test_time_slice_is_reused(self):
        """A time slice of a longer zero-bordered grid with the same
        channels, rows and cols, as a window of the frame buffer is, is read
        in place: its border in rows and cols is all the conv reads."""
        self.check(grid_backed(self.values(), frames=self.SHAPE[1] + 2, start=1), reused=True)
        _, T, H, W, c = self.SHAPE
        longer = grid_backed(np.random.default_rng(32).normal(size=(1, T + 4, H, W, c)))
        for start in (0, 2, 4):
            self.check(longer[:, start:start + T], reused=True)
        wider = grid_backed(np.random.default_rng(33).normal(size=(1, T, H, W, c + 1)))
        self.check(wider[..., :c], reused=False)  # a channel slice is copied

    @pytest.mark.parametrize("layout", [{}, {"order": "F"}, {"flat": True}],
                             ids=["five-d", "five-d-fortran", "no-margins"])
    def test_hand_made_buffer_is_copied(self, layout):
        self.check(hand_bordered(self.values(), **layout), reused=False)


def _poke(g, value, cell=None, margin=None):
    """`g` (see `grid_backed`) with `value` written to one cell of its grid
    (`cell`) or of its allocation's margins (`margin`, a flat index)."""
    grid = grid_of(g)
    if cell is not None:
        grid[cell] = value
    if margin is not None:
        g.base[margin] = value
    return g


def _shifted(g):
    """A view of the allocation of `g` (see `grid_backed`) with its shape
    and strides, one cell further on."""
    return np.ndarray(g.shape, g.dtype, buffer=g.base, strides=g.strides,
                      offset=g.ctypes.data - g.base.ctypes.data + g.itemsize)


# name -> (arrangement of an incoming gradient, read in place)
GRADIENT_LAYOUTS = {
    "grid": (grid_backed, True),
    "border-one": (lambda g: _poke(grid_backed(g), 1.0, cell=(0, 0, 0, 2)), False),
    "border-negative-zero": (lambda g: _poke(grid_backed(g), -0.0, cell=(-1, -1, 3, 0)), False),
    "border-nan": (lambda g: _poke(grid_backed(g), np.nan, cell=(-1, -1, -1, -1)), False),
    "first-margin-cell": (lambda g: _poke(grid_backed(g), 1.0, margin=0), False),
    "last-margin-cell": (lambda g: _poke(grid_backed(g), -0.0, margin=-1), False),
    "time-slice": (lambda g: grid_backed(g, frames=g.shape[1] + 1), False),
    "no-margins": (lambda g: hand_bordered(g, flat=True), False),
    "shifted": (lambda g: _shifted(grid_backed(g)), False),
    "five-d": (hand_bordered, False),
    "channels-last": (np.ascontiguousarray, False),
}


class TestPaddedGradientReuse:
    """A conv's backward reads its incoming gradient in place, as the
    padded grid behind a zero margin of one halo, only when it is the
    interior of a grid with a zero border that fills its allocation but for
    zero margins (see `grid_of`), as ReLU's backward writes it.  Any other
    gradient, or a non-zero bit in that border or those margins, is copied
    into such a grid (`_bordered_copy`), and both give the same gradients
    bit for bit."""

    # (in, out, kernel): more inputs than outputs and fewer, a temporal
    # kernel and a 1x1 kernel
    CONVS = [(3, 2, (1, 3, 3)), (2, 5, (1, 3, 3)), (4, 3, (2, 3, 3)), (2, 3, (1, 1, 1))]

    @staticmethod
    def step(case, g, monkeypatch):
        """(input gradient, weight gradient, bias gradient) of conv `case`'s
        backward on `g`, and whether it read `g` in place."""
        cin, cout, kernel = case
        rng = np.random.default_rng(40)
        conv = Conv3d(cin, cout, kernel, rng=rng)
        conv.forward(rng.normal(size=(1, 3, 6, 5, cin)).astype(np.float32))
        copies = []
        bordered_copy = layers._bordered_copy

        def spy(x):
            copies.append(x)
            return bordered_copy(x)

        monkeypatch.setattr(layers, "_bordered_copy", spy)
        out = (conv.backward(g), conv.weight.grad, conv.bias.grad)
        monkeypatch.undo()
        return out, not copies

    @pytest.mark.parametrize("case", range(len(CONVS)))
    @pytest.mark.parametrize("layout", GRADIENT_LAYOUTS, ids=GRADIENT_LAYOUTS)
    def test_read_in_place_only_from_relu_layout(self, layout, case, monkeypatch):
        arrange, in_place = GRADIENT_LAYOUTS[layout]
        cin, cout, kernel = self.CONVS[case]
        shape = (1, 3 - kernel[0] + 1, 6, 5, cout)
        g = arrange(np.random.default_rng(41).normal(size=shape).astype(np.float32))
        got, read = self.step(self.CONVS[case], g, monkeypatch)
        assert read == in_place
        want, read = self.step(self.CONVS[case], np.ascontiguousarray(g), monkeypatch)
        assert not read
        for a, b in zip(got, want, strict=True):
            assert_bits_equal(a, b)

    def test_relu_gradient_is_read_in_place(self, monkeypatch):
        """ReLU's backward gives a gradient that the conv before it reads
        in place."""
        relu = ReLU()
        relu.forward(np.random.default_rng(42).normal(size=(1, 3, 6, 5, 2)).astype(np.float32))
        g = relu.backward(np.ones((1, 3, 6, 5, 2), np.float32))
        assert_zero_border(g)
        assert self.step(self.CONVS[0], g, monkeypatch)[1]


@pytest.mark.parametrize("make", LAYOUT_LAYERS.values(), ids=LAYOUT_LAYERS)
def test_backward_consumes_the_forward_cache(make):
    """A backward frees what its forward cached: a second one raises until
    the next forward."""
    layer = make()
    joins = isinstance(layer, UpsampleConv3d)
    channels = layer.up_channels if joins else getattr(layer, "in_channels", 2)
    x = np.random.default_rng(25).normal(size=(1, 4, 4, 4, channels))

    def forward():
        if joins:
            layer.skip = np.zeros((1, 8, 8, 8, 2))
        return layer.forward(x)

    g = np.ones_like(forward())
    layer.backward(g)
    assert layer._cache is None
    with pytest.raises(RuntimeError, match="backward before forward"):
        layer.backward(g)
    forward()
    layer.backward(g)


@pytest.mark.parametrize("make", LAYOUT_LAYERS.values(), ids=LAYOUT_LAYERS)
def test_wrong_gradient_shape_leaves_the_forward_cache(make):
    """A gradient of the wrong shape raises ValueError before the backward
    takes the forward's cache, so a retry with the right gradient gives the
    gradients of a fresh forward and backward bit for bit."""
    layer = make()
    joins = isinstance(layer, UpsampleConv3d)
    channels = layer.up_channels if joins else getattr(layer, "in_channels", 4)
    rng = np.random.default_rng(26)
    x = rng.normal(size=(1, 5, 6, 4, channels)).astype(np.float32)
    skip = rng.normal(size=(1, 10, 12, 8, 2)).astype(np.float32)
    results = []
    for retry in (False, True):
        layer = make()
        if joins:
            layer.skip = skip
        out = layer.forward(x)
        g = np.random.default_rng(27).normal(size=out.shape).astype(np.float32)
        if retry:
            for wrong in (g[:, :, :-1], g[..., :-1], g[0]):
                with pytest.raises(ValueError, match="grad shape"):
                    layer.backward(wrong)
        grads = input_grads(layer.backward(g))
        results.append((*grads, *(p.grad for p in layer.params())))
    for a, b in zip(*results, strict=True):
        assert_bits_equal(a, b)


class TestLosses:
    def test_logcosh_zero_at_match(self):
        x = np.random.default_rng(12).normal(size=(2, 3))
        loss, grad = logcosh_loss(x, x)
        assert loss == 0.0
        assert not grad.any()

    def test_logcosh_small_error_mse_behavior(self):
        d = 1e-4
        loss, _ = logcosh_loss(np.full(5, d), np.zeros(5))
        assert abs(loss - d * d / 2) < 1e-12

    def test_logcosh_large_error_no_overflow(self):
        # frozen asymptote: ln cosh 50 = 49.30685281944005 (= 50 - ln 2)
        loss, grad = logcosh_loss(np.full(3, 50.0), np.zeros(3))
        assert loss == pytest.approx(50.0 - math.log(2.0), abs=1e-12)
        assert np.all(np.isfinite(grad))
        loss, _ = logcosh_loss(np.array([1000.0]), np.array([0.0]))
        assert loss == pytest.approx(1000.0 - math.log(2.0), abs=1e-9)

    def test_logcosh_taylor_bound(self):
        for d in (0.05, 0.2, 0.8, 1.0):
            loss, _ = logcosh_loss(np.array([d]), np.array([0.0]))
            assert abs(loss - d * d / 2) <= d ** 4 / 12 + 1e-15

    def test_mse_examples(self):
        assert mse_loss(np.array([2.0]), np.array([0.0]))[0] == 4.0
        x = np.random.default_rng(13).normal(size=(4,))
        assert mse_loss(x, x)[0] == 0.0

    @pytest.mark.parametrize("loss_fn,tol", [(logcosh_loss, 1e-6), (mse_loss, 1e-6)])
    def test_loss_gradients_match_finite_differences(self, loss_fn, tol):
        rng = np.random.default_rng(14)
        pred = Parameter("pred", rng.normal(size=(3, 4)))
        target = rng.normal(size=(3, 4))
        _, grad = loss_fn(pred.value, target)
        err = gradient_check(lambda: loss_fn(pred.value, target)[0],
                             [pred], [grad], n_samples=12, seed=4)
        assert err < tol

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            logcosh_loss(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            mse_loss(np.zeros(3), np.zeros((3, 1)))

    @pytest.mark.parametrize("loss_fn", [logcosh_loss, mse_loss])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sample_gradient_with_batch_count_is_batch_slice(self, loss_fn, dtype):
        """A sample's gradient taken with the whole batch's element count is
        its slice of the batch gradient bit for bit; the loss stays the
        sample's own mean."""
        rng = np.random.default_rng(15)
        pred = rng.normal(size=(3, 1, 8, 7, 1)).astype(dtype)
        target = rng.normal(size=pred.shape).astype(dtype)
        _, grad = loss_fn(pred, target)
        assert grad.dtype == dtype
        assert_bits_equal(grad, loss_fn(pred, target, count=pred.size)[1])
        for n in range(len(pred)):
            loss, g = loss_fn(pred[n:n + 1], target[n:n + 1], count=pred.size)
            assert_bits_equal(g, grad[n:n + 1])
            assert loss == loss_fn(pred[n:n + 1], target[n:n + 1])[0]


class TestAdam:
    def _param(self, values):
        return Parameter("w", np.array(values, dtype=np.float64))

    def test_zero_gradient_is_noop_for_any_state(self):
        p = self._param([1.0, -2.0])
        opt = Adam([p], lr=0.1)
        p.grad[...] = [0.5, -0.5]
        opt.step()  # builds nonzero moments
        after_first = p.value.copy()
        p.grad[...] = 0.0
        opt.step()
        np.testing.assert_array_equal(p.value, after_first)

    def test_first_step_is_signed_lr(self):
        for g in ([3.0, -7.0, 1e-3], [100.0]):
            p = self._param(np.zeros(len(g)))
            opt = Adam([p], lr=1e-4)
            p.grad[...] = g
            opt.step()
            np.testing.assert_allclose(p.value, -1e-4 * np.sign(g), rtol=1e-3)

    def test_milestone_decay(self):
        assert lr_for_epoch(1e-4, 1) == pytest.approx(1e-4)
        assert lr_for_epoch(1e-4, 10) == pytest.approx(1e-5)
        assert lr_for_epoch(1e-4, 29) == pytest.approx(1e-5)
        assert lr_for_epoch(1e-4, 30) == pytest.approx(1e-6)
        assert lr_for_epoch(1e-4, 41) == pytest.approx(1e-7)
        assert lr_for_epoch(1e-4, 50, milestones=(), factor=0.1) == pytest.approx(1e-4)
        assert lr_for_epoch(1e-4, 50, factor=1.0) == pytest.approx(1e-4)

    def test_nonfinite_gradient_names_block(self):
        p = Parameter("enc1a.weight", np.zeros(3))
        opt = Adam([p])
        p.grad[...] = [0.0, np.nan, 1.0]
        with pytest.raises(ValueError, match="enc1a.weight"):
            opt.step()

    def test_converges_on_quadratic(self):
        p = self._param([5.0])
        opt = Adam([p], lr=0.05)
        for _ in range(2000):
            p.zero_grad()
            p.grad[...] = 2 * p.value
            opt.step()
        assert abs(p.value[0]) < 1e-3


class TestCheckpointFormat:
    def test_round_trip_byte_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        named = [
            ("enc1a.weight", rng.normal(size=(1, 3, 3, 2, 4)).astype(np.float32)),
            ("enc1a.bias", np.full(4, -999.0, dtype=np.float32)),
            ("head.weight", rng.normal(size=(6, 3, 3, 4, 2)).astype(np.float32)),
        ]
        p = tmp_path / "model.rfp"
        save_arrays(p, named)
        first = p.read_bytes()
        back = load_arrays(p)
        assert [n for n, _ in back] == [n for n, _ in named]
        for (_, a), (_, b) in zip(named, back):
            np.testing.assert_array_equal(a, b)
        save_arrays(p, back)
        assert p.read_bytes() == first

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.rfp"
        p.write_bytes(b"JUNK" + bytes(16))
        with pytest.raises(FormatError) as err:
            load_arrays(p)
        assert err.value.offset == 0

    def test_truncation(self, tmp_path):
        p = tmp_path / "x.rfp"
        save_arrays(p, [("w", np.ones((2, 2), dtype=np.float32))])
        blob = p.read_bytes()
        p.write_bytes(blob[:-5])
        with pytest.raises(FormatError) as err:
            load_arrays(p)
        assert str(err.value).startswith(f"{p}: truncated while reading values of w")
        assert err.value.offset == len(blob) - 5

    def test_name_not_utf8(self, tmp_path):
        p = tmp_path / "x.rfp"
        save_arrays(p, [("w", np.ones(2, dtype=np.float32)),
                        ("ab", np.ones(1, dtype=np.float32))])
        blob = bytearray(p.read_bytes())
        # magic 4 + version 1 + count 4 + "w" entry (2 + 1 + 1 + 4 + 8) + name length 2
        offset = 9 + 16 + 2 + 1
        assert blob[offset] == ord("b")
        blob[offset] = 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="UTF-8") as err:
            load_arrays(p)
        assert err.value.offset == offset

    def test_repeated_name_rejected_at_second_entry(self, tmp_path):
        p = tmp_path / "x.rfp"
        save_arrays(p, [("w", np.ones(2, dtype=np.float32)),
                        ("w", np.ones(1, dtype=np.float32))])
        with pytest.raises(FormatError, match=re.escape(f"{p}: entry name 'w' repeats")) as err:
            load_arrays(p)
        # magic 4 + version 1 + count 4 + first entry (2 + 1 + 1 + 4 + 8)
        assert err.value.offset == 9 + 16

    def test_trailing_garbage(self, tmp_path):
        p = tmp_path / "x.rfp"
        save_arrays(p, [("w", np.ones(2, dtype=np.float32))])
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_arrays(p)
