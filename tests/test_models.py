import hashlib
import os
import re
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rainfusion import models
from rainfusion.grids import (
    PrecipCategory,
    RainGrid,
    read_grid,
    read_index,
    read_scene,
    write_grid,
)
from rainfusion.models import (
    EpochStats,
    ModelConfig,
    TrainSchedule,
    TrainingError,
    UNet3D,
    history_to_csv,
    load_frames,
    load_model,
    load_sample,
    param_count,
    persistence_forecast,
    predict_grid,
    save_model,
    train,
)
from rainfusion.nn import (Adam, Conv3d, MaxPool3d, Parameter, ReLU, UpsampleConv3d,
                           gradient_check, logcosh_loss, lr_for_epoch)
from rainfusion.nn import layers as nn_layers
from rainfusion.nn.losses import LOSSES
from rainfusion.pipeline import (
    BandStats,
    LeadTime,
    SequenceSample,
    build_sequences,
    fit_band_stats,
    normalize_satellite,
    normalize_values,
    resample_lanczos,
)
from rainfusion.synth import SynthConfig, generate_synthetic
from rainfusion.verify import contingency, csi
from test_nn import assert_bits_equal, assert_zero_border, grid_of

DESK = ModelConfig(variant="radar", rows=64, cols=64, levels=3, base_channels=4, lead_minutes=5)
TINY = ModelConfig(variant="radar", rows=16, cols=16, levels=3, base_channels=2, lead_minutes=5)
TINY_MM = ModelConfig(variant="multimodal", rows=16, cols=16,
                      levels=3, base_channels=2, lead_minutes=5)
MM_STATS = BandStats(np.arange(11.0), np.arange(11.0) + 5, 3)


class TestModelConfig:
    def test_divisibility_error_names_dim(self):
        with pytest.raises(ValueError, match="rows=100"):
            ModelConfig(rows=100, cols=96, levels=5)
        with pytest.raises(ValueError, match="cols=100"):
            ModelConfig(rows=96, cols=100, levels=5)

    def test_pooling_per_variant(self):
        assert ModelConfig(variant="radar").pool_window == (2, 2, 1)
        mm = ModelConfig(variant="multimodal")
        assert mm.pool_window == (2, 2, 2)
        assert mm.in_channels == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(variant="sonar")
        with pytest.raises(ValueError):
            ModelConfig(levels=1)
        with pytest.raises(ValueError):
            ModelConfig(lead_minutes=10)
        with pytest.raises(ValueError, match="rows and cols must be >= 1, got -4x4"):
            ModelConfig(rows=-4, cols=4, levels=2)


class TestArchitecture:
    def test_reference_radar_budget(self):
        model = UNet3D(ModelConfig(variant="radar"), seed=0)
        assert len(model.conv_layers()) == 20
        assert len(model.pools) == len(model.dec) == 4
        assert model.ups == []  # the decoder convs upsample; kept for the benchmark's tracer
        count = param_count(model)
        assert 29_800_000 <= count <= 33_000_000
        # frozen from the closed-form layer-by-layer enumeration
        assert count == 31_384_645

    def test_multimodal_exceeds_radar(self):
        radar = param_count(UNet3D(ModelConfig(variant="radar")))
        multi = param_count(UNet3D(ModelConfig(variant="multimodal")))
        assert multi > radar
        assert multi == 31_390_981  # frozen enumeration value

    def test_single_unit_conv_count(self):
        from rainfusion.nn import Conv3d

        conv = Conv3d(1, 1, kernel=(1, 1, 1))
        assert sum(p.value.size for p in conv.params()) == 2

    def test_doubling_base_roughly_quadruples(self):
        small = param_count(UNet3D(ModelConfig(rows=32, cols=32, levels=3, base_channels=4)))
        big = param_count(UNet3D(ModelConfig(rows=32, cols=32, levels=3, base_channels=8)))
        assert 3.3 < big / small < 4.2

    def test_desk_forward_shape(self):
        model = UNet3D(DESK, seed=1)
        x = np.random.default_rng(0).random((1, 6, 64, 64, 1), dtype=np.float32)
        assert model.forward(x).shape == (1, 1, 64, 64, 1)

    def test_multimodal_odd_time_path(self):
        # 2x2x2 pooling walks time 6 -> 3 -> 2; decoder must restore exactly
        model = UNet3D(TINY_MM, seed=2)
        x = np.random.default_rng(1).random((2, 6, 16, 16, 12), dtype=np.float32)
        out = model.forward(x)
        assert out.shape == (2, 1, 16, 16, 1)
        g = model.backward(np.ones_like(out))
        assert g.shape == x.shape

    @pytest.mark.parametrize("config", [TINY, TINY_MM])
    def test_layer_outputs_are_channels_first_in_memory(self, config, monkeypatch):
        """Every layer output is the interior of a channels-first grid (see
        `grid_of`).  ReLU and pool outputs have a zero border, and every conv
        but the first, whose input here is a plain array, reads that grid in
        place as its padded input: the 1x1x1 `head_b` too, and each decoder
        stage's first conv both its coarse input and its skip."""
        model = UNet3D(config, seed=4)
        layers = model.steps
        outputs, reused, skips_reused = [], [], []

        def recording(layer):
            forward = layer.forward

            def record(x):
                skip = getattr(layer, "skip", None)
                outputs.append((layer, forward(x)))
                if isinstance(layer, Conv3d):
                    reused.append(layer._cache[0].base is x.base)
                if isinstance(layer, UpsampleConv3d):
                    skips_reused.append(layer._cache[1].base is skip.base)
                return outputs[-1][1]
            return record

        for layer in layers:
            monkeypatch.setattr(layer, "forward", recording(layer))
        x = np.random.default_rng(5).random((2, 6, 16, 16, config.in_channels), dtype=np.float32)
        model.forward(x)
        assert len(outputs) == len(layers)
        for layer, out in outputs:
            grid_of(out)
            if isinstance(layer, (ReLU, MaxPool3d)):
                assert_zero_border(out)
        assert reused == [False] + [True] * (len(model.conv_layers()) - 1)
        assert skips_reused == [True] * len(model.dec)

    def test_forward_deterministic(self):
        model = UNet3D(TINY, seed=3)
        x = np.random.default_rng(2).random((1, 6, 16, 16, 1), dtype=np.float32)
        a, b = model.forward(x), model.forward(x)
        np.testing.assert_array_equal(a, b)

    def test_same_seed_same_weights(self):
        a, b = UNet3D(TINY, seed=7), UNet3D(TINY, seed=7)
        for pa, pb in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_input_shape_mismatch(self):
        model = UNet3D(TINY)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 6, 16, 16, 12), dtype=np.float32))
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 4, 16, 16, 1), dtype=np.float32))


class TestModelGradients:
    @pytest.mark.parametrize("config", [TINY, TINY_MM])
    def test_full_model_finite_differences(self, config):
        rng = np.random.default_rng(4)
        model = UNet3D(config, seed=5, dtype=np.float64)
        x = Parameter("input", rng.random((1, 6, 16, 16, config.in_channels)))
        target = rng.random((1, 1, 16, 16, 1))

        def loss_fn():
            return logcosh_loss(model.forward(x.value), target)[0]

        out = model.forward(x.value)
        _, grad = logcosh_loss(out, target)
        model.zero_grad()
        x.grad = model.backward(grad)
        params = model.params() + [x]
        grads = [p.grad for p in model.params()] + [x.grad]
        err = gradient_check(loss_fn, params, grads, n_samples=60, seed=6)
        assert err < 1e-4

    @pytest.mark.parametrize("variant", ["radar", "multimodal"])
    def test_desk_step_tracks_float64(self, variant):
        """A float64 shadow of one desk training step and inference forward,
        from the same float32 weights and inputs: every float32 array is
        within 1e-5 of the float64 one, as max |diff| / max |float64|.  It
        reads 1.2e-6 at most, at 1 and 2 BLAS threads.  A change of float
        order that loses precision, or a path that goes wrong in float32
        only, reads above it.  A pool window whose two largest cells round
        to one float32 value may route its gradient to the other cell in
        float64, far above 1e-5; this case has no such window."""
        config = replace(DESK, variant=variant, base_channels=8)
        rng = np.random.default_rng(26)
        x = rng.random((1, 6, 64, 64, config.in_channels), dtype=np.float32)
        y = rng.random((1, 1, 64, 64, 1), dtype=np.float32)
        runs = []
        for dtype in (np.float32, np.float64):
            model = UNet3D(config, seed=26, dtype=dtype)
            for p in model.params():  # the float32 weights, whatever the dtype
                p.value[...] = p.value.astype(np.float32)
            out = model.forward(x.astype(dtype))
            _, grad = logcosh_loss(out, y.astype(dtype))
            model.zero_grad()
            gx = model.backward(grad.astype(dtype, copy=False))
            runs.append([out, gx, *(p.grad for p in model.params()),
                         model._run(x.astype(dtype), keep=False)])
        for a, b in zip(*runs, strict=True):
            assert (a.dtype, b.dtype) == (np.float32, np.float64)
            assert np.abs(a - b).max() <= 1e-5 * np.abs(b).max()


def _run_step(model, x, arrange=None):
    """Output, input gradient and parameter gradients of one forward and
    backward.  With `arrange`, every layer runs on `arrange` of its input and
    gradient instead.  Also returns, per conv, whether it read its input's
    buffer in place."""
    reused = []
    for layer in model.steps:
        forward, backward = layer.forward, layer.backward

        def run(x, *args, _layer=layer, _forward=forward, **kwargs):
            x = x if arrange is None else arrange(x)
            out = _forward(x, *args, **kwargs)
            if isinstance(_layer, Conv3d):
                reused.append(_layer._cache[0].base is x.base)
            return out

        layer.forward = run
        if arrange is not None:
            layer.backward = lambda g, _backward=backward: _backward(arrange(g))
    out = model.forward(x)
    model.zero_grad()
    gx = model.backward(np.random.default_rng(9).normal(size=out.shape).astype(out.dtype))
    return (out, gx, *(p.grad.copy() for p in model.params())), reused


class TestBorderedBuffers:
    @pytest.mark.parametrize("config", [TINY, TINY_MM], ids=["radar", "multimodal"])
    @pytest.mark.parametrize("batch", [1, 4])
    def test_in_place_reads_match_copy_path_bit_for_bit(self, config, batch):
        """Convs that read their input's bordered buffer in place give the
        output, input gradient and every parameter gradient of the same
        layers run on C-contiguous channels-last copies of their inputs."""
        x = np.random.default_rng(8).normal(
            size=(batch, 6, 16, 16, config.in_channels)).astype(np.float32)
        direct, reused = _run_step(UNet3D(config, seed=6), x.copy())
        copied, copies_reused = _run_step(UNet3D(config, seed=6), x.copy(), np.ascontiguousarray)
        assert reused == [False] + [True] * (len(reused) - 1) and not any(copies_reused)
        for a, b in zip(direct, copied, strict=True):
            assert_bits_equal(a, b)

    @pytest.mark.parametrize("variant,bound_mib", [("radar", 26), ("multimodal", 27)])
    def test_desk_train_step_peak(self, variant, bound_mib):
        """Traced peak of one warm batch-4 training step of the desk network.
        It was 57.4 MiB (radar) and 52.5 MiB (multimodal) while each
        activation was held as ReLU output, bool mask and padded copy, 48.6
        and 43.9 MiB with the bordered buffers, about 34.7 and 33.4 MiB
        once no decoder input was held from forward to backward, and about
        27.2 and 27.5 MiB with the encoder's inner activations rebuilt in
        backward.  It read about 25.3 and 26.4 MiB once a conv's backward
        read the gradient that the ReLU after it wrote in place instead of
        copying it into a zeroed padded grid, and reads about 24.8 and
        25.2 MiB now that no decoder input is built."""
        model = UNet3D(replace(DESK, variant=variant, base_channels=8), seed=23)
        opt = Adam(model.params(), lr=1e-3)
        rng = np.random.default_rng(10)
        x = rng.random((4, 6, 64, 64, model.config.in_channels), dtype=np.float32)
        y = rng.random((4, 1, 64, 64, 1), dtype=np.float32)

        def step():
            out = model.forward(x)
            _, grad = logcosh_loss(out, y)
            model.zero_grad()
            model.backward(grad.astype(out.dtype, copy=False))
            opt.step()

        step()  # Adam's moments exist from here on
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20


class TestGradientsInPlace:
    @pytest.mark.parametrize("variant", ["radar", "multimodal"])
    def test_desk_step_reads_relu_gradients_in_place(self, variant, monkeypatch):
        """In a desk training step the 11 3x3 convs read their incoming
        gradient, which the ReLU after each wrote, in place; `head_b`, fed by
        the loss, copies it (`_bordered_copy`).  With that read switched off,
        every parameter gradient is the same bit for bit."""
        config = replace(DESK, variant=variant, base_channels=8)
        rng = np.random.default_rng(11)
        x = rng.random((1, 6, 64, 64, config.in_channels), dtype=np.float32)
        y = rng.random((1, 1, 64, 64, 1), dtype=np.float32)
        padded = nn_layers._padded
        runs = []
        for in_place in (True, False):
            model = UNet3D(config, seed=24)
            read, current = {}, []

            def spy(x, margins=False):
                if not margins:
                    return padded(x)
                grid = padded(x, margins) if in_place else nn_layers._bordered_copy(x)
                read[current[-1]] = grid.base is x.base
                return grid

            def named(conv):
                backward = conv.backward

                def run(g):
                    current.append(conv.name)
                    return backward(g)
                return run

            monkeypatch.setattr(nn_layers, "_padded", spy)
            for conv in model.conv_layers():
                conv.backward = named(conv)
            out = model.forward(x)
            _, grad = logcosh_loss(out, y, count=4 * y.size)
            model.zero_grad()
            model.backward(grad.astype(out.dtype, copy=False), input_grad=False)
            monkeypatch.undo()
            names = [conv.name for conv in model.conv_layers()]
            assert len(names) == 12 and read.keys() == set(names)
            assert read == {name: in_place and name != "head_b" for name in names}
            runs.append([p.grad.copy() for p in model.params()])
        for a, b in zip(*runs, strict=True):
            assert_bits_equal(a, b)


class TestDeskGemmForms:
    # whether each plain conv of the desk network is wide-input (in > 2 *
    # out), the one test that takes its weight gradient per tap (else from
    # gathered blocks).  The decoder convs `dec*a` (`UpsampleConv3d`) take
    # the gathered form for their skip rows and one GEMM per folded tap for
    # their up rows
    WIDE = {"enc1a": False, "enc1b": False, "enc2a": False, "enc2b": False,
            "bottleneck_a": False, "bottleneck_b": False, "dec2b": False,
            "dec1b": False, "head_a": True, "head_b": False}

    @pytest.mark.parametrize("variant", ["radar", "multimodal"])
    def test_desk_step_gemm_forms(self, variant, monkeypatch):
        """Which plain convs of a desk training step are wide-input, which
        convs gather their weight gradient, and the tap split of every
        forward and input-gradient GEMM, "kw": a change shows here.  The
        multimodal enc1a (12 -> 8) and the radar's (1 -> 8) are both not
        wide-input; enc1a computes no input gradient in a training step."""
        config = replace(DESK, variant=variant, base_channels=8)
        rng = np.random.default_rng(12)
        x = rng.random((2, 6, 64, 64, config.in_channels), dtype=np.float32)
        y = rng.random((2, 1, 64, 64, 1), dtype=np.float32)
        model = UNet3D(config, seed=26)
        log, forms = [], {}
        tap_gemms, gathered_wgrad = nn_layers._tap_gemms, nn_layers._gathered_wgrad

        def tap_spy(dst, src, w, out_shifts, k_shifts, base):
            log.append("out" if k_shifts == [0] else "kw")
            return tap_gemms(dst, src, w, out_shifts, k_shifts, base)

        def gathered_spy(*args):
            log.append("gathered")
            return gathered_wgrad(*args)

        def traced(conv, method):
            run = getattr(conv, method)

            def call(*args):
                start = len(log)
                out = run(*args)
                forms.setdefault((conv.name, method == "forward"), set()).update(log[start:])
                return out
            return call

        monkeypatch.setattr(nn_layers, "_tap_gemms", tap_spy)
        monkeypatch.setattr(nn_layers, "_gathered_wgrad", gathered_spy)
        for conv in model.conv_layers():
            for method in ("forward", "backward"):
                setattr(conv, method, traced(conv, method))
        out = model.forward(x)
        _, grad = logcosh_loss(out, y)
        model.zero_grad()
        model.backward(grad.astype(out.dtype, copy=False), input_grad=False)
        plain = {conv.name: conv.wide_input for conv in model.conv_layers()
                 if type(conv) is Conv3d}
        assert plain == self.WIDE
        names = [conv.name for conv in model.conv_layers()]
        want = {(name, True): {"kw"} for name in names}
        want.update({(name, False): {"kw"} if self.WIDE.get(name) else {"kw", "gathered"}
                     for name in names})
        want[("enc1a", False)] = {"gathered"}
        assert forms == want


class TestOneLayout:
    @pytest.mark.parametrize("variant", ["radar", "multimodal"])
    def test_desk_step_arrays_are_found_by_buffer(self, variant):
        """Every array that a layer returns in a desk training step (forward,
        the backward's reruns and `backward`, both input gradients of a
        decoder conv) and in an inference forward is the interior of a grid
        that `_buffer` finds, and that grid fills its allocation (see
        `grid_of`): one layout."""
        config = replace(DESK, variant=variant, base_channels=8)
        model = UNet3D(config, seed=25)
        returned = []

        def recording(layer, method):
            run = getattr(layer, method)

            def record(*args):
                returned.append((layer.__class__.__name__, method, run(*args)))
                return returned[-1][2]
            return record

        for layer in model.steps:
            for method in ("forward", "backward"):
                setattr(layer, method, recording(layer, method))
        rng = np.random.default_rng(12)
        frames = nn_layers.bordered((1, config.in_channels, 8, 64, 64), np.float32)
        frames[...] = rng.random(frames.shape, dtype=np.float32)
        x = frames.transpose(0, 2, 3, 4, 1)[:, 1:7]  # a window of a frame buffer
        out = model.forward(x)
        model.backward(rng.normal(size=out.shape).astype(np.float32))
        model._run(x, keep=False)
        kinds = Counter((kind, method) for kind, method, _ in returned)
        convs, stages = len(model.conv_layers()), config.levels - 1
        assert kinds[("Conv3d", "backward")] == convs - stages
        assert kinds[("UpsampleConv3d", "backward")] == stages
        assert kinds[("ReLU", "backward")] == convs - 1
        for kind, method, out in returned:
            for a in out if kind == "UpsampleConv3d" and method == "backward" else [out]:
                assert nn_layers._buffer(a) is not None, (kind, method)
                assert grid_of(a).shape[2] == a.shape[1], (kind, method)


class TestRebuiltInputs:
    """The second conv of each encoder stage and of the bottleneck drops
    its input, the first ReLU's output, after its forward, and the backward
    runs the first conv and ReLU again for it just before that conv's
    backward."""

    @staticmethod
    def step(model, x):
        """(output, input gradient, *parameter gradients) of one forward and
        backward, and whether each conv held its input after the forward."""
        out = model.forward(x)
        held = [conv._cache[0] is not None for conv in model.conv_layers()]
        model.zero_grad()
        gx = model.backward(np.random.default_rng(9).normal(size=out.shape).astype(out.dtype))
        return (out, gx, *(p.grad.copy() for p in model.params())), held

    @pytest.mark.parametrize("config", [TINY, TINY_MM, replace(DESK, base_channels=8),
                                        replace(TINY_MM, rows=32, cols=32, levels=4)],
                             ids=["radar", "multimodal", "desk", "levels4"])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_rebuilt_input_matches_held_input_bit_for_bit(self, config, batch):
        """Output, input gradient and every parameter gradient equal, bit for
        bit, those of the same model with an empty rebuild table, which
        keeps every activation from forward to backward; the inference
        forward's output equals the training forward's."""
        x = np.random.default_rng(8).normal(
            size=(batch, 6, config.rows, config.cols, config.in_channels)).astype(np.float32)
        model = UNet3D(config, seed=6)
        rebuilt, held = self.step(model, x)
        dropped = [conv.name for conv, h in zip(model.conv_layers(), held) if not h]
        assert dropped == [f"enc{i}b" for i in range(1, config.levels)] + ["bottleneck_b"]
        assert _cached_layers(model) == []
        reference = UNet3D(config, seed=6)
        reference._rebuild = {}
        kept, held = self.step(reference, x)
        assert all(held)
        for a, b in zip(rebuilt, kept, strict=True):
            assert_bits_equal(a, b)
        assert_bits_equal(model._run(x, keep=False), rebuilt[0])

    def test_input_never_restored_raises(self, monkeypatch):
        model = UNet3D(TINY, seed=6)
        out = model.forward(np.ones((1, 6, 16, 16, 1), np.float32))
        monkeypatch.setattr(Conv3d, "restore_input", lambda conv, x: None)
        with pytest.raises(RuntimeError, match="bottleneck_b: backward after drop_input"):
            model.backward(np.ones_like(out))
        with pytest.raises(RuntimeError, match="backward before forward"):
            model.backward(np.ones_like(out))


class TestDecoderInputs:
    """No decoder input `[upsampled | skip]` is built: the first conv of
    each decoder stage (`UpsampleConv3d`) reads the coarse features and the
    skip in place, in a training step and in a nowcast."""

    def test_decoder_conv_gives_both_input_gradients(self):
        """A decoder stage's first conv gives, from one backward, the coarse
        features' gradient at their own dims and the skip's at the skip's
        dims, each the interior of a grid of its own channels."""
        model = UNet3D(TINY_MM, seed=6)
        inputs = {}  # conv -> (coarse input shape, skip shape)
        grads = {}  # conv -> (coarse gradient, skip gradient)

        def watching(conv):
            forward, backward = conv.forward, conv.backward

            def run_forward(x):
                inputs[conv] = (x.shape, conv.skip.shape)
                return forward(x)

            def run_backward(g):
                grads[conv] = backward(g)
                return grads[conv]
            return run_forward, run_backward

        firsts = [block[0] for block in model.dec]
        for conv in firsts:
            conv.forward, conv.backward = watching(conv)
        out = model.forward(np.ones((2, 6, 16, 16, 12), np.float32))
        model.backward(np.ones_like(out))
        for conv in firsts:
            gx, gs = grads[conv]
            assert (gx.shape, gs.shape) == inputs[conv]
            assert grid_of(gx).shape[1] == conv.up_channels
            assert grid_of(gs).shape[1] == conv.in_channels - conv.up_channels

    @pytest.mark.parametrize("variant", ["radar", "multimodal"])
    def test_desk_inference_peak(self, variant):
        """Traced peak of a warm batch-1 inference forward of the desk
        network: about 12.3 (radar) and 11.2 MiB (multimodal) with the
        decoder input held, 9.8 and 9.5 MiB with it dropped, about 7.1
        and 7.2 MiB with one GEMM product at a time and the encoder's and
        the bottleneck's inner activations freed after their second conv,
        about 4.8 and 4.4 MiB with each layer's cache dropped right after
        its forward, and about 3.6 and 3.0 MiB now that no decoder input is
        built."""
        model = UNet3D(replace(DESK, variant=variant, base_channels=8), seed=23)
        x = np.random.default_rng(10).random((1, 6, 64, 64, model.config.in_channels),
                                            dtype=np.float32)
        model._run(x, keep=False)
        tracemalloc.start()
        try:
            model._run(x, keep=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2 ** 20

    @pytest.mark.parametrize("variant", ["radar", "multimodal"])
    def test_no_upsampled_array_in_a_step_or_nowcast(self, variant, monkeypatch):
        """In a desk training step and a nowcast, no part of a call of a
        decoder stage's first conv (its forward, its backward up to the
        skip's gradient, and that gradient, `_input_grad`) allocates as many
        traced bytes as the up channels at the skip's resolution would
        take: its peak over the memory at its start stays below them, so no
        array holding them ever exists.  The GEMM blocks are made small
        here (`_ROW_BLOCK`, `_COLS_BYTES`), as their scratch is bounded by
        the block size, not by the input; what remains is the output and
        the coarse-resolution work."""
        monkeypatch.setattr(nn_layers, "_ROW_BLOCK", 64)
        monkeypatch.setattr(nn_layers, "_COLS_BYTES", 16 << 10)
        config = replace(DESK, variant=variant, base_channels=8)
        model = UNet3D(config, seed=27)
        rng = np.random.default_rng(27)
        x = rng.random((1, 6, 64, 64, config.in_channels), dtype=np.float32)
        calls = []  # (conv name, part, traced bytes above the part's start, up bytes)
        up_bytes = {}  # conv name -> bytes of its up channels at its skip's resolution
        running = []  # the (conv name, part, traced bytes at its start) being measured

        def start(name, part):
            running[:] = [name, part, tracemalloc.get_traced_memory()[0]]
            tracemalloc.reset_peak()

        def stop():
            name, part, at = running
            calls.append((name, part, tracemalloc.get_traced_memory()[1] - at, up_bytes[name]))

        def traced(conv, method):
            run = getattr(conv, method)

            def call(*args):
                if method == "forward":
                    b, T, H, W = conv.skip.shape[:4]
                    up_bytes[conv.name] = b * conv.up_channels * T * H * W * 4
                if method == "_input_grad":  # the skip's gradient, a backward's last part
                    stop()
                    start(conv.name, "skip gradient")
                else:
                    start(conv.name, method)
                out = run(*args)
                if method != "_input_grad":
                    stop()
                return out
            return call

        for conv in (block[0] for block in model.dec):
            for method in ("forward", "backward", "_input_grad"):
                setattr(conv, method, traced(conv, method))
        tracemalloc.start()
        try:
            out = model.forward(x)
            model.backward(rng.normal(size=out.shape).astype(np.float32), input_grad=False)
            model._run(x, keep=False)
        finally:
            tracemalloc.stop()
        assert [(name, part) for name, part, *_ in calls] == [
            ("dec2a", "forward"), ("dec1a", "forward"), ("dec1a", "backward"),
            ("dec1a", "skip gradient"), ("dec2a", "backward"), ("dec2a", "skip gradient"),
            ("dec2a", "forward"), ("dec1a", "forward")]
        for name, part, allocated, up_bytes in calls:
            assert allocated < up_bytes, (name, part)


def _write_sequence(tmp_path, fields, lead=5):
    """fields: 7 arrays -> 6 inputs + target; returns the SequenceSample."""
    paths = []
    for i, vals in enumerate(fields):
        ts = i * 5
        p = tmp_path / f"r{i}.rfg"
        write_grid(p, RainGrid(vals, timestamp=ts))
        paths.append(str(p))
    return SequenceSample(
        input_timestamps=tuple(range(0, 30, 5)),
        radar_paths=tuple(paths[:6]),
        sat_paths=None,
        target_timestamp=30 + (lead - 5),
        target_path=paths[6],
        lead_minutes=lead,
    )


def _static_sample(tmp_path, rows=16, cols=16):
    rng = np.random.default_rng(8)
    vals = np.zeros((rows, cols), dtype=np.float32)
    vals[4:8, 4:8] = 12.0   # heavy block
    vals[10:12, 10:12] = 1.0
    return _write_sequence(tmp_path, [vals] * 7)


class TestPersistence:
    def test_static_scene_perfect_csi(self, tmp_path):
        sample = _static_sample(tmp_path)
        pred = persistence_forecast(sample)
        from rainfusion.grids import read_grid

        obs = read_grid(sample.target_path)
        for cat in (PrecipCategory.HEAVY, PrecipCategory.LIGHT):
            assert csi(contingency(pred, obs, cat)) == 1.0

    def test_output_is_latest_input_bit_identical(self, tmp_path):
        rng = np.random.default_rng(9)
        fields = [rng.uniform(0, 50, (8, 8)).astype(np.float32) for _ in range(7)]
        sample = _write_sequence(tmp_path, fields)
        pred = persistence_forecast(sample)
        np.testing.assert_array_equal(pred.values, fields[5])
        assert pred.timestamp == sample.target_timestamp

    def test_read_grid_values_shared_read_only_at_target_time(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(10)
        fields = [rng.uniform(0, 50, (6, 5)).astype(np.float32) for _ in range(7)]
        fields[5][0, :2] = (-999.0, -0.0)
        sample = _write_sequence(tmp_path, fields, lead=15)
        read = []
        monkeypatch.setattr(models, "read_grid",
                            lambda path: read.append(read_grid(path)) or read[-1])
        pred = persistence_forecast(sample)
        assert type(pred) is RainGrid and pred.timestamp == sample.target_timestamp == 40
        assert pred.values.tobytes() == read_grid(sample.radar_paths[-1]).values.tobytes()
        assert pred.values.tobytes() == fields[5].tobytes()
        assert [np.shares_memory(pred.values, grid.values) for grid in read] == [True]
        assert not pred.values.flags.writeable

    def test_advected_scene_misses(self, tmp_path):
        fields = []
        for i in range(7):
            vals = np.zeros((16, 16), dtype=np.float32)
            vals[2 + 2 * i : 4 + 2 * i, 2:4] = 12.0  # moves 2 cells per frame
            fields.append(vals)
        sample = _write_sequence(tmp_path, fields)
        pred = persistence_forecast(sample)
        from rainfusion.grids import read_grid

        obs = read_grid(sample.target_path)
        table = contingency(pred, obs, PrecipCategory.HEAVY)
        assert table.fn > 0 and table.fp > 0


class TestTraining:
    def _quick_schedule(self, **kw):
        base = dict(epochs=3, lr=1e-3, milestones=(), decay=0.1,
                    batch_size=2, seed=0, loss="logcosh")
        base.update(kw)
        return TrainSchedule(**base)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TrainSchedule(milestones=(10, 10))
        with pytest.raises(ValueError):
            TrainSchedule(epochs=10, milestones=(10,))
        with pytest.raises(ValueError):
            TrainSchedule(loss="mae")

    def test_loss_decreases_and_history_shape(self, tmp_path):
        sample = _static_sample(tmp_path)
        model = UNet3D(TINY, seed=10)
        history = train(model, [sample], [sample], self._quick_schedule(epochs=12))
        assert len(history) == 12
        assert history[-1].train_loss < history[0].train_loss
        assert all(h.val_loss is not None for h in history)

    def test_decay_one_keeps_lr_constant(self, tmp_path):
        sample = _static_sample(tmp_path)
        model = UNet3D(TINY, seed=11)
        history = train(model, [sample], [], self._quick_schedule(
            epochs=4, milestones=(2, 3), decay=1.0))
        assert {h.lr for h in history} == {1e-3}

    def test_identical_seeds_identical_runs(self, tmp_path):
        sample = _static_sample(tmp_path)
        runs = []
        for _ in range(2):
            model = UNet3D(TINY, seed=12)
            history = train(model, [sample], [sample], self._quick_schedule(epochs=4))
            runs.append((history, [p.value.copy() for p in model.params()]))
        (h1, p1), (h2, p2) = runs
        assert h1 == h2
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a, b)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train(UNet3D(TINY), [], [], self._quick_schedule())

    def test_history_csv(self, tmp_path):
        sample = _static_sample(tmp_path)
        model = UNet3D(TINY, seed=13)
        history = train(model, [sample], [], self._quick_schedule(epochs=2))
        out = tmp_path / "history.csv"
        history_to_csv(out, history)
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr"
        assert len(lines) == 3
        assert lines[1].startswith("1,")


class TestPrediction:
    def test_output_domain(self, tmp_path):
        sample = _static_sample(tmp_path)
        model = UNet3D(TINY, seed=14)
        pred = predict_grid(model, sample)
        assert pred.values.shape == (16, 16)
        assert pred.values.min() >= 0.0
        assert pred.values.max() <= 200.0
        assert not np.any(pred.values == -999.0)

    def test_deterministic(self, tmp_path):
        sample = _static_sample(tmp_path)
        model = UNet3D(TINY, seed=15)
        a, b = predict_grid(model, sample), predict_grid(model, sample)
        np.testing.assert_array_equal(a.values, b.values)

    def test_nowcast_reads_only_its_inputs(self, tmp_path):
        """A nowcast does not read its target, which at forecast time does
        not exist yet: with the target file deleted it gives the same grid."""
        rng = np.random.default_rng(16)
        sample = _write_sequence(tmp_path, [rng.random((16, 16), dtype=np.float32) * 20
                                            for _ in range(7)])
        model = UNet3D(TINY, seed=15)
        before = predict_grid(model, sample)
        os.remove(sample.target_path)
        np.testing.assert_array_equal(predict_grid(model, sample).values, before.values)


class TestCheckpoints:
    def test_round_trip_preserves_predictions(self, tmp_path):
        sample = _static_sample(tmp_path)
        model = UNet3D(TINY, seed=16)
        train(model, [sample], [], TrainSchedule(epochs=2, lr=1e-3, milestones=(),
                                                 batch_size=1, seed=0))
        path = tmp_path / "model.rfp"
        save_model(path, model)
        loaded, stats = load_model(path)
        assert stats is None
        assert loaded.config == model.config
        a = predict_grid(model, sample)
        b = predict_grid(loaded, sample)
        np.testing.assert_array_equal(a.values, b.values)

    def test_band_stats_ride_along(self, tmp_path):
        model = UNet3D(TINY_MM, seed=17)
        stats = MM_STATS
        path = tmp_path / "mm.rfp"
        save_model(path, model, stats)
        _, back = load_model(path)
        np.testing.assert_array_equal(back.mins, stats.mins)
        np.testing.assert_array_equal(back.maxs, stats.maxs)
        assert back.count == 3

    def test_unknown_variant_id_names_file(self, tmp_path):
        from rainfusion.nn import load_arrays, save_arrays

        path = tmp_path / "m.rfp"
        save_model(path, UNet3D(TINY, seed=18))
        entries = load_arrays(path)
        assert entries[0][0] == "__config__"
        entries[0][1][0] = 7.0
        save_arrays(path, entries)
        with pytest.raises(ValueError, match=re.escape(f"{path}: unknown variant id 7.0")):
            load_model(path)

    @staticmethod
    def _saved(path, edit, config=TINY, stats=None):
        """A checkpoint at `path` whose (name, array) entries `edit` has changed."""
        from rainfusion.nn import load_arrays, save_arrays

        save_model(path, UNet3D(config, seed=19), stats)
        entries = load_arrays(path)
        edit(entries)
        save_arrays(path, entries)
        return path

    @pytest.mark.parametrize("config, stats, digest", [
        (TINY, None, "2ac774170b26b7bf771c79cb2eb7a5c4f73f16abc857a7305e69aa056f9c6fe1"),
        (TINY_MM, MM_STATS, "c54a58e0019498e7aeb9909ca206de4282373c07ee0581bec0fbf470868c992b"),
    ], ids=["radar", "multimodal"])
    def test_seeded_checkpoint_bytes_are_pinned(self, tmp_path, config, stats, digest):
        """A seeded checkpoint's bytes are pinned, the window's 6 time steps
        in its `__config__` included: a change to what `save_model` writes
        shows here."""
        path = tmp_path / "m.rfp"
        save_model(path, UNet3D(config, seed=7), stats)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert load_model(path)[0].config == config

    @pytest.mark.parametrize("steps", [2.0, 7.0])
    def test_time_steps_other_than_the_window_name_file(self, tmp_path, steps):
        def set_steps(entries):
            assert entries[0][1][3] == 6.0
            entries[0][1][3] = steps
        path = self._saved(tmp_path / "m.rfp", set_steps)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: __config__ holds {int(steps)} time steps, expected 6")):
            load_model(path)

    def test_config_of_wrong_length_names_file(self, tmp_path):
        def drop_lead(entries):
            entries[0] = ("__config__", entries[0][1][:6])
        path = self._saved(tmp_path / "m.rfp", drop_lead)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: __config__ has shape (6,), expected 7 values")):
            load_model(path)

    def test_non_integral_config_names_file(self, tmp_path):
        def half_row(entries):
            entries[0][1][1] = 16.5  # rows
        path = self._saved(tmp_path / "m.rfp", half_row)
        with pytest.raises(ValueError, match=re.escape(f"{path}: __config__ holds non-integral")):
            load_model(path)

    def test_signaling_nan_config_names_file(self, tmp_path):
        # np.round warns on a signaling NaN, so the check rounds finite values only
        def signaling_rows(entries):
            entries[0][1].view(np.uint32)[1] = 0x7FA00000
        path = self._saved(tmp_path / "m.rfp", signaling_rows)
        with pytest.raises(ValueError, match=re.escape(f"{path}: __config__ holds non-integral")):
            load_model(path)

    @pytest.mark.parametrize("index, value", [(1, -16.0), (2, 0.0)])
    def test_non_positive_dims_name_file(self, tmp_path, index, value):
        def set_dim(entries):
            entries[0][1][index] = value
        path = self._saved(tmp_path / "m.rfp", set_dim)
        with pytest.raises(ValueError, match=re.escape(f"{path}: rows and cols must be >= 1")):
            load_model(path)

    def test_incomplete_band_stats_name_file(self, tmp_path):
        def drop_count(entries):
            assert entries.pop(3)[0] == "__band_count__"
        path = self._saved(tmp_path / "m.rfp", drop_count, TINY_MM, MM_STATS)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: band stats need all of __band_min__, __band_max__, __band_count__")):
            load_model(path)

    def test_inverted_band_stats_name_file(self, tmp_path):
        def invert(entries):
            assert entries[1][0] == "__band_min__"
            entries[1][1][4] = 100.0
        path = self._saved(tmp_path / "m.rfp", invert, TINY_MM, MM_STATS)
        with pytest.raises(ValueError, match=re.escape(f"{path}: band min exceeds band max")):
            load_model(path)

    @pytest.mark.parametrize("name, index, value", [("__band_min__", 1, np.nan),
                                                    ("__band_max__", 2, np.inf),
                                                    ("__band_min__", 1, -np.inf)])
    def test_non_finite_band_stats_name_file(self, tmp_path, name, index, value):
        def set_stat(entries):
            assert entries[index][0] == name
            entries[index][1][4] = value
        path = self._saved(tmp_path / "m.rfp", set_stat, TINY_MM, MM_STATS)
        with pytest.raises(ValueError, match=re.escape(f"{path}: band stats hold non-finite values")):
            load_model(path)

    @pytest.mark.parametrize("count", [[2.5, 7.0], [-3.0], [0.0], [2.5], [float("nan")],
                                       [float("inf")], [[3.0]]])
    def test_bad_band_count_names_file(self, tmp_path, count):
        def set_count(entries):
            assert entries[3][0] == "__band_count__"
            entries[3] = ("__band_count__", np.array(count, dtype=np.float32))
        path = self._saved(tmp_path / "m.rfp", set_count, TINY_MM, MM_STATS)
        with pytest.raises(ValueError, match=re.escape(f"{path}: __band_count__ holds")):
            load_model(path)

    def test_band_stats_of_wrong_band_count_name_file(self, tmp_path):
        three = BandStats(np.arange(3.0), np.arange(3.0) + 5, 3)
        path = self._saved(tmp_path / "m.rfp", lambda entries: None, TINY_MM, three)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: __band_min__ has shape (3,) and __band_max__ (3,), "
                "expected (11,) for a multimodal model")):
            load_model(path)

    def test_band_min_and_max_of_unequal_length_name_file(self, tmp_path):
        def drop_max(entries):
            assert entries[2][0] == "__band_max__"
            entries[2] = ("__band_max__", entries[2][1][:10])
        path = self._saved(tmp_path / "m.rfp", drop_max, TINY_MM, MM_STATS)
        with pytest.raises(ValueError, match=re.escape(f"{path}: __band_min__ has shape (11,)")):
            load_model(path)

    def test_rejects_non_checkpoint(self, tmp_path):
        from rainfusion.nn import save_arrays

        path = tmp_path / "junk.rfp"
        save_arrays(path, [("w", np.ones(3, dtype=np.float32))])
        with pytest.raises(ValueError, match="__config__"):
            load_model(path)


@pytest.fixture
def mm_data(tmp_path):
    """Multimodal lead-5 samples of a 16x16 synthetic set (satellite at 8x8),
    with band stats fitted on the first five samples."""
    generate_synthetic(SynthConfig(rows=16, cols=16, frames=14, cells=3, seed=4), tmp_path)
    samples = build_sequences(read_index(tmp_path / "index.tsv"), LeadTime(5), multimodal=True)
    assert len(samples) == 8
    stats = fit_band_stats(read_scene(p) for p in sorted({p for s in samples[:5]
                                                          for p in s.sat_paths}))
    return samples, stats


def _oracle_frame(radar_path, sat_path, stats):
    """One input frame, each band resampled on its own."""
    scene = read_scene(sat_path)
    bands = np.stack([resample_lanczos(b, 16, 16) for b in scene.values])
    sat = normalize_satellite(bands, stats)
    radar = normalize_values(read_grid(radar_path).values)
    return np.stack([radar, *sat], axis=-1).astype(np.float32)


class TestMultimodalLoading:
    def test_frames_match_per_frame_oracle(self, mm_data):
        samples, stats = mm_data
        frames, starts, targets = load_frames(TINY_MM, samples, stats)
        assert frames.dtype == targets.dtype == np.float32
        assert frames.shape == (1, len({p for s in samples for p in s.radar_paths}), 16, 16, 12)
        assert_zero_border(frames)  # one channels-first buffer, the layers' layout
        assert starts.shape == (len(samples),)
        assert targets.shape == (len(samples), 16, 16)
        for s, start, target in zip(samples, starts, targets):
            want = np.stack([_oracle_frame(r, p, stats)
                             for r, p in zip(s.radar_paths, s.sat_paths)])
            np.testing.assert_array_equal(frames[0, start:start + 6], want)
            np.testing.assert_array_equal(
                target, normalize_values(read_grid(s.target_path).values).astype(np.float32))
        x = load_sample(TINY_MM, samples[3], stats)
        np.testing.assert_array_equal(x, frames[0, starts[3]:starts[3] + 6])
        assert grid_of(x[None]).shape[2] == 6  # a sample's own six-frame buffer
        assert_zero_border(x[None])
        model = UNet3D(TINY_MM, seed=19)
        model.forward(x[None])
        assert model.enc[0][0]._cache[0].base is x.base  # read in place, as a nowcast's is
        window = frames[:, starts[3]:starts[3] + 6]
        assert np.shares_memory(window, frames)  # a training input is a view of the buffer
        model.forward(window)
        assert model.enc[0][0]._cache[0].base is frames.base  # read in place too

    def test_rows_in_timestamp_order_whatever_the_sample_order(self, mm_data):
        """The frame rows follow (timestamp mod 5, timestamp), whatever order
        the samples come in, so each sample's six frames are consecutive
        rows; a timestamp off the 5-minute lattice starts rows of its own."""
        samples, stats = mm_data
        shifted = replace(samples[2], input_timestamps=tuple(
            t + 2 for t in samples[2].input_timestamps))  # the same files, 2 minutes later
        stacks = []
        for order in ([*samples, shifted], [shifted, *samples[::-1]], [samples[5], samples[1]]):
            frames, starts, _ = load_frames(TINY_MM, order, stats)
            timestamps = sorted({t for s in order for t in s.input_timestamps},
                                key=lambda t: (t % 5, t))
            assert frames.shape[1] == len(timestamps)
            for s, start in zip(order, starts):
                assert timestamps[start:start + 6] == list(s.input_timestamps)
                want = np.stack([_oracle_frame(r, p, stats)
                                 for r, p in zip(s.radar_paths, s.sat_paths)])
                np.testing.assert_array_equal(frames[0, start:start + 6], want)
            stacks.append(frames)
        assert_bits_equal(stacks[0], stacks[1])

    def test_two_files_at_one_timestamp_raise(self, mm_data):
        samples, stats = mm_data
        a, b = samples[0], samples[1]
        radar = (*b.radar_paths[:-1], b.radar_paths[0])  # the last input is another file
        with pytest.raises(ValueError, match=re.escape(
                f"({b.input_timestamps[-1]}): {b.radar_paths[-1]} and {b.radar_paths[0]}")):
            load_frames(TINY_MM, [b, replace(b, radar_paths=radar)], stats)
        sat = (a.sat_paths[1], *a.sat_paths[1:])
        with pytest.raises(ValueError, match=re.escape(
                f"({a.input_timestamps[0]}): {a.sat_paths[0]} and {a.sat_paths[1]}")):
            load_frames(TINY_MM, [a, b, replace(a, sat_paths=sat)], stats)

    def test_each_file_read_once(self, mm_data, monkeypatch):
        samples, stats = mm_data
        reads = Counter()

        def counted(reader):
            def read(path):
                reads[path] += 1
                return reader(path)
            return read

        monkeypatch.setattr(models, "read_grid", counted(models.read_grid))
        monkeypatch.setattr(models, "read_scene", counted(models.read_scene))
        load_frames(TINY_MM, samples, stats)
        radar = {p for s in samples for p in (*s.radar_paths, s.target_path)}
        assert set(reads) == radar | {p for s in samples for p in s.sat_paths}
        assert set(reads.values()) == {1}

    def test_satellite_steps_run_once_per_frame(self, mm_data, monkeypatch):
        """load_frames resamples and normalizes each distinct frame once,
        through the names it looks up on `models` (where a tracer patches them):
        each scene is resampled once per timestamp, and each resampled array
        is normalized once."""
        samples, stats = mm_data
        resampled = Counter()
        normalized = Counter()
        # id of each resampled array -> (its timestamp, the array, kept so
        # that no later array can reuse the id)
        arrays = {}
        resample, normalize = models.resample_scene, models.normalize_satellite

        def counted_resample(scene, *args):
            resampled[scene.timestamp] += 1
            out = resample(scene, *args)
            arrays[id(out)] = scene.timestamp, out
            return out

        def counted_normalize(bands, stats):
            timestamp, array = arrays[id(bands)]
            assert array is bands
            normalized[timestamp] += 1
            return normalize(bands, stats)

        monkeypatch.setattr(models, "resample_scene", counted_resample)
        monkeypatch.setattr(models, "normalize_satellite", counted_normalize)
        frames, _, _ = load_frames(TINY_MM, samples, stats)
        timestamps = {t for s in samples for t in s.input_timestamps}
        assert len(timestamps) == frames.shape[1]
        for counts in (resampled, normalized):
            assert set(counts) == timestamps
            assert set(counts.values()) == {1}

    def test_loading_errors(self, mm_data):
        samples, stats = mm_data
        with pytest.raises(ValueError, match="requires fitted band stats"):
            load_sample(TINY_MM, samples[0])
        with pytest.raises(ValueError, match="no satellite paths"):
            load_sample(TINY_MM, replace(samples[0], sat_paths=None), stats)
        with pytest.raises(ValueError, match="radar frame is 16x16, config wants 32x32"):
            load_sample(replace(TINY_MM, rows=32, cols=32), samples[0], stats)

    def test_batches_are_sample_loads_in_permutation_order(self, mm_data):
        """Each run of the layer loop in `train`, training forward or
        validation inference, gets one sample, `(1, 6, rows, cols, 12)`, as
        a time slice of one zero-bordered frame buffer that the first conv
        reads in place: the training samples in permutation order, then the
        validation ones."""
        samples, stats = mm_data
        train_set, val_set = samples[:5], samples[5:8]
        model = UNet3D(TINY_MM, seed=19)
        seen, buffers = [], set()
        run = model._run

        def recording(x, keep):
            assert_zero_border(x)
            frames = grid_of(x)[..., 1:-1, 1:-1].transpose(0, 2, 3, 4, 1)
            start, rest = divmod(x.ctypes.data - frames.ctypes.data, frames.strides[1])
            assert rest == 0 and x.strides == frames.strides
            np.testing.assert_array_equal(x, frames[:, start:start + 6])
            buffers.add(id(x.base))
            seen.append(x.copy())
            out = run(x, keep)
            assert keep == (model.enc[0][0]._cache is not None)
            return out

        model._run = recording
        train(model, train_set, val_set,
              TrainSchedule(epochs=2, lr=1e-3, milestones=(), batch_size=2, seed=3), stats)
        rng = np.random.default_rng(3)
        rows = []
        for _ in range(2):  # training samples in permutation order, then validation
            rows += [*rng.permutation(5), 5, 6, 7]
        assert len(seen) == len(rows)
        assert len(buffers) == 1  # one frame buffer for the whole `train` call
        for x, i in zip(seen, rows):
            assert x.shape == (1, 6, 16, 16, 12)
            np.testing.assert_array_equal(x[0], load_sample(TINY_MM, samples[i], stats))

    def test_trained_checkpoint_predicts_bit_identically(self, mm_data, tmp_path):
        samples, stats = mm_data
        model = UNet3D(TINY_MM, seed=20)
        history = train(model, samples[:4], samples[4:6],
                        TrainSchedule(epochs=1, lr=1e-3, milestones=(), batch_size=2), stats)
        assert len(history) == 1 and history[0].val_loss is not None
        path = tmp_path / "mm.rfp"
        save_model(path, model, stats)
        loaded, loaded_stats = load_model(path)
        for s in samples[6:]:
            np.testing.assert_array_equal(predict_grid(model, s, stats).values,
                                          predict_grid(loaded, s, loaded_stats).values)


def _glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def _desk_samples(tmp_path, variant):
    """The 9 lead-5 samples of a 64x64 synthetic set, and band stats fitted on
    all of them for the multimodal variant."""
    generate_synthetic(SynthConfig(rows=64, cols=64, frames=15, cells=3, seed=4), tmp_path)
    multimodal = variant == "multimodal"
    samples = build_sequences(read_index(tmp_path / "index.tsv"), LeadTime(5),
                              multimodal=multimodal)
    assert len(samples) == 9
    stats = None
    if multimodal:
        stats = fit_band_stats(read_scene(p) for p in sorted({p for s in samples
                                                              for p in s.sat_paths}))
    return samples, stats


def _batched_train(model, train_set, val_set, schedule, stats=None):
    """The training loop with one batched forward and backward per batch and
    batched validation forwards: the reference for `train`, which runs a
    batch one sample at a time."""
    loss_fn = LOSSES[schedule.loss]
    frames, starts, targets = load_frames(model.config, [*train_set, *val_set], stats)
    n_train = len(train_set)
    val_rows = np.arange(n_train, len(starts))

    def batches(rows):
        for lo in range(0, len(rows), schedule.batch_size):
            chunk = rows[lo:lo + schedule.batch_size]
            x = np.concatenate([frames[:, s:s + 6] for s in starts[chunk]])
            yield chunk, x, targets[chunk][:, None, :, :, None]

    params = model.params()
    opt = Adam(params, lr=schedule.lr)
    rng = np.random.default_rng(schedule.seed)
    history, best_val, best = [], np.inf, None
    for epoch in range(1, schedule.epochs + 1):
        opt.lr = lr_for_epoch(schedule.lr, epoch, schedule.milestones, schedule.decay)
        total = 0.0
        for chunk, x, y in batches(rng.permutation(n_train)):
            out = model.forward(x)
            loss, grad = loss_fn(out, y)
            model.zero_grad()
            model.backward(grad.astype(out.dtype, copy=False))
            opt.step()
            total += loss * len(chunk)
        val_loss = None
        if len(val_rows):
            val_loss = sum(loss_fn(model._run(x, keep=False), y)[0] * len(chunk)
                           for chunk, x, y in batches(val_rows)) / len(val_rows)
        history.append(EpochStats(epoch, total / n_train, val_loss, opt.lr))
        if val_loss is not None and val_loss < best_val:
            best_val, best = val_loss, [p.value.copy() for p in params]
    if best is not None:
        for p, v in zip(params, best):
            p.value[...] = v
    return history


class TestSampleSteps:
    """`train` runs each batch one sample at a time, its gradients
    accumulating on the Parameters, and Adam steps once per batch."""

    @pytest.mark.parametrize("config", [TINY, TINY_MM], ids=["radar", "multimodal"])
    @pytest.mark.parametrize("batch", [4, 3])
    def test_batch_equals_samples_accumulated_in_order(self, config, batch):
        """One batched forward and backward gives the output, the input
        gradient and every parameter gradient of per-sample passes whose
        parameter gradients accumulate in sample order, bit for bit."""
        rng = np.random.default_rng(30)
        x = rng.normal(size=(batch, 6, 16, 16, config.in_channels)).astype(np.float32)
        g = rng.normal(size=(batch, 1, 16, 16, 1)).astype(np.float32)
        model = UNet3D(config, seed=31)
        model.zero_grad()
        out = model.forward(x)
        batched = (out, model.backward(g), *(p.grad.copy() for p in model.params()))
        model.zero_grad()
        outs, grads = [], []
        for n in range(batch):
            outs.append(model.forward(x[n:n + 1]))
            grads.append(model.backward(g[n:n + 1]))
        samples = (np.concatenate(outs), np.concatenate(grads),
                   *(p.grad.copy() for p in model.params()))
        for a, b in zip(batched, samples, strict=True):
            assert_bits_equal(a, b)

    @pytest.mark.parametrize("config", [TINY, TINY_MM], ids=["radar", "multimodal"])
    def test_backward_without_input_gradient(self, config, monkeypatch):
        """`backward(g, input_grad=False)` returns None, runs no `_tap_gemms`
        in the first conv's backward (there they run only for the input
        gradient) and adds the parameter gradients of a backward that
        returns the input gradient, bit for bit.  The flag does not stick:
        a later default backward returns the input gradient again."""
        rng = np.random.default_rng(33)
        x = rng.normal(size=(2, 6, 16, 16, config.in_channels)).astype(np.float32)
        g = rng.normal(size=(2, 1, 16, 16, 1)).astype(np.float32)
        model = UNet3D(config, seed=34)
        first = model.steps[0]
        tap_gemms, backward, log = nn_layers._tap_gemms, first.backward, []

        def spy(*args):
            log.append("_tap_gemms")
            return tap_gemms(*args)

        def first_backward(grad):
            log.append("first")  # the last layer backward of a step
            return backward(grad)

        monkeypatch.setattr(nn_layers, "_tap_gemms", spy)
        first.backward = first_backward
        runs, counts = [], []  # counts: `_tap_gemms` calls in the first conv's backward
        for kwargs in ({"input_grad": True}, {"input_grad": False}, {}):
            model.forward(x)
            model.zero_grad()
            log.clear()
            gx = model.backward(g, **kwargs)
            counts.append(len(log) - 1 - log.index("first"))
            assert _cached_layers(model) == []
            runs.append((gx, [p.grad.copy() for p in model.params()]))
        assert runs[1][0] is None
        assert counts[0] == counts[2] > 0 == counts[1]
        assert_bits_equal(runs[0][0], runs[2][0])
        for run in runs[1:]:
            for a, b in zip(runs[0][1], run[1], strict=True):
                assert_bits_equal(a, b)

    @pytest.mark.parametrize("config", [TINY, TINY_MM], ids=["radar", "multimodal"])
    @pytest.mark.parametrize("loss", ["logcosh", "mse"])
    @pytest.mark.parametrize("validate", [True, False], ids=["val", "no-val"])
    def test_train_equals_batched_loop(self, config, loss, validate, mm_data):
        """History and final weights equal, bit for bit, those of a loop with
        one batched forward and backward per batch; 5 samples in batches of
        2 leave a ragged last batch, for training and validation alike."""
        samples, stats = mm_data
        val_set = samples[5:8] if validate else []
        schedule = TrainSchedule(epochs=3, lr=1e-3, milestones=(1,), batch_size=2, seed=5,
                                 loss=loss)
        runs = []
        for loop in (train, _batched_train):
            model = UNet3D(config, seed=32)
            runs.append((loop(model, samples[:5], val_set, schedule, stats),
                         [p.value.copy() for p in model.params()]))
        (history, weights), (want_history, want_weights) = runs
        assert history == want_history
        assert all(h.val_loss is not None for h in history) == validate
        for a, b in zip(weights, want_weights, strict=True):
            assert_bits_equal(a, b)

    @pytest.mark.parametrize("variant,bound_mib", [("radar", 8.0), ("multimodal", 9.25)])
    def test_desk_train_peak(self, variant, bound_mib, tmp_path):
        """Traced peak of a warm desk `train()` call (64x64, base 8, batch 4,
        one epoch over 4 samples, 4 validation samples): 35.7 (radar) and
        42.9 MiB (multimodal) with batched steps.  One sample at a time it
        read about 10.6 and 13.55 MiB with the conv GEMM temporaries
        allocated per block.  A long-lived GEMM scratch read 9.0 and
        11.3 MiB here only because it was allocated before tracing began;
        counted, it held 3.0 and 2.5 MiB more (12.0 and 13.9 MiB).  It
        read about 8.0 and 10.3 MiB once a step rebuilt the encoder's and
        the bottleneck's inner activations in backward, got a decoder input
        gradient in two parts, held one GEMM product at a time, and built
        the network input once, without its gradient.  It read about 7.7
        and 9.1 MiB once each sample's input was a time slice of the one
        frame buffer instead of a copy, and a conv's backward read the
        ReLU's gradient in place, and reads about 6.8 and 8.2 MiB now that
        no decoder input is built."""
        samples, stats = _desk_samples(tmp_path, variant)
        model = UNet3D(replace(DESK, variant=variant, base_channels=8), seed=22)
        schedule = TrainSchedule(epochs=1, lr=1e-3, milestones=(), batch_size=4)
        train(model, samples[:4], samples[4:8], schedule, stats)
        tracemalloc.start()
        try:
            train(model, samples[:4], samples[4:8], schedule, stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20

    @pytest.mark.skipif(not _glibc(), reason="only glibc's malloc thresholds are pinned")
    @pytest.mark.parametrize("variant", ["radar", "multimodal"])
    def test_warm_train_and_nowcast_keep_their_pages(self, variant, tmp_path):
        """A warm desk `train()` call and nowcast fault in almost no pages:
        each sample's freed activations stay with the process.  About 0
        minor faults, against 17.6k (radar) and 13.7k (multimodal) with
        batched steps and glibc's thresholds left dynamic."""
        import resource

        samples, stats = _desk_samples(tmp_path, variant)
        model = UNet3D(replace(DESK, variant=variant, base_channels=8), seed=22)
        schedule = TrainSchedule(epochs=1, lr=1e-3, milestones=(), batch_size=4)
        train(model, samples[:4], samples[4:8], schedule, stats)
        predict_grid(model, samples[8], stats)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(model, samples[:4], samples[4:8], schedule, stats)
        predict_grid(model, samples[8], stats)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


def _cached_layers(model):
    """The layers that hold a forward's cache."""
    return [layer for layer in model.steps if layer._cache is not None]


class TestCacheLifetime:
    """A layer's cache lives from a forward to its backward: training
    backwards consume theirs, inference forwards drop theirs."""

    @pytest.mark.parametrize("config", [TINY, TINY_MM], ids=["radar", "multimodal"])
    def test_no_cache_after_train_or_predict(self, config, mm_data):
        samples, stats = mm_data
        model = UNet3D(config, seed=21)
        schedule = TrainSchedule(epochs=2, lr=1e-3, milestones=(), batch_size=2)
        for val_set in (samples[5:7], []):  # a validation forward last, then a backward
            train(model, samples[:5], val_set, schedule, stats)
            assert _cached_layers(model) == []
        predict_grid(model, samples[7], stats)
        assert _cached_layers(model) == []
        model.forward(load_sample(config, samples[7], stats)[None])
        # all but the first ReLU of each encoder stage and of the bottleneck,
        # whose output the backward rebuilds
        inner = [block[1] for block in (*model.enc, model.bott)]
        assert _cached_layers(model) == [layer for layer in model.steps if layer not in inner]

    def test_desk_model_retains_no_traced_bytes(self, tmp_path):
        """After a warm-up, a nowcast and a one-epoch training run leave less
        than 1 MB of traced allocations behind; the batch-4 caches of the
        desk network are tens of MB."""
        samples, _ = _desk_samples(tmp_path, "radar")
        train_set, val_set = samples[:4], samples[4:8]
        model = UNet3D(replace(DESK, base_channels=8), seed=22)
        schedule = TrainSchedule(epochs=1, lr=1e-3, milestones=(), batch_size=4)
        train(model, train_set, val_set, schedule)
        predict_grid(model, samples[8])
        for run in (lambda: predict_grid(model, samples[8]),
                    lambda: train(model, train_set, val_set, schedule)):
            tracemalloc.start()
            try:
                run()
                retained, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert retained < 1_000_000
