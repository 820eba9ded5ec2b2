"""The benchmark's tracer patches package names; this keeps those names alive.

`perfbench/spans.py` wraps functions and layers at the names the package
looks them up under.  Renaming or deleting one of them should fail here,
not only in a traced benchmark run.
"""

import importlib
import json
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rainfusion.models import ModelConfig, UNet3D
from rainfusion.nn import bordered
from rainfusion.nn import layers as nn_layers

ROOT = Path(__file__).resolve().parent.parent
TINY = ModelConfig(variant="radar", rows=16, cols=16, levels=3, base_channels=2, lead_minutes=5)


def _traced(monkeypatch, run, config=TINY):
    """The tracer of `run(model, x)` on a traced network of `config`, and
    the network."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    rf = SimpleNamespace(**{n: importlib.import_module(f"rainfusion.{n}") for n in spans.LAYERS})
    untraced = rf.models.load_sample
    model = UNet3D(config, seed=0)
    tracer = spans.Tracer()
    patches, _ = spans.install(tracer, rf)
    with patches, spans.trace_model(tracer, rf, model):
        assert rf.models.load_sample is not untraced
        run(model, np.random.default_rng(0).random((1, 6, config.rows, config.cols,
                                                    config.in_channels), dtype=np.float32))
    assert rf.models.load_sample is untraced
    return tracer, model


def _step(model, x):
    out = model.forward(x)
    model.backward(np.ones_like(out))


def _assert_step_spans(tracer, model):
    """The spans and counters of one traced training step, `_step`."""
    spans = tracer.spans
    convs = [conv.name for conv in model.conv_layers()]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"].split(".")[2] for m in spec["per_layer"]
                if m["name"].startswith("nn.conv.") and m["name"].endswith(".fwd_s")}
    assert set(convs) == declared
    # one forward and one backward: every conv once each way, and the 2 pools
    # and 11 ReLUs of a 3-level network twice, and no upsample (the decoder
    # convs read the coarse features in place); the backward runs
    # the first conv and ReLU of both encoder stages and of the bottleneck
    # once more, to rebuild their second conv's input
    rebuilt = {"enc1a", "enc2a", "bottleneck_a"}
    expected = {f"nn.conv.{c}.{d}": 1 for c in convs for d in ("fwd", "bwd")}
    expected.update({f"nn.conv.{c}.fwd": 2 for c in rebuilt})
    expected.update({"nn.pool": 4, "nn.relu": 25,
                     "models.forward": 1, "models.backward": 1})
    assert Counter(s[0] for s in spans) == expected
    backward = next(i for i, s in enumerate(spans) if s[0] == "models.backward")
    inside = Counter(s[0] for s in spans if s[3] == backward and s[0].endswith(".fwd"))
    assert inside == {f"nn.conv.{c}.fwd": 1 for c in rebuilt}
    # the tracer derives both from each conv's kernel and `temporal_pad` and
    # the input shape alone: a change to either moves the benchmark's
    # `nn.conv_gflop` and `nn.conv_cached_bytes`.  For `dec*a` that input is
    # the coarse features, not the decoder input [upsampled | skip]
    assert dict(tracer.counters[tracer.group]) == {"nn.conv_flop": 4_611_072,
                                                  "nn.conv_cached_bytes": 104_000}


def test_tracer_records_every_layer(monkeypatch):
    _assert_step_spans(*_traced(monkeypatch, _step))


def test_tracer_records_a_step_on_a_time_slice(monkeypatch):
    """A training step whose input is a time slice of a longer zero-bordered
    buffer, as `train` runs it on a window of the frame buffer, gives the
    same spans: the conv wrappers read `x.shape` and `x.itemsize` of a view."""
    frames = bordered((1, 1, 9, 16, 16), np.float32)
    frames[...] = np.random.default_rng(1).random(frames.shape, dtype=np.float32)
    frames = frames.transpose(0, 2, 3, 4, 1)
    read_in_place = []

    def step(model, x):
        window = frames[:, 2:8]
        out = model.forward(window)
        read_in_place.append(model.steps[0]._cache[0].base is frames.base)
        model.backward(np.ones_like(out))

    _assert_step_spans(*_traced(monkeypatch, step))
    assert read_in_place == [True]


def test_tracer_records_an_inference_run(monkeypatch):
    """An inference forward, as a nowcast or a validation loss runs it, goes
    through every layer's forward once, and through neither the traced
    `model.forward` nor any backward."""
    tracer, model = _traced(monkeypatch, lambda model, x: model._run(x, keep=False))
    expected = {f"nn.conv.{conv.name}.fwd": 1 for conv in model.conv_layers()}
    expected.update({"nn.pool": 2, "nn.relu": 11})
    assert Counter(s[0] for s in tracer.spans) == expected


@pytest.mark.parametrize("variant", ["radar", "multimodal"])
def test_every_conv_gemm_runs_in_a_conv_span(variant, monkeypatch):
    """Every conv GEMM call of a traced training step (`_tap_gemms`,
    `_gathered_wgrad`) runs inside an `nn.conv.*` span, so that no conv
    work counts in `models.self_s`: a decoder conv's skip gradient too,
    which its backward returns with the coarse gradient."""
    starts = []  # the clock at each call

    def spying(fn):
        def call(*args):
            starts.append(time.perf_counter())
            return fn(*args)
        return call

    for name in ("_tap_gemms", "_gathered_wgrad"):
        monkeypatch.setattr(nn_layers, name, spying(getattr(nn_layers, name)))
    tracer, _ = _traced(monkeypatch, _step, replace(TINY, variant=variant))
    innermost = [max((s for s in tracer.spans if s[1] <= t <= s[2]), key=lambda s: s[1],
                     default=["no span"])[0] for t in starts]
    assert starts
    assert [name for name in innermost if not name.startswith("nn.conv.")] == []
