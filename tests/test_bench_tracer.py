"""The benchmark's tracer patches package names; this keeps those names alive.

`perfbench/spans.py` wraps functions and layers at the names the package
looks them up under.  Renaming or deleting one of them should fail here,
not only in a traced benchmark run.
"""

import importlib
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from rainfusion.models import ModelConfig, UNet3D

ROOT = Path(__file__).resolve().parent.parent
TINY = ModelConfig(variant="radar", rows=16, cols=16, time_steps=6,
                   levels=3, base_channels=2, lead_minutes=5)


def test_tracer_records_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    rf = SimpleNamespace(**{n: importlib.import_module(f"rainfusion.{n}") for n in spans.LAYERS})
    untraced = rf.models.load_sample
    model = UNet3D(TINY, seed=0)
    tracer = spans.Tracer()
    patches, _ = spans.install(tracer, rf)
    with patches, spans.trace_model(tracer, rf, model):
        assert rf.models.load_sample is not untraced
        out = model.forward(np.random.default_rng(0).random((1, 6, 16, 16, 1), dtype=np.float32))
        model.backward(np.ones_like(out))
    assert rf.models.load_sample is untraced

    convs = [conv.name for conv in model.conv_layers()]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"].split(".")[2] for m in spec["per_layer"]
                if m["name"].startswith("nn.conv.") and m["name"].endswith(".fwd_s")}
    assert set(convs) == declared
    # one forward and one backward: every conv once each way, and the 2 pools,
    # 2 upsamples and 11 ReLUs of a 3-level network twice; the backward runs
    # the first conv and ReLU of both encoder stages and of the bottleneck
    # once more, to rebuild their second conv's input
    rebuilt = {"enc1a", "enc2a", "bottleneck_a"}
    expected = {f"nn.conv.{c}.{d}": 1 for c in convs for d in ("fwd", "bwd")}
    expected.update({f"nn.conv.{c}.fwd": 2 for c in rebuilt})
    expected.update({"nn.pool": 4, "nn.upsample": 4, "nn.relu": 25,
                     "models.forward": 1, "models.backward": 1})
    assert Counter(s[0] for s in tracer.spans) == expected
    backward = next(i for i, s in enumerate(tracer.spans) if s[0] == "models.backward")
    inside = Counter(s[0] for s in tracer.spans if s[3] == backward and s[0].endswith(".fwd"))
    assert inside == {f"nn.conv.{c}.fwd": 1 for c in rebuilt}
