"""In-memory span recorder and the wrappers a traced run installs.

A span is (name, start, end, parent index, group).  The layer of a span is
the part of its name before the first dot, and the group is the set-up or
pass it belongs to.  Wrappers are installed only in a traced run, at the
names the package looks them up under, and are removed again before the
output checks run, so an untraced run executes the package code untouched.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from unittest import mock

from chain import RFG_HEADER

LAYERS = ("synth", "grids", "pipeline", "models", "nn", "verify", "report")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, group]
        self.counters = defaultdict(Counter)  # group -> counter increments
        self.group = "none"
        self._stack = [-1]

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, self._stack[-1], self.group]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def count(self, key, amount):
        self.counters[self.group][key] += amount

    def wrap(self, name, fn, on_result=None):
        """`fn` timed as span `name`; `on_result(args, result)` may add counts."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    # -- aggregation -------------------------------------------------------

    def totals(self, group):
        """Calls and seconds by span name, and self seconds by layer, for one group."""
        child_time = Counter()
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        calls, seconds, self_s = Counter(), Counter(), Counter()
        for i, (name, start, end, _, g) in enumerate(self.spans):
            if g != group:
                continue
            calls[name] += 1
            seconds[name] += end - start
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                self_s[layer] += end - start - child_time[i]
        return calls, seconds, self_s

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "group"],
                       "spans": self.spans}, fh)


def install(tracer, rf):
    """Wrap the package names the chain looks up; `rf` holds the modules.

    Returns the ExitStack that undoes every patch, and the traced names the
    chain uses.  `on_model(model, slot)` traces one network; tracing a new
    network in a slot first undoes the patches of the slot's previous one,
    so that a model reloaded every pass is not kept alive by its wrappers.
    """
    models, report, verify = rf.models, rf.report, rf.verify
    radar_paths = set()
    patches = ExitStack()
    slots = {}

    def patch(owner, attr, value):
        patches.enter_context(mock.patch.object(owner, attr, value))

    def scene_read(args, result):
        tracer.count("grids.bytes_read", RFG_HEADER + result.values.nbytes)

    def grid_read(args, result):
        radar_paths.add(str(args[0]))
        scene_read(args, result)

    traced_read_grid = tracer.wrap("grids.read_grid", rf.grids.read_grid, grid_read)
    traced_read_scene = tracer.wrap("grids.read_scene", rf.grids.read_scene, scene_read)
    patch(models, "read_grid", traced_read_grid)
    patch(report, "read_grid", traced_read_grid)
    patch(models, "read_scene", traced_read_scene)
    for name in ("resample_scene", "normalize_satellite"):
        patch(models, name, tracer.wrap(f"pipeline.{name}", getattr(models, name)))
    patch(models, "load_sample", tracer.wrap("models.load_sample", models.load_sample))
    for name in ("categorize_values", "neighborhood_probability"):
        patch(verify, name, tracer.wrap(f"verify.{name}", getattr(verify, name)))
    for name in ("contingency", "fss_components", "fss"):
        patch(report, name, tracer.wrap(f"verify.{name}", getattr(report, name)))
    patches.enter_context(mock.patch.dict(
        models.LOSSES, {k: tracer.wrap("nn.loss", fn) for k, fn in models.LOSSES.items()}))

    base_adam = models.Adam

    class TracedAdam(base_adam):
        def step(self):
            with tracer.span("nn.adam_step"):
                base_adam.step(self)

    patch(models, "Adam", TracedAdam)

    def on_model(model, slot):
        if slot in slots:
            slots[slot].close()
        slots[slot] = trace_model(tracer, rf, model)

    patches.callback(lambda: [stack.close() for stack in slots.values()])
    return patches, {"read_grid": traced_read_grid, "read_scene": traced_read_scene,
                     "radar_paths": radar_paths, "on_model": on_model}


def trace_model(tracer, rf, model):
    """Wrap one network's forward/backward and each of its layers; returns
    the ExitStack that undoes these patches."""
    nn = rf.nn
    patches = ExitStack()

    def patch(owner, attr, value):
        patches.enter_context(mock.patch.object(owner, attr, value))

    cached = []  # conv input bytes cached during the current forward pass

    def conv_forward(conv):
        fwd = conv.forward

        def traced(x):
            with tracer.span(f"nn.conv.{conv.name}.fwd"):
                out = fwd(x)
            b, t, h, w, c = x.shape
            kt, kh, kw = conv.kernel
            pt = kt - 1 if conv.temporal_pad == "same" else 0
            cached.append(b * (t + pt) * (h + kh - 1) * (w + kw - 1) * c * x.itemsize)
            tracer.count("nn.conv_flop", 2 * out.size * kt * kh * kw * c)
            return out
        return traced

    def conv_backward(conv):
        bwd = conv.backward

        def traced(g):
            with tracer.span(f"nn.conv.{conv.name}.bwd"):
                out = bwd(g)
            kt, kh, kw = conv.kernel
            tracer.count("nn.conv_flop", 4 * g.size * kt * kh * kw * conv.in_channels)
            return out
        return traced

    for conv in model.conv_layers():
        patch(conv, "forward", conv_forward(conv))
        patch(conv, "backward", conv_backward(conv))
    relus = [layer for group in (*model.enc, model.bott, *model.dec, model.head)
             for layer in group if isinstance(layer, nn.ReLU)]
    for layers, name in ((model.pools, "nn.pool"), (model.ups, "nn.upsample"),
                         (relus, "nn.relu")):
        for layer in layers:
            patch(layer, "forward", tracer.wrap(name, layer.forward))
            patch(layer, "backward", tracer.wrap(name, layer.backward))

    forward = tracer.wrap("models.forward", model.forward)

    def traced_forward(x):
        cached.clear()
        out = forward(x)
        tracer.counters[tracer.group]["nn.conv_cached_bytes"] = max(
            tracer.counters[tracer.group]["nn.conv_cached_bytes"], sum(cached))
        return out

    patch(model, "forward", traced_forward)
    patch(model, "backward", tracer.wrap("models.backward", model.backward))
    return patches
