"""Radar-only and multimodal 3D U-Net forecasters, training and prediction.

Both variants share one layout: (levels - 1) encoder stages of two convs
with ReLU (the first conv doubling the width), max pooling between stages,
a two-conv bottleneck, a mirrored decoder whose first conv per stage reads
the upsampled features concatenated with the matching encoder skip, and a
head: a conv spanning the six input frames (`pipeline.WINDOW_FRAMES`) to 2
channels, then a 1x1x1 conv to the single output frame.  Pool windows are
(t, h, w): the radar variant pools (2, 2, 1), which halves time and rows
and never pools cols (ROADMAP item 1 tracks the fix); the multimodal
variant pools (2, 2, 2) with ceiling semantics, and each upsample is
cropped to its skip's size.  Body convs keep a temporal extent of 1; all
temporal mixing happens in the pooling path and the head.  Activations
have the layers' (b, t, h, w, c) shape over channels-first memory (see
`rainfusion.nn`).

The network is one list of layers, `UNet3D.steps`: each encoder stage
and its pool, the bottleneck, each decoder stage, the head.  One loop runs
it in order forward and in reverse backward, with no name left holding a
layer's input or incoming gradient while the next one runs.  Each encoder
stage's output goes on a skip stack before its pool, and the first conv of
each decoder stage (`nn.UpsampleConv3d`) pops one just before its forward.
That conv upsamples: it reads the coarse features and the skip in place,
and the decoder input `[upsampled | skip]` is never built.  Its input
gradient comes in two parts (`Conv3d.split`): the coarse features', which
goes on to the stage below, then the skip's, added to the input gradient
of the matching pool.

A training forward (`forward`) keeps for the backward only what it cannot
rebuild cheaply, a per-node policy as in Chen et al., "Training Deep Nets
with Sublinear Memory Cost" (arXiv:1604.06174).  The table
`UNet3D._rebuild` maps each conv whose input the forward drops to its
start step, a step before it, and one rule builds every such input again:
the forward drops the conv's input and the caches of the steps in
between, and just before that conv's backward, the backward reruns the
start step from its own cache (`rerun`), runs the steps in between
forward, and restores the result as the conv's input.  Only the encoder
has entries: the second conv of each encoder stage and of the bottleneck
maps to the first, so one more small conv forward and ReLU per stage buys
back one activation.  The decoder's first convs drop nothing: their
inputs, the coarse features and the skip, are ReLU outputs that their
ReLUs hold anyway.

With an empty table every input is kept.  An inference forward
(`_run(x, keep=False)`, run by `predict_grid` and `train`'s validation)
drops each layer's cache right after its forward, so an activation lives
until the next layer has read it, and a skip until its decoder conv.

Every layer runs the samples of a batch one after the other, so `train`
runs a batch one sample at a time: the parameter gradients accumulate
over the samples, bit for bit those of one batched backward, and only one
sample's activations exist at a time.  Every package call passes batch 1;
the batch axis stays because `gradient_check` and the tests that check a
batch of 3 or 4 against its samples bit for bit use it.

Inputs are never copied.  `load_frames` writes each distinct input frame
once into one zero-bordered frame buffer, in the network's own layout,
with the frames of every sample on consecutive rows, so a sample's input
is a time slice of it that the first conv reads in place.  `train` asks
for no gradient of that input (`backward(..., input_grad=False)`): the
first conv's `split` is 0, so its backward gives an empty first part and
the rest is never computed.  Each ReLU's backward writes its gradient in
the layout that the conv before it reads in place (see `rainfusion.nn`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .grids import SEVIRI_BANDS, RainGrid, read_grid, read_scene
from .nn import (Adam, Conv3d, MaxPool3d, ReLU, UpsampleConv3d, bordered, ensure_array5,
                 lr_for_epoch)
from .nn.checkpoint import load_arrays, save_arrays
from .nn.losses import LOSSES
from .pipeline import (
    FRAME_STEP,
    LEAD_MINUTES,
    WINDOW_FRAMES,
    BandStats,
    SequenceSample,
    denormalize_values,
    minutes_to_iso,
    normalize_satellite,
    normalize_values,
    resample_scene,
)

VARIANTS = ("radar", "multimodal")
_POOL_WINDOWS = {"radar": (2, 2, 1), "multimodal": (2, 2, 2)}
_IN_CHANNELS = {"radar": 1, "multimodal": 1 + len(SEVIRI_BANDS)}


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """A forecaster's shape; its input is always the six-frame `WINDOW_FRAMES`."""

    variant: str = "radar"
    rows: int = 288
    cols: int = 288
    levels: int = 5
    base_channels: int = 64
    lead_minutes: int = 5

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.levels < 2:
            raise ValueError(f"need at least 2 levels, got {self.levels}")
        if self.base_channels < 1:
            raise ValueError(f"base_channels must be >= 1, got {self.base_channels}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got {self.rows}x{self.cols}")
        if self.lead_minutes not in LEAD_MINUTES:
            raise ValueError(f"lead must be 5, 15 or 30 minutes, got {self.lead_minutes}")
        div = 2 ** (self.levels - 1)
        for name, dim in (("rows", self.rows), ("cols", self.cols)):
            if dim % div != 0:
                raise ValueError(
                    f"{name}={dim} not divisible by {div} across {self.levels - 1} pooling stages")

    @property
    def in_channels(self) -> int:
        return _IN_CHANNELS[self.variant]

    @property
    def pool_window(self) -> tuple[int, int, int]:
        return _POOL_WINDOWS[self.variant]


class UNet3D:
    """The assembled network, He-uniform initialized from `seed`: `head_a`
    spans the WINDOW_FRAMES input frames in time, every other conv one."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        rng = np.random.default_rng(seed)
        L = config.levels
        base = config.base_channels

        def conv(cin, cout, name, kernel=(1, 3, 3)):
            return Conv3d(cin, cout, kernel, name=name, rng=rng, dtype=dtype)

        self.enc = []
        enc_channels = []
        c = config.in_channels
        for i in range(L - 1):
            out = base * 2 ** i
            self.enc.append([conv(c, out, f"enc{i + 1}a"), ReLU(),
                             conv(out, out, f"enc{i + 1}b"), ReLU()])
            enc_channels.append(out)
            c = out
        self.pools = [MaxPool3d(config.pool_window) for _ in range(L - 1)]
        bott = base * 2 ** (L - 1)
        self.bott = [conv(c, bott, "bottleneck_a"), ReLU(),
                     conv(bott, bott, "bottleneck_b"), ReLU()]
        self.ups = []  # the decoder convs upsample; only the benchmark's tracer reads this
        self.dec = []
        c = bott
        for i in reversed(range(L - 1)):
            skip = enc_channels[i]
            first = UpsampleConv3d(c, skip, skip, config.pool_window, name=f"dec{i + 1}a", rng=rng,
                                   dtype=dtype)
            self.dec.append([first, ReLU(), conv(skip, skip, f"dec{i + 1}b"), ReLU()])
            c = skip
        self.head = [conv(c, 2, "head_a", kernel=(WINDOW_FRAMES, 3, 3)), ReLU(),
                     conv(2, 1, "head_b", kernel=(1, 1, 1))]
        self.enc[0][0].split = 0  # the network input's gradient only when asked for
        self.steps = [layer for block, pool in zip(self.enc, self.pools) for layer in (*block, pool)]
        self.steps += self.bott
        self.steps += [layer for block in self.dec for layer in block]
        self.steps += self.head
        # the step of each conv whose input a training forward drops, and the
        # step that the backward reruns to build it again (see the module
        # docstring)
        self._rebuild = {self.steps.index(block[2]): self.steps.index(block[0])
                         for block in (*self.enc, self.bott)}

    # -- structure ---------------------------------------------------------

    def conv_layers(self):
        return [layer for layer in self.steps if isinstance(layer, Conv3d)]

    def params(self):
        out = []
        for layer in self.conv_layers():
            out += layer.params()
        return out

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()

    # -- forward / backward --------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._run(x, keep=True)

    def _run(self, x: np.ndarray, keep: bool) -> np.ndarray:
        """The network output of `x`.  With `keep` (a training forward) the
        layers keep their caches but for the inputs `_rebuild` drops; without
        (inference) each layer's cache is dropped right after its forward."""
        h = ensure_array5(x, "model input")
        cfg = self.config
        expect = (WINDOW_FRAMES, cfg.rows, cfg.cols, cfg.in_channels)
        if h.shape[1:] != expect:
            raise ValueError(f"input shape {h.shape[1:]} does not match config {expect}")
        skips = []  # encoder stage outputs, the deepest last
        for i, layer in enumerate(self.steps):
            if isinstance(layer, MaxPool3d):
                skips.append(h)
            elif isinstance(layer, UpsampleConv3d):
                layer.skip = skips.pop()
            h = layer.forward(h)
            if not keep:
                layer._cache = None
            elif i in self._rebuild:
                layer.drop_input()
                for between in self.steps[self._rebuild[i] + 1:i]:
                    between._cache = None
        return h

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """The gradient of the network input, after adding every parameter's
        gradient to its Parameter; None, and not computed, when `input_grad`
        is false."""
        g = grad_out
        skip_grads = []  # the deepest stage's last
        for i in reversed(range(len(self.steps))):
            layer = self.steps[i]
            if i in self._rebuild:
                layer.restore_input(self._rebuilt_input(i))
            g = layer.backward(g)
            if isinstance(layer, UpsampleConv3d):
                skip_grads.append(layer.backward_rest())
            elif isinstance(layer, MaxPool3d):
                g += skip_grads.pop()
        first = self.steps[0]  # `g` is the empty first part of its input gradient
        if not input_grad:
            first._rest = None  # the other part, never computed
            return None
        return first.backward_rest()

    def _rebuilt_input(self, i: int) -> np.ndarray:
        """The input of step `i`, built again: its start step (`_rebuild`)
        reruns its last forward from its own cache, and the steps between run
        forward on that, caching again what the training forward dropped."""
        start = self._rebuild[i]
        h = self.steps[start].rerun()
        for layer in self.steps[start + 1:i]:
            h = layer.forward(h)
        return h


def param_count(model: UNet3D) -> int:
    return sum(p.value.size for p in model.params())


# ---------------------------------------------------------------------------
# Sample loading and prediction
# ---------------------------------------------------------------------------

def load_frames(config: ModelConfig, samples, stats: BandStats | None = None, *,
                targets: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(frames, starts, targets) of `samples`, each distinct file read once.

    frames: the (1, n, rows, cols, channels) float32 activation of the n
    distinct input frames, one per input timestamp, over one zero-bordered
    channels-first buffer (`nn.bordered`).  Its rows are ordered by
    (timestamp mod FRAME_STEP, timestamp), so the six frames of each sample
    are consecutive rows and sample i's input is the time slice
    `frames[:, starts[i]:starts[i] + 6]`, which the first conv reads in
    place.  Two files for one timestamp raise ValueError naming both.
    targets: (samples, rows, cols) float32, or None with `targets` false,
    and then no target file is read.

    Radar is log-normalized into channel 0; multimodal frames add the 11
    satellite bands, Lanczos-resampled to the radar grid and min-max
    normalized, into channels 1-11, cast to float32 on assignment.  Each
    file is checked once, by its reader; the satellite steps pass plain
    arrays.
    """
    multimodal = config.variant == "multimodal"
    if multimodal and stats is None:
        raise ValueError("multimodal sample loading requires fitted band stats")
    if multimodal and any(s.sat_paths is None for s in samples):
        raise ValueError("sample carries no satellite paths")

    @cache
    def radar(path):
        grid = read_grid(path)
        if (grid.rows, grid.cols) != (config.rows, config.cols):
            raise ValueError(
                f"radar frame is {grid.rows}x{grid.cols}, config wants {config.rows}x{config.cols}")
        return normalize_values(grid.values)

    def fill(frame, radar_path, sat_path):
        """Write one input frame into `frame`, its (channels, rows, cols) row."""
        frame[0] = radar(radar_path)
        if multimodal:
            bands = resample_scene(read_scene(sat_path), config.rows, config.cols)
            frame[1:] = normalize_satellite(bands, stats)

    files = {}  # per input timestamp, its (radar, satellite) path
    for s in samples:
        sat_paths = s.sat_paths if multimodal else (None,) * WINDOW_FRAMES
        for ts, *paths in zip(s.input_timestamps, s.radar_paths, sat_paths):
            for a, b in zip(files.setdefault(ts, paths), paths):
                if a != b:
                    raise ValueError(f"two input files for timestamp {minutes_to_iso(ts)} "
                                     f"({ts}): {a} and {b}")
    rows = {ts: row for row, ts in enumerate(sorted(files, key=lambda ts: (ts % FRAME_STEP, ts)))}
    frames = bordered((1, config.in_channels, len(rows), config.rows, config.cols), np.float32)
    for ts, row in rows.items():
        fill(frames[0, :, row], *files[ts])
    starts = np.array([rows[s.input_timestamps[0]] for s in samples])
    frames = frames.transpose(0, 2, 3, 4, 1)  # the (1, n, rows, cols, channels) activation
    if not targets:
        return frames, starts, None
    return frames, starts, np.stack([radar(s.target_path) for s in samples]).astype(np.float32)


def load_sample(config: ModelConfig, sample: SequenceSample,
                stats: BandStats | None = None) -> np.ndarray:
    """The input stack (time, rows, cols, channels) of `sample`, from
    `load_frames` without its target: a nowcast reads only its inputs.  It
    is the sample's own six-frame buffer, which the first conv reads in
    place."""
    return load_frames(config, [sample], stats, targets=False)[0][0]


def predict_grid(model: UNet3D, sample: SequenceSample,
                 stats: BandStats | None = None) -> RainGrid:
    """Run the network on one sample and return rain rates in mm/h.

    The raw output is clamped to normalized [0, 1] before inversion, so the
    result always lies in [0, 200] and never contains the missing sentinel.
    The forward is an inference one: no layer cache is left behind.
    """
    out = model._run(load_sample(model.config, sample, stats)[None], keep=False)
    norm = np.clip(out[0, 0, :, :, 0].astype(np.float64), 0.0, 1.0)
    return RainGrid(denormalize_values(norm), sample.target_timestamp)


def persistence_forecast(sample: SequenceSample) -> RainGrid:
    """Eulerian persistence: the most recent input frame, values unchanged.

    `read_grid` validates the frame into a new grid on every call, so that
    grid is stamped with the target time and returned, with no second
    validation or copy of its read-only values.
    """
    forecast = read_grid(sample.radar_paths[-1])
    object.__setattr__(forecast, "timestamp", sample.target_timestamp)
    return forecast


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainSchedule:
    epochs: int = 50
    lr: float = 1e-4
    milestones: tuple[int, ...] = (10, 30, 40)
    decay: float = 0.1
    batch_size: int = 4
    seed: int = 0
    loss: str = "logcosh"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {sorted(LOSSES)}, got {self.loss!r}")
        ms = tuple(self.milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError(f"milestones must be strictly increasing: {ms}")
        if any(m >= self.epochs for m in ms):
            raise ValueError(f"milestones must lie below epochs={self.epochs}: {ms}")
        object.__setattr__(self, "milestones", ms)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float | None
    lr: float


def train(model: UNet3D, train_set, val_set, schedule: TrainSchedule,
          stats: BandStats | None = None) -> list[EpochStats]:
    """Seeded epoch loop with milestone lr decay; keeps the best-val weights.

    Each distinct frame is loaded once, into the frame buffer of
    `load_frames`; loss is computed in normalized space.  A batch runs as
    micro-batches of one sample (gradient accumulation, as in GPipe,
    arXiv:1811.06965): the gradients are zeroed once, then each sample in
    permutation order runs forward on its six frames, a time slice of that
    buffer that the first conv reads in place, takes the loss gradient
    with the whole batch's element count as divisor and runs a backward
    that computes no input gradient, and Adam steps once per batch.  That
    gives the parameter gradients of one batched forward and backward bit
    for bit, with one sample's activations alive at a time.
    The batch loss, and the validation loss (whose inference forwards,
    `_run(x, keep=False)`, run one sample at a time too), come from the
    stacked per-sample outputs, so they equal the batched values bit for
    bit.  Returns the per-epoch history; on finishing, model parameters
    hold the lowest-validation-loss snapshot (final weights when no
    validation set is given).  Each training backward consumes its
    forward's layer caches and an inference forward keeps none, so on
    return no layer holds a cache.
    """
    if not train_set:
        raise ValueError("training set is empty")
    loss_fn = LOSSES[schedule.loss]
    frames, starts, targets = load_frames(model.config, [*train_set, *val_set], stats)
    n_train = len(train_set)
    val_rows = np.arange(n_train, len(starts))

    def batches(rows):
        """The rows of each batch, in the order of `rows`."""
        for lo in range(0, len(rows), schedule.batch_size):
            yield rows[lo:lo + schedule.batch_size]

    def labels(rows):
        return targets[rows][:, None, :, :, None]

    def inputs(row):
        return frames[:, starts[row]:starts[row] + WINDOW_FRAMES]

    params = model.params()
    opt = Adam(params, lr=schedule.lr)
    rng = np.random.default_rng(schedule.seed)
    history = []
    best_val = np.inf
    best_snapshot = None
    for epoch in range(1, schedule.epochs + 1):
        opt.lr = lr_for_epoch(schedule.lr, epoch, schedule.milestones, schedule.decay)
        total = 0.0
        for bi, chunk in enumerate(batches(rng.permutation(n_train))):
            count = len(chunk) * targets[0].size
            model.zero_grad()
            outs = []
            for row in chunk:
                out = model.forward(inputs(row))
                _, grad = loss_fn(out, labels([row]), count=count)
                model.backward(grad.astype(out.dtype, copy=False), input_grad=False)
                outs.append(out)
            loss = loss_fn(np.concatenate(outs), labels(chunk))[0]
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {bi}")
            opt.step()
            total += loss * len(chunk)
        train_loss = total / n_train
        val_loss = None
        if len(val_rows):
            val_loss = sum(
                loss_fn(np.concatenate([model._run(inputs(row), keep=False) for row in chunk]),
                        labels(chunk))[0] * len(chunk)
                for chunk in batches(val_rows)) / len(val_rows)
        history.append(EpochStats(epoch, train_loss, val_loss, opt.lr))
        if val_loss is not None and val_loss < best_val:
            best_val = val_loss
            best_snapshot = [p.value.copy() for p in params]
    if best_snapshot is not None:
        for p, v in zip(params, best_snapshot):
            p.value[...] = v
    return history


def history_to_csv(path, history) -> None:
    lines = ["epoch,train_loss,val_loss,lr"]
    for h in history:
        val = "" if h.val_loss is None else repr(h.val_loss)
        lines.append(f"{h.epoch},{h.train_loss!r},{val},{h.lr!r}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Checkpoints: RFP1 container with config and band stats riding along
# ---------------------------------------------------------------------------

_VARIANT_IDS = {"radar": 0.0, "multimodal": 1.0}
_STATS_ENTRIES = ("__band_min__", "__band_max__", "__band_count__")


def save_model(path, model: UNet3D, stats: BandStats | None = None) -> None:
    cfg = model.config
    entries = [("__config__", np.array([
        _VARIANT_IDS[cfg.variant], cfg.rows, cfg.cols, WINDOW_FRAMES,
        cfg.levels, cfg.base_channels, cfg.lead_minutes], dtype=np.float32))]
    if stats is not None:
        entries.append(("__band_min__", stats.mins))
        entries.append(("__band_max__", stats.maxs))
        entries.append(("__band_count__", np.array([stats.count], dtype=np.float32)))
    entries.extend((p.name, p.value) for p in model.params())
    save_arrays(path, entries)


def load_model(path) -> tuple[UNet3D, BandStats | None]:
    """The model and band stats of a checkpoint; malformed contents raise
    ValueError naming the file (`load_arrays` rejects repeated entry names).
    The time steps in `__config__` must be WINDOW_FRAMES, as every model's."""
    entries = dict(load_arrays(path))
    if "__config__" not in entries:
        raise ValueError(f"{path} is not a model checkpoint (no __config__ entry)")
    raw = entries.pop("__config__")
    if raw.shape != (7,):
        raise ValueError(f"{path}: __config__ has shape {raw.shape}, expected 7 values")
    # Rounding only finite values: a signaling NaN warns in `np.round`.
    if not (np.all(np.isfinite(raw)) and np.all(raw == np.round(raw))):
        raise ValueError(f"{path}: __config__ holds non-integral values {raw.tolist()}")
    variant = {v: k for k, v in _VARIANT_IDS.items()}.get(float(raw[0]))
    if variant is None:
        raise ValueError(f"{path}: unknown variant id {float(raw[0])}, "
                         f"expected one of {sorted(_VARIANT_IDS.values())}")
    if raw[3] != WINDOW_FRAMES:
        raise ValueError(f"{path}: __config__ holds {int(raw[3])} time steps, "
                         f"expected {WINDOW_FRAMES}")
    band_stats = [entries.pop(name) for name in _STATS_ENTRIES if name in entries]
    if len(band_stats) not in (0, len(_STATS_ENTRIES)):
        raise ValueError(f"{path}: band stats need all of {', '.join(_STATS_ENTRIES)}")
    try:
        cfg = ModelConfig(variant=variant, rows=int(raw[1]), cols=int(raw[2]),
                          levels=int(raw[4]), base_channels=int(raw[5]),
                          lead_minutes=int(raw[6]))
        stats = None
        if band_stats:
            mins, maxs, count = band_stats
            if count.shape != (1,) or not (np.isfinite(count[0]) and count[0] >= 1
                                           and count[0] == np.round(count[0])):
                raise ValueError(f"__band_count__ holds {count.tolist()}, "
                                 "expected one integral value >= 1")
            bands = cfg.in_channels - 1
            if mins.shape != (bands,) or maxs.shape != (bands,):
                raise ValueError(f"__band_min__ has shape {mins.shape} and __band_max__ "
                                 f"{maxs.shape}, expected {(bands,)} for a {cfg.variant} model")
            stats = BandStats(mins.astype(np.float64), maxs.astype(np.float64), int(count[0]))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    model = UNet3D(cfg, seed=0)
    for p in model.params():
        if p.name not in entries:
            raise ValueError(f"{path}: checkpoint lacks parameter block '{p.name}'")
        value = entries.pop(p.name)
        if value.shape != p.value.shape:
            raise ValueError(f"{path}: checkpoint block '{p.name}' has shape {value.shape}, "
                             f"expected {p.value.shape}")
        p.value[...] = value
    if entries:
        raise ValueError(f"{path}: checkpoint carries unknown entries: {sorted(entries)}")
    return model, stats
