"""Radar-only and multimodal 3D U-Net forecasters, training and prediction.

Both variants share one layout: (levels - 1) encoder stages of two convs
with ReLU (the first conv doubling the width), max pooling between stages,
a two-conv bottleneck, a mirrored decoder whose upsampled features are
concatenated with the matching encoder skip, and a head that collapses the
temporal axis with a full-extent "valid" conv to 2 channels followed by a
1x1x1 conv to the single output frame.  The radar variant pools (2, 2, 1)
so time survives the encoder; the multimodal variant pools (2, 2, 2) with
ceiling semantics and the decoder restores the recorded sizes exactly.
Body convs keep a temporal extent of 1; all temporal mixing happens in the
pooling path and the head.  Each block is a list of layers, run in order
forward and in reverse backward.  Activations have the layers' (b, t, h, w, c)
shape over channels-first memory (see `rainfusion.nn`), so the decoder
concatenates on the channel axis of that memory and splits gradients there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .grids import RainGrid, read_grid, read_scene
from .nn import Adam, Conv3d, MaxPool3d, ReLU, Upsample3d, ensure_array5, lr_for_epoch
from .nn.checkpoint import load_arrays, save_arrays
from .nn.losses import LOSSES
from .pipeline import (
    BandStats,
    SequenceSample,
    denormalize_values,
    normalize_satellite,
    normalize_values,
    resample_scene,
)

VARIANTS = ("radar", "multimodal")
_POOL_WINDOWS = {"radar": (2, 2, 1), "multimodal": (2, 2, 2)}
_IN_CHANNELS = {"radar": 1, "multimodal": 12}


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "radar"
    rows: int = 288
    cols: int = 288
    time_steps: int = 6
    levels: int = 5
    base_channels: int = 64
    lead_minutes: int = 5

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.levels < 2:
            raise ValueError(f"need at least 2 levels, got {self.levels}")
        if self.base_channels < 1 or self.time_steps < 1:
            raise ValueError("base_channels and time_steps must be >= 1")
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got {self.rows}x{self.cols}")
        if self.lead_minutes not in (5, 15, 30):
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
    """The assembled network, He-uniform initialized from `seed`."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        rng = np.random.default_rng(seed)
        L = config.levels
        base = config.base_channels

        def conv(cin, cout, name, kernel=(1, 3, 3), temporal_pad="same"):
            return Conv3d(cin, cout, kernel, temporal_pad=temporal_pad,
                          name=name, rng=rng, dtype=dtype)

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
        self.ups = [Upsample3d(config.pool_window) for _ in range(L - 1)]
        self.dec = []
        c = bott
        for i in reversed(range(L - 1)):
            skip = enc_channels[i]
            self.dec.append([conv(c + skip, skip, f"dec{i + 1}a"), ReLU(),
                             conv(skip, skip, f"dec{i + 1}b"), ReLU()])
            c = skip
        self.head = [conv(c, 2, "head_a", kernel=(config.time_steps, 3, 3),
                          temporal_pad="valid"), ReLU(),
                     conv(2, 1, "head_b", kernel=(1, 1, 1))]

    # -- structure ---------------------------------------------------------

    def conv_layers(self):
        return [layer for block in (*self.enc, self.bott, *self.dec, self.head)
                for layer in block if isinstance(layer, Conv3d)]

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
        h = ensure_array5(x, "model input")
        cfg = self.config
        expect = (cfg.time_steps, cfg.rows, cfg.cols, cfg.in_channels)
        if h.shape[1:] != expect:
            raise ValueError(f"input shape {h.shape[1:]} does not match config {expect}")
        skips = []
        for block, pool in zip(self.enc, self.pools):
            h = _forward(block, h)
            skips.append(h)
            h = pool.forward(h)
        h = _forward(self.bott, h)
        for block, up, skip in zip(self.dec, self.ups, reversed(skips)):
            h = up.forward(h, target_dims=skip.shape[1:4])
            h = np.concatenate([h.transpose(0, 4, 1, 2, 3), skip.transpose(0, 4, 1, 2, 3)],
                               axis=1).transpose(0, 2, 3, 4, 1)
            h = _forward(block, h)
        return _forward(self.head, h)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = _backward(self.head, grad_out)
        skip_grads = []  # shallowest stage first
        for block, up in zip(reversed(self.dec), reversed(self.ups)):
            g = _backward(block, g)
            # the block ran on [upsampled | skip], and the skip is as wide as its output
            split = g.shape[-1] - block[0].out_channels
            skip_grads.append(g[..., split:])
            g = up.backward(g[..., :split])
        g = _backward(self.bott, g)
        for block, pool, g_skip in zip(reversed(self.enc), reversed(self.pools),
                                       reversed(skip_grads)):
            g = _backward(block, pool.backward(g) + g_skip)
        return g


def _forward(block, h):
    for layer in block:
        h = layer.forward(h)
    return h


def _backward(block, g):
    for layer in reversed(block):
        g = layer.backward(g)
    return g


def param_count(model: UNet3D) -> int:
    return sum(p.value.size for p in model.params())


# ---------------------------------------------------------------------------
# Sample loading and prediction
# ---------------------------------------------------------------------------

def load_frames(config: ModelConfig, samples,
                stats: BandStats | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(frames, windows, targets) of `samples`, each distinct file read once.

    frames: (n, rows, cols, channels) float32, one per distinct input frame;
    windows[i]: the six frame rows of sample i; targets: (samples, rows, cols)
    float32.  Radar is log-normalized; multimodal frames add the 11 satellite
    bands, Lanczos-resampled to the radar grid and min-max normalized.  Each
    frame is written straight into its row of `frames`: radar in channel 0,
    the bands transposed into channels 1-11, cast to float32 on assignment.
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

    def fill(out, radar_path, sat_path):
        out[..., 0] = radar(radar_path)
        if multimodal:
            scene = resample_scene(read_scene(sat_path), config.rows, config.cols)
            out[..., 1:] = normalize_satellite(scene, stats).values.transpose(1, 2, 0)

    keys = [tuple(zip(s.radar_paths, s.sat_paths if multimodal else (None,) * len(s.radar_paths)))
            for s in samples]  # per sample, the (radar, satellite) path of each input frame
    rows = {key: row for row, key in enumerate(dict.fromkeys(k for window in keys for k in window))}
    frames = np.empty((len(rows), config.rows, config.cols, config.in_channels), np.float32)
    for key, row in rows.items():
        fill(frames[row], *key)
    windows = np.array([[rows[key] for key in window] for window in keys])
    targets = np.stack([radar(s.target_path) for s in samples]).astype(np.float32)
    return frames, windows, targets


def load_sample(config: ModelConfig, sample: SequenceSample,
                stats: BandStats | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(input stack (time, rows, cols, channels), normalized target (rows, cols)):
    the one-sample view of `load_frames`."""
    frames, windows, targets = load_frames(config, [sample], stats)
    return frames[windows[0]], targets[0]


def predict_grid(model: UNet3D, sample: SequenceSample,
                 stats: BandStats | None = None) -> RainGrid:
    """Run the network on one sample and return rain rates in mm/h.

    The raw output is clamped to normalized [0, 1] before inversion, so the
    result always lies in [0, 200] and never contains the missing sentinel.
    """
    x, _ = load_sample(model.config, sample, stats)
    out = model.forward(x[None])
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

    Each distinct frame is loaded once (`load_frames`) and a batch is a row
    gather of them; loss is computed in normalized space.  Returns the
    per-epoch history; on finishing, model parameters hold the lowest-
    validation-loss snapshot (final weights when no validation set is given).
    """
    if not train_set:
        raise ValueError("training set is empty")
    loss_fn = LOSSES[schedule.loss]
    frames, windows, targets = load_frames(model.config, [*train_set, *val_set], stats)
    n_train = len(train_set)
    val_rows = np.arange(n_train, len(windows))

    def batches(rows):
        """(rows, inputs, targets) of each batch, in the order of `rows`."""
        for lo in range(0, len(rows), schedule.batch_size):
            chunk = rows[lo:lo + schedule.batch_size]
            yield chunk, frames[windows[chunk]], targets[chunk][:, None, :, :, None]

    params = model.params()
    opt = Adam(params, lr=schedule.lr)
    rng = np.random.default_rng(schedule.seed)
    history = []
    best_val = np.inf
    best_snapshot = None
    for epoch in range(1, schedule.epochs + 1):
        opt.lr = lr_for_epoch(schedule.lr, epoch, schedule.milestones, schedule.decay)
        total = 0.0
        for bi, (chunk, x, y) in enumerate(batches(rng.permutation(n_train))):
            out = model.forward(x)
            loss, grad = loss_fn(out, y)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {bi}")
            model.zero_grad()
            model.backward(grad.astype(out.dtype, copy=False))
            opt.step()
            total += loss * len(chunk)
        train_loss = total / n_train
        val_loss = None
        if len(val_rows):
            val_loss = sum(loss_fn(model.forward(x), y)[0] * len(chunk)
                           for chunk, x, y in batches(val_rows)) / len(val_rows)
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
        _VARIANT_IDS[cfg.variant], cfg.rows, cfg.cols, cfg.time_steps,
        cfg.levels, cfg.base_channels, cfg.lead_minutes], dtype=np.float32))]
    if stats is not None:
        entries.append(("__band_min__", stats.mins))
        entries.append(("__band_max__", stats.maxs))
        entries.append(("__band_count__", np.array([stats.count], dtype=np.float32)))
    entries.extend((p.name, p.value) for p in model.params())
    save_arrays(path, entries)


def load_model(path) -> tuple[UNet3D, BandStats | None]:
    """The model and band stats of a checkpoint; malformed contents raise
    ValueError naming the file (`load_arrays` rejects repeated entry names)."""
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
    band_stats = [entries.pop(name) for name in _STATS_ENTRIES if name in entries]
    if len(band_stats) not in (0, len(_STATS_ENTRIES)):
        raise ValueError(f"{path}: band stats need all of {', '.join(_STATS_ENTRIES)}")
    try:
        cfg = ModelConfig(variant=variant, rows=int(raw[1]), cols=int(raw[2]),
                          time_steps=int(raw[3]), levels=int(raw[4]),
                          base_channels=int(raw[5]), lead_minutes=int(raw[6]))
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
