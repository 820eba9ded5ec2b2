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
pooling path and the head.
"""

from __future__ import annotations

from dataclasses import dataclass
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
            self.enc.append((conv(c, out, f"enc{i + 1}a"), ReLU(),
                             conv(out, out, f"enc{i + 1}b"), ReLU()))
            enc_channels.append(out)
            c = out
        self.pools = [MaxPool3d(config.pool_window) for _ in range(L - 1)]
        bott = base * 2 ** (L - 1)
        self.bott = (conv(c, bott, "bottleneck_a"), ReLU(),
                     conv(bott, bott, "bottleneck_b"), ReLU())
        self.ups = [Upsample3d(config.pool_window) for _ in range(L - 1)]
        self.dec = []
        c = bott
        for j, i in enumerate(reversed(range(L - 1))):
            skip = enc_channels[i]
            self.dec.append((conv(c + skip, skip, f"dec{i + 1}a"), ReLU(),
                             conv(skip, skip, f"dec{i + 1}b"), ReLU()))
            c = skip
        self.head = (conv(c, 2, "head_a", kernel=(config.time_steps, 3, 3),
                          temporal_pad="valid"), ReLU(),
                     conv(2, 1, "head_b", kernel=(1, 1, 1)))
        self._splits = []

    # -- structure ---------------------------------------------------------

    def conv_layers(self):
        out = []
        for a, _, b, _ in self.enc:
            out += [a, b]
        out += [self.bott[0], self.bott[2]]
        for a, _, b, _ in self.dec:
            out += [a, b]
        out += [self.head[0], self.head[2]]
        return out

    @property
    def conv_count(self) -> int:
        return len(self.conv_layers())

    @property
    def pool_count(self) -> int:
        return len(self.pools)

    @property
    def upsample_count(self) -> int:
        return len(self.ups)

    @property
    def skip_count(self) -> int:
        return len(self.dec)

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
        x = ensure_array5(x, "model input")
        cfg = self.config
        expect = (cfg.time_steps, cfg.rows, cfg.cols, cfg.in_channels)
        if x.shape[1:] != expect:
            raise ValueError(f"input shape {x.shape[1:]} does not match config {expect}")
        h = x
        skips = []
        for (a, ra, b, rb), pool in zip(self.enc, self.pools):
            h = rb.forward(b.forward(ra.forward(a.forward(h))))
            skips.append(h)
            h = pool.forward(h)
        a, ra, b, rb = self.bott
        h = rb.forward(b.forward(ra.forward(a.forward(h))))
        self._splits = []
        for j, (a, ra, b, rb) in enumerate(self.dec):
            skip = skips[len(skips) - 1 - j]
            h = self.ups[j].forward(h, target_dims=skip.shape[1:4])
            self._splits.append(h.shape[-1])
            h = np.concatenate([h, skip], axis=-1)
            h = rb.forward(b.forward(ra.forward(a.forward(h))))
        a, ra, b = self.head
        return b.forward(ra.forward(a.forward(h)))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        a, ra, b = self.head
        g = a.backward(ra.backward(b.backward(grad_out)))
        skip_grads = [None] * len(self.dec)
        for j in reversed(range(len(self.dec))):
            da, dra, db, drb = self.dec[j]
            g = da.backward(dra.backward(db.backward(drb.backward(g))))
            split = self._splits[j]
            g_up, g_skip = g[..., :split], g[..., split:]
            skip_grads[len(self.dec) - 1 - j] = g_skip
            g = self.ups[j].backward(g_up)
        ba, bra, bb, brb = self.bott
        g = ba.backward(bra.backward(bb.backward(brb.backward(g))))
        for i in reversed(range(len(self.enc))):
            g = self.pools[i].backward(g)
            g = g + skip_grads[i]
            ea, era, eb, erb = self.enc[i]
            g = ea.backward(era.backward(eb.backward(erb.backward(g))))
        return g


def param_count(model: UNet3D) -> int:
    return sum(p.value.size for p in model.params())


# ---------------------------------------------------------------------------
# Sample loading and prediction
# ---------------------------------------------------------------------------

def load_sample(config: ModelConfig, sample: SequenceSample,
                stats: BandStats | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(input stack (time, rows, cols, channels), normalized target (rows, cols)).

    Radar frames are log-normalized; in the multimodal variant each frame
    additionally carries the 11 satellite bands, Lanczos-resampled to the
    radar grid and min-max normalized with the supplied training stats.
    """
    multimodal = config.variant == "multimodal"
    if multimodal and stats is None:
        raise ValueError("multimodal sample loading requires fitted band stats")
    if multimodal and sample.sat_paths is None:
        raise ValueError("sample carries no satellite paths")
    frames = []
    for i in range(len(sample.input_timestamps)):
        radar = read_grid(sample.radar_paths[i])
        if (radar.rows, radar.cols) != (config.rows, config.cols):
            raise ValueError(
                f"radar frame is {radar.rows}x{radar.cols}, config wants {config.rows}x{config.cols}")
        channels = [normalize_values(radar.values)]
        if multimodal:
            scene = resample_scene(read_scene(sample.sat_paths[i]), config.rows, config.cols)
            channels.extend(normalize_satellite(scene, stats).values)
        frames.append(np.stack(channels, axis=-1))
    x = np.stack(frames).astype(np.float32)
    y = normalize_values(read_grid(sample.target_path).values).astype(np.float32)
    return x, y


def predict_grid(model: UNet3D, sample: SequenceSample,
                 stats: BandStats | None = None) -> RainGrid:
    """Run the network on one sample and return rain rates in mm/h.

    The raw output is clamped to normalized [0, 1] before inversion, so the
    result always lies in [0, 200] and never contains the missing sentinel.
    """
    x, _ = load_sample(model.config, sample, stats)
    out = model.forward(x[None].astype(np.float32))
    norm = np.clip(out[0, 0, :, :, 0].astype(np.float64), 0.0, 1.0)
    return RainGrid(denormalize_values(norm), sample.target_timestamp)


def persistence_forecast(sample: SequenceSample) -> RainGrid:
    """Eulerian persistence: the most recent input frame, values unchanged."""
    latest = read_grid(sample.radar_paths[-1])
    return RainGrid(latest.values, sample.target_timestamp)


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


def _mean_loss(model, data, loss_fn, batch_size):
    total = 0.0
    count = 0
    for lo in range(0, len(data), batch_size):
        chunk = data[lo:lo + batch_size]
        x = np.stack([c[0] for c in chunk])
        y = np.stack([c[1] for c in chunk])[:, None, :, :, None]
        loss, _ = loss_fn(model.forward(x), y)
        total += loss * len(chunk)
        count += len(chunk)
    return total / count


def train(model: UNet3D, train_set, val_set, schedule: TrainSchedule,
          stats: BandStats | None = None, log=None) -> list[EpochStats]:
    """Seeded epoch loop with milestone lr decay; keeps the best-val weights.

    Samples are loaded and normalized once up front.  Loss is computed in
    normalized space.  Returns the per-epoch history; on finishing, model
    parameters hold the lowest-validation-loss snapshot (final weights when
    no validation set is given).
    """
    if not train_set:
        raise ValueError("training set is empty")
    loss_fn = LOSSES[schedule.loss]
    data = [load_sample(model.config, s, stats) for s in train_set]
    val_data = [load_sample(model.config, s, stats) for s in val_set]
    params = model.params()
    opt = Adam(params, lr=schedule.lr)
    rng = np.random.default_rng(schedule.seed)
    history = []
    best_val = np.inf
    best_snapshot = None
    for epoch in range(1, schedule.epochs + 1):
        opt.lr = lr_for_epoch(schedule.lr, epoch, schedule.milestones, schedule.decay)
        order = rng.permutation(len(data))
        total = 0.0
        for bi, lo in enumerate(range(0, len(order), schedule.batch_size)):
            chunk = order[lo:lo + schedule.batch_size]
            x = np.stack([data[i][0] for i in chunk])
            y = np.stack([data[i][1] for i in chunk])[:, None, :, :, None]
            out = model.forward(x)
            loss, grad = loss_fn(out, y)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {bi}")
            model.zero_grad()
            model.backward(grad.astype(out.dtype, copy=False))
            opt.step()
            total += loss * len(chunk)
        train_loss = total / len(order)
        val_loss = _mean_loss(model, val_data, loss_fn, schedule.batch_size) if val_data else None
        history.append(EpochStats(epoch, train_loss, val_loss, opt.lr))
        if log is not None:
            log(history[-1])
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
    entries = dict(load_arrays(path))
    if "__config__" not in entries:
        raise ValueError(f"{path} is not a model checkpoint (no __config__ entry)")
    raw = entries.pop("__config__")
    variant = {v: k for k, v in _VARIANT_IDS.items()}.get(float(raw[0]))
    if variant is None:
        raise ValueError(f"{path}: unknown variant id {float(raw[0])}, "
                         f"expected one of {sorted(_VARIANT_IDS.values())}")
    cfg = ModelConfig(variant=variant, rows=int(raw[1]), cols=int(raw[2]),
                      time_steps=int(raw[3]), levels=int(raw[4]),
                      base_channels=int(raw[5]), lead_minutes=int(raw[6]))
    stats = None
    if "__band_min__" in entries:
        stats = BandStats(entries.pop("__band_min__").astype(np.float64),
                          entries.pop("__band_max__").astype(np.float64),
                          int(entries.pop("__band_count__")[0]))
    model = UNet3D(cfg, seed=0)
    for p in model.params():
        if p.name not in entries:
            raise ValueError(f"checkpoint lacks parameter block '{p.name}'")
        value = entries.pop(p.name)
        if value.shape != p.value.shape:
            raise ValueError(
                f"checkpoint block '{p.name}' has shape {value.shape}, expected {p.value.shape}")
        p.value[...] = value
    if entries:
        raise ValueError(f"checkpoint carries unknown entries: {sorted(entries)}")
    return model, stats
