"""Synthetic advected-rain datasets with leading-indicator satellite bands.

Rain fields are sums of drifting anisotropic Gaussian cells on a wrapped
domain, each with its own lifecycle envelope (grow, peak, decay).  The 11
satellite bands at time t are band-specific affine transforms of the
smoothed rain field at t + delta, so satellite imagery "sees" convection
delta minutes before the radar does — the desk-scale stand-in for real
spaceborne observations of developing storms.  Everything is a pure
function of the seed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .grids import (SEVIRI_BANDS, IndexEntry, RainGrid, SatScene, iso_to_minutes, write_grid,
                    write_index, write_scene)

# Per-band affine transforms: positive scales mimic reflectance-like
# channels, negative scales with large offsets mimic brightness
# temperatures that drop over cold convective tops.
_BAND_SCALES = (1.0, 0.85, 1.2, -0.9, 0.65, -1.1, 0.75, 1.3, -0.8, 0.95, -1.05)
_BAND_OFFSETS = (0.0, 5.0, -3.0, 260.0, 2.0, 245.0, -1.0, 4.0, 255.0, -2.0, 250.0)

_SAT_BLUR_SIGMA = 1.5
_DEFAULT_START = iso_to_minutes("2018-06-01T00:00Z")


@dataclass(frozen=True)
class SynthConfig:
    rows: int = 64
    cols: int = 64
    frames: int = 120
    start_minutes: int = _DEFAULT_START
    cells: int = 12
    velocity: tuple[float, float] = (0.15, 0.1)  # (rows, cols) per frame
    amp_range: tuple[float, float] = (8.0, 60.0)  # peak cell intensity, mm/h
    growth_rate: float = 0.05  # lifecycle speed per frame; 0 freezes cells
    sat_lead_minutes: int = 15  # delta by which satellite anticipates rain
    sat_scale: int = 2  # satellite native grid is rows/scale x cols/scale
    noise_level: float = 0.0
    outlier_fraction: float = 0.0  # frames spiked with a >200 mm/h pixel
    seed: int = 0

    def __post_init__(self):
        if self.rows < 4 or self.cols < 4:
            raise ValueError("grid must be at least 4x4")
        if self.frames < 1 or self.cells < 1:
            raise ValueError("frames and cells must be >= 1")
        if self.sat_lead_minutes not in range(0, 31, 5):
            raise ValueError(f"satellite lead must be in {{0, 5, ..., 30}}, got {self.sat_lead_minutes}")
        lo, hi = self.amp_range
        if not (0 < lo <= hi <= 200.0):
            raise ValueError(f"amplitudes must lie in (0, 200], got {self.amp_range}")
        if self.sat_scale < 1 or self.rows % self.sat_scale or self.cols % self.sat_scale:
            raise ValueError("sat_scale must divide both grid dimensions")
        if self.growth_rate < 0 or self.noise_level < 0:
            raise ValueError("growth_rate and noise_level must be >= 0")
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ValueError("outlier_fraction must lie in [0, 1]")
        if self.start_minutes % 5:
            raise ValueError("start time must sit on the 5-minute lattice")


def _draw_cells(config: SynthConfig, rng: np.random.Generator, total_frames: int):
    cells = []
    vy, vx = config.velocity
    speed = math.hypot(vy, vx)
    for _ in range(config.cells):
        if config.growth_rate > 0:
            life = (2.0 / config.growth_rate) * rng.uniform(0.75, 1.25)
            birth = rng.uniform(-life, total_frames)
        else:
            life = math.inf
            birth = -math.inf
        sigma_major = rng.uniform(2.5, 5.5)
        cells.append({
            "row0": rng.uniform(0, config.rows),
            "col0": rng.uniform(0, config.cols),
            "vy": vy + rng.normal(0, 0.15 * speed),
            "vx": vx + rng.normal(0, 0.15 * speed),
            "amp": rng.uniform(*config.amp_range),
            "sigma_major": sigma_major,
            "sigma_minor": rng.uniform(1.5, sigma_major),
            "theta": rng.uniform(0, math.pi),
            "birth": birth,
            "life": life,
        })
    return cells


def _cell_field(cell, t, rows, cols, grid_r, grid_c):
    """One cell's rain on the grid; `grid_r` and `grid_c` are the 1-D row and
    col coordinates, so each displacement is wrapped once per row or col."""
    if cell["life"] is not math.inf:
        age = t - cell["birth"]
        if age < 0 or age > cell["life"]:
            return None
        envelope = math.sin(math.pi * age / cell["life"]) ** 2
    else:
        envelope = 1.0
    # nearest-image displacement on the wrapped domain
    dr = ((grid_r - (cell["row0"] + cell["vy"] * t) + rows / 2) % rows - rows / 2)[:, None]
    dc = (grid_c - (cell["col0"] + cell["vx"] * t) + cols / 2) % cols - cols / 2
    ct, st = math.cos(cell["theta"]), math.sin(cell["theta"])
    major = (ct * dr + st * dc) / cell["sigma_major"]
    minor = (-st * dr + ct * dc) / cell["sigma_minor"]
    return cell["amp"] * envelope * np.exp(-0.5 * (major**2 + minor**2))


def _blur_axis(a: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    pad = (len(kernel) - 1) // 2
    n = a.shape[axis]
    # Edge-pad by clipped indices, then view each cell's window along `axis`
    # as a trailing axis of the padded copy.
    ap = np.take(a, np.clip(np.arange(-pad, n + pad), 0, n - 1), axis=axis)
    windows = as_strided(ap, (*a.shape, len(kernel)), (*ap.strides, ap.strides[axis]),
                         writeable=False)
    return windows @ kernel


def _gaussian_blur(field: np.ndarray, sigma: float) -> np.ndarray:
    radius = int(3 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel /= kernel.sum()
    return _blur_axis(_blur_axis(field, kernel, 0), kernel, 1)


def _block_mean(field: np.ndarray, scale: int) -> np.ndarray:
    if scale == 1:
        return field
    r, c = field.shape
    return field.reshape(r // scale, scale, c // scale, scale).mean(axis=(1, 3))


def _rain_frames(config: SynthConfig):
    """Yield the rain frames of `rain_fields` one at a time, each a new
    (rows, cols) float64 array, so a caller that keeps only a few frames
    never holds the whole sequence."""
    rng = np.random.default_rng(config.seed)
    total = config.frames + config.sat_lead_minutes // 5
    cells = _draw_cells(config, rng, total)
    grid_r = np.arange(config.rows, dtype=np.float64)
    grid_c = np.arange(config.cols, dtype=np.float64)
    for t in range(total):
        acc = np.zeros((config.rows, config.cols))
        for cell in cells:
            contribution = _cell_field(cell, t, config.rows, config.cols, grid_r, grid_c)
            if contribution is not None:
                acc += contribution
        if config.noise_level > 0:
            acc += config.noise_level * rng.standard_normal(acc.shape)
        np.clip(acc, 0.0, config.amp_range[1], out=acc)
        yield acc


def rain_fields(config: SynthConfig) -> np.ndarray:
    """All rain frames needed, including the satellite lookahead tail."""
    return np.stack(list(_rain_frames(config)))


def generate_synthetic(config: SynthConfig, out_dir) -> list[IndexEntry]:
    """Write radar + satellite RFG1 files plus the dataset index.

    Satellite scenes live on the coarse native grid (rows/sat_scale); the
    preprocessing pipeline upsamples them back with Lanczos.  Returns the
    written index entries (paths relative to out_dir).
    """
    out = Path(out_dir)
    (out / "radar").mkdir(parents=True, exist_ok=True)
    (out / "sat").mkdir(parents=True, exist_ok=True)
    # Frame t's satellite scene shows the rain at t + lookahead: keep just
    # the frames from t to t + lookahead, not the whole day.
    lookahead = config.sat_lead_minutes // 5
    frames = _rain_frames(config)
    window = deque(islice(frames, lookahead), maxlen=lookahead + 1)
    rng = np.random.default_rng(config.seed + 1)  # satellite noise stream
    sat_rows = config.rows // config.sat_scale
    entries = []
    spiked = set()
    if config.outlier_fraction > 0:
        n_outliers = min(config.frames, math.ceil(config.outlier_fraction * config.frames))
        spiked = set(rng.choice(config.frames, size=n_outliers, replace=False).tolist())
    for t in range(config.frames):
        window.append(next(frames))  # frames t .. t + lookahead
        minutes = config.start_minutes + 5 * t
        radar_rel = f"radar/{minutes}.rfg"
        sat_rel = f"sat/{minutes}.rfg"
        radar = window[0].astype(np.float32)
        if t in spiked:
            radar[0, 0] = 250.0
        write_grid(out / radar_rel, RainGrid(radar, minutes))
        base = _block_mean(_gaussian_blur(window[-1], _SAT_BLUR_SIGMA), config.sat_scale)
        bands = np.empty((len(SEVIRI_BANDS), sat_rows, config.cols // config.sat_scale))
        for b in range(len(SEVIRI_BANDS)):
            bands[b] = _BAND_SCALES[b] * base + _BAND_OFFSETS[b]
            if config.noise_level > 0:
                bands[b] += 0.5 * config.noise_level * rng.standard_normal(base.shape)
        write_scene(out / sat_rel, SatScene(bands.astype(np.float32), minutes))
        entries.append(IndexEntry(minutes, radar_rel, sat_rel))
    write_index(out / "index.tsv", entries)
    return entries
