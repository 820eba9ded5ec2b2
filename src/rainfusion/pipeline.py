"""Preprocessing: normalization, band statistics, resampling, dataset curation.

Radar rates are squashed with a log transform anchored at the 200 mm/h
ceiling; satellite bands are min-max scaled from training-split extrema and
upsampled to the radar grid with separable Lanczos-3, whose read-only
weight matrices are built once per (source, target) size and then shared.
Dataset curation drops frames with >200 mm/h outliers, thins no-rain frames,
and windows the surviving timestamps into 6-input/1-target sequences per
lead time; unreadable radar files are recorded by both filters, and a radar
file whose header time differs from its index time stops both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grids import (
    MISSING,
    RAIN_MAX,
    FormatError,
    IndexEntry,
    SatScene,
    grid_stats,
    minutes_to_iso,
    read_grid,
)

LOG_BASE = RAIN_MAX + 2.0  # 202: rate ceiling plus the +2 stability shift
_LN_BASE = math.log(LOG_BASE)

LEAD_MINUTES = (5, 15, 30)
# lead -> (window start, window end) offsets in minutes before the target
_LEAD_WINDOWS = {5: (30, 5), 15: (40, 15), 30: (55, 30)}
FRAME_STEP = 5  # minutes between consecutive frames
WINDOW_FRAMES = 6


@dataclass(frozen=True)
class LeadTime:
    """Forecast lead; fixes the 6-frame input window relative to target t."""

    minutes: int

    def __post_init__(self):
        if self.minutes not in _LEAD_WINDOWS:
            raise ValueError(f"lead must be one of {LEAD_MINUTES}, got {self.minutes}")

    @property
    def input_offsets(self) -> tuple[int, ...]:
        """Offsets of the 6 input frames, e.g. (-30, -25, ..., -5) for 5 min."""
        start, end = _LEAD_WINDOWS[self.minutes]
        return tuple(range(-start, -end + 1, FRAME_STEP))


@dataclass(frozen=True)
class SequenceSample:
    """Six input frames plus the target radar frame for one lead time."""

    input_timestamps: tuple[int, ...]
    radar_paths: tuple[str, ...]
    sat_paths: tuple[str, ...] | None
    target_timestamp: int
    target_path: str
    lead_minutes: int

    def __post_init__(self):
        ts = self.input_timestamps
        if len(ts) != WINDOW_FRAMES:
            raise ValueError(f"expected {WINDOW_FRAMES} input timestamps, got {len(ts)}")
        if any(b - a != FRAME_STEP for a, b in zip(ts, ts[1:])):
            raise ValueError(f"input timestamps must increase in {FRAME_STEP}-minute steps: {ts}")
        if len(self.radar_paths) != WINDOW_FRAMES:
            raise ValueError("one radar path per input timestamp required")
        if self.sat_paths is not None and len(self.sat_paths) != WINDOW_FRAMES:
            raise ValueError("one satellite path per input timestamp required")


# ---------------------------------------------------------------------------
# Radar normalization (log base 202) and its clamped inverse
# ---------------------------------------------------------------------------

def normalize_values(values: np.ndarray) -> np.ndarray:
    """log_202(x + 2) per cell; the -999 sentinel maps to exactly 0.

    Rates must not exceed 200 mm/h — run the outlier filter first.
    """
    v = np.asarray(values, dtype=np.float64)
    missing = v == MISSING
    if np.any(v[~missing] > RAIN_MAX):
        raise ValueError(f"rate above {RAIN_MAX} mm/h: outlier filtering must run first")
    if np.any(v[~missing] < 0):
        raise ValueError("negative rate other than the -999 sentinel")
    out = np.where(missing, 0.0, np.log(np.maximum(v, 0.0) + 2.0) / _LN_BASE)
    return out


def denormalize_values(values: np.ndarray) -> np.ndarray:
    """Inverse of `normalize_values` on [0, 1], clamped at 0 from below.

    The raw inverse of 0 is -1; clamping keeps outputs valid rain rates
    (missing cells are not reconstructed).
    """
    v = np.asarray(values, dtype=np.float64)
    if np.any(v < 0) or np.any(v > 1):
        raise ValueError("normalized values must lie in [0, 1]")
    return np.maximum(np.power(LOG_BASE, v) - 2.0, 0.0)


# ---------------------------------------------------------------------------
# Satellite band statistics and min-max normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandStats:
    """Per-band min/max fitted from the training split only."""

    mins: np.ndarray  # (bands,)
    maxs: np.ndarray  # (bands,)
    count: int  # scenes the stats were fitted from

    def __post_init__(self):
        mins = np.asarray(self.mins, dtype=np.float64)
        maxs = np.asarray(self.maxs, dtype=np.float64)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ValueError("mins/maxs must be matching 1-D arrays")
        if np.any(mins > maxs):
            raise ValueError("band min exceeds band max")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def bands(self) -> int:
        return self.mins.shape[0]

    def merge(self, other: "BandStats") -> "BandStats":
        if self.bands != other.bands:
            raise ValueError("cannot merge stats with different band counts")
        return BandStats(
            np.minimum(self.mins, other.mins),
            np.maximum(self.maxs, other.maxs),
            self.count + other.count,
        )


def fit_band_stats(scenes) -> BandStats:
    """Running per-band min/max over all cells of the given scenes."""
    stats = None
    for scene in scenes:
        v = scene.values
        s = BandStats(v.min(axis=(1, 2)), v.max(axis=(1, 2)), 1)
        stats = s if stats is None else stats.merge(s)
    if stats is None:
        raise ValueError("cannot fit band statistics from zero scenes")
    return stats


def normalize_satellite(scene: SatScene, stats: BandStats) -> SatScene:
    """(X - min) / (max - min) per band, clamped to [0, 1], in float64.

    Values beyond the training extrema clamp; a constant band maps to zeros.
    Each step runs in place on one float64 copy of the scene, with the same
    operations in the same order as the expression above.
    """
    if stats.bands != scene.values.shape[0]:
        raise ValueError(f"stats cover {stats.bands} bands, scene has {scene.values.shape[0]}")
    span = stats.maxs - stats.mins
    constant = span == 0
    v = scene.values.astype(np.float64)
    v -= stats.mins[:, None, None]
    v /= np.where(constant, 1.0, span)[:, None, None]
    np.clip(v, 0.0, 1.0, out=v)
    v[constant] = 0.0
    return SatScene(v, scene.timestamp, scene.band_names)


# ---------------------------------------------------------------------------
# Separable Lanczos-3 resampling
# ---------------------------------------------------------------------------

_LANCZOS_A = 3  # kernel half-width, in source samples


def _lanczos_kernel(t: np.ndarray) -> np.ndarray:
    a = _LANCZOS_A
    t = np.asarray(t, dtype=np.float64)
    pt = np.pi * t
    with np.errstate(invalid="ignore", divide="ignore"):
        k = a * np.sin(pt) * np.sin(pt / a) / (pt * pt)
    k = np.where(t == 0, 1.0, k)
    return np.where(np.abs(t) < a, k, 0.0)


@lru_cache(maxsize=32)
def lanczos_weights(src: int, dst: int) -> np.ndarray:
    """(dst, src) weight matrix: border-clamped taps, rows renormalized.

    Memoized per (src, dst): a repeat call returns the same read-only
    matrix.  Invalid sizes raise on every call, since exceptions are not
    cached.
    """
    if src < 2:
        raise ValueError(f"source axis must have >= 2 samples, got {src}")
    if dst < 1:
        raise ValueError(f"target axis must be positive, got {dst}")
    x = (np.arange(dst) + 0.5) * (src / dst) - 0.5  # source-space centers
    base = np.floor(x).astype(int)
    w = np.zeros((dst, src))
    for off in range(-_LANCZOS_A + 1, _LANCZOS_A + 1):
        k = base + off
        taps = _lanczos_kernel(x - k)
        np.add.at(w, (np.arange(dst), np.clip(k, 0, src - 1)), taps)
    w /= w.sum(axis=1, keepdims=True)
    w.flags.writeable = False
    return w


def resample_lanczos(bands: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Separable Lanczos resampling of a 2-D band, or of each band of a
    (..., rows, cols) stack, to (rows, cols) with one pair of (cached) weight
    matrices.

    Tuned for upsampling (the satellite-to-radar path); the kernel is not
    rescaled for decimation.
    """
    bands = np.asarray(bands, dtype=np.float64)
    if bands.ndim < 2 or bands.shape[-2] < 2 or bands.shape[-1] < 2:
        raise ValueError(f"source must be at least 2x2, got shape {bands.shape}")
    wr = lanczos_weights(bands.shape[-2], rows)
    wc = lanczos_weights(bands.shape[-1], cols)
    return wr @ bands @ wc.T


def resample_scene(scene: SatScene, rows: int, cols: int) -> SatScene:
    if (scene.rows, scene.cols) == (rows, cols):
        return scene
    out = resample_lanczos(scene.values, rows, cols)
    return SatScene(out, scene.timestamp, scene.band_names)


# ---------------------------------------------------------------------------
# Dataset curation: outlier filter, no-rain subsampling, sequence building
# ---------------------------------------------------------------------------

@dataclass
class OutlierReport:
    total: int
    removed: list[int] = field(default_factory=list)  # timestamps
    unreadable: list[str] = field(default_factory=list)  # paths


def _when(minutes: int) -> str:
    """A time as ISO and minutes; minutes beyond the calendar's range (a
    corrupt header) as minutes alone."""
    try:
        return f"{minutes_to_iso(minutes)} ({minutes} min)"
    except (OverflowError, OSError, ValueError):
        return f"{minutes} min"


def _readable(entries, reader, unreadable: list[str]):
    """(entry, radar grid) of each entry in timestamp order, read as it is
    reached; the path of a file that cannot be read goes to `unreadable`
    instead, never silently skipped.  A grid whose header time differs from
    its index time raises ValueError naming the file and both times."""
    for e in sorted(entries, key=lambda e: e.timestamp):
        try:
            grid = reader(e.radar_path)
        except (OSError, FormatError):
            unreadable.append(e.radar_path)
            continue
        if grid.timestamp != e.timestamp:
            raise ValueError(f"{e.radar_path}: header timestamp {_when(grid.timestamp)} "
                             f"differs from index timestamp {_when(e.timestamp)}")
        yield e, grid


def filter_outliers(entries, reader=read_grid) -> tuple[list[IndexEntry], OutlierReport]:
    """Drop frames whose max non-missing rate exceeds 200 mm/h.

    Unreadable radar files are recorded in the report (and excluded).
    """
    report = OutlierReport(total=len(entries))
    kept = []
    for e, grid in _readable(entries, reader, report.unreadable):
        if grid_stats(grid).max_rate > RAIN_MAX:
            report.removed.append(e.timestamp)
        else:
            kept.append(e)
    return kept, report


@dataclass
class SubsampleReport:
    no_rain_total: int
    no_rain_kept: int
    keep_fraction: float
    seed: int
    unreadable: list[str] = field(default_factory=list)  # paths


def subsample_no_rain(entries, keep_fraction: float, seed: int,
                      reader=read_grid) -> tuple[list[IndexEntry], SubsampleReport]:
    """Retain no-rain frames i.i.d. with probability keep_fraction.

    Frames with any rainy cell are always kept.  Draws happen in timestamp
    order from a generator seeded once, so the outcome is reproducible.
    Unreadable radar files are recorded in the report (and excluded); they
    take no draw.
    """
    if not 0.0 <= keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must lie in [0, 1], got {keep_fraction}")
    rng = np.random.default_rng(seed)
    report = SubsampleReport(0, 0, keep_fraction, seed)
    kept = []
    for e, grid in _readable(entries, reader, report.unreadable):
        if grid_stats(grid).rainy_fraction > 0:
            kept.append(e)
            continue
        report.no_rain_total += 1
        if rng.random() < keep_fraction:
            kept.append(e)
            report.no_rain_kept += 1
    return kept, report


def build_sequences(entries, lead: LeadTime, multimodal: bool = False) -> list[SequenceSample]:
    """Window an index into 6-input/1-target samples for one lead time.

    A sample is emitted for target time t iff the radar frame exists at t
    and at all six window offsets (plus the satellite scene at each input
    time when multimodal); anything else simply yields no sample.  Two
    entries with one timestamp are rejected, naming both radar paths, and a
    timestamp off the 5-minute lattice names its radar path.
    """
    by_ts = {}
    for e in entries:
        if e.timestamp % FRAME_STEP != 0:
            raise ValueError(f"timestamp {minutes_to_iso(e.timestamp)} ({e.timestamp}) of "
                             f"{e.radar_path} not on the {FRAME_STEP}-minute lattice")
        if e.timestamp in by_ts:
            raise ValueError(f"duplicate timestamp {minutes_to_iso(e.timestamp)} ({e.timestamp}): "
                             f"{by_ts[e.timestamp].radar_path} and {e.radar_path}")
        by_ts[e.timestamp] = e
    offsets = lead.input_offsets
    samples = []
    for t in sorted(by_ts):
        inputs = [by_ts.get(t + off) for off in offsets]
        if any(i is None for i in inputs):
            continue
        if multimodal and any(i.sat_path is None for i in inputs):
            continue
        samples.append(SequenceSample(
            input_timestamps=tuple(t + off for off in offsets),
            radar_paths=tuple(i.radar_path for i in inputs),
            sat_paths=tuple(i.sat_path for i in inputs) if multimodal else None,
            target_timestamp=t,
            target_path=by_ts[t].radar_path,
            lead_minutes=lead.minutes,
        ))
    return samples
