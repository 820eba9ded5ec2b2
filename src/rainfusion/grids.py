"""Gridded rainfall / satellite domain types and the RFG1 on-disk format.

Rain rates are mm/h on a row-major 2D grid; cells with no valid measurement
carry the sentinel value -999.  Satellite scenes bundle 11 co-registered
spectral bands.  Both are stored in the binary "RFG1" container defined at
the bottom of this module, and datasets are indexed by a plain-text TSV of
(timestamp, radar file, satellite file or "-") records.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import IntEnum
from pathlib import Path

import numpy as np

MISSING = -999.0
RAIN_MAX = 200.0

# SEVIRI rapid-scan channel names, in storage order (HRV excluded).
SEVIRI_BANDS = (
    "VIS006", "VIS008", "IR_016", "IR_039", "WV_062", "WV_073",
    "IR_087", "IR_097", "IR_108", "IR_120", "IR_134",
)


class FormatError(Exception):
    """Malformed RFG1/RFP1 payload; names the file, carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class PrecipCategory(IntEnum):
    """Rainfall intensity classes; integer order matches intensity order."""

    MISSING = -1
    NO_RAIN = 0
    LIGHT = 1
    MODERATE = 2
    HEAVY = 3
    VIOLENT = 4

    @property
    def bounds(self) -> tuple[float, float]:
        """Half-open [q1, q2) mm/h bounds of a rain category."""
        try:
            return _CATEGORY_BOUNDS[self]
        except KeyError:
            raise ValueError(f"{self.name} carries no intensity bounds") from None


_CATEGORY_BOUNDS = {
    PrecipCategory.LIGHT: (0.0, 2.5),
    PrecipCategory.MODERATE: (2.5, 7.5),
    PrecipCategory.HEAVY: (7.5, 50.0),
    PrecipCategory.VIOLENT: (50.0, 200.0),
}

RAIN_CATEGORIES = (
    PrecipCategory.LIGHT,
    PrecipCategory.MODERATE,
    PrecipCategory.HEAVY,
    PrecipCategory.VIOLENT,
)


def categorize(rate: float) -> PrecipCategory:
    """Map one rain rate (mm/h) to its intensity category.

    Exactly 0 is NO_RAIN, category bounds are half-open on the right, and
    VIOLENT is closed at the top (200 and anything above it map to VIOLENT,
    so the function is total on {-999} and [0, inf)).
    """
    if rate == MISSING:
        return PrecipCategory.MISSING
    if rate < 0:
        raise ValueError(f"invalid rain rate {rate}: negative and not the -999 sentinel")
    if rate == 0:
        return PrecipCategory.NO_RAIN
    if rate < 2.5:
        return PrecipCategory.LIGHT
    if rate < 7.5:
        return PrecipCategory.MODERATE
    if rate < 50.0:
        return PrecipCategory.HEAVY
    return PrecipCategory.VIOLENT


def categorize_values(values: np.ndarray) -> np.ndarray:
    """Vectorized `categorize`; returns PrecipCategory integer codes.

    A rain cell's code is the number of the edges 0 (exclusive), 2.5, 7.5
    and 50 mm/h that it reaches, one comparison per edge.
    """
    v = np.asarray(values)
    missing = v == MISSING
    negative = (v < 0) & ~missing
    if negative.any():
        raise ValueError(f"invalid rain rate {v[negative][0]}: negative and not the -999 sentinel")
    out = np.array(v > 0, dtype=np.int8)
    for edge in (2.5, 7.5, 50.0):
        out += v >= edge
    out[missing] = int(PrecipCategory.MISSING)
    return out


# The unsigned integer type of each float type's width, and +inf read as it.
# The sign is the top bit, so the finite values >= +0.0 are exactly those
# whose bits read below +inf's.
_UNSIGNED = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}
_INF_BITS = {f: np.array(np.inf, f).view(u)[()] for f, u in _UNSIGNED.items()}


def _as_grid_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float32)
    arr = arr.copy()
    # One max of the bits accepts the common grid: finite, no sentinel, no
    # negatives.  NaN, infinities, -999, negatives and -0.0 fail it (as do
    # other float types) and get the full checks.
    unsigned = _UNSIGNED.get(arr.dtype)
    if arr.size and unsigned is not None and arr.view(unsigned).max() < _INF_BITS[arr.dtype]:
        arr.flags.writeable = False
        return arr
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    if np.any((arr < 0) & (arr != MISSING)):
        raise ValueError(f"{name} contains negative values other than the -999 sentinel")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RainGrid:
    """One radar frame: rain rates in mm/h, -999 marking missing cells."""

    values: np.ndarray
    timestamp: int = 0  # minutes since the Unix epoch

    def __post_init__(self):
        arr = _as_grid_array(self.values, "RainGrid")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"RainGrid needs a rows x cols array, got shape {arr.shape}")
        object.__setattr__(self, "values", arr)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SatScene:
    """One satellite timestamp: 11 co-registered bands, band-major, in
    `SEVIRI_BANDS` order.  Checked once here, where a scene is built or
    read; the resampling and normalization steps work on plain arrays."""

    values: np.ndarray  # (11, rows, cols)
    timestamp: int = 0

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        arr = arr.copy()
        if not np.all(np.isfinite(arr)):
            raise ValueError("SatScene contains non-finite values")
        if arr.ndim != 3:
            raise ValueError(f"SatScene needs a bands x rows x cols array, got shape {arr.shape}")
        bands = len(SEVIRI_BANDS)
        if arr.shape[0] != bands:
            raise ValueError(f"SatScene needs exactly {bands} bands, got {arr.shape[0]}")
        if arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ValueError(f"SatScene has degenerate dimensions {arr.shape[1:]}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def rows(self) -> int:
        return self.values.shape[1]

    @property
    def cols(self) -> int:
        return self.values.shape[2]


# ---------------------------------------------------------------------------
# RFG1 binary container
#
# offset 0   magic "RFG1"
# offset 4   version (1)
# offset 5   dtype   (0 = IEEE-754 float32 little-endian)
# offset 6   band count, u16 LE
# offset 8   rows, u32 LE
# offset 12  cols, u32 LE
# offset 16  timestamp minutes, i64 LE
# offset 24  bands * rows * cols float32 values, row-major, band-major
# ---------------------------------------------------------------------------

_RFG_MAGIC = b"RFG1"
_RFG_HEADER = struct.Struct("<4sBBHIIq")
_MAX_CELLS = 2**32  # header dims beyond this are treated as corrupt


def _write_rfg(path, values: np.ndarray, timestamp: int) -> None:
    data = np.ascontiguousarray(values, dtype="<f4")
    bands, rows, cols = data.shape
    header = _RFG_HEADER.pack(_RFG_MAGIC, 1, 0, bands, rows, cols, timestamp)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def _read_rfg(path) -> tuple[np.ndarray, int]:
    def error(message, offset):
        return FormatError(f"{path}: {message}", offset)
    with open(path, "rb", buffering=0) as fh:
        blob = fh.readall()
    if len(blob) < 4 or blob[:4] != _RFG_MAGIC:
        raise error(f"bad magic {blob[:4]!r}, expected {_RFG_MAGIC!r}", 0)
    if len(blob) < _RFG_HEADER.size:
        raise error(f"truncated header: {len(blob)} bytes", len(blob))
    _, version, dtype, bands, rows, cols, timestamp = _RFG_HEADER.unpack_from(blob)
    if version != 1:
        raise error(f"unsupported version {version}", 4)
    if dtype != 0:
        raise error(f"unsupported dtype code {dtype}", 5)
    if bands < 1:
        raise error("band count must be >= 1", 6)
    if rows < 1:
        raise error("rows must be >= 1", 8)
    if cols < 1:
        raise error("cols must be >= 1", 12)
    cells = bands * rows * cols
    if cells > _MAX_CELLS:
        raise error(f"dimension overflow: {bands}x{rows}x{cols} cells", 8)
    expected = _RFG_HEADER.size + 4 * cells
    if len(blob) < expected:
        raise error(f"truncated payload: expected {expected} bytes, found {len(blob)}", len(blob))
    if len(blob) > expected:
        raise error(f"trailing bytes after payload: expected {expected}, found {len(blob)}", expected)
    # A read-only view of the bytes: `RainGrid` and `SatScene` copy it.
    flat = np.frombuffer(blob, dtype="<f4", count=cells, offset=_RFG_HEADER.size)
    return flat.reshape(bands, rows, cols), timestamp


def write_grid(path, grid: RainGrid) -> None:
    _write_rfg(path, grid.values[np.newaxis, :, :], grid.timestamp)


def read_grid(path) -> RainGrid:
    """A radar frame; values the grid rejects raise ValueError naming the file."""
    values, timestamp = _read_rfg(path)
    if values.shape[0] != 1:
        raise FormatError(f"{path}: expected a 1-band grid, found {values.shape[0]} bands", 6)
    try:
        return RainGrid(values[0], timestamp)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def write_scene(path, scene: SatScene) -> None:
    _write_rfg(path, scene.values, scene.timestamp)


def read_scene(path) -> SatScene:
    """A satellite scene; values the scene rejects raise ValueError naming the file."""
    values, timestamp = _read_rfg(path)
    bands = len(SEVIRI_BANDS)
    if values.shape[0] != bands:
        raise FormatError(
            f"{path}: expected an {bands}-band scene, found {values.shape[0]} bands", 6)
    try:
        return SatScene(values, timestamp)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# Dataset index: one record per line, tab-separated
#   timestamp_iso8601 <TAB> radar_path <TAB> sat_path_or_dash
# ---------------------------------------------------------------------------

_TS_FORMAT = "%Y-%m-%dT%H:%MZ"


def minutes_to_iso(minutes: int) -> str:
    dt = datetime.fromtimestamp(minutes * 60, tz=timezone.utc)
    return dt.strftime(_TS_FORMAT)


def iso_to_minutes(text: str) -> int:
    dt = datetime.strptime(text, _TS_FORMAT).replace(tzinfo=timezone.utc)
    return int(dt.timestamp()) // 60


@dataclass(frozen=True)
class IndexEntry:
    """One dataset record: a radar frame and its optional satellite scene."""

    timestamp: int  # minutes since the Unix epoch
    radar_path: str
    sat_path: str | None = None


def write_index(path, entries) -> None:
    lines = []
    for e in entries:
        sat = e.sat_path if e.sat_path is not None else "-"
        lines.append(f"{minutes_to_iso(e.timestamp)}\t{e.radar_path}\t{sat}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_index(path) -> list[IndexEntry]:
    """Parse a dataset index; relative paths resolve against the index dir.

    The index is UTF-8; bytes that do not decode raise ValueError naming
    the file and the byte offset.
    """
    base = Path(path).parent
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 at byte offset {err.start}") from None
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        ts, radar, sat = parts
        try:
            minutes = iso_to_minutes(ts)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: malformed timestamp {ts!r}, expected {_TS_FORMAT}") from None
        if not radar.strip():
            raise ValueError(f"{path}:{lineno}: empty radar path")
        radar = str(base / radar) if not Path(radar).is_absolute() else radar
        if sat != "-" and not Path(sat).is_absolute():
            sat = str(base / sat)
        entries.append(IndexEntry(minutes, radar, None if sat == "-" else sat))
    return entries
