"""RFP1 parameter container: named float32 arrays, byte-exact round trips.

Layout (all little-endian):
  offset 0  magic "RFP1"
  offset 4  version (1)
  offset 5  entry count, u32
  then per entry: name length u16, name UTF-8 bytes, rank u8,
  rank x u32 dims, then prod(dims) float32 values.
Entry names are unique.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..grids import FormatError

_RFP_MAGIC = b"RFP1"
_MAX_ELEMENTS = 2**32


def save_arrays(path, named_arrays) -> None:
    """Write (name, array) pairs; values are stored as float32."""
    chunks = [_RFP_MAGIC, struct.pack("<BI", 1, len(named_arrays))]
    for name, arr in named_arrays:
        raw = name.encode("utf-8")
        data = np.ascontiguousarray(arr, dtype="<f4")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<B", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_arrays(path) -> list[tuple[str, np.ndarray]]:
    def error(message, offset):
        return FormatError(f"{path}: {message}", offset)
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != _RFP_MAGIC:
        raise error(f"bad magic {blob[:4]!r}, expected {_RFP_MAGIC!r}", 0)
    pos = 4

    def take(n, what):
        nonlocal pos
        if pos + n > len(blob):
            raise error(f"truncated while reading {what}", len(blob))
        chunk = blob[pos:pos + n]
        pos += n
        return chunk

    version, count = struct.unpack("<BI", take(5, "header"))
    if version != 1:
        raise error(f"unsupported version {version}", 4)
    out = []
    names = set()
    for _ in range(count):
        start = pos
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        raw_name = take(name_len, "name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as err:
            raise error(f"entry name {raw_name!r} is not valid UTF-8",
                        pos - name_len + err.start) from None
        if name in names:
            raise error(f"entry name {name!r} repeats", start)
        names.add(name)
        (rank,) = struct.unpack("<B", take(1, f"rank of {name}"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"dims of {name}"))
        elements = 1
        for d in dims:
            if d < 1:
                raise error(f"zero-length dim in {name}", pos - 4 * rank)
            elements *= d
        if elements > _MAX_ELEMENTS:
            raise error(f"dimension overflow in {name}: {dims}", pos - 4 * rank)
        raw = take(4 * elements, f"values of {name}")
        out.append((name, np.frombuffer(raw, dtype="<f4").reshape(dims).copy()))
    if pos != len(blob):
        raise error(f"trailing bytes after last entry: expected {pos}, found {len(blob)}", pos)
    return out
