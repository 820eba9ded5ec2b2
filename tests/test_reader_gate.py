"""Byte-level gate over every reader: damaged files load or are rejected by name.

A tiny RFG1 grid (`read_grid`), an RFG1 scene (`read_scene`), an RFP1
checkpoint (`load_model`) and an index TSV (`read_index`) are cut at every
length and have each byte, one at a time, set to 0x00 and 0xFF and flipped
in bit 7 and bit 0.  Each damaged file must either load or raise
`FormatError`/`ValueError` whose message names the file.  Any other
exception (`IndexError`, `KeyError`, `struct.error`, a `UnicodeDecodeError`
passed through) or any warning fails the gate.
"""

import os
import warnings
from collections import Counter

import numpy as np
import pytest

from rainfusion.grids import (
    MISSING,
    FormatError,
    IndexEntry,
    RainGrid,
    SatScene,
    read_grid,
    read_index,
    read_scene,
    write_grid,
    write_index,
    write_scene,
)
from rainfusion.models import ModelConfig, UNet3D, load_model, save_model


def _grid(path):
    # 1.25 and 1.0 become a signaling NaN and -inf when their top byte is 0xFF
    values = np.array([[0.0, 1.25, 2.5, 7.5], [50.0, 201.0, MISSING, 3.25],
                       [1.0, 0.0, 0.0, 9.0], [12.0, 0.1, 60.0, 0.0]], dtype=np.float32)
    write_grid(path, RainGrid(values, timestamp=27103975))


def _scene(path):
    write_scene(path, SatScene(np.linspace(-40.0, 300.0, 44).reshape(11, 2, 2), 27103975))


def _checkpoint(path):
    save_model(path, UNet3D(ModelConfig("radar", rows=4, cols=4, levels=2, base_channels=1),
                            seed=3))


def _index(path):
    write_index(path, [IndexEntry(27103975, "radar/a.rfg", "sat/a.rfg"),
                       IndexEntry(27103980, "radar/b.rfg", None)])


def _damaged(path, blob):
    """Damage the file at `path` in place, once per yield of "cut" or
    "flip": every truncation, longest first, then every single-byte 0x00,
    0xFF, ^0x80 and ^0x01, each undone after its yield.  In-place writes
    keep the file-system calls per damaged file to two."""
    for end in reversed(range(len(blob))):
        os.truncate(path, end)
        yield "cut"
    path.write_bytes(blob)
    fd = os.open(path, os.O_WRONLY)
    try:
        for offset, byte in enumerate(blob):
            for new in {0x00, 0xFF, byte ^ 0x80, byte ^ 0x01} - {byte}:
                os.pwrite(fd, bytes([new]), offset)
                yield "flip"
            os.pwrite(fd, bytes([byte]), offset)
    finally:
        os.close(fd)


@pytest.mark.parametrize("write, load", [(_grid, read_grid), (_scene, read_scene),
                                         (_checkpoint, load_model), (_index, read_index)],
                         ids=["rfg1_grid", "rfg1_scene", "rfp1_checkpoint", "index_tsv"])
def test_damaged_bytes_load_or_name_the_file(tmp_path, write, load):
    path = tmp_path / "input"
    write(path)
    blob = path.read_bytes()
    load(path)
    loaded = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for damage in _damaged(path, blob):
            try:
                load(path)
            except (FormatError, ValueError) as err:
                assert not isinstance(err, UnicodeDecodeError), repr(err)
                assert str(path) in str(err), (path.read_bytes().hex(), str(err))
            else:
                loaded[damage] += 1
    assert path.read_bytes() == blob
    if load is not read_index:  # the binary formats fix their length
        assert loaded["cut"] == 0
