import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rainfusion import grids
from rainfusion.grids import (
    MISSING,
    FormatError,
    IndexEntry,
    PrecipCategory,
    RainGrid,
    SatScene,
    categorize,
    categorize_values,
    grid_stats,
    iso_to_minutes,
    minutes_to_iso,
    read_grid,
    read_index,
    read_scene,
    write_grid,
    write_index,
    write_scene,
)


class TestCategorize:
    def test_paper_boundaries(self):
        assert categorize(7.5) is PrecipCategory.HEAVY
        assert categorize(0.0) is PrecipCategory.NO_RAIN
        assert categorize(-999) is PrecipCategory.MISSING

    @pytest.mark.parametrize(
        "rate,expected",
        [
            (0.1, PrecipCategory.LIGHT),
            (2.5, PrecipCategory.MODERATE),
            (2.4999, PrecipCategory.LIGHT),
            (49.999, PrecipCategory.HEAVY),
            (50.0, PrecipCategory.VIOLENT),
            (200.0, PrecipCategory.VIOLENT),
            (201.0, PrecipCategory.VIOLENT),  # total on [0, inf)
        ],
    )
    def test_bounds(self, rate, expected):
        assert categorize(rate) is expected

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            categorize(-0.5)
        with pytest.raises(ValueError):
            categorize_values(np.array([1.0, -3.0]))

    @given(
        st.floats(min_value=1e-6, max_value=200.0),
        st.floats(min_value=1e-6, max_value=200.0),
    )
    def test_monotone_on_rain(self, r1, r2):
        lo, hi = sorted((r1, r2))
        assert categorize(lo) <= categorize(hi)

    @given(st.floats(min_value=0.0, max_value=250.0))
    def test_vectorized_matches_scalar(self, rate):
        assert categorize_values(np.array([rate]))[0] == int(categorize(rate))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_vectorized_edges_and_missing(self, dtype):
        rates = [MISSING, 0.0, 1e-6, 2.4999, 2.5, 7.4999, 7.5, 49.999, 50.0, 200.0, 260.0]
        v = np.array(rates * 2, dtype=dtype).reshape(2, 1, len(rates))
        codes = categorize_values(v)
        assert codes.dtype == np.int8 and codes.shape == v.shape
        assert codes.ravel().tolist() == [int(categorize(float(r))) for r in v.ravel()]
        assert categorize_values(v[0, 0, 4]) == int(PrecipCategory.MODERATE)

    def test_bounds_partition(self):
        cats = [PrecipCategory.LIGHT, PrecipCategory.MODERATE,
                PrecipCategory.HEAVY, PrecipCategory.VIOLENT]
        edges = [c.bounds for c in cats]
        for (_, hi), (lo, _) in zip(edges, edges[1:]):
            assert hi == lo
        assert edges[0][0] == 0.0
        assert edges[-1][1] == 200.0


class TestRainGrid:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RainGrid(np.array([[1.0, -5.0]]))
        with pytest.raises(ValueError):
            RainGrid(np.array([[np.nan]]))
        with pytest.raises(ValueError):
            RainGrid(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            RainGrid(np.zeros(4))

    def test_accepts_sentinel_and_large_rates(self):
        g = RainGrid(np.array([[MISSING, 0.0], [201.0, 3.5]]), timestamp=7)
        assert g.rows == 2 and g.cols == 2 and g.timestamp == 7

    def test_values_read_only(self):
        g = RainGrid(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            g.values[0, 0] = 1.0


class TestGridStats:
    def test_all_missing(self):
        s = grid_stats(RainGrid(np.full((3, 3), MISSING)))
        assert s.missing_fraction == 1.0
        assert s.rainy_fraction == 0.0

    def test_all_zero(self):
        s = grid_stats(RainGrid(np.zeros((4, 4))))
        assert s.max_rate == 0.0
        assert s.rainy_fraction == 0.0

    def test_single_outlier_cell(self):
        s = grid_stats(RainGrid(np.array([[201.0, 0.0], [0.0, 0.0]])))
        assert s.max_rate == 201.0
        assert s.rainy_fraction == 0.25

    def test_missing_excluded_from_max(self):
        s = grid_stats(RainGrid(np.array([[MISSING, 2.0]])))
        assert s.max_rate == 2.0
        assert s.missing_fraction == 0.5
        assert s.rainy_fraction == 0.5

    @given(st.integers(min_value=0, max_value=2**32))
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.choice([MISSING, 0.0, 1.0, 60.0], size=12).reshape(3, 4)
        shuffled = rng.permutation(vals.ravel()).reshape(4, 3)
        a, b = grid_stats(RainGrid(vals)), grid_stats(RainGrid(shuffled))
        assert a == b


class TestRfg1Format:
    def test_grid_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 200, size=(288, 288)).astype(np.float32)
        vals[rng.random(vals.shape) < 0.05] = MISSING
        p = tmp_path / "g.rfg"
        write_grid(p, RainGrid(vals, timestamp=123456))
        first = p.read_bytes()
        g = read_grid(p)
        assert g.timestamp == 123456
        assert g.values.dtype == np.float32
        np.testing.assert_array_equal(g.values, vals)
        write_grid(p, g)
        assert p.read_bytes() == first

    def test_scene_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(11, 47, 92)).astype(np.float32)
        p = tmp_path / "s.rfg"
        write_scene(p, SatScene(vals, timestamp=-5))
        s = read_scene(p)
        assert s.timestamp == -5
        np.testing.assert_array_equal(s.values, vals)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.rfg"
        p.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(FormatError) as err:
            read_grid(p)
        assert err.value.offset == 0

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.rfg"
        write_grid(p, RainGrid(np.zeros((4, 4), dtype=np.float32)))
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])
        with pytest.raises(FormatError) as err:
            read_grid(p)
        assert str(err.value).startswith(f"{p}: truncated payload")
        assert err.value.offset == len(blob) - 8

    def test_dimension_overflow(self, tmp_path):
        import struct

        p = tmp_path / "o.rfg"
        header = struct.pack("<4sBBHIIq", b"RFG1", 1, 0, 1, 2**31, 2**31, 0)
        p.write_bytes(header)
        with pytest.raises(FormatError) as err:
            read_grid(p)
        assert "overflow" in str(err.value)

    def test_band_count_mismatch(self, tmp_path):
        p = tmp_path / "s.rfg"
        write_scene(p, SatScene(np.zeros((11, 3, 3), dtype=np.float32)))
        with pytest.raises(FormatError, match=re.escape(f"{p}: expected a 1-band grid")):
            read_grid(p)
        g = tmp_path / "g.rfg"
        write_grid(g, RainGrid(np.zeros((3, 3))))
        with pytest.raises(FormatError, match=re.escape(f"{g}: expected an 11-band scene")):
            read_scene(g)


def _write_raw(path, values, timestamp=0):
    """An RFG1 file of any float32 payload, past the writers' value checks."""
    values = np.asarray(values, dtype="<f4")
    path.write_bytes(struct.pack("<4sBBHIIq", b"RFG1", 1, 0, *values.shape, timestamp)
                     + values.tobytes())


class TestReaderValues:
    @pytest.mark.parametrize("with_missing", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, bad, with_missing):
        grid, scene = np.zeros((1, 3, 4)), np.zeros((11, 3, 4))
        grid[0, 1, 2], scene[5, 1, 2] = bad, bad
        if with_missing:
            grid[0, 0, 0] = scene[0, 0, 0] = MISSING
        g, s = tmp_path / "g.rfg", tmp_path / "s.rfg"
        _write_raw(g, grid)
        _write_raw(s, scene)
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(g))}: RainGrid contains non-finite values$"):
            read_grid(g)
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(s))}: SatScene contains non-finite values$"):
            read_scene(s)

    def test_negative_rate_rejected_scene_accepted(self, tmp_path):
        values = np.zeros((11, 3, 4))
        values[:, 2, 1] = -0.5
        _write_raw(tmp_path / "g.rfg", values[:1])
        _write_raw(tmp_path / "s.rfg", values)
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'g.rfg'))}: RainGrid "
                                             "contains negative values other than "
                                             "the -999 sentinel$"):
            read_grid(tmp_path / "g.rfg")
        np.testing.assert_array_equal(read_scene(tmp_path / "s.rfg").values, values)

    @pytest.mark.parametrize("cells", [[-0.0, 0.0, 3.5], [MISSING, 0.0, 201.0],
                                       [MISSING, MISSING, MISSING]])
    def test_accepted_bit_exact(self, tmp_path, cells):
        values = np.array([cells, cells[::-1]], dtype=np.float32)
        _write_raw(tmp_path / "g.rfg", values[None], timestamp=9)
        g = read_grid(tmp_path / "g.rfg")
        assert g.timestamp == 9 and g.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cell, rejection", [
        (-0.0, None), (MISSING, None), (0.0, None), (1e-40, None),
        (np.nan, "non-finite values"), ("signaling nan", "non-finite values"),
        ("negative nan", "non-finite values"), (np.inf, "non-finite values"),
        (-np.inf, "non-finite values"), (-0.5, "negative values other than the -999 sentinel"),
        (-1e-40, "negative values other than the -999 sentinel"),
        (-998.0, "negative values other than the -999 sentinel")])
    def test_decision_and_message_per_dtype(self, tmp_path, dtype, cell, rejection):
        # Each cell among finite rain: the one-reduction check of the common
        # grid must pass exactly the grids that the full checks accept.
        values = np.array([[0.0, 3.5, 201.0], [0.25, 0.0, 60.0]], dtype=dtype)
        bits = values.view(np.uint32 if dtype is np.float32 else np.uint64)
        if cell == "signaling nan":
            bits[1, 1] = 0x7FA00000 if dtype is np.float32 else 0x7FF4000000000000
        elif cell == "negative nan":
            bits[1, 1] = 0xFFC00000 if dtype is np.float32 else 0xFFF8000000000000
        else:
            values[1, 1] = cell
        stored = values.tobytes()
        paths = [None]
        if dtype is np.float32:
            paths.append(tmp_path / "g.rfg")
            _write_raw(paths[-1], values[None])
        for path in paths:
            prefix = "" if path is None else f"{path}: "
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if rejection is None:
                    grid = RainGrid(values) if path is None else read_grid(path)
                    assert grid.values.dtype == dtype and grid.values.tobytes() == stored
                    continue
                with pytest.raises(ValueError,
                                   match=f"^{re.escape(prefix)}RainGrid contains {rejection}$"):
                    RainGrid(values) if path is None else read_grid(path)

    def test_values_read_only_and_not_views_of_the_bytes(self, tmp_path, monkeypatch):
        write_grid(tmp_path / "g.rfg", RainGrid(np.ones((3, 4))))
        write_scene(tmp_path / "s.rfg", SatScene(np.ones((11, 3, 4))))
        raw, read_rfg = [], grids._read_rfg
        monkeypatch.setattr(grids, "_read_rfg", lambda path: raw.append(read_rfg(path)) or raw[-1])
        read = [read_grid(tmp_path / "g.rfg"), read_scene(tmp_path / "s.rfg")]
        for obj, (payload, _) in zip(read, raw):
            assert not obj.values.flags.writeable
            assert not np.shares_memory(obj.values, payload)


class TestIndex:
    def test_timestamp_codec(self):
        assert minutes_to_iso(0) == "1970-01-01T00:00Z"
        ts = iso_to_minutes("2021-07-14T12:55Z")
        assert minutes_to_iso(ts) == "2021-07-14T12:55Z"

    def test_round_trip_and_resolution(self, tmp_path):
        entries = [
            IndexEntry(27103975, "radar/a.rfg", "sat/a.rfg"),
            IndexEntry(27103980, "radar/b.rfg", None),
        ]
        p = tmp_path / "index.tsv"
        write_index(p, entries)
        assert read_index(p) == [
            IndexEntry(27103975, str(tmp_path / "radar/a.rfg"), str(tmp_path / "sat/a.rfg")),
            IndexEntry(27103980, str(tmp_path / "radar/b.rfg"), None),
        ]

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "index.tsv"
        p.write_text("2021-07-14T12:55Z\tonly-two-fields\n")
        with pytest.raises(ValueError):
            read_index(p)

    def test_malformed_timestamp_names_line(self, tmp_path):
        p = tmp_path / "index.tsv"
        p.write_text("2021-07-14T12:55Z\ta.rfg\t-\n2021-07-14 13:00\tb.rfg\t-\n")
        message = f"{p}:2: malformed timestamp '2021-07-14 13:00'"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_index(p)
