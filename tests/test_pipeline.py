import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rainfusion.grids import MISSING, IndexEntry, RainGrid, SatScene, write_grid
from rainfusion.pipeline import (
    BandStats,
    LeadTime,
    SequenceSample,
    build_sequences,
    denormalize_values,
    filter_outliers,
    fit_band_stats,
    lanczos_weights,
    normalize_satellite,
    normalize_values,
    resample_lanczos,
    subsample_no_rain,
)

# log_202(2), evaluated at 50 digits with mpmath before the build
NORM_AT_ZERO = 0.13057879143873864


class TestRadarNormalization:
    def test_anchor_points(self):
        out = normalize_values(np.array([200.0, MISSING, 0.0]))
        assert abs(out[0] - 1.0) < 1e-12
        assert out[1] == 0.0
        assert abs(out[2] - NORM_AT_ZERO) < 1e-12

    def test_rejects_unfiltered_outliers(self):
        with pytest.raises(ValueError):
            normalize_values(np.array([200.0001]))

    def test_denormalize_anchor_points(self):
        assert denormalize_values(np.array([1.0]))[0] == pytest.approx(200.0, abs=1e-9)
        # raw inverse of 0 is -1; the clamp forces 0
        assert denormalize_values(np.array([0.0]))[0] == 0.0

    def test_denormalize_range_checked(self):
        with pytest.raises(ValueError):
            denormalize_values(np.array([-0.01]))
        with pytest.raises(ValueError):
            denormalize_values(np.array([1.01]))

    def test_round_trip_spot_value(self):
        x = np.array([37.4])
        assert denormalize_values(normalize_values(x))[0] == pytest.approx(37.4, abs=1e-5)

    @given(st.floats(min_value=0.0, max_value=200.0))
    def test_round_trip_identity(self, x):
        back = denormalize_values(normalize_values(np.array([x])))[0]
        assert abs(back - x) < 1e-5

    @given(st.floats(min_value=0.0, max_value=200.0 - 1e-6), st.floats(min_value=1e-6, max_value=1.0))
    def test_strictly_increasing(self, x, step):
        y = min(x + step, 200.0)
        a, b = normalize_values(np.array([x, y]))
        assert a < b

    def test_missing_output_unreachable_from_rain(self):
        # 0 output uniquely identifies missing: valid rates map to >= log_202(2)
        rates = np.linspace(0, 200, 1001)
        assert normalize_values(rates).min() >= NORM_AT_ZERO - 1e-12


class TestBandStats:
    def _scene(self, fill):
        vals = np.stack([np.full((3, 4), fill + b, dtype=np.float64) for b in range(11)])
        return SatScene(vals)

    def test_single_scene(self):
        vals = np.stack([np.full((2, 2), 3.0) for _ in range(11)])
        vals[0, 0, 0] = 7.0
        s = fit_band_stats([SatScene(vals)])
        assert s.mins[0] == 3.0 and s.maxs[0] == 7.0
        assert s.mins[1] == 3.0 and s.maxs[1] == 3.0

    def test_merge_matches_joint_fit(self):
        a, b = self._scene(0.0), self._scene(5.5)
        joint = fit_band_stats([a, b])
        merged = fit_band_stats([a]).merge(fit_band_stats([b]))
        np.testing.assert_array_equal(joint.mins, merged.mins)
        np.testing.assert_array_equal(joint.maxs, merged.maxs)
        assert joint.count == merged.count == 2

    @given(st.integers(0, 2**32))
    @settings(max_examples=25)
    def test_merge_property_random(self, seed):
        rng = np.random.default_rng(seed)
        scenes = [SatScene(rng.normal(size=(11, 2, 3))) for _ in range(4)]
        joint = fit_band_stats(scenes)
        merged = fit_band_stats(scenes[:2]).merge(fit_band_stats(scenes[2:]))
        np.testing.assert_array_equal(joint.mins, merged.mins)
        np.testing.assert_array_equal(joint.maxs, merged.maxs)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_band_stats([])


class TestSatelliteNormalization:
    def test_extrema_and_clamp(self):
        stats = BandStats(np.zeros(11), np.full(11, 10.0), 1)
        vals = np.stack([np.array([[0.0, 10.0], [12.0, 5.0]]) for _ in range(11)])
        out = normalize_satellite(SatScene(vals), stats).values
        assert out[0, 0, 0] == 0.0
        assert out[0, 0, 1] == 1.0
        assert out[0, 1, 0] == 1.0  # beyond training max clamps
        assert out[0, 1, 1] == 0.5

    def test_constant_band_zeroed(self):
        stats = BandStats(np.full(11, 4.0), np.full(11, 4.0), 1)
        vals = np.stack([np.full((2, 2), 4.0) for _ in range(11)])
        out = normalize_satellite(SatScene(vals), stats).values
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_frozen_expression_bit_for_bit(self, dtype):
        rng = np.random.default_rng(13)
        # extrema that the scene dtype holds exactly; band 4 is constant
        mins = rng.uniform(-50.0, 50.0, 11).astype(dtype).astype(np.float64)
        maxs = (mins + rng.uniform(0.5, 80.0, 11)).astype(dtype).astype(np.float64)
        maxs[4] = mins[4]
        stats = BandStats(mins, maxs, 1)
        vals = rng.uniform(-120.0, 150.0, size=(11, 5, 6))
        vals[:, 0, :4] = np.stack([mins, maxs, mins - 3.5, maxs + 3.5], axis=1)
        scene = SatScene(vals.astype(dtype))
        # the expression normalize_satellite computed before it ran in place
        v = scene.values.astype(np.float64)
        span = (maxs - mins)[:, None, None]
        safe_span = np.where(span == 0, 1.0, span)
        want = np.where(span == 0, 0, np.clip((v - mins[:, None, None]) / safe_span, 0, 1))
        got = normalize_satellite(scene, stats).values
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))  # signed zeros too
        assert np.all(got[4] == 0.0)
        assert np.all(got[np.arange(11) != 4][:, 0, :4] == [0.0, 1.0, 0.0, 1.0])

    def test_band_count_mismatch(self):
        stats = BandStats(np.zeros(3), np.ones(3), 1)
        vals = np.zeros((11, 2, 2))
        with pytest.raises(ValueError):
            normalize_satellite(SatScene(vals), stats)


def _lanczos_oracle_1d(src, n, a=3):
    """Direct-summation reference, independent of the production path."""
    m = len(src)
    out = []
    for i in range(n):
        x = (i + 0.5) * m / n - 0.5
        acc = wsum = 0.0
        for k in range(math.floor(x) - a + 1, math.floor(x) + a + 1):
            t = x - k
            if t == 0:
                w = 1.0
            elif abs(t) >= a:
                w = 0.0
            else:
                w = a * math.sin(math.pi * t) * math.sin(math.pi * t / a) / (math.pi * t) ** 2
            acc += w * src[min(max(k, 0), m - 1)]
            wsum += w
        out.append(acc / wsum)
    return out


def _lanczos_oracle_2d(img, nr, nc):
    rows = [_lanczos_oracle_1d(list(r), nc) for r in img]
    cols = [_lanczos_oracle_1d(list(c), nr) for c in zip(*rows)]
    return np.array(cols).T


class TestLanczos:
    def test_constant_preserved(self):
        out = resample_lanczos(np.full((4, 5), 3.7), 9, 13)
        np.testing.assert_allclose(out, 3.7, atol=1e-6)

    def test_identity_at_same_dims(self):
        rng = np.random.default_rng(3)
        img = rng.normal(size=(6, 7))
        np.testing.assert_allclose(resample_lanczos(img, 6, 7), img, atol=1e-6)

    def test_checkerboard_matches_oracle(self):
        board = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = resample_lanczos(board, 4, 4)
        np.testing.assert_allclose(out, _lanczos_oracle_2d(board, 4, 4), atol=1e-6)
        # frozen spot values from the pre-build oracle run
        assert out[0, 0] == pytest.approx(1.227609641335, abs=1e-6)
        assert out[1, 1] == pytest.approx(0.667746078401, abs=1e-6)
        assert out[0, 3] == pytest.approx(-0.227609641335, abs=1e-6)

    def test_random_fields_match_oracle(self):
        rng = np.random.default_rng(11)
        img = rng.uniform(size=(5, 7))
        out = resample_lanczos(img, 11, 6)
        np.testing.assert_allclose(out, _lanczos_oracle_2d(img, 11, 6), atol=1e-6)
        # a (bands, rows, cols) stack resamples each band exactly as alone
        stack = np.stack([img, rng.normal(size=(5, 7)), np.full((5, 7), 2.5)])
        stacked = resample_lanczos(stack, 11, 6)
        assert stacked.shape == (3, 11, 6)
        for band, got in zip(stack, stacked):
            np.testing.assert_array_equal(got, resample_lanczos(band, 11, 6))

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(2, 5, 5))
        a, b = 2.5, -1.25
        lhs = resample_lanczos(a * x + b * y, 12, 9)
        rhs = a * resample_lanczos(x, 12, 9) + b * resample_lanczos(y, 12, 9)
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_satellite_native_to_radar_dims(self):
        rng = np.random.default_rng(5)
        out = resample_lanczos(rng.normal(size=(47, 92)), 288, 288)
        assert out.shape == (288, 288)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            resample_lanczos(np.zeros((1, 5)), 4, 4)
        with pytest.raises(ValueError):
            resample_lanczos(np.zeros((3, 5, 1)), 4, 4)
        with pytest.raises(ValueError):
            resample_lanczos(np.zeros(5), 4, 4)
        with pytest.raises(ValueError):
            resample_lanczos(np.zeros((4, 4)), 0, 4)
        with pytest.raises(ValueError):
            lanczos_weights(4, -1)

    def test_weights_cached_read_only(self):
        w = lanczos_weights(7, 13)
        assert lanczos_weights(7, 13) is w
        np.testing.assert_array_equal(w, lanczos_weights.__wrapped__(7, 13))
        with pytest.raises(ValueError):
            w[0, 0] = 1.0
        for src, dst in ((13, 7), (7, 14), (8, 13)):
            other = lanczos_weights(src, dst)
            assert other is not w and other.shape == (dst, src)
            np.testing.assert_array_equal(other, lanczos_weights.__wrapped__(src, dst))

    def test_invalid_sizes_raise_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="target axis"):
                lanczos_weights(4, -1)
            with pytest.raises(ValueError, match="source axis"):
                lanczos_weights(1, 4)


def _write_dataset(tmp_path, max_values):
    entries = []
    for i, mx in enumerate(max_values):
        ts = i * 5
        vals = np.zeros((4, 4), dtype=np.float32)
        vals[0, 0] = mx
        p = tmp_path / f"r{i}.rfg"
        write_grid(p, RainGrid(vals, timestamp=ts))
        entries.append(IndexEntry(ts, str(p)))
    return entries


class TestFilterOutliers:
    def test_threshold_boundary(self, tmp_path):
        entries = _write_dataset(tmp_path, [201.0, 200.0, 5.0])
        kept, report = filter_outliers(entries)
        assert [e.timestamp for e in kept] == [5, 10]
        assert report.removed == [0] and report.total == 3

    def test_synthetic_two_point_one_percent(self, tmp_path):
        # 1000 frames, 21 outliers -> report must read exactly 2.1%
        maxes = [1.0] * 1000
        for i in range(0, 1000, 48):
            maxes[i] = 250.0
        maxes = maxes[:1000]
        assert maxes.count(250.0) == 21
        entries = _write_dataset(tmp_path, maxes)
        kept, report = filter_outliers(entries)
        assert len(report.removed) / report.total == pytest.approx(0.021)
        assert len(kept) == 979

    def test_unreadable_recorded(self, tmp_path):
        entries = _write_dataset(tmp_path, [1.0])
        entries.append(IndexEntry(5, str(tmp_path / "missing.rfg")))
        kept, report = filter_outliers(entries)
        assert len(kept) == 1
        assert report.unreadable == [str(tmp_path / "missing.rfg")]


class TestSubsampleNoRain:
    def test_keep_all(self, tmp_path):
        entries = _write_dataset(tmp_path, [0.0, 0.0, 1.0])
        kept, report = subsample_no_rain(entries, 1.0, seed=0)
        assert len(kept) == 3
        assert report.no_rain_total == 2 and report.no_rain_kept == 2
        assert report.unreadable == []

    def test_keep_none(self, tmp_path):
        entries = _write_dataset(tmp_path, [0.0, 0.0, 1.0])
        kept, _ = subsample_no_rain(entries, 0.0, seed=0)
        assert [e.timestamp for e in kept] == [10]

    def test_deterministic_per_seed(self, tmp_path):
        entries = _write_dataset(tmp_path, [0.0] * 20)
        a, _ = subsample_no_rain(entries, 0.5, seed=7)
        b, _ = subsample_no_rain(entries, 0.5, seed=7)
        assert a == b

    def test_binomial_bound(self):
        # 10,000 no-rain frames at keep 0.2: 3 sigma around 2000 is [1880, 2120]
        class FakeReader:
            def __call__(self, path):  # "p{i}" is the frame at i * 5 minutes
                return RainGrid(np.zeros((1, 1)), int(path[1:]) * 5)

        entries = [IndexEntry(i * 5, f"p{i}") for i in range(10_000)]
        for seed in (0, 1, 2):
            kept, report = subsample_no_rain(entries, 0.2, seed=seed, reader=FakeReader())
            assert 1800 <= len(kept) <= 2200
            assert report.no_rain_kept == len(kept)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            subsample_no_rain([], 1.5, seed=0)

    def test_truncated_file_named(self, tmp_path):
        entries = _write_dataset(tmp_path, [1.0, 0.0, 2.0])
        path = tmp_path / "r0.rfg"
        path.write_bytes(path.read_bytes()[:30])
        entries.append(IndexEntry(15, str(tmp_path / "missing.rfg")))
        kept, report = subsample_no_rain(entries, 1.0, seed=0)
        assert report.unreadable == [str(path), str(tmp_path / "missing.rfg")]
        assert [e.timestamp for e in kept] == [5, 10]
        assert report.no_rain_total == report.no_rain_kept == 1


CURATE = {"filter_outliers": filter_outliers,
          "subsample_no_rain": lambda entries: subsample_no_rain(entries, 1.0, seed=0)}


class TestHeaderTimestamp:
    """Both curation functions compare each radar file's header time with
    the time it is indexed under."""

    @pytest.mark.parametrize("curate", sorted(CURATE))
    def test_mismatch_names_file_and_both_times(self, tmp_path, curate):
        entries = _write_dataset(tmp_path, [1.0, 0.0, 2.0])
        entries[1] = IndexEntry(1445, entries[1].radar_path)  # indexed a day late
        message = (f"{entries[1].radar_path}: header timestamp 1970-01-01T00:05Z (5 min) "
                   "differs from index timestamp 1970-01-02T00:05Z (1445 min)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CURATE[curate](entries)

    @pytest.mark.parametrize("curate", sorted(CURATE))
    def test_header_time_beyond_the_calendar(self, tmp_path, curate):
        entries = _write_dataset(tmp_path, [1.0])
        write_grid(entries[0].radar_path, RainGrid(np.zeros((4, 4)), timestamp=2**62))
        message = (f"{entries[0].radar_path}: header timestamp {2**62} min "
                   "differs from index timestamp 1970-01-01T00:00Z (0 min)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CURATE[curate](entries)


class TestLeadTime:
    def test_windows(self):
        assert LeadTime(5).input_offsets == (-30, -25, -20, -15, -10, -5)
        assert LeadTime(15).input_offsets == (-40, -35, -30, -25, -20, -15)
        assert LeadTime(30).input_offsets == (-55, -50, -45, -40, -35, -30)

    def test_rejects_unknown_lead(self):
        with pytest.raises(ValueError):
            LeadTime(10)


class TestBuildSequences:
    def _entries(self, minutes, sat=True):
        return [IndexEntry(m, f"radar/{m}.rfg", f"sat/{m}.rfg" if sat else None) for m in minutes]

    def test_seven_frame_run_lead_5(self):
        entries = self._entries(range(0, 35, 5))
        samples = build_sequences(entries, LeadTime(5))
        assert len(samples) == 1
        s = samples[0]
        assert s.target_timestamp == 30
        assert s.input_timestamps == (0, 5, 10, 15, 20, 25)

    def test_missing_input_frame_no_sample(self):
        minutes = [m for m in range(0, 35, 5) if m != 15]
        assert build_sequences(self._entries(minutes), LeadTime(5)) == []

    def test_twelve_frame_run_lead_30(self):
        # hand-enumerated: only t=55 has all of t-55..t-30 plus target
        entries = self._entries(range(0, 60, 5))
        samples = build_sequences(entries, LeadTime(30))
        assert len(samples) == 1
        assert samples[0].target_timestamp == 55
        assert samples[0].input_timestamps == (0, 5, 10, 15, 20, 25)

    def test_multimodal_requires_sat(self):
        entries = self._entries(range(0, 35, 5), sat=False)
        assert build_sequences(entries, LeadTime(5), multimodal=True) == []
        assert len(build_sequences(entries, LeadTime(5), multimodal=False)) == 1

    def test_count_never_exceeds_index(self):
        entries = self._entries(range(0, 300, 5))
        for lead in (5, 15, 30):
            samples = build_sequences(entries, LeadTime(lead))
            assert 0 < len(samples) <= len(entries)

    def test_duplicate_timestamp_names_both_paths(self):
        entries = self._entries(range(0, 35, 5)) + [IndexEntry(15, "radar/again.rfg")]
        with pytest.raises(ValueError, match="duplicate timestamp") as err:
            build_sequences(entries, LeadTime(5))
        assert "radar/15.rfg" in str(err.value) and "radar/again.rfg" in str(err.value)
        assert "1970-01-01T00:15Z" in str(err.value)

    def test_off_lattice_rejected(self):
        message = r"^timestamp 1970-01-01T00:03Z \(3\) of radar/3\.rfg not on"
        with pytest.raises(ValueError, match=message):
            build_sequences([IndexEntry(3, "radar/3.rfg")], LeadTime(5))

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            SequenceSample((0, 5, 10, 15, 20, 26), ("r",) * 6, None, 30, "t", 5)
        with pytest.raises(ValueError):
            SequenceSample((0, 5, 10, 15, 20), ("r",) * 5, None, 30, "t", 5)
