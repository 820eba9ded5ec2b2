import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rainfusion.grids import PrecipCategory, categorize_values, read_grid, read_index, read_scene
from rainfusion.synth import SynthConfig, _rain_frames, generate_synthetic


def _config(**kw):
    base = dict(rows=32, cols=32, frames=10, cells=4, seed=3)
    base.update(kw)
    return SynthConfig(**base)


def rain_fields(config):
    """Every rain frame of `config`, the satellite lookahead tail included, stacked."""
    return np.stack(list(_rain_frames(config)))


class TestSynthConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _config(sat_lead_minutes=7)
        with pytest.raises(ValueError):
            _config(amp_range=(0.0, 50.0))
        with pytest.raises(ValueError):
            _config(amp_range=(10.0, 250.0))
        with pytest.raises(ValueError):
            _config(sat_scale=3)  # does not divide 32
        with pytest.raises(ValueError):
            _config(start_minutes=3)


class TestRainFields:
    def test_static_scene(self):
        cfg = _config(velocity=(0.0, 0.0), growth_rate=0.0, noise_level=0.0)
        fields = rain_fields(cfg)
        for t in range(1, fields.shape[0]):
            np.testing.assert_array_equal(fields[t], fields[0])

    def test_moving_scene_changes(self):
        cfg = _config(velocity=(1.0, 0.5), growth_rate=0.0, noise_level=0.0)
        fields = rain_fields(cfg)
        assert np.abs(fields[1] - fields[0]).max() > 0

    def test_amplitude_bound_respected(self):
        cfg = _config(amp_range=(5.0, 45.0), cells=10, noise_level=0.5)
        fields = rain_fields(cfg)
        assert fields.max() <= 45.0
        assert fields.min() >= 0.0

    def test_violent_pixel_exists(self):
        cfg = _config(amp_range=(60.0, 60.0), cells=2, growth_rate=0.0)
        fields = rain_fields(cfg)
        assert (categorize_values(fields) == int(PrecipCategory.VIOLENT)).any()

    def test_deterministic(self):
        a = rain_fields(_config(noise_level=0.3))
        b = rain_fields(_config(noise_level=0.3))
        np.testing.assert_array_equal(a, b)


class TestGenerateSynthetic:
    def test_dataset_layout(self, tmp_path):
        cfg = _config(frames=8)
        entries = generate_synthetic(cfg, tmp_path)
        assert len(entries) == 8
        index = read_index(tmp_path / "index.tsv")
        assert len(index) == 8
        g = read_grid(index[0].radar_path)
        assert (g.rows, g.cols) == (32, 32)
        s = read_scene(index[0].sat_path)
        assert (s.rows, s.cols) == (16, 16)
        assert s.values.shape[0] == 11
        assert index[1].timestamp - index[0].timestamp == 5

    def test_concurrent_satellite_at_zero_lead(self, tmp_path):
        # delta = 0, no noise: bands are exact affine transforms of the
        # smoothed concurrent rain field, so band k is an affine function
        # of band 0
        cfg = _config(sat_lead_minutes=0, noise_level=0.0)
        generate_synthetic(cfg, tmp_path)
        index = read_index(tmp_path / "index.tsv")
        s = read_scene(index[3].sat_path)
        b0 = s.values[0].astype(np.float64)  # scale 1.0, offset 0.0
        from rainfusion.synth import _BAND_OFFSETS, _BAND_SCALES

        for k in range(1, 11):
            expected = _BAND_SCALES[k] * b0 + _BAND_OFFSETS[k]
            np.testing.assert_allclose(s.values[k], expected, atol=1e-3)

    def test_leading_indicator_alignment(self, tmp_path):
        # with delta = 15 the satellite at t matches the smoothed radar at
        # t+15 better than the one at t
        cfg = _config(frames=12, sat_lead_minutes=15, velocity=(1.2, 0.8),
                      growth_rate=0.08, noise_level=0.0, cells=6)
        generate_synthetic(cfg, tmp_path)
        index = read_index(tmp_path / "index.tsv")
        t = 2
        sat = read_scene(index[t].sat_path).values[0].astype(np.float64)
        from rainfusion.synth import _block_mean, _gaussian_blur

        same_time = _block_mean(_gaussian_blur(
            read_grid(index[t].radar_path).values.astype(np.float64), 1.5), 2)
        future = _block_mean(_gaussian_blur(
            read_grid(index[t + 3].radar_path).values.astype(np.float64), 1.5), 2)
        err_same = np.abs(sat - same_time).mean()
        err_future = np.abs(sat - future).mean()
        assert err_future < err_same

    def test_outlier_injection(self, tmp_path):
        cfg = _config(frames=10, outlier_fraction=0.2)
        generate_synthetic(cfg, tmp_path)
        index = read_index(tmp_path / "index.tsv")
        maxes = [read_grid(e.radar_path).values.max() for e in index]
        assert sum(1 for m in maxes if m > 200.0) == 2

    def test_outliers_spike_only_the_drawn_frames(self, tmp_path):
        cfg = _config(frames=10, outlier_fraction=0.2)
        generate_synthetic(cfg, tmp_path / "spiked")
        generate_synthetic(_config(frames=10), tmp_path / "clean")
        drawn = set(np.random.default_rng(cfg.seed + 1).choice(10, size=2, replace=False).tolist())
        spiked = read_index(tmp_path / "spiked" / "index.tsv")
        clean = read_index(tmp_path / "clean" / "index.tsv")
        for t, (s, c) in enumerate(zip(spiked, clean)):
            want = read_grid(c.radar_path).values.copy()
            if t in drawn:
                want[0, 0] = 250.0
            np.testing.assert_array_equal(read_grid(s.radar_path).values, want)

    @pytest.mark.parametrize("lead", [0, 15, 30])
    def test_scene_shows_the_rain_lookahead_frames_ahead(self, tmp_path, lead):
        # band 0 has scale 1 and offset 0, so with no noise it is the
        # blurred, block-averaged rain field at t + lead, bit for bit
        from rainfusion.synth import _block_mean, _gaussian_blur

        cfg = _config(frames=9, sat_lead_minutes=lead, velocity=(1.2, 0.8),
                      growth_rate=0.08, noise_level=0.0, cells=6)
        generate_synthetic(cfg, tmp_path)
        fields = rain_fields(cfg)
        assert len(fields) == cfg.frames + lead // 5
        for t, entry in enumerate(read_index(tmp_path / "index.tsv")):
            np.testing.assert_array_equal(read_grid(entry.radar_path).values,
                                          fields[t].astype(np.float32))
            want = _block_mean(_gaussian_blur(fields[t + lead // 5], 1.5), 2)
            np.testing.assert_array_equal(read_scene(entry.sat_path).values[0],
                                          want.astype(np.float32))

    def test_memory_does_not_grow_with_the_frame_count(self, tmp_path):
        # Frames are drawn one at a time and only t .. t + lookahead are
        # kept: 360 more frames of 32 x 32 float64 (2.9 MB as one array)
        # may add only the index entries.
        peaks = []
        for frames in (40, 400):
            tracemalloc.start()
            generate_synthetic(_config(frames=frames), tmp_path / str(frames))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1_000_000

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = _config(noise_level=0.2)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        generate_synthetic(cfg, a_dir)
        generate_synthetic(cfg, b_dir)
        for rel in ["index.tsv", f"radar/{cfg.start_minutes}.rfg", f"sat/{cfg.start_minutes}.rfg"]:
            assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes()


# SHA-256 over (relative path, bytes) of every file `generate_synthetic`
# writes for the config below: a change to the generator that moves a
# single byte of its output fails here.
_PINNED_DIGEST = "fb88213cc99bd557949e43bcf8a6799409518fbb96eb65918d8402be9895e86c"


def test_bytes_pinned_to_recorded_digest(tmp_path):
    cfg = SynthConfig(rows=16, cols=16, frames=24, cells=4, noise_level=0.5,
                      outlier_fraction=0.1, seed=0)
    generate_synthetic(cfg, tmp_path)
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(tmp_path).rglob("*") if p.is_file()):
        digest.update(path.relative_to(tmp_path).as_posix().encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == _PINNED_DIGEST
