import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import rainfusion
from rainfusion.grids import (
    MISSING,
    RAIN_CATEGORIES,
    PrecipCategory,
    RainGrid,
    categorize_values,
    read_grid,
    write_grid,
)
from rainfusion.pipeline import SequenceSample
from rainfusion.render import PALETTE, render_map, render_rgb
from rainfusion.report import _BLOCK, SkillReport, evaluate_models, merge_reports
from rainfusion.verify import (
    ContingencyTable,
    binary_probability,
    csi,
    fss_ratio,
    neighborhood_probability,
    score_pairs,
)
from test_models import _glibc


def _sample(tmp_path, tag, fields):
    paths = []
    for i, vals in enumerate(fields):
        p = tmp_path / f"{tag}_{i}.rfg"
        write_grid(p, RainGrid(vals, timestamp=i * 5))
        paths.append(str(p))
    return SequenceSample(
        input_timestamps=tuple(range(0, 30, 5)),
        radar_paths=tuple(paths[:6]),
        sat_paths=None,
        target_timestamp=30,
        target_path=paths[6],
        lead_minutes=5,
    )


class TestSkillReport:
    def _report(self):
        r = SkillReport(models=("radar", "persistence"), leads=(5,),
                        categories=("Heavy", "Violent"),
                        metadata={"dataset": "unit", "seed": "0"})
        r.set(5, "Heavy", "CSI", "radar", 0.672)
        r.set(5, "Heavy", "CSI", "persistence", 0.5)
        r.set(5, "Heavy", "FSS", "radar", 0.924)
        r.set(5, "Heavy", "FSS", "persistence", 0.8)
        r.set(5, "Violent", "CSI", "radar", None)
        r.set(5, "Violent", "CSI", "persistence", None)
        r.set(5, "Violent", "FSS", "radar", None)
        r.set(5, "Violent", "FSS", "persistence", None)
        return r

    def test_text_layout(self):
        text = self._report().to_text()
        lines = text.splitlines()
        assert lines[0] == "# dataset=unit"
        header = lines[2].split()
        assert header[:4] == ["Lead", "Time", "Category", "Metric"]
        assert "0.672" in lines[3]
        assert "n/a" in text

    def test_csv(self):
        csv = self._report().to_csv()
        lines = csv.splitlines()
        assert lines[2] == "lead_minutes,category,metric,radar,persistence"
        assert lines[3] == "5,Heavy,CSI,0.672000,0.500000"

    def test_score_bounds_enforced(self):
        r = SkillReport(models=("m",), leads=(5,), categories=("Heavy",))
        with pytest.raises(ValueError):
            r.set(5, "Heavy", "CSI", "m", 1.5)

    def test_merge(self):
        a, b = self._report(), self._report()
        b.leads = (15,)
        b.scores = {(15, c, m, mod): v for (l, c, m, mod), v in a.scores.items()}
        merged = merge_reports([a, b])
        assert merged.leads == (5, 15)
        assert merged.get(15, "Heavy", "CSI", "radar") == 0.672

    def test_merge_rejects_a_lead_in_two_reports(self):
        a, b = self._report(), self._report()
        b.set(5, "Heavy", "CSI", "radar", 0.1)
        with pytest.raises(ValueError, match="lead 5 min is in two reports"):
            merge_reports([a, b])

    @pytest.mark.parametrize("key, first, other", [("aggregation", "pooled", "per-image"),
                                                   ("neighborhood", "3", "5")])
    def test_merge_rejects_disagreeing_scoring(self, key, first, other):
        a, b = self._report(), self._report()
        b.leads = (15,)
        a.metadata[key], b.metadata[key] = first, other
        with pytest.raises(ValueError, match=f"reports disagree on {key}: '{first}' and '{other}'"):
            merge_reports([a, b])


class TestEvaluateModels:
    def test_perfect_echo_scores_one(self, tmp_path):
        rng = np.random.default_rng(0)
        fields = [rng.uniform(0, 60, (12, 12)).astype(np.float32) for _ in range(7)]
        sample = _sample(tmp_path, "a", fields)

        def echo(s):
            return read_grid(s.target_path)

        report = evaluate_models([("echo", echo)], [sample])
        assert report.get(5, "Heavy", "CSI", "echo") == 1.0
        assert report.get(5, "Heavy", "FSS", "echo") == pytest.approx(1.0)

    def test_pooled_vs_per_image(self, tmp_path):
        heavy = np.full((8, 8), 10.0, dtype=np.float32)
        calm = np.zeros((8, 8), dtype=np.float32)
        s1 = _sample(tmp_path, "s1", [heavy] * 7)
        s2 = _sample(tmp_path, "s2", [calm] * 6 + [heavy])

        def zero(s):
            return RainGrid(np.zeros((8, 8)), s.target_timestamp)

        pooled = evaluate_models([("zero", zero)], [s1, s2], aggregation="pooled")
        per_image = evaluate_models([("zero", zero)], [s1, s2], aggregation="per-image")
        assert pooled.get(5, "Heavy", "CSI", "zero") == 0.0
        assert per_image.get(5, "Heavy", "CSI", "zero") == 0.0
        assert pooled.metadata["aggregation"] == "pooled"

    def test_mixed_leads_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        fields = [rng.uniform(0, 20, (8, 8)).astype(np.float32) for _ in range(7)]
        a = _sample(tmp_path, "a", fields)
        b = SequenceSample(a.input_timestamps, a.radar_paths, None, 40,
                           a.target_path, 15)
        with pytest.raises(ValueError):
            evaluate_models([("echo", lambda s: read_grid(s.target_path))], [a, b])

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            evaluate_models([("m", lambda s: None)], [])

    def test_even_neighborhood_rejected(self, tmp_path):
        """No table is made with an even neighborhood, and the check comes
        before any predictor runs: a predictor may be a network nowcast."""
        fields = [np.full((8, 8), 10.0, dtype=np.float32)] * 7
        samples = [_sample(tmp_path, name, fields) for name in "abc"]
        calls = []

        def echo(s):
            calls.append(s)
            return read_grid(s.target_path)

        with pytest.raises(ValueError, match="neighborhood size n must be odd and >= 1, got 4"):
            evaluate_models([("echo", echo)], samples, neighborhood=4)
        assert calls == []

    def test_repeated_predictor_name_rejected(self, tmp_path):
        """Two predictors of one name would pool their pairs into one column."""
        fields = [np.full((8, 8), 10.0, dtype=np.float32)] * 7
        sample = _sample(tmp_path, "a", fields)

        def zero(s):
            return RainGrid(np.zeros((8, 8)), s.target_timestamp)

        def echo(s):
            return read_grid(s.target_path)

        with pytest.raises(ValueError, match="two predictors are named 'm'"):
            evaluate_models([("m", zero), ("echo", echo), ("m", echo)], [sample])


def _oracle_scores(pairs, category, n, aggregation):
    """(CSI, FSS) of one category composed from the per-category formulas:
    CSI from `categorize_values` masks, FSS from the [q1, q2) events."""
    tables, components = [], []
    for pred, obs in pairs:
        valid = obs != MISSING
        p = (categorize_values(pred) == category) & valid
        o = (categorize_values(obs) == category) & valid
        tables.append((int(np.sum(p & o)), int(np.sum(p & ~o)), int(np.sum(~p & o))))
        bpp, vp = binary_probability(pred, category.bounds)
        bpo, vo = binary_probability(obs, category.bounds)
        npp, okp = neighborhood_probability(bpp, n, vp)
        npo, oko = neighborhood_probability(bpo, n, vo)
        both = okp & oko
        fp, fo = npp[both], npo[both]
        components.append((float(np.sum((fp - fo) ** 2)), float(np.sum(fp * fp + fo * fo)),
                           int(both.sum())))
    if aggregation == "pooled":
        tp, fp, fn = (sum(t[i] for t in tables) for i in range(3))
        fbs = wfbs = 0.0
        for f, w, _ in components:
            fbs += f
            wfbs += w
        return (tp / (tp + fp + fn) if tp + fp + fn else None,
                1.0 - fbs / wfbs if wfbs > 0 else None)
    csis = [tp / (tp + fp + fn) for tp, fp, fn in tables if tp + fp + fn]
    fsss = [1.0 - (f / count) / (w / count) for f, w, count in components
            if count and w / count != 0.0]
    return (float(np.mean(csis)) if csis else None,
            float(np.mean(fsss)) if fsss else None)


class TestEvaluateModelsOracle:
    """Every score equals, exactly, the one composed per category from the
    CSI and FSS definitions, with missing cells in both fields, dry cells
    (LIGHT FSS events but NO_RAIN codes) and >= 200 mm/h cells (VIOLENT
    codes but no FSS event)."""

    @staticmethod
    def _field(rng, shape=(12, 10)):
        v = rng.uniform(0, 80, shape)
        v[rng.random(shape) < 0.3] = 0.0
        v[rng.random(shape) < 0.1] = rng.choice([2.5, 7.5, 50.0, 200.0, 260.0])
        v[rng.random(shape) < 0.1] = MISSING
        return v.astype(np.float32)

    @pytest.mark.parametrize("aggregation", ["pooled", "per-image"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_per_category_formulas(self, tmp_path, aggregation, n):
        rng = np.random.default_rng(8)
        samples, pairs, preds = [], [], {}
        for k in range(5):
            fields = [self._field(rng) for _ in range(7)]
            s = _sample(tmp_path, f"s{k}", fields)
            s = SequenceSample(tuple(t + 60 * k for t in s.input_timestamps), s.radar_paths,
                               None, s.target_timestamp + 60 * k, s.target_path, 5)
            pred = self._field(rng)
            if k == 0:  # dry where obs rains: LIGHT FSS event in obs only
                pred[fields[6] > 0] = 0.0
            if k == 1:  # 200 mm/h: a VIOLENT code, but not a VIOLENT FSS event
                pred[:4] = 200.0
            preds[s.target_timestamp] = pred
            samples.append(s)
            pairs.append((pred, fields[6]))

        def model(s):
            return RainGrid(preds[s.target_timestamp], s.target_timestamp)

        report = evaluate_models([("m", model)], samples, categories=RAIN_CATEGORIES,
                                 neighborhood=n, aggregation=aggregation)
        for c in RAIN_CATEGORIES:
            want_csi, want_fss = _oracle_scores(pairs, c, n, aggregation)
            assert want_csi is not None and want_fss is not None
            assert report.get(5, c.name.title(), "CSI", "m") == want_csi
            assert report.get(5, c.name.title(), "FSS", "m") == want_fss


def _shifted_sample(tmp_path, k, fields):
    """A sample whose times are shifted by an hour per k."""
    s = _sample(tmp_path, f"s{k}", fields)
    return SequenceSample(tuple(t + 60 * k for t in s.input_timestamps), s.radar_paths,
                          None, s.target_timestamp + 60 * k, s.target_path, 5)


class TestEvaluateModelsBlocks:
    """Sample counts below, at and across the block size score exactly as
    the per-category formulas say, with predictors called once a sample."""

    @pytest.mark.parametrize("aggregation", ["pooled", "per-image"])
    @pytest.mark.parametrize("count", [1, 5, 8, 13])
    def test_counts_around_block_size(self, tmp_path, aggregation, count):
        rng = np.random.default_rng(9)
        samples, pairs, preds = [], [], {}
        for k in range(count):
            fields = [TestEvaluateModelsOracle._field(rng) for _ in range(7)]
            s = _shifted_sample(tmp_path, k, fields)
            preds[s.target_timestamp] = TestEvaluateModelsOracle._field(rng)
            samples.append(s)
            pairs.append((preds[s.target_timestamp], fields[6]))
        calls = Counter()

        def model(s):
            calls[s.target_timestamp] += 1
            return RainGrid(preds[s.target_timestamp], s.target_timestamp)

        shuffled = [samples[i] for i in rng.permutation(count)]
        report = evaluate_models([("m", model)], shuffled, categories=RAIN_CATEGORIES,
                                 neighborhood=3, aggregation=aggregation)
        assert calls == Counter({s.target_timestamp: 1 for s in samples})
        for c in RAIN_CATEGORIES:
            want_csi, want_fss = _oracle_scores(pairs, c, 3, aggregation)
            assert report.get(5, c.name.title(), "CSI", "m") == want_csi
            assert report.get(5, c.name.title(), "FSS", "m") == want_fss

    def test_each_predictor_called_once_per_sample(self, tmp_path):
        rng = np.random.default_rng(10)
        samples = [_shifted_sample(tmp_path, k, [rng.uniform(0, 60, (6, 5)).astype(np.float32)
                                                 for _ in range(7)]) for k in range(11)]
        calls = Counter()

        def predictor(name):
            def predict(s):
                calls[name, s.target_timestamp] += 1
                return read_grid(s.radar_paths[-1])
            return name, predict

        evaluate_models([predictor("a"), predictor("b")], samples)
        assert calls == Counter({(name, s.target_timestamp): 1
                                 for name in "ab" for s in samples})

    def test_wrong_shape_names_predictor_and_target(self, tmp_path):
        rng = np.random.default_rng(11)
        samples = [_shifted_sample(tmp_path, k, [rng.uniform(0, 60, (6, 5)).astype(np.float32)
                                                 for _ in range(7)]) for k in range(3)]

        def bad(s):
            shape = (5, 6) if s is samples[1] else (6, 5)
            return RainGrid(np.zeros(shape), s.target_timestamp)

        with pytest.raises(ValueError, match=r"predictor 'bad' returned shape \(5, 6\) "
                                             r"for target 1970-01-01T01:30Z \(90 min\)"):
            evaluate_models([("bad", bad)], samples)

    def test_negative_rate_rejected(self, tmp_path):
        rng = np.random.default_rng(12)
        samples = [_shifted_sample(tmp_path, 0, [rng.uniform(0, 60, (6, 5)).astype(np.float32)
                                                 for _ in range(7)])]

        def negative(s):
            v = np.zeros((6, 5))
            v[3, 2] = -1.0
            return v

        with pytest.raises(ValueError, match="negative"):
            evaluate_models([("neg", negative)], samples)


def _frozen_aggregation(blocks, aggregation):
    """Per category, (CSI, FSS) formed from the blocks' `score_pairs` arrays
    by the Python loop over per-sample `ContingencyTable`s and (FBS, WFBS,
    count) tuples that `evaluate_models` ran before its scores became
    arrays: pooled adds the samples one by one in sample order, per-image
    averages the applicable per-sample scores."""
    per_sample = [[(ContingencyTable(*t), (f, w, int(c))) for t, (f, w, c) in zip(ts, cs)]
                  for tables, components in blocks
                  for ts, cs in zip(tables.tolist(), components.tolist())]
    scores = []
    for scored in zip(*per_sample):
        if aggregation == "pooled":
            tp = fp = fn = 0
            fbs = wfbs = 0.0
            for t, (f, w, _) in scored:
                tp, fp, fn = tp + t.tp, fp + t.fp, fn + t.fn
                fbs, wfbs = fbs + f, wfbs + w
            scores.append((csi(ContingencyTable(tp, fp, fn)),
                           (1.0 - fbs / wfbs) if wfbs > 0 else None))
        else:
            csis = [x for x in (csi(t) for t, _ in scored) if x is not None]
            fsss = [x for x in (fss_ratio(*c) for _, c in scored) if x is not None]
            scores.append((float(np.mean(csis)) if csis else None,
                           float(np.mean(fsss)) if fsss else None))
    return scores


class TestEvaluateModelsArrays:
    """Pooled and per-image scores equal, with ==, those of the per-sample
    Python loop, over 109 samples in 14 blocks (some with MISSING cells in
    pred or obs, one with an all-MISSING observation), for all four rain
    categories; the dry predictor's VIOLENT scores stay None."""

    @pytest.mark.parametrize("aggregation", ["pooled", "per-image"])
    def test_equals_frozen_python_loop(self, tmp_path, aggregation):
        rng = np.random.default_rng(16)
        count, shape = 109, (10, 8)
        obs = rng.gamma(0.5, 10.0, (count, *shape)).clip(0.0, 49.0)
        obs[rng.random(obs.shape) < 0.3] = 0.0
        obs[rng.random(obs.shape) < 0.1] = rng.choice([2.5, 7.5])
        pred = rng.gamma(0.5, 14.0, (count, *shape))
        pred[rng.random(pred.shape) < 0.3] = 0.0
        pred[rng.random(pred.shape) < 0.1] = rng.choice([2.5, 7.5, 50.0, 200.0, 260.0])
        obs[[3, 40, 41], 2:4, 1] = MISSING
        pred[[3, 70], 5, 3:6] = MISSING
        obs[57] = MISSING
        obs, pred = obs.astype(np.float32), pred.astype(np.float32)
        samples = []
        for k in range(count):
            path = tmp_path / f"obs{k}.rfg"
            write_grid(path, RainGrid(obs[k], 30 + 5 * k))
            samples.append(SequenceSample(tuple(range(5 * k, 5 * k + 30, 5)), ("-",) * 6,
                                          None, 30 + 5 * k, str(path), 5))
        forecasts = {"m": pred, "dry": np.zeros_like(pred)}
        predictors = [(name, lambda s, f=f: f[(s.target_timestamp - 30) // 5])
                      for name, f in forecasts.items()]

        report = evaluate_models(predictors, [samples[i] for i in rng.permutation(count)],
                                 categories=RAIN_CATEGORIES, aggregation=aggregation)
        for name, f in forecasts.items():
            blocks = [score_pairs(f[i:i + _BLOCK], obs[i:i + _BLOCK], RAIN_CATEGORIES)
                      for i in range(0, count, _BLOCK)]
            want = _frozen_aggregation(blocks, aggregation)
            for c, (want_csi, want_fss) in zip(RAIN_CATEGORIES, want):
                assert report.get(5, c.name.title(), "CSI", name) == want_csi
                assert report.get(5, c.name.title(), "FSS", name) == want_fss
            if name == "dry":
                assert want[-1] == (None, None)
            else:
                assert None not in (score for pair in want for score in pair)


# Scores 20 random 64x64 (forecast, observation) pairs in a fresh process,
# three blocks with a ragged last one, and prints the minor faults of the
# second `evaluate_models` call.
_WARM_SCORING_FAULTS = """
import resource, sys
from pathlib import Path
import numpy as np
from rainfusion.grids import RAIN_CATEGORIES, RainGrid, read_grid, write_grid
from rainfusion.pipeline import SequenceSample
from rainfusion.report import evaluate_models

rng, samples = np.random.default_rng(14), []
for k in range(20):
    paths = []
    for tag in ("pred", "obs"):
        path = Path(sys.argv[1]) / f"{tag}{k}.rfg"
        write_grid(path, RainGrid(rng.uniform(0, 80, (64, 64)).astype(np.float32), 0))
        paths.append(str(path))
    samples.append(SequenceSample(tuple(range(0, 30, 5)), (paths[0],) * 6, None,
                                  30 + 5 * k, paths[1], 5))
predictors = [("p", lambda s: read_grid(s.radar_paths[-1]))]
evaluate_models(predictors, samples, categories=RAIN_CATEGORIES)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
evaluate_models(predictors, samples, categories=RAIN_CATEGORIES)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestEvaluateModelsMemory:
    def test_peak_does_not_grow_with_sample_count(self, tmp_path):
        """Samples are scored block by block, so the traced peak of 64
        samples stays within 1.25x that of 16 samples."""
        rng = np.random.default_rng(13)
        samples = []
        for k in range(64):
            paths = []
            for tag in ("pred", "obs"):
                path = tmp_path / f"{tag}{k}.rfg"
                write_grid(path, RainGrid(rng.uniform(0, 80, (64, 64)).astype(np.float32), 0))
                paths.append(str(path))
            samples.append(SequenceSample(tuple(range(0, 30, 5)), (paths[0],) * 6, None,
                                          30 + 5 * k, paths[1], 5))

        def persistence(s):
            return read_grid(s.radar_paths[-1])

        def peak(subset):
            tracemalloc.start()
            try:
                evaluate_models([("p", persistence)], subset, categories=RAIN_CATEGORIES)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(samples[:16])  # warm-up
        small, large = peak(samples[:16]), peak(samples)
        assert large <= 1.25 * small, (small, large)

    @pytest.mark.skipif(not _glibc(), reason="only glibc's malloc thresholds are pinned")
    def test_warm_call_faults_in_no_pages(self, tmp_path):
        """A second `evaluate_models` call in a fresh process reuses the
        pages that the first freed: scoring pins the malloc thresholds
        itself, where nothing else in the process has.  About 10 minor
        faults, against 300 to 500 with the thresholds left dynamic."""
        path = os.pathsep.join([str(Path(rainfusion.__file__).parents[1]),
                                *filter(None, [os.environ.get("PYTHONPATH")])])
        run = subprocess.run([sys.executable, "-c", _WARM_SCORING_FAULTS, str(tmp_path)],
                             env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                             text=True, timeout=120, check=True)
        assert int(run.stdout) < 50


class TestRenderMap:
    def test_all_zero_grid_is_white(self, tmp_path):
        p = tmp_path / "map.ppm"
        render_map(RainGrid(np.zeros((4, 5))), p)
        blob = p.read_bytes()
        assert blob.startswith(b"P6\n5 4\n255\n")
        pixels = blob.split(b"255\n", 1)[1]
        assert pixels == bytes([255, 255, 255] * 20)

    def test_category_colors(self):
        vals = np.array([[0.0, 1.0, 5.0], [20.0, 55.0, -999.0]])
        img = render_rgb(RainGrid(vals))
        assert tuple(img[0, 0]) == PALETTE[PrecipCategory.NO_RAIN]
        assert tuple(img[0, 1]) == PALETTE[PrecipCategory.LIGHT]
        assert tuple(img[0, 2]) == PALETTE[PrecipCategory.MODERATE]
        assert tuple(img[1, 0]) == PALETTE[PrecipCategory.HEAVY]
        assert tuple(img[1, 1]) == PALETTE[PrecipCategory.VIOLENT]  # 55 mm/h is red
        assert tuple(img[1, 2]) == PALETTE[PrecipCategory.MISSING]

    def test_deterministic_bytes(self, tmp_path):
        vals = np.random.default_rng(2).uniform(0, 60, (6, 6))
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        render_map(RainGrid(vals), a)
        render_map(RainGrid(vals), b)
        assert a.read_bytes() == b.read_bytes()
