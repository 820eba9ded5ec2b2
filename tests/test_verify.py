import numpy as np
import pytest
from hypothesis import given, strategies as st

from rainfusion.grids import MISSING, PrecipCategory, RainGrid, categorize_values
from rainfusion.verify import (
    ContingencyTable,
    FssParams,
    binary_probability,
    contingency,
    csi,
    fss,
    fss_bruteforce,
    fss_components,
    fss_ratio,
    neighborhood_probability,
    score_pairs,
)

HEAVY = PrecipCategory.HEAVY


class TestContingency:
    def test_perfect_prediction(self):
        vals = np.array([[10.0, 0.0], [60.0, 8.0]])
        t = contingency(vals, vals, HEAVY)
        assert t.fp == 0 and t.fn == 0
        assert t.tp == 2 and t.tn == 2

    def test_all_missing_observation(self):
        obs = np.full((3, 3), MISSING)
        pred = np.full((3, 3), 10.0)
        t = contingency(pred, obs, HEAVY)
        assert t == ContingencyTable(0, 0, 0, 0)

    def test_two_by_two_enumeration(self):
        pred = np.array([[10.0, 10.0], [1.0, 1.0]])
        obs = np.array([[10.0, 1.0], [10.0, 1.0]])
        t = contingency(pred, obs, HEAVY)
        assert (t.tp, t.fp, t.fn, t.tn) == (1, 1, 1, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contingency(np.zeros((2, 2)), np.zeros((2, 3)), HEAVY)

    def test_counts_cover_valid_cells(self):
        rng = np.random.default_rng(0)
        obs = rng.uniform(0, 60, (8, 8))
        obs[rng.random((8, 8)) < 0.2] = MISSING
        pred = rng.uniform(0, 60, (8, 8))
        t = contingency(pred, obs, HEAVY)
        assert t.tp + t.fp + t.fn + t.tn == int((obs != MISSING).sum())


class TestCsi:
    def test_spec_examples(self):
        assert csi(ContingencyTable(tp=1, fp=0, fn=0)) == 1.0
        assert csi(ContingencyTable(tp=0, fp=3, fn=2)) == 0.0
        assert csi(ContingencyTable(tp=2, fp=1, fn=1)) == 0.5

    def test_not_applicable_distinct_from_zero(self):
        assert csi(ContingencyTable(tn=99)) is None

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    def test_bounded_and_monotone(self, tp, fp, fn):
        score = csi(ContingencyTable(tp, fp, fn))
        if score is not None:
            assert 0.0 <= score <= 1.0
            worse = csi(ContingencyTable(tp, fp + 1, fn))
            assert worse <= score


class TestBinaryProbability:
    def test_boundary_cases(self):
        q1, q2 = HEAVY.bounds
        bp, valid = binary_probability(np.array([[q1, q2, MISSING]]), (q1, q2))
        assert bp[0, 0] == 1  # F = q1 is in
        assert bp[0, 1] == 0  # F = q2 is out (strict upper bound)
        assert not valid[0, 2]

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            binary_probability(np.zeros((2, 2)), (5.0, 5.0))

    def test_events_differ_from_codes_at_0_and_200(self):
        # FSS events are q1 <= F < q2: 0.0 is a LIGHT event but a NO_RAIN
        # code, and 200 mm/h and above are VIOLENT codes but no event
        v = np.array([[0.0, 200.0, 250.0]])
        assert categorize_values(v).tolist() == [[0, 4, 4]]
        assert binary_probability(v, PrecipCategory.LIGHT.bounds)[0].tolist() == [[1, 0, 0]]
        assert binary_probability(v, PrecipCategory.VIOLENT.bounds)[0].tolist() == [[0, 0, 0]]


class TestNeighborhoodProbability:
    def test_n1_is_identity(self):
        rng = np.random.default_rng(1)
        bp = (rng.random((6, 6)) < 0.4).astype(np.int64)
        np_vals, np_valid = neighborhood_probability(bp, 1)
        np.testing.assert_array_equal(np_vals, bp)
        assert np_valid.all()

    def test_all_ones(self):
        for n in (1, 3, 5):
            np_vals, _ = neighborhood_probability(np.ones((5, 5), dtype=np.int64), n)
            np.testing.assert_array_equal(np_vals, 1.0)

    def test_shrunken_windows_hand_case(self):
        # single event in the middle of 3x3, n=3: windows shrink at borders
        bp = np.zeros((3, 3), dtype=np.int64)
        bp[1, 1] = 1
        np_vals, _ = neighborhood_probability(bp, 3)
        assert np_vals[0, 0] == pytest.approx(1 / 4)
        assert np_vals[0, 1] == pytest.approx(1 / 6)
        assert np_vals[1, 1] == pytest.approx(1 / 9)

    def test_values_bounded(self):
        rng = np.random.default_rng(2)
        bp = (rng.random((9, 7)) < 0.5).astype(np.int64)
        np_vals, _ = neighborhood_probability(bp, 5)
        assert np_vals.min() >= 0.0 and np_vals.max() <= 1.0

    def test_stack_matches_slices(self):
        rng = np.random.default_rng(6)
        stack = (rng.random((4, 9, 7)) < 0.4).astype(np.int64)
        valid = rng.random((9, 7)) > 0.2
        for n in (1, 3, 5):
            for mask in (valid, None):
                vals, ok = neighborhood_probability(stack, n, mask)
                assert vals.shape == stack.shape and ok.shape == (9, 7)
                for k in range(len(stack)):
                    vals_k, ok_k = neighborhood_probability(stack[k], n, mask)
                    np.testing.assert_array_equal(vals[k], vals_k)
                    np.testing.assert_array_equal(ok, ok_k)

    def test_per_sample_masks_match_slices(self):
        rng = np.random.default_rng(12)
        bp = (rng.random((3, 4, 9, 7)) < 0.4).astype(np.int8)
        valid = rng.random((3, 1, 9, 7)) > 0.2
        valid[1] = False  # a sample with no valid cell
        for n in (1, 3, 5, 11):
            vals, ok = neighborhood_probability(bp, n, valid)
            assert vals.shape == bp.shape and ok.shape == valid.shape
            for s in range(3):
                for k in range(4):
                    vals_k, ok_k = neighborhood_probability(bp[s, k], n, valid[s, 0])
                    np.testing.assert_array_equal(vals[s, k], vals_k)
                    np.testing.assert_array_equal(ok[s, 0], ok_k)
            assert not ok[1].any() and not vals[1].any()

    def test_per_sample_masks_agree_with_bruteforce(self):
        rng = np.random.default_rng(13)
        pred = np.stack([_random_field(rng, (11, 8)) for _ in range(4)])
        obs = np.stack([_random_field(rng, (11, 8)) for _ in range(4)])
        checked = 0
        for n in (1, 3, 5):
            for cat in (PrecipCategory.LIGHT, HEAVY):
                params = FssParams.for_category(cat, n=n)
                stacks = []
                for fields in (pred, obs):
                    bp, valid = zip(*(binary_probability(f, cat.bounds) for f in fields))
                    stacks.append(neighborhood_probability(
                        np.stack(bp)[:, None], n, np.stack(valid)[:, None]))
                (npp, vp), (npo, vo) = stacks
                for s in range(len(pred)):
                    pair = vp[s, 0] & vo[s, 0]
                    p, o = npp[s, 0][pair], npo[s, 0][pair]
                    got = fss_ratio(float(np.sum((p - o) ** 2)), float(np.sum(p * p + o * o)),
                                    int(pair.sum()))
                    want = fss_bruteforce(pred[s], obs[s], params)
                    if want is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(want, abs=1e-9)
                        checked += 1
        assert checked > 10

    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            neighborhood_probability(np.zeros((3, 3), dtype=np.int64), 2)


def _random_field(rng, shape=(16, 16), missing_frac=0.05):
    v = rng.uniform(0, 200, shape)
    v[rng.random(shape) < 0.35] = 0.0
    v[rng.random(shape) < missing_frac] = MISSING
    return v


class TestFss:
    def test_perfect_match(self):
        vals = np.zeros((6, 6))
        vals[2, 3] = 10.0
        vals[4, 4] = 20.0
        assert fss(vals, vals, FssParams.for_category(HEAVY)) == pytest.approx(1.0)

    def test_distant_events_zero(self):
        obs = np.zeros((9, 9))
        pred = np.zeros((9, 9))
        obs[0, 0] = 10.0
        pred[8, 8] = 10.0
        assert fss(pred, obs, FssParams.for_category(HEAVY)) == pytest.approx(0.0)

    def test_displaced_event_frozen_oracle_value(self):
        # 5x5, obs at (1,1), pred at (2,2), n=3: exact value 128/433 from the
        # pre-build brute-force evaluation over shrunken windows
        obs = np.zeros((5, 5))
        pred = np.zeros((5, 5))
        obs[1, 1] = 10.0
        pred[2, 2] = 10.0
        params = FssParams.for_category(HEAVY)
        expected = 128.0 / 433.0
        assert fss(pred, obs, params) == pytest.approx(expected, abs=1e-12)
        assert fss_bruteforce(pred, obs, params) == pytest.approx(expected, abs=1e-12)

    def test_not_applicable_when_no_events(self):
        z = np.zeros((4, 4))
        assert fss(z, z, FssParams.for_category(HEAVY)) is None
        assert fss_bruteforce(z, z, FssParams.for_category(HEAVY)) is None

    def test_all_missing_not_applicable(self):
        m = np.full((4, 4), MISSING)
        assert fss(m, m, FssParams.for_category(HEAVY)) is None

    def test_neighborhood_covering_domain(self):
        # n spanning the grid with equal event counts -> both NP fields equal
        obs = np.zeros((4, 4))
        pred = np.zeros((4, 4))
        obs[0, 1] = 10.0
        pred[3, 2] = 10.0
        params = FssParams.for_category(HEAVY, n=9)
        assert fss(pred, obs, params) == pytest.approx(1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = _random_field(rng), _random_field(rng)
            params = FssParams.for_category(HEAVY)
            x, y = fss(a, b, params), fss(b, a, params)
            if x is None:
                assert y is None
            else:
                assert x == pytest.approx(y, abs=1e-12)

    def test_binarization_invariance(self):
        # any value change that keeps Eq-style thresholding fixed keeps FSS
        obs = np.array([[10.0, 0.0], [20.0, 49.0]])
        pred = np.array([[8.0, 1.0], [0.0, 30.0]])
        params = FssParams.for_category(HEAVY)
        a = fss(pred, obs, params)
        obs2 = np.array([[45.0, 2.0], [7.5, 8.0]])   # same in/out pattern
        pred2 = np.array([[49.9, 0.0], [2.4, 12.0]])
        assert fss(pred2, obs2, params) == pytest.approx(a, abs=1e-12)

    def test_matches_bruteforce_randomized(self):
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(40):
            pred, obs = _random_field(rng), _random_field(rng)
            for n in (1, 3, 5):
                for cat in (PrecipCategory.LIGHT, HEAVY):
                    params = FssParams.for_category(cat, n=n)
                    a = fss(pred, obs, params)
                    b = fss_bruteforce(pred, obs, params)
                    if a is None:
                        assert b is None
                    else:
                        assert a == pytest.approx(b, abs=1e-9)
                        checked += 1
        assert checked > 50

    def test_components_recompose(self):
        rng = np.random.default_rng(5)
        pred, obs = _random_field(rng), _random_field(rng)
        params = FssParams.for_category(HEAVY)
        fbs_sum, wfbs_sum, count = fss_components(pred, obs, params)
        assert count > 0
        assert fss(pred, obs, params) == pytest.approx(1 - fbs_sum / wfbs_sum)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FssParams(5.0, 5.0)
        with pytest.raises(ValueError):
            FssParams(0.0, 1.0, n=4)
        with pytest.raises(ValueError):
            fss(np.zeros((2, 2)), np.zeros((3, 3)), FssParams(0.0, 1.0))


class TestScorePair:
    def test_matches_single_category_views(self):
        rng = np.random.default_rng(7)
        pred, obs = _random_field(rng), _random_field(rng)
        pred[0, :3] = (0.0, 200.0, MISSING)
        categories = (PrecipCategory.LIGHT, PrecipCategory.MODERATE, HEAVY,
                      PrecipCategory.VIOLENT)
        scored = score_pairs(pred[None], obs[None], categories, n=5)[0]
        assert len(scored) == len(categories)
        for c, (table, components) in zip(categories, scored):
            assert table == contingency(pred, obs, c)
            assert components == fss_components(pred, obs, FssParams.for_category(c, n=5))

    def test_no_categories(self):
        assert score_pairs(np.zeros((1, 3, 3)), np.zeros((1, 3, 3)), ()) == [[]]


ALL_CATEGORIES = (PrecipCategory.LIGHT, PrecipCategory.MODERATE, HEAVY, PrecipCategory.VIOLENT)


def _field_stack(rng, samples, shape=(12, 10)):
    """Rain with dry cells, category edges, >= 200 mm/h and MISSING cells."""
    v = rng.uniform(0, 80, (samples, *shape))
    v[rng.random(v.shape) < 0.3] = 0.0
    v[rng.random(v.shape) < 0.1] = rng.choice([2.5, 7.5, 50.0, 200.0, 260.0])
    v[rng.random(v.shape) < 0.1] = MISSING
    return v.astype(np.float32)


class TestScorePairs:
    @pytest.mark.parametrize("n", [1, 3, 5, 9, 25])
    def test_equals_per_sample_score_pair(self, n):
        # n = 25 is wider than the 12 x 10 grid
        rng = np.random.default_rng(11)
        pred, obs = _field_stack(rng, 5), _field_stack(rng, 5)
        obs[2] = MISSING  # nothing to score in sample 2
        stacked = score_pairs(pred, obs, ALL_CATEGORIES, n)
        assert len(stacked) == 5
        for s in range(5):
            assert stacked[s] == score_pairs(pred[s:s + 1], obs[s:s + 1], ALL_CATEGORIES, n)[0]
        for table, components in stacked[2]:
            assert table == ContingencyTable() and components == (0.0, 0.0, 0)
            assert csi(table) is None and fss_ratio(*components) is None

    @pytest.mark.parametrize("n", [1, 5])
    def test_agrees_with_per_category_definitions(self, n):
        rng = np.random.default_rng(14)
        pred, obs = _field_stack(rng, 6), _field_stack(rng, 6)
        for s, scored in enumerate(score_pairs(pred, obs, ALL_CATEGORIES, n)):
            valid = obs[s] != MISSING
            for c, (table, components) in zip(ALL_CATEGORIES, scored):
                p = (categorize_values(pred[s]) == c) & valid
                o = (categorize_values(obs[s]) == c) & valid
                assert (table.tp, table.fp, table.fn, table.tn) == (
                    np.sum(p & o), np.sum(p & ~o), np.sum(~p & o), np.sum(~p & ~o & valid))
                want = fss_bruteforce(pred[s], obs[s], FssParams.for_category(c, n))
                got = fss_ratio(*components)
                assert got == want or got == pytest.approx(want, abs=1e-9)

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="3-D"):
            score_pairs(np.zeros((3, 3)), np.zeros((3, 3)), ALL_CATEGORIES)
        with pytest.raises(ValueError, match="mismatch"):
            score_pairs(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)), ALL_CATEGORIES)

    def test_negative_rate_rejected(self):
        pred = np.zeros((2, 4, 4))
        pred[1, 2, 3] = -1.0
        with pytest.raises(ValueError, match="negative"):
            score_pairs(pred, np.zeros((2, 4, 4)), ALL_CATEGORIES)


def _window_sums(a, n):
    """Exact n x n window sums over the last two axes, zeros outside the
    domain: the n * n shifted slices of one zero-padded int64 copy."""
    h = n // 2
    rows, cols = a.shape[-2:]
    padded = np.zeros((*a.shape[:-2], rows + 2 * h, cols + 2 * h), dtype=np.int64)
    padded[..., h:h + rows, h:h + cols] = a
    return sum(padded[..., i:i + rows, j:j + cols] for i in range(n) for j in range(n))


def _masked_np(bp, n, valid):
    """Neighborhood probability and mask as the masked path forms them."""
    counts = _window_sums(valid, n)
    return _window_sums(bp * valid, n) / np.maximum(counts, 1), counts > 0


def _fss_oracle(pred, obs, categories, n):
    """Per sample and category, (FBS, WFBS, pair count) from one np.compress
    gather of the paired cells and one 1-D np.sum per sample and category."""
    out = []
    for p, o in zip(pred, obs):
        vp, vo = p != MISSING, o != MISSING
        pair = ((_window_sums(vp, n) > 0) & (_window_sums(vo, n) > 0)).ravel()
        row = []
        for q1, q2 in (c.bounds for c in categories):
            npp, npo = (_masked_np((v >= q1) & (v < q2) & valid, n, valid)[0].ravel()
                        for v, valid in ((p, vp), (o, vo)))
            a, b = np.compress(pair, npp), np.compress(pair, npo)
            row.append((float(np.sum((a - b) ** 2)), float(np.sum(a * a + b * b)),
                        int(pair.sum())))
        out.append(row)
    return out


def _rain_stack(rng, samples, shape):
    """Rain with dry cells, category edges and >= 200 mm/h, no MISSING cell."""
    v = rng.gamma(0.6, 12.0, (samples, *shape))
    v[rng.random(v.shape) < 0.3] = 0.0
    v[rng.random(v.shape) < 0.1] = rng.choice([2.5, 7.5, 50.0, 200.0, 260.0])
    return v.astype(np.float32)


class TestAllValidPath:
    """Blocks with no missing cell share one window-count box sum and sum
    FBS/WFBS in one reduction; the numbers must equal the per-sample path's
    bit for bit."""

    @pytest.mark.parametrize("missing", [None, "obs", "pred"])
    @pytest.mark.parametrize("shape", [(12, 10), (2, 3)])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_components_equal_per_sample_oracle(self, n, shape, missing):
        # (2, 3) is smaller than the 3 x 3 and 5 x 5 windows
        rng = np.random.default_rng(21)
        for samples in (1, 5):
            pred, obs = _rain_stack(rng, samples, shape), _rain_stack(rng, samples, shape)
            if missing is not None:
                field = obs if missing == "obs" else pred
                field[samples - 1, 0, 1] = MISSING
            for categories in ((), ALL_CATEGORIES):
                got = [[components for _, components in scored]
                       for scored in score_pairs(pred, obs, categories, n)]
                assert got == _fss_oracle(pred, obs, categories, n)

    @pytest.mark.parametrize("n", [1, 3, 5, 9])
    def test_neighborhood_probability_equals_masked_path(self, n):
        rng = np.random.default_rng(22)
        bp = (rng.random((3, 4, 7, 6)) < 0.4).astype(np.int8)
        for valid in (np.ones((3, 1, 7, 6), dtype=bool), np.ones((7, 6), dtype=bool), None):
            vals, ok = neighborhood_probability(bp, n, valid)
            want, want_ok = _masked_np(bp, n, np.ones((7, 6), dtype=bool) if valid is None
                                       else valid)
            assert vals.dtype == want.dtype and np.array_equal(vals, want)
            assert ok.shape == want_ok.shape and ok.all() and want_ok.all()

