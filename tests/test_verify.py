from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rainfusion import verify
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
from rainfusion.verify import _box_sums, _tables

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

    def test_oracle_thresholds_on_its_own(self, monkeypatch):
        """`fss_bruteforce` shares no thresholding with `fss`: with the
        events of `_events` moved to q1 < F <= q2, `fss` moves on a pair
        with cells at both HEAVY edges, and the oracle does not."""
        rng = np.random.default_rng(5)
        pred, obs = (rng.choice([0.0, 7.5, 20.0, 50.0], size=(16, 16)) for _ in range(2))
        params = FssParams.for_category(HEAVY)
        want = fss_bruteforce(pred, obs, params)
        assert fss(pred, obs, params) == pytest.approx(want, abs=1e-12)

        def wrong_edges(v, bounds):
            valid = (v != MISSING)[..., None, :, :]
            bp = np.stack([(v > q1) & (v <= q2) for q1, q2 in bounds], axis=-3) & valid
            return bp.astype(np.int8), valid

        monkeypatch.setattr(verify, "_events", wrong_edges)
        assert fss_bruteforce(pred, obs, params) == want
        assert abs(fss(pred, obs, params) - want) > 1e-3

    @pytest.mark.parametrize("name", ["fss_ratio", "_fss_sums"])
    def test_oracle_sums_and_divides_on_its_own(self, monkeypatch, name):
        """`fss_bruteforce` shares neither the sums nor the ratio with `fss`:
        with FBS halved in `fss_ratio` or in `_fss_sums`, `fss` moves on a
        pair with a missing cell (the path that sums with `_fss_sums`), and
        the oracle does not."""
        rng = np.random.default_rng(5)
        pred, obs = (rng.choice([0.0, 7.5, 20.0, 50.0], size=(16, 16)) for _ in range(2))
        obs[4, 9] = MISSING
        params = FssParams.for_category(HEAVY)
        want = fss_bruteforce(pred, obs, params)
        assert fss(pred, obs, params) == pytest.approx(want, abs=1e-12)
        right = getattr(verify, name)
        if name == "fss_ratio":
            def wrong(fbs, wfbs, count):
                return right(fbs / 2, wfbs, count)
        else:
            def wrong(npp, npo, pair):
                return [(fbs / 2, wfbs, count) for fbs, wfbs, count in right(npp, npo, pair)]
        monkeypatch.setattr(verify, name, wrong)
        assert fss_bruteforce(pred, obs, params) == want
        assert abs(fss(pred, obs, params) - want) > 1e-3

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
        tables, components = score_pairs(pred[None], obs[None], categories, n=5)
        assert tables.shape == (1, len(categories), 4) and tables.dtype == np.int64
        assert components.shape == (1, len(categories), 3) and components.dtype == np.float64
        for c, table, row in zip(categories, tables[0], components[0]):
            single = contingency(pred, obs, c)
            assert type(single) is ContingencyTable
            assert (single.tp, single.fp, single.fn, single.tn) == tuple(table.tolist())
            fbs, wfbs, count = fss_components(pred, obs, FssParams.for_category(c, n=5))
            assert type(fbs) is float and type(wfbs) is float and type(count) is int
            assert (fbs, wfbs, count) == tuple(row.tolist())

    def test_no_categories(self):
        tables, components = score_pairs(np.zeros((1, 3, 3)), np.zeros((1, 3, 3)), ())
        assert tables.shape == (1, 0, 4) and components.shape == (1, 0, 3)


ALL_CATEGORIES = (PrecipCategory.LIGHT, PrecipCategory.MODERATE, HEAVY, PrecipCategory.VIOLENT)


def _field_stack(rng, samples, shape=(12, 10)):
    """Rain with dry cells, category edges, >= 200 mm/h and MISSING cells."""
    v = rng.uniform(0, 80, (samples, *shape))
    v[rng.random(v.shape) < 0.3] = 0.0
    v[rng.random(v.shape) < 0.1] = rng.choice([2.5, 7.5, 50.0, 200.0, 260.0])
    v[rng.random(v.shape) < 0.1] = MISSING
    return v.astype(np.float32)


def _gather_tables(pred, obs):
    """Per sample, the (6, 6) counts of (pred code + 1, obs code + 1) pairs
    over the cells not missing in obs, gathered with a boolean mask."""
    out = []
    for p, o in zip(pred, obs):
        valid = o != MISSING
        pc, oc = (categorize_values(v)[valid].astype(np.intp) + 1 for v in (p, o))
        out.append(np.bincount(pc * 6 + oc, minlength=36).reshape(6, 6))
    return out


class TestTables:
    @pytest.mark.parametrize("missing", ["none", "one sample", "whole sample"])
    def test_counts_equal_gather_path(self, missing):
        rng = np.random.default_rng(25)
        pred, obs = _rain_stack(rng, 4, (9, 7)), _rain_stack(rng, 4, (9, 7))
        pred[0, 2, :3] = MISSING
        if missing == "one sample":
            obs[1, rng.random((9, 7)) < 0.3] = MISSING
        elif missing == "whole sample":
            obs[2] = MISSING
        tables = _tables(pred, obs, (PrecipCategory.NO_RAIN, *ALL_CATEGORIES))
        assert tables.shape == (4, 5, 4) and tables.dtype == np.int64
        for s, joint in enumerate(_gather_tables(pred, obs)):
            for i, table in enumerate(tables[s], start=1):
                tp = int(joint[i, i])
                want = (tp, int(joint[i].sum()) - tp, int(joint[:, i].sum()) - tp)
                want += (int(joint.sum()) - sum(want),)
                assert tuple(table.tolist()) == want
        if missing == "whole sample":
            assert tables[2].tolist() == [[0, 0, 0, 0]] * 5

    @pytest.mark.parametrize("samples", [3, 4, 910, 911])
    def test_sample_shift_type_edges(self, samples):
        # The per-sample shift 36 * s fits int8 up to 3 samples and int16
        # up to 910; one more sample needs the next type.
        rng = np.random.default_rng(27)
        pred, obs = _field_stack(rng, samples, (3, 2)), _field_stack(rng, samples, (3, 2))
        tables = _tables(pred, obs, ALL_CATEGORIES)
        for table, joint in zip(tables, _gather_tables(pred, obs)):
            i = [int(c) + 1 for c in ALL_CATEGORIES]
            tp = joint[i, i]
            fp, fn = joint.sum(axis=1)[i] - tp, joint.sum(axis=0)[i] - tp
            want = np.stack([tp, fp, fn, joint.sum() - tp - fp - fn], axis=-1)
            assert table.tolist() == want.tolist()


class TestScorePairs:
    @pytest.mark.parametrize("n", [1, 3, 5, 9, 25])
    def test_equals_per_sample_score_pair(self, n):
        # n = 25 is wider than the 12 x 10 grid
        rng = np.random.default_rng(11)
        pred, obs = _field_stack(rng, 5), _field_stack(rng, 5)
        obs[2] = MISSING  # nothing to score in sample 2
        tables, components = score_pairs(pred, obs, ALL_CATEGORIES, n)
        assert tables.shape == (5, 4, 4) and components.shape == (5, 4, 3)
        for s in range(5):
            alone = score_pairs(pred[s:s + 1], obs[s:s + 1], ALL_CATEGORIES, n)
            assert tables[s].tolist() == alone[0][0].tolist()
            assert components[s].tolist() == alone[1][0].tolist()
        for table, row in zip(tables[2], components[2]):
            assert table.tolist() == [0, 0, 0, 0] and row.tolist() == [0.0, 0.0, 0.0]
            assert csi(ContingencyTable(*table.tolist())) is None
            assert fss_ratio(*row.tolist()) is None

    @pytest.mark.parametrize("n", [1, 5])
    def test_agrees_with_per_category_definitions(self, n):
        rng = np.random.default_rng(14)
        pred, obs = _field_stack(rng, 6), _field_stack(rng, 6)
        tables, components = score_pairs(pred, obs, ALL_CATEGORIES, n)
        for s in range(6):
            valid = obs[s] != MISSING
            for c, table, row in zip(ALL_CATEGORIES, tables[s], components[s]):
                p = (categorize_values(pred[s]) == c) & valid
                o = (categorize_values(obs[s]) == c) & valid
                assert tuple(table.tolist()) == (
                    np.sum(p & o), np.sum(p & ~o), np.sum(~p & o), np.sum(~p & ~o & valid))
                want = fss_bruteforce(pred[s], obs[s], FssParams.for_category(c, n))
                got = fss_ratio(*row.tolist())
                assert got == want or got == pytest.approx(want, abs=1e-9)

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="3-D"):
            score_pairs(np.zeros((3, 3)), np.zeros((3, 3)), ALL_CATEGORIES)
        with pytest.raises(ValueError, match="mismatch"):
            score_pairs(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)), ALL_CATEGORIES)

    @pytest.mark.parametrize("missing", [False, True], ids=["all-valid", "masked"])
    @pytest.mark.parametrize("n", [0, 2, 4, -1])
    def test_rejects_bad_neighborhood(self, n, missing):
        """An even or non-positive `n` is rejected on both paths, with the
        message of `FssParams` and `neighborhood_probability`."""
        rng = np.random.default_rng(6)
        pred, obs = (_random_field(rng, missing_frac=0.0)[None] for _ in range(2))
        if missing:
            obs[0, 3, 4] = MISSING
        message = f"neighborhood size n must be odd and >= 1, got {n}"
        with pytest.raises(ValueError, match=message):
            score_pairs(pred, obs, ALL_CATEGORIES, n)
        with pytest.raises(ValueError, match=message):
            FssParams(0.0, 1.0, n=n)
        with pytest.raises(ValueError, match=message):
            neighborhood_probability(np.zeros((3, 3), dtype=np.int8), n)

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


def _table_window_sums(a, n):
    """The sums of `_window_sums` from an int64 summed-area table, which
    costs the same at any n."""
    h = n // 2
    rows, cols = a.shape[-2:]
    table = np.zeros((*a.shape[:-2], rows + 1, cols + 1), dtype=np.int64)
    table[..., 1:, 1:] = a.cumsum(axis=-2, dtype=np.int64).cumsum(axis=-1)
    r0, r1 = (np.clip(np.arange(rows) + d, 0, rows)[:, None] for d in (-h, h + 1))
    c0, c1 = (np.clip(np.arange(cols) + d, 0, cols) for d in (-h, h + 1))
    return table[..., r1, c1] - table[..., r0, c1] - table[..., r1, c0] + table[..., r0, c0]


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


# Relative bound on the all-valid FBS/WFBS sums: they weight exact integer
# sums by 1 / count², so their float operations differ from the masked path's.
ALL_VALID_RTOL = 1e-14


def _rows(components):
    """An (S, k, 3) component array as lists of the (FBS, WFBS, count)
    tuples of each sample and category: the oracles' form."""
    return [[tuple(c) for c in row] for row in components.tolist()]


def _assert_components_close(got, want):
    assert len(got) == len(want)
    for row_got, row_want in zip(got, want):
        assert len(row_got) == len(row_want)
        for (f, w, c), (f_want, w_want, c_want) in zip(row_got, row_want):
            assert c == c_want
            assert f == pytest.approx(f_want, rel=ALL_VALID_RTOL, abs=0)
            assert w == pytest.approx(w_want, rel=ALL_VALID_RTOL, abs=0)


def _fraction_oracle(pred, obs, categories, n):
    """Per sample and category of stacks with no missing cell, the exact
    (FBS, WFBS) as Fractions: sum (Sp - So)² / c² and (Sp² + So²) / c² cell
    by cell, over int64 window sums Sp, So and window counts c."""
    counts = _table_window_sums(np.ones(pred.shape[1:], dtype=np.int64), n).ravel().tolist()
    out = []
    for p, o in zip(pred, obs):
        row = []
        for q1, q2 in (c.bounds for c in categories):
            sp, so = (_table_window_sums((v >= q1) & (v < q2), n).ravel().tolist()
                      for v in (p, o))
            row.append((sum(Fraction((a - b) ** 2, c * c) for a, b, c in zip(sp, so, counts)),
                        sum(Fraction(a * a + b * b, c * c) for a, b, c in zip(sp, so, counts))))
        out.append(row)
    return out


class TestAllValidPath:
    """Blocks with no missing cell sum FBS/WFBS from integer window sums;
    at n > 1 the numbers must equal the per-sample path's to ALL_VALID_RTOL.
    At n = 1 (0/1 sums, count 1) and in blocks with a missing cell they
    stay bit for bit."""

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
                got = _rows(score_pairs(pred, obs, categories, n)[1])
                if missing is None and n > 1:
                    _assert_components_close(got, _fss_oracle(pred, obs, categories, n))
                else:
                    assert got == _fss_oracle(pred, obs, categories, n)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_samples_equal_scoring_alone(self, n):
        rng = np.random.default_rng(26)
        pred, obs = _rain_stack(rng, 5, (12, 10)), _rain_stack(rng, 5, (12, 10))
        tables, components = score_pairs(pred, obs, ALL_CATEGORIES, n)
        for s in range(5):
            alone = score_pairs(pred[s:s + 1], obs[s:s + 1], ALL_CATEGORIES, n)
            assert tables[s].tolist() == alone[0][0].tolist()
            assert components[s].tolist() == alone[1][0].tolist()
        # A missing cell sends its whole block down the masked path: the
        # sample that holds it still equals scoring it alone bit for bit,
        # and the samples with no missing cell agree to ALL_VALID_RTOL.
        obs[2, 3, 4] = MISSING
        tables, components = score_pairs(pred, obs, ALL_CATEGORIES, n)
        for s in range(5):
            alone_tables, alone_components = score_pairs(pred[s:s + 1], obs[s:s + 1],
                                                         ALL_CATEGORIES, n)
            assert tables[s].tolist() == alone_tables[0].tolist()
            if s == 2 or n == 1:
                assert components[s].tolist() == alone_components[0].tolist()
            else:
                _assert_components_close(_rows(components[s:s + 1]), _rows(alone_components))

    @pytest.mark.parametrize("shape", [(12, 10), (2, 3), (4, 2), (1, 1), (7, 5)])
    @pytest.mark.parametrize("n", [1, 3, 5, 13, 101])
    def test_components_match_fraction_oracle(self, n, shape):
        # (2, 3) at n = 3 and 5, and every shape at n >= 13, are grids that
        # a window spans from border to border; (4, 2) is 2h long at n = 3
        # (cols) and n = 5 (rows); n = 101 sums in int64
        rng = np.random.default_rng(23)
        pred, obs = _rain_stack(rng, 4, shape), _rain_stack(rng, 4, shape)
        components = _rows(score_pairs(pred, obs, ALL_CATEGORIES, n)[1])
        for row, exact in zip(components, _fraction_oracle(pred, obs, ALL_CATEGORIES, n)):
            for (fbs, wfbs, count), (fbs_exact, wfbs_exact) in zip(row, exact):
                assert count == shape[0] * shape[1]
                for got, want in ((fbs, fbs_exact), (wfbs, wfbs_exact)):
                    assert abs(Fraction(got) - want) <= ALL_VALID_RTOL * want

    @pytest.mark.parametrize("n, dtype", [(1, np.int8), (3, np.int8), (11, np.int8),
                                          (13, np.int16), (181, np.int16), (183, np.int32)])
    def test_box_sums_exact_at_dtype_edges(self, n, dtype):
        # 11² = 121 is the largest window sum int8 holds, 181² = 32761 int16's
        ones = np.ones((2, 1, n + 2, n + 1), dtype=np.int8)
        sums = _box_sums(ones, n)
        assert sums.dtype == dtype
        np.testing.assert_array_equal(sums, _table_window_sums(ones, n))
        assert sums.max() == n * n
        rng = np.random.default_rng(24)
        bp = (rng.random((3, 2, 15, 14)) < 0.6).astype(np.int8)
        np.testing.assert_array_equal(_box_sums(bp, n), _table_window_sums(bp, n))
        if n <= 13:  # the shifted-slice reference takes n² adds
            np.testing.assert_array_equal(_table_window_sums(bp, n), _window_sums(bp, n))

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
