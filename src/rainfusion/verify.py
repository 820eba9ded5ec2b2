"""Forecast verification: contingency/CSI, neighborhood FSS, histogram scores.

Grids are compared per intensity category.  CSI comes from a pixel-wise
contingency table; FSS compares neighborhood-window event fractions so that
small displacements are not punished as double errors.  Cells missing in a
field are excluded from scoring rather than treated as no-rain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import MISSING, PrecipCategory, RainGrid, categorize_values


def _values(field) -> np.ndarray:
    v = field.values if isinstance(field, RainGrid) else np.asarray(field)
    if v.ndim != 2:
        raise ValueError(f"expected a 2-D field, got shape {v.shape}")
    return v


def _pair(pred, obs) -> tuple[np.ndarray, np.ndarray]:
    pv, ov = _values(pred), _values(obs)
    if pv.shape != ov.shape:
        raise ValueError(f"shape mismatch: pred {pv.shape} vs obs {ov.shape}")
    return pv, ov


@dataclass(frozen=True)
class ContingencyTable:
    """Pixel counts for one category: hits, false alarms, misses, rejections."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __add__(self, other: "ContingencyTable") -> "ContingencyTable":
        return ContingencyTable(self.tp + other.tp, self.fp + other.fp,
                                self.fn + other.fn, self.tn + other.tn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


_CODES = len(PrecipCategory)  # category codes -1 (MISSING) .. 4, shifted to 0 .. 5


def _tables(pv, ov, categories) -> list[ContingencyTable]:
    """Tables of several categories from one categorization of each field.

    Cells missing in obs are skipped.  One bincount over the (pred code, obs
    code) pairs of the remaining cells holds every category's counts.
    """
    valid = ov != MISSING
    pc = categorize_values(pv)[valid].astype(np.intp) + 1
    oc = categorize_values(ov)[valid].astype(np.intp) + 1
    joint = np.bincount(pc * _CODES + oc, minlength=_CODES * _CODES).reshape(_CODES, _CODES)
    pred_n, obs_n, total = joint.sum(axis=1), joint.sum(axis=0), int(valid.sum())
    out = []
    for c in categories:
        i = int(c) + 1
        tp = int(joint[i, i])
        fp, fn = int(pred_n[i]) - tp, int(obs_n[i]) - tp
        out.append(ContingencyTable(tp, fp, fn, total - tp - fp - fn))
    return out


def contingency(pred, obs, category: PrecipCategory) -> ContingencyTable:
    """Count TP/FP/FN/TN for one category, skipping cells missing in obs."""
    return _tables(*_pair(pred, obs), (category,))[0]


def csi(table: ContingencyTable) -> float | None:
    """TP / (TP + FP + FN); None (not applicable) when no cell was in play."""
    denom = table.tp + table.fp + table.fn
    if denom == 0:
        return None
    return table.tp / denom


# ---------------------------------------------------------------------------
# Fractions Skill Score
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FssParams:
    """Category bounds [q1, q2) in mm/h plus the odd neighborhood size."""

    q1: float
    q2: float
    n: int = 3

    def __post_init__(self):
        if self.q1 >= self.q2:
            raise ValueError(f"require q1 < q2, got [{self.q1}, {self.q2})")
        if self.n < 1 or self.n % 2 == 0:
            raise ValueError(f"neighborhood size must be odd and >= 1, got {self.n}")

    @classmethod
    def for_category(cls, category: PrecipCategory, n: int = 3) -> "FssParams":
        """Events are the cells with q1 <= F < q2, which differ from
        `categorize_values` codes at 0.0 (a LIGHT event, code NO_RAIN) and at
        200 mm/h and above (code VIOLENT, no VIOLENT event)."""
        q1, q2 = category.bounds
        return cls(q1, q2, n)


def _events(v: np.ndarray, bounds) -> tuple[np.ndarray, np.ndarray]:
    """Stack of q1 <= F < q2 indicators, one per (q1, q2), and the valid mask."""
    valid = v != MISSING
    bp = np.empty((len(bounds), *v.shape), dtype=np.int64)
    for k, (q1, q2) in enumerate(bounds):
        bp[k] = (v >= q1) & (v < q2) & valid
    return bp, valid


def binary_probability(field, bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Threshold a field to the in-category indicator.

    Returns (bp, valid): bp is 1 where q1 <= F < q2 on non-missing cells and
    0 elsewhere; valid flags the non-missing cells so that missing ones can
    be excluded downstream.
    """
    q1, q2 = bounds
    if q1 >= q2:
        raise ValueError(f"require q1 < q2, got [{q1}, {q2})")
    bp, valid = _events(_values(field), [bounds])
    return bp[0], valid


def neighborhood_probability(bp: np.ndarray, n: int,
                             valid: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Mean of BP over the n x n window centered on each cell.

    `bp` is one (rows, cols) field or a (k, rows, cols) stack of fields
    sharing the (rows, cols) `valid` mask, whose window counts are then
    computed once for the whole stack.  Windows shrink at the domain border
    and count only valid in-domain cells; the sums come from a summed-area
    table, so results are exact integer ratios.  Cells whose window holds no
    valid cell come back flagged invalid.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"neighborhood size must be odd and >= 1, got {n}")
    bp = np.asarray(bp, dtype=np.int64)
    rows, cols = bp.shape[-2:]
    if valid is None:
        valid = np.ones((rows, cols), dtype=bool)
    h = n // 2

    def window_sums(a):
        sat = np.zeros((*a.shape[:-2], rows + 1, cols + 1), dtype=np.int64)
        np.cumsum(np.cumsum(a, axis=-2), axis=-1, out=sat[..., 1:, 1:])
        r = np.arange(rows)
        c = np.arange(cols)
        r0, r1 = np.maximum(r - h, 0), np.minimum(r + h, rows - 1) + 1
        c0, c1 = np.maximum(c - h, 0), np.minimum(c + h, cols - 1) + 1
        return (sat[..., r1[:, None], c1[None, :]] - sat[..., r0[:, None], c1[None, :]]
                - sat[..., r1[:, None], c0[None, :]] + sat[..., r0[:, None], c0[None, :]])

    hits = window_sums(bp * valid)
    counts = window_sums(valid.astype(np.int64))
    np_valid = counts > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        np_values = np.where(np_valid, hits / np.maximum(counts, 1), 0.0)
    return np_values, np_valid


def _fss_sums(npp, npo, pair) -> list[tuple[float, float, int]]:
    """(FBS sum, WFBS sum, pair count) of each slice of two NP stacks."""
    count = int(pair.sum())
    return [(float(np.sum((p - o) ** 2)), float(np.sum(p * p + o * o)), count)
            for p, o in zip(npp[:, pair], npo[:, pair])]


def _fss_components(pv, ov, bounds, n) -> list[tuple[float, float, int]]:
    """FSS components of each (q1, q2), one stacked summed-area pass per field."""
    bpp, validp = _events(pv, bounds)
    bpo, valido = _events(ov, bounds)
    npp, vp = neighborhood_probability(bpp, n, validp)
    npo, vo = neighborhood_probability(bpo, n, valido)
    return _fss_sums(npp, npo, vp & vo)


def fss_ratio(fbs: float, wfbs: float, count: int) -> float | None:
    """Per-image FSS from its components, 1 - (FBS / count) / (WFBS / count).

    None means not applicable: no valid pairs, or no event mass in either
    field.
    """
    if count == 0:
        return None
    wfbs_mean = wfbs / count
    if wfbs_mean == 0.0:
        return None
    return 1.0 - (fbs / count) / wfbs_mean


def fss(pred, obs, params: FssParams) -> float | None:
    """Fractions skill score of pred against obs for one category.

    1 is perfect overlap of neighborhood fractions, 0 is no skill; None
    means not applicable (no valid pairs, or no event mass in either
    field).
    """
    return fss_ratio(*fss_components(pred, obs, params))


def fss_components(pred, obs, params: FssParams) -> tuple[float, float, int]:
    """(FBS sum, WFBS sum, valid pair count) for pooled aggregation."""
    return _fss_components(*_pair(pred, obs), [(params.q1, params.q2)], params.n)[0]


def score_pair(pred, obs, categories,
               n: int = 3) -> list[tuple[ContingencyTable, tuple[float, float, int]]]:
    """(contingency table, FSS components) of each category for one pair.

    Each field is categorized once for all the tables and thresholded once
    into a stack of FSS events (see `FssParams.for_category`) for all the
    components; `n` is the FSS neighborhood size.
    """
    pv, ov = _pair(pred, obs)
    bounds = [c.bounds for c in categories]
    return list(zip(_tables(pv, ov, categories), _fss_components(pv, ov, bounds, n)))


def fss_bruteforce(pred, obs, params: FssParams) -> float | None:
    """Reference FSS via direct per-window summation (no summed-area table).

    Kept deliberately naive as the independent oracle for `fss`.
    """
    pv, ov = _pair(pred, obs)
    bounds = (params.q1, params.q2)
    bpp, validp = binary_probability(pv, bounds)
    bpo, valido = binary_probability(ov, bounds)

    def window_mean(bp, valid):
        rows, cols = bp.shape
        h = params.n // 2
        vals = np.zeros((rows, cols))
        ok = np.zeros((rows, cols), dtype=bool)
        for i in range(rows):
            for j in range(cols):
                r0, r1 = max(i - h, 0), min(i + h, rows - 1) + 1
                c0, c1 = max(j - h, 0), min(j + h, cols - 1) + 1
                count = int(valid[r0:r1, c0:c1].sum())
                if count:
                    vals[i, j] = int(bp[r0:r1, c0:c1][valid[r0:r1, c0:c1]].sum()) / count
                    ok[i, j] = True
        return vals, ok

    npp, vp = window_mean(bpp, validp)
    npo, vo = window_mean(bpo, valido)
    return fss_ratio(*_fss_sums(npp[None], npo[None], vp & vo)[0])


# ---------------------------------------------------------------------------
# Histogram divergence scores for the satellite band analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HistogramPair:
    """Two normalized histograms over identical bin edges."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        q = np.asarray(self.q, dtype=np.float64)
        if p.shape != q.shape or p.ndim != 1:
            raise ValueError("histograms must be 1-D with matching bin counts")
        for name, h in (("p", p), ("q", q)):
            if np.any(h < 0):
                raise ValueError(f"histogram {name} has negative mass")
            if abs(h.sum() - 1.0) > 1e-9:
                raise ValueError(f"histogram {name} sums to {h.sum()!r}, not 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def normalized_histogram(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    counts, _ = np.histogram(np.asarray(values).ravel(), bins=edges)
    total = counts.sum()
    if total == 0:
        raise ValueError("no samples fall inside the histogram edges")
    return counts / total


def ks_statistic(pair: HistogramPair) -> float:
    """Max absolute CDF difference over the shared bins; lies in [0, 1]."""
    return float(np.max(np.abs(np.cumsum(pair.p) - np.cumsum(pair.q))))


def kl_divergence(pair: HistogramPair, epsilon: float = 1e-9) -> float:
    """Kullback-Leibler divergence with epsilon smoothing on both sides.

    Every bin of both histograms gets +epsilon before renormalization, so
    empty bins cannot blow the sum up to infinity.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    p = pair.p + epsilon
    q = pair.q + epsilon
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)))
