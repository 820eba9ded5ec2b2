"""Forecast verification: contingency/CSI and neighborhood FSS.

Grids are compared per intensity category.  CSI comes from a pixel-wise
contingency table; FSS compares neighborhood-window event fractions so that
small displacements are not punished as double errors.  Cells missing in a
field are excluded from scoring rather than treated as no-rain.

Scoring works on (S, rows, cols) stacks of samples (`score_pairs`): each
stack is categorized once, one bincount fills every sample's tables, and
the FSS events of all samples and categories get one exact integer
box-sum pass.  Every sample's numbers equal those of scoring it alone.

Blocks with no missing cell take an all-valid path: the window counts
depend on the cell position alone, so they are one (rows, cols) box sum
shared by the stack, and the FBS and WFBS of every sample and category
come from one reduction per field over the (S, k, rows * cols) NP stacks.
Each of those row sums is the same contiguous pairwise sum that a 1-D
`np.sum` of the row gives, so the results are bit-identical to the
per-sample path that blocks with missing cells take.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import MISSING, PrecipCategory, RainGrid, categorize_values


def _values(field, ndim: int = 2) -> np.ndarray:
    v = field.values if isinstance(field, RainGrid) else np.asarray(field)
    if v.ndim != ndim:
        raise ValueError(f"expected {ndim}-D values, got shape {v.shape}")
    return v


def _pair(pred, obs, ndim: int = 2) -> tuple[np.ndarray, np.ndarray]:
    pv, ov = _values(pred, ndim), _values(obs, ndim)
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


_CODES = len(PrecipCategory)  # category codes -1 (MISSING) .. 4, shifted to 0 .. 5


def _tables(pv, ov, categories) -> list[list[ContingencyTable]]:
    """Per sample of two (S, rows, cols) stacks, the table of each category.

    Cells missing in obs are skipped.  Each stack is categorized once, and
    one bincount over the (sample, pred code, obs code) triples of the
    remaining cells holds every sample's and category's counts.
    """
    s = len(ov)
    valid = ov != MISSING
    pc = categorize_values(pv).astype(np.intp) + 1
    oc = categorize_values(ov).astype(np.intp) + 1
    sample = np.arange(s, dtype=np.intp)[:, None, None]
    joint = np.bincount(((sample * _CODES + pc) * _CODES + oc)[valid],
                        minlength=s * _CODES * _CODES).reshape(s, _CODES, _CODES)
    i = [int(c) + 1 for c in categories]
    tp = joint[:, i, i]
    fp, fn = joint.sum(axis=2)[:, i] - tp, joint.sum(axis=1)[:, i] - tp
    tn = valid.sum(axis=(1, 2))[:, None] - tp - fp - fn
    return [[ContingencyTable(*counts) for counts in zip(*row)]
            for row in zip(tp.tolist(), fp.tolist(), fn.tolist(), tn.tolist())]


def contingency(pred, obs, category: PrecipCategory) -> ContingencyTable:
    """Count TP/FP/FN/TN for one category, skipping cells missing in obs."""
    pv, ov = _pair(pred, obs)
    return _tables(pv[None], ov[None], (category,))[0][0]


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
    """q1 <= F < q2 indicators of (..., rows, cols) fields, one per (q1, q2).

    Returns the (..., k, rows, cols) int8 event stack and the
    (..., 1, rows, cols) mask of non-missing cells.
    """
    valid = (v != MISSING)[..., None, :, :]
    bp = np.empty((*v.shape[:-2], len(bounds), *v.shape[-2:]), dtype=np.int8)
    for k, (q1, q2) in enumerate(bounds):
        bp[..., k, :, :] = (v >= q1) & (v < q2) & valid[..., 0, :, :]
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
    return bp[0], valid[0]


def _box_sums(a: np.ndarray, n: int) -> np.ndarray:
    """int32 sums of `a` over the n x n window centered on each cell of its
    last two axes, with zeros outside the domain: n shifted slice adds per
    axis on one zero-padded copy, accumulated in place into one copy per
    axis.  The sums are exact integers, so the order of the adds does not
    matter."""
    h = n // 2
    rows, cols = a.shape[-2:]
    padded = np.zeros((*a.shape[:-2], rows + 2 * h, cols + 2 * h), dtype=np.int32)
    padded[..., h:h + rows, h:h + cols] = a
    across = padded[..., :cols].copy()
    for d in range(1, n):
        across += padded[..., d:d + cols]
    sums = across[..., :rows, :].copy()
    for d in range(1, n):
        sums += across[..., d:d + rows, :]
    return sums


def neighborhood_probability(bp: np.ndarray, n: int,
                             valid: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Mean of BP over the n x n window centered on each cell.

    `bp` is one (rows, cols) field or a (..., rows, cols) stack of fields;
    `valid` is a mask that broadcasts against it, such as one (rows, cols)
    mask shared by a (k, rows, cols) stack or one (S, 1, rows, cols) mask
    per sample of an (S, k, rows, cols) stack.  Window counts are computed
    once per mask; when every cell is valid (`valid.all()`, or no mask) they
    depend on the cell position alone and are one (rows, cols) box sum
    broadcast over the stack.  Windows shrink at the domain border and count
    only valid in-domain cells; the window sums are exact integers, so
    results are exact integer ratios.  Cells whose window holds no valid
    cell come back 0 and flagged invalid in the returned mask, which has the
    shape of `valid`.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"neighborhood size must be odd and >= 1, got {n}")
    bp = np.asarray(bp)
    if valid is None:
        valid = np.ones(bp.shape[-2:], dtype=bool)
    if np.broadcast_shapes(bp.shape, valid.shape) == bp.shape and valid.all():
        # Every window holds its own center cell, so no count is 0.
        counts = _box_sums(np.ones(bp.shape[-2:], dtype=np.int8), n)
        return _box_sums(bp, n) / counts, np.ones(valid.shape, dtype=bool)
    counts = _box_sums(valid, n)
    # A window with no valid cell holds no event either, so its ratio is 0 / 1.
    return _box_sums(bp * valid, n) / np.maximum(counts, 1), counts > 0


def _fss_sums(npp, npo, pair) -> list[tuple[float, float, int]]:
    """(FBS sum, WFBS sum, pair count) of each slice of two (k, rows, cols)
    NP stacks over the (rows, cols) `pair` cells, one 1-D sum per slice."""
    count = int(pair.sum())
    # The same cells as npp[:, pair], gathered about 4x faster.
    p, o = (np.compress(pair.ravel(), a.reshape(len(a), pair.size), axis=1)
                for a in (npp, npo))
    return [(float(np.sum(f)), float(np.sum(w)), count)
            for f, w in zip((p - o) ** 2, p * p + o * o)]


def _fss_components(pv, ov, bounds, n) -> list[list[tuple[float, float, int]]]:
    """Per sample of two (S, rows, cols) stacks, the FSS components of each
    (q1, q2): each stack is thresholded once and gets one box-sum pass."""
    bpp, validp = _events(pv, bounds)
    bpo, valido = _events(ov, bounds)
    npp, vp = neighborhood_probability(bpp, n, validp)
    npo, vo = neighborhood_probability(bpo, n, valido)
    pair = vp & vo
    if not pair.all():
        return [_fss_sums(npp[s], npo[s], pair[s, 0]) for s in range(len(ov))]
    # Every cell is paired: each (sample, category) row of the reshaped
    # stacks is summed as `_fss_sums` sums its 1-D gather of the same row.
    # The squares are taken in place in the NP stacks, which nothing else
    # holds: each fresh float64 temporary of a block costs page faults.
    samples, k, rows, cols = npp.shape
    p, o = (a.reshape(samples, k, rows * cols) for a in (npp, npo))
    d = p - o
    d *= d
    p *= p
    o *= o
    p += o
    fbs, wfbs = d.sum(axis=-1), p.sum(axis=-1)
    count = rows * cols
    return [[(f, w, count) for f, w in zip(*row)] for row in zip(fbs.tolist(), wfbs.tolist())]


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
    pv, ov = _pair(pred, obs)
    return _fss_components(pv[None], ov[None], [(params.q1, params.q2)], params.n)[0][0]


def score_pairs(pred, obs, categories,
                n: int = 3) -> list[list[tuple[ContingencyTable, tuple[float, float, int]]]]:
    """Per sample of two (S, rows, cols) stacks, the (contingency table, FSS
    components) of each category.

    Each stack is categorized once for all the tables and thresholded once
    into an (S, k, rows, cols) stack of FSS events (see
    `FssParams.for_category`) for all the components; `n` is the FSS
    neighborhood size.  Every sample's numbers equal those of scoring it
    alone.
    """
    pv, ov = _pair(pred, obs, ndim=3)
    bounds = [c.bounds for c in categories]
    return [list(zip(tables, components)) for tables, components in
            zip(_tables(pv, ov, categories), _fss_components(pv, ov, bounds, n))]


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

