"""Forecast verification: contingency/CSI and neighborhood FSS.

Grids are compared per intensity category.  CSI comes from a pixel-wise
contingency table; FSS compares neighborhood-window event fractions so that
small displacements are not punished as double errors.  Cells missing in a
field are excluded from scoring rather than treated as no-rain.

Scoring works on (S, rows, cols) stacks of samples (`score_pairs`) and
returns arrays: an (S, k, 4) int64 array of the [tp, fp, fn, tn] counts
and an (S, k, 3) float64 array of the [FBS sum, WFBS sum, pair count] FSS
components, for S samples and k categories.  Each stack is categorized
once into int8 codes, one bincount fills the tables of all samples, and the
FSS events of all samples and categories get one exact box-sum pass in
the smallest signed integer type that holds n² (int8 for n <= 11, int16
up to n = 181, then int32).  `contingency` and `fss_components` are the
one-sample, one-category views, as a `ContingencyTable` and a tuple.

Blocks with no missing cell take an all-valid path that stays in
integers: every window count is rows-covered x cols-covered, which
depends on the cell position alone, so FBS and WFBS are exact integer
sums over the runs of cells that share a count, weighted by 1 / count²
(`_all_valid_sums`).  No float64 neighborhood-probability stack is
formed.  The float operations differ from those of the masked path that
blocks with a missing cell take, so the two agree to 1e-14 relative
rather than bit for bit.  Either path gives each sample the numbers it
gets when scored alone on the same path.

`score_pairs` pins glibc's malloc thresholds (`keep_freed_pages`), so
that the blocks of one `report.evaluate_models` call reuse the freed pages
of the last block's work arrays instead of faulting fresh ones in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._malloc import keep_freed_pages
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


_CODES = len(PrecipCategory)  # category codes -1 (MISSING) .. 4, shifted to 0 .. 5


def _tables(pv, ov, categories) -> np.ndarray:
    """The (S, k, 4) int64 [tp, fp, fn, tn] counts of each sample of two
    (S, rows, cols) stacks and each of the k categories.

    Each stack is categorized once into int8 joint (pred code, obs code)
    codes 0 .. 35, and one bincount of the codes shifted by 36 per sample
    fills every sample's table.  Cells missing in obs land in its
    obs-MISSING column, which is zeroed.
    """
    codes = categorize_values(pv) * _CODES
    codes += categorize_values(ov)
    codes += _CODES + 1
    cells = _CODES * _CODES
    shifted = codes.astype(_int_type(cells * len(ov)))
    shifted += (cells * np.arange(len(ov), dtype=shifted.dtype))[:, None, None]
    joint = np.bincount(shifted.ravel(), minlength=cells * len(ov))
    joint = joint.astype(np.int64, copy=False).reshape(len(ov), _CODES, _CODES)
    joint[:, :, 0] = 0
    i = [int(c) + 1 for c in categories]
    tp = joint[:, i, i]
    fp, fn = joint.sum(axis=2)[:, i] - tp, joint.sum(axis=1)[:, i] - tp
    tn = joint.sum(axis=(1, 2))[:, None] - tp - fp - fn
    return np.stack([tp, fp, fn, tn], axis=-1)


def contingency(pred, obs, category: PrecipCategory) -> ContingencyTable:
    """Count TP/FP/FN/TN for one category, skipping cells missing in obs."""
    pv, ov = _pair(pred, obs)
    return ContingencyTable(*_tables(pv[None], ov[None], (category,))[0, 0].tolist())


def csi(table: ContingencyTable) -> float | None:
    """TP / (TP + FP + FN); None (not applicable) when no cell was in play."""
    denom = table.tp + table.fp + table.fn
    if denom == 0:
        return None
    return table.tp / denom


# ---------------------------------------------------------------------------
# Fractions Skill Score
# ---------------------------------------------------------------------------

def _check_neighborhood(n: int) -> None:
    """Raise ValueError unless the FSS neighborhood size `n` is odd and >= 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"neighborhood size n must be odd and >= 1, got {n}")


@dataclass(frozen=True)
class FssParams:
    """Category bounds [q1, q2) in mm/h plus the odd neighborhood size."""

    q1: float
    q2: float
    n: int = 3

    def __post_init__(self):
        if self.q1 >= self.q2:
            raise ValueError(f"require q1 < q2, got [{self.q1}, {self.q2})")
        _check_neighborhood(self.n)

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


def _int_type(bound: int) -> type:
    """The smallest signed integer type that holds 0 .. bound."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


def _box_sums(a: np.ndarray, n: int) -> np.ndarray:
    """Sums of the 0/1 stack `a` over the n x n window centered on each cell
    of its last two axes, with zeros outside the domain, in the smallest
    signed integer type that holds n² (int8 for n <= 11, int16 up to
    n = 181, then int32): n shifted slice adds per axis on one zero-padded
    copy, accumulated in place into one copy per axis.  The sums are exact
    integers, so the order of the adds does not matter."""
    h = n // 2
    rows, cols = a.shape[-2:]
    padded = np.zeros((*a.shape[:-2], rows + 2 * h, cols + 2 * h), dtype=_int_type(n * n))
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
    per sample of an (S, k, rows, cols) stack; no mask means every cell is
    valid.  Window counts are computed once per mask.  Windows shrink at the
    domain border and count only valid in-domain cells; the window sums are
    exact integers, so results are exact integer ratios.  Cells whose window
    holds no valid cell come back 0 and flagged invalid in the returned
    mask, which has the shape of `valid`.
    """
    _check_neighborhood(n)
    bp = np.asarray(bp)
    if valid is None:
        valid = np.ones(bp.shape[-2:], dtype=bool)
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


def _runs(m: int, h: int) -> tuple[list[int], np.ndarray]:
    """The start of each run of lines of an m-line axis whose windows, h
    lines each way, cover equally many lines, and that number: each of the
    h lines at either border is a run of its own and the interior is one
    run, or every line is a run of its own when m <= 2h."""
    starts = list(range(m)) if m <= 2 * h else [*range(h + 1), *range(m - h, m)]
    return starts, np.array([min(i + h, m - 1) - max(i - h, 0) + 1 for i in starts])


def _all_valid_sums(bpp, bpo, n) -> np.ndarray:
    """(FBS, WFBS) sums of each (sample, category) of two (S, k, rows, cols)
    event stacks with no missing cell, as a (2, S, k) float64 array.

    The window count of a cell is a * b, with a the rows and b the cols its
    window covers, so FBS = sum (Sp - So)² / c² and WFBS = sum (Sp² + So²) / c²
    over the window sums Sp and So.  The squared fields are summed exactly
    in integers over each block of cells that share a and b, and the block
    sums are then weighted by 1 / (a * b)² and added: one small float sum
    per (sample, category), so a sample's sums do not depend on the others
    in the block.  Each sum agrees with the masked path's to 1e-14 relative.
    """
    h = n // 2
    sp, so = _box_sums(bpp, n), _box_sums(bpo, n)
    samples, k, rows, cols = sp.shape
    squares = np.empty((2, samples, k, rows, cols), dtype=_int_type(2 * n ** 4))
    np.multiply(sp, sp, out=squares[1], dtype=squares.dtype)
    np.multiply(so, so, out=squares[0], dtype=squares.dtype)
    squares[1] += squares[0]
    sp -= so
    np.multiply(sp, sp, out=squares[0], dtype=squares.dtype)
    row_starts, a = _runs(rows, h)
    col_starts, b = _runs(cols, h)
    # A run of at most `rows` lines of squares up to 2n⁴ sums exactly in
    # the smallest type that holds rows · 2n⁴.
    acc = _int_type(rows * 2 * n ** 4)
    ends = [*row_starts[1:], rows]
    lines = np.stack([squares[..., r0:r1, :].sum(axis=-2, dtype=acc)
                      for r0, r1 in zip(row_starts, ends)], axis=-2)
    blocks = np.add.reduceat(lines, col_starts, axis=-1, dtype=np.int64)
    weights = 1.0 / np.square(np.multiply.outer(a, b).astype(np.float64))
    return (blocks * weights).sum(axis=(-2, -1))


def _fss_components(pv, ov, bounds, n) -> np.ndarray:
    """The (S, k, 3) float64 [FBS sum, WFBS sum, pair count] of each sample
    of two (S, rows, cols) stacks and each of the k (q1, q2): each stack is
    thresholded once and gets one box-sum pass.  Blocks with no missing
    cell take the integer path (`_all_valid_sums`)."""
    bpp, validp = _events(pv, bounds)
    bpo, valido = _events(ov, bounds)
    if validp.all() and valido.all():
        components = np.empty((len(ov), len(bounds), 3))
        components[..., :2] = np.moveaxis(_all_valid_sums(bpp, bpo, n), 0, -1)
        components[..., 2] = pv.shape[-2] * pv.shape[-1]
        return components
    npp, vp = neighborhood_probability(bpp, n, validp)
    npo, vo = neighborhood_probability(bpo, n, valido)
    pair = vp & vo
    return np.array([_fss_sums(npp[s], npo[s], pair[s, 0]) for s in range(len(ov))],
                    dtype=np.float64).reshape(len(ov), len(bounds), 3)


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
    components = _fss_components(pv[None], ov[None], [(params.q1, params.q2)], params.n)
    fbs, wfbs, count = components[0, 0].tolist()
    return fbs, wfbs, int(count)


def score_pairs(pred, obs, categories, n: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """(tables, components) of two (S, rows, cols) stacks for the k categories.

    `tables` is the (S, k, 4) int64 array of each sample's and category's
    [tp, fp, fn, tn] counts over the cells valid in obs; `components` is
    the (S, k, 3) float64 array of its [FBS sum, WFBS sum, pair count].
    Each stack is categorized once for all the tables and thresholded once
    into an (S, k, rows, cols) stack of FSS events (see
    `FssParams.for_category`) for all the components; `n` is the FSS
    neighborhood size, which must be odd and >= 1 (else ValueError).  Every
    sample's numbers equal those of scoring it alone, bit for bit, except
    the FSS sums of a sample with no missing cell in a block with one, which
    agree to 1e-14 relative (see the module docstring).  Its work arrays
    live for the call; it pins the malloc thresholds (`keep_freed_pages`)
    so that their pages stay with the process from one call to the next.
    """
    _check_neighborhood(n)
    keep_freed_pages()
    pv, ov = _pair(pred, obs, ndim=3)
    bounds = [c.bounds for c in categories]
    return _tables(pv, ov, categories), _fss_components(pv, ov, bounds, n)


def fss_bruteforce(pred, obs, params: FssParams) -> float | None:
    """Reference FSS via direct per-window summation (no summed-area table).

    Kept deliberately naive as the independent oracle for `fss`: it
    thresholds the fields itself, q1 <= F < q2 on non-missing cells, and
    sums FBS and WFBS over the paired cells and forms their ratio itself,
    so a fault in the `_events`, `_fss_sums` or `fss_ratio` that `fss`
    uses shows as a disagreement.
    """
    pv, ov = _pair(pred, obs)
    validp, valido = pv != MISSING, ov != MISSING
    bpp = validp & (pv >= params.q1) & (pv < params.q2)
    bpo = valido & (ov >= params.q1) & (ov < params.q2)

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
    pair = vp & vo
    p, o = npp[pair], npo[pair]
    wfbs = float(np.sum(p * p + o * o))
    if wfbs == 0.0:  # no paired cell, or no event mass in either field
        return None
    return 1.0 - float(np.sum((p - o) ** 2)) / wfbs

