"""Skill reports: CSI/FSS per (lead, category, metric) across models.

The text layout mirrors the usual verification-table shape — one row per
lead/category/metric, one column per model — and the same grid serializes
to CSV.  Undefined scores print as "n/a".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grids import RAIN_CATEGORIES, PrecipCategory, RainGrid, minutes_to_iso, read_grid
from .verify import _check_neighborhood, score_pairs
# Not called here: the benchmark's tracer wraps these names on this module.
from .verify import contingency, fss, fss_components  # noqa: F401

METRICS = ("CSI", "FSS")
DEFAULT_CATEGORIES = (PrecipCategory.HEAVY, PrecipCategory.VIOLENT)
ALL_RAIN_CATEGORIES = RAIN_CATEGORIES
# Samples scored per stacked pass.  A block, not a whole lead, so that the
# float64 NP stacks stay small however many samples a lead has.
_BLOCK = 8


@dataclass
class SkillReport:
    """Scores keyed by (lead_minutes, category name, metric, model)."""

    models: tuple[str, ...]
    leads: tuple[int, ...]
    categories: tuple[str, ...]
    scores: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def set(self, lead: int, category: str, metric: str, model: str,
            score: float | None) -> None:
        if score is not None and not 0.0 <= score <= 1.0:
            raise ValueError(f"score {score} outside [0, 1] for {model}/{category}/{metric}")
        self.scores[(lead, category, metric, model)] = score

    def get(self, lead: int, category: str, metric: str, model: str):
        return self.scores[(lead, category, metric, model)]

    def _rows(self):
        for lead in self.leads:
            for category in self.categories:
                for metric in METRICS:
                    yield lead, category, metric

    @staticmethod
    def _fmt(score, decimals: int) -> str:
        if score is None:
            return "n/a"
        return f"{score:.{decimals}f}"

    def to_text(self) -> str:
        lines = [f"# {k}={v}" for k, v in self.metadata.items()]
        header = ["Lead Time", "Category", "Metric", *self.models]
        table = [header]
        for lead, category, metric in self._rows():
            row = [f"{lead} min", category, metric]
            for model in self.models:
                row.append(self._fmt(self.scores.get((lead, category, metric, model)), 3))
            table.append(row)
        widths = [max(len(r[i]) for r in table) for i in range(len(header))]
        for row in table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = [f"# {k}={v}" for k, v in self.metadata.items()]
        lines.append(",".join(["lead_minutes", "category", "metric", *self.models]))
        for lead, category, metric in self._rows():
            cells = [str(lead), category, metric]
            for model in self.models:
                cells.append(self._fmt(self.scores.get((lead, category, metric, model)), 6))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write(self, text_path, csv_path) -> None:
        Path(text_path).write_text(self.to_text())
        Path(csv_path).write_text(self.to_csv())


def _pooled(tables, components) -> tuple[list, list]:
    """Per category, the CSI and FSS of the counts and FBS/WFBS sums added
    over all samples; None where a score is not applicable.  One sum over
    the sample axis adds the samples one by one, in sample order."""
    csi_scores = [tp / (tp + fp + fn) if tp + fp + fn else None
                  for tp, fp, fn, _ in tables.sum(axis=0).tolist()]
    fss_scores = [1.0 - fbs / wfbs if wfbs > 0 else None
                  for fbs, wfbs, _ in components.sum(axis=0).tolist()]
    return csi_scores, fss_scores


def _mean(scores, applicable) -> list:
    """Per category (column), the mean of the applicable samples' scores;
    None where no sample's score is applicable."""
    return [float(np.mean(s[ok])) if ok.any() else None
            for s, ok in zip(scores.T, applicable.T)]


def _per_image(tables, components) -> tuple[list, list]:
    """Per category, the means of the per-sample CSI, TP / (TP + FP + FN),
    and FSS, 1 - (FBS / count) / (WFBS / count), over the samples where
    each is applicable: a denominator of 0 makes a score not applicable."""
    tp, fp, fn = (tables[..., i] for i in range(3))
    in_play = tp + fp + fn
    csi_scores = np.divide(tp, in_play, out=np.zeros(in_play.shape), where=in_play > 0)
    fbs, wfbs, count = (components[..., i] for i in range(3))
    wfbs_mean = np.divide(wfbs, count, out=np.zeros(count.shape), where=count > 0)
    mass = wfbs_mean != 0.0
    fbs_mean = np.divide(fbs, count, out=np.zeros(count.shape), where=mass)
    fss_scores = 1.0 - fbs_mean / np.where(mass, wfbs_mean, 1.0)
    return _mean(csi_scores, in_play > 0), _mean(fss_scores, mass)


def _stack(fields, block, shape, name: str | None = None) -> np.ndarray:
    """One (len(block), rows, cols) stack of a predictor's forecasts (`name`)
    or of the observations; a field of another shape raises ValueError
    naming its source and the sample's target time."""
    values = []
    for s, f in zip(block, fields):
        v = f.values if isinstance(f, RainGrid) else np.asarray(f)
        if v.shape != shape:
            source = f"predictor {name!r} returned" if name else f"observation {s.target_path} has"
            raise ValueError(f"{source} shape {v.shape} for target "
                             f"{minutes_to_iso(s.target_timestamp)} "
                             f"({s.target_timestamp} min), expected {shape}")
        values.append(v)
    return np.stack(values)


def evaluate_models(predictors, samples, categories=DEFAULT_CATEGORIES,
                    neighborhood: int = 3, aggregation: str = "pooled") -> SkillReport:
    """Score (name, sample -> RainGrid) predictors over a sample list.

    Samples are scored in target-time order, in blocks of `_BLOCK`: each
    block's observations are read, every predictor is called once on each
    of the block's samples, and each predictor's forecasts are scored as
    one stack (`verify.score_pairs`), for all categories at once.  So the
    predictors' calls interleave block by block.  The blocks' table and
    component arrays are concatenated per predictor.  Aggregation "pooled"
    sums the contingency counts and FBS/WFBS sums over the whole set, in
    sample order, before forming scores; "per-image" averages the
    per-sample scores formed from the same numbers, skipping not-applicable
    ones.  A score that is not applicable is set as None.  Samples must
    share one lead time, two predictors may not share a name, and a
    forecast whose shape differs from its observation's raises ValueError
    naming the predictor and the target time; so does a neighborhood size
    that is not odd and >= 1, before any observation is read.
    """
    if aggregation not in ("pooled", "per-image"):
        raise ValueError(f"aggregation must be 'pooled' or 'per-image', got {aggregation!r}")
    _check_neighborhood(neighborhood)  # before any observation is read or predictor called
    if not samples:
        raise ValueError("no samples to evaluate")
    leads = {s.lead_minutes for s in samples}
    if len(leads) > 1:
        raise ValueError(f"samples mix lead times {sorted(leads)}")
    lead = leads.pop()
    samples = sorted(samples, key=lambda s: s.target_timestamp)
    names = tuple(name for name, _ in predictors)
    if len(set(names)) < len(names):
        raise ValueError(f"two predictors are named {max(names, key=names.count)!r}")
    report = SkillReport(models=names, leads=(lead,),
                         categories=tuple(c.name.title() for c in categories),
                         metadata={"aggregation": aggregation, "neighborhood": str(neighborhood),
                                   "samples": str(len(samples))})
    scored = {name: [] for name in names}  # per block, (tables, components)
    shape = None
    for start in range(0, len(samples), _BLOCK):
        block = samples[start:start + _BLOCK]
        grids = [read_grid(s.target_path) for s in block]
        if shape is None:
            shape = grids[0].values.shape
        obs = _stack(grids, block, shape)
        for name, predict in predictors:
            pred = _stack([predict(s) for s in block], block, shape, name)
            scored[name].append(score_pairs(pred, obs, categories, neighborhood))
    aggregate = _pooled if aggregation == "pooled" else _per_image
    for name in names:
        tables, components = (np.concatenate(arrays) for arrays in zip(*scored[name]))
        for c, csi_score, fss_score in zip(categories, *aggregate(tables, components)):
            report.set(lead, c.name.title(), "CSI", name, csi_score)
            report.set(lead, c.name.title(), "FSS", name, fss_score)
    return report


def merge_reports(reports) -> SkillReport:
    """Combine reports of distinct leads and one scoring (models, categories,
    aggregation, neighborhood) into one table, with the first's metadata."""
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge")
    first, leads = reports[0], set()
    for r in reports:
        if r.models != first.models or r.categories != first.categories:
            raise ValueError("reports disagree on models or categories")
        for key in ("aggregation", "neighborhood"):
            a, b = first.metadata.get(key), r.metadata.get(key)
            if a != b:
                raise ValueError(f"reports disagree on {key}: {a!r} and {b!r}")
        repeated = leads.intersection(r.leads)
        if repeated:
            raise ValueError(f"lead {min(repeated)} min is in two reports")
        leads.update(r.leads)
    merged = SkillReport(models=first.models, leads=tuple(sorted(leads)),
                         categories=first.categories, metadata=dict(first.metadata))
    for r in reports:
        merged.scores.update(r.scores)
    return merged
