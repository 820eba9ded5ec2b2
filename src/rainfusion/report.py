"""Skill reports: CSI/FSS per (lead, category, metric) across models.

The text layout mirrors the usual verification-table shape — one row per
lead/category/metric, one column per model — and the same grid serializes
to CSV.  Undefined scores print as "n/a" unless paper-style zeros are
requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grids import RAIN_CATEGORIES, PrecipCategory, read_grid
from .verify import ContingencyTable, csi, fss_ratio, score_pair
# Not called here: the benchmark's tracer wraps these names on this module.
from .verify import contingency, fss, fss_components  # noqa: F401

METRICS = ("CSI", "FSS")
DEFAULT_CATEGORIES = (PrecipCategory.HEAVY, PrecipCategory.VIOLENT)
ALL_RAIN_CATEGORIES = RAIN_CATEGORIES


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
    def _fmt(score, paper_style: bool, decimals: int) -> str:
        if score is None:
            return f"{0.0:.{decimals}f}" if paper_style else "n/a"
        return f"{score:.{decimals}f}"

    def to_text(self, paper_style: bool = False) -> str:
        lines = [f"# {k}={v}" for k, v in self.metadata.items()]
        header = ["Lead Time", "Category", "Metric", *self.models]
        table = [header]
        for lead, category, metric in self._rows():
            row = [f"{lead} min", category, metric]
            for model in self.models:
                row.append(self._fmt(self.scores.get((lead, category, metric, model)),
                                     paper_style, 3))
            table.append(row)
        widths = [max(len(r[i]) for r in table) for i in range(len(header))]
        for row in table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"

    def to_csv(self, paper_style: bool = False) -> str:
        lines = [f"# {k}={v}" for k, v in self.metadata.items()]
        lines.append(",".join(["lead_minutes", "category", "metric", *self.models]))
        for lead, category, metric in self._rows():
            cells = [str(lead), category, metric]
            for model in self.models:
                cells.append(self._fmt(self.scores.get((lead, category, metric, model)),
                                       paper_style, 6))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write(self, text_path, csv_path, paper_style: bool = False) -> None:
        Path(text_path).write_text(self.to_text(paper_style))
        Path(csv_path).write_text(self.to_csv(paper_style))


def _mean(scores) -> float | None:
    """Mean of the applicable (non-None) scores; None when there are none."""
    scores = [s for s in scores if s is not None]
    return float(np.mean(scores)) if scores else None


def evaluate_models(predictors, samples, categories=DEFAULT_CATEGORIES,
                    neighborhood: int = 3, aggregation: str = "pooled",
                    metadata: dict | None = None) -> SkillReport:
    """Score (name, sample -> RainGrid) predictors over a sample list.

    Each (prediction, observation) pair is scored once for all categories
    (`verify.score_pair`).  Aggregation "pooled" sums the contingency
    counts and FBS/WFBS sums over the whole set before forming scores;
    "per-image" averages the per-sample scores formed from the same
    numbers, skipping not-applicable ones.  Samples must share one lead
    time.
    """
    if aggregation not in ("pooled", "per-image"):
        raise ValueError(f"aggregation must be 'pooled' or 'per-image', got {aggregation!r}")
    if not samples:
        raise ValueError("no samples to evaluate")
    leads = {s.lead_minutes for s in samples}
    if len(leads) > 1:
        raise ValueError(f"samples mix lead times {sorted(leads)}")
    lead = leads.pop()
    samples = sorted(samples, key=lambda s: s.target_timestamp)
    names = tuple(name for name, _ in predictors)
    report = SkillReport(models=names, leads=(lead,),
                         categories=tuple(c.name.title() for c in categories),
                         metadata=dict(metadata or {}))
    report.metadata.setdefault("aggregation", aggregation)
    report.metadata.setdefault("neighborhood", str(neighborhood))
    report.metadata.setdefault("samples", str(len(samples)))
    observations = [read_grid(s.target_path) for s in samples]
    for name, predict in predictors:
        scored = [score_pair(predict(s), obs, categories, neighborhood)
                  for s, obs in zip(samples, observations)]
        for c, per_sample in zip(categories, zip(*scored)):
            if aggregation == "pooled":
                table, fbs, wfbs = ContingencyTable(), 0.0, 0.0
                for t, (f, w, _) in per_sample:
                    table, fbs, wfbs = table + t, fbs + f, wfbs + w
                csi_score = csi(table)
                fss_score = (1.0 - fbs / wfbs) if wfbs > 0 else None
            else:
                csi_score = _mean(csi(t) for t, _ in per_sample)
                fss_score = _mean(fss_ratio(*components) for _, components in per_sample)
            report.set(lead, c.name.title(), "CSI", name, csi_score)
            report.set(lead, c.name.title(), "FSS", name, fss_score)
    return report


def merge_reports(reports) -> SkillReport:
    """Combine single-lead reports (same models/categories) into one table."""
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge")
    first = reports[0]
    for r in reports[1:]:
        if r.models != first.models or r.categories != first.categories:
            raise ValueError("reports disagree on models or categories")
    merged = SkillReport(models=first.models,
                         leads=tuple(sorted({l for r in reports for l in r.leads})),
                         categories=first.categories,
                         metadata=dict(first.metadata))
    for r in reports:
        merged.scores.update(r.scores)
    return merged
