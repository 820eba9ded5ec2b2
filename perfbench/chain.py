"""Workloads and the rainfusion chain the benchmark times.

A workload is set up once per set-up pass (synthetic data written to disk,
inputs damaged on purpose where the workload asks for it, the network
constructed) and then run as repeated passes of the chain:

    read_index -> filter_outliers -> subsample_no_rain -> build_sequences
    [-> fit_band_stats -> train -> save_model -> load_model]
    -> evaluate_models (with each nowcast timed) -> SkillReport.write

Every pass starts from the same initial weights and the same files, so
every pass computes the same outputs.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

RFG_HEADER = 24  # bytes before the float32 payload of an RFG1 file


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    frames: int
    variant: str | None = None  # network under test; None scores persistence only
    cells: int = 12
    growth_rate: float = 0.05
    outlier_fraction: float = 0.0
    truncated: int = 0  # radar files cut short on purpose
    dry_frames: int = 0  # consecutive radar frames overwritten with no rain
    keep_fraction: float = 1.0
    leads: tuple[int, ...] = (5,)
    all_categories: bool = False
    aggregations: tuple[str, ...] = ("pooled",)
    # Samples scored per lead when scoring persistence only.  Fixed, so that
    # the work in a pass does not depend on where the seed put the damage.
    scored_per_lead: int = 180
    train: int = 8
    val: int = 4
    levels: int = 3
    base: int = 8
    batch: int = 4
    epochs: int = 2


_RADAR = Workload("radar_train", rows=64, frames=56, variant="radar")
_SKILL = Workload("skill_day", rows=64, frames=288, cells=24, growth_rate=0.02,
                  outlier_fraction=0.02, truncated=3, dry_frames=12, keep_fraction=0.5,
                  leads=(5, 15, 30), all_categories=True,
                  aggregations=("pooled", "per-image"))

# name -> (measured size, tiny size used by the self-test and the reference)
WORKLOADS = {
    "radar_train": (_RADAR, replace(_RADAR, rows=16, frames=18, train=4, val=2, base=2, batch=2)),
    "multimodal_train": (replace(_RADAR, name="multimodal_train", variant="multimodal"),
                         replace(_RADAR, name="multimodal_train", variant="multimodal",
                                 rows=16, frames=18, train=4, val=2, base=2, batch=2)),
    "skill_day": (_SKILL, replace(_SKILL, rows=16, frames=72, cells=4, truncated=1,
                                  dry_frames=6, scored_per_lead=40)),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Dataset:
    index: Path
    expected: dict  # curation counts read straight from the bytes on disk
    model: object = None
    initial: list = field(default_factory=list)  # initial weights, restored every pass


@dataclass
class Pass:
    run_s: float
    train_s: float = 0.0
    train_samples: int = 0  # epochs x training samples
    eval_s: list = field(default_factory=list)  # per evaluate_models call, predictors excluded
    pairs: int = 0  # (sample, predictor) pairs scored
    nowcast_s: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # what a correct pass must reproduce
    scored: list = field(default_factory=list)  # samples of the first lead scored


def _expected_curation(entries, root: Path, rows: int) -> dict:
    """Outlier / unreadable / no-rain counts, read without the package."""
    size = RFG_HEADER + 4 * rows * rows
    counts = {"outlier": 0, "unreadable": 0, "no_rain": 0}
    for e in entries:
        path = root / e.radar_path
        if path.stat().st_size != size:
            counts["unreadable"] += 1
            continue
        v = np.fromfile(path, dtype="<f4", offset=RFG_HEADER)
        if v.max() > 200.0:
            counts["outlier"] += 1
        elif not (v > 0).any():
            counts["no_rain"] += 1
    return counts


class Chain:
    """One workload's chain, traced when a tracer and its wrappers are given."""

    def __init__(self, rf, workload: Workload, seed: int, tracer=None, traced=None):
        self.rf = rf
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.read_grid = traced["read_grid"] if traced else rf.grids.read_grid
        self.read_scene = traced["read_scene"] if traced else rf.grids.read_scene
        self.on_model = traced["on_model"] if traced else (lambda model, slot: None)
        # (trained model, its band stats, reloaded model, reloaded band stats)
        # of the latest pass only, so that memory does not grow with the
        # number of passes.
        self.last_models = None

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    @property
    def categories(self):
        r = self.rf.report
        return r.ALL_RAIN_CATEGORIES if self.w.all_categories else r.DEFAULT_CATEGORIES

    # -- set-up ------------------------------------------------------------

    def setup(self, out_dir: Path) -> tuple[Dataset, float]:
        """Write the workload's inputs and build its network; returns the time."""
        rf, w = self.rf, self.w
        t0 = time.perf_counter()
        with self.span("synth.generate"):
            entries = rf.synth.generate_synthetic(rf.synth.SynthConfig(
                rows=w.rows, cols=w.rows, frames=w.frames, cells=w.cells,
                growth_rate=w.growth_rate, outlier_fraction=w.outlier_fraction,
                seed=self.seed), out_dir)
        self._damage(entries, out_dir)
        data = Dataset(out_dir / "index.tsv", {})
        if w.variant is not None:
            config = rf.models.ModelConfig(variant=w.variant, rows=w.rows, cols=w.rows,
                                           levels=w.levels, base_channels=w.base,
                                           lead_minutes=w.leads[0])
            data.model = rf.models.UNet3D(config, seed=self.seed)
            data.initial = [p.value.copy() for p in data.model.params()]
        setup_s = time.perf_counter() - t0
        if self.tracer:
            self.tracer.count("synth.bytes_written",
                              sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()))
        data.expected = _expected_curation(entries, out_dir, w.rows)
        return data, setup_s

    def _damage(self, entries, out_dir: Path):
        """A dry spell of zero-rain frames and a few truncated radar files."""
        w = self.w
        rng = np.random.default_rng(self.seed + 7)
        if w.dry_frames:
            start = int(rng.integers(0, w.frames - w.dry_frames))
            for e in entries[start:start + w.dry_frames]:
                self.rf.grids.write_grid(out_dir / e.radar_path, self.rf.grids.RainGrid(
                    np.zeros((w.rows, w.rows), np.float32), e.timestamp))
        for i in rng.choice(w.frames, size=w.truncated, replace=False):
            path = out_dir / entries[i].radar_path
            blob = path.read_bytes()
            path.write_bytes(blob[:len(blob) // 2])

    # -- one pass of the chain ---------------------------------------------

    def run(self, data: Dataset, work_dir: Path) -> Pass:
        rf, w = self.rf, self.w
        t0 = time.perf_counter()
        result = Pass(run_s=0.0)
        with self.span("grids.read_index"):
            entries = rf.grids.read_index(data.index)
        with self.span("pipeline.curate"):
            kept, outliers = rf.pipeline.filter_outliers(entries, reader=self.read_grid)
            kept, thinning = rf.pipeline.subsample_no_rain(
                kept, w.keep_fraction, self.seed, reader=self.read_grid)
        result.outputs["curation"] = {
            "kept": len(kept), "outlier": len(outliers.removed),
            "unreadable": len(outliers.unreadable), "no_rain": thinning.no_rain_total,
            "thinned": thinning.no_rain_total - thinning.no_rain_kept}
        multimodal = w.variant == "multimodal"
        sequences = {}
        for lead in w.leads:
            with self.span("pipeline.build_sequences"):
                sequences[lead] = rf.pipeline.build_sequences(
                    kept, rf.pipeline.LeadTime(lead), multimodal=multimodal)

        if w.variant is None:
            forecaster, stats = None, None
            scored = {lead: samples[:w.scored_per_lead] for lead, samples in sequences.items()}
        else:
            samples = sequences[w.leads[0]]
            train_set = samples[:w.train]
            val_set = samples[w.train:w.train + w.val]
            test = samples[w.train + w.val:]
            stats = None
            if multimodal:
                paths = sorted({p for s in train_set for p in s.sat_paths})
                with self.span("pipeline.fit_band_stats"):
                    stats = rf.pipeline.fit_band_stats(self.read_scene(p) for p in paths)
            model = data.model
            for p, v in zip(model.params(), data.initial):
                p.value[...] = v
            schedule = rf.models.TrainSchedule(epochs=w.epochs, lr=1e-3, milestones=(),
                                               batch_size=w.batch, seed=self.seed)
            t_train = time.perf_counter()
            with self.span("models.train"):
                history = rf.models.train(model, train_set, val_set, schedule, stats)
            result.train_s = time.perf_counter() - t_train
            result.train_samples = w.epochs * len(train_set)
            result.outputs["val_loss_history"] = [h.val_loss for h in history]
            ckpt = work_dir / "model.rfp"
            with self.span("models.save_model"):
                rf.models.save_model(ckpt, model, stats)
            if self.tracer:
                self.tracer.count("models.checkpoint_bytes", ckpt.stat().st_size)
            with self.span("models.load_model"):
                reloaded, loaded_stats = rf.models.load_model(ckpt)
            self.on_model(reloaded, "reloaded")
            self.last_models = (model, stats, reloaded, loaded_stats)

            def forecaster(sample):
                with self.span("models.predict_grid"):
                    return rf.models.predict_grid(reloaded, sample, loaded_stats)
            scored = {w.leads[0]: test}

        def persistence(sample):
            with self.span("models.persistence_forecast"):
                return rf.models.persistence_forecast(sample)

        predictors = [("persistence", persistence)]
        if forecaster is not None:
            predictors.append(("unet", forecaster))
        under_test = predictors[-1][0]
        inside = [0.0]

        def timed(name, predict):
            def call(sample):
                t = time.perf_counter()
                out = predict(sample)
                dt = time.perf_counter() - t
                inside[0] += dt
                if name == under_test:
                    result.nowcast_s.append(dt)
                return out
            return name, call

        timed_predictors = [timed(name, fn) for name, fn in predictors]
        result.scored = scored[w.leads[0]]
        csv_parts, persistence_parts = [], []
        for aggregation in w.aggregations:
            reports = []
            for samples in scored.values():
                inside[0] = 0.0
                t_eval = time.perf_counter()
                with self.span("report.evaluate_models"):
                    reports.append(rf.report.evaluate_models(
                        timed_predictors, samples, categories=self.categories,
                        aggregation=aggregation))
                result.eval_s.append(time.perf_counter() - t_eval - inside[0])
                result.pairs += len(samples) * len(predictors)
            merged = rf.report.merge_reports(reports)
            stem = work_dir / f"skill-{aggregation}"
            with self.span("report.write"):
                merged.write(stem.with_suffix(".txt"), stem.with_suffix(".csv"))
            csv_parts.append(stem.with_suffix(".csv").read_text())
            persistence_parts.append(_only_model(rf, merged, "persistence").to_csv())
        result.outputs["skill_csv_sha256"] = sha256("".join(csv_parts))
        result.outputs["persistence_csv_sha256"] = sha256("".join(persistence_parts))
        result.run_s = time.perf_counter() - t0
        return result


def _only_model(rf, report, model: str):
    """The skill table restricted to one model's column."""
    return rf.report.SkillReport(
        models=(model,), leads=report.leads, categories=report.categories,
        scores={k: v for k, v in report.scores.items() if k[3] == model},
        metadata=dict(report.metadata))
