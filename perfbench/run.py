"""Benchmark of the rainfusion chain on one workload.

    python3 perfbench/run.py --workload radar_train --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src and
nowhere else.  One process runs one workload: it sets the workload up once,
runs one untimed warm-up pass, then alternates set-ups (SETUP_SECONDS of
them, at least one) with timed passes of the chain until --seconds are used
up (at least two passes and 100 nowcasts), then checks the outputs.  The
median set-up and the median pass are reported.  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  Each metric is printed
by name with unit and direction; the last line is one JSON object with
the keys correct, attempted, failed and metrics.  A failed check makes
the exit code 1.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# The BLAS thread count is fixed before numpy loads (see README.md for
# the measurement behind the choice of one thread).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from chain import WORKLOADS, Chain  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench_out"
# Set-up time before each timed pass.  The set-ups are spread over the whole
# run, so that their median sees the same machine states as the passes.
SETUP_SECONDS = 0.5
MIN_PASSES = 2
MIN_NOWCASTS = 100
PASS_TIME_LIMIT = 110.0  # seconds; stop adding passes after this regardless
VAL_LOSS_RTOL = 1e-4  # float32 training: allows reordered float operations
FSS_SPOT_PAIRS = 3

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
CONVS = ("enc1a", "enc1b", "enc2a", "enc2b", "bottleneck_a", "bottleneck_b",
         "dec2a", "dec2b", "dec1a", "dec1b", "head_a", "head_b")
# Metrics derived from shapes rather than measured.
COMPUTED = ("nn.conv_gflop", "nn.conv_gflop_per_s", "nn.conv_cached_bytes")


def _per_layer_units():
    units = {
        "synth.generate_s": "s", "synth.bytes_written": "B",
        "grids.read_grid.calls": "count", "grids.read_grid_s": "s",
        "grids.read_scene.calls": "count", "grids.read_scene_s": "s",
        "grids.bytes_read": "B", "grids.read_index_s": "s", "grids.reads_per_frame": "ratio",
        "pipeline.curate_s": "s", "pipeline.build_sequences_s": "s",
        "pipeline.resample_scene.calls": "count", "pipeline.resample_scene_s": "s",
        "pipeline.normalize_satellite_s": "s", "pipeline.fit_band_stats_s": "s",
        "pipeline.frames_kept": "count", "pipeline.frames_outlier": "count",
        "pipeline.frames_unreadable": "count", "pipeline.frames_thinned": "count",
        "models.load_sample.calls": "count", "models.load_sample_s": "s",
        "models.forward_s": "s", "models.backward_s": "s", "models.predict_grid_s": "s",
        "models.save_model_s": "s", "models.load_model_s": "s",
        "models.checkpoint_bytes": "B", "models.train_s": "s",
        "models.nowcast_ms.p50": "ms", "models.nowcast_ms.p90": "ms",
        "report.eval_pairs_per_s": "1/s",
        "models.train_samples_per_s": "1/s", "models.val_loss": "loss",
        "nn.conv_fwd_s": "s", "nn.conv_bwd_s": "s", "nn.conv_bwd_over_fwd": "s/s",
    }
    for conv in CONVS:
        units[f"nn.conv.{conv}.fwd_s"] = "s"
        units[f"nn.conv.{conv}.bwd_s"] = "s"
    units.update({
        "nn.pool_s": "s", "nn.upsample_s": "s", "nn.relu_s": "s", "nn.adam_step_s": "s",
        "nn.loss_s": "s", "nn.conv_gflop": "GFLOP", "nn.conv_gflop_per_s": "GFLOP/s",
        "nn.conv_cached_bytes": "B",
        "verify.contingency.calls": "count", "verify.contingency_s": "s",
        "verify.fss_components_s": "s", "verify.fss_s": "s",
        "verify.neighborhood_probability.calls": "count", "verify.categorize_per_pair": "ratio",
        "report.evaluate_models_s": "s", "report.write_s": "s",
    })
    for layer in spans.LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({"trace.run_s": "s", "trace.spans_per_pass": "count"})
    return units


PER_LAYER = _per_layer_units()
# Per-layer metrics where more is better; for every other one, less work
# or less time is better.
HIGHER = {"models.train_samples_per_s", "nn.conv_gflop_per_s", "pipeline.frames_kept",
          "report.eval_pairs_per_s"}


def better(name):
    if name in END_TO_END:
        return END_TO_END[name][1]
    return "higher" if name in HIGHER else "lower"


def load_package():
    """Import rainfusion from this checkout's src/, or fail."""
    src = ROOT / "src"
    if not (src / "rainfusion" / "__init__.py").is_file():
        raise SystemExit(f"error: no rainfusion package under {src}")
    sys.path.insert(0, str(src))
    rf = SimpleNamespace(**{n: importlib.import_module(f"rainfusion.{n}") for n in spans.LAYERS})
    if not Path(rf.models.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit("error: rainfusion was imported from outside this checkout")
    return rf


def environment(args, workload):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "tiny": args.tiny, "trace": args.trace,
    }


class Checks:
    def __init__(self):
        self.results = {}

    def __call__(self, name, ok, detail=""):
        self.results[name] = {"ok": bool(ok), "detail": str(detail)}

    @property
    def failed(self):
        return sum(not r["ok"] for r in self.results.values())


def run_checks(rf, chain, args, data, passes, tracer, checks, work):
    """Output checks, made after the timed passes with tracing removed."""
    workload = chain.w
    first = passes[0]
    checks("passes_identical", all(p.outputs == first.outputs for p in passes),
           "every pass computed the same skill tables, history and curation counts")
    exp = data.expected
    cur = first.outputs["curation"]
    checks("curation_counts",
           cur["unreadable"] == exp["unreadable"] == workload.truncated
           and cur["outlier"] == exp["outlier"] and cur["no_rain"] == exp["no_rain"]
           and cur["kept"] == workload.frames - exp["unreadable"] - exp["outlier"] - cur["thinned"],
           f"program {cur} vs bytes on disk {exp}, {workload.truncated} truncated")

    reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    canon = Chain(rf, WORKLOADS[workload.name][1], seed=reference["seed"])
    canon_dir = work / "reference"
    canon_dir.mkdir()
    canon_data, _ = canon.setup(canon_dir)
    out = canon.run(canon_data, canon_dir).outputs
    checks("persistence_csv_digest",
           out["persistence_csv_sha256"] == reference["persistence_csv_sha256"],
           out["persistence_csv_sha256"])
    checks("reference_curation", out["curation"] == reference["curation"], out["curation"])
    if workload.variant is not None:
        got, want = out["val_loss_history"], reference["val_loss_history"]
        checks("val_loss_history",
               len(got) == len(want) and np.allclose(got, want, rtol=VAL_LOSS_RTOL, atol=0),
               f"{got} vs recorded {want} (rtol {VAL_LOSS_RTOL})")
        model, stats, reloaded, loaded_stats = chain.last_models
        same = all(np.array_equal(rf.models.predict_grid(model, s, stats).values,
                                  rf.models.predict_grid(reloaded, s, loaded_stats).values)
                   for s in first.scored[:3])
        checks("checkpoint_bit_identical", same, "reloaded vs in-memory model, 3 samples")

    rng = np.random.default_rng(args.seed)
    category = rf.report.DEFAULT_CATEGORIES[0]
    params = rf.verify.FssParams.for_category(category)
    picks = rng.choice(len(first.scored), size=min(FSS_SPOT_PAIRS, len(first.scored)),
                       replace=False)
    scores = []
    for i in picks:
        sample = first.scored[int(i)]
        pred = rf.models.persistence_forecast(sample)
        obs = rf.grids.read_grid(sample.target_path)
        scores.append((rf.verify.fss(pred, obs, params),
                       rf.verify.fss_bruteforce(pred, obs, params)))
    checks("fss_vs_bruteforce",
           all(f == b or (f is not None and b is not None and abs(f - b) <= 1e-12)
               for f, b in scores),
           f"{category.name}, (fss, bruteforce) = {scores}")

    if tracer is not None:
        groups = sorted({s[4] for s in tracer.spans if s[4].startswith("pass")})
        counts = [(tracer.totals(g)[0], tracer.counters[g]) for g in groups]
        checks("counts_repeat", all(c == counts[0] for c in counts),
               "span counts and counters equal in every pass")


def end_to_end(passes, setup_times, rss_mb):
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(p.run_s for p in passes),
        "peak_rss_mb": rss_mb,
    }


def latency_and_throughput(passes):
    """Nowcast latency percentiles over all timed passes, and scoring throughput:
    (sample, predictor) pairs per second of evaluate_models wall time with the
    time inside the predictors taken out, median over passes."""
    nowcasts = [t for p in passes for t in p.nowcast_s]
    return {"models.nowcast_ms.p50": float(np.percentile(nowcasts, 50)) * 1e3,
            "models.nowcast_ms.p90": float(np.percentile(nowcasts, 90)) * 1e3,
            "report.eval_pairs_per_s": statistics.median(p.pairs / sum(p.eval_s)
                                                         for p in passes)}


def trained_conv_forward(tracer):
    """Conv forward seconds inside the model forwards that a backward followed."""
    last_forward, trained = None, set()
    for i, (name, *_) in enumerate(tracer.spans):
        if name == "models.forward":
            last_forward = i
        elif name == "models.backward":
            trained.add(last_forward)
    return sum(end - start for name, start, end, parent, group in tracer.spans
               if parent in trained and group.startswith("pass")
               and name.startswith("nn.conv.") and name.endswith(".fwd"))


def per_layer(tracer, passes, setups, radar_files):
    """Layer metrics per pass (synth.* per set-up), from the traced run."""
    def mean_totals(groups):
        sums = [{}, {}, {}, {}]  # calls, seconds, self seconds, counters
        for g in groups:
            for src, dst in zip((*tracer.totals(g), tracer.counters[g]), sums):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
        return [{k: v / len(groups) for k, v in d.items()} for d in sums]

    calls, sec, self_s, cnt = mean_totals([f"pass{i}" for i in range(len(passes))])
    _, ssec, sself, scnt = mean_totals([f"setup{i}" for i in range(setups)])
    conv_fwd = sum(sec.get(f"nn.conv.{c}.fwd", 0.0) for c in CONVS)
    conv_bwd = sum(sec.get(f"nn.conv.{c}.bwd", 0.0) for c in CONVS)
    trained_fwd = trained_conv_forward(tracer) / len(passes)
    gflop = cnt.get("nn.conv_flop", 0) / 1e9
    pairs = passes[0].pairs
    curation = passes[0].outputs["curation"]
    m = {
        "synth.generate_s": ssec.get("synth.generate", 0.0),
        "synth.bytes_written": scnt.get("synth.bytes_written", 0),
        "synth.self_s": sself.get("synth", 0.0),
        "grids.read_grid.calls": calls.get("grids.read_grid", 0),
        "grids.read_grid_s": sec.get("grids.read_grid", 0.0),
        "grids.read_scene.calls": calls.get("grids.read_scene", 0),
        "grids.read_scene_s": sec.get("grids.read_scene", 0.0),
        "grids.bytes_read": cnt.get("grids.bytes_read", 0),
        "grids.read_index_s": sec.get("grids.read_index", 0.0),
        "grids.reads_per_frame": calls.get("grids.read_grid", 0) / max(len(radar_files), 1),
        "pipeline.curate_s": sec.get("pipeline.curate", 0.0),
        "pipeline.build_sequences_s": sec.get("pipeline.build_sequences", 0.0),
        "pipeline.resample_scene.calls": calls.get("pipeline.resample_scene", 0),
        "pipeline.resample_scene_s": sec.get("pipeline.resample_scene", 0.0),
        "pipeline.normalize_satellite_s": sec.get("pipeline.normalize_satellite", 0.0),
        "pipeline.fit_band_stats_s": sec.get("pipeline.fit_band_stats", 0.0),
        "pipeline.frames_kept": curation["kept"],
        "pipeline.frames_outlier": curation["outlier"],
        "pipeline.frames_unreadable": curation["unreadable"],
        "pipeline.frames_thinned": curation["thinned"],
        "models.load_sample.calls": calls.get("models.load_sample", 0),
        "models.load_sample_s": sec.get("models.load_sample", 0.0),
        "models.forward_s": sec.get("models.forward", 0.0),
        "models.backward_s": sec.get("models.backward", 0.0),
        "models.predict_grid_s": sec.get("models.predict_grid", 0.0),
        "models.save_model_s": sec.get("models.save_model", 0.0),
        "models.load_model_s": sec.get("models.load_model", 0.0),
        "models.checkpoint_bytes": cnt.get("models.checkpoint_bytes", 0),
        "models.train_s": sec.get("models.train", 0.0),
        "models.train_samples_per_s": statistics.median(
            p.train_samples / p.train_s if p.train_s else 0.0 for p in passes),
        "models.val_loss": min(passes[0].outputs.get("val_loss_history") or [0.0]),
        **latency_and_throughput(passes),
        "nn.conv_fwd_s": conv_fwd,
        "nn.conv_bwd_s": conv_bwd,
        "nn.conv_bwd_over_fwd": conv_bwd / trained_fwd if trained_fwd else 0.0,
    }
    for c in CONVS:
        m[f"nn.conv.{c}.fwd_s"] = sec.get(f"nn.conv.{c}.fwd", 0.0)
        m[f"nn.conv.{c}.bwd_s"] = sec.get(f"nn.conv.{c}.bwd", 0.0)
    m.update({
        "nn.pool_s": sec.get("nn.pool", 0.0),
        "nn.upsample_s": sec.get("nn.upsample", 0.0),
        "nn.relu_s": sec.get("nn.relu", 0.0),
        "nn.adam_step_s": sec.get("nn.adam_step", 0.0),
        "nn.loss_s": sec.get("nn.loss", 0.0),
        "nn.conv_gflop": gflop,
        "nn.conv_gflop_per_s": gflop / (conv_fwd + conv_bwd) if conv_fwd + conv_bwd else 0.0,
        "nn.conv_cached_bytes": cnt.get("nn.conv_cached_bytes", 0),
        "verify.contingency.calls": calls.get("verify.contingency", 0),
        "verify.contingency_s": sec.get("verify.contingency", 0.0),
        "verify.fss_components_s": sec.get("verify.fss_components", 0.0),
        "verify.fss_s": sec.get("verify.fss", 0.0),
        "verify.neighborhood_probability.calls": calls.get("verify.neighborhood_probability", 0),
        "verify.categorize_per_pair": calls.get("verify.categorize_values", 0) / pairs,
        "report.evaluate_models_s": sec.get("report.evaluate_models", 0.0),
        "report.write_s": sec.get("report.write", 0.0),
        "trace.run_s": statistics.median(p.run_s for p in passes),
        "trace.spans_per_pass": sum(calls.values()),
    })
    for layer in spans.LAYERS:  # synth.self_s is per set-up, set above
        m.setdefault(f"{layer}.self_s", self_s.get(layer, 0.0))
    return m


def set_up(chain, work, tracer, setup_times, keep=False):
    """Set the workload up once, timed; the data is deleted unless `keep`."""
    i = len(setup_times)
    if tracer:
        tracer.group = f"setup{i}"
    data_dir = work / f"data{i}"
    data_dir.mkdir()
    data, seconds = chain.setup(data_dir)
    setup_times.append(seconds)
    if not keep:
        shutil.rmtree(data_dir)
    return data


def measure(chain, data, work, tracer, seconds, passes, setup_times):
    """Set-ups and timed passes in turn until `seconds` are used, with
    enough passes and nowcasts."""
    elapsed, cycles = 0.0, []
    while True:
        spent = 0.0
        while spent < SETUP_SECONDS:
            set_up(chain, work, tracer, setup_times)
            spent += setup_times[-1]
        if tracer:
            tracer.group = f"pass{len(passes)}"
        passes.append(chain.run(data, work))
        cycles.append(spent + passes[-1].run_s)
        elapsed += cycles[-1]
        enough = (len(passes) >= MIN_PASSES
                  and sum(len(p.nowcast_s) for p in passes) >= MIN_NOWCASTS)
        if enough and elapsed + statistics.median(cycles) > seconds or elapsed > PASS_TIME_LIMIT:
            return


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = ap.parse_args(argv)

    rf = load_package()
    workload = WORKLOADS[args.workload][1 if args.tiny else 0]
    env = environment(args, workload)
    print("env " + json.dumps(env), flush=True)

    tracer = patches = traced = None
    if args.trace:
        tracer = spans.Tracer()
        patches, traced = spans.install(tracer, rf)
    chain = Chain(rf, workload, args.seed, tracer, traced)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    checks = Checks()
    warmup, passes, setup_times, errors = None, [], [], []
    try:
        work.mkdir()
        data = set_up(chain, work, tracer, setup_times, keep=True)
        if data.model is not None:
            chain.on_model(data.model, "trained")
        # One untimed pass first, so lazy allocation and first-call costs that
        # a long-running user pays once are not in the medians.
        if tracer:
            tracer.group = "warmup"
        warmup = chain.run(data, work)
        measure(chain, data, work, tracer, args.seconds, passes, setup_times)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if patches:
            patches.close()
        run_checks(rf, chain, args, data, [warmup, *passes], tracer, checks, work)
    except Exception:  # report the failure as a failed operation, then exit non-zero
        errors.append(traceback.format_exc())
        print(errors[-1], file=sys.stderr)
    finally:
        if patches:
            patches.close()
        shutil.rmtree(work, ignore_errors=True)

    done = [warmup, *passes] if warmup else []
    nowcasts = sum(len(p.nowcast_s) for p in done)
    pairs = sum(p.pairs for p in done)
    attempted = nowcasts + pairs + len(checks.results) + len(errors)
    failed = checks.failed + len(errors)
    correct = failed == 0 and bool(passes)
    details = {"env": env, "passes": len(passes), "nowcasts": nowcasts, "pairs": pairs,
               "pass_run_s": [p.run_s for p in passes], "setup_s": setup_times,
               "samples_scored_per_pass": len(passes[0].scored) if passes else 0,
               "outputs": passes[0].outputs if passes else {}, "checks": checks.results,
               "ops_failed_frac": failed / max(attempted, 1)}
    if passes and not args.trace:
        # The traced run reports these as per-layer metrics; here they are
        # only for the reader.
        details["untraced"] = latency_and_throughput(passes)
    print("details " + json.dumps(details), flush=True)
    if not correct:
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed,
                          "metrics": {}}))
        return 1

    if args.trace:
        metrics = per_layer(tracer, passes, len(setup_times), traced["radar_paths"])
        tracer.dump(OUT / f"spans-{tag}.json")
        units = PER_LAYER
    else:
        metrics = end_to_end(passes, setup_times, rss_mb)
        units = {k: u for k, (u, _) in END_TO_END.items()}
    for name, value in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"metric {name} = {value:.6g} {units[name]} ({better(name)} is better){label}")
    # Printed for the reader, outside the result line.
    print(f"metric ops_failed_frac = {details['ops_failed_frac']:.6g} fraction "
          "(lower is better)")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
