"""Runs one workload: set-up, pipeline passes through ``calibrec.cli.main``, checks, metrics.

Untraced runs (``trace=False``) give the end-to-end metrics; their set-up and
pipeline times are scaled by a machine-speed probe (``Speed``). Traced runs
give the per-layer metrics: one untraced pass, then the same pass again with
``tracing.Probes`` installed; the difference of the two pipeline times is the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibrec import calibration, cli, ranker, synthetic

from checks import Generated, Tally, check_pass, read_split
from tracing import Probes, Tracer, layer_metrics
from workloads import Workload

# set-up runs this many times per untraced run; setup_s is their median
SETUP_REPEATS = 3
# speed_probe() seconds on the reference machine (2-vCPU Xeon VM, Python
# 3.11): untraced times are scaled to it, see scale()
REFERENCE_PROBE_S = 0.130
# negatives per test positive in the benchmark's own held-out sample
HELDOUT_NEGATIVES = 4
STAGE_LABELS = ("ingest", "train", "distill", "calibrate", "recommend_fixed", "recommend_perk", "eval")

_TIME_IMPORT = (
    "import time; t = time.perf_counter(); import calibrec.cli, calibrec.synthetic; "
    "print(time.perf_counter() - t)"
)


@dataclass
class Pass:
    paths: dict[str, str]
    stage_s: dict[str, float] = field(default_factory=dict)
    stdout: dict[str, str] = field(default_factory=dict)
    report: dict | None = None

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    errors: list[str]
    missing: list[str]
    # unscaled wall seconds and the median speed probe, for the record line
    raw: dict = field(default_factory=dict)

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in self.metrics.items()},
        }


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter and small-array work.

    The machine's speed drifts by 15-20% over minutes when other tenants
    share its cores, and the pipeline's stage times drift with it (their
    correlation with this probe was 0.8). Timing the probe between stages
    and scaling by it removes most of that drift from the reported times.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    table = {i: (i * 7) % 1013 for i in range(150_000)}
    sorted(table.items(), key=lambda kv: kv[1])
    items, user = rng.normal(size=(1400, 32)), rng.normal(size=32)
    for _ in range(1500):
        items @ user
        int(rng.integers(1400))
    return time.perf_counter() - t0


class Speed:
    """Probe times taken through a run; ``scale`` maps seconds to the reference machine."""

    def __init__(self):
        self.probes: list[float] = []

    def probe(self) -> None:
        self.probes.append(speed_probe())

    def scale(self, seconds: float) -> float:
        return seconds * REFERENCE_PROBE_S / statistics.median(self.probes)


def time_import(src: Path) -> float:
    """Seconds to import the CLI and the generator in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _TIME_IMPORT],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def generate(workload: Workload, seed: int, csv: Path) -> Generated:
    shape = workload.shape
    pairs = synthetic.low_rank_interactions(
        shape.users, shape.items, rank=shape.rank, per_user=shape.per_user,
        noise=shape.noise, seed=seed,
    )
    synthetic.write_interactions_csv(csv, pairs, with_timestamps=True)
    return Generated.of(pairs)


def set_up(workload: Workload, seed: int, csv: Path, src: Path, repeats: int, speed=None):
    """Import and generate the workload's CSV ``repeats`` times; returns (sizes, median seconds)."""
    times = []
    for _ in range(repeats):
        if speed is not None:
            speed.probe()
        import_s = time_import(src)
        t0 = time.perf_counter()
        generated = generate(workload, seed, csv)
        times.append(import_s + time.perf_counter() - t0)
    return generated, statistics.median(times)


def run_pass(
    workload: Workload, work: Path, csv: Path, tally: Tally, tracer=None, speed=None
) -> Pass | None:
    """Run every stage once in ``work``; None if a stage failed (the rest count as failed)."""
    work.mkdir(parents=True)
    paths = {
        "csv": str(csv),
        "bundle": str(work / "bundle"),
        "model": str(work / "model"),
        "calib": str(work / "calib"),
        "distill": str(work / "distill"),
        "fixed": str(work / "fixed.jsonl"),
        "perk": str(work / "perk.jsonl"),
        "perk_summary": str(work / "perk_summary.json"),
        "report": str(work / "report.json"),
    }
    paths["model"] = workload.model.format(**paths)
    done = Pass(paths)
    for n, stage in enumerate(workload.stages):
        # each stage would be its own process outside the benchmark: start it
        # without garbage left by the previous one
        gc.collect()
        if speed is not None:
            speed.probe()
        out = io.StringIO()
        span = tracer.open(f"cli.{stage.command}") if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(stage.argv(paths))
        except Exception:  # a crash is a failed operation, not the end of the run
            code = "exception"
            out.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        if not tally.check(code == 0, f"{stage.label} exited {code}: {out.getvalue()[-800:]}"):
            for rest in workload.stages[n + 1 :]:
                tally.check(False, f"{rest.label} not run")
            return None
        done.stage_s[stage.label] = elapsed
        done.stdout[stage.label] = out.getvalue()
    return done


def heldout_quality(paths: dict[str, str], seed: int) -> tuple[float, float]:
    """Ranking AUC and calibrated log loss on test positives and seeded unobserved negatives.

    AUC is per user over raw scores (ties count half), averaged over users;
    log loss is over every sampled pair's calibrated probability.
    """
    bundle = Path(paths["bundle"])
    train, validation, test = (
        read_split(bundle / f"{name}.txt") for name in ("train", "validation", "test")
    )
    params, _ = ranker.load_checkpoint(paths["model"])
    cal = calibration.load_calibrator(Path(paths["calib"]) / "calibrator.json")
    rng = np.random.default_rng([seed, 7])
    all_items = np.arange(params.num_items)
    aucs, losses = [], []
    for user in sorted(test):
        positives = sorted(test[user])
        observed = np.fromiter(train[user] | validation[user] | test[user], dtype=np.int64)
        pool = np.setdiff1d(all_items, observed)
        negatives = rng.choice(pool, size=HELDOUT_NEGATIVES * len(positives))
        scores = ranker.score_items(params, user, np.concatenate([positives, negatives]))
        diff = scores[: len(positives), None] - scores[None, len(positives) :]
        aucs.append(np.mean((diff > 0) + 0.5 * (diff == 0)))
        y = np.concatenate([np.ones(len(positives)), np.zeros(len(negatives))])
        p = np.clip(np.atleast_1d(calibration.apply(cal, scores)), 1e-12, 1.0 - 1e-12)
        losses.append(-(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
    return float(np.mean(aucs)), float(np.mean(np.concatenate(losses)))


def _eval_value(report: dict | None, label: str, metric: str) -> float:
    for row in (report or {}).get("rows", []):
        if row["label"] == label:
            return float(row[metric])
    return 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    work_root: Path,
    src: Path,
    spans_path: Path | None = None,
    setup_repeats: int = SETUP_REPEATS,
) -> Outcome:
    run_dir = work_root / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        if trace:
            return _traced(workload, seed, run_dir, src, spans_path)
        return _untraced(workload, seed, seconds, run_dir, src, setup_repeats)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _check(tally: Tally, workload: Workload, done: Pass | None, generated) -> None:
    if done is not None:
        done.report = check_pass(tally, workload, done.paths, done.stdout, generated)


def _untraced(workload, seed, seconds, run_dir, src, setup_repeats) -> Outcome:
    csv = run_dir / "interactions.csv"
    speed = Speed()
    generated, setup_s = set_up(workload, seed, csv, src, setup_repeats, speed)
    tally = Tally()
    passes: list[Pass] = []
    start = time.perf_counter()
    # one pass at least; another only while it fits in the measuring window
    while True:
        done = run_pass(workload, run_dir / f"pass{len(passes)}", csv, tally, speed=speed)
        _check(tally, workload, done, generated)
        if done is None:
            break
        passes.append(done)
        if time.perf_counter() - start + done.pipeline_s > seconds:
            break
    speed.probe()
    metrics: dict[str, tuple[float, str]] = {"setup_s": (speed.scale(setup_s), "s")}
    if passes:
        last = passes[-1]
        pipeline_s = statistics.median(p.pipeline_s for p in passes)
        metrics["pipeline_s"] = (speed.scale(pipeline_s), "s")
        auc, logloss = heldout_quality(last.paths, seed)
        metrics["test_auc"] = (auc, "ratio")
        metrics["calib_logloss"] = (logloss, "nats")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    raw = {"setup_s": setup_s, "pipeline_s": pipeline_s if passes else None,
           "speed_probe_s": statistics.median(speed.probes)}
    return Outcome(
        tally.failed == 0, tally.attempted, tally.failed, metrics, tally.errors, [], raw
    )


def _traced(workload, seed, run_dir, src, spans_path) -> Outcome:
    csv = run_dir / "interactions.csv"
    tracer = Tracer(run_id=f"{workload.name}-seed{seed}-pid{os.getpid()}")
    with Probes(tracer):
        generated = generate(workload, seed, csv)
    tally = Tally()
    plain = run_pass(workload, run_dir / "untraced", csv, tally)
    _check(tally, workload, plain, generated)
    with Probes(tracer):
        traced = run_pass(workload, run_dir / "traced", csv, tally, tracer)
    _check(tally, workload, traced, generated)
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)

    metrics = layer_metrics(tracer)
    overhead = traced.pipeline_s - plain.pipeline_s if plain and traced else 0.0
    metrics["trace.overhead_s"] = (overhead, "s")
    for label in STAGE_LABELS:
        metrics[f"stage.{label}_s"] = ((plain.stage_s if plain else {}).get(label, 0.0), "s")
    report = plain.report if plain else None
    metrics["metrics.recall_at_20"] = (_eval_value(report, "k=20", "recall"), "ratio")
    metrics["perk.f1"] = (_eval_value(report, "perk", "f1"), "ratio")
    written = sum(f.stat().st_size for f in (run_dir / "traced").rglob("*") if f.is_file())
    metrics["cli.output_bytes"] = (written, "bytes")
    return Outcome(
        tally.failed == 0, tally.attempted, tally.failed, metrics, tally.errors, tracer.missing
    )
