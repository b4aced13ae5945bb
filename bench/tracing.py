"""Spans and counters recorded around calibrec's public functions, from outside.

The traced run replaces each probed function with a wrapper under every
``calibrec`` module name it is bound to (``rank_items``, for instance, is
imported by ``cli``, ``perk`` and ``distill``). Coarse calls get one span each:
name, start, end, parent span and run id. Hot calls, which run thousands to
hundreds of thousands of times, get a call count and total seconds per parent
span instead. A probe whose function no longer exists is reported as missing.

Observers read a probed call's arguments and result after its timed interval,
so their cost shows in the traced pipeline time but not in the layer's time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Tracer:
    """Spans and counters of one run, kept in memory until ``write``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        # (counter name, parent span id) -> [calls, seconds]
        self.counters: dict[tuple[str, int | None], list] = defaultdict(lambda: [0, 0.0])
        self.values: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, seconds: float) -> None:
        cell = self.counters[(name, self._stack[-1]["id"] if self._stack else None)]
        cell[0] += 1
        cell[1] += seconds

    def record(self, name: str, value) -> None:
        self.values[name].append(value)

    # -- summaries ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def counter(self, name: str) -> tuple[int, float]:
        calls = seconds = 0
        for (counter_name, _), (n, t) in self.counters.items():
            if counter_name == name:
                calls += n
                seconds += t
        return calls, seconds

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus time covered by child spans and counters."""
        covered = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        for (_, parent), (_, seconds) in self.counters.items():
            if parent is not None:
                covered[parent] += seconds
        out = defaultdict(float)
        for span in self.spans:
            out[span["name"]] += span["end"] - span["start"] - covered[span["id"]]
        return dict(out)

    def write(self, path) -> None:
        """Spans, then counters aggregated per parent span name, as JSON lines."""
        names = {s["id"]: s["name"] for s in self.spans}
        per_parent = defaultdict(lambda: [0, 0.0])
        for (name, parent), (calls, seconds) in self.counters.items():
            cell = per_parent[(name, names.get(parent))]
            cell[0] += calls
            cell[1] += seconds
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"span": span}) + "\n")
            for (name, parent), (calls, seconds) in sorted(per_parent.items(), key=str):
                row = {"name": name, "parent": parent, "calls": calls, "seconds": seconds}
                fh.write(json.dumps({"counter": row}) + "\n")


# ---------------------------------------------------------------------------
# probes


@dataclass(frozen=True)
class Probe:
    """A function to wrap: ``kind`` is "span" (one per call) or "counter"."""

    module: str
    attr: str
    kind: str
    observe: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _train_rows(dataset) -> int:
    return sum(len(items) for items in dataset.train_by_user.values())


def _observe_bpr(tracer, args, kwargs, result):
    tracer.record("ranker.bpr_examples", _train_rows(args[1]))


def _observe_samples(tracer, args, kwargs, result):
    tracer.record("calibration.samples", len(result))


def _observe_cut(tracer, args, kwargs, result):
    tracer.record("perk.k_star", result.k_star)
    tracer.record("perk.k_max_effective", result.k_max_effective)


def _observe_rank_table(tracer, args, kwargs, result):
    tracer.record("distill.rank_table_entries", sum(len(row) for row in result.ranks.values()))


def _observe_weights(tracer, args, kwargs, result):
    tracer.record("distill.weighed", len(result))
    tracer.record("distill.positive", sum(1 for w in result.values() if w > 0))


def _observe_draw(tracer, args, kwargs, result):
    tracer.record("distill.sampled", len(result))


def _observe_evaluate(tracer, args, kwargs, result):
    tracer.record("metrics.users_evaluated", result.users_evaluated)


PROBES = (
    Probe("cli", "load_bundle", "span"),
    Probe("dataset", "load_interactions", "span"),
    Probe("dataset", "split_per_user", "span"),
    Probe("dataset", "sample_negative", "counter"),
    Probe("ranker", "bpr_epoch", "span", _observe_bpr),
    Probe("ranker", "pointwise_epoch", "span"),
    Probe("ranker", "rank_items", "span"),
    Probe("ranker", "score_items", "counter"),
    Probe("ranker", "save_checkpoint", "span"),
    Probe("ranker", "load_checkpoint", "span"),
    Probe("calibration", "collect_calibration_samples", "span", _observe_samples),
    Probe("calibration", "fit", "span"),  # wrapped by _wrap_fit
    Probe("calibration", "ece", "span"),
    Probe("calibration", "reliability_table", "span"),
    Probe("perk", "perk_recommend", "span", _observe_cut),
    Probe("perk", "utility_curve", "counter"),
    Probe("distill", "cotrain_epoch", "span"),
    Probe("distill", "build_rank_table", "span", _observe_rank_table),
    Probe("distill", "rank_discrepancy_weights", "counter", _observe_weights),
    Probe("distill", "sample_distill_items", "counter", _observe_draw),
    Probe("metrics", "evaluate", "span", _observe_evaluate),
    Probe("synthetic", "low_rank_interactions", "span"),
)


def _wrap(fn, probe: Probe, tracer: Tracer):
    name = probe.name
    observe = probe.observe
    failed = []

    def after(args, kwargs, result):
        if observe is None or failed:
            return
        try:
            observe(tracer, args, kwargs, result)
        except (AttributeError, TypeError, KeyError, IndexError) as exc:
            failed.append(exc)
            tracer.missing.append(f"{name} observer: {exc!r}")

    if probe.kind == "counter":

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            tracer.count(name, time.perf_counter() - t0)
            after(args, kwargs, result)
            return result

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            after(args, kwargs, result)
            return result

    return wrapper


def _wrap_fit(fn, probe: Probe, tracer: Tracer):
    """Time ``fit`` and read its iteration count from the ``full_output`` trace.

    The loss trace holds the objective at the start and after every accepted
    step, so its length minus one is the number of iterations run.
    """
    params = inspect.signature(fn).parameters
    if "full_output" not in params or "max_iters" not in params:
        tracer.missing.append("calibration.fit iterations: no full_output/max_iters")
        return _wrap(fn, probe, tracer)
    default_cap = params["max_iters"].default

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        wanted = kwargs.pop("full_output", False)
        span = tracer.open(probe.name)
        try:
            cal, trace = fn(*args, full_output=True, **kwargs)
        finally:
            tracer.close(span)
        iters = max(len(trace) - 1, 0)
        tracer.record("calibration.fit_iters", iters)
        tracer.record("calibration.fit_capped", int(iters >= kwargs.get("max_iters", default_cap)))
        return (cal, trace) if wanted else cal

    return wrapper


class Probes:
    """Installs wrappers for ``PROBES`` and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Probes":
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "calibrec"]
        for probe in PROBES:
            try:
                home = importlib.import_module(f"calibrec.{probe.module}")
            except ImportError:
                self._missing(probe.name)
                continue
            fn = getattr(home, probe.attr, None)
            if not callable(fn):
                self._missing(probe.name)
                continue
            make = _wrap_fit if probe.name == "calibration.fit" else _wrap
            wrapper = make(fn, probe, self.tracer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        return self

    def _missing(self, name: str) -> None:
        if name not in self.tracer.missing:
            self.tracer.missing.append(name)

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()


# ---------------------------------------------------------------------------
# per-layer metrics

# CLI subcommands; the harness opens one "cli.<command>" span per stage
CLI_COMMANDS = ("ingest", "train", "distill", "calibrate", "recommend", "eval")


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); 0 where a layer did not run."""
    v = tracer.values

    def total(name: str) -> float:
        return float(sum(tracer.durations(name)))

    def calls(name: str) -> int:
        return len(tracer.durations(name))

    out: dict[str, tuple[float, str]] = {}

    out["dataset.load_interactions_s"] = (total("dataset.load_interactions"), "s")
    out["dataset.split_s"] = (total("dataset.split_per_user"), "s")
    n, t = tracer.counter("dataset.sample_negative")
    out["dataset.sample_negative_calls"] = (n, "count")
    out["dataset.sample_negative_s"] = (t, "s")

    out["cli.load_bundle_calls"] = (calls("cli.load_bundle"), "count")
    out["cli.load_bundle_s"] = (total("cli.load_bundle"), "s")
    self_times = tracer.self_times()
    for command in CLI_COMMANDS:
        out[f"cli.{command}.self_s"] = (self_times.get(f"cli.{command}", 0.0), "s")

    bpr = tracer.durations("ranker.bpr_epoch")
    out["ranker.bpr_epoch_s"] = (_median(bpr), "s")
    examples = sum(v["ranker.bpr_examples"])
    out["ranker.train_examples_per_s"] = (examples / sum(bpr) if bpr else 0.0, "1/s")
    out["ranker.pointwise_epoch_s"] = (_median(tracer.durations("ranker.pointwise_epoch")), "s")
    out["ranker.rank_items_calls"] = (calls("ranker.rank_items"), "count")
    out["ranker.rank_items_s"] = (total("ranker.rank_items"), "s")
    n, t = tracer.counter("ranker.score_items")
    out["ranker.score_items_calls"] = (n, "count")
    out["ranker.score_items_s"] = (t, "s")
    out["ranker.checkpoint_save_s"] = (total("ranker.save_checkpoint"), "s")
    out["ranker.checkpoint_load_s"] = (total("ranker.load_checkpoint"), "s")

    out["calibration.collect_s"] = (total("calibration.collect_calibration_samples"), "s")
    out["calibration.samples"] = (sum(v["calibration.samples"]), "count")
    out["calibration.fit_s"] = (total("calibration.fit"), "s")
    out["calibration.fit_iters"] = (sum(v["calibration.fit_iters"]), "count")
    out["calibration.fit_capped"] = (sum(v["calibration.fit_capped"]), "count")
    diagnostics = total("calibration.ece") + total("calibration.reliability_table")
    out["calibration.diagnostics_s"] = (diagnostics, "s")

    user_ms = [1000.0 * d for d in tracer.durations("perk.perk_recommend")]
    out["perk.user_ms.p50"] = (_percentile(user_ms, 50), "ms")
    out["perk.user_ms.p98"] = (_percentile(user_ms, 98), "ms")
    out["perk.curve_s"] = (tracer.counter("perk.utility_curve")[1], "s")
    k_star, k_eff = v["perk.k_star"], v["perk.k_max_effective"]
    out["perk.kstar_mean"] = (float(np.mean(k_star)) if k_star else 0.0, "count")
    pinned = sum(1 for k, m in zip(k_star, k_eff) if k == m)
    out["perk.kstar_at_kmax_share"] = (pinned / len(k_star) if k_star else 0.0, "ratio")

    out["distill.cotrain_epoch_s"] = (_median(tracer.durations("distill.cotrain_epoch")), "s")
    out["distill.rank_table_s"] = (total("distill.build_rank_table"), "s")
    entries = v["distill.rank_table_entries"]
    out["distill.rank_table_entries"] = (float(np.mean(entries)) if entries else 0.0, "count")
    n, t = tracer.counter("distill.rank_discrepancy_weights")
    out["distill.weights_calls"] = (n, "count")
    out["distill.weights_s"] = (t, "s")
    weighed = sum(v["distill.weighed"])
    share = sum(v["distill.positive"]) / weighed if weighed else 0.0
    out["distill.positive_weight_share"] = (share, "ratio")
    n, t = tracer.counter("distill.sample_distill_items")
    out["distill.sample_s"] = (t, "s")
    out["distill.sampled_items"] = (sum(v["distill.sampled"]), "count")
    out["distill.empty_users"] = (sum(1 for k in v["distill.sampled"] if k == 0), "count")

    out["metrics.evaluate_s"] = (total("metrics.evaluate"), "s")
    out["metrics.users_evaluated"] = (sum(v["metrics.users_evaluated"]), "count")
    out["synthetic.generate_s"] = (total("synthetic.low_rank_interactions"), "s")
    return out
