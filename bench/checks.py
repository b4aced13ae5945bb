"""Output checks for one pipeline pass.

Every check is one operation: a stage's exit code, one output row, or one
file-level property. A failed check counts as a failed operation against the
operations attempted. The checks read the files the CLI wrote and recompute
what they assert with their own code, so a defect in the program's helpers
does not hide itself.
"""

from __future__ import annotations

import json
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from workloads import Stage, Workload

_INGEST_LINE = re.compile(
    r"ingested (\d+) interactions: (\d+) users, (\d+) items; "
    r"splits train=(\d+) validation=(\d+) test=(\d+)"
)


@dataclass(frozen=True)
class Generated:
    """Sizes of the generated interaction list, all the checks need of it."""

    rows: int
    users: int
    items: int

    @classmethod
    def of(cls, pairs) -> "Generated":
        return cls(len(pairs), len({u for u, _ in pairs}), len({i for _, i in pairs}))


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


def read_jsonl(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_split(path) -> dict[int, set[int]]:
    by_user: dict[int, set[int]] = defaultdict(set)
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                u, i = line.split(",")[:2]
                by_user[int(u)].add(int(i))
    return by_user


def _settings(stage: Stage) -> dict[str, str]:
    return dict(setting.split("=", 1) for setting in stage.settings())


def _eval_ks(stage: Stage) -> list[int]:
    ks = _settings(stage).get("eval.ks")
    return [int(k) for k in ks.split(",")] if ks else [1, 5, 10, 20]


def check_ingest(tally: Tally, stdout: str, bundle: Path, generated: Generated) -> None:
    match = _INGEST_LINE.search(stdout)
    if not tally.check(match is not None, "ingest: no summary line"):
        return
    rows, users, items, n_train, n_val, n_test = map(int, match.groups())
    tally.check(rows == generated.rows, f"ingest: {rows} rows read, {generated.rows} generated")
    tally.check(n_train + n_val + n_test == rows, "ingest: split sizes do not add up")
    tally.check(users == generated.users, "ingest: user count")
    tally.check(items == generated.items, "ingest: item count")
    for name, expected in (("train", n_train), ("validation", n_val), ("test", n_test)):
        with open(bundle / f"{name}.txt", "r", encoding="utf-8") as fh:
            lines = sum(1 for line in fh if line.strip())
        tally.check(lines == expected, f"ingest: {name}.txt has {lines} rows, expected {expected}")
    for name, expected in (("user_map", users), ("item_map", items)):
        size = len(json.loads((bundle / f"{name}.json").read_text(encoding="utf-8")))
        tally.check(size == expected, f"ingest: {name}.json has {size} entries")


def check_fixed(tally: Tally, path, k: int, train, num_users: int, num_items: int) -> None:
    rows = read_jsonl(path)
    users = [row["user"] for row in rows]
    tally.check(sorted(users) == list(range(num_users)), "fixed: not one list per user")
    for row in rows:
        items, seen = row["items"], train.get(row["user"], set())
        ok = (
            len(items) == k
            and len(set(items)) == k
            and all(0 <= i < num_items for i in items)
            and not seen.intersection(items)
        )
        tally.check(ok, f"fixed: bad list for user {row['user']}")


def check_perk(tally: Tally, path, k_max: int, train, num_users: int, num_items: int) -> None:
    rows = read_jsonl(path)
    users = [row["user"] for row in rows]
    tally.check(sorted(users) == list(range(num_users)), "perk: not one row per user")
    for row in rows:
        curve, items = row["curve"], row["items"]
        seen = train.get(row["user"], set())
        finite = bool(curve) and all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in curve)
        ok = (
            finite
            and len(curve) == min(k_max, num_items - len(seen))
            and row["k_star"] == curve.index(max(curve)) + 1
            and len(items) == row["k_star"]
            and len(set(items)) == len(items)
            and not seen.intersection(items)
        )
        tally.check(ok, f"perk: bad row for user {row['user']}")


def check_calibration(tally: Tally, calib: Path, unbiased: bool) -> dict:
    report = json.loads((calib / "calibration_report.json").read_text(encoding="utf-8"))
    # the IPS-weighted fit targets the fully observed risk, not the sampled
    # 1:4 base rate that ECE is measured on, so it may raise ECE
    if not unbiased:
        tally.check(
            report["ece_calibrated"] < report["ece_raw"],
            f"calibrate: ece {report['ece_raw']:.4f} -> {report['ece_calibrated']:.4f}",
        )
    return report


def check_distill(tally: Tally, out: Path, stage: Stage, num_users: int) -> None:
    settings = _settings(stage)
    epochs = int(settings.get("bd.epochs", 10))
    sample_size = int(settings.get("bd.sample_size", 10))
    rows = read_jsonl(out / "cotrain_log.jsonl")
    tally.check(len(rows) == 2 * epochs, f"distill: {len(rows)} log rows for {epochs} epochs")
    for row in rows:
        ok = (
            math.isfinite(row["base_loss"])
            and math.isfinite(row["distill_loss"])
            and row["sampled_total"] == num_users * sample_size
        )
        tally.check(ok, f"distill: bad log row {row}")


def check_eval(tally: Tally, report_path, stage: Stage) -> dict:
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    expected = []
    if "--recs" in stage.args:
        expected += [f"k={k}" for k in _eval_ks(stage)]
    if "--perk-recs" in stage.args:
        expected.append("perk")
    labels = [row["label"] for row in report["rows"]]
    tally.check(labels == expected, f"eval: labels {labels}, expected {expected}")
    tally.check(report["users_evaluated"] > 0, "eval: no users evaluated")
    return report


def check_pass(
    tally: Tally, workload: Workload, paths: dict, stdout: dict, generated: Generated
) -> dict | None:
    """Check every output of a completed pass; returns the parsed eval report."""
    bundle = Path(paths["bundle"])
    num_users, num_items = generated.users, generated.items
    train = read_split(bundle / "train.txt")
    report = None
    for stage in workload.stages:
        if stage.command == "ingest":
            check_ingest(tally, stdout[stage.label], bundle, generated)
        elif stage.command == "distill":
            check_distill(tally, Path(paths["distill"]), stage, num_users)
        elif stage.command == "calibrate":
            unbiased = _settings(stage).get("calib.unbiased", "false") == "true"
            check_calibration(tally, Path(paths["calib"]), unbiased)
        elif stage.label == "recommend_fixed":
            k = int(stage.option("--k"))
            check_fixed(tally, paths["fixed"], k, train, num_users, num_items)
        elif stage.label == "recommend_perk":
            k_max = int(_settings(stage).get("perk.k_max", 50))
            check_perk(tally, paths["perk"], k_max, train, num_users, num_items)
        elif stage.command == "eval":
            report = check_eval(tally, paths["report"], stage)
    return report
