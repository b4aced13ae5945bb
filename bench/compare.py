"""Compare two sets of benchmark results, parent against change, metric by metric.

Usage, from the repository root:

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines that ``bench/run.py --record PATH`` appends, one per
run. Runs pair up by workload, trace mode and seed. For each workload and
metric the table shows each side's median and quartiles, the pairs each side
won (ties count for neither), and a verdict:

- ``within bound``: the change's median is no worse than the parent's by more
  than the metric's bound in BENCHMARK.json.
- ``WORSE``: it is worse by more than the bound.
- ``unresolved``: either side's spread (quartile distance over median) is wider
  than the bound, unless every change run beats every parent run.
- ``gain``: added when the change wins at least nine tenths of the pairs and
  the medians differ by more than the parent's quartile distance.

Per-layer metrics have no bound and get only the ``gain`` mark. Exits 1 when
any metric is WORSE, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """(workload, trace) -> metric -> seed -> value."""
    runs: dict = defaultdict(lambda: defaultdict(dict))
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            env, result = row["env"], row["result"]
            for name, metric in result["metrics"].items():
                runs[(env["workload"], env["trace"])][name][env["seed"]] = metric["value"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent: dict, change: dict, better: str, bound: float | None) -> tuple[str, int, int]:
    seeds = sorted(parent.keys() & change.keys())
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    losses = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    p, c = list(parent.values()), list(change.values())
    p1, pmed, p3 = quartiles(p)
    cmed = statistics.median(c)
    notes = []
    if bound is not None:
        worse = sign * (pmed - cmed) / abs(pmed) if pmed else 0.0
        every_run_better = all(sign * (cv - pv) > 0 for cv in c for pv in p)
        if max(spread(p), spread(c)) > bound and not every_run_better:
            notes.append("unresolved")
        elif worse > bound:
            notes.append(f"WORSE by {worse:.1%} > {bound:.0%}")
        else:
            notes.append("within bound")
    if seeds and wins >= 0.9 * len(seeds) and abs(cmed - pmed) > p3 - p1:
        notes.append("gain")
    return ", ".join(notes) or "-", wins, losses


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(argv[0]), load(argv[1])
    worse = False
    for key in sorted(parent.keys() & change.keys()):
        workload, trace = key
        print(f"\n== {workload} ({'traced' if trace else 'end to end'}) ==")
        print(f"{'metric':34} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
              f"{'wins':>9}  verdict")
        for name in metrics:
            if name not in parent[key] or name not in change[key]:
                continue
            m = metrics[name]
            pv, cv = parent[key][name], change[key][name]
            note, wins, losses = verdict(pv, cv, m["better"], m.get("bound"))
            worse |= note.startswith("WORSE")
            p1, pmed, p3 = quartiles(list(pv.values()))
            c1, cmed, c3 = quartiles(list(cv.values()))
            print(f"{name:34} {f'{pmed:.4g} [{p1:.4g}, {p3:.4g}]':>30} "
                  f"{f'{cmed:.4g} [{c1:.4g}, {c3:.4g}]':>30} {f'{wins}:{losses}':>9}  {note}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
