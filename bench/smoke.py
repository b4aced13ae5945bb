"""Smoke test of the benchmark itself, at a tiny shape (60 users x 120 items).

Usage, from the repository root:

    python3 bench/smoke.py

Runs every workload's stage sequence untraced and traced, with the output
checks and every probe, in seconds. It fails when a stage or check fails, a
probe is missing, a run reports other metric names than BENCHMARK.json lists,
or a probed layer records nothing on every workload, so a CLI or probe break
shows at once. Exits 0 when all is well, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# per-layer metrics that may read 0 on every workload at the tiny shape
MAY_BE_ZERO = {
    "calibration.fit_capped",
    "distill.empty_users",
    "perk.kstar_at_kmax_share",
    "trace.overhead_s",
}


def main() -> int:
    sys.path.insert(0, str(SRC))
    from harness import run_workload
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    nonzero = set()
    for workload in WORKLOADS.values():
        for trace in (False, True):
            outcome = run_workload(
                workload.tiny(), seed=1, seconds=0, trace=trace,
                work_root=ROOT / ".bench_work", src=SRC, setup_repeats=1,
            )
            where = f"{workload.name} trace={int(trace)}"
            print(f"{where}: attempted {outcome.attempted}, failed {outcome.failed}")
            problems += [f"{where}: {e}" for e in outcome.errors]
            problems += [f"{where}: probe missing: {m}" for m in outcome.missing]
            names = set(outcome.metrics)
            if names != expected[trace]:
                problems.append(
                    f"{where}: metrics differ from BENCHMARK.json: "
                    f"extra {sorted(names - expected[trace])}, "
                    f"absent {sorted(expected[trace] - names)}"
                )
            if not outcome.correct or outcome.attempted < 1:
                problems.append(f"{where}: not correct")
            nonzero |= {name for name, (value, _) in outcome.metrics.items() if value}
    idle = expected[True] - nonzero - MAY_BE_ZERO
    if idle:
        problems.append(f"per-layer metrics that read 0 on every workload: {sorted(idle)}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
