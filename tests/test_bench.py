"""The benchmark's entry points still work against the package.

``bench/harness.py`` drives the CLI through ``cli.main`` and reads the
results back through ``load_checkpoint``, ``score_items``,
``load_calibrator`` and ``apply``. Each workload runs here once at its
smoke-test shape, so a rename or deletion that breaks the benchmark fails
the suite. The harness is imported without writing bytecode into bench/.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.fixture(scope="module")
def bench():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True
    try:
        import harness
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
    return harness, workloads


@pytest.mark.parametrize("name", ["pipeline-s", "catalog-l", "cotrain-s"])
def test_workload_runs_at_smoke_shape(bench, name, tmp_path):
    harness, workloads = bench
    outcome = harness.run_workload(
        workloads.WORKLOADS[name].tiny(), seed=1, seconds=0, trace=False,
        work_root=tmp_path, src=ROOT / "src", setup_repeats=1,
    )
    assert outcome.correct, outcome.errors
    assert sorted(outcome.metrics) == sorted(END_TO_END)


@pytest.mark.parametrize(
    "name, epoch",
    [
        ("pipeline-s", "ranker.bpr_epoch"),
        ("cotrain-s", "ranker.pointwise_epoch"),
        ("cotrain-s", "distill.cotrain_epoch"),
    ],
)
def test_traced_run_probes_the_epoch(bench, name, epoch, tmp_path):
    # the tracer swaps the epoch functions by identity; a probe that finds
    # nothing to wrap reads 0 and is listed as missing
    harness, workloads = bench
    outcome = harness.run_workload(
        workloads.WORKLOADS[name].tiny(), seed=1, seconds=0, trace=True,
        work_root=tmp_path, src=ROOT / "src", setup_repeats=1,
    )
    assert outcome.correct, outcome.errors
    assert outcome.metrics[f"{epoch}_s"][0] > 0
    assert not [m for m in outcome.missing if m.startswith(epoch)]
