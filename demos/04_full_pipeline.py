"""The whole pipeline through the command-line interface.

Generates an interaction log, then runs ingest -> train -> calibrate ->
recommend (fixed and personalized) -> eval in a temporary directory, which
is removed at exit. It is the same sequence you would run on real data from
a shell:

    calibrec ingest --input interactions.csv --out bundle
    calibrec train --data bundle --out ckpt --set train.epochs=8
    calibrec calibrate --data bundle --ckpt ckpt --out calib
    calibrec recommend --data bundle --ckpt ckpt --out fixed.jsonl --k 20
    calibrec recommend --data bundle --ckpt ckpt --out perk.jsonl --perk \\
        --calibrator calib/calibrator.json
    calibrec eval --data bundle --recs fixed.jsonl --perk-recs perk.jsonl \\
        --out report.json
"""

import json
import tempfile
from pathlib import Path

from calibrec.cli import main
from calibrec.synthetic import low_rank_interactions, write_interactions_csv

workdir = tempfile.TemporaryDirectory(prefix="calibrec-demo-")
root = Path(workdir.name)
print(f"working in {root}\n")

csv = root / "interactions.csv"
write_interactions_csv(
    csv, low_rank_interactions(300, 300, rank=2, per_user=80, noise=0.15, seed=3)
)


def run(*argv):
    argv = [str(a) for a in argv]
    print(f"$ calibrec {' '.join(argv)}")
    code = main(argv)
    assert code == 0, f"exit {code}"
    print()


run("ingest", "--input", csv, "--out", root / "bundle")
run(
    "train", "--data", root / "bundle", "--out", root / "ckpt",
    "--set", "train.epochs=40", "--set", "train.dim=24", "--set", "train.lr=0.2",
    "--set", "train.batch_size=32",
)
run("calibrate", "--data", root / "bundle", "--ckpt", root / "ckpt", "--out", root / "calib")
run("recommend", "--data", root / "bundle", "--ckpt", root / "ckpt",
    "--out", root / "fixed.jsonl", "--k", "20", "--exclude-validation")
run(
    "recommend", "--data", root / "bundle", "--ckpt", root / "ckpt",
    "--out", root / "perk.jsonl", "--perk", "--exclude-validation",
    "--calibrator", root / "calib" / "calibrator.json",
    "--summary", root / "perk_summary.json",
    "--set", "perk.k_max=40", "--set", "perk.rest_pool=100",
)
run(
    "eval", "--data", root / "bundle", "--recs", root / "fixed.jsonl",
    "--perk-recs", root / "perk.jsonl", "--out", root / "report.json",
)

summary = json.loads((root / "perk_summary.json").read_text())
print(f"mean personalized list length: {summary['mean_k_star']:.2f}")

# ----------------------------------------------------------------------
# the cutoff is only as good as the probabilities feeding it: swap the
# calibrator and watch k* tighten toward the truly relevant count

print("calibrator comparison (same checkpoint, same candidates)")
for kind in ("platt", "gaussian", "histogram"):
    cdir = root / f"calib_{kind}"
    run("calibrate", "--data", root / "bundle", "--ckpt", root / "ckpt",
        "--out", cdir, "--set", f"calib.kind={kind}")
    recs = root / f"perk_{kind}.jsonl"
    run("recommend", "--data", root / "bundle", "--ckpt", root / "ckpt",
        "--out", recs, "--perk", "--exclude-validation",
        "--calibrator", cdir / "calibrator.json",
        "--summary", root / f"summary_{kind}.json",
        "--set", "perk.k_max=40", "--set", "perk.rest_pool=100")
    run("eval", "--data", root / "bundle", "--perk-recs", recs,
        "--out", root / f"report_{kind}.json", "--set", "eval.metrics=f1")
    rep = json.loads((root / f"report_{kind}.json").read_text())
    agg = json.loads((root / f"summary_{kind}.json").read_text())
    print(
        f"  {kind:>9}: mean k* {agg['mean_k_star']:5.1f}   "
        f"realized F1 at k* {rep['rows'][0]['f1']:.4f}"
    )
workdir.cleanup()
