"""Run one benchmark workload and print its metrics as the last line of stdout.

Usage, from the repository root:

    python3 bench/run.py --workload pipeline-s --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written under ``.bench_out/``). The line
before the result holds the environment. ``--record PATH`` also appends
workload, seed, environment and result to PATH as one JSON line, the input
of ``bench/compare.py``. Exits 2 without a result when calibrec cannot be
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """Cap BLAS threads at nproc in this process; must run before numpy loads."""
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cap:
            os.environ[var] = str(cap)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """BLAS library name, build config and live thread count, where OpenBLAS exposes them."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_", ""):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_config.restype = ctypes.c_char_p
                return {
                    "library": os.path.basename(path),
                    "config": get_config().decode(),
                    "threads": int(get_threads()),
                }
    return {"library": "unknown", "threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def src_lines() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "r", encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def environment(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "repo.src_lines": src_lines(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed for the data")
    parser.add_argument("--seconds", type=float, required=True, help="measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append a JSON line with env and result")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    try:
        from harness import run_workload
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"bench: cannot import calibrec from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}"
    outcome = run_workload(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=trace,
        work_root=ROOT / ".bench_work",
        src=SRC,
        spans_path=ROOT / ".bench_out" / f"{tag}-spans.jsonl" if trace else None,
    )
    for error in outcome.errors:
        print(f"bench: check failed: {error}", file=sys.stderr)
    for name in outcome.missing:
        print(f"bench: probe missing: {name}", file=sys.stderr)
    env = environment(args.workload, args.seed, trace)
    env["unscaled"] = outcome.raw
    result = outcome.result()
    if args.record is not None:
        row = {"env": env, "missing": outcome.missing, "result": result}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
