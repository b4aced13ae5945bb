import json
from pathlib import Path

import numpy as np
import pytest

from calibrec.calibration import RELIABILITY_HEADER
from calibrec.dataset import Csr, Dataset
from calibrec.synthetic import low_rank_dataset


def make_dataset(train, validation=None, test=None, num_users=None, num_items=None):
    """Build a Dataset directly from per-user item collections."""
    validation = validation or {}
    test = test or {}
    users = set(train) | set(validation) | set(test)
    items = {i for d in (train, validation, test) for s in d.values() for i in s}
    n_users = num_users if num_users is not None else (max(users) + 1 if users else 0)
    n_items = num_items if num_items is not None else (max(items) + 1 if items else 0)

    def csr(d):
        pairs = [(u, i) for u, s in d.items() for i in s]
        return Csr.from_pairs([u for u, _ in pairs], [i for _, i in pairs], n_users, n_items)

    rows = {"train": csr(train), "validation": csr(validation), "test": csr(test)}
    return Dataset(num_users=n_users, num_items=n_items, **rows)


def read_jsonl(path):
    """The JSON object on each non-empty line of a file."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def retype_array(header_path, name, dtype):
    """Rewrite the header at ``header_path`` and its ``.bin`` sidecar so that
    they store the array ``name`` as zeros of ``dtype``, with every offset,
    byte count and the sidecar's length to match."""
    header_path = Path(header_path)
    sidecar = header_path.with_suffix(".bin")
    header = json.loads(header_path.read_text())
    raw = sidecar.read_bytes()
    parts = []
    for key, meta in sorted(header["arrays"].items(), key=lambda kv: kv[1]["offset"]):
        part = raw[meta["offset"] : meta["offset"] + meta["bytes"]]
        if key == name:
            part = np.zeros(meta["shape"], dtype=dtype).tobytes()
            meta["dtype"] = dtype
        meta.update(offset=sum(map(len, parts)), bytes=len(part))
        parts.append(part)
    sidecar.write_bytes(b"".join(parts))
    header_path.write_text(json.dumps(header))


def read_reliability_csv(path):
    """The rows ``calibration.write_reliability_csv`` wrote, as tuples."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != RELIABILITY_HEADER:
            raise ValueError(f"unexpected reliability header {header!r}")
        for line in fh:
            if line.strip():
                lower, upper, count, mean_p, frac_pos = line.strip().split(",")
                rows.append((float(lower), float(upper), int(count), float(mean_p), float(frac_pos)))
    return rows


@pytest.fixture(scope="session")
def small_dataset():
    """50 users x 80 items low-rank dataset with all three splits populated."""
    return low_rank_dataset(50, 80, rank=2, per_user=15, noise=0.25, seed=11)
