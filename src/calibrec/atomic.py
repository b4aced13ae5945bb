"""Atomic file output: write ``<name>.partial``, then rename it over ``name``.

Also the header-plus-sidecar pair that checkpoints and the bundle's split
arrays share: a JSON header that lists flat arrays stored back to back in
one binary sidecar file.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
from pathlib import Path

import numpy as np


@contextlib.contextmanager
def atomic_open(path, keep_existing=False, binary=False):
    """Text (or ``binary``) handle on ``<path>.partial``, renamed over ``path`` when the block ends.

    If the block raises, the partial file is removed and ``path`` is left
    as it was, so a failed run never leaves a truncated file under the final
    name. With ``keep_existing`` the handle starts after a copy of the
    current ``path`` (a resumed run's log).
    """
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    if keep_existing and path.exists():
        shutil.copyfile(path, partial)
        mode = "a"
    else:
        mode = "w"
    if binary:
        mode += "b"
    try:
        with open(partial, mode, encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_with_sidecar(header_path, sidecar_path, header: dict, arrays: dict) -> None:
    """Write ``arrays`` back to back into ``sidecar_path``, then ``header`` into ``header_path``.

    Each array's bytes are written as they are, so the arrays should be
    C-contiguous and of the on-disk dtype. The header gains ``sidecar`` (the
    sidecar's file name) and ``arrays`` (each array's shape, dtype, offset
    and byte count) after its own keys. Both files go through
    ``atomic_open``; the sidecar is renamed into place first, then the
    header that lists it.
    """
    layout = {}
    offset = 0
    for name, arr in arrays.items():
        layout[name] = {"shape": list(arr.shape), "dtype": arr.dtype.str,
                        "offset": offset, "bytes": arr.nbytes}
        offset += arr.nbytes
    header = {**header, "sidecar": Path(sidecar_path).name, "arrays": layout}
    with (
        atomic_open(header_path) as header_fh,
        atomic_open(sidecar_path, binary=True) as sidecar_fh,
    ):
        for arr in arrays.values():
            sidecar_fh.write(arr.reshape(-1).data)
        json.dump(header, header_fh, indent=2)
        header_fh.write("\n")


def read_sidecar(header_path, header: dict, names, kind: str) -> dict:
    """The arrays ``names`` of the sidecar that ``header``, read from ``header_path``, lists.

    The arrays are writable views on one buffer of the sidecar's bytes. Raises
    ValueError when the header lacks a key the layout needs, when the
    sidecar's length differs from the sum of the listed byte counts, or when
    an array does not fit its span; ``kind`` names the format in the message.
    """
    header_path = Path(header_path)
    try:
        sidecar_path = header_path.with_name(header["sidecar"])
        metas = [header["arrays"][name] for name in names]
        spans = [(m["offset"], m["bytes"], m["dtype"], m["shape"]) for m in metas]
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"{header_path}: {kind} header key missing or malformed: {exc}"
        ) from None
    # read into a writable buffer, so arrays of the in-memory dtype need no copy
    with open(sidecar_path, "rb") as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        raw = memoryview(buf)[: fh.readinto(buf)]
    expected = sum(n for _, n, _, _ in spans)
    if len(raw) != expected:
        raise ValueError(
            f"{kind} sidecar {sidecar_path} holds {len(raw)} bytes, header lists {expected}"
        )
    arrays = {}
    for name, (start, n, dtype, shape) in zip(names, spans):
        if not 0 <= start <= len(raw) - n:
            raise ValueError(f"{kind} sidecar {sidecar_path} truncated reading {name}")
        try:
            arrays[name] = np.frombuffer(raw[start : start + n], dtype=dtype).reshape(shape)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{kind} sidecar {sidecar_path}: {name}: {exc}") from None
    return arrays
