"""Atomic file output: write ``<name>.partial``, then rename it over ``name``.

Inside an ``output_set`` the renames wait until the set ends, so the files
a CLI stage writes appear together or not at all.

Also the readers of every JSON artifact (``read_json``) and of the
header-plus-sidecar pair that checkpoints and the bundle's split arrays
share: a JSON header that lists flat arrays stored back to back in one
binary sidecar file.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import shutil
from pathlib import Path

import numpy as np

# the open output set's pending renames, final path -> partial path, in the
# order the files were finished; None outside a set
_pending = contextvars.ContextVar("calibrec_output_set", default=None)


@contextlib.contextmanager
def output_set():
    """Commit every file finished through ``atomic_open`` in the block as one set.

    Each file stays at ``<name>.partial`` until the block ends; then all are
    renamed in the order they were finished, a path finished twice once,
    with its last bytes. If the block raises, every partial file of the set
    is removed. A set opened inside another joins the outer one. Only a
    crash during the final renames can leave part of a set renamed.
    """
    if _pending.get() is not None:
        yield
        return
    pending: dict[Path, Path] = {}
    token = _pending.set(pending)
    try:
        yield
        for path in list(pending):
            os.replace(pending[path], path)
            del pending[path]
    except BaseException:
        for partial in pending.values():
            partial.unlink(missing_ok=True)
        raise
    finally:
        _pending.reset(token)


@contextlib.contextmanager
def atomic_open(path, keep_existing=None, binary=False):
    """Text (or ``binary``) handle on ``<path>.partial``, renamed over ``path`` when the block ends.

    Missing directories of ``path`` are created. If the block raises, the
    partial file is removed and ``path`` is left as it was: a failed run
    never leaves a truncated file under its final name. ``keep_existing``,
    a path, starts the handle after a copy of that file if it exists (a
    resumed run's log). Inside an ``output_set``, which an enclosing
    ``atomic_open`` block also opens, the rename waits for the set to end.
    """
    path = Path(path).absolute()
    partial = path.with_name(path.name + ".partial")
    path.parent.mkdir(parents=True, exist_ok=True)
    if keep_existing is not None and Path(keep_existing).exists():
        shutil.copyfile(keep_existing, partial)
        mode = "a"
    else:
        mode = "w"
    if binary:
        mode += "b"
    # outside a set this opens a set of one file, which commits when the block ends
    with output_set():
        pending = _pending.get()
        try:
            with open(partial, mode, encoding=None if binary else "utf-8") as fh:
                yield fh
        except BaseException:
            partial.unlink(missing_ok=True)
            pending.pop(path, None)
            raise
        # a path finished again moves to the end of the commit order
        pending.pop(path, None)
        pending[path] = partial


def write_json(path, payload) -> None:
    """``payload`` as indented JSON with sorted keys and a final newline, through ``atomic_open``."""
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    """The JSON value in ``path``; raises ValueError naming ``path`` when it is not UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not a JSON file: {exc}") from None


def write_with_sidecar(header_path, sidecar_path, header: dict, arrays: dict) -> None:
    """Write ``arrays`` back to back into ``sidecar_path``, then ``header`` into ``header_path``.

    Each array's bytes are written as they are, so the arrays should be
    C-contiguous and of the on-disk dtype. The header gains ``sidecar`` (the
    sidecar's file name) and ``arrays`` (each array's shape, dtype, offset
    and byte count) after its own keys. Both files go through nested
    ``atomic_open`` blocks, so they commit as one set: the sidecar is
    renamed first, then the header that lists it.
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
    ValueError when the header lacks a key the layout needs, names a sidecar
    other than its own name with ``.bin`` for ``.json`` (the one the writers
    use) or lists an offset or byte count that is not an int (naming the
    header), or when the sidecar's length differs from the
    sum of the listed byte counts or an array does not fit its span (naming
    the sidecar); ``kind`` names the format in the message.
    """
    header_path = Path(header_path)
    try:
        sidecar_path = header_path.with_suffix(".bin")
        if header["sidecar"] != sidecar_path.name:
            raise ValueError(f"sidecar {header['sidecar']!r} is not {sidecar_path.name!r}")
        metas = [header["arrays"][name] for name in names]
        spans = [(m["offset"], m["bytes"], m["dtype"], m["shape"]) for m in metas]
        for name, (start, n, _, _) in zip(names, spans):
            if type(start) is not int or type(n) is not int:
                raise ValueError(f"{name}: offset {start!r} and bytes {n!r} must be ints")
    except (KeyError, TypeError, ValueError) as exc:
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
        if not 0 <= start <= start + n <= len(raw):
            raise ValueError(
                f"{kind} sidecar {sidecar_path} holds no bytes {start}:{start + n} for {name}"
            )
        try:
            arrays[name] = np.frombuffer(raw[start : start + n], dtype=dtype).reshape(shape)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{kind} sidecar {sidecar_path}: {name}: {exc}") from None
    return arrays
