"""Atomic file output: write ``<name>.partial``, then rename it over ``name``."""

from __future__ import annotations

import contextlib
import os
import shutil
from pathlib import Path


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
