"""Crash-safe artifact writes.

Every artifact is written to a temporary sibling and renamed over its
final name only once complete, so a failure mid-write leaves the
previous file (or none) in place, never a partial one.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Open ``path`` for writing (``mode`` "w" for UTF-8 text, "wb" for
    bytes); the file replaces ``path`` when the block exits cleanly and
    is removed when it raises."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
