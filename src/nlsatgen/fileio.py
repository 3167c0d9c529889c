"""Atomic text-file writes, and text reads that name a file not UTF-8.

Datasets, their stats sidecars and calibration tables are written to a
temporary file in the target's directory and then moved over the
target with ``os.replace``.  A reader therefore sees either the old
file or the complete new one, and a write that fails half way (an
unserializable record, a full disk) leaves the old file untouched and
no temporary file behind.  A killed process leaves the old file whole
but may leave its hidden temporary file.  Nothing is fsynced, so this
does not guard against power loss.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_writer(path):
    """Yield a text handle whose contents replace ``path`` on clean exit."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        # mode "x" never clobbers a stranger's file and, unlike mkstemp,
        # creates it with the usual umask-derived permissions
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_text(path) -> str:
    """A file's UTF-8 text; a file that is not UTF-8 raises a ValueError
    that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc.reason}") from None
