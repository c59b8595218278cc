"""Rename-atomic file replacement, shared by every on-disk store.

The result cache, the artifact and replay stores, worker heartbeats and
outcome spools, and the ``obs tail`` cursor all replace whole files.
Writing a sibling temp file and renaming it over the target means a
reader (or a process restarted after a crash) sees either the previous
file or the new one, never a truncated mix.  This is the one place the
rename happens.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Replace ``path`` with ``text`` (UTF-8) in one rename; returns it.

    The temp file lives in the target's directory, so the rename never
    crosses a filesystem; on any failure it is removed and the previous
    file, if any, is left untouched.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem[:8]}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
