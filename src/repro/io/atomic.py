"""Crash-safe filesystem primitives: tmp-file + fsync + rename.

POSIX ``rename(2)`` within one filesystem is atomic: a reader sees
either the old file or the new file, never a torn mix.  Every durable
artifact in the repo — sketch archives, store manifests, checkpoint
pointers — goes through these helpers so that a crash (power loss,
``kill -9``, a :class:`~repro.runtime.faults.SimulatedCrash`) at *any*
instruction boundary leaves the previous intact version in place.

The write protocol is the classic three-step dance:

1. write the full payload to ``<name>.tmp.<pid>`` in the target
   directory (same filesystem, so the final rename cannot degrade to a
   copy);
2. ``fsync`` the temp file, so the data precedes the rename in the
   journal;
3. ``rename`` onto the final path, then ``fsync`` the parent directory
   so the rename itself is durable.

sketchlint rule SL012 flags non-atomic writes (``Path.write_text`` /
``Path.write_bytes`` / raw write-mode ``open``) in or reachable from
``store/``, ``io/`` or ``runtime/`` — this module is the sanctioned
implementation, so the rule exempts it.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path


def fsync_directory(directory: str | Path) -> None:
    """Flush a directory's entry table (makes renames in it durable).

    Silently skips platforms/filesystems that refuse ``open(O_RDONLY)``
    on directories (e.g. Windows); durability is then best-effort, which
    matches what the rest of the repo can promise there.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _tmp_path(path: Path) -> Path:
    return path.with_name(f".{path.name}.tmp.{os.getpid()}")


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Atomically replace ``path`` with ``data`` (tmp + fsync + rename)."""
    path = Path(path)
    tmp = _tmp_path(path)
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    try:
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    fsync_directory(path.parent)
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically replace ``path`` with UTF-8 encoded ``text``."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def replace_directory(tmp_dir: str | Path, final_dir: str | Path) -> Path:
    """Move a fully-written ``tmp_dir`` into place as ``final_dir``.

    Directories cannot be renamed over non-empty directories, so the
    swap goes: rename the old version aside, rename the new one in,
    delete the old.  A crash between the two renames leaves the old
    version recoverable at ``<name>.old.<pid>`` and is the only
    non-atomic window; callers that need a stronger guarantee (the
    ingestion runtime) layer a pointer file on top and never replace a
    live directory.
    """
    tmp_dir, final_dir = Path(tmp_dir), Path(final_dir)
    old: Path | None = None
    if final_dir.exists():
        old = final_dir.with_name(f".{final_dir.name}.old.{os.getpid()}")
        if old.exists():
            shutil.rmtree(old)
        os.replace(final_dir, old)
    os.replace(tmp_dir, final_dir)
    fsync_directory(final_dir.parent)
    if old is not None:
        shutil.rmtree(old, ignore_errors=True)
    return final_dir
