"""Persistent cache entries: one atomic writer, one discarding reader.

The trace cache (:class:`repro.experiments.providers.TraceProvider`) and
the schedule cache (:func:`repro.cpu.frontend.frontend_schedule`) share
one directory and one entry format: an uncompressed ``.npz`` archive
(``np.savez``, every member ``ZIP_STORED``) written straight from the
arrays, so saving an entry costs about a copy of its bytes.  Archives
written compressed (``np.savez_compressed``, same member names) load the
same way.

* :func:`write_entry` writes through a temp file beside the entry and
  renames it into place, so processes sharing the directory never see a
  half-written entry.  The cache is best effort: a failed write leaves
  no temp file and is reported, not raised.
* :func:`read_entry` hands the entry to a loader that checks everything
  a consumer relies on and raises ``ValueError`` otherwise.  An entry
  that cannot be read or is refused is removed, so the caller rebuilds
  and rewrites it: a torn or malformed entry is never fatal, and never
  reaches the compiled kernels.
* :func:`sweep_stale_tmp` removes temp files orphaned by killed writers.
"""

from __future__ import annotations

import os
import tempfile
import time
import zipfile
from typing import BinaryIO, Callable, TypeVar

import numpy as np

T = TypeVar("T")

#: Temp files are ``<prefix>XXXX.npz.tmp`` beside the entries: one prefix
#: per entry kind, both covered by :func:`sweep_stale_tmp`.
TRACE_TMP_PREFIX = ".trace-"
SCHEDULE_TMP_PREFIX = ".sched-"
_TMP_SUFFIX = ".npz.tmp"

#: What reading a torn, truncated or malformed entry raises.
MALFORMED = (OSError, ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile)


def read_members(path: str) -> dict[str, np.ndarray]:
    """Every member of the archive at ``path``.  The file is opened here,
    not by :func:`numpy.load`, so it is closed even when the archive is
    corrupt (``np.load`` raises without closing a path it opened)."""
    with open(path, "rb") as fh, np.load(fh) as data:
        return {key: data[key] for key in data.files}


def read_entry(path: str, load: Callable[[str], T]) -> "tuple[T | None, bool]":
    """``(load(path), False)``; ``(None, False)`` when there is no entry;
    ``(None, True)`` when the entry was malformed and has been removed."""
    if not os.path.exists(path):
        return None, False
    try:
        return load(path), False
    except MALFORMED:
        try:
            os.remove(path)
        except OSError:
            pass
        return None, True


def write_entry(path: str, save: Callable[[BinaryIO], None], tmp_prefix: str) -> bool:
    """Write an entry at ``path`` atomically: ``save`` writes it to an
    open temp file (:meth:`repro.cpu.trace.Trace.save`,
    :func:`repro.cpu.frontend.save_schedule`).  ``False`` if the write
    failed."""
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=tmp_prefix, suffix=_TMP_SUFFIX
        )
    except OSError:
        return False
    try:
        with os.fdopen(fd, "wb") as fh:
            save(fh)
        os.replace(tmp_path, path)
    except Exception:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        return False
    return True


def sweep_stale_tmp(directory: str) -> None:
    """Remove temp files orphaned by killed writers.  Only files older
    than an hour go — a fresh one may belong to a live writer in a shared
    cache directory."""
    cutoff = time.time() - 3600
    try:
        entries = list(os.scandir(directory))
    except OSError:
        return
    for entry in entries:
        name = entry.name
        if not (
            name.startswith((TRACE_TMP_PREFIX, SCHEDULE_TMP_PREFIX))
            and name.endswith(_TMP_SUFFIX)
        ):
            continue
        try:
            if entry.stat().st_mtime < cutoff:
                os.remove(entry.path)
        except OSError:
            continue
