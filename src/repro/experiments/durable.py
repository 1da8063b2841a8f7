"""Durable writes: the fsynced append-only JSONL log and the atomic publish.

Every file the sweep runtime must never leave half-written goes through
this module: the sweep journal and the service job store append to an
:class:`AppendLog` and replay it with :func:`read_log`; result-cache
records and failure reports are written whole with :func:`publish`.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Tuple


def read_log(path) -> Tuple[List[Dict], int]:
    """Replay the JSONL log at ``path`` as ``(entries, corrupt)``.

    ``entries`` are the lines that parse to JSON objects, in file order;
    ``corrupt`` counts the non-blank lines that do not.  A missing file
    reads as an empty log.
    """
    entries: List[Dict] = []
    corrupt = 0
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return entries, corrupt
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:  # torn JSON, or bytes that are not UTF-8
                corrupt += 1
                continue
            if isinstance(entry, dict):
                entries.append(entry)
            else:
                corrupt += 1
    return entries, corrupt


class AppendLog:
    """Append-only JSONL file whose appends are durable when they return.

    Each record is one compact, key-sorted JSON line, written, flushed and
    fsynced under a lock, so two records never interleave mid-line.
    ``fresh`` truncates the file; otherwise records are appended after its
    existing lines, and a torn final line (a writer killed mid-append) is
    first ended with a newline so the next record does not merge into it
    and get lost with it.
    """

    def __init__(self, path, fresh: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = open(self.path, "w" if fresh else "a")
        size = os.fstat(self._handle.fileno()).st_size
        if size:
            with open(self.path, "rb") as raw:
                raw.seek(size - 1)
                if raw.read(1) != b"\n":
                    # Reaches the disk with the first append's flush.
                    self._handle.write("\n")

    def append(self, entry: Dict) -> None:
        line = json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
        with self._lock:
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def corrupt_tail(self) -> None:
        """Chaos hook (``serve_corrupt``): tear the last appended line the
        way a crashed non-atomic writer would, leaving a mid-log corrupt
        line.  The tear is newline-terminated (as reopening would repair
        it) so only the torn record is lost."""
        with self._lock:
            self._handle.flush()
            size = os.fstat(self._handle.fileno()).st_size
            with open(self.path, "rb+") as raw:
                raw.truncate(max(0, size - 2))
                raw.seek(0, os.SEEK_END)
                raw.write(b"\n")

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass


def publish(path, text: str) -> None:
    """Atomically replace the file at ``path`` with ``text``: a reader
    sees the old bytes or the new ones, never a truncated file."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
