"""Live progress journals: cursor-addressed JSONL for running sweeps.

The engine emits one row per finished task (plus run start/end
markers); the journal stamps each row with a monotonically increasing
``seq`` so readers can poll incrementally — "give me everything after
cursor N" — without re-reading or re-sending history.  The sweep
service keeps one journal per job and serves it over
``GET /jobs/<id>/events?cursor=N``.

Design rules, inherited from the checkpoint journal and trace sink:

* **Append-only, flushed per line.**  A killed process leaves at most
  one torn tail line, which :func:`read_progress` skips.
* **Tail reads cost the tail.**  A follower polls with its cursor again
  and again; a :class:`ProgressReader` remembers each row's byte offset
  and how far it has parsed, so a read parses only the lines appended
  since the last one plus any already-seen rows past the cursor.
* **Restart-safe cursors.**  Opening an existing journal scans it for
  the highest ``seq`` and continues from there, so a job that resumes
  from a checkpoint keeps a single monotone cursor space.
* **Telemetry, not results.**  Rows carry an ``elapsed_s`` stamped from
  a monotonic clock — which is why this module lives under
  ``repro.obs`` (reprolint R008 confines wall clocks here).  Progress
  files are never part of a result payload or a spec fingerprint, so
  the cache-hit path still serves bit-identical bytes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from array import array
from bisect import bisect_right
from types import TracebackType
from typing import Any, Dict, List, Optional, Type

__all__ = ["ProgressJournal", "ProgressReader", "read_progress", "last_seq",
           "monotonic_s"]


def monotonic_s() -> float:
    """A monotonic timestamp in seconds, for *ages and rates only*.

    This is the one sanctioned clock for code outside ``repro.obs``
    (R008): callers difference two readings to get a duration or an
    age; the absolute value is meaningless and must never be persisted
    into results, fingerprints, or checkpoints.
    """
    return time.monotonic()


class ProgressJournal:
    """Append-only JSONL writer assigning each row a monotone ``seq``."""

    def __init__(self, path: str) -> None:
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._seq = last_seq(path)
        self._t0 = time.monotonic()
        self._fh = open(path, "a")

    @property
    def seq(self) -> int:
        """The last sequence number written (0 when empty)."""
        return self._seq

    def append(self, row: Dict[str, Any]) -> int:
        """Write one row, stamped with the next ``seq`` and the seconds
        elapsed since this journal was opened; returns the ``seq``."""
        self._seq += 1
        stamped: Dict[str, Any] = {
            "seq": self._seq,
            "elapsed_s": time.monotonic() - self._t0,
        }
        stamped.update(row)
        self._fh.write(json.dumps(stamped, sort_keys=True) + "\n")
        self._fh.flush()
        return self._seq

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "ProgressJournal":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.close()


class ProgressReader:
    """Incremental :func:`read_progress` over one journal.

    The reader keeps the byte offset and ``seq`` of every row it has
    parsed, and how far into the file it has parsed whole lines.  A
    read with cursor N parses the lines appended since the previous
    read, then seeks straight to the first already-seen row past N; a
    follower polling with its last cursor therefore parses only the new
    rows, not the whole journal.  A line without its newline yet (torn,
    or still being written) is skipped, and parsed by a later read once
    it is whole.  Rows come back in file order, which for a
    :class:`ProgressJournal` (seqs ascend, continuing past the highest
    on reopen) is seq order.  Thread-safe; :attr:`rows_parsed` counts
    the lines decoded so far.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._seqs = array("q")  # guarded-by: _lock
        self._offsets = array("q")  # guarded-by: _lock
        self._end = 0  # guarded-by: _lock
        self.rows_parsed = 0  # guarded-by: _lock

    def read(self, after: int = 0) -> List[Dict[str, Any]]:
        """Rows with ``seq > after``, in file order (see
        :func:`read_progress`)."""
        with self._lock:
            if not os.path.exists(self.path):
                return []
            with open(self.path, "rb") as fh:
                seen, old_end = len(self._seqs), self._end
                fresh = self._scan(fh)
                start = bisect_right(self._seqs, after)
                rows = []
                if start < seen:
                    rows = [r for r in self._parse_from(
                        fh, self._offsets[start], old_end)
                        if int(r["seq"]) > after]
            rows.extend(r for r in fresh if int(r["seq"]) > after)
            return rows

    def _parse(self, raw: bytes) -> Any:  # reprolint: holds(_lock)
        raw = raw.strip()
        if not raw:
            return None
        self.rows_parsed += 1
        try:
            record = json.loads(raw)
        except ValueError:
            return None  # torn line from a killed writer, or not JSON
        if not isinstance(record, dict) or "seq" not in record:
            return None
        try:
            int(record["seq"])
        except (TypeError, ValueError):
            return None
        return record

    def _scan(self, fh: Any) -> List[Any]:  # reprolint: holds(_lock)
        """Parse and index the whole lines past the parsed end."""
        fh.seek(self._end)
        *lines, _tail = fh.read().split(b"\n")
        rows: List[Dict[str, Any]] = []
        pos = self._end
        for line in lines:
            record = self._parse(line)
            if record is not None:
                self._seqs.append(int(record["seq"]))
                self._offsets.append(pos)
                rows.append(record)
            pos += len(line) + 1
        self._end = pos
        return rows

    def _parse_from(self, fh: Any,  # reprolint: holds(_lock)
                    start: int, end: int) -> List[Any]:
        fh.seek(start)
        rows = []
        for line in fh.read(end - start).split(b"\n"):
            record = self._parse(line)
            if record is not None:
                rows.append(record)
        return rows


def read_progress(path: str, after: int = 0) -> List[Dict[str, Any]]:
    """Rows with ``seq > after``, in file order (seq order for a
    :class:`ProgressJournal`); tolerates torn lines.

    A stale cursor (past the end of the journal) simply yields an empty
    list — polling readers treat that as "no news yet".  One-shot: a
    reader that polls the same journal repeatedly should keep a
    :class:`ProgressReader`.
    """
    return ProgressReader(path).read(after)


def last_seq(path: str) -> int:
    """The highest ``seq`` present in the journal (0 when absent)."""
    return max((int(r["seq"]) for r in read_progress(path)), default=0)
