"""JSONL-journaled job queue: submissions and state changes as a log.

The queue's durable form is an append-only journal, one JSON object per
line, in the same torn-line-tolerant discipline as the engine's
checkpoint journal and the trace sink: a process killed mid-write
leaves at most one unparseable tail line, which replay skips.  Two row
kinds:

* ``{"kind": "job", "job_id", "seq", "fingerprint", "envelope"}`` — a
  submission, carrying the full enveloped spec so a restarted server
  can rebuild the spec without any other state.
* ``{"kind": "state", "job_id", "state", "cached", "error"}`` — a
  transition; the last state row per job wins.

Replaying the journal therefore reconstructs the exact job table, and
:meth:`JobQueue.recover` demotes jobs that were ``running`` at the kill
back to ``pending`` so the worker tier picks them up again (their
engine checkpoints make the re-run resume, not restart).

No wall-clock timestamps anywhere — ordering is the journal's line
order plus the monotonic ``seq``, matching the repo-wide rule that
persisted artifacts never depend on when a run happened.

All mutating methods are serialized by an internal lock: HTTP handler
threads submit while a worker thread claims.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = ["JobQueue", "JobRecord", "JOB_STATES"]

#: Legal job states, in lifecycle order.  ``done`` with ``cached=True``
#: means the result came from the store without running the engine.
JOB_STATES = ("pending", "running", "done", "failed")


@dataclass
class JobRecord:
    """One submission: identity, content key, and current state."""

    job_id: str
    seq: int
    fingerprint: str
    envelope: Dict[str, Any] = field(default_factory=dict)
    state: str = "pending"
    cached: bool = False
    error: Optional[str] = None

    @property
    def active(self) -> bool:
        return self.state in ("pending", "running")

    def to_dict(self) -> Dict[str, Any]:
        """Public JSON view (HTTP status payloads, CLI output)."""
        return {
            "job_id": self.job_id,
            "seq": self.seq,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "cached": self.cached,
            "error": self.error,
        }


class JobQueue:
    """Journal-backed, thread-safe job table with FIFO claiming."""

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._jobs: Dict[str, JobRecord] = {}  # guarded-by: _lock
        self._next_seq = 1  # guarded-by: _lock
        self._replay()

    # -- journal ----------------------------------------------------------

    # Runs from __init__, before the queue is visible to any other
    # thread, so the job table is safe to touch without the lock.
    def _replay(self) -> None:  # reprolint: holds(_lock)
        if not self.path.exists():
            return
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write from a killed server
            if not isinstance(row, dict):
                continue
            kind = row.get("kind")
            if kind == "job":
                try:
                    record = JobRecord(
                        job_id=str(row["job_id"]), seq=int(row["seq"]),
                        fingerprint=str(row["fingerprint"]),
                        envelope=dict(row.get("envelope") or {}))
                except (KeyError, TypeError, ValueError):
                    continue  # malformed row: skip, like a torn line
                self._jobs[record.job_id] = record
                self._next_seq = max(self._next_seq, record.seq + 1)
            elif kind == "state":
                record_or_none = self._jobs.get(str(row.get("job_id")))
                if record_or_none is None:
                    continue  # state row for a job whose row was torn
                state = row.get("state")
                if state not in JOB_STATES:
                    continue
                record_or_none.state = str(state)
                record_or_none.cached = bool(row.get("cached", False))
                error = row.get("error")
                record_or_none.error = None if error is None else str(error)

    def _append(self, row: Dict[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    # -- lifecycle ---------------------------------------------------------

    def submit(self, envelope: Dict[str, Any], fingerprint: str,
               cached: bool = False) -> JobRecord:
        """Journal a new job and return its record.

        The job is ``pending``, or with *cached* born ``done``/cached in
        the same critical section, so no worker can claim a job whose
        result is already stored.
        """
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            record = JobRecord(job_id=f"job-{seq:06d}", seq=seq,
                               fingerprint=fingerprint,
                               envelope=dict(envelope))
            self._jobs[record.job_id] = record
            self._append({"kind": "job", "job_id": record.job_id,
                          "seq": seq, "fingerprint": fingerprint,
                          "envelope": record.envelope})
            if cached:
                record.state, record.cached = "done", True
                self._append({"kind": "state", "job_id": record.job_id,
                              "state": "done", "cached": True,
                              "error": None})
            return record

    def set_state(self, job_id: str, state: str, *, cached: bool = False,
                  error: Optional[str] = None) -> JobRecord:
        """Transition one job, journaling the new state."""
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        with self._lock:
            record = self._jobs[job_id]  # KeyError on unknown id
            record.state = state
            record.cached = cached
            record.error = error
            self._append({"kind": "state", "job_id": job_id, "state": state,
                          "cached": cached, "error": error})
            return record

    def claim_next(self) -> Optional[JobRecord]:
        """Atomically take the oldest pending job (marking it running)."""
        with self._lock:
            for record in sorted(self._jobs.values(), key=lambda r: r.seq):
                if record.state == "pending":
                    record.state = "running"
                    self._append({"kind": "state", "job_id": record.job_id,
                                  "state": "running", "cached": False,
                                  "error": None})
                    return record
            return None

    def recover(self) -> List[JobRecord]:
        """Demote killed-while-running jobs back to pending.

        Call once on server start, before any worker claims: a job that
        was in flight when the previous process died resumes from its
        engine checkpoint instead of being lost.
        """
        requeued: List[JobRecord] = []
        with self._lock:
            for record in sorted(self._jobs.values(), key=lambda r: r.seq):
                if record.state == "running":
                    record.state = "pending"
                    self._append({"kind": "state", "job_id": record.job_id,
                                  "state": "pending", "cached": False,
                                  "error": None})
                    requeued.append(record)
        return requeued

    # -- reading -----------------------------------------------------------

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[JobRecord]:
        """Every job, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda r: r.seq)

    def counts(self) -> Dict[str, int]:
        """``{state: count}`` over the current table."""
        with self._lock:
            out: Dict[str, int] = {}
            for record in self._jobs.values():
                out[record.state] = out.get(record.state, 0) + 1
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
