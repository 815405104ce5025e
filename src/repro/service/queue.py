"""JSONL-journaled job queue: submissions and state changes as a log.

The queue's durable form is an append-only journal, one JSON object per
line, in the same torn-line-tolerant discipline as the engine's
checkpoint journal and the trace sink: a process killed mid-write
leaves at most one unparseable tail line, which replay skips.  Two row
kinds:

* ``{"kind": "job", "job_id", "seq", "fingerprint", "envelope"}`` — a
  submission, carrying the full enveloped spec so a restarted server
  can rebuild the spec without any other state.  A cache-hit
  submission's row also carries ``"state": "done", "cached": true``,
  so the hit costs one journal write (one fsync).
* ``{"kind": "state", "job_id", "state", "cached", "error"}`` — a
  transition; the last state row per job wins.  Journals written
  before job rows could carry a state hold a cache hit as a job row
  plus a ``done`` state row; replay reads both forms alike.

Replaying the journal therefore reconstructs the exact job table, and
:meth:`JobQueue.recover` demotes jobs that were ``running`` at the kill
back to ``pending`` so the worker tier picks them up again (their
engine checkpoints make the re-run resume, not restart).

No wall-clock timestamps anywhere — ordering is the journal's line
order plus the monotonic ``seq``, matching the repo-wide rule that
persisted artifacts never depend on when a run happened.

All mutating methods are serialized by an internal lock: HTTP handler
threads submit while a worker thread claims.  One condition over that
lock is notified on every change (submit, state change, claim,
recovery, progress), so workers and waiters block on it instead of
polling: :meth:`JobQueue.claim_next_blocking` and
:meth:`JobQueue.wait_for`.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

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
    #: The enveloped spec, which only a run reads.  Emptied once the job
    #: settles (``done`` or ``failed``): the journal keeps it for
    #: restarts, and the process stops holding one spec per job it has
    #: ever seen.
    envelope: Dict[str, Any] = field(default_factory=dict)
    state: str = "pending"
    cached: bool = False
    error: Optional[str] = None
    #: Highest progress-journal ``seq`` this process has seen land for
    #: the job (:meth:`JobQueue.note_progress`).  In memory only: never
    #: journaled, never in :meth:`to_dict`.
    progress_seq: int = 0

    @property
    def active(self) -> bool:
        return self.state in ("pending", "running")

    def transition(self, state: str, cached: bool,
                   error: Optional[str]) -> None:
        """Move to *state*, dropping the envelope once settled."""
        self.state, self.cached, self.error = state, cached, error
        if not self.active:
            self.envelope = {}

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
        # Notified, with _lock held, on every change a waiter may be
        # blocked on; see wait_for and claim_next_blocking.
        self._changed = threading.Condition(self._lock)
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
                if "state" in row:
                    self._apply_state(record, row)
            elif kind == "state":
                record_or_none = self._jobs.get(str(row.get("job_id")))
                if record_or_none is None:
                    continue  # state row for a job whose row was torn
                self._apply_state(record_or_none, row)

    @staticmethod
    def _apply_state(record: JobRecord, row: Dict[str, Any]) -> None:
        """Replay one journaled state onto *record*; unknown states are
        skipped like a torn line."""
        state = row.get("state")
        if state not in JOB_STATES:
            return
        error = row.get("error")
        record.transition(str(state), bool(row.get("cached", False)),
                          None if error is None else str(error))

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
        the same critical section and the same journal row, so no
        worker can claim a job whose result is already stored.
        """
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            record = JobRecord(job_id=f"job-{seq:06d}", seq=seq,
                               fingerprint=fingerprint,
                               envelope=dict(envelope))
            row: Dict[str, Any] = {"kind": "job", "job_id": record.job_id,
                                   "seq": seq, "fingerprint": fingerprint,
                                   "envelope": record.envelope}
            if cached:
                row.update(state="done", cached=True)
                # *row* keeps the envelope: transition rebinds the
                # record's, so the journal row still carries the spec.
                record.transition("done", True, None)
            self._jobs[record.job_id] = record
            self._append(row)
            self._changed.notify_all()
            return record

    def set_state(self, job_id: str, state: str, *, cached: bool = False,
                  error: Optional[str] = None) -> JobRecord:
        """Transition one job, journaling the new state."""
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        with self._lock:
            record = self._jobs[job_id]  # KeyError on unknown id
            record.transition(state, cached, error)
            self._append({"kind": "state", "job_id": job_id, "state": state,
                          "cached": cached, "error": error})
            self._changed.notify_all()
            return record

    def _claim_oldest(self) -> Optional[JobRecord]:  # reprolint: holds(_lock)
        pending = [r for r in self._jobs.values() if r.state == "pending"]
        if not pending:
            return None
        record = min(pending, key=lambda r: r.seq)
        record.state = "running"
        self._append({"kind": "state", "job_id": record.job_id,
                      "state": "running", "cached": False, "error": None})
        self._changed.notify_all()
        return record

    def claim_next(self) -> Optional[JobRecord]:
        """Atomically take the oldest pending job (marking it running)."""
        with self._lock:
            return self._claim_oldest()

    def claim_next_blocking(self, stopped: Callable[[], bool]
                            ) -> Optional[JobRecord]:
        """Like :meth:`claim_next`, but block while no job is pending.

        Returns ``None`` only once ``stopped()`` is true.  *stopped* is
        evaluated with the queue lock held, so whoever makes it true
        must call :meth:`notify` afterwards to wake a blocked claimer.
        """
        with self._lock:
            while not stopped():
                record = self._claim_oldest()
                if record is not None:
                    return record
                self._changed.wait()
            return None

    def note_progress(self, job_id: str, seq: int) -> None:
        """Record that progress row *seq* of *job_id* landed and wake
        the waiters (an events long-poll blocks on it)."""
        with self._lock:
            record = self._jobs.get(job_id)
            if record is not None:
                record.progress_seq = max(record.progress_seq, int(seq))
            self._changed.notify_all()

    def notify(self) -> None:
        """Wake every waiter so it re-evaluates its predicate."""
        with self._lock:
            self._changed.notify_all()

    def wait_for(self, predicate: Callable[[], bool],
                 timeout_s: Optional[float] = None) -> bool:
        """Block until ``predicate()`` holds or *timeout_s* passes;
        returns the predicate's last value.

        *predicate* runs with the queue lock held (it is re-evaluated
        after every change), so it may read :class:`JobRecord` fields
        directly but must not call back into the queue.
        """
        with self._lock:
            return self._changed.wait_for(predicate, timeout_s)

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
            self._changed.notify_all()
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
