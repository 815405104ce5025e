"""The JSONL-journaled job queue: lifecycle, replay, crash recovery."""

import json

import pytest

from repro.service.queue import JOB_STATES, JobQueue

ENVELOPE = {"kind": "link", "version": 1, "spec": {"seed": 0}}


def queue_at(tmp_path):
    return JobQueue(tmp_path / "queue.jsonl")


class TestLifecycle:
    def test_submit_assigns_sequential_ids(self, tmp_path):
        q = queue_at(tmp_path)
        a = q.submit(ENVELOPE, "aaaa")
        b = q.submit(ENVELOPE, "bbbb")
        assert (a.job_id, b.job_id) == ("job-000001", "job-000002")
        assert (a.seq, b.seq) == (1, 2)
        assert a.state == "pending" and a.active
        assert len(q) == 2

    def test_claim_is_fifo(self, tmp_path):
        q = queue_at(tmp_path)
        a = q.submit(ENVELOPE, "aaaa")
        b = q.submit(ENVELOPE, "bbbb")
        first = q.claim_next()
        assert first is not None and first.job_id == a.job_id
        assert first.state == "running"
        second = q.claim_next()
        assert second is not None and second.job_id == b.job_id
        assert q.claim_next() is None

    def test_cached_submission_is_born_done(self, tmp_path):
        # A job whose result is already stored is never claimable, not
        # even for the moment between its job row and its state row.
        q = queue_at(tmp_path)
        job = q.submit(ENVELOPE, "aaaa", cached=True)
        assert job.state == "done" and job.cached
        assert q.claim_next() is None
        replayed = queue_at(tmp_path).get(job.job_id)
        assert replayed.state == "done" and replayed.cached

    def test_set_state_validates(self, tmp_path):
        q = queue_at(tmp_path)
        job = q.submit(ENVELOPE, "aaaa")
        with pytest.raises(ValueError):
            q.set_state(job.job_id, "exploded")
        with pytest.raises(KeyError):
            q.set_state("job-999999", "done")
        done = q.set_state(job.job_id, "done", cached=True)
        assert done.state == "done" and done.cached and not done.active

    def test_counts(self, tmp_path):
        q = queue_at(tmp_path)
        q.submit(ENVELOPE, "aaaa")
        job = q.submit(ENVELOPE, "bbbb")
        q.set_state(job.job_id, "failed", error="boom")
        assert q.counts() == {"pending": 1, "failed": 1}
        assert q.get(job.job_id).error == "boom"


class TestReplay:
    def test_restart_restores_jobs_and_states(self, tmp_path):
        q = queue_at(tmp_path)
        a = q.submit(ENVELOPE, "aaaa")
        b = q.submit(ENVELOPE, "bbbb")
        q.set_state(a.job_id, "done")
        q2 = queue_at(tmp_path)
        assert len(q2) == 2
        assert q2.get(a.job_id).state == "done"
        assert q2.get(b.job_id).state == "pending"
        assert q2.get(b.job_id).envelope == ENVELOPE

    def test_restart_continues_sequence(self, tmp_path):
        q = queue_at(tmp_path)
        q.submit(ENVELOPE, "aaaa")
        q2 = queue_at(tmp_path)
        assert q2.submit(ENVELOPE, "bbbb").job_id == "job-000002"

    def test_torn_tail_line_is_skipped(self, tmp_path):
        q = queue_at(tmp_path)
        a = q.submit(ENVELOPE, "aaaa")
        with open(q.path, "a") as fh:
            fh.write('{"kind": "state", "job_id": "job-0000')  # torn write
        q2 = queue_at(tmp_path)
        assert q2.get(a.job_id).state == "pending"
        assert len(q2) == 1

    def test_state_row_for_torn_job_row_is_skipped(self, tmp_path):
        q = queue_at(tmp_path)
        q.submit(ENVELOPE, "aaaa")
        with open(q.path, "a") as fh:
            fh.write(json.dumps({"kind": "state", "job_id": "job-000077",
                                 "state": "done", "cached": False,
                                 "error": None}) + "\n")
        q2 = queue_at(tmp_path)  # must not raise
        assert len(q2) == 1

    def test_unknown_state_value_is_skipped(self, tmp_path):
        q = queue_at(tmp_path)
        a = q.submit(ENVELOPE, "aaaa")
        with open(q.path, "a") as fh:
            fh.write(json.dumps({"kind": "state", "job_id": a.job_id,
                                 "state": "exploded"}) + "\n")
        q2 = queue_at(tmp_path)
        assert q2.get(a.job_id).state == "pending"

    def test_last_state_row_wins(self, tmp_path):
        q = queue_at(tmp_path)
        a = q.submit(ENVELOPE, "aaaa")
        q.set_state(a.job_id, "running")
        q.set_state(a.job_id, "failed", error="x")
        q.set_state(a.job_id, "done")
        assert queue_at(tmp_path).get(a.job_id).state == "done"


class TestRecover:
    def test_recover_demotes_running_to_pending(self, tmp_path):
        q = queue_at(tmp_path)
        a = q.submit(ENVELOPE, "aaaa")
        b = q.submit(ENVELOPE, "bbbb")
        q.claim_next()  # a: running, then the process "dies"
        q2 = queue_at(tmp_path)
        requeued = q2.recover()
        assert [r.job_id for r in requeued] == [a.job_id]
        assert q2.get(a.job_id).state == "pending"
        # FIFO order preserved: a is claimed again before b.
        assert q2.claim_next().job_id == a.job_id
        assert q2.get(b.job_id).state == "pending"

    def test_recover_is_noop_without_running_jobs(self, tmp_path):
        q = queue_at(tmp_path)
        a = q.submit(ENVELOPE, "aaaa")
        q.set_state(a.job_id, "done")
        assert queue_at(tmp_path).recover() == []

    def test_job_states_constant(self):
        assert JOB_STATES == ("pending", "running", "done", "failed")


class TestEnvelopeLifetime:
    def test_settled_jobs_drop_their_envelope(self, tmp_path):
        q = queue_at(tmp_path)
        done = q.submit(ENVELOPE, "aaaa")
        failed = q.submit(ENVELOPE, "bbbb")
        hit = q.submit(ENVELOPE, "cccc", cached=True)
        running = q.submit(ENVELOPE, "dddd")
        pending = q.submit(ENVELOPE, "eeee")
        q.set_state(done.job_id, "done")
        q.set_state(failed.job_id, "failed", error="boom")
        q.set_state(running.job_id, "running")
        for queue in (q, queue_at(tmp_path)):
            assert queue.get(done.job_id).envelope == {}
            assert queue.get(failed.job_id).envelope == {}
            assert queue.get(hit.job_id).envelope == {}
            assert queue.get(running.job_id).envelope == ENVELOPE
            assert queue.get(pending.job_id).envelope == ENVELOPE
        # The journal keeps every envelope for restarts.
        rows = [json.loads(line) for line in q.path.read_text().splitlines()]
        assert [r["envelope"] for r in rows if r["kind"] == "job"] \
            == [ENVELOPE] * 5
