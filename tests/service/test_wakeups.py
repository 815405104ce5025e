"""Event-driven job completion: who wakes whom, and in what order.

Workers, ``SweepService.wait`` and the HTTP long-polls block on the job
queue's change condition instead of sleeping.  Every assertion here is
about event order or request counts, never about how long something
took.  Where a test needs "the waiter is already blocked", it wraps the
waiter's predicate: the predicate runs with the queue lock held, so a
change made after the wrapper signals can only land once the waiter
has released the lock by blocking.
"""

import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceClient, ServiceHTTPServer
from repro.service.queue import JobQueue
from repro.service.service import SweepService

ENVELOPE = {"kind": "link", "version": 1, "spec": {"seed": 0}}


def signal_when_blocking(queue, attr):
    """Wrap ``queue.<attr>`` (``wait_for`` or ``claim_next_blocking``)
    so its predicate sets the returned Event, with the queue lock held,
    every time it is evaluated."""
    evaluated = threading.Event()
    original = getattr(queue, attr)

    def spy(predicate, *args):
        def checked():
            evaluated.set()
            return predicate()
        return original(checked, *args)

    setattr(queue, attr, spy)
    return evaluated


def run_in_thread(fn):
    """Start *fn* on a thread; returns (thread, outcome list)."""
    outcome = []

    def target():
        try:
            outcome.append(("ok", fn()))
        except TimeoutError as exc:
            outcome.append(("raised", exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, outcome


@pytest.fixture
def server(tmp_path):
    """An HTTP server over a service whose workers are *not* started:
    each test decides when jobs run."""
    service = SweepService(tmp_path / "svc")
    http_server = ServiceHTTPServer(service, port=0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    try:
        yield http_server
    finally:
        http_server.shutdown()
        http_server.server_close()
        service.stop()
        thread.join(timeout=10)


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


class TestQueueCondition:
    def test_blocked_claimer_takes_a_job_submitted_later(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        evaluated = threading.Event()

        def stopped():
            evaluated.set()
            return False

        thread, outcome = run_in_thread(
            lambda: queue.claim_next_blocking(stopped))
        assert evaluated.wait(30)
        job = queue.submit(ENVELOPE, "aaaa")
        thread.join(30)
        assert not thread.is_alive()
        kind, claimed = outcome[0]
        assert kind == "ok" and claimed.job_id == job.job_id
        assert claimed.state == "running"

    def test_notify_releases_a_stopped_claimer(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        stop = threading.Event()
        evaluated = threading.Event()

        def stopped():
            evaluated.set()
            return stop.is_set()

        thread, outcome = run_in_thread(
            lambda: queue.claim_next_blocking(stopped))
        assert evaluated.wait(30)
        stop.set()
        queue.notify()
        thread.join(30)
        assert not thread.is_alive()
        assert outcome == [("ok", None)]


    def test_many_claimers_take_every_job_exactly_once(self, tmp_path):
        # More claimers than cores and a short switch interval: a lost
        # wake-up strands a job, a lost update hands one out twice.
        queue = JobQueue(tmp_path / "queue.jsonl")
        stop = threading.Event()
        claimed = []
        claimed_lock = threading.Lock()

        def claimer():
            while True:
                job = queue.claim_next_blocking(stop.is_set)
                if job is None:
                    return
                with claimed_lock:
                    claimed.append(job.job_id)
                queue.set_state(job.job_id, "done")

        submitted = []

        def submitter(k):
            for i in range(20):
                submitted.append(queue.submit(ENVELOPE, f"fp-{k}-{i}"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            claimers = [threading.Thread(target=claimer, daemon=True)
                        for _ in range(6)]
            submitters = [threading.Thread(target=submitter, args=(k,),
                                           daemon=True) for k in range(4)]
            for thread in claimers + submitters:
                thread.start()
            for thread in submitters:
                thread.join(60)
            assert not any(thread.is_alive() for thread in submitters)
            assert queue.wait_for(
                lambda: all(not job.active for job in submitted), 60)
            stop.set()
            queue.notify()
            for thread in claimers:
                thread.join(60)
            assert not any(thread.is_alive() for thread in claimers)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(claimed) == sorted(job.job_id for job in submitted)
        assert len(submitted) == 80


class TestJournalRows:
    def test_cache_hit_submission_writes_one_row(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        queue.submit(ENVELOPE, "aaaa", cached=True)
        rows = [json.loads(line)
                for line in queue.path.read_text().splitlines()]
        assert len(rows) == 1
        assert rows[0]["kind"] == "job"
        assert rows[0]["state"] == "done" and rows[0]["cached"] is True

    def test_old_two_row_cache_hit_replays_like_one_row(self, tmp_path):
        def table(queue):
            return [(r.to_dict(), r.envelope) for r in queue.jobs()]

        new = JobQueue(tmp_path / "new" / "queue.jsonl")
        new.submit(ENVELOPE, "aaaa")
        new.submit(ENVELOPE, "bbbb", cached=True)
        # The same history as an older server journaled it: a cache
        # hit is a job row followed by a separate done/cached row.
        old_path = tmp_path / "old" / "queue.jsonl"
        old_path.parent.mkdir()
        old_rows = [
            {"kind": "job", "job_id": "job-000001", "seq": 1,
             "fingerprint": "aaaa", "envelope": ENVELOPE},
            {"kind": "job", "job_id": "job-000002", "seq": 2,
             "fingerprint": "bbbb", "envelope": ENVELOPE},
            {"kind": "state", "job_id": "job-000002", "state": "done",
             "cached": True, "error": None},
        ]
        old_path.write_text("".join(json.dumps(row, sort_keys=True) + "\n"
                                    for row in old_rows))
        replayed_new = JobQueue(new.path)
        assert table(JobQueue(old_path)) == table(replayed_new) \
            == table(new)
        assert replayed_new.get("job-000002").cached


class TestServiceWakeups:
    def test_blocked_worker_runs_a_job_submitted_later(self, tmp_path,
                                                       link_spec):
        svc = SweepService(tmp_path / "svc")
        blocked = signal_when_blocking(svc.queue, "claim_next_blocking")
        with svc:
            assert blocked.wait(30)  # the worker found nothing
            job = svc.submit(link_spec)
            done = svc.wait(job.job_id, timeout_s=60)
        assert done.state == "done"
        assert svc.counter("service.jobs.completed") == 1

    def test_stop_wakes_blocked_workers(self, tmp_path):
        svc = SweepService(tmp_path / "svc", n_workers=2)
        svc.start()
        workers = list(svc._threads)
        assert len(workers) == 2
        svc.stop()
        assert not any(thread.is_alive() for thread in workers)

    def test_stop_wakes_a_blocked_wait(self, tmp_path, link_spec):
        svc = SweepService(tmp_path / "svc")  # no workers: stays pending
        job = svc.submit(link_spec)
        blocked = signal_when_blocking(svc.queue, "wait_for")
        thread, outcome = run_in_thread(
            lambda: svc.wait(job.job_id, timeout_s=600))
        assert blocked.wait(30)
        svc.stop()
        thread.join(30)
        assert not thread.is_alive()
        kind, exc = outcome[0]
        assert kind == "raised" and isinstance(exc, TimeoutError)
        assert "stopped" in str(exc)

    def test_status_summary_is_parsed_once(self, tmp_path, link_spec):
        root = tmp_path / "svc"
        svc = SweepService(root)
        job = svc.submit(link_spec)
        svc.step()
        reads = []
        get = svc.store.get
        svc.store.get = lambda fp: reads.append(fp) or get(fp)
        first = svc.status(job.job_id)
        assert svc.status(job.job_id) == first
        assert reads == []  # filled when the result was stored
        # A record stored by an earlier process: parsed on first read.
        restarted = SweepService(root)
        reads_after = []
        get2 = restarted.store.get
        restarted.store.get = lambda fp: reads_after.append(fp) or get2(fp)
        assert restarted.status(job.job_id) == first
        assert restarted.status(job.job_id) == first
        assert reads_after == [job.fingerprint]


class TestLongPollOverHTTP:
    def test_cold_wait_settling_inside_one_long_poll_is_one_get(
            self, server, client, link_spec):
        service = server.service
        job = client.submit(link_spec)
        before = service.counter("service.http.get")
        blocked = signal_when_blocking(service.queue, "wait_for")
        thread, outcome = run_in_thread(
            lambda: client.wait(job["job_id"], timeout_s=60))
        assert blocked.wait(30)  # the GET is held on the server
        service.start()          # only now can the job run
        thread.join(60)
        assert not thread.is_alive()
        kind, status = outcome[0]
        assert kind == "ok" and status["state"] == "done"
        assert service.counter("service.http.get") - before == 1

    def test_wait_on_a_settled_job_returns_on_first_request(
            self, server, client, link_spec):
        service = server.service
        job = client.submit(link_spec)
        service.step()
        before = service.counter("service.http.get")
        status = client.wait(job["job_id"], timeout_s=60)
        assert status["state"] == "done"
        assert service.counter("service.http.get") - before == 1

    def test_events_long_poll_returns_rows_that_landed(
            self, server, client, link_spec):
        service = server.service
        job = client.submit(link_spec)
        blocked = signal_when_blocking(service.queue, "wait_for")
        thread, outcome = run_in_thread(
            lambda: client.events(job["job_id"], cursor=0, wait_s=60))
        assert blocked.wait(30)  # empty page held on the server
        assert service.step()
        thread.join(60)
        assert not thread.is_alive()
        kind, page = outcome[0]
        assert kind == "ok" and page["events"]
        assert page["events"][0]["kind"] == "run_start"
        assert page["cursor"] == page["events"][-1]["seq"]

    def test_follow_reads_the_whole_stream(self, server, client,
                                           link_spec):
        job = client.submit(link_spec)
        server.service.start()
        rows = list(client.follow(job["job_id"], timeout_s=60))
        kinds = [row["kind"] for row in rows]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"

    @pytest.mark.parametrize("route", ["", "/events"])
    @pytest.mark.parametrize("value", ["nope", "-1", "nan", "inf"])
    def test_bad_wait_is_400(self, server, client, link_spec, route,
                             value):
        job = client.submit(link_spec)
        url = f"{server.url}/jobs/{job['job_id']}{route}?wait={value}"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url, timeout=10)
        assert excinfo.value.code == 400
        assert "wait" in json.loads(excinfo.value.read())["error"]
