"""SweepService end-to-end: submit -> run -> fetch, dedup, crash recovery."""

import json

import pytest

from repro.service import ServiceError, SweepService, UnknownJobError
from repro.sim.engine import (
    FailurePolicy,
    FaultInjector,
    RunOptions,
    TaskFailure,
    execute_run,
    spec_fingerprint,
)
from repro.sim.spec import dump_spec


def points_json(result):
    """The deterministic payload of a result: spec + points, exact floats."""
    return json.dumps({"spec": result.spec.to_dict(),
                       "points": [p.__dict__ for p in result.points]},
                      sort_keys=True)


class TestSubmitRunFetch:
    def test_round_trip(self, tmp_path, link_spec):
        svc = SweepService(tmp_path / "svc")
        job = svc.submit(link_spec)
        assert job.state == "pending" and not job.cached
        assert svc.step()  # run it synchronously
        status = svc.status(job.job_id)
        assert status["state"] == "done"
        assert status["n_tasks"] == 2 and status["n_failed"] == 0
        assert status["packets_simulated"] == 4
        assert "stage_counts" in status
        result = svc.result(job.job_id)
        assert result.ok and len(result.points) == 2
        assert svc.counter("service.jobs.completed") == 1
        assert svc.counter("service.cache.stores") == 1
        # Engine metrics folded into the service registry.
        assert svc.counter("engine.tasks.ok") == 2

    def test_submit_accepts_envelope_dict(self, tmp_path, link_spec):
        svc = SweepService(tmp_path / "svc")
        job = svc.submit(dump_spec(link_spec))
        assert job.fingerprint == spec_fingerprint(link_spec)

    def test_submit_rejects_garbage(self, tmp_path):
        svc = SweepService(tmp_path / "svc")
        with pytest.raises(ValueError):
            svc.submit({"kind": "nope"})

    def test_result_before_done_raises(self, tmp_path, link_spec):
        svc = SweepService(tmp_path / "svc")
        job = svc.submit(link_spec)
        with pytest.raises(ServiceError, match="pending"):
            svc.result(job.job_id)
        with pytest.raises(UnknownJobError):
            svc.status("job-424242")

    def test_step_with_empty_queue(self, tmp_path):
        assert SweepService(tmp_path / "svc").step() is False

    def test_background_workers(self, tmp_path, link_spec):
        with SweepService(tmp_path / "svc") as svc:
            job = svc.submit(link_spec)
            done = svc.wait(job.job_id, timeout_s=60)
        assert done.state == "done"
        assert svc.result(job.job_id).ok


class TestDeduplication:
    def test_duplicate_submission_is_cache_hit_no_engine_tasks(
            self, tmp_path, link_spec):
        svc = SweepService(tmp_path / "svc")
        first = svc.submit(link_spec)
        assert svc.step()
        tasks_after_first = svc.counter("engine.tasks.ok")
        assert tasks_after_first == 2
        second = svc.submit(link_spec)
        # Answered at submission time: born done, flagged cached.
        assert second.state == "done" and second.cached
        assert second.job_id != first.job_id
        assert svc.counter("service.cache.hits") == 1
        # Zero new engine tasks ran for the duplicate.
        assert svc.counter("engine.tasks.ok") == tasks_after_first
        assert not svc.step()  # nothing left to run

    def test_duplicate_results_bit_identical(self, tmp_path, link_spec):
        svc = SweepService(tmp_path / "svc")
        first = svc.submit(link_spec)
        svc.step()
        second = svc.submit(link_spec)
        assert svc.raw_result(first.job_id) == svc.raw_result(second.job_id)

    def test_queued_duplicates_dedup_at_claim_time(self, tmp_path,
                                                   link_spec):
        # Both copies queued before either ran: the second becomes a
        # cache hit when claimed, without computing.
        svc = SweepService(tmp_path / "svc")
        a = svc.submit(link_spec)
        b = svc.submit(link_spec)
        assert b.state == "pending"  # store not populated yet
        assert svc.step() and svc.step()
        assert svc.counter("engine.tasks.ok") == 2  # one compute total
        assert svc.counter("service.cache.hits") == 1
        assert svc.status(b.job_id)["cached"]
        assert svc.raw_result(a.job_id) == svc.raw_result(b.job_id)

    def test_different_specs_do_not_collide(self, tmp_path, link_spec,
                                            other_link_spec):
        svc = SweepService(tmp_path / "svc")
        a = svc.submit(link_spec)
        b = svc.submit(other_link_spec)
        assert a.fingerprint != b.fingerprint
        svc.step()
        svc.step()
        assert svc.counter("service.cache.hits") == 0
        assert svc.counter("engine.tasks.ok") == 4

    def test_submit_record_marks_cache_hit(self, tmp_path, link_spec):
        svc = SweepService(tmp_path / "svc")
        first = svc.submit_record(dump_spec(link_spec))
        assert first["cache_hit"] is False and "warning" not in first
        svc.step()
        second = svc.submit_record(dump_spec(link_spec))
        assert second["cache_hit"] is True
        # No obs artifacts were requested, so no warning either.
        assert "warning" not in second

    def test_cache_hit_warns_about_unserved_obs_request(self, tmp_path,
                                                        link_spec):
        # Dedup keys on the spec fingerprint only: an obs section must
        # not fork the cache, but the hit must say what it can't serve.
        svc = SweepService(tmp_path / "svc")
        payload = dict(dump_spec(link_spec))
        payload["obs"] = {"trace": True, "metrics": True}
        first = svc.submit_record(payload)
        assert first["cache_hit"] is False and "warning" not in first
        svc.step()
        second = svc.submit_record(payload)
        assert second["cache_hit"] is True and second["cached"]
        assert "metrics, trace" in second["warning"]
        assert "not regenerated" in second["warning"]
        assert svc.counter("service.cache.obs_warnings") == 1
        # The obs section never reached the cache key: one compute.
        assert svc.counter("service.cache.hits") == 1


class TestFailures:
    def test_failed_run_marks_job_failed_and_caches_nothing(
            self, tmp_path, mac_spec):
        svc = SweepService(tmp_path / "svc")
        job = svc.submit(mac_spec)
        # Sabotage: poison the journaled envelope so the run cannot
        # even build a spec.
        record = svc.queue.get(job.job_id)
        record.envelope["spec"] = {"nonsense": True}
        assert svc.step()
        status = svc.status(job.job_id)
        assert status["state"] == "failed"
        assert "SpecFormatError" in status["error"]
        assert svc.counter("service.jobs.failed") == 1
        assert not svc.store.has(job.fingerprint)

    def test_degraded_run_not_cached(self, tmp_path, link_spec):
        svc = SweepService(tmp_path / "svc",
                           failure_policy=FailurePolicy(mode="degrade"))
        job = svc.submit(link_spec)
        # Degrade-mode run with an injected fault on every attempt of
        # task 0: the run completes but result.ok is False.
        claimed = svc.queue.claim_next()
        options = RunOptions(
            failure_policy=FailurePolicy(mode="degrade"),
            checkpoint=str(svc.checkpoint_path(claimed.fingerprint)))
        result = execute_run(link_spec, options,
                             fault_injector=FaultInjector(fail={0: 99}))
        assert not result.ok
        # The service-side contract: a not-ok result is never stored.
        svc.queue.set_state(claimed.job_id, "failed", error="degraded")
        assert not svc.store.has(job.fingerprint)
        with pytest.raises(ServiceError, match="failed"):
            svc.result(job.job_id)


class TestCrashRecovery:
    def test_kill_and_restart_resumes_and_matches_uninterrupted(
            self, tmp_path, link_spec):
        fingerprint = spec_fingerprint(link_spec)

        # Reference: an uninterrupted run in a separate service root.
        ref = SweepService(tmp_path / "ref")
        ref_job = ref.submit(link_spec)
        ref.step()
        ref_result = ref.result(ref_job.job_id)

        # Victim service: submit, claim, crash mid-job.
        svc1 = SweepService(tmp_path / "svc")
        job = svc1.submit(link_spec)
        claimed = svc1.queue.claim_next()
        assert claimed.job_id == job.job_id  # now journaled as running
        with pytest.raises(TaskFailure):
            # Task 0 completes (and is checkpointed); task 1 dies.
            execute_run(
                link_spec,
                RunOptions(checkpoint=str(svc1.checkpoint_path(fingerprint))),
                fault_injector=FaultInjector(fail={1: 99}))
        # svc1 is now "killed": no further state writes.
        del svc1

        # Restart over the same root: the job must be requeued...
        svc2 = SweepService(tmp_path / "svc")
        assert svc2.counter("service.jobs.recovered") == 1
        assert svc2.queue.get(job.job_id).state == "pending"
        # ...and run to completion, resuming the checkpointed point.
        assert svc2.step()
        status = svc2.status(job.job_id)
        assert status["state"] == "done"
        result = svc2.result(job.job_id)
        resumed = [t for t in result.tasks if t.resumed]
        assert [t.index for t in resumed] == [0]
        # The recovered result is bit-identical to the uninterrupted
        # run: same points, exact float equality, via canonical JSON.
        assert points_json(result) == points_json(ref_result)
        # And engine work was saved: only the un-checkpointed task ran.
        assert svc2.counter("engine.tasks.ok") == 1
        assert svc2.counter("engine.tasks.resumed") == 1

    def test_pending_jobs_survive_restart(self, tmp_path, link_spec,
                                          other_link_spec):
        svc1 = SweepService(tmp_path / "svc")
        a = svc1.submit(link_spec)
        b = svc1.submit(other_link_spec)
        del svc1  # killed before any worker ran

        svc2 = SweepService(tmp_path / "svc")
        assert svc2.counter("service.jobs.recovered") == 0  # none running
        assert [j["job_id"] for j in svc2.jobs()] == [a.job_id, b.job_id]
        assert svc2.step() and svc2.step()
        assert svc2.status(a.job_id)["state"] == "done"
        assert svc2.status(b.job_id)["state"] == "done"


class TestMetricsEndpointData:
    def test_snapshot_includes_queue_gauges_and_job_timer(
            self, tmp_path, link_spec, other_link_spec):
        svc = SweepService(tmp_path / "svc")
        svc.submit(link_spec)
        svc.submit(other_link_spec)
        svc.step()
        snap = svc.metrics_snapshot()
        assert snap["gauges"]["service.queue.done"] == 1.0
        assert snap["gauges"]["service.queue.pending"] == 1.0
        assert snap["gauges"]["service.queue.depth"] == 1.0
        assert snap["gauges"]["service.jobs.running"] == 0.0
        assert snap["counters"]["service.jobs.submitted"] == 2
        assert snap["timers"]["service.job"]["count"] == 1
        assert snap["histograms"]["service.job.seconds"]["count"] == 1
        text = svc.metrics_text()
        assert "repro_service_jobs_submitted_total 2" in text
        assert "repro_service_queue_pending" in text

    def test_job_age_gauge_tracks_oldest_active(self, tmp_path, link_spec):
        svc = SweepService(tmp_path / "svc")
        assert svc.metrics_snapshot()["gauges"][
            "service.job.age_seconds"] == 0.0
        svc.submit(link_spec)
        assert svc.metrics_snapshot()["gauges"][
            "service.job.age_seconds"] >= 0.0
        svc.step()
        # Settled: nothing active, age falls back to zero.
        assert svc.metrics_snapshot()["gauges"][
            "service.job.age_seconds"] == 0.0

    def test_exposition_passes_the_strict_parser(self, tmp_path, link_spec):
        from repro.obs import parse_prometheus_text

        svc = SweepService(tmp_path / "svc")
        svc.submit(link_spec)
        svc.step()
        svc.submit(link_spec)  # cache hit
        exposition = parse_prometheus_text(svc.metrics_text())
        assert exposition.value("repro_service_cache_hits_total") == 1.0
        assert exposition.value("repro_service_queue_done") == 2.0
        hist = exposition.histogram("repro_engine_task_seconds")
        assert hist.count == 2  # two distances in link_spec
        assert sum(hist.counts) == hist.count


class TestProgressEvents:
    def test_events_stream_with_cursor(self, tmp_path, link_spec):
        svc = SweepService(tmp_path / "svc")
        job = svc.submit(link_spec)
        before = svc.events(job.job_id)
        assert before["state"] == "pending" and before["events"] == []
        assert before["cursor"] == 0
        svc.step()
        page = svc.events(job.job_id)
        kinds = [r["kind"] for r in page["events"]]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert kinds.count("task") == 2
        assert page["state"] == "done"
        assert page["cursor"] == page["events"][-1]["seq"]
        # Resuming from the final cursor yields nothing new.
        resumed = svc.events(job.job_id, cursor=page["cursor"])
        assert resumed["events"] == []
        assert resumed["cursor"] == page["cursor"]

    def test_followed_job_drops_its_reader_when_it_settles(
            self, tmp_path, link_spec):
        # A follower that stops after one page of an active job must
        # not leave the job's incremental reader cached.
        svc = SweepService(tmp_path / "svc")
        job = svc.submit(link_spec)
        svc.events(job.job_id)
        assert list(svc._tails) == [job.job_id]
        svc.step()
        assert svc._tails == {}
        assert svc.events(job.job_id)["events"]
        assert svc._tails == {}

    def test_stale_cursor_is_safe(self, tmp_path, link_spec):
        svc = SweepService(tmp_path / "svc")
        job = svc.submit(link_spec)
        svc.step()
        page = svc.events(job.job_id, cursor=10_000)
        assert page["events"] == [] and page["cursor"] == 10_000

    def test_unknown_job_raises(self, tmp_path):
        svc = SweepService(tmp_path / "svc")
        with pytest.raises(UnknownJobError):
            svc.events("job-424242")

    def test_cached_job_has_no_stream(self, tmp_path, link_spec):
        svc = SweepService(tmp_path / "svc")
        first = svc.submit(link_spec)
        svc.step()
        dup = svc.submit(link_spec)
        page = svc.events(dup.job_id)
        assert page["cached"] is True and page["events"] == []
        assert svc.events(first.job_id)["events"]  # the original ran

    def test_progress_artifacts_live_outside_results(self, tmp_path,
                                                     link_spec):
        # The journal is keyed by job id under progress/, never inside
        # the content-addressed result store — so the dedup path cannot
        # serve (or hash) progress telemetry.
        svc = SweepService(tmp_path / "svc")
        job = svc.submit(link_spec)
        svc.step()
        assert svc.progress_path(job.job_id).exists()
        results_dir = tmp_path / "svc" / "results"
        assert not list(results_dir.glob("**/*progress*"))
        raw_before = svc.raw_result(job.job_id)
        dup = svc.submit(link_spec)
        assert svc.raw_result(dup.job_id) == raw_before
