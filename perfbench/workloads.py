"""The benchmark's workloads: which specs each round runs, and how.

Every workload is a closed loop of *rounds*; a round is a fixed list of
operations, so every run attempts whole rounds of the same operations.
An operation is one ``execute_run`` call (``paper-figures``,
``parallel-dense``) or one service job from submit to fetched bytes
(``service-traffic``).  All spec seeds derive from the benchmark's
``--seed``, the round index and the operation's slot in the round.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.channel.geometry import Deployment
from repro.service.client import ServiceClient
from repro.service.http import ServiceHTTPServer
from repro.service.service import SweepService
from repro.sim import engine
from repro.sim.config import BLE_CONFIG, WIFI_CONFIG, ZIGBEE_CONFIG
from repro.sim.engine import (ExperimentSpec, MacExperimentSpec, RunOptions,
                              RunResult, spec_fingerprint)

import checks

#: Metric-name radio for each config name.
RADIO = {"wifi": "wifi", "zigbee": "zigbee", "bluetooth": "ble"}

# The committed figure sweeps (benchmarks/test_fig{10,11,12,13,17}_*.py):
# (spec template, the figure's own seed).
FIGURES: Dict[str, Tuple[Any, int]] = {
    "fig10": (ExperimentSpec(WIFI_CONFIG, Deployment.los(1.0),
                             (1, 5, 10, 14, 18, 22, 26, 30, 34, 38, 42, 46),
                             packets_per_point=10), 100),
    "fig11": (ExperimentSpec(WIFI_CONFIG, Deployment.nlos(1.0),
                             (1, 4, 8, 12, 14, 18, 22, 25),
                             packets_per_point=10), 110),
    "fig12": (ExperimentSpec(ZIGBEE_CONFIG, Deployment.los(1.0),
                             (1, 4, 8, 12, 16, 20, 22, 26),
                             packets_per_point=12), 120),
    "fig13": (ExperimentSpec(BLE_CONFIG, Deployment.los(1.0),
                             (1, 2, 4, 6, 8, 10, 12, 14),
                             packets_per_point=12), 130),
    "fig17": (MacExperimentSpec((4, 8, 12, 16, 20), measured_rounds=12,
                                simulated_rounds=300), 170),
}

# One paper-figures round.  The WiFi sweeps cost ~20x the others, so
# the cheap figures repeat (with their own seeds) and interleave with
# WiFi, giving every radio about a second of work per round.
PAPER_ROUND = ("fig12", "fig13", "fig17", "fig17", "fig10",
               "fig12", "fig13", "fig17", "fig17",
               "fig12", "fig13", "fig17", "fig17", "fig11",
               "fig12", "fig13", "fig17", "fig17")

# parallel-dense: tens of packets per point, one point per pool task.
DENSE: Dict[str, Tuple[Any, int]] = {
    "wifi": (ExperimentSpec(WIFI_CONFIG, Deployment.los(1.0),
                            (2, 10, 18, 26), packets_per_point=16), 200),
    "zigbee": (ExperimentSpec(ZIGBEE_CONFIG, Deployment.los(1.0),
                              (1, 4, 7, 10, 13, 16, 19, 22),
                              packets_per_point=48), 210),
    "ble": (ExperimentSpec(BLE_CONFIG, Deployment.los(1.0),
                           (1, 2, 4, 6, 8, 10, 12, 14),
                           packets_per_point=48), 220),
}
DENSE_ROUND = ("zigbee", "wifi", "ble")
DENSE_JOBS = 2

# service-traffic: mid-size specs.  The ZigBee, BLE and MAC jobs
# compute in ~50 ms, well inside one 0.2 s client poll even in the
# machine's slow phases, so the cold-job median stays on one poll step;
# a WiFi job (one frame decoded alone costs ~0.15 s) always takes two.
SERVICE: Dict[str, Tuple[Any, int]] = {
    "zigbee": (ExperimentSpec(ZIGBEE_CONFIG, Deployment.los(1.0),
                              (2, 10, 18), packets_per_point=4), 300),
    "ble": (ExperimentSpec(BLE_CONFIG, Deployment.los(1.0),
                           (2, 6, 10), packets_per_point=4), 310),
    "mac": (MacExperimentSpec((4, 12, 20), measured_rounds=12,
                              simulated_rounds=100), 320),
    "wifi": (ExperimentSpec(WIFI_CONFIG, Deployment.los(1.0), (6,),
                            packets_per_point=2), 330),
}
SERVICE_ROUND = ("zigbee", "ble", "mac", "wifi")
HITS_PER_COLD = 3
#: Rounds of service traffic that paper-figures and parallel-dense run
#: after their main loop, so they report the service metrics too.
PROBE_ROUNDS = 3


def spec_seed(base: int, seed: int, rnd: int, slot: int) -> int:
    return base + 100_000 * seed + 100 * rnd + slot


def seeded(template: Tuple[Any, int], seed: int, rnd: int,
           slot: int) -> Any:
    spec, base = template
    return dataclasses.replace(spec, seed=spec_seed(base, seed, rnd, slot))


def mac_rounds(spec: MacExperimentSpec) -> int:
    """Aloha and TDM rounds one MAC sweep simulates."""
    per_point = spec.measured_rounds + 2 * spec.simulated_rounds
    return per_point * len(spec.tag_counts)


def radio_of(spec: Any) -> str:
    return "mac" if isinstance(spec, MacExperimentSpec) \
        else RADIO[spec.config.name]


@dataclass
class Tally:
    """What one pass measured."""

    work: Dict[str, float] = field(default_factory=dict)     # packets/rounds
    seconds: Dict[str, float] = field(default_factory=dict)  # in execute_run
    cold_s: List[float] = field(default_factory=list)
    hit_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add_run(self, spec: Any, result: RunResult, seconds: float) -> None:
        radio = radio_of(spec)
        work = (mac_rounds(spec) if radio == "mac"
                else result.packets_simulated)
        self.work[radio] = self.work.get(radio, 0.0) + work
        self.seconds[radio] = self.seconds.get(radio, 0.0) + seconds

    def rate(self, radio: str) -> float:
        seconds = self.seconds.get(radio)
        return self.work[radio] / seconds if seconds else 0.0


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def attempt(tally: Tally, what: str, fn: Callable[[], None]) -> None:
    """Run one operation, counting it; an error it raises makes it a
    failed operation, while a failed output check propagates."""
    tally.attempted += 1
    try:
        fn()
    except checks.CheckError:
        raise
    except Exception as exc:  # noqa: BLE001 - counted and logged
        tally.failed += 1
        log(f"operation failed: {what}: {type(exc).__name__}: {exc}")


def run_spec(spec: Any, n_jobs: int, tally: Tally) -> RunResult:
    """One timed ``execute_run``; checks its points outside the timing."""
    start = time.perf_counter()
    result = engine.execute_run(spec, RunOptions(n_jobs=n_jobs))
    elapsed = time.perf_counter() - start
    if not result.ok:
        raise RuntimeError(f"{result.n_failed} of {result.n_tasks} tasks "
                           f"failed: {result.failed_tasks[0].error}")
    checks.check_spec_points(spec, result.points)
    tally.add_run(spec, result, elapsed)
    return result


# -- the service ------------------------------------------------------------

class ServiceHarness:
    """An in-process sweep service on a loopback port, one worker
    thread running jobs at ``n_jobs=1``, and one client."""

    def __init__(self, root: str) -> None:
        self.service = SweepService(root, n_jobs=1, n_workers=1)
        self.server = ServiceHTTPServer(self.service, port=0)
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        kwargs={"poll_interval": 0.05},
                                        name="perfbench-http", daemon=True)
        self._thread.start()
        self.service.start()
        self.client = ServiceClient(self.server.url)
        self.cold_bytes: Dict[str, bytes] = {}
        self.cold_specs: List[Any] = []
        self.cold_results: Dict[str, RunResult] = {}

    def engine_runs(self) -> int:
        return (self.service.counter("service.jobs.completed")
                + self.service.counter("service.jobs.failed"))

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=30)
        self.service.stop()

    def job(self, spec: Any) -> Tuple[Dict[str, Any], bytes, float]:
        """Submit, wait until settled, fetch the bytes; timed."""
        start = time.perf_counter()
        job = self.client.submit(spec)
        status = self.client.wait(job["job_id"], timeout_s=60.0)
        checks.check_job_done(job["job_id"], status)
        raw = self.client.fetch_raw(job["job_id"])
        return job, raw, time.perf_counter() - start

    def cold(self, spec: Any, tally: Tally) -> None:
        job, raw, elapsed = self.job(spec)
        if job.get("cache_hit"):
            raise RuntimeError(f"new spec {spec_fingerprint(spec)} was "
                               f"answered from the cache")
        result = RunResult.from_dict(json.loads(raw)["result"])
        checks.check_spec_points(spec, result.points)
        tally.cold_s.append(elapsed)
        tally.add_run(spec, result, result.wall_time_s)
        fingerprint = spec_fingerprint(spec)
        self.cold_bytes[fingerprint] = raw
        if len(self.cold_results) < len(SERVICE_ROUND):
            # Round 0's results: one of them meets the reference check.
            self.cold_results[fingerprint] = result
        self.cold_specs.append(spec)

    def hit(self, spec: Any, tally: Tally) -> None:
        before = self.engine_runs()
        job, raw, elapsed = self.job(spec)
        checks.check_hit(job, before, self.engine_runs(), raw,
                         self.cold_bytes[spec_fingerprint(spec)])
        tally.hit_s.append(elapsed)


def service_round(harness: ServiceHarness, seed: int, rnd: int,
                  tally: Tally, picker: random.Random) -> None:
    """New specs alternate with resubmissions of earlier ones: after
    each cold job, one hit on it and the rest on earlier colds."""
    for slot, kind in enumerate(SERVICE_ROUND):
        spec = seeded(SERVICE[kind], seed, rnd, slot)
        attempt(tally, f"cold {kind}", lambda: harness.cold(spec, tally))
        for h in range(HITS_PER_COLD):
            if not harness.cold_specs:
                break
            again = (harness.cold_specs[-1] if h == 0
                     else picker.choice(harness.cold_specs))
            attempt(tally, f"hit {radio_of(again)}",
                    lambda: harness.hit(again, tally))


def check_service_reference(harness: ServiceHarness, seed: int) -> None:
    """One cold result equals an in-process run of the same spec."""
    specs = harness.cold_specs[:len(SERVICE_ROUND)]
    spec = specs[seed % len(specs)]
    want = engine.execute_run(spec, RunOptions(n_jobs=1))
    checks.check_same_points(
        f"service result {spec_fingerprint(spec)} vs in-process run",
        harness.cold_results[spec_fingerprint(spec)].points, want.points)


# -- the workloads ------------------------------------------------------------

class Workload:
    name = ""
    uses_service = False
    #: The spec templates the rounds draw from.
    templates: Dict[str, Tuple[Any, int]] = {}

    def round(self, ctx: "Context", rnd: int, tally: Tally) -> None:
        raise NotImplementedError

    def reference_check(self, ctx: "Context") -> None:
        """Checks that need an extra run outside the timed region."""


@dataclass
class Context:
    seed: int
    workdir: str
    harness: Optional[ServiceHarness] = None
    picker: random.Random = field(default_factory=random.Random)
    dense_results: Dict[str, Tuple[Any, RunResult]] = field(
        default_factory=dict)


class PaperFigures(Workload):
    name = "paper-figures"
    templates = FIGURES

    def round(self, ctx: Context, rnd: int, tally: Tally) -> None:
        for slot, fig in enumerate(PAPER_ROUND):
            spec = seeded(FIGURES[fig], ctx.seed, rnd, slot)
            attempt(tally, fig, lambda: run_spec(spec, 1, tally))


class ParallelDense(Workload):
    name = "parallel-dense"
    templates = DENSE

    def round(self, ctx: Context, rnd: int, tally: Tally) -> None:
        for slot, kind in enumerate(DENSE_ROUND):
            spec = seeded(DENSE[kind], ctx.seed, rnd, slot)

            def run(spec: Any = spec, kind: str = kind) -> None:
                result = run_spec(spec, DENSE_JOBS, tally)
                ctx.dense_results.setdefault(kind, (spec, result))

            attempt(tally, f"dense {kind}", run)

    def reference_check(self, ctx: Context) -> None:
        kinds = sorted(ctx.dense_results)
        spec, result = ctx.dense_results[kinds[ctx.seed % len(kinds)]]
        want = engine.execute_run(spec, RunOptions(n_jobs=1))
        checks.check_same_points(
            f"{radio_of(spec)} n_jobs={DENSE_JOBS} vs n_jobs=1",
            result.points, want.points)


class ServiceTraffic(Workload):
    name = "service-traffic"
    uses_service = True
    templates = SERVICE

    def round(self, ctx: Context, rnd: int, tally: Tally) -> None:
        assert ctx.harness is not None
        service_round(ctx.harness, ctx.seed, rnd, tally, ctx.picker)

    def reference_check(self, ctx: Context) -> None:
        assert ctx.harness is not None
        check_service_reference(ctx.harness, ctx.seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (PaperFigures(), ParallelDense(), ServiceTraffic())}


def warm(specs: List[Any]) -> None:
    """Build and cache each link spec's session (and its frame
    templates) with a run at one far point, where the run itself costs
    little.  Pool workers fork from this process and inherit them."""
    for spec in specs:
        if isinstance(spec, ExperimentSpec):
            engine.execute_run(
                dataclasses.replace(spec, distances_m=(300.0,)),
                RunOptions(n_jobs=1))


def run_rounds(workload: Workload, ctx: Context, tally: Tally,
               seconds: Optional[float] = None,
               rounds: Optional[int] = None) -> Tuple[int, float]:
    """Run *rounds* whole rounds or, without *rounds*, as many as end
    nearest to *seconds* (at least one); returns (rounds, wall seconds).
    """
    start = time.perf_counter()
    rnd = 0
    while True:
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if rnd >= rounds:
                break
        elif rnd and elapsed + elapsed / rnd / 2 > seconds:
            break
        workload.round(ctx, rnd, tally)
        rnd += 1
    wall = time.perf_counter() - start
    reap_workers()
    return rnd, wall


def reap_workers(timeout_s: float = 30.0) -> None:
    """Wait until the pool workers the engine started have exited (it
    shuts its pools down without waiting)."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
