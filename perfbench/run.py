#!/usr/bin/env python3
"""Benchmark of the FreeRider simulator and its sweep service.

    python3 perfbench/run.py --workload paper-figures --seed 1 \\
        --seconds 20 --trace 0

Runs one workload (see ``workloads.py`` and README.md) from the root of
a source checkout, checks every output, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with no instrumentation;
with ``--trace 1`` the run measures the same rounds once untraced and
once with spans around every layer entry point, and reports the
per-layer metrics.
"""

import os
import sys

# Pin BLAS to one thread before numpy loads: OpenBLAS otherwise starts
# one thread per CPU in every process and oversubscribes the engine's
# pool workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOAD_NAMES = ("paper-figures", "parallel-dense", "service-traffic")
RADIOS = ("wifi", "zigbee", "ble")
#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

# MAC throughput and cache-hit latency are measured too, but run-to-run
# spreads beyond any admissible bound keep them out (README.md,
# "Steadiness").
END_TO_END: List[Tuple[str, str]] = (
    [(f"{r}.packets_per_s", "packets/s") for r in RADIOS]
    + [("service.cold_job_s.p50", "s"),
       ("setup_s", "s"),
       ("peak_rss_mb", "MB")])

PER_LAYER: List[Tuple[str, str]] = (
    [(f"phy.{r}.{stage}_s", "s") for r in RADIOS
     for stage in ("draw", "channel", "decode", "finish")]
    + [(f"phy.{r}.batch_packets", "packets") for r in RADIOS]
    + [(f"linksim.{r}.self_s", "s") for r in RADIOS]
    + [("mac.run_point_s", "s"), ("mac.rounds", "rounds"),
       ("engine.self_s", "s"), ("engine.task_busy_s", "s"),
       ("engine.worker_idle_s", "s"), ("engine.tasks", "count"),
       ("engine.checkpoint_s", "s"),
       ("service.queue_wait_s", "s"), ("service.run_s", "s"),
       ("service.store_put_s", "s"), ("service.notify_wait_s", "s"),
       ("service.submit_s", "s"), ("service.status_s", "s"),
       ("service.status_polls", "count"), ("service.poll_sleep_s", "s"),
       ("service.fetch_s", "s"), ("service.store_read_s", "s"),
       ("service.result_bytes", "B"), ("service.engine_runs", "count"),
       ("obs.trace_overhead_s", "s"), ("harness.self_s", "s"),
       ("trace.wall_s", "s")])

# Span name -> per-layer self-time metric.  Together they partition the
# traced wall time.
SELF_METRIC: Dict[str, str] = {
    **{f"phy.{r}.{stage}": f"phy.{r}.{stage}_s" for r in RADIOS
       for stage in ("draw", "channel", "decode", "finish")},
    **{f"linksim.{r}": f"linksim.{r}.self_s" for r in RADIOS},
    "mac.run_point": "mac.run_point_s",
    "engine.run": "engine.self_s",
    "engine.checkpoint": "engine.checkpoint_s",
    **{f"service.{n}": f"service.{n}_s"
       for n in ("store_put", "store_read", "submit", "status",
                 "poll_sleep", "fetch")},
    "harness": "harness.self_s",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", metavar="WORKDIR",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- set-up -------------------------------------------------------------------

def setup(workload: Any, seed: int, workdir: Path) -> Any:
    """Warm the session and frame-template caches (and start the
    service where the main loop uses one)."""
    import workloads as wl

    templates = list(workload.templates.values())
    if not workload.uses_service:
        templates += wl.SERVICE.values()   # the post-loop service rounds
    wl.warm([spec for spec, _ in templates])
    ctx = wl.Context(seed=seed, workdir=str(workdir),
                     picker=random.Random(seed))
    if workload.uses_service:
        ctx.harness = wl.ServiceHarness(str(workdir / "service"))
    return ctx


def setup_sample_main(workload_name: str, seed: int, workdir: Path) -> int:
    """One set-up in a fresh interpreter: imports, cache warm-up, and a
    service start.  Prints ``ready`` once set up, then tears down."""
    import workloads as wl

    ctx = setup(wl.WORKLOADS[workload_name], seed, workdir)
    harness = ctx.harness or wl.ServiceHarness(str(workdir / "service"))
    print("ready", flush=True)
    harness.close()
    return 0


def setup_seconds(workload_name: str, seed: int, workdir: Path) -> float:
    """Median wall time from process start to ``ready`` over
    :data:`SETUP_SAMPLES` fresh interpreters."""
    samples = []
    for k in range(SETUP_SAMPLES):
        sample_dir = workdir / f"setup-{k}"
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload_name, "--seed", str(seed),
             "--seconds", "0", "--setup-sample", str(sample_dir)],
            stdout=subprocess.PIPE, cwd=str(ROOT))
        try:
            line = proc.stdout.readline() if proc.stdout else b""
            samples.append(time.perf_counter() - start)
        finally:
            proc.communicate(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up sample exited {proc.returncode}")
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child
    (the engine's pool workers), MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# -- untraced run: end-to-end metrics -----------------------------------------

def measure_end_to_end(workload: Any, ctx: Any, seconds: float
                       ) -> Tuple[Dict[str, float], int, int]:
    import workloads as wl

    tally = wl.Tally()
    rounds, wall = wl.run_rounds(workload, ctx, tally, seconds=seconds)
    wl.log(f"{workload.name}: {rounds} rounds, {tally.attempted} "
           f"operations in {wall:.2f} s")
    rss = peak_rss_mb()
    service = tally
    if not workload.uses_service:
        # Fixed service traffic after the main loop, so every workload
        # reports the service latencies.
        service = wl.Tally()
        harness = wl.ServiceHarness(str(Path(ctx.workdir) / "probe"))
        picker = random.Random(ctx.seed)
        try:
            for rnd in range(wl.PROBE_ROUNDS):
                wl.service_round(harness, ctx.seed, rnd, service, picker)
        finally:
            harness.close()
    workload.reference_check(ctx)
    metrics = {f"{r}.packets_per_s": tally.rate(r) for r in RADIOS}
    metrics.update({
        "service.cold_job_s.p50": statistics.median(service.cold_s),
        "peak_rss_mb": rss,
    })
    wl.log(f"also measured: mac.rounds_per_s {tally.rate('mac'):.1f}, "
           f"service.hit_job_s.p50 {statistics.median(service.hit_s):.5f}")
    if service is tally:
        return metrics, tally.attempted, tally.failed
    return (metrics, tally.attempted + service.attempted,
            tally.failed + service.failed)


# -- traced run: per-layer metrics --------------------------------------------

def layer_metrics(recorder: Any, workload_name: str) -> Dict[str, float]:
    import checks
    import spans as sp
    import workloads as wl
    from repro.sim.engine import MacExperimentSpec, spec_fingerprint

    root = recorder.root
    wall = root.end - root.start
    selfs = sp.self_times(recorder.spans, root)
    if abs(sum(selfs.values()) - wall) > 1e-6 * max(wall, 1.0):
        raise checks.CheckError(f"self times sum to {sum(selfs.values())} "
                                f"s, traced wall time is {wall} s")
    unknown = sorted(set(selfs) - set(SELF_METRIC))
    if unknown:
        raise checks.CheckError(f"spans with no layer metric: {unknown}")
    m: Dict[str, float] = {metric: selfs.get(name, 0.0)
                           for name, metric in SELF_METRIC.items()}
    m["trace.wall_s"] = wall

    spans = recorder.spans
    runs = [s for s in spans if s.name == "engine.run"]
    results = [s.result for s in runs]
    busy = sum(t.duration_s for r in results for t in r.tasks)
    m["engine.task_busy_s"] = busy
    m["engine.worker_idle_s"] = sum(
        min(r.n_jobs, r.n_tasks) * r.wall_time_s for r in results) - busy
    m["engine.tasks"] = sum(r.n_tasks for r in results)
    m["mac.rounds"] = sum(wl.mac_rounds(s.args[0]) for s in runs
                          if isinstance(s.args[0], MacExperimentSpec))

    for config_name, r in wl.RADIO.items():
        name = f"phy.{config_name}"
        decoded = calls = 0
        channel = decode = 0.0
        for res in results:
            counters = res.metrics.get("counters", {})
            timers = res.metrics.get("timers", {})
            decoded += (counters.get(f"{name}.packets", 0)
                        - counters.get(f"{name}.stage.sync_fail", 0))
            calls += timers.get(f"{name}.decode", {}).get("count", 0)
            channel += timers.get(f"{name}.channel", {}).get("total_s", 0.0)
            decode += timers.get(f"{name}.decode", {}).get("total_s", 0.0)
        m[f"phy.{r}.batch_packets"] = decoded / calls if calls else 0.0
        if workload_name == "parallel-dense":
            # The work runs in pool workers the wrappers cannot reach:
            # take the stage timers the engine merged from them.
            m[f"phy.{r}.channel_s"] = channel
            m[f"phy.{r}.decode_s"] = decode

    main = root.thread
    service_runs = [s for s in runs if s.thread != main]
    m["service.engine_runs"] = len(service_runs)
    m["service.run_s"] = sum(s.end - s.start for s in service_runs)
    submitted = {}
    for s in spans:
        if s.name == "service.submit" and not s.result.get("cache_hit"):
            submitted[s.result["fingerprint"]] = s.end
    m["service.queue_wait_s"] = sum(
        s.start - submitted[spec_fingerprint(s.args[0])]
        for s in service_runs)
    waits = sorted((s for s in spans if s.name == "service.poll_sleep"),
                   key=lambda s: s.end)
    notify = 0.0
    for put in (s for s in spans if s.name == "service.store_put"):
        fingerprint = spec_fingerprint(put.args[1].spec)
        notify += next((w.end for w in waits
                        if w.result.get("fingerprint") == fingerprint
                        and w.end >= put.end), put.end) - put.end
    m["service.notify_wait_s"] = notify
    m["service.status_polls"] = sum(1 for s in spans
                                    if s.name == "service.status")
    fetched = [len(s.result) for s in spans if s.name == "service.fetch"]
    m["service.result_bytes"] = (statistics.mean(fetched) if fetched
                                 else 0.0)
    return m


def measure_per_layer(workload: Any, ctx: Any, seconds: float
                      ) -> Tuple[Dict[str, float], int, int]:
    import spans as sp
    import workloads as wl

    untraced = wl.Tally()
    rounds, wall0 = wl.run_rounds(workload, ctx, untraced, seconds=seconds)
    if workload.uses_service:
        # Same operations again on an empty store, so the colds are cold.
        ctx.harness.close()
        ctx.harness = wl.ServiceHarness(str(Path(ctx.workdir) / "traced"))
    ctx.picker = random.Random(ctx.seed)
    traced = wl.Tally()
    recorder = sp.Recorder()
    sp.install(recorder)
    recorder.start_root()
    try:
        _, wall1 = wl.run_rounds(workload, ctx, traced, rounds=rounds)
    finally:
        recorder.end_root()
        recorder.uninstall()
    wl.log(f"{workload.name}: {rounds} rounds untraced {wall0:.2f} s, "
           f"traced {wall1:.2f} s")
    workload.reference_check(ctx)
    metrics = layer_metrics(recorder, workload.name)
    metrics["obs.trace_overhead_s"] = wall1 - wall0
    return (metrics, untraced.attempted + traced.attempted,
            untraced.failed + traced.failed)


# -- main ---------------------------------------------------------------------

def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_sample:
        return setup_sample_main(args.workload, args.seed,
                                 Path(args.setup_sample))

    import checks
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    correct = True
    names = END_TO_END if args.trace == 0 else PER_LAYER
    metrics: Dict[str, float] = {}
    attempted = failed = 0
    ctx = None
    try:
        ctx = setup(workload, args.seed, workdir)
        measure = measure_end_to_end if args.trace == 0 \
            else measure_per_layer
        metrics, attempted, failed = measure(workload, ctx, args.seconds)
        if args.trace == 0:
            metrics["setup_s"] = setup_seconds(args.workload, args.seed,
                                               workdir)
    except checks.CheckError as exc:
        correct = False
        wl.log(f"output check failed: {exc}")
    finally:
        if ctx is not None and ctx.harness is not None:
            ctx.harness.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
