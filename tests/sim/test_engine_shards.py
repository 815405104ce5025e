"""The engine's one execution path: tasks run in shards through
``LinkSimulator.simulate_points``, and neither tracing nor a fault
injector changes how a serial sweep is sharded."""

from repro.channel.geometry import Deployment
from repro.obs import TraceConfig
from repro.sim.config import ZIGBEE_CONFIG
from repro.sim.engine import (
    ExperimentEngine,
    ExperimentSpec,
    FailurePolicy,
    FaultInjector,
)


def _spec(distances=(2.0, 4.0, 6.0, 8.0)):
    return ExperimentSpec(config=ZIGBEE_CONFIG.replace(payload_bytes=24),
                          deployment=Deployment.los(1.0),
                          distances_m=distances, packets_per_point=2,
                          seed=11)


def _decode_calls(result):
    return result.metrics["timers"]["phy.zigbee.decode"]["count"]


def test_traced_and_injected_serial_sweeps_batch_like_plain():
    spec = _spec()
    plain = ExperimentEngine(n_jobs=1).run(spec)
    traced = ExperimentEngine(n_jobs=1, trace=TraceConfig()).run(spec)
    injected = ExperimentEngine(n_jobs=1,
                                fault_injector=FaultInjector()).run(spec)
    # One stacked decode serves every point of the sweep.
    assert _decode_calls(plain) < spec.n_tasks
    assert _decode_calls(traced) == _decode_calls(plain)
    assert _decode_calls(injected) == _decode_calls(plain)
    assert traced.points == plain.points
    assert injected.points == plain.points


def test_fault_splits_the_shard_and_charges_only_its_task():
    spec = _spec()
    clean = ExperimentEngine(n_jobs=1).run(spec)
    result = ExperimentEngine(
        n_jobs=1,
        failure_policy=FailurePolicy.degrade_policy(max_attempts=2),
        fault_injector=FaultInjector(fail={2: 1})).run(spec)
    counters = result.metrics["counters"]
    assert counters["engine.batch.aborted"] == 1
    assert counters["engine.retries"] == 1
    assert [t.attempts for t in result.tasks] == [1, 1, 2, 1]
    assert result.ok
    assert result.points == clean.points
