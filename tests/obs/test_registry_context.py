"""The active-registry stack is per context: each thread records into
its own registries."""

import contextvars
import sys
import threading

from repro import obs
from repro.channel.geometry import Deployment
from repro.sim.config import BLE_CONFIG, ZIGBEE_CONFIG
from repro.sim.engine import ExperimentSpec, RunOptions, execute_run


class TestPerContextStack:
    def test_new_thread_starts_on_the_global_registry(self):
        seen = {}
        with obs.collect() as reg:
            thread = threading.Thread(
                target=lambda: seen.update(reg=obs.registry()))
            thread.start()
            thread.join()
        assert seen["reg"] is obs.global_registry()
        assert seen["reg"] is not reg

    def test_copied_context_inherits_the_stack(self):
        seen = {}
        with obs.collect() as reg:
            thread = threading.Thread(
                target=contextvars.copy_context().run,
                args=(lambda: seen.update(reg=obs.registry()),))
            thread.start()
            thread.join()
        assert seen["reg"] is reg
        assert obs.registry() is obs.global_registry()

    def test_threads_do_not_record_into_each_others_runs(self):
        # Sweep-service-style workers running execute_run at once, more
        # threads than this machine's two CPUs: each result's counters
        # must name only its own radio, and count exactly its packets.
        def spec(config, seed):
            return ExperimentSpec(
                config=config.replace(payload_bytes=16),
                deployment=Deployment.los(1.0),
                distances_m=tuple(float(d) for d in range(1, 9)),
                packets_per_point=8, seed=seed)

        specs = [("zigbee", spec(ZIGBEE_CONFIG, 3)),
                 ("bluetooth", spec(BLE_CONFIG, 4)),
                 ("zigbee", spec(ZIGBEE_CONFIG, 5))]
        barrier = threading.Barrier(len(specs))
        results = {}

        def run(k):
            barrier.wait()
            results[k] = execute_run(specs[k][1], RunOptions(n_jobs=1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,))
                       for k in range(len(specs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k, (name, _) in enumerate(specs):
            counters = results[k].metrics["counters"]
            radios = {key.split(".")[1] for key in counters
                      if key.startswith("phy.")}
            assert radios == {name}, counters
            assert counters[f"phy.{name}.packets"] == 64
