"""The phase-1 producer: an engine-style sweep (one registry per point)
of more than one chunk draws its points on a helper thread while the
caller runs channel and decode, with results and metrics identical to
running the points one at a time."""

import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.channel.geometry import Deployment
from repro.obs import MetricsRegistry, TraceConfig
from repro.sim.config import BLE_CONFIG, ZIGBEE_CONFIG
from repro.sim.linksim import LinkSimulator, _Phase1Producer

CONFIGS = {"zigbee": ZIGBEE_CONFIG, "ble": BLE_CONFIG}
# Six points of five packets: 25 packets reach a 16-packet chunk before
# the last point, so the producer starts and the sweep flushes twice.
DISTANCES = {"zigbee": (2.0, 6.0, 12.0, 18.0, 24.0, 30.0),
             "ble": (1.0, 3.0, 5.0, 7.0, 9.0, 11.0)}
PACKETS = 5


def _sim(radio, seed=11):
    return LinkSimulator(CONFIGS[radio].replace(payload_bytes=16),
                         Deployment.los(1.0), packets_per_point=PACKETS,
                         seed=seed)


def _phase1_threads(monkeypatch, sim):
    """Record the thread each predraw_packet call runs on."""
    names = []
    original = sim.session.predraw_packet

    def predraw(*args, **kwargs):
        names.append(threading.current_thread().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(sim.session, "predraw_packet", predraw)
    return names


def _span_counts(reg):
    return {path: reg.span_stat(path).count for path in reg.span_paths()}


def _packet_events(reg):
    return sorted((e["radio"], e["stage"], e["snr_db"])
                  for e in reg.events if e["kind"] == "packet")


@pytest.mark.parametrize("radio", sorted(CONFIGS))
def test_engine_style_call_equals_points_one_by_one(radio, monkeypatch):
    distances = DISTANCES[radio]
    trace = TraceConfig()
    crossed_sim = _sim(radio)
    names = _phase1_threads(monkeypatch, crossed_sim)
    regs = [MetricsRegistry(trace=trace) for _ in distances]
    crossed = crossed_sim.simulate_points(
        distances, rngs=[np.random.default_rng(50 + i)
                         for i in range(len(distances))],
        share_excitation=True, registries=regs)
    assert set(names) == {"linksim-phase1"}

    single_sim = _sim(radio)
    names = _phase1_threads(monkeypatch, single_sim)
    singles, single_regs = [], []
    for i, d in enumerate(distances):
        with obs.collect(trace=trace) as reg:
            singles.append(single_sim.simulate_point(
                d, rng=np.random.default_rng(50 + i),
                share_excitation=True))
        single_regs.append(reg)
    assert set(names) == {threading.current_thread().name}

    assert crossed == singles
    for reg, single in zip(regs, single_regs):
        assert reg.snapshot()["counters"] == single.snapshot()["counters"]
        assert _span_counts(reg) == _span_counts(single)
        assert _packet_events(reg) == _packet_events(single)


@pytest.mark.parametrize("radio", sorted(CONFIGS))
def test_serial_sweep_equals_points_one_by_one(radio, monkeypatch):
    # registries=None: phase 1 records into the ambient registry, which
    # the calling thread also writes, so no producer starts.
    distances = DISTANCES[radio]
    trace = TraceConfig()
    sweep_sim = _sim(radio)
    names = _phase1_threads(monkeypatch, sweep_sim)
    with obs.collect(trace=trace) as swept, obs.span("outer"):
        points = sweep_sim.sweep(distances)
    assert set(names) == {threading.current_thread().name}

    single_sim = _sim(radio)
    with obs.collect(trace=trace) as single, obs.span("outer"):
        singles = [single_sim.simulate_point(d) for d in distances]

    assert points == singles
    assert swept.snapshot()["counters"] == single.snapshot()["counters"]
    assert _span_counts(swept) == _span_counts(single)
    assert _span_counts(swept)["outer/sim.point"] == len(distances)
    assert _packet_events(swept) == _packet_events(single)
    channel = f"phy.{sweep_sim.session._obs.split('.')[1]}.channel"
    assert swept.timer(channel).count > 0


def test_producer_stays_within_one_chunk_of_the_last_flush(monkeypatch):
    # A slow decode lets an unbounded producer draw the whole sweep
    # ahead; the bound keeps it under one chunk plus the point it is on.
    sim = _sim("zigbee")
    chunk = sim.session._chunk_packets
    counts = {"drawn": 0, "flushed": 0, "ahead": []}
    predraw = sim.session.predraw_packet
    decode = sim.session.decode_packets
    flushing = _Phase1Producer.flushing

    def counting_predraw(*args, **kwargs):
        counts["ahead"].append(counts["drawn"] - counts["flushed"])
        draw = predraw(*args, **kwargs)
        counts["drawn"] += draw.result is None
        return draw

    def slow_decode(draws):
        time.sleep(0.01)
        return decode(draws)

    def counting_flushing(self, n_packets):
        counts["flushed"] += n_packets
        flushing(self, n_packets)

    monkeypatch.setattr(sim.session, "predraw_packet", counting_predraw)
    monkeypatch.setattr(sim.session, "decode_packets", slow_decode)
    monkeypatch.setattr(_Phase1Producer, "flushing", counting_flushing)
    distances = [2.0 + d for d in range(20)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        points = sim.simulate_points(
            distances, registries=[MetricsRegistry() for _ in distances])
    finally:
        sys.setswitchinterval(interval)
    assert points == _sim("zigbee").simulate_points(distances)
    assert counts["drawn"] == len(distances) * PACKETS
    assert max(counts["ahead"]) < chunk + PACKETS


def test_small_sweeps_stay_on_the_calling_thread(monkeypatch):
    # Four points of five packets: only 15 packets precede the last
    # point, so no chunk can be flushed early and nothing would overlap.
    sim = _sim("zigbee")
    names = _phase1_threads(monkeypatch, sim)
    sim.simulate_points(DISTANCES["zigbee"][:4])
    assert set(names) == {threading.current_thread().name}


def test_phase1_error_at_a_late_point_propagates(monkeypatch):
    sim = _sim("zigbee")
    baseline = threading.active_count()
    calls = []
    original = sim.session.predraw_packet

    def predraw(*args, **kwargs):
        calls.append(threading.current_thread().name)
        if len(calls) == 4 * PACKETS + 1:       # the fifth point
            raise RuntimeError("phase 1 failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(sim.session, "predraw_packet", predraw)
    with pytest.raises(RuntimeError, match="phase 1 failed"):
        sim.simulate_points(DISTANCES["zigbee"],
                            registries=[MetricsRegistry()
                                        for _ in DISTANCES["zigbee"]])
    assert set(calls) == {"linksim-phase1"}
    assert threading.active_count() == baseline


def test_decode_error_stops_and_joins_the_producer(monkeypatch):
    sim = _sim("zigbee")
    names = _phase1_threads(monkeypatch, sim)
    baseline = threading.active_count()

    def decode(draws):
        raise RuntimeError("decode failed")

    monkeypatch.setattr(sim.session, "decode_packets", decode)
    with pytest.raises(RuntimeError, match="decode failed"):
        sim.simulate_points(DISTANCES["zigbee"],
                            registries=[MetricsRegistry()
                                        for _ in DISTANCES["zigbee"]])
    assert set(names) == {"linksim-phase1"}
    assert threading.active_count() == baseline
