"""Output checks for the benchmark.

Every check compares an output against an independent computation or a
property the method must have — never against stored output — and
raises :class:`CheckError` naming what is wrong.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Sequence

#: The paper's raw tag data rates, kb/s (section 4): the ceiling on any
#: tag throughput the simulator may report.
RAW_TAG_KBPS = {"wifi": 62.5, "zigbee": 15.6, "bluetooth": 55.0}

#: Thermal noise density, dBm/Hz.
THERMAL_DBM_HZ = -174.0

# 802.11g at 6 Mb/s carries 24 data bits per 4 us OFDM symbol.  A
# 1500 B PSDU plus the 16-bit SERVICE field and 6 tail bits needs
# ceil(12022 / 24) = 501 symbols, so the frame lasts 16 us preamble +
# 4 us SIGNAL + 501 * 4 us = 2024 us, 2074 us with the 50 us gap.  At
# repetition 4 the 501 symbols form 125 groups; the first one is the
# phase reference, leaving 124 tag bits per packet.
WIFI_DATA_SYMBOLS = math.ceil((16 + 8 * 1500 + 6) / 24)
WIFI_TAG_BITS = WIFI_DATA_SYMBOLS // 4 - 1
WIFI_SLOT_US = 16 + 4 + 4 * WIFI_DATA_SYMBOLS + 50
WIFI_TAG_KBPS = WIFI_TAG_BITS / WIFI_SLOT_US * 1e3

#: Fig 17(a): simulated framed slotted Aloha at 20 tags, kb/s.
ALOHA_20_BAND = (12.0, 18.0)


class CheckError(AssertionError):
    """An output that violates a property it must have."""


def _fail(what: str) -> None:
    raise CheckError(what)


def check_link_points(config: Any, packets_per_point: int,
                      points: Sequence[Any]) -> None:
    """Properties every link sweep's points must have.

    *config* is the sweep's :class:`~repro.sim.config.RadioConfig`;
    *points* its :class:`~repro.sim.linksim.LinkPoint` list.
    """
    radio = config.name
    noise_dbm = (THERMAL_DBM_HZ + 10 * math.log10(config.bandwidth_hz)
                 + config.noise_figure_db)
    tol_db = 0.5 + 5 * config.fading_sigma_db / math.sqrt(packets_per_point)
    if not points:
        _fail(f"{radio}: sweep returned no points")
    for p in points:
        if p is None:
            _fail(f"{radio}: a point is missing")
        if not 0.0 <= p.delivery_ratio <= 1.0:
            _fail(f"{radio} @ {p.distance_m} m: delivery "
                  f"{p.delivery_ratio} outside [0, 1]")
        # snr_db is the budget's mean SNR; rssi_dbm the mean over faded
        # packets, so their difference is the noise floor plus the mean
        # fading draw.
        offset = p.rssi_dbm - p.snr_db - noise_dbm
        if not abs(offset) <= tol_db:
            _fail(f"{radio} @ {p.distance_m} m: rssi - snr is "
                  f"{offset:+.2f} dB off the {noise_dbm:.1f} dBm noise "
                  f"floor (tolerance {tol_db:.2f} dB)")
    clean = [p for p in points if p.ber_valid and p.ber == 0.0]
    ceiling = RAW_TAG_KBPS[radio]
    per_packet = [p.throughput_kbps / p.delivery_ratio for p in clean]
    for p, rate in zip(clean, per_packet):
        if rate > ceiling:
            _fail(f"{radio} @ {p.distance_m} m: {rate:.3f} kb/s per "
                  f"delivered packet exceeds the raw tag rate {ceiling}")
        if not math.isclose(rate, per_packet[0], rel_tol=1e-9):
            _fail(f"{radio} @ {p.distance_m} m: {rate!r} kb/s per "
                  f"delivered packet differs from {per_packet[0]!r} at "
                  f"another error-free point")
        if radio == "wifi" and not math.isclose(rate, WIFI_TAG_KBPS,
                                                rel_tol=1e-9):
            _fail(f"wifi @ {p.distance_m} m: {rate!r} kb/s per delivered "
                  f"packet, 802.11g arithmetic gives {WIFI_TAG_KBPS!r}")


def check_mac_points(points: Sequence[Any]) -> None:
    """Properties of a Figure 17 MAC sweep's points."""
    if not points:
        _fail("mac: sweep returned no points")
    for p in points:
        if p is None:
            _fail("mac: a point is missing")
        if p.tdm_kbps < p.simulated_kbps:
            _fail(f"mac @ {p.n_tags} tags: TDM {p.tdm_kbps:.3f} kb/s "
                  f"below Aloha {p.simulated_kbps:.3f} kb/s")
        if not 0.0 < p.fairness <= 1.0:
            _fail(f"mac @ {p.n_tags} tags: fairness {p.fairness} "
                  f"outside (0, 1]")
        lo, hi = ALOHA_20_BAND
        if p.n_tags == 20 and not lo <= p.simulated_kbps <= hi:
            _fail(f"mac @ 20 tags: Aloha {p.simulated_kbps:.3f} kb/s "
                  f"outside the Fig 17 band [{lo}, {hi}]")


def check_spec_points(spec: Any, points: Sequence[Any]) -> None:
    """Dispatch on the spec kind."""
    if hasattr(spec, "tag_counts"):
        check_mac_points(points)
    else:
        check_link_points(spec.config, spec.packets_per_point, points)


def check_same_points(what: str, got: Iterable[Any],
                      want: Iterable[Any]) -> None:
    """Point-for-point equality (LinkPoint equality treats the NaN BER
    sentinel as equal to itself)."""
    got, want = list(got), list(want)
    if len(got) != len(want):
        _fail(f"{what}: {len(got)} points, reference has {len(want)}")
    for a, b in zip(got, want):
        if a != b:
            _fail(f"{what}: point {a} differs from reference {b}")


def check_job_done(job_id: str, status: Dict[str, Any]) -> None:
    if status.get("state") != "done":
        _fail(f"job {job_id} ended {status.get('state')!r}: "
              f"{status.get('error')}")


def check_hit(job: Dict[str, Any], engine_runs_before: int,
              engine_runs_after: int, hit_bytes: bytes,
              cold_bytes: bytes) -> None:
    """A resubmitted spec is a cache hit that serves the cold bytes."""
    if not job.get("cache_hit"):
        _fail(f"job {job.get('job_id')}: resubmission not a cache hit")
    if engine_runs_after != engine_runs_before:
        _fail(f"job {job.get('job_id')}: cache hit ran the engine "
              f"({engine_runs_after - engine_runs_before} runs)")
    if hit_bytes != cold_bytes:
        _fail(f"job {job.get('job_id')}: hit bytes differ from the "
              f"cold fetch ({len(hit_bytes)} vs {len(cold_bytes)} B)")
