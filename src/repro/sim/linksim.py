"""Distance-sweep link simulator: the engine behind Figures 10-14.

For each receiver distance the simulator:

1. computes the two-hop link budget's RSSI, adds per-packet log-normal
   fading, and converts to the AWGN SNR seen by the backscatter
   receiver;
2. runs the *actual PHY chain* end-to-end (excitation transmitter ->
   tag -> noise -> commodity receiver -> XOR decoder) for a batch of
   packets;
3. reports throughput (tag goodput over airtime + inter-packet gap),
   conditional tag BER, delivery ratio, and mean RSSI — the three
   panels of each evaluation figure.

Sweeps can fan out over processes: ``sweep(distances, n_jobs=4)``
routes through :mod:`repro.sim.engine`, whose per-point seed spawning
makes the result identical for any worker count (and different from
the legacy serial stream, which threads one generator through every
point in order).  Within one engine task, a shard of more than one
chunk draws the next points' randomness on a helper thread while the
calling thread runs the channel and decode (:meth:`LinkSimulator.
simulate_points`).
"""

from __future__ import annotations

import contextvars
import math
import threading
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (Any, Callable, ContextManager, Deque, Iterable, List,
                    Optional, Sequence)

import numpy as np

from repro import obs
from repro.channel.geometry import Deployment
from repro.core.registry import session_from_config
from repro.sim.config import RadioConfig
from repro.utils.rng import derive_seed, make_rng

__all__ = ["LinkPoint", "LinkSimulator"]


@dataclass
class LinkPoint:
    """Aggregate link metrics at one receiver distance.

    ``ber`` is *conditional* on delivery: when no packet survives at a
    distance there is no measurement, so ``ber`` is NaN and
    ``ber_valid`` is False — distinct from a genuinely measured BER of
    1.0 on delivered packets.
    """

    distance_m: float
    throughput_kbps: float
    ber: float
    rssi_dbm: float
    delivery_ratio: float
    snr_db: float
    ber_valid: bool = True

    def __eq__(self, other) -> bool:
        # Field-wise equality, except that two NaN BERs (the no-data
        # sentinel) compare equal — identical runs must compare equal.
        if not isinstance(other, LinkPoint):
            return NotImplemented
        # Exact compare is deliberate: checkpoint resume relies on
        # bit-identical points, so no tolerance is acceptable here.
        ber_eq = (self.ber == other.ber  # reprolint: disable=R003
                  or (math.isnan(self.ber) and math.isnan(other.ber)))
        return ber_eq and all(
            getattr(self, f) == getattr(other, f)
            for f in ("distance_m", "throughput_kbps", "rssi_dbm",
                      "delivery_ratio", "snr_db", "ber_valid"))

    def row(self) -> str:
        """One formatted results-table row."""
        if not self.ber_valid:
            ber = "n/a".rjust(7)
        elif self.ber > 0:
            ber = f"{self.ber:.1e}"
        else:
            ber = "<1e-4  "
        return (f"{self.distance_m:7.1f}  {self.throughput_kbps:9.1f}  "
                f"{ber}  {self.rssi_dbm:8.1f}  {self.delivery_ratio:6.2f}")


@dataclass
class _PendingPoint:
    """One distance point between phase 1 (all RNG consumed) and the
    batched channel/decode/aggregate phases."""

    distance_m: float
    mean_rssi: float
    noise_dbm: float
    rssis: List[float]
    draws: List[Any] = field(default_factory=list)
    results: List[Any] = field(default_factory=list)

    def n_buffered(self) -> int:
        """Draws still awaiting their channel and decode."""
        return sum(1 for d in self.draws if d.result is None)


class _Phase1Producer:
    """Phase 1 of a sweep's points on one helper thread, in point order.

    The thread runs in a copy of the caller's context, so it starts on
    the caller's active metrics registry.  It stays at most one chunk of
    drawn packets ahead of the consumer: it starts a point only while
    fewer than *chunk* of its drawn packets wait for a flush.  The
    consumer takes the points in order (:meth:`take`) and reports each
    flush (:meth:`flushing`); a phase-1 exception is re-raised by the
    :meth:`take` of the point that raised it.  :meth:`close` stops the
    thread after its current point and joins it.
    """

    def __init__(self, phase1: Callable[[int], "_PendingPoint"],
                 n_points: int, chunk: int) -> None:
        self._cond = threading.Condition()
        self._ready: Deque[_PendingPoint] = deque()
        self._error: Optional[BaseException] = None
        self._waiting = 0           # drawn packets not yet in a flush
        self._stop = False
        self._chunk = chunk
        self._thread = threading.Thread(
            target=contextvars.copy_context().run,
            args=(self._run, phase1, n_points),
            name="linksim-phase1", daemon=True)
        self._thread.start()

    def _run(self, phase1: Callable[[int], "_PendingPoint"],
             n_points: int) -> None:
        try:
            for idx in range(n_points):
                with self._cond:
                    while self._waiting >= self._chunk and not self._stop:
                        self._cond.wait()
                    if self._stop:
                        return
                pending = phase1(idx)
                with self._cond:
                    self._ready.append(pending)
                    self._waiting += pending.n_buffered()
                    self._cond.notify_all()
        # Broad by design: whatever phase 1 raised is re-raised on the
        # consumer's thread at the point that raised it.
        except BaseException as exc:
            self._record_failure(exc)

    def _record_failure(self, exc: BaseException) -> None:
        with self._cond:
            self._error = exc
            self._cond.notify_all()

    def take(self) -> "_PendingPoint":
        """The next point in order; blocks until it is drawn."""
        with self._cond:
            while not self._ready and self._error is None:
                self._cond.wait()
            if self._ready:
                return self._ready.popleft()
            assert self._error is not None
            raise self._error

    def flushing(self, n_packets: int) -> None:
        """*n_packets* drawn packets left the queue for a flush."""
        with self._cond:
            self._waiting -= n_packets
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        self._thread.join()


class LinkSimulator:
    """Sweeps receiver distance for one radio configuration.

    Parameters
    ----------
    config:
        Calibrated radio configuration.
    deployment:
        Geometry template; its receiver distance is replaced per point.
    packets_per_point:
        Excitation packets simulated per distance.
    seed:
        Master seed for reproducibility.
    batch:
        Decode each point's packets through the session's batched
        receiver kernels (:meth:`~repro.core.session._BatchPacketMixin.
        run_packets`) instead of one at a time — and, for serial
        sweeps, stack packets *across* distance points.  Bit-identical
        to the scalar loop — all randomness is drawn in the same order —
        and several times faster.  ``batch=False`` runs each packet
        through the scalar ``run_packet``: the reference the batch path
        is tested against.
    """

    def __init__(self, config: RadioConfig, deployment: Deployment,
                 packets_per_point: int = 20,
                 seed: Optional[int] = None,
                 batch: bool = True):
        self.config = config
        self.deployment = deployment
        self.packets_per_point = packets_per_point
        self.batch = batch
        self._seed = seed if isinstance(seed, (int, np.integer)) else None
        self._rng = make_rng(seed)
        self.session = session_from_config(config, seed=self._rng)
        self.budget = config.budget()

    def simulate_point(self, distance_m: float, *,
                       rng: Optional[np.random.Generator] = None,
                       share_excitation: bool = False) -> LinkPoint:
        """Run one distance point: :meth:`simulate_points` over one.

        Parameters
        ----------
        rng:
            Generator for every draw at this point.  Defaults to the
            simulator's own stream (the legacy serial behaviour); the
            experiment engine passes a per-point spawned generator so
            points are independent of execution order.
        share_excitation:
            Draw one excitation frame and reuse it for all packets at
            this point instead of rebuilding the waveform per packet.
            Statistically equivalent (tag bits, fading, sync and noise
            still vary per packet) and much faster.
        """
        return self.simulate_points(
            [distance_m], rngs=None if rng is None else [rng],
            share_excitation=share_excitation)[0]

    def _point_phase1(self, distance_m: float, gen: np.random.Generator,
                      share_excitation: bool) -> "_PendingPoint":
        """Phase 1 of one distance point: link budget, then per packet
        the fading draw interleaved with the session's own draws,
        exactly as the scalar loop orders them.

        On the batch path the returned draws still await their channel
        (``session.channel_packets``) and decode; with ``batch=False``
        ``results`` is already complete and ``draws`` empty.
        """
        dep = self.deployment.with_rx_distance(distance_m)
        mean_rssi = self.budget.rssi_dbm(dep)
        incident = self.budget.tag_incident_dbm(dep)
        noise = self.budget.noise_dbm
        # The session adds AWGN across its full oversampled band; scale
        # so the *in-channel* noise matches the budget, and charge the
        # configured real-chip implementation loss.
        snr_penalty = (10 * np.log10(self.session.oversample_factor)
                       + self.config.implementation_loss_db)

        excitation = (self.session.make_excitation(gen)
                      if share_excitation else None)
        # A shared excitation fixes every packet's length, so the
        # point's normals go into one buffer, a row per packet that
        # reaches the noise draw: channel_packets then slices it rather
        # than stacking the packets' draws.
        buffer = (np.empty((self.packets_per_point, 2,
                            excitation.info.total_samples))
                  if self.batch and excitation is not None else None)
        row = 0
        rssis: List[float] = []
        draws: List[Any] = []
        results: List[Any] = []
        for _ in range(self.packets_per_point):
            rssi = mean_rssi + gen.normal(0, self.config.fading_sigma_db)
            rssis.append(rssi)
            snr = rssi - noise - snr_penalty
            if self.batch:
                draw = self.session.predraw_packet(
                    snr_db=snr, incident_power_dbm=incident,
                    rng=gen, excitation=excitation,
                    noise_out=None if buffer is None else buffer[row])
                if draw.z is not None:
                    row += 1
                draws.append(draw)
            else:
                results.append(self.session.run_packet(
                    snr_db=snr, incident_power_dbm=incident,
                    rng=gen, excitation=excitation))
        return _PendingPoint(distance_m=distance_m, mean_rssi=mean_rssi,
                             noise_dbm=noise, rssis=rssis, draws=draws,
                             results=results)

    def _point_finish(self, pending: "_PendingPoint") -> LinkPoint:
        bits_ok = 0
        airtime_us = 0.0
        errors = 0
        bits_delivered = 0
        delivered = 0
        # Aggregate in packet order so float sums match the scalar loop.
        for res in pending.results:
            airtime_us += res.duration_us + self.config.interpacket_gap_us
            if res.delivered:
                delivered += 1
                bits_ok += res.tag_bits_ok
                bits_delivered += res.tag_bits_sent
                errors += res.tag_bit_errors

        throughput_kbps = bits_ok / airtime_us * 1e3 if airtime_us else 0.0
        ber = errors / bits_delivered if bits_delivered else math.nan
        return LinkPoint(
            distance_m=pending.distance_m,
            throughput_kbps=throughput_kbps,
            ber=ber,
            rssi_dbm=float(np.mean(pending.rssis)),
            delivery_ratio=delivered / self.packets_per_point,
            snr_db=pending.mean_rssi - pending.noise_dbm,
            ber_valid=bits_delivered > 0,
        )

    def simulate_points(self, distances_m: Sequence[float], *,
                        rngs: Optional[Sequence[np.random.Generator]] = None,
                        share_excitation: bool = False,
                        registries: Optional[Sequence[Any]] = None
                        ) -> List[LinkPoint]:
        """Simulate many distance points, stacking packets across them.

        Phase 1 (link budget, fading, tag bits, gates and AWGN normals:
        all of a point's randomness) runs per point in order, inside
        that point's ``sim.point`` span, so each point's draws are
        identical to running the points one at a time.  The channel and
        decode are then stacked *across* points in chunks of up to the
        session's ``_chunk_packets``, so a whole sweep amortises the
        vectorised receiver kernels even when each point only carries a
        handful of packets.  A chunk is flushed only between points, so
        one point's packets always share one stack.  Bit-identical to
        running the points one at a time.

        When each point records into its own registry (*registries*,
        the engine path) and a chunk can be flushed before the last
        point's phase 1 (more than one chunk of packets ahead of the
        last point), phase 1 runs on one producer thread, point by point in order, while
        this thread runs the channel, decode and finish of the points
        already drawn: numpy's generator and the receive kernels
        release the GIL on large arrays, so the draws overlap the rest
        of the chain.  The producer stays at most one chunk of drawn
        packets ahead of the last flush, which bounds the extra memory.
        Decode is RNG-free and every point draws in the same order from
        the same generator, so points, counters and stage counts are
        unchanged.  A phase-1 exception re-raises here when its point
        is reached; an exception here stops the producer after its
        current point.  Either way the producer is joined before this
        method returns or raises.  Smaller sweeps (single points, the
        pool's single-point shards) and sweeps without *registries*
        (serial ``sweep``, whose phase 1 records into the ambient
        registry this thread also writes) run on the calling thread
        alone.

        Parameters
        ----------
        rngs:
            One generator per point (the engine's per-task streams);
            default is the simulator's own serial stream for every
            point, matching serial ``sweep``.
        registries:
            Optional one :class:`~repro.obs.MetricsRegistry` per point;
            each point's ``sim.point`` span, counters and stage records
            are routed to its registry (the cross-point channel/decode
            timers stay on the ambient registry).  Used by the engine to
            keep per-task forensics exact while sharing the stacked
            kernels.
        """
        session = self.session
        n_points = len(distances_m)
        chunk = session._chunk_packets
        # The producer records phase 1 into the points' own registries,
        # so it never writes a registry this thread is writing.
        overlap = (registries is not None and self.batch
                   and (n_points - 1) * self.packets_per_point >= chunk)
        pendings: List[_PendingPoint] = []
        buffered: List[Any] = []           # (point idx, packet idx, draw)

        def point_scope(idx: int) -> ContextManager[Any]:
            return (obs.collect_into(registries[idx])
                    if registries is not None else nullcontext())

        def phase1(idx: int) -> _PendingPoint:
            gen = self._rng if rngs is None else make_rng(rngs[idx])
            with point_scope(idx), obs.span(
                    "sim.point", distance_m=float(distances_m[idx]),
                    packets=self.packets_per_point):
                return self._point_phase1(float(distances_m[idx]), gen,
                                          share_excitation)

        def flush() -> None:
            draws = [d for (_, _, d) in buffered]
            session.channel_packets(draws)
            decodes = session.decode_packets(draws)
            k = 0
            while k < len(buffered):
                pi = buffered[k][0]
                j = k
                while j < len(buffered) and buffered[j][0] == pi:
                    j += 1
                with point_scope(pi):
                    for (_, di, d), dec in zip(buffered[k:j],
                                               decodes[k:j]):
                        pendings[pi].results[di] = \
                            session.finish_packet(d, dec)
                        d.noisy = None
                k = j
            buffered.clear()

        producer = (_Phase1Producer(phase1, n_points, chunk)
                    if overlap else None)
        try:
            for idx in range(n_points):
                pending = (phase1(idx) if producer is None
                           else producer.take())
                if pending.draws:
                    pending.results = [None] * len(pending.draws)
                    for di, d in enumerate(pending.draws):
                        if d.result is not None:
                            pending.results[di] = d.result
                        else:
                            buffered.append((idx, di, d))
                pendings.append(pending)
                if len(buffered) >= chunk:
                    if producer is not None:
                        producer.flushing(len(buffered))
                    flush()
            if buffered:
                flush()
        finally:
            if producer is not None:
                producer.close()
        return [self._point_finish(p) for p in pendings]

    def _spec_seed(self) -> int:
        """Integer master seed for the engine path (minted lazily when
        the simulator was seeded with a generator or not at all).

        Derived from the instance generator's *state* without drawing
        from it, so minting a spec never perturbs the serial stream:
        ``sweep()`` results are identical whether ``spec()`` was called
        before or after any serial method.
        """
        if self._seed is None:
            self._seed = derive_seed(self._rng)
        return int(self._seed)

    def spec(self, distances_m: Sequence[float]):
        """The :class:`~repro.sim.engine.ExperimentSpec` equivalent of
        ``sweep(distances_m, n_jobs=...)``."""
        from repro.sim.engine import ExperimentSpec

        return ExperimentSpec(config=self.config,
                              deployment=self.deployment,
                              distances_m=tuple(distances_m),
                              packets_per_point=self.packets_per_point,
                              seed=self._spec_seed())

    def sweep(self, distances_m: Iterable[float],
              n_jobs: Optional[int] = None, *,
              failure_policy=None, checkpoint=None) -> List[LinkPoint]:
        """Run a full distance sweep.

        With ``n_jobs=None`` (default) the sweep runs serially through
        the simulator's own generator, preserving the historical result
        stream.  Any integer ``n_jobs`` — including 1 — routes through
        the parallel engine with per-point seeds, so ``n_jobs=1`` and
        ``n_jobs=8`` agree point-for-point.

        *failure_policy* and *checkpoint* are forwarded to
        :class:`~repro.sim.engine.ExperimentEngine` (supplying either
        implies the engine path, with ``n_jobs=1`` if unset): a
        checkpointed sweep journals completed points to a JSONL file
        and resumes bit-identically after an interruption.
        """
        distances = list(distances_m)
        if n_jobs is None and failure_policy is None and checkpoint is None:
            return self.simulate_points(distances)

        from repro.sim.engine import ExperimentEngine

        engine = ExperimentEngine(n_jobs=1 if n_jobs is None else n_jobs,
                                  failure_policy=failure_policy)
        return engine.run(self.spec(distances), checkpoint=checkpoint).points

    def max_range_m(self, distances_m: Sequence[float],
                    min_delivery: float = 0.05) -> float:
        """Largest swept distance that still delivers packets."""
        best = 0.0
        for point in self.sweep(distances_m):
            if point.delivery_ratio >= min_delivery:
                best = max(best, point.distance_m)
        return best
