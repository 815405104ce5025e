"""Process-local counters and timers for experiment observability.

The simulator's hot paths (PHY encode/channel/decode, engine task
dispatch) record where time and retries go through a tiny metrics
registry.  Design constraints, in order:

* **Near-zero overhead.**  A counter increment is a dict lookup plus an
  integer add; a timer is two ``perf_counter`` calls.  The PHY chain is
  numpy-bound, so this is noise.
* **Process-local.**  Engine workers are separate processes; each one
  accumulates into its own registry and ships a plain-dict
  :meth:`MetricsRegistry.snapshot` back with the task result, which the
  engine merges (:meth:`MetricsRegistry.merge_snapshot`).
* **Scoped collection, per context.**  Instrumented code records into
  whatever registry is *active*.  By default that is one module-global
  registry; :func:`collect` pushes a fresh registry for the duration of
  a block so callers (the engine's per-task wrapper, tests) get an
  isolated view without touching the instrumentation sites.  The
  active-registry stack lives in a :class:`contextvars.ContextVar`, so
  each thread has its own: two sweep-service workers running
  ``execute_run`` at once each record into their own run's registry.
  A new thread starts on the global registry; one started with
  :func:`contextvars.copy_context` inherits its parent's stack.
* **One writer per registry, no locks.**  Registries are not
  thread-safe; a helper thread records only into registries no other
  thread is writing at the time.

Typical use::

    from repro import obs

    with obs.timed("phy.wifi.decode"):
        receiver.decode(...)
    obs.inc("phy.wifi.packets")

    with obs.collect() as reg:       # isolate one task's metrics
        run_task()
    snapshot = reg.snapshot()        # {"counters": ..., "timers": ...}

Tracing (spans + events) is opt-in per registry: pass a
:class:`TraceConfig` to :func:`collect` (or the registry constructor)
and :func:`span` / :func:`packet_event` start recording; with no trace
config they are a dict lookup plus a ``None`` check — near-zero
overhead, and no RNG or numerical state is touched either way.  Span
durations aggregate by *path* ("parent/child"), so snapshots merge
across worker processes exactly like counters and timers.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import forensics

__all__ = ["TimerStat", "Gauge", "Histogram", "DEFAULT_LATENCY_BUCKETS",
           "TraceConfig", "MetricsRegistry", "registry",
           "global_registry", "collect", "collect_into", "timed", "inc",
           "observe", "observe_hist", "set_gauge", "add_gauge", "span",
           "event", "packet_event"]


@dataclass
class TimerStat:
    """Aggregate of one named timer: count / total / min / max seconds."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = math.inf
    max_s: float = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        self.min_s = min(self.min_s, seconds)
        self.max_s = max(self.max_s, seconds)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def merge(self, other: "TimerStat") -> None:
        self.count += other.count
        self.total_s += other.total_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)

    def to_dict(self) -> Dict[str, Optional[float]]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            # min is inf until the first observation; JSON has no inf,
            # so an empty timer serializes min as null.
            "min_s": self.min_s if self.count else None,
            "max_s": self.max_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TimerStat":
        stat = cls(count=int(data.get("count", 0)),
                   total_s=float(data.get("total_s", 0.0)),
                   max_s=float(data.get("max_s", 0.0)))
        raw_min = data.get("min_s")
        if stat.count and raw_min is not None:
            stat.min_s = float(raw_min)
        else:
            stat.min_s = math.inf
        return stat


class Gauge:
    """A point-in-time value: ``set`` to the latest reading, ``add`` a
    delta.  Unlike counters, merging is last-write-wins — a gauge is a
    *local* observation (queue depth, oldest-job age), so whichever
    snapshot merged last is the freshest view, not a sum."""

    __slots__ = ("value",)

    value: float

    def __init__(self, value: float = 0.0) -> None:
        self.value = float(value)

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += float(delta)

    def merge(self, other: "Gauge") -> None:
        self.value = other.value


#: Default latency buckets: a 1/2.5/5 log grid from 100 µs to 60 s.
#: Every histogram shares these bounds unless constructed otherwise, so
#: snapshots from any worker split merge bucket-for-bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


class Histogram:
    """Fixed-bucket latency histogram with exact ``sum`` / ``count``.

    ``buckets`` holds ascending upper bounds (``le`` semantics: an
    observation lands in the first bucket whose bound is >= the value);
    ``counts`` has one extra overflow slot for values past the last
    bound.  Because the bounds are fixed at construction, merging
    worker snapshots is invariant to how observations were partitioned:
    any grouping of the same observations produces identical buckets,
    ``sum`` and ``count``.  ``quantile`` interpolates linearly inside
    the containing bucket, which is the standard Prometheus estimate.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    buckets: Tuple[float, ...]
    counts: List[int]
    sum: float
    count: int

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                 ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(f"bucket bounds must be finite: {bounds}")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must ascend: {bounds}")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.buckets} != {other.buckets}")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.sum += other.sum
        self.count += other.count

    def quantile(self, q: float) -> Optional[float]:
        """Estimated value at quantile *q* (0..1); ``None`` when empty.

        Interpolates within the containing bucket; observations in the
        overflow bucket clamp to the last finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return None
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for i, bound in enumerate(self.buckets):
            previous = cumulative
            cumulative += self.counts[i]
            if cumulative >= target and self.counts[i]:
                frac = (target - previous) / self.counts[i]
                return lower + (bound - lower) * min(max(frac, 0.0), 1.0)
            lower = bound
        return self.buckets[-1]

    def to_dict(self) -> Dict[str, Any]:
        return {"buckets": list(self.buckets), "counts": list(self.counts),
                "sum": self.sum, "count": self.count}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        hist = cls(tuple(float(b) for b in data["buckets"]))
        counts = [int(n) for n in data["counts"]]
        if len(counts) != len(hist.buckets) + 1:
            raise ValueError(
                f"expected {len(hist.buckets) + 1} bucket counts, "
                f"got {len(counts)}")
        hist.counts = counts
        hist.sum = float(data.get("sum", 0.0))
        hist.count = int(data.get("count", 0))
        return hist


@dataclass(frozen=True)
class TraceConfig:
    """Sampling knobs for trace events (spans and per-packet records).

    A registry with a ``TraceConfig`` records spans and events; a
    registry without one (the default) skips all trace work.  The
    config is immutable and picklable so the engine can ship it to
    worker processes alongside the task.

    ``every_n`` keeps every N-th packet event (1 = all);
    ``failures_only`` drops ``ok``-stage packet events entirely;
    ``max_events`` caps the in-memory event buffer — past it events are
    dropped and counted under ``trace.events.dropped``.  Stage
    *counters* are unaffected by any of these knobs: sampling only
    thins the per-packet JSONL stream.
    """

    every_n: int = 1
    failures_only: bool = False
    max_events: int = 100_000

    def __post_init__(self) -> None:
        if self.every_n < 1:
            raise ValueError(f"every_n must be >= 1, got {self.every_n}")
        if self.max_events < 0:
            raise ValueError(
                f"max_events must be >= 0, got {self.max_events}")


class _SpanBase:
    """Common no-op context-manager shape for spans."""

    __slots__ = ()

    def __enter__(self) -> "_SpanBase":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


class _NoopSpan(_SpanBase):
    """Returned when tracing is disabled; a shared, stateless singleton."""

    __slots__ = ()


_NOOP_SPAN = _NoopSpan()


class _Span(_SpanBase):
    """A live span: times a block and links to its parent via the
    registry's span stack (path = "parent/child")."""

    __slots__ = ("_registry", "_name", "_attrs", "_start", "_path")

    _registry: "MetricsRegistry"
    _name: str
    _attrs: Dict[str, Any]
    _start: float
    _path: str

    def __init__(self, registry: "MetricsRegistry", name: str,
                 attrs: Dict[str, Any]) -> None:
        self._registry = registry
        self._name = name
        self._attrs = attrs
        self._start = 0.0
        self._path = ""

    def __enter__(self) -> "_Span":
        reg = self._registry
        reg._span_stack.append(self._name)
        self._path = "/".join(reg._span_stack)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        dur = time.perf_counter() - self._start
        reg = self._registry
        if reg._span_stack and reg._span_stack[-1] == self._name:
            reg._span_stack.pop()
        stat = reg._spans.get(self._path)
        if stat is None:
            stat = reg._spans[self._path] = TimerStat()
        stat.observe(dur)
        payload: Dict[str, Any] = {"path": self._path, "dur_s": dur}
        if self._attrs:
            payload["attrs"] = dict(self._attrs)
        reg._record_event("span", payload)


class MetricsRegistry:
    """A named bag of counters, timers, and (when tracing) spans/events."""

    def __init__(self, trace: Optional[TraceConfig] = None) -> None:
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, TimerStat] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._trace = trace
        self._spans: Dict[str, TimerStat] = {}
        self._span_stack: List[str] = []
        self._events: List[Dict[str, Any]] = []
        self._packet_seq = 0

    @property
    def trace(self) -> Optional[TraceConfig]:
        """The trace config, or ``None`` when tracing is disabled."""
        return self._trace

    # -- recording --------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, seconds: float) -> None:
        stat = self._timers.get(name)
        if stat is None:
            stat = self._timers[name] = TimerStat()
        stat.observe(seconds)

    def set_gauge(self, name: str, value: float) -> None:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        gauge.set(value)

    def add_gauge(self, name: str, delta: float) -> None:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        gauge.add(delta)

    def observe_hist(self, name: str, value: float,
                     buckets: Optional[Sequence[float]] = None) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(
                buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS)
        hist.observe(value)

    @contextmanager
    def timed(self, name: str,
              hist: Optional[str] = None) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            self.observe(name, dur)
            if hist is not None:
                self.observe_hist(hist, dur)

    def span(self, name: str, **attrs: Any) -> _SpanBase:
        """Open a hierarchical span; a shared no-op when not tracing."""
        if self._trace is None:
            return _NOOP_SPAN
        return _Span(self, name, attrs)

    def event(self, kind: str, **fields: Any) -> None:
        """Append one structured trace event (no-op when not tracing)."""
        if self._trace is None:
            return
        self._record_event(kind, dict(fields))

    def packet_event(self, radio: str, stage: str, **fields: Any) -> None:
        """Append a per-packet forensic event, honouring the sampling
        knobs (``every_n`` / ``failures_only``).  No-op when not
        tracing; never touches counters, RNG, or decode state."""
        cfg = self._trace
        if cfg is None:
            return
        self._packet_seq += 1
        if cfg.failures_only and stage == forensics.OK:
            return
        if cfg.every_n > 1 and (self._packet_seq - 1) % cfg.every_n:
            return
        payload: Dict[str, Any] = {"radio": radio, "stage": stage,
                                   "seq": self._packet_seq}
        payload.update(fields)
        self._record_event("packet", payload)

    def _record_event(self, kind: str, fields: Dict[str, Any]) -> None:
        cfg = self._trace
        if cfg is not None and len(self._events) >= cfg.max_events:
            self.inc("trace.events.dropped")
            return
        record: Dict[str, Any] = {"kind": kind}
        record.update(fields)
        self._events.append(record)

    # -- reading ----------------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def timer(self, name: str) -> Optional[TimerStat]:
        return self._timers.get(name)

    def gauge(self, name: str) -> Optional[Gauge]:
        return self._gauges.get(name)

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        gauge = self._gauges.get(name)
        return gauge.value if gauge is not None else default

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def span_stat(self, path: str) -> Optional[TimerStat]:
        """Aggregated stats for one span path ("parent/child")."""
        return self._spans.get(path)

    def span_paths(self) -> List[str]:
        """All recorded span paths, sorted."""
        return sorted(self._spans)

    @property
    def events(self) -> List[Dict[str, Any]]:
        """A copy of the buffered trace events, in recording order."""
        return [dict(e) for e in self._events]

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view (JSON-serializable, picklable).

        ``gauges`` / ``histograms`` / ``spans`` / ``events`` keys appear
        only when non-empty, so plain counter/timer snapshots keep the
        historical two-key shape.
        """
        snap: Dict[str, Any] = {
            "counters": dict(self._counters),
            "timers": {k: v.to_dict() for k, v in self._timers.items()},
        }
        if self._gauges:
            snap["gauges"] = {k: v.value for k, v in self._gauges.items()}
        if self._histograms:
            snap["histograms"] = {
                k: v.to_dict() for k, v in self._histograms.items()}
        if self._spans:
            snap["spans"] = {k: v.to_dict() for k, v in self._spans.items()}
        if self._events:
            snap["events"] = [dict(e) for e in self._events]
        return snap

    # -- combining --------------------------------------------------------

    def merge_snapshot(self, snapshot: Optional[Dict[str, Any]],
                       span_prefix: Optional[str] = None) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        *span_prefix*, when given, re-roots the incoming span tree under
        an existing local path (the engine merges each worker's
        ``engine.task`` spans under its own ``engine.run`` root, so the
        aggregated tree is identical for any worker count).
        """
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, int(value))
        for name, data in snapshot.get("timers", {}).items():
            stat = self._timers.get(name)
            if stat is None:
                self._timers[name] = TimerStat.from_dict(data)
            else:
                stat.merge(TimerStat.from_dict(data))
        # Gauges are last-write-wins: the incoming snapshot is the
        # fresher local observation.
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, float(value))
        for name, data in snapshot.get("histograms", {}).items():
            hist = self._histograms.get(name)
            if hist is None:
                self._histograms[name] = Histogram.from_dict(data)
            else:
                hist.merge(Histogram.from_dict(data))
        for name, data in snapshot.get("spans", {}).items():
            path = f"{span_prefix}/{name}" if span_prefix else name
            stat = self._spans.get(path)
            if stat is None:
                self._spans[path] = TimerStat.from_dict(data)
            else:
                stat.merge(TimerStat.from_dict(data))
        for record in snapshot.get("events", []):
            merged = dict(record)
            if span_prefix and merged.get("kind") == "span":
                merged["path"] = f"{span_prefix}/{merged['path']}"
            self._events.append(merged)

    def reset(self) -> None:
        self._counters.clear()
        self._timers.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._spans.clear()
        self._span_stack.clear()
        self._events.clear()
        self._packet_seq = 0


# -- the active-registry stack --------------------------------------------
# Bottom entry is the always-present global registry; ``collect`` pushes
# a scratch registry on top for the duration of a block.  The stack is
# an immutable tuple in a context variable, so each thread (and each
# copied context) pushes and pops its own.

_GLOBAL = MetricsRegistry()
_STACK: "ContextVar[Tuple[MetricsRegistry, ...]]" = ContextVar(
    "repro_obs_registries", default=(_GLOBAL,))


def registry() -> MetricsRegistry:
    """The registry instrumentation currently records into."""
    return _STACK.get()[-1]


def global_registry() -> MetricsRegistry:
    """The process-wide default registry (bottom of every stack)."""
    return _GLOBAL


def _push(reg: MetricsRegistry) -> None:
    _STACK.set(_STACK.get() + (reg,))


def _pop(reg: MetricsRegistry) -> None:
    # Drop the first (bottom-most) occurrence, which keeps nested
    # re-entries of the same registry balanced.
    stack = _STACK.get()
    i = stack.index(reg)
    _STACK.set(stack[:i] + stack[i + 1:])


@contextmanager
def collect(trace: Optional[TraceConfig] = None
            ) -> Iterator[MetricsRegistry]:
    """Route all recording inside the block into a fresh registry.

    Pass a :class:`TraceConfig` to also capture spans and per-packet
    trace events for the duration of the block.
    """
    reg = MetricsRegistry(trace=trace)
    _push(reg)
    try:
        yield reg
    finally:
        _pop(reg)


@contextmanager
def collect_into(reg: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Route all recording inside the block into an *existing* registry.

    Re-entrant counterpart of :func:`collect`: a caller that interleaves
    several logical collection scopes (the engine's cross-task batch
    path attributing per-task stage counters while sharing one decode
    pass) can push the same registry repeatedly without losing what it
    already holds.
    """
    _push(reg)
    try:
        yield reg
    finally:
        _pop(reg)


def timed(name: str, hist: Optional[str] = None) -> "_ActiveTimer":
    """Context manager timing a block into the active registry.

    The registry is resolved when the block *exits*, so a ``timed``
    entered just before a :func:`collect` block still records into the
    registry active at completion time.  *hist*, when given, also feeds
    the same duration into a latency histogram of that name — one clock
    read pair serves both aggregates.
    """
    return _ActiveTimer(name, hist)


class _ActiveTimer:
    __slots__ = ("_name", "_hist", "_start")

    _name: str
    _hist: Optional[str]
    _start: float

    def __init__(self, name: str, hist: Optional[str] = None) -> None:
        self._name = name
        self._hist = hist

    def __enter__(self) -> "_ActiveTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        dur = time.perf_counter() - self._start
        reg = registry()
        reg.observe(self._name, dur)
        if self._hist is not None:
            reg.observe_hist(self._hist, dur)


def inc(name: str, n: int = 1) -> None:
    """Increment a counter on the active registry."""
    registry().inc(name, n)


def observe(name: str, seconds: float) -> None:
    """Record one timer observation on the active registry."""
    registry().observe(name, seconds)


def observe_hist(name: str, value: float,
                 buckets: Optional[Sequence[float]] = None) -> None:
    """Record one histogram observation on the active registry."""
    registry().observe_hist(name, value, buckets)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the active registry to *value*."""
    registry().set_gauge(name, value)


def add_gauge(name: str, delta: float) -> None:
    """Add *delta* to a gauge on the active registry."""
    registry().add_gauge(name, delta)


def span(name: str, **attrs: Any) -> _SpanBase:
    """Open a span on the active registry (shared no-op when untraced)."""
    return registry().span(name, **attrs)


def event(kind: str, **fields: Any) -> None:
    """Append one trace event to the active registry (no-op untraced)."""
    registry().event(kind, **fields)


def packet_event(radio: str, stage: str, **fields: Any) -> None:
    """Append a sampled per-packet forensic event (no-op untraced)."""
    registry().packet_event(radio, stage, **fields)
