"""In-memory span recording around each layer's public entry points.

:func:`install` wraps each layer's public entry points (and the
service's own binding of ``execute_run``) so every call records a span
— name, start, end, parent, thread — into a :class:`Recorder`'s list
in memory.  :func:`self_times` turns the spans into a partition of the
traced wall time once the run has ended.

Spans only record in the process that installed them: pool workers
forked from it inherit the wrappers but their spans would be lost, so
the wrappers pass straight through there.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from workloads import RADIO


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int
    depth: int
    thread: int
    args: Tuple[Any, ...] = ()
    result: Any = None


@dataclass
class Recorder:
    spans: List[Span] = field(default_factory=list)
    root: Optional[Span] = None
    _ids: Any = field(default_factory=lambda: itertools.count(1))
    _local: threading.local = field(default_factory=threading.local)
    _pid: int = field(default_factory=os.getpid)
    _undo: List[Tuple[Any, str, Any]] = field(default_factory=list)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start_root(self) -> None:
        self.root = Span(0, "harness", time.perf_counter(), 0.0, -1, 0,
                         threading.get_ident())

    def end_root(self) -> None:
        assert self.root is not None
        self.root.end = time.perf_counter()

    def wrap(self, owner: Any, attr: str,
             name: Callable[..., str], keep: bool = False) -> None:
        """Replace ``owner.attr`` by a recording wrapper.  *name* maps
        the call's arguments to the span name; with *keep* the span
        also holds the arguments and return value."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != recorder._pid:
                return original(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1].sid if stack else 0
            span = Span(next(recorder._ids), name(*args, **kwargs), 0.0,
                        0.0, parent, len(stack) + 1, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if keep:
                span.args, span.result = args, out
            return out

        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, previous in reversed(self._undo):
            if previous is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._undo.clear()


def _session_radio(session: Any) -> str:
    return RADIO.get(str(session._obs).split(".", 1)[1], "other")


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point the benchmark attributes time to."""
    from repro.core.session import (BleBackscatterSession,
                                    WifiBackscatterSession,
                                    ZigbeeBackscatterSession)
    from repro.service import service as service_mod
    from repro.service.client import ServiceClient
    from repro.service.store import ResultStore
    from repro.sim import engine
    from repro.sim.linksim import LinkSimulator
    from repro.sim.macsim import MacExperiment

    for cls in (WifiBackscatterSession, ZigbeeBackscatterSession,
                BleBackscatterSession):
        for attr, stage in (("predraw_packet", "draw"),
                            ("channel_packets", "channel"),
                            ("decode_packets", "decode"),
                            ("finish_packet", "finish"),
                            ("finish_packets", "finish")):
            recorder.wrap(cls, attr, lambda s, *a, _st=stage, **k:
                          f"phy.{_session_radio(s)}.{_st}")
    for attr in ("simulate_points", "simulate_point"):
        recorder.wrap(LinkSimulator, attr, lambda sim, *a, **k:
                      f"linksim.{RADIO.get(sim.config.name, 'other')}")
    recorder.wrap(MacExperiment, "run_point", lambda *a, **k: "mac.run_point")
    recorder.wrap(engine, "execute_run", lambda *a, **k: "engine.run",
                  keep=True)
    # The service imported execute_run by name: wrap that binding too.
    recorder.wrap(service_mod, "execute_run", lambda *a, **k: "engine.run",
                  keep=True)
    recorder.wrap(engine.CheckpointJournal, "append",
                  lambda *a, **k: "engine.checkpoint")
    recorder.wrap(ResultStore, "put", lambda *a, **k: "service.store_put",
                  keep=True)
    for attr in ("raw", "get"):
        recorder.wrap(ResultStore, attr,
                      lambda *a, **k: "service.store_read")
    for attr, label in (("submit", "submit"), ("status", "status"),
                        ("wait", "poll_sleep"), ("fetch_raw", "fetch")):
        recorder.wrap(ServiceClient, attr,
                      lambda *a, _l=label, **k: f"service.{_l}",
                      keep=attr in ("submit", "wait", "fetch_raw"))


def self_times(spans: List[Span], root: Span) -> Dict[str, float]:
    """Self time per span name, partitioning the root's wall time.

    On one thread, a span's self time is its duration minus the time
    its children cover.  Spans on other threads (the service's worker
    and HTTP handlers) overlap the client's; each instant is then
    charged to the most recently started open span, so the result is
    still a partition: the values sum to the root's duration.
    """
    bounds: List[Tuple[float, int, int]] = []
    for i, s in enumerate(spans):
        bounds.append((s.start, 1, i))
        bounds.append((s.end, 0, i))
    bounds.sort()
    totals: Dict[str, float] = {root.name: 0.0}
    heap: List[Tuple[float, int, int]] = []   # (-start, -depth, index)
    closed = set()
    now = root.start
    for t, opening, i in bounds:
        t = min(max(t, root.start), root.end)
        while heap and heap[0][2] in closed:
            heapq.heappop(heap)
        owner = spans[heap[0][2]].name if heap else root.name
        totals[owner] = totals.get(owner, 0.0) + (t - now)
        now = t
        if opening:
            heapq.heappush(heap, (-spans[i].start, -spans[i].depth, i))
        else:
            closed.add(i)
    totals[root.name] += root.end - now
    return totals
