"""The metric-name registry: every counter/timer/span name, declared.

reprolint's R011 checks that every name passed to ``obs.inc`` /
``obs.observe`` / ``obs.timed`` / ``reg.timer`` / ``obs.span`` (and the
service's ``_inc``) appears here, so the observability surface is
greppable in one place and a typo'd metric name is a lint finding, not
a silently empty counter.

Pattern syntax: ``*`` matches exactly one dot-segment
(``phy.*.packets`` covers ``phy.wifi.packets`` but not
``phy.a.b.packets``).  Stage counters are generated from the forensics
taxonomy so an invented stage name fails the lint.

Names built at runtime (f-strings, ``prefix + ".suffix"``) are checked
structurally: the template's fixed parts must be consistent with a
declared pattern.
"""

from __future__ import annotations

import re
from typing import Dict, Tuple

from repro.obs.forensics import STAGES

__all__ = ["COUNTERS", "GAUGES", "TIMERS", "HISTOGRAMS", "SPANS",
           "PATTERNS_BY_KIND", "literal_matches", "template_matches"]

#: ``phy.<radio>.stage.<stage>`` decode-forensics counters; the stage
#: segment is closed over the taxonomy, the radio segment is open.
_STAGE_COUNTERS: Tuple[str, ...] = tuple(
    f"phy.*.stage.{stage}" for stage in STAGES)

COUNTERS: Tuple[str, ...] = (
    "engine.batch.aborted",
    "engine.pool.submit_errors",
    "engine.pool.terminate_errors",
    "engine.progress.errors",
    "engine.retries",
    "engine.tasks.*",          # resumed/raised/requeued + task statuses
    "iq.corpus.entries",
    "iq.fuzz.iterations",
    "iq.fuzz.violations",
    "iq.replay.diffs",
    "iq.replay.entries",
    "mac.rounds",
    "mac.slots.collisions",
    "mac.slots.empties",
    "mac.slots.singles",
    "phy.*.encode_cached",
    "phy.*.packets",
    "service.cache.hits",
    "service.cache.misses",
    "service.cache.obs_warnings",
    "service.cache.stores",
    "service.http.*",          # requests + per-method counters
    "service.jobs.completed",
    "service.jobs.failed",
    "service.jobs.recovered",
    "service.jobs.submitted",
    "trace.events.dropped",
) + _STAGE_COUNTERS

#: Point-in-time values (last-write-wins); the sweep service
#: synthesizes the queue/job gauges into every snapshot it serves.
GAUGES: Tuple[str, ...] = (
    "service.job.age_seconds",
    "service.jobs.running",
    "service.queue.*",         # depth + per-state counts
)

TIMERS: Tuple[str, ...] = (
    "bench.*",
    "engine.task",
    "phy.*.channel",
    "phy.*.decode",
    "phy.*.encode",
    "service.job",
)

#: Latency histograms.  By convention named ``<timer>.seconds``: the
#: exposition layer lets the histogram supersede the timer's summary
#: family, so both can record from one ``timed(..., hist=...)`` site.
HISTOGRAMS: Tuple[str, ...] = (
    "engine.task.seconds",
    "phy.*.channel.seconds",
    "phy.*.decode.seconds",
    "phy.*.encode.seconds",
    "service.job.seconds",
)

SPANS: Tuple[str, ...] = (
    "engine.run",
    "engine.task",
    "mac.point",
    "phy.*.decode",
    "sim.point",
)

PATTERNS_BY_KIND: Dict[str, Tuple[str, ...]] = {
    "counter": COUNTERS,
    "gauge": GAUGES,
    "timer": TIMERS,
    "histogram": HISTOGRAMS,
    "span": SPANS,
}

_regex_cache: Dict[str, "re.Pattern[str]"] = {}


def _pattern_regex(pattern: str) -> "re.Pattern[str]":
    compiled = _regex_cache.get(pattern)
    if compiled is None:
        parts = pattern.split("*")
        compiled = re.compile("[^.]+".join(re.escape(p) for p in parts))
        _regex_cache[pattern] = compiled
    return compiled


def literal_matches(name: str, patterns: Tuple[str, ...]) -> bool:
    """True when *name* matches a declared pattern (``*`` = one
    dot-segment)."""
    return any(_pattern_regex(p).fullmatch(name) for p in patterns)


def template_matches(template_regex: str, patterns: Tuple[str, ...]) -> bool:
    """True when a runtime-built name template could produce a declared
    name.

    *template_regex* is the template with holes replaced by ``.+`` and
    fixed parts re.escape'd; it is matched against the raw pattern
    strings (a hole can cover a ``*`` segment).
    """
    compiled = re.compile(template_regex)
    return any(compiled.fullmatch(p) for p in patterns)
