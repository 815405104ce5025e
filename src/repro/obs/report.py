"""Run reports: render a finished run into text or markdown.

A report combines up to three inputs, any subset of which may be
present:

* the **metrics record** written by ``--metrics-json`` (or a full
  ``RunResult.to_dict()``): timing, per-task records, and the merged
  counters / timers / span aggregates;
* the **trace file** written by ``--trace`` (JSONL, one event per
  line, each stamped with the spec fingerprint): span durations,
  sampled per-packet forensics, retry/requeue events;
* the **checkpoint journal** (JSONL): per-point stage breakdowns.

``repro report`` is the CLI front-end; :func:`render_report` is the
library entry point.  Every section degrades gracefully when its
input is missing — a report over just a trace file still shows spans
and packet forensics, a report over just the metrics record still
shows timing and engine accounting.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import forensics

__all__ = ["load_metrics_record", "load_journal_rows", "render_report"]


def load_metrics_record(path: str) -> Dict[str, Any]:
    """Load a ``--metrics-json`` record (or ``RunResult.to_dict()``)."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def load_journal_rows(path: str,
                      fingerprint: Optional[str] = None
                      ) -> List[Dict[str, Any]]:
    """Read completed-point rows from a checkpoint journal.

    Tolerant of torn tails and foreign lines (same contract as the
    engine's own resume path); keeps the *last* row per point index.
    When *fingerprint* is given, rows stamped with a different spec
    are dropped.
    """
    rows: Dict[int, Dict[str, Any]] = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue  # torn tail from an interrupted run
                if not isinstance(rec, dict) or "index" not in rec:
                    continue
                if fingerprint and rec.get("spec") not in (None, fingerprint):
                    continue
                if rec.get("status", "ok") != "ok":
                    continue
                rows[int(rec["index"])] = rec
    except FileNotFoundError:
        return []
    return [rows[i] for i in sorted(rows)]


# -- table rendering ------------------------------------------------------

def _render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                  fmt: str) -> List[str]:
    cells = [[_fmt_cell(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    if fmt == "markdown":
        lines = ["| " + " | ".join(h.ljust(w) for h, w in
                                   zip(headers, widths)) + " |",
                 "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        lines += ["| " + " | ".join(c.ljust(w) for c, w in
                                    zip(row, widths)) + " |"
                  for row in cells]
        return lines
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
              for row in cells]
    return lines


def _fmt_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _heading(title: str, fmt: str) -> List[str]:
    if fmt == "markdown":
        return [f"## {title}", ""]
    return [title, "=" * len(title)]


# -- sections -------------------------------------------------------------

def _summary_section(record: Mapping[str, Any], fmt: str) -> List[str]:
    timing = record.get("timing")
    if not isinstance(timing, Mapping):
        return []
    lines = _heading("Run summary", fmt)
    for label, key, unit in (
            ("wall time", "wall_time_s", " s"),
            ("workers", "n_jobs", ""),
            ("tasks", "n_tasks", ""),
            ("failed tasks", "n_failed", ""),
            ("packets simulated", "packets_simulated", ""),
            ("packets/s", "packets_per_second", "")):
        if key in timing:
            lines.append(f"- {label}: {_fmt_cell(timing[key])}{unit}")
    lines.append("")
    return lines


def _stage_table(counters: Mapping[str, Any]) -> List[Tuple[str, Dict[str, int]]]:
    """``phy.<radio>.stage.<stage>`` counters grouped by radio."""
    per_radio: Dict[str, Dict[str, int]] = {}
    for name, value in counters.items():
        if not (name.startswith("phy.") and ".stage." in name):
            continue
        prefix, stage = name.rsplit(".stage.", 1)
        radio = prefix[len("phy."):]
        per_radio.setdefault(radio, {})[stage] = int(value)
    return sorted(per_radio.items())


def _forensics_section(record: Mapping[str, Any], fmt: str) -> List[str]:
    metrics = record.get("metrics")
    if not isinstance(metrics, Mapping):
        return []
    counters = metrics.get("counters")
    if not isinstance(counters, Mapping):
        return []
    radios = _stage_table(counters)
    if not radios:
        return []
    lines = _heading("Decode forensics", fmt)
    headers = ["radio"] + list(forensics.STAGES) + ["total", "packets"]
    rows: List[List[Any]] = []
    for radio, stages in radios:
        total = sum(stages.values())
        packets = counters.get(f"phy.{radio}.packets", total)
        rows.append([radio] + [stages.get(s, 0) for s in forensics.STAGES]
                    + [total, int(packets)])
    lines += _render_table(headers, rows, fmt)
    lines.append("")
    return lines


def _per_point_section(rows: Sequence[Mapping[str, Any]],
                       fmt: str, source: str) -> List[str]:
    """Per-point stage breakdown from journal rows or task records."""
    with_stages = [r for r in rows if r.get("stage_counts")]
    if not with_stages:
        return []
    lines = _heading(f"Per-point breakdown ({source})", fmt)
    headers = (["point", "task"] + list(forensics.STAGES) + ["total"])
    table: List[List[Any]] = []
    for rec in with_stages:
        stages = rec.get("stage_counts") or {}
        table.append([rec.get("index", "?"), rec.get("task", "?")]
                     + [int(stages.get(s, 0)) for s in forensics.STAGES]
                     + [sum(int(v) for v in stages.values())])
    lines += _render_table(headers, table, fmt)
    lines.append("")
    return lines


def _engine_section(record: Mapping[str, Any],
                    trace: Sequence[Mapping[str, Any]],
                    fmt: str) -> List[str]:
    metrics = record.get("metrics")
    counters: Mapping[str, Any] = {}
    if isinstance(metrics, Mapping):
        raw = metrics.get("counters")
        if isinstance(raw, Mapping):
            counters = raw
    retries = [e for e in trace if e.get("kind") == "engine.retry"]
    requeues = [e for e in trace if e.get("kind") == "engine.requeue"]
    names = [n for n in counters if n.startswith("engine.")]
    if not names and not retries and not requeues:
        return []
    lines = _heading("Engine accounting", fmt)
    for name in sorted(names):
        lines.append(f"- {name}: {int(counters[name])}")
    for ev in retries:
        lines.append(f"- retry: task {ev.get('task')} attempt "
                     f"{ev.get('attempt')} ({ev.get('status')}: "
                     f"{ev.get('error')})")
    for ev in requeues:
        lines.append(f"- requeue: task {ev.get('task')} attempt "
                     f"{ev.get('attempt')}")
    tasks = record.get("tasks")
    if isinstance(tasks, Sequence):
        for task in tasks:
            if isinstance(task, Mapping) and task.get("status") != "ok":
                lines.append(f"- FAILED task {task.get('index')} "
                             f"({task.get('status')} after "
                             f"{task.get('attempts')} attempts): "
                             f"{task.get('error')}")
    lines.append("")
    return lines


def _gauges_section(record: Mapping[str, Any], fmt: str) -> List[str]:
    metrics = record.get("metrics")
    gauges = metrics.get("gauges") if isinstance(metrics, Mapping) else None
    if not isinstance(gauges, Mapping) or not gauges:
        return []
    lines = _heading("Gauges", fmt)
    for name in sorted(gauges):
        lines.append(f"- {name}: {_fmt_cell(float(gauges[name]))}")
    lines.append("")
    return lines


def _histograms_section(record: Mapping[str, Any], fmt: str) -> List[str]:
    """Latency percentiles from the merged histogram snapshots."""
    from repro.obs.metrics import Histogram

    metrics = record.get("metrics")
    raw = (metrics.get("histograms")
           if isinstance(metrics, Mapping) else None)
    if not isinstance(raw, Mapping) or not raw:
        return []
    rows: List[List[Any]] = []
    for name in sorted(raw):
        data = raw[name]
        if not isinstance(data, Mapping):
            continue
        try:
            hist = Histogram.from_dict(dict(data))
        except (ValueError, TypeError, KeyError):
            continue  # foreign or torn snapshot entry; skip, don't die
        if hist.count == 0:
            continue
        rows.append([name, hist.count, hist.mean,
                     *(hist.quantile(q) or 0.0 for q in (0.5, 0.9, 0.99))])
    if not rows:
        return []
    lines = _heading("Latency histograms", fmt)
    lines += _render_table(
        ["histogram", "count", "mean (s)", "p50", "p90", "p99"], rows, fmt)
    lines.append("")
    return lines


def _spans_section(record: Mapping[str, Any],
                   trace: Sequence[Mapping[str, Any]],
                   fmt: str, top: int) -> List[str]:
    span_events = [e for e in trace
                   if e.get("kind") == "span" and "dur_s" in e]
    rows: List[List[Any]] = []
    if span_events:
        slowest = sorted(span_events, key=lambda e: -float(e["dur_s"]))[:top]
        for ev in slowest:
            attrs = ev.get("attrs") or {}
            rows.append([ev.get("path", "?"), float(ev["dur_s"]),
                         " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
                         if isinstance(attrs, Mapping) else ""])
        headers = ["span", "dur (s)", "attrs"]
    else:
        # No trace: fall back to the aggregated span stats (max as the
        # slowest observed instance of each path).
        metrics = record.get("metrics")
        spans = metrics.get("spans") if isinstance(metrics, Mapping) else None
        if not isinstance(spans, Mapping) or not spans:
            return []
        stats = sorted(spans.items(),
                       key=lambda kv: -float(kv[1].get("max_s", 0.0)))[:top]
        for path, stat in stats:
            rows.append([path, float(stat.get("max_s", 0.0)),
                         f"count={int(stat.get('count', 0))}"])
        headers = ["span", "max (s)", "attrs"]
    lines = _heading(f"Slowest spans (top {len(rows)})", fmt)
    lines += _render_table(headers, rows, fmt)
    lines.append("")
    return lines


def _packet_trace_section(trace: Sequence[Mapping[str, Any]],
                          fmt: str) -> List[str]:
    packets = [e for e in trace if e.get("kind") == "packet"]
    if not packets:
        return []
    by_stage: Dict[str, int] = {}
    for ev in packets:
        stage = str(ev.get("stage", "?"))
        by_stage[stage] = by_stage.get(stage, 0) + 1
    lines = _heading("Traced packets (sampled)", fmt)
    lines.append(f"- events: {len(packets)}")
    for stage in forensics.STAGES:
        if stage in by_stage:
            lines.append(f"- {stage}: {by_stage[stage]}")
    for stage in sorted(set(by_stage) - set(forensics.STAGES)):
        lines.append(f"- {stage}: {by_stage[stage]}")
    lines.append("")
    return lines


def render_report(record: Optional[Mapping[str, Any]] = None,
                  trace: Optional[Sequence[Mapping[str, Any]]] = None,
                  journal_rows: Optional[Sequence[Mapping[str, Any]]] = None,
                  fmt: str = "text", top: int = 10) -> str:
    """Render a run report from any subset of the three inputs.

    Parameters
    ----------
    record:
        The ``--metrics-json`` payload or ``RunResult.to_dict()``.
    trace:
        Parsed trace events (see :func:`repro.obs.trace.read_trace`).
    journal_rows:
        Checkpoint-journal rows (see :func:`load_journal_rows`); used
        for the per-point stage breakdown.  When absent, the per-task
        ``stage_counts`` from *record* are used instead.
    fmt:
        ``"text"`` or ``"markdown"``.
    top:
        How many spans the slowest-spans table shows.
    """
    if fmt not in ("text", "markdown"):
        raise ValueError(f"unknown report format: {fmt!r}")
    record = record or {}
    trace = trace or []
    lines: List[str] = []
    if fmt == "markdown":
        lines += ["# Run report", ""]
    else:
        lines += ["Run report", ""]
    lines += _summary_section(record, fmt)
    lines += _forensics_section(record, fmt)
    if journal_rows:
        lines += _per_point_section(journal_rows, fmt, "checkpoint journal")
    else:
        tasks = record.get("tasks")
        if isinstance(tasks, Sequence):
            task_rows = [t for t in tasks if isinstance(t, Mapping)]
            lines += _per_point_section(task_rows, fmt, "task records")
    lines += _engine_section(record, trace, fmt)
    lines += _gauges_section(record, fmt)
    lines += _histograms_section(record, fmt)
    lines += _packet_trace_section(trace, fmt)
    lines += _spans_section(record, trace, fmt, top)
    if len(lines) <= 2:
        lines.append("(no inputs produced any report sections)")
    return "\n".join(lines).rstrip() + "\n"
