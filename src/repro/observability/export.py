"""Exporters: Perfetto/Chrome-trace JSON, span coverage, text run summary.

The Chrome trace event format (``{"traceEvents": [...]}`` with complete
``"X"`` events and ``"M"`` metadata) loads directly into Perfetto / Chrome
``about:tracing``.  The two clock domains are rendered as separate
*process* groups so a viewer can never misread simulated hours for host
seconds:

* pid 1 — "simulated clock (hours)": one thread (track) per tenant and
  per wetlab lane; 1 simulated hour is rendered as 3600 "seconds" of
  trace time (µs × 3.6e9).
* pid 2 — "wall clock (seconds)": the service process's track;
  timestamps are rebased to the earliest wall span so the timeline
  starts near zero.

:func:`span_coverage` computes, per request root span, the fraction of
its extent covered by the union of its sim-clock descendants — the
"spans explain ≥95% of each request's latency" acceptance gate.
:func:`text_summary` renders a human-readable run digest (clock
disclaimers, top-N slowest requests with per-phase breakdown, key
metrics).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.observability.tracing import SIM_CLOCK, WALL_CLOCK, Span

#: Trace-time microseconds per simulated hour (1 sim hour -> 3600 "s").
_SIM_HOURS_TO_US = 3_600_000_000.0
_WALL_SECONDS_TO_US = 1_000_000.0

_SIM_PID = 1
_WALL_PID = 2


def _track_sort_key(track: str) -> tuple:
    """Group tracks by kind, then name — tenants, lanes, service."""
    kind, _, rest = track.partition(":")
    order = {"tenant": 0, "lane": 1, "service": 2}.get(kind, 3)
    # Numeric suffixes (lane ids) sort numerically.
    return (order, (0, int(rest)) if rest.isdigit() else (1, rest), track)


def chrome_trace(spans: Iterable[Span]) -> dict:
    """Render spans as a Chrome-trace/Perfetto ``traceEvents`` document."""
    spans = [span for span in spans if span.end is not None]
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _SIM_PID,
            "args": {"name": "simulated clock (hours)"},
        },
        {
            "name": "process_name",
            "ph": "M",
            "pid": _WALL_PID,
            "args": {"name": "wall clock (seconds)"},
        },
    ]
    tracks: dict[tuple[int, str], int] = {}
    grouped: dict[int, list[str]] = {_SIM_PID: [], _WALL_PID: []}
    for span in spans:
        pid = _SIM_PID if span.clock == SIM_CLOCK else _WALL_PID
        if (pid, span.track) not in tracks:
            tracks[(pid, span.track)] = 0  # placeholder, tid assigned below
            grouped[pid].append(span.track)
    for pid, names in grouped.items():
        for tid, track in enumerate(sorted(names, key=_track_sort_key), start=1):
            tracks[(pid, track)] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
    wall_starts = [span.start for span in spans if span.clock == WALL_CLOCK]
    wall_base = min(wall_starts) if wall_starts else 0.0
    for span in spans:
        if span.clock == SIM_CLOCK:
            pid = _SIM_PID
            ts = span.start * _SIM_HOURS_TO_US
            dur = span.duration * _SIM_HOURS_TO_US
        else:
            pid = _WALL_PID
            ts = (span.start - wall_base) * _WALL_SECONDS_TO_US
            dur = span.duration * _WALL_SECONDS_TO_US
        args = dict(span.attributes)
        args["clock"] = span.clock
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "pid": pid,
                "tid": tracks[(pid, span.track)],
                "ts": ts,
                "dur": max(0.0, dur),
                "cat": span.clock,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[Span], path: str | Path) -> Path:
    """Write :func:`chrome_trace` JSON to ``path`` and return it."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(spans), indent=1, sort_keys=True))
    return path


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by the union of (start, end) intervals."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def span_coverage(spans: Sequence[Span]) -> dict[str, float]:
    """Per-request fraction of the root span covered by child spans.

    For every sim-clock root span carrying a ``request_id`` attribute,
    the union of its (transitive) sim-clock descendants' extents —
    clipped to the root — is divided by the root's duration.  Requests
    whose root has zero duration (served instantly from cache) count as
    fully covered.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    coverage: dict[str, float] = {}
    for span in spans:
        if span.parent_id is not None or span.clock != SIM_CLOCK:
            continue
        request_id = span.attributes.get("request_id")
        if request_id is None or span.end is None:
            continue
        if span.duration <= 0.0:
            coverage[str(request_id)] = 1.0
            continue
        intervals: list[tuple[float, float]] = []
        frontier = list(children.get(span.span_id, ()))
        while frontier:
            child = frontier.pop()
            frontier.extend(children.get(child.span_id, ()))
            if child.clock != SIM_CLOCK or child.end is None:
                continue
            start = max(child.start, span.start)
            end = min(child.end, span.end)
            if end > start:
                intervals.append((start, end))
        coverage[str(request_id)] = min(
            1.0, _union_length(intervals) / span.duration
        )
    return coverage


def text_summary(spans: Sequence[Span], metrics: dict | None = None, top: int = 5) -> str:
    """A plain-text run digest: slowest requests with phase breakdowns.

    All request latencies and phase durations below are on the
    *simulated* clock (hours); decode/cache compute spans are wall-clock
    and reported separately in seconds.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    roots = [
        span
        for span in spans
        if span.parent_id is None
        and span.clock == SIM_CLOCK
        and span.end is not None
        and "request_id" in span.attributes
        and span.attributes.get("status") == "completed"
    ]
    roots.sort(key=lambda span: span.duration, reverse=True)
    lines = [
        "observability run summary",
        "  clocks: request latencies/phases = simulated hours;"
        " decode stages = wall seconds",
        f"  traced requests (completed): {len(roots)}",
    ]
    wall_total = sum(
        span.duration for span in spans if span.clock == WALL_CLOCK and span.parent_id is None
    )
    if wall_total:
        lines.append(f"  root wall-clock compute: {wall_total:.3f}s")
    lines.append(f"  top {min(top, len(roots))} slowest requests:")
    for span in roots[:top]:
        attrs = span.attributes
        lines.append(
            f"    {attrs.get('request_id')} ({span.name}, tenant"
            f" {attrs.get('tenant')}): {span.duration:.3f}h"
        )
        phases = sorted(
            (child for child in children.get(span.span_id, ()) if child.end is not None),
            key=lambda child: child.start,
        )
        for child in phases:
            if child.clock == SIM_CLOCK:
                lines.append(f"      {child.name}: {child.duration:.3f}h")
            else:
                lines.append(f"      {child.name}: {child.duration:.3f}s (wall)")
    if metrics:
        lines.append("  metrics:")
        for name in sorted(metrics):
            value = metrics[name]
            if isinstance(value, dict):
                count = value.get("count", 0)
                mean = value.get("mean")
                rendered = f"count={count}" + (
                    f" mean={mean:.3f} p95={value.get('p95'):.3f}" if count else ""
                )
            elif isinstance(value, float):
                rendered = f"{value:.4f}".rstrip("0").rstrip(".")
            else:
                rendered = str(value)
            lines.append(f"    {name}: {rendered}")
    return "\n".join(lines)


@dataclass
class RunObservability:
    """Everything a traced run observed, bundled onto its report.

    A traced :meth:`repro.service.ServicePipeline.run` attaches one of
    these to its :class:`~repro.service.simulator.PolicyReport` (the
    ``observability`` field, ``None`` when tracing is off).  It pairs the
    run's complete span list with the final
    :meth:`~repro.observability.metrics.MetricsRegistry.snapshot` and
    exposes the exporters as methods, so one object answers "where did
    the time go" in every format the tooling wants.

    Attributes:
        spans: every span the run recorded (request trees, lane
            occupancy, decode wall clock), in recording order.
        metrics: the metrics registry's snapshot — a flat JSON-able dict
            of counters, gauges and histogram summaries.
    """

    spans: list[Span] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def chrome_trace(self) -> dict:
        """The run as a Perfetto/Chrome-trace ``traceEvents`` document."""
        return chrome_trace(self.spans)

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Write the Perfetto JSON to ``path`` and return it."""
        return write_chrome_trace(self.spans, path)

    def span_coverage(self) -> dict[str, float]:
        """Per-request latency fraction explained by child spans."""
        return span_coverage(self.spans)

    def text_summary(self, top: int = 5) -> str:
        """Plain-text digest: slowest requests, phases, key metrics."""
        return text_summary(self.spans, self.metrics, top=top)

    def bench_payload(self) -> dict:
        """The JSON-able shape embedded into ``BENCH_*.json`` documents."""
        coverage = self.span_coverage()
        return {
            "span_count": len(self.spans),
            "traced_requests": len(coverage),
            "span_coverage_min": round(min(coverage.values()), 4) if coverage else None,
            "span_coverage_mean": (
                round(sum(coverage.values()) / len(coverage), 4) if coverage else None
            ),
            "metrics": self.metrics,
        }


__all__ = [
    "RunObservability",
    "chrome_trace",
    "write_chrome_trace",
    "span_coverage",
    "text_summary",
]
