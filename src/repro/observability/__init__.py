"""repro.observability — tracing, metrics and timeline export for the stack.

The cross-cutting visibility layer the serving architecture lacked: one
span tree per :class:`~repro.service.requests.ServiceRequest`, one
:class:`MetricsRegistry` every layer records into, and exporters that
render a run as a Perfetto/Chrome-trace timeline, a plain-text digest,
or a JSON-able snapshot for ``BENCH_*.json``.

* :mod:`repro.observability.tracing` — :class:`Tracer` / :class:`Span`:
  sim-clock and wall-clock span trees.
* :mod:`repro.observability.metrics` — :class:`MetricsRegistry` of
  counters, gauges and histograms, snapshot-able per run.
* :mod:`repro.observability.stages` — the per-stage wall-clock collector
  of the decode hot path.
* :mod:`repro.observability.export` — Chrome-trace/Perfetto JSON, span
  coverage, text run summaries, and the :class:`RunObservability`
  bundle a traced :meth:`~repro.service.ServicePipeline.run` attaches to
  its report.

Tracing defaults **off** (``ServiceConfig(tracing=True)`` or
``REPRO_TRACING=1`` to enable) and is engineered to be near-free when
disabled; enabling it never changes request outcomes.

Zero dependencies — pure Python, importable with or without numpy.
"""

from repro.observability.export import (
    RunObservability,
    chrome_trace,
    span_coverage,
    text_summary,
    write_chrome_trace,
)
from repro.observability.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.observability.stages import (
    STAGES,
    collect_stages,
    orchestration_seconds,
    record_stages,
    stage,
)
from repro.observability.tracing import (
    SIM_CLOCK,
    WALL_CLOCK,
    Span,
    Tracer,
    activate,
    current_tracer,
    maybe_wall_span,
    tracing_enabled,
)

__all__ = [
    "SIM_CLOCK",
    "STAGES",
    "WALL_CLOCK",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunObservability",
    "Span",
    "Tracer",
    "activate",
    "chrome_trace",
    "collect_stages",
    "current_tracer",
    "maybe_wall_span",
    "orchestration_seconds",
    "record_stages",
    "span_coverage",
    "stage",
    "text_summary",
    "tracing_enabled",
    "write_chrome_trace",
]
