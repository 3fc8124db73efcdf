"""Per-stage wall-clock accounting for the decode hot path.

The serving pipeline and the benchmarks want to know where a readout
decode spends its time — clustering, consensus, Reed-Solomon
syndrome/solve — on top of the end-to-end number.  A global collector
keeps the hot path free of plumbing: the caller opens
:func:`collect_stages` around a decode, the pipeline brackets its phases
with :func:`stage`, and everything recorded in between lands in the
collector's dict.  When no collector is active, :func:`stage` is a no-op
``yield``, so ordinary decodes pay nothing.

On top of the aggregate dict, :func:`stage` also emits a wall-clock
:class:`~repro.observability.tracing.Span` when an ambient tracer is
active, so traced runs get *individual* stage regions (nested under
whatever decode span is open) while the collector keeps the cheap
per-run totals.

The collector is process-global, and the ``stage`` regions in the
pipeline never nest.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

from repro.observability.tracing import WALL_CLOCK, current_tracer

#: Stage keys the decode pipeline reports, in pipeline order.  Everything
#: not bracketed (read filtering, strand parsing, candidate collection,
#: scheduling) is the caller's "orchestration" remainder.
STAGES = ("cluster", "consensus", "syndrome_solve")

_collector: dict[str, float] | None = None


@contextmanager
def collect_stages() -> Iterator[dict[str, float]]:
    """Collect stage timings for the dynamic extent of the block.

    Yields the dict that accumulates ``{stage_name: seconds}``; it keeps
    its contents after the block exits.  Entering while another collection
    is active redirects recording to the new collector and restores the
    previous one on exit.
    """
    global _collector
    previous = _collector
    _collector = {}
    try:
        yield _collector
    finally:
        _collector = previous


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Attribute the block's wall time to ``name`` in the active collector.

    With an ambient tracer active, the region is also recorded as a
    wall-clock span (child of the tracer's current scope).
    """
    tracer = current_tracer()
    if _collector is None and tracer is None:
        yield
        return
    span = tracer.begin(name, start=perf_counter(), clock=WALL_CLOCK) if tracer else None
    begin = perf_counter()
    try:
        yield
    finally:
        elapsed = perf_counter() - begin
        if span is not None:
            span.end = span.start + elapsed
        if _collector is not None:
            _collector[name] = _collector.get(name, 0.0) + elapsed


def record_stages(stages: dict[str, float]) -> None:
    """Add an already-collected stage breakdown into the active collector.

    A serving run collects its stages in its own collector, which
    shadows any the caller opened; it calls this on the way out to fold
    them into the caller's collection.  No-op without one.
    """
    if _collector is None or not stages:
        return
    for name, seconds in stages.items():
        _collector[name] = _collector.get(name, 0.0) + seconds


def orchestration_seconds(total: float, stages: dict[str, float]) -> float:
    """The unattributed remainder of a timed decode (never negative)."""
    return max(0.0, total - sum(stages.values()))


__all__ = [
    "STAGES",
    "collect_stages",
    "stage",
    "record_stages",
    "orchestration_seconds",
]
