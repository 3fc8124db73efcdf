"""Span tracing for the serving stack: one span tree per request.

A :class:`Tracer` collects :class:`Span` records describing where a
request's time went — enqueue, scheduling wait, wetlab cycle rides, lane
occupancy, decode stages, cache service — across *two clocks that are
never mixed*:

* ``SIM_CLOCK`` — simulated hours of the discrete-event serving pipeline
  (arrivals, scheduling windows, PCR/sequencing/synthesis latencies);
* ``WALL_CLOCK`` — host ``perf_counter`` seconds of the actual compute
  (clustering, consensus, Reed-Solomon, cache fills).

Every span carries its clock explicitly; the Perfetto exporter
(:mod:`repro.observability.export`) renders the two clock domains as
separate process groups so a viewer can never misread one for the other.

Tracing is **off by default and near-free when off**: every
instrumentation site guards on ``tracer is None`` (or the module-level
:func:`current_tracer`, one global read), allocates nothing, and never
perturbs simulation state — enabling tracing must not (and does not)
change request outcomes.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator

from repro import envflags

#: Clock domains a span can live on (never mixed within one span).
SIM_CLOCK = "sim_hours"
WALL_CLOCK = "wall_seconds"


def tracing_enabled(flag: bool | None = None) -> bool:
    """Resolve the tracing switch: explicit flag, then ``REPRO_TRACING``.

    Tracing defaults **off**; set ``REPRO_TRACING=1`` (or pass
    ``ServiceConfig(tracing=True)``) to enable it.
    """
    if flag is not None:
        return flag
    return envflags.enabled("REPRO_TRACING")


def wall_now() -> float:
    """The wall clock's single read point (host ``perf_counter`` seconds).

    Every wall-clock measurement outside this package routes through here
    (or through :func:`~repro.observability.stages.stage`), so the
    :data:`WALL_CLOCK` domain has exactly one definition — reprolint rule
    ``RL002`` keeps raw ``time.*`` reads out of the rest of ``src/repro``.
    """
    return perf_counter()


@dataclass
class Span:
    """One timed region on one track of one clock.

    Attributes:
        span_id: tracer-local id.
        parent_id: enclosing span's id, or ``None`` for a root span.
        name: what the region is ("read obj-3", "queue_wait", "cluster").
        track: the timeline the span renders on — ``tenant:<name>``,
            ``lane:<index>``, ``service``.
        clock: :data:`SIM_CLOCK` (simulated hours) or :data:`WALL_CLOCK`
            (host seconds); start/end are on this clock only.
        start / end: span extent on ``clock`` (``end=None`` = still open).
        attributes: free-form JSON-able annotations (request id, batch
            id, block counts, failure reasons, ...).
    """

    span_id: int
    parent_id: int | None
    name: str
    track: str
    clock: str
    start: float
    end: float | None = None
    attributes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length on its clock (0 while the span is open)."""
        if self.end is None:
            return 0.0
        return max(0.0, self.end - self.start)


#: Sentinel: "parent defaults to the tracer's current wall-span scope".
_CURRENT = object()


class Tracer:
    """Collects one run's spans (sim-clock and wall-clock).

    Sim-clock spans are recorded with explicit timestamps (the event loop
    knows exactly when things started and ended); wall-clock spans use
    :meth:`wall_span`, which also maintains a scope stack so nested
    regions (decode task → cluster/consensus/syndrome stages) parent
    automatically.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stack: list[Span] = []

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def current(self) -> Span | None:
        """The innermost open :meth:`wall_span` scope, if any."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        *,
        start: float,
        track: str | None = None,
        clock: str = SIM_CLOCK,
        parent: Span | None | object = _CURRENT,
        **attributes,
    ) -> Span:
        """Open a span (close it with :meth:`finish`).

        ``parent`` defaults to the current wall-span scope; pass an
        explicit span (or ``None`` for a root).  ``track`` defaults to
        the parent's track (``"service"`` for parentless spans).
        """
        parent_span = self.current if parent is _CURRENT else parent
        if track is None:
            track = parent_span.track if parent_span is not None else "service"
        span = Span(
            span_id=next(self._ids),
            parent_id=parent_span.span_id if parent_span is not None else None,
            name=name,
            track=track,
            clock=clock,
            start=start,
            attributes=dict(attributes),
        )
        self.spans.append(span)
        return span

    def finish(self, span: Span, end: float) -> None:
        """Close an open span at ``end`` (on the span's clock)."""
        span.end = end

    def record(
        self,
        name: str,
        *,
        start: float,
        end: float,
        track: str | None = None,
        clock: str = SIM_CLOCK,
        parent: Span | None | object = _CURRENT,
        **attributes,
    ) -> Span:
        """Record a complete span in one call."""
        span = self.begin(
            name, start=start, track=track, clock=clock, parent=parent, **attributes
        )
        span.end = end
        return span

    @contextmanager
    def wall_span(
        self,
        name: str,
        *,
        track: str | None = None,
        parent: Span | None | object = _CURRENT,
        **attributes,
    ) -> Iterator[Span]:
        """Time a wall-clock region, scoping nested spans under it."""
        span = self.begin(
            name,
            start=perf_counter(),
            track=track,
            clock=WALL_CLOCK,
            parent=parent,
            **attributes,
        )
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = perf_counter()


# ----------------------------------------------------------------------
# Ambient tracer (stage-timing-collector style)
# ----------------------------------------------------------------------
_active: Tracer | None = None


def current_tracer() -> Tracer | None:
    """The tracer active in this process, or ``None`` (tracing off)."""
    return _active


@contextmanager
def activate(tracer: Tracer | None) -> Iterator[Tracer | None]:
    """Make ``tracer`` ambient for the dynamic extent of the block.

    ``activate(None)`` explicitly disables ambient tracing for the block.
    """
    global _active
    previous = _active
    _active = tracer
    try:
        yield tracer
    finally:
        _active = previous


@contextmanager
def maybe_wall_span(name: str, **kwargs) -> Iterator[Span | None]:
    """A wall span on the ambient tracer; a no-op when tracing is off.

    The zero-cost hook libraries below the service layer (store decode,
    wetlab readout) use so they need no tracer plumbing in their APIs.
    """
    tracer = _active
    if tracer is None:
        yield None
        return
    with tracer.wall_span(name, **kwargs) as span:
        yield span


__all__ = [
    "SIM_CLOCK",
    "WALL_CLOCK",
    "Span",
    "Tracer",
    "activate",
    "current_tracer",
    "maybe_wall_span",
    "tracing_enabled",
    "wall_now",
]
