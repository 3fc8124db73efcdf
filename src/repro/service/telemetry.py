"""Run telemetry: the bridge between the serving loop and observability.

:class:`RunTelemetry` is instantiated per traced
:meth:`~repro.service.simulator.ServicePipeline.run` and records the
sim-clock side of the trace — one root span per admitted request on its
tenant's track, phase children (write-barrier holds, queue wait, wetlab
cycle rides, synthesis, cache service), and per-unit lane-occupancy spans
— plus the run's :class:`~repro.observability.metrics.MetricsRegistry`
counters.  Wall-clock spans (decode workers, pipeline stages, readout
sampling) are recorded by the layers below through the ambient tracer the
pipeline activates for the event loop's extent.

Every hook is a plain method the simulator's event handlers call behind
an ``if tel is not None`` guard, so an untraced run never constructs this
object and pays nothing.  The hooks only *record* — they never touch the
event heap, RNG state or store — which is what keeps traced outcomes
byte-identical to untraced ones.  Nothing the report already counts is
counted twice: :meth:`RunTelemetry.finalize` copies those run totals
(wetlab work, retries, decode failures, synthesis volume, deadline
violations) and the lane gauges from the finished report.
"""

from __future__ import annotations

from repro.observability.export import RunObservability
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Span, Tracer


#: Metric name -> the :class:`~repro.service.simulator.PolicyReport` field
#: whose run total :meth:`RunTelemetry.finalize` copies into it.
_REPORT_COUNTERS = {
    "service.wetlab.pcr_reactions": "pcr_reactions",
    "service.wetlab.amplified_blocks": "amplified_blocks",
    "service.wetlab.sequenced_reads": "sequenced_reads",
    "service.retry.cycles": "retry_cycles",
    "service.retry.requests": "retried_requests",
    "service.decode.failures": "decode_failures",
    "service.synthesis.orders": "synthesis_orders",
    "service.synthesis.strands": "synthesized_strands",
    "service.synthesis.nucleotides": "synthesized_nucleotides",
    "service.qos.deadline_violations": "deadline_violations",
}


class RunTelemetry:
    """Span and metric recording for one traced pipeline run."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        #: request_id -> open root span (closed on serve/ack/failure).
        self._roots: dict[int, Span] = {}
        #: request_id -> open write_barrier span (held reads).
        self._barriers: dict[int, Span] = {}
        #: request_id -> open queue_wait span.
        self._queued: dict[int, Span] = {}
        #: request_id -> open synthesis span (dispatched writes).
        self._synthesis: dict[int, Span] = {}

    # ------------------------------------------------------------------
    # Request lifecycle (sim clock)
    # ------------------------------------------------------------------
    def admitted(self, request, now: float) -> None:
        """Open the request's root span on its tenant's track."""
        self._roots[request.request_id] = self.tracer.begin(
            f"{request.op} {request.object_name}",
            start=now,
            track=f"tenant:{request.tenant}",
            parent=None,
            request_id=request.request_id,
            tenant=request.tenant,
            op=request.op,
        )
        self.metrics.counter("service.requests.admitted").inc()

    def held(self, request, now: float) -> None:
        """The read is behind an outstanding write on its object."""
        root = self._roots.get(request.request_id)
        if root is not None:
            self._barriers[request.request_id] = self.tracer.begin(
                "write_barrier", start=now, parent=root
            )
        self.metrics.counter("service.requests.barrier_held").inc()

    def released(self, request, now: float) -> None:
        """The write barrier cleared; the read re-enters admission."""
        span = self._barriers.pop(request.request_id, None)
        if span is not None:
            self.tracer.finish(span, now)

    def queued(self, request, now: float) -> None:
        """The request entered the scheduling queue."""
        root = self._roots.get(request.request_id)
        if root is not None:
            self._queued[request.request_id] = self.tracer.begin(
                "queue_wait", start=now, parent=root
            )

    def dispatched(self, request, now: float) -> None:
        """The request left the queue (batch dispatch / write pump)."""
        span = self._queued.pop(request.request_id, None)
        if span is not None:
            self.tracer.finish(span, now)
            self.metrics.histogram("service.queue.wait_hours").observe(
                span.duration
            )

    def front_end(self, request, now: float, end: float, name: str) -> None:
        """A front-end serve phase (cache hit / empty read), no wetlab."""
        root = self._roots.get(request.request_id)
        if root is not None:
            self.tracer.record(name, start=now, end=end, parent=root)

    def batch_scheduled(self, batch, queue_depth: int, now: float) -> None:
        """A dispatch fired: one scheduled batch left a queue of this depth."""
        self.metrics.histogram("service.queue.depth_at_dispatch").observe(
            queue_depth
        )
        self.metrics.histogram("service.batch.occupancy").observe(
            len(batch.requests)
        )

    def cycle(
        self,
        batch,
        riders,
        schedule,
        now: float,
        end: float,
        attempt: int,
        reads_per_block: int,
    ) -> None:
        """A wetlab cycle went on the lane pool; completion is booked.

        Records one ``wetlab_cycle`` child per riding request and one
        lane-occupancy span per readout unit on its lane's track.  The
        schedule's times are *absolute* sim hours on the shared pool; a
        unit that started after dispatch waited behind an earlier cycle's
        work on its lane, recorded as a ``lane_wait`` span and the
        ``service.lane.queue_hours`` histogram.
        """
        for request in riders:
            root = self._roots.get(request.request_id)
            if root is None:
                continue
            self.tracer.record(
                "wetlab_cycle",
                start=now,
                end=end,
                parent=root,
                batch_id=batch.batch_id,
                attempt=attempt,
                reads_per_block=reads_per_block,
            )
        for access, (lane, start, stop) in zip(batch.plan.accesses, schedule):
            wait = start - now
            if wait > 1e-9:
                self.tracer.record(
                    "lane_wait",
                    start=now,
                    end=start,
                    track=f"lane:{lane}",
                    parent=None,
                    batch_id=batch.batch_id,
                    partition=access.partition,
                )
            self.metrics.histogram("service.lane.queue_hours").observe(
                max(wait, 0.0)
            )
            self.tracer.record(
                f"unit:{access.partition}",
                start=start,
                end=stop,
                track=f"lane:{lane}",
                parent=None,
                batch_id=batch.batch_id,
                attempt=attempt,
                blocks=access.block_count,
            )
            self.metrics.histogram("service.lane.unit_hours").observe(
                stop - start
            )
        self.metrics.counter("service.wetlab.cycles").inc()
        self.metrics.histogram("service.wetlab.cycle_hours").observe(end - now)

    # ------------------------------------------------------------------
    # Tenant QoS (admission decisions, deadlines)
    # ------------------------------------------------------------------
    def qos_decision(self, decision, now: float) -> None:
        """One admission window's QoS verdicts, counted per tenant.

        Throttled/deferred are *event* counts (a request deferred across
        three windows counts three times — each window it waited).
        """
        admitted: dict[str, int] = {}
        for request in decision.admitted:
            admitted[request.tenant] = admitted.get(request.tenant, 0) + 1
        for verdict, by_tenant in (
            ("admitted", admitted),
            ("throttled", decision.throttled),
            ("deferred", decision.deferred),
        ):
            if not by_tenant:
                continue
            self.metrics.counter(f"service.qos.{verdict}").inc(
                sum(by_tenant.values())
            )
            for tenant, count in by_tenant.items():
                self.metrics.counter(f"service.qos.{verdict}.{tenant}").inc(count)

    def deadline_violation(self, request, completion: float) -> None:
        """A served read overran its deadline budget (counted, not dropped)."""
        self.metrics.counter(
            f"service.qos.deadline_violations.{request.tenant}"
        ).inc()

    def synthesis_dispatched(self, order, now: float) -> None:
        """A synthesis order went to the vendor; open per-write spans."""
        for outcome in order.applied:
            root = self._roots.get(outcome.request.request_id)
            if root is not None:
                self._synthesis[outcome.request.request_id] = self.tracer.begin(
                    "synthesis",
                    start=now,
                    parent=root,
                    order_id=order.order_id,
                )

    def synthesis_committed(self, order, now: float) -> None:
        """The order delivered; close its writes' synthesis spans."""
        dispatched_at = None
        for outcome in order.applied:
            span = self._synthesis.pop(outcome.request.request_id, None)
            if span is not None:
                dispatched_at = span.start
                self.tracer.finish(span, now)
        if dispatched_at is not None:
            self.metrics.histogram("service.synthesis.order_hours").observe(
                now - dispatched_at
            )

    def served(
        self, request, completion: float, *, from_cache: bool, attempts: int
    ) -> None:
        """The request delivered; close its root span as completed."""
        root = self._roots.pop(request.request_id, None)
        if root is None:
            return
        root.attributes["status"] = "completed"
        root.attributes["from_cache"] = from_cache
        if attempts > 1:
            root.attributes["attempts"] = attempts
        self.tracer.finish(root, completion)
        kind = "write" if request.is_write else "read"
        self.metrics.counter(f"service.requests.completed.{kind}").inc()
        self.metrics.histogram(
            f"service.request.{kind}_latency_sim_hours"
        ).observe(completion - request.arrival_hours)

    def failed(self, request_id: int, now: float, reason: str) -> None:
        """The request was rejected; close its spans as failed."""
        for pending in (self._barriers, self._queued, self._synthesis):
            span = pending.pop(request_id, None)
            if span is not None:
                self.tracer.finish(span, now)
        root = self._roots.pop(request_id, None)
        if root is not None:
            root.attributes["status"] = "failed"
            root.attributes["reason"] = reason
            self.tracer.finish(root, now)
        self.metrics.counter("service.requests.failed").inc()

    # ------------------------------------------------------------------
    # Run finalization
    # ------------------------------------------------------------------
    def finalize(
        self, report, stage_seconds: dict[str, float] | None = None
    ) -> RunObservability:
        """Snapshot the finished run into a :class:`RunObservability` bundle.

        Open spans (there should be none after a clean run) are left
        open; the exporter drops them.  The run totals the
        :class:`~repro.service.simulator.PolicyReport` already counts
        (:data:`_REPORT_COUNTERS`) are copied from it, so they equal the
        report by construction; a total that stayed 0 reads 0.  Gauges
        describe end-of-run state: lane-pool shape, true per-lane busy
        hours and utilization (the report's, over its horizon), the
        decode stages' aggregate wall seconds, and whether the report's
        policy caches decoded blocks.
        """
        for name, field_name in _REPORT_COUNTERS.items():
            self.metrics.counter(name).inc(getattr(report, field_name))
        self.metrics.gauge("service.run.makespan_sim_hours").set(report.makespan_hours)
        self.metrics.gauge("service.lanes.count").set(report.wetlab_lanes)
        for lane, (busy, utilization) in enumerate(
            zip(report.lane_busy_hours_by_lane, report.lane_utilization_by_lane)
        ):
            self.metrics.gauge(f"service.lane.{lane}.busy_sim_hours").set(busy)
            self.metrics.gauge(f"service.lane.{lane}.utilization").set(utilization)
        for name, seconds in (stage_seconds or {}).items():
            self.metrics.gauge(f"decode.stage_wall_seconds.{name}").set(seconds)
        self.metrics.gauge("service.run.policy_is_cached").set(
            1.0 if report.policy == "batched+cache" else 0.0
        )
        return RunObservability(
            spans=list(self.tracer.spans), metrics=self.metrics.snapshot()
        )


__all__ = ["RunTelemetry"]
