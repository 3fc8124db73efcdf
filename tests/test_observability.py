"""Tests for the observability subsystem (tracing, metrics, export).

The load-bearing guarantee: **tracing never changes outcomes**.  A traced
:meth:`ServicePipeline.run` must deliver byte-identical results to an
untraced one under every policy (and at wetlab fidelity), while
producing a span tree that explains >= 95% of every request's latency
and exports as valid Chrome-trace/Perfetto JSON.

Unit coverage: span trees, the metrics registry's instrument kinds and
collectors, the stage-timing shim's shared collector, the two-clock
Perfetto export, and the cache's normalized metrics view.
"""

import json

import pytest

from repro.exceptions import ObservabilityError
from repro.observability import (
    SIM_CLOCK,
    STAGES,
    WALL_CLOCK,
    MetricsRegistry,
    RunObservability,
    Span,
    Tracer,
    activate,
    chrome_trace,
    collect_stages,
    current_tracer,
    maybe_wall_span,
    record_stages,
    span_coverage,
    stage,
    text_summary,
    tracing_enabled,
)
from repro.service import (
    POLICIES,
    DecodedBlockCache,
    ServiceConfig,
    ServicePipeline,
)
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads import RequestEvent
from repro.workloads.objects import object_corpus


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_record_and_finish_sim_spans(self):
        tracer = Tracer()
        root = tracer.begin(
            "read obj", start=1.0, track="tenant:t0", parent=None, request_id=0
        )
        child = tracer.record("queue_wait", start=1.0, end=1.5, parent=root)
        tracer.finish(root, 2.0)
        assert root.clock == SIM_CLOCK and root.duration == 1.0
        assert child.parent_id == root.span_id
        assert child.track == "tenant:t0"  # inherits the parent's track

    def test_wall_span_scope_nesting(self):
        tracer = Tracer()
        with tracer.wall_span("outer") as outer:
            with tracer.wall_span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None
        assert inner.parent_id == outer.span_id
        assert outer.clock == WALL_CLOCK and outer.duration > 0.0

    def test_activate_and_maybe_wall_span(self):
        assert current_tracer() is None
        with maybe_wall_span("noop") as span:
            assert span is None  # no-op when tracing is off
        tracer = Tracer()
        with activate(tracer):
            assert current_tracer() is tracer
            with maybe_wall_span("work", blocks=3) as span:
                assert span is not None
            with activate(None):  # an explicit None switches tracing off
                assert current_tracer() is None
        assert current_tracer() is None
        assert [span.name for span in tracer.spans] == ["work"]
        assert tracer.spans[0].attributes["blocks"] == 3

    def test_tracing_enabled_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACING", raising=False)
        assert tracing_enabled() is False
        assert tracing_enabled(True) is True
        assert tracing_enabled(False) is False
        monkeypatch.setenv("REPRO_TRACING", "1")
        assert tracing_enabled() is True
        assert tracing_enabled(False) is False  # explicit flag wins
        monkeypatch.setenv("REPRO_TRACING", "off")
        assert tracing_enabled() is False


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_instruments_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("service.hits").inc()
        registry.counter("service.hits").inc(2)
        registry.gauge("service.lanes").set(4)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("service.depth").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["service.hits"] == 3.0
        assert snapshot["service.lanes"] == 4.0
        assert snapshot["service.depth"]["count"] == 4
        assert snapshot["service.depth"]["mean"] == 2.5
        assert snapshot["service.depth"]["min"] == 1.0
        assert snapshot["service.depth"]["max"] == 4.0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")

    def test_counter_cannot_decrease(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().counter("c").inc(-1)

    def test_collector_polled_at_snapshot(self):
        registry = MetricsRegistry()
        state = {"hits": 0}
        registry.register_collector("cache", lambda: dict(state))
        state["hits"] = 7
        assert registry.snapshot()["cache.hits"] == 7
        with pytest.raises(ObservabilityError):
            registry.register_collector("cache", dict)


# ----------------------------------------------------------------------
# Stage timing
# ----------------------------------------------------------------------
class TestStages:
    def test_stage_emits_span_under_active_tracer(self):
        tracer = Tracer()
        with activate(tracer), collect_stages() as stages:
            with tracer.wall_span("decode:task"):
                with stage("consensus"):
                    pass
        assert "consensus" in stages
        names = [span.name for span in tracer.spans]
        assert names == ["decode:task", "consensus"]
        assert tracer.spans[1].parent_id == tracer.spans[0].span_id

    def test_record_stages_accumulates(self):
        with collect_stages() as stages:
            record_stages({"cluster": 1.0, "consensus": 0.5})
            record_stages({"cluster": 0.25})
        assert stages == {"cluster": 1.25, "consensus": 0.5}
        record_stages({"cluster": 9.0})  # no active collector: no-op


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def _sample_spans() -> list[Span]:
    tracer = Tracer()
    root = tracer.begin(
        "read obj-0",
        start=0.0,
        track="tenant:alpha",
        parent=None,
        request_id=0,
        tenant="alpha",
        status="completed",
    )
    tracer.record("queue_wait", start=0.0, end=0.5, parent=root)
    tracer.record("wetlab_cycle", start=0.5, end=2.0, parent=root)
    tracer.finish(root, 2.0)
    tracer.record(
        "unit:p0", start=0.5, end=2.0, track="lane:0", parent=None, clock=SIM_CLOCK
    )
    with tracer.wall_span("decode:p0"):
        pass
    return tracer.spans


class TestExport:
    def test_chrome_trace_schema(self):
        doc = chrome_trace(_sample_spans())
        json.dumps(doc)  # must be JSON-able
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert all(e["ph"] in ("M", "X") for e in events)
        # Two clock domains render as two named process groups.
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in meta
            if e["name"] == "process_name"
        }
        assert "hours" in process_names[1] and "seconds" in process_names[2]
        track_names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert {"tenant:alpha", "lane:0", "service"} <= track_names
        for event in complete:
            assert set(event) >= {"name", "pid", "tid", "ts", "dur", "args"}
            assert event["args"]["clock"] in (SIM_CLOCK, WALL_CLOCK)
            assert event["dur"] >= 0.0
        # Sim-clock and wall-clock events never share a pid.
        sim_pids = {e["pid"] for e in complete if e["args"]["clock"] == SIM_CLOCK}
        wall_pids = {e["pid"] for e in complete if e["args"]["clock"] == WALL_CLOCK}
        assert sim_pids.isdisjoint(wall_pids)

    def test_span_coverage(self):
        tracer = Tracer()
        root = tracer.begin(
            "read", start=0.0, track="tenant:a", parent=None, request_id=7
        )
        tracer.record("phase", start=0.0, end=0.5, parent=root)
        tracer.record("phase", start=0.25, end=1.0, parent=root)  # overlap unioned
        tracer.finish(root, 2.0)
        instant = tracer.begin(
            "cache read", start=3.0, track="tenant:a", parent=None, request_id=8
        )
        tracer.finish(instant, 3.0)
        coverage = span_coverage(tracer.spans)
        assert coverage["7"] == pytest.approx(0.5)
        assert coverage["8"] == 1.0  # zero-duration roots count as covered

    def test_text_summary_names_its_clocks(self):
        summary = text_summary(_sample_spans(), {"service.hits": 3.0}, top=5)
        assert "simulated hours" in summary
        assert "read obj-0" in summary
        assert "service.hits" in summary

    def test_run_observability_bench_payload(self):
        obs = RunObservability(spans=_sample_spans(), metrics={"m": 1.0})
        payload = obs.bench_payload()
        assert payload["span_count"] == len(obs.spans)
        assert payload["traced_requests"] == 1
        assert payload["span_coverage_min"] == 1.0
        assert payload["metrics"] == {"m": 1.0}
        json.dumps(payload)


# ----------------------------------------------------------------------
# Cache metrics view
# ----------------------------------------------------------------------
class TestCacheMetrics:
    def test_metrics_view_normalizes_stats(self):
        cache = DecodedBlockCache(1024)
        cache.put("p", 0, b"x" * 16)
        cache.get("p", 0)
        cache.get("p", 1)
        view = cache.metrics_view()
        assert view["hits"] == 1 and view["misses"] == 1
        assert view["hit_rate"] == 0.5 and view["lookups"] == 2
        assert view["insertions"] == 1
        assert view["used_bytes"] == 16 and view["entries"] == 1
        assert view["capacity_bytes"] == 1024
        # The object-level stats view stays authoritative.
        assert view["hits"] == cache.stats.hits
        assert cache.stats.as_dict()["hit_rate"] == 0.5

    def test_bind_metrics_exposes_lazy_collector(self):
        cache = DecodedBlockCache(1024)
        registry = MetricsRegistry()
        cache.bind_metrics(registry)
        cache.put("p", 0, b"x" * 8)
        cache.get("p", 0)
        snapshot = registry.snapshot()
        assert snapshot["service.cache.hits"] == 1
        assert snapshot["service.cache.used_bytes"] == 8


# ----------------------------------------------------------------------
# Service integration: tracing must not change outcomes
# ----------------------------------------------------------------------
def build_store(objects=4):
    volume = DnaVolume(
        config=VolumeConfig(
            partition_leaf_count=32, stripe_blocks=2, stripe_width=2,
            slots_per_block=4,
        )
    )
    store = ObjectStore(volume)
    corpus = object_corpus(
        {f"obj-{i}": volume.block_size * (1 + i % 3) for i in range(objects)},
        seed=7,
    )
    for name, data in corpus.items():
        store.put(name, data)
    return store


def mixed_trace(block_size):
    """Reads, repeats (cache hits), a write with a read behind it, a
    zero-length read, and a malformed read — every span path at once."""
    events = [
        RequestEvent(
            time_hours=0.05 * i,
            tenant=f"t{i % 3}",
            object_name=f"obj-{i % 3}",
            offset=0,
            length=64,
        )
        for i in range(18)
    ]
    events.append(
        RequestEvent(
            time_hours=0.3, tenant="w0", object_name="obj-0",
            op="update", payload=b"TRACE-TEST-PATCH",
        )
    )
    events.append(
        RequestEvent(time_hours=0.35, tenant="t1", object_name="obj-0", length=32)
    )
    events.append(
        RequestEvent(time_hours=0.4, tenant="t2", object_name="obj-1", length=0)
    )
    events.append(
        RequestEvent(time_hours=0.5, tenant="t0", object_name="missing", length=8)
    )
    return events


def outcome_key(report):
    return (
        report.checksum,
        tuple(
            (c.request.request_id, c.completion_hours, c.checksum, c.attempts)
            for c in report.completed
        ),
        tuple((f.request_id, f.arrival_hours, f.reason) for f in report.failed),
        report.pcr_reactions,
        report.sequenced_reads,
        report.lane_busy_hours_by_lane,
    )


class TestTracedServiceRuns:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_traced_byte_identical_reference(self, policy):
        def injector(cycle_id, attempt, key):
            return attempt == 1 and cycle_id == 0 and key[1] % 7 == 0

        def run(tracing):
            store = build_store()
            config = ServiceConfig(
                retry_budget=2,
                decode_failure_injector=injector,
                tracing=tracing,
            )
            pipeline = ServicePipeline(store, config=config)
            return pipeline.run(mixed_trace(store.volume.block_size), policy)

        traced = run(True)
        untraced = run(False)
        assert untraced.observability is None
        assert outcome_key(traced) == outcome_key(untraced)

        obs = traced.observability
        assert obs is not None
        coverage = obs.span_coverage()
        assert len(coverage) == len(traced.completed) + len(traced.failed)
        assert min(coverage.values()) >= 0.95
        json.dumps(obs.chrome_trace())

    def test_report_states_its_clock_and_lane_busy(self):
        store = build_store()
        report = ServicePipeline(store, config=ServiceConfig()).run(
            mixed_trace(store.volume.block_size), "batched"
        )
        assert report.latency_clock == "sim_hours"
        assert len(report.lane_busy_hours_by_lane) == report.wetlab_lanes
        assert sum(report.lane_busy_hours_by_lane) == pytest.approx(
            report.lane_busy_hours
        )
        assert len(report.lane_utilization_by_lane) == report.wetlab_lanes

    def test_env_variable_enables_tracing(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACING", "1")
        store = build_store(objects=2)
        report = ServicePipeline(store, config=ServiceConfig()).run(
            [RequestEvent(time_hours=0.0, tenant="t", object_name="obj-0", length=16)],
            "batched",
        )
        assert report.observability is not None
        assert report.observability.metrics["service.requests.admitted"] == 1

    def test_disabled_tracing_leaves_no_trace(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACING", raising=False)
        store = build_store(objects=2)
        report = ServicePipeline(store, config=ServiceConfig()).run(
            [RequestEvent(time_hours=0.0, tenant="t", object_name="obj-0", length=16)],
            "batched",
        )
        assert report.observability is None
        assert current_tracer() is None

    def test_traced_metrics_match_report(self):
        store = build_store()
        report = ServicePipeline(
            store, config=ServiceConfig(tracing=True)
        ).run(mixed_trace(store.volume.block_size), "batched+cache")
        metrics = report.observability.metrics
        assert metrics["service.requests.admitted"] == len(report.completed) + len(
            report.failed
        )
        # Run totals come from the report itself; ones that stayed 0 read 0.
        for name, value in (
            ("service.wetlab.pcr_reactions", report.pcr_reactions),
            ("service.wetlab.amplified_blocks", report.amplified_blocks),
            ("service.wetlab.sequenced_reads", report.sequenced_reads),
            ("service.retry.cycles", report.retry_cycles),
            ("service.retry.requests", report.retried_requests),
            ("service.decode.failures", report.decode_failures),
            ("service.synthesis.orders", report.synthesis_orders),
            ("service.synthesis.strands", report.synthesized_strands),
            ("service.synthesis.nucleotides", report.synthesized_nucleotides),
            ("service.qos.deadline_violations", report.deadline_violations),
        ):
            assert metrics[name] == value, name
        assert metrics["service.cache.hits"] == report.cache.hits
        assert metrics["service.lanes.count"] == report.wetlab_lanes
        for lane, (busy, utilization) in enumerate(
            zip(report.lane_busy_hours_by_lane, report.lane_utilization_by_lane)
        ):
            assert metrics[f"service.lane.{lane}.busy_sim_hours"] == busy
            assert metrics[f"service.lane.{lane}.utilization"] == utilization

    @pytest.mark.parametrize(
        ("policy", "expected"),
        [("batched+cache", 1.0), ("batched", 0.0), ("unbatched", 0.0)],
    )
    def test_policy_is_cached_gauge(self, policy, expected):
        store = build_store()
        report = ServicePipeline(
            store, config=ServiceConfig(tracing=True)
        ).run(mixed_trace(store.volume.block_size), policy)
        assert report.observability.metrics["service.run.policy_is_cached"] == expected

    def test_text_summary_renders_for_traced_run(self):
        store = build_store()
        report = ServicePipeline(
            store, config=ServiceConfig(tracing=True)
        ).run(mixed_trace(store.volume.block_size), "batched")
        summary = report.observability.text_summary(top=3)
        assert "simulated hours" in summary
        assert "slowest requests" in summary


# ----------------------------------------------------------------------
# Traced inline decode
# ----------------------------------------------------------------------
class TestTracedDecode:
    def test_traced_decode_is_byte_identical(self, decode_workload):
        store, blocks, reads = decode_workload
        assert current_tracer() is None
        untraced = store.try_decode_blocks(blocks, reads)
        assert not untraced[1] and untraced[0]
        tracer = Tracer()
        with activate(tracer):
            traced = store.try_decode_blocks(blocks, reads)
        assert traced == untraced

    def test_one_decode_span_per_partition_holds_its_stages(self, decode_workload):
        store, blocks, reads = decode_workload
        tracer = Tracer()
        with activate(tracer):
            store.try_decode_blocks(blocks, reads)
        decode_spans = {
            span.span_id: span
            for span in tracer.spans
            if span.name.startswith("decode:")
        }
        assert sorted(span.name for span in decode_spans.values()) == sorted(
            f"decode:{name}" for name in blocks
        )
        for span in decode_spans.values():
            name = span.name.removeprefix("decode:")
            assert span.clock == WALL_CLOCK and span.parent_id is None
            assert span.attributes == {
                "blocks": len(blocks[name]),
                "reads": len(reads[name]),
            }
        stage_spans = [span for span in tracer.spans if span.name in STAGES]
        assert {span.name for span in stage_spans} == set(STAGES)
        for span in stage_spans:
            assert span.clock == WALL_CLOCK
            assert span.parent_id in decode_spans


# ----------------------------------------------------------------------
# Traced wetlab fidelity (numpy only)
# ----------------------------------------------------------------------
@pytest.mark.skipif(not _numpy_available(), reason="wetlab fidelity needs numpy")
class TestTracedWetlab:
    def test_traced_wetlab_byte_identical(self):
        def run(tracing):
            volume = DnaVolume(
                config=VolumeConfig(
                    partition_leaf_count=16, stripe_blocks=2, stripe_width=2
                )
            )
            store = ObjectStore(volume)
            corpus = object_corpus(
                {f"obj-{i}": volume.block_size * (1 + i % 2) for i in range(3)},
                seed=11,
            )
            for name, data in corpus.items():
                store.put(name, data)
            config = ServiceConfig(reads_per_block=150, tracing=tracing)
            trace = [
                RequestEvent(
                    time_hours=0.1 * i,
                    tenant=f"t{i % 2}",
                    object_name=f"obj-{i % 3}",
                    offset=0,
                    length=48,
                )
                for i in range(6)
            ]
            return ServicePipeline(store, config=config).run(
                trace, "batched+cache", fidelity="wetlab"
            )

        traced = run(True)
        untraced = run(False)
        assert traced.failed == () == untraced.failed
        assert outcome_key(traced) == outcome_key(untraced)
        obs = traced.observability
        coverage = obs.span_coverage()
        assert coverage and min(coverage.values()) >= 0.95
        # Each cycle's decode is on the wall clock, one span per
        # partition, with its stages inside.
        assert any(span.name.startswith("decode:") for span in obs.spans)
        assert any(span.name in STAGES for span in obs.spans)
        json.dumps(obs.chrome_trace())


# ----------------------------------------------------------------------
# Disabled-mode overhead smoke
# ----------------------------------------------------------------------
class TestDisabledOverhead:
    def test_disabled_hooks_are_cheap(self):
        # The off-path must be a single global read per instrumentation
        # site: 100k no-op maybe_wall_span entries in well under a
        # second even on a slow CI box.
        import time

        started = time.perf_counter()
        for _ in range(100_000):
            with maybe_wall_span("x"):
                pass
        assert time.perf_counter() - started < 2.0
