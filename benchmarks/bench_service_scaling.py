"""Serving-layer scaling: batching and caching amortize the wetlab.

Simulates >= 10k read requests from >= 100 tenants against an object
store and compares the three serving policies of
:class:`repro.service.ServicePipeline`.  Asserts the acceptance criteria
of the serving-layer subsystem:

* batching reduces total PCR reactions and sequenced reads versus the
  unbatched baseline, and adding the decoded-block cache reduces both
  further;
* every policy delivers byte-identical payloads (per-request CRC32s,
  aggregated in request order);
* the simulation is fully deterministic under a fixed seed (a rerun
  reproduces every reported number bit-for-bit).

It also records how a run's memory grows with its trace: peak-RSS
growth during ``run()`` on ``serve-mixed``-shaped traces of three
lengths, each served in a fresh process that reads its own peak (see
:func:`peak_rss_bytes`).  That record is informational; nothing gates it.

Pure Python end to end — this benchmark runs with or without numpy.
"""

import gc
import json
import platform
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from conftest import emit_bench_json, report
from repro.service import POLICIES, ServiceConfig, ServicePipeline
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads import multi_tenant_trace, object_corpus

#: Exported Perfetto traces land next to the BENCH_*.json documents (the
#: repo root) so CI can upload them as workflow artifacts.
TRACE_DIR = Path(__file__).parent.parent

REQUESTS = 10_000
TENANTS = 120
OBJECTS = 150
SEED = 2023  # MICRO 2023

#: Trace lengths of the memory record, and their arrival rate.
MEMORY_REQUESTS = (10_000, 40_000, 160_000)
MEMORY_ARRIVALS_PER_HOUR = 150.0
#: Serves one trace length in a fresh interpreter and prints its record.
MEMORY_PROBE = (
    "import json, sys\n"
    "from bench_service_scaling import rss_growth\n"
    "print(json.dumps(rss_growth(int(sys.argv[1]))))\n"
)


def build_store() -> tuple[ObjectStore, dict[str, int]]:
    volume = DnaVolume(
        config=VolumeConfig(partition_leaf_count=256, stripe_blocks=8, stripe_width=6)
    )
    store = ObjectStore(volume)
    block_size = volume.block_size
    corpus = object_corpus(
        {f"obj-{i:03d}": block_size * (1 + i % 8) for i in range(OBJECTS)},
        seed=SEED,
    )
    for name, data in corpus.items():
        store.put(name, data)
    return store, {name: len(data) for name, data in corpus.items()}


def run_comparison() -> dict:
    store, catalog = build_store()
    trace = multi_tenant_trace(
        catalog,
        tenants=TENANTS,
        requests=REQUESTS,
        duration_hours=72.0,
        seed=SEED,
    )
    assert len({event.tenant for event in trace}) >= 100
    simulator = ServicePipeline(
        store,
        config=ServiceConfig(
            window_hours=0.5,
            reads_per_block=30,
            sequencer="nanopore",
            cache_capacity_bytes=store.volume.block_size * 256,
        ),
    )
    reports = simulator.compare(trace)
    # Determinism *and* tracing neutrality: replay one policy with the
    # observability layer recording and require bit-identical numbers —
    # enabling tracing must not change a single outcome at 10k-request
    # scale.
    traced = ServicePipeline(
        store, config=replace(simulator.config, tracing=True)
    )
    replay = traced.run(trace, "batched+cache")
    return {"reports": reports, "replay": replay}


def test_service_scaling():
    started = time.perf_counter()
    outcome = run_comparison()
    elapsed = time.perf_counter() - started
    reports = outcome["reports"]
    unbatched = reports["unbatched"]
    batched = reports["batched"]
    cached = reports["batched+cache"]

    # Identical decoded bytes under every policy.
    assert len({r.checksum for r in reports.values()}) == 1
    assert len({r.decoded_bytes for r in reports.values()}) == 1
    for r in reports.values():
        assert len(r.completed) == REQUESTS

    # Batching reduces wetlab work; caching reduces it further.
    assert batched.pcr_reactions < unbatched.pcr_reactions
    assert batched.sequenced_reads < unbatched.sequenced_reads
    assert cached.pcr_reactions < batched.pcr_reactions
    assert cached.sequenced_reads < batched.sequenced_reads
    assert cached.cache is not None and cached.cache.hit_rate > 0.5

    # Deterministic under the fixed seed — and the replay ran traced, so
    # these equalities also prove tracing changed no outcome.
    replay = outcome["replay"]
    for field in (
        "checksum",
        "pcr_reactions",
        "sequenced_reads",
        "amplified_blocks",
        "makespan_hours",
        "batches",
    ):
        assert getattr(replay, field) == getattr(cached, field), field
    assert replay.latency == cached.latency

    # The trace itself: every completed request's latency must be
    # explained (>= 95%) by its phase spans, and the Perfetto export
    # must be well-formed JSON.
    obs = replay.observability
    assert obs is not None
    coverage = obs.span_coverage()
    assert len(coverage) == len(replay.completed) + len(replay.failed)
    assert min(coverage.values()) >= 0.95
    trace_path = obs.write_chrome_trace(TRACE_DIR / "TRACE_service_scaling.json")

    rows = [
        f"{REQUESTS} requests, {TENANTS} tenants, "
        f"{unbatched.distinct_requested_blocks} distinct blocks "
        f"(in {elapsed:.1f}s wall)",
    ]
    for policy in POLICIES:
        r = reports[policy]
        hit = f", hit rate {r.cache.hit_rate:.1%}" if r.cache else ""
        rows.append(
            f"{policy:>14}: {r.batches:5d} cycles, {r.pcr_reactions:6d} PCR, "
            f"{r.sequenced_reads:8d} reads, amp {r.amplification_factor:6.2f}, "
            f"p50/p95/p99 {r.latency.p50:.2f}/{r.latency.p95:.2f}/"
            f"{r.latency.p99:.2f} h{hit}"
        )
    rows.append(
        f"batching: {unbatched.pcr_reactions / batched.pcr_reactions:.1f}x fewer PCR, "
        f"{unbatched.sequenced_reads / batched.sequenced_reads:.1f}x fewer reads; "
        f"+cache: {unbatched.pcr_reactions / cached.pcr_reactions:.1f}x / "
        f"{unbatched.sequenced_reads / cached.sequenced_reads:.1f}x"
    )
    report("Service scaling — batched + cached serving vs unbatched", rows)
    emit_bench_json(
        "service_scaling",
        "policies",
        {
            "requests": REQUESTS,
            "tenants": TENANTS,
            "distinct_blocks": unbatched.distinct_requested_blocks,
            "wall_seconds": round(elapsed, 2),
            "per_policy": {
                policy: {
                    "batches": reports[policy].batches,
                    "pcr_reactions": reports[policy].pcr_reactions,
                    "sequenced_reads": reports[policy].sequenced_reads,
                    "amplification_factor": round(
                        reports[policy].amplification_factor, 3
                    ),
                    "p50_hours": round(reports[policy].latency.p50, 3),
                    "p95_hours": round(reports[policy].latency.p95, 3),
                    "p99_hours": round(reports[policy].latency.p99, 3),
                    "cache_hit_rate": (
                        round(reports[policy].cache.hit_rate, 4)
                        if reports[policy].cache
                        else None
                    ),
                }
                for policy in POLICIES
            },
            "pcr_reduction_batched": round(
                unbatched.pcr_reactions / batched.pcr_reactions, 2
            ),
            "pcr_reduction_cached": round(
                unbatched.pcr_reactions / cached.pcr_reactions, 2
            ),
        },
    )
    emit_bench_json(
        "service_scaling",
        "observability",
        {
            "traced_byte_identical": replay.checksum == cached.checksum
            and replay.latency == cached.latency,
            "trace_file": trace_path.name,
            **obs.bench_payload(),
        },
    )


def peak_rss_bytes() -> int:
    """This process's own peak resident set size, in bytes.

    ``VmHWM`` in ``/proc/self/status`` belongs to the process's own
    address space.  ``ru_maxrss`` is the fallback where that file does
    not exist; on Linux a child process starts with its parent's
    ``ru_maxrss``, so a probe that a large process starts would read the
    parent's peak there and record no growth.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    # ru_maxrss counts kilobytes on Linux and bytes on macOS.
    unit = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit


def rss_growth(requests: int) -> dict:
    """Peak-RSS growth while serving a ``serve-mixed``-shaped trace.

    The trace has 5% updates and 1% puts, popularity follows size, and
    it is served under ``batched+cache``.  Meaningful only in a fresh
    process: :func:`peak_rss_bytes` is the process's peak so far.
    """
    store, catalog = build_store()
    trace = multi_tenant_trace(
        catalog,
        tenants=TENANTS,
        requests=requests,
        duration_hours=requests / MEMORY_ARRIVALS_PER_HOUR,
        seed=SEED,
        update_fraction=0.05,
        put_fraction=0.01,
        size_popularity_bias=-1.0,
    )
    pipeline = ServicePipeline(
        store,
        config=ServiceConfig(
            window_hours=0.5,
            wetlab_lanes=32,
            pcr_hours=0.1,
            cache_capacity_bytes=store.volume.block_size * 256,
            tracing=False,
        ),
    )
    gc.collect()
    before = peak_rss_bytes()
    pipeline.run(trace, "batched+cache")
    growth = peak_rss_bytes() - before
    return {
        "requests": requests,
        "rss_growth_mb": round(growth / 2**20, 1),
        "bytes_per_request": round(growth / requests),
    }


def test_service_memory_scaling():
    """RSS growth during ``run()`` against trace length."""
    records = []
    for requests in MEMORY_REQUESTS:
        probe = subprocess.run(
            [sys.executable, "-c", MEMORY_PROBE, str(requests)],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        )
        records.append(json.loads(probe.stdout))
    report(
        "Service memory — RSS growth during run() against trace length",
        [
            f"{item['requests']:7d} requests: +{item['rss_growth_mb']:.1f} MB "
            f"({item['bytes_per_request']} B per request)"
            for item in records
        ],
    )
    emit_bench_json(
        "service_scaling",
        "memory",
        {"python": platform.python_version(), "runs": records},
    )


def test_service_wetlab_fidelity_smoke():
    """A small multi-tenant trace served end to end at wetlab fidelity:
    every batch runs real PCR + sequencing + decoding, and every request's
    bytes must match the reference path.  Skipped without numpy."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        import pytest

        pytest.skip("wetlab fidelity requires numpy")
    volume = DnaVolume(
        config=VolumeConfig(partition_leaf_count=16, stripe_blocks=2, stripe_width=2)
    )
    store = ObjectStore(volume)
    block_size = volume.block_size
    corpus = object_corpus(
        {f"obj-{i}": block_size * (1 + i % 3) for i in range(4)}, seed=SEED
    )
    for name, data in corpus.items():
        store.put(name, data)
    store.update("obj-1", 3, b"SMOKE-PATCH")
    catalog = {name: len(data) for name, data in corpus.items()}
    trace = multi_tenant_trace(
        catalog, tenants=5, requests=16, duration_hours=10.0, seed=SEED
    )
    simulator = ServicePipeline(
        store,
        config=ServiceConfig(
            window_hours=0.5,
            reads_per_block=150,
            cache_capacity_bytes=block_size * 32,
            tracing=True,
        ),
    )
    from repro.observability.stages import collect_stages, orchestration_seconds

    started = time.perf_counter()
    with collect_stages() as stages:
        wetlab = simulator.run(trace, "batched+cache", fidelity="wetlab")
    elapsed = time.perf_counter() - started
    reference = simulator.run(trace, "batched+cache")
    assert wetlab.failed == ()
    assert len(wetlab.completed) == len(trace)
    assert wetlab.checksum == reference.checksum
    obs = wetlab.observability
    assert obs is not None
    coverage = obs.span_coverage()
    assert coverage and min(coverage.values()) >= 0.95
    obs.write_chrome_trace(TRACE_DIR / "TRACE_service_wetlab_smoke.json")
    # The decode's own wall time, from its ``decode:<partition>`` spans:
    # ``elapsed`` also holds PCR, sequencing and the serving loop.
    decode_seconds = sum(
        span.duration for span in obs.spans if span.name.startswith("decode:")
    )
    orchestration = orchestration_seconds(decode_seconds, stages)
    report(
        "Service wetlab-fidelity smoke",
        [
            f"{len(trace)} requests, {wetlab.batches} wetlab cycles, "
            f"{wetlab.sequenced_reads} reads sequenced (in {elapsed:.1f}s)",
            f"decode stages: cluster {stages.get('cluster', 0.0):.2f}s, "
            f"consensus {stages.get('consensus', 0.0):.2f}s, "
            f"RS solve {stages.get('syndrome_solve', 0.0):.2f}s, "
            f"other {orchestration:.2f}s",
            "per-request checksums identical to the reference path",
        ],
    )
    emit_bench_json(
        "service_scaling",
        "wetlab_smoke",
        {
            "requests": len(trace),
            "wetlab_cycles": wetlab.batches,
            "sequenced_reads": wetlab.sequenced_reads,
            "wall_seconds": round(elapsed, 2),
            "decode_stage_seconds": {
                "cluster": round(stages.get("cluster", 0.0), 3),
                "consensus": round(stages.get("consensus", 0.0), 3),
                "syndrome_solve": round(stages.get("syndrome_solve", 0.0), 3),
                "orchestration": round(orchestration, 3),
            },
            "checksum_matches_reference": wetlab.checksum == reference.checksum,
            "span_coverage_min": round(min(coverage.values()), 4),
            "trace_file": "TRACE_service_wetlab_smoke.json",
        },
    )


def test_service_mixed_pipeline_smoke():
    """Mixed read/write serving with injected decode failures, end to end
    at wetlab fidelity: writes are queued into synthesis orders, a read
    scheduled after a write observes the written bytes, and every request
    affected by a failed block decode recovers within the retry budget —
    with per-request bytes identical to the reference path.  Skipped
    without numpy."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        import pytest

        pytest.skip("wetlab fidelity requires numpy")

    def build_mixed_store():
        volume = DnaVolume(
            config=VolumeConfig(
                partition_leaf_count=24, stripe_blocks=2, stripe_width=2
            )
        )
        store = ObjectStore(volume)
        block_size = volume.block_size
        corpus = object_corpus(
            {f"obj-{i}": block_size * (1 + i % 3) for i in range(4)}, seed=SEED
        )
        for name, data in corpus.items():
            store.put(name, data)
        return store, {name: len(data) for name, data in corpus.items()}

    def build_trace(store, catalog):
        from repro.workloads import RequestEvent

        block_size = store.volume.block_size
        return [
            RequestEvent(time_hours=0.1, tenant="r1", object_name="obj-0"),
            RequestEvent(time_hours=0.2, tenant="r2", object_name="obj-1"),
            RequestEvent(
                time_hours=0.3, tenant="w1", object_name="obj-2",
                op="update", payload=b"BENCH-MIXED-WRITE",
            ),
            RequestEvent(time_hours=0.4, tenant="r3", object_name="obj-2"),
            RequestEvent(
                time_hours=0.5, tenant="w2", object_name="obj-new",
                op="put",
                payload=object_corpus({"new": block_size}, seed=SEED + 1)["new"],
            ),
            RequestEvent(time_hours=0.6, tenant="r4", object_name="obj-new"),
            RequestEvent(time_hours=20.0, tenant="r5", object_name="obj-0"),
        ]

    target: list[tuple[int, tuple[str, int]]] = []

    def injector(cycle_id, attempt, key):
        # Deterministically fail one block of the first read cycle once;
        # its requests must recover through a deeper-coverage retry.
        if attempt == 1 and not target:
            target.append((cycle_id, key))
        return attempt == 1 and target[0] == (cycle_id, key)

    def run(fidelity):
        target.clear()
        store, catalog = build_mixed_store()
        simulator = ServicePipeline(
            store,
            config=ServiceConfig(
                window_hours=0.5,
                reads_per_block=150,
                retry_budget=2,
                wetlab_lanes=2,
                cache_capacity_bytes=store.volume.block_size * 32,
                decode_failure_injector=injector,
            ),
        )
        trace = build_trace(store, catalog)
        return simulator.run(
            trace, "batched+cache", fidelity=fidelity, keep_data=True
        )

    started = time.perf_counter()
    wetlab = run("wetlab")
    elapsed = time.perf_counter() - started
    reference = run("reference")

    # Every request recovered (no retry-budget exhaustion, no aborts)...
    assert wetlab.failed == ()
    assert wetlab.retry_cycles >= 1
    assert wetlab.decode_failures >= 1
    # ...both writes were queued and coalesced into one synthesis order
    # (they share the scheduling window) and charged synthesis...
    assert wetlab.synthesis_orders == 1
    assert sum(1 for c in wetlab.completed if c.request.op != "read") == 2
    assert wetlab.synthesized_strands > 0
    assert wetlab.write_latency is not None
    # ...and the wetlab-decoded bytes are identical to the reference path
    # (the pipeline also asserts this per request while serving).
    assert wetlab.checksum == reference.checksum
    assert wetlab.payloads == reference.payloads

    max_attempts = max(c.attempts for c in wetlab.completed)
    report(
        "Service mixed read/write pipeline — retries + synthesis orders",
        [
            f"{len(wetlab.completed)} served ({wetlab.written_bytes} B written, "
            f"{wetlab.decoded_bytes} B read) in {elapsed:.1f}s wall",
            f"{wetlab.batches} wetlab cycles ({wetlab.retry_cycles} retries, "
            f"max {max_attempts} attempts), "
            f"{wetlab.synthesis_orders} synthesis orders "
            f"({wetlab.synthesized_strands} strands)",
            "bytes identical to the reference path",
        ],
    )
    emit_bench_json(
        "service_scaling",
        "mixed_pipeline",
        {
            "requests": len(wetlab.completed),
            "wetlab_cycles": wetlab.batches,
            "retry_cycles": wetlab.retry_cycles,
            "decode_failures": wetlab.decode_failures,
            "max_attempts": max_attempts,
            "synthesis_orders": wetlab.synthesis_orders,
            "synthesized_strands": wetlab.synthesized_strands,
            "synthesized_nucleotides": wetlab.synthesized_nucleotides,
            "written_bytes": wetlab.written_bytes,
            "write_p50_hours": round(wetlab.write_latency.p50, 3),
            "wetlab_lanes": wetlab.wetlab_lanes,
            "wall_seconds": round(elapsed, 2),
            "checksum_matches_reference": wetlab.checksum == reference.checksum,
        },
    )


if __name__ == "__main__":
    test_service_scaling()
    test_service_memory_scaling()
    test_service_wetlab_fidelity_smoke()
    test_service_mixed_pipeline_smoke()
