"""Tenant QoS isolation: one aggressor cannot ruin everyone's tail.

Serves a large multi-tenant trace (default 10^5 requests — scaled by
``REPRO_QOS_SCALE_REQUESTS``) and measures what the QoS admission layer
buys the well-behaved tenants when an *aggressor* tenant attacks.

The attack is a **cold scan**, not a volume flood: the batch scheduler
deduplicates same-object reads within a window, so hammering a few hot
objects is nearly free for everyone else.  What actually hurts is
*coverage* — the aggressor issues whole-object reads spread uniformly
across the catalog (``object_exponent`` near zero), forcing the wetlab
to synthesize sequencing work for cold objects nobody else wants and
queuing every shared lane behind it.

Three runs over the same read-only store:

* **clean / QoS off** — the victims alone, establishing the undisturbed
  baseline p99;
* **attack / QoS off** — scan merged in with no protection: the
  victims' p99 degrades several-fold;
* **attack / QoS on** — the aggressor is rate-limited to a trickle,
  down-weighted and demoted a priority class; the victims' p99 must
  recover to within a bounded factor of the clean baseline.

Gated invariants (``check_bench_regression.py``):

* ``isolation.p99_protection_factor`` — victim p99 unprotected over
  protected (higher is better; must not regress);
* ``isolation.victim_p99_bounded`` — protected victim p99 within
  ``VICTIM_P99_BOUND`` x the clean baseline;
* ``isolation.qos_off_byte_identical`` — with QoS *off* every request's
  bytes equal a direct store read (the serving layer added nothing);
* ``isolation.qos_toggle_byte_identical`` — turning QoS *on* changes
  no request's bytes, only its timing;
* ``lanes.utilization_within_bounds`` — the shared lane pool reports
  true utilizations: pool-wide and per-lane in [0, 1], mean agreement.

Pure Python end to end — runs with or without numpy.
"""

import time
import zlib

from conftest import emit_bench_json, report
from repro import envflags
from repro.exceptions import ConfigError
from repro.service import QoSConfig, ServiceConfig, ServicePipeline
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads import multi_tenant_trace, object_corpus, tenant_qos_profiles

TENANTS = 24
OBJECTS = 300
WINDOW_HOURS = 0.5
LANES = 32
PCR_HOURS = 0.1  # rapid-cycle PCR protocol; keeps lane turnaround realistic
SEED = 2023  # MICRO 2023
AGGRESSOR = "aggressor"

#: The whole trace arrives at this aggregate rate, so scaling the
#: request count stretches the duration instead of densifying arrivals.
ARRIVALS_PER_HOUR = 600.0

#: Protected victim p99 must stay within this factor of the clean p99.
VICTIM_P99_BOUND = 1.5


def scale_requests() -> int:
    raw = envflags.read("REPRO_QOS_SCALE_REQUESTS")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(
            f"REPRO_QOS_SCALE_REQUESTS must be a positive integer, got {raw!r}"
        ) from exc
    if value <= 0:
        raise ConfigError("REPRO_QOS_SCALE_REQUESTS must be positive")
    return value


def build_store() -> tuple[ObjectStore, dict[str, int]]:
    volume = DnaVolume(
        config=VolumeConfig(partition_leaf_count=512, stripe_blocks=8, stripe_width=6)
    )
    store = ObjectStore(volume)
    block_size = volume.block_size
    corpus = object_corpus(
        {f"obj-{i:03d}": block_size * (1 + i % 6) for i in range(OBJECTS)},
        seed=SEED,
    )
    for name, data in corpus.items():
        store.put(name, data)
    return store, {name: len(data) for name, data in corpus.items()}


def build_traces(catalog, requests: int):
    """Victim traffic plus a cold-scan aggressor, merged by arrival time.

    The victims skew hot (``object_exponent=1.3``) and small
    (``size_popularity_bias``), so window batching dedups their reads
    well.  The aggressor is one tenant scanning the whole catalog
    uniformly with whole-object reads — maximum un-dedupable coverage.
    """
    duration_hours = requests / ARRIVALS_PER_HOUR
    aggressor_requests = requests // 10
    victims = multi_tenant_trace(
        catalog,
        tenants=TENANTS,
        requests=requests - aggressor_requests,
        duration_hours=duration_hours,
        seed=SEED,
        object_exponent=1.3,
        size_popularity_bias=0.9,
    )
    scan = multi_tenant_trace(
        catalog,
        tenants=1,
        requests=aggressor_requests,
        duration_hours=duration_hours,
        seed=SEED + 1,
        object_exponent=0.01,
        whole_object_fraction=1.0,
        aggressor_fraction=1.0,
        aggressor_tenant=AGGRESSOR,
    )
    merged = sorted(victims + scan, key=lambda event: event.time_hours)
    return list(victims), merged


def victim_read_latencies(run_report) -> list[float]:
    return [
        completed.latency_hours
        for completed in run_report.completed
        if completed.request.op == "read" and completed.request.tenant != AGGRESSOR
    ]


def p99(latencies: list[float]) -> float:
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def qos_policy(trace, catalog, block_size) -> QoSConfig:
    """Demote the aggressor; protect everyone else.

    The window budget is sized at several times the victims' own
    per-window block demand, so honest traffic never queues on it while
    a coordinated burst still hits a ceiling.  The aggressor's token
    bucket caps the scan at a trickle of blocks per hour regardless.
    """
    victims_per_window = (
        sum(1 for event in trace if event.tenant != AGGRESSOR)
        * WINDOW_HOURS
        * ARRIVALS_PER_HOUR
        / len(trace)
    )
    mean_blocks = sum(-(-size // block_size) for size in catalog.values()) / len(catalog)
    budget = max(64, round(victims_per_window * mean_blocks * 4))
    profiles = tenant_qos_profiles(
        trace,
        priority=1,
        deadline_hours=24.0,
        overrides={
            AGGRESSOR: {
                "weight": 0.1,
                "rate_blocks_per_hour": 4.0,
                "burst_blocks": 8.0,
                "priority": 2,
                "deadline_hours": None,
            }
        },
    )
    return QoSConfig(profiles=profiles, window_block_budget=budget)


def utilization_within_bounds(run_report) -> bool:
    by_lane = run_report.lane_utilization_by_lane
    mean_ok = abs(run_report.lane_utilization - sum(by_lane) / len(by_lane)) < 1e-9
    return (
        0.0 <= run_report.lane_utilization <= 1.0 + 1e-9
        and all(0.0 <= value <= 1.0 + 1e-9 for value in by_lane)
        and mean_ok
    )


def test_qos_isolation():
    requests = scale_requests()
    started = time.perf_counter()
    store, catalog = build_store()
    trace_clean, trace_attack = build_traces(catalog, requests)
    aggressor_requests = len(trace_attack) - len(trace_clean)
    assert aggressor_requests == requests // 10

    base = ServiceConfig(
        window_hours=WINDOW_HOURS, wetlab_lanes=LANES, pcr_hours=PCR_HOURS
    )
    qos = qos_policy(trace_attack, catalog, store.volume.block_size)
    protected = ServiceConfig(
        window_hours=WINDOW_HOURS, wetlab_lanes=LANES, pcr_hours=PCR_HOURS, qos=qos
    )

    # Read-only traces: the three runs share one store unmutated.
    clean_off = ServicePipeline(store, config=base).run(trace_clean, "batched")
    attack_off = ServicePipeline(store, config=base).run(trace_attack, "batched")
    attack_on = ServicePipeline(store, config=protected).run(trace_attack, "batched")
    elapsed = time.perf_counter() - started

    for run_report, trace in (
        (clean_off, trace_clean),
        (attack_off, trace_attack),
        (attack_on, trace_attack),
    ):
        assert len(run_report.completed) == len(trace)
        assert run_report.failed == ()
    assert attack_on.qos_enabled and not attack_off.qos_enabled
    assert attack_on.qos_throttled + attack_on.qos_deferred > 0

    clean_p99 = p99(victim_read_latencies(clean_off))
    unprotected_p99 = p99(victim_read_latencies(attack_off))
    protected_p99 = p99(victim_read_latencies(attack_on))
    protection_factor = unprotected_p99 / protected_p99
    victim_p99_bounded = protected_p99 <= VICTIM_P99_BOUND * clean_p99
    assert victim_p99_bounded, (
        f"protected victim p99 {protected_p99:.2f}h exceeds "
        f"{VICTIM_P99_BOUND}x clean baseline {clean_p99:.2f}h"
    )

    # Byte identity, both ways: the QoS-off run serves exactly the
    # store's bytes, and flipping QoS on changes no request's payload.
    qos_off_byte_identical = all(
        completed.checksum
        == zlib.crc32(
            store.get(
                completed.request.object_name,
                offset=completed.request.offset,
                length=completed.request.length,
            )
        )
        for completed in attack_off.completed
    )
    assert qos_off_byte_identical
    checksums_off = {
        completed.request.request_id: completed.checksum
        for completed in attack_off.completed
    }
    qos_toggle_byte_identical = all(
        checksums_off[completed.request.request_id] == completed.checksum
        for completed in attack_on.completed
    )
    assert qos_toggle_byte_identical
    assert attack_on.checksum == attack_off.checksum

    lanes_ok = all(
        utilization_within_bounds(run_report)
        for run_report in (clean_off, attack_off, attack_on)
    )
    assert lanes_ok

    rows = [
        f"{len(trace_attack)} requests ({aggressor_requests} from the "
        f"scanning aggressor), {TENANTS} tenants, {LANES} lanes "
        f"(in {elapsed:.1f}s wall)",
        f"victim p99: clean {clean_p99:.2f}h, attacked {unprotected_p99:.2f}h, "
        f"protected {protected_p99:.2f}h (bound {VICTIM_P99_BOUND}x clean)",
        f"protection factor {protection_factor:.2f}x; "
        f"QoS throttle events {attack_on.qos_throttled}, "
        f"deferral events {attack_on.qos_deferred}, "
        f"deadline violations {attack_on.deadline_violations}",
        f"lane utilization (attack/QoS off): {attack_off.lane_utilization:.2%} "
        "pool-wide; clean "
        f"{clean_off.lane_utilization:.2%}",
    ]
    report("QoS isolation — scanning aggressor vs protected victims", rows)
    emit_bench_json(
        "qos_isolation",
        "isolation",
        {
            "requests": len(trace_attack),
            "aggressor_requests": aggressor_requests,
            "tenants": TENANTS,
            "wall_seconds": round(elapsed, 2),
            "clean_victim_p99_hours": round(clean_p99, 4),
            "unprotected_victim_p99_hours": round(unprotected_p99, 4),
            "protected_victim_p99_hours": round(protected_p99, 4),
            "p99_protection_factor": round(protection_factor, 4),
            "victim_p99_bound": VICTIM_P99_BOUND,
            "victim_p99_bounded": victim_p99_bounded,
            "qos_off_byte_identical": qos_off_byte_identical,
            "qos_toggle_byte_identical": qos_toggle_byte_identical,
            "qos_throttle_events": attack_on.qos_throttled,
            "qos_deferral_events": attack_on.qos_deferred,
            "deadline_violations": attack_on.deadline_violations,
        },
    )
    emit_bench_json(
        "qos_isolation",
        "lanes",
        {
            "lane_count": LANES,
            "utilization_within_bounds": lanes_ok,
            "attack_on_utilization": round(attack_on.lane_utilization, 4),
            "attack_on_by_lane": [
                round(value, 4) for value in attack_on.lane_utilization_by_lane
            ],
            "attack_off_utilization": round(attack_off.lane_utilization, 4),
            "schedule_horizon_hours": round(attack_on.lane_schedule_horizon_hours, 3),
        },
    )
