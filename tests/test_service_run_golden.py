"""Pinned outcomes of the serving loop, and no cyclic garbage after a run.

``ServicePipeline.run`` serves one mixed trace under every policy, with
tenant QoS off and on.  Each report's checksum, a CRC32 over every
completed request's ``(request_id, completion_hours, batch_id, attempts,
served_from_cache)``, a CRC32 over every failure's ``(request_id, reason,
failure_hours)`` and every counter field are pinned to recorded values,
so any restructuring of the event loop must reproduce its observable
behaviour exactly.

The trace exhausts update slots and carries puts, a delete, time-travel
reads, a zero-length read, a malformed event, an unknown object and a
read past an object's end.  A decode-failure injector fails some blocks
on a cycle's first attempt (their riders retry once and succeed) and one
object's blocks on every attempt (its reader exhausts the retry budget).

A hand-built trace pins the loop's tie order: a request arriving at the
exact time of a window close, a synthesis commit or a cycle completion
is handled before that event.

The last tests check what a run keeps: by the time it reports, no
request's block list or time-travel view is left in its working state,
and it frees everything it allocated by reference counting alone (with
the cyclic collector off for the run, ``gc.collect()`` afterwards must
find nothing).

``REPRO_TRACING=1`` turns tracing on for the pinned runs, which must not
move any pinned value.  Everything here runs without numpy.
"""

import gc
import zlib

import pytest

from repro.service import (
    POLICIES,
    BatchScheduler,
    QoSConfig,
    ServiceConfig,
    ServicePipeline,
    ServiceRequest,
    TenantQoS,
)
from repro.service.simulator import _Run
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads import RequestEvent, multi_tenant_trace
from repro.workloads.objects import object_corpus

#: Read only by the hand-added event below; its blocks never decode.
DOOMED_OBJECT = "obj-4"

EXTRA_EVENTS = (
    RequestEvent(time_hours=2.0, tenant="t-extra", object_name=DOOMED_OBJECT),
    # Zero-length read: a valid empty response at front-end speed.
    RequestEvent(
        time_hours=3.0, tenant="t-extra", object_name="obj-1", offset=10, length=0
    ),
    # Malformed: rejected before a request object exists.
    RequestEvent(time_hours=4.0, tenant="t-extra", object_name="obj-2", offset=-5),
    RequestEvent(time_hours=5.0, tenant="t-extra", object_name="no-such-object"),
    # Past the end of a 256-byte object.
    RequestEvent(
        time_hours=6.0, tenant="t-extra", object_name="obj-0", offset=200, length=500
    ),
    # Deletes an object the trace puts at 1.1 h, whose order is still
    # synthesizing: the delete waits behind it on the write barrier.
    RequestEvent(time_hours=10.0, tenant="t-extra", object_name="put-0000", op="delete"),
)

#: A rate-limited default profile with a deadline, and a window budget.
QOS = QoSConfig(
    default=TenantQoS(rate_blocks_per_hour=6.0, burst_blocks=6.0, deadline_hours=8.0),
    window_block_budget=4,
)

COUNTERS = (
    "makespan_hours",
    "throughput_per_hour",
    "batches",
    "pcr_reactions",
    "amplified_blocks",
    "requested_block_accesses",
    "distinct_requested_blocks",
    "sequenced_reads",
    "decoded_bytes",
    "written_bytes",
    "synthesis_orders",
    "synthesized_strands",
    "synthesized_nucleotides",
    "synthesis_hours",
    "retry_cycles",
    "retried_requests",
    "decode_failures",
    "wetlab_lanes",
    "lane_busy_hours",
    "lane_busy_hours_by_lane",
    "lane_schedule_horizon_hours",
    "qos_enabled",
    "qos_throttled",
    "qos_deferred",
    "deadline_violations",
)

CASES = tuple((policy, qos) for policy in POLICIES for qos in (False, True))


def case_id(policy: str, qos: bool) -> str:
    return f"{policy}{'-qos' if qos else ''}"


def build_store(objects=4, slots_per_block=4):
    store = ObjectStore(
        DnaVolume(
            config=VolumeConfig(
                partition_leaf_count=32,
                stripe_blocks=2,
                stripe_width=2,
                slots_per_block=slots_per_block,
            )
        )
    )
    block_size = store.volume.block_size
    corpus = object_corpus(
        {f"obj-{i}": block_size * (1 + i % 3) for i in range(objects)}, seed=7
    )
    for name, data in corpus.items():
        store.put(name, data)
    return store, {name: len(data) for name, data in corpus.items()}


def build_run(qos: bool, tracing: bool | None = None):
    """A fresh store, the mixed trace and a pipeline over them."""
    store, catalog = build_store(objects=5)
    del catalog[DOOMED_OBJECT]
    trace = multi_tenant_trace(
        catalog,
        tenants=4,
        requests=200,
        duration_hours=20.0,
        seed=5,
        update_fraction=0.1,
        put_fraction=0.02,
        time_travel_fraction=0.05,
    )
    trace.extend(EXTRA_EVENTS)
    doomed = frozenset(
        BatchScheduler(store).request_blocks(
            ServiceRequest(request_id=0, tenant="x", object_name=DOOMED_OBJECT)
        )
    )

    def injector(cycle_id, attempt, key):
        if key in doomed:
            return True
        return attempt == 1 and cycle_id % 3 == 1 and key[1] % 2 == 0

    config = ServiceConfig(
        window_hours=0.5,
        decode_failure_injector=injector,
        qos=QOS if qos else None,
        tracing=tracing,
    )
    return ServicePipeline(store, config=config), trace


def crc(items) -> int:
    return zlib.crc32(repr(items).encode())


def outcome(report) -> dict:
    """What the goldens pin of one report."""
    return {
        "checksum": report.checksum,
        "completed": (
            len(report.completed),
            crc(
                [
                    (
                        item.request.request_id,
                        item.completion_hours,
                        item.batch_id,
                        item.attempts,
                        item.served_from_cache,
                    )
                    for item in report.completed
                ]
            ),
        ),
        "failed": (
            len(report.failed),
            crc(
                [
                    (item.request_id, item.reason, item.failure_hours)
                    for item in report.failed
                ]
            ),
        ),
        "cache": None if report.cache is None else repr(report.cache),
        **{name: getattr(report, name) for name in COUNTERS},
    }


#: Tracing must not move any of these.
GOLDEN: dict[str, dict] = {
    "unbatched": {
        "checksum": 2806374327,
        "completed": (188, 614998838),
        "failed": (18, 3203674009),
        "cache": None,
        "makespan_hours": 173.02616126505444,
        "throughput_per_hour": 1.0865408943102397,
        "batches": 212,
        "pcr_reactions": 264,
        "amplified_blocks": 281,
        "requested_block_accesses": 218,
        "distinct_requested_blocks": 16,
        "sequenced_reads": 10440,
        "decoded_bytes": 39145,
        "written_bytes": 3386,
        "synthesis_orders": 20,
        "synthesized_strands": 465,
        "synthesized_nucleotides": 69750,
        "synthesis_hours": 228.59000000000006,
        "retry_cycles": 49,
        "retried_requests": 49,
        "decode_failures": 65,
        "wetlab_lanes": 4,
        "lane_busy_hours": 594.0052199999997,
        "lane_busy_hours_by_lane": (
            164.251425,
            153.00135,
            137.25121500000003,
            139.50123000000002,
        ),
        "lane_schedule_horizon_hours": 173.02616126505444,
        "qos_enabled": False,
        "qos_throttled": 0,
        "qos_deferred": 0,
        "deadline_violations": 0,
    },
    "unbatched-qos": {
        "checksum": 2806374327,
        "completed": (188, 614998838),
        "failed": (18, 3203674009),
        "cache": None,
        "makespan_hours": 173.02616126505444,
        "throughput_per_hour": 1.0865408943102397,
        "batches": 212,
        "pcr_reactions": 264,
        "amplified_blocks": 281,
        "requested_block_accesses": 218,
        "distinct_requested_blocks": 16,
        "sequenced_reads": 10440,
        "decoded_bytes": 39145,
        "written_bytes": 3386,
        "synthesis_orders": 20,
        "synthesized_strands": 465,
        "synthesized_nucleotides": 69750,
        "synthesis_hours": 228.59000000000006,
        "retry_cycles": 49,
        "retried_requests": 49,
        "decode_failures": 65,
        "wetlab_lanes": 4,
        "lane_busy_hours": 594.0052199999997,
        "lane_busy_hours_by_lane": (
            164.251425,
            153.00135,
            137.25121500000003,
            139.50123000000002,
        ),
        "lane_schedule_horizon_hours": 173.02616126505444,
        "qos_enabled": False,
        "qos_throttled": 0,
        "qos_deferred": 0,
        # The unbatched policy runs no QoS admission, so it counts no
        # deadlines.
        "deadline_violations": 0,
    },
    "batched": {
        "checksum": 2806374327,
        "completed": (188, 1644571851),
        "failed": (18, 1989800655),
        "cache": None,
        "makespan_hours": 101.39296531482918,
        "throughput_per_hour": 1.8541720267895563,
        "batches": 55,
        "pcr_reactions": 82,
        "amplified_blocks": 97,
        "requested_block_accesses": 218,
        "distinct_requested_blocks": 16,
        "sequenced_reads": 3750,
        "decoded_bytes": 39145,
        "written_bytes": 3386,
        "synthesis_orders": 18,
        "synthesized_strands": 465,
        "synthesized_nucleotides": 69750,
        "synthesis_hours": 216.585,
        "retry_cycles": 16,
        "retried_requests": 83,
        "decode_failures": 26,
        "wetlab_lanes": 4,
        "lane_busy_hours": 184.50187499999998,
        "lane_busy_hours_by_lane": (
            76.50076499999999,
            40.500524999999996,
            38.250330000000005,
            29.250255,
        ),
        "lane_schedule_horizon_hours": 101.39296531482918,
        "qos_enabled": False,
        "qos_throttled": 0,
        "qos_deferred": 0,
        "deadline_violations": 0,
    },
    "batched-qos": {
        "checksum": 2806374327,
        "completed": (188, 3709674436),
        "failed": (18, 4064006681),
        "cache": None,
        "makespan_hours": 124.39876224405073,
        "throughput_per_hour": 1.5112690561275335,
        "batches": 98,
        "pcr_reactions": 144,
        "amplified_blocks": 164,
        "requested_block_accesses": 218,
        "distinct_requested_blocks": 16,
        "sequenced_reads": 6180,
        "decoded_bytes": 39145,
        "written_bytes": 3386,
        "synthesis_orders": 20,
        "synthesized_strands": 465,
        "synthesized_nucleotides": 69750,
        "synthesis_hours": 228.63500000000005,
        "retry_cycles": 26,
        "retried_requests": 52,
        "decode_failures": 40,
        "wetlab_lanes": 4,
        "lane_busy_hours": 324.00309000000016,
        "lane_busy_hours_by_lane": (
            103.50105000000002,
            78.75075,
            72.00066,
            69.75062999999999,
        ),
        "lane_schedule_horizon_hours": 124.39876224405073,
        "qos_enabled": True,
        "qos_throttled": 87,
        "qos_deferred": 163,
        "deadline_violations": 143,
    },
    "batched+cache": {
        "checksum": 2806374327,
        "completed": (188, 3458412784),
        "failed": (18, 220637334),
        "cache": (
            "CacheStats(hits=142, misses=22, insertions=22, "
            "evictions=0, invalidations=10, rejections=0, admission_denials=0)"
        ),
        "makespan_hours": 55.37547612969327,
        "throughput_per_hour": 3.395004668848187,
        "batches": 20,
        "pcr_reactions": 28,
        "amplified_blocks": 39,
        "requested_block_accesses": 218,
        "distinct_requested_blocks": 16,
        "sequenced_reads": 1470,
        "decoded_bytes": 39145,
        "written_bytes": 3386,
        "synthesis_orders": 18,
        "synthesized_strands": 465,
        "synthesized_nucleotides": 69750,
        "synthesis_hours": 216.63000000000005,
        "retry_cycles": 4,
        "retried_requests": 9,
        "decode_failures": 8,
        "wetlab_lanes": 4,
        "lane_busy_hours": 63.000735,
        "lane_busy_hours_by_lane": (
            29.25036,
            18.000239999999998,
            9.000074999999999,
            6.7500599999999995,
        ),
        "lane_schedule_horizon_hours": 53.33050612969326,
        "qos_enabled": False,
        "qos_throttled": 0,
        "qos_deferred": 0,
        "deadline_violations": 0,
    },
    "batched+cache-qos": {
        "checksum": 2806374327,
        "completed": (188, 529527785),
        "failed": (18, 4041978846),
        "cache": (
            "CacheStats(hits=165, misses=22, insertions=22, "
            "evictions=0, invalidations=10, rejections=0, admission_denials=0)"
        ),
        "makespan_hours": 65.67073724405068,
        "throughput_per_hour": 2.8627667038568463,
        "batches": 40,
        "pcr_reactions": 54,
        "amplified_blocks": 68,
        "requested_block_accesses": 218,
        "distinct_requested_blocks": 16,
        "sequenced_reads": 2580,
        "decoded_bytes": 39145,
        "written_bytes": 3386,
        "synthesis_orders": 16,
        "synthesized_strands": 465,
        "synthesized_nucleotides": 69750,
        "synthesis_hours": 192.63000000000002,
        "retry_cycles": 10,
        "retried_requests": 18,
        "decode_failures": 16,
        "wetlab_lanes": 4,
        "lane_busy_hours": 121.50129000000004,
        "lane_busy_hours_by_lane": (
            45.00054,
            36.000389999999996,
            22.50021,
            18.000149999999998,
        ),
        "lane_schedule_horizon_hours": 65.67073724405068,
        "qos_enabled": True,
        "qos_throttled": 0,
        "qos_deferred": 50,
        "deadline_violations": 131,
    },
}


@pytest.mark.parametrize(
    ("policy", "qos"), CASES, ids=[case_id(*case) for case in CASES]
)
def test_run_matches_pinned_outcome(policy, qos):
    sim, trace = build_run(qos)
    report = sim.run(trace, policy)
    assert outcome(report) == GOLDEN[case_id(policy, qos)]


def test_goldens_cover_retries_failures_and_qos():
    """The trace reaches every path the goldens are meant to pin."""
    for policy, qos in CASES:
        pinned = GOLDEN[case_id(policy, qos)]
        assert pinned["retry_cycles"] > 0
        assert pinned["failed"][0] >= 6
        assert pinned["synthesis_orders"] > 0
        assert pinned["qos_enabled"] is (qos and policy != "unbatched")
        if pinned["qos_enabled"]:
            assert pinned["qos_deferred"] > 0
            assert pinned["deadline_violations"] > 0
        else:
            assert pinned["deadline_violations"] == 0
    assert GOLDEN["batched-qos"]["qos_throttled"] > 0


#: Arrival times that tie exactly with an event the loop scheduled itself.
FIRST_WINDOW_CLOSE = 0.5
#: The first window's synthesis order: 12 h set-up plus 2,250 nucleotides
#: at 0.01 h per kilobase, dispatched at 0.5 h.
ORDER_COMMIT = 12.5225
#: The first wetlab cycle's completion on the shared lanes.
CYCLE_COMPLETION = 2.7500299999999998

TIE_TRACE = (
    RequestEvent(time_hours=0.0, tenant="a", object_name="obj-0"),
    RequestEvent(
        time_hours=0.2,
        tenant="w",
        object_name="obj-2",
        op="update",
        offset=3,
        payload=b"patched!",
    ),
    # Arrives as the first window closes: it rides that window's cycle.
    RequestEvent(time_hours=FIRST_WINDOW_CLOSE, tenant="b", object_name="obj-1"),
    # Arrives as the first cycle completes, before its blocks reach the
    # cache: it waits for the next window, which serves it from the cache.
    RequestEvent(time_hours=CYCLE_COMPLETION, tenant="d", object_name="obj-0"),
    # Arrives as the update commits, before the commit is sampled into
    # the time-travel timeline: it reads the bytes from before the update.
    RequestEvent(
        time_hours=ORDER_COMMIT, tenant="c", object_name="obj-2", as_of=ORDER_COMMIT
    ),
    # Arrives as the update commits, before the commit leaves the write
    # barrier: it is held, released by the commit, and reads the update.
    RequestEvent(time_hours=ORDER_COMMIT, tenant="e", object_name="obj-2"),
)

#: request id -> (batch id, completion hours, checksum).
TIE_OUTCOMES = {
    0: (0, CYCLE_COMPLETION, 3063055165),
    1: (1, ORDER_COMMIT, 1474569016),
    2: (0, CYCLE_COMPLETION, 2474732997),
    3: (None, 3.2550299999999996, 3063055165),
    4: (3, 15.272545000000001, 2126674546),
    5: (3, 15.272545000000001, 182470500),
}


def test_arrivals_precede_scheduled_events_at_the_same_time():
    """An arrival is handled before a window close, a synthesis commit or
    a cycle completion that falls at the same instant."""
    store, _ = build_store(objects=3)
    sim = ServicePipeline(store, config=ServiceConfig(window_hours=0.5))
    report = sim.run(TIE_TRACE, "batched+cache")
    assert report.failed == ()
    outcomes = {
        item.request.request_id: (item.batch_id, item.completion_hours, item.checksum)
        for item in report.completed
    }
    assert outcomes == TIE_OUTCOMES


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    ("policy", "qos"), CASES, ids=[case_id(*case) for case in CASES]
)
def test_run_drops_request_state_by_report_time(policy, qos, traced, monkeypatch):
    """Every request has reached its outcome when the run reports, so no
    block list or time-travel view is left in the run's working state."""
    left = []
    report = _Run._report

    def capture(run):
        left.append((dict(run.blocks_by_id), dict(run.asof_views)))
        return report(run)

    monkeypatch.setattr(_Run, "_report", capture)
    sim, trace = build_run(qos, tracing=traced)
    sim.run(trace, policy)
    assert left == [({}, {})]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    ("policy", "qos"), CASES, ids=[case_id(*case) for case in CASES]
)
def test_run_leaves_no_cyclic_garbage(policy, qos, traced):
    sim, trace = build_run(qos, tracing=traced)
    gc.collect()
    gc.disable()
    try:
        report = sim.run(trace, policy)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert (report.observability is not None) is traced
    assert unreachable == 0
