"""The benchmark's three workloads and the references their outputs are checked against.

Each workload builds a fresh store and an open-loop arrival trace from the
seed (arrivals are fixed in simulated time before the run starts, so a slow
run never thins its own load), names the serving configuration, and checks
every served request's bytes against a reference computed outside the
timed region.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable

from repro.service import QoSConfig, ServiceConfig, ServicePipeline
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads import multi_tenant_trace, object_corpus, tenant_qos_profiles

#: Longest update payload the benchmark issues.  A patch deleting a whole
#: 256-byte block does not fit the one-byte delete length of
#: ``repro.core.updates``, so longer generated updates are clipped.
MAX_UPDATE_BYTES = 192

AGGRESSOR = "aggressor"


@dataclass
class Prepared:
    """One pass's inputs: a fresh store, its trace and how to serve it."""

    store: ObjectStore
    corpus: dict[str, bytes]
    trace: list
    config: ServiceConfig
    policy: str
    fidelity: str
    seed: int
    readout: object = None


@dataclass(frozen=True)
class Workload:
    """A named workload.

    Attributes:
        setup: builds a :class:`Prepared` pass from the seed.
        check: returns ``(failed, notes)`` for a served pass — the number
            of requests that failed or served wrong bytes, and one line
            per kind of mismatch.
        tail: percentile reported as ``read_tail_sim_h``.
        tail_tenant: keeps a completed read in the tail sample.
    """

    name: str
    setup: Callable[[int], Prepared]
    check: Callable[[Prepared, object], tuple[int, list[str]]]
    tail: float
    tail_tenant: Callable[[str], bool] = lambda tenant: True


def build_store(
    volume_config: VolumeConfig, blocks: dict[str, int], seed: int
) -> tuple[ObjectStore, dict[str, bytes]]:
    """A store holding seeded objects of the given sizes in blocks."""
    store = ObjectStore(DnaVolume(config=volume_config))
    block_size = store.volume.block_size
    corpus = object_corpus(
        {name: count * block_size for name, count in blocks.items()}, seed=seed
    )
    for name, data in corpus.items():
        store.put(name, data)
    return store, corpus


def admissible_updates(trace: list, block_size: int, update_slots: int) -> list:
    """Shape generated updates so the store accepts every one of them.

    Each update is clipped to one block and :data:`MAX_UPDATE_BYTES`, and a
    block takes at most ``update_slots`` updates (the store refuses the
    next one: its version slots are exhausted).  A surplus update becomes
    a read of the same range, so the request count and arrival times stay
    those the generator drew.
    """
    used: Counter = Counter()
    shaped = []
    for event in trace:
        if event.op != "update":
            shaped.append(event)
            continue
        block, within = divmod(event.offset, block_size)
        length = min(len(event.payload), MAX_UPDATE_BYTES, block_size - within)
        key = (event.object_name, block)
        if used[key] < update_slots:
            used[key] += 1
            shaped.append(replace(event, payload=event.payload[:length]))
        else:
            shaped.append(replace(event, op="read", payload=None, length=length))
    return shaped


def expected_checksums(corpus: dict[str, bytes], trace: list) -> dict[int, int]:
    """Per-request CRC32s from a sequential model of the store.

    Requests apply in admission order (the pipeline's ``request_id`` is the
    index in the arrival-sorted trace), and a read observes exactly the
    writes admitted before it — the serving contract.  Write checksums are
    the CRC32 of the written payload, as the pipeline reports them.
    """
    objects = dict(corpus)
    expected: dict[int, int] = {}
    ordered = sorted(trace, key=lambda event: event.time_hours)
    for request_id, event in enumerate(ordered):
        name = event.object_name
        if event.op == "put":
            objects[name] = event.payload
            expected[request_id] = zlib.crc32(event.payload)
        elif event.op == "update":
            data = objects[name]
            end = event.offset + len(event.payload)
            objects[name] = data[: event.offset] + event.payload + data[end:]
            expected[request_id] = zlib.crc32(event.payload)
        else:
            data = objects[name]
            end = None if event.length is None else event.offset + event.length
            expected[request_id] = zlib.crc32(data[event.offset : end])
    return expected


def compare_outcomes(report, expected: dict[int, int]) -> tuple[int, list[str]]:
    """Count requests that failed, went missing or served wrong bytes."""
    notes = []
    wrong = sum(
        1
        for item in report.completed
        if expected.get(item.request.request_id) != item.checksum
    )
    if wrong:
        notes.append(f"{wrong} requests served bytes that differ from the reference")
    if report.failed:
        notes.append(f"{len(report.failed)} requests failed: {report.failed[0].reason}")
    missing = len(expected) - len(report.completed) - len(report.failed)
    if missing:
        notes.append(f"{missing} requests reached no outcome")
    return wrong + len(report.failed) + max(missing, 0), notes


def check_against_model(prepared: Prepared, report) -> tuple[int, list[str]]:
    return compare_outcomes(report, expected_checksums(prepared.corpus, prepared.trace))


# ----------------------------------------------------------------------
# serve-mixed: the serving loop under reads and writes, QoS off
# ----------------------------------------------------------------------
MIXED_REQUESTS = 60_000
MIXED_ARRIVALS_PER_HOUR = 150.0


def setup_serve_mixed(seed: int) -> Prepared:
    volume_config = VolumeConfig(
        partition_leaf_count=256, stripe_blocks=8, stripe_width=6
    )
    store, corpus = build_store(
        volume_config, {f"obj-{i:03d}": 1 + i % 8 for i in range(150)}, seed
    )
    block_size = store.volume.block_size
    trace = multi_tenant_trace(
        {name: len(data) for name, data in corpus.items()},
        tenants=120,
        requests=MIXED_REQUESTS,
        duration_hours=MIXED_REQUESTS / MIXED_ARRIVALS_PER_HOUR,
        seed=seed,
        update_fraction=0.05,
        put_fraction=0.01,
        # Popularity follows size (largest objects hottest) instead of a
        # seeded shuffle: which objects are hot decides how many updates
        # the store accepts and how long write barriers hold reads, and a
        # shuffle makes the loop's cost per request vary twofold by seed.
        size_popularity_bias=-1.0,
    )
    trace = admissible_updates(
        trace, block_size, volume_config.slots_per_block - 1
    )
    config = ServiceConfig(
        window_hours=0.5,
        wetlab_lanes=32,
        pcr_hours=0.1,
        cache_capacity_bytes=block_size * 256,
    )
    return Prepared(store, corpus, trace, config, "batched+cache", "reference", seed)


# ----------------------------------------------------------------------
# serve-qos-scan: QoS admission against a cold-scanning aggressor
# ----------------------------------------------------------------------
QOS_REQUESTS = 20_000
QOS_ARRIVALS_PER_HOUR = 600.0
QOS_WINDOW_HOURS = 0.5


def setup_serve_qos_scan(seed: int) -> Prepared:
    store, corpus = build_store(
        VolumeConfig(partition_leaf_count=512, stripe_blocks=8, stripe_width=6),
        {f"obj-{i:03d}": 1 + i % 6 for i in range(300)},
        seed,
    )
    catalog = {name: len(data) for name, data in corpus.items()}
    duration = QOS_REQUESTS / QOS_ARRIVALS_PER_HOUR
    scans = QOS_REQUESTS // 10
    victims = multi_tenant_trace(
        catalog,
        tenants=24,
        requests=QOS_REQUESTS - scans,
        duration_hours=duration,
        seed=seed,
        object_exponent=1.3,
        size_popularity_bias=0.9,
    )
    scan = multi_tenant_trace(
        catalog,
        tenants=1,
        requests=scans,
        duration_hours=duration,
        seed=seed + 1,
        object_exponent=0.01,
        whole_object_fraction=1.0,
        aggressor_fraction=1.0,
        aggressor_tenant=AGGRESSOR,
    )
    trace = sorted(victims + scan, key=lambda event: event.time_hours)
    # The window budget is four times the victims' mean per-window block
    # demand, as in benchmarks/bench_qos_isolation.py.
    block_size = store.volume.block_size
    mean_blocks = sum(-(-size // block_size) for size in catalog.values()) / len(
        catalog
    )
    victims_per_window = len(victims) * QOS_WINDOW_HOURS / duration
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
    config = ServiceConfig(
        window_hours=QOS_WINDOW_HOURS,
        wetlab_lanes=32,
        pcr_hours=0.1,
        qos=QoSConfig(profiles=profiles, window_block_budget=budget),
    )
    return Prepared(store, corpus, trace, config, "batched", "reference", seed)


def check_serve_qos_scan(prepared: Prepared, report) -> tuple[int, list[str]]:
    """Each read's CRC32 against a direct ``ObjectStore.get`` (read-only trace)."""
    store = prepared.store
    direct: dict[tuple, int] = {}
    expected: dict[int, int] = {}
    ordered = sorted(prepared.trace, key=lambda event: event.time_hours)
    for request_id, event in enumerate(ordered):
        key = (event.object_name, event.offset, event.length)
        if key not in direct:
            direct[key] = zlib.crc32(
                store.get(
                    event.object_name,
                    offset=event.offset,
                    length=event.length,
                    block_cache=None,
                )
            )
        expected[request_id] = direct[key]
    return compare_outcomes(report, expected)


# ----------------------------------------------------------------------
# wetlab-decode: PCR, sequencing, clustering, consensus and RS decode
# ----------------------------------------------------------------------
WETLAB_REQUESTS = 100
WETLAB_HOURS = 5.0
#: The wetlab trace's request pattern is fixed; the run's seed draws the
#: stored bytes and the wetlab's synthesis, PCR and sequencing randomness.
#: Seeded 100-request patterns vary the decode work per request by about
#: a third, which no run short enough to repeat could average out.
WETLAB_TRACE_SEED = 2023
WETLAB_VOLUME = VolumeConfig(partition_leaf_count=64, stripe_blocks=2, stripe_width=2)
WETLAB_OBJECTS = {f"obj-{i:02d}": 1 + i % 4 for i in range(16)}
#: Decode runs inline in this process, with two clustering shards.  With
#: two pool workers beside this process on a shared 2-CPU host, the
#: fastest pass moved by a quarter between runs, twice the spread of the
#: single-process workloads.
DECODE_WORKERS = 1
DECODE_CLUSTER_SHARDS = 2


def setup_wetlab_decode(seed: int) -> Prepared:
    from repro.wetlab.readout import WetlabReadout

    store, corpus = build_store(WETLAB_VOLUME, WETLAB_OBJECTS, seed)
    block_size = store.volume.block_size
    trace = multi_tenant_trace(
        {name: len(data) for name, data in corpus.items()},
        tenants=8,
        requests=WETLAB_REQUESTS,
        duration_hours=WETLAB_HOURS,
        seed=WETLAB_TRACE_SEED,
        update_fraction=0.05,
    )
    trace = admissible_updates(
        trace, block_size, WETLAB_VOLUME.slots_per_block - 1
    )
    config = ServiceConfig(
        window_hours=0.5,
        reads_per_block=150,
        wetlab_lanes=2,
        cache_capacity_bytes=block_size * 32,
        decode_workers=DECODE_WORKERS,
        decode_cluster_shards=DECODE_CLUSTER_SHARDS,
        wetlab_seed=seed,
    )
    readout = WetlabReadout(
        store.volume,
        reads_per_block=config.reads_per_block,
        seed=config.wetlab_seed,
    )
    # Warm-up: synthesize every partition's pool and decode one object, so
    # the decode engine is built and its tables are loaded before the
    # timed run starts.
    for name in store.volume.partition_names:
        readout.partition_pool(name)
    plan = store.read_plan(next(iter(corpus)))
    blocks: dict[str, list[int]] = {}
    for access in plan.accesses:
        blocks.setdefault(access.partition, []).extend(
            range(access.start_block, access.end_block + 1)
        )
    store.try_decode_blocks(
        blocks,
        readout.unit_reads_by_partition(plan, batch_seed=1 << 20),
        workers=DECODE_WORKERS,
        cluster_shards=DECODE_CLUSTER_SHARDS,
    )
    return Prepared(
        store, corpus, trace, config, "batched+cache", "wetlab", seed, readout
    )


def check_wetlab_decode(prepared: Prepared, report) -> tuple[int, list[str]]:
    """Per-request model checksums, plus the whole-run checksum of a
    reference-fidelity run on a fresh store (the pipeline itself already
    asserts each wetlab-decoded payload against the digital reference)."""
    failed, notes = check_against_model(prepared, report)
    fresh, _ = build_store(WETLAB_VOLUME, WETLAB_OBJECTS, prepared.seed)
    reference = ServicePipeline(fresh, config=prepared.config).run(
        prepared.trace, prepared.policy, fidelity="reference"
    )
    if reference.checksum != report.checksum:
        notes.append("run checksum differs from the reference-fidelity run")
        failed = max(failed, 1)
    return failed, notes


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("serve-mixed", setup_serve_mixed, check_against_model, tail=0.99),
        Workload(
            "serve-qos-scan",
            setup_serve_qos_scan,
            check_serve_qos_scan,
            tail=0.99,
            tail_tenant=lambda tenant: tenant != AGGRESSOR,
        ),
        Workload("wetlab-decode", setup_wetlab_decode, check_wetlab_decode, tail=0.90),
    )
}
