"""A run's working memory grows with the requests in flight, not the trace.

``ServicePipeline.run`` holds each read's block list and time-travel view
only until the read reaches its outcome, and it merges arrivals from the
sorted trace instead of queueing all of them on its event heap first.  So
the memory a run allocates and frees again before it returns, its peak
minus what the returned report still holds, stays small per request.

The trace has the shape of perfbench's ``serve-mixed``: 150 objects of 1
to 8 blocks, 120 tenants, 5% updates and 1% puts under ``batched+cache``.
Some updates are rejected (their blocks run out of update slots), which
exercises the rejection path too.  Tracing is pinned off, so
``REPRO_TRACING=1`` cannot add spans to the measured memory.  Everything
here runs without numpy.
"""

import gc
import tracemalloc

from repro.service import ServiceConfig, ServicePipeline
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads import multi_tenant_trace, object_corpus

REQUESTS = 8_000
ARRIVALS_PER_HOUR = 150.0

#: Transient bytes per request the run may allocate beyond what its report
#: keeps.  Holding every block list until the run returns costs about 500.
TRANSIENT_BYTES_PER_REQUEST = 250


def build_run():
    store = ObjectStore(
        DnaVolume(
            config=VolumeConfig(
                partition_leaf_count=256, stripe_blocks=8, stripe_width=6
            )
        )
    )
    block_size = store.volume.block_size
    corpus = object_corpus(
        {f"obj-{i:03d}": block_size * (1 + i % 8) for i in range(150)}, seed=2023
    )
    for name, data in corpus.items():
        store.put(name, data)
    trace = multi_tenant_trace(
        {name: len(data) for name, data in corpus.items()},
        tenants=120,
        requests=REQUESTS,
        duration_hours=REQUESTS / ARRIVALS_PER_HOUR,
        seed=2023,
        update_fraction=0.05,
        put_fraction=0.01,
        size_popularity_bias=-1.0,
    )
    config = ServiceConfig(
        window_hours=0.5,
        wetlab_lanes=32,
        pcr_hours=0.1,
        cache_capacity_bytes=block_size * 256,
        tracing=False,
    )
    return ServicePipeline(store, config=config), trace


def test_run_memory_is_bounded_by_requests_in_flight():
    pipeline, trace = build_run()
    gc.collect()
    tracemalloc.start()
    try:
        report = pipeline.run(trace, "batched+cache")
        _, peak = tracemalloc.get_traced_memory()
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.completed) + len(report.failed) == REQUESTS
    assert report.synthesis_orders > 0
    assert any(item.op != "read" for item in report.failed)
    transient = (peak - kept) / REQUESTS
    assert transient <= TRANSIENT_BYTES_PER_REQUEST, (
        f"run() peaked {transient:.0f} B per request above what its report keeps"
    )
