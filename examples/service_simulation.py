"""Serving layer walkthrough: many tenants, one wetlab, three policies.

The paper shows a single precise block access is ~141x cheaper than
whole-partition sequencing (Section 7.3); this example shows what happens
when *many* callers want blocks at once.  It builds an object store,
generates a multi-tenant Zipfian request trace, and serves it three ways
with the discrete-event simulator of :mod:`repro.service`:

1. ``unbatched``   — every request pays its own PCR + sequencing cycle;
2. ``batched``     — requests within a 30-minute window share one merged,
   cross-tenant-deduplicated cycle;
3. ``batched+cache`` — decoded blocks additionally land in an LRU cache,
   so hot objects skip the wetlab entirely.

All three serve byte-identical data; only the wetlab bill and the
latency distribution change.

Run with ``PYTHONPATH=src python examples/service_simulation.py``.
"""

from repro import (
    DnaVolume,
    ObjectStore,
    ServiceConfig,
    ServicePipeline,
    VolumeConfig,
)
from repro.service import policy_latency_comparison
from repro.workloads import multi_tenant_trace, object_corpus


def main() -> None:
    # An object store striped over partitions created on demand.
    volume = DnaVolume(
        config=VolumeConfig(partition_leaf_count=128, stripe_blocks=8, stripe_width=4)
    )
    store = ObjectStore(volume)
    block_size = volume.block_size
    corpus = object_corpus(
        {f"doc-{i:03d}": block_size * (1 + i % 6) for i in range(40)}
    )
    for name, data in corpus.items():
        store.put(name, data)
    catalog = {name: len(data) for name, data in corpus.items()}
    print(
        f"stored {len(catalog)} objects over {len(volume.partition_names)} "
        f"partitions ({volume.allocated_blocks()} blocks of {block_size} B)"
    )

    # 25 tenants issue 1500 requests over one simulated day; popularity is
    # Zipfian, so tenants keep colliding on the same hot objects.
    trace = multi_tenant_trace(
        catalog, tenants=25, requests=1500, duration_hours=24.0, seed=42
    )
    print(f"trace: {len(trace)} requests from 25 tenants over 24 h\n")

    simulator = ServicePipeline(
        store,
        config=ServiceConfig(
            window_hours=0.5,
            reads_per_block=30,
            sequencer="nanopore",
            cache_capacity_bytes=block_size * 64,
        ),
    )
    reports = simulator.compare(trace)

    header = (
        f"{'policy':<15} {'cycles':>6} {'PCR':>6} {'reads':>9} "
        f"{'amp':>6} {'p50 h':>7} {'p99 h':>7} {'hit rate':>9}"
    )
    print(header)
    print("-" * len(header))
    for policy, report in reports.items():
        hit_rate = f"{report.cache.hit_rate:8.1%}" if report.cache else "      --"
        print(
            f"{policy:<15} {report.batches:>6} {report.pcr_reactions:>6} "
            f"{report.sequenced_reads:>9} {report.amplification_factor:>6.2f} "
            f"{report.latency.p50:>7.2f} {report.latency.p99:>7.2f} {hit_rate:>9}"
        )

    # Every policy decoded identical bytes — the cheapest one wins.
    assert len({report.checksum for report in reports.values()}) == 1
    unbatched, cached = reports["unbatched"], reports["batched+cache"]
    comparison = policy_latency_comparison(unbatched, cached)
    print(
        f"\nbatching+caching: "
        f"{unbatched.pcr_reactions / max(cached.pcr_reactions, 1):.1f}x fewer "
        f"PCR reactions, "
        f"{unbatched.sequenced_reads / max(cached.sequenced_reads, 1):.1f}x fewer "
        f"sequenced reads, "
        f"{comparison.reduction:.1f}x lower mean latency, identical bytes"
    )


if __name__ == "__main__":
    main()
