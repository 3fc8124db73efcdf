"""Fixtures shared by the test modules."""

import pytest

from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads.objects import object_corpus


def build_decode_workload():
    """A two-partition store with digitally perfect reads (numpy-free).

    Each written partition contributes every strand three times — enough
    coverage for clustering and consensus without a sequencing simulator.

    Returns ``(store, blocks, reads)``: the store, the written blocks and
    the reads, each keyed by partition name.
    """
    volume = DnaVolume(
        config=VolumeConfig(partition_leaf_count=16, stripe_blocks=2, stripe_width=2)
    )
    store = ObjectStore(volume)
    corpus = object_corpus(
        {f"obj-{i}": volume.block_size * 3 for i in range(3)}, seed=7
    )
    for name, data in corpus.items():
        store.put(name, data)
    blocks: dict[str, list[int]] = {}
    reads: dict[str, list[str]] = {}
    for partition_name in volume.partition_names:
        partition = volume.partition(partition_name)
        written = partition.written_blocks()
        if not written:
            continue
        blocks[partition_name] = list(written)
        reads[partition_name] = [
            molecule.to_strand()
            for molecule in partition.all_molecules()
            for _ in range(3)
        ]
    assert len(blocks) >= 2, "the decode should span several partitions"
    return store, blocks, reads


@pytest.fixture(scope="module")
def decode_workload():
    """:func:`build_decode_workload`, built once per module."""
    return build_decode_workload()
