"""Pinned decode reports of ``BlockDecoder`` on seeded noisy reads.

The reads come from one small partition's strands through a seeded
``random.Random`` channel — substitutions, insertions, deletions and
whole-strand dropouts — plus forged strands that carry a real address
with a wrong payload in larger clusters than the true strand (what a
misprimed product looks like to the decoder, Section 8.1).  Every
:class:`DecodeReport` field is pinned, the payload as a CRC32, for the
per-block path (``decode_block``) and the readout path
(``decode_readout``), under both ``REPRO_FUSED_KERNELS`` modes.  A second,
clean build pins a block whose original cannot decode although its update
slot has candidates.

Nothing here needs numpy: without it the fused kernels stay pure Python
(first-sight k-mer masks, scalar Hamming columns, ``double_sided_bma``
per cluster) and produce the same clusters and consensi.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import fields, replace

import pytest

from repro.core.partition import Partition, PartitionConfig
from repro.core.updates import UpdatePatch
from repro.pipeline.decoder import BlockDecoder, DecodeReport
from repro.primers.library import PrimerPair

PAIR = PrimerPair("ATCGTGCAAGCTTGACCTGA", "CGTAGACTTGCAACTGGACT")

#: Block carrying one update patch (slot 1).
UPDATED = 2
#: Block whose primary candidates for three slot-0 columns are forged:
#: the primary column map fails and the candidate search must swap a
#: true strand back in.
SEARCHED = 3
#: Block with five forged slot-0 columns: the candidate search runs and
#: still fails.
UNRECOVERABLE = 1
#: Forged slot-0 columns per block.
FORGED = {SEARCHED: (1, 6, 9), UNRECOVERABLE: (0, 2, 5, 8, 12)}
#: Block that lost five slot-0 columns to dropout: fewer than the
#: eleven data columns survive, so it cannot decode.
STARVED = 4
#: Blocks written to the partition.
WRITTEN = tuple(range(6))

BASES = "ACGT"


def _fingerprint(report: DecodeReport) -> tuple:
    """Every report field, in declaration order, with data as a CRC32."""
    values = []
    for item in fields(DecodeReport):
        value = getattr(report, item.name)
        if item.name == "data":
            value = None if value is None else zlib.crc32(value)
        elif isinstance(value, list):
            value = tuple(value)
        values.append(value)
    return tuple(values)


def _corrupt(strand: str, rng: random.Random) -> str:
    """One read of ``strand`` through a substitution/insertion/deletion channel."""
    out = []
    for base in strand:
        draw = rng.random()
        if draw < 0.006:
            out.append(rng.choice([b for b in BASES if b != base]))
        elif draw < 0.008:
            out.append(base)
            out.append(rng.choice(BASES))
        elif draw < 0.01:
            continue
        else:
            out.append(base)
    return "".join(out)


def _build():
    partition = Partition(PartitionConfig(primers=PAIR, leaf_count=64, tree_seed=17))
    rng = random.Random(2023)
    partition.write(bytes(rng.randrange(256) for _ in range(len(WRITTEN) * 256)))
    partition.update_block(UPDATED, UpdatePatch(5, 10, 5, b"[pinned]"))

    reads: list[str] = []
    for molecule in partition.all_molecules():
        address = partition.parse_unit_index(molecule.unit_index)
        column = molecule.intra_index
        if address.block == STARVED and address.slot == 0 and column < 5:
            continue
        strand = molecule.to_strand()
        copies = rng.randint(4, 8)
        if address.block in FORGED:
            # Clean reads, so the forged columns alone decide the outcome.
            reads.extend([strand] * copies)
            if address.slot == 0 and column in FORGED[address.block]:
                payload = bytes(rng.randrange(256) for _ in molecule.payload)
                reads.extend([replace(molecule, payload=payload).to_strand()] * 12)
            continue
        if rng.random() < 0.03:
            continue
        reads.extend(_corrupt(strand, rng) for _ in range(copies))
    rng.shuffle(reads)
    return partition, reads


@pytest.fixture(scope="module")
def pinned_setup():
    return _build()


# Fingerprint fields: block, CRC32 of data, success, reads_total,
# reads_on_prefix, clusters_total, clusters_used, strands_recovered,
# duplicate_strands_discarded, decode_attempts, slots_recovered,
# used_error_correction.  Recorded before the per-block and readout paths
# of the decoder were merged into one pass.
#
# Block 2's bytes differ from ``read_block_reference(2)`` at four
# offsets: three of its slot-0 consensi are wrong and one column is
# missing, and the erasure demotion of the candidate search accepts a
# Reed-Solomon miscorrection.  The pin holds the decoder to what it
# returns, right or wrong.

#: ``decode_block`` per block.
BLOCK_PINS = {
    0: (0, 768043896, True, 657, 581, 114, 114, 14, 0, 1, (0,), True),
    1: (1, None, False, 657, 620, 127, 127, 15, 5, 36, (), True),
    2: (2, 1196416753, True, 657, 518, 105, 105, 29, 6, 9, (0, 1), True),
    3: (3, 787338847, True, 657, 619, 125, 125, 15, 3, 2, (0,), True),
    4: (4, None, False, 657, 415, 76, 76, 10, 1, 0, (), False),
    5: (5, 619959195, True, 657, 481, 90, 90, 14, 1, 1, (0,), True),
}

#: ``decode_readout`` of every written block.
READOUT_PINS = {
    0: (0, 768043896, True, 657, 655, 140, 140, 14, 0, 1, (0,), True),
    1: (1, None, False, 657, 655, 140, 140, 15, 5, 36, (), True),
    2: (2, 1196416753, True, 657, 655, 140, 140, 29, 6, 9, (0, 1), True),
    3: (3, 787338847, True, 657, 655, 140, 140, 15, 3, 2, (0,), True),
    4: (4, None, False, 657, 655, 140, 140, 10, 1, 0, (), False),
    5: (5, 619959195, True, 657, 655, 140, 140, 14, 1, 1, (0,), True),
}

#: ``decode_readout`` of two blocks, in request order.
SUBSET = (SEARCHED, UPDATED)

#: A failed report with nothing counted, for an empty read list.
EMPTY = (None, False, 0, 0, 0, 0, 0, 0, 0, (), False)


@pytest.fixture(params=["1", "0"], ids=["fused", "reference"])
def kernels(request, monkeypatch):
    monkeypatch.setenv("REPRO_FUSED_KERNELS", request.param)
    return request.param


@pytest.mark.usefixtures("kernels")
class TestPinnedDecodeReports:
    @pytest.mark.parametrize("block", sorted(BLOCK_PINS))
    def test_decode_block(self, pinned_setup, block):
        partition, reads = pinned_setup
        report = BlockDecoder(partition).decode_block(reads, block)
        assert _fingerprint(report) == BLOCK_PINS[block]

    def test_decode_readout(self, pinned_setup):
        partition, reads = pinned_setup
        reports = BlockDecoder(partition).decode_readout(reads)
        assert {block: _fingerprint(r) for block, r in reports.items()} == READOUT_PINS

    def test_decode_readout_of_a_subset(self, pinned_setup):
        partition, reads = pinned_setup
        reports = BlockDecoder(partition).decode_readout(reads, list(SUBSET))
        assert list(reports) == list(SUBSET)
        assert {block: _fingerprint(r) for block, r in reports.items()} == {
            block: READOUT_PINS[block] for block in SUBSET
        }

    def test_empty_reads(self, pinned_setup):
        partition, _ = pinned_setup
        decoder = BlockDecoder(partition)
        assert _fingerprint(decoder.decode_block([], UPDATED)) == (UPDATED, *EMPTY)
        reports = decoder.decode_readout([], list(SUBSET))
        assert {block: _fingerprint(r) for block, r in reports.items()} == {
            block: (block, *EMPTY) for block in SUBSET
        }


@pytest.mark.usefixtures("kernels")
class TestNoCallRead:
    """A read carrying ``N`` no-calls that clusters alone gives a consensus
    strand with a base outside ACGT; the decoder skips that strand like
    any unparseable one instead of failing the whole decode."""

    BLOCK = 0
    #: No-calls in a row, more than a read may differ from its cluster.
    NO_CALLS = 30

    def no_call_read(self, partition):
        layout = partition.config.molecule_layout
        start = layout.strand_length - layout.primer_length - layout.payload_bases
        for molecule in partition.all_molecules():
            if partition.parse_unit_index(molecule.unit_index).block == self.BLOCK:
                strand = molecule.to_strand()
                return strand[:start] + "N" * self.NO_CALLS + strand[start + self.NO_CALLS :]
        raise AssertionError("block not written")

    def test_decodes_the_same_blocks_with_the_same_data(self, pinned_setup):
        partition, reads = pinned_setup
        noisy_reads = [*reads, self.no_call_read(partition)]
        decoder = BlockDecoder(partition)
        clean = [
            decoder.decode_block(reads, self.BLOCK),
            *decoder.decode_readout(reads).values(),
        ]
        noisy = [
            decoder.decode_block(noisy_reads, self.BLOCK),
            *decoder.decode_readout(noisy_reads).values(),
        ]
        assert [(r.block, r.success, r.data) for r in noisy] == [
            (r.block, r.success, r.data) for r in clean
        ]
        assert clean[0].success
        # The no-call read formed a cluster of its own.
        assert [r.clusters_total for r in noisy] == [r.clusters_total + 1 for r in clean]


class TestUnwrittenBlock:
    #: In range, never written, and its elongated primer matches reads of
    #: the written blocks within the prefix filter's error budget.
    BLOCK = 9

    def test_both_paths_report_a_failure(self, pinned_setup):
        partition, _ = pinned_setup
        assert not partition.has_block(self.BLOCK)
        reads = [molecule.to_strand() for molecule in partition.all_molecules()] * 3
        decoder = BlockDecoder(partition)
        report = decoder.decode_block(reads, self.BLOCK)
        assert report.reads_on_prefix > 0
        assert (report.success, report.data) == (False, None)
        readout = decoder.decode_readout(reads, [self.BLOCK])[self.BLOCK]
        assert (readout.success, readout.data) == (False, None)


def _build_orphaned_update():
    """Three clean blocks; block 1 carries an update whose original cannot
    decode.  Five of its slot-0 columns and three of its slot-1 columns have
    forged primaries, so the slot-1 unit fails on its primaries too and
    would need the candidate search if anything searched it."""
    partition = Partition(PartitionConfig(primers=PAIR, leaf_count=64, tree_seed=17))
    rng = random.Random(4242)
    partition.write(bytes(rng.randrange(256) for _ in range(3 * 256)))
    partition.update_block(TestOrphanedUpdate.BLOCK, UpdatePatch(5, 10, 5, b"[orphan]"))
    reads: list[str] = []
    for molecule in partition.all_molecules():
        address = partition.parse_unit_index(molecule.unit_index)
        reads.extend([molecule.to_strand()] * rng.randint(4, 8))
        if address.block == TestOrphanedUpdate.BLOCK and molecule.intra_index in (
            TestOrphanedUpdate.FORGED[address.slot]
        ):
            payload = bytes(rng.randrange(256) for _ in molecule.payload)
            reads.extend([replace(molecule, payload=payload).to_strand()] * 12)
    rng.shuffle(reads)
    return partition, reads


@pytest.mark.usefixtures("kernels")
class TestOrphanedUpdate:
    """An update slot whose original cannot decode is never searched: its
    block's report counts slot-0 attempts only and recovers no slot."""

    BLOCK = 1
    #: Forged columns per slot of ``BLOCK``.
    FORGED = {0: (0, 2, 5, 8, 12), 1: (1, 6, 9)}
    #: Recorded on the batched solve plus per-slot search decoder.
    PINS = {
        0: (0, 3707761348, True, 475, 475, 70, 70, 15, 0, 1, (0,), False),
        1: (1, None, False, 475, 475, 70, 70, 30, 10, 36, (), True),
        2: (2, 1665553674, True, 475, 475, 70, 70, 15, 0, 1, (0,), False),
    }

    @pytest.fixture(scope="class")
    def orphaned_setup(self):
        return _build_orphaned_update()

    def test_decode_block(self, orphaned_setup):
        partition, reads = orphaned_setup
        report = BlockDecoder(partition).decode_block(reads, self.BLOCK)
        assert _fingerprint(report) == self.PINS[self.BLOCK]

    def test_decode_readout(self, orphaned_setup):
        partition, reads = orphaned_setup
        reports = BlockDecoder(partition).decode_readout(reads)
        assert {block: _fingerprint(r) for block, r in reports.items()} == self.PINS


class TestOutOfRangeColumn:
    """Two intra-index bases encode 0-15, but a unit has 15 columns: a
    strand whose intra index reads 15 is skipped like an unparseable
    address, so it cannot spoil the unit's column maps."""

    BLOCK = 0

    @pytest.fixture(scope="class")
    def phantom_setup(self):
        partition = Partition(PartitionConfig(primers=PAIR, leaf_count=64, tree_seed=17))
        rng = random.Random(15)
        partition.write(bytes(rng.randrange(256) for _ in range(2 * 256)))
        reads: list[str] = []
        for molecule in partition.all_molecules():
            reads.extend([molecule.to_strand()] * 5)
            address = partition.parse_unit_index(molecule.unit_index)
            if address.block == self.BLOCK and molecule.intra_index == 3:
                # A payload of its own keeps it out of column 3's cluster;
                # it is the block's largest cluster, so a search that kept
                # it would demote it last.
                phantom = replace(
                    molecule,
                    intra_index=partition.molecules_per_block,
                    payload=bytes(rng.randrange(256) for _ in molecule.payload),
                )
                reads.extend([phantom.to_strand()] * 12)
        rng.shuffle(reads)
        return partition, reads

    @pytest.mark.usefixtures("kernels")
    def test_phantom_strand_costs_no_attempt(self, phantom_setup):
        partition, reads = phantom_setup
        decoder = BlockDecoder(partition)
        reports = [
            decoder.decode_block(reads, self.BLOCK),
            decoder.decode_readout(reads)[self.BLOCK],
        ]
        for report in reports:
            assert report.data == partition.read_block_reference(self.BLOCK)
            assert report.decode_attempts == 1
            assert report.strands_recovered == partition.molecules_per_block
            assert not report.used_error_correction
