"""Tests for the end-to-end block decoder on small simulated readouts."""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.codec.molecule import Molecule
from repro.core.addressing import BlockAddress
from repro.core.partition import Partition, PartitionConfig
from repro.core.updates import UpdatePatch
from repro.exceptions import DecodingError
from repro.pipeline.decoder import (
    MAX_CANDIDATES_PER_ADDRESS,
    BlockDecoder,
    _Candidate,
    _matrix_fields,
    _strand_fields,
)
from repro.primers.library import PrimerPair
from repro.wetlab.errors import ErrorModel
from repro.wetlab.pcr import PCRConfig, PCRSimulator
from repro.wetlab.sequencing import Sequencer
from repro.wetlab.synthesis import SynthesisVendor, synthesize
from repro.workloads.text import alice_like_text

PAIR = PrimerPair("ATCGTGCAAGCTTGACCTGA", "CGTAGACTTGCAACTGGACT")


@pytest.fixture(scope="module")
def small_setup():
    """A 20-block partition with one updated block, synthesized and amplified."""
    partition = Partition(PartitionConfig(primers=PAIR, leaf_count=64, tree_seed=17))
    partition.write(alice_like_text(20 * 256))
    partition.update_block(7, UpdatePatch(5, 10, 5, b"[patched]"))
    molecules = partition.all_molecules()
    pool = synthesize(molecules, SynthesisVendor.twist(), seed=3)
    for molecule in molecules:
        address = partition.parse_unit_index(molecule.unit_index)
        pool.metadata[molecule.to_strand()].update(block=address.block, slot=address.slot)
    return partition, pool


def precise_reads(partition, pool, block, read_count=600, seed=5):
    primer = partition.primer_for_block(block)
    amplified = PCRSimulator(PCRConfig.touchdown()).amplify(
        pool, primer, PAIR.reverse, residual_forward_primer=PAIR.forward
    )
    result = Sequencer(ErrorModel(), seed=seed).sequence(amplified, read_count)
    return result.sequences()


class TestBlockDecoder:
    def test_decodes_clean_block(self, small_setup):
        partition, pool = small_setup
        reads = precise_reads(partition, pool, 3)
        report = BlockDecoder(partition).decode_block(reads, 3)
        assert report.success
        expected = partition.read_block_reference(3)
        assert report.data[: len(expected)] == expected

    def test_decodes_updated_block_with_patch_applied(self, small_setup):
        partition, pool = small_setup
        reads = precise_reads(partition, pool, 7)
        report = BlockDecoder(partition).decode_block(reads, 7)
        assert report.success
        expected = partition.read_block_reference(7)
        assert report.data[: len(expected)] == expected
        assert b"[patched]" in report.data
        assert set(report.slots_recovered) == {0, 1}

    def test_report_accounting(self, small_setup):
        partition, pool = small_setup
        reads = precise_reads(partition, pool, 3)
        report = BlockDecoder(partition).decode_block(reads, 3)
        assert report.reads_total == len(reads)
        assert 0 < report.reads_on_prefix <= report.reads_total
        assert report.clusters_total >= report.strands_recovered
        assert report.strands_recovered >= 15

    def test_wrong_block_fails_gracefully(self, small_setup):
        """Asking for a block whose reads were not amplified cannot succeed,
        but must not raise either."""
        partition, pool = small_setup
        reads = precise_reads(partition, pool, 3)
        report = BlockDecoder(partition).decode_block(reads, 15)
        assert not report.success
        assert report.data is None

    def test_empty_reads(self, small_setup):
        partition, _ = small_setup
        report = BlockDecoder(partition).decode_block([], 3)
        assert not report.success
        assert report.reads_on_prefix == 0

    def test_noiseless_channel_decodes_with_few_reads(self, small_setup):
        partition, pool = small_setup
        primer = partition.primer_for_block(4)
        amplified = PCRSimulator(PCRConfig.touchdown()).amplify(
            pool, primer, PAIR.reverse, residual_forward_primer=PAIR.forward
        )
        result = Sequencer(ErrorModel.noiseless(), seed=9).sequence(amplified, 150)
        report = BlockDecoder(partition).decode_block(result.sequences(), 4)
        assert report.success
        expected = partition.read_block_reference(4)
        assert report.data[: len(expected)] == expected


def _reference_attribution(partition, sizes, strands, targets):
    """The decoder's attribution as one loop over the strands: a frozen
    :class:`Molecule` per strand and a fresh unit-index parse per strand.

    Returns the buckets as nested (key, items) lists, so their order is
    compared too, and the duplicate count of each target.
    """
    layout = partition.config.molecule_layout
    slot_limits = {
        block: partition.update_count(block)
        for block in targets
        if partition.has_block(block)
    }
    duplicates = dict.fromkeys(targets, 0)
    candidates = {}
    for size, strand in zip(sizes, strands):
        try:
            molecule = Molecule.from_strand(strand, layout)
        except DecodingError:
            continue
        address = partition.parse_unit_index(molecule.unit_index)
        if (
            address is None
            or address.block not in slot_limits
            or molecule.intra_index >= partition.molecules_per_block
        ):
            continue
        if address.slot > slot_limits[address.block]:
            duplicates[address.block] += 1
            continue
        bucket = (
            candidates.setdefault(address.block, {})
            .setdefault(address.slot, {})
            .setdefault(molecule.intra_index, [])
        )
        if bucket:
            duplicates[address.block] += 1
        if len(bucket) < MAX_CANDIDATES_PER_ADDRESS and all(
            molecule.payload != existing.payload for existing in bucket
        ):
            bucket.append(_Candidate(molecule.payload, size))
    return _ordered(candidates), duplicates


def _ordered(candidates):
    """Nested buckets as (key, items) lists, which compare in order."""
    return [
        (
            block,
            [
                (slot, [(column, bucket) for column, bucket in columns.items()])
                for slot, columns in slots.items()
            ],
        )
        for block, slots in candidates.items()
    ]


class TestArrayAttribution:
    """The decoder's array attribution (``_matrix_fields`` over the
    consensus matrix) against the per-strand ``Molecule.from_strand`` loop,
    on seeded strands that hit every branch of the attribution."""

    #: Blocks written; ``UPDATED`` carries one patch.
    WRITTEN = 6
    UPDATED = 2
    #: In range, never written.
    UNWRITTEN = 9

    @pytest.fixture(scope="class")
    def seeded_strands(self):
        partition = Partition(PartitionConfig(primers=PAIR, leaf_count=64, tree_seed=17))
        rng = random.Random(29)
        partition.write(bytes(rng.randrange(256) for _ in range(self.WRITTEN * 256)))
        partition.update_block(self.UPDATED, UpdatePatch(5, 10, 5, b"[array]"))
        molecules = partition.all_molecules()
        codec = partition.address_codec

        def payload():
            return bytes(rng.randrange(256) for _ in molecules[0].payload)

        strands = []
        for molecule in molecules:
            # Each true strand once or twice (a repeated payload).
            strands.extend([molecule.to_strand()] * rng.randint(1, 2))
        for _ in range(40):
            molecule = rng.choice(molecules)
            kind = rng.randrange(6)
            if kind == 0:
                # A base outside ACGT anywhere in the strand.
                strand = list(molecule.to_strand())
                strand[rng.randrange(len(strand))] = rng.choice("NRY-")
                strands.append("".join(strand))
            elif kind == 1:
                # Intra index 15: two bases encode it, but it names no column.
                strands.append(replace(molecule, intra_index=15).to_strand())
            elif kind == 2:
                # A unit index the partition cannot parse.
                unit_index = "".join(rng.choice("ACGT") for _ in molecule.unit_index)
                strands.append(replace(molecule, unit_index=unit_index).to_strand())
            elif kind == 3:
                # A slot past the block's logged updates.
                address = partition.parse_unit_index(molecule.unit_index)
                unit_index = codec.encode(BlockAddress(address.block, 3))
                strands.append(replace(molecule, unit_index=unit_index).to_strand())
            elif kind == 4:
                # A repeated, then a distinct payload at a covered address.
                strands.append(molecule.to_strand())
                strands.append(replace(molecule, payload=payload()).to_strand())
            else:
                # More distinct payloads at one address than are kept.
                strands.extend(
                    replace(molecule, payload=payload()).to_strand()
                    for _ in range(MAX_CANDIDATES_PER_ADDRESS + 2)
                )
        rng.shuffle(strands)
        sizes = [rng.randint(1, 12) for _ in strands]
        return partition, strands, sizes

    def _matrix(self, strands):
        length = len(strands[0])
        blob = "".join(strands).encode("ascii")
        return np.frombuffer(blob, dtype=np.uint8).reshape(len(strands), length)

    @pytest.mark.parametrize("targets", ["written", "mixed"])
    def test_buckets_match_the_per_strand_loop(self, seeded_strands, targets):
        partition, strands, sizes = seeded_strands
        layout = partition.config.molecule_layout
        targets = (
            partition.written_blocks()
            if targets == "written"
            else [self.UNWRITTEN, 4, self.UPDATED, 0]
        )
        decoder = BlockDecoder(partition)
        fields = _matrix_fields(self._matrix(strands), layout)
        assert fields == _strand_fields(strands, layout)
        candidates, duplicates = decoder._attribute(sizes, fields, targets)
        expected_candidates, expected_duplicates = _reference_attribution(
            partition, sizes, strands, targets
        )
        assert _ordered(candidates) == expected_candidates
        assert list(duplicates.items()) == list(expected_duplicates.items())

    def test_seeded_strands_reach_every_branch(self, seeded_strands):
        partition, strands, sizes = seeded_strands
        layout = partition.config.molecule_layout
        fields = _matrix_fields(self._matrix(strands), layout)
        parsed = {position for position, *_ in fields}
        assert len(parsed) < len(strands)
        assert all(set(strands[p]) <= set("ACGT") for p in parsed)
        assert all(not set(s) <= set("ACGT") for p, s in enumerate(strands) if p not in parsed)
        addresses = [partition.parse_unit_index(unit) for _, unit, _, _ in fields]
        assert None in addresses
        assert any(intra == 15 for _, _, intra, _ in fields)
        assert any(
            address is not None and address.slot > partition.update_count(address.block)
            for address in addresses
            if address is not None and partition.has_block(address.block)
        )
        candidates, duplicates = BlockDecoder(partition)._attribute(
            sizes, fields, partition.written_blocks()
        )
        buckets = [
            bucket
            for slots in candidates.values()
            for columns in slots.values()
            for bucket in columns.values()
        ]
        assert max(len(bucket) for bucket in buckets) == MAX_CANDIDATES_PER_ADDRESS
        assert any(len(bucket) == 1 for bucket in buckets)
        assert 1 in candidates[self.UPDATED]
        assert all(count > 0 for count in duplicates.values())
