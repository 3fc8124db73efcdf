"""Tests for the PCR simulator: amplification, mispriming, residual primers."""

import pytest

import repro.wetlab.pcr as pcr
from repro.core.partition import Partition, PartitionConfig
from repro.exceptions import PCRError
from repro.primers.library import PrimerPair
from repro.wetlab.pcr import PCRConfig, PCRSimulator
from repro.wetlab.pool import MolecularPool
from repro.wetlab.synthesis import SynthesisVendor, synthesize

PAIR = PrimerPair("ATCGTGCAAGCTTGACCTGA", "CGTAGACTTGCAACTGGACT")


def build_partition(blocks=8, leaf_count=64, seed=3):
    partition = Partition(
        PartitionConfig(primers=PAIR, leaf_count=leaf_count, tree_seed=seed)
    )
    # Every block gets distinct content so misprimed products (target prefix
    # grafted onto a foreign payload) are distinguishable from true strands.
    from repro.workloads.text import alice_like_text

    partition.write(alice_like_text(blocks * 256))
    return partition


def build_pool(partition):
    molecules = partition.all_molecules()
    pool = synthesize(molecules, SynthesisVendor.twist(), seed=5)
    for molecule in molecules:
        address = partition.parse_unit_index(molecule.unit_index)
        pool.metadata[molecule.to_strand()].update(block=address.block, slot=address.slot)
    return pool


class TestPCRConfig:
    def test_invalid_cycles(self):
        with pytest.raises(PCRError):
            PCRConfig(cycles=0)

    def test_invalid_efficiency(self):
        with pytest.raises(PCRError):
            PCRConfig(max_efficiency=1.5)

    def test_invalid_penalty(self):
        with pytest.raises(PCRError):
            PCRConfig(mismatch_penalty=1.0)

    def test_touchdown_cycles_bounded(self):
        with pytest.raises(PCRError):
            PCRConfig(cycles=5, touchdown_cycles=6)

    def test_factory_presets(self):
        assert PCRConfig.preamplification().cycles == 15
        touchdown = PCRConfig.touchdown()
        assert touchdown.touchdown_cycles == 10
        assert touchdown.cycles == 28


class TestAmplification:
    def test_main_primer_amplifies_whole_partition_uniformly(self):
        partition = build_partition()
        pool = build_pool(partition)
        amplified = PCRSimulator(PCRConfig(cycles=10)).amplify(
            pool, PAIR.forward, PAIR.reverse
        )
        gain = amplified.total_copies() / pool.total_copies()
        assert gain > 100  # exponential growth
        # Relative concentrations are preserved (uniform amplification).
        first, last = list(pool.species)[0], list(pool.species)[-1]
        before_ratio = pool.copies(first) / pool.copies(last)
        after_ratio = amplified.copies(first) / amplified.copies(last)
        assert after_ratio == pytest.approx(before_ratio, rel=1e-6)

    def test_requires_at_least_one_primer(self):
        partition = build_partition()
        pool = build_pool(partition)
        with pytest.raises(PCRError):
            PCRSimulator(PCRConfig()).amplify(pool, [], PAIR.reverse)

    def test_requires_numpy(self, monkeypatch):
        pool = MolecularPool.from_sequences([PAIR.forward + "ACGT" + PAIR.reverse])
        monkeypatch.setattr(pcr, "np", None)
        with pytest.raises(PCRError, match="requires numpy"):
            PCRSimulator(PCRConfig()).amplify(pool, PAIR.forward, PAIR.reverse)

    def test_templates_are_preserved(self):
        partition = build_partition()
        pool = build_pool(partition)
        amplified = PCRSimulator(PCRConfig(cycles=3)).amplify(
            pool, PAIR.forward, PAIR.reverse
        )
        for strand, copies in pool.species.items():
            assert amplified.copies(strand) >= copies

    def test_wrong_reverse_primer_blocks_amplification(self):
        partition = build_partition()
        pool = build_pool(partition)
        amplified = PCRSimulator(PCRConfig(cycles=8)).amplify(
            pool, PAIR.forward, "ACGTACGTACGTACGTACGT"
        )
        assert amplified.total_copies() == pytest.approx(pool.total_copies())


class TestPreciseAccess:
    def test_elongated_primer_enriches_target_block(self):
        partition = build_partition()
        pool = build_pool(partition)
        target = 3
        primer = partition.primer_for_block(target)
        # The 8-block test partition has a shallow (3-level) index tree, so
        # indexes are closer together than in the paper's 1024-leaf setup;
        # a modest mismatch penalty keeps the focus on enrichment itself.
        config = PCRConfig(cycles=12, mismatch_penalty=0.1)
        amplified = PCRSimulator(config).amplify(pool, primer, PAIR.reverse)
        by_block = amplified.copies_by_annotation("block")
        target_copies = by_block[target]
        other_copies = sum(v for k, v in by_block.items() if k not in (target, None))
        assert target_copies > 10 * other_copies

    def test_misprimed_products_carry_target_prefix(self):
        partition = build_partition()
        pool = build_pool(partition)
        primer = partition.primer_for_block(2)
        config = PCRConfig(cycles=12, mismatch_penalty=0.5, max_mispriming_distance=6)
        amplified = PCRSimulator(config).amplify(pool, primer, PAIR.reverse)
        misprimed = [
            strand
            for strand in amplified.species
            if amplified.annotations(strand).get("misprimed")
        ]
        assert misprimed, "expected at least one misprimed product"
        for strand in misprimed:
            assert strand.startswith(primer.sequence)

    def test_zero_penalty_disables_mispriming(self):
        partition = build_partition()
        pool = build_pool(partition)
        primer = partition.primer_for_block(2)
        config = PCRConfig(cycles=12, mismatch_penalty=0.0)
        amplified = PCRSimulator(config).amplify(pool, primer, PAIR.reverse)
        misprimed = [
            strand
            for strand in amplified.species
            if amplified.annotations(strand).get("misprimed")
        ]
        assert not misprimed

    def test_touchdown_reduces_mispriming(self):
        partition = build_partition()
        pool = build_pool(partition)
        primer = partition.primer_for_block(2)
        loose = PCRConfig(cycles=12, mismatch_penalty=0.5)
        tight = PCRConfig(
            cycles=12, mismatch_penalty=0.5, touchdown_cycles=8,
            touchdown_mispriming_factor=0.0,
        )

        def misprimed_mass(config):
            amplified = PCRSimulator(config).amplify(pool, primer, PAIR.reverse)
            return sum(
                copies
                for strand, copies in amplified.species.items()
                if amplified.annotations(strand).get("misprimed")
            )

        assert misprimed_mass(tight) < misprimed_mass(loose)

    def test_residual_primer_amplifies_off_target_blocks(self):
        partition = build_partition()
        pool = build_pool(partition)
        primer = partition.primer_for_block(2)
        with_residual = PCRConfig(cycles=10, residual_primer_efficiency=0.6)
        without_residual = PCRConfig(cycles=10, residual_primer_efficiency=0.0)

        def off_target_mass(config):
            amplified = PCRSimulator(config).amplify(
                pool, primer, PAIR.reverse, residual_forward_primer=PAIR.forward
            )
            by_block = amplified.copies_by_annotation("block")
            return sum(v for k, v in by_block.items() if k != 2)

        assert off_target_mass(with_residual) > 2 * off_target_mass(without_residual)

    def test_multiplex_amplifies_all_targets(self):
        partition = build_partition()
        pool = build_pool(partition)
        primers = [partition.primer_for_block(b) for b in (1, 4, 6)]
        config = PCRConfig(cycles=12, mismatch_penalty=0.1)
        amplified = PCRSimulator(config).amplify(pool, primers, PAIR.reverse)
        by_block = amplified.copies_by_annotation("block")
        targets = sum(by_block[b] for b in (1, 4, 6))
        others = sum(v for k, v in by_block.items() if k not in (1, 4, 6, None))
        assert targets > 10 * others

    def test_per_cycle_gain_capped_at_doubling(self):
        pool = MolecularPool()
        strand = PAIR.forward + "A" * 110 + PAIR.reverse
        pool.add(strand, 1.0)
        config = PCRConfig(cycles=1, max_efficiency=1.0, residual_primer_efficiency=0.9)
        amplified = PCRSimulator(config).amplify(
            pool, PAIR.forward, PAIR.reverse, residual_forward_primer=PAIR.forward
        )
        assert amplified.copies(strand) <= 2.0 + 1e-9
