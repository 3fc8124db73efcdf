"""Tests for elongated PCR primer construction."""

import pytest

from repro.core.elongation import (
    build_cover_primers,
    build_elongated_primer,
    build_range_primers,
    build_two_sided_primers,
)
from repro.core.index_tree import IndexTree
from repro.core.prefix_cover import prefix_cover_for_range
from repro.exceptions import AddressError, PrimerDesignError

FORWARD = "ATCGTGCAAGCTTGACCTGA"
REVERSE = "CGTAGACTTGCAACTGGACT"


@pytest.fixture(scope="module")
def tree():
    return IndexTree(leaf_count=1024, seed=23)


class TestFullElongation:
    def test_length_matches_paper(self, tree):
        """Section 6.5: 20-base primer + sync base + 10-base index = 31."""
        primer = build_elongated_primer(FORWARD, tree, 531)
        assert primer.length == 31

    def test_targets_block(self, tree):
        primer = build_elongated_primer(FORWARD, tree, 531)
        assert primer.is_full_elongation
        assert primer.target_block == 531

    def test_sequence_starts_with_main_primer(self, tree):
        primer = build_elongated_primer(FORWARD, tree, 144)
        assert primer.sequence.startswith(FORWARD)

    def test_sequence_ends_with_block_index(self, tree):
        primer = build_elongated_primer(FORWARD, tree, 144)
        assert primer.sequence.endswith(tree.encode(144))

    def test_gc_content_in_pcr_window(self, tree):
        """Section 6.5: GC content of all primers is 48-52%; the main primer
        here is exactly 50% and the index contributes exactly 50%, so the
        elongated primer deviates only through the sync base."""
        for block in (144, 307, 531):
            primer = build_elongated_primer(FORWARD, tree, block)
            assert 0.44 <= primer.gc_content <= 0.56

    def test_melting_temperature_reasonable(self, tree):
        primer = build_elongated_primer(FORWARD, tree, 531)
        assert 55.0 <= primer.melting_temperature <= 70.0

    def test_no_long_homopolymers(self, tree):
        for block in range(0, 1024, 97):
            primer = build_elongated_primer(FORWARD, tree, block)
            assert primer.max_homopolymer <= 4

    def test_without_sync_base(self, tree):
        primer = build_elongated_primer(FORWARD, tree, 531, include_sync_base=False)
        assert primer.length == 30


class TestPartialElongation:
    def test_levels_control_length(self, tree):
        for levels in range(6):
            primer = build_elongated_primer(FORWARD, tree, 531, levels=levels)
            assert primer.length == 21 + 2 * levels

    def test_partial_is_not_full(self, tree):
        primer = build_elongated_primer(FORWARD, tree, 531, levels=3)
        assert not primer.is_full_elongation
        assert primer.target_block is None

    def test_invalid_levels(self, tree):
        with pytest.raises(PrimerDesignError):
            build_elongated_primer(FORWARD, tree, 531, levels=6)


class TestBlockOutsideTree:
    @pytest.mark.parametrize("block", [64, -1, 1000])
    @pytest.mark.parametrize("levels", [None, 2])
    def test_rejected(self, block, levels):
        """Such a primer would amplify another block (64 -> 0, -1 -> 63,
        1000 -> 40) while claiming to target ``block``."""
        small = IndexTree(leaf_count=64, seed=23)
        with pytest.raises(AddressError):
            build_elongated_primer(FORWARD, small, block, levels=levels)


class TestRangePrimers:
    def test_range_covered_exactly(self, tree):
        primers = build_range_primers(FORWARD, tree, 100, 131)
        covered = set()
        for primer in primers:
            index_part = primer.elongation[1:]  # strip the sync base
            digits = tree.decode_path(index_part)
            covered.update(tree.leaves_under_prefix(digits))
        assert covered == set(range(100, 132))

    def test_aligned_range_uses_single_primer(self, tree):
        primers = build_range_primers(FORWARD, tree, 256, 511)
        assert len(primers) == 1
        assert primers[0].levels == 1

    def test_single_block_range(self, tree):
        primers = build_range_primers(FORWARD, tree, 42, 42)
        assert len(primers) == 1
        assert primers[0].target_block == 42

    def test_full_depth_targets_match_decoded_addresses(self, tree):
        cover = prefix_cover_for_range(tree, 13, 530)
        primers = build_cover_primers(FORWARD, tree, cover)
        assert primers == build_range_primers(FORWARD, tree, 13, 530)
        full = [p for p in primers if p.is_full_elongation]
        assert full
        for primer in full:
            assert primer.target_block == tree.decode(primer.elongation[1:])


class TestTwoSidedElongation:
    def test_index_split_between_primers(self, tree):
        forward, reverse = build_two_sided_primers(FORWARD, REVERSE, tree, 531)
        index = tree.encode(531)
        assert forward.elongation.endswith(index[:5])
        assert reverse.elongation == index[5:]

    def test_both_target_the_block(self, tree):
        forward, reverse = build_two_sided_primers(FORWARD, REVERSE, tree, 531)
        assert forward.target_block == 531
        assert reverse.target_block == 531

    def test_two_sided_is_shorter_per_primer(self, tree):
        """Section 7.7.1: splitting lowers each primer's elongation length
        (and therefore its melting temperature) relative to one-sided."""
        one_sided = build_elongated_primer(FORWARD, tree, 531)
        forward, reverse = build_two_sided_primers(FORWARD, REVERSE, tree, 531)
        assert forward.length < one_sided.length
        assert reverse.length < one_sided.length
