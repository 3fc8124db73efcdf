"""Tests for low-level DNA sequence utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SequenceError
from repro.sequence import (
    bounded_edit_distance,
    chunk_sequence,
    complement,
    gc_content,
    gc_count,
    hamming_distance,
    is_valid_sequence,
    kmer_set,
    kmer_similarity,
    levenshtein_distance,
    longest_common_prefix,
    max_homopolymer_run,
    pairwise_min_hamming,
    reverse_complement,
    sliding_windows,
    validate_sequence,
)

dna = st.text(alphabet="ACGT", min_size=0, max_size=60)
nonempty_dna = st.text(alphabet="ACGT", min_size=1, max_size=60)


class TestValidation:
    def test_valid_sequence_passes(self):
        assert validate_sequence("ACGTACGT") == "ACGTACGT"

    def test_empty_sequence_is_valid(self):
        assert validate_sequence("") == ""

    def test_lowercase_rejected(self):
        with pytest.raises(SequenceError):
            validate_sequence("acgt")

    def test_non_dna_characters_rejected(self):
        with pytest.raises(SequenceError):
            validate_sequence("ACGU")

    def test_non_string_rejected(self):
        with pytest.raises(SequenceError):
            validate_sequence(1234)

    def test_is_valid_sequence_true(self):
        assert is_valid_sequence("GATTACA")

    def test_is_valid_sequence_false(self):
        assert not is_valid_sequence("GATTACA!")
        assert not is_valid_sequence(None)


class TestGCContent:
    def test_balanced(self):
        assert gc_content("ACGT") == 0.5

    def test_all_gc(self):
        assert gc_content("GGCC") == 1.0

    def test_all_at(self):
        assert gc_content("ATAT") == 0.0

    def test_empty(self):
        assert gc_content("") == 0.0

    def test_gc_count(self):
        assert gc_count("ACGTGG") == 4

    @given(nonempty_dna)
    def test_gc_content_in_unit_interval(self, sequence):
        assert 0.0 <= gc_content(sequence) <= 1.0

    @given(nonempty_dna)
    def test_gc_content_matches_count(self, sequence):
        assert gc_content(sequence) == pytest.approx(gc_count(sequence) / len(sequence))


class TestHomopolymers:
    def test_no_repeat(self):
        assert max_homopolymer_run("ACGT") == 1

    def test_run_of_four(self):
        assert max_homopolymer_run("ACGGGGT") == 4

    def test_run_at_end(self):
        assert max_homopolymer_run("ACGTTTT") == 4

    def test_empty(self):
        assert max_homopolymer_run("") == 0

    def test_single_base(self):
        assert max_homopolymer_run("A") == 1

    @given(nonempty_dna)
    def test_run_bounded_by_length(self, sequence):
        assert 1 <= max_homopolymer_run(sequence) <= len(sequence)


class TestComplement:
    def test_complement(self):
        assert complement("ACGT") == "TGCA"

    def test_reverse_complement(self):
        assert reverse_complement("AACG") == "CGTT"

    @given(dna)
    def test_reverse_complement_is_involution(self, sequence):
        assert reverse_complement(reverse_complement(sequence)) == sequence

    @given(nonempty_dna)
    def test_complement_preserves_gc(self, sequence):
        assert gc_count(complement(sequence)) == gc_count(sequence)


class TestDistances:
    def test_hamming_zero(self):
        assert hamming_distance("ACGT", "ACGT") == 0

    def test_hamming_counts_mismatches(self):
        assert hamming_distance("AAAA", "AATT") == 2

    def test_hamming_rejects_unequal_lengths(self):
        with pytest.raises(SequenceError):
            hamming_distance("AAA", "AAAA")

    def test_levenshtein_identity(self):
        assert levenshtein_distance("ACGT", "ACGT") == 0

    def test_levenshtein_substitution(self):
        assert levenshtein_distance("ACGT", "AGGT") == 1

    def test_levenshtein_insertion(self):
        assert levenshtein_distance("ACGT", "ACGGT") == 1

    def test_levenshtein_deletion(self):
        assert levenshtein_distance("ACGT", "AGT") == 1

    def test_levenshtein_empty_strings(self):
        assert levenshtein_distance("", "ACG") == 3
        assert levenshtein_distance("ACG", "") == 3

    def test_levenshtein_upper_bound_cap(self):
        assert levenshtein_distance("AAAAAAAA", "TTTTTTTT", upper_bound=3) == 4

    def test_levenshtein_upper_bound_length_gap(self):
        assert levenshtein_distance("A", "AAAAAAAA", upper_bound=2) == 3

    @pytest.mark.parametrize("bound", [-1, -2, -100])
    @pytest.mark.parametrize("left, right", [("A", "C"), ("ACGT", "ACGT"), ("", "A")])
    def test_levenshtein_negative_upper_bound_rejected(self, left, right, bound):
        # No pair of strings is at a negative distance; the banded path
        # used to answer bound + 1 (0 for -1, -1 for -2).
        with pytest.raises(SequenceError, match="non-negative"):
            levenshtein_distance(left, right, upper_bound=bound)

    def test_levenshtein_zero_upper_bound(self):
        assert levenshtein_distance("ACGT", "ACGT", upper_bound=0) == 0
        assert levenshtein_distance("A", "C", upper_bound=0) == 1

    @given(dna, dna)
    def test_levenshtein_symmetric(self, left, right):
        assert levenshtein_distance(left, right) == levenshtein_distance(right, left)

    @given(dna, dna)
    def test_levenshtein_bounded_by_hamming(self, left, right):
        if len(left) == len(right):
            assert levenshtein_distance(left, right) <= hamming_distance(left, right)

    @given(dna, dna)
    def test_levenshtein_lower_bound_length_difference(self, left, right):
        assert levenshtein_distance(left, right) >= abs(len(left) - len(right))


@st.composite
def _bounded_pairs(draw):
    """``(left, right, bound)`` aimed at the edges of the bounded contract."""
    bound = draw(st.integers(min_value=0, max_value=12))
    alphabet = draw(st.sampled_from(["ACGT", "ACGTN", "ab\u00e9\u20ac\U0001f600"]))
    left = draw(st.text(alphabet=alphabet, max_size=300))
    kind = draw(st.sampled_from(["edited", "gap", "gap+1", "empty", "random"]))
    if kind == "edited":
        chars = list(left)
        for _ in range(draw(st.integers(min_value=0, max_value=bound + 3))):
            position = draw(st.integers(min_value=0, max_value=len(chars)))
            operation = draw(st.sampled_from("sid"))
            char = draw(st.sampled_from(alphabet))
            if operation == "i" or not chars:
                chars.insert(position, char)
            elif operation == "s":
                chars[min(position, len(chars) - 1)] = char
            else:
                del chars[min(position, len(chars) - 1)]
        right = "".join(chars)
    elif kind in ("gap", "gap+1"):
        # A length gap of exactly bound or bound + 1: pure insertions
        # (distance equal to the gap) or an unrelated string.
        gap = bound + (kind == "gap+1")
        extra = draw(st.text(alphabet=alphabet, min_size=gap, max_size=gap))
        if draw(st.booleans()):
            at = draw(st.integers(min_value=0, max_value=len(left)))
            right = left[:at] + extra + left[at:]
        else:
            size = len(left) + gap
            right = draw(st.text(alphabet=alphabet, min_size=size, max_size=size))
    elif kind == "empty":
        right = ""
    else:
        right = draw(st.text(alphabet=alphabet, max_size=300))
    if draw(st.booleans()):
        left, right = right, left
    return left, right, bound


class TestBoundedEditDistance:
    """The bit-parallel kernel against the banded reference."""

    @settings(max_examples=400, deadline=None)
    @given(_bounded_pairs())
    def test_matches_banded_reference(self, case):
        left, right, bound = case
        assert bounded_edit_distance(left, right, bound) == levenshtein_distance(
            left, right, upper_bound=bound
        )

    def test_contract(self):
        assert bounded_edit_distance("ACGT", "ACGT", 0) == 0
        assert bounded_edit_distance("AAAAAAAA", "TTTTTTTT", 3) == 4
        assert bounded_edit_distance("A", "AAAAAAAA", 2) == 3
        # An empty operand returns the other operand's length, uncapped.
        assert bounded_edit_distance("", "ACGTACGT", 2) == 8
        assert bounded_edit_distance("ACGTACGT", "", 2) == 8

    @pytest.mark.parametrize("left, right", [("A", "C"), ("ACGT", "ACGT"), ("", "A")])
    def test_negative_bound_rejected(self, left, right):
        with pytest.raises(SequenceError, match="non-negative"):
            bounded_edit_distance(left, right, -1)


class TestKmers:
    def test_kmer_set(self):
        assert kmer_set("ACGT", 2) == {"AC", "CG", "GT"}

    def test_kmer_set_short_sequence(self):
        assert kmer_set("AC", 3) == frozenset()

    def test_kmer_set_invalid_k(self):
        with pytest.raises(SequenceError):
            kmer_set("ACGT", 0)

    def test_kmer_similarity_identical(self):
        assert kmer_similarity("ACGTACGTACGT", "ACGTACGTACGT") == 1.0

    def test_kmer_similarity_disjoint(self):
        assert kmer_similarity("AAAAAAAA", "CCCCCCCC") == 0.0

    def test_kmer_similarity_empty(self):
        assert kmer_similarity("", "") == 1.0
        assert kmer_similarity("ACGTACGT", "") == 0.0


class TestMisc:
    def test_longest_common_prefix(self):
        assert longest_common_prefix(["ACGT", "ACGA", "ACG"]) == "ACG"

    def test_longest_common_prefix_empty_collection(self):
        assert longest_common_prefix([]) == ""

    def test_longest_common_prefix_no_overlap(self):
        assert longest_common_prefix(["A", "C"]) == ""

    def test_sliding_windows(self):
        assert sliding_windows("ACGT", 2) == ["AC", "CG", "GT"]

    def test_sliding_windows_too_wide(self):
        assert sliding_windows("AC", 5) == []

    def test_sliding_windows_invalid_width(self):
        with pytest.raises(SequenceError):
            sliding_windows("ACGT", 0)

    def test_chunk_sequence(self):
        assert chunk_sequence("ACGTAC", 4) == ["ACGT", "AC"]

    def test_chunk_sequence_invalid_size(self):
        with pytest.raises(SequenceError):
            chunk_sequence("ACGT", 0)

    def test_pairwise_min_hamming(self):
        assert pairwise_min_hamming(["AAAA", "AATT", "TTTT"]) == 2

    def test_pairwise_min_hamming_single(self):
        assert pairwise_min_hamming(["ACGT"]) == 5

    def test_pairwise_min_hamming_empty(self):
        assert pairwise_min_hamming([]) == 0
