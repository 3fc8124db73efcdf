"""Tests for read pre-processing, clustering and trace reconstruction."""

import numpy as np
import pytest

from repro.exceptions import ClusteringError, ReconstructionError
from repro.pipeline.clustering import cluster_reads
from repro.pipeline.consensus import bma_consensus, double_sided_bma, majority_consensus
from repro.pipeline.reads import (
    extract_region,
    find_primer_end,
    has_prefix,
    reads_with_prefix,
)
from repro.wetlab.errors import ErrorModel

PRIMER = "ATCGTGCAAGCTTGACCTGA"
REVERSE = "CGTAGACTTGCAACTGGACT"


class TestPrimerLocation:
    def test_exact_prefix(self):
        read = PRIMER + "ACGT" * 10
        assert find_primer_end(read, PRIMER) == len(PRIMER)

    def test_prefix_with_substitution(self):
        read = "T" + PRIMER[1:] + "ACGT" * 10
        assert find_primer_end(read, PRIMER) == len(PRIMER)

    def test_prefix_with_leading_insertion(self):
        read = "G" + PRIMER + "ACGT" * 10
        end = find_primer_end(read, PRIMER)
        assert end is not None and end >= len(PRIMER)

    def test_prefix_with_deletion(self):
        read = PRIMER[:10] + PRIMER[11:] + "ACGT" * 10
        assert find_primer_end(read, PRIMER) is not None

    def test_unrelated_read_rejected(self):
        assert find_primer_end("GGCCTTAAGGCCTTAAGGCCTTAA" * 3, PRIMER) is None

    def test_empty_primer_rejected(self):
        with pytest.raises(Exception):
            find_primer_end("ACGT", "")

    def test_has_prefix_exact_and_noisy(self):
        assert has_prefix(PRIMER + "AAAA", PRIMER)
        assert has_prefix("A" + PRIMER[2:] + "AAAA", PRIMER)
        assert not has_prefix("TTTTGGGGCCCCAAAATTTTGGGG", PRIMER)

    def test_reads_with_prefix_filters(self):
        good = PRIMER + "ACGT" * 20
        bad = "GGCCTTAAGGCCTTAAGGCC" + "ACGT" * 20
        assert reads_with_prefix([good, bad, good], PRIMER) == [good, good]

    def test_extract_region(self):
        payload = "ACGT" * 15
        read = PRIMER + payload + REVERSE
        assert extract_region(read, PRIMER, REVERSE) == payload

    def test_extract_region_missing_reverse(self):
        read = PRIMER + "ACGT" * 15
        assert extract_region(read, PRIMER, REVERSE) is None

    def test_extract_region_overlapping_primers(self):
        read = PRIMER + REVERSE
        assert extract_region(read, PRIMER, REVERSE) == ""


def _noisy_copies(strand, count, seed, model=None):
    model = model or ErrorModel(substitution_rate=0.01, insertion_rate=0.003, deletion_rate=0.003)
    rng = np.random.default_rng(seed)
    return [model.corrupt(strand, rng) for _ in range(count)]


class TestClustering:
    def _strands(self, count=6):
        rng = np.random.default_rng(42)
        strands = []
        for i in range(count):
            body = "".join("ACGT"[b] for b in rng.integers(0, 4, size=100))
            signature = "".join("ACGT"[b] for b in rng.integers(0, 4, size=13))
            strands.append(PRIMER + signature + body[: 150 - len(PRIMER) - 13])
        return strands

    def test_clusters_separate_distinct_strands(self):
        strands = self._strands(5)
        reads = []
        for i, strand in enumerate(strands):
            reads.extend(_noisy_copies(strand, 8, seed=i))
        clusters = cluster_reads(reads, signature_start=20, signature_length=13)
        assert len(clusters) >= 5
        top = clusters[:5]
        assert all(cluster.size >= 5 for cluster in top)

    def test_clusters_sorted_by_size(self):
        strands = self._strands(3)
        reads = (
            _noisy_copies(strands[0], 10, 0)
            + _noisy_copies(strands[1], 5, 1)
            + _noisy_copies(strands[2], 2, 2)
        )
        clusters = cluster_reads(reads, signature_start=20, signature_length=13)
        sizes = [cluster.size for cluster in clusters]
        assert sizes == sorted(sizes, reverse=True)

    def test_noisy_signature_routed_to_existing_bucket(self):
        strand = self._strands(1)[0]
        clean = [strand] * 6
        corrupted_signature = strand[:22] + ("A" if strand[22] != "A" else "C") + strand[23:]
        clusters = cluster_reads(
            clean + [corrupted_signature], signature_start=20, signature_length=13
        )
        assert clusters[0].size == 7

    @pytest.mark.parametrize("fused", ["0", "1"])
    @pytest.mark.parametrize("edit", ["substitution", "insertion", "deletion"])
    def test_one_signature_edit_anywhere_routes_home(self, edit, fused, monkeypatch):
        # Whatever the corrupt signature hashes or sorts to, the
        # deletion-neighbourhood index routes it to its home bucket.  Each
        # corrupt read comes twice, so the fused path also answers from
        # its route memo.
        monkeypatch.setenv("REPRO_FUSED_KERNELS", fused)
        strand = self._strands(1)[0]
        start, length = 20, 13
        corrupted = []
        for position in range(start, start + length):
            other = "A" if strand[position] != "A" else "C"
            if edit == "substitution":
                read = strand[:position] + other + strand[position + 1 :]
            elif edit == "insertion":
                read = strand[:position] + other + strand[position:]
            else:
                read = strand[:position] + strand[position + 1 :]
            corrupted += [read, read]
        clusters = cluster_reads(
            [strand] * 6 + corrupted, signature_start=start, signature_length=length
        )
        assert [cluster.size for cluster in clusters] == [6 + 2 * length]
        assert clusters[0].signature == strand[start : start + length]

    def test_invalid_signature_length(self):
        with pytest.raises(ClusteringError):
            cluster_reads(["ACGT"], signature_start=0, signature_length=0)

    def test_short_reads_skipped(self):
        clusters = cluster_reads(["ACG"], signature_start=20, signature_length=13)
        assert clusters == []

    def test_empty_input(self):
        assert cluster_reads([], signature_start=20, signature_length=13) == []


class TestConsensus:
    STRAND = (PRIMER + "ACCGTTGGAACCGGTTAACC" * 6)[:140]

    def test_majority_consensus_with_substitutions(self):
        model = ErrorModel(substitution_rate=0.05, insertion_rate=0.0, deletion_rate=0.0)
        reads = _noisy_copies(self.STRAND, 15, seed=1, model=model)
        assert majority_consensus(reads, len(self.STRAND)) == self.STRAND

    def test_majority_consensus_requires_reads(self):
        with pytest.raises(ReconstructionError):
            majority_consensus([], 10)

    def test_bma_handles_indels(self):
        reads = _noisy_copies(self.STRAND, 12, seed=2)
        assert bma_consensus(reads, len(self.STRAND)) == self.STRAND

    def test_double_sided_bma_exact_on_clean_reads(self):
        assert double_sided_bma([self.STRAND] * 3, len(self.STRAND)) == self.STRAND

    def test_double_sided_bma_with_errors(self):
        reads = _noisy_copies(self.STRAND, 10, seed=3)
        assert double_sided_bma(reads, len(self.STRAND)) == self.STRAND

    def test_double_sided_bma_single_clean_read(self):
        assert double_sided_bma([self.STRAND], len(self.STRAND)) == self.STRAND

    def test_output_length_always_matches(self):
        reads = _noisy_copies(self.STRAND, 5, seed=4)
        for length in (100, 140):
            assert len(double_sided_bma(reads, length)) == length

    def test_requires_reads(self):
        with pytest.raises(ReconstructionError):
            double_sided_bma([], 10)

    def test_double_sided_beats_or_matches_one_sided_near_ends(self):
        """The double-sided variant should not be worse than one-sided BMA on
        indel-heavy clusters (its purpose is robustness near strand ends)."""
        model = ErrorModel(substitution_rate=0.01, insertion_rate=0.02, deletion_rate=0.02)
        mismatches_single = 0
        mismatches_double = 0
        for seed in range(8):
            reads = _noisy_copies(self.STRAND, 8, seed=seed, model=model)
            single = bma_consensus(reads, len(self.STRAND))
            double = double_sided_bma(reads, len(self.STRAND))
            mismatches_single += sum(1 for a, b in zip(single, self.STRAND) if a != b)
            mismatches_double += sum(1 for a, b in zip(double, self.STRAND) if a != b)
        assert mismatches_double <= mismatches_single
