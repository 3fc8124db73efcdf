"""Fused vs reference clustering kernels.

``REPRO_FUSED_KERNELS`` chooses which pair test of
:mod:`repro.pipeline.distance` clustering runs.  The fused one (the
default) screens certain matches and ruled-out candidates, then runs the
bit-parallel kernel over each trimmed undecided pair; the reference one
(``0``) runs the banded Levenshtein on every untrimmed pair.  Both are
exact within the bound, so they must produce *identical* clusters, and
each mode must run only its own kernel.  Everything here runs without
numpy except the diff of the numpy helper (the coded k-mer masks against
the first-sight masks) and the PCR run of ``TestOneKernelPerMode``.
"""

import random
import sys
from operator import ne

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pipeline.clustering as clustering
import repro.pipeline.distance as distance
import repro.sequence
from repro.core.partition import Partition, PartitionConfig
from repro.exceptions import ClusteringError
from repro.pipeline.clustering import (
    DEFAULT_MAX_READ_DISTANCE,
    cluster_reads,
    route_reads,
)
from repro.pipeline.decoder import MAX_PREFIX_ERRORS, BlockDecoder
from repro.pipeline.distance import (
    _MASK_CHUNK_BYTES,
    _coded_masks,
    _first_sight_masks,
    kmer_masks,
    nearest,
    within_reference,
    within_screened,
)
from repro.pipeline.reads import has_prefix
from repro.primers.library import PrimerPair
from repro.sequence import kmer_set, levenshtein_distance
from repro.wetlab.pcr import PCRConfig, PCRSimulator
from repro.wetlab.pool import MolecularPool

try:
    import numpy
except ImportError:
    numpy = None

requires_numpy = pytest.mark.skipif(numpy is None, reason="numpy unavailable")

MODES = ["0", "1"]
BASES = "ACGT"


def _in_mode(fused, function, *args):
    """``function(*args)`` under ``REPRO_FUSED_KERNELS=fused``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_FUSED_KERNELS", fused)
        return function(*args)


def _mutate(rng, text, edits):
    chars = list(text)
    for _ in range(edits):
        operation = rng.choice("sid")
        position = rng.randrange(len(chars))
        if operation == "s":
            chars[position] = rng.choice("ACGT")
        elif operation == "i":
            chars.insert(position, rng.choice("ACGT"))
        elif len(chars) > 1:
            del chars[position]
    return "".join(chars)


def _random_read(rng, length):
    return "".join(rng.choice("ACGT") for _ in range(length))


def _substitute(text, positions):
    chars = list(text)
    for position in positions:
        chars[position] = BASES[(BASES.index(chars[position]) + 1) % 4]
    return "".join(chars)


def _shapes(clusters):
    return [(cluster.signature, tuple(cluster.reads)) for cluster in clusters]


class TestPairTests:
    def test_fused_matches_reference(self):
        rng = random.Random(5)
        pairs = []
        for _ in range(300):
            query = _random_read(rng, rng.randrange(80, 170))
            pairs.extend(
                (query, _mutate(rng, query, rng.randrange(0, 25)))
                for _ in range(rng.randrange(0, 6))
            )
        for bound in (2, 5, 12):
            for query, candidate in pairs:
                assert within_screened(query, candidate, bound) == within_reference(
                    query, candidate, bound
                )

    @pytest.mark.parametrize("within", [within_screened, within_reference])
    def test_empty_strings(self, within):
        assert within("", "", 0)
        assert not within("", "A", 0)
        assert within("", "AC", 2)
        assert not within("ACGT", "", 3)


def _noisy_reads(seed, strands, copies, edits):
    rng = random.Random(seed)
    primer = "ATCGTGCAAGCTTGACCTGA"
    originals = [
        primer + _random_read(rng, 13) + _random_read(rng, 117)
        for _ in range(strands)
    ]
    reads = []
    for strand in originals:
        for _ in range(copies):
            reads.append(_mutate(rng, strand, rng.randrange(0, edits)))
    rng.shuffle(reads)
    return reads


def _signature_corrupted_reads(seed):
    """Noisy reads where every fifth one also carries an insertion, a
    deletion or two substitutions inside its signature window (offset 20,
    13 bases)."""
    rng = random.Random(seed)
    reads = _noisy_reads(seed, 12, 10, 4)
    for index in range(0, len(reads), 5):
        read = reads[index]
        position = rng.randrange(21, 31)
        if index % 3 == 0:
            read = read[:position] + rng.choice(BASES) + read[position:]
        elif index % 3 == 1:
            read = read[:position] + read[position + 1 :]
        else:
            read = _substitute(read, [position, position + 1])
        reads[index] = read
    return reads


PAIR = PrimerPair("ATCGTGCAAGCTTGACCTGA", "CGTAGACTTGCAACTGGACT")


def _written_partition():
    partition = Partition(PartitionConfig(primers=PAIR, leaf_count=16, tree_seed=5))
    rng = random.Random(8)
    partition.write(bytes(rng.randrange(256) for _ in range(4 * 256)))
    return partition


def _readout_reads(partition, seed):
    """Five noisy reads per strand of ``partition``; every seventh gets one
    more edit inside its primer (an indel there passes only the read
    filter's banded check), and a few random reads carry no primer."""
    rng = random.Random(seed)
    reads = []
    for molecule in partition.all_molecules():
        for _ in range(5):
            read = _mutate(rng, molecule.to_strand(), rng.randrange(0, 3))
            if len(reads) % 7 == 0:
                read = _mutate(rng, read[:20], 1) + read[20:]
            reads.append(read)
    reads.extend(_random_read(rng, 140) for _ in range(10))
    rng.shuffle(reads)
    return reads


class TestClusterEquivalence:
    @pytest.mark.parametrize(
        "seed, strands, copies, edits", [(1, 8, 12, 4), (2, 25, 8, 9), (3, 4, 60, 6)]
    )
    def test_fused_and_reference_give_identical_clusters(
        self, seed, strands, copies, edits, monkeypatch
    ):
        reads = _noisy_reads(seed, strands, copies, edits)
        outcomes = {}
        for fused in MODES:
            monkeypatch.setenv("REPRO_FUSED_KERNELS", fused)
            outcomes[fused] = _shapes(
                cluster_reads(reads, signature_start=20, signature_length=13)
            )
        assert outcomes["1"] == outcomes["0"]

    @pytest.mark.parametrize("fused", MODES)
    def test_corrupted_signatures_still_route_through_index(self, fused, monkeypatch):
        """The deletion-neighborhood index must find buckets within the
        signature error budget exactly like the old linear scan."""
        monkeypatch.setenv("REPRO_FUSED_KERNELS", fused)
        primer = "ATCGTGCAAGCTTGACCTGA"
        strand = primer + "ACGTACGTACGTA" + "GT" * 58
        corrupted = strand[:22] + ("A" if strand[22] != "A" else "C") + strand[23:]
        clusters = cluster_reads(
            [strand] * 6 + [corrupted],
            signature_start=20,
            signature_length=13,
        )
        assert clusters[0].size == 7


class TestGreedyPass:
    """Each read joins the first representative of its bucket, in creation
    order, that passes the k-mer prefilter and the pair test."""

    SIGNATURE = "ACGTTGCAAGCTT"

    def _clusters(self, reads, **bounds):
        clusters = cluster_reads(
            reads, signature_start=0, signature_length=len(self.SIGNATURE), **bounds
        )
        return [cluster.reads for cluster in clusters]

    @pytest.mark.parametrize("fused", MODES)
    def test_indel_only_match_joins_a_representative_born_in_the_bucket(
        self, fused, monkeypatch
    ):
        """A later read two indels from a representative born earlier in
        the same bucket, and far from it by Hamming count, joins it."""
        monkeypatch.setenv("REPRO_FUSED_KERNELS", fused)
        rng = random.Random(11)
        first = self.SIGNATURE + _random_read(rng, 120)
        born = self.SIGNATURE + _random_read(rng, 120)
        shifted = born[:20] + born[21:] + "G"
        assert sum(map(ne, born, shifted)) > DEFAULT_MAX_READ_DISTANCE
        assert self._clusters([first, born, shifted]) == [[born, shifted], [first]]

    @pytest.mark.parametrize("fused", MODES)
    def test_earlier_indel_match_beats_a_later_certain_one(self, fused, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_KERNELS", fused)
        query = self.SIGNATURE + "ACGGTTACCAGTAGCATTGCA"
        shifted = query[:15] + query[16:] + "T"  # two indels, many mismatches
        substituted = _substitute(query, [20])  # the screen's certain match
        assert sum(map(ne, query, shifted)) > 2
        assert levenshtein_distance(shifted, substituted) == 3
        clusters = self._clusters([shifted, substituted, query], max_read_distance=2)
        assert clusters == [[shifted, query], [substituted]]

    @pytest.mark.parametrize("fused", MODES)
    def test_first_match_wins(self, fused, monkeypatch):
        """The first passing representative, not the nearest one; a read
        no representative passes starts a cluster."""
        monkeypatch.setenv("REPRO_FUSED_KERNELS", fused)
        query = self.SIGNATURE + "ACGGTTACCAGTAGCATTGCA"
        farther = _substitute(query, [18, 24])
        nearer = _substitute(query, [30])
        unrelated = self.SIGNATURE + "TTTTGGGGCCCCAAAATTTTG"
        clusters = self._clusters(
            [farther, nearer, query, unrelated], max_read_distance=2
        )
        assert clusters == [[farther, query], [nearer], [unrelated]]

    AT_THRESHOLD = ("ACGTACAGGGATGAAGAAA", "ACGTACCGGATGAAGAAA")

    @pytest.mark.parametrize("fused", MODES)
    @pytest.mark.parametrize(
        "reads, sizes",
        [(("ACGTA", "ACGTT"), [2]), (("ACGTA", "ACGTAC"), [1, 1]), (AT_THRESHOLD, [2])],
        ids=["both-empty", "one-empty", "at-threshold"],
    )
    def test_kmer_prefilter_edge_rules(self, fused, reads, sizes, monkeypatch):
        """A pair whose k-mer union is empty passes; an empty k-mer set
        fails against a non-empty one, one edit away; a Jaccard index
        exactly at the threshold passes."""
        monkeypatch.setenv("REPRO_FUSED_KERNELS", fused)
        clusters = cluster_reads(list(reads), signature_start=0, signature_length=4)
        assert [cluster.size for cluster in clusters] == sizes

    def test_kmer_edge_cases_sit_on_the_edges(self):
        k = clustering._KMER_SIZE
        assert kmer_set("ACGTA", k) == kmer_set("ACGTT", k) == frozenset()
        assert len(kmer_set("ACGTAC", k)) == 1
        assert levenshtein_distance("ACGTA", "ACGTAC") == 1
        left, right = self.AT_THRESHOLD
        mine, theirs = kmer_set(left, k), kmer_set(right, k)
        assert (len(mine & theirs), len(mine | theirs)) == (7, 20)
        assert len(mine & theirs) / len(mine | theirs) == 0.35
        assert levenshtein_distance(left, right) == 2


class TestOneKernelPerMode:
    """Each mode runs its own edit distance and never the other one."""

    @staticmethod
    def _forbid(monkeypatch, name, fused):
        """Make ``name`` raise in every ``repro`` module that binds it."""
        original = getattr(repro.sequence, name)

        def forbidden(*args, **kwargs):
            raise AssertionError(f"{name} called with REPRO_FUSED_KERNELS={fused}")

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, forbidden)

    @staticmethod
    def _count(monkeypatch, module, name):
        """Count calls of ``module.name`` (the mode's own kernel)."""
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_each_mode_runs_one_kernel(self, monkeypatch):
        reads = _signature_corrupted_reads(seed=4)
        expected = _shapes(
            cluster_reads(reads, signature_start=20, signature_length=13)
        )
        for fused, forbidden, own in (
            ("1", "levenshtein_distance", "bounded_edit_distance"),
            ("0", "bounded_edit_distance", "levenshtein_distance"),
        ):
            with monkeypatch.context() as patch:
                patch.setenv("REPRO_FUSED_KERNELS", fused)
                self._forbid(patch, forbidden, fused)
                calls = self._count(patch, distance, own)
                clusters = cluster_reads(reads, signature_start=20, signature_length=13)
            assert _shapes(clusters) == expected
            assert calls, f"{own} never ran with REPRO_FUSED_KERNELS={fused}"

    def test_fused_readout_decode_runs_no_levenshtein(self, monkeypatch):
        """The read filter, clustering and consensus of a whole readout."""
        partition = _written_partition()
        reads = _readout_reads(partition, seed=6)
        primer = PAIR.forward
        # Some reads fail the filter's Hamming screen and still carry the
        # primer, so its banded edit-distance check runs.
        assert any(
            sum(map(ne, read, primer)) > MAX_PREFIX_ERRORS
            and has_prefix(read, primer, max_errors=MAX_PREFIX_ERRORS)
            for read in reads
        )
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_FUSED_KERNELS", "0")
            expected = BlockDecoder(partition).decode_readout(reads)
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_FUSED_KERNELS", "1")
            self._forbid(patch, "levenshtein_distance", "1")
            reports = BlockDecoder(partition).decode_readout(reads)
        assert reports == expected
        assert all(report.success for report in reports.values())

    @requires_numpy
    def test_fused_amplify_runs_no_levenshtein(self, monkeypatch):
        """Mispriming compares footprints with the primers."""
        partition = _written_partition()
        pool = MolecularPool.from_sequences(
            molecule.to_strand() for molecule in partition.all_molecules()
        )
        primers = [partition.primer_for_block(block) for block in (0, 2)]
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_FUSED_KERNELS", "1")
            self._forbid(patch, "levenshtein_distance", "1")
            amplified = PCRSimulator(PCRConfig()).amplify(pool, primers, PAIR.reverse)
        assert any(meta.get("misprimed") for meta in amplified.metadata.values())


class TestNegativeBounds:
    """A negative bound fails the same typed way in both modes."""

    READS = ["ACGTACGTAAAACCCCGGGGTTTT"] * 3 + ["ACGTACGTAAAACCCCGGGGTTTA"]

    @pytest.mark.parametrize("fused", MODES)
    @pytest.mark.parametrize(
        "bounds",
        [
            {"max_read_distance": -1},
            {"max_signature_errors": -1},
            {"max_read_distance": -2, "max_signature_errors": -2},
        ],
    )
    def test_cluster_reads_rejects_negative_bounds(self, fused, bounds, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_KERNELS", fused)
        with pytest.raises(ClusteringError, match="must be non-negative"):
            cluster_reads(self.READS, signature_start=0, signature_length=4, **bounds)

    @pytest.mark.parametrize("fused", MODES)
    def test_phase_entry_points_reject_negative_bounds(self, fused, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_KERNELS", fused)
        with pytest.raises(ClusteringError, match="max_signature_errors"):
            route_reads(
                self.READS,
                signature_start=0,
                signature_length=4,
                max_signature_errors=-1,
            )

    @pytest.mark.parametrize("fused", MODES)
    @pytest.mark.parametrize("count", [0, 1, 9])
    def test_nearest_rejects_negative_bounds(self, fused, count, monkeypatch):
        # Nine identical candidates would match at any bound that is not
        # negative.
        monkeypatch.setenv("REPRO_FUSED_KERNELS", fused)
        query = "ACGTACGT"
        with pytest.raises(ClusteringError, match="max_distance must be non-negative"):
            nearest(query, [query] * count, -1)

    @pytest.mark.parametrize("within", [within_screened, within_reference])
    @pytest.mark.parametrize(
        "candidate", ["ACGTACGT", "ACGTACGTACGT", "CGTACGTA"], ids=["same", "gap", "shifted"]
    )
    def test_pair_tests_reject_negative_bounds(self, within, candidate):
        # Each candidate takes another branch of the screen: a certain
        # match, a length gap, and the kernel.
        with pytest.raises(ClusteringError, match="max_distance must be non-negative"):
            within("ACGTACGT", candidate, -1)

    def test_zero_bound_still_clusters(self):
        clusters = cluster_reads(
            self.READS, signature_start=0, signature_length=4, max_read_distance=0
        )
        assert sorted(cluster.size for cluster in clusters) == [1, 3]


# ----------------------------------------------------------------------
# Differential test of the fused screen
# ----------------------------------------------------------------------

@st.composite
def _candidate(draw, query, bound):
    """One candidate for ``query``, aimed at an edge of the screen."""
    kind = draw(
        st.sampled_from(
            [
                "same",
                "hamming",
                "hamming+1",
                "shifted",
                "gap",
                "gap+1",
                "extended",
                "edited",
                "random",
            ]
        )
    )
    filler = st.text(alphabet=BASES, min_size=0, max_size=3)
    if kind == "same":
        return query
    if kind in ("hamming", "hamming+1"):
        # Equal length at a Hamming count of exactly bound (a certain
        # match) or bound + 1 (undecided).
        count = bound + (kind == "hamming+1")
        if count > len(query):
            return draw(st.text(alphabet=BASES, min_size=len(query), max_size=len(query)))
        if not count:
            return query
        positions = draw(
            st.lists(
                st.integers(min_value=0, max_value=len(query) - 1),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        return _substitute(query, positions)
    if kind == "shifted":
        # Equal length, within two edits through indels only: drop one
        # base and add one elsewhere (a high Hamming count).
        if not query:
            return draw(filler)
        cut = draw(st.integers(min_value=0, max_value=len(query) - 1))
        base = draw(st.sampled_from(BASES))
        shortened = query[:cut] + query[cut + 1 :]
        at = draw(st.integers(min_value=0, max_value=len(shortened)))
        return shortened[:at] + base + shortened[at:]
    if kind in ("gap", "gap+1"):
        # A length gap of exactly bound or bound + 1, as pure insertions
        # (distance equal to the gap) or as a fresh random string.
        gap = bound + (kind == "gap+1")
        extra = draw(st.text(alphabet=BASES, min_size=gap, max_size=gap))
        if draw(st.booleans()):
            at = draw(st.integers(min_value=0, max_value=len(query)))
            return query[:at] + extra + query[at:]
        return draw(
            st.text(alphabet=BASES, min_size=len(query) + gap, max_size=len(query) + gap)
        )
    if kind == "extended":
        # Empty on one side once the shared prefix and suffix are gone.
        return draw(filler) + query + draw(filler)
    if kind == "edited":
        chars = list(query)
        for _ in range(draw(st.integers(min_value=0, max_value=bound + 2))):
            operation = draw(st.sampled_from("sid"))
            position = draw(st.integers(min_value=0, max_value=len(chars)))
            base = draw(st.sampled_from(BASES))
            if operation == "i" or not chars:
                chars.insert(position, base)
            elif operation == "s":
                chars[min(position, len(chars) - 1)] = base
            else:
                del chars[min(position, len(chars) - 1)]
        return "".join(chars)
    return draw(st.text(alphabet=BASES, min_size=0, max_size=len(query) + 4))


@st.composite
def _screen_batches(draw):
    bound = draw(st.integers(min_value=0, max_value=12))
    queries, candidate_lists = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        query = draw(st.text(alphabet=BASES, min_size=0, max_size=40))
        candidates = [
            draw(_candidate(query, bound))
            for _ in range(draw(st.integers(min_value=0, max_value=12)))
        ]
        queries.append(query)
        candidate_lists.append(candidates)
    return bound, queries, candidate_lists


class TestScreenMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_screen_batches())
    def test_pair_tests_agree(self, batch):
        bound, queries, candidate_lists = batch
        for query, candidates in zip(queries, candidate_lists):
            for candidate in candidates:
                assert within_screened(query, candidate, bound) == within_reference(
                    query, candidate, bound
                )


# ----------------------------------------------------------------------
# Differential test of ``nearest``
# ----------------------------------------------------------------------


def _signature_sets(seed):
    """(query, candidates) pairs shaped like signature routing: fixed-width
    neighbours by substitution and shifted windows, with repeats."""
    rng = random.Random(seed)
    for _ in range(200):
        query = _random_read(rng, 13)
        candidates = []
        for _ in range(rng.randrange(8, 30)):
            kind = rng.randrange(4)
            if kind == 0:
                candidates.append(_substitute(query, rng.sample(range(13), rng.randrange(4))))
            elif kind == 1:
                cut = rng.randrange(13)
                candidates.append(query[:cut] + query[cut + 1 :] + rng.choice(BASES))
            elif kind == 2 and candidates:
                candidates.append(rng.choice(candidates))
            else:
                candidates.append(_random_read(rng, 13))
        yield query, candidates


class TestNearestHamming:
    def test_fused_nearest_matches_the_reference(self):
        for query, candidates in _signature_sets(seed=23):
            for bound in (0, 1, 2, 3):
                args = (query, candidates, bound)
                assert _in_mode("1", nearest, *args) == _in_mode("0", nearest, *args)

    @pytest.mark.parametrize(
        "candidates",
        [
            ["ACGTA"] * 7,
            ["ACGTA"] * 8 + ["ACGT"],
            ["ACGTA"] * 8 + ["ACéTA"],
        ],
        ids=["few", "mixed-width", "non-ascii"],
    )
    def test_edge_candidate_lists(self, candidates):
        assert _in_mode("1", nearest, "ACGTT", candidates, 2) == _in_mode(
            "0", nearest, "ACGTT", candidates, 2
        )

    def test_first_of_equally_near_candidates_wins(self):
        query = "ACGTACGTACGTA"
        far = "T" * len(query)
        near = [_substitute(query, [5]), _substitute(query, [7])]
        candidates = [far] * 8 + near + [query[1:] + "C"]
        for fused in MODES:
            assert _in_mode(fused, nearest, query, candidates, 2) == (8, 1)


# ----------------------------------------------------------------------
# Differential test of the coded k-mer masks
# ----------------------------------------------------------------------


def _mask_counts(masks):
    """What the Jaccard prefilter reads: every popcount, and the popcount
    of every pairwise intersection."""
    pairs = [
        (masks[i] & masks[j]).bit_count()
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
    ]
    return [mask.bit_count() for mask in masks], pairs


class TestKmerMasks:
    @requires_numpy
    def test_coded_masks_give_the_first_sight_counts(self):
        rng = random.Random(17)
        chunk_rows = _MASK_CHUNK_BYTES // 4**6
        same_length = [_random_read(rng, 140) for _ in range(chunk_rows + 44)]
        mixed = [_random_read(rng, rng.randrange(30, 160)) for _ in range(40)]
        texts = same_length[:10] + ["", "A", "ACGTA"] + mixed + same_length[10:]
        texts += [_mutate(rng, text, 3) for text in mixed[:10]] + ["ACGTAC", "AAAAAAAAAA"]
        got = _coded_masks(texts, 6)
        assert _mask_counts(got) == _mask_counts(_first_sight_masks(texts, 6))
        assert got[10:13] == [0, 0, 0]  # shorter than k

    @requires_numpy
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(st.text(alphabet=BASES, max_size=30), max_size=25),
    )
    def test_coded_masks_match_at_any_k(self, k, texts):
        got = _coded_masks(texts, k)
        assert _mask_counts(got) == _mask_counts(_first_sight_masks(texts, k))

    @pytest.mark.parametrize("odd", ["N", "a", "é"], ids=["N", "lowercase", "non-ascii"])
    def test_text_outside_acgt_takes_the_first_sight_masks(self, odd):
        texts = ["ACGTACGTAC", "ACG" + odd + "TACGTA", "TTGACCA"]
        assert _coded_masks(texts, 3) is None
        assert kmer_masks(texts, 3) == _first_sight_masks(texts, 3)
