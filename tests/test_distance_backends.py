"""Tests for the clustering distance backends.

The python backend (banded early-exit Levenshtein) and the numpy backend
(a screen of certain matches and ruled-out candidates, then the
bit-parallel kernel over each trimmed undecided pair) must be exact
within the bound and therefore produce *identical* clusters.  The numpy
backend's bulk k-mer masks must give the same popcounts and intersection
counts as the base backend's first-sight masks.
"""

import random
from operator import ne

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ClusteringError
from repro.pipeline.clustering import (
    DEFAULT_MAX_READ_DISTANCE,
    cluster_reads,
    route_reads,
)
from repro.pipeline.distance import (
    NumpyDistanceBackend,
    PythonDistanceBackend,
    available_distance_backends,
    get_distance_backend,
)


def _numpy_available() -> bool:
    return "numpy" in available_distance_backends()


requires_numpy = pytest.mark.skipif(
    not _numpy_available(), reason="numpy backend unavailable"
)


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


class TestBackendResolution:
    def test_python_always_available(self):
        assert "python" in available_distance_backends()
        assert get_distance_backend("python").name == "python"

    def test_instances_are_cached(self):
        assert get_distance_backend("python") is get_distance_backend("python")

    def test_instance_passthrough(self):
        backend = PythonDistanceBackend()
        assert get_distance_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ClusteringError):
            get_distance_backend("cuda")

    @requires_numpy
    def test_auto_prefers_numpy(self):
        assert get_distance_backend("auto").name == "numpy"


class TestFirstWithin:
    def test_python_first_match_wins(self):
        backend = get_distance_backend("python")
        assert backend.first_within("ACGTACGT", ["TTTTTTTT", "ACGTACGA", "ACGTACGT"], 2) == 1
        assert backend.first_within("ACGT", ["GGGG"], 1) is None
        assert backend.first_within("ACGT", [], 3) is None

    @requires_numpy
    def test_numpy_matches_python(self):
        python = get_distance_backend("python")
        numpy_backend = get_distance_backend("numpy")
        rng = random.Random(5)
        queries, candidate_lists = [], []
        for _ in range(300):
            query = _random_read(rng, rng.randrange(80, 170))
            candidates = [
                _mutate(rng, query, rng.randrange(0, 25))
                for _ in range(rng.randrange(0, 6))
            ]
            queries.append(query)
            candidate_lists.append(candidates)
        for bound in (2, 5, 12):
            assert python.first_within_batch(
                queries, candidate_lists, bound
            ) == numpy_backend.first_within_batch(queries, candidate_lists, bound)


class TestClusterEquivalence:
    def _reads(self, seed, strands, copies, edits):
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

    @requires_numpy
    def test_backends_produce_identical_clusters(self, monkeypatch):
        """Python/numpy x fused/reference (REPRO_FUSED_KERNELS 1/0) all give
        the python backend's reference-mode clusters."""
        for seed, strands, copies, edits in [(1, 8, 12, 4), (2, 25, 8, 9), (3, 4, 60, 6)]:
            reads = self._reads(seed, strands, copies, edits)
            outcomes = {}
            for fused in ("0", "1"):
                monkeypatch.setenv("REPRO_FUSED_KERNELS", fused)
                for backend in ("python", "numpy"):
                    clusters = cluster_reads(
                        reads,
                        signature_start=20,
                        signature_length=13,
                        distance_backend=backend,
                    )
                    outcomes[fused, backend] = [
                        (cluster.signature, tuple(cluster.reads)) for cluster in clusters
                    ]
            reference = outcomes["0", "python"]
            agree = {key: outcome == reference for key, outcome in outcomes.items()}
            assert agree == dict.fromkeys(outcomes, True)

    @pytest.mark.parametrize("fused", ["0", "1"])
    @pytest.mark.parametrize("backend", available_distance_backends())
    def test_in_round_fix_up_places_an_indel_only_match(
        self, backend, fused, monkeypatch
    ):
        """A cluster born inside a round takes a later read of the same
        round that is two indels away but far apart by Hamming count."""
        monkeypatch.setenv("REPRO_FUSED_KERNELS", fused)
        rng = random.Random(11)
        signature = "ACGTTGCAAGCTT"
        first = signature + _random_read(rng, 120)
        born = signature + _random_read(rng, 120)
        shifted = born[:20] + born[21:] + "G"
        assert sum(map(ne, born, shifted)) > DEFAULT_MAX_READ_DISTANCE
        # A fresh instance, so the spy stays local to this test.
        distance_backend = type(get_distance_backend(backend))()
        placements = []
        original = distance_backend.first_within

        def spy(query, candidates, max_distance):
            found = original(query, candidates, max_distance)
            if found is not None:
                placements.append((query, candidates[found]))
            return found

        monkeypatch.setattr(distance_backend, "first_within", spy)
        clusters = cluster_reads(
            [first, born, shifted],
            signature_start=0,
            signature_length=len(signature),
            distance_backend=distance_backend,
        )
        # One round: ``born`` and ``shifted`` are both compared with
        # ``first`` only; ``born`` then starts a cluster, and the fix-up
        # places ``shifted`` in it.
        assert [cluster.reads for cluster in clusters] == [[born, shifted], [first]]
        assert placements == [(shifted, born)]

    def test_corrupted_signatures_still_route_through_index(self):
        """The deletion-neighborhood index must find buckets within the
        signature error budget exactly like the old linear scan."""
        primer = "ATCGTGCAAGCTTGACCTGA"
        strand = primer + "ACGTACGTACGTA" + "GT" * 58
        corrupted = strand[:22] + ("A" if strand[22] != "A" else "C") + strand[23:]
        clusters = cluster_reads(
            [strand] * 6 + [corrupted],
            signature_start=20,
            signature_length=13,
            distance_backend="python",
        )
        assert clusters[0].size == 7


class TestNegativeBounds:
    """A negative bound fails the same typed way on every backend."""

    READS = ["ACGTACGTAAAACCCCGGGGTTTT"] * 3 + ["ACGTACGTAAAACCCCGGGGTTTA"]

    @pytest.mark.parametrize("backend", available_distance_backends())
    @pytest.mark.parametrize(
        "bounds",
        [
            {"max_read_distance": -1},
            {"max_signature_errors": -1},
            {"max_read_distance": -2, "max_signature_errors": -2},
        ],
    )
    def test_cluster_reads_rejects_negative_bounds(self, backend, bounds):
        with pytest.raises(ClusteringError, match="must be non-negative"):
            cluster_reads(
                self.READS,
                signature_start=0,
                signature_length=4,
                distance_backend=backend,
                **bounds,
            )

    @pytest.mark.parametrize("backend", available_distance_backends())
    def test_phase_entry_points_reject_negative_bounds(self, backend):
        with pytest.raises(ClusteringError, match="max_signature_errors"):
            route_reads(
                self.READS,
                signature_start=0,
                signature_length=4,
                max_signature_errors=-1,
                distance_backend=backend,
            )

    @pytest.mark.parametrize("backend", available_distance_backends())
    @pytest.mark.parametrize("method", ["first_within", "first_within_batch", "nearest"])
    @pytest.mark.parametrize("count", [0, 1, 9])
    def test_backend_methods_reject_negative_bounds(self, backend, method, count):
        # Nine identical candidates reach the numpy backend's array path
        # in ``nearest`` and would match at any bound that is not negative.
        query = "ACGTACGT"
        candidates = [query] * count
        call = getattr(get_distance_backend(backend), method)
        args = ([query], [candidates]) if method == "first_within_batch" else (query, candidates)
        with pytest.raises(ClusteringError, match="max_distance must be non-negative"):
            call(*args, -1)

    def test_zero_bound_still_clusters(self):
        clusters = cluster_reads(
            self.READS,
            signature_start=0,
            signature_length=4,
            max_read_distance=0,
            distance_backend="python",
        )
        assert sorted(cluster.size for cluster in clusters) == [1, 3]


# ----------------------------------------------------------------------
# Differential test of the numpy backend's screen
# ----------------------------------------------------------------------

BASES = "ACGT"


def _substitute(text, positions):
    chars = list(text)
    for position in positions:
        chars[position] = BASES[(BASES.index(chars[position]) + 1) % 4]
    return "".join(chars)


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
    @requires_numpy
    @settings(max_examples=300, deadline=None)
    @given(_screen_batches())
    def test_first_within_batch(self, batch):
        bound, queries, candidate_lists = batch
        numpy_backend = get_distance_backend("numpy")
        python = get_distance_backend("python")
        assert numpy_backend.first_within_batch(
            queries, candidate_lists, bound
        ) == python.first_within_batch(queries, candidate_lists, bound)

    @pytest.mark.parametrize("backend", available_distance_backends())
    def test_earlier_indel_match_beats_a_later_certain_one(self, backend):
        query = "ACGTTGCAAGCTTGACCTGAACGG"
        shifted = query[1:] + "T"  # two indels, many mismatches
        substituted = _substitute(query, [5])
        assert sum(a != b for a, b in zip(query, shifted)) > 3
        chosen = get_distance_backend(backend).first_within_batch(
            [query, query, query],
            [[shifted, substituted], [query, shifted], [shifted[:-1] + "AAAA"]],
            3,
        )
        assert chosen == [0, 0, None]

    @pytest.mark.parametrize("backend", available_distance_backends())
    def test_empty_inputs(self, backend):
        distance_backend = get_distance_backend(backend)
        assert distance_backend.first_within_batch([], [], 2) == []
        assert distance_backend.first_within_batch(["ACGT", ""], [[], []], 2) == [
            None,
            None,
        ]
        assert distance_backend.first_within_batch([""], [["", "A"]], 0) == [0]


# ----------------------------------------------------------------------
# Differential test of the numpy backend's k-mer masks
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
    def test_numpy_masks_give_the_reference_counts(self):
        rng = random.Random(17)
        chunk_rows = NumpyDistanceBackend._MASK_CHUNK_BYTES // 4**6
        same_length = [_random_read(rng, 140) for _ in range(chunk_rows + 44)]
        mixed = [_random_read(rng, rng.randrange(30, 160)) for _ in range(40)]
        texts = same_length[:10] + ["", "A", "ACGTA"] + mixed + same_length[10:]
        texts += [_mutate(rng, text, 3) for text in mixed[:10]] + ["ACGTAC", "AAAAAAAAAA"]
        got = get_distance_backend("numpy").kmer_masks(texts, 6)
        reference = get_distance_backend("python").kmer_masks(texts, 6)
        assert _mask_counts(got) == _mask_counts(reference)
        assert got[10:13] == [0, 0, 0]  # shorter than k

    @requires_numpy
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(st.text(alphabet=BASES, max_size=30), max_size=25),
    )
    def test_numpy_masks_match_at_any_k(self, k, texts):
        got = get_distance_backend("numpy").kmer_masks(texts, k)
        reference = get_distance_backend("python").kmer_masks(texts, k)
        assert _mask_counts(got) == _mask_counts(reference)

    @requires_numpy
    @pytest.mark.parametrize("odd", ["N", "a", "\u00e9"], ids=["N", "lowercase", "non-ascii"])
    def test_text_outside_acgt_takes_the_first_sight_masks(self, odd):
        texts = ["ACGTACGTAC", "ACG" + odd + "TACGTA", "TTGACCA"]
        assert get_distance_backend("numpy").kmer_masks(
            texts, 3
        ) == get_distance_backend("python").kmer_masks(texts, 3)
