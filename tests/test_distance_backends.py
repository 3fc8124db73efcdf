"""Tests for the clustering distance backends.

The python backend (banded early-exit Levenshtein) and the numpy backend
(a screen of certain matches and ruled-out candidates, then a vectorized
banded DP over the trimmed undecided pairs) must be exact within the
bound and therefore produce *identical* clusters.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ClusteringError
from repro.pipeline.clustering import cluster_reads, cluster_shard, route_reads
from repro.pipeline.distance import (
    NumpyDistanceBackend,
    PythonDistanceBackend,
    available_distance_backends,
    get_distance_backend,
)
from repro.sequence import levenshtein_distance


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


def _assert_exact_within_bound(got, pairs, bound):
    for (left, right), value in zip(pairs, got):
        reference = levenshtein_distance(left, right, upper_bound=bound)
        if reference <= bound:
            assert value == reference, (left, right, bound)
        else:
            assert value > bound, (left, right, bound)


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

    @requires_numpy
    def test_numpy_batch_distances_exact_within_bound(self):
        backend = get_distance_backend("numpy")
        rng = random.Random(9)
        pairs = []
        for _ in range(500):
            left = _random_read(rng, rng.randrange(1, 40))
            right = (
                _mutate(rng, left, rng.randrange(0, 8))
                if rng.random() < 0.7
                else _random_read(rng, rng.randrange(1, 40))
            )
            pairs.append((left, right))
        pairs += [("", "ACGT"), ("ACGT", ""), ("AC", "AC")]
        for bound in (0, 1, 3, 6):
            _assert_exact_within_bound(backend.batch_distances(pairs, bound), pairs, bound)


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
    def test_backends_produce_identical_clusters(self):
        for seed, strands, copies, edits in [(1, 8, 12, 4), (2, 25, 8, 9), (3, 4, 60, 6)]:
            reads = self._reads(seed, strands, copies, edits)
            outcomes = {}
            for backend in ("python", "numpy"):
                clusters = cluster_reads(
                    reads,
                    signature_start=20,
                    signature_length=13,
                    distance_backend=backend,
                )
                outcomes[backend] = [
                    (cluster.signature, tuple(cluster.reads)) for cluster in clusters
                ]
            assert outcomes["python"] == outcomes["numpy"]

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
        with pytest.raises(ClusteringError, match="max_read_distance"):
            cluster_shard(
                self.READS,
                [("ACGT", len(self.READS))],
                max_read_distance=-1,
                distance_backend=backend,
            )

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

    @requires_numpy
    @settings(max_examples=200, deadline=None)
    @given(_screen_batches())
    def test_batch_distances(self, batch):
        bound, queries, candidate_lists = batch
        pairs = [
            (query, candidate)
            for query, candidates in zip(queries, candidate_lists)
            for candidate in candidates
        ]
        got = get_distance_backend("numpy").batch_distances(pairs, bound)
        assert len(got) == len(pairs)
        _assert_exact_within_bound(got, pairs, bound)

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

    @requires_numpy
    @pytest.mark.parametrize(
        "undecided",
        [1, NumpyDistanceBackend._MIN_BATCH - 1, NumpyDistanceBackend._MIN_BATCH, 20],
    )
    def test_scalar_and_array_paths_agree(self, undecided, monkeypatch):
        numpy_backend = get_distance_backend("numpy")
        calls = []
        original = numpy_backend.batch_distances

        def counting(pairs, bound):
            calls.append(len(pairs))
            return original(pairs, bound)

        monkeypatch.setattr(numpy_backend, "batch_distances", counting)
        rng = random.Random(undecided)
        queries = [_random_read(rng, 60) for _ in range(undecided)]
        # Each query's only candidate is undecided: two indels apart, or a
        # shifted copy farther than the bound.
        candidate_lists = [
            [query[2:] + "GA" if index % 3 else query[1:] + "C"]
            for index, query in enumerate(queries)
        ]
        expected = get_distance_backend("python").first_within_batch(
            queries, candidate_lists, 2
        )
        assert numpy_backend.first_within_batch(queries, candidate_lists, 2) == expected
        # Fewer undecided pairs than _MIN_BATCH take the scalar kernel.
        assert calls == ([undecided] if undecided >= numpy_backend._MIN_BATCH else [])
