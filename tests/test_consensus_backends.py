"""The numpy consensus kernel against the scalar double-sided BMA.

``consensus_batch`` reconstructs every cluster of a readout either with the
vectorized kernel (``_consensus_batch_numpy``, the fused default, which
fills single-read clusters' rows directly and runs the batch BMA over the
rest) or one cluster at a time with :func:`double_sided_bma`, the
reference that ``REPRO_FUSED_KERNELS=0`` selects.  Decode-level tests
cannot stand in for this diff: Reed-Solomon corrects a wrong strand, so a
kernel that disagreed on a few strands could still decode every block.
Here the two paths must return the same strands on every input, the
majority tie-break (``Counter`` first-insertion order) included.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pipeline.consensus as consensus
from repro.exceptions import ReconstructionError
from repro.pipeline.consensus import (
    _consensus_batch_numpy,
    consensus_batch,
    consensus_matrix,
    double_sided_bma,
)

pytest.importorskip("numpy")

BASES = "ACGT"


def _numpy_strands(groups, length):
    """The numpy kernel's matrix rows as strings (``None`` if it defers)."""
    matrix = _consensus_batch_numpy(groups, length)
    if matrix is None:
        return None
    assert matrix.shape == (len(groups), length)
    return [bytes(row).decode("ascii") for row in matrix]


def _consensus_in_mode(fused, groups, length):
    """``consensus_batch(groups, length)`` under ``REPRO_FUSED_KERNELS=fused``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_FUSED_KERNELS", fused)
        return consensus_batch(groups, length)


def strands(length):
    return st.text(alphabet=BASES, min_size=length, max_size=length)


@st.composite
def noisy_copy(draw, strand):
    """``strand`` with substitutions, insertions and deletions."""
    read = list(strand)
    edits = draw(
        st.lists(
            st.tuples(
                st.sampled_from("sid"),
                st.integers(0, len(strand)),
                st.sampled_from(BASES),
            ),
            max_size=8,
        )
    )
    for kind, position, base in edits:
        if kind == "i":
            read.insert(min(position, len(read)), base)
        elif position < len(read):
            if kind == "s":
                read[position] = base
            else:
                del read[position]
    return "".join(read)


@st.composite
def read_groups(draw, length):
    """One cluster: 1-12 reads of 0-2L bases around one strand, or an even
    number of reads alternating between two strands, which ties the vote
    wherever they differ."""
    strand = draw(strands(length))
    if draw(st.booleans()):
        other = draw(strands(length))
        return [(strand, other)[index % 2] for index in range(2 * draw(st.integers(1, 6)))]
    read = st.one_of(
        noisy_copy(strand),
        st.text(alphabet=BASES, max_size=2 * length),
        st.just(""),
    )
    reads = draw(st.lists(read, min_size=1, max_size=12))
    return [read[: 2 * length] for read in reads]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_numpy_kernel_matches_scalar_bma(data):
    length = data.draw(st.integers(0, 40), label="length")
    groups = data.draw(st.lists(read_groups(length), min_size=1, max_size=6))
    expected = [double_sided_bma(group, length) for group in groups]
    assert _numpy_strands(groups, length) == expected
    assert _consensus_in_mode("1", groups, length) == expected
    assert _consensus_in_mode("0", groups, length) == expected


def _readout_shaped_groups(length, seed):
    """Clusters shaped like one partition readout's: 240 groups of 1-12
    noisy copies, about 60% singletons, some truncated and some over-long
    reads, and one group whose vote ties at every differing position."""
    rng = random.Random(seed)

    def strand():
        return "".join(rng.choice(BASES) for _ in range(length))

    def noisy(text):
        out = []
        for base in text:
            draw = rng.random()
            if draw < 0.01:
                out.append(rng.choice(BASES))
            elif draw < 0.02:
                out.extend((base, rng.choice(BASES)))
            elif draw >= 0.03:
                out.append(base)
        read = "".join(out)
        shape = rng.random()
        if shape < 0.05:
            return read[: rng.randrange(length // 2, length)]
        if shape < 0.10:
            return read + strand()[: rng.randrange(1, 12)]
        return read

    groups = []
    for _ in range(240):
        original = strand()
        size = 1 if rng.random() < 0.6 else rng.randrange(2, 13)
        groups.append([noisy(original) for _ in range(size)])
    first, second = strand(), strand()
    groups.insert(rng.randrange(len(groups)), [first, second, first, second])
    return groups


@pytest.mark.parametrize("length", [146, 147])
def test_numpy_kernel_matches_scalar_bma_on_a_readout_shape(length):
    # The real decode reconstructs 146-base strands, hundreds of clusters
    # per call; the odd length checks that one half-length kernel run
    # still covers the backward half's extra position.
    groups = _readout_shaped_groups(length, seed=length)
    sizes = [len(group) for group in groups]
    assert len(groups) >= 200
    assert 0.5 < sizes.count(1) / len(groups) < 0.7
    reads = [read for group in groups for read in group]
    assert any(len(read) < length - 10 for read in reads)
    assert any(len(read) > length + 1 for read in reads)
    assert _numpy_strands(groups, length) == [
        double_sided_bma(group, length) for group in groups
    ]


def test_vote_ties_follow_first_insertion_order():
    # Every position is a 1-1 tie; the first read's symbol wins it.
    groups = [["ACGT", "TGCA"], ["TGCA", "ACGT"]]
    expected = [double_sided_bma(group, 4) for group in groups]
    assert [strand[0] for strand in expected] == ["A", "T"]
    assert _numpy_strands(groups, 4) == expected


def test_non_ascii_group_falls_back_to_scalar():
    groups = [["ACGT", "ACGA"], ["AΩGT", "ACGT", "ACCT"]]
    assert _consensus_batch_numpy(groups, 4) is None
    assert _consensus_in_mode("1", groups, 4) == [
        double_sided_bma(group, 4) for group in groups
    ]


@pytest.mark.parametrize("length", [9, 10, 146, 147])
def test_singleton_rows_match_double_sided_bma(length):
    # A single read's double-sided BMA is its head then its tail, padded
    # with A where it runs out: reads of every length from empty to twice
    # the strand, so both halves see short, exact and over-long reads.
    rng = random.Random(length)
    reads = [
        "".join(rng.choice(BASES) for _ in range(size)) for size in range(2 * length + 1)
    ]
    groups = [[read] for read in reads]
    expected = [double_sided_bma(group, length) for group in groups]
    assert expected[0] == "A" * length
    assert _numpy_strands(groups, length) == expected
    assert _consensus_in_mode("1", groups, length) == expected


@pytest.mark.parametrize("length", [0, 1, 2])
def test_singleton_rows_of_tiny_strands(length):
    groups = [[read] for read in ("", "C", "GT", "TGCA")]
    expected = [double_sided_bma(group, length) for group in groups]
    assert _numpy_strands(groups, length) == expected


@pytest.mark.parametrize("length", [11, 12])
def test_mixed_batches_in_every_order(length):
    # Singletons (short, exact, over-long) beside multi-read groups (noisy
    # copies, a vote that ties at every differing position): every order
    # of the six, so the rows go back to their groups wherever they sit.
    rng = random.Random(length)

    def strand(size=length):
        return "".join(rng.choice(BASES) for _ in range(size))

    original, first, second = strand(), strand(), strand()
    pool = [
        [strand(length // 3)],
        [strand()],
        [strand(2 * length)],
        [original, original[:5] + original[6:], original[:7] + "A" + original[7:]],
        [first, second, first, second],
        [strand(length - 2), strand(length + 3)],
    ]
    for order in itertools.permutations(pool):
        groups = list(order)
        expected = [double_sided_bma(group, length) for group in groups]
        assert _numpy_strands(groups, length) == expected
    assert _numpy_strands([group for group in pool if len(group) > 1], length) == [
        double_sided_bma(group, length) for group in pool if len(group) > 1
    ]


def test_consensus_matrix_defers_to_the_reference_and_rejects_empty_groups():
    groups = [["ACGTACGT", "ACGTTCGT"], ["TTGCAAGC"]]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_FUSED_KERNELS", "0")
        assert consensus_matrix(groups, 8) is None
        with pytest.raises(ReconstructionError):
            consensus_matrix([["ACGT"], []], 8)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_FUSED_KERNELS", "1")
        matrix = consensus_matrix(groups, 8)
        assert (matrix.dtype, matrix.shape) == ("uint8", (2, 8))
        assert consensus_matrix([], 8).shape == (0, 8)
        with pytest.raises(ReconstructionError):
            consensus_matrix([["ACGT"], []], 8)


@pytest.mark.parametrize(
    "fused, forbidden",
    [("1", "double_sided_bma"), ("0", "_consensus_batch_numpy")],
)
def test_each_mode_runs_one_kernel(fused, forbidden, monkeypatch):
    def refuse(*args):
        raise AssertionError(f"{forbidden} called with REPRO_FUSED_KERNELS={fused}")

    groups = [["ACGTACGT", "ACGTTCGT", "ACGACGT"], ["TTGCAAGC"]]
    expected = [double_sided_bma(group, 8) for group in groups]
    monkeypatch.setattr(consensus, forbidden, refuse)
    assert _consensus_in_mode(fused, groups, 8) == expected
