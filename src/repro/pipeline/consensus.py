"""Trace reconstruction: recovering the original strand from noisy copies.

Each cluster holds several noisy reads of the same original strand, with
substitutions, insertions and deletions.  The paper reconstructs the
original with the double-sided BMA (bitwise majority alignment) algorithm
of Lin et al.: BMA is run left-to-right and right-to-left and the two
reconstructions are stitched together, which makes the result robust to
indels near either end.

Two implementations are provided behind one batch API,
:func:`consensus_batch`, and ``REPRO_FUSED_KERNELS`` picks one:

* the scalar reference (:func:`bma_consensus` / :func:`double_sided_bma`),
  one cluster at a time — the oracle, and the only path under
  ``REPRO_FUSED_KERNELS=0`` or without numpy;
* a numpy kernel that advances the pointers of **every read of every
  multi-read cluster of a readout together**, forward and reversed in one
  matrix, one array step per output position.  The stitch needs only the
  first half of each direction, so a whole readout's trace reconstruction
  collapses into ``length - length // 2`` vectorized rounds instead of
  millions of per-read Python iterations.  A single-read cluster skips
  the rounds: its double-sided BMA is the read's first ``length // 2``
  bases, padded with ``A`` on the right, then its last
  ``length - length // 2`` bases, padded with ``A`` on the left.

Both produce byte-identical strands (``tests/test_consensus_backends.py``
asserts it, including the majority tie-break, which follows ``Counter``
first-insertion order).  :func:`consensus_matrix` hands the fused
kernel's strands over as the uint8 matrix it builds, so the decoder can
parse them in array passes instead of one string at a time.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.exceptions import ReconstructionError
from repro.fastpath import fused_kernels_enabled

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None  # consensus_batch falls back to the scalar double_sided_bma.


def majority_consensus(reads: list[str], length: int) -> str:
    """Naive per-position majority vote (no indel handling).

    Useful as a baseline and for nearly-error-free clusters; positions
    beyond a read's end simply do not vote.
    """
    if not reads:
        raise ReconstructionError("cannot build a consensus from zero reads")
    out = []
    for position in range(length):
        votes = Counter(read[position] for read in reads if position < len(read))
        if not votes:
            out.append("A")
            continue
        out.append(votes.most_common(1)[0][0])
    return "".join(out)


def bma_consensus(reads: list[str], length: int) -> str:
    """One-directional bitwise majority alignment (BMA) trace reconstruction.

    Classic BMA for the known-length setting: a per-read pointer walks each
    read; at every output position the pointed-at symbols vote, the
    majority symbol is emitted, and each pointer advances by 0, 1 or 2
    positions depending on whether that read appears to have suffered a
    deletion, no error, or an insertion at this point.

    Args:
        reads: noisy copies of the same strand.
        length: the (known) length of the original strand.

    Returns:
        The reconstructed strand of exactly ``length`` bases.
    """
    if not reads:
        raise ReconstructionError("cannot build a consensus from zero reads")
    pointers = [0] * len(reads)
    out: list[str] = []
    for _ in range(length):
        votes = Counter()
        for read, pointer in zip(reads, pointers):
            if pointer < len(read):
                votes[read[pointer]] += 1
        if not votes:
            out.append("A")
            continue
        majority = votes.most_common(1)[0][0]
        out.append(majority)
        for index, (read, pointer) in enumerate(zip(reads, pointers)):
            if pointer >= len(read):
                continue
            if read[pointer] == majority:
                pointers[index] = pointer + 1
            elif pointer + 1 < len(read) and read[pointer + 1] == majority:
                # The read has an extra (inserted) symbol here: skip it and
                # consume the matching one.
                pointers[index] = pointer + 2
            else:
                # Assume the read deleted the majority symbol: do not advance
                # unless the current symbol also fails to match the *next*
                # couple of outputs, in which case treating it as a
                # substitution (advancing) recovers alignment.  The cheap
                # heuristic below advances on apparent substitutions.
                remaining_read = len(read) - pointer
                remaining_output = length - len(out)
                if remaining_read > remaining_output:
                    pointers[index] = pointer + 1
    return "".join(out)


def double_sided_bma(reads: list[str], length: int) -> str:
    """Double-sided BMA: run BMA from both ends and stitch at the middle.

    The left half of the result comes from the forward pass and the right
    half from the backward pass (computed on reversed reads), which confines
    the error-accumulation of each pass to the far end that it does not
    contribute.
    """
    if not reads:
        raise ReconstructionError("cannot build a consensus from zero reads")
    forward = bma_consensus(reads, length)
    backward = bma_consensus([read[::-1] for read in reads], length)[::-1]
    half = length // 2
    return forward[:half] + backward[half:]


# ----------------------------------------------------------------------
# Batched consensus
# ----------------------------------------------------------------------
def consensus_batch(read_groups: Sequence[list[str]], length: int) -> list[str]:
    """:func:`double_sided_bma` of many clusters in one call.

    The fused kernels (the default) run the numpy batch kernel when numpy
    is importable (see :func:`consensus_matrix`): a single-read cluster's
    strand is its read's first ``length // 2`` bases and last
    ``length - length // 2`` bases, padded with ``A``, filled without the
    kernel rounds, and the other clusters share one batch BMA run.
    ``REPRO_FUSED_KERNELS=0`` runs :func:`double_sided_bma` per cluster.
    Both return byte-identical strands.

    Args:
        read_groups: one list of noisy reads per cluster (each non-empty).
        length: the (known) strand length, shared by every cluster.

    Returns:
        The reconstructed strand of each group, in order.
    """
    matrix = consensus_matrix(read_groups, length)
    if matrix is None:
        return [double_sided_bma(group, length) for group in read_groups]
    return [bytes(row).decode("ascii") for row in matrix]


def consensus_matrix(
    read_groups: Sequence[list[str]], length: int
) -> np.ndarray | None:
    """The fused kernel's strands of many clusters as one uint8 matrix.

    Row ``g`` holds the ASCII codes of ``double_sided_bma(read_groups[g],
    length)``.  A single-read group's row is filled directly; the groups
    of two or more reads go through one numpy batch BMA run.

    Returns:
        A ``(len(read_groups), length)`` uint8 array, or ``None`` where
        the reference runs instead: under ``REPRO_FUSED_KERNELS=0``,
        without numpy, or for reads that are not ASCII.

    Raises:
        ReconstructionError: if a group holds no read.
    """
    for group in read_groups:
        if not group:
            raise ReconstructionError("cannot build a consensus from zero reads")
    if not fused_kernels_enabled():
        return None
    return _consensus_batch_numpy(read_groups, length)


def _singleton_strand(read: str, length: int) -> str:
    """``double_sided_bma([read], length)`` without the BMA rounds.

    One read wins every vote it casts, so each direction copies the read
    and pads it with ``A`` where the read runs out: the forward half is
    the read's head, the backward half its tail.
    """
    half = length // 2
    tail = read[half - length :] if length > half else ""
    return read[:half].ljust(half, "A") + tail.rjust(length - half, "A")


def _consensus_batch_numpy(
    read_groups: Sequence[list[str]], length: int
) -> np.ndarray | None:
    """Vectorized double-sided BMA as a uint8 matrix; ``None`` defers to
    the scalar path.

    Single-read groups take :func:`_singleton_strand`.  The other groups
    go through one kernel run: the read matrix holds each of their reads
    forward (group ``g``) and then reversed (group ``G + g``, for ``G``
    such groups).  Output position ``s`` depends only on rounds ``<= s``,
    and the stitch keeps the first ``length // 2`` forward positions and
    the first ``length - length // 2`` backward ones, so the run stops
    after ``length - length // 2`` rounds.

    It defers without numpy, and for non-ASCII input (reads cannot pack
    into a uint8 matrix), which the DNA alphabet never hits.
    """
    if np is None:
        return None
    singles = [group[0] for group in read_groups if len(group) == 1]
    multi_groups = [group for group in read_groups if len(group) > 1]
    try:
        single_blob = "".join(
            _singleton_strand(read, length) for read in singles
        ).encode("ascii")
        blob = "".join(read for group in multi_groups for read in group).encode("ascii")
    except UnicodeEncodeError:
        return None

    is_single = np.array([len(group) == 1 for group in read_groups], dtype=bool)
    out = np.empty((len(read_groups), length), dtype=np.uint8)
    out[is_single] = np.frombuffer(single_blob, dtype=np.uint8).reshape(
        len(singles), length
    )
    if multi_groups:
        out[~is_single] = _multi_read_strands(multi_groups, blob, length)
    return out


def _multi_read_strands(
    read_groups: list[list[str]], blob: bytes, length: int
) -> np.ndarray:
    """Double-sided BMA of groups of two or more reads, as a uint8 matrix.

    ``blob`` is the ASCII concatenation of the groups' reads, in order.
    """
    assert np is not None  # only _consensus_batch_numpy calls this, with numpy
    group_sizes = np.array([len(group) for group in read_groups], dtype=np.int64)
    group_count = len(read_groups)
    lengths = np.array(
        [len(read) for group in read_groups for read in group], dtype=np.int64
    )
    total = len(lengths)
    group_of = np.repeat(np.arange(group_count, dtype=np.int64), group_sizes)
    group_start = np.concatenate(([0], np.cumsum(group_sizes)[:-1]))

    flat = np.frombuffer(blob, dtype=np.uint8)
    # Two padding columns so a pointer that ran (at most) one position past
    # its read still gathers in-bounds (the value is masked out).
    width = int(lengths.max()) + 2
    in_read = np.arange(width) < lengths[:, None]
    matrix = np.zeros((2 * total, width), dtype=np.uint8)
    matrix[:total][in_read] = flat
    # The reversed blob holds the reads last to first, each one reversed.
    matrix[total:][::-1][in_read[::-1]] = flat[::-1]

    # Compact alphabet codes: votes are counted per (group, symbol) with
    # one bincount, so symbols must be dense small ints (ASCII fits uint8).
    alphabet = np.flatnonzero(np.bincount(flat, minlength=256))
    lut = np.zeros(256, dtype=np.uint8)
    lut[alphabet] = np.arange(len(alphabet))

    half = length // 2
    steps = length - half
    both = _bma_batch_numpy(
        matrix,
        np.concatenate((lengths, lengths)),
        np.concatenate((group_of, group_of + group_count)),
        np.concatenate((group_start, group_start + total)),
        2 * group_count,
        length,
        steps,
        alphabet,
        lut,
    )
    return np.concatenate(
        (both[:group_count, :half], both[group_count:, ::-1]), axis=1
    )


def _bma_batch_numpy(
    matrix, lengths, group_of, group_start, group_count, length, steps,
    alphabet, lut,
):
    """Batch BMA over a padded read matrix, for the first ``steps`` positions.

    Mirrors :func:`bma_consensus` of a ``length``-base strand exactly, one
    vectorized round per output position: gather the pointed-at symbol of
    every read, count votes per (group, symbol) with a single
    ``bincount``, emit each group's majority and advance every pointer by
    the same 0/1/2 rule.  The scalar majority's tie-break
    (``Counter.most_common(1)`` returns the max-count symbol *first
    inserted*, i.e. first voted in read order) needs each group's reads in
    consecutive rows starting at ``group_start``.
    """
    assert np is not None  # only _multi_read_strands calls this, with numpy
    total, width = matrix.shape
    flat_codes = lut[matrix].ravel()
    row_base = np.arange(total, dtype=np.int64) * width
    row_index = np.arange(total, dtype=np.int64)
    symbol_count = max(1, len(alphabet))
    group_key = group_of * symbol_count
    pointers = np.zeros(total, dtype=np.int64)
    out = np.full((group_count, steps), ord("A"), dtype=np.uint8)
    for step in range(steps):
        valid = pointers < lengths
        sym = np.take(flat_codes, row_base + pointers, mode="clip")
        combined = group_key + sym
        counts = np.bincount(
            combined[valid], minlength=group_count * symbol_count
        )
        peak = counts.reshape(group_count, symbol_count).max(axis=1)
        # The majority is the max-count symbol *first inserted* into the
        # scalar Counter — i.e. the symbol of the earliest read (in group
        # order) that votes for any max-count symbol.  Reads are stored
        # group-contiguously, so one reduceat finds that read per group.
        peak_of_read = peak[group_of]
        is_peak_voter = valid & (counts[combined] == peak_of_read) & (peak_of_read > 0)
        first_voter = np.minimum.reduceat(
            np.where(is_peak_voter, row_index, total), group_start
        )
        majority = sym[np.minimum(first_voter, total - 1)]
        voted = peak > 0
        out[voted, step] = alphabet[majority[voted]]
        # Pointer advance: match -> +1; inserted symbol (next matches the
        # majority) -> +2; apparent deletion -> stall unless the read has
        # more symbols left than the output does (then treat it as a
        # substitution and advance).
        majority_of_read = majority[group_of]
        has_next = (pointers + 1) < lengths
        next_sym = np.take(flat_codes, row_base + pointers + 1, mode="clip")
        match = valid & (sym == majority_of_read)
        insertion = valid & ~match & has_next & (next_sym == majority_of_read)
        substitution = (
            valid & ~match & ~insertion
            & ((lengths - pointers) > (length - step - 1))
        )
        pointers = pointers + match + 2 * insertion + substitution
    return out
