"""Trace reconstruction: recovering the original strand from noisy copies.

Each cluster holds several noisy reads of the same original strand, with
substitutions, insertions and deletions.  The paper reconstructs the
original with the double-sided BMA (bitwise majority alignment) algorithm
of Lin et al.: BMA is run left-to-right and right-to-left and the two
reconstructions are stitched together, which makes the result robust to
indels near either end.

Two implementations are provided behind one batch API:

* the scalar reference (:func:`bma_consensus` / :func:`double_sided_bma`),
  one cluster at a time — the oracle;
* a numpy kernel that advances the pointers of **every read of every
  cluster of a readout together**, one array step per output position, so
  a whole readout's trace reconstruction collapses into ~2x``length``
  vectorized rounds instead of millions of per-read Python iterations.

Both produce byte-identical strands (``tests/test_consensus_backends.py``
asserts it, including the majority tie-break, which follows ``Counter``
first-insertion order).  An explicit name selects a backend; ``None``
or ``"auto"`` picks numpy when it is importable and the fused kernels are
on (``REPRO_FUSED_KERNELS``).
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.exceptions import ReconstructionError
from repro.fastpath import fused_kernels_enabled


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
def _numpy_or_none():
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def _resolve_backend(backend: str | None) -> str:
    requested = (backend or "auto").strip().lower()
    if requested == "auto":
        # The fused-kernel switch only moves the *default*: an explicit
        # backend name is always honored.
        requested = (
            "numpy"
            if _numpy_or_none() is not None and fused_kernels_enabled()
            else "python"
        )
    if requested not in ("python", "numpy"):
        raise ReconstructionError(
            f"unknown consensus backend {requested!r}; expected one of "
            f"{['auto', 'python', 'numpy']}"
        )
    if requested == "numpy" and _numpy_or_none() is None:
        raise ReconstructionError(
            "the numpy consensus backend was requested but numpy is not installed"
        )
    return requested


def consensus_batch(
    read_groups: Sequence[list[str]],
    length: int,
    backend: str | None = None,
) -> list[str]:
    """:func:`double_sided_bma` of many clusters in one call.

    Args:
        read_groups: one list of noisy reads per cluster (each non-empty).
        length: the (known) strand length, shared by every cluster.
        backend: ``"python"``, ``"numpy"``, or ``"auto"``/None
            (autodetection).  Both backends return byte-identical strands.

    Returns:
        The reconstructed strand of each group, in order.
    """
    if not read_groups:
        return []
    for group in read_groups:
        if not group:
            raise ReconstructionError("cannot build a consensus from zero reads")
    resolved = _resolve_backend(backend)
    if resolved == "numpy":
        strands = _consensus_batch_numpy(read_groups, length)
        if strands is not None:
            return strands
    return [double_sided_bma(group, length) for group in read_groups]


def _consensus_batch_numpy(
    read_groups: Sequence[list[str]], length: int
) -> list[str] | None:
    """Vectorized double-sided BMA; ``None`` defers to the scalar path.

    The only deferral is non-ASCII input (reads cannot pack into a uint8
    matrix); the DNA alphabet never hits it.
    """
    np = _numpy_or_none()
    flat_reads = [read for group in read_groups for read in group]
    try:
        blob = "".join(flat_reads).encode("ascii")
    except UnicodeEncodeError:
        return None

    group_sizes = np.array([len(group) for group in read_groups], dtype=np.int64)
    group_count = len(read_groups)
    total = len(flat_reads)
    lengths = np.array([len(read) for read in flat_reads], dtype=np.int64)
    group_of = np.repeat(np.arange(group_count, dtype=np.int64), group_sizes)
    group_start = np.concatenate(([0], np.cumsum(group_sizes)[:-1]))
    group_end = np.cumsum(group_sizes)

    flat = np.frombuffer(blob, dtype=np.uint8)
    max_len = int(lengths.max()) if total else 0
    # Two padding columns so a pointer that ran (at most) one position past
    # its read still gathers in-bounds (the value is masked out).
    width = max_len + 2
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    column = np.arange(max_len, dtype=np.int64)
    in_read = column[None, :] < lengths[:, None]
    matrix = np.zeros((total, width), dtype=np.uint8)
    reversed_matrix = np.zeros((total, width), dtype=np.uint8)
    if max_len:
        gather = np.minimum(starts[:, None] + column[None, :], max(len(flat) - 1, 0))
        matrix[:, :max_len] = np.where(in_read, flat[gather], 0)
        gather_rev = np.clip(
            starts[:, None] + lengths[:, None] - 1 - column[None, :],
            0,
            max(len(flat) - 1, 0),
        )
        reversed_matrix[:, :max_len] = np.where(in_read, flat[gather_rev], 0)

    # Compact alphabet codes: votes are counted per (group, symbol) with
    # one bincount, so symbols must be dense small ints.
    alphabet = np.unique(flat) if len(flat) else np.zeros(0, dtype=np.uint8)
    lut = np.zeros(256, dtype=np.int64)
    lut[alphabet] = np.arange(len(alphabet), dtype=np.int64)

    forward = _bma_batch_numpy(
        np, matrix, lengths, group_of, group_start, group_end,
        group_count, length, alphabet, lut,
    )
    backward = _bma_batch_numpy(
        np, reversed_matrix, lengths, group_of, group_start, group_end,
        group_count, length, alphabet, lut,
    )
    half = length // 2
    stitched = np.concatenate(
        (forward[:, :half], backward[:, ::-1][:, half:]), axis=1
    )
    return [bytes(row).decode("ascii") for row in stitched]


def _bma_batch_numpy(
    np, matrix, lengths, group_of, group_start, group_end,
    group_count, length, alphabet, lut,
):
    """One-directional batch BMA over a padded read matrix.

    Mirrors :func:`bma_consensus` exactly, one vectorized round per output
    position: gather the pointed-at symbol of every read, count votes per
    (group, symbol) with a single ``bincount``, emit each group's majority
    and advance every pointer by the same 0/1/2 rule.  The scalar
    majority's tie-break (``Counter.most_common(1)`` returns the max-count
    symbol *first inserted*, i.e. first voted in read order) is reproduced
    by a per-tie scan over the group's reads; ties are rare, so the scan
    stays off the hot path.
    """
    total, width = matrix.shape
    codes = lut[matrix]
    flat_codes = codes.ravel()
    row_base = np.arange(total, dtype=np.int64) * width
    row_index = np.arange(total, dtype=np.int64)
    symbol_count = max(1, len(alphabet))
    group_key = group_of * symbol_count
    pointers = np.zeros(total, dtype=np.int64)
    out = np.full((group_count, length), ord("A"), dtype=np.uint8)
    for step in range(length):
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
