"""Low-level utilities for working with DNA sequences.

These helpers are used across the codec, primer-design, index-tree and
wetlab-simulation subsystems.  They operate on plain Python strings over the
alphabet ``{A, C, G, T}`` for clarity; hot loops that need vectorization
(e.g. the error channel) convert to numpy arrays internally.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.constants import COMPLEMENT, DNA_ALPHABET, GC_BASES
from repro.exceptions import SequenceError

_VALID_BASES = frozenset(DNA_ALPHABET)


def validate_sequence(sequence: str) -> str:
    """Return ``sequence`` if it is a valid DNA string, else raise.

    Raises:
        SequenceError: if the sequence contains characters outside ACGT.
    """
    if not isinstance(sequence, str):
        raise SequenceError(f"expected str, got {type(sequence).__name__}")
    invalid = set(sequence) - _VALID_BASES
    if invalid:
        raise SequenceError(
            f"sequence contains invalid characters: {sorted(invalid)!r}"
        )
    return sequence


def is_valid_sequence(sequence: str) -> bool:
    """Return ``True`` if ``sequence`` only contains ACGT characters."""
    return isinstance(sequence, str) and set(sequence) <= _VALID_BASES


def gc_content(sequence: str) -> float:
    """Return the fraction of G/C bases in ``sequence``.

    An empty sequence has a GC content of 0.0 by convention.
    """
    if not sequence:
        return 0.0
    gc = sum(1 for base in sequence if base in GC_BASES)
    return gc / len(sequence)


def gc_count(sequence: str) -> int:
    """Return the number of G/C bases in ``sequence``."""
    return sum(1 for base in sequence if base in GC_BASES)


def max_homopolymer_run(sequence: str) -> int:
    """Return the length of the longest homopolymer run in ``sequence``."""
    if not sequence:
        return 0
    longest = 1
    current = 1
    for previous, base in zip(sequence, sequence[1:]):
        if base == previous:
            current += 1
            longest = max(longest, current)
        else:
            current = 1
    return longest


def complement(sequence: str) -> str:
    """Return the Watson-Crick complement of ``sequence``."""
    try:
        return "".join(COMPLEMENT[base] for base in sequence)
    except KeyError as exc:
        raise SequenceError(f"invalid base {exc.args[0]!r}") from exc


def reverse_complement(sequence: str) -> str:
    """Return the reverse complement of ``sequence``."""
    return complement(sequence)[::-1]


def hamming_distance(left: str, right: str) -> int:
    """Return the Hamming distance between two equal-length strings.

    Raises:
        SequenceError: if the strings have different lengths.
    """
    if len(left) != len(right):
        raise SequenceError(
            f"hamming_distance requires equal lengths, got {len(left)} and {len(right)}"
        )
    return sum(1 for a, b in zip(left, right) if a != b)


def levenshtein_distance(left: str, right: str, *, upper_bound: int | None = None) -> int:
    """Return the Levenshtein (edit) distance between two strings.

    Args:
        left: first string.
        right: second string.
        upper_bound: if given, only the diagonal band of width
            ``2 * upper_bound + 1`` is computed (Ukkonen banding) and the
            function returns ``upper_bound + 1`` as soon as the distance is
            known to exceed the bound.  This turns each comparison from
            O(n*m) into O(n*upper_bound), which is what makes clustering
            over many reads affordable.

    Returns:
        The minimum number of insertions, deletions and substitutions needed
        to turn ``left`` into ``right`` (possibly capped as described above).

    Raises:
        SequenceError: if ``upper_bound`` is negative (no pair of strings
            is that close).
    """
    if upper_bound is not None and upper_bound < 0:
        raise SequenceError(f"upper_bound must be non-negative, got {upper_bound}")
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    if upper_bound is None:
        # Classic two-row dynamic program over the full matrix.
        previous = list(range(len(right) + 1))
        for i, a in enumerate(left, start=1):
            current = [i] + [0] * len(right)
            for j, b in enumerate(right, start=1):
                cost = 0 if a == b else 1
                current[j] = min(
                    previous[j] + 1,        # deletion
                    current[j - 1] + 1,     # insertion
                    previous[j - 1] + cost, # substitution
                )
            previous = current
        return previous[-1]

    bound = upper_bound
    n, m = len(left), len(right)
    if abs(n - m) > bound:
        return bound + 1
    big = bound + 1
    # Banded DP: row ``i`` only needs columns ``j`` with |i - j| <= bound
    # (any cell outside the band is > bound).  ``previous`` holds the band
    # of row ``i - 1`` starting at column ``lo_prev``.
    lo_prev = 0
    previous = list(range(min(m, bound) + 1))
    for i in range(1, n + 1):
        lo = max(0, i - bound)
        hi = min(m, i + bound)
        a = left[i - 1]
        current = []
        row_minimum = big
        prev_hi = lo_prev + len(previous) - 1
        for j in range(lo, hi + 1):
            if j == 0:
                value = i
            else:
                cost = 0 if a == right[j - 1] else 1
                diagonal = (
                    previous[j - 1 - lo_prev] if lo_prev <= j - 1 <= prev_hi else big
                )
                above = previous[j - lo_prev] if lo_prev <= j <= prev_hi else big
                beside = current[j - 1 - lo] if j - 1 >= lo else big
                value = min(diagonal + cost, above + 1, beside + 1)
            current.append(value)
            if value < row_minimum:
                row_minimum = value
        if row_minimum > bound:
            return big
        previous = current
        lo_prev = lo
    distance = previous[m - lo_prev]
    return distance if distance <= bound else big


def bounded_edit_distance(left: str, right: str, bound: int) -> int:
    """Edit distance capped at ``bound + 1``, computed bit-parallel.

    Returns exactly what ``levenshtein_distance(left, right,
    upper_bound=bound)`` returns, including its shortcut for an empty
    operand (the other operand's length, uncapped).

    This is G. Myers' bit-vector algorithm ("A fast bit-vector algorithm
    for approximate string matching based on dynamic programming", JACM
    1999) in H. Hyyrö's edit-distance form (2003).  Column ``j`` of the DP
    matrix is held as two bit-vectors over ``left`` marking where
    ``D[i][j] - D[i-1][j]`` is +1 and where it is -1.  Each character of
    ``right`` advances the whole column with a dozen integer operations
    instead of one cell at a time, and updates the last row ``D[m][j]``
    (``m = len(left)``, ``n = len(right)``).  That row changes by at most
    one per column, so ``D[m][n] >= D[m][j] - (n - j)``, and the scan
    stops as soon as that lower bound exceeds ``bound``.

    Raises:
        SequenceError: if ``bound`` is negative.
    """
    if bound < 0:
        raise SequenceError(f"bound must be non-negative, got {bound}")
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    m, n = len(left), len(right)
    if abs(m - n) > bound:
        return bound + 1
    # One match mask per character of ``left``: bit i is set where
    # left[i] is that character (reversed, since int() reads the most
    # significant digit first).
    reversed_left = left[::-1]
    digits = dict.fromkeys(map(ord, left), "0")
    match_masks: dict[str, int] = {}
    for code in digits:
        digits[code] = "1"
        match_masks[chr(code)] = int(reversed_left.translate(digits), 2)
        digits[code] = "0"
    # No operation below carries information from a bit to a lower one,
    # so ``mask`` only keeps the integers m bits wide and non-negative.
    mask = (1 << m) - 1
    last_row = 1 << (m - 1)
    plus, minus = mask, 0  # vertical deltas of column 0: D[i][0] = i
    score = m
    limit = n + bound
    for column, char in enumerate(right, 1):
        match = match_masks.get(char, 0)
        vertical = match | minus
        horizontal = (((match & plus) + plus) ^ plus) | match
        plus_h = minus | ~(horizontal | plus) & mask
        minus_h = plus & horizontal
        if plus_h & last_row:
            score += 1
        elif minus_h & last_row:
            score -= 1
        if score + column > limit:
            return bound + 1
        plus_h = (plus_h << 1) | 1  # row 0 grows by one per column
        minus_h = (minus_h << 1) & mask
        plus = minus_h | ~(vertical | plus_h) & mask
        minus = plus_h & vertical
    return score if score <= bound else bound + 1


def kmer_set(sequence: str, k: int) -> frozenset[str]:
    """Return the set of all k-mers of ``sequence``.

    Used as a cheap similarity prefilter before computing edit distances
    during clustering.
    """
    if k <= 0:
        raise SequenceError("k must be positive")
    if len(sequence) < k:
        return frozenset()
    return frozenset(sequence[i : i + k] for i in range(len(sequence) - k + 1))


def kmer_similarity(left: str, right: str, k: int = 6) -> float:
    """Return the Jaccard similarity of the k-mer sets of two sequences."""
    left_kmers = kmer_set(left, k)
    right_kmers = kmer_set(right, k)
    if not left_kmers and not right_kmers:
        return 1.0
    if not left_kmers or not right_kmers:
        return 0.0
    intersection = len(left_kmers & right_kmers)
    union = len(left_kmers | right_kmers)
    return intersection / union


def longest_common_prefix(sequences: Iterable[str]) -> str:
    """Return the longest common prefix of a collection of strings."""
    iterator = iter(sequences)
    try:
        prefix = next(iterator)
    except StopIteration:
        return ""
    for sequence in iterator:
        limit = min(len(prefix), len(sequence))
        i = 0
        while i < limit and prefix[i] == sequence[i]:
            i += 1
        prefix = prefix[:i]
        if not prefix:
            break
    return prefix


def sliding_windows(sequence: str, width: int) -> list[str]:
    """Return every contiguous window of ``width`` bases in ``sequence``."""
    if width <= 0:
        raise SequenceError("width must be positive")
    if width > len(sequence):
        return []
    return [sequence[i : i + width] for i in range(len(sequence) - width + 1)]


def chunk_sequence(sequence: str, size: int) -> list[str]:
    """Split ``sequence`` into consecutive chunks of at most ``size`` bases."""
    if size <= 0:
        raise SequenceError("size must be positive")
    return [sequence[i : i + size] for i in range(0, len(sequence), size)]


def pairwise_min_hamming(sequences: Sequence[str]) -> int:
    """Return the minimum pairwise Hamming distance among equal-length strings.

    Returns a large sentinel (``len(sequences[0]) + 1``) when fewer than two
    sequences are given so callers can treat "no constraint violated" simply.
    """
    if len(sequences) < 2:
        return (len(sequences[0]) + 1) if sequences else 0
    best = len(sequences[0]) + 1
    for i in range(len(sequences)):
        for j in range(i + 1, len(sequences)):
            best = min(best, hamming_distance(sequences[i], sequences[j]))
            if best == 0:
                return 0
    return best
