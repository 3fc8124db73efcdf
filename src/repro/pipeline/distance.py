"""Edit-distance primitives of the clustering hot path.

Clustering spends almost all of its time answering one question: *is
this read within edit distance* ``d`` *of that cluster representative?*
This module answers it with one pair test per ``REPRO_FUSED_KERNELS``
mode, finds the nearest bucket signature of a corrupted one
(:func:`nearest`) and builds the k-mer masks of the clustering prefilter
(:func:`kmer_masks`):

* **fused** (the default, :func:`within_screened`) — a screen first: an
  identical candidate, or an equal-length one within the bound by Hamming
  count, is a certain match, and a length gap beyond the bound rules a
  candidate out.  An undecided candidate loses the prefix and suffix it
  shares with the query, then goes through the bit-parallel
  :func:`repro.sequence.bounded_edit_distance`.  This is pure Python;
  numpy, when importable, only builds the k-mer masks in bulk array
  passes.
* **reference** (``REPRO_FUSED_KERNELS=0``, :func:`within_reference`) —
  the banded :func:`repro.sequence.levenshtein_distance` on the untrimmed
  pair.

Both modes are exact within the bound, so they produce *identical*
clusters; the clustering tests diff the fused mode against the
reference.  Every function that takes a bound raises
:class:`ClusteringError` for a negative one before it compares anything.
"""

from __future__ import annotations

from operator import ne

from repro.exceptions import ClusteringError
from repro.fastpath import fused_kernels_enabled
from repro.sequence import bounded_edit_distance, levenshtein_distance

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None  # The fused kernels stay pure Python; numpy only batches.

#: Rows per chunk of the coded k-mer masks hold about this many bytes of
#: one-byte k-mer flags.
_MASK_CHUNK_BYTES = 1 << 20

#: 2-bit codes of A, C, G and T for the coded k-mer masks; every other
#: byte maps to 4.
_BASE_CODES = bytes(
    b"ACGT".index(byte) if byte in b"ACGT" else 4 for byte in range(256)
)


def require_non_negative(name: str, bound: int) -> None:
    """Reject a negative distance bound: no pair of strings is that close."""
    if bound < 0:
        raise ClusteringError(f"{name} must be non-negative, got {bound}")


def _levenshtein(left: str, right: str, bound: int) -> int:
    """The reference edit distance, capped at ``bound + 1``."""
    return levenshtein_distance(left, right, upper_bound=bound)


def _shared_prefix_length(left: str, right: str) -> int:
    """Length of the longest common prefix, by binary search over slice
    comparisons (which run at C speed)."""
    low, high = 0, min(len(left), len(right))
    while low < high:
        middle = (low + high + 1) // 2
        if left[:middle] == right[:middle]:
            low = middle
        else:
            high = middle - 1
    return low


def _trim_shared(left: str, right: str) -> tuple[str, str]:
    """Both strings without their shared prefix and shared suffix.

    Neither changes an edit distance, and the length gap stays the same.
    """
    start = _shared_prefix_length(left, right)
    left, right = left[start:], right[start:]
    end = _shared_prefix_length(left[::-1], right[::-1])
    return left[: len(left) - end], right[: len(right) - end]


def within_screened(query: str, candidate: str, max_distance: int) -> bool:
    """Whether ``candidate`` is within ``max_distance`` edits of ``query``:
    the fused pair test (screen, then trim and run the kernel)."""
    require_non_negative("max_distance", max_distance)
    gap = len(candidate) - len(query)
    if gap == 0 and (
        candidate == query or sum(map(ne, query, candidate)) <= max_distance
    ):
        return True
    if abs(gap) > max_distance:
        return False
    left, right = _trim_shared(query, candidate)
    return bounded_edit_distance(left, right, max_distance) <= max_distance


def within_reference(query: str, candidate: str, max_distance: int) -> bool:
    """The reference pair test: the banded Levenshtein on the whole pair."""
    require_non_negative("max_distance", max_distance)
    return _levenshtein(query, candidate, max_distance) <= max_distance


def nearest(
    query: str, candidates: list[str], max_distance: int
) -> tuple[int, int] | None:
    """``(index, distance)`` of the closest candidate within the bound.

    The first index wins ties — the contract corrupted-signature routing
    relies on (earliest-created bucket among equally-near ones).  Returns
    ``None`` when no candidate is within the bound.

    For equal-length strings the edit distance is 0 or 1 exactly when the
    Hamming distance is (an edit script without substitutions changes the
    length or costs >= 2), and ``edit <= hamming`` always, so a Hamming
    distance of 2 pins the edit distance to exactly 2 and one of 3 or more
    rules a candidate out below a bound of 2.  Only the other candidates
    pay the edit distance of the ``REPRO_FUSED_KERNELS`` mode, each with an
    ever-shrinking bound: a candidate must beat the best distance so far,
    so the first of equally-near ones wins.
    """
    require_non_negative("max_distance", max_distance)
    edit_distance = bounded_edit_distance if fused_kernels_enabled() else _levenshtein
    best: tuple[int, int] | None = None
    allowed = max_distance
    for index, candidate in enumerate(candidates):
        mismatches = (
            sum(map(ne, query, candidate)) if len(candidate) == len(query) else None
        )
        if mismatches is not None and mismatches <= 2:
            distance = mismatches
        elif mismatches is not None and allowed < 2:
            continue
        else:
            distance = edit_distance(query, candidate, allowed)
        if distance <= allowed:
            best = (index, distance)
            if distance == 0:
                break
            allowed = distance - 1
    return best


def _first_sight_masks(texts: list[str], k: int) -> list[int]:
    """:func:`kmer_masks` with bits assigned in order of first sight."""
    bit_of_kmer: dict[str, int] = {}
    masks: list[int] = []
    for text in texts:
        mask = 0
        for position in range(len(text) - k + 1):
            kmer = text[position : position + k]
            bit = bit_of_kmer.get(kmer)
            if bit is None:
                bit = bit_of_kmer[kmer] = len(bit_of_kmer)
            mask |= 1 << bit
        masks.append(mask)
    return masks


def _coded_masks(texts: list[str], k: int) -> list[int] | None:
    """:func:`kmer_masks` built in numpy; ``None`` without numpy or when a
    text strays outside ACGT (masks must share one numbering).

    Bit c of a mask stands for the k-mer whose 2-bit base codes (A, C, G,
    T = 0..3, first base most significant) spell c, so every mask has
    4**k bits.  Texts of one length form one uint8 code matrix; a sliding
    window turns it into k-mer codes, which set one flag per (row, code)
    and pack into bytes, a chunk of rows at a time.
    """
    if np is None:
        return None
    try:
        blob = "".join(texts).encode("ascii")
    except UnicodeEncodeError:
        return None
    codes = np.frombuffer(blob.translate(_BASE_CODES), dtype=np.uint8)
    if bool((codes > 3).any()):
        return None
    starts: list[int] = []
    by_length: dict[int, list[int]] = {}
    offset = 0
    for index, text in enumerate(texts):
        starts.append(offset)
        offset += len(text)
        if len(text) >= k:
            by_length.setdefault(len(text), []).append(index)
    masks = [0] * len(texts)
    flag_count = 4**k
    chunk_rows = max(1, _MASK_CHUNK_BYTES // flag_count)
    for length, members in by_length.items():
        windows = length - k + 1
        columns = np.arange(length)
        for first in range(0, len(members), chunk_rows):
            chunk = members[first : first + chunk_rows]
            rows = codes[np.array([starts[i] for i in chunk])[:, None] + columns]
            kmers = rows[:, :windows].astype(np.int64)
            for shift in range(1, k):
                kmers = (kmers << 2) | rows[:, shift : shift + windows]
            flags = np.zeros((len(chunk), flag_count), dtype=bool)
            flags[np.arange(len(chunk))[:, None], kmers] = True
            packed = np.packbits(flags, axis=1, bitorder="little")
            row_bytes = packed.shape[1]
            data = packed.tobytes()
            for row, index in enumerate(chunk):
                masks[index] = int.from_bytes(
                    data[row * row_bytes : (row + 1) * row_bytes], "little"
                )
    return masks


def kmer_masks(texts: list[str], k: int) -> list[int]:
    """Each text's distinct k-mers as one bitmask, comparable across the call.

    ``mask.bit_count()`` equals ``len(kmer_set(text, k))`` and
    ``(a & b).bit_count()`` the size of the corresponding set intersection,
    so the clustering prefilter evaluates its Jaccard test with an AND and
    a popcount.  Masks from different calls are not comparable: with numpy
    a bit stands for a k-mer's code, otherwise for its order of first
    sight.
    """
    masks = _coded_masks(texts, k)
    return _first_sight_masks(texts, k) if masks is None else masks


__all__ = [
    "kmer_masks",
    "nearest",
    "require_non_negative",
    "within_reference",
    "within_screened",
]
