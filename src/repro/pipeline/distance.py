"""Edit-distance backends for the clustering hot path.

Clustering spends almost all of its time answering one question: *which is
the first cluster representative within edit distance* ``d`` *of this
read?*  This module provides that primitive behind a small backend
interface, mirroring :mod:`repro.codec.backend`:

* :class:`PythonDistanceBackend` — banded early-exit Levenshtein
  (:func:`repro.sequence.levenshtein_distance`), one comparison at a time,
  stopping at the first match.  No dependencies; the fallback everywhere.
* :class:`NumpyDistanceBackend` — screens each query's candidates first:
  an identical candidate, or an equal-length one within the bound by
  Hamming count, is a certain match, and a length gap beyond the bound
  rules a candidate out.  Each undecided candidate in front of a query's
  first certain match is stripped of the prefix and suffix it shares with
  the query, then goes through the bit-parallel kernel
  :func:`repro.sequence.bounded_edit_distance`.  It also builds the k-mer
  masks of the clustering prefilter in bulk array passes.

Both backends are exact within the bound, so they produce *identical*
clusters — ``tests/test_distance_backends.py`` asserts it, with the
python backend as the unchanged reference.  An explicit name selects
a backend; ``None`` or ``"auto"`` picks numpy when it is importable.
"""

from __future__ import annotations

from operator import ne

from repro.exceptions import ClusteringError
from repro.fastpath import fused_kernels_enabled
from repro.sequence import bounded_edit_distance, levenshtein_distance

_instances: dict[str, "DistanceBackend"] = {}


def require_non_negative(name: str, bound: int) -> None:
    """Reject a negative distance bound: no pair of strings is that close."""
    if bound < 0:
        raise ClusteringError(f"{name} must be non-negative, got {bound}")


class DistanceBackend:
    """Interface of a clustering distance backend.

    Every method that takes a bound raises :class:`ClusteringError` for a
    negative one before it compares anything.
    """

    name = "base"

    def first_within(
        self, query: str, candidates: list[str], max_distance: int
    ) -> int | None:
        """Index of the first candidate within ``max_distance`` of ``query``."""
        raise NotImplementedError

    def first_within_batch(
        self,
        queries: list[str],
        candidate_lists: list[list[str]],
        max_distance: int,
    ) -> list[int | None]:
        """:meth:`first_within` for many (query, candidates) items at once.

        The batch form is what lets a backend amortize per-call work; the
        default simply loops.
        """
        require_non_negative("max_distance", max_distance)
        return [
            self.first_within(query, candidates, max_distance)
            for query, candidates in zip(queries, candidate_lists)
        ]

    def nearest(
        self, query: str, candidates: list[str], max_distance: int
    ) -> tuple[int, int] | None:
        """``(index, distance)`` of the closest candidate within the bound.

        The first index wins ties — the contract corrupted-signature
        routing relies on (earliest-created bucket among equally-near
        ones).  Returns ``None`` when no candidate is within the bound.
        """
        raise NotImplementedError

    def kmer_masks(self, texts: list[str], k: int) -> list[int]:
        """Each text's distinct k-mers as one bitmask, comparable across
        the call.

        ``mask.bit_count()`` equals ``len(kmer_set(text, k))`` and
        ``(a & b).bit_count()`` the size of the corresponding set
        intersection, so the clustering prefilter evaluates its Jaccard
        test with an AND and a popcount.  How k-mers map to bits is up to
        the backend; masks from different calls are not comparable.  Here
        bits are assigned in order of first sight.
        """
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


def _bounded_distance(query: str, candidate: str, allowed: int) -> int:
    """Bounded edit distance with a Hamming fast path for equal lengths.

    For equal-length strings the edit distance is 0 or 1 exactly when the
    Hamming distance is (an edit script without substitutions changes the
    length or costs >= 2), and ``edit <= hamming`` always — so a Hamming
    distance of 2 pins the edit distance to exactly 2.  Signatures are
    fixed-width slices, which makes this the common case and skips the DP
    entirely for it.
    """
    if len(query) == len(candidate):
        mismatches = 0
        for a, b in zip(query, candidate):
            if a != b:
                mismatches += 1
                if mismatches > 2:
                    break
        if mismatches <= 2:
            return mismatches
        if allowed < 2:
            return allowed + 1
    return levenshtein_distance(query, candidate, upper_bound=allowed)


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


def _nearest_scalar(
    query: str, candidates: list[str], max_distance: int
) -> tuple[int, int] | None:
    """Shared scalar nearest-candidate search with bound tightening.

    Each comparison only needs to beat the best distance so far, so the
    banded Levenshtein runs with an ever-shrinking bound; the first
    strictly-better candidate wins, which preserves first-index-wins-ties.
    """
    best: tuple[int, int] | None = None
    allowed = max_distance
    for index, candidate in enumerate(candidates):
        distance = _bounded_distance(query, candidate, allowed)
        if distance <= allowed:
            best = (index, distance)
            if distance == 0:
                break
            allowed = distance - 1
    return best


class PythonDistanceBackend(DistanceBackend):
    """Sequential banded Levenshtein with per-query early exit."""

    name = "python"

    def first_within(
        self, query: str, candidates: list[str], max_distance: int
    ) -> int | None:
        require_non_negative("max_distance", max_distance)
        for index, candidate in enumerate(candidates):
            distance = levenshtein_distance(
                query, candidate, upper_bound=max_distance
            )
            if distance <= max_distance:
                return index
        return None

    def nearest(
        self, query: str, candidates: list[str], max_distance: int
    ) -> tuple[int, int] | None:
        require_non_negative("max_distance", max_distance)
        return _nearest_scalar(query, candidates, max_distance)


class NumpyDistanceBackend(DistanceBackend):
    """A screen and the bit-parallel kernel per comparison; bulk k-mer
    masks and Hamming columns in numpy."""

    name = "numpy"

    #: :meth:`nearest` scans fewer candidates than this with the scalar
    #: search, whose per-call cost is below the array setup's; both are
    #: exact, so the cutoff is purely a performance knob.
    _MIN_BATCH = 8

    #: Rows per chunk of :meth:`kmer_masks` hold about this many bytes of
    #: one-byte k-mer flags.
    _MASK_CHUNK_BYTES = 1 << 20

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        # 2-bit base codes for the k-mer masks; anything else maps to 4.
        self._base_codes = numpy.full(256, 4, dtype=numpy.uint8)
        for code, base in enumerate(b"ACGT"):
            self._base_codes[base] = code

    def first_within(
        self, query: str, candidates: list[str], max_distance: int
    ) -> int | None:
        return self.first_within_batch([query], [candidates], max_distance)[0]

    def nearest(
        self, query: str, candidates: list[str], max_distance: int
    ) -> tuple[int, int] | None:
        # Signatures are fixed-width slices, so the candidate set is one
        # uint8 matrix and the Hamming distances of every candidate come
        # out of a single array pass.  For equal-length strings the edit
        # distance is pinned to the Hamming distance below 2 (see
        # _bounded_distance), so only Hamming >= 3 candidates — shifted
        # windows, i.e. indels — still need the banded DP.
        # ``_nearest_scalar`` is the earliest-argmin of the exact bounded
        # distances, which is exactly what this computes.
        require_non_negative("max_distance", max_distance)
        count = len(candidates)
        if count < self._MIN_BATCH or not fused_kernels_enabled():
            return _nearest_scalar(query, candidates, max_distance)
        np = self._np
        width = len(query)
        if width == 0 or any(len(candidate) != width for candidate in candidates):
            return _nearest_scalar(query, candidates, max_distance)
        try:
            blob = "".join(candidates).encode("ascii")
            encoded_query = query.encode("ascii")
        except UnicodeEncodeError:
            return _nearest_scalar(query, candidates, max_distance)
        if len(blob) != count * width:
            return _nearest_scalar(query, candidates, max_distance)
        matrix = np.frombuffer(blob, dtype=np.uint8).reshape(count, width)
        hamming = (matrix != np.frombuffer(encoded_query, dtype=np.uint8)).sum(axis=1)
        nearest_index = int(hamming.argmin())  # argmin returns the first minimum
        lowest = int(hamming[nearest_index])
        if lowest <= 1:
            # No other candidate can be closer: equal lengths mean edit
            # distance 0 or 1 exactly when Hamming is, and any Hamming >= 2
            # candidate sits at edit distance >= 2.
            if lowest > max_distance:
                return None
            return (nearest_index, lowest)
        if max_distance < 2:
            return None
        # Remaining case: every candidate is at edit distance >= 2.  Run
        # the scalar tightening scan with the Hamming column precomputed;
        # only Hamming >= 3 candidates seen while the bound is still >= 2
        # pay a banded DP, exactly as _bounded_distance would.
        hamming_list = hamming.tolist()
        best: tuple[int, int] | None = None
        allowed = max_distance
        for index, mismatches in enumerate(hamming_list):
            if mismatches <= 2:
                distance = mismatches
            elif allowed < 2:
                continue
            else:
                distance = levenshtein_distance(
                    query, candidates[index], upper_bound=allowed
                )
            if distance <= allowed:
                best = (index, distance)
                allowed = distance - 1
        return best

    def first_within_batch(
        self,
        queries: list[str],
        candidate_lists: list[list[str]],
        max_distance: int,
    ) -> list[int | None]:
        # Screen each query's candidates in order.  An identical candidate,
        # or an equal-length one within the bound by Hamming count (edit
        # distance never exceeds it), is a certain match and ends the scan;
        # a length gap beyond the bound rules a candidate out.  Any other
        # candidate loses the prefix and suffix it shares with the query
        # and goes through the bit-parallel kernel, or through the banded
        # reference under REPRO_FUSED_KERNELS=0; the first one within the
        # bound ends the scan.
        require_non_negative("max_distance", max_distance)
        fused = fused_kernels_enabled()
        results: list[int | None] = []
        for query, candidates in zip(queries, candidate_lists):
            length = len(query)
            match: int | None = None
            for index, candidate in enumerate(candidates):
                gap = len(candidate) - length
                if gap == 0 and (
                    candidate == query
                    or sum(map(ne, query, candidate)) <= max_distance
                ):
                    match = index
                    break
                if abs(gap) > max_distance:
                    continue
                left, right = _trim_shared(query, candidate)
                if fused:
                    distance = bounded_edit_distance(left, right, max_distance)
                else:
                    distance = levenshtein_distance(
                        left, right, upper_bound=max_distance
                    )
                if distance <= max_distance:
                    match = index
                    break
            results.append(match)
        return results

    def kmer_masks(self, texts: list[str], k: int) -> list[int]:
        # Bit c of a mask stands for the k-mer whose 2-bit base codes
        # (A, C, G, T = 0..3, first base most significant) spell c, so
        # every mask has 4**k bits.  Texts of one length form one uint8
        # code matrix; a sliding window turns it into k-mer codes, which
        # set one flag per (row, code) and pack into bytes, a chunk of
        # rows at a time.  A text outside ACGT sends the whole call to the
        # first-sight numbering, since masks must share one numbering.
        np = self._np
        try:
            blob = "".join(texts).encode("ascii")
        except UnicodeEncodeError:
            return super().kmer_masks(texts, k)
        codes = self._base_codes[np.frombuffer(blob, dtype=np.uint8)]
        if bool((codes > 3).any()):
            return super().kmer_masks(texts, k)
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
        chunk_rows = max(1, self._MASK_CHUNK_BYTES // flag_count)
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


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def available_distance_backends() -> list[str]:
    """Names of the distance backends usable in this environment."""
    names = ["python"]
    if _numpy_available():
        names.append("numpy")
    return names


def get_distance_backend(
    name: str | DistanceBackend | None = None,
) -> DistanceBackend:
    """Resolve a distance backend by name (or pass an instance through).

    Args:
        name: ``"numpy"``, ``"python"``, ``"auto"``/None (numpy when
            importable), or an existing backend instance.

    Raises:
        ClusteringError: for unknown names, or when the numpy backend is
            requested explicitly but numpy is not installed.
    """
    if isinstance(name, DistanceBackend):
        return name
    requested = (name or "auto").strip().lower()
    if requested == "auto":
        requested = "numpy" if _numpy_available() else "python"
    cached = _instances.get(requested)
    if cached is not None:
        return cached
    if requested == "python":
        backend: DistanceBackend = PythonDistanceBackend()
    elif requested == "numpy":
        if not _numpy_available():
            raise ClusteringError(
                "the numpy distance backend was requested but numpy is not installed"
            )
        backend = NumpyDistanceBackend()
    else:
        raise ClusteringError(
            f"unknown distance backend {requested!r}; expected one of "
            f"{['auto', 'python', 'numpy']}"
        )
    _instances[requested] = backend
    return backend


__all__ = [
    "DistanceBackend",
    "NumpyDistanceBackend",
    "PythonDistanceBackend",
    "available_distance_backends",
    "get_distance_backend",
]
