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
  rules a candidate out.  Only the undecided candidates in front of a
  query's first certain match go through a vectorized banded Levenshtein:
  each pair is stripped of its shared prefix and suffix, then the rows of
  all pairs advance together as ``(pairs, 2k+1)`` array operations.

Both backends are exact within the bound, so they produce *identical*
clusters — ``tests/test_distance_backends.py`` asserts it, with the
python backend as the unchanged reference.  Resolution
order matches the codec engine: explicit name, then the
``REPRO_DISTANCE_BACKEND`` environment variable, then autodetection.
"""

from __future__ import annotations

from operator import ne

from repro import envflags

from repro.exceptions import ClusteringError
from repro.fastpath import fused_kernels_enabled
from repro.sequence import levenshtein_distance

_ENV_VARIABLE = "REPRO_DISTANCE_BACKEND"

_instances: dict[str, "DistanceBackend"] = {}


class DistanceBackend:
    """Interface of a clustering distance backend."""

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

        The batch form is what lets a vectorized backend amortize work; the
        default simply loops.
        """
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
        return _nearest_scalar(query, candidates, max_distance)


class NumpyDistanceBackend(DistanceBackend):
    """Vectorized banded Levenshtein over whole comparison batches."""

    name = "numpy"

    _BIG = 1 << 20  # sentinel for out-of-band cells; survives +/- band width

    #: Below this many comparisons the per-call array setup costs more than
    #: the scalar banded loop saves; both paths are exact, so the cutover
    #: is purely a performance knob.
    _MIN_BATCH = 8

    def __init__(self) -> None:
        import numpy

        self._np = numpy

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
        # windows, i.e. indels — still need the banded DP, and those all
        # go through one batch_distances call.  ``_nearest_scalar`` is the
        # earliest-argmin of the exact bounded distances, which is exactly
        # what this computes.
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
        # a length gap beyond the bound rules a candidate out.  Only the
        # undecided candidates in front of the first certain match need a
        # distance, and the earliest of them within the bound wins.  Fewer
        # than _MIN_BATCH of them go through the scalar kernel, with the
        # same trimming and a per-query early exit.
        if max_distance < 0:
            raise ClusteringError("bound must be non-negative")
        pairs: list[tuple[str, str]] = []
        screened: list[tuple[int | None, list[int]]] = []
        for query, candidates in zip(queries, candidate_lists):
            length = len(query)
            certain: int | None = None
            undecided: list[int] = []
            for index, candidate in enumerate(candidates):
                gap = len(candidate) - length
                if gap == 0:
                    if candidate == query or sum(map(ne, query, candidate)) <= max_distance:
                        certain = index
                        break
                elif abs(gap) > max_distance:
                    continue
                undecided.append(index)
                pairs.append((query, candidate))
            screened.append((certain, undecided))
        batched = len(pairs) >= self._MIN_BATCH
        distances = self.batch_distances(pairs, max_distance) if batched else []
        results: list[int | None] = []
        offset = 0
        for certain, undecided in screened:
            match = certain
            for position, index in enumerate(undecided, start=offset):
                if batched:
                    distance = distances[position]
                else:
                    distance = levenshtein_distance(
                        *_trim_shared(*pairs[position]), upper_bound=max_distance
                    )
                if distance <= max_distance:
                    match = index
                    break
            offset += len(undecided)
            results.append(match)
        return results

    def batch_distances(
        self, pairs: list[tuple[str, str]], bound: int
    ) -> list[int]:
        """Bounded edit distance of every pair, in one banded array DP.

        Returns the exact distance when it is ``<= bound`` and any value
        ``> bound`` otherwise (callers only compare against the bound).
        Each pair is stripped of its shared prefix and suffix first, so the
        DP runs only over the bases between the first and last difference.
        """
        np = self._np
        if bound < 0:
            raise ClusteringError("bound must be non-negative")
        count = len(pairs)
        out = np.full(count, bound + 1, dtype=np.int32)
        # Trivial rows never enter the DP: equal pairs, empty sides (which
        # mirror the scalar function's full-length shortcut) and pairs whose
        # length gap already exceeds the bound.
        active: list[int] = []
        work: list[tuple[str, str]] = []
        for index, (a, b) in enumerate(pairs):
            if a == b:
                out[index] = 0
                continue
            a, b = _trim_shared(a, b)
            if not a or not b:
                out[index] = min(len(a) + len(b), bound + 1)
            elif abs(len(a) - len(b)) > bound:
                out[index] = bound + 1
            else:
                active.append(index)
                work.append((a, b))
        if not active:
            return out.tolist()

        a_lens = np.array([len(a) for a, _ in work], dtype=np.int32)
        b_lens = np.array([len(b) for _, b in work], dtype=np.int32)
        max_a = int(a_lens.max())
        max_b = int(b_lens.max())
        rows = len(active)
        width = 2 * bound + 1
        big = self._BIG

        # Character matrices: ASCII strings (the DNA alphabet case) pack as
        # uint8 via frombuffer; anything wider falls back to uint32 code
        # points so the numpy backend accepts exactly the inputs the
        # python backend does.  Sentinels are outside either range.
        try:
            encoded = [(a.encode("ascii"), b.encode("ascii")) for a, b in work]
        except UnicodeEncodeError:
            encoded = None
        if encoded is not None:
            dtype, sentinel = np.uint8, 0xFF
        else:
            dtype, sentinel = np.uint32, 0x110000  # beyond any code point
        left = np.zeros((rows, max_a), dtype=dtype)
        # The right strings are padded with sentinel columns so the band
        # window of every row (it shifts with the left index, which can run
        # up to `bound` past the longest right string) slices in-range.
        padded_width = max(max_b, max_a + bound) + bound + 1
        right = np.full((rows, padded_width), sentinel, dtype=dtype)
        for row, (a, b) in enumerate(work):
            if encoded is not None:
                left[row, : len(a)] = np.frombuffer(encoded[row][0], dtype=np.uint8)
                right[row, bound : bound + len(b)] = np.frombuffer(
                    encoded[row][1], dtype=np.uint8
                )
            else:
                left[row, : len(a)] = np.fromiter(map(ord, a), np.uint32, len(a))
                right[row, bound : bound + len(b)] = np.fromiter(
                    map(ord, b), np.uint32, len(b)
                )

        offsets = np.arange(width, dtype=np.int32)
        pending = np.full(rows, bound + 1, dtype=np.int32)
        done = np.zeros(rows, dtype=bool)
        # Band row 0: cell t holds D[0][j] with j = t - bound.
        band = np.where(
            offsets >= bound, offsets - bound, np.int32(big)
        ).astype(np.int32)
        band = np.tile(band, (rows, 1))
        for i in range(1, max_a + 1):
            # j = i - bound + t; cost[t] compares left[i-1] to right[j-1].
            window = right[:, i - 1 : i - 1 + width]
            cost = (left[:, i - 1 : i] != window).astype(np.int32)
            diagonal = band + cost
            above = np.concatenate(
                [band[:, 1:], np.full((rows, 1), big, dtype=np.int32)], axis=1
            )
            current = np.minimum(diagonal, above + 1)
            if i <= bound:
                current[:, bound - i] = i  # column j = 0
            # Mask cells whose column leaves [0, len(b)].
            columns = i - bound + offsets
            invalid = (columns[None, :] < 0) | (columns[None, :] > b_lens[:, None])
            current[invalid] = big
            # Insertions: a prefix-min scan along the band (j increases
            # with t), D[i][j] = min over t' <= t of pre[t'] + (t - t').
            shifted = current - offsets
            np.minimum.accumulate(shifted, axis=1, out=shifted)
            current = np.minimum(current, shifted + offsets)
            current[invalid] = big
            # Pairs whose left string ends at this row are finished; their
            # distance sits at t = len(b) - len(a) + bound.
            finishing = (a_lens == i) & ~done
            if finishing.any():
                where = np.nonzero(finishing)[0]
                pending[where] = current[where, b_lens[where] - i + bound]
                done[where] = True
                current[where] = big
            band = current
            if bool(done.all()) or int(band.min()) > bound:
                break
        out[np.array(active, dtype=np.int64)] = np.minimum(pending, bound + 1)
        return out.tolist()


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
        name: ``"numpy"``, ``"python"``, ``"auto"``/None (environment
            variable then autodetection), or an existing backend instance.

    Raises:
        ClusteringError: for unknown names, or when the numpy backend is
            requested explicitly but numpy is not installed.
    """
    if isinstance(name, DistanceBackend):
        return name
    requested = name or envflags.read(_ENV_VARIABLE)
    requested = requested.strip().lower()
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
