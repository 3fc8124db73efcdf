"""Read pre-processing: primer location, prefix filtering, region extraction.

The first step of the decoding procedure (Section 8) is to search each read
for the elongated forward primer and the reverse primer and keep only the
region between them.  Reads are noisy, so primers are located by banded
approximate matching rather than exact string search.
"""

from __future__ import annotations

from operator import ne

from repro.exceptions import DecodingError
from repro.sequence import bounded_edit_distance


def find_primer_end(
    read: str,
    primer: str,
    *,
    max_errors: int = 3,
    search_window: int = 4,
) -> int | None:
    """Locate a primer near the start of a read and return its end offset.

    The primer is expected at the very beginning of the read (possibly
    shifted by a few inserted/deleted bases).  Candidate windows starting at
    offsets ``0..search_window`` and of lengths ``len(primer) +/- slack``
    are compared by edit distance; the end offset of the best window within
    ``max_errors`` is returned, or ``None`` if no window qualifies.
    """
    if not primer:
        raise DecodingError("primer must be non-empty")
    # Fast path: the overwhelming majority of reads carry the primer intact
    # at offset zero.
    if read.startswith(primer):
        return len(primer)
    best_end: int | None = None
    best_distance = max_errors + 1
    for start in range(0, search_window + 1):
        for slack in (0, -1, 1, -2, 2):
            end = start + len(primer) + slack
            if end <= start or end > len(read):
                continue
            window = read[start:end]
            distance = bounded_edit_distance(window, primer, max_errors)
            if distance < best_distance:
                best_distance = distance
                best_end = end
                if best_distance == 0:
                    return best_end
    if best_distance > max_errors:
        return None
    return best_end


def has_prefix(read: str, prefix: str, *, max_errors: int = 3) -> bool:
    """True if the read begins with ``prefix`` up to ``max_errors`` edits."""
    window = read[: len(prefix)]
    if len(window) == len(prefix):
        # Cheap Hamming screen: most reads carry the prefix intact or with a
        # couple of substitutions, so a mismatch count within the budget
        # accepts immediately without any edit-distance computation.
        if sum(map(ne, window, prefix)) <= max_errors:
            return True
    # One banded edit-distance comparison over a slightly extended window
    # handles insertions/deletions anywhere in the prefix region.
    extended = read[: len(prefix) + max_errors]
    return (
        bounded_edit_distance(extended[: len(prefix)], prefix, max_errors) <= max_errors
        or bounded_edit_distance(extended, prefix, max_errors) <= max_errors
    )


def reads_with_prefix(
    reads: list[str], prefix: str, *, max_errors: int = 3
) -> list[str]:
    """Filter reads to those that begin with the expected prefix.

    This is the step that discards the ~18% of reads amplified by leftover
    main primers in the paper's precise-access experiment (they do not
    carry the elongated prefix).
    """
    return [read for read in reads if has_prefix(read, prefix, max_errors=max_errors)]


def extract_region(
    read: str,
    forward_primer: str,
    reverse_primer: str,
    *,
    max_errors: int = 3,
) -> str | None:
    """Extract the region between the forward and reverse primers of a read.

    Returns ``None`` when either primer cannot be located.  The reverse
    primer is searched near the end of the read (its expected location).
    """
    forward_end = find_primer_end(read, forward_primer, max_errors=max_errors)
    if forward_end is None:
        return None
    # Search for the reverse primer near the read's tail by mirroring the
    # forward search on the reversed strings.
    reversed_end = find_primer_end(
        read[::-1], reverse_primer[::-1], max_errors=max_errors
    )
    if reversed_end is None:
        return None
    reverse_start = len(read) - reversed_end
    if reverse_start < forward_end:
        return None
    return read[forward_end:reverse_start]
