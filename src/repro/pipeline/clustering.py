"""Clustering of sequencing reads by originating strand.

Follows the approach of the clustering algorithm the paper uses
(Rashtchian et al.): reads are first binned by a cheap signature so that
the expensive edit-distance comparisons only happen within small candidate
sets, then agglomerated greedily around representatives.

For this architecture the natural signature is the address region of the
read (the unit index plus the intra-unit index), which is error-free for
the large majority of reads; reads whose address region is corrupted are
routed to the nearest existing bucket by edit distance over the short
signature.

Three things keep the hot path fast at trace scale without changing a
single clustering decision:

* corrupted-signature routing consults a **deletion-neighborhood index**
  (the SymSpell construction: two signatures within edit distance ``k``
  share a variant obtained by deleting at most ``k`` characters from
  each), replacing the O(#buckets) linear scan per novel signature;
* every read's k-mer set is computed **once** and reused across
  comparisons;
* a (read, representative) pair that passes the k-mer prefilter goes
  through one pair test: the fused
  :func:`repro.pipeline.distance.within_screened` settles certain
  matches and ruled-out pairs by a screen and sends the rest through a
  bit-parallel edit-distance kernel, while ``REPRO_FUSED_KERNELS=0``
  runs the banded Levenshtein reference
  (:func:`repro.pipeline.distance.within_reference`).

Clustering runs in two phases: :func:`route_reads` routes every read to
a signature bucket (order-dependent — the nearest-bucket search and the
fused route memo both depend on which buckets exist *so far*), then each
bucket agglomerates on its own in one sequential greedy pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.exceptions import ClusteringError
from repro.fastpath import fused_kernels_enabled
from repro.pipeline.distance import (
    kmer_masks,
    nearest,
    require_non_negative,
    within_reference,
    within_screened,
)
from repro.sequence import bounded_edit_distance, kmer_set

_KMER_SIZE = 6

#: The k-mer prefilter: a read is compared with a representative only
#: when the Jaccard index of their distinct k-mers reaches this value.  A
#: pair whose k-mer union is empty passes.
_MIN_KMER_SIMILARITY = 0.35

#: Defaults shared by the clustering entry points (``cluster_reads`` and
#: ``route_reads``).
DEFAULT_MAX_SIGNATURE_ERRORS = 2
DEFAULT_MAX_READ_DISTANCE = 12


@dataclass
class ReadCluster:
    """A cluster of reads presumed to originate from the same strand.

    Attributes:
        signature: the address-region signature the cluster was keyed on.
        reads: the member reads (full read strings).
    """

    signature: str
    reads: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.reads)

    @property
    def size(self) -> int:
        """Number of reads in the cluster."""
        return len(self.reads)

    @property
    def representative(self) -> str:
        """The read used to represent the cluster in comparisons."""
        if not self.reads:
            raise ClusteringError("cluster has no reads")
        return self.reads[0]


def _signature(read: str, signature_start: int, signature_length: int) -> str:
    return read[signature_start : signature_start + signature_length]


def _deletion_variants(text: str, max_deletions: int) -> set[str]:
    """``text`` and every string obtainable by up to ``max_deletions`` deletes."""
    variants = {text}
    frontier = {text}
    for _ in range(min(max_deletions, len(text))):
        next_frontier = set()
        for current in frontier:
            for position in range(len(current)):
                shorter = current[:position] + current[position + 1 :]
                if shorter not in variants:
                    variants.add(shorter)
                    next_frontier.add(shorter)
        frontier = next_frontier
    return variants


class _SignatureIndex:
    """Deletion-neighborhood index over bucket signatures.

    ``candidates(s)`` returns every indexed signature whose edit distance
    to ``s`` *can* be ``<= max_errors`` (the SymSpell guarantee), in bucket
    creation order, so the caller's nearest-bucket search examines a
    handful of keys instead of every bucket.
    """

    def __init__(self, max_errors: int) -> None:
        self.max_errors = max_errors
        self._by_variant: dict[str, list[str]] = {}
        self._creation_order: dict[str, int] = {}

    def add(self, signature: str) -> None:
        if signature in self._creation_order:
            return
        self._creation_order[signature] = len(self._creation_order)
        for variant in _deletion_variants(signature, self.max_errors):
            self._by_variant.setdefault(variant, []).append(signature)

    def candidates(self, signature: str) -> list[str]:
        found: set[str] = set()
        for variant in _deletion_variants(signature, self.max_errors):
            bucket = self._by_variant.get(variant)
            if bucket:
                found.update(bucket)
        return sorted(found, key=self._creation_order.__getitem__)


def route_reads(
    reads: Sequence[str],
    *,
    signature_start: int,
    signature_length: int,
    max_signature_errors: int = DEFAULT_MAX_SIGNATURE_ERRORS,
) -> dict[str, list[int]]:
    """Phase 1 — route each read to a signature bucket.

    Returns bucket signature → member read indices, with keys in bucket
    creation order.  Routing only depends on which buckets exist, never
    on cluster contents, so it is a cheap sequential pass over the
    signature index.

    Corrupted signatures repeat heavily (every read of a skewed strand
    shares the same corruption), so the fused path memoizes each routed
    signature's answer.  A memo entry is revalidated incrementally: a
    distance-1 route is final (distance 0 would have hit the exact
    membership check above it), and a farther route can only be beaten
    by a *strictly closer* bucket created since the entry was written,
    so only the new signatures are scanned, in creation order to keep
    the earliest-bucket tie-break.  ``REPRO_FUSED_KERNELS=0`` routes
    every read through the reference index lookup instead.
    """
    if signature_length <= 0:
        raise ClusteringError("signature_length must be positive")
    require_non_negative("max_signature_errors", max_signature_errors)
    fused = fused_kernels_enabled()
    bucket_reads: dict[str, list[int]] = {}
    index = _SignatureIndex(max_signature_errors)
    created_signatures: list[str] = []
    route_memo: dict[str, tuple[str, int, int]] = {}

    for read_index, read in enumerate(reads):
        if len(read) < signature_start + signature_length:
            continue
        signature = _signature(read, signature_start, signature_length)
        if signature not in bucket_reads:
            # Route to the nearest existing bucket if the signature is a
            # slightly corrupted version of one we have seen (candidates
            # from the deletion index, verified by ``nearest``; ties
            # go to the earliest-created bucket).
            routed: str | None = None
            memo = route_memo.get(signature) if fused else None
            if memo is not None:
                target, distance, version = memo
                if distance > 1:
                    for newer in created_signatures[version:]:
                        closer = bounded_edit_distance(
                            signature, newer, distance - 1
                        )
                        if closer < distance:
                            target, distance = newer, closer
                            if distance <= 1:
                                break
                    route_memo[signature] = (
                        target, distance, len(created_signatures)
                    )
                routed = target
            else:
                candidates = index.candidates(signature)
                found = nearest(signature, candidates, max_signature_errors)
                if found is not None:
                    routed = candidates[found[0]]
                    if fused:
                        route_memo[signature] = (
                            routed, found[1], len(created_signatures)
                        )
            if routed is not None:
                signature = routed
            else:
                bucket_reads[signature] = []
                index.add(signature)
                created_signatures.append(signature)
        bucket_reads[signature].append(read_index)
    return bucket_reads


def _agglomerate(
    reads: Sequence[str],
    bucket_reads: dict[str, list[int]],
    *,
    max_read_distance: int,
) -> dict[str, list[ReadCluster]]:
    """Phase 2 — greedy agglomeration around representatives.

    Each bucket takes its reads in order.  A read joins the first
    representative, in creation order, that passes the k-mer prefilter
    and then the mode's pair test, or else starts a new cluster.

    The prefilter is a Jaccard test over distinct k-mers.  The fused mode
    stores every k-mer set as a bitmask and evaluates it with an AND and a
    popcount; the reference keeps ``kmer_set`` frozensets.  ``kmer_masks``
    builds all of the call's masks at once under one bit numbering (k-mer
    codes with numpy, order of first sight without): popcounts and
    intersection counts do not depend on which bit stands for which
    k-mer, so neither do the clusters.
    """
    fused = fused_kernels_enabled()
    within = within_screened if fused else within_reference
    count = int.bit_count if fused else len
    order = [index for members in bucket_reads.values() for index in members]
    texts = [reads[index] for index in order]
    kmers: list[Any] = (
        kmer_masks(texts, _KMER_SIZE)
        if fused
        else [kmer_set(text, _KMER_SIZE) for text in texts]
    )
    kmers_of = {index: (mine, count(mine)) for index, mine in zip(order, kmers)}

    buckets: dict[str, list[ReadCluster]] = {}
    for key, members in bucket_reads.items():
        clusters: list[ReadCluster] = []
        representatives: list[tuple[str, Any, int]] = []
        for index in members:
            read = reads[index]
            mine, size = kmers_of[index]
            for cluster, (other, theirs, other_size) in zip(
                clusters, representatives
            ):
                shared = count(mine & theirs)
                union = size + other_size - shared
                if (
                    not union or shared / union >= _MIN_KMER_SIMILARITY
                ) and within(read, other, max_read_distance):
                    cluster.reads.append(read)
                    break
            else:
                clusters.append(ReadCluster(signature=key, reads=[read]))
                representatives.append((read, mine, size))
        buckets[key] = clusters
    return buckets


def cluster_reads(
    reads: list[str],
    *,
    signature_start: int,
    signature_length: int,
    max_signature_errors: int = DEFAULT_MAX_SIGNATURE_ERRORS,
    max_read_distance: int = DEFAULT_MAX_READ_DISTANCE,
) -> list[ReadCluster]:
    """Cluster reads into per-strand groups.

    Args:
        reads: the read strings (already primer-filtered if desired).
        signature_start: offset of the address region within a clean read.
        signature_length: length of the address region.
        max_signature_errors: how far (edit distance) a read's signature may
            be from a bucket's signature to be routed into that bucket.
        max_read_distance: maximum edit distance between a read and a
            cluster representative for membership; reads farther than this
            from every representative in their bucket start a new cluster
            (this is what separates misprimed payloads that share the
            target's address from the target's own reads).

    Returns:
        Clusters sorted by decreasing size (the order in which the decoder
        consumes them, per Section 8).

    Raises:
        ClusteringError: for a negative ``max_signature_errors`` or
            ``max_read_distance``, before any comparison runs.
    """
    require_non_negative("max_signature_errors", max_signature_errors)
    require_non_negative("max_read_distance", max_read_distance)
    bucket_reads = route_reads(
        reads,
        signature_start=signature_start,
        signature_length=signature_length,
        max_signature_errors=max_signature_errors,
    )
    buckets = _agglomerate(reads, bucket_reads, max_read_distance=max_read_distance)
    clusters = [cluster for bucket in buckets.values() for cluster in bucket]
    clusters.sort(key=lambda cluster: cluster.size, reverse=True)
    return clusters
