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
* every read's k-mer set and every representative's k-mer set are
  computed **once** and reused across comparisons;
* representative comparisons are funneled through a
  :class:`repro.pipeline.distance.DistanceBackend` in cross-bucket
  batches: the numpy backend screens out certain matches and ruled-out
  candidates and sends the rest through a bit-parallel edit-distance
  kernel, while the pure-Python backend keeps its per-pair banded
  reference.

Clustering runs in two phases: :func:`route_reads` routes every read to
a signature bucket (order-dependent — the nearest-bucket search and the
fused route memo both depend on which buckets exist *so far*), then each
bucket agglomerates on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.exceptions import ClusteringError
from repro.fastpath import fused_kernels_enabled
from repro.pipeline.distance import (
    DistanceBackend,
    get_distance_backend,
    require_non_negative,
)
from repro.sequence import bounded_edit_distance, kmer_set

#: Bounds of the per-bucket round chunk (reads whose representative
#: comparisons are batched into one backend call).  Only reads of the
#: *same* bucket are order-dependent, and a cluster born inside a round is
#: handled by the post-batch fix-up, so chunking only trades batch size
#: against wasted comparisons — it never changes the resulting clusters.
#: The chunk adapts per bucket: stable buckets (reads keep joining
#: existing clusters) grow toward the maximum, buckets that keep spawning
#: clusters shrink so new representatives enter the batched snapshot
#: quickly instead of burning sequential fix-up comparisons.
_CHUNK_START = 8
_CHUNK_MIN = 4
_CHUNK_MAX = 64

_KMER_SIZE = 6

#: Defaults shared by the clustering entry points (``cluster_reads`` and
#: ``route_reads``).
DEFAULT_MAX_SIGNATURE_ERRORS = 2
DEFAULT_MAX_READ_DISTANCE = 12
DEFAULT_MIN_KMER_SIMILARITY = 0.35


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
    distance_backend: str | DistanceBackend | None = None,
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
    backend = get_distance_backend(distance_backend)
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
            # from the deletion index, verified through the backend; ties
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
                found = backend.nearest(
                    signature, candidates, max_signature_errors
                )
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
    min_kmer_similarity: float,
    backend: DistanceBackend,
) -> dict[str, list[ReadCluster]]:
    """Phase 2 — greedy agglomeration around representatives.

    Buckets are independent and each bucket contributes a chunk of
    consecutive reads per round, so all (read, representative)
    comparisons of a round go through one batched backend call.  Clusters
    born *inside* a round only affect later reads of the same bucket's
    chunk; those few extra comparisons run in the fix-up below (one
    :meth:`DistanceBackend.first_within` call per unplaced read), which
    keeps the result bit-identical to a fully sequential pass.

    The k-mer prefilter has two byte-identical implementations: the
    reference walks an inverted index (k-mer → positions of the
    representatives containing it) per bucket; the fused path stores
    every k-mer set as a bitmask and evaluates the same Jaccard test with
    a word-parallel AND+popcount per representative, which is an order
    of magnitude cheaper than set intersections.  The backend builds all
    of the call's masks at once (:meth:`DistanceBackend.kmer_masks`) under
    one bit numbering of its choosing: popcounts and intersection counts
    do not depend on which bit stands for which k-mer, so neither do the
    clusters.
    """
    fused = fused_kernels_enabled()
    order = [index for members in bucket_reads.values() for index in members]
    read_kmers: dict[int, frozenset[str]] = {}
    read_masks: dict[int, int] = {}
    if fused:
        masks = backend.kmer_masks([reads[index] for index in order], _KMER_SIZE)
        read_masks = dict(zip(order, masks))
    else:
        read_kmers = {index: kmer_set(reads[index], _KMER_SIZE) for index in order}

    buckets: dict[str, list[ReadCluster]] = {key: [] for key in bucket_reads}
    rep_kmer_sizes: dict[str, list[int]] = {key: [] for key in buckets}
    rep_kmer_sets: dict[str, list[frozenset[str]]] = {key: [] for key in buckets}
    rep_masks: dict[str, list[int]] = {key: [] for key in buckets}
    rep_kmer_index: dict[str, dict[str, list[int]]] = {}
    empty_kmer_reps: dict[str, list[int]] = {key: [] for key in buckets}
    cursors = {key: 0 for key in buckets}
    chunk_sizes = {key: _CHUNK_START for key in buckets}
    pending = list(buckets)

    def start_cluster(key: str, read_index: int) -> None:
        position = len(buckets[key])
        buckets[key].append(ReadCluster(signature=key, reads=[reads[read_index]]))
        if fused:
            mask = read_masks[read_index]
            size = mask.bit_count()
            rep_masks[key].append(mask)
        else:
            kmers = read_kmers[read_index]
            size = len(kmers)
            rep_kmer_sets[key].append(kmers)
            index_for_key = rep_kmer_index.get(key)
            if index_for_key is not None:
                for kmer in kmers:
                    index_for_key.setdefault(kmer, []).append(position)
        rep_kmer_sizes[key].append(size)
        if not size:
            empty_kmer_reps[key].append(position)

    def kmer_index_for(key: str) -> dict[str, list[int]]:
        """The bucket's inverted k-mer index, built on first demand."""
        index_for_key = rep_kmer_index.get(key)
        if index_for_key is None:
            index_for_key = {}
            for position, kmers in enumerate(rep_kmer_sets[key]):
                for kmer in kmers:
                    index_for_key.setdefault(kmer, []).append(position)
            rep_kmer_index[key] = index_for_key
        return index_for_key

    def passing_positions(key: str, read_index: int, lo: int, hi: int) -> list[int]:
        """Representative positions in ``[lo, hi)`` passing the k-mer
        prefilter, ascending — exactly the Jaccard test."""
        if min_kmer_similarity <= 0.0:
            return list(range(lo, hi))
        sizes = rep_kmer_sizes[key]
        if fused:
            mine_mask = read_masks[read_index]
            mine_size = mine_mask.bit_count()
            if not mine_size:
                # An empty k-mer set matches only other empty sets
                # (Jaccard 1).
                if 1.0 >= min_kmer_similarity:
                    return [p for p in empty_kmer_reps[key] if lo <= p < hi]
                return []
            masks = rep_masks[key]
            return [
                position
                for position in range(lo, hi)
                if (shared := (mine_mask & masks[position]).bit_count())
                and shared / (mine_size + sizes[position] - shared)
                >= min_kmer_similarity
            ]
        mine = read_kmers[read_index]
        if not mine:
            if 1.0 >= min_kmer_similarity:
                return [p for p in empty_kmer_reps[key] if lo <= p < hi]
            return []
        mine_size = len(mine)
        counts: dict[int, int] = {}
        index_for_key = kmer_index_for(key)
        for kmer in mine:
            for position in index_for_key.get(kmer, ()):
                counts[position] = counts.get(position, 0) + 1
        passing = [
            position
            for position, shared in counts.items()
            if lo <= position < hi
            and shared / (mine_size + sizes[position] - shared)
            >= min_kmer_similarity
        ]
        passing.sort()
        return passing

    # Seed every bucket with its first read's cluster — that is exactly
    # what the greedy pass would do (an empty bucket has no representative
    # to match), and it guarantees the first batched round already has a
    # representative to compare against instead of falling back to the
    # sequential fix-up for a whole chunk.
    for key, members in bucket_reads.items():
        if members:
            start_cluster(key, members[0])
            cursors[key] = 1
    pending = [key for key in pending if cursors[key] < len(bucket_reads[key])]

    while pending:
        queries: list[str] = []
        candidate_lists: list[list[str]] = []
        metadata: list[tuple[str, int, list[int], int]] = []
        still_pending: list[str] = []
        for key in pending:
            members = bucket_reads[key]
            cursor = cursors[key]
            chunk = members[cursor : cursor + chunk_sizes[key]]
            cursors[key] = cursor + len(chunk)
            if cursors[key] < len(members):
                still_pending.append(key)
            clusters = buckets[key]
            snapshot = len(clusters)
            for read_index in chunk:
                passing = passing_positions(key, read_index, 0, snapshot)
                queries.append(reads[read_index])
                candidate_lists.append(
                    [clusters[position].representative for position in passing]
                )
                metadata.append((key, read_index, passing, snapshot))
        matches = backend.first_within_batch(
            queries, candidate_lists, max_read_distance
        )
        grew: dict[str, bool] = {}
        for (key, read_index, passing, snapshot), match in zip(metadata, matches):
            clusters = buckets[key]
            if match is not None:
                clusters[passing[match]].reads.append(reads[read_index])
                continue
            # No pre-round representative matched; try clusters created by
            # earlier reads of this same round before starting a new one.
            late = passing_positions(key, read_index, snapshot, len(clusters))
            found = backend.first_within(
                reads[read_index],
                [clusters[position].representative for position in late],
                max_read_distance,
            )
            if found is not None:
                clusters[late[found]].reads.append(reads[read_index])
            else:
                start_cluster(key, read_index)
                grew[key] = True
        for key in pending:  # every pending bucket took a chunk this round
            if grew.get(key):
                chunk_sizes[key] = max(_CHUNK_MIN, chunk_sizes[key] // 2)
            else:
                chunk_sizes[key] = min(_CHUNK_MAX, chunk_sizes[key] * 2)
        pending = still_pending

    return buckets


def cluster_reads(
    reads: list[str],
    *,
    signature_start: int,
    signature_length: int,
    max_signature_errors: int = DEFAULT_MAX_SIGNATURE_ERRORS,
    max_read_distance: int = DEFAULT_MAX_READ_DISTANCE,
    min_kmer_similarity: float = DEFAULT_MIN_KMER_SIMILARITY,
    distance_backend: str | DistanceBackend | None = None,
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
        min_kmer_similarity: cheap k-mer prefilter threshold applied before
            computing edit distance against a representative.
        distance_backend: ``"python"``, ``"numpy"``, ``"auto"``/None (numpy
            when importable) or a backend instance.  Both backends produce
            identical clusters.

    Returns:
        Clusters sorted by decreasing size (the order in which the decoder
        consumes them, per Section 8).

    Raises:
        ClusteringError: for a negative ``max_signature_errors`` or
            ``max_read_distance``, before any comparison runs.
    """
    require_non_negative("max_signature_errors", max_signature_errors)
    require_non_negative("max_read_distance", max_read_distance)
    backend = get_distance_backend(distance_backend)
    bucket_reads = route_reads(
        reads,
        signature_start=signature_start,
        signature_length=signature_length,
        max_signature_errors=max_signature_errors,
        distance_backend=backend,
    )
    buckets = _agglomerate(
        reads,
        bucket_reads,
        max_read_distance=max_read_distance,
        min_kmer_similarity=min_kmer_similarity,
        backend=backend,
    )
    clusters = [cluster for bucket in buckets.values() for cluster in bucket]
    clusters.sort(key=lambda cluster: cluster.size, reverse=True)
    return clusters
