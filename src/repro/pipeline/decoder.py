"""End-to-end block decoding from sequencing reads (Section 8).

The :class:`BlockDecoder` binds a :class:`repro.core.partition.Partition`
(which knows the primers, index tree, randomizer and ECC geometry) to the
read-processing pipeline (primer filtering, clustering, trace
reconstruction) and reproduces the decoding procedure of Section 8,
including the handling of misprimed strands of Section 8.1.  A precise
access of one block and a readout of many blocks go through the same
pass, which differs only in the prefix the reads are filtered by:

1. keep reads carrying the prefix (a block's elongated primer, or the
   partition's main forward primer for a readout);
2. cluster them and reconstruct cluster consensi, largest clusters first;
3. attribute each consensus strand to its parsed (block, slot, column)
   address — the first (largest-cluster) candidate is preferred, but
   further candidates are kept because a misprimed strand can present
   itself with the target's address;
4. decode every recovered encoding unit in one batched Reed-Solomon pass
   (missing columns are erasures); a unit the batch cannot correct is
   retried with alternate candidates and by demoting the weakest-evidence
   columns to erasures (the bounded version of the recursive candidate
   search described in Section 8.1);
5. de-randomize, parse update patches, and apply them in slot order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from repro.codec.molecule import Molecule
from repro.core.partition import Partition
from repro.core.updates import UpdatePatch, apply_patch_chain
from repro.exceptions import (
    DecodingError,
    PartitionError,
    ReedSolomonError,
    UpdateError,
)
from repro.pipeline.clustering import cluster_reads
from repro.pipeline.consensus import consensus_batch
from repro.pipeline.reads import reads_with_prefix
from repro.observability.stages import stage

#: Largest edit distance of a read's prefix from the filtering primer.
MAX_PREFIX_ERRORS = 3
#: Largest edit distance between a read and its cluster's representative.
MAX_READ_DISTANCE = 12
#: Distinct candidate payloads kept per (block, slot, column) address.
MAX_CANDIDATES_PER_ADDRESS = 3
#: Unit-decode attempts the candidate search may spend on one slot.
MAX_DECODE_ATTEMPTS_PER_SLOT = 48


@dataclass
class _Candidate:
    """One candidate payload for a (slot, column) address."""

    payload: bytes
    cluster_size: int


def _try_decode_units_batch(
    partition: Partition, units: dict, keys: list | None = None
) -> dict:
    """Batch-decode keyed unit column maps, bisecting around failures.

    All units go through one :meth:`Partition.decode_units_batch` call;
    if any unit is uncorrectable the batch is split in half so healthy
    units still decode in bulk and only failures drop out (they are
    retried later by the per-slot candidate search).
    """
    keys = list(units) if keys is None else keys
    if not keys:
        return {}
    try:
        decoded = partition.decode_units_batch([units[k] for k in keys])
        return dict(zip(keys, decoded))
    except (ReedSolomonError, DecodingError):
        if len(keys) == 1:
            return {}
        middle = len(keys) // 2
        results = _try_decode_units_batch(partition, units, keys[:middle])
        results.update(_try_decode_units_batch(partition, units, keys[middle:]))
        return results


@dataclass
class DecodeReport:
    """Everything the decoder learned while decoding one block.

    Attributes:
        block: the target block number.
        data: the decoded, update-applied block contents (None on failure).
        success: whether decoding produced data.
        reads_total: reads given to the decoder.
        reads_on_prefix: reads that carried the expected prefix.
        clusters_total: clusters formed from the on-prefix reads.
        clusters_used: clusters consumed; the decoder reads every cluster,
            so this always equals ``clusters_total``.
        strands_recovered: distinct (slot, column) addresses of the block
            with at least one candidate strand.
        duplicate_strands_discarded: reconstructed strands kept only as
            secondary candidates because their address was already covered
            (mispriming, Section 8.1).
        decode_attempts: unit-decode attempts across all slots (1 means the
            primary candidates decoded immediately).
        slots_recovered: version slots for which a unit was decoded.
        used_error_correction: True if a decoded unit had a missing column
            (filled in as an erasure), or if a unit's primary candidates
            failed to decode and the per-slot candidate search of Section
            8.1 ran.  Errors that Reed-Solomon corrects in place do not set
            it.
    """

    block: int
    data: bytes | None = None
    success: bool = False
    reads_total: int = 0
    reads_on_prefix: int = 0
    clusters_total: int = 0
    clusters_used: int = 0
    strands_recovered: int = 0
    duplicate_strands_discarded: int = 0
    decode_attempts: int = 0
    slots_recovered: list[int] = field(default_factory=list)
    used_error_correction: bool = False


class BlockDecoder:
    """Decodes blocks of one partition from raw sequencing reads.

    Args:
        partition: the partition whose strands the reads come from.
    """

    def __init__(self, partition: Partition) -> None:
        self.partition = partition

    def _signature_window(self) -> tuple[int, int]:
        """Offset and length of the address region within a clean strand."""
        layout = self.partition.config.molecule_layout
        start = layout.primer_length + layout.sync_bases
        length = (
            layout.unit_index_bases + layout.update_slot_bases + layout.intra_index_bases
        )
        return start, length

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def decode_block(self, reads: list[str], block: int) -> DecodeReport:
        """Decode one block (and its updates) from a precise access's reads.

        The reads are filtered by the block's elongated primer, so a
        precise PCR's off-target products mostly drop out before
        clustering.  A block that was never written decodes to a failed
        report.

        Args:
            reads: read strings, e.g. from a precise-PCR sequencing run.
            block: the target block number.

        Returns:
            A :class:`DecodeReport`; ``report.data`` holds the block's
            current contents (original data with all recovered updates
            applied) when ``report.success`` is True.

        Raises:
            AddressError: if ``block`` is outside the partition.
        """
        prefix = self.partition.primer_for_block(block).sequence
        return self._decode(reads, prefix, [block])[block]

    def decode_readout(
        self,
        reads: list[str],
        blocks: list[int] | None = None,
    ) -> dict[int, DecodeReport]:
        """Decode many blocks from one readout with a single clustering pass.

        The reads are filtered by the partition's main forward primer and
        clustered once; each reconstructed strand is attributed to its
        parsed block address, and every recovered encoding unit — all
        blocks, all update slots — goes through one batched Reed-Solomon
        pass.

        Args:
            reads: read strings of a whole-partition (or multi-block
                range) retrieval.
            blocks: block numbers to decode; defaults to every written
                block of the partition.  Unwritten blocks get failed
                reports.

        Returns:
            One :class:`DecodeReport` per requested block, in request
            order.  Read and cluster counts refer to the shared pass.
        """
        targets = self.partition.written_blocks() if blocks is None else list(blocks)
        return self._decode(reads, self.partition.config.primers.forward, targets)

    # ------------------------------------------------------------------
    # The decode pass
    # ------------------------------------------------------------------
    def _decode(
        self, reads: list[str], prefix: str, targets: list[int]
    ) -> dict[int, DecodeReport]:
        """Filter by ``prefix``, cluster, attribute and solve ``targets``."""
        partition = self.partition
        layout = partition.config.molecule_layout
        on_prefix = reads_with_prefix(reads, prefix, max_errors=MAX_PREFIX_ERRORS)
        signature_start, signature_length = self._signature_window()
        with stage("cluster"):
            clusters = cluster_reads(
                on_prefix,
                signature_start=signature_start,
                signature_length=signature_length,
                max_read_distance=MAX_READ_DISTANCE,
            )
        with stage("consensus"):
            strands = consensus_batch(
                [cluster.reads for cluster in clusters], layout.strand_length
            )

        # Version slots are digital metadata: the partition knows exactly
        # how many patches each block has logged.  A narrow precise access
        # can misprime onto a *neighbouring* block's patch strand and
        # overwrite its address prefix with the target's (PCR products
        # carry their primer), parking a perfectly well-formed phantom
        # patch in a slot the target never wrote — bound slots to the
        # logged count so such artifacts can never apply.  Strands of
        # unwritten targets are ignored like those of other blocks.
        slot_limits = {
            block: partition.update_count(block)
            for block in targets
            if partition.has_block(block)
        }
        duplicates = dict.fromkeys(targets, 0)
        # block -> slot -> column -> candidates, in order of first sight.
        candidates: dict[int, dict[int, dict[int, list[_Candidate]]]] = {}
        for cluster, strand in zip(clusters, strands):
            try:
                molecule = Molecule.from_strand(strand, layout)
            except DecodingError:
                continue
            address = partition.parse_unit_index(molecule.unit_index)
            if address is None or address.block not in slot_limits:
                continue
            if address.slot > slot_limits[address.block]:
                duplicates[address.block] += 1
                continue
            bucket = (
                candidates.setdefault(address.block, {})
                .setdefault(address.slot, {})
                .setdefault(molecule.intra_index, [])
            )
            if bucket:
                duplicates[address.block] += 1
            if len(bucket) < MAX_CANDIDATES_PER_ADDRESS and all(
                molecule.payload != existing.payload for existing in bucket
            ):
                bucket.append(_Candidate(molecule.payload, cluster.size))

        data_columns = partition.config.unit_layout.data_molecules
        primaries = {
            (block, slot): {column: bucket[0].payload for column, bucket in columns.items()}
            for block, slots in candidates.items()
            for slot, columns in slots.items()
            if len(columns) >= data_columns
        }
        reports: dict[int, DecodeReport] = {}
        with stage("syndrome_solve"):
            decoded = _try_decode_units_batch(partition, primaries)
            for block in targets:
                report = DecodeReport(
                    block=block,
                    reads_total=len(reads),
                    reads_on_prefix=len(on_prefix),
                    clusters_total=len(clusters),
                    clusters_used=len(clusters),
                    duplicate_strands_discarded=duplicates[block],
                )
                slots = candidates.get(block)
                if slots:
                    report.strands_recovered = sum(
                        len(columns) for columns in slots.values()
                    )
                    self._finish_block(block, slots, decoded, report)
                reports[block] = report
        return reports

    def _finish_block(
        self,
        block: int,
        slots: dict[int, dict[int, list[_Candidate]]],
        decoded: dict[tuple[int, int], bytes],
        report: DecodeReport,
    ) -> None:
        """Assemble a block from its decoded units, applying recovered patches.

        ``decoded`` holds the units the batched solve corrected, keyed by
        (block, slot); slots missing from it go through the per-slot
        candidate search of Section 8.1.
        """

        def decoded_slot(slot: int) -> bytes | None:
            data = decoded.get((block, slot))
            if data is not None:
                report.decode_attempts += 1
                if len(slots[slot]) < self.partition.molecules_per_block:
                    report.used_error_correction = True
                return data
            return self._decode_slot(slots[slot], report)

        original = decoded_slot(0) if 0 in slots else None
        if original is None:
            return
        report.slots_recovered = [0]

        patches: list[UpdatePatch] = []
        for slot in sorted(slots):
            if slot == 0:
                continue
            raw = decoded_slot(slot)
            if raw is None:
                continue
            try:
                patches.append(UpdatePatch.from_framed_bytes(raw))
            except UpdateError:
                continue
            report.slots_recovered.append(slot)

        try:
            report.data = apply_patch_chain(original, patches)
        except (UpdateError, PartitionError):
            report.data = original
        report.success = True

    def _decode_slot(
        self,
        slot_candidates: dict[int, list[_Candidate]],
        report: DecodeReport,
    ) -> bytes | None:
        """Decode one encoding unit from its per-column candidate lists."""
        data_columns = self.partition.config.unit_layout.data_molecules
        if len(slot_candidates) < data_columns:
            return None
        attempts = 0

        def attempt(columns: dict[int, bytes]) -> bytes | None:
            nonlocal attempts
            if attempts >= MAX_DECODE_ATTEMPTS_PER_SLOT:
                return None
            attempts += 1
            report.decode_attempts += 1
            try:
                return self.partition.decode_unit(columns)
            except (ReedSolomonError, DecodingError):
                return None

        primary = {
            column: candidates[0].payload
            for column, candidates in slot_candidates.items()
        }
        decoded = attempt(primary)
        if decoded is not None:
            if len(primary) < self.partition.molecules_per_block:
                report.used_error_correction = True
            return decoded
        report.used_error_correction = True

        # Swap in alternate candidates, one column at a time, starting with
        # the columns whose primary evidence (cluster size) is weakest.
        weakest_first = sorted(
            slot_candidates, key=lambda column: slot_candidates[column][0].cluster_size
        )
        for column in weakest_first:
            for alternate in slot_candidates[column][1:]:
                swapped = dict(primary)
                swapped[column] = alternate.payload
                decoded = attempt(swapped)
                if decoded is not None:
                    return decoded

        # Demote the weakest columns to erasures (alone, then in pairs).
        erasable = [
            column
            for column in weakest_first
            if len(primary) - 1 >= data_columns
        ]
        for column in erasable:
            reduced = {c: p for c, p in primary.items() if c != column}
            if len(reduced) < data_columns:
                continue
            decoded = attempt(reduced)
            if decoded is not None:
                return decoded
        for pair in combinations(erasable[:6], 2):
            reduced = {c: p for c, p in primary.items() if c not in pair}
            if len(reduced) < data_columns:
                continue
            decoded = attempt(reduced)
            if decoded is not None:
                return decoded
        return None
