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
   itself with the target's address.  A strand with a base outside ACGT
   (a single read's ``N`` no-call survives its consensus) is skipped.
   The fused kernels read every strand's validity, intra index and
   payload in array passes over the consensus matrix
   (:func:`repro.pipeline.consensus.consensus_matrix`); the reference
   (``REPRO_FUSED_KERNELS=0``, or no numpy) parses one
   :meth:`Molecule.from_strand` per strand.  Either way each distinct
   unit index is parsed once per call;
4. search each recovered encoding unit's column maps (missing columns are
   erasures) until Reed-Solomon corrects one: the primary candidates,
   then alternate candidates, then the weakest-evidence columns demoted
   to erasures (the bounded version of the recursive candidate search
   described in Section 8.1).  The search runs in rounds, each one
   batched Reed-Solomon pass over the next map of every unit still
   undecoded; a block's update slots join once its original decoded;
5. de-randomize, parse update patches, and apply them in slot order.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations, islice

from repro.codec.molecule import Molecule, MoleculeLayout
from repro.constants import BASE_TO_BITS
from repro.core.addressing import BlockAddress
from repro.core.partition import Partition
from repro.core.updates import UpdatePatch, apply_patch_chain
from repro.exceptions import DecodingError, PartitionError, UpdateError
from repro.pipeline.clustering import cluster_reads
from repro.pipeline.consensus import consensus_batch, consensus_matrix
from repro.pipeline.reads import reads_with_prefix
from repro.observability.stages import stage

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None  # consensus_matrix is None then, and strands parse one by one.

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


#: A parsed consensus strand: its cluster's position in the cluster list,
#: its unit index, its intra-unit index and its payload.
_StrandFields = tuple[int, str, int, bytes]


def _strand_fields(strands: list[str], layout: MoleculeLayout) -> list[_StrandFields]:
    """The fields of every strand that :meth:`Molecule.from_strand` parses.

    The reference for :func:`_matrix_fields`: one frozen molecule per
    strand.  A strand that does not parse (a base outside ACGT) is left
    out.
    """
    fields = []
    for position, strand in enumerate(strands):
        try:
            molecule = Molecule.from_strand(strand, layout)
        except DecodingError:
            continue
        fields.append(
            (position, molecule.unit_index, molecule.intra_index, molecule.payload)
        )
    return fields


def _matrix_fields(matrix: np.ndarray, layout: MoleculeLayout) -> list[_StrandFields]:
    """:func:`_strand_fields` of the rows of a uint8 consensus matrix.

    Each row holds the ASCII codes of one ``layout.strand_length``-base
    strand.  Array passes over the whole matrix find the rows whose bases
    are all ACGT and read their intra indexes and payloads from the bases'
    two-bit values, as :meth:`Molecule.from_strand` reads them; only the
    unit indexes become strings.
    """
    assert np is not None  # consensus_matrix gives no matrix without numpy
    bits = np.full(256, 4, dtype=np.uint8)
    bits[[ord(base) for base in BASE_TO_BITS]] = list(BASE_TO_BITS.values())
    values = bits[matrix]
    rows = np.flatnonzero((values < 4).all(axis=1))
    values = values[rows]
    count = len(rows)
    index_start = layout.primer_length + layout.sync_bases
    intra_start = index_start + layout.unit_index_bases + layout.update_slot_bases
    payload_start = intra_start + layout.intra_index_bases

    width = intra_start - index_start
    text = matrix[rows, index_start:intra_start].tobytes().decode("ascii")
    unit_indexes = [text[i * width : (i + 1) * width] for i in range(count)]
    intra_indexes = np.zeros(count, dtype=np.int64)
    for column in range(intra_start, payload_start):
        intra_indexes = intra_indexes * 4 + values[:, column]
    size = layout.payload_bytes
    quads = values[:, payload_start : payload_start + layout.payload_bases]
    quads = quads.reshape(count, size, 4)
    blob = (
        (quads[:, :, 0] << 6) | (quads[:, :, 1] << 4) | (quads[:, :, 2] << 2)
        | quads[:, :, 3]
    ).tobytes()
    payloads = [blob[i * size : (i + 1) * size] for i in range(count)]
    return list(zip(rows.tolist(), unit_indexes, intra_indexes.tolist(), payloads))


def _column_maps(
    slot_candidates: dict[int, list[_Candidate]], data_columns: int
) -> Iterator[dict[int, bytes]]:
    """A unit's column maps in the order the candidate search tries them.

    The primary candidates first; then alternates swapped in one column
    at a time, weakest primary cluster first; then the weakest columns
    demoted to erasures, alone, then in pairs among the six weakest.  A
    map never keeps fewer than ``data_columns`` columns, so a unit with
    fewer has no map at all.
    """
    if len(slot_candidates) < data_columns:
        return
    primary = {column: bucket[0].payload for column, bucket in slot_candidates.items()}
    yield primary
    weakest_first = sorted(
        slot_candidates, key=lambda column: slot_candidates[column][0].cluster_size
    )
    for column in weakest_first:
        for alternate in slot_candidates[column][1:]:
            yield {**primary, column: alternate.payload}
    demotions = [(column,) for column in weakest_first]
    demotions += combinations(weakest_first[:6], 2)
    for erased in demotions:
        if len(primary) - len(erased) >= data_columns:
            yield {c: p for c, p in primary.items() if c not in erased}


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
        decode_attempts: column maps tried for the original unit, plus
            those tried for the update slots once the original decoded (1
            means the primary candidates decoded immediately).
        slots_recovered: version slots for which a unit was decoded.
        used_error_correction: True if a decoded unit had a missing column
            (filled in as an erasure), or if a unit's primary candidates
            failed to decode and the candidate search of Section 8.1 went
            on.  Errors that Reed-Solomon corrects in place do not set it.
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
        parsed block address, and each round of the candidate search
        decodes the units of every block in one batched Reed-Solomon
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
            groups = [cluster.reads for cluster in clusters]
            matrix = consensus_matrix(groups, layout.strand_length)
            if matrix is None:
                strands = consensus_batch(groups, layout.strand_length)
        if matrix is None:
            fields = _strand_fields(strands, layout)
        else:
            fields = _matrix_fields(matrix, layout)
        candidates, duplicates = self._attribute(
            [cluster.size for cluster in clusters], fields, targets
        )

        reports: dict[int, DecodeReport] = {}
        with stage("syndrome_solve"):
            decoded, attempts = self._search(candidates)
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
                    self._finish_block(block, slots, decoded, attempts, report)
                reports[block] = report
        return reports

    def _attribute(
        self, sizes: list[int], fields: list[_StrandFields], targets: list[int]
    ) -> tuple[dict[int, dict[int, dict[int, list[_Candidate]]]], dict[int, int]]:
        """Bucket parsed consensus strands by their (block, slot, column) address.

        Each distinct unit index is parsed once per call, in a dict that
        does not outlive it.

        Args:
            sizes: the size of each cluster, in cluster order.
            fields: the parsed strands, in cluster order
                (:func:`_strand_fields` or :func:`_matrix_fields`).
            targets: the blocks being decoded.

        Returns:
            block -> slot -> column -> candidates, in order of first sight,
            and the number of duplicate strands of each target.
        """
        partition = self.partition
        columns = partition.molecules_per_block
        # Version slots are digital metadata: the partition knows exactly
        # how many patches each block has logged.  A narrow precise access
        # can misprime onto a *neighbouring* block's patch strand and
        # overwrite its address prefix with the target's (PCR products
        # carry their primer), parking a perfectly well-formed phantom
        # patch in a slot the target never wrote — bound slots to the
        # logged count so such artifacts can never apply.  Strands of
        # unwritten targets are ignored like those of other blocks, and so
        # are strands whose intra index names no column of a unit (two
        # bases encode 0-15; a unit has fewer columns).
        slot_limits = {
            block: partition.update_count(block)
            for block in targets
            if partition.has_block(block)
        }
        duplicates = dict.fromkeys(targets, 0)
        candidates: dict[int, dict[int, dict[int, list[_Candidate]]]] = {}
        addresses: dict[str, BlockAddress | None] = {}
        for position, unit_index, intra_index, payload in fields:
            if unit_index not in addresses:
                addresses[unit_index] = partition.parse_unit_index(unit_index)
            address = addresses[unit_index]
            if (
                address is None
                or address.block not in slot_limits
                or intra_index >= columns
            ):
                continue
            if address.slot > slot_limits[address.block]:
                duplicates[address.block] += 1
                continue
            bucket = (
                candidates.setdefault(address.block, {})
                .setdefault(address.slot, {})
                .setdefault(intra_index, [])
            )
            if bucket:
                duplicates[address.block] += 1
            if len(bucket) < MAX_CANDIDATES_PER_ADDRESS and all(
                payload != existing.payload for existing in bucket
            ):
                bucket.append(_Candidate(payload, sizes[position]))
        return candidates, duplicates

    def _search(
        self, candidates: dict[int, dict[int, dict[int, list[_Candidate]]]]
    ) -> tuple[dict[tuple[int, int], bytes], Counter]:
        """Run the candidate search of every unit in ``candidates``.

        Round ``r`` decodes, in one :meth:`Partition.decode_units_batch`
        call, the ``r``-th column map (:func:`_column_maps`) of every unit
        not yet decoded.  A unit stops at its first map that decodes, after
        at most :data:`MAX_DECODE_ATTEMPTS_PER_SLOT` maps; one with fewer
        columns than data molecules is never tried.  Originals (slot 0)
        start in round 0, and a block's update slots join the round after
        its original decoded, so no update slot of an undecodable block is
        ever tried.

        Returns:
            The decoded unit bytes and the number of column maps tried,
            both keyed by (block, slot).
        """
        data_columns = self.partition.config.unit_layout.data_molecules

        def search(block: int, slot: int) -> Iterator[dict[int, bytes]]:
            return islice(
                _column_maps(candidates[block][slot], data_columns),
                MAX_DECODE_ATTEMPTS_PER_SLOT,
            )

        pending = {
            (block, 0): search(block, 0)
            for block, slots in candidates.items()
            if 0 in slots
        }
        decoded: dict[tuple[int, int], bytes] = {}
        attempts: Counter = Counter()
        while pending:
            batch = {}
            for key, maps in pending.items():
                column_map = next(maps, None)
                if column_map is not None:
                    batch[key] = column_map
            if not batch:
                break
            results = self.partition.decode_units_batch(list(batch.values()))
            waiting, pending = pending, {}
            for key, data in zip(batch, results):
                attempts[key] += 1
                if data is None:
                    pending[key] = waiting[key]
                    continue
                decoded[key] = data
                block, slot = key
                if slot == 0:
                    pending.update(
                        {(block, s): search(block, s) for s in candidates[block] if s}
                    )
        return decoded, attempts

    def _finish_block(
        self,
        block: int,
        slots: dict[int, dict[int, list[_Candidate]]],
        decoded: dict[tuple[int, int], bytes],
        attempts: Counter,
        report: DecodeReport,
    ) -> None:
        """Assemble a block from its decoded units, applying recovered patches.

        ``decoded`` and ``attempts`` come from :meth:`_search`.
        """
        for slot, columns in slots.items():
            tried = attempts[block, slot]
            report.decode_attempts += tried
            if tried and (
                tried > 1
                or (block, slot) not in decoded
                or len(columns) < self.partition.molecules_per_block
            ):
                report.used_error_correction = True

        original = decoded.get((block, 0))
        if original is None:
            return
        report.slots_recovered = [0]

        patches: list[UpdatePatch] = []
        for slot in sorted(slots):
            raw = decoded.get((block, slot)) if slot else None
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
