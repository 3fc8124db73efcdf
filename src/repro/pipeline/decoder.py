"""End-to-end block decoding from sequencing reads (Section 8).

The :class:`BlockDecoder` binds a :class:`repro.core.partition.Partition`
(which knows the primers, index tree, randomizer and ECC geometry) to the
read-processing pipeline (primer filtering, clustering, trace
reconstruction) and reproduces the decoding procedure of Section 8,
including the handling of misprimed strands of Section 8.1:

1. keep reads carrying the expected (elongated) prefix;
2. cluster them and reconstruct cluster consensi, largest clusters first;
3. collect candidate strands per (slot, column) address — the first
   (largest-cluster) candidate is preferred, but further candidates are kept
   because a misprimed strand can present itself with the target's address;
4. decode each encoding unit with Reed-Solomon (missing columns are
   erasures); if decoding fails, retry with alternate candidates and by
   demoting the weakest-evidence columns to erasures (the bounded version of
   the recursive candidate search described in Section 8.1);
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
from repro.pipeline.clustering import ReadCluster, cluster_reads
from repro.pipeline.consensus import consensus_batch
from repro.pipeline.reads import reads_with_prefix
from repro.observability.stages import stage


@dataclass
class _Candidate:
    """One candidate payload for a (slot, column) address."""

    payload: bytes
    cluster_size: int


@dataclass
class ReadoutPlan:
    """The prefix-filtered input of one readout decode.

    Produced by :meth:`BlockDecoder.readout_plan`; downstream stages
    (clustering, consensus, candidate collection, solving) consume the
    plan instead of re-deriving targets and filtered reads.
    """

    targets: list[int]
    reads_total: int
    on_prefix: list[str]


@dataclass
class ReadoutCandidates:
    """Per-block candidate strands collected from a readout's clusters.

    ``batch_units`` holds the primary-candidate column maps of every
    (block, slot) unit with enough columns to attempt a batched
    Reed-Solomon decode; ``by_block_slot`` keeps the full candidate lists
    for the per-slot fallback search of Section 8.1.
    """

    clusters_total: int
    duplicates: dict[int, int]
    by_block_slot: dict[int, dict[int, dict[int, list[_Candidate]]]]
    batch_units: dict[tuple[int, int], dict[int, bytes]]


def try_decode_units_batch(
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
        results = try_decode_units_batch(partition, units, keys[:middle])
        results.update(try_decode_units_batch(partition, units, keys[middle:]))
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
        clusters_used: clusters consumed (in size order).
        strands_recovered: distinct (slot, column) addresses with at least
            one candidate strand.
        duplicate_strands_discarded: reconstructed strands kept only as
            secondary candidates because their address was already covered
            (mispriming, Section 8.1).
        decode_attempts: unit-decode attempts across all slots (1 means the
            primary candidates decoded immediately).
        slots_recovered: version slots for which a unit was decoded.
        used_error_correction: True if any Reed-Solomon correction, erasure
            fill-in or candidate substitution was required.
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
    """Decodes blocks of one partition from raw sequencing reads."""

    def __init__(
        self,
        partition: Partition,
        *,
        max_prefix_errors: int = 3,
        max_read_distance: int = 12,
        max_candidates_per_address: int = 3,
        max_decode_attempts_per_slot: int = 48,
        distance_backend=None,
    ) -> None:
        self.partition = partition
        self.max_prefix_errors = max_prefix_errors
        self.max_read_distance = max_read_distance
        self.max_candidates_per_address = max_candidates_per_address
        self.max_decode_attempts_per_slot = max_decode_attempts_per_slot
        #: Distance backend used by the clustering pass (``"python"``,
        #: ``"numpy"``, ``None`` for auto); both produce identical clusters.
        self.distance_backend = distance_backend

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @property
    def _layout(self):
        return self.partition.config.molecule_layout

    def _signature_window(self) -> tuple[int, int]:
        """Offset and length of the address region within a clean strand."""
        layout = self._layout
        start = layout.primer_length + layout.sync_bases
        length = (
            layout.unit_index_bases + layout.update_slot_bases + layout.intra_index_bases
        )
        return start, length

    def consensus_strands(self, clusters: list[ReadCluster]) -> list[str]:
        """Reconstruct every cluster's consensus strand in one batched call."""
        with stage("consensus"):
            return consensus_batch(
                [cluster.reads for cluster in clusters], self._layout.strand_length
            )

    def parse_strands(self, strands: list[str]) -> list[Molecule | None]:
        """Parse consensus strands into molecules (None for malformed ones)."""
        molecules: list[Molecule | None] = []
        for strand in strands:
            try:
                molecules.append(Molecule.from_strand(strand, self._layout))
            except DecodingError:
                molecules.append(None)
        return molecules

    def _reconstruct_all(self, clusters: list[ReadCluster]) -> list[Molecule | None]:
        """Consensus + parse of every cluster, consensi in one batched call."""
        return self.parse_strands(self.consensus_strands(clusters))

    # ------------------------------------------------------------------
    # Candidate collection
    # ------------------------------------------------------------------
    def _collect_candidates(
        self, clusters: list[ReadCluster], block: int, report: DecodeReport
    ) -> dict[tuple[int, int], list[_Candidate]]:
        candidates: dict[tuple[int, int], list[_Candidate]] = {}
        # Version slots are digital metadata: the partition knows exactly
        # how many patches each block has logged.  A narrow precise access
        # can misprime onto a *neighbouring* block's patch strand and
        # overwrite its address prefix with the target's (PCR products
        # carry their primer), parking a perfectly well-formed phantom
        # patch in a slot the target never wrote — bound slots to the
        # logged count so such artifacts can never apply.
        max_slot = self.partition.update_count(block)
        molecules = self._reconstruct_all(clusters)
        for cluster, molecule in zip(clusters, molecules):
            report.clusters_used += 1
            if molecule is None:
                continue
            address = self.partition.parse_unit_index(molecule.unit_index)
            if address is None or address.block != block:
                continue
            if address.slot > max_slot:
                report.duplicate_strands_discarded += 1
                continue
            key = (address.slot, molecule.intra_index)
            bucket = candidates.setdefault(key, [])
            if bucket:
                report.duplicate_strands_discarded += 1
            if len(bucket) < self.max_candidates_per_address:
                if all(molecule.payload != existing.payload for existing in bucket):
                    bucket.append(
                        _Candidate(payload=molecule.payload, cluster_size=cluster.size)
                    )
        report.strands_recovered = len(candidates)
        return candidates

    # ------------------------------------------------------------------
    # Unit decoding with the bounded candidate search of Section 8.1
    # ------------------------------------------------------------------
    def _try_decode_unit(self, columns: dict[int, bytes]) -> bytes | None:
        try:
            return self.partition.decode_unit(columns)
        except (ReedSolomonError, DecodingError):
            return None

    def _decode_primaries_batched(
        self, by_slot: dict[int, dict[int, list[_Candidate]]]
    ) -> dict[int, bytes]:
        """Decode every slot's primary candidates in one backend pass.

        The common case — enough clean strands per slot — needs no
        candidate substitution, so all units of the block (original plus
        update slots) go through one batched Reed-Solomon decode.  Failed
        slots are absent from the result and fall back to the bounded
        per-slot search.
        """
        data_columns = self.partition.config.unit_layout.data_molecules
        primaries = {
            slot: {
                column: candidates[0].payload
                for column, candidates in by_slot[slot].items()
            }
            for slot in sorted(by_slot)
            if len(by_slot[slot]) >= data_columns
        }
        return try_decode_units_batch(self.partition, primaries)

    def _finish_block(
        self,
        by_slot: dict[int, dict[int, list[_Candidate]]],
        prebatched: dict[int, bytes],
        report: DecodeReport,
    ) -> DecodeReport:
        """Assemble a block from decoded units, applying recovered patches.

        ``prebatched`` holds units already decoded by the batched path;
        slots missing from it go through the per-slot candidate search of
        Section 8.1.
        """

        def decoded_slot(slot: int) -> bytes | None:
            data = prebatched.get(slot)
            if data is not None:
                report.decode_attempts += 1
                if len(by_slot[slot]) < self.partition.molecules_per_block:
                    report.used_error_correction = True
                return data
            return self._decode_slot(by_slot[slot], report)

        original = decoded_slot(0) if 0 in by_slot else None
        if original is None:
            return report
        report.slots_recovered = [0]

        patches: list[UpdatePatch] = []
        for slot in sorted(by_slot):
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
        return report

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
            if attempts >= self.max_decode_attempts_per_slot:
                return None
            attempts += 1
            report.decode_attempts += 1
            return self._try_decode_unit(columns)

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

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def decode_block(self, reads: list[str], block: int) -> DecodeReport:
        """Decode one block (and its updates) from sequencing reads.

        Args:
            reads: read strings, e.g. from a precise-PCR sequencing run.
            block: the target block number.

        Returns:
            A :class:`DecodeReport`; ``report.data`` holds the block's
            current contents (original data with all recovered updates
            applied) when ``report.success`` is True.
        """
        report = DecodeReport(block=block, reads_total=len(reads))
        target_prefix = self.partition.primer_for_block(block).sequence
        on_prefix = reads_with_prefix(
            reads, target_prefix, max_errors=self.max_prefix_errors
        )
        report.reads_on_prefix = len(on_prefix)
        if not on_prefix:
            return report

        signature_start, signature_length = self._signature_window()
        with stage("cluster"):
            clusters = cluster_reads(
                on_prefix,
                signature_start=signature_start,
                signature_length=signature_length,
                max_read_distance=self.max_read_distance,
                distance_backend=self.distance_backend,
            )
        report.clusters_total = len(clusters)

        candidates = self._collect_candidates(clusters, block, report)
        by_slot: dict[int, dict[int, list[_Candidate]]] = {}
        for (slot, column), column_candidates in candidates.items():
            by_slot.setdefault(slot, {})[column] = column_candidates
        if 0 not in by_slot:
            return report

        with stage("syndrome_solve"):
            prebatched = self._decode_primaries_batched(by_slot)
            return self._finish_block(by_slot, prebatched, report)

    def decode_partition(self, reads: list[str]) -> dict[int, DecodeReport]:
        """Decode every written block of the partition from a full readout.

        Intended for whole-partition retrievals (the baseline random access
        of Figure 9a): the reads are filtered per block by prefix and each
        block is decoded independently.  For the batched alternative that
        clusters the readout once, see :meth:`decode_readout`.
        """
        reports: dict[int, DecodeReport] = {}
        for block in self.partition.written_blocks():
            reports[block] = self.decode_block(reads, block)
        return reports

    # ------------------------------------------------------------------
    # Readout decode, decomposed by stage (``decode_readout`` composes
    # these pieces).
    # ------------------------------------------------------------------
    def readout_plan(
        self, reads: list[str], blocks: list[int] | None = None
    ) -> ReadoutPlan:
        """Resolve targets and prefix-filter the readout's reads."""
        targets = self.partition.written_blocks() if blocks is None else list(blocks)
        main_prefix = self.partition.config.primers.forward
        on_prefix = reads_with_prefix(
            reads, main_prefix, max_errors=self.max_prefix_errors
        )
        return ReadoutPlan(
            targets=targets, reads_total=len(reads), on_prefix=on_prefix
        )

    def cluster_readout(self, plan: ReadoutPlan) -> list[ReadCluster]:
        """Cluster the plan's on-prefix reads (one shared pass per readout)."""
        signature_start, signature_length = self._signature_window()
        with stage("cluster"):
            return cluster_reads(
                plan.on_prefix,
                signature_start=signature_start,
                signature_length=signature_length,
                max_read_distance=self.max_read_distance,
                distance_backend=self.distance_backend,
            )

    def collect_readout(
        self,
        plan: ReadoutPlan,
        clusters: list[ReadCluster],
        strands: list[str],
    ) -> ReadoutCandidates:
        """Attribute consensus strands to blocks and build the solve batch.

        Strands are attributed by their parsed unit index (mispriming
        keeps extra candidates, Section 8.1); the primary candidates of
        every (block, slot) unit with enough columns become one entry of
        the batched Reed-Solomon solve.
        """
        target_set = set(plan.targets)
        molecules = self.parse_strands(strands)
        per_block: dict[int, dict[tuple[int, int], list[_Candidate]]] = {}
        duplicates: dict[int, int] = {}
        for cluster, molecule in zip(clusters, molecules):
            if molecule is None:
                continue
            address = self.partition.parse_unit_index(molecule.unit_index)
            if address is None or address.block not in target_set:
                continue
            if address.slot > self.partition.update_count(address.block):
                # Phantom version slot: a misprimed product of a
                # neighbouring block's patch strand whose prefix the
                # precise primer overwrote.  Slot counts are digital
                # metadata, so slots the block never logged cannot apply.
                duplicates[address.block] = duplicates.get(address.block, 0) + 1
                continue
            key = (address.slot, molecule.intra_index)
            bucket = per_block.setdefault(address.block, {}).setdefault(key, [])
            if bucket:
                duplicates[address.block] = duplicates.get(address.block, 0) + 1
            if len(bucket) < self.max_candidates_per_address:
                if all(molecule.payload != existing.payload for existing in bucket):
                    bucket.append(
                        _Candidate(payload=molecule.payload, cluster_size=cluster.size)
                    )

        data_columns = self.partition.config.unit_layout.data_molecules
        by_block_slot: dict[int, dict[int, dict[int, list[_Candidate]]]] = {}
        batch_units: dict[tuple[int, int], dict[int, bytes]] = {}
        for block, candidates in per_block.items():
            by_slot: dict[int, dict[int, list[_Candidate]]] = {}
            for (slot, column), column_candidates in candidates.items():
                by_slot.setdefault(slot, {})[column] = column_candidates
            by_block_slot[block] = by_slot
            for slot, columns in by_slot.items():
                if len(columns) >= data_columns:
                    batch_units[(block, slot)] = {
                        column: column_candidates[0].payload
                        for column, column_candidates in columns.items()
                    }
        return ReadoutCandidates(
            clusters_total=len(clusters),
            duplicates=duplicates,
            by_block_slot=by_block_slot,
            batch_units=batch_units,
        )

    def finish_readout(
        self,
        plan: ReadoutPlan,
        collected: ReadoutCandidates,
        decoded_units: dict,
    ) -> dict[int, DecodeReport]:
        """Assemble per-block reports from the batch-solved units.

        Units missing from ``decoded_units`` go through the per-slot
        candidate search of Section 8.1 (inside :meth:`_finish_block`).
        """
        reports: dict[int, DecodeReport] = {}
        for block in plan.targets:
            report = DecodeReport(
                block=block,
                reads_total=plan.reads_total,
                reads_on_prefix=len(plan.on_prefix),
                clusters_total=collected.clusters_total,
                clusters_used=collected.clusters_total,
                duplicate_strands_discarded=collected.duplicates.get(block, 0),
            )
            by_slot = collected.by_block_slot.get(block)
            if by_slot:
                report.strands_recovered = sum(
                    len(columns) for columns in by_slot.values()
                )
                prebatched = {
                    slot: data
                    for (decoded_block, slot), data in decoded_units.items()
                    if decoded_block == block
                }
                self._finish_block(by_slot, prebatched, report)
            reports[block] = report
        return reports

    def decode_readout(
        self,
        reads: list[str],
        blocks: list[int] | None = None,
    ) -> dict[int, DecodeReport]:
        """Decode many blocks from one readout with a single clustering pass.

        Unlike :meth:`decode_partition` (which re-filters and re-clusters
        the readout for every block), this batched path clusters the reads
        once against the partition's main primer, attributes each
        reconstructed strand to its parsed block address, and then decodes
        every recovered encoding unit — all blocks, all update slots — in
        one batched Reed-Solomon pass, falling back to the per-slot
        candidate search only for units the batch could not correct.

        Args:
            reads: read strings of a whole-partition (or multi-block
                range) retrieval.
            blocks: block numbers to decode; defaults to every written
                block of the partition.

        Returns:
            One :class:`DecodeReport` per requested block.  Cluster counts
            in the reports refer to the shared clustering pass.
        """
        plan = self.readout_plan(reads, blocks)
        clusters = self.cluster_readout(plan)
        strands = self.consensus_strands(clusters)
        collected = self.collect_readout(plan, clusters, strands)
        with stage("syndrome_solve"):
            decoded_units = try_decode_units_batch(
                self.partition, collected.batch_units
            )
            return self.finish_readout(plan, collected, decoded_units)
