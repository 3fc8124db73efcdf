"""The storage partition: a blocked address space behind one primer pair.

A partition is the paper's replacement for the "object" of prior DNA
storage systems: the pair of main primers defines the partition, and its
internal address space is organised as fixed-size blocks by the
PCR-navigable index tree.  The partition object is the digital front-end's
view of that address space.  It owns:

* the index tree and its seed (Section 4.4),
* the data randomizer and its seed,
* the block table (user data lengths, update chains),
* the encoding machinery that turns block contents into DNA molecules and
  back (via :mod:`repro.codec`),
* the construction of elongated primers for precise and sequential reads.

The wetlab channel (synthesis, PCR, sequencing) is simulated separately in
:mod:`repro.wetlab`; the partition only produces the molecules to be
synthesized and interprets recovered strands.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.codec.matrix_unit import EncodingUnit, UnitLayout
from repro.codec.molecule import Molecule, MoleculeLayout
from repro.codec.randomizer import Randomizer
from repro.constants import DEFAULT_LEAF_COUNT
from repro.core.addressing import AddressCodec, BlockAddress
from repro.core.elongation import (
    ElongatedPrimer,
    build_cover_primers,
    build_elongated_primer,
)
from repro.core.index_tree import IndexTree
from repro.core.prefix_cover import PrefixCover, prefix_cover_for_range
from repro.core.updates import ReplacementPatch, UpdatePatch, apply_patch_chain
from repro.exceptions import AddressError, CapacityError, PartitionError, UpdateError
from repro.primers.library import PrimerPair

#: Range plans a partition memoises; when full, the oldest is dropped.
_RANGE_PLAN_LIMIT = 1024


@dataclass(frozen=True)
class PartitionConfig:
    """Static configuration of a partition.

    Attributes:
        primers: the partition's main primer pair.
        leaf_count: number of block addresses provided by the index tree.
        tree_seed: seed of the PCR-navigable index tree (partition metadata).
        randomizer_seed: seed of the payload whitening randomizer.
        slots_per_block: version slots per block (1 original + updates).
        unit_layout: geometry of one encoding unit (matrix).
        molecule_layout: geometry of one DNA strand.
        sparse_index: set to ``False`` to fall back to the dense baseline
            addressing of prior work (used by ablations).
    """

    primers: PrimerPair
    leaf_count: int = DEFAULT_LEAF_COUNT
    tree_seed: int = 1
    randomizer_seed: int = 2
    slots_per_block: int = 4
    unit_layout: UnitLayout = field(default_factory=UnitLayout)
    molecule_layout: MoleculeLayout = field(default_factory=MoleculeLayout)
    sparse_index: bool = True


@dataclass
class _BlockRecord:
    """Internal bookkeeping for one written block."""

    data: bytes
    patches: list[UpdatePatch | ReplacementPatch] = field(default_factory=list)


class Partition:
    """A blocked, independently-managed DNA storage partition.

    >>> from repro.primers.library import PrimerPair
    >>> pair = PrimerPair("ACGTACGTACGTACGTACGT", "TGCATGCATGCATGCATGCA")
    >>> partition = Partition(PartitionConfig(primers=pair, leaf_count=64))
    >>> blocks = partition.write(b"x" * 1000)
    >>> partition.block_count
    4
    """

    def __init__(self, config: PartitionConfig) -> None:
        self.tree = IndexTree(
            leaf_count=config.leaf_count,
            seed=config.tree_seed,
            sparse=config.sparse_index,
        )
        # The molecule layout must reserve exactly as many index bases as the
        # tree produces; when the provided layout does not match (e.g. a
        # smaller partition with the default 1024-leaf layout), adapt it so
        # strands stay as short as possible.
        layout = config.molecule_layout
        if self.tree.address_length != layout.unit_index_bases:
            layout = replace(layout, unit_index_bases=self.tree.address_length)
            config = replace(config, molecule_layout=layout)
        self.config = config
        self.address_codec = AddressCodec(
            self.tree,
            slot_bases=config.molecule_layout.update_slot_bases,
            slots_per_block=config.slots_per_block,
        )
        self.randomizer = Randomizer(config.randomizer_seed)
        self._unit_codec = EncodingUnit(layout=config.unit_layout)
        self._blocks: dict[int, _BlockRecord] = {}
        # (start, end) -> (cover, primers).  The tree and the forward primer
        # never change after this point, so a stored plan equals a fresh one.
        self._range_plans: dict[
            tuple[int, int], tuple[PrefixCover, tuple[ElongatedPrimer, ...]]
        ] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def block_size(self) -> int:
        """User-visible bytes per block."""
        return self.config.unit_layout.user_data_bytes

    @property
    def block_count(self) -> int:
        """Number of blocks currently written."""
        return len(self._blocks)

    @property
    def capacity_blocks(self) -> int:
        """Number of block addresses the partition can hold."""
        return self.config.leaf_count

    @property
    def capacity_bytes(self) -> int:
        """User-data capacity of the partition in bytes."""
        return self.capacity_blocks * self.block_size

    @property
    def molecules_per_block(self) -> int:
        """Strands per encoding unit."""
        return self.config.unit_layout.total_molecules

    def written_blocks(self) -> list[int]:
        """Block numbers that hold data, in ascending order."""
        return sorted(self._blocks)

    def has_block(self, block: int) -> bool:
        """Whether ``block`` currently holds data (and is in range)."""
        return 0 <= block < self.capacity_blocks and block in self._blocks

    def update_count(self, block: int) -> int:
        """Number of updates applied to ``block``."""
        return len(self._require_block(block).patches)

    # ------------------------------------------------------------------
    # Writing data
    # ------------------------------------------------------------------
    def write(self, data: bytes, *, start_block: int = 0) -> list[int]:
        """Write a byte string across consecutive blocks.

        Args:
            data: the payload; it is split into ``block_size``-byte blocks.
            start_block: the first block number to use.

        Returns:
            The list of block numbers written.

        Raises:
            CapacityError: if the data does not fit in the address space.
        """
        block_count = (len(data) + self.block_size - 1) // self.block_size
        if block_count == 0:
            return []
        if start_block + block_count > self.capacity_blocks:
            raise CapacityError(
                f"{block_count} blocks starting at {start_block} exceed the "
                f"partition capacity of {self.capacity_blocks} blocks"
            )
        written = []
        for i in range(block_count):
            chunk = data[i * self.block_size : (i + 1) * self.block_size]
            block = start_block + i
            self.write_block(block, chunk)
            written.append(block)
        return written

    def write_block(self, block: int, data: bytes) -> None:
        """Write (or overwrite, digitally) the contents of one block."""
        self._check_block_number(block)
        if len(data) > self.block_size:
            raise CapacityError(
                f"block data of {len(data)} bytes exceeds block size {self.block_size}"
            )
        self._blocks[block] = _BlockRecord(data=bytes(data))

    def drop_block(self, block: int) -> None:
        """Discard one block's digital record (reclamation).

        The volume layer calls this when a retired block is no longer
        referenced by the live catalog or any snapshot — the digital
        counterpart of compacting the block out at the next pool
        re-synthesis.  Dropping an unwritten block is a no-op.
        """
        self._check_block_number(block)
        self._blocks.pop(block, None)

    def _check_block_number(self, block: int) -> None:
        if not 0 <= block < self.capacity_blocks:
            raise AddressError(
                f"block {block} out of range [0, {self.capacity_blocks})"
            )

    def _require_block(self, block: int) -> _BlockRecord:
        self._check_block_number(block)
        if block not in self._blocks:
            raise PartitionError(f"block {block} has not been written")
        return self._blocks[block]

    # ------------------------------------------------------------------
    # Updates (versioning, Section 5)
    # ------------------------------------------------------------------
    def update_block(self, block: int, patch: UpdatePatch | ReplacementPatch) -> BlockAddress:
        """Log an update patch against a block and return its slot address.

        The patch is *not* applied to the stored original (the original DNA
        is immutable); it is appended to the block's version chain and will
        be applied in software at read time, exactly as in Section 5.2.

        Raises:
            UpdateError: if the block has exhausted its provisioned slots.
        """
        record = self._require_block(block)
        version = len(record.patches) + 1
        if version >= self.config.slots_per_block:
            raise UpdateError(
                f"block {block} has used all {self.config.slots_per_block - 1} "
                "update slots; coalesce updates or use the overflow log"
            )
        patch_size = (
            patch.framed_size_bytes if isinstance(patch, UpdatePatch) else patch.size_bytes
        )
        if patch_size > self.block_size:
            raise UpdateError(
                f"patch of {patch_size} bytes exceeds the block size"
            )
        record.patches.append(patch)
        return BlockAddress(block=block, slot=version)

    def read_block_reference(self, block: int, *, patch_limit: int | None = None) -> bytes:
        """Digitally reconstruct the contents of a block.

        This is the ground truth used by tests and benchmarks: original data
        with the update chain applied, without any DNA round trip.

        Args:
            patch_limit: apply only the first ``patch_limit`` updates of
                the chain (a snapshot's captured chain length); ``None``
                applies the whole chain (the current contents).
        """
        record = self._require_block(block)
        patches = record.patches
        if patch_limit is not None:
            if patch_limit < 0 or patch_limit > len(patches):
                raise UpdateError(
                    f"block {block} has {len(patches)} updates; cannot apply "
                    f"a chain prefix of {patch_limit}"
                )
            patches = patches[:patch_limit]
        return apply_patch_chain(record.data, patches)

    def read(self, *, start_block: int = 0, block_count: int | None = None) -> bytes:
        """Digitally read a range of blocks with updates applied.

        Args:
            start_block: the first block of the range.
            block_count: how many consecutive blocks to read (every block
                in the range must have been written); when omitted, reads
                every *written* block from ``start_block`` onward, skipping
                holes.

        Returns:
            The concatenated current contents of the blocks (the batched
            counterpart of :meth:`read_block_reference`).
        """
        if block_count is None:
            blocks: list[int] | range = [
                block for block in self.written_blocks() if block >= start_block
            ]
        else:
            blocks = range(start_block, start_block + block_count)
        return b"".join(self.read_block_reference(block) for block in blocks)

    def original_block_data(self, block: int) -> bytes:
        """The block's original (pre-update) contents."""
        return self._require_block(block).data

    def block_patches(self, block: int) -> list[UpdatePatch | ReplacementPatch]:
        """The block's update chain, oldest first."""
        return list(self._require_block(block).patches)

    # ------------------------------------------------------------------
    # Molecule generation (the synthesis order)
    # ------------------------------------------------------------------
    def _unit_payload(self, address: BlockAddress) -> bytes:
        record = self._require_block(address.block)
        if address.slot == 0:
            raw = record.data
        else:
            if address.slot > len(record.patches):
                raise UpdateError(
                    f"block {address.block} has no update in slot {address.slot}"
                )
            patch = record.patches[address.slot - 1]
            if isinstance(patch, UpdatePatch):
                raw = patch.to_framed_bytes()
            else:
                raw = patch.to_bytes()
        return self.randomizer.randomize(raw)

    def molecules_for_address(self, address: BlockAddress) -> list[Molecule]:
        """Build the DNA molecules for one block address (original or update)."""
        return self.molecules_for_addresses([address])

    def molecules_for_addresses(self, addresses: list[BlockAddress]) -> list[Molecule]:
        """Build the molecules of many block addresses in one codec pass.

        The unit payloads of every address are encoded as a single batch
        through the codec backend (one matrix pass for the whole write)
        and then assembled into strands in address order.
        """
        payloads = [self._unit_payload(address) for address in addresses]
        units = self._unit_codec.encode_batch(payloads)
        molecules: list[Molecule] = []
        for address, column_payloads in zip(addresses, units):
            molecules.extend(
                Molecule.for_unit(
                    self.config.primers.forward,
                    self.config.primers.reverse,
                    self.address_codec.encode(address),
                    column_payloads,
                    layout=self.config.molecule_layout,
                )
            )
        return molecules

    def _addresses_for_block(self, block: int, *, include_updates: bool) -> list[BlockAddress]:
        record = self._require_block(block)
        addresses = [BlockAddress(block=block, slot=0)]
        if include_updates:
            addresses.extend(
                BlockAddress(block=block, slot=version)
                for version in range(1, len(record.patches) + 1)
            )
        return addresses

    def molecules_for_block(self, block: int, *, include_updates: bool = True) -> list[Molecule]:
        """Build the molecules of a block and (optionally) its updates."""
        return self.molecules_for_addresses(
            self._addresses_for_block(block, include_updates=include_updates)
        )

    def all_molecules(self, *, include_updates: bool = True) -> list[Molecule]:
        """Build every molecule of the partition (the full synthesis order).

        Every encoding unit of the partition — all blocks and their update
        slots — is encoded in one batched codec pass.
        """
        addresses: list[BlockAddress] = []
        for block in self.written_blocks():
            addresses.extend(
                self._addresses_for_block(block, include_updates=include_updates)
            )
        return self.molecules_for_addresses(addresses)

    def update_molecules(self, block: int, version: int) -> list[Molecule]:
        """Build the molecules of one specific update patch."""
        record = self._require_block(block)
        if not 1 <= version <= len(record.patches):
            raise UpdateError(f"block {block} has no update version {version}")
        return self.molecules_for_address(BlockAddress(block=block, slot=version))

    # ------------------------------------------------------------------
    # Read planning (elongated primers, sequential ranges)
    # ------------------------------------------------------------------
    def primer_for_block(self, block: int, *, levels: int | None = None) -> ElongatedPrimer:
        """The elongated forward primer that targets ``block`` (and its updates)."""
        self._check_block_number(block)
        return build_elongated_primer(
            self.config.primers.forward, self.tree, block, levels=levels
        )

    def primers_for_range(self, start: int, end: int) -> list[ElongatedPrimer]:
        """Elongated primers whose multiplexed PCR covers exactly ``start..end``."""
        return list(self.range_plan(start, end)[1])

    def prefix_cover(self, start: int, end: int) -> PrefixCover:
        """The prefix-cover analysis for a sequential range access."""
        return self.range_plan(start, end)[0]

    def range_plan(
        self, start: int, end: int
    ) -> tuple[PrefixCover, tuple[ElongatedPrimer, ...]]:
        """The prefix cover of ``start..end`` and the primers built from it.

        Plans are memoised per range, up to ``_RANGE_PLAN_LIMIT`` of them
        (the oldest is dropped first); a range that fails to plan is never
        stored.

        Raises:
            AddressError: if the range is empty or leaves the partition.
        """
        key = (start, end)
        plan = self._range_plans.get(key)
        if plan is None:
            cover = prefix_cover_for_range(self.tree, start, end)
            primers = build_cover_primers(self.config.primers.forward, self.tree, cover)
            plan = (cover, tuple(primers))
            if len(self._range_plans) >= _RANGE_PLAN_LIMIT:
                del self._range_plans[next(iter(self._range_plans))]
            self._range_plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    # Interpreting recovered strands
    # ------------------------------------------------------------------
    def parse_unit_index(self, unit_index: str) -> BlockAddress | None:
        """Parse a recovered unit index into a block address (None if invalid)."""
        return self.address_codec.try_decode(unit_index)

    def decode_unit(self, payloads_by_column: dict[int, bytes]) -> bytes:
        """Decode one encoding unit from its recovered column payloads.

        Args:
            payloads_by_column: mapping from intra-unit column index to the
                recovered payload bytes; missing columns are treated as
                Reed-Solomon erasures.

        Returns:
            The de-randomized user bytes of the unit.
        """
        return self.decode_units_batch([payloads_by_column])[0]

    def decode_units_batch(
        self, units: list[dict[int, bytes]]
    ) -> list[bytes]:
        """Decode many encoding units in one backend pass.

        The units are corrected together (grouped by erasure pattern by the
        codec backend) and then de-randomized individually.
        """
        randomized = self._unit_codec.decode_batch(units)
        return [self.randomizer.derandomize(unit) for unit in randomized]

    def decode_block_from_units(
        self,
        units_by_slot: dict[int, dict[int, bytes]],
        *,
        block_length: int | None = None,
    ) -> bytes:
        """Decode a block's current contents from recovered encoding units.

        Args:
            units_by_slot: mapping from slot number (0 = original, 1.. =
                updates) to that unit's recovered column payloads.
            block_length: optional true length of the original block (used to
                strip block-level padding before applying patches; defaults
                to the full block size).

        Returns:
            The block contents with all recovered updates applied in slot
            order.  Update units are parsed with the framed patch format the
            partition writes (see :meth:`UpdatePatch.to_framed_bytes`).

        Raises:
            PartitionError: if slot 0 (the original data) is missing.
        """
        if 0 not in units_by_slot:
            raise PartitionError("cannot decode a block without its original unit")
        original = self.decode_unit(units_by_slot[0])
        if block_length is not None:
            original = original[:block_length]
        patches: list[UpdatePatch | ReplacementPatch] = []
        for slot in sorted(units_by_slot):
            if slot == 0:
                continue
            raw = self.decode_unit(units_by_slot[slot])
            patches.append(UpdatePatch.from_framed_bytes(raw))
        return apply_patch_chain(original, patches)
