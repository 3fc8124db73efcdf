"""Construction of elongated PCR primers (Section 4 / 6.5).

An elongated primer is the partition's main forward primer extended with
the synchronization base and a prefix of the sparse index.  A full
elongation (the whole 10-base index in the wetlab configuration, giving a
31-base primer) targets a single block and its update slots; a partial
elongation targets the subtree under the included prefix, enabling limited
sequential access.  Two-sided elongation (Section 7.7.1) splits the index
between the forward and reverse primers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import SYNC_BASE
from repro.core.index_tree import IndexTree
from repro.core.prefix_cover import PrefixCover, prefix_cover_for_range
from repro.exceptions import PrimerDesignError
from repro.primers.melting import melting_temperature
from repro.sequence import gc_content, max_homopolymer_run, validate_sequence


@dataclass(frozen=True)
class ElongatedPrimer:
    """A forward (or reverse) primer elongated with part of a block index.

    Attributes:
        main_primer: the partition's main primer (20 bases in the paper).
        elongation: the index prefix appended to the primer (includes the
            sync base when elongating the forward primer).
        target_block: the block targeted by a full elongation, or ``None``
            for a partial (range) elongation.
        levels: number of tree levels covered by the elongation.
    """

    main_primer: str
    elongation: str
    target_block: int | None
    levels: int

    def __post_init__(self) -> None:
        validate_sequence(self.main_primer)
        validate_sequence(self.elongation)

    @property
    def sequence(self) -> str:
        """The full elongated primer sequence."""
        return self.main_primer + self.elongation

    @property
    def length(self) -> int:
        """Total primer length in bases."""
        return len(self.sequence)

    @property
    def gc_content(self) -> float:
        """GC content of the full elongated primer."""
        return gc_content(self.sequence)

    @property
    def melting_temperature(self) -> float:
        """Estimated melting temperature (degC) of the full primer."""
        return melting_temperature(self.sequence)

    @property
    def max_homopolymer(self) -> int:
        """Longest homopolymer run in the full primer."""
        return max_homopolymer_run(self.sequence)

    @property
    def is_full_elongation(self) -> bool:
        """True if this primer targets exactly one block."""
        return self.target_block is not None


def build_elongated_primer(
    main_primer: str,
    tree: IndexTree,
    block: int,
    *,
    levels: int | None = None,
    include_sync_base: bool = True,
) -> ElongatedPrimer:
    """Build the elongated forward primer for a block (or its subtree).

    Args:
        main_primer: the partition's main forward primer.
        tree: the partition's index tree.
        block: target block number.
        levels: how many tree levels to include; ``None`` means all levels
            (a full elongation targeting only ``block``).
        include_sync_base: include the synchronization base that sits
            between the main primer and the index on every strand.

    Returns:
        The :class:`ElongatedPrimer`; its :attr:`~ElongatedPrimer.length`
        for the paper's wetlab configuration (20-base primer, 1 sync base,
        10-base index) is 31, matching Section 6.5.
    """
    validate_sequence(main_primer)
    if levels is None:
        levels = tree.depth
    if not 0 <= levels <= tree.depth:
        raise PrimerDesignError(
            f"levels {levels} out of range [0, {tree.depth}]"
        )
    index_prefix = tree.prefix_for_leaf(block, levels)
    elongation = (SYNC_BASE if include_sync_base else "") + index_prefix
    return ElongatedPrimer(
        main_primer=main_primer,
        elongation=elongation,
        target_block=block if levels == tree.depth else None,
        levels=levels,
    )


def build_range_primers(
    main_primer: str,
    tree: IndexTree,
    start: int,
    end: int,
    *,
    include_sync_base: bool = True,
) -> list[ElongatedPrimer]:
    """Build the set of elongated primers that exactly covers a block range.

    One primer per prefix in the minimal cover; a multiplexed PCR with this
    primer set retrieves exactly the blocks ``start..end`` (Section 3.1).
    """
    return build_cover_primers(
        main_primer,
        tree,
        prefix_cover_for_range(tree, start, end),
        include_sync_base=include_sync_base,
    )


def build_cover_primers(
    main_primer: str,
    tree: IndexTree,
    cover: PrefixCover,
    *,
    include_sync_base: bool = True,
) -> list[ElongatedPrimer]:
    """The elongated primers of a computed prefix cover, one per path.

    A full-depth path targets its own leaf; shorter paths are partial
    (range) elongations.
    """
    sync = SYNC_BASE if include_sync_base else ""
    return [
        ElongatedPrimer(
            main_primer=main_primer,
            elongation=sync + address,
            target_block=(
                tree.leaves_under_prefix(path).start
                if len(path) == tree.depth
                else None
            ),
            levels=len(path),
        )
        for path, address in zip(cover.paths, cover.addresses)
    ]


def build_two_sided_primers(
    forward_primer: str,
    reverse_primer: str,
    tree: IndexTree,
    block: int,
    *,
    include_sync_base: bool = True,
) -> tuple[ElongatedPrimer, ElongatedPrimer]:
    """Split the index elongation across the forward and reverse primers.

    Section 7.7.1 suggests elongating both primers by half the index to
    lower and balance melting temperatures; with 10 index bases per side
    this would address over a million blocks per partition.
    """
    full = tree.encode(block)
    half = len(full) // 2
    forward_part = full[:half]
    reverse_part = full[half:]
    forward = ElongatedPrimer(
        main_primer=forward_primer,
        elongation=(SYNC_BASE if include_sync_base else "") + forward_part,
        target_block=block,
        levels=tree.depth,
    )
    # The reverse primer is elongated with the *suffix* of the index; in the
    # physical strand this sits immediately before the reverse primer region
    # of the complementary strand, so the elongation is prepended here.
    reverse = ElongatedPrimer(
        main_primer=reverse_primer,
        elongation=reverse_part,
        target_block=block,
        levels=tree.depth,
    )
    return forward, reverse
