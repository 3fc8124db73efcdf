"""Assembly and parsing of full DNA strands (molecules).

A molecule in this architecture (Figure 4, bottom) is laid out as::

    [forward primer][sync base][PCR-compatible unit index][update slot base]
    [intra-unit index][payload][reverse primer]

* The *unit index* (yellow in Figure 1) is the sparse, PCR-compatible
  address of the encoding unit produced by the index tree of Section 4.
* The *update slot base* distinguishes the original block from its update
  patches (Section 5.3 / 6.3); it is part of the PCR-addressable prefix.
* The *intra-unit index* (orange in Figure 1) identifies the molecule's
  column within the encoding-unit matrix and is decoded in software, so it
  uses the dense base-4 encoding.
* The payload carries data or ECC bytes at 2 bits per base.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec.binary_codec import (
    bytes_to_dna,
    dna_to_bytes,
    dna_to_integer,
    integer_to_dna,
)
from repro.constants import (
    DEFAULT_INTRA_UNIT_INDEX_BASES,
    DEFAULT_PAYLOAD_BASES,
    DEFAULT_PRIMER_LENGTH,
    DEFAULT_SPARSE_INDEX_BASES,
    DEFAULT_UPDATE_SLOT_BASES,
    SYNC_BASE,
)
from repro.exceptions import DecodingError, EncodingError, SequenceError
from repro.sequence import validate_sequence


@dataclass(frozen=True)
class MoleculeLayout:
    """Static geometry of a DNA strand in this architecture."""

    primer_length: int = DEFAULT_PRIMER_LENGTH
    sync_bases: int = 1
    unit_index_bases: int = DEFAULT_SPARSE_INDEX_BASES
    update_slot_bases: int = DEFAULT_UPDATE_SLOT_BASES
    intra_index_bases: int = DEFAULT_INTRA_UNIT_INDEX_BASES
    payload_bases: int = DEFAULT_PAYLOAD_BASES

    def __post_init__(self) -> None:
        if self.primer_length <= 0:
            raise EncodingError("primer_length must be positive")
        if min(
            self.sync_bases,
            self.unit_index_bases,
            self.update_slot_bases,
            self.intra_index_bases,
            self.payload_bases,
        ) < 0:
            raise EncodingError("layout field lengths must be non-negative")
        if self.payload_bases % 4 != 0:
            raise EncodingError("payload_bases must be a multiple of 4")

    @property
    def strand_length(self) -> int:
        """Total strand length in bases."""
        return (
            2 * self.primer_length
            + self.sync_bases
            + self.unit_index_bases
            + self.update_slot_bases
            + self.intra_index_bases
            + self.payload_bases
        )

    @property
    def payload_bytes(self) -> int:
        """Payload capacity in bytes."""
        return self.payload_bases // 4

    @property
    def addressable_prefix_bases(self) -> int:
        """Bases of the strand usable as a PCR-addressable prefix."""
        return (
            self.primer_length
            + self.sync_bases
            + self.unit_index_bases
            + self.update_slot_bases
        )


@dataclass(frozen=True)
class Molecule:
    """One fully-assembled DNA strand of the block-storage architecture.

    Attributes:
        forward_primer: the partition's 20-base forward primer.
        reverse_primer: the partition's 20-base reverse primer (stored in its
            sense-strand orientation; the wetlab reverse primer would be its
            reverse complement).
        unit_index: sparse PCR-compatible address of the encoding unit,
            including the update-slot base(s).
        intra_index: the molecule's column within the unit matrix.
        payload: the payload bytes carried by the molecule.
    """

    forward_primer: str
    reverse_primer: str
    unit_index: str
    intra_index: int
    payload: bytes
    layout: MoleculeLayout = MoleculeLayout()

    def __post_init__(self) -> None:
        layout = self.layout
        self._validate_frame(
            self.forward_primer, self.reverse_primer, self.unit_index, layout
        )
        if not 0 <= self.intra_index < 4 ** layout.intra_index_bases:
            raise EncodingError(
                f"intra-unit index {self.intra_index} does not fit in "
                f"{layout.intra_index_bases} bases"
            )
        if len(self.payload) != layout.payload_bytes:
            raise EncodingError(
                f"payload of {len(self.payload)} bytes != {layout.payload_bytes}"
            )

    @staticmethod
    def _validate_frame(
        forward_primer: str,
        reverse_primer: str,
        unit_index: str,
        layout: MoleculeLayout,
    ) -> None:
        """Validate the fields shared by every molecule of an encoding unit."""
        validate_sequence(forward_primer)
        validate_sequence(reverse_primer)
        validate_sequence(unit_index)
        if len(forward_primer) != layout.primer_length:
            raise EncodingError(
                f"forward primer length {len(forward_primer)} != "
                f"{layout.primer_length}"
            )
        if len(reverse_primer) != layout.primer_length:
            raise EncodingError(
                f"reverse primer length {len(reverse_primer)} != "
                f"{layout.primer_length}"
            )
        expected_index = layout.unit_index_bases + layout.update_slot_bases
        if len(unit_index) != expected_index:
            raise EncodingError(
                f"unit index length {len(unit_index)} != {expected_index}"
            )

    # ------------------------------------------------------------------
    # Assembly / parsing
    # ------------------------------------------------------------------
    def to_strand(self) -> str:
        """Assemble the full DNA strand for this molecule."""
        layout = self.layout
        return "".join(
            (
                self.forward_primer,
                SYNC_BASE * layout.sync_bases,
                self.unit_index,
                integer_to_dna(self.intra_index, layout.intra_index_bases),
                bytes_to_dna(self.payload),
                self.reverse_primer,
            )
        )

    @property
    def addressable_prefix(self) -> str:
        """The strand prefix usable for PCR addressing (primer + sync + index)."""
        return (
            self.forward_primer
            + SYNC_BASE * self.layout.sync_bases
            + self.unit_index
        )

    @classmethod
    def for_unit(
        cls,
        forward_primer: str,
        reverse_primer: str,
        unit_index: str,
        payloads: list[bytes],
        layout: MoleculeLayout | None = None,
    ) -> "list[Molecule]":
        """Build the molecules of one encoding unit from its column payloads.

        The primers and unit index are shared by every molecule of the
        unit, so they are validated once here instead of once per strand —
        the batched counterpart of constructing 15 molecules one by one.
        Column ``j`` of ``payloads`` becomes intra-unit index ``j``.
        """
        layout = layout or MoleculeLayout()
        if len(payloads) > 4 ** layout.intra_index_bases:
            raise EncodingError(
                f"{len(payloads)} columns do not fit in "
                f"{layout.intra_index_bases} intra-index bases"
            )
        cls._validate_frame(forward_primer, reverse_primer, unit_index, layout)
        molecules = []
        for intra_index, payload in enumerate(payloads):
            if len(payload) != layout.payload_bytes:
                raise EncodingError(
                    f"payload of {len(payload)} bytes != {layout.payload_bytes}"
                )
            molecule = object.__new__(cls)
            object.__setattr__(molecule, "forward_primer", forward_primer)
            object.__setattr__(molecule, "reverse_primer", reverse_primer)
            object.__setattr__(molecule, "unit_index", unit_index)
            object.__setattr__(molecule, "intra_index", intra_index)
            object.__setattr__(molecule, "payload", payload)
            object.__setattr__(molecule, "layout", layout)
            molecules.append(molecule)
        return molecules

    @classmethod
    def from_strand(cls, strand: str, layout: MoleculeLayout | None = None) -> "Molecule":
        """Parse an error-free strand back into a :class:`Molecule`.

        This is intended for reconstructed (consensus) strands; noisy reads
        go through the clustering / trace-reconstruction pipeline first.
        The decoder parses its consensus strands here only on the
        reference path (``REPRO_FUSED_KERNELS=0`` or no numpy); the fused
        path reads the same fields from the consensus matrix in array
        passes, and both skip a strand this method rejects.

        Raises:
            DecodingError: if the strand holds a base outside ACGT (e.g. an
                ``N`` no-call that a single-read consensus kept) or its
                length does not match the layout.
        """
        layout = layout or MoleculeLayout()
        try:
            validate_sequence(strand)
        except SequenceError as error:
            raise DecodingError(str(error)) from error
        if len(strand) != layout.strand_length:
            raise DecodingError(
                f"strand length {len(strand)} != layout length {layout.strand_length}"
            )
        cursor = 0

        def take(count: int) -> str:
            nonlocal cursor
            piece = strand[cursor : cursor + count]
            cursor += count
            return piece

        forward = take(layout.primer_length)
        take(layout.sync_bases)
        unit_index = take(layout.unit_index_bases + layout.update_slot_bases)
        intra = dna_to_integer(take(layout.intra_index_bases))
        payload = dna_to_bytes(take(layout.payload_bases))
        reverse = take(layout.primer_length)
        return cls(
            forward_primer=forward,
            reverse_primer=reverse,
            unit_index=unit_index,
            intra_index=intra,
            payload=payload,
            layout=layout,
        )
