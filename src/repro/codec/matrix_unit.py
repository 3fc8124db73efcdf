"""Encoding-unit matrix layout with an outer Reed-Solomon code.

This reproduces Figure 1b/1c of the paper: the molecules of an encoding
unit are the *columns* of a matrix, each row of the matrix is one
Reed-Solomon codeword, the first ``d`` columns hold data and the last ``e``
columns hold the row-wise parity symbols.  In the wetlab configuration one
unit has 15 molecules (11 data + 4 ECC), each molecule carries 24 payload
bytes (48 four-bit symbols), and the unit therefore stores 264 gross bytes
of which 256 are user data and 8 are random padding.

A missing molecule (never recovered from sequencing) erases one column,
i.e. one known-location symbol in every row, which the Reed-Solomon code
corrects as an erasure.

All row arithmetic runs in :mod:`repro.codec.backend`; the batch entry
points (:meth:`EncodingUnit.encode_batch`, :meth:`EncodingUnit.decode_batch`)
let a partition push every unit of a write or read through one codec call,
on the numpy kernels by default and on the scalar Reed-Solomon code under
``REPRO_FUSED_KERNELS=0`` or without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec.backend import decode_units, encode_units
from repro.codec.randomizer import Randomizer
from repro.codec.reed_solomon import reed_solomon_code
from repro.constants import (
    DEFAULT_DATA_MOLECULES_PER_UNIT,
    DEFAULT_ECC_MOLECULES_PER_UNIT,
    DEFAULT_PAYLOAD_BYTES,
    DEFAULT_RS_SYMBOL_BITS,
    DEFAULT_UNIT_DATA_BYTES,
)
from repro.exceptions import DecodingError, EncodingError, ReedSolomonError


@dataclass(frozen=True)
class UnitLayout:
    """Static geometry of an encoding unit.

    Attributes:
        data_molecules: number of data columns (``d`` in Figure 1c).
        ecc_molecules: number of ECC columns (``e`` in Figure 1c).
        payload_bytes: payload bytes carried by each molecule.
        symbol_bits: Reed-Solomon symbol width in bits (must divide 8).
        user_data_bytes: user-visible bytes per unit; the remaining
            ``gross_data_bytes - user_data_bytes`` bytes are padding.
    """

    data_molecules: int = DEFAULT_DATA_MOLECULES_PER_UNIT
    ecc_molecules: int = DEFAULT_ECC_MOLECULES_PER_UNIT
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES
    symbol_bits: int = DEFAULT_RS_SYMBOL_BITS
    user_data_bytes: int = DEFAULT_UNIT_DATA_BYTES

    def __post_init__(self) -> None:
        if self.data_molecules <= 0 or self.ecc_molecules < 0:
            raise EncodingError("molecule counts must be positive")
        if self.payload_bytes <= 0:
            raise EncodingError("payload_bytes must be positive")
        if 8 % self.symbol_bits != 0:
            raise EncodingError("symbol_bits must divide 8")
        if self.user_data_bytes > self.gross_data_bytes:
            raise EncodingError(
                f"user_data_bytes {self.user_data_bytes} exceeds unit capacity "
                f"{self.gross_data_bytes}"
            )

    @property
    def total_molecules(self) -> int:
        """Total columns in the matrix (data + ECC)."""
        return self.data_molecules + self.ecc_molecules

    @property
    def symbols_per_molecule(self) -> int:
        """Number of RS symbols held by one molecule (rows of the matrix)."""
        return self.payload_bytes * 8 // self.symbol_bits

    @property
    def gross_data_bytes(self) -> int:
        """Bytes held by the data columns of one unit (incl. padding)."""
        return self.data_molecules * self.payload_bytes

    @property
    def codeword_length(self) -> int:
        """Length of each row codeword in symbols."""
        return self.total_molecules

    @property
    def padding_bytes(self) -> int:
        """Random padding bytes appended to user data to fill the unit."""
        return self.gross_data_bytes - self.user_data_bytes


@dataclass
class EncodingUnit:
    """Encoder/decoder for one encoding unit (matrix of molecules).

    The unit owns a shared :class:`ReedSolomonCode` sized by its layout and
    a :class:`Randomizer` used to generate deterministic padding (seeded so
    that encode/decode round-trips are reproducible).
    """

    layout: UnitLayout = field(default_factory=UnitLayout)
    padding_seed: int = 0x5EED

    def __post_init__(self) -> None:
        self._code = reed_solomon_code(
            self.layout.codeword_length,
            self.layout.data_molecules,
            symbol_bits=self.layout.symbol_bits,
        )
        self._padding = Randomizer(self.padding_seed)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, user_data: bytes) -> list[bytes]:
        """Encode user data into the payloads of every molecule in the unit.

        Args:
            user_data: at most ``layout.user_data_bytes`` bytes; shorter
                inputs are padded (the true length must be tracked by the
                caller, e.g. the partition's block table).

        Returns:
            A list of ``layout.total_molecules`` payloads of
            ``layout.payload_bytes`` bytes each: data columns first, ECC
            columns last — the column order of Figure 1c.
        """
        return self.encode_batch([user_data])[0]

    def encode_batch(self, units: list[bytes]) -> list[list[bytes]]:
        """Encode many units' user data in one codec call.

        Returns one payload list (as in :meth:`encode`) per input unit.
        """
        for user_data in units:
            if len(user_data) > self.layout.user_data_bytes:
                raise EncodingError(
                    f"user data of {len(user_data)} bytes exceeds unit capacity "
                    f"{self.layout.user_data_bytes}"
                )
        padded = [self._pad(user_data) for user_data in units]
        return encode_units(self._code, padded, rows=self.layout.symbols_per_molecule)

    def _pad(self, user_data: bytes) -> bytes:
        shortfall = self.layout.gross_data_bytes - len(user_data)
        if shortfall == 0:
            return user_data
        return user_data + self._padding.keystream(shortfall)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, payloads: dict[int, bytes]) -> bytes:
        """Decode molecule payloads back into the unit's user data.

        Args:
            payloads: mapping from column index (0-based; data columns are
                ``0..d-1``, ECC columns are ``d..d+e-1``) to the recovered
                payload bytes.  Missing columns are treated as erasures.

        Returns:
            The ``layout.user_data_bytes`` bytes of user data.

        Raises:
            DecodingError: if a payload has the wrong size or a column index
                is out of range.
            ReedSolomonError: if too many columns are missing or corrupted.
        """
        decoded = self.decode_batch([payloads])[0]
        if decoded is None:
            raise ReedSolomonError("too many columns missing or corrupted to decode")
        return decoded

    def decode_batch(self, units: list[dict[int, bytes]]) -> list[bytes | None]:
        """Decode many units in one codec call.

        Gives ``None`` for a unit Reed-Solomon cannot correct and decodes
        the others regardless; see :func:`repro.codec.backend.decode_units`.

        Raises:
            DecodingError: if any unit has a payload of the wrong size or a
                column index out of range.
        """
        total = self.layout.total_molecules
        for payloads in units:
            for column, payload in payloads.items():
                if not 0 <= column < total:
                    raise DecodingError(f"column index {column} out of range")
                if len(payload) != self.layout.payload_bytes:
                    raise DecodingError(
                        f"payload for column {column} has {len(payload)} bytes, "
                        f"expected {self.layout.payload_bytes}"
                    )
        gross = decode_units(self._code, units, rows=self.layout.symbols_per_molecule)
        return [
            None if unit is None else unit[: self.layout.user_data_bytes]
            for unit in gross
        ]
