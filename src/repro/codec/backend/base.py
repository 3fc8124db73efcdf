"""The common interface of the batched Reed-Solomon codec backends.

The paper's hot paths — row-wise Reed-Solomon encode of an encoding unit
(Figure 1c), syndrome checks of recovered codewords, and erasure fill-in
for missing molecules — all operate on *matrices of symbols*: one row per
codeword, one column per molecule.  A :class:`CodecBackend` implements
those operations over whole matrices at once, so that a partition (or the
volume layer above it) can encode every unit of a write in a single pass
instead of per-symbol Python loops.

Two implementations exist:

* :mod:`repro.codec.backend.python_backend` — the reference backend,
  delegating row by row to :class:`repro.codec.reed_solomon.ReedSolomonCode`.
  Always available; used when numpy is not installed, and selected with
  ``REPRO_CODEC_BACKEND=python`` as the oracle of the numpy one.
* :mod:`repro.codec.backend.numpy_backend` — table-based vectorized GF(2^m)
  arithmetic; whole-matrix encode via a parity generator matrix, batched
  syndrome computation, and a shared-position erasure solver.

A batch of units decodes unit by unit: :meth:`CodecBackend.decode_units`
gives ``None`` for a unit Reed-Solomon cannot correct and still decodes
the others.  Both backends are required to produce **byte-identical**
codewords, decodes and verdicts; the property tests in
``tests/test_codec_backends.py`` enforce this across field sizes, unit
geometries and errata patterns.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.exceptions import ReedSolomonError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.codec.reed_solomon import ReedSolomonCode

#: Type alias for a matrix of GF(2^m) symbols, one codeword per row.
SymbolMatrix = list[list[int]]


class CodecBackend(ABC):
    """Batched encode/decode operations for a systematic RS(n, k) code.

    Every method takes the :class:`ReedSolomonCode` describing the code
    geometry; backends may cache derived structures (generator matrices,
    lookup tables) keyed by the code's parameters.
    """

    #: Short identifier used by :func:`repro.codec.backend.get_backend`.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Reed-Solomon matrix operations
    # ------------------------------------------------------------------
    @abstractmethod
    def encode_rows(
        self, code: "ReedSolomonCode", data_rows: Sequence[Sequence[int]]
    ) -> SymbolMatrix:
        """Encode a matrix of data rows into full systematic codewords.

        Args:
            code: the RS(n, k) code to encode with.
            data_rows: ``N`` rows of ``k`` data symbols each.

        Returns:
            ``N`` rows of ``n`` symbols each (data symbols first, parity
            appended), identical to calling ``code.encode`` per row.
        """

    @abstractmethod
    def syndromes_rows(
        self, code: "ReedSolomonCode", codeword_rows: Sequence[Sequence[int]]
    ) -> SymbolMatrix:
        """Compute the ``n - k`` syndromes of every codeword row.

        Returns the *unpadded* syndrome vectors (no leading zero), one row
        per input codeword.  A row decodes cleanly iff its syndromes are
        all zero.
        """

    def decode_rows(
        self,
        code: "ReedSolomonCode",
        codeword_rows: Sequence[Sequence[int]],
        erasure_positions: Sequence[int] = (),
    ) -> SymbolMatrix:
        """Decode a matrix of codeword rows sharing one erasure pattern.

        The shared-erasure signature matches the dominant wetlab failure
        mode: a molecule that never made it through sequencing erases the
        same column of *every* row of its encoding unit.  Every backend
        runs the scalar decoder row by row here, so this is the reference
        the vectorized :meth:`decode_units` is held to.

        Args:
            code: the RS(n, k) code the rows were encoded with.
            codeword_rows: ``N`` received rows of ``n`` symbols (erased
                positions may hold any value).
            erasure_positions: column indexes known to be unreliable,
                shared by all rows.

        Returns:
            The corrected rows, identical to ``code.decode`` per row.

        Raises:
            ReedSolomonError: if any row's errata exceed the code's
                correction capability.
        """
        return [
            code.decode(row, erasure_positions=erasure_positions)
            for row in codeword_rows
        ]

    # ------------------------------------------------------------------
    # Symbol packing
    # ------------------------------------------------------------------
    @abstractmethod
    def bytes_to_symbols(self, data: bytes, symbol_bits: int) -> list[int]:
        """Split bytes into fixed-width symbols, most significant bits first."""

    @abstractmethod
    def symbols_to_bytes(self, symbols: Sequence[int], symbol_bits: int) -> bytes:
        """Inverse of :meth:`bytes_to_symbols`."""

    # ------------------------------------------------------------------
    # Whole-unit operations (Figure 1c matrices)
    # ------------------------------------------------------------------
    def encode_units(
        self,
        code: "ReedSolomonCode",
        padded_units: Sequence[bytes],
        *,
        rows: int,
        symbol_bits: int,
    ) -> list[list[bytes]]:
        """Encode padded unit payloads into per-column molecule payloads.

        Each input is the gross data of one encoding unit (``k * rows``
        symbols packed column-major: molecule ``j`` holds symbols
        ``[j*rows, (j+1)*rows)``).  The result is, per unit, the list of
        ``n`` column payloads (data columns first, parity columns last).

        The default implementation composes the row primitives; vectorized
        backends override it to keep the whole batch in array form.
        """
        results: list[list[bytes]] = []
        for unit in padded_units:
            symbols = self.bytes_to_symbols(unit, symbol_bits)
            data_rows = [
                [symbols[column * rows + row] for column in range(code.k)]
                for row in range(rows)
            ]
            codewords = self.encode_rows(code, data_rows)
            columns = []
            for column in range(code.n):
                columns.append(
                    self.symbols_to_bytes(
                        [codewords[row][column] for row in range(rows)], symbol_bits
                    )
                )
            results.append(columns)
        return results

    def decode_units(
        self,
        code: "ReedSolomonCode",
        units_columns: Sequence[dict[int, bytes]],
        *,
        rows: int,
        symbol_bits: int,
    ) -> list[bytes | None]:
        """Decode recovered column payloads back into gross unit data.

        Each input maps column index to that column's payload bytes;
        missing columns are treated as erasures shared by every row of the
        unit.  Returns, per unit, the concatenated data-column bytes
        (including padding; the caller truncates to the user length), or
        ``None`` when Reed-Solomon cannot correct the unit: more erasures
        than parity symbols, or a row the scalar decoder rejects.  The
        other units of the batch decode regardless.
        """
        results: list[bytes | None] = []
        for columns in units_columns:
            erasures = [c for c in range(code.n) if c not in columns]
            matrix = [
                self.bytes_to_symbols(columns[c], symbol_bits)
                if c in columns
                else [0] * rows
                for c in range(code.n)
            ]
            codeword_rows = [
                [matrix[column][row] for column in range(code.n)]
                for row in range(rows)
            ]
            try:
                corrected = self.decode_rows(code, codeword_rows, erasures)
            except ReedSolomonError:
                results.append(None)
                continue
            flattened: list[int] = []
            for column in range(code.k):
                flattened.extend(corrected[row][column] for row in range(rows))
            results.append(self.symbols_to_bytes(flattened, symbol_bits))
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_vectorized(self) -> bool:
        """True when the backend uses array-at-a-time arithmetic."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
