"""Pure-Python reference backend.

Delegates row by row to :class:`repro.codec.reed_solomon.ReedSolomonCode`,
so its output *is* the definition of correct behaviour for every other
backend.  It has no dependencies beyond the standard library and is the
fallback selected when numpy is unavailable.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.codec.backend.base import CodecBackend, SymbolMatrix
from repro.exceptions import DecodingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codec.reed_solomon import ReedSolomonCode


class PythonBackend(CodecBackend):
    """Row-at-a-time backend built on the scalar Reed-Solomon code."""

    name = "python"

    def encode_rows(
        self, code: "ReedSolomonCode", data_rows: Sequence[Sequence[int]]
    ) -> SymbolMatrix:
        return [code.encode(row) for row in data_rows]

    def syndromes_rows(
        self, code: "ReedSolomonCode", codeword_rows: Sequence[Sequence[int]]
    ) -> SymbolMatrix:
        # ReedSolomonCode._syndromes pads with a leading zero; strip it so
        # the backend contract is the bare syndrome vector.
        return [code._syndromes(row)[1:] for row in codeword_rows]

    def bytes_to_symbols(self, data: bytes, symbol_bits: int) -> list[int]:
        symbols_per_byte = 8 // symbol_bits
        mask = (1 << symbol_bits) - 1
        symbols = []
        for byte in data:
            for i in range(symbols_per_byte - 1, -1, -1):
                symbols.append((byte >> (i * symbol_bits)) & mask)
        return symbols

    def symbols_to_bytes(self, symbols: Sequence[int], symbol_bits: int) -> bytes:
        symbols_per_byte = 8 // symbol_bits
        if len(symbols) % symbols_per_byte != 0:
            raise DecodingError("symbol count does not align to byte boundary")
        out = bytearray()
        for i in range(0, len(symbols), symbols_per_byte):
            value = 0
            for symbol in symbols[i : i + symbols_per_byte]:
                value = (value << symbol_bits) | symbol
            out.append(value)
        return bytes(out)
