"""Numpy-vectorized GF(2^m) / Reed-Solomon backend.

The scalar code path multiplies field elements one at a time through
exp/log tables.  This backend lifts the same tables into numpy arrays and
performs three whole-matrix operations:

* **Encode**: systematic RS encoding is linear over GF(2^m), so the parity
  of a message row is ``row @ P`` for a fixed ``k x (n-k)`` parity
  generator matrix ``P``.  ``P`` is derived once per code by encoding the
  ``k`` unit vectors with the scalar encoder — which also guarantees the
  vectorized output is byte-identical to the reference backend.
* **Batched syndromes**: the syndrome vector of a row is ``row @ V`` for a
  fixed ``n x (n-k)`` matrix of primitive-element powers, so checking an
  entire partition's worth of codewords is one GF matrix product.
* **Shared-position erasure solve**: a lost molecule erases the same
  column of every row of its unit.  For fixed erasure positions the error
  magnitudes are a *linear* function of the syndromes, so all rows are
  repaired with one more GF matrix product.  Rows whose syndromes remain
  nonzero (true errors at unknown locations) fall back to the scalar
  Berlekamp-Massey decoder, row by row.

:meth:`NumpyBackend.decode_units` runs a whole batch of units through
these steps at once, with one syndrome product for all of them, and
reports a unit it cannot correct as ``None``.  Its reference is the
pure-Python backend (``REPRO_CODEC_BACKEND=python``), and both backends
share the base class's scalar row decode (:meth:`CodecBackend.decode_rows`).

GF matrix products are computed with broadcast log-addition and an XOR
reduction; inputs are chunked so temporaries stay small.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.codec.backend.base import CodecBackend, SymbolMatrix
from repro.exceptions import DecodingError, ReedSolomonError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codec.galois import GaloisField
    from repro.codec.reed_solomon import ReedSolomonCode

#: Cap on rows per broadcast chunk so the N x K x M temporaries stay at a
#: few megabytes regardless of batch size.
_CHUNK_ROWS = 1 << 15


class _FieldTables:
    """Numpy views of a GaloisField's exp/log tables."""

    def __init__(self, field: "GaloisField") -> None:
        self.exp = np.asarray(field._exp, dtype=np.int32)
        self.log = np.asarray(field._log, dtype=np.int32)
        self.max_value = field.max_value


class _CodeTables:
    """Derived matrices for one RS(n, k) code."""

    def __init__(self, code: "ReedSolomonCode", field_tables: _FieldTables) -> None:
        self.field = field_tables
        self.n = code.n
        self.k = code.k
        self.nsym = code.parity_symbols
        self.fcr = code.fcr
        gf = code.field
        # Parity generator matrix: parity(row) == row @ P over GF(2^m).
        parity_columns = []
        for i in range(code.k):
            unit = [0] * code.k
            unit[i] = 1
            parity_columns.append(code.encode(unit)[code.k :])
        self.parity_matrix = np.asarray(parity_columns, dtype=np.int32)
        # Syndrome matrix: syndromes(row) == row @ V over GF(2^m), where
        # row[i] is the coefficient of x^(n-1-i).
        v = np.empty((code.n, self.nsym), dtype=np.int32)
        for i in range(code.n):
            for j in range(self.nsym):
                v[i, j] = gf.power(gf.exp(j + code.fcr), code.n - 1 - i)
        self.syndrome_matrix = v
        #: Per-erasure-pattern solve matrices, built lazily.
        self._erasure_solvers: dict[tuple[int, ...], np.ndarray] = {}

    def erasure_solver(self, code: "ReedSolomonCode", positions: tuple[int, ...]) -> np.ndarray:
        """The matrix M with magnitudes == syndromes[:e] @ M for fixed positions."""
        solver = self._erasure_solvers.get(positions)
        if solver is not None:
            return solver
        gf = code.field
        e = len(positions)
        # The erasure magnitudes E satisfy S_j = sum_i E_i * a_{j,i} with
        # a_{j,i} = alpha^((j + fcr) * (n - 1 - pos_i)); invert the leading
        # e x e system so E == S[:e] @ inv(A).T.
        a = [
            [gf.power(gf.exp(j + code.fcr), code.n - 1 - pos) for pos in positions]
            for j in range(e)
        ]
        inverse = _gf_invert(gf, a)
        solver = np.asarray(
            [[inverse[i][j] for i in range(e)] for j in range(e)], dtype=np.int32
        )
        self._erasure_solvers[positions] = solver
        return solver


def _gf_invert(gf: "GaloisField", matrix: list[list[int]]) -> list[list[int]]:
    """Invert a small square matrix over GF(2^m) by Gauss-Jordan elimination."""
    size = len(matrix)
    work = [list(row) + [int(i == j) for j in range(size)] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if work[r][col] != 0), None)
        if pivot is None:
            raise ReedSolomonError("erasure locator matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv_pivot = gf.inverse(work[col][col])
        work[col] = [gf.multiply(value, inv_pivot) for value in work[col]]
        for row in range(size):
            if row == col or work[row][col] == 0:
                continue
            factor = work[row][col]
            work[row] = [
                value ^ gf.multiply(factor, work[col][i])
                for i, value in enumerate(work[row])
            ]
    return [row[size:] for row in work]


class NumpyBackend(CodecBackend):
    """Array-at-a-time backend; byte-identical to :class:`PythonBackend`."""

    name = "numpy"

    def __init__(self) -> None:
        self._field_tables: dict[tuple[int, int], _FieldTables] = {}
        self._code_tables: dict[tuple[int, int, int, int, int], _CodeTables] = {}

    @property
    def is_vectorized(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # Table caches
    # ------------------------------------------------------------------
    def _tables_for_field(self, field: "GaloisField") -> _FieldTables:
        key = (field.m, field.primitive_polynomial)
        tables = self._field_tables.get(key)
        if tables is None:
            tables = _FieldTables(field)
            self._field_tables[key] = tables
        return tables

    def _tables_for_code(self, code: "ReedSolomonCode") -> _CodeTables:
        key = (
            code.n,
            code.k,
            code.symbol_bits,
            code.fcr,
            code.field.primitive_polynomial,
        )
        tables = self._code_tables.get(key)
        if tables is None:
            tables = _CodeTables(code, self._tables_for_field(code.field))
            self._code_tables[key] = tables
        return tables

    # ------------------------------------------------------------------
    # GF matrix product
    # ------------------------------------------------------------------
    @staticmethod
    def _gf_matmul(tables: _FieldTables, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """XOR-accumulated GF(2^m) product of an N x K and a K x M matrix."""
        rows = left.shape[0]
        out = np.empty((rows, right.shape[1]), dtype=np.int32)
        log_right = tables.log[right]
        right_mask = right != 0
        for start in range(0, rows, _CHUNK_ROWS):
            chunk = left[start : start + _CHUNK_ROWS]
            log_chunk = tables.log[chunk]
            sums = log_chunk[:, :, None] + log_right[None, :, :]
            terms = tables.exp[sums]
            mask = (chunk != 0)[:, :, None] & right_mask[None, :, :]
            np.bitwise_xor.reduce(
                np.where(mask, terms, 0), axis=1, out=out[start : start + _CHUNK_ROWS]
            )
        return out

    @staticmethod
    def _as_matrix(rows: Sequence[Sequence[int]], width: int, label: str) -> np.ndarray:
        matrix = np.asarray(rows, dtype=np.int32)
        if matrix.ndim == 1:
            matrix = matrix.reshape(0, width) if matrix.size == 0 else matrix[None, :]
        if matrix.ndim != 2 or matrix.shape[1] != width:
            raise ReedSolomonError(
                f"expected rows of {width} {label} symbols, got shape {matrix.shape}"
            )
        return matrix

    @staticmethod
    def _validate_range(matrix: np.ndarray, max_value: int, symbol_bits: int) -> None:
        if matrix.size and (matrix.min() < 0 or matrix.max() > max_value):
            raise ReedSolomonError(
                f"symbol out of range for GF(2^{symbol_bits})"
            )

    # ------------------------------------------------------------------
    # Backend interface
    # ------------------------------------------------------------------
    def encode_rows(
        self, code: "ReedSolomonCode", data_rows: Sequence[Sequence[int]]
    ) -> SymbolMatrix:
        tables = self._tables_for_code(code)
        data = self._as_matrix(data_rows, code.k, "data")
        if data.shape[0] == 0:
            return []
        self._validate_range(data, tables.field.max_value, code.symbol_bits)
        parity = self._gf_matmul(tables.field, data, tables.parity_matrix)
        return np.hstack((data, parity)).tolist()

    def syndromes_rows(
        self, code: "ReedSolomonCode", codeword_rows: Sequence[Sequence[int]]
    ) -> SymbolMatrix:
        tables = self._tables_for_code(code)
        codewords = self._as_matrix(codeword_rows, code.n, "codeword")
        if codewords.shape[0] == 0:
            return []
        self._validate_range(codewords, tables.field.max_value, code.symbol_bits)
        return self._syndrome_matrix(tables, codewords).tolist()

    def _syndrome_matrix(self, tables: _CodeTables, codewords: np.ndarray) -> np.ndarray:
        return self._gf_matmul(tables.field, codewords, tables.syndrome_matrix)

    # ------------------------------------------------------------------
    # Whole-unit operations, fully vectorized
    # ------------------------------------------------------------------
    def _unpack_bytes(self, raw: np.ndarray, symbol_bits: int) -> np.ndarray:
        """uint8 array (..., B) -> int32 symbol array (..., B * 8/bits)."""
        symbols_per_byte = 8 // symbol_bits
        mask = (1 << symbol_bits) - 1
        shifts = np.arange(symbols_per_byte - 1, -1, -1, dtype=np.int32) * symbol_bits
        expanded = (raw[..., None].astype(np.int32) >> shifts) & mask
        return expanded.reshape(*raw.shape[:-1], raw.shape[-1] * symbols_per_byte)

    def _pack_symbols(self, symbols: np.ndarray, symbol_bits: int) -> np.ndarray:
        """int32 symbol array (..., S) -> uint8 array (..., S * bits/8)."""
        symbols_per_byte = 8 // symbol_bits
        shifts = np.arange(symbols_per_byte - 1, -1, -1, dtype=np.int32) * symbol_bits
        grouped = symbols.reshape(*symbols.shape[:-1], -1, symbols_per_byte)
        return np.bitwise_or.reduce(grouped << shifts, axis=-1).astype(np.uint8)

    def encode_units(
        self,
        code: "ReedSolomonCode",
        padded_units: Sequence[bytes],
        *,
        rows: int,
        symbol_bits: int,
    ) -> list[list[bytes]]:
        if not padded_units:
            return []
        tables = self._tables_for_code(code)
        unit_count = len(padded_units)
        raw = np.frombuffer(b"".join(padded_units), dtype=np.uint8)
        # Column-major unit layout: molecule j holds symbols [j*rows, (j+1)*rows).
        symbols = self._unpack_bytes(raw.reshape(unit_count, -1), symbol_bits)
        data = (
            symbols.reshape(unit_count, code.k, rows)
            .transpose(0, 2, 1)
            .reshape(unit_count * rows, code.k)
        )
        self._validate_range(data, tables.field.max_value, code.symbol_bits)
        parity = self._gf_matmul(tables.field, data, tables.parity_matrix)
        codewords = np.hstack((data, parity))
        columns = codewords.reshape(unit_count, rows, code.n).transpose(0, 2, 1)
        packed = self._pack_symbols(columns, symbol_bits)
        return [[bytes(column) for column in unit] for unit in packed]

    def decode_units(
        self,
        code: "ReedSolomonCode",
        units_columns: Sequence[dict[int, bytes]],
        *,
        rows: int,
        symbol_bits: int,
    ) -> list[bytes | None]:
        """All units of a batch through **one** syndrome matmul.

        Every unit is unpacked into one codeword matrix, every row's
        syndromes come from a single GF matrix product, and only the dirty
        rows are touched: each erasure pattern's linear solve runs over
        just its dirty rows, one shared residual-syndrome pass re-checks
        everything repaired, and only rows still failing fall back to the
        scalar Berlekamp-Massey reference.  A unit with more erasures than
        parity symbols, or with a row the scalar decoder rejects, gives
        ``None``; its remaining rows are skipped.
        """
        if not units_columns:
            return []
        tables = self._tables_for_code(code)
        payload_bytes = rows * symbol_bits // 8
        unit_count = len(units_columns)
        erasure_of_unit = [
            tuple(c for c in range(code.n) if c not in columns)
            for columns in units_columns
        ]
        failed = {
            unit
            for unit, erasures in enumerate(erasure_of_unit)
            if len(erasures) > code.parity_symbols
        }
        zero_payload = bytes(payload_bytes)
        raw = np.frombuffer(
            b"".join(
                columns.get(c, zero_payload)
                for columns in units_columns
                for c in range(code.n)
            ),
            dtype=np.uint8,
        ).reshape(unit_count, code.n, payload_bytes)
        codewords = (
            self._unpack_bytes(raw, symbol_bits)
            .transpose(0, 2, 1)
            .reshape(unit_count * rows, code.n)
        )
        working = codewords.copy()
        syndromes = self._syndrome_matrix(tables, working)
        dirty = np.flatnonzero(syndromes.any(axis=1))
        if dirty.size:
            # Erased columns already hold zeros (missing molecules were
            # filled with a zero payload), so the solve applies directly.
            by_pattern: dict[tuple[int, ...], list[int]] = {}
            for row_index in dirty.tolist():
                if row_index // rows not in failed:
                    by_pattern.setdefault(
                        erasure_of_unit[row_index // rows], []
                    ).append(row_index)
            still_dirty = set(by_pattern.pop((), []))
            repaired: list[int] = []
            for erasures, row_list in by_pattern.items():
                solver = tables.erasure_solver(code, erasures)
                row_array = np.asarray(row_list, dtype=np.int64)
                magnitudes = self._gf_matmul(
                    tables.field,
                    syndromes[row_array][:, : len(erasures)],
                    solver,
                )
                block = working[row_array]
                block[:, list(erasures)] ^= magnitudes
                working[row_array] = block
                repaired.extend(row_list)
            if repaired:
                row_array = np.asarray(sorted(repaired), dtype=np.int64)
                residual = self._syndrome_matrix(tables, working[row_array])
                still_dirty.update(row_array[residual.any(axis=1)].tolist())
            for row_index in sorted(still_dirty):
                unit = row_index // rows
                if unit in failed:
                    continue
                try:
                    working[row_index] = code.decode(
                        [int(value) for value in codewords[row_index]],
                        erasure_positions=erasure_of_unit[unit],
                    )
                except ReedSolomonError:
                    failed.add(unit)
        data_columns = (
            working.reshape(unit_count, rows, code.n)[:, :, : code.k]
            .transpose(0, 2, 1)
            .reshape(unit_count, code.k * rows)
        )
        packed = self._pack_symbols(data_columns, symbol_bits)
        return [
            None if unit in failed else bytes(packed[unit])
            for unit in range(unit_count)
        ]

    # ------------------------------------------------------------------
    # Symbol packing
    # ------------------------------------------------------------------
    def bytes_to_symbols(self, data: bytes, symbol_bits: int) -> list[int]:
        symbols_per_byte = 8 // symbol_bits
        mask = (1 << symbol_bits) - 1
        raw = np.frombuffer(bytes(data), dtype=np.uint8).astype(np.int32)
        shifts = np.arange(symbols_per_byte - 1, -1, -1, dtype=np.int32) * symbol_bits
        return ((raw[:, None] >> shifts[None, :]) & mask).ravel().tolist()

    def symbols_to_bytes(self, symbols: Sequence[int], symbol_bits: int) -> bytes:
        symbols_per_byte = 8 // symbol_bits
        values = np.asarray(symbols, dtype=np.int32)
        if values.size % symbols_per_byte != 0:
            raise DecodingError("symbol count does not align to byte boundary")
        grouped = values.reshape(-1, symbols_per_byte)
        shifts = np.arange(symbols_per_byte - 1, -1, -1, dtype=np.int32) * symbol_bits
        packed = np.bitwise_or.reduce(grouped << shifts[None, :], axis=1)
        return packed.astype(np.uint8).tobytes()
