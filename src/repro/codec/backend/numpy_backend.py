"""Numpy kernels of the batched GF(2^m) / Reed-Solomon codec.

The scalar code path multiplies field elements one at a time through
exp/log tables.  These kernels lift the same tables into numpy arrays and
perform three whole-matrix operations:

* **Encode**: systematic RS encoding is linear over GF(2^m), so the parity
  of a message row is ``row @ P`` for a fixed ``k x (n-k)`` parity
  generator matrix ``P``.  ``P`` is derived once per code by encoding the
  ``k`` unit vectors with the scalar encoder — which also guarantees the
  vectorized output is byte-identical to the scalar reference.
* **Batched syndromes**: the syndrome vector of a row is ``row @ V`` for a
  fixed ``n x (n-k)`` matrix of primitive-element powers, so checking an
  entire partition's worth of codewords is one GF matrix product.
* **Shared-position erasure solve**: a lost molecule erases the same
  column of every row of its unit.  For fixed erasure positions the error
  magnitudes are a *linear* function of the syndromes, so all rows are
  repaired with one more GF matrix product.  Rows whose syndromes remain
  nonzero (true errors at unknown locations) fall back to the scalar
  Berlekamp-Massey decoder, row by row.

:func:`decode_units` runs a whole batch of units through these steps at
once, with one syndrome product for all of them, and reports a unit it
cannot correct as ``None``.  :mod:`repro.codec.backend` calls these
kernels in the fused mode; its scalar path (``REPRO_FUSED_KERNELS=0``) is
their reference.

GF matrix products are computed with broadcast log-addition and an XOR
reduction; inputs are chunked so temporaries stay small.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ReedSolomonError

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


class _CodeTables:
    """Derived matrices for one RS(n, k) code."""

    def __init__(self, code: "ReedSolomonCode") -> None:
        self.field = _FieldTables(code.field)
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
        v = np.empty((code.n, code.parity_symbols), dtype=np.int32)
        for i in range(code.n):
            for j in range(code.parity_symbols):
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


#: One :class:`_CodeTables` per code geometry, built on first use.
_code_tables: dict[tuple[int, int, int, int, int], _CodeTables] = {}


def _tables_for_code(code: "ReedSolomonCode") -> _CodeTables:
    key = (code.n, code.k, code.symbol_bits, code.fcr, code.field.primitive_polynomial)
    tables = _code_tables.get(key)
    if tables is None:
        tables = _code_tables[key] = _CodeTables(code)
    return tables


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


def _unpack_bytes(raw: np.ndarray, symbol_bits: int) -> np.ndarray:
    """uint8 array (..., B) -> int32 symbol array (..., B * 8/bits)."""
    symbols_per_byte = 8 // symbol_bits
    mask = (1 << symbol_bits) - 1
    shifts = np.arange(symbols_per_byte - 1, -1, -1, dtype=np.int32) * symbol_bits
    expanded = (raw[..., None].astype(np.int32) >> shifts) & mask
    return expanded.reshape(*raw.shape[:-1], raw.shape[-1] * symbols_per_byte)


def _pack_symbols(symbols: np.ndarray, symbol_bits: int) -> np.ndarray:
    """int32 symbol array (..., S) -> uint8 array (..., S * bits/8)."""
    symbols_per_byte = 8 // symbol_bits
    shifts = np.arange(symbols_per_byte - 1, -1, -1, dtype=np.int32) * symbol_bits
    grouped = symbols.reshape(*symbols.shape[:-1], -1, symbols_per_byte)
    return np.bitwise_or.reduce(grouped << shifts, axis=-1).astype(np.uint8)


def encode_units(
    code: "ReedSolomonCode",
    padded_units: Sequence[bytes],
    *,
    rows: int,
) -> list[list[bytes]]:
    """Every unit of a batch through **one** parity matmul.

    See :func:`repro.codec.backend.encode_units` for the contract.
    """
    if not padded_units:
        return []
    tables = _tables_for_code(code)
    unit_count = len(padded_units)
    raw = np.frombuffer(b"".join(padded_units), dtype=np.uint8)
    # Column-major unit layout: molecule j holds symbols [j*rows, (j+1)*rows).
    symbols = _unpack_bytes(raw.reshape(unit_count, -1), code.symbol_bits)
    data = (
        symbols.reshape(unit_count, code.k, rows)
        .transpose(0, 2, 1)
        .reshape(unit_count * rows, code.k)
    )
    parity = _gf_matmul(tables.field, data, tables.parity_matrix)
    codewords = np.hstack((data, parity))
    columns = codewords.reshape(unit_count, rows, code.n).transpose(0, 2, 1)
    packed = _pack_symbols(columns, code.symbol_bits)
    return [[bytes(column) for column in unit] for unit in packed]


def decode_units(
    code: "ReedSolomonCode",
    units_columns: Sequence[dict[int, bytes]],
    *,
    rows: int,
) -> list[bytes | None]:
    """All units of a batch through **one** syndrome matmul.

    Every unit is unpacked into one codeword matrix, every row's
    syndromes come from a single GF matrix product, and only the dirty
    rows are touched: each erasure pattern's linear solve runs over
    just its dirty rows, one shared residual-syndrome pass re-checks
    everything repaired, and only rows still failing fall back to the
    scalar Berlekamp-Massey reference.  A unit with more erasures than
    parity symbols, or with a row the scalar decoder rejects, gives
    ``None``; its remaining rows are skipped.  See
    :func:`repro.codec.backend.decode_units` for the contract.
    """
    if not units_columns:
        return []
    tables = _tables_for_code(code)
    symbol_bits = code.symbol_bits
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
        _unpack_bytes(raw, symbol_bits)
        .transpose(0, 2, 1)
        .reshape(unit_count * rows, code.n)
    )
    working = codewords.copy()
    syndromes = _gf_matmul(tables.field, working, tables.syndrome_matrix)
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
            magnitudes = _gf_matmul(
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
            residual = _gf_matmul(
                tables.field, working[row_array], tables.syndrome_matrix
            )
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
    packed = _pack_symbols(data_columns, symbol_bits)
    return [
        None if unit in failed else bytes(packed[unit])
        for unit in range(unit_count)
    ]
