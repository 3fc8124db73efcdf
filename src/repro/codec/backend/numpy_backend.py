"""Numpy kernels of the batched GF(2^m) / Reed-Solomon codec.

The scalar code path multiplies field elements one at a time through
exp/log tables.  These kernels lift the same tables into numpy arrays and
work on whole matrices:

* **Encode**: systematic RS encoding is linear over GF(2^m), so the parity
  of a message row is ``row @ P`` for a fixed ``k x (n-k)`` parity
  generator matrix ``P``.  ``P`` is derived once per code by encoding the
  ``k`` unit vectors with the scalar encoder — which also guarantees the
  vectorized output is byte-identical to the scalar reference.
* **Batched syndromes**: the syndrome vector of a row is ``row @ V`` for a
  fixed ``n x (n-k)`` matrix of primitive-element powers, so checking an
  entire partition's worth of codewords is one GF matrix product.
* **Error location in closed form**: a row with ``e`` erasures can hold
  at most ``(n - k - e) // 2`` errors, at most two for the paper's
  RS(15, 11).  Its Forney syndromes (its erasures' share removed, one
  small matrix per erasure pattern) locate them by the
  Peterson-Gorenstein-Zierler decoder (Peterson 1960; Gorenstein and
  Zierler 1961): one error is the ratio of two consecutive syndromes,
  two are a 2x2 solve and a Chien evaluation of the quadratic locator.
  Every step is an array pass over all dirty rows at once.
* **Errata solve**: once the errata positions of a row are fixed (its
  erasures plus the located errors), their magnitudes are a *linear*
  function of its syndromes, through one cached matrix per position set.
  All dirty rows are repaired by one batched product with their own
  matrices, and one more syndrome product checks them.

:func:`decode_units` runs a whole batch of units through these steps at
once and reports a unit it cannot correct as ``None``.  It is a
bounded-distance decoder, like the scalar
:meth:`repro.codec.reed_solomon.ReedSolomonCode.decode`: a row decodes
exactly when some codeword lies within ``(n - k - e) // 2`` changes of
its non-erased symbols, and then to that codeword (it is unique), so the
two agree on every verdict and every byte.  Only a row that can hold more
than two errors (codes with more than five parity symbols) still goes
through the scalar decoder.  :mod:`repro.codec.backend` calls these
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
    """Numpy views of a GaloisField's exp/log tables, and elementwise
    arithmetic over them."""

    def __init__(self, field: "GaloisField") -> None:
        self.exp = np.asarray(field._exp, dtype=np.int32)
        self.log = np.asarray(field._log, dtype=np.int32)
        self.order = field.max_value

    def multiply(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Elementwise product (broadcasting)."""
        product = self.exp[self.log[left] + self.log[right]]
        return np.where((left != 0) & (right != 0), product, 0)

    def divide(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Elementwise quotient; meaningless wherever ``right`` is 0."""
        quotient = self.exp[self.log[left] - self.log[right] + self.order]
        return np.where(left != 0, quotient, 0)


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
        #: Per-position-set solve matrices and per-erasure-pattern Forney
        #: matrices, built lazily.
        self._erasure_solvers: dict[tuple[int, ...], np.ndarray] = {}
        self._forney_matrices: dict[tuple[int, ...], np.ndarray] = {}

    def erasure_solver(self, code: "ReedSolomonCode", positions: tuple[int, ...]) -> np.ndarray:
        """The ``(n-k) x n`` matrix M with errata == syndromes @ M when a
        row's errata all sit at ``positions`` (sorted, at most ``n-k``;
        erased symbols read as 0): the row XOR its syndromes times M is
        the codeword."""
        solver = self._erasure_solvers.get(positions)
        if solver is not None:
            return solver
        gf = code.field
        e = len(positions)
        # The errata magnitudes E satisfy S_j = sum_i E_i * a_{j,i} with
        # a_{j,i} = alpha^((j + fcr) * (n - 1 - pos_i)); invert the leading
        # e x e system so E == S[:e] @ inv(A).T, and scatter magnitude i
        # to column pos_i.
        a = [
            [gf.power(gf.exp(j + code.fcr), code.n - 1 - pos) for pos in positions]
            for j in range(e)
        ]
        inverse = _gf_invert(gf, a)
        solver = np.zeros((code.parity_symbols, code.n), dtype=np.int32)
        for i, position in enumerate(positions):
            solver[:e, position] = inverse[i]
        self._erasure_solvers[positions] = solver
        return solver

    def forney_matrix(self, code: "ReedSolomonCode", erasures: tuple[int, ...]) -> np.ndarray:
        """The ``(n-k) x (n-k)`` matrix F whose product with a row's
        syndromes gives its Forney syndromes: the first ``n-k-e`` columns,
        free of the erasures' share (zero when there are ``n-k`` or more
        erasures).

        With erasure locators Z_i, T_j = sum_i g_i S_{j+i}, where g are
        the coefficients of prod_i (x + Z_i), lowest first; an error at
        locator X adds Y * prod_i (X + Z_i) * X^(j+fcr) to T_j, and an
        erasure nothing.
        """
        matrix = self._forney_matrices.get(erasures)
        if matrix is not None:
            return matrix
        gf = code.field
        nsym = code.parity_symbols
        locator = [1]
        for position in erasures:
            locator = gf.poly_multiply(locator, [1, gf.exp(code.n - 1 - position)])
        matrix = np.zeros((nsym, nsym), dtype=np.int32)
        for j in range(nsym - len(erasures)):
            for i, coefficient in enumerate(reversed(locator)):
                matrix[j + i, j] = coefficient
        self._forney_matrices[erasures] = matrix
        return matrix


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


def _gf_rowwise(tables: _FieldTables, rows: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Row r of the result is ``rows[r] @ matrices[r]`` over GF(2^m)."""
    terms = tables.exp[tables.log[rows][:, :, None] + tables.log[matrices]]
    mask = (rows != 0)[:, :, None] & (matrices != 0)
    return np.bitwise_xor.reduce(np.where(mask, terms, 0), axis=1)


def _locate_errors(
    tables: _FieldTables, n: int, forney: np.ndarray, capability: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peterson-Gorenstein-Zierler location of up to two errors per row.

    ``forney`` holds each row's Forney syndromes T (zero past its own
    count) and ``capability`` how many errors the row can hold.
    Returns ``(found, first, second)``: per row, whether its Forney
    syndromes fit some pattern of at most ``capability`` errors inside
    the code, and the positions of those errors (-1 for none).  A row
    whose syndromes are all zero has no errors; any other row that can
    hold more than two is not found.  When a codeword lies within reach
    of a row, the pattern found is its errors; a fit that no codeword
    confirms fails the caller's residual check.
    """
    count = len(forney)
    found = ~forney.any(axis=1)
    first = np.full(count, -1, dtype=np.int64)
    second = np.full(count, -1, dtype=np.int64)
    single = ~found & ((capability == 1) | (capability == 2))
    double = np.flatnonzero(~found & (capability == 2))
    if double.size:
        # Two errors with locators X1, X2 make (x + X1)(x + X2) =
        # x^2 + s1 x + s2 the locator: T_{j+2} = s1 T_{j+1} + s2 T_j for
        # j = 0, 1, a 2x2 system that is singular for fewer errors.
        t = forney[double, :4]
        determinant = tables.multiply(t[:, 1], t[:, 1]) ^ tables.multiply(t[:, 0], t[:, 2])
        two = determinant != 0
        double, determinant = double[two], determinant[two]
        t0, t1, t2, t3 = t[two].T
        single[double] = False
        s1 = tables.divide(tables.multiply(t1, t2) ^ tables.multiply(t0, t3), determinant)
        s2 = tables.divide(tables.multiply(t1, t3) ^ tables.multiply(t2, t2), determinant)
        # Chien search over the code's n locators alpha^c (position n-1-c).
        coefficients = np.arange(n)
        values = (
            tables.exp[2 * coefficients][None, :]
            ^ tables.multiply(s1[:, None], tables.exp[coefficients][None, :])
            ^ s2[:, None]
        )
        roots = values == 0
        hits = roots.sum(axis=1) == 2
        double = double[hits]
        pairs = np.nonzero(roots[hits])[1].reshape(-1, 2)
        first[double] = n - 1 - pairs[:, 1]
        second[double] = n - 1 - pairs[:, 0]
        found[double] = True
    lone = np.flatnonzero(single)
    if lone.size:
        # One error with locator X makes T_1 / T_0 = X.
        t0, t1 = forney[lone, 0], forney[lone, 1]
        coefficient = (tables.log[t1] - tables.log[t0]) % tables.order
        one = (t0 != 0) & (t1 != 0) & (coefficient < n)
        lone = lone[one]
        first[lone] = n - 1 - coefficient[one]
        found[lone] = True
    return found, first, second


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
    rows are touched.  Each dirty row gets its Forney syndromes from its
    unit's erasure pattern, its error positions in closed form
    (:func:`_locate_errors`), and its errata from one batched solve with
    the cached matrix of its erasures plus those errors; one residual
    syndrome product checks every solved row.  A unit with more erasures
    than parity symbols, or with a row no codeword lies within reach of,
    gives ``None``.  A row with errors that could hold more than two
    (at least ``6 + e`` parity symbols for ``e`` erasures) goes to the
    scalar ``ReedSolomonCode.decode`` instead.  See
    :func:`repro.codec.backend.decode_units` for the contract.
    """
    if not units_columns:
        return []
    tables = _tables_for_code(code)
    field = tables.field
    symbol_bits = code.symbol_bits
    nsym = code.parity_symbols
    payload_bytes = rows * symbol_bits // 8
    unit_count = len(units_columns)
    # Number the batch's erasure patterns (each unit's missing columns).
    pattern_ids: dict[tuple[int, ...], int] = {}
    pattern_of_unit = [
        pattern_ids.setdefault(
            tuple(c for c in range(code.n) if c not in columns), len(pattern_ids)
        )
        for columns in units_columns
    ]
    patterns = list(pattern_ids)
    failed = {
        unit
        for unit, pattern in enumerate(pattern_of_unit)
        if len(patterns[pattern]) > nsym
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
    # Erased columns hold zeros (missing molecules take a zero payload),
    # as every solve below expects.
    working = (
        _unpack_bytes(raw, symbol_bits)
        .transpose(0, 2, 1)
        .reshape(unit_count * rows, code.n)
    )
    syndromes = _gf_matmul(field, working, tables.syndrome_matrix)
    dirty = np.flatnonzero(syndromes.any(axis=1))
    if dirty.size:
        pattern_of_row = np.asarray(pattern_of_unit)[dirty // rows]
        # Errors a row can hold: (n-k-e) // 2, negative past n-k erasures.
        capability = np.asarray(
            [(nsym - len(erasures)) // 2 for erasures in patterns]
        )[pattern_of_row]
        live = capability >= 0
        solved, pattern_of_row = dirty[live], pattern_of_row[live]
        capability = capability[live]
        row_syndromes = syndromes[solved]
        forney = _gf_rowwise(
            field,
            row_syndromes,
            np.stack([tables.forney_matrix(code, erasures) for erasures in patterns])[
                pattern_of_row
            ],
        )
        found, first, second = _locate_errors(field, code.n, forney, capability)
        scalar = ~found & (capability > 2)
        scalar_rows = solved[scalar]
        failed.update((solved[~found & ~scalar] // rows).tolist())
        solved, row_syndromes = solved[found], row_syndromes[found]
        # One key per (erasure pattern, located errors); each distinct key
        # takes its solver from the per-position-set cache.
        width = code.n + 1
        keys = (
            pattern_of_row[found] * width + first[found] + 1
        ) * width + second[found] + 1
        distinct, which = np.unique(keys, return_inverse=True)
        solvers = []
        for key in distinct.tolist():
            errors = {key // width % width - 1, key % width - 1} - {-1}
            positions = set(patterns[key // (width * width)]) | errors
            solvers.append(tables.erasure_solver(code, tuple(sorted(positions))))
        if solvers:
            working[solved] ^= _gf_rowwise(
                field, row_syndromes, np.stack(solvers)[which]
            )
            residual = _gf_matmul(field, working[solved], tables.syndrome_matrix)
            failed.update((solved[residual.any(axis=1)] // rows).tolist())
        for row_index in scalar_rows.tolist():
            unit = row_index // rows
            if unit in failed:
                continue
            try:
                working[row_index] = code.decode(
                    [int(value) for value in working[row_index]],
                    erasure_positions=patterns[pattern_of_unit[unit]],
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
