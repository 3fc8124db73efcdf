"""The batched Reed-Solomon codec: whole encoding units in one call.

The paper's outer code runs row-wise across the molecules of an encoding
unit (Figure 1c): one Reed-Solomon codeword per row, one column per
molecule.  :func:`encode_units` and :func:`decode_units` take a whole
batch of units at once, so a partition (or the volume layer above it)
pushes every unit of a write or a read through one call.

Each call picks its path as the clustering and consensus kernels do,
through :func:`repro.fastpath.fused_kernels_enabled`, read per call:

* fused (the default) with numpy importable: the table-based kernels of
  :mod:`repro.codec.backend.numpy_backend` (whole-matrix encode, one
  syndrome product per batch, closed-form error location and one
  batched errata solve);
* otherwise (``REPRO_FUSED_KERNELS=0``, or no numpy): the scalar
  reference, :class:`repro.codec.reed_solomon.ReedSolomonCode` row by
  row with pure-Python symbol packing.

Both paths give **byte-identical** codewords, decodes and per-unit
verdicts; ``tests/test_codec_backends.py`` holds them to it across field
sizes, unit geometries and errata patterns.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.exceptions import ReedSolomonError
from repro.fastpath import fused_kernels_enabled

try:
    import numpy  # noqa: F401 - probes numpy; the kernels below import it
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    numpy_backend = None  # Both functions fall back to the scalar path.
else:
    from repro.codec.backend import numpy_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codec.reed_solomon import ReedSolomonCode


def encode_units(
    code: "ReedSolomonCode",
    padded_units: Sequence[bytes],
    *,
    rows: int,
) -> list[list[bytes]]:
    """Encode padded unit payloads into per-column molecule payloads.

    Each input is the gross data of one encoding unit (``k * rows``
    symbols packed column-major: molecule ``j`` holds symbols
    ``[j*rows, (j+1)*rows)``).  The result is, per unit, the list of
    ``n`` column payloads (data columns first, parity columns last).
    """
    if fused_kernels_enabled() and numpy_backend is not None:
        return numpy_backend.encode_units(code, padded_units, rows=rows)
    symbol_bits = code.symbol_bits
    results: list[list[bytes]] = []
    for unit in padded_units:
        symbols = _unpack(unit, symbol_bits)
        codewords = [
            code.encode([symbols[column * rows + row] for column in range(code.k)])
            for row in range(rows)
        ]
        results.append(
            [
                _pack([codeword[column] for codeword in codewords], symbol_bits)
                for column in range(code.n)
            ]
        )
    return results


def decode_units(
    code: "ReedSolomonCode",
    units_columns: Sequence[dict[int, bytes]],
    *,
    rows: int,
) -> list[bytes | None]:
    """Decode recovered column payloads back into gross unit data.

    Each input maps column index to that column's payload bytes;
    missing columns are treated as erasures shared by every row of the
    unit.  Returns, per unit, the concatenated data-column bytes
    (including padding; the caller truncates to the user length), or
    ``None`` when Reed-Solomon cannot correct the unit: more erasures
    than parity symbols, or a row with no codeword within reach (within
    ``(n - k - e) // 2`` changes of its ``n - e`` non-erased symbols).
    The other units of the batch decode regardless.
    """
    if fused_kernels_enabled() and numpy_backend is not None:
        return numpy_backend.decode_units(code, units_columns, rows=rows)
    symbol_bits = code.symbol_bits
    results: list[bytes | None] = []
    for columns in units_columns:
        erasures = [c for c in range(code.n) if c not in columns]
        matrix = [
            _unpack(columns[c], symbol_bits) if c in columns else [0] * rows
            for c in range(code.n)
        ]
        try:
            corrected = [
                code.decode([column[row] for column in matrix], erasures)
                for row in range(rows)
            ]
        except ReedSolomonError:
            results.append(None)
            continue
        results.append(
            _pack(
                [codeword[c] for c in range(code.k) for codeword in corrected],
                symbol_bits,
            )
        )
    return results


def _unpack(data: bytes, symbol_bits: int) -> list[int]:
    """Split bytes into fixed-width symbols, most significant bits first."""
    shifts = range(8 - symbol_bits, -1, -symbol_bits)
    mask = (1 << symbol_bits) - 1
    return [(byte >> shift) & mask for byte in data for shift in shifts]


def _pack(symbols: Sequence[int], symbol_bits: int) -> bytes:
    """Inverse of :func:`_unpack` (the symbol count fills whole bytes)."""
    per_byte = 8 // symbol_bits
    out = bytearray()
    for start in range(0, len(symbols), per_byte):
        value = 0
        for symbol in symbols[start : start + per_byte]:
            value = (value << symbol_bits) | symbol
        out.append(value)
    return bytes(out)


__all__ = ["decode_units", "encode_units"]
