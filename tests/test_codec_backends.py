"""Property-style equivalence tests for the two paths of the batched codec.

``repro.codec.backend.encode_units`` / ``decode_units`` run the numpy
kernels in the fused mode (the default) and the scalar Reed-Solomon code
under ``REPRO_FUSED_KERNELS=0``.  Both modes must produce byte-identical
codewords and decodes — across field sizes (GF(4), GF(16) and GF(256)),
unit geometries, and randomized erasure/error patterns — and the same
per-unit verdicts when a batch mixes units Reed-Solomon can and cannot
correct.  The scalar mode is the reference; when numpy is installed the
fused mode is held to its output bit for bit, its syndrome product
must equal the scalar syndromes, and it must repair erasures and locate
up to two errors per row without the scalar decoder.

This file must not import numpy at module scope: it is part of the
no-numpy CI job, where both modes run the scalar path.
"""

import random
from contextlib import contextmanager

import pytest

from repro.codec import backend
from repro.codec.backend import decode_units, encode_units
from repro.codec.matrix_unit import EncodingUnit, UnitLayout
from repro.codec.reed_solomon import ReedSolomonCode, reed_solomon_code
from repro.exceptions import DecodingError, ReedSolomonError

#: (n, k, symbol_bits) of the Reed-Solomon codes under test.
RS_PARAMETERS = [
    (15, 11, 4),   # the wetlab configuration (GF(16))
    (15, 9, 4),    # more parity, GF(16)
    (255, 223, 8), # the classic GF(256) code
    (63, 45, 8),   # shortened GF(256)
    (3, 1, 2),     # GF(4): four symbols per byte
]

#: Codeword rows per unit; a multiple of 4 so every symbol width packs.
ROWS = 8

#: Kernel modes: fused (numpy when importable) and the scalar reference.
MODES = ("1", "0")

#: Unit geometries: the paper's default plus smaller GF(16)/GF(256) ones.
LAYOUTS = [
    UnitLayout(),
    UnitLayout(
        data_molecules=5,
        ecc_molecules=3,
        payload_bytes=8,
        symbol_bits=4,
        user_data_bytes=36,
    ),
    UnitLayout(
        data_molecules=10,
        ecc_molecules=4,
        payload_bytes=16,
        symbol_bits=8,
        user_data_bytes=152,
    ),
]


@contextmanager
def kernels(fused):
    """Run the block under ``REPRO_FUSED_KERNELS=fused``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_FUSED_KERNELS", fused)
        yield


def symbols_of(data, symbol_bits):
    """Bytes as symbols, most significant bits first."""
    per_byte = 8 // symbol_bits
    mask = (1 << symbol_bits) - 1
    return [
        (byte >> (symbol_bits * (per_byte - 1 - i))) & mask
        for byte in data
        for i in range(per_byte)
    ]


def payload_of(symbols, symbol_bits):
    """Inverse of :func:`symbols_of`."""
    per_byte = 8 // symbol_bits
    return bytes(
        sum(
            symbol << (symbol_bits * (per_byte - 1 - i))
            for i, symbol in enumerate(symbols[start : start + per_byte])
        )
        for start in range(0, len(symbols), per_byte)
    )


def random_units(rng, count, size):
    return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(count)]


@pytest.mark.parametrize("n,k,symbol_bits", RS_PARAMETERS)
def test_encode_units_identical_across_modes(n, k, symbol_bits):
    rs = reed_solomon_code(n, k, symbol_bits=symbol_bits)
    rng = random.Random(n * 31 + k)
    units = random_units(rng, 4, k * ROWS * symbol_bits // 8)
    with kernels("0"):
        reference = encode_units(rs, units, rows=ROWS)
    for unit, columns in zip(units, reference):
        # Data columns carry the unit's bytes unchanged (systematic code)...
        assert b"".join(columns[:k]) == unit
        # ...and every row equals the scalar encoder's output.
        symbols = symbols_of(unit, symbol_bits)
        column_symbols = [symbols_of(column, symbol_bits) for column in columns]
        for row in range(ROWS):
            data_row = [symbols[column * ROWS + row] for column in range(k)]
            assert [column[row] for column in column_symbols] == rs.encode(data_row)
    with kernels("1"):
        assert encode_units(rs, units, rows=ROWS) == reference


@pytest.mark.parametrize("n,k,symbol_bits", RS_PARAMETERS)
def test_erasure_and_error_decode_identical(n, k, symbol_bits):
    rs = reed_solomon_code(n, k, symbol_bits=symbol_bits)
    rng = random.Random(n * 17 + k)
    nsym = n - k
    units = random_units(rng, 3, k * ROWS * symbol_bits // 8)
    with kernels("0"):
        encoded = encode_units(rs, units, rows=ROWS)

    for trial in range(4):
        received = []
        for columns in encoded:
            # A random erasure pattern per unit, so the fused path must
            # group rows by pattern.
            erasures = set(rng.sample(range(n), rng.randrange(0, nsym + 1)))
            errors_budget = (nsym - len(erasures)) // 2
            matrix = [symbols_of(column, symbol_bits) for column in columns]
            # Random errors on some rows, within the correction budget.
            error_rows = range(0, ROWS, 3) if errors_budget else ()
            for row in error_rows:
                positions = rng.sample(
                    [p for p in range(n) if p not in erasures],
                    rng.randrange(1, errors_budget + 1),
                )
                for position in positions:
                    matrix[position][row] ^= rng.randrange(1, 1 << symbol_bits)
            received.append(
                {
                    c: payload_of(symbols, symbol_bits)
                    for c, symbols in enumerate(matrix)
                    if c not in erasures
                }
            )
        for fused in MODES:
            with kernels(fused):
                assert decode_units(rs, received, rows=ROWS) == units


@pytest.mark.parametrize("n,k,symbol_bits", RS_PARAMETERS)
def test_syndrome_matrix_matches_scalar_syndromes(n, k, symbol_bits):
    """The fused decode picks its dirty rows from one product with the
    code's syndrome matrix; on clean and corrupted rows alike that product
    must equal the scalar decoder's syndromes."""
    numpy_backend = backend.numpy_backend
    if numpy_backend is None:
        pytest.skip("numpy is not installed: the codec has no syndrome matrix")
    import numpy as np

    rs = reed_solomon_code(n, k, symbol_bits=symbol_bits)
    rng = random.Random(n * 13 + k)
    rows = []
    for index in range(20):
        row = rs.encode([rng.randrange(1 << symbol_bits) for _ in range(k)])
        # Every fourth row stays a codeword; the others get 1..n-k errata.
        if index % 4:
            for position in rng.sample(range(n), rng.randrange(1, n - k + 1)):
                row[position] ^= rng.randrange(1, 1 << symbol_bits)
        rows.append(row)
    tables = numpy_backend._tables_for_code(rs)
    product = numpy_backend._gf_matmul(
        tables.field, np.asarray(rows, dtype=np.int32), tables.syndrome_matrix
    )
    assert product.tolist() == [rs._syndromes(row)[1:] for row in rows]


@pytest.mark.parametrize("n,k,symbol_bits", RS_PARAMETERS)
def test_fused_decode_repairs_erasures_without_the_scalar_decoder(
    n, k, symbol_bits, monkeypatch
):
    """Lost columns alone are repaired by the syndrome product and the
    shared-erasure solve; a wrong syndrome or solve matrix would send the
    rows to ``ReedSolomonCode.decode``, which is made to raise here."""
    if backend.numpy_backend is None:
        pytest.skip("numpy is not installed: both modes run the scalar path")
    rs = reed_solomon_code(n, k, symbol_bits=symbol_bits)
    rng = random.Random(n * 23 + k)
    units = random_units(rng, 6, k * ROWS * symbol_bits // 8)
    with kernels("0"):
        encoded = encode_units(rs, units, rows=ROWS)
    received = []
    for index, columns in enumerate(encoded):
        # The first unit loses every parity symbol's worth of columns.
        count = n - k if index == 0 else rng.randrange(1, n - k + 1)
        missing = set(rng.sample(range(n), count))
        received.append(
            {c: payload for c, payload in enumerate(columns) if c not in missing}
        )

    def refuse(self, *args, **kwargs):
        raise AssertionError("an erasure-only row reached the scalar decoder")

    monkeypatch.setattr(ReedSolomonCode, "decode", refuse)
    with kernels("1"):
        assert decode_units(rs, received, rows=ROWS) == units


@pytest.mark.parametrize("n,k,symbol_bits", [(15, 11, 4), (3, 1, 2)])
def test_fused_decode_locates_errors_without_the_scalar_decoder(
    n, k, symbol_bits, monkeypatch
):
    """Rows with errors at unknown positions get them in closed form: with
    ``ReedSolomonCode.decode`` made to raise, the fused mode gives every
    unit the scalar mode's answer, ``None`` included.  Each unit loses 0-4
    columns and takes 0-4 errors per row, so some rows are beyond
    capability: the scalar mode refuses some units and miscorrects others."""
    if backend.numpy_backend is None:
        pytest.skip("numpy is not installed: both modes run the scalar path")
    rs = reed_solomon_code(n, k, symbol_bits=symbol_bits)
    rng = random.Random(n * 29 + k)
    units = random_units(rng, 150, k * ROWS * symbol_bits // 8)
    with kernels("0"):
        encoded = encode_units(rs, units, rows=ROWS)
    received = []
    for columns in encoded:
        erasures = set(rng.sample(range(n), min(n, rng.randrange(0, 5))))
        kept = [p for p in range(n) if p not in erasures]
        most = rng.randrange(0, 5)  # this unit's most errors in one row
        matrix = [symbols_of(column, symbol_bits) for column in columns]
        for row in range(ROWS):
            count = min(len(kept), rng.randrange(0, most + 1))
            for position in rng.sample(kept, count):
                matrix[position][row] ^= rng.randrange(1, 1 << symbol_bits)
        received.append(
            {
                c: payload_of(symbols, symbol_bits)
                for c, symbols in enumerate(matrix)
                if c not in erasures
            }
        )
    with kernels("0"):
        reference = decode_units(rs, received, rows=ROWS)
    outcomes = {
        "refused" if got is None else "decoded" if got == data else "miscorrected"
        for got, data in zip(reference, units)
    }
    assert outcomes == {"refused", "decoded", "miscorrected"}

    def refuse(self, *args, **kwargs):
        raise AssertionError("a row reached the scalar decoder")

    monkeypatch.setattr(ReedSolomonCode, "decode", refuse)
    with kernels("1"):
        assert decode_units(rs, received, rows=ROWS) == reference


def test_decode_units_gives_none_beyond_capability():
    rs = reed_solomon_code(15, 11, symbol_bits=4)
    rng = random.Random(99)
    units = random_units(rng, 2, 11 * ROWS // 2)
    with kernels("0"):
        encoded = encode_units(rs, units, rows=ROWS)
    # 5 erasures > 4 parity symbols: every mode must refuse that unit.
    received = [dict(enumerate(columns)) for columns in encoded]
    for column in range(5):
        del received[0][column]
    for fused in MODES:
        with kernels(fused):
            assert decode_units(rs, received, rows=ROWS) == [None, units[1]]


def test_each_mode_runs_one_codec_path(monkeypatch):
    """The fused mode calls the numpy kernels; ``REPRO_FUSED_KERNELS=0``
    never does, and still gives the same bytes."""
    numpy_backend = backend.numpy_backend
    if numpy_backend is None:
        pytest.skip("numpy is not installed: both modes run the scalar path")
    codec = EncodingUnit()
    rng = random.Random(7)
    datas = random_units(rng, 3, codec.layout.user_data_bytes)
    received = [dict(enumerate(columns)) for columns in codec.encode_batch(datas)]
    del received[1][4]

    calls = []
    for name in ("encode_units", "decode_units"):
        kernel = getattr(numpy_backend, name)

        def counted(*args, _kernel=kernel, _name=name, **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(numpy_backend, name, counted)
    with kernels("1"):
        encoded = codec.encode_batch(datas)
        assert codec.decode_batch(received) == datas
    assert calls == ["encode_units", "decode_units"]

    def refuse(*args, **kwargs):
        raise AssertionError("numpy codec kernel called with REPRO_FUSED_KERNELS=0")

    monkeypatch.setattr(numpy_backend, "encode_units", refuse)
    monkeypatch.setattr(numpy_backend, "decode_units", refuse)
    with kernels("0"):
        assert codec.encode_batch(datas) == encoded
        assert codec.decode_batch(received) == datas


@pytest.mark.parametrize("layout", LAYOUTS)
def test_unit_encode_identical_and_batch_consistent(layout):
    rng = random.Random(layout.user_data_bytes)
    units = random_units(rng, 7, layout.user_data_bytes)
    codec = EncodingUnit(layout=layout)
    per_mode = []
    for fused in MODES:
        with kernels(fused):
            batch = codec.encode_batch(units)
            # Batch output matches one-at-a-time output in the same mode.
            assert batch == [codec.encode(unit) for unit in units]
        per_mode.append(batch)
    assert per_mode[0] == per_mode[1]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_unit_decode_roundtrip_with_random_erasures(layout):
    rng = random.Random(layout.payload_bytes * 7)
    units = random_units(rng, 6, layout.user_data_bytes)
    codec = EncodingUnit(layout=layout)
    with kernels("0"):
        encoded = codec.encode_batch(units)
    total = layout.total_molecules
    # Drop a random (correctable) set of columns per unit; patterns differ
    # between units so the batch path must group by erasure set.
    received = []
    for columns in encoded:
        missing = set(rng.sample(range(total), rng.randrange(0, layout.ecc_molecules + 1)))
        received.append(
            {c: payload for c, payload in enumerate(columns) if c not in missing}
        )
    for fused in MODES:
        with kernels(fused):
            decoded = codec.decode_batch(received)
            assert decoded == [codec.decode(unit) for unit in received]
        assert decoded == units


def test_unit_decode_with_corrupted_column_matches_across_modes():
    layout = UnitLayout()
    rng = random.Random(1234)
    unit = bytes(rng.randrange(256) for _ in range(layout.user_data_bytes))
    codec = EncodingUnit(layout=layout)
    with kernels("0"):
        columns = codec.encode(unit)
    # Corrupt one full column (an error, not an erasure) and drop another.
    received = dict(enumerate(columns))
    received[3] = bytes((b ^ 0x5A) for b in received[3])
    del received[7]
    for fused in MODES:
        with kernels(fused):
            assert codec.decode(received) == unit


def test_unit_decode_batch_gives_none_exactly_where_decode_raises():
    """One batch mixing decodable and undecodable units, failures first, in
    the middle and last: each mode answers ``None`` for exactly the units
    ``decode()`` rejects, decodes the others as ``decode()`` and the scalar
    mode do, and gives every unit the verdict it gets alone.  A malformed
    column map fails the whole batch call with ``DecodingError``."""
    layout = UnitLayout()
    rng = random.Random(2718)
    codec = EncodingUnit(layout=layout)
    datas = random_units(rng, 8, layout.user_data_bytes)
    with kernels("0"):
        encoded = [dict(enumerate(columns)) for columns in codec.encode_batch(datas)]

    def received(index, *, corrupted=(), missing=(), extra=None):
        columns = dict(encoded[index])
        for column in corrupted:
            columns[column] = bytes(b ^ rng.randrange(1, 256) for b in columns[column])
        for column in missing:
            del columns[column]
        columns.update(extra or {})
        return columns

    cases = [
        # Three errors per row and an erasure: beyond RS(15, 11).
        (received(0, corrupted=(2, 7, 11), missing=(4,)), ReedSolomonError),
        (received(1), None),
        (received(2, missing=(0, 5, 12, 14)), None),
        (received(3, missing=(0, 1, 2, 3, 4)), ReedSolomonError),
        (received(4, corrupted=(3,), missing=(7,)), None),
        # Three errors per row: beyond RS(15, 11).
        (received(5, corrupted=(1, 6, 13)), ReedSolomonError),
    ]
    malformed = [
        received(6, extra={15: encoded[6][0]}),
        received(7, extra={9: encoded[7][9][:-1]}),
    ]
    units = [columns for columns, _ in cases]
    with kernels("0"):
        reference = codec.decode_batch(units)
    for fused in MODES:
        with kernels(fused):
            decoded = codec.decode_batch(units)
            assert [unit is None for unit in decoded] == [
                error is not None for _, error in cases
            ]
            assert decoded == reference
            assert decoded == [codec.decode_batch([columns])[0] for columns in units]
            for unit, data, (columns, error) in zip(decoded, datas, cases):
                if error is None:
                    assert unit == codec.decode(columns) == data
                else:
                    with pytest.raises(error):
                        codec.decode(columns)
            for columns in malformed:
                with pytest.raises(DecodingError):
                    codec.decode_batch([units[1], columns, units[0]])
                with pytest.raises(DecodingError):
                    codec.decode(columns)


def test_reed_solomon_code_factory_and_field_cache_share_instances():
    a = reed_solomon_code(15, 11, symbol_bits=4)
    b = reed_solomon_code(15, 11, symbol_bits=4)
    assert a is b
    assert ReedSolomonCode(15, 11, symbol_bits=4).field is a.field
