"""Property-style equivalence tests for the batched codec backends.

Every available backend must produce byte-identical codewords, syndromes
and decodes — across field sizes (GF(16) and GF(256)), unit geometries,
and randomized erasure/error patterns — and the same per-unit verdicts
when a batch mixes units Reed-Solomon can and cannot correct.  The
pure-Python backend is the reference; when numpy is installed the
vectorized backend is held to its output bit for bit.

This file must not import numpy at module scope: it is part of the
no-numpy CI job, where only the fallback backend exists.
"""

import random

import pytest

from repro.codec.backend import available_backends, get_backend
from repro.codec.matrix_unit import EncodingUnit, UnitLayout
from repro.codec.reed_solomon import ReedSolomonCode, reed_solomon_code
from repro.exceptions import DecodingError, EncodingError, ReedSolomonError

#: (n, k, symbol_bits) of the Reed-Solomon codes under test.
RS_PARAMETERS = [
    (15, 11, 4),   # the wetlab configuration (GF(16))
    (15, 9, 4),    # more parity, GF(16)
    (255, 223, 8), # the classic GF(256) code
    (63, 45, 8),   # shortened GF(256)
]

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


def backend_pairs():
    """(reference, other) backend pairs to compare."""
    python = get_backend("python")
    return [(python, get_backend(name)) for name in available_backends()]


def random_rows(rng, count, width, symbol_bits):
    limit = 1 << symbol_bits
    return [[rng.randrange(limit) for _ in range(width)] for _ in range(count)]


@pytest.mark.parametrize("n,k,symbol_bits", RS_PARAMETERS)
def test_encode_rows_identical_across_backends(n, k, symbol_bits):
    rs = reed_solomon_code(n, k, symbol_bits=symbol_bits)
    rng = random.Random(n * 31 + k)
    rows = random_rows(rng, 25, k, symbol_bits)
    reference = get_backend("python").encode_rows(rs, rows)
    # Every row must equal the scalar encoder's output...
    for row, codeword in zip(rows, reference):
        assert codeword == rs.encode(row)
    # ...and every backend must equal the reference.
    for _, backend in backend_pairs():
        assert backend.encode_rows(rs, rows) == reference


@pytest.mark.parametrize("n,k,symbol_bits", RS_PARAMETERS)
def test_syndromes_and_erasure_decode_identical(n, k, symbol_bits):
    rs = reed_solomon_code(n, k, symbol_bits=symbol_bits)
    rng = random.Random(n * 17 + k)
    python = get_backend("python")
    codewords = python.encode_rows(rs, random_rows(rng, 20, k, symbol_bits))

    nsym = n - k
    for trial in range(4):
        erasures = sorted(rng.sample(range(n), rng.randrange(0, nsym + 1)))
        errors_budget = (nsym - len(erasures)) // 2
        corrupted = []
        for i, codeword in enumerate(codewords):
            received = list(codeword)
            for position in erasures:
                received[position] = rng.randrange(1 << symbol_bits)
            # Random errors on some rows, within the correction budget.
            if errors_budget and i % 3 == 0:
                error_positions = rng.sample(
                    [p for p in range(n) if p not in erasures],
                    rng.randrange(1, errors_budget + 1),
                )
                for position in error_positions:
                    received[position] ^= rng.randrange(1, 1 << symbol_bits)
            corrupted.append(received)

        reference_syndromes = python.syndromes_rows(rs, corrupted)
        reference_decode = python.decode_rows(rs, corrupted, erasures)
        assert reference_decode == codewords
        for _, backend in backend_pairs():
            assert backend.syndromes_rows(rs, corrupted) == reference_syndromes
            assert backend.decode_rows(rs, corrupted, erasures) == codewords


def test_decode_rows_raises_beyond_capability():
    rs = reed_solomon_code(15, 11, symbol_bits=4)
    rng = random.Random(99)
    codeword = rs.encode([rng.randrange(16) for _ in range(11)])
    # 5 erasures > 4 parity symbols: every backend must refuse.
    for _, backend in backend_pairs():
        with pytest.raises(ReedSolomonError):
            backend.decode_rows(rs, [codeword], [0, 1, 2, 3, 4])


def test_symbol_packing_roundtrip_identical():
    rng = random.Random(5)
    data = bytes(rng.randrange(256) for _ in range(96))
    for symbol_bits in (2, 4, 8):
        reference = get_backend("python").bytes_to_symbols(data, symbol_bits)
        for _, backend in backend_pairs():
            symbols = backend.bytes_to_symbols(data, symbol_bits)
            assert symbols == reference
            assert backend.symbols_to_bytes(symbols, symbol_bits) == data


@pytest.mark.parametrize("layout", LAYOUTS)
def test_unit_encode_identical_and_batch_consistent(layout):
    rng = random.Random(layout.user_data_bytes)
    units = [
        bytes(rng.randrange(256) for _ in range(layout.user_data_bytes))
        for _ in range(7)
    ]
    per_backend = []
    for name in available_backends():
        codec = EncodingUnit(layout=layout, backend=name)
        batch = codec.encode_batch(units)
        # Batch output matches one-at-a-time output on the same backend.
        assert batch == [codec.encode(unit) for unit in units]
        per_backend.append(batch)
    for other in per_backend[1:]:
        assert other == per_backend[0]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_unit_decode_roundtrip_with_random_erasures(layout):
    rng = random.Random(layout.payload_bytes * 7)
    units = [
        bytes(rng.randrange(256) for _ in range(layout.user_data_bytes))
        for _ in range(6)
    ]
    encoded = EncodingUnit(layout=layout, backend="python").encode_batch(units)
    total = layout.total_molecules
    # Drop a random (correctable) set of columns per unit; patterns differ
    # between units so the batch path must group by erasure set.
    received = []
    for columns in encoded:
        missing = set(rng.sample(range(total), rng.randrange(0, layout.ecc_molecules + 1)))
        received.append(
            {c: payload for c, payload in enumerate(columns) if c not in missing}
        )
    decoded_per_backend = []
    for name in available_backends():
        codec = EncodingUnit(layout=layout, backend=name)
        decoded = codec.decode_batch(received)
        assert decoded == [codec.decode(unit) for unit in received]
        decoded_per_backend.append(decoded)
    assert all(decoded == units for decoded in decoded_per_backend)


def test_unit_decode_with_corrupted_column_matches_across_backends():
    layout = UnitLayout()
    rng = random.Random(1234)
    unit = bytes(rng.randrange(256) for _ in range(layout.user_data_bytes))
    columns = EncodingUnit(layout=layout, backend="python").encode(unit)
    # Corrupt one full column (an error, not an erasure) and drop another.
    received = dict(enumerate(columns))
    received[3] = bytes((b ^ 0x5A) for b in received[3])
    del received[7]
    for name in available_backends():
        codec = EncodingUnit(layout=layout, backend=name)
        assert codec.decode(received) == unit


def test_unit_decode_batch_gives_none_exactly_where_decode_raises():
    """One batch mixing decodable and undecodable units, failures first, in
    the middle and last: each backend answers ``None`` for exactly the units
    ``decode()`` rejects, decodes the others as ``decode()`` and the python
    backend do, and gives every unit the verdict it gets alone.  A malformed
    column map fails the whole batch call with ``DecodingError``."""
    layout = UnitLayout()
    rng = random.Random(2718)
    python = EncodingUnit(layout=layout, backend="python")
    datas = [
        bytes(rng.randrange(256) for _ in range(layout.user_data_bytes))
        for _ in range(8)
    ]
    encoded = [dict(enumerate(columns)) for columns in python.encode_batch(datas)]

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
    reference = python.decode_batch(units)
    for name in available_backends():
        codec = EncodingUnit(layout=layout, backend=name)
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


def test_explicit_numpy_request_without_numpy_raises():
    if "numpy" in available_backends():
        pytest.skip("numpy is installed in this environment")
    with pytest.raises(EncodingError):
        get_backend("numpy")


def test_unknown_backend_rejected():
    with pytest.raises(EncodingError):
        get_backend("fortran")


def test_reed_solomon_code_factory_and_field_cache_share_instances():
    a = reed_solomon_code(15, 11, symbol_bits=4)
    b = reed_solomon_code(15, 11, symbol_bits=4)
    assert a is b
    assert ReedSolomonCode(15, 11, symbol_bits=4).field is a.field
