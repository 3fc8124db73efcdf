"""Tests for GF(2^m) arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codec.galois import GaloisField
from repro.exceptions import EncodingError

gf16_elements = st.integers(min_value=0, max_value=15)
gf16_nonzero = st.integers(min_value=1, max_value=15)
gf256_nonzero = st.integers(min_value=1, max_value=255)


@pytest.fixture(scope="module")
def gf16():
    return GaloisField.cached(4)


@pytest.fixture(scope="module")
def gf256():
    return GaloisField.cached(8)


class TestConstruction:
    def test_supported_sizes(self):
        for m in (2, 3, 4, 8, 12, 16):
            field = GaloisField(m)
            assert field.size == 2 ** m

    def test_unsupported_size_rejected(self):
        with pytest.raises(EncodingError):
            GaloisField(1)

    def test_non_primitive_polynomial_rejected(self):
        # x^4 + 1 is not primitive over GF(2).
        with pytest.raises(EncodingError):
            GaloisField(4, primitive_polynomial=0b10001)

    def test_cached_returns_same_instance(self):
        assert GaloisField.cached(4) is GaloisField.cached(4)


class TestFieldAxioms:
    @given(gf16_elements, gf16_elements)
    def test_addition_is_xor(self, a, b):
        gf = GaloisField.cached(4)
        assert gf.add(a, b) == a ^ b

    @given(gf16_elements)
    def test_additive_inverse_is_self(self, a):
        gf = GaloisField.cached(4)
        assert gf.add(a, a) == 0

    @given(gf16_elements, gf16_elements)
    def test_multiplication_commutative(self, a, b):
        gf = GaloisField.cached(4)
        assert gf.multiply(a, b) == gf.multiply(b, a)

    @given(gf16_elements, gf16_elements, gf16_elements)
    def test_multiplication_associative(self, a, b, c):
        gf = GaloisField.cached(4)
        assert gf.multiply(gf.multiply(a, b), c) == gf.multiply(a, gf.multiply(b, c))

    @given(gf16_elements, gf16_elements, gf16_elements)
    def test_distributivity(self, a, b, c):
        gf = GaloisField.cached(4)
        assert gf.multiply(a, gf.add(b, c)) == gf.add(
            gf.multiply(a, b), gf.multiply(a, c)
        )

    @given(gf16_elements)
    def test_multiplicative_identity(self, a):
        gf = GaloisField.cached(4)
        assert gf.multiply(a, 1) == a

    @given(gf16_nonzero)
    def test_inverse(self, a):
        gf = GaloisField.cached(4)
        assert gf.multiply(a, gf.inverse(a)) == 1

    @given(gf256_nonzero)
    def test_inverse_gf256(self, a):
        gf = GaloisField.cached(8)
        assert gf.multiply(a, gf.inverse(a)) == 1

    @given(gf16_nonzero, gf16_nonzero)
    def test_division_inverts_multiplication(self, a, b):
        gf = GaloisField.cached(4)
        assert gf.divide(gf.multiply(a, b), b) == a

    def test_division_by_zero(self, gf16):
        with pytest.raises(ZeroDivisionError):
            gf16.divide(3, 0)

    def test_inverse_of_zero(self, gf16):
        with pytest.raises(ZeroDivisionError):
            gf16.inverse(0)

    def test_log_of_zero(self, gf16):
        with pytest.raises(ValueError):
            gf16.log(0)

    @given(gf16_nonzero, st.integers(min_value=0, max_value=30))
    def test_power_matches_repeated_multiplication(self, a, exponent):
        gf = GaloisField.cached(4)
        expected = 1
        for _ in range(exponent):
            expected = gf.multiply(expected, a)
        assert gf.power(a, exponent) == expected

    def test_power_of_zero(self, gf16):
        assert gf16.power(0, 0) == 1
        assert gf16.power(0, 5) == 0

    def test_exp_log_roundtrip(self, gf16):
        for value in range(1, 16):
            assert gf16.exp(gf16.log(value)) == value


class TestPolynomials:
    def test_poly_eval_constant(self, gf16):
        assert gf16.poly_eval([7], 3) == 7

    def test_poly_eval_linear(self, gf16):
        # p(x) = x + 1 at x = 5 -> 5 ^ 1 = 4.
        assert gf16.poly_eval([1, 1], 5) == 4

    def test_poly_multiply_by_one(self, gf16):
        assert gf16.poly_multiply([3, 2, 1], [1]) == [3, 2, 1]

    def test_poly_add_differing_lengths(self, gf16):
        assert gf16.poly_add([1, 2, 3], [1]) == [1, 2, 2]

    def test_poly_scale(self, gf16):
        assert gf16.poly_scale([1, 2], 0) == [0, 0]

    def test_poly_divmod_exact(self, gf16):
        dividend = gf16.poly_multiply([1, 3], [1, 5])
        quotient, remainder = gf16.poly_divmod(dividend, [1, 3])
        assert remainder == [0] or set(remainder) == {0}
        assert quotient == [1, 5]

    @given(st.lists(gf16_elements, min_size=1, max_size=6), gf16_elements)
    def test_poly_multiply_evaluation_homomorphism(self, coefficients, x):
        gf = GaloisField.cached(4)
        other = [1, 7]
        product = gf.poly_multiply(coefficients, other)
        assert gf.poly_eval(product, x) == gf.multiply(
            gf.poly_eval(coefficients, x), gf.poly_eval(other, x)
        )


class TestTableCache:
    """Every field instance of one (m, polynomial) shares one exp/log table."""

    def test_instances_share_table_objects(self):
        a = GaloisField(4)
        b = GaloisField(4)
        assert a._exp is b._exp
        assert a._log is b._log

    def test_cached_constructor_shares_with_direct_construction(self):
        direct = GaloisField(8)
        cached = GaloisField.cached(8)
        assert direct._exp is cached._exp

    def test_distinct_fields_do_not_share(self):
        assert GaloisField(4)._exp is not GaloisField(8)._exp

    def test_python_and_numpy_backends_read_one_table_source(self):
        numpy = pytest.importorskip("numpy")
        from repro.codec.backend.numpy_backend import _FieldTables
        from repro.codec.reed_solomon import ReedSolomonCode

        code = ReedSolomonCode(15, 11, symbol_bits=4)
        tables = _FieldTables(code.field)
        # The python backend reads code.field._exp directly; the numpy
        # backend's arrays are views built from that same shared list.
        assert code.field._exp is GaloisField.cached(4)._exp
        assert tables.exp.tolist() == code.field._exp
        assert tables.log.tolist() == code.field._log
        assert numpy.array_equal(
            tables.exp[:16], numpy.array(GaloisField(4)._exp[:16])
        )
