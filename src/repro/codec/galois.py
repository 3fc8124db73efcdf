"""Galois-field arithmetic GF(2^m) for Reed-Solomon coding.

The wetlab configuration of the paper uses 4-bit Reed-Solomon symbols
(GF(16), codewords of 15 symbols); larger configurations use GF(256).  This
module provides log/antilog-table based arithmetic for any ``2 <= m <= 16``
together with polynomial helpers needed by the Reed-Solomon code.
"""

from __future__ import annotations

from functools import lru_cache

from repro.exceptions import EncodingError

#: Default primitive polynomials (as integers, including the top bit) for
#: each supported field size.  These are the conventional choices.
_PRIMITIVE_POLYNOMIALS: dict[int, int] = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,            # x^4 + x + 1
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,        # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}

#: Module-scope exp/log tables keyed by ``(m, primitive_polynomial)``.
#: Every :class:`GaloisField` built for the same field — no matter how it
#: was constructed or wrapped by a codec backend — binds the *same* list
#: objects, so the tables exist once per process and the python and numpy
#: backends provably read one table source.
_TABLE_CACHE: dict[tuple[int, int], tuple[list[int], list[int]]] = {}


class GaloisField:
    """Arithmetic in GF(2^m) using exp/log tables.

    >>> gf = GaloisField(4)
    >>> gf.multiply(7, 9)
    8
    >>> gf.divide(gf.multiply(7, 9), 9)
    7
    """

    def __init__(self, m: int, primitive_polynomial: int | None = None) -> None:
        if m not in _PRIMITIVE_POLYNOMIALS:
            raise EncodingError(f"unsupported field exponent m={m}")
        self.m = m
        self.size = 1 << m
        self.max_value = self.size - 1
        self.primitive_polynomial = (
            primitive_polynomial
            if primitive_polynomial is not None
            else _PRIMITIVE_POLYNOMIALS[m]
        )
        self._exp: list[int]
        self._log: list[int]
        self._build_tables()

    @classmethod
    def cached(cls, m: int, primitive_polynomial: int | None = None) -> "GaloisField":
        """Return a shared field instance per ``(m, primitive_polynomial)``.

        Building the exp/log tables costs O(2^m); every consumer that can
        share a field (Reed-Solomon codes, codec backends) should go
        through this constructor so the tables are built once per process.
        ``None`` is normalized to the default polynomial for ``m`` before
        keying the cache, so ``cached(4)`` and ``cached(4, 0b10011)`` share
        one instance.
        """
        if primitive_polynomial is None:
            if m not in _PRIMITIVE_POLYNOMIALS:
                raise EncodingError(f"unsupported field exponent m={m}")
            primitive_polynomial = _PRIMITIVE_POLYNOMIALS[m]
        return cls._cached(m, primitive_polynomial)

    @classmethod
    @lru_cache(maxsize=None)
    def _cached(cls, m: int, primitive_polynomial: int) -> "GaloisField":
        return cls(m, primitive_polynomial)

    def _build_tables(self) -> None:
        key = (self.m, self.primitive_polynomial)
        cached = _TABLE_CACHE.get(key)
        if cached is not None:
            self._exp, self._log = cached
            return
        self._exp = [0] * (2 * self.size)
        self._log = [0] * self.size
        value = 1
        for power in range(self.max_value):
            self._exp[power] = value
            self._log[value] = power
            value <<= 1
            if value & self.size:
                value ^= self.primitive_polynomial
        if value != 1:
            raise EncodingError(
                "polynomial is not primitive for GF(2^%d)" % self.m
            )
        # Duplicate the exp table so that exp[i + j] never needs a modulo.
        for power in range(self.max_value, 2 * self.size):
            self._exp[power] = self._exp[power - self.max_value]
        _TABLE_CACHE[key] = (self._exp, self._log)

    # ------------------------------------------------------------------
    # Element arithmetic
    # ------------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        """Addition in GF(2^m) (bitwise XOR)."""
        return a ^ b

    subtract = add

    def multiply(self, a: int, b: int) -> int:
        """Multiplication in GF(2^m)."""
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def divide(self, a: int, b: int) -> int:
        """Division in GF(2^m); raises on division by zero."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^m)")
        if a == 0:
            return 0
        return self._exp[self._log[a] - self._log[b] + self.max_value]

    def power(self, a: int, exponent: int) -> int:
        """Return ``a`` raised to ``exponent`` in GF(2^m)."""
        if a == 0:
            if exponent == 0:
                return 1
            if exponent < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0
        log_a = self._log[a]
        return self._exp[(log_a * exponent) % self.max_value]

    def inverse(self, a: int) -> int:
        """Return the multiplicative inverse of ``a``."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^m)")
        return self._exp[self.max_value - self._log[a]]

    def exp(self, power: int) -> int:
        """Return alpha**power for the field's primitive element alpha."""
        return self._exp[power % self.max_value]

    def log(self, a: int) -> int:
        """Return the discrete log (base alpha) of nonzero ``a``."""
        if a == 0:
            raise ValueError("log(0) is undefined")
        return self._log[a]

    # ------------------------------------------------------------------
    # Polynomial arithmetic (polynomials are lists of coefficients,
    # highest-degree term first, matching the Reed-Solomon literature).
    # ------------------------------------------------------------------
    def poly_add(self, p: list[int], q: list[int]) -> list[int]:
        """Add two polynomials over GF(2^m)."""
        result = [0] * max(len(p), len(q))
        result[len(result) - len(p):] = p
        for i, coefficient in enumerate(q):
            result[i + len(result) - len(q)] ^= coefficient
        return result

    def poly_multiply(self, p: list[int], q: list[int]) -> list[int]:
        """Multiply two polynomials over GF(2^m)."""
        result = [0] * (len(p) + len(q) - 1)
        for i, pc in enumerate(p):
            if pc == 0:
                continue
            for j, qc in enumerate(q):
                if qc == 0:
                    continue
                result[i + j] ^= self.multiply(pc, qc)
        return result

    def poly_scale(self, p: list[int], factor: int) -> list[int]:
        """Multiply every coefficient of ``p`` by ``factor``."""
        return [self.multiply(coefficient, factor) for coefficient in p]

    def poly_eval(self, p: list[int], x: int) -> int:
        """Evaluate polynomial ``p`` at ``x`` using Horner's method."""
        result = 0
        for coefficient in p:
            result = self.multiply(result, x) ^ coefficient
        return result

    def poly_divmod(self, dividend: list[int], divisor: list[int]) -> tuple[list[int], list[int]]:
        """Return quotient and remainder of polynomial division."""
        output = list(dividend)
        normalizer = divisor[0]
        for i in range(len(dividend) - len(divisor) + 1):
            output[i] = self.divide(output[i], normalizer)
            coefficient = output[i]
            if coefficient != 0:
                for j in range(1, len(divisor)):
                    if divisor[j] != 0:
                        output[i + j] ^= self.multiply(divisor[j], coefficient)
        separator = len(dividend) - len(divisor) + 1
        return output[:separator], output[separator:]
