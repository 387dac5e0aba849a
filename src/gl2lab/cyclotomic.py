"""Exact arithmetic in cyclotomic fields Q(zeta_M) = Q[x] / Phi_M(x).

Character values of abelian groups of exponent dividing M live here.
Phi_M is computed by the recursive division x^M - 1 = prod_{d | M} Phi_d.
Only ring operations and division by rational scalars are needed by the
character-theoretic traces, so no field inversion is implemented.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .poly import add, divide, mul


@lru_cache(maxsize=None)
def cyclotomic_polynomial(M: int):
    """Coefficients of Phi_M, ascending, as a tuple of ints."""
    if M < 1:
        raise DomainError("M must be >= 1")
    f = [-1] + [0] * (M - 1) + [1]  # x^M - 1
    for d in range(1, M):
        if M % d == 0:
            f, rem = divide(f, cyclotomic_polynomial(d))
            if any(rem):
                raise AssertionError(f"Phi_{d} leaves remainder {rem}")
    return tuple(f)


@lru_cache(maxsize=None)
def _reduction_rows(M: int):
    """x^k mod Phi_M for deg <= k < max(2 deg - 1, M), as int vectors.

    That covers every product of two reduced vectors and every zeta_M^k.
    """
    phi = cyclotomic_polynomial(M)
    deg = len(phi) - 1
    return deg, {k: tuple(divide((0,) * k + (1,), phi)[1])
                 for k in range(deg, max(2 * deg - 1, M, deg + 1))}


class CyclotomicValue:
    """Element of Q(zeta_M), stored as a vector modulo Phi_M."""

    __slots__ = ("M", "coeffs")

    def __init__(self, M, coeffs):
        deg, rows = _reduction_rows(M)
        if len(coeffs) > deg + len(rows):  # past the rows: divide by Phi_M
            coeffs = divide([Fraction(c) for c in coeffs],
                            cyclotomic_polynomial(M))[1]
        out = [Fraction(0)] * deg
        for k, c in enumerate(coeffs):
            c = Fraction(c)
            if c == 0:
                continue
            if k < deg:
                out[k] += c
            else:
                for j, rj in enumerate(rows[k]):
                    out[j] += c * rj
        self.M = M
        self.coeffs = tuple(out)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def rational(cls, M, value):
        return cls(M, (Fraction(value),))

    @classmethod
    def zeta(cls, M, k=1):
        """zeta_M^k."""
        return cls(M, (0,) * (k % M) + (1,))

    # -- arithmetic -----------------------------------------------------------

    def _common(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicValue.rational(self.M, other)
        if self.M != other.M:
            raise DomainError("mixed cyclotomic orders")
        return other

    def __add__(self, other):
        other = self._common(other)
        return CyclotomicValue(self.M, add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicValue(self.M, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._common(other))

    def __rsub__(self, other):
        return self._common(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicValue(self.M, tuple(a * Fraction(other)
                                                 for a in self.coeffs))
        other = self._common(other)
        return CyclotomicValue(self.M, mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / Fraction(scalar))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicValue.rational(self.M, other)
        if not isinstance(other, CyclotomicValue):
            return NotImplemented
        return self.M == other.M and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.M, self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def as_rational(self) -> Fraction:
        """The value as a Fraction; raises if it is irrational."""
        if any(c != 0 for c in self.coeffs[1:]):
            raise DomainError("value is not rational")
        return self.coeffs[0]

    def __repr__(self):
        if all(c == 0 for c in self.coeffs[1:]):
            return str(self.coeffs[0])
        return f"Cyc{self.M}{self.coeffs}"
