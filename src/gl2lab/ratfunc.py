"""Exact rational functions in a deformation variable t.

Values live in Q(t) with denominators restricted to powers of (q - t^2),
which is the only denominator the deformed test functions ever produce.
Numerators are polynomials with Fraction coefficients, kept in the
canonical form where (q - t^2) does not divide the numerator.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .poly import add, divide, horner, mul, trim


class RationalFunctionT:
    """numerator(t) / (q - t^2)^den_exp in canonical form."""

    __slots__ = ("num", "den_exp", "q")

    def __init__(self, q, num, den_exp=0):
        self.q = q
        num = trim([Fraction(c) for c in num])
        while num and den_exp > 0:
            quo, rem = divide(num, (-q, 0, 1))  # num = (q - t^2)(-quo) + rem
            if any(rem):
                break
            num, den_exp = tuple(-Fraction(c) for c in quo), den_exp - 1
        if not num:
            den_exp = 0
        self.num = num
        self.den_exp = den_exp

    # -- constructors ---------------------------------------------------------

    @classmethod
    def const(cls, q, value):
        return cls(q, (Fraction(value),))

    @classmethod
    def t_power(cls, q, k, scale=1):
        return cls(q, (Fraction(0),) * k + (Fraction(scale),))

    @classmethod
    def zero(cls, q):
        return cls(q, ())

    # -- structure --------------------------------------------------------------

    def is_zero(self):
        return not self.num

    def _common(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunctionT.const(self.q, other)
        if self.q != other.q:
            raise DomainError("mixed q in rational function arithmetic")
        return other

    def __add__(self, other):
        other = self._common(other)
        k = max(self.den_exp, other.den_exp)
        base = (self.q, 0, -1)  # q - t^2
        a, b = self.num, other.num
        for _ in range(k - self.den_exp):
            a = mul(a, base)
        for _ in range(k - other.den_exp):
            b = mul(b, base)
        return RationalFunctionT(self.q, add(a, b), k)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunctionT(self.q, tuple(-c for c in self.num),
                                 self.den_exp)

    def __sub__(self, other):
        return self + (-self._common(other))

    def __rsub__(self, other):
        return self._common(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunctionT(
                self.q, tuple(c * Fraction(other) for c in self.num), self.den_exp)
        other = self._common(other)
        return RationalFunctionT(self.q, mul(self.num, other.num),
                                 self.den_exp + other.den_exp)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / Fraction(scalar))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunctionT.const(self.q, other)
        if not isinstance(other, RationalFunctionT):
            return NotImplemented
        # canonical form makes structural equality equivalent to value equality
        return (self.q == other.q and self.den_exp == other.den_exp
                and self.num == other.num)

    def __hash__(self):
        return hash((self.q, self.den_exp, self.num))

    def specialize(self, tval) -> Fraction:
        """Evaluate at t = tval (the denominator must not vanish there)."""
        tval = Fraction(tval)
        den = (Fraction(self.q) - tval * tval) ** self.den_exp
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at this t")
        return horner(self.num, tval) / den

    def __repr__(self):
        if not self.num:
            return "0"
        terms = []
        for i, c in enumerate(self.num):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{i}")
        s = " + ".join(terms)
        if self.den_exp:
            s = f"({s}) / ({self.q} - t^2)^{self.den_exp}"
        return s
