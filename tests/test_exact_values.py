"""Rational-function and cyclotomic arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gl2lab.cyclotomic import CyclotomicValue, cyclotomic_polynomial
from gl2lab.errors import DomainError
from gl2lab.padic import LocalMatrix, get_context
from gl2lab.ratfunc import RationalFunctionT
from gl2lab.testfunc import phi_pn, phi_pnt


KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomials():
    for M, coeffs in KNOWN_CYCLOTOMICS.items():
        assert cyclotomic_polynomial(M) == coeffs


@pytest.mark.parametrize("M", [1, 2, 3, 4, 6, 8, 12])
def test_roots_of_unity(M):
    z = CyclotomicValue.zeta(M)
    acc = CyclotomicValue.rational(M, 1)
    for k in range(1, M):
        acc = acc * z
        assert acc == CyclotomicValue.zeta(M, k)
        if M > 1:
            assert acc != 1 or k == 0
    assert acc * z == 1
    # full sum vanishes for M > 1
    s = CyclotomicValue.rational(M, 0)
    for k in range(M):
        s = s + CyclotomicValue.zeta(M, k)
    if M > 1:
        assert s.is_zero()


def test_cyclotomic_rationality():
    z = CyclotomicValue.zeta(6)
    v = z + CyclotomicValue.zeta(6, 5)   # z + z^-1 = 1 in Q(zeta_6)
    assert v.as_rational() == 1
    with pytest.raises(DomainError):
        z.as_rational()
    assert (z * 0).is_zero()
    assert CyclotomicValue.rational(6, Fraction(3, 2)) / 3 == Fraction(1, 2)


def test_ratfunc_canonical_form():
    q = 2
    # (q - t^2) / (q - t^2) == 1
    f = RationalFunctionT(q, (q, 0, -1), 1)
    assert f == RationalFunctionT.const(q, 1)
    assert f.den_exp == 0
    z = RationalFunctionT.zero(q)
    assert z.is_zero() and (z + z).is_zero()


def test_ratfunc_arithmetic_and_specialize():
    q = 3
    a = RationalFunctionT(q, (-q, 0, q), 1)       # -q(1-t^2)/(q-t^2)
    b = RationalFunctionT(q, (q, 0, -q), 1)
    assert (a + b).is_zero()
    assert a.specialize(q) == -1 - q
    big = RationalFunctionT.const(q, 1) - RationalFunctionT(q, (0, 0, q - 1), 1)
    assert big.specialize(q) == 1 + q
    small = RationalFunctionT.const(q, 1) - RationalFunctionT.t_power(q, 4)
    assert small.specialize(q) == 1 - q**4
    # averaging with scalar division
    avg = (a + big + small) / 3
    assert avg.specialize(q) == Fraction((-1 - q) + (1 + q) + (1 - q**4), 3)


def test_ratfunc_cross_multiplied_equality():
    q = 2
    # t^2/(q-t^2) + 1 == q/(q-t^2)
    lhs = RationalFunctionT(q, (0, 0, 1), 1) + 1
    rhs = RationalFunctionT(q, (q,), 1)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# canonical forms, as properties

CANON = settings(max_examples=60, deadline=None, derandomize=True)
fractions = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def ratfuncs(draw, q):
    return RationalFunctionT(q, draw(st.lists(fractions, max_size=6)),
                             draw(st.integers(0, 3)))


def _canonical_ratfunc(f):
    num = f.num
    assert all(type(c) is Fraction for c in num)
    assert not num or num[-1] != 0
    if not num:
        assert f.den_exp == 0
    elif f.den_exp:
        # (q - t^2) does not divide the numerator: t^2 -> q leaves a remainder
        even = sum(c * f.q**(i // 2) for i, c in enumerate(num) if i % 2 == 0)
        odd = sum(c * f.q**(i // 2) for i, c in enumerate(num) if i % 2 == 1)
        assert (even, odd) != (0, 0)


@CANON
@given(st.sampled_from([2, 3, 4, 5]), st.data())
def test_ratfunc_equal_values_have_equal_fields(q, data):
    a, b = data.draw(ratfuncs(q)), data.draw(ratfuncs(q))
    k = data.draw(st.integers(0, 2))
    for f in (a, b, a + b, a - b, a * b, -a):
        _canonical_ratfunc(f)
    # the same value written over a higher power of (q - t^2)
    num = a.num
    for _ in range(k):
        num = (RationalFunctionT(q, num) * RationalFunctionT(q, (q, 0, -1))).num
    same = RationalFunctionT(q, num, a.den_exp + k)
    assert same == a and (same.num, same.den_exp) == (a.num, a.den_exp)
    assert hash(same) == hash(a) and repr(same) == repr(a)
    back = (a + b) - b
    assert (back.num, back.den_exp) == (a.num, a.den_exp)
    t = data.draw(fractions)
    if t * t != q:
        assert (a * b).specialize(t) == a.specialize(t) * b.specialize(t)
        assert (a + b).specialize(t) == a.specialize(t) + b.specialize(t)


@CANON
@given(st.sampled_from([2, 3]), st.integers(1, 2), st.data())
def test_deformed_function_specializes_to_phi_pn(p, n, data):
    ctx = get_context(p, 1, 2 * n + 6)
    entries = data.draw(st.lists(st.integers(-p**3, p**3), min_size=4,
                                 max_size=4))
    assume(entries[0] * entries[3] != entries[1] * entries[2])
    assume(any(e % p for e in entries))
    g = LocalMatrix.from_integers(ctx, [entries[:2], entries[2:]])
    assert phi_pnt(g, n).specialize(p) == phi_pn(g, n)


@CANON
@given(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15]), st.data())
def test_cyclotomic_equal_values_have_equal_fields(M, data):
    phi = cyclotomic_polynomial(M)
    deg = len(phi) - 1
    a = CyclotomicValue(M, data.draw(st.lists(fractions)))
    b = CyclotomicValue(M, data.draw(st.lists(fractions)))
    for v in (a, b, a + b, a - b, a * b, -a):
        assert len(v.coeffs) == deg
        assert all(type(c) is Fraction for c in v.coeffs)
    # the same value plus a multiple of Phi_M, written unreduced
    extra = data.draw(st.lists(st.integers(-3, 3)))
    shifted = list(a.coeffs) + [0] * len(extra)
    for i, e in enumerate(extra):
        for j, c in enumerate(phi):
            shifted[i + j] += e * c
    same = CyclotomicValue(M, shifted)
    assert same == a and same.coeffs == a.coeffs and repr(same) == repr(a)
    back = (a + b) - b
    assert back.coeffs == a.coeffs
    k, j = data.draw(st.integers(0, 2 * M)), data.draw(st.integers(0, 2 * M))
    z = CyclotomicValue.zeta
    assert z(M, k) * z(M, j) == z(M, k + j)
    acc = CyclotomicValue.rational(M, 1)
    for _ in range(M):
        acc = acc * z(M)
    assert acc == 1 and acc.coeffs == CyclotomicValue.rational(M, 1).coeffs


@pytest.mark.parametrize("M,coeffs,reduced", [
    (1, (0, 0, 1), (1,)),                # x^2 = 1 mod x - 1
    (4, (0,) * 7 + (1,), (0, -1)),       # x^7 = x^3 = -x mod x^2 + 1
])
def test_cyclotomic_accepts_powers_past_the_rows(M, coeffs, reduced):
    v = CyclotomicValue(M, coeffs)
    assert v == CyclotomicValue(M, reduced)
    assert v.coeffs == tuple(Fraction(c) for c in reduced)
