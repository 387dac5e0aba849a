"""The polynomial kernel against the per-ring loops it replaced.

Each ring once carried its own dense polynomial arithmetic; those loops are
kept here, unchanged, as the oracles of the one kernel in `gl2lab.poly`.
Trial division is kept as the oracle of the Ben-Or irreducibility test.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2lab import poly
from gl2lab.cyclotomic import _reduction_rows, cyclotomic_polynomial
from gl2lab.padic import (_fp_irreducible, _o_mul, get_context,
                          smallest_irreducible)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# the oracles: the rings' own loops as they were


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _pdivmod(a, b):
    """Exact division of Fraction polynomials (b monic-ish leading != 0)."""
    a = list(a)
    if not b:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(_trim(a)) >= len(b):
        a = list(_trim(a))
        shift = len(a) - len(b)
        c = Fraction(a[-1], 1) / b[-1]
        q[shift] = c
        for j in range(len(b)):
            a[shift + j] -= c * b[j]
    return _trim(q), _trim(a)


def _peval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _o_reduce(coeffs, f):
    """Reduce an integer polynomial mod the monic integer polynomial f."""
    c = list(coeffs)
    r = len(f) - 1
    for i in range(len(c) - 1, r - 1, -1):
        lead = c[i]
        if lead:
            c[i] = 0
            for j in range(r):
                c[i - r + j] -= lead * f[j]
    if len(c) < r:
        c += [0] * (r - len(c))
    return tuple(c[:r])


def _o_mul_loop(a, b, f):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _o_reduce(out, f)


def _zp_divmod_exact(a, b):
    """Exact integer polynomial division (b monic), remainder must be 0."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        q[i] = c
        if c:
            for j in range(len(b)):
                a[i + j] -= c * b[j]
    if any(a):
        raise AssertionError(f"division by {tuple(b)} was not exact: "
                             f"remainder {a}")
    return q


def _reduction_rows_loop(M):
    phi = cyclotomic_polynomial(M)
    deg = len(phi) - 1
    rows = {}
    cur = [Fraction(-phi[j]) for j in range(deg)]  # x^deg
    rows[deg] = tuple(cur)
    for k in range(deg + 1, max(2 * deg - 1, M)):
        nxt = [Fraction(0)] + cur[:-1]
        lead = cur[-1]
        if lead:
            for j in range(deg):
                nxt[j] -= lead * phi[j]
        cur = nxt
        rows[k] = tuple(cur)
    return deg, rows


def _fp_polydivmod(a, b, p):
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(da - db + 1, 1)
    for i in range(da - db, -1, -1):
        c = (a[i + db] * inv_lead) % p
        q[i] = c
        if c:
            for j in range(db + 1):
                a[i + j] = (a[i + j] - c * b[j]) % p
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def _trial_division_irreducible(f, p):
    """Monic f over F_p is irreducible (trial division up to deg/2)."""
    r = len(f) - 1
    if r == 1:
        return True
    for deg in range(1, r // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            g = list(tail) + [1]
            _, rem = _fp_polydivmod(f, g, p)
            if rem == [0]:
                return False
    return True


def _poly_eval(ctx, coeffs, x):
    acc = ctx.zero
    for c in reversed(coeffs):
        acc = acc * x + ctx.el(c)
    return acc


# ---------------------------------------------------------------------------
# strategies

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=6)
ints = st.integers(-50, 50)
# trailing zeros on purpose, so that trimming has work to do
fraction_polys = st.builds(lambda a, z: tuple(a) + (Fraction(0),) * z,
                           st.lists(fractions, max_size=7), st.integers(0, 2))
int_polys = st.lists(ints, max_size=8).map(tuple)
monic_int_polys = st.lists(ints, min_size=0, max_size=4).map(
    lambda c: tuple(c) + (1,))


# ---------------------------------------------------------------------------
# each kernel operation against the loops it replaced


@SETTINGS
@given(fraction_polys)
def test_trim_matches_the_ratfunc_loop(a):
    assert poly.trim(a) == _trim(a)


@SETTINGS
@given(fraction_polys, fraction_polys)
def test_add_matches_the_ratfunc_loop(a, b):
    assert poly.trim(poly.add(a, b)) == _padd(a, b)
    assert len(poly.add(a, b)) == max(len(a), len(b))


@SETTINGS
@given(fraction_polys, fraction_polys)
def test_mul_matches_the_ratfunc_loop(a, b):
    out = poly.mul(a, b)
    assert len(out) == (len(a) + len(b) - 1 if a and b else 0)
    assert poly.trim(out) == _pmul(a, b)


@SETTINGS
@given(int_polys, int_polys, monic_int_polys)
def test_reduced_product_matches_the_galois_ring_loop(a, b, f):
    r = len(f) - 1
    a, b = (a + (0,) * r)[:r], (b + (0,) * r)[:r]
    assert _o_mul(a, b, f) == _o_mul_loop(a, b, f)
    assert tuple(poly.divide(a + b, f)[1]) == _o_reduce(a + b, f)


@SETTINGS
@given(fraction_polys, st.lists(fractions, max_size=3))
def test_monic_division_matches_the_ratfunc_loop(a, tail):
    b = tuple(tail) + (Fraction(1),)
    quo, rem = poly.divide(a, b)
    assert (poly.trim(quo), poly.trim(rem)) == _pdivmod(a, b)
    assert len(rem) == len(b) - 1


@SETTINGS
@given(int_polys, monic_int_polys)
def test_exact_division_matches_the_cyclotomic_loop(q, b):
    a = tuple(poly.mul(q, b)) if q else ()
    if len(a) >= len(b):
        quo, rem = poly.divide(a, b)
        assert quo == _zp_divmod_exact(a, b) and not any(rem)


@SETTINGS
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_division_mod_p_matches_the_fp_loop(p, data):
    a = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=9))
    b = data.draw(st.lists(st.integers(0, p - 1), min_size=0, max_size=4))
    b = b + [data.draw(st.integers(1, p - 1))]
    quo, rem = poly.divide(a, b, p)
    q_old, r_old = _fp_polydivmod(a, b, p)
    assert poly.trim(quo) == poly.trim(q_old)
    assert poly.trim(rem) == poly.trim(r_old)
    assert all(0 <= c < p for c in quo + rem) and len(rem) == len(b) - 1


@SETTINGS
@given(fraction_polys, fractions)
def test_horner_matches_the_ratfunc_loop(a, x):
    assert poly.horner(a, x) == _peval(a, x)


@pytest.mark.parametrize("p,r,N", [(2, 2, 4), (3, 3, 3), (2, 4, 2)])
def test_horner_matches_the_galois_ring_loop(p, r, N):
    ctx = get_context(p, r, N)
    f = ctx.defining_poly
    for x in itertools.islice(ctx.all_elements(), 0, None, 7):
        assert poly.horner(f, x) == _poly_eval(ctx, f, x)


@pytest.mark.parametrize("M", range(1, 31))
def test_reduction_rows_match_the_row_loop(M):
    assert _reduction_rows(M) == _reduction_rows_loop(M)


def test_cyclotomic_polynomials_match_the_division_loop():
    for M in range(1, 40):
        f = [-1] + [0] * (M - 1) + [1]
        for d in range(1, M):
            if M % d == 0:
                f = _zp_divmod_exact(f, list(cyclotomic_polynomial(d)))
        assert cyclotomic_polynomial(M) == tuple(f)


# ---------------------------------------------------------------------------
# Ben-Or's test against trial division


@pytest.mark.parametrize("p,rmax", [(2, 8), (3, 5), (5, 3), (7, 3)])
def test_ben_or_agrees_with_trial_division(p, rmax):
    for r in range(1, rmax + 1):
        for tail in itertools.product(range(p), repeat=r):
            f = list(tail) + [1]
            assert _fp_irreducible(f, p) == _trial_division_irreducible(f, p), f


@pytest.mark.parametrize("p,r", [(2, 9), (3, 6), (5, 4), (7, 3), (13, 2)])
def test_least_irreducible_is_the_trial_division_one(p, r):
    first = next(list(t) + [1] for t in
                 (tuple(code // p**i % p for i in range(r))
                  for code in range(p**r))
                 if _trial_division_irreducible(list(t) + [1], p))
    assert smallest_irreducible(p, r) == tuple(first)

