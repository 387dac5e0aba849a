"""The central test functions and their closed-form constants."""

import random
from fractions import Fraction

import pytest

from gl2lab.errors import DomainError, PrecisionExhausted
from gl2lab.padic import (INF, ExtendedNat, LocalMatrix, context_for_level,
                          get_context)
from gl2lab.testfunc import (GammaInvariants, c_closed, c_r_char, phi_branch,
                             phi_p0, phi_pn, phi_pnt)


def smith_valuations(rows, e, p):
    """Independent oracle: elementary divisor valuations of p^e * rows.

    Plain integer arithmetic, first-minor/second-minor gcd valuations.
    """
    (a, b), (c, d) = rows

    def vp(x):
        if x == 0:
            return 10**9
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    v1 = min(vp(a), vp(b), vp(c), vp(d))
    vdet = vp(a * d - b * c)
    return (v1 + e, vdet - v1 + e)


def test_phi_p0_examples():
    ctx = context_for_level(2, 1, 1)
    assert phi_p0(LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])) == 1
    assert phi_p0(LocalMatrix.from_integers(ctx, [[2, 0], [0, 2]])) == 0
    ctx3 = context_for_level(3, 1, 1)
    w = LocalMatrix.from_integers(ctx3, [[0, 1], [-3, 0]])
    # Smith-form oracle: elementary divisors diag(p, 1) iff v1 = 0, v2 = 1
    assert smith_valuations([[0, 1], [-3, 0]], 0, 3) == (0, 1)
    assert phi_p0(w) == Fraction(1, 2)


def test_phi_pn_branch_values_q2_n1():
    ctx = context_for_level(2, 1, 1)
    assert phi_pn(LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]]), 1) == 3
    assert phi_pn(LocalMatrix.from_integers(ctx, [[0, 1], [-2, 0]]), 1) == -3
    deep = LocalMatrix.from_integers(ctx, [[1, 0], [0, 8]], e=-1)  # k = 1
    assert phi_pn(deep, 1) == 0


def test_phi_pn_small_ell_branch():
    ctx = context_for_level(3, 1, 2)
    g = LocalMatrix.from_integers(ctx, [[3, 0], [0, 2]])  # ell = 0 < 2
    assert phi_pn(g, 2) == 1 - 3**0 == 0
    g2 = LocalMatrix.from_integers(ctx, [[3, 0], [0, 4]])  # ell = 1 < 2
    assert phi_pn(g2, 2) == 1 - 3**2


def test_phi_pnt_examples_and_specialization():
    ctx = context_for_level(2, 1, 1)
    off = LocalMatrix.from_integers(ctx, [[2, 0], [0, 2]])
    assert phi_pnt(off, 1).is_zero()
    g = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    f = phi_pnt(g, 1)
    # 1 - t^2/(2 - t^2): at t = 2 equals 1 - 4 / (-2) = 3
    assert f.specialize(2) == 3
    w = LocalMatrix.from_integers(ctx, [[0, 1], [-2, 0]])
    fw = phi_pnt(w, 1)
    # -2(1 - t^2)/(2 - t^2): at t = 2 gives -2(-3)/(-2) = -3
    assert fw.specialize(2) == -3


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1)])
def test_specialization_property_sampled(q, n):
    # phi_pnt(g)(t := q) == phi_pn(g) for >= 1000 sampled g
    ctx = get_context(q, 1, 2 * n + 6)
    rnd = random.Random(100 + q + n)
    done = 0
    while done < 1000:
        rows = [[rnd.randrange(q**(n + 2)) for _ in range(2)]
                for _ in range(2)]
        try:
            g = LocalMatrix.from_integers(ctx, rows, e=-rnd.randrange(n + 1))
            g.det_valuation()
        except (DomainError, PrecisionExhausted):
            continue
        assert phi_pnt(g, n).specialize(q) == Fraction(phi_pn(g, n))
        done += 1


def test_conjugation_invariance_under_integral_units():
    ctx = get_context(2, 1, 10)
    rnd = random.Random(9)
    points = [LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]]),
              LocalMatrix.from_integers(ctx, [[0, 1], [-2, 0]]),
              LocalMatrix.from_integers(ctx, [[2, 1], [2, 3]])]
    for g in points:
        for _ in range(20):
            rows = [[rnd.randrange(8) for _ in range(2)] for _ in range(2)]
            try:
                h = LocalMatrix.from_integers(ctx, rows)
                if h.det_valuation() != 0:
                    continue
            except (DomainError, PrecisionExhausted):
                continue
            assert phi_pn(g.conjugate_by(h), 1) == phi_pn(g, 1)


def test_support_bound():
    # phi_pn(g) != 0 implies p^(n-1) g integral and v_p(det g) = 1
    ctx = get_context(2, 1, 10)
    rnd = random.Random(10)
    n = 2
    for _ in range(300):
        rows = [[rnd.randrange(16) for _ in range(2)] for _ in range(2)]
        try:
            g = LocalMatrix.from_integers(ctx, rows, e=-rnd.randrange(3))
            if phi_pn(g, n) != 0:
                assert -g.e <= n - 1      # p^(n-1) g integral
                assert g.det_valuation() == 1
        except (DomainError, PrecisionExhausted):
            continue


def test_c_closed_values():
    inv = GammaInvariants(1, ExtendedNat(1), None, None, 1)
    assert c_closed(inv, 1, 2) == -3
    inv = GammaInvariants(1, ExtendedNat(0), INF, None, 1)
    assert c_closed(inv, 1, 2) == 3
    inv = GammaInvariants(1, ExtendedNat(0), ExtendedNat(1), None, 2)
    assert c_closed(inv, 2, 2) == 0
    inv = GammaInvariants(0, ExtendedNat(0), ExtendedNat(0), None, 1)
    assert c_closed(inv, 1, 5) == 0


def test_c_r_char_values():
    def value(inv):
        v = c_r_char(inv, 2, 1, 1)
        assert type(v) is int
        return v

    inv = GammaInvariants(1, ExtendedNat(1), None, None, 1)
    assert value(inv) == 1 - 2 * 2  # dim St = 2
    ctx = context_for_level(2, 1, 1)
    inv = GammaInvariants(1, ExtendedNat(0), INF, ctx.el(1), 1)
    assert value(inv) == 3  # (p^n+p^(n-1)) phi(p^n)
    inv = GammaInvariants(2, ExtendedNat(0), INF, ctx.el(1), 1)
    assert value(inv) == 0  # v_det != r


def test_gamma_invariants_from_matrix():
    ctx = context_for_level(2, 1, 2)
    g = LocalMatrix.from_integers(ctx, [[2, 0], [0, 3]])
    inv = GammaInvariants.from_matrix(g, 2)
    assert inv.v_det == 1 and inv.v_tr == 0 and inv.ell == 1
    assert inv.t2_int() == 3
    w = LocalMatrix.from_integers(ctx, [[0, 1], [-2, 0]])
    invw = GammaInvariants.from_matrix(w, 2)
    assert invw.v_tr >= 1 and invw.ell is None
    d = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    invd = GammaInvariants.from_matrix(d, 2)
    assert invd.ell.is_infinite and invd.ell_exact


def test_branch_labels():
    ctx = context_for_level(2, 1, 2)
    cases = [([[2, 0], [0, 1]], 0, "ell-at-least-threshold"),
             ([[0, 1], [-2, 0]], 0, "trace-divisible"),
             ([[2, 0], [0, 2]], 0, "off-support")]
    for rows, e, expect in cases:
        g = LocalMatrix.from_integers(ctx, rows, e=e)
        assert phi_branch(g, 2)[0] == expect


def test_c_r_char_off_its_support_builds_nothing(monkeypatch):
    # v_p(det) = 2 against r = 1: zero, before any group is built, even
    # where GL2(Z/27) has 3^12 codes, past the default cap
    from gl2lab import finitegl2

    def no_trace(*args, **kwargs):
        pytest.fail("c_r_char traced a point off its support")
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    monkeypatch.setattr(finitegl2, "ss_trace_point", no_trace)
    inv = GammaInvariants(2, ExtendedNat(1), None, None, 3)
    assert c_r_char(inv, 3, 1, 3) == 0
    with pytest.raises(DomainError):
        c_r_char(inv, 4, 1, 3)
