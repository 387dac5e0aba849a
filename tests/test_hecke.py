"""Hecke convolution: coset keys, identities, tower, centrality."""

import random
from fractions import Fraction

import pytest

from gl2lab.hecke import (CosetFunction, canonical_coset_rep,
                          congruence_elements, convolve,
                          double_coset_indicator, e_congruence,
                          in_congruence_subgroup, phi0_support, phi_formula,
                          phi_support, same_coset, tower_identity_check,
                          vol_congruence)
from gl2lab.padic import LocalMatrix, get_context
from gl2lab.ratfunc import RationalFunctionT
from gl2lab.testfunc import phi_pn, phi_pnt


def test_howell_reduction_is_constant_on_cosets():
    # reduce(v) must agree for v and v + (any lattice combination), incl.
    # deep-valuation tails that plain echelon forms miss
    from gl2lab.hecke import _echelon_mod_pe, _reduce_vec
    for p, e in ((2, 4), (3, 3)):
        pe = p**e
        rnd = random.Random(1000 + p)
        for _ in range(60):
            width = rnd.choice((3, 4))
            gens = [[rnd.randrange(pe) * rnd.choice((1, p, p * p))
                     for _ in range(width)] for _ in range(3)]
            gens += [[pe if i == j else 0 for j in range(width)]
                     for i in range(width)]
            pivots = _echelon_mod_pe(gens, width, e, p)
            v = [rnd.randrange(pe) for _ in range(width)]
            base = _reduce_vec(v, pivots, pe, p)
            for _ in range(8):
                w = list(v)
                for g in gens:
                    c = rnd.randrange(pe)
                    w = [(x + c * y) % pe for x, y in zip(w, g)]
                assert _reduce_vec(w, pivots, pe, p) == base


def test_coset_keys_vs_membership_examples():
    ctx = get_context(2, 1, 10)
    n = 2
    g = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    # differ by an element of Gamma(p^n): same key
    g_same = LocalMatrix.from_integers(ctx, [[2, 2**(n + 1)], [0, 1]])
    assert same_coset(g, g_same, n)
    assert canonical_coset_rep(g, n) == canonical_coset_rep(g_same, n)
    # divide by p^n only in the corner: not in the same coset
    g_diff = LocalMatrix.from_integers(ctx, [[2, 2**n], [0, 1]])
    assert not same_coset(g, g_diff, n)
    assert canonical_coset_rep(g, n) != canonical_coset_rep(g_diff, n)
    # diag(p, 1) vs diag(1, p): distinct cosets at every level
    other = LocalMatrix.from_integers(ctx, [[1, 0], [0, 2]])
    for lev in (0, 1, 2):
        assert not same_coset(g, other, lev)
        assert canonical_coset_rep(g, lev) != canonical_coset_rep(other, lev)


@pytest.mark.parametrize("q,n", [(2, 0), (2, 1), (2, 2), (3, 1)])
def test_coset_keys_match_membership_randomized(q, n):
    ctx = get_context(q, 1, 14)
    rnd = random.Random(60 + q + n)
    pool = []
    while len(pool) < 60:
        rows = [[rnd.randrange(q**3) for _ in range(2)] for _ in range(2)]
        try:
            m = LocalMatrix.from_integers(ctx, rows, e=-rnd.randrange(2))
            if m.det_valuation() - 2 * m.e > 3:
                continue
            pool.append(m)
        except Exception:
            continue
    for i in range(0, len(pool) - 1, 2):
        a, b = pool[i], pool[i + 1]
        if a.e != b.e or a.det_valuation() != b.det_valuation():
            continue
        assert (canonical_coset_rep(a, n) == canonical_coset_rep(b, n)) \
            == same_coset(a, b, n)
    # translation by congruence elements preserves the key
    us = list(congruence_elements(ctx, max(n, 1), 1))[:5]
    for m in pool[:10]:
        for u in us:
            assert canonical_coset_rep(m @ u, n) == canonical_coset_rep(m, n)


def test_congruence_membership():
    ctx = get_context(2, 1, 10)
    u = LocalMatrix.from_integers(ctx, [[1, 4], [4, 5]])
    assert in_congruence_subgroup(u, 2)
    assert not in_congruence_subgroup(u, 3)
    w = LocalMatrix.from_integers(ctx, [[0, 1], [1, 0]])
    assert in_congruence_subgroup(w, 0)
    assert not in_congruence_subgroup(w, 1)


def test_identity_law():
    ctx = get_context(2, 1, 10)
    n = 1
    eK = e_congruence(ctx, n)
    phi = phi_formula(ctx, n)
    pts = [LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]]),
           LocalMatrix.from_integers(ctx, [[0, 1], [-2, 0]]),
           LocalMatrix.from_integers(ctx, [[2, 1], [2, 3]]),
           LocalMatrix.from_integers(ctx, [[1, 0], [0, 1]])]
    rnd = random.Random(8)
    while len(pts) < 50:
        rows = [[rnd.randrange(8) for _ in range(2)] for _ in range(2)]
        try:
            m = LocalMatrix.from_integers(ctx, rows)
            m.det_valuation()
            pts.append(m)
        except Exception:
            continue
    for g, v in zip(pts, convolve(eK, phi, pts)):
        assert v == Fraction(phi_pn(g, n))


def test_unfolding_phi_star_eK_is_average():
    # (phi * e_K)(g) equals the average of phi over g K, K = Gamma(p^n)
    ctx = get_context(2, 1, 10)
    n = 1
    sup = phi_support(ctx, n)
    eK = e_congruence(ctx, n)
    pts = [LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]]),
           LocalMatrix.from_integers(ctx, [[2, 1], [2, 3]])]
    vals = convolve(sup, eK, pts)
    for g, v in zip(pts, vals):
        us = list(congruence_elements(ctx, n, 1))
        avg = sum(Fraction(phi_pn(g @ u, n)) for u in us) / len(us)
        assert v == avg == Fraction(phi_pn(g, n))


def test_phi0_convolution_square():
    # independent coset-sum oracle for the composition values
    ctx = get_context(2, 1, 10)
    f0 = phi0_support(ctx)
    assert len(f0.support) == 3           # q + 1 cosets
    g_pp = LocalMatrix.from_integers(ctx, [[4, 0], [0, 1]])
    g_scal = LocalMatrix.from_integers(ctx, [[2, 0], [0, 2]])
    val_pp = convolve(f0, f0, [g_pp])[0]
    val_scal = convolve(f0, f0, [g_scal])[0]
    # oracle: count coset representatives h with h^-1 g back in the support
    def oracle(g):
        cnt = 0
        for h in f0.coset_reps():
            x = h.inverse() @ g
            if x.e == 0 and x.det_valuation() == 1:
                cnt += 1
        # vol(K) * count * (1/(q-1))^2 with vol(K) = q - 1 = 1
        return Fraction(cnt, 1)
    assert val_pp == oracle(g_pp) == 1
    assert val_scal == oracle(g_scal) == 3


def test_double_coset_indicator_stability():
    ctx = get_context(2, 1, 12)
    w = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    f = double_coset_indicator(ctx, 1, w)
    assert len(f.support) == 2
    weyl = double_coset_indicator(
        ctx, 1, LocalMatrix.from_integers(ctx, [[0, 1], [1, 0]]))
    assert len(weyl.support) == 1         # the Weyl element normalizes K


def test_support_enumeration_stable_and_bounded():
    for q in (2, 3):
        ctx = get_context(q, 1, 12)
        sup = phi_support(ctx, 1)
        # support is exactly the k=0 det-valuation-1 locus at level 1
        for rep, val in sup.items():
            assert rep.e == 0 and rep.det_valuation() == 1
            assert val == Fraction(phi_pn(rep, 1))
        # count is stable when recomputed at higher precision
        ctx2 = get_context(q, 1, 16)
        assert len(phi_support(ctx2, 1).support) == len(sup.support)


def test_tower_cancellation_at_k_equals_n():
    # k(g) = n: averaging the level-(n+1) function over g Gamma(p^n) gives 0
    q, n = 2, 1
    ctx = get_context(q, 1, 12)
    g = LocalMatrix.from_integers(ctx, [[q**(n + 1), 1], [0, q**n]], e=-n)
    assert phi_pn(g, n) == 0
    us = list(congruence_elements(ctx, n, 1))
    acc = RationalFunctionT.zero(q)
    for u in us:
        acc = acc + phi_pnt(g @ u, n + 1)
    assert acc.is_zero()


def test_tower_average_formula_case():
    # tr g unit, ell(g) >= n - k: average equals 1 - (q-1) t^(2(n-k))/(q-t^2)
    q, n = 2, 1
    ctx = get_context(q, 1, 12)
    g = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    us = list(congruence_elements(ctx, n, 1))
    acc = RationalFunctionT.zero(q)
    for u in us:
        acc = acc + phi_pnt(g @ u, n + 1)
    avg = acc / len(us)
    expected = (RationalFunctionT.const(q, 1)
                - RationalFunctionT(q, (0, 0, q - 1), 1))
    assert avg == expected == phi_pnt(g, n)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1)])
def test_tower_identity_sampled(q, n):
    ok, fails, cnt = tower_identity_check(q, n, count=60)
    assert ok and cnt >= 60


def test_associativity_spot_check():
    ctx = get_context(2, 1, 12)
    n = 1
    w1 = LocalMatrix.from_integers(ctx, [[0, 1], [1, 0]])
    w2 = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    f1 = double_coset_indicator(ctx, n, w1)
    f2 = double_coset_indicator(ctx, n, w2)
    phi = phi_formula(ctx, n)
    # materialize f1 * f2 on candidate support cosets
    candidates = {}
    for h1, _ in f1.items():
        for h2, _ in f2.items():
            g = h1 @ h2
            candidates.setdefault(canonical_coset_rep(g, n), g)
    prod_vals = convolve(f1, f2, list(candidates.values()))
    prod = CosetFunction(ctx, n, {k: (g, v) for (k, g), v in
                                  zip(candidates.items(), prod_vals)
                                  if v != 0})
    pts = [LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]]),
           LocalMatrix.from_integers(ctx, [[0, 2], [1, 0]]),
           LocalMatrix.from_integers(ctx, [[2, 1], [2, 3]])]
    lhs = convolve(prod, phi, pts)          # (f1 * f2) * phi
    inner = lambda g: convolve(f2, phi, [g])[0]
    rhs = []
    for g in pts:                            # f1 * (f2 * phi)
        vol = vol_congruence(ctx, n)
        acc = Fraction(0)
        for h, val in f1.items():
            acc += val * inner(h.inverse() @ g)
        rhs.append(acc * vol)
    assert lhs == rhs
