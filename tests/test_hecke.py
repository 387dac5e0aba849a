"""Hecke convolution: coset keys, identities, tower, centrality."""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gl2lab import DEFAULT_SEED, hecke
from gl2lab.errors import DomainError, PrecisionExhausted, ResourceLimit
from gl2lab.hecke import (branch_covering_sample, canonical_coset_rep,
                          centrality_check, convolve, double_coset_indicator,
                          phi_support, tower_identity_check,
                          tower_key_histogram, vol_congruence,
                          _random_unimodular, _units_mod)
from gl2lab.padic import (LocalMatrix, _o_add, _o_det, _o_mul, _o_sub,
                          factor_prime_power, get_context)
from gl2lab.ratfunc import RationalFunctionT
from gl2lab.testfunc import phi_branch, phi_pn, phi_pnt
from hecke_oracles import (congruence_elements, convolve_supports,
                           e_congruence, in_congruence_subgroup, lookup,
                           phi0_support, same_coset, support_of)


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


KEY_CASES = [(2, 1), (3, 1), (2, 2)]
KEY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                        database=None,
                        suppress_health_check=[HealthCheck.filter_too_much])


def _int_rows(r, bound):
    entry = st.lists(st.integers(0, bound - 1), min_size=r, max_size=r)
    row = st.lists(entry, min_size=2, max_size=2)
    return st.lists(row, min_size=2, max_size=2)


def _build(ctx, rows, e=0):
    try:
        g = LocalMatrix.from_integers(ctx, rows, e=e)
        d = g.det_valuation() - 2 * g.e
    except DomainError:
        assume(False)
    assume(d <= 3)
    return g


@st.composite
def keyed_matrices(draw):
    p, r = draw(st.sampled_from(KEY_CASES))
    ctx = get_context(p, r, 12)
    n = draw(st.integers(0, 2))
    g = _build(ctx, draw(_int_rows(r, p**3)), e=draw(st.integers(-1, 0)))
    return n, g


@st.composite
def coset_pairs(draw):
    """(n, g1, g2): g2 unrelated to g1, or g1 times I + p^m X, m in {n-1, n}."""
    n, g1 = draw(keyed_matrices())
    ctx = g1.ctx
    p, r = ctx.p, ctx.r
    if draw(st.booleans()):
        g2 = _build(ctx, draw(_int_rows(r, p**3)), e=g1.e)
    else:
        m = draw(st.integers(max(n - 1, 0), n))
        rows = [[[p**m * y for y in entry] for entry in row]
                for row in draw(_int_rows(r, p**2))]
        rows[0][0][0] += 1
        rows[1][1][0] += 1
        g2 = g1 @ _build(ctx, rows)
        assume(g2.det_valuation() - 2 * g2.e <= 3)
    return n, g1, g2


@KEY_SETTINGS
@given(coset_pairs(), st.booleans(), st.booleans())
def test_coset_key_equality_is_same_coset(case, trunc1, trunc2):
    # the oracle sees the exact matrices; the keys may see truncated ones
    n, g1, g2 = case
    k1 = canonical_coset_rep(g1.inverse().inverse() if trunc1 else g1, n)
    k2 = canonical_coset_rep(g2.inverse().inverse() if trunc2 else g2, n)
    assert (k1 == k2) == same_coset(g1, g2, n)


@KEY_SETTINGS
@given(keyed_matrices(), st.lists(st.integers(0, 7), min_size=4, max_size=4))
def test_coset_key_needs_n_plus_d_digits(case, noise):
    n, g = case
    d = g.det_valuation() - 2 * g.e
    for prec in range(1, n + d):
        short = LocalMatrix(g.ctx, g.e, g.m, prec=prec)
        with pytest.raises(PrecisionExhausted):
            canonical_coset_rep(short, n)
    if n:
        # n + d digits are enough, and the digits above them are not read
        shift = g.ctx.p**(n + d)
        noisy = tuple(((x[0] + shift * k) % g.ctx.pN,) + x[1:]
                      for x, k in zip(g.m, noise))
        short = LocalMatrix(g.ctx, g.e, noisy, prec=n + d)
        assert canonical_coset_rep(short, n) == canonical_coset_rep(g, n)


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
    phi = lambda g: Fraction(phi_pn(g, n))
    for g, v in zip(pts, convolve(ctx, n, eK.values(), phi, pts)):
        assert v == Fraction(phi_pn(g, n))


def test_unfolding_phi_star_eK_is_average():
    # (phi * e_K)(g) equals the average of phi over g K, K = Gamma(p^n)
    ctx = get_context(2, 1, 10)
    n = 1
    sup = phi_support(ctx, n)
    eK = e_congruence(ctx, n)
    pts = [LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]]),
           LocalMatrix.from_integers(ctx, [[2, 1], [2, 3]])]
    vals = convolve_supports(ctx, n, sup, eK, pts)
    for g, v in zip(pts, vals):
        us = list(congruence_elements(ctx, n, 1))
        avg = sum(Fraction(phi_pn(g @ u, n)) for u in us) / len(us)
        assert v == avg == Fraction(phi_pn(g, n))


def test_phi0_convolution_square():
    # independent coset-sum oracle for the composition values
    ctx = get_context(2, 1, 10)
    f0 = phi0_support(ctx)
    assert len(f0) == 3                   # q + 1 cosets
    g_pp = LocalMatrix.from_integers(ctx, [[4, 0], [0, 1]])
    g_scal = LocalMatrix.from_integers(ctx, [[2, 0], [0, 2]])
    val_pp = convolve_supports(ctx, 0, f0, f0, [g_pp])[0]
    val_scal = convolve_supports(ctx, 0, f0, f0, [g_scal])[0]
    # oracle: count coset representatives h with h^-1 g back in the support
    def oracle(g):
        cnt = 0
        for h, _ in f0.values():
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
    assert len(double_coset_indicator(ctx, 1, w)) == 2
    weyl = double_coset_indicator(
        ctx, 1, LocalMatrix.from_integers(ctx, [[0, 1], [1, 0]]))
    assert len(weyl) == 1                 # the Weyl element normalizes K


def test_support_enumeration_stable_and_bounded():
    for q in (2, 3):
        ctx = get_context(q, 1, 12)
        sup = phi_support(ctx, 1)
        # support is exactly the k=0 det-valuation-1 locus at level 1
        for rep, val in sup.values():
            assert rep.e == 0 and rep.det_valuation() == 1
            assert val == Fraction(phi_pn(rep, 1))
        # count is stable when recomputed at higher precision
        ctx2 = get_context(q, 1, 16)
        assert len(phi_support(ctx2, 1)) == len(sup)


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


@pytest.mark.parametrize("q", [2, 3])
def test_tower_key_histogram_matches_the_sum_over_u(monkeypatch, q):
    # oracle: the average as one phi_pnt per u; a level-n value that no
    # average takes makes every point fail, so the failures carry the averages
    n = 1
    ctx = get_context(q, 1, 2 * (n + 1) + 6)
    sample = branch_covering_sample(ctx, n + 1, count=40)
    us = list(congruence_elements(ctx, n, 1))
    off = RationalFunctionT.t_power(q, 99)
    monkeypatch.setattr(hecke, "phi_pnt", lambda g, level: off)
    ok, fails, cnt = tower_identity_check(q, n, sample=sample)
    assert not ok and cnt == len(fails) == len(sample)
    for g, (point, lhs, avg) in zip(sample, fails):
        vals = [phi_pnt(g @ u, n + 1) for u in us]
        assert point is g and lhs == off
        assert avg == sum(vals[1:], vals[0]) * Fraction(1, len(us))


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)])
def test_tower_identity_sampled(q, n):
    # (3, 2) and (2, 3) reach two ell values at one (branch, k, count)
    ok, fails, cnt = tower_identity_check(q, n, count=60)
    assert ok and cnt >= 60


def test_associativity_spot_check():
    ctx = get_context(2, 1, 12)
    n = 1
    w1 = LocalMatrix.from_integers(ctx, [[0, 1], [1, 0]])
    w2 = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    f1 = double_coset_indicator(ctx, n, w1)
    f2 = double_coset_indicator(ctx, n, w2)
    phi = lambda g: Fraction(phi_pn(g, n))
    # materialize f1 * f2 on candidate support cosets
    candidates = {}
    for h1 in f1:
        for h2 in f2:
            g = h1 @ h2
            candidates.setdefault(canonical_coset_rep(g, n), g)
    prod_vals = convolve_supports(ctx, n, support_of(f1, n),
                                  support_of(f2, n), list(candidates.values()))
    prod = {k: (g, v) for (k, g), v in zip(candidates.items(), prod_vals)
            if v != 0}
    pts = [LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]]),
           LocalMatrix.from_integers(ctx, [[0, 2], [1, 0]]),
           LocalMatrix.from_integers(ctx, [[2, 1], [2, 3]])]
    lhs = convolve(ctx, n, prod.values(), phi, pts)   # (f1 * f2) * phi
    inner = lambda g: convolve(ctx, n, [(h, 1) for h in f2], phi, [g])[0]
    rhs = []
    for g in pts:                            # f1 * (f2 * phi)
        vol = vol_congruence(ctx, n)
        acc = Fraction(0)
        for h in f1:
            acc += inner(h.inverse() @ g)
        rhs.append(acc * vol)
    assert lhs == rhs


def _phi_support_cube(ctx, n):
    """Oracle: {key: value} over every matrix with entries below p^(n+d)."""
    p, r = ctx.p, ctx.r
    out = {}
    for kk in range(n):
        depth = n + 1 + 2 * kk
        for quad in itertools.product(
                itertools.product(range(p**depth), repeat=r), repeat=4):
            try:
                m = LocalMatrix.from_integers(ctx, [quad[:2], quad[2:]], e=-kk)
                if (m.e != -kk or m.det_valuation() != 1
                        or not m.trace_val_ge(0)):
                    continue
            except DomainError:
                continue
            out.setdefault(canonical_coset_rep(m, n), Fraction(phi_pn(m, n)))
    return out


@pytest.mark.parametrize("p,r,n", [(2, 1, 1), (3, 1, 1), (2, 2, 1)])
def test_phi_support_matches_the_matrix_cube(p, r, n):
    ctx = get_context(p, r, 2 * n + 8)
    sup = phi_support(ctx, n)
    assert {k: v for k, (_, v) in sup.items()} == _phi_support_cube(ctx, n)
    assert all(canonical_coset_rep(m, n) == k for k, (m, _) in sup.items())


@pytest.mark.parametrize("p,r,n", [(2, 1, 1), (3, 1, 1), (2, 1, 2),
                                   (2, 2, 1), (3, 1, 2), (2, 1, 3)])
def test_units_mod_is_the_filtered_product_in_order(p, r, n):
    # the lazy listing against every quadruple of coefficient tuples mod p^n
    # with a unit determinant, in itertools.product order
    ctx = get_context(p, r, 5)
    ring = list(itertools.product(range(p**n), repeat=r))
    want = [u for u in itertools.product(ring, repeat=4)
            if any(x % p for x in _o_det(u, ctx.defining_poly))]
    assert list(_units_mod(ctx, n)) == want


def test_units_mod_starts_at_once_at_a_deep_level():
    # 2^60 residues per entry: the first units come without listing them
    ctx = get_context(2, 1, 5)
    first = list(itertools.islice(_units_mod(ctx, 60), 3))
    assert first == [((0,), (1,), (1,), (0,)), ((0,), (1,), (1,), (1,)),
                     ((0,), (1,), (1,), (2,))]


def test_phi_support_at_level_two():
    # the cube is out of reach at n = 2 (k = 1 needs entries below p^5), so
    # check the support conditions and the value at sampled points instead
    n = 2
    ctx = get_context(2, 1, 2 * n + 8)
    sup = phi_support(ctx, n)
    for rep, val in sup.values():
        assert -rep.e < n and rep.det_valuation() == 1 and rep.trace_val_ge(0)
        assert val == Fraction(phi_pn(rep, n))
    hit_k = set()  # k(g) of the sampled points found in the support
    for g in branch_covering_sample(ctx, n, count=300, seed=5):
        if g.det_valuation() != 1:
            continue
        hit = sup.get(canonical_coset_rep(g, n))
        assert (hit[1] if hit else 0) == Fraction(phi_pn(g, n))
        if hit:
            hit_k.add(-g.e)
    assert hit_k == {0, 1}


def _double_coset_cases(ctx):
    """The three centrality generators, non-diagonal w with d = 1 and 2, and
    the inverse of each, exact for d = 0 and with e < 0 and N - d digits
    otherwise."""
    p = ctx.p
    rows = [[[0, 1], [1, 0]], [[p, 0], [0, 1]], [[0, 1], [p, 0]],
            [[1, 1], [p, 0]], [[p, 1], [0, p]]]
    ws = [LocalMatrix.from_integers(ctx, x) for x in rows]
    return ws + [w.inverse() for w in ws]


@pytest.mark.parametrize("p,r,n", [(2, 1, 1), (3, 1, 1), (2, 1, 2),
                                   (2, 2, 1)])
def test_double_coset_indicator_matches_deeper_saturation(p, r, n):
    # the listed u_z w against every u w, u in K / Gamma(p^(n+d+1)), or in
    # K / Gamma(p^(n+d)) where the deeper one has more than 10,000 elements
    ctx = get_context(p, r, 2 * n + 8)
    seen = set()
    for w in _double_coset_cases(ctx):
        d = w.det_valuation() - 2 * w.e
        depth = d + 1 if ctx.q**(4 * (d + 1)) <= 10_000 else d
        if ctx.q**(4 * depth) > 10_000:
            continue
        saturation = {canonical_coset_rep(u @ w, n)
                      for u in congruence_elements(ctx, n, depth)}
        keys = [canonical_coset_rep(h, n)
                for h in double_coset_indicator(ctx, n, w)]
        assert set(keys) == saturation
        assert len(keys) == len(saturation) == ctx.q**d
        seen.add((d, w.e < 0))
    assert {(0, False), (1, False), (1, True)} <= seen


@pytest.mark.parametrize("rows,keep", [
    ([[2, 0], [0, 1]], slice(0, 4)),   # 2 cosets, equal but for H^-1 M
    ([[4, 1], [0, 1]], slice(0, 3)),   # 4 cosets, equal but for c, H^-1 M
])
def test_double_coset_indicator_raises_on_a_missed_coset(monkeypatch, rows,
                                                         keep):
    # keys cut down to their `keep` parts make listed cosets share a key,
    # so fewer than q^d distinct keys come out
    ctx = get_context(2, 1, 10)
    w = LocalMatrix.from_integers(ctx, rows)
    d = w.det_valuation()
    assert len(double_coset_indicator(ctx, 1, w)) == 2**d
    real = hecke.canonical_coset_rep
    monkeypatch.setattr(hecke, "canonical_coset_rep",
                        lambda *args: real(*args)[keep])
    with pytest.raises(DomainError):
        double_coset_indicator(ctx, 1, w)


def test_double_coset_indicator_needs_level_one():
    ctx = get_context(2, 1, 10)
    with pytest.raises(DomainError):
        double_coset_indicator(ctx, 0, LocalMatrix.identity(ctx))


def test_centrality_at_q3():
    ctx = get_context(3, 1, 10)
    w = LocalMatrix.from_integers(ctx, [[3, 0], [0, 1]])
    ok, fails, total = centrality_check(3, 1, generators=[w], count=5)
    assert ok and not fails and total == 18


def _centrality_oracle_sample(q, n, count, seed=DEFAULT_SEED):
    """The points of centrality_check(q, n, count=count) with the default
    generators, the support points taken from the listed support, in a
    context with the 7n + 1 digits that inverting the support cosets
    (d <= 2n - 1) in the support-backed left side needs."""
    ctx = get_context(*factor_prime_power(q), 7 * n + 1)
    p = ctx.p
    gens = [LocalMatrix.from_integers(ctx, rows) for rows in
            ([[0, 1], [1, 0]], [[p, 0], [0, 1]], [[0, 1], [p, 0]])]
    phi_sup = phi_support(ctx, n)
    reps = [rep for rep, _ in phi_sup.values()][:10]
    sample = branch_covering_sample(ctx, n, count=count, seed=seed)
    sample += [rep @ w for w in gens for rep in reps]
    return phi_sup, gens, sample


def _against_the_left_oracle(monkeypatch, q, n, count, bump=None):
    """centrality_check(q, n, count=count) with hecke.convolve, its right
    side, returning the support-backed phi * f_w instead: so the check
    compares its inline left side with the oracle at every point.  The
    oracle's value at point 7 is one more for generator number `bump`.
    Returns the check's result and, per call, (at, oracle values)."""
    phi_sup, gens, sample = _centrality_oracle_sample(q, n, count)
    ctx = gens[0].ctx
    calls = []

    def oracle(ctx_, n_, cosets, f, at):
        gen = gens[len(calls)]
        f_w = support_of(double_coset_indicator(ctx, n, gen), n)
        assert n_ == n and at == sample
        assert support_of([h for h, _ in cosets], n).keys() == f_w.keys()
        out = convolve_supports(ctx, n, phi_sup, f_w, sample)
        if bump == len(calls):
            out[7] += 1
        calls.append((at, out))
        return out

    monkeypatch.setattr(hecke, "convolve", oracle)
    result = centrality_check(q, n, count=count)
    monkeypatch.undo()
    return result, calls


def test_convolve_whole_sample_matches_per_point(monkeypatch):
    # every point of the centrality sample, evaluated alone: the right side
    # by convolve, the inline left side by the support-backed oracle
    ctx = get_context(2, 1, 10)
    w = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    real, calls = hecke.convolve, []

    def recording(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(hecke, "convolve", recording)
    ok, _, total = centrality_check(2, 1, generators=[w])
    assert ok and len(calls) == 1
    (ctx_, n, cosets, f, at), out = calls[0]
    assert len(at) == total
    assert out == [real(ctx_, n, cosets, f, [g])[0] for g in at]

    def per_point(ctx_, n, cosets, f, at):
        # 7n + 1 = 8 digits, as the checked context has at n = 1
        sup, f_w = phi_support(ctx_, n), support_of(double_coset_indicator(
            ctx_, n, LocalMatrix.from_integers(ctx_, [[2, 0], [0, 1]])), n)
        return [convolve_supports(ctx_, n, sup, f_w, [g])[0] for g in at]

    monkeypatch.setattr(hecke, "convolve", per_point)
    assert centrality_check(2, 1, generators=[w]) == (True, [], total)


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (2, 2)])
def test_shared_left_values_match_each_convolution_alone(monkeypatch, q, n):
    # the left side phi * f_w from the cosets of K w^-1 K, against the
    # support-backed convolution over the listed support of phi, at every
    # point of the sample, the support points times each generator included
    (ok, fails, total), calls = _against_the_left_oracle(monkeypatch, q, n, 3)
    assert ok and not fails and len(calls) == 3
    sample = _centrality_oracle_sample(q, n, 3)[2]
    assert len(sample) * 3 == total
    assert sum(1 for _, out in calls for v in out if v) > 0


def test_centrality_fails_at_the_one_point_where_the_oracle_is_off(
        monkeypatch):
    (ok, fails, total), calls = _against_the_left_oracle(monkeypatch, 2, 1, 3,
                                                         bump=1)
    assert not ok and len(fails) == 1 and len(calls) == 3
    w, g, left, right = fails[0]
    at, out = calls[1]
    assert w == _centrality_oracle_sample(2, 1, 3)[1][1]
    assert g is at[7] and right == out[7] == left + 1


def test_off_support_lookup_still_needs_its_key_digits():
    ctx = get_context(2, 1, 10)
    w = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    f = lookup(support_of(double_coset_indicator(ctx, 2, w), 2), 2)
    g = LocalMatrix.from_integers(ctx, [[4, 0], [0, 1]])
    assert canonical_coset_rep(g, 2)[:2] == (0, 2) and f(g) == 0
    # d = 2 is certified by 3 digits, the key at n = 2 needs n + d = 4
    short = LocalMatrix(ctx, g.e, g.m, prec=3)
    assert short.det_valuation() == 2
    with pytest.raises(PrecisionExhausted):
        canonical_coset_rep(short, 2)
    with pytest.raises(PrecisionExhausted):
        f(short)
    enough = LocalMatrix(ctx, g.e, g.m, prec=4)
    assert canonical_coset_rep(enough, 2) == canonical_coset_rep(g, 2)


def test_centrality_at_level_two():
    ctx = get_context(2, 1, 10)
    w = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    ok, fails, total = centrality_check(2, 2, generators=[w], count=3)
    assert ok and not fails and total == 20


@pytest.mark.parametrize("q,n,size", [
    (2, 1, 1_300), (3, 1, 1_820), (4, 1, 2_340), (2, 2, 1_300),
    (3, 2, 1_820), (2, 60, 1_560)])
def test_centrality_caps_the_convolution_first(monkeypatch, q, n, size):
    # the 100 + 3 * 10 sample points (or the 2n + 6 anchors and 3 * 10) times
    # 2 q^d(w) formula values for each default generator, d(w) = 0, 1, 1
    seen = []

    def stop(size, what, default=200_000):
        seen.append((what, size))
        raise ResourceLimit(what)

    monkeypatch.setattr(hecke, "check_cap", stop)
    with pytest.raises(ResourceLimit):
        centrality_check(q, n)
    assert seen == [("central function convolution", size)]


def test_centrality_beyond_the_cap_raises():
    # 20,030 points times 10 values, and 130 points times 4,038 values
    for q, count in ((2, 20_000), (1009, 100)):
        with pytest.raises(ResourceLimit,
                           match="central function convolution"):
            centrality_check(q, 1, count=count)


def test_centrality_raises_beyond_its_precision_budget(monkeypatch):
    ctx = get_context(2, 1, 10)
    w = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    real_sample, real_context = hecke.branch_covering_sample, hecke.get_context

    def deeper(ctx, n, count, seed):  # d = 2n + 4, past dg = 2n + 3
        out = real_sample(ctx, n, count=count, seed=seed)
        return out + [LocalMatrix.from_integers(ctx, [[2**(2 * n + 4), 0],
                                                      [0, 1]])]

    monkeypatch.setattr(hecke, "branch_covering_sample", deeper)
    with pytest.raises(PrecisionExhausted):
        centrality_check(2, 1, generators=[w], count=3)
    monkeypatch.undo()
    # two digits short of the budget, the default check at (2, 1) raises
    # rather than guess
    budget = []

    def short(p, r, N):
        if not budget:
            budget.append(N)
            N -= 2
        return real_context(p, r, N)

    monkeypatch.setattr(hecke, "get_context", short)
    with pytest.raises(PrecisionExhausted):
        centrality_check(2, 1)
    assert budget == [8]


def test_hecke_import_leaves_numpy_out():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys, gl2lab.hecke\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# the tower average on coefficient pairs against the products g u

TOWER_CASES = [(2, 1), (2, 2), (3, 1), (4, 1)]
TOWER_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                          database=None,
                          suppress_health_check=[HealthCheck.filter_too_much])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionExhausted:
        return PrecisionExhausted


def _per_u(g, n):
    """The oracle: one product and one classification per u."""
    return Counter(phi_branch(g @ u, n + 1)
                   for u in congruence_elements(g.ctx, n, 1))


@st.composite
def tower_points(draw):
    """(n, g): g exact, conjugated (truncated) or cut to fewer digits, with
    e from 1 down to -(n + 1); the anchors p^-k [[p^(k+1), 1], [0, p^k]]
    have a and d divisible by p, so only the cross terms move their trace."""
    q, n = draw(st.sampled_from(TOWER_CASES))
    p, r = factor_prime_power(q)
    ctx = get_context(p, r, 2 * (n + 1) + 6)
    if draw(st.booleans()):
        k = draw(st.integers(0, n + 1))
        unit = [draw(st.integers(1, p - 1))] + [0] * (r - 1)
        rows = [[[p**(k + 1)] + [0] * (r - 1), unit],
                [[0] * r, [p**k] + [0] * (r - 1)]]
        e = -k
    else:
        rows = draw(_int_rows(r, p**(n + 2)))
        e = draw(st.integers(-(n + 1), 1))
    try:
        g = LocalMatrix.from_integers(ctx, rows, e=e)
        g.det_valuation()
    except DomainError:
        assume(False)
    kind = draw(st.sampled_from(["exact", "conjugated", "cut"]))
    if kind == "conjugated":
        h = _build(ctx, draw(_int_rows(r, p**3)))
        assume(h.det_valuation() == 0)
        g = g.conjugate_by(h)
    elif kind == "cut":
        g = LocalMatrix(ctx, g.e, g.m, prec=draw(st.integers(1, ctx.N)))
    return n, g


@TOWER_SETTINGS
@given(tower_points())
def test_tower_key_histogram_is_the_per_u_counter(case):
    n, g = case
    want = _outcome(_per_u, g, n)
    assert _outcome(tower_key_histogram, g, n) == want
    if want is not PrecisionExhausted:
        assert sum(want.values()) == g.ctx.q**4


def tower_tr_det(ctx, m, n, modulus):
    """The exact-pair oracle: how often each (tr(M u), det(M u)) mod
    `modulus` occurs over u in Gamma(p^n)/Gamma(p^(n+1)), for M given by the
    integer coefficient tuples m = (a, b, c, d) of its entries.

    With u = 1 + p^n X, tr(M u) = tr M + p^n (a x11 + d x22) + p^n (c x12 + b x21)
    and det(M u) = det M (1 + p^n x11)(1 + p^n x22) - det M p^(2n) x12 x21:
    each is a part in (x11, x22) plus a part in (x12, x21), so the q^4 pairs
    come from two tables of q^2 entries, each counted by its residues first.
    """
    p, r, f = ctx.p, ctx.r, ctx.defining_poly
    a, b, c, d = m
    digits = list(itertools.product(range(p), repeat=r))
    pn = p**n

    def scaled(x, s=pn):
        return tuple(s * y for y in x)

    def residues(pairs):
        return Counter((tuple(y % modulus for y in tr),
                        tuple(y % modulus for y in det)) for tr, det in pairs)

    one = (1,) + (0,) * (r - 1)
    tr_m = _o_add(a, d)
    det_m = _o_sub(_o_mul(a, d, f), _o_mul(b, c, f))
    diagonal = residues(
        (_o_add(tr_m, scaled(_o_add(_o_mul(a, x11, f), _o_mul(d, x22, f)))),
         _o_mul(det_m, _o_mul(_o_add(one, scaled(x11)),
                              _o_add(one, scaled(x22)), f), f))
        for x11, x22 in itertools.product(digits, repeat=2))
    cross = residues(
        (scaled(_o_add(_o_mul(c, x12, f), _o_mul(b, x21, f))),
         _o_mul(det_m, scaled(_o_mul(x12, x21, f), pn * pn), f))
        for x12, x21 in itertools.product(digits, repeat=2))
    out = Counter()
    for (t1, d1), c1 in diagonal.items():
        for (t2, d2), c2 in cross.items():
            out[tuple((x + y) % modulus for x, y in zip(t1, t2)),
                tuple((x - y) % modulus for x, y in zip(d1, d2))] += c1 * c2
    return out


@pytest.mark.parametrize("q,n", TOWER_CASES)
def test_tower_pairs_are_the_exact_traces_and_determinants(q, n):
    # exact g u carries tr(M u) and det(M u) over O, p^(2n) det X included;
    # p^40 exceeds every coefficient here, so the residues are the values
    p, r = factor_prime_power(q)
    ctx = get_context(p, r, 2 * (n + 1) + 6)
    big = p**40

    def mod(x):
        return tuple(y % big for y in x)

    for g in branch_covering_sample(ctx, n + 1, count=12, seed=5):
        if g.exact is None:
            continue
        prods = [g @ u for u in congruence_elements(ctx, n, 1)]
        assert all(h.e == g.e for h in prods)
        assert tower_tr_det(ctx, g.exact, n, big) == Counter(
            (mod(h.exact_tr[1]), mod(h.exact_det[1])) for h in prods)


@pytest.mark.parametrize("q,n", TOWER_CASES)
def test_tower_pairs_on_the_support_read_one_trace_digit(q, n):
    # what tower_key_histogram stands on: where the branch reads the pair
    # (v(det M) = 1 + 2k, k <= n), every det(M u) is det M mod p^(n+1+k),
    # and mod p^(n+1) the traces are tr M + p^n y, each y in F_q q^3 times
    p, r = factor_prime_power(q)
    ctx = get_context(p, r, 2 * (n + 1) + 6)
    f, digits = ctx.defining_poly, list(itertools.product(range(p), repeat=r))
    seen = 0
    for g in branch_covering_sample(ctx, n + 1, count=60, seed=5):
        k = -g.e
        if g.exact is None or g.det_valuation() != 1 or k > n:
            continue
        seen += 1
        a, b, c, d = g.exact
        big = p**(n + 1 + k)
        det_m = tuple(x % big for x in
                      _o_sub(_o_mul(a, d, f), _o_mul(b, c, f)))
        pairs = tower_tr_det(ctx, g.exact, n, big)
        assert {det for _, det in pairs} == {det_m}
        traces = Counter()
        for (tr, _), cnt in pairs.items():
            traces[tuple(x % p**(n + 1) for x in tr)] += cnt
        tr_m = _o_add(a, d)
        assert traces == Counter({
            tuple((t + p**n * x) % p**(n + 1) for t, x in zip(tr_m, y)): q**3
            for y in digits})
    assert seen >= 5


@pytest.mark.parametrize("rows,e,n,prec", [
    ([[2, 0], [0, 1]], 0, 2, 2),     # ell needs n + 1 = 3 digits
    ([[4, 1], [0, 2]], -1, 1, 3),    # v(det M) = 3 is not certified
    ([[2, 0], [0, 1]], 0, 1, 1),     # v(det M) = 1 is not certified
])
def test_tower_histogram_raises_where_the_products_do(rows, e, n, prec):
    ctx = get_context(2, 1, 10)
    g = LocalMatrix.from_integers(ctx, rows, e=e)
    short = LocalMatrix(ctx, g.e, g.m, prec=prec)
    with pytest.raises(PrecisionExhausted):
        _per_u(short, n)
    with pytest.raises(PrecisionExhausted):
        tower_key_histogram(short, n)
    # one more digit is enough on both paths
    longer = LocalMatrix(ctx, g.e, g.m, prec=prec + 1)
    assert tower_key_histogram(longer, n) == _per_u(longer, n) == _per_u(g, n)


def test_tower_histogram_keeps_the_enumeration_cap(monkeypatch):
    # what the histograms enumerate is q trace residues per point: at q = 5,
    # n = 1 and 10 points (the 2n + 8 anchors), 50 residues against 40 for
    # the arithmetic, so a cap of 49 stops the residues alone
    monkeypatch.setenv("GL2LAB_MAX_ELEMS", "49")
    with pytest.raises(ResourceLimit, match="tower trace residues needs 50"):
        tower_identity_check(5, 1, count=5)
    monkeypatch.setenv("GL2LAB_MAX_ELEMS", "50")
    assert tower_identity_check(5, 1, count=5)[::2] == (True, 10)
    # the histogram itself enumerates nothing of size q^4
    g = LocalMatrix.from_integers(get_context(5, 1, 12), [[5, 0], [0, 1]])
    monkeypatch.setenv("GL2LAB_MAX_ELEMS", "1")
    assert sum(tower_key_histogram(g, 1).values()) == 5**4


def _from_integers_failing_once(monkeypatch, at_call):
    """LocalMatrix.from_integers raising TypeError at one call, exact
    otherwise, so a sampler that swallows it still returns."""
    real = LocalMatrix.from_integers
    calls = []

    def failing(cls, ctx, rows, e=0):
        calls.append(rows)
        if len(calls) == at_call:
            raise TypeError("a programming error, not a rejected draw")
        return real(ctx, rows, e=e)
    monkeypatch.setattr(LocalMatrix, "from_integers", classmethod(failing))


def _build_then_reject_sample(ctx, n, count, seed):
    """The sampler's loop before it skipped singular draws on the integer
    determinant: it built every draw and caught the library's rejection."""
    p = ctx.p
    rnd = random.Random(seed)
    out = branch_covering_sample(ctx, n, count=0)   # the anchors
    while len(out) < count:
        rows = [[rnd.randrange(p**(n + 2)) for _ in range(2)] for _ in range(2)]
        try:
            m = LocalMatrix.from_integers(ctx, rows, e=-rnd.randrange(n + 1))
            m.det_valuation()
        except (DomainError, PrecisionExhausted):
            continue
        h = _random_unimodular(ctx, rnd)
        out.append(m.conjugate_by(h) if rnd.random() < 0.5 else m)
    return out


@pytest.mark.parametrize("p,r,N,n,count", [
    (2, 1, 10, 2, 200), (2, 1, 12, 3, 200), (3, 1, 10, 2, 200),  # tower
    (2, 1, 8, 1, 100)])                                          # centrality
def test_sampler_skips_singular_draws_as_the_old_loop_rejected_them(
        p, r, N, n, count):
    ctx = get_context(p, r, N)
    new = branch_covering_sample(ctx, n, count=count, seed=DEFAULT_SEED)
    old = _build_then_reject_sample(ctx, n, count, DEFAULT_SEED)
    assert len(new) == len(old) == count
    for g, h in zip(new, old):
        assert (g.e, g.m, g.prec, g.exact, g.exact_tr,
                g.exact_det) == (h.e, h.m, h.prec, h.exact,
                                 h.exact_tr, h.exact_det)


def test_samplers_let_programming_errors_through(monkeypatch):
    # the samplers skip only the draws the library rejects (DomainError,
    # PrecisionExhausted); anything else is a bug and must surface
    ctx, n = get_context(2, 1, 12), 1
    anchors = len(branch_covering_sample(ctx, n, count=0))
    _from_integers_failing_once(monkeypatch, anchors + 1)
    with pytest.raises(TypeError):
        branch_covering_sample(ctx, n, count=anchors + 3)
    _from_integers_failing_once(monkeypatch, 1)
    with pytest.raises(TypeError):
        _random_unimodular(ctx, random.Random(0))
