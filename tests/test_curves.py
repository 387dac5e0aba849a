"""Curve census, level structures, Lefschetz sums, boundary."""

import copy
import functools
import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from gl2lab.curves import (SmallField, WeierstrassCurve, _crt, _discriminant,
                           _transform, boundary_orbit_report,
                           boundary_ss_trace, enumerate_curves,
                           factor_prime_power, gl2_order_mod, isogeny_classes,
                           level_m_count, level_m_count_closed, point_trace,
                           ss_lefschetz)
from gl2lab.errors import DomainError
from gl2lab.gl2group import MatGroup
from curves_oracles import (_digits, _index_among, array_census,
                            boundary_by_element_loop, code, discriminant,
                            field_arrays, level_m_count_by_scalar_mul,
                            transform_all)
from group_oracles import least_unit_generator


def test_small_field_tables():
    F = SmallField(4)
    # char 2: x + x = 0; multiplicative group of order 3
    for x in range(4):
        assert F.add(x, x) == 0
    nonzero = [x for x in range(1, 4)]
    for x in nonzero:
        assert F.mul(x, F.inv(x)) == F.one
    F7 = SmallField(7)
    assert F7.add(3, 5) == 1 and F7.mul(3, 5) == 1


def test_every_small_field_takes_its_least_unit_generator():
    fields = 0
    for q in range(2, 126):
        try:
            factor_prime_power(q)
        except DomainError:
            continue
        F = SmallField(q)
        # F_2^x is trivial: the search keeps no generator there
        want = [] if q == 2 else [least_unit_generator(F)]
        assert F.unit_generators() == want, q
        fields += 1
    assert fields == 42     # 30 primes and 12 higher prime powers


def test_curve_binds_its_field_once(monkeypatch):
    import gl2lab.curves as curves
    E = enumerate_curves(5)[3]
    assert E.F is SmallField(5)

    def no_field(q):
        raise AssertionError("SmallField looked up again")
    monkeypatch.setattr(curves, "SmallField", no_field)
    P = E.points()[1]
    assert E.add_points(P, E.neg_point(P)) is None
    assert level_m_count(E, 3) >= 0


def _points_by_pair_walk(E):
    """Every (x, y) with y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6, by
    the walk over all q^2 pairs that `points` replaced: the oracle."""
    F = E.F
    a1, a2, a3, a4, a6 = E.a
    pts = [None]
    for x in range(E.q):
        rhs = int(F.add(F.mul(x, F.mul(x, x)),
                        F.add(F.mul(a2, F.mul(x, x)), F.add(F.mul(a4, x), a6))))
        for y in range(E.q):
            lhs = int(F.add(F.mul(y, y),
                            F.add(F.mul(a1, F.mul(x, y)), F.mul(a3, y))))
            if lhs == rhs:
                pts.append((x, y))
    return pts


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13])
def test_points_match_the_pair_walk(q):
    for E in enumerate_curves(q):
        pts = WeierstrassCurve(E.q, E.a, E.aut_order).points()
        assert pts == _points_by_pair_walk(E)
        assert all(type(c) is int for P in pts[1:] for c in P)


def test_weil_bound_q5():
    for E in enumerate_curves(5):
        assert -4 <= E.trace <= 4


@pytest.mark.parametrize("q,count", [(2, 5), (3, 8), (5, 12)])
def test_census_class_counts_and_mass(q, count):
    # the census itself checks that every generator permutes the nonsingular
    # tuples and that every orbit gives an even |Aut| dividing 24
    cs = enumerate_curves(q)
    assert len(cs) == count
    group_order = (q - 1) * q**3
    for E in cs:
        assert group_order % E.aut_order == 0
    # weighted count: sum of 1/|Aut| over isomorphism classes equals q,
    # equivalently there are exactly (q-1) q^4 nonsingular coefficient tuples
    from fractions import Fraction
    assert sum(Fraction(1, E.aut_order) for E in cs) == q


@functools.cache
def _substitution_arrays(q):
    """All (u, r, s, t) with u a unit, as an array (code 0 is the zero element)."""
    grid = [(u, rr, s, t) for u in range(1, q) for rr in range(q)
            for s in range(q) for t in range(q)]
    return np.array(grid, dtype=np.int64)


def _tuple_of(q, c):
    return tuple((c // q**i) % q for i in range(5))


def _per_tuple_sweep(q):
    """Reference census: build a curve for every unvisited tuple, in order."""
    subs = _substitution_arrays(q)
    group_order = (q - 1) * q**3
    seen = np.zeros(q**5, dtype=bool)
    out = []
    for a in itertools.product(range(q), repeat=5):
        if seen[sum(x * q**i for i, x in enumerate(a))]:
            continue
        try:
            WeierstrassCurve(q, a)
        except DomainError:
            continue
        orbit = np.unique(code(q, *transform_all(q, a, subs)))
        seen[orbit] = True
        out.append((_tuple_of(q, int(orbit[0])), group_order // len(orbit)))
    return sorted(out)


def _nonsingular_mask(q):
    """Vectorized nonsingularity of every Weierstrass tuple over F_q, by
    the array discriminant.

    Index c stands for (a1, a2, a3, a4, a6) = base-q digits of c, least first.
    """
    return discriminant(field_arrays(q), *_digits(q, 5, np.uint8)) != 0


def _q5_orbit_census(q):
    """Reference census: orbits on all q^5 long-Weierstrass tuples.

    The substitution group is generated by (u0, 0, 0, 0) and the
    translations (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1): conjugation by
    u0 scales r by u0^(+-2) and s by u0^(+-1), whose powers span F_q over
    F_p, and the commutators of the r- and s-translations give every t.
    Returns the sorted (least tuple, |Aut|) of every orbit.
    """
    mask = _nonsingular_mask(q)
    index = _index_among(mask)
    digits = [x[mask] for x in _digits(q, 5, np.uint8)]
    gens = ((least_unit_generator(SmallField(q)), 0, 0, 0), (1, 1, 0, 0),
            (1, 0, 1, 0), (1, 0, 0, 1))
    perms = [index[code(q, *transform_all(q, digits, np.array([g])))]
             for g in gens]
    for perm in perms:
        assert perm.min() >= 0 and np.bincount(perm).max() == 1
    _, labels = MatGroup.orbit_labels(perms)
    first = np.unique(labels, return_index=True)[1]
    group_order = (q - 1) * q**3
    return sorted((tuple(int(x[i]) for x in digits), group_order // orbit)
                  for i, orbit in zip(first.tolist(),
                                      np.bincount(labels).tolist()))


@functools.cache
def _oracle(q):
    """The q^5 reference census: the per-tuple sweep up to q = 9, the
    vectorized orbit census above."""
    return _per_tuple_sweep(q) if q <= 9 else _q5_orbit_census(q)


def _full_orbit_class(q, a):
    """(least tuple, |Aut|) of the full substitution orbit of a tuple."""
    orbit = np.unique(code(q, *transform_all(q, a, _substitution_arrays(q))))
    return _tuple_of(q, int(orbit[0])), (q - 1) * q**3 // len(orbit)


CENSUS_QS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.mark.parametrize("q", CENSUS_QS)
def test_census_matches_per_tuple_sweep(q):
    # each normal-form representative, mapped to the least code of its full
    # orbit, lands on its own q^5 class, with the same |Aut|
    curves = enumerate_curves(q)
    classes = [_full_orbit_class(q, E.a) for E in curves]
    assert [aut for _, aut in classes] == [E.aut_order for E in curves]
    assert sorted(classes) == _oracle(q)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_list_transform_matches_the_array_transform(q):
    # substitutions the census never uses as generators, on lists of tuples
    rnd = random.Random(q)
    a = [[rnd.randrange(q) for _ in range(64)] for _ in range(5)]
    subs = _substitution_arrays(q)
    for g in subs[rnd.sample(range(len(subs)), 40)]:
        ours = _transform(SmallField(q), a, tuple(g.tolist()))
        assert list(ours) == [x.tolist() for x in transform_all(q, a, g[None])]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23,
                               25, 27, 29, 31, 32, 37, 41, 43, 47, 49])
def test_census_matches_the_array_census(q):
    # class for class: least tuple, |Aut| and #E(F_q)
    ours = [(E.a, E.aut_order, E.count()) for E in enumerate_curves(q)]
    assert ours == array_census(q)


def _invariants(E, level_count):
    p, _ = factor_prime_power(E.q)
    level = None if p == 3 else level_count(E, 3)
    return (E.trace, E.aut_order, E.hasse_invariant() == 0, level)


@pytest.mark.parametrize("q", CENSUS_QS)
def test_census_invariants_match_the_q5_classes(q):
    # level counts in closed form here, by span enumeration on the oracle
    ours = sorted(_invariants(E, level_m_count_closed)
                  for E in enumerate_curves(q))
    theirs = sorted(_invariants(WeierstrassCurve(q, a, aut_order=aut),
                                level_m_count)
                    for a, aut in _oracle(q))
    assert ours == theirs


@pytest.mark.parametrize("q", [4, 7, 13])
def test_closed_level_count_matches_span_enumeration(q):
    counts = [(level_m_count(E, 3), level_m_count_closed(E, 3))
              for E in enumerate_curves(q)]
    assert all(span == closed for span, closed in counts)
    assert sum(span for span, _ in counts) == 2 * (q - 3)


def _level_m_count_by_scalar_mul(E, m):
    """The span enumeration with every multiple recomputed by scalar_mul."""
    tors = [P for P in E.points() if E.scalar_mul(m, P) is None]
    if len(tors) != m * m:
        return 0
    bases = 0
    for P in tors:
        for Q in tors:
            span = set()
            for i in range(m):
                iP = E.scalar_mul(i, P)
                for j in range(m):
                    span.add(E.add_points(iP, E.scalar_mul(j, Q)))
            if len(span) == m * m:
                bases += 1
    return bases // E.aut_order


@pytest.mark.parametrize("q", [4, 7, 13])
def test_level_count_matches_scalar_mul_spans(q):
    for E in enumerate_curves(q):
        assert level_m_count(E, 3) == _level_m_count_by_scalar_mul(E, 3)


def _is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


@pytest.mark.parametrize("q", [q for q in range(2, 50) if _is_prime_power(q)])
def test_level_count_matches_the_scalar_mul_count_it_replaced(q):
    p = factor_prime_power(q)[0]
    levels = [m for m in (3, 4, 5) if m % p]
    for E in enumerate_curves(q):
        assert [level_m_count(E, m) for m in levels] == [
            level_m_count_by_scalar_mul(E, m) for m in levels], E.a


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_nonsingular_mask_matches_curve_construction(q):
    mask = _nonsingular_mask(q)
    # the list discriminant of the census, over all q^5 tuples at once
    lists = [d.tolist() for d in _digits(q, 5, np.int64)]
    assert [d != 0 for d in _discriminant(SmallField(q), *lists)] == \
        mask.tolist()
    for c in range(q**5):
        a = _tuple_of(q, c)
        try:
            WeierstrassCurve(q, a)
            nonsingular = True
        except DomainError:
            nonsingular = False
        assert bool(mask[c]) == nonsingular, a


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_nonsingular_mask_matches_singular_points(q):
    # independent of the discriminant: a tuple is singular iff some affine
    # (x, y) over F_q solves the equation and both partial derivatives.  A
    # Weierstrass cubic is smooth at infinity and irreducible, so a singular
    # point is unique, hence Galois-fixed and F_q-rational.
    T = field_arrays(q)
    add, mul, neg = T.ADD, T.MUL, T.NEG
    codes = np.arange(q**5)
    a1, a2, a3, a4, a6 = ((codes // q**i) % q for i in range(5))

    def times(k, x):
        out = np.zeros_like(x)
        for _ in range(k):
            out = add[out, x]
        return out

    singular = np.zeros(q**5, dtype=bool)
    for x, y in itertools.product(range(q), repeat=2):
        # f = y^2 + a1 x y + a3 y - x^3 - a2 x^2 - a4 x - a6
        xx = mul[x, x]
        f = add[add[add[mul[y, y], mul[a1, mul[x, y]]], mul[a3, y]],
                neg[add[add[add[mul[xx, x], mul[a2, xx]], mul[a4, x]], a6]]]
        fx = add[mul[a1, y], neg[add[add[times(3, np.full_like(a2, xx)),
                                         times(2, mul[a2, x])], a4]]]
        fy = add[add[times(2, np.full_like(a1, y)), mul[a1, x]], a3]
        singular |= (f == 0) & (fx == 0) & (fy == 0)
    assert singular.sum() == q**4        # the singular tuples number q^4
    assert np.array_equal(_nonsingular_mask(q), ~singular)


def test_census_result_is_a_fresh_list():
    first = enumerate_curves(7)
    expected = [(E.a, E.aut_order) for E in first]
    first.clear()
    assert [(E.a, E.aut_order) for E in enumerate_curves(7)] == expected


_BROKEN_CENSUS = """
import sys
import gl2lab.curves as curves

if __debug__:
    sys.exit("not running under python -O")
true_forms = curves._normal_forms

def broken(F):
    out = []
    for shape, gens, order in true_forms(F):
        if {kind!r} == "singular":
            # u = 0 is no substitution: it sends every tuple to y^2 = x^3
            gens = [(0, 0, 0, 0)] + gens[1:]
        elif {kind!r} == "identity":
            gens = [(1, 0, 0, 0)]
        else:
            # the first generator in place of every other one
            gens = [gens[0]] * len(gens)
        out.append((shape, gens, order))
    return out

curves._normal_forms = broken
from gl2lab.cli import main
sys.exit(main(["census", "--q", "9", "--m", "4"]))
"""


_BROKEN_CENSUS_ERRORS = {
    "singular": "substitution (0, 0, 0, 0) over F_9 does not permute the "
                "normal forms (0, 'unit', 0, 0, 'any')",
    # q = 9, y^2 = x^3 + a4 x + a6 (j = 0): |G| = 8 * 9; alone, u0 moves
    # (a4, a6) = (1, 0) to -1 and back, and the identity not at all
    "repeated": "orbit of (0, 0, 0, 1, 0) over F_9 gives |Aut| = 36",
    "identity": "orbit of (0, 0, 0, 1, 0) over F_9 gives |Aut| = 72"}


@pytest.mark.parametrize("kind", ["singular", "repeated", "identity"])
def test_census_partition_check_survives_python_O(kind):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c",
                           _BROKEN_CENSUS.format(kind=kind)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    # the command's timing line, then the one line of the failure
    timing, failure = proc.stderr.splitlines()
    assert timing.startswith("[census] wall-clock")
    assert failure.startswith("verification failed: "
                              + _BROKEN_CENSUS_ERRORS[kind])


def test_failed_census_row_keeps_its_witness(monkeypatch):
    from gl2lab import campaigns

    def weil_row():
        rows = [c for c in campaigns.census_checks(qs=(4,), boundary_cases=())
                if c.name == "weil-and-supersingular-criteria"]
        assert len(rows) == 1
        return rows[0].to_dict()

    row = weil_row()
    assert row["pass"] and "witness" not in row

    def with_bad_count(q):
        curves = enumerate_curves(q)
        fake = copy.copy(curves[1])
        fake.count = lambda: 0       # trace q + 1 breaks the Weil bound
        return [curves[0], fake] + curves[2:]

    monkeypatch.setattr(campaigns, "enumerate_curves", with_bad_count)
    row = weil_row()
    assert not row["pass"] and row["actual"] == 1
    assert row["witness"] == {"a": str(enumerate_curves(4)[1].a),
                              "trace": "5", "count": "0"}


def test_lefschetz_row_names_the_curve_whose_counts_differ(monkeypatch):
    import gl2lab.curves as curves
    from gl2lab import campaigns

    def lefschetz_row():
        rows = [c.to_dict() for c in campaigns.census_checks(
            qs=(7,), boundary_cases=())
            if c.name == "lefschetz-n0-equals-census"]
        assert len(rows) == 1
        return rows[0]

    row = lefschetz_row()
    assert row["pass"] and "witness" not in row
    assert row["expected"] == row["actual"] == 8
    E = enumerate_curves(7)[2]
    real = curves.level_m_count_closed
    monkeypatch.setattr(curves, "level_m_count_closed",
                        lambda C, m: real(C, m) + (C.a == E.a))
    row = lefschetz_row()
    assert not row["pass"] and (row["expected"], row["actual"]) == (8, 9)
    span = level_m_count(E, 3)
    assert row["witness"] == {"a": str(E.a), "span_count": str(span),
                              "closed_form": str(span + 1)}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_hasse_invariant_vanishes_exactly_when_p_divides_the_trace(q):
    p, _ = factor_prime_power(q)
    curves = enumerate_curves(q)
    assert [E.hasse_invariant() == 0 for E in curves] == \
        [E.trace % p == 0 for E in curves]


def test_hasse_invariant_on_known_curves():
    # y^2 = x^3 + 1 is supersingular iff p = 2 mod 3, y^2 = x^3 + x iff
    # p = 3 mod 4
    assert WeierstrassCurve(5, (0, 0, 0, 0, 1)).hasse_invariant() == 0
    assert WeierstrassCurve(7, (0, 0, 0, 0, 1)).hasse_invariant() != 0
    assert WeierstrassCurve(7, (0, 0, 0, 1, 0)).hasse_invariant() == 0
    assert WeierstrassCurve(5, (0, 0, 0, 1, 0)).hasse_invariant() != 0


def test_census_row_fails_when_the_count_moves_the_trace_mod_p(monkeypatch):
    # a count one lower keeps the trace inside the Weil bound but makes an
    # ordinary curve's trace even, which its Hasse invariant (a1) contradicts
    from gl2lab import campaigns
    curves = enumerate_curves(4)
    i = next(i for i, E in enumerate(curves) if E.trace in (-3, -1, 1, 3))
    E = curves[i]
    assert E.hasse_invariant() != 0
    fake = copy.copy(E)
    fake.count = lambda: E.count() - 1
    monkeypatch.setattr(campaigns, "enumerate_curves",
                        lambda q: curves[:i] + [fake] + curves[i + 1:])
    rows = [c.to_dict() for c in campaigns.census_checks(qs=(4,),
                                                         boundary_cases=())
            if c.name == "weil-and-supersingular-criteria"]
    assert len(rows) == 1 and not rows[0]["pass"] and rows[0]["actual"] == 1
    assert rows[0]["witness"] == {"a": str(E.a), "trace": str(E.trace + 1),
                                  "count": str(E.count() - 1)}


def test_automorphisms_act_freely_on_bases():
    # direct-action freeness behind the integrality of the moduli count
    q, m = 7, 3
    F = SmallField(q)
    for E in enumerate_curves(q):
        tors = [P for P in E.points() if E.scalar_mul(m, P) is None]
        if len(tors) != m * m:
            continue
        # substitutions fixing the coefficients = Aut(E); their point action
        auts = []
        for u in range(1, q):
            for rr in range(q):
                for s in range(q):
                    for t in range(q):
                        img = _apply_subst(F, E.a, u, rr, s, t)
                        if img == E.a:
                            auts.append((u, rr, s, t))
        assert len(auts) == E.aut_order
        bases = []
        for P in tors:
            for Q in tors:
                span = set()
                for i in range(m):
                    iP = E.scalar_mul(i, P)
                    for j in range(m):
                        span.add(_key(E.add_points(iP, E.scalar_mul(j, Q))))
                if len(span) == m * m:
                    bases.append((P, Q))
        assert bases, "full torsion must contain a basis"
        for base in bases[:6]:
            fixers = 0
            for (u, rr, s, t) in auts:
                moved = tuple(_act_on_point(F, P, u, rr, s, t) for P in base)
                if moved == base:
                    fixers += 1
            assert fixers == 1  # only the identity fixes an ordered basis


def _key(P):
    return P if P is None else (int(P[0]), int(P[1]))


def _apply_subst(F, a, u, rr, s, t):
    """Coefficients of the substituted equation (the census formulas)."""
    subs = np.array([[u, rr, s, t]], dtype=np.int64)
    na = transform_all(F.q, a, subs)
    return tuple(int(x[0]) for x in na)


def _act_on_point(F, P, u, rr, s, t):
    """(x, y) -> ((x - r)/u^2, (y - s(x - r) - t)/u^3), inverse substitution."""
    if P is None:
        return None
    x, y = P
    u2 = F.mul(u, u)
    u3 = F.mul(u2, u)
    xr = F.sub(x, rr)
    num_y = F.sub(F.sub(y, F.mul(s, xr)), t)
    return (int(F.mul(xr, F.inv(u2))), int(F.mul(num_y, F.inv(u3))))


def test_supersingular_criteria_q7():
    p = 7
    for E in enumerate_curves(7):
        ss_by_trace = E.trace % p == 0
        ss_by_count = E.count() % p == 1 % p
        assert ss_by_trace == ss_by_count == (E.hasse_invariant() == 0)
        if ss_by_trace:
            assert E.trace == 0      # |a| <= 5 forces 0


def test_group_law_and_torsion():
    for q in (5, 7):
        for E in enumerate_curves(q)[:4]:
            pts = E.points()
            P = pts[1]
            # order of P divides the group order
            k, acc = 0, None
            while True:
                acc = E.add_points(acc, P)
                k += 1
                if acc is None:
                    break
            assert len(pts) % k == 0
            assert E.add_points(P, E.neg_point(P)) is None


def test_level_m_count_examples():
    # no full 3-torsion -> 0
    cs = enumerate_curves(5)      # 5 = 2 mod 3, no full level-3 structures
    assert all(level_m_count(E, 3) == 0 for E in cs)
    # q = 7: the curve with E(F_7) containing (Z/3)^2 carries 48/|Aut| points
    found = []
    for E in enumerate_curves(7):
        c = level_m_count(E, 3)
        if c:
            tors = [P for P in E.points() if E.scalar_mul(3, P) is None]
            assert len(tors) == 9
            assert c * E.aut_order == 48        # |GL2(Z/3)| bases
            found.append((E, c))
    assert sum(c for _, c in found) == 8
    with pytest.raises(DomainError):
        level_m_count(enumerate_curves(7)[0], 2)
    with pytest.raises(DomainError):
        level_m_count(enumerate_curves(7)[0], 7)


@pytest.mark.parametrize("q", [4, 7, 13])
def test_lefschetz_n0_equals_direct_count(q):
    p, r = factor_prime_power(q)
    rep = ss_lefschetz(p, r, 0, 3)
    direct = sum(level_m_count(E, 3) for E in enumerate_curves(q))
    assert rep.total == direct == rep.moduli_points
    # two geometric components, four cusps each
    assert direct == 2 * (q - 3)


def test_isogeny_class_records():
    recs = isogeny_classes(7, n=1)
    traces = [r.trace for r in recs]
    assert traces == sorted(traces)
    for r in recs:
        assert r.ordinary == (r.trace % 7 != 0)
        if r.ordinary:
            a = r.unit_eigenvalue
            assert (a * a - r.trace * a + 7) % 7 == 0 and a % 7 != 0


def test_point_trace_values():
    # supersingular at (p, r, n) = (2, 1, 1): 1 - 2 (2 + 1 - 1) = -3
    assert point_trace(2, 1, 1, False, None) == -3
    assert point_trace(2, 1, 0, False, None) == 1
    assert point_trace(2, 1, 1, True, 1) == 2**2 - 2**0
    assert point_trace(2, 1, 1, True, 1) == 3
    assert point_trace(3, 1, 1, True, 2) == 0


def test_lefschetz_supersingular_q4():
    rep = ss_lefschetz(2, 2, 1, 3)
    # the only level-3 class over F_4 is supersingular: 2 points, each 1 - 4*2
    assert rep.moduli_points == 2
    assert rep.total == 2 * (1 - 4 * (2 + 1 - 1))


def test_gl2_order_mod_composite():
    assert gl2_order_mod(21) == 48 * 2016
    assert gl2_order_mod(15) == 48 * 480


def test_boundary_formula_values():
    assert boundary_ss_trace(2, 1, 1, 3) == 0          # 2 != 1 mod 3
    assert boundary_ss_trace(7, 1, 1, 3) == 384
    assert boundary_ss_trace(5, 2, 1, 3) == 192        # 25 = 1 mod 3
    with pytest.raises(DomainError):
        boundary_ss_trace(3, 1, 1, 3)                  # m not prime to p
    with pytest.raises(DomainError):
        boundary_ss_trace(7, 1, 0, 3)


def _boundary_by_min_passes(p, r, n, m):
    """Reference boundary packets: label each element by the least code of
    its {+-unipotent} coset, then by the least coset label over inertia.

    One min-pass over each set reaches every label because both sets are
    groups.  Returns (packets, fixed_packets, sizes_ok).
    """
    N = p**n * m
    codes = np.arange(N**4, dtype=np.int64)
    a, b, c, d = (codes // N**i % N for i in range(4))
    unit = np.gcd((a * d - b * c) % N, N) == 1
    el = codes[unit]
    comps = (a[unit], b[unit], c[unit], d[unit])

    def left_mul_codes(u):
        ua, ub, uc, ud = u
        xa, xb, xc, xd = comps
        return ((ua * xa + ub * xc) % N + N * ((ua * xb + ub * xd) % N)
                + N**2 * ((uc * xa + ud * xc) % N)
                + N**3 * ((uc * xb + ud * xd) % N))

    subgroup = [(sgn, sgn * x % N, 0, sgn) for sgn in (1, N - 1)
                for x in range(N)]
    coset_label = None
    for u in subgroup:
        cc = left_mul_codes(u)
        coset_label = cc if coset_label is None else np.minimum(coset_label, cc)
    inertia = [(_crt(pow(k, -1, p**n), p**n, 1, m), 0, 0, 1)
               for k in range(1, p**n) if k % p]
    lab = np.full(N**4, -1, dtype=np.int64)
    lab[el] = coset_label
    packet_label = coset_label.copy()
    for u in inertia:
        packet_label = np.minimum(packet_label, lab[left_mul_codes(u)])
    lab_of = np.full(N**4, -1, dtype=np.int64)
    lab_of[el] = packet_label
    packets, counts = np.unique(packet_label, return_counts=True)
    sizes_ok = bool(np.all(counts == 2 * N * len(inertia)))
    x0 = _crt(1, p**n, pow(p, r, m), m)
    cc = left_mul_codes((pow(x0, -1, N), 0, 0, 1))
    fixed = len(np.unique(packet_label[lab_of[cc] == packet_label]))
    return len(packets), fixed, sizes_ok


@pytest.mark.parametrize("p,r,n,m", [
    (7, 1, 1, 3), (5, 2, 1, 3), (2, 1, 1, 3), (5, 1, 1, 3), (3, 1, 1, 4),
    (2, 1, 2, 3), (3, 2, 1, 4), (2, 2, 1, 3)])
def test_boundary_orbits_match_min_passes(p, r, n, m):
    expected = _boundary_by_min_passes(p, r, n, m)
    assert boundary_orbit_report(p, r, n, m) == expected


@pytest.mark.parametrize("r", [1, 2])
def test_boundary_orbits_match_min_passes_for_non_cyclic_units(monkeypatch, r):
    # (Z/8)^x = {+-1} x <5> is not cyclic: inertia has two generators
    monkeypatch.setenv("GL2LAB_MAX_ELEMS", str(24**4))
    assert boundary_orbit_report(2, r, 3, 3) == _boundary_by_min_passes(2, r, 3, 3)


@pytest.mark.parametrize("p,r,n,m", [(4, 1, 1, 3), (6, 1, 1, 5), (2, 0, 1, 3),
                                     (2, 1, 0, 3), (3, 1, 1, 3), (5, 1, 1, 2)])
def test_boundary_rejects_impossible_input(p, r, n, m):
    with pytest.raises(DomainError):
        boundary_ss_trace(p, r, n, m)
    with pytest.raises(DomainError):
        boundary_orbit_report(p, r, n, m)


def test_boundary_oracle_agreement():
    packets, fixed, sizes_ok = boundary_orbit_report(7, 1, 1, 3)
    assert (packets, fixed, sizes_ok) == (384, 384, True)
    packets, fixed, sizes_ok = boundary_orbit_report(5, 2, 1, 3)
    assert (packets, fixed, sizes_ok) == (192, 192, True)
    # Frobenius must move every packet when p^r != 1 mod m
    packets, fixed, sizes_ok = boundary_orbit_report(2, 1, 1, 3)
    assert fixed == 0 and sizes_ok


# ---------------------------------------------------------------------------
# the boundary packets by CRT, against the element loop


@pytest.mark.parametrize("p,r,n,m", [(7, 1, 1, 3), (5, 2, 1, 3), (2, 1, 1, 3),
                                     (2, 1, 2, 3)])
def test_boundary_listing_matches_the_element_loop(p, r, n, m):
    assert boundary_orbit_report(p, r, n, m) == boundary_by_element_loop(
        p, r, n, m)


@pytest.mark.parametrize("p,m,packets,fixed", [(11, 5, 5760, 5760),
                                               (13, 5, 8064, 0)])
def test_boundary_enumeration_runs_past_the_element_cap(capsys, monkeypatch,
                                                        p, m, packets, fixed):
    import json

    from gl2lab.cli import main
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    assert (p * m)**4 > 200_000
    assert main(["boundary", "--p", str(p), "--n", "1", "--m", str(m),
                 "--enumerate"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["packets"], rep["fixed_packets"], rep["packet_sizes_ok"],
            rep["match"]) == (packets, fixed, True, True)
    # the packet count is the formula's |GL2(Z/N)| / (2 N phi(p))
    assert packets == gl2_order_mod(p * m) // (2 * p * m * (p - 1))


def test_boundary_listing_is_capped_before_it_starts(capsys, monkeypatch):
    from gl2lab import curves
    from gl2lab.cli import main

    def no_listing(*args):
        pytest.fail("boundary listing started before the cap")
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    monkeypatch.setattr(curves, "_left_orbits", no_listing)
    # 23^4 + 5^4 = 280,466 elements over the two factors
    assert main(["boundary", "--p", "23", "--n", "1", "--m", "5",
                 "--enumerate"]) == 2
    err = capsys.readouterr().err
    assert "boundary group enumeration needs 280466 elements" in err


# a packet of the wrong size, or one that Frobenius moves, in the listing
# the row reads; the row names the first such packet
BOUNDARY_FAULTS = """
from gl2lab import campaigns, curves
real = curves.boundary_packets

def wrong_size(*args):
    packets = real(*args)
    return packets[:3] + [(packets[3][0], packets[3][1] - 1, True)] + packets[4:]

def moved(*args):
    packets = real(*args)
    return packets[:5] + [(packets[5][0], packets[5][1], False)] + packets[6:]

def boundary_rows():
    out = []
    for fault in (wrong_size, moved, real):
        curves.boundary_packets = fault
        try:
            rows = campaigns.census_checks(qs=(),
                                           boundary_cases=((7, 1, 1, 3),))
        finally:
            curves.boundary_packets = real
        out += [c.to_dict() for c in rows
                if c.name == "boundary-formula-vs-enumeration"]
    return out
"""


def _check_boundary_rows(rows):
    from gl2lab.curves import boundary_packets
    packets, size = boundary_packets(7, 1, 1, 3), 2 * 21 * 6
    wrong_size, moved, sound = rows
    assert not wrong_size["pass"] and wrong_size["actual"] == [384, True, False]
    assert wrong_size["witness"] == {"packet": str(packets[3][0]),
                                     "size": str(size - 1),
                                     "expected_size": str(size),
                                     "frobenius_fixed": "True"}
    assert not moved["pass"] and moved["actual"] == [384, False, True]
    assert moved["witness"] == {"packet": str(packets[5][0]),
                                "size": str(size), "expected_size": str(size),
                                "frobenius_fixed": "False"}
    assert sound["pass"] and "witness" not in sound


def test_boundary_row_names_its_faulty_packet():
    ns = {}
    exec(BOUNDARY_FAULTS, ns)
    _check_boundary_rows(ns["boundary_rows"]())


def test_boundary_row_names_its_faulty_packet_under_python_O():
    import json
    here = os.path.dirname(os.path.abspath(__file__))
    code = "\n".join([
        "import json, sys",
        "if __debug__:",
        "    sys.exit('not running under python -O')",
        BOUNDARY_FAULTS,
        "print(json.dumps(boundary_rows()))"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(here, os.pardir, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    _check_boundary_rows(json.loads(proc.stdout))
