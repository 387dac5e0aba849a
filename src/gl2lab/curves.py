"""Census of elliptic curves over small finite fields and semisimple sums.

Curves over F_q are enumerated up to isomorphism from the Weierstrass
normal forms (Silverman, Appendix A, Prop. A.1.1): y^2 = x^3 + a4 x + a6
for p >= 5, and two families each for p = 3 and p = 2, split by j = 0.
Each family is closed under its residual group of substitutions
(u, r, s, t): x -> u^2 x' + r, y -> u^3 y' + s u^2 x' + t, whose
generators permute the family's nonsingular tuples; a walk from each tuple
not yet reached splits those tuples into their orbits, the isomorphism
classes, and each orbit's size gives |Aut|.  A class is represented by the
least code among its normal-form tuples.  The field arithmetic is on
lists: a coefficient is a code, or a list with one code per tuple of a
family, so one pass over a list carries a formula through the family.  The
families hold at most q^3 tuples, the cap's measure (default q <= 125);
the census is computed once per q and cached.  Point counts, automorphism
orders, level structure counts (by span enumeration and in closed form),
Honda-Tate style isogeny-class tables, per-point semisimple traces and the
boundary term are all exact.  The boundary packets are listed through
CRT, one scan of GL2(Z/p^n) and one of GL2(Z/m), with no numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional

from .errors import BrokenIdentity, DomainError, check_cap
from .finitegl2 import fixed_surjections, ss_trace_closed, ss_trace_point
from .padic import (LocalMatrix, _least_prime_factor, check_boundary_input,
                    check_level, factor_prime_power, get_context,
                    group_order_gl2, unit_eigenvalue)
from .ringtables import RingTableLists


class SmallField:
    """F_q with its operation tables as lists; elements are the codes 0..q-1.

    `add`, `mul`, `sub` and `neg` take codes or lists of codes: a list entry
    by entry, a code against every entry.  A sum adds its codes first and
    then passes once over each list; a product with the code 0 is 0, and
    with 1 the other factor, so neither passes over a list.  ROOTS[b][c]
    lists the y with y^2 + b y = c, ascending.
    """

    _cache = {}

    def __new__(cls, q):
        if q not in cls._cache:
            obj = super().__new__(cls)
            obj._build(q)
            cls._cache[q] = obj
        return cls._cache[q]

    def _build(self, q):
        p, r = factor_prime_power(q)
        t = RingTableLists(p, r, 1)
        self.q, self.p, self.r = q, p, r
        self.ADD, self.MUL, self.NEG, self.INV = t.ADD, t.MUL, t.NEG, t.INV
        self.one = t.one
        self.unit_generators = t.unit_generators
        self.ROOTS = [[[] for _ in range(q)] for _ in range(q)]
        for b, roots in enumerate(self.ROOTS):
            for y in range(q):
                roots[self.ADD[self.MUL[y][y]][self.MUL[b][y]]].append(y)

    def add(self, *xs):
        ADD = self.ADD
        code, lists = 0, []
        for x in xs:
            if type(x) is list:
                lists.append(x)
            else:
                code = ADD[code][x]
        if not lists:
            return code
        out = lists[0]
        for y in lists[1:]:
            out = [ADD[a][b] for a, b in zip(out, y)]
        return out if code == 0 else list(map(ADD[code].__getitem__, out))

    def mul(self, x, y):
        if type(x) is list:
            x, y = y, x
        if type(x) is list:
            MUL = self.MUL
            return [MUL[a][b] for a, b in zip(x, y)]
        if type(y) is not list:
            return self.MUL[x][y]
        if x == 0:
            return 0
        return y if x == 1 else list(map(self.MUL[x].__getitem__, y))

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def neg(self, x):
        if type(x) is list:
            return list(map(self.NEG.__getitem__, x))
        return self.NEG[x]

    def inv(self, x):
        return self.INV[x]


# ---------------------------------------------------------------------------
# Weierstrass curves and their points


class WeierstrassCurve:
    def __init__(self, q: int, a: tuple, aut_order: int = 1,
                 _points: Optional[list] = None):
        self.q = q
        self.a = a  # (a1, a2, a3, a4, a6) field codes
        self.aut_order = aut_order
        self._points = _points
        self.F = SmallField(q)
        if _discriminant(self.F, *a) == 0:
            raise DomainError("singular Weierstrass equation")

    def points(self):
        """All affine points, x then y ascending, after None for the point
        at infinity."""
        if self._points is not None:
            return self._points
        F = self.F
        a1, a2, a3, a4, a6 = self.a
        pts = [None]
        for x in range(self.q):
            xx = F.mul(x, x)
            rhs = F.add(F.mul(x, xx), F.mul(a2, xx), F.mul(a4, x), a6)
            # y^2 + b y = rhs with b = a1 x + a3
            pts += [(x, y) for y in F.ROOTS[F.add(F.mul(a1, x), a3)][rhs]]
        self._points = pts
        return pts

    def count(self) -> int:
        return len(self.points())

    @property
    def trace(self) -> int:
        """a_E = q + 1 - #E(F_q); satisfies the Weil bound."""
        a = self.q + 1 - self.count()
        if a * a > 4 * self.q:
            raise BrokenIdentity(f"trace {a} violates the Weil bound at q = {self.q}")
        return a

    def hasse_invariant(self) -> int:
        """The Hasse invariant of the model, a field code that is 0 exactly
        when E is supersingular; it reads the coefficients, not the points.

        a1 at p = 2, b2 at p = 3, and at p >= 5 the coefficient of x^(p-1)
        in f^((p-1)/2), where y^2 = f(x) = x^3 + b2/4 x^2 + b4/2 x + b6/4
        is the model with the square completed.
        """
        F = self.F
        p = F.p
        a1, a2, a3, a4, a6 = self.a
        if p == 2:
            return a1
        b2 = F.add(F.mul(a1, a1), _nmul(F, 4, a2))
        if p == 3:
            return b2
        b4 = F.add(_nmul(F, 2, a4), F.mul(a1, a3))
        b6 = F.add(F.mul(a3, a3), _nmul(F, 4, a6))
        half, quarter = F.inv(_nmul(F, 2, F.one)), F.inv(_nmul(F, 4, F.one))
        f = [F.mul(b6, quarter), F.mul(b4, half), F.mul(b2, quarter),
             F.one]      # ascending powers of x
        power = [F.one]
        for _ in range((p - 1) // 2):
            prod = [0] * (len(power) + 3)
            for i, x in enumerate(power):
                for j, y in enumerate(f):
                    prod[i + j] = F.add(prod[i + j], F.mul(x, y))
            power = prod
        return power[p - 1]

    # -- group law -------------------------------------------------------------

    def neg_point(self, P):
        if P is None:
            return None
        F = self.F
        a1, _, a3, _, _ = self.a
        x, y = P
        return (x, F.neg(F.add(y, F.mul(a1, x), a3)))

    def add_points(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        F = self.F
        a1, a2, a3, a4, a6 = self.a
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2 and Q == self.neg_point(P):
            return None
        if P == Q:
            den = F.inv(F.add(_nmul(F, 2, y1), F.mul(a1, x1), a3))
            lam = F.mul(F.add(_nmul(F, 3, F.mul(x1, x1)),
                              _nmul(F, 2, F.mul(a2, x1)), a4,
                              F.neg(F.mul(a1, y1))), den)
            nu = F.mul(F.add(F.neg(F.mul(x1, F.mul(x1, x1))), F.mul(a4, x1),
                             _nmul(F, 2, a6), F.neg(F.mul(a3, y1))), den)
        else:
            den = F.inv(F.sub(x2, x1))
            lam = F.mul(F.sub(y2, y1), den)
            nu = F.mul(F.sub(F.mul(y1, x2), F.mul(y2, x1)), den)
        x3 = F.add(F.mul(lam, lam), F.mul(a1, lam), F.neg(a2), F.neg(x1),
                   F.neg(x2))
        y3 = F.neg(F.add(F.mul(F.add(lam, a1), x3), nu, a3))
        return (x3, y3)

    def scalar_mul(self, k, P):
        acc, base = None, P
        while k:
            if k & 1:
                acc = self.add_points(acc, base)
            base = self.add_points(base, base)
            k >>= 1
        return acc


def _nmul(F, n, x):
    """n * x for a small non-negative integer n: the code of n is n mod p."""
    return F.mul(n % F.p, x)


def _discriminant(F, a1, a2, a3, a4, a6):
    """Discriminant of the Weierstrass tuple; the coefficients are codes or
    lists of codes.  Products take their factors that are codes first."""
    add, mul, neg = F.add, F.mul, F.neg
    b2 = add(mul(a1, a1), _nmul(F, 4, a2))
    b4 = add(_nmul(F, 2, a4), mul(a1, a3))
    b6 = add(mul(a3, a3), _nmul(F, 4, a6))
    b8 = add(mul(mul(a1, a1), a6), _nmul(F, 4, mul(a2, a6)),
             neg(mul(mul(a1, a3), a4)), mul(mul(a2, a3), a3),
             neg(mul(a4, a4)))
    return add(neg(mul(mul(b2, b2), b8)),
               neg(_nmul(F, 8, mul(b4, mul(b4, b4)))),
               neg(_nmul(F, 27, mul(b6, b6))),
               _nmul(F, 9, mul(mul(b2, b4), b6)))


# ---------------------------------------------------------------------------
# the census


def _transform(F, a, g):
    """The coefficients of the curve a after the substitution g = (u, r, s, t).

    `a` holds five codes or lists of codes and `g` four codes; each image
    coefficient sums the terms in g alone first, then one term per a_i.
    """
    add, mul, neg = F.add, F.mul, F.neg
    a1, a2, a3, a4, a6 = a
    u, r, s, t = g
    iu = F.inv(u)
    iu2 = mul(iu, iu)
    iu3 = mul(iu2, iu)
    return (mul(add(a1, _nmul(F, 2, s)), iu),
            mul(add(a2, mul(neg(s), a1), _nmul(F, 3, r), neg(mul(s, s))), iu2),
            mul(add(a3, mul(r, a1), _nmul(F, 2, t)), iu3),
            mul(add(a4, mul(neg(s), a3), mul(_nmul(F, 2, r), a2),
                    mul(neg(add(t, mul(r, s))), a1), _nmul(F, 3, mul(r, r)),
                    neg(_nmul(F, 2, mul(s, t)))),
                mul(iu2, iu2)),
            mul(add(a6, mul(r, a4), mul(mul(r, r), a2), mul(neg(t), a3),
                    mul(neg(mul(r, t)), a1), mul(r, mul(r, r)),
                    neg(mul(t, t))),
                mul(iu3, iu3)))


def enumerate_curves(q: int) -> List[WeierstrassCurve]:
    """All elliptic curves over F_q up to isomorphism, with |Aut| recorded.

    Each class is represented by the least code among its normal-form
    tuples.  The census is computed once per q (see `_census`); every call
    checks the cap first and returns a fresh list.  The one cap, q^3,
    bounds both the largest normal-form family and the point walk of the
    about 2q classes with q^2 candidate points each.
    """
    check_cap(q**3, "Weierstrass normal-form space", default=2_000_000)
    return list(_census(q))


# Unconstrained and nonzero coefficients of a normal-form family.
_ANY, _UNIT = "any", "unit"


def _normal_forms(F):
    """The normal-form families over F (Silverman, Appendix A, Prop. A.1.1).

    Each is (shape, generators, group order): the shape gives a1..a6 as a
    fixed code, _ANY or _UNIT; the substitutions (u, r, s, t) that keep the
    shape form the residual group, generated by (u0, 0, 0, 0), u0 the
    least generator of F_q^x (`SmallField.unit_generators`, empty at q = 2),
    and translations over an F_p-basis of F_q.  The
    families split the curves by characteristic and by j = 0 or not, so no
    class lies in two of them.
    """
    q, p, r = F.q, F.p, F.r
    units = [(u0, 0, 0, 0) for u0 in F.unit_generators()]
    basis = [p**i for i in range(r)]    # the codes of 1, x, .., x^(r-1)
    if p >= 5:
        return [((0, 0, 0, _ANY, _ANY), units, q - 1)]
    if p == 3:
        return [((0, _UNIT, 0, 0, _ANY), units, q - 1),
                ((0, 0, 0, _UNIT, _ANY),
                 units + [(1, b, 0, 0) for b in basis],
                 (q - 1) * q)]
    # no t-translations are needed: (1, s^2, s, 0) (1, s'^2, s', 0)
    # (1, (s + s')^2, s + s', 0)^-1 = (1, 0, 0, s s'^2), and s' = 1 gives
    # every t
    return [((1, _ANY, 0, 0, _ANY), [(1, 0, b, 0) for b in basis], q),
            ((0, 0, _UNIT, _ANY, _ANY),
             units + [(1, F.mul(b, b), b, 0) for b in basis],
             (q - 1) * q * q)]


def _family(F, shape):
    """The nonsingular tuples of one shape in code order, and their index.

    The tuples are the shape's fixed codes and a list for each coefficient
    that varies.  The index is a table of nested lists over every code of
    the varying coefficients, the last one outermost: its entry is the
    tuple's position, or -1 where the tuple is singular or a unit is 0.
    """
    q = F.q
    free = [i for i, x in enumerate(shape) if x in (_ANY, _UNIT)]
    # the grid in code order: a6 varies slowest, a1 fastest
    a, size = list(shape), 1
    for i in free:
        a[i] = ([x for x in range(q) for _ in range(size)]
                * (q**(len(free) - 1) // size))
        size *= q
    keep = _discriminant(F, *a)
    for i in free:
        if shape[i] == _UNIT:     # zero where the unit coefficient is 0
            keep = list(map(operator.mul, keep, a[i]))
    position = itertools.count()
    table = [next(position) if k else -1 for k in keep]
    for _ in free[1:]:
        table = [table[j:j + q] for j in range(0, len(table), q)]
    return ([list(itertools.compress(x, keep)) if type(x) is list else x
             for x in a], table)


def _index_of(table, shape, a, size):
    """The positions of the `size` tuples `a` in a family's index `table`,
    with -1 for each tuple outside the family."""
    rows = [table] * size
    for i in reversed(range(5)):
        x = a[i]
        if shape[i] not in (_ANY, _UNIT):
            # a fixed coefficient: any other value puts the tuple outside
            if (x != shape[i] if type(x) is not list
                    else x.count(shape[i]) < size):
                return [-1] * size
        elif type(x) is list:
            rows = list(map(operator.getitem, rows, x))
        else:
            rows = list(map(operator.itemgetter(x), rows))
    return rows


def _orbits(perms, size):
    """(least index, size) of each orbit of the group that the index
    permutations `perms` generate, in order of the least index.

    A walk from each index not yet reached, through every permutation,
    meets the whole orbit: the perms are of finite order, so their inverses
    are among their powers.
    """
    reached = bytearray(size)
    for i in range(size):
        if reached[i]:
            continue
        reached[i] = 1
        orbit = [i]
        for j in orbit:
            for perm in perms:
                k = perm[j]
                if not reached[k]:
                    reached[k] = 1
                    orbit.append(k)
        yield i, len(orbit)


@functools.cache
def _census(q):
    """The census at q, sorted by coefficients, each orbit checked.

    Each generator of a family's residual group permutes the family's
    nonsingular tuples, and the orbits of these permutations are the
    isomorphism classes in the family.  A class is represented by its
    least code; its stabilizer in the residual group is Aut(E).
    """
    F = SmallField(q)
    curves = []
    for shape, gens, group_order in _normal_forms(F):
        a, table = _family(F, shape)
        size = next(len(x) for x in a if type(x) is list)
        perms = []
        for g in gens:
            perm = _index_of(table, shape, _transform(F, a, g), size)
            # one-to-one onto the family: every image in it, none hit twice
            if -1 in perm or len(set(perm)) < size:
                raise BrokenIdentity(f"substitution {g} over F_{q} does not "
                                     f"permute the normal forms {shape}")
            perms.append(perm)
        for i, orbit in _orbits(perms, size):
            rep = tuple(x[i] if type(x) is list else x for x in a)
            if group_order % orbit:
                raise BrokenIdentity(f"orbit of {rep} over F_{q} has {orbit} "
                                     f"tuples, not a divisor of {group_order}")
            # the stabilizer is Aut(E): it holds -1 and divides 24 (Silverman
            # III.10.1), which a closed but too small orbit would break
            aut = group_order // orbit
            if aut % 2 or 24 % aut:
                raise BrokenIdentity(f"orbit of {rep} over F_{q} gives |Aut| "
                                     f"= {aut}, not an even divisor of 24")
            curves.append(WeierstrassCurve(q, rep, aut_order=aut))
    curves.sort(key=lambda E: E.a)
    return tuple(curves)


# ---------------------------------------------------------------------------
# level structures


def level_m_count(E: WeierstrassCurve, m: int) -> int:
    """Moduli points above E: ordered bases of E[m](F_q) divided by |Aut|.

    One walk P, 2P, ... from each point finds whether mP = 0 and lists the
    multiples of the m-torsion points; the spans of the pairs are then read
    off one addition table of E[m](F_q)."""
    check_level(factor_prime_power(E.q)[0], m)
    multiples = {}
    for P in E.points():
        walk, x = [None], P             # x = len(walk) P
        while x is not None and len(walk) < m:
            walk.append(x)
            x = E.add_points(x, P)
        if x is None and m % len(walk) == 0:
            multiples[P] = walk
    if len(multiples) != m * m:
        return 0
    index = {P: i for i, P in enumerate(multiples)}
    table = [[index[E.add_points(P, Q)] for Q in multiples] for P in multiples]
    spans = [[index[x] for x in walk] for walk in multiples.values()]
    bases = sum(len({table[x][y] for x in iP for y in jQ}) == m * m
                for iP in spans for jQ in spans)
    if bases % E.aut_order:
        raise BrokenIdentity(f"|Aut| = {E.aut_order} of {E.a} over F_{E.q} "
                             f"does not act freely on the {bases} bases of "
                             f"E[{m}]")
    return bases // E.aut_order


def level_m_count_closed(E: WeierstrassCurve, m: int) -> int:
    """`level_m_count` in closed form: |GL2(Z/m)| / |Aut| when E[m] is
    rational, else 0.

    A rational E[m] puts the m-th roots of unity in F_q (Weil pairing), so
    q = 1 mod m, and then #E[m](F_q) = m^2.  Its ordered bases are then
    |GL2(Z/m)| many, and Aut(E) acts on them freely for m >= 3.
    """
    check_level(factor_prime_power(E.q)[0], m)
    if (E.q - 1) % m or E.count() % (m * m):
        return 0
    if sum(E.scalar_mul(m, P) is None for P in E.points()) != m * m:
        return 0
    bases = gl2_order_mod(m)
    if bases % E.aut_order:
        raise BrokenIdentity(f"|Aut| = {E.aut_order} of {E.a} over F_{E.q} "
                             f"does not divide the {bases} bases of E[{m}]")
    return bases // E.aut_order


# ---------------------------------------------------------------------------
# isogeny classes and the Lefschetz sum


class IsogenyClassRecord(NamedTuple):
    trace: int
    curves: List[WeierstrassCurve]
    ordinary: bool
    unit_eigenvalue: Optional[int]  # mod p^n when ordinary and n >= 1


def _unit_root_mod(a_E: int, q: int, p: int, n: int) -> int:
    """Unit root of x^2 - a_E x + q mod p^n: the unit eigenvalue of its
    companion matrix, a DomainError when p divides a_E (supersingular)."""
    frob = LocalMatrix.from_integers(get_context(p, 1, n), [[0, -q], [1, a_E]])
    return unit_eigenvalue(frob, n).coeffs[0]


def isogeny_classes(q: int, n: int = 1) -> List[IsogenyClassRecord]:
    """Census curves grouped by Frobenius trace, Honda-Tate style."""
    p, r = factor_prime_power(q)
    by_trace: Dict[int, list] = {}
    for E in enumerate_curves(q):
        by_trace.setdefault(E.trace, []).append(E)
    out = []
    for a_E in sorted(by_trace):
        ordinary = a_E % p != 0
        unit = _unit_root_mod(a_E, q, p, n) if (ordinary and n >= 1) else None
        out.append(IsogenyClassRecord(a_E, by_trace[a_E], ordinary, unit))
    return out


class LefschetzReport(NamedTuple):
    q: int
    p: int
    r: int
    n: int
    m: int
    per_class: list
    total: Fraction
    moduli_points: int
    boundary: Optional[Fraction]
    level_points: Dict[tuple, int]  # per curve, keyed by its coefficients

    def to_dict(self):
        return {
            "q": self.q, "p": self.p, "r": self.r, "n": self.n, "m": self.m,
            "total": str(self.total),
            "moduli_points": self.moduli_points,
            "boundary": None if self.boundary is None else str(self.boundary),
            "per_class": [
                {"trace": row["trace"], "points": row["points"],
                 "ordinary": row["ordinary"],
                 "point_trace": str(row["point_trace"])}
                for row in self.per_class
            ],
        }


def point_trace(p: int, r: int, n: int, ordinary: bool,
                unit_eigenvalue: Optional[int]) -> int:
    """Semisimple trace at one moduli point, via the character sums.

    A second, independent path (fixed surjections resp. the explicit
    Steinberg dimension) is computed and compared on every call.
    """
    if n == 0:
        return 1
    if ordinary:
        val = ss_trace_point("ordinary", p, r, n, a=unit_eigenvalue)
        direct = fixed_surjections(p, n, (1, 0, 0, 1), a=unit_eigenvalue)
        _check_point_trace(val, direct, p, r, n, "ordinary")
        return direct
    val = ss_trace_point("supersingular", p, r, n)
    direct = ss_trace_closed(p, r, n)
    _check_point_trace(val, direct, p, r, n, "supersingular")
    return direct


def _check_point_trace(val, direct, p, r, n, kind):
    if val != direct:
        raise BrokenIdentity(f"{kind} point trace at (p, r, n) = ({p}, {r}, {n}): "
                             f"character sum {val} != {direct}")


def ss_lefschetz(p: int, r: int, n: int, m: int) -> LefschetzReport:
    """Sum of semisimple point traces over the level-m census at q = p^r.

    The level count of each curve is the closed form, computed once and
    kept in `level_points`.
    """
    q = p**r
    per_class = []
    total = Fraction(0)
    moduli_points = 0
    level_points = {}
    for rec in isogeny_classes(q, n=max(n, 1)):
        for E in rec.curves:
            level_points[E.a] = level_m_count_closed(E, m)
        pts = sum(level_points[E.a] for E in rec.curves)
        if pts == 0:
            continue
        tr = point_trace(p, r, n, rec.ordinary,
                         rec.unit_eigenvalue if rec.ordinary else None)
        per_class.append({"trace": rec.trace, "points": pts,
                          "ordinary": rec.ordinary, "point_trace": tr})
        total += pts * tr
        moduli_points += pts
    boundary = boundary_ss_trace(p, r, n, m) if n >= 1 else None
    return LefschetzReport(q, p, r, n, m, per_class, total, moduli_points,
                           boundary, level_points)


# ---------------------------------------------------------------------------
# the boundary term


def gl2_order_mod(N: int) -> int:
    """|GL2(Z/N)| by multiplicativity over prime powers."""
    out = 1
    while N > 1:
        p, a = _least_prime_factor(N), 0
        while N % p == 0:
            N, a = N // p, a + 1
        out *= group_order_gl2(p, a)
    return out


def boundary_ss_trace(p: int, r: int, n: int, m: int) -> Fraction:
    """Boundary contribution: 0 unless p^r = 1 mod m, else the packet count."""
    check_boundary_input(p, r, n, m)
    if pow(p, r, m) != 1 % m:
        return Fraction(0)
    modulus = p**n * m
    cosets = gl2_order_mod(modulus) // (2 * modulus)
    packet = p**(n - 1) * (p - 1)
    val = Fraction(cosets, packet)
    if val.denominator != 1:
        raise BrokenIdentity(f"boundary packet count {val} is not an integer")
    return val


def boundary_packets(p: int, r: int, n: int, m: int):
    """The boundary packets by an orbit listing through CRT: one
    (representative, size, Frobenius-fixed) per packet.

    The packets are the orbits of GL2(Z/N), N = p^n m, under left
    multiplication by H = <+-1, the unipotent [[1, 1], [0, 1]], inertia
    diag(k, 1)>, k over the generators of (Z/p^n)^x lifted to 1 mod m.  By
    CRT, GL2(Z/N) = GL2(Z/p^n) x GL2(Z/m): the unipotent generates the
    unipotents at both factors, and with inertia H = +-(P x U), P the
    mirabolic [[u, b], [0, 1]] at p^n and U the unipotent at m.  So the
    packets are the +-orbits on pairs (P-orbit, U-orbit).  P x = the
    matrices with x's bottom row, and U y = {[[1, b], [0, 1]] y}, keyed by
    its least element; each factor's orbits, with their element counts, come
    from one scan of that factor.  A packet's size is the sum over its pairs
    of the two counts: 2 N phi(p^n) where every count is right and -1 moves
    every pair.  Frobenius through the tame quotient is diag(x^-1, 1) for
    x = 1 mod p^n and p^r mod m: the identity at p^n and diag(p^-r, 1) at m.
    It normalizes H, so it maps the packet of (A, B) to that of (A, F B).
    The representative of a packet is the CRT lift of its first pair's
    least elements.
    """
    check_boundary_input(p, r, n, m)
    pn = p**n
    check_cap(pn**4 + m**4, "boundary group enumeration")

    def u_orbit(y):
        return min(((y[0] + b * y[2]) % m, (y[1] + b * y[3]) % m, y[2], y[3])
                   for b in range(m))
    mirabolic = _left_orbits(pn, lambda x: x[2:])
    unipotent = _left_orbits(m, u_orbit)
    f = pow(p, -r, m)
    out, seen = [], set()
    for A, (a_rep, _) in mirabolic.items():
        minus_a = tuple(-x % pn for x in A)
        for B, (b_rep, _) in unipotent.items():
            if (A, B) in seen:
                continue
            pairs = {(A, B), (minus_a, u_orbit([-x % m for x in b_rep]))}
            seen |= pairs
            size = sum(mirabolic[a][1] * unipotent[b][1] for a, b in pairs)
            frob = (A, u_orbit((f * b_rep[0] % m, f * b_rep[1] % m,
                                b_rep[2], b_rep[3])))
            out.append((tuple(_crt(x, pn, y, m) for x, y in zip(a_rep, b_rep)),
                        size, frob in pairs))
    return out


def _left_orbits(mod, key):
    """{key: [least element, count]} over GL2(Z/mod), its elements scanned
    in lexicographic order; key(x) names the orbit of x."""
    orbits = {}
    for x in itertools.product(range(mod), repeat=4):
        if math.gcd(x[0] * x[3] - x[1] * x[2], mod) == 1:
            entry = orbits.setdefault(key(x), [x, 0])
            entry[1] += 1
    return orbits


def boundary_orbit_report(p: int, r: int, n: int, m: int):
    """(packets, fixed_packets, sizes_ok) of `boundary_packets`: the number
    of packets, of those Frobenius fixes, and whether every packet is
    p^(n-1) (p-1) cosets of {+-unipotent}, 2 N phi(p^n) elements."""
    packets = boundary_packets(p, r, n, m)
    size = _packet_size(p, n, m)
    return (len(packets), sum(fixed for _, _, fixed in packets),
            all(s == size for _, s, _ in packets))


def boundary_packet_fault(p: int, r: int, n: int, m: int):
    """The first packet of the wrong size, else the first one Frobenius
    moves, as a witness: its representative mod p^n m, its size against
    2 N phi(p^n), and whether Frobenius fixes it.  None if there is none."""
    size = _packet_size(p, n, m)
    packets = boundary_packets(p, r, n, m)
    bad = (next((x for x in packets if x[1] != size), None)
           or next((x for x in packets if not x[2]), None))
    return None if bad is None else {
        "packet": str(bad[0]), "size": str(bad[1]),
        "expected_size": str(size), "frobenius_fixed": str(bad[2])}


def _packet_size(p, n, m):
    """2 N phi(p^n), N = p^n m: the elements of p^(n-1) (p-1) cosets of
    {+-unipotent}."""
    return 2 * p**n * m * p**(n - 1) * (p - 1)


def _crt(r1, m1, r2, m2):
    """x = r1 mod m1, x = r2 mod m2 for coprime moduli."""
    inv = pow(m1, -1, m2)
    return (r1 + m1 * ((r2 - r1) * inv % m2)) % (m1 * m2)
