"""The norm bijection of sigma-conjugacy classes, by certificate.

Let O_r = GR(p^n, r) with Frobenius sigma and G_r = GL2(O_r); delta and
h^-1 delta sigma(h) are sigma-conjugate.  The norm N(delta) =
delta sigma(delta) ... sigma^(r-1)(delta) matches the sigma-classes of G_r
with the conjugacy classes of GL2(Z/p^n).  The certificate proves that
matching a bijection, and finds every twisted centralizer order, without
listing G_r.  It walks the classes gamma of the normal-form table of
`finitegl2`:

- *A preimage.*  Search the commutant units delta = a + b gamma, a and b in
  O_r, for N(delta) = gamma exactly; a scalar gamma needs the scalars a
  alone.  One exists: O_r[gamma] is etale over Z/p^n[gamma], and the norm
  of an unramified extension is onto on units (Serre, *Local Fields*,
  ch. V).  The search is capped on classes x p^(2nr) before it starts.
- *Its twisted centralizer.*  A = {X in M2(O_r) : X delta = delta sigma(X)}
  is a ring, and Z_sigma(delta) = A^x.  |A| is the kernel size of the
  Z/p^n-linear map X -> X delta - delta sigma(X) on M2(O_r) =
  (Z/p^n)^(4r), p^(e_1 + ... + e_4r) for its Smith form diag(p^e_i) (e_i = n
  for a zero).  X is a unit iff X mod p is one, so |A^x| =
  (|A| / |Abar|) #{invertible Y in Abar}, where Abar = A mod p is spanned
  by the kernel directions with e_i = n.  Abar is a form of the
  centralizer of gamma mod p (Kottwitz, "Rational conjugacy classes in
  reductive groups", Duke Math. J. 1982), of F_p-dimension 2 or 4.  Its
  singular elements are counted line by line of P^1(F_(p^r)), each line's
  a kernel read off a Smith form, so Abar is not listed either.
- *Distinctness.*  If delta' = x^-1 delta sigma(x), then N(delta') =
  x^-1 N(delta) x.  The normal-form key of `finitegl2` is a conjugation
  invariant over any coefficient ring, and it separates the classes of
  GL2(Z/p^n); so the delta of distinct classes are not sigma-conjugate.
- *Completeness.*  The sigma-class of delta_gamma has |G_r| /
  |Z_sigma(delta_gamma)| elements (orbit-stabilizer).  If these sizes sum
  to |G_r|, taken in closed form, the sigma-classes of the delta_gamma are
  all of G_r, and the norm is a bijection.

`norm_table_checks` makes the four rows of `verify-norm` from one table.
The tests hold the materialized table, by orbit closure over all of G_r,
as the oracle of this one.  This module loads no numpy.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, NamedTuple

from .errors import check_cap
from .finitegl2 import FiniteGL2, _class_count, _class_keys, _least_rep
from .padic import check_unit_group_input, group_order_gl2, vp_int
from .ringtables import RingTableLists
from .rows import Check, _witness


class SigmaOrbitRecord(NamedTuple):
    rep: tuple            # the class of GL2(Z/p^n) whose norm preimage lies here
    size: int
    tw_centralizer: int
    norm_class: int
    norm_centralizer: int


class SigmaOrbitTable(NamedTuple):
    p: int
    r: int
    n: int
    group_order: int
    class_count: int
    orbit_count: int
    orbits: List[SigmaOrbitRecord]
    bijection: bool
    # the least element (entry codes) of the first orbit no class claims;
    # only a table listed by orbit closure can find one
    unclaimed: tuple = None

    def all_centralizers_match(self):
        return all(o.tw_centralizer == o.norm_centralizer for o in self.orbits)

    def to_dict(self):
        return {
            "p": self.p, "r": self.r, "n": self.n,
            "group_order": self.group_order,
            "class_count": self.class_count,
            "orbit_count": self.orbit_count,
            "bijection": self.bijection,
            "orbits": [{"rep": list(o.rep), "size": o.size,
                        "tw_centralizer": o.tw_centralizer,
                        "norm_class": o.norm_class}
                       for o in self.orbits],
        }


def sigma_orbits(p: int, r: int, n: int) -> SigmaOrbitTable:
    """The sigma-class table of GL2(GR(p^n, r)) by the certificate of the
    module docstring: one record per class with a norm preimage, its size
    |G_r| / |Z_sigma(delta)|.  The class count is the closed form, the
    orbit count the preimages found; the bijection needs one preimage per
    class and the twisted class equation."""
    return certificate(p, r, n)[0]


def certificate(p: int, r: int, n: int):
    """(table, deltas): the table of `sigma_orbits` and, record by record,
    the entry codes of the norm preimage delta_gamma it was read at."""
    check_unit_group_input(p, r, n)
    check_cap(_class_count(p, n) * p**(2 * n * r), "norm preimage search pairs",
              default=2_000_000)
    ring = RingTableLists(p, r, n)
    order = group_order_gl2(p**r, n)
    records, deltas = [], []
    for cid, gamma, centralizer in _classes(p, n):
        delta = norm_preimage(ring, gamma)
        if delta is None:
            continue
        tw = twisted_centralizer_order(ring, delta)
        size = Fraction(order, tw)
        records.append(SigmaOrbitRecord(
            gamma, int(size) if size.denominator == 1 else size, tw, cid,
            centralizer))
        deltas.append(delta)
    count = _class_count(p, n)
    covered = sum(Fraction(order, o.tw_centralizer) for o in records) == order
    return SigmaOrbitTable(p, r, n, order, count, len(records), records,
                           len(records) == count and covered), deltas


def _classes(p, n):
    """(class id, representative, centralizer order) for every class of
    GL2(Z/p^n), from the normal-form table."""
    G = FiniteGL2(p, n)
    return [(cid, rep, G.order // size)
            for cid, (rep, size) in enumerate(zip(G.class_reps, G.class_sizes))]


def commutant_ops(ring: RingTableLists, gamma):
    """(matrix, mul, norm, det, inverse) on the commutant pairs (a, b), codes
    of O_r that stand for a + b gamma, gamma over Z/p^n.

    By Cayley-Hamilton gamma^2 = t gamma - d, with t and d its trace and
    determinant, so pairs multiply as (a, b)(a', b') = (a a' - d b b',
    a b' + b a' + t b b'), and sigma acts on a and b alone.  The adjugate
    of (a, b) is (a + t b, -b), their product the determinant
    a^2 + t a b + d b^2, and the inverse of a unit the adjugate over it.
    `matrix` gives the four entry codes, `norm` the pair of
    x sigma(x) ... sigma^(r-1)(x).
    """
    ADD, MUL, NEG, SIG, INV = ring.ADD, ring.MUL, ring.NEG, ring.SIG, ring.INV
    g0, g1, g2, g3 = (x % ring.pn for x in gamma)
    t, d = (g0 + g3) % ring.pn, (g0 * g3 - g1 * g2) % ring.pn

    def matrix(a, b):
        return (ADD[a][MUL[b][g0]], MUL[b][g1], MUL[b][g2], ADD[a][MUL[b][g3]])

    def mul(a, b, a2, b2):
        bb = MUL[b][b2]
        return (ADD[MUL[a][a2]][NEG[MUL[d][bb]]],
                ADD[ADD[MUL[a][b2]][MUL[b][a2]]][MUL[t][bb]])

    def norm(a, b):
        # the product of `mul`, written out for the preimage search
        x, y = a, b
        for _ in range(ring.r - 1):
            a, b = SIG[a], SIG[b]
            yb = MUL[y][b]
            x, y = (ADD[MUL[x][a]][NEG[MUL[d][yb]]],
                    ADD[ADD[MUL[x][b]][MUL[y][a]]][MUL[t][yb]])
        return x, y

    def det(a, b):
        return ADD[ADD[MUL[a][a]][MUL[t][MUL[a][b]]]][MUL[d][MUL[b][b]]]

    def inverse(a, b):
        di = INV[det(a, b)]
        return MUL[ADD[a][MUL[t][b]]][di], MUL[NEG[b]][di]

    return matrix, mul, norm, det, inverse


def norm_preimage(ring: RingTableLists, gamma):
    """The four entry codes of the first delta = a + b gamma with
    N(delta) = gamma, a outer and b inner over the codes of O_r (b = 0 if
    gamma is scalar), on the pairs of `commutant_ops`; None if there is
    none.  A delta whose norm is the unit gamma is a unit itself.
    """
    matrix, _, norm, _, _ = commutant_ops(ring, gamma)
    gamma = tuple(x % ring.pn for x in gamma)
    scalar = gamma[1] == gamma[2] == 0 and gamma[0] == gamma[3]
    pairs = (((a, 0) for a in range(ring.Q)) if scalar
             else itertools.product(range(ring.Q), repeat=2))
    return next((matrix(a, b) for a, b in pairs
                 if matrix(*norm(a, b)) == gamma), None)


def twisted_centralizer_order(ring: RingTableLists, delta) -> int:
    """|Z_sigma(delta)| = |A^x| for A = {X : X delta = delta sigma(X)}:
    |A| from the Smith form of X -> X delta - delta sigma(X), and the units
    of Abar = A mod p by `_units_mod_p` (module docstring).

    A coordinate of X is one Galois-ring digit of one entry, entry by
    entry, so the map is a 4r x 4r matrix over Z/p^n, one column per digit.
    """
    ADD, NEG, SIG = ring.ADD, ring.NEG, ring.SIG
    p, r, n = ring.p, ring.r, ring.n
    columns = []
    for e, b in itertools.product(range(4), ring.base):
        X = [0, 0, 0, 0]
        X[e] = b
        lhs = _matmul(ring, X, delta)
        rhs = _matmul(ring, delta, [SIG[x] for x in X])
        columns.append([c for x, y in zip(lhs, rhs)
                        for c in ring.decode(ADD[x][NEG[y]])])
    exponents, C = _smith([list(row) for row in zip(*columns)], p, n)
    free = [k for k, e in enumerate(exponents) if e == n]
    basis = [[ring.encode(C[e * r + i][k] % p for i in range(r))
              for e in range(4)] for k in free]
    return p**(sum(exponents) - len(free)) * _units_mod_p(ring, basis)


def _units_mod_p(ring: RingTableLists, basis) -> int:
    """#{invertible Y} in the F_p-span Abar of `basis`, matrices over O_r
    read mod p, so in M2(F_q), q = p^r.

    A nonzero singular Y in M2(F_q) has rank 1, so it kills exactly one
    line v of P^1(F_q); the Y in Abar that kill v are the kernel of the
    F_p-linear map Y -> Y v, of size p^(its Smith exponents' sum) over F_p.
    So the singular elements of Abar are 0 and, line by line, the nonzero
    elements of those kernels: no listing of Abar is needed.
    """
    ADD, MUL = ring.ADD, ring.MUL
    p = ring.p
    residues = [ring.encode(c) for c in itertools.product(range(p),
                                                         repeat=ring.r)]
    singular = 1
    for v0, v1 in [(0, 1)] + [(1, y) for y in residues]:
        images = [[c % p for x in (ADD[MUL[Y[0]][v0]][MUL[Y[1]][v1]],
                                   ADD[MUL[Y[2]][v0]][MUL[Y[3]][v1]])
                   for c in ring.decode(x)] for Y in basis]
        singular += p**sum(_smith([list(row) for row in zip(*images)],
                                  p, 1)[0]) - 1
    return p**len(basis) - singular


def _matmul(ring, x, y):
    ADD, MUL = ring.ADD, ring.MUL
    return (ADD[MUL[x[0]][y[0]]][MUL[x[1]][y[2]]],
            ADD[MUL[x[0]][y[1]]][MUL[x[1]][y[3]]],
            ADD[MUL[x[2]][y[0]]][MUL[x[3]][y[2]]],
            ADD[MUL[x[2]][y[1]]][MUL[x[3]][y[3]]])


def _smith(M, p, n):
    """(exponents, C) for a matrix M over Z/p^n, its rows as lists:
    R M C = diag(p^e_k) with R and C invertible, one exponent per column
    and e_k = n for a zero.  So M x = 0 iff x = C y with p^e_k y_k = 0 for
    every k, and the kernel has p^(e_1 + e_2 + ...) elements.

    Each step takes as pivot an entry of least valuation in the block left,
    which divides every other entry there, and clears its row and column.
    """
    mod, rows, cols = p**n, len(M), len(M[0])
    C = [[int(i == j) for j in range(cols)] for i in range(cols)]
    exponents = []
    for k in range(min(rows, cols)):
        entries = [(vp_int(M[i][j], p).value, i, j) for i in range(k, rows)
                   for j in range(k, cols) if M[i][j]]
        if not entries:
            break
        v, i, j = min(entries)
        M[k], M[i] = M[i], M[k]
        for row in M + C:
            row[k], row[j] = row[j], row[k]
        inv = pow(M[k][k] // p**v, -1, mod)
        for i in range(k + 1, rows):
            f = M[i][k] // p**v * inv % mod
            if f:
                M[i] = [(x - f * y) % mod for x, y in zip(M[i], M[k])]
        for j in range(k + 1, cols):
            f = M[k][j] // p**v * inv % mod
            if f:
                for row in M + C:
                    row[j] = (row[j] - f * row[k]) % mod
        exponents.append(v)
    return exponents + [n] * (cols - len(exponents)), C


# ---------------------------------------------------------------------------
# the norm-bijection rows


def norm_bijection_checks(cases=((2, 2, 1), (3, 2, 1), (2, 2, 2), (2, 3, 1))):
    out = []
    for (p, r, n) in cases:
        out.extend(norm_table_checks(sigma_orbits(p, r, n)))
    return out


def norm_table_checks(tab):
    """The four norm-bijection rows of one sigma-class table, each with the
    fault it catches.  A failed boolean row names a class: the first class
    of the closed-form class list that has no record, or whose twisted
    centralizer is not its own.

    - sigma-orbit-count: the sigma-classes found, one per norm preimage,
      against the closed-form class count.  It catches a class without a
      norm preimage and a class dropped from the class table.
    - norm-bijection: one preimage per class and the class equation below.
      It catches those two faults, a wrong twisted centralizer order, and,
      in a table listed by orbit closure, an orbit that no class claims
      (named by its least element when every class is sound).
    - centralizer-orders: |Z_sigma(delta_gamma)| = |C(gamma)| class by
      class.  It catches a wrong twisted centralizer order.
    - orbit-stabilizer: the twisted class equation
      sum_gamma |G_r| / |Z_sigma(delta_gamma)| = |G_r|, |G_r| in closed form
      in the certificate: the sigma-classes found fill G_r.  It catches a
      wrong twisted centralizer order, a class without a preimage and a
      dropped class.
    """
    inputs = {"p": tab.p, "r": tab.r, "n": tab.n}
    bad_tw = [(o.rep, o.tw_centralizer, o.norm_centralizer)
              for o in tab.orbits if o.tw_centralizer != o.norm_centralizer]
    total = sum(Fraction(tab.group_order, o.tw_centralizer) for o in tab.orbits)
    covered = total == tab.group_order
    bad = None if covered and tab.bijection else _first_bad_class(tab)
    where = {"orbit": str(tab.unclaimed)} if bad is None else {"class": str(bad)}
    return [
        Check("sigma-orbit-count", inputs, tab.class_count, tab.orbit_count),
        Check("norm-bijection", inputs, True, tab.bijection,
              None if tab.bijection else
              {**where, "classes": str(tab.class_count),
               "orbits": str(tab.orbit_count)}),
        Check("centralizer-orders", inputs, True, not bad_tw,
              _witness(bad_tw, ("class", "tw_centralizer",
                                "norm_centralizer"))),
        Check("orbit-stabilizer", inputs, True, covered,
              None if covered else
              {"class": str(bad), "class_equation_sum": str(total),
               "group_order": str(tab.group_order)}),
    ]


def _first_bad_class(tab):
    """The first class, in the order of the closed-form class list, with no
    record in the table or a twisted centralizer other than its own; None
    if every class is sound."""
    p, n = tab.p, tab.n
    records = {o.rep: o for o in tab.orbits}
    for rep in sorted(_least_rep(p, n, key) for key in _class_keys(p, n)):
        o = records.get(rep)
        if o is None or o.tw_centralizer != o.norm_centralizer:
            return rep
    return None
