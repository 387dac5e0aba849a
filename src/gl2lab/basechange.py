"""Finite-level base change: the unit identity and the exact sequence.

Let O_r = GR(p^j, r) with Frobenius sigma, G_r = GL2(O_r) and N(x) =
x sigma(x) ... sigma^(r-1)(x).  The base-change unit identity: for a class
function f of GL2(Z/p^j) and delta in G_r, the average of f(N(u delta))
over u in Gamma(p^k) (the kernel of reduction mod p^k) equals the average
of f(v gamma) over v in Gamma(p^k) of GL2(Z/p^j), gamma in the class of
N(delta).  It is checked at the norm preimages delta_gamma of `normcert`:

- *sigma-invariance.*  Gamma(p^k) is normal and N(h^-1 x sigma(h)) =
  h^-1 N(x) h, so u -> h^-1 u h carries the left sum at delta term by term
  to the one at h^-1 delta sigma(h), and the right side reads only the
  class of N(delta): both sides are constant on sigma-classes.  The
  certificate's twisted class equation proves that the sigma-classes of
  the delta_gamma are all of G_r; where it fails, the row names a class.
- *fibres.*  u -> u delta maps Gamma(p^k) onto the fibre of delta mod p^k,
  so the left sum depends only on that fibre.  It is a tally of the
  classes of the N(x) over each distinct fibre (at k = 0 the one fibre
  G_r), read off the normal-form key of `finitegl2` with the ring tables;
  every function of a call is read off the same tallies.
- *cost.*  At most min(classes x |Gamma(p^k)|, |G_r|) norms, capped before
  any work: 7 fibres of 256 at (p, r, j, k) = (2, 2, 2, 1), against the
  46,080 elements of G_r.

The right side is a tally in integers mod p^j, one per distinct fibre of
gamma mod p^k: the classes of the lifts gamma + p^k M2(Z/p^j) by
`FiniteGL2.class_of` (at k = 0 the class sizes).  It shares the key table
`FiniteGL2._class_ids` with the left side's `_norm_class_reader`, but not
the reader code, so a wrong class read on either side fails an indicator
row; that the key table holds every class is checked against the orbit
oracle in the tests.  Every tally on either side must count |Gamma(p^k)|
elements.  The
exact sequence of unit groups behind the norm bijection runs on the
commutant pairs of `normcert.commutant_ops`, without listing the group.
The two batteries, `exact_sequence_checks` and `bc_unit_checks`, live here
next to their defects, so their commands load no other battery.

Sign convention recorded for downstream (out-of-scope) comparisons of
orbital integrals: matching carries the sign +, except when the norm is
central while the element itself is not sigma-conjugate to a central
element, where it is -.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import DEFAULT_SEED
from .errors import BrokenIdentity, DomainError, check_cap
from .finitegl2 import FiniteGL2, _class_count
from .normcert import _first_bad_class, certificate, commutant_ops
# perfbench's tracer times the certificate under this module's name
from .normcert import sigma_orbits  # noqa: F401
from .padic import check_unit_group_input, group_order_gl2
from .ringtables import RingTableLists
from .rows import Check, _witness

__all__ = ["sigma_orbits", "unit_group_exactness", "unit_group_defect",
           "exact_sequence_checks", "bc_unit_identity", "bc_unit_defect",
           "bc_unit_defects", "bc_unit_checks"]


# ---------------------------------------------------------------------------
# the exact sequence of unit groups


def unit_group_exactness(gamma, p: int, r: int, n: int) -> bool:
    """0 -> Z_p -> Z_pr --d1--> Z_pr --d2--> Z_p -> 0 on commutant units.

    gamma is a matrix over Z/p^n (4-tuple); d1(x) = x x^(-sigma),
    d2 = the norm; Z_p resp. Z_pr are the unit groups of the subrings
    generated by gamma over Z/p^n resp. GR(p^n, r).
    """
    return unit_group_defect(gamma, p, r, n) is None


def _commutant_units(ring, gamma, scalars):
    """The pairs (a, b), a outer and b inner over `scalars`, for which
    a + b gamma is a unit."""
    det, VAL = commutant_ops(ring, gamma)[3], ring.VAL
    return [(a, b) for a in scalars for b in scalars if VAL[det(a, b)] == 0]


def unit_group_defect(gamma, p: int, r: int, n: int):
    """The first spot where the sequence of `unit_group_exactness` is not
    exact at gamma, with the sizes of the two sets compared there; None if
    it is exact.  The sets hold the units' four entry codes, so a scalar
    gamma, whose pairs repeat matrices, compares matrices."""
    check_unit_group_input(p, r, n)
    ring = RingTableLists(p, r, n)
    SIG = ring.SIG
    matrix, mul, norm, _, inverse = commutant_ops(ring, gamma)
    big = _commutant_units(ring, gamma, range(ring.Q))
    small = {matrix(a, b) for a, b in _commutant_units(ring, gamma,
                                                       range(p**n))}
    one = (1, 0, 0, 1)
    key = [matrix(a, b) for a, b in big]
    # d1(x) = x sigma(x)^-1 and d2 = the norm
    im1 = [matrix(*mul(a, b, *inverse(SIG[a], SIG[b]))) for a, b in big]
    im2 = [matrix(*norm(a, b)) for a, b in big]
    spots = (
        # the sigma-fixed points of the big unit group are the small one;
        # sigma acts on the entries, as gamma is over Z/p^n
        ("sigma-fixed units = small units",
         {m for m in key if (SIG[m[0]], SIG[m[1]], SIG[m[2]], SIG[m[3]]) == m},
         small),
        ("image d1 = kernel d2", set(im1),
         {m for m, y in zip(key, im2) if y == one}),
        # exactness at the last spot: the norm surjects onto the small units
        ("image d2 = small units", set(im2), small),
        # kernel of d1 is the image of the small units
        ("kernel d1 = small units",
         {m for m, y in zip(key, im1) if y == one}, small))
    return next(((spot, len(a), len(b)) for spot, a, b in spots if a != b),
                None)


def exact_sequence_checks(cases=((2, 2, 1), (2, 2, 2), (3, 2, 1)),
                          samples=20, seed=DEFAULT_SEED):
    # samples gammas, or the two anchors, each on Q^2 commutant pairs
    check_cap(max(samples, 2), "unit-group exactness sample", default=20_000)
    check_cap(max(samples, 2) * max([p**(2 * n * r) for p, r, n in cases]
                                    + [1]),
              "unit-group exactness commutant pairs", default=20_000 * 20**2)
    rnd = random.Random(seed)
    out = []
    for (p, r, n) in cases:
        G = FiniteGL2(p, n)
        gammas = [(1, 0, 0, 1), (2 % p**n or 1, 0, 0, 2 % p**n or 1)]
        while len(gammas) < samples:
            gammas.append(G.elements[rnd.randrange(len(G.elements))])
        bad = [g for g in gammas if not unit_group_exactness(g, p, r, n)]
        fails = [(bad[0], *unit_group_defect(bad[0], p, r, n))] if bad else []
        out.append(Check("unit-group-exact-sequence",
                         {"p": p, "r": r, "n": n, "samples": len(gammas)},
                         True, not bad,
                         _witness(fails, ("gamma", "spot", "left_size",
                                          "right_size"))))
    return out


# ---------------------------------------------------------------------------
# base-change unit identity at finite level


def bc_unit_identity(f_values, k: int, p: int, r: int, j: int) -> bool:
    """Averages of f(N(u delta)) over u in Gamma(p^k) at modulus p^j equal
    averages of f(v N(delta)) over v in the p-adic-side Gamma(p^k), at
    every delta (module docstring).

    f_values: one integer per conjugacy class of GL2(Z/p^j).
    """
    return bc_unit_defect(f_values, k, p, r, j) is None


def bc_unit_defect(f_values, k: int, p: int, r: int, j: int):
    """The witness of `bc_unit_defects` for the one function f_values."""
    return bc_unit_defects([f_values], k, p, r, j)[0]


def bc_unit_defects(functions, k: int, p: int, r: int, j: int):
    """Per class function, None where `bc_unit_identity` holds, else its
    witness: the entry codes of the first delta_gamma whose averages
    differ, with both averages; and where the twisted class equation
    fails, the first class the certificate cannot account for."""
    check_unit_group_input(p, r, j, k)
    order = group_order_gl2(p**r, j)
    n_left = order if k == 0 else p**(4 * r * (j - k))
    check_cap(min(_class_count(p, j) * n_left, order), "bc-unit norms",
              default=2_000_000)
    small = FiniteGL2(p, j)
    # functions is read only here, after the cap: bc_unit_checks hands a
    # generator, whose lists are as long as the class count
    fs = [[int(v) for v in f] for f in functions]
    if any(len(f) != len(small.class_reps) for f in fs):
        raise DomainError("one value per conjugacy class required")
    tab, deltas = certificate(p, r, j)
    if not tab.bijection:
        total = sum(Fraction(order, o.tw_centralizer) for o in tab.orbits)
        return [{"class": _first_bad_class(tab), "class_equation_sum": total,
                 "group_order": order}] * len(fs)
    ring = RingTableLists(p, r, j)
    read = _norm_class_reader(ring, small)
    n_right = small.order if k == 0 else p**(4 * (j - k))
    lefts, rights, out = {}, {}, [None] * len(fs)
    for o, delta in zip(tab.orbits, deltas):
        fibre = tuple(ring.encode(c % p**k for c in ring.decode(x))
                      for x in delta)
        if fibre not in lefts:
            lefts[fibre] = _fibre_tally(ring, delta, k, read,
                                        len(small.class_reps), n_left)
        gamma = tuple(c % p**k for c in o.rep)
        if gamma not in rights:
            rights[gamma] = _right_tally(small, o.rep, k, n_right)
        for i, f in enumerate(fs):
            left = sum(c * v for c, v in zip(lefts[fibre], f))
            right = sum(c * v for c, v in zip(rights[gamma], f))
            if out[i] is None and left * n_right != right * n_left:
                out[i] = {"delta": list(delta),
                          "left_average": Fraction(left, n_left),
                          "right_average": Fraction(right, n_right)}
    return out


def bc_unit_checks(p=2, r=2, j=2, k=1, functions=3):
    def fs():
        # the constant function, then class indicators; bc_unit_defects
        # draws them after its input check and its cap, before any table
        n = _class_count(p, j)
        for i in range(min(functions, n + 1)):
            yield [int(i == 0 or c == i - 1) for c in range(n)]
    # every function from one tally of the norms' classes
    defects = bc_unit_defects(fs(), k, p, r, j)
    return [Check("bc-unit-identity",
                  {"p": p, "r": r, "j": j, "k": k, "function": i},
                  True, d is None,
                  None if d is None else {x: str(v) for x, v in d.items()})
            for i, d in enumerate(defects)]


def _right_tally(G: FiniteGL2, gamma, k, size):
    """tally[c]: the v gamma, v in Gamma(p^k), in class c of G =
    GL2(Z/p^j).  They are the lifts gamma + p^k M2(Z/p^j), read by
    `FiniteGL2.class_of`; at k = 0 they are all of G, tallied by the class
    sizes.  The tally must count size = |Gamma(p^k)| elements."""
    if k == 0:
        return _sized(G.class_sizes, gamma, k, size)
    tally = [0] * len(G.class_reps)
    steps = range(0, G.mod, G.p**k)
    for x in itertools.product(*([(e + s) % G.mod for s in steps]
                                 for e in gamma)):
        tally[G.class_of(x)] += 1
    return _sized(tally, gamma, k, size)


def _sized(tally, x, k, size):
    """tally, once it is seen to count the |Gamma(p^k)| = size elements of
    the fibre of x mod p^k."""
    if sum(tally) != size:
        raise BrokenIdentity(f"the fibre of {list(x)} mod p^{k} has "
                             f"{sum(tally)} units, not |Gamma(p^k)| = {size}")
    return tally


def _fibre_tally(ring, delta, k, read, classes, size):
    """tally[c]: the x = delta mod p^k in G_r with N(x) in class c, the
    classes read by `read`.  The fibre must hold size = |Gamma(p^k)| units."""
    ADD, MUL, NEG, SIG, VAL = ring.ADD, ring.MUL, ring.NEG, ring.SIG, ring.VAL
    steps = [x for x in range(ring.Q) if VAL[x] >= k]     # p^k O_r
    A, B, C, D = ([ADD[e][s] for s in steps] for e in delta)
    tally = [0] * classes
    for a in A:
        for b in B:
            for c in C:
                for d in D:
                    if VAL[ADD[MUL[a][d]][NEG[MUL[b][c]]]]:
                        continue
                    # N(x), its products written out for the hot loop
                    x0, x1, x2, x3 = s0, s1, s2, s3 = a, b, c, d
                    for _ in range(ring.r - 1):
                        s0, s1, s2, s3 = SIG[s0], SIG[s1], SIG[s2], SIG[s3]
                        x0, x1, x2, x3 = (ADD[MUL[x0][s0]][MUL[x1][s2]],
                                          ADD[MUL[x0][s1]][MUL[x1][s3]],
                                          ADD[MUL[x2][s0]][MUL[x3][s2]],
                                          ADD[MUL[x2][s1]][MUL[x3][s3]])
                    tally[read(x0, x1, x2, x3)] += 1
    return _sized(tally, delta, k, size)


def _norm_class_reader(ring, G: FiniteGL2):
    """read(a, b, c, d): the class in G = GL2(Z/p^n) of a matrix over O_r
    that is conjugate to one over Z/p^n, by its key (p^i, a0, tr B, det B)
    as in `finitegl2` for x = a0 + p^i B.

    p^i is the largest power of p dividing b, c and a - d, a0 = a mod p^i,
    and B's entries are the quotients by p^i, read mod p^(n-i).  Each part
    is a conjugation invariant over O_r, so a conjugate of gamma gets
    gamma's key; the code of an integer of Z/p^n is the integer itself.
    """
    ADD, MUL, NEG, VAL = ring.ADD, ring.MUL, ring.NEG, ring.VAL
    p, n, pn, ids = ring.p, ring.n, ring.pn, G._class_ids
    digits = [ring.decode(x) for x in range(ring.Q)]
    # mod[i][x] is x mod p^i, quo[i][x] is x / p^i mod p^(n-i), digitwise
    mod = [[ring.encode(c % p**i for c in x) for x in digits]
           for i in range(n + 1)]
    quo = [[ring.encode(c // p**i % p**(n - i) for c in x) for x in digits]
           for i in range(n + 1)]

    def read(a, b, c, d):
        i = min(VAL[b], VAL[c], VAL[ADD[a][NEG[d]]])
        if i == n:
            key = (pn, a, 0, 0)
        else:
            a0, q, m = mod[i][a], quo[i], mod[n - i]
            u, v, w, s = q[ADD[a][NEG[a0]]], q[b], q[c], q[ADD[d][NEG[a0]]]
            key = (p**i, a0, m[ADD[u][s]], m[ADD[MUL[u][s]][NEG[MUL[v][w]]]])
        try:
            return ids[key]
        except KeyError:
            raise BrokenIdentity(f"the norm {(a, b, c, d)} is conjugate to no "
                                 f"matrix over Z/{pn}") from None
    return read
