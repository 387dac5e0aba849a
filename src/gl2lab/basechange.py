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

The right side is a fibre sum on the numpy orbit table of GL2(Z/p^j),
`orbit_label_data(p, 1, j)`, cached.  The exact sequence of unit groups
behind the norm bijection runs on the commutant pairs of
`normcert.commutant_ops`, without listing the group.

Sign convention recorded for downstream (out-of-scope) comparisons of
orbital integrals: matching carries the sign +, except when the norm is
central while the element itself is not sigma-conjugate to a central
element, where it is -.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import BrokenIdentity, DomainError, check_cap
from .finitegl2 import FiniteGL2, _class_count
from .gl2group import MatGroup, _group_and_labels
from .normcert import (_first_bad_class, certificate, commutant_ops,
                       norm_preimage)
# perfbench's tracer times the certificate under this module's name
from .normcert import sigma_orbits  # noqa: F401
from .padic import check_unit_group_input, group_order_gl2
from .ringtables import RingTableLists

__all__ = ["sigma_orbits", "orbit_label_data", "unit_group_exactness",
           "unit_group_defect", "bc_unit_identity", "bc_unit_defect",
           "bc_unit_defects"]


_ORBIT_CACHE = {}


def orbit_label_data(p, r, n):
    """(tables, G, labels, norm_class): the sigma-conjugacy orbit of every
    element and, per orbit, the conjugacy class of GL2(Z/p^n) matched with it.

    Each class is matched with the orbit of its norm preimage
    (`normcert.norm_preimage`).  An orbit that no class claims, or whose
    class claimed an orbit already taken, keeps norm_class -1; the callers
    report that as a failed bijection.  Cached per (p, r, n).
    """
    check_unit_group_input(p, r, n)
    if (p, r, n) in _ORBIT_CACHE:
        return _ORBIT_CACHE[(p, r, n)]
    tables, G, count, labels = _group_and_labels(p, r, n)
    norm_class = np.full(count, -1, dtype=np.int64)
    for cid, gamma in enumerate(FiniteGL2(p, n).class_reps):
        delta = norm_preimage(tables.lists, gamma)
        if delta is None:
            raise DomainError(f"no norm preimage in the commutant of {gamma}")
        orb = labels[G.idx(delta)]
        if norm_class[orb] < 0:
            norm_class[orb] = cid
    _ORBIT_CACHE[(p, r, n)] = (tables, G, labels, norm_class)
    return _ORBIT_CACHE[(p, r, n)]


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
    differ, with both averages; where the twisted class equation fails, the
    first class the certificate cannot account for; and where an orbit of
    the r = 1 table has no class, its least element, with no averages."""
    check_unit_group_input(p, r, j, k)
    order = group_order_gl2(p**r, j)
    n_left = order if k == 0 else p**(4 * r * (j - k))
    check_cap(min(_class_count(p, j) * n_left, order), "bc-unit norms",
              default=2_000_000)
    small = FiniteGL2(p, j)
    fs = [[int(v) for v in f] for f in functions]
    if any(len(f) != len(small.class_reps) for f in fs):
        raise DomainError("one value per conjugacy class required")
    _, Gs, small_labels, small_class = orbit_label_data(p, 1, j)
    unclaimed = small_class[small_labels] < 0
    if unclaimed.any():     # argmax finds the first element of such an orbit
        i = int(np.argmax(unclaimed))
        return [{"delta": [int(x[i]) for x in Gs.comps], "left_average": None,
                 "right_average": None}] * len(fs)
    rights = [_right_sums(np.asarray(f, dtype=np.int64), k, p, j) for f in fs]
    tab, deltas = certificate(p, r, j)
    if not tab.bijection:
        total = sum(Fraction(order, o.tw_centralizer) for o in tab.orbits)
        return [{"class": _first_bad_class(tab), "class_equation_sum": total,
                 "group_order": order}] * len(fs)
    ring = RingTableLists(p, r, j)
    read = _norm_class_reader(ring, small)
    tallies, out = {}, [None] * len(fs)
    for o, delta in zip(tab.orbits, deltas):
        fibre = tuple(ring.encode(c % p**k for c in ring.decode(x))
                      for x in delta)
        if fibre not in tallies:
            tallies[fibre] = _fibre_tally(ring, delta, k, read,
                                          len(small.class_reps), n_left)
        for i, (f, (rhs, n_right)) in enumerate(zip(fs, rights)):
            left = sum(c * v for c, v in zip(tallies[fibre], f))
            right = int(rhs[o.norm_class])
            if out[i] is None and left * n_right != right * n_left:
                out[i] = {"delta": list(delta),
                          "left_average": Fraction(left, n_left),
                          "right_average": Fraction(right, n_right)}
    return out


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
    if sum(tally) != size:
        raise BrokenIdentity(f"the fibre of {list(delta)} mod p^{k} has "
                             f"{sum(tally)} units, not |Gamma(p^k)| = {size}")
    return tally


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


def _right_sums(fv, k: int, p: int, j: int):
    """(sums, |Gamma(p^k)|): per class of GL2(Z/p^j), the sum of f(v gamma)
    over v in Gamma(p^k) at its representative gamma, by fibre sums on the
    r = 1 orbit table, whose norm_class numbers its orbits as classes."""
    _, Gs, small_labels, small_class = orbit_label_data(p, 1, j)
    n_right = int(np.count_nonzero(Gs.congruence_mask(k)))
    sums = _fibre_sums(Gs, k, fv[small_class[small_labels]], n_right)
    # at r = 1 a residue is its own code
    reps = Gs.idx(tuple(np.array(FiniteGL2(p, j).class_reps).T))
    return sums[reps], n_right


def _fibre_sums(G: MatGroup, k: int, per_el: np.ndarray, fibre_size: int):
    """For every element g, the sum of per_el over g's fibre mod p^k.

    The reduction of a matrix reduces each Galois-ring digit of each entry
    mod p^k.  Every fibre must hold exactly fibre_size = |Gamma(p^k)|
    elements.
    """
    t = G.t
    pn, pk = t.p**t.n, t.p**k
    codes = np.arange(t.Q)
    red = sum(((codes // pn**i) % pk) * pk**i for i in range(t.r))
    base = pk**t.r
    a, b, c, d = (red[x] for x in G.comps)
    _, fibre, sizes = np.unique(a + base * (b + base * (c + base * d)),
                                return_inverse=True, return_counts=True)
    if np.any(sizes != fibre_size):
        raise BrokenIdentity(f"a fibre of reduction mod {pk} does not have "
                             f"|Gamma(p^k)| = {fibre_size} elements")
    totals = np.zeros(len(sizes), dtype=np.int64)
    np.add.at(totals, fibre, per_el)
    return totals[fibre]
