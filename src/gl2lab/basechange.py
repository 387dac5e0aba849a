"""Finite-level base change on the numpy group tables.

The sigma-conjugacy orbit of every element of GL2(GR(p^n, r)), by orbit
closure, matched with the conjugacy classes of GL2(Z/p^n) through the
norm, is what the base-change unit identity for congruence-subgroup
idempotents reads; that identity is verified exhaustively on it.  The
exact sequence of unit groups behind the norm bijection is verified on
commutant units alone, without listing the group.  The norm bijection
itself is the numpy-free certificate of `normcert`; `sigma_orbits` is
imported from there.

Sign convention recorded for downstream (out-of-scope) comparisons of
orbital integrals: matching carries the sign +, except when the norm is
central while the element itself is not sigma-conjugate to a central
element, where it is -.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import BrokenIdentity, DomainError
from .finitegl2 import FiniteGL2
from .gl2group import MatGroup, RingTables, _group_and_labels
# perfbench's tracer times the certificate under this module's name
from .normcert import sigma_orbits  # noqa: F401
from .padic import check_unit_group_input

__all__ = ["sigma_orbits", "orbit_label_data", "unit_group_exactness",
           "unit_group_defect", "bc_unit_identity", "bc_unit_defect"]


def _commutant_units(G: MatGroup, gm, scalars):
    """The units a*1 + b*gm for a, b in `scalars`, in (a, b) order, a outer.

    gm is one matrix as codes; returns a 4-tuple of code arrays.
    """
    s = np.asarray(scalars, dtype=np.int64)
    a, b = np.repeat(s, len(s)), np.tile(s, len(s))
    ident = G.single([[1, 0], [0, 1]])
    m = tuple(G.radd(G.rmul(a, i), G.rmul(b, g)) for i, g in zip(ident, gm))
    unit = G.t.UNIT[G.det(m)]
    return tuple(x[unit] for x in m)


def _norm_preimage_in_commutant(G: MatGroup, gamma) -> int:
    """Index in G of the first delta in (GR[gamma])^x with N(delta) = gamma."""
    gm = G.single([[gamma[0], gamma[1]], [gamma[2], gamma[3]]])
    units = _commutant_units(G, gm, range(G.t.Q))
    hit = np.flatnonzero(G.encode(*G.norm(units)) == G.encode(*gm))
    if len(hit) == 0:
        raise DomainError(f"no norm preimage in the commutant of {gamma}")
    return int(G.idx(units)[hit[0]])


_ORBIT_CACHE = {}


def orbit_label_data(p, r, n):
    """(tables, G, labels, norm_class): the sigma-conjugacy orbit of every
    element and, per orbit, the conjugacy class of GL2(Z/p^n) matched with it.

    Each class is matched with the orbit of its first norm preimage in the
    commutant.  An orbit that no class claims, or whose class claimed an
    orbit already taken, keeps norm_class -1; the callers report that as a
    failed bijection.  Cached per (p, r, n).
    """
    check_unit_group_input(p, r, n)
    if (p, r, n) in _ORBIT_CACHE:
        return _ORBIT_CACHE[(p, r, n)]
    tables, G, count, labels = _group_and_labels(p, r, n)
    small = FiniteGL2(p, n)
    norm_class = np.full(count, -1, dtype=np.int64)
    for cid, gamma in enumerate(small.class_reps):
        orb = labels[_norm_preimage_in_commutant(G, gamma)]
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


def unit_group_defect(gamma, p: int, r: int, n: int):
    """The first spot where the sequence of `unit_group_exactness` is not
    exact at gamma, with the sizes of the two sets compared there; None if
    it is exact."""
    check_unit_group_input(p, r, n)
    G = MatGroup(RingTables(p, r, n))
    gm = G.single([[gamma[0], gamma[1]], [gamma[2], gamma[3]]])
    big = _commutant_units(G, gm, range(G.t.Q))
    small = set(G.encode(*_commutant_units(G, gm, range(p**n))).tolist())
    one = int(G.encode(*G.single([[1, 0], [0, 1]])))
    key = G.encode(*big)
    d1 = G.encode(*G.matmul(big, G.minv(G.sigma(big))))
    d2 = G.encode(*G.norm(big))
    spots = (
        # the sigma-fixed points of the big unit group are the small one
        ("sigma-fixed units = small units",
         set(key[G.encode(*G.sigma(big)) == key].tolist()), small),
        ("image d1 = kernel d2", set(d1.tolist()), set(key[d2 == one].tolist())),
        # exactness at the last spot: the norm surjects onto the small units
        ("image d2 = small units", set(d2.tolist()), small),
        # kernel of d1 is the image of the small units
        ("kernel d1 = small units", set(key[d1 == one].tolist()), small))
    return next(((spot, len(a), len(b)) for spot, a, b in spots if a != b),
                None)


# ---------------------------------------------------------------------------
# base-change unit identity at finite level


def bc_unit_identity(f_values, k: int, p: int, r: int, j: int) -> bool:
    """Averages of f(N(u delta)) over u in Gamma(p^k) at modulus p^j equal
    averages of f(v N(delta)) over v in the p-adic-side Gamma(p^k).

    f_values: one integer per conjugacy class of GL2(Z/p^j); every delta is
    checked.
    """
    return bc_unit_defect(f_values, k, p, r, j) is None


def bc_unit_defect(f_values, k: int, p: int, r: int, j: int):
    """The first delta where `bc_unit_identity` fails, as its four entry
    codes and the left and right averages; None where the identity holds.
    An orbit that no class claims, in either orbit table, has no f-value:
    its least element is the witness, with no averages.

    Gamma(p^k) is the kernel of reduction mod p^k, so u -> u delta maps it
    bijectively onto the fibre of delta under that reduction.  The left
    sums are therefore fibre sums of f(N(.)), taken once for all delta in
    exact integer arithmetic; they equal the sums over u term by term.
    """
    check_unit_group_input(p, r, j, k)
    fv = np.asarray([int(v) for v in f_values], dtype=np.int64)
    if len(fv) != len(FiniteGL2(p, j).class_reps):
        raise DomainError("one value per conjugacy class required")
    _, G, labels, norm_class = orbit_label_data(p, r, j)
    _, Gs, small_labels, small_class = orbit_label_data(p, 1, j)
    cls = norm_class[labels]
    for H, of_el in ((Gs, small_class[small_labels]), (G, cls)):
        if (of_el < 0).any():     # argmax finds the first of them
            return [int(x[np.argmax(of_el < 0)]) for x in H.comps], None, None

    # left side: average f(N(u delta)) = f-value of the orbit of (u delta)
    n_left = int(np.count_nonzero(G.congruence_mask(k)))
    sums = _fibre_sums(G, k, fv[cls], n_left)
    rhs, n_right = _right_sums(fv, k, p, j)
    bad = np.flatnonzero(sums * n_right != rhs[cls] * n_left)
    if len(bad) == 0:
        return None
    i = int(bad[0])
    return ([int(x[i]) for x in G.comps], Fraction(int(sums[i]), n_left),
            Fraction(int(rhs[cls[i]]), n_right))


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
