"""The array census of the curve layer, for the tests only.

`curves` computes its census on lists.  This is the same census on numpy
arrays over the int32 tables of `gl2group.RingTables`: the nonsingular
tuples of each normal-form family as coefficient arrays, the substitutions
broadcast against them, the images looked up by their codes with
`searchsorted`, and the orbits from `MatGroup.orbit_labels`.  Point counts
come from a table of y^2 + b y over all (x, y), not from the census's
table of roots.  It is the reference the list census is tested against.

`boundary_by_element_loop` is the boundary packet enumeration that the CRT
listing of `curves.boundary_packets` replaced: every element of GL2(Z/N)
as an array index, the packets from `MatGroup.orbit_labels` on the index
permutations of left multiplication.

`level_m_count_by_scalar_mul` is the span count that `curves.level_m_count`
replaced: the m-torsion found by `scalar_mul`, each multiple by its own
`scalar_mul`, and every span by m^2 `add_points` calls per pair.
"""

import math

import numpy as np

from gl2lab.curves import _ANY, _UNIT, SmallField, _crt, _normal_forms
from gl2lab.errors import BrokenIdentity
from gl2lab.finitegl2 import _unit_generators
from gl2lab.padic import factor_prime_power
from gl2group import MatGroup, RingTables


def _digits(base, count, dtype):
    """The `count` base-`base` digits of 0..base^count - 1, least first."""
    digit = np.arange(base, dtype=dtype)
    return [np.broadcast_to(digit[:, None],
                            (base**(count - 1 - i), base, base**i)).ravel()
            for i in range(count)]


def _index_among(mask):
    """Index of each True entry among the True entries; -1 at the others."""
    return np.where(mask, np.cumsum(mask, dtype=np.int32) - 1, -1)


def boundary_by_element_loop(p, r, n, m):
    """(packets, fixed_packets, sizes_ok) as `curves.boundary_orbit_report`
    gives them, from the orbits of every element of GL2(Z/p^n m) under left
    multiplication by +-1, the unipotent [[1, 1], [0, 1]] and inertia."""
    N = p**n * m
    a, b, c, d = _digits(N, 4, np.int32)
    unit = np.gcd((a * d - b * c) % N, N) == 1
    a, b, c, d = a[unit], b[unit], c[unit], d[unit]
    index = _index_among(unit)

    def left_mul(ua, ub, uc, ud):
        """Index permutation of x -> u x."""
        return index[(ua * a + ub * c) % N + N * ((ua * b + ub * d) % N)
                     + N**2 * ((uc * a + ud * c) % N)
                     + N**3 * ((uc * b + ud * d) % N)]

    # inertia: diag(k, 1) for the generators k of (Z/p^n)^x, lifted to be
    # 1 mod m; the group they span has the product of their orders
    units = _unit_generators(p, n)
    inertia = [left_mul(_crt(k, p**n, 1, m), 0, 0, 1) for k, _ in units]
    packets, labels = MatGroup.orbit_labels(
        [left_mul(1, 1, 0, 1), left_mul(N - 1, 0, 0, N - 1)] + inertia)
    phi = math.prod(order for _, order in units)
    sizes_ok = bool(np.all(np.bincount(labels) == 2 * N * phi))
    # Frobenius through the tame quotient: x = p^r mod m, 1 mod p^n; it
    # normalizes the group above, so it maps packets onto packets
    x0 = _crt(1, p**n, pow(p, r, m), m)
    frob = left_mul(pow(x0, -1, N), 0, 0, 1)
    # a packet is fixed iff its elements keep their packet label
    fixed_packets = int(np.count_nonzero(
        np.bincount(labels[labels[frob] == labels], minlength=packets)))
    return packets, fixed_packets, sizes_ok


def field_arrays(q):
    """The int32 operation tables of F_q, as `RingTables` holds them."""
    p, r = factor_prime_power(q)
    return RingTables(p, r, 1)


def _nmul(T, n, x):
    return T.MUL[n % T.p, x]


def discriminant(T, a1, a2, a3, a4, a6):
    """Discriminant of Weierstrass tuples: codes or arrays of codes."""
    ADD, MUL, NEG = T.ADD, T.MUL, T.NEG
    b2 = ADD[MUL[a1, a1], _nmul(T, 4, a2)]
    b4 = ADD[_nmul(T, 2, a4), MUL[a1, a3]]
    b6 = ADD[MUL[a3, a3], _nmul(T, 4, a6)]
    b8 = ADD[MUL[MUL[a1, a1], a6],
             ADD[_nmul(T, 4, MUL[a2, a6]),
                 ADD[NEG[MUL[a1, MUL[a3, a4]]],
                     ADD[MUL[a2, MUL[a3, a3]], NEG[MUL[a4, a4]]]]]]
    return ADD[NEG[MUL[MUL[b2, b2], b8]],
               ADD[NEG[_nmul(T, 8, MUL[b4, MUL[b4, b4]])],
                   ADD[NEG[_nmul(T, 27, MUL[b6, b6])],
                       _nmul(T, 9, MUL[b2, MUL[b4, b6]])]]]


def transform_all(q, a, subs):
    """Images of curves under substitutions; returns coefficient arrays.

    `a` holds five codes or arrays of codes and `subs` is an array of
    (u, r, s, t) rows; the two broadcast against each other.
    """
    T = field_arrays(q)
    ADD, MUL, NEG, INV = T.ADD, T.MUL, T.NEG, T.INV
    a1, a2, a3, a4, a6 = (np.asarray(x) for x in a)
    u, rr, s, t = subs[:, 0], subs[:, 1], subs[:, 2], subs[:, 3]
    u2 = MUL[u, u]
    u3 = MUL[u2, u]
    u4 = MUL[u2, u2]
    u6 = MUL[u3, u3]
    na1 = MUL[ADD[a1, _nmul(T, 2, s)], INV[u]]
    na2 = MUL[ADD[a2, ADD[NEG[MUL[s, a1]],
                          ADD[_nmul(T, 3, rr), NEG[MUL[s, s]]]]],
              INV[u2]]
    na3 = MUL[ADD[a3, ADD[MUL[rr, a1], _nmul(T, 2, t)]], INV[u3]]
    na4 = MUL[ADD[a4, ADD[NEG[MUL[s, a3]],
              ADD[_nmul(T, 2, MUL[rr, a2]),
                  ADD[NEG[MUL[ADD[t, MUL[rr, s]], a1]],
                      ADD[_nmul(T, 3, MUL[rr, rr]),
                          NEG[_nmul(T, 2, MUL[s, t])]]]]]],
              INV[u4]]
    na6 = MUL[ADD[a6, ADD[MUL[rr, a4],
              ADD[MUL[MUL[rr, rr], a2],
                  ADD[MUL[rr, MUL[rr, rr]],
                      ADD[NEG[MUL[t, a3]],
                          ADD[NEG[MUL[t, t]], NEG[MUL[rr, MUL[t, a1]]]]]]]]],
              INV[u6]]
    return na1, na2, na3, na4, na6


def code(q, a1, a2, a3, a4, a6):
    """Index of a coefficient tuple, a1 least; int64, as q^5 passes 2^31."""
    a6 = np.asarray(a6, dtype=np.int64)
    return a1 + q * (a2 + q * (a3 + q * (a4 + q * a6)))


def family(q, shape):
    """The nonsingular tuples of one shape, as five arrays in code order."""
    values = [np.arange(q) if x == _ANY else np.arange(1, q) if x == _UNIT
              else np.array([x]) for x in shape]
    # a6 varies slowest and weighs most in a code, so the grid is sorted
    a = [x.ravel() for x in np.meshgrid(*values[::-1], indexing="ij")[::-1]]
    nonsingular = discriminant(field_arrays(q), *a) != 0
    return [x[nonsingular] for x in a]


def point_count(q, a):
    """#E(F_q) of the tuple a, from the table of y^2 + b y over all (x, y)."""
    T = field_arrays(q)
    ADD, MUL = T.ADD, T.MUL
    a1, a2, a3, a4, a6 = a
    t = np.arange(q)
    t2 = MUL[t, t]
    rhs = ADD[MUL[t, t2], ADD[MUL[a2, t2], ADD[MUL[a4, t], a6]]]
    b = ADD[MUL[a1, t], a3]
    lhs = ADD[t2[None, :], MUL[b[:, None], t[None, :]]]
    return 1 + int(np.count_nonzero(lhs == rhs[:, None]))


def array_census(q):
    """The census at q on arrays: sorted (tuple, |Aut|, #E(F_q)) per class.

    Each generator's images are looked up among the family's codes and
    must permute them; the orbits of these permutations are the classes.
    """
    out = []
    for shape, gens, group_order in _normal_forms(SmallField(q)):
        a = family(q, shape)
        codes = code(q, *a)
        perms = []
        for g in gens:
            image = code(q, *transform_all(q, a, np.array([g])))
            perm = np.minimum(np.searchsorted(codes, image), len(codes) - 1)
            assert np.array_equal(codes[perm], image)
            assert np.bincount(perm, minlength=len(codes)).max() == 1
            perms.append(perm)
        _, labels = MatGroup.orbit_labels(perms)
        # orbits are numbered by their least index, which is their least code
        first = np.unique(labels, return_index=True)[1]
        for i, orbit in zip(first.tolist(), np.bincount(labels).tolist()):
            rep = tuple(int(x[i]) for x in a)
            out.append((rep, group_order // orbit, point_count(q, rep)))
    return sorted(out)


def level_m_count_by_scalar_mul(E, m):
    """Moduli points above E: ordered bases of E[m](F_q) divided by |Aut|."""
    tors = [P for P in E.points() if E.scalar_mul(m, P) is None]
    if len(tors) != m * m:
        return 0
    # the multiples 0, P, ..., (m-1) P of each torsion point, listed once
    multiples = [[E.scalar_mul(i, P) for i in range(m)] for P in tors]
    bases = 0
    for iP in multiples:
        for jQ in multiples:
            span = {E.add_points(x, y) for x in iP for y in jQ}
            if len(span) == m * m:
                bases += 1
    if bases % E.aut_order:
        raise BrokenIdentity(f"|Aut| = {E.aut_order} of {E.a} over F_{E.q} "
                             f"does not act freely on the {bases} bases of "
                             f"E[{m}]")
    return bases // E.aut_order
