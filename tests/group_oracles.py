"""Earlier paths of the finite group layer, kept as test oracles.

- `orbit_label_data` is the orbit table that `basechange` read its right
  side from: every element of GL2(GR(p^n, r)) labelled with its
  sigma-orbit, on the arrays of `gl2group`, and each orbit with the class
  whose norm preimage lies in it, cached in `_ORBIT_CACHE`.
  `_right_sums` is that right side, by `_fibre_sums` (fibre sums of
  reduction mod p^k) on the r = 1 table.
- `code_order_unit_generators` and `least_unit_generator` are the two
  unit-generator searches that `RingTableLists.unit_generators` replaced:
  the ring tables' search in code order, which can keep a redundant unit,
  and the census's least generator of F_q^x.
- `per_call_right_sums` is the right side of the base-change unit identity
  as `bc_unit_defect` computed it on every call: the conjugacy orbits of
  GL2(Z/p^j) built afresh, with their numbering checked against the classes
  of `FiniteGL2`.
- `materialized_sigma_orbits` is the sigma-class table that the norm
  certificate of `normcert` replaced: every element of GL2(GR(p^n, r))
  listed, its sigma-orbit found by orbit closure, and each twisted
  centralizer counted element by element.
- `array_unit_group_defect` is the exact sequence of unit groups as
  `basechange` computed it on the numpy tables: the commutant units as code
  arrays (`array_commutant_units`), the maps by whole-array products.
- `exhaustive_bc_unit_defect` is the base-change unit identity as
  `basechange` checked it at every element of the listed group, the left
  sums by fibre sums over the sigma-orbit table (`exhaustive_left_sums`).
- `single`, `array_norm`, `mul_left`, `mul_right` and `comb` are the
  one-matrix encoder, the norm and the one-matrix products of `MatGroup`
  that those paths used; the products skip 0 and 1 coefficients.
"""

from fractions import Fraction

import numpy as np

from gl2lab.errors import BrokenIdentity, DomainError
from gl2lab.finitegl2 import FiniteGL2
from gl2lab.normcert import (SigmaOrbitRecord, SigmaOrbitTable,
                             norm_preimage)
from gl2lab.padic import check_unit_group_input, group_order_gl2
from gl2group import MatGroup, RingTables, _group_and_labels

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


def single(G, rows):
    """Encode one matrix given as [[a, b], [c, d]] of coefficient entries."""
    t = G.t
    return tuple(np.int64(t.lists.encode([c % t.p**t.n for c in (
        [e] if isinstance(e, int) else e)])) for row in rows for e in row)


def array_norm(G, x):
    """x sigma(x) ... sigma^(r-1)(x) for code arrays x."""
    acc, cur = x, x
    for _ in range(G.t.r - 1):
        cur = G.sigma(cur)
        acc = G.matmul(acc, cur)
    return acc


def mul_left(G, g, x):
    """g x for one matrix g (four codes) and code arrays x; g's 0
    coefficients add no term, its 1 coefficients take x's entry as is."""
    ga, gb, gc, gd = (int(v) for v in g)
    xa, xb, xc, xd = x
    return (comb(G, ga, xa, gb, xc), comb(G, ga, xb, gb, xd),
            comb(G, gc, xa, gd, xc), comb(G, gc, xb, gd, xd))


def mul_right(G, x, g):
    """x g for code arrays x and one matrix g: (g^T x^T)^T."""
    a, c, b, d = mul_left(G, (g[0], g[2], g[1], g[3]),
                          (x[0], x[2], x[1], x[3]))
    return a, b, c, d


def comb(G, c, u, d, v):
    """c u + d v for constant codes c, d, not both 0, and code arrays u, v."""
    terms = [w if k == G.t.one else G.rmul(k, w)
             for k, w in ((c, u), (d, v)) if k != G.t.zero]
    return terms[0] if len(terms) == 1 else G.radd(*terms)


def array_commutant_units(G, gm, scalars):
    """The units a*1 + b*gm for a, b in `scalars`, in (a, b) order, a outer.

    gm is one matrix as codes; returns a 4-tuple of code arrays.
    """
    s = np.asarray(scalars, dtype=np.int64)
    a, b = np.repeat(s, len(s)), np.tile(s, len(s))
    ident = single(G, [[1, 0], [0, 1]])
    m = tuple(G.radd(G.rmul(a, i), G.rmul(b, g)) for i, g in zip(ident, gm))
    unit = G.t.UNIT[G.det(m)]
    return tuple(x[unit] for x in m)


def array_norm_preimage(G, gamma):
    """Index in G of the first delta in (GR[gamma])^x with N(delta) = gamma."""
    gm = single(G, [[gamma[0], gamma[1]], [gamma[2], gamma[3]]])
    units = array_commutant_units(G, gm, range(G.t.Q))
    hit = np.flatnonzero(G.encode(*array_norm(G, units)) == G.encode(*gm))
    if len(hit) == 0:
        raise DomainError(f"no norm preimage in the commutant of {gamma}")
    return int(G.idx(units)[hit[0]])


def array_unit_group_defect(gamma, p, r, n, units=array_commutant_units):
    """The first spot where the exact sequence of unit groups is not exact
    at gamma, with the sizes of the two sets compared there; None if it is
    exact.  `units` lists the commutant units, as `array_commutant_units`."""
    check_unit_group_input(p, r, n)
    G = MatGroup(RingTables(p, r, n))
    gm = single(G, [[gamma[0], gamma[1]], [gamma[2], gamma[3]]])
    big = units(G, gm, range(G.t.Q))
    small = set(G.encode(*units(G, gm, range(p**n))).tolist())
    one = int(G.encode(*single(G, [[1, 0], [0, 1]])))
    key = G.encode(*big)
    d1 = G.encode(*G.matmul(big, G.minv(G.sigma(big))))
    d2 = G.encode(*array_norm(G, big))
    spots = (
        ("sigma-fixed units = small units",
         set(key[G.encode(*G.sigma(big)) == key].tolist()), small),
        ("image d1 = kernel d2", set(d1.tolist()), set(key[d2 == one].tolist())),
        ("image d2 = small units", set(d2.tolist()), small),
        ("kernel d1 = small units", set(key[d1 == one].tolist()), small))
    return next(((spot, len(a), len(b)) for spot, a, b in spots if a != b),
                None)


def exhaustive_left_sums(fv, k, p, r, j):
    """(G, sums, |Gamma(p^k)|): for every element delta of the listed
    GL2(GR(p^j, r)), the sum of f(N(u delta)) over u in Gamma(p^k), by fibre
    sums of the f-value of each element's sigma-orbit."""
    _, G, labels, norm_class = orbit_label_data(p, r, j)
    n_left = int(np.count_nonzero(G.congruence_mask(k)))
    fv = np.asarray(fv, dtype=np.int64)
    return G, _fibre_sums(G, k, fv[norm_class[labels]], n_left), n_left


def exhaustive_bc_unit_defect(f_values, k, p, r, j):
    """The first delta of the listed group where the base-change unit
    identity fails, as its four entry codes and the left and right
    averages; None where it holds.  An orbit that no class claims, in
    either orbit table, has no f-value: its least element is the witness,
    with no averages."""
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
    G, sums, n_left = exhaustive_left_sums(fv, k, p, r, j)
    rhs, n_right = _right_sums(fv, k, p, j)
    bad = np.flatnonzero(sums * n_right != rhs[cls] * n_left)
    if len(bad) == 0:
        return None
    i = int(bad[0])
    return ([int(x[i]) for x in G.comps], Fraction(int(sums[i]), n_left),
            Fraction(int(rhs[cls[i]]), n_right))


def code_order_unit_generators(t):
    """Codes of a generating set of the unit group of the tables t: the
    units in code order, each kept when it lies outside the subgroup
    spanned by the units kept so far.  [2, 3, 4] for F_9, where 4 alone
    generates."""
    span, gens = {t.one}, []
    for u in range(t.Q):
        if t.VAL[u] != 0 or u in span:
            continue
        gens.append(u)
        frontier = list(span)
        while frontier:
            frontier = [y for y in (t.MUL[x][u] for x in frontier)
                        if y not in span]
            span.update(frontier)
    return gens


def least_unit_generator(F):
    """The least generator of the cyclic group F_q^x (1 at q = 2)."""
    for u in range(1, F.q):
        x, order = u, 1
        while x != F.one:
            x, order = F.mul(x, u), order + 1
        if order == F.q - 1:
            return u


def per_call_right_sums(fv, k, p, j):
    """(sums, |Gamma(p^k)|): for each class of GL2(Z/p^j), the sum of
    f(v gamma) over v in Gamma(p^k), read at the least element of the
    class's orbit in a freshly built orbit table."""
    small = FiniteGL2(p, j)
    _, Gs, _, small_labels = _group_and_labels(p, 1, j)
    n_right = int(np.count_nonzero(Gs.congruence_mask(k)))
    first = np.unique(small_labels, return_index=True)[1]
    if [small.class_of([int(x[i]) for x in Gs.comps])
            for i in first.tolist()] != list(range(len(small.class_reps))):
        raise AssertionError(f"orbits of GL2(Z/{p}^{j}) are not numbered "
                             "as its classes")
    fv = np.asarray(fv, dtype=np.int64)
    return _fibre_sums(Gs, k, fv[small_labels], n_right)[first], n_right


def materialized_sigma_orbits(p, r, n):
    """Orbit table of delta ~ h^-1 delta h^sigma with per-orbit centralizers,
    over the listed group.

    The twisted centralizer is counted at each orbit's least element; the
    ordinary one is |GL2(Z/p^n)| over the size of the matched class.  A class
    whose preimage's orbit went to another class has no record, and the
    least element of the first orbit no class claims is `unclaimed`.
    """
    _, G, labels, norm_class = orbit_label_data(p, r, n)
    small = FiniteGL2(p, n)
    count = len(norm_class)
    orbit_sizes = np.bincount(labels, minlength=count)
    least = np.unique(labels, return_index=True)[1]
    matched = np.flatnonzero(norm_class >= 0)
    orbit_of_class = dict(zip(norm_class[matched].tolist(), matched.tolist()))

    h, hs = G.comps, G.sigma(G.comps)
    records = []
    for cid, gamma in enumerate(small.class_reps):
        if cid not in orbit_of_class:
            continue  # its orbit went to another class: no bijection
        orb = orbit_of_class[cid]
        delta = tuple(int(c[least[orb]]) for c in h)
        # twisted centralizer: h with delta h^sigma = h delta, compared at
        # entry (0, 0) first and at the other three on its survivors
        keep = np.flatnonzero(comb(G, delta[0], hs[0], delta[1], hs[2])
                              == comb(G, delta[0], h[0], delta[2], h[1]))
        lhs = mul_left(G, delta, tuple(x[keep] for x in hs))
        rhs = mul_right(G, tuple(x[keep] for x in h), delta)
        tw = int(np.count_nonzero(
            (lhs[1] == rhs[1]) & (lhs[2] == rhs[2]) & (lhs[3] == rhs[3])))
        stand = group_order_gl2(p, n) // small.class_sizes[cid]
        records.append(SigmaOrbitRecord(gamma, int(orbit_sizes[orb]), tw, cid,
                                        stand))

    bijection = (count == len(small.class_reps) == len(matched))
    unclaimed = np.flatnonzero(norm_class < 0)
    first = (tuple(int(c[least[unclaimed[0]]]) for c in h)
             if len(unclaimed) else None)
    return SigmaOrbitTable(p, r, n, G.order, len(small.class_reps), count,
                           records, bijection, first)
