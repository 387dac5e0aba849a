"""Earlier paths of the finite group layer, kept as test oracles.

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
"""

import numpy as np

from gl2lab.basechange import _fibre_sums, orbit_label_data
from gl2lab.finitegl2 import FiniteGL2
from gl2lab.gl2group import _group_and_labels
from gl2lab.normcert import SigmaOrbitRecord, SigmaOrbitTable
from gl2lab.padic import group_order_gl2


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
        keep = np.flatnonzero(G.comb(delta[0], hs[0], delta[1], hs[2])
                              == G.comb(delta[0], h[0], delta[2], h[1]))
        lhs = G.mul_left(delta, tuple(x[keep] for x in hs))
        rhs = G.mul_right(tuple(x[keep] for x in h), delta)
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
