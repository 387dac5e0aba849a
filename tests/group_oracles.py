"""Earlier paths of the finite group layer, kept as test oracles.

- `code_order_unit_generators` and `least_unit_generator` are the two
  unit-generator searches that `RingTableLists.unit_generators` replaced:
  the ring tables' search in code order, which can keep a redundant unit,
  and the census's least generator of F_q^x.
- `per_call_right_sums` is the right side of the base-change unit identity
  as `bc_unit_defect` computed it on every call: the conjugacy orbits of
  GL2(Z/p^j) built afresh, with their numbering checked against the classes
  of `FiniteGL2`.
"""

import numpy as np

from gl2lab.basechange import _fibre_sums
from gl2lab.finitegl2 import FiniteGL2
from gl2lab.gl2group import _group_and_labels


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
