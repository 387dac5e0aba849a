"""Vectorized GL2 over finite local rings GR(p^n, r).

Ring elements are encoded as integers 0..Q-1 (Q = p^(nr)) with numpy
lookup tables for the ring operations; matrices are quadruples of codes.
It lists the conjugacy orbits of GL2(Z/p^j) behind the right side of the
base-change unit identity, and, for the tests, the sigma-orbits of the
whole group.  The norm bijection, the exact sequence and the left side of
the identity list no group (see `normcert` and `basechange`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import check_cap
from .ringtables import RingTableLists


class RingTables:
    """The operation tables of `ringtables.RingTableLists` as int32 arrays."""

    _cache = {}

    def __new__(cls, p, r, n):
        key = (p, r, n)
        if key not in cls._cache:
            obj = super().__new__(cls)
            obj._build(p, r, n)
            cls._cache[key] = obj
        return cls._cache[key]

    def _build(self, p, r, n):
        self.lists = lists = RingTableLists(p, r, n)
        self.p, self.r, self.n, self.Q = p, r, n, lists.Q
        for name in ("ADD", "MUL", "NEG", "SIG", "VAL", "INV"):
            setattr(self, name, np.array(getattr(lists, name), dtype=np.int32))
        # flat views of the tables: one gather by x * Q + y costs less
        # than the two-index gather ADD[x, y]
        self.ADD_FLAT, self.MUL_FLAT = self.ADD.ravel(), self.MUL.ravel()
        self.UNIT = self.VAL == 0
        self.one, self.zero = lists.one, lists.zero


class MatGroup:
    """GL2 over the tables' ring.  Building it keeps only the tables: the
    elements are listed, by a scan of all Q^4 matrix codes under the "GL2
    matrix-code space" cap, when `el_codes`, `order`, `idx_of_code` or
    `comps` is first read.  So arithmetic on a few matrices runs wherever
    the tables fit."""

    _cache = {}

    def __new__(cls, tables: RingTables):
        key = (tables.p, tables.r, tables.n)
        if key not in cls._cache:
            obj = super().__new__(cls)
            obj.t = tables
            cls._cache[key] = obj
        return cls._cache[key]

    @cached_property
    def el_codes(self):
        Q = self.t.Q
        check_cap(Q**4, "GL2 matrix-code space")
        codes = np.arange(Q**4, dtype=np.int64)
        return codes[self.t.UNIT[self.det(self.decode(codes))]]

    @cached_property
    def order(self):
        return len(self.el_codes)

    @cached_property
    def idx_of_code(self):
        idx = np.full(self.t.Q**4, -1, dtype=np.int64)
        idx[self.el_codes] = np.arange(self.order)
        return idx

    @cached_property
    def comps(self):
        return self.decode(self.el_codes)

    # -- ring ops on arrays -----------------------------------------------------

    def _flat(self, x, y):
        """Flat table index x * Q + y of code arrays (or codes) x and y."""
        return np.asarray(x, dtype=np.intp) * self.t.Q + y

    def rmul(self, x, y):
        return self.t.MUL_FLAT[self._flat(x, y)]

    def radd(self, x, y):
        return self.t.ADD_FLAT[self._flat(x, y)]

    def rsub(self, x, y):
        return self.t.ADD_FLAT[self._flat(x, self.t.NEG[y])]

    # -- matrix ops ----------------------------------------------------------------

    def decode(self, codes):
        return tuple((codes // self.t.Q**i) % self.t.Q for i in range(4))

    def encode(self, *entries):
        return sum(np.asarray(x, dtype=np.int64) * self.t.Q**i
                   for i, x in enumerate(entries))

    def matmul(self, x, y):
        xa, xb, xc, xd = x
        ya, yb, yc, yd = y
        return (self.radd(self.rmul(xa, ya), self.rmul(xb, yc)),
                self.radd(self.rmul(xa, yb), self.rmul(xb, yd)),
                self.radd(self.rmul(xc, ya), self.rmul(xd, yc)),
                self.radd(self.rmul(xc, yb), self.rmul(xd, yd)))

    def sigma(self, x):
        return tuple(self.t.SIG[c] for c in x)

    def det(self, x):
        return self.rsub(self.rmul(x[0], x[3]), self.rmul(x[1], x[2]))

    def minv(self, x):
        di = self.t.INV[self.det(x)]
        neg = self.t.NEG
        return (self.rmul(x[3], di), self.rmul(neg[x[1]], di),
                self.rmul(neg[x[2]], di), self.rmul(x[0], di))

    def idx(self, x):
        return self.idx_of_code[self.encode(*x)]

    # -- generators and orbits -------------------------------------------------------

    def generators(self):
        """E12/E21 over the codes b of 1, x, .., x^(r-1), an additive basis,
        plus diag(u, 1) for u in `RingTableLists.unit_generators`."""
        one, zero, lists = self.t.one, self.t.zero, self.t.lists
        gens = [g for b in lists.base
                for g in ((one, b, zero, one), (one, zero, b, one))]
        gens += [(u, zero, zero, one) for u in lists.unit_generators()]
        return [tuple(map(np.int64, g)) for g in gens]

    def sigma_conj_perm(self, g):
        """Permutation i -> index of g^-1 x_i g^sigma."""
        return self.idx(self.matmul(self.matmul(self.minv(g), self.comps),
                                    self.sigma(g)))

    @staticmethod
    def orbit_labels(perms):
        """Orbits of the group generated by the index permutations `perms`.

        Every element points at the root of its tree, the tree's least
        index.  For each permutation, the pairs (i, perm[i]) whose roots
        differ join their trees, the larger root pointing at a smaller root
        paired with it (any one will do), and pointer jumping
        (root = root[root]) brings every element back to a root.  Joining
        whole trees takes a few passes even where plain label propagation
        needs one per step of a long cycle.  At the end each element holds
        the least index of its orbit.  Returns (count, labels), the orbits
        numbered 0..count-1 in the order of those least indices.  The
        permutations share one length and dtype, which the work arrays take.
        """
        root = np.arange(len(perms[0]), dtype=perms[0].dtype)
        merged = True
        while merged:
            merged = False
            for perm in perms:
                other = root[perm]
                split = root != other
                if not split.any():
                    continue
                merged = True
                a, b = root[split], other[split]
                root[np.maximum(a, b)] = np.minimum(a, b)
                up = root[root]
                while not np.array_equal(up, root):
                    root, up = up, up[up]
        # the roots are the least indices; number them in index order
        is_root = root == np.arange(len(root))
        return int(is_root.sum()), (np.cumsum(is_root) - 1)[root]

    def congruence_mask(self, k):
        """Elements congruent to the identity mod p^k."""
        a, b, c, d = self.comps
        v, one = self.t.VAL, self.t.one
        return ((v[self.rsub(a, one)] >= k) & (v[b] >= k) & (v[c] >= k)
                & (v[self.rsub(d, one)] >= k))


def _group_and_labels(p, r, n):
    """(tables, G, count, labels): the sigma-conjugacy orbits of GL2(GR(p^n, r)).

    At r = 1 sigma is the identity and the orbits are the conjugacy classes.
    The group's code space is capped before the ring tables are built.
    """
    check_cap(p**(4 * n * r), "GL2 matrix-code space")
    tables = RingTables(p, r, n)
    G = MatGroup(tables)
    perms = [G.sigma_conj_perm(g) for g in G.generators()]
    count, labels = G.orbit_labels(perms)
    return tables, G, count, labels
