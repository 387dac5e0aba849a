"""Operation tables of the Galois rings GR(p^n, r), as plain lists.

The one builder of the tables and the one unit-generator search, built
once per ring and shared: `normcert` and `basechange` read the lists, and
`curves.SmallField` uses them as they are at n = 1.  Only the table layers
load this module.
"""

from __future__ import annotations

from .errors import check_cap
from .padic import _o_mul, _val_below, get_context


class RingTableLists:
    """Operation tables of GR(p^n, r) as plain lists, the one builder of them.

    An element's code is sum c_i (p^n)^i over its coefficients c_i, so the
    codes are 0..Q-1 with Q = p^(nr), 0 is zero and 1 is one.  ADD and MUL
    are lists of rows: ADD[x][y] is the code of x + y.  NEG, INV (0 at the
    non-units), SIG (Frobenius) and VAL (n at 0) are lists.  The ring is
    capped at Q^2 table entries before any is formed.  One instance is
    built per (p, r, n) and shared by every caller.
    """

    _cache = {}

    def __new__(cls, p, r, n):
        key = (p, r, n)
        if key not in cls._cache:
            obj = super().__new__(cls)
            obj._build(p, r, n)
            cls._cache[key] = obj
        return cls._cache[key]

    def _build(self, p, r, n):
        ctx = get_context(p, r, n)
        pn = p**n
        Q = pn**r
        check_cap(Q**2, "ring operation tables")
        self.p, self.r, self.n, self.Q, self.pn = p, r, n, Q, pn
        self.base = [pn**i for i in range(r)]
        coeffs = [self.decode(c) for c in range(Q)]
        # x + y adds digit by digit; the row of x lists the codes of y in
        # order, its last digit varying slowest
        self.ADD = []
        for cx in coeffs:
            row = [0]
            for b, c in zip(self.base, cx):
                row = [y + b * ((c + j) % pn) for j in range(pn) for y in row]
            self.ADD.append(row)
        # y -> x y is additive: its row sums multiples of the x g^k, where
        # g^k has the code b = (p^n)^k
        self.MUL = []
        for cx in coeffs:
            row = [0]
            for b in self.base:
                step = self.encode(c % pn for c in _o_mul(cx, coeffs[b],
                                                          ctx.defining_poly))
                multiples = [0]
                for _ in range(pn - 1):
                    multiples.append(self.ADD[multiples[-1]][step])
                row = [self.ADD[y][m] for m in multiples for y in row]
            self.MUL.append(row)
        self.one, self.zero = 1, 0
        self.NEG = [row.index(0) for row in self.ADD]
        self.VAL = [n if v is None else v
                    for v in (_val_below(c, p, n) for c in coeffs)]
        self.INV = [row.index(1) if v == 0 else 0
                    for row, v in zip(self.MUL, self.VAL)]
        self.SIG = [self.encode(ctx.sigma_coeffs(c)) for c in coeffs]

    def encode(self, coeffs):
        return sum(c * b for c, b in zip(coeffs, self.base))

    def decode(self, code):
        return tuple((code // b) % self.pn for b in self.base)

    def unit_generators(self):
        """Codes of an irredundant generating set of the unit group: the
        units by decreasing order, ties by code, each kept outside the span
        so far; then each one that the others span is dropped.  A cyclic
        group gets its least generator, the trivial F_2^x none."""
        units = [u for u in range(self.Q) if self.VAL[u] == 0]
        gens, span = [], {self.one}
        for u in sorted(units, key=lambda u: (-len(self._span([u])), u)):
            if u not in span:
                gens.append(u)
                span = self._span(gens)
        for u in list(gens):
            if u in self._span([g for g in gens if g != u]):
                gens.remove(u)
        return gens

    def _span(self, gens):
        """The units that products of the codes `gens` reach from one."""
        span, new = {self.one}, [self.one]
        while new:
            new = {self.MUL[x][u] for x in new for u in gens} - span
            span |= new
        return span
