"""The Bruhat-Tits tree of PGL2 over an unramified local field.

Vertices at distance d from the base point correspond to sublattices of
the standard lattice with cyclic quotient of order q^d, parametrized by
points of the projective line over Z_q/p^d in the canonical split form
(1, c) / (c, 1) with c divisible by p.  Stabilization of a vertex by a
matrix is an exact divisibility test on the adjugate-conjugated matrix;
orbital-integral ratios are weighted sums over stabilization-distance
shells following the vertex-counting lemma (weights q/(q+1) resp.
(q-1)/(q+1) by the trace's divisibility by p).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional

from .errors import (BrokenIdentity, DomainError, NotStabilizable,
                     PrecisionExhausted, check_cap)
from .padic import (LocalContext, LocalMatrix, _o_matmul,
                    check_fixed_set_input, ell_min)
from .testfunc import branch_value


class TreeVertex:
    """Homothety class of lattices, canonical split form.

    kind 'A': lattice spanned by (1, c) and (0, p^d), c mod p^d;
    kind 'B': lattice spanned by (c, 1) and (p^d, 0), c mod p^d, p | c.
    The base vertex v0 is (0, 'A', 0).
    """

    __slots__ = ("d", "kind", "c")

    def __init__(self, d, kind, c):
        self.d = d
        self.kind = kind
        self.c = tuple(c)

    def __eq__(self, other):
        return (self.d, self.kind, self.c) == (other.d, other.kind, other.c)

    def __hash__(self):
        return hash((self.d, self.kind, self.c))

    def __repr__(self):
        return f"v({self.d},{self.kind},{self.c})"

    def basis_rows(self, ctx: LocalContext):
        """Row-major basis matrix H whose columns span the lattice, its
        entries coefficient tuples over O."""
        pad = (0,) * (ctx.r - 1)
        one, zero, pd = (1,) + pad, (0,) + pad, (ctx.p**self.d,) + pad
        if self.kind == "A":
            return [[one, zero], [self.c, pd]]
        return [[self.c, pd], [one, zero]]

    def parent(self, ctx: LocalContext) -> "TreeVertex":
        """The neighbor one step closer to the base vertex."""
        if self.d == 0:
            raise DomainError("the base vertex has no parent")
        pd1 = ctx.p**(self.d - 1)
        c = tuple(x % pd1 for x in self.c)
        if self.d == 1:
            return base_vertex(ctx)
        return TreeVertex(self.d - 1, self.kind, c)


def base_vertex(ctx: LocalContext) -> TreeVertex:
    return TreeVertex(0, "A", (0,) * ctx.r)


def shell(ctx: LocalContext, d: int):
    """All vertices at distance exactly d: (q+1) q^(d-1) of them for d >= 1."""
    if d == 0:
        yield base_vertex(ctx)
        return
    p, r = ctx.p, ctx.r
    pd = p**d
    for c in itertools.product(range(pd), repeat=r):
        yield TreeVertex(d, "A", c)
    for c in itertools.product(range(0, pd, p), repeat=r):
        yield TreeVertex(d, "B", c)


def enumerate_vertices(ctx: LocalContext, D: int) -> List[TreeVertex]:
    """All vertices at distance <= D, each exactly once."""
    if D < 0:
        raise DomainError("depth must be >= 0")
    q = ctx.q
    total = 1 + sum((q + 1) * q**(d - 1) for d in range(1, D + 1))
    check_cap(total, "tree vertex enumeration")
    out = []
    for d in range(D + 1):
        out.extend(shell(ctx, d))
    if len(out) != total:
        raise BrokenIdentity(f"{len(out)} vertices within distance {D}, "
                             f"expected {total}")
    return out


def stabilizes(gamma: LocalMatrix, v: TreeVertex) -> bool:
    """gamma(Lambda_v) inside Lambda_v: H^-1 gamma H is integral."""
    ctx = gamma.ctx
    need = v.d - gamma.e  # v_p(det H) = d up to a unit
    if need <= 0:
        return True
    if need > gamma.prec:
        raise PrecisionExhausted("stabilization test deeper than certified digits")
    (a, b), (c, d) = v.basis_rows(ctx)
    adj = (d, tuple(-x for x in b), tuple(-x for x in c), a)
    # B = adj(H) * M * H where gamma = p^e M
    f = ctx.defining_poly
    B = _o_matmul(_o_matmul(adj, gamma.m, f), (a, b, c, d), f)
    pneed = ctx.p**need
    return all(x % pneed == 0 for entry in B for x in entry)


class FixedSetReport(NamedTuple):
    """Stabilized vertices of a matrix within a search depth."""

    gamma: LocalMatrix
    depth: int
    stabilized: List[TreeVertex]
    nearest: TreeVertex
    k_tree: int
    nearest_unique: bool = True

    def check_connected(self) -> bool:
        """The stabilized set induces a connected (convex) subtree."""
        ctx = self.gamma.ctx
        sset = set(self.stabilized)
        for v in self.stabilized:
            for w in _path_between(ctx, v, self.nearest):
                if w not in sset:
                    return False
        return True


def _path_between(ctx, u: TreeVertex, v: TreeVertex):
    """Vertices on the geodesic from u to v (inclusive)."""
    left, right = [u], [v]
    a, b = u, v
    while a.d > b.d:
        a = a.parent(ctx)
        left.append(a)
    while b.d > a.d:
        b = b.parent(ctx)
        right.append(b)
    while a != b:
        a = a.parent(ctx)
        b = b.parent(ctx)
        left.append(a)
        right.append(b)
    return left + right[:-1][::-1]


def fixed_set(gamma: LocalMatrix, D: int) -> FixedSetReport:
    """Stabilized vertices up to depth D with the unique nearest one.

    Requires gamma conjugate to an integral matrix (integral trace and
    determinant) and D at least k(gamma).
    """
    check_fixed_set_input(gamma, D)
    stabilized = [v for v in enumerate_vertices(gamma.ctx, D)
                  if stabilizes(gamma, v)]
    if not stabilized:
        raise NotStabilizable(f"no stabilized vertex within depth {D}")
    dmin = min(v.d for v in stabilized)
    nearest_all = [v for v in stabilized if v.d == dmin]
    return FixedSetReport(gamma, D, stabilized, nearest_all[0], dmin,
                          nearest_unique=(len(nearest_all) == 1))


def stabilized_line_count(gamma: LocalMatrix) -> int:
    """Fixed points of gamma mod p on the projective line over F_q.

    Requires gamma integral with v_p(det) = 1: the count is 1 when the
    trace is divisible by p and 2 otherwise, so q resp. q-1 of the q+1
    neighbors of a vertex fail to be stabilized.
    """
    ctx = gamma.ctx
    if gamma.e < 0:
        raise DomainError("gamma must be integral")
    if gamma.det_valuation() != 1:
        raise DomainError("v_p(det) = 1 required")
    from .padic import get_context
    fq = get_context(ctx.p, ctx.r, 1)
    a, b, c, d = (fq.el(x) for x in gamma.m)
    count = 0
    for line in _proj_line(fq):
        x, y = line
        ix, iy = a * x + b * y, c * x + d * y
        # (ix, iy) must be proportional to (x, y): 2x2 determinant zero
        if ix * y == iy * x:
            count += 1
    return count


def _proj_line(fq):
    for c in fq.all_elements():
        yield (fq.one, c)
    yield (fq.zero, fq.one)


def vertex_weight(gamma: LocalMatrix) -> Fraction:
    """Relative measure of non-base stabilization shells per the neighbor count."""
    q = gamma.ctx.q
    if gamma.trace_val_ge(1):
        return Fraction(q, q + 1)
    return Fraction(q - 1, q + 1)


def orbital_ratio(gamma: LocalMatrix, n: int,
                  phi_at: Optional[Callable[[int], Fraction]] = None):
    """O(level-n function) / O(level-0 function) as an exact rational.

    The sum of the contributions of `orbital_shell_tally`: (q-1) times
    weight(v) * value(distance) over the vertices at distance <= n-1.
    Equals the closed-form constant.  Returns (ratio, supported);
    (0, False) when gamma is not conjugate to an integral matrix.  A
    singular gamma raises DomainError.
    """
    if not (gamma.trace_val_ge(0) and gamma.det_valuation() >= 0):
        return Fraction(0), False
    if gamma.det_valuation() != 1:
        raise DomainError("orbital ratio needs v_p(det) = 1")
    rows = orbital_shell_tally(gamma, n, phi_at)
    return sum((row["contribution"] for row in rows), Fraction(0)), True


def orbital_shell_tally(gamma: LocalMatrix, n: int,
                        phi_at: Optional[Callable[[int], Fraction]] = None):
    """Shell-by-shell contributions backing orbital_ratio.

    phi_at(d) is the value at stabilization distance d; by default the
    level-n branch value at invariant k = d.
    """
    q = gamma.ctx.q
    tr_div = gamma.trace_val_ge(1)
    ell_cap = None if tr_div else ell_min(gamma, n)
    if phi_at is None:
        def phi_at(d):
            return Fraction(branch_value(q, n, d, tr_div, ell_cap))
    w = vertex_weight(gamma)
    rows = []
    for d in range(0, n):
        count = 1 if d == 0 else (q + 1) * q**(d - 1)
        weight = Fraction(1) if d == 0 else w
        value = phi_at(d)
        rows.append({"distance": d, "vertices": count,
                     "weight": weight, "value": value,
                     "contribution": (q - 1) * count * weight * value})
    return rows
