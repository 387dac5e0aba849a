"""Support-backed reference paths of the Hecke layer, for the tests only.

A right-Gamma(p^n)-invariant function with a listed support is a dict
{coset key: (representative, value)}, the shape `hecke.phi_support`
returns; its value at g is a lookup of g's coset key.  Convolving such a
support inverts every listed coset, so these are the slow oracles of the
coset lists and sums in `hecke`, and of the membership test behind the
coset keys.
"""

import itertools
from fractions import Fraction

from gl2lab.errors import PrecisionExhausted, check_cap
from gl2lab.hecke import canonical_coset_rep, convolve, vol_congruence
from gl2lab.padic import LocalMatrix, _o_sub


def in_congruence_subgroup(x: LocalMatrix, n: int) -> bool:
    """x in Gamma(p^n): integral, congruent to 1 mod p^n."""
    if x.e != 0:
        return False
    if n == 0:
        return x.det_valuation() == 0
    if x.prec < n:
        raise PrecisionExhausted("membership test needs more digits")
    a, b, c, d = x.m
    one, pn = (1,) + (0,) * (x.ctx.r - 1), x.ctx.p**n
    return all(y % pn == 0 for z in (_o_sub(a, one), b, c, _o_sub(d, one))
               for y in z)


def same_coset(g1: LocalMatrix, g2: LocalMatrix, n: int) -> bool:
    """Membership oracle g1^-1 g2 in Gamma(p^n), the key's ground truth."""
    return in_congruence_subgroup(g1.inverse() @ g2, n)


def congruence_elements(ctx, n: int, depth: int):
    """All of Gamma(p^n) modulo Gamma(p^(n+depth)), as exact matrices."""
    space = list(itertools.product(range(ctx.p**depth), repeat=ctx.r))
    check_cap(len(space)**4, "congruence subgroup enumeration")
    one, zero = (1,) + (0,) * (ctx.r - 1), (0,) * ctx.r
    for x in itertools.product(space, repeat=4):
        ents = [tuple(i + ctx.p**n * c for i, c in zip(base, xi))
                for base, xi in zip((one, zero, zero, one), x)]
        yield LocalMatrix.from_integers(ctx, [ents[:2], ents[2:]])


def support_of(reps, n: int, value=Fraction(1)):
    """{key: (rep, value)} for a list of right-coset representatives, such
    as `hecke.double_coset_indicator` returns."""
    return {canonical_coset_rep(h, n): (h, value) for h in reps}


def e_congruence(ctx, n: int):
    """The idempotent e_K, K = Gamma(p^n): indicator of K over vol(K)."""
    return support_of([LocalMatrix.identity(ctx)], n,
                      Fraction(1) / vol_congruence(ctx, n))


def phi0_support(ctx):
    """Level-0 spherical function: the q+1 cosets of the double coset, value 1/(q-1)."""
    reps = [LocalMatrix.from_integers(ctx, [[ctx.p, coeffs], [0, 1]])
            for coeffs in itertools.product(range(ctx.p), repeat=ctx.r)]
    reps.append(LocalMatrix.from_integers(ctx, [[1, 0], [0, ctx.p]]))
    return support_of(reps, 0, Fraction(1, ctx.q - 1))


def lookup(support, n: int):
    """The function with the listed support, as a callable: its value at g
    is that of g's coset key, 0 off the support."""
    def f(g):
        hit = support.get(canonical_coset_rep(g, n))
        return hit[1] if hit is not None else 0
    return f


def convolve_supports(ctx, n: int, left, right, at):
    """(left * right)(g) for each g in `at`, both factors listed supports:
    every listed coset of `left` inverted, `right` read by key lookups."""
    return convolve(ctx, n, left.values(), lookup(right, n), at)
