"""Reference paths of the Hecke layer and its samplers, for the tests only.

A right-Gamma(p^n)-invariant function with a listed support is a dict
{coset key: (representative, value)}, the shape `hecke.phi_support`
returns; its value at g is a lookup of g's coset key.  Convolving such a
support inverts every listed coset, so these are the slow oracles of the
coset lists and sums in `hecke`, and of the membership test behind the
coset keys.

The rest are the object paths that the local campaigns replaced: the tower
check evaluated at every point, the samplers that build a LocalMatrix for
every draw and test it, the conjugation h.inverse() @ g @ h, and the unit
eigenvalue's Newton steps on ring elements.
"""

import itertools
import random
from fractions import Fraction

from gl2lab import hecke
from gl2lab.checks import _orbital_sample
from gl2lab.errors import DomainError, PrecisionExhausted, check_cap
from gl2lab.hecke import (branch_covering_sample, canonical_coset_rep,
                          convolve, tower_key_histogram, vol_congruence)
from gl2lab.padic import LocalMatrix, _o_sub, _scaled_tr_det, _tr_det, k_of
from gl2lab.testfunc import branch_value_t


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


# ---------------------------------------------------------------------------
# the object paths of the local campaigns


def tower_per_point(q, n, sample):
    """`hecke.tower_identity_check` on a given sample with both sides
    evaluated at every point: (ok, failures, count).  The level-n values are
    read through the `hecke` module, so a patch there reaches both paths."""
    failures = []
    for g in sample:
        keys = tower_key_histogram(g, n)
        vals = [branch_value_t(q, n + 1, *key) * Fraction(c, q**4)
                for key, c in keys.items()]
        avg = sum(vals[1:], vals[0])
        lhs = hecke.phi_pnt(g, n)
        if not (avg == lhs):
            failures.append((g, lhs, avg))
        spec, want = avg.specialize(q), Fraction(hecke.phi_pn(g, n))
        if spec != want:
            failures.append((g, want, spec))
    return len(failures) == 0, failures, len(sample)


def conjugate_three_step(g, h):
    """h^-1 g h as h.inverse() @ g @ h, g's exact trace and determinant kept."""
    out = h.inverse() @ g @ h
    out.exact, out.exact_tr, out.exact_det = None, g.exact_tr, g.exact_det
    return out


def _built(ctx, rows):
    """(LocalMatrix, v(det)) of integer rows, (None, None) where building it
    or reading v(det) raises DomainError (zero or singular)."""
    try:
        m = LocalMatrix.from_integers(ctx, rows)
        return m, m.det_valuation()
    except DomainError:
        return None, None


def _unimodular_built(ctx, rnd):
    """The unimodular h, built from every draw and kept at v(det h) = 0."""
    p = ctx.p
    while True:
        h, v_det = _built(ctx, [[rnd.randrange(p**3) for _ in range(2)]
                                for _ in range(2)])
        if v_det == 0:
            return h


def branch_sample_built_first(ctx, n, count, seed):
    """`hecke.branch_covering_sample` building every draw and every h, the
    singular draws rejected by the library, h conjugated in three steps."""
    p = ctx.p
    rnd = random.Random(seed)
    out = branch_covering_sample(ctx, n, count=0)   # the anchors
    while len(out) < count:
        rows = [[rnd.randrange(p**(n + 2)) for _ in range(2)] for _ in range(2)]
        try:
            m = LocalMatrix.from_integers(ctx, rows, e=-rnd.randrange(n + 1))
            m.det_valuation()
        except (DomainError, PrecisionExhausted):
            continue
        h = _unimodular_built(ctx, rnd)
        out.append(conjugate_three_step(m, h) if rnd.random() < 0.5 else m)
    return out


def orbital_sample_built_first(ctx, n, per, seed):
    """`checks._orbital_sample` building every draw, catching the library's
    rejection of a singular one, and testing e, v(det) and the trace of the
    LocalMatrix."""
    from gl2lab.checks import _orbital_sample
    p = ctx.p
    rnd = random.Random(seed)
    sample = _orbital_sample(ctx, n, 0, seed)   # the anchors
    while len(sample) < per:
        rows = [[rnd.randrange(p**(n + 2)) for _ in range(2)] for _ in range(2)]
        try:
            m = LocalMatrix.from_integers(ctx, rows)
            if m.e != 0 or m.det_valuation() != 1 or not m.trace_val_ge(0):
                continue
        except (DomainError, PrecisionExhausted):
            continue
        sample.append(m)
    return sample


def tree_probes_built_first(ctx, seed):
    """`checks._tree_probes` testing built g0 and h, a singular draw rejected
    by the library, and conjugating in three steps."""
    q = ctx.q
    rnd = random.Random(seed)
    while True:
        g0, v_det = _built(ctx, [[rnd.randrange(q**3) for _ in range(2)]
                                 for _ in range(2)])
        if v_det != 1 or g0.e != 0:
            continue
        h, v_det = _built(ctx, [[rnd.randrange(q**3) for _ in range(2)]
                                for _ in range(2)])
        if v_det is None or v_det > 2:
            continue
        g = conjugate_three_step(g0, h)
        k = k_of(g)
        if k <= 3:
            yield g, k


def unit_eigenvalue_elements(gamma, n):
    """`padic.unit_eigenvalue` with its Newton steps on ring elements."""
    if gamma.trace_val_ge(1):
        raise DomainError("no unit eigenvalue: v_p(tr) >= 1")
    if gamma.det_valuation() < 1:
        raise DomainError("unit eigenvalue needs v_p(det) >= 1")
    ctx = gamma.ctx
    tr, det, K = _scaled_tr_det(ctx, *_tr_det(gamma), gamma.e, gamma.prec)
    if K < n:
        raise PrecisionExhausted("not enough digits for the requested level")
    tr, det = ctx.el(tr), ctx.el(det)
    x = tr
    for _ in range(n.bit_length() + 2):
        x = x - (x * x - tr * x + det) * (2 * x - tr).inverse()
    out = ctx.el(x.coeffs_mod(n))
    if (out * out - tr * out + det).coeffs_mod(n) != (0,) * ctx.r:
        raise ValueError(f"Hensel lift failed mod p^{n}: root {out.coeffs}")
    return out
