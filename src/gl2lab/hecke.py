"""Finite convolution in the level-n Hecke algebra of GL2 over Q_q.

Right cosets of the principal congruence subgroup K = Gamma(p^n) are named
by canonical keys.  The key of g = p^e * M is the Hermite basis
H = [[p^a, 0], [c, p^b]] of the lattice M O^2 together with H^-1 M mod p^n,
which determines the right coset exactly.  A right-K-invariant function is
a plain callable on matrices; a finitely supported one is given by a list
of (coset representative, value) pairs.  Convolution is the finite sum
(F * f)(g) = vol(K) * sum over the pairs (h, v) of v f(h^-1 g) with
vol(GL2(Z_q)) = q - 1, and the indicator of a double coset KwK is the
list of its q^d right-coset representatives (`double_coset_indicator`).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from typing import List

from . import DEFAULT_SEED
from .errors import BrokenIdentity, DomainError, PrecisionExhausted, check_cap
from .padic import (LocalContext, LocalMatrix, _o_add, _o_det, _o_inverse,
                    _o_matmul, _o_mul, _o_sub, _val_below, ell_min_scaled,
                    factor_prime_power, get_context, group_order_gl2,
                    scaled_val_ge, vp_int)
from .testfunc import branch_key, branch_value_t, phi_pn, phi_pnt

# ---------------------------------------------------------------------------
# canonical right-coset keys


def canonical_coset_rep(g: LocalMatrix, n: int):
    """Key identifying the right coset g * Gamma(p^n); equal keys iff equal cosets.

    Write g = p^e * M with M primitive and d = v(det M).  The lattice M O^2
    has exactly one basis H = [[p^a, 0], [c, p^b]] with a + b = d and c in
    O/p^b, and H^-1 M lies in GL2(O), so the coset is determined by
    (e, d, a, c, H^-1 M mod p^n).  Only the digits of M below max(n + d, 1)
    are read; at n = 0 the last part is empty.  Raises PrecisionExhausted
    unless M has them.
    """
    ctx, f = g.ctx, g.ctx.defining_poly
    p = ctx.p
    e, d = g.e, g.det_valuation() - 2 * g.e
    depth = max(n + d, 1)
    if g.prec < depth:
        raise PrecisionExhausted("coset key needs more certified digits")
    top, bottom = g.m[:2], g.m[2:]
    vals = [_val_below(x, p, depth) for x in top]
    a = min((v for v in vals if v is not None), default=d)
    b = d - a
    pa, pb, pd, pn = p**a, p**b, p**d, p**n
    c = (0,) * ctx.r
    if b:
        # column j with v(M1j) = a gives (p^a, c) = column j / (M1j / p^a),
        # c read in GR(p^b, r)
        j = vals.index(a)
        unit = tuple(x // pa for x in top[j])
        c = tuple(x % pb for x in _o_mul(
            bottom[j], _o_inverse(unit, get_context(p, ctx.r, b)), f))
    rows = ()
    if n:
        # x // p^a and x // p^d mod p^n read no digit of M at or above
        # depth >= n + d, so M is not reduced mod p^depth first
        rows = tuple(tuple(x // pa % pn for x in y) for y in top)
        for y, z in zip(top, bottom):
            num = _o_sub(tuple(x * pa for x in z), _o_mul(c, y, f))
            if any(x % pd for x in num):
                raise BrokenIdentity(f"p^{a} * {z} - {c} * {y} is not "
                                     f"divisible by p^{d}")
            rows += (tuple(x // pd % pn for x in num),)
    return (e, d, a, c, rows)


# ---------------------------------------------------------------------------
# convolution


def vol_congruence(ctx: LocalContext, n: int) -> Fraction:
    """Haar volume of Gamma(p^n) when GL2(Z_q) has volume q - 1."""
    return Fraction(ctx.q - 1, group_order_gl2(ctx.q, n))


def double_coset_indicator(ctx: LocalContext, n: int,
                           w: LocalMatrix) -> List[LocalMatrix]:
    """Indicator of K w K, K = Gamma(p^n) with n >= 1, as the list of its
    right-coset representatives.

    Write w = p^e M, M primitive, d = v(det M).  u = 1 + p^n X in K has
    u w K = w K iff X maps L = M O^2 into L.  L has a basis (a, p^d v) with a
    a column of M, det(a, v) a unit, v = e1 if M's top row is 0 mod p, else
    e2.  X_z = z v (v^T J), J = [[0, 1], [-1, 0]], kills v and sends a to a
    unit times z v, in L only if p^d | z.  So the u_z w, u_z = 1 + p^n X_z,
    z in O/p^d, lie in q^d distinct right cosets, all [K : K cap w K w^-1]
    of them as K is normal in GL2(O).  Another key count raises DomainError.
    """
    if n < 1:
        raise DomainError(f"double-coset indicators need n >= 1, got {n}")
    p, d = ctx.p, w.det_valuation() - 2 * w.e
    upper = all(x % p == 0 for y in w.m[:2] for x in y)  # v = e1
    reps = {}
    for x in itertools.product(range(0, p**(n + d), p**n), repeat=ctx.r):
        rows = [[1, x], [0, 1]] if upper else [[1, 0], [x, 1]]
        g = LocalMatrix.from_integers(ctx, rows) @ w
        reps.setdefault(canonical_coset_rep(g, n), g)
    if len(reps) != ctx.q**d:
        raise DomainError(f"Gamma(p^{n}) {w.to_text()} Gamma(p^{n}) gave "
                          f"{len(reps)} right cosets, not q^{d} = {ctx.q**d}")
    return list(reps.values())


def convolve(ctx: LocalContext, n: int, cosets, f, at: List[LocalMatrix]):
    """(F * f)(g) = vol(K) sum_(h, v) v f(h^-1 g) for each g in `at`, where
    F is v on h K for each (h, v) in `cosets` and 0 elsewhere, K = Gamma(p^n),
    and f is a callable on matrices.  Each h is inverted once for all of
    `at`."""
    vol = vol_congruence(ctx, n)
    inverses = [(h.inverse(), v) for h, v in cosets]
    return [vol * sum(v * f(hinv @ g) for hinv, v in inverses) for g in at]


def tower_key_histogram(g: LocalMatrix, n: int) -> Counter:
    """Counter(phi_branch(g @ u, n + 1)) over u in Gamma(p^n)/Gamma(p^(n+1)),
    without forming the products.

    Write g = p^e M with k = -e, and u = 1 + p^n X.  Then g u = p^e M u has
    the same e, so the same k, and the same v(det).  Where the key depends on
    anything else, v(det M) = 1 + 2k and k <= n, and then:
    - det(M u) - det M = det M (det u - 1) has valuation >= 1 + 2k + n, at
      least n + 1 + k, the deepest digit ell reads, so det M stands for all;
    - tr(M u) = tr M + p^n tr(M X), and the trace predicates and ell read the
      trace only mod p^(n + 1), so only y = tr(M X) mod p matters;
    - X -> tr(M X) mod p is a nonzero F_q-linear form, as M is primitive, so
      each y in F_q comes from exactly q^3 of the u.
    So the q residues tr M + p^n y are classified once each, with weight q^3;
    a branch that reads neither gives one key for every y.  Each read is
    certified as g u would: for an exact g the trace predicates are exact,
    otherwise every read is mod p^prec(g) and raises PrecisionExhausted
    where g u would.
    """
    if n < 1:
        raise DomainError(f"tower averages need n >= 1, got {n}")
    ctx, p, q, e = g.ctx, g.ctx.p, g.ctx.q, g.e
    a, b, c, d = g.exact or g.m
    if g.exact is not None:
        # an exact product g u is exact again, with ctx.N digits
        v_det, tr_prec, prec = g.det_valuation(), None, ctx.N
    else:
        # g u keeps the digits of g, but not its exact trace and determinant
        prec = tr_prec = g.prec
        v_det = LocalMatrix(ctx, e, g.m, prec=prec).det_valuation()
    pn = p**n
    tr_m = _o_add(a, d)
    det = _o_det((a, b, c, d), ctx.defining_poly)
    keys = Counter()
    for y in itertools.product(range(p), repeat=ctx.r):
        tr = _o_add(tr_m, tuple(pn * x for x in y))
        keys[branch_key(
            n + 1, -e, v_det,
            lambda j: scaled_val_ge(tr, e, j, p, tr_prec),
            lambda cap: ell_min_scaled(ctx, tr, det, e, prec, cap))] += q**3
    return keys


def _units_mod(ctx: LocalContext, n: int):
    """GL2(O/p^n) as coefficient tuples (a, b, c, d), lazily, in the
    lexicographic order of the entries' coefficients mod p^n.

    Nothing of size q^n is held.  A row (a, b) that is 0 mod p, or a first
    column (a, c) that is 0 mod p, makes every completion singular, so those
    prefixes are passed over whole; each unit then comes after at most a few
    rejected candidates, at any n.
    """
    p, r, f = ctx.p, ctx.r, ctx.defining_poly
    pn = p**n

    def ring():
        for i in range(pn**r):
            yield tuple(i // pn**j % pn for j in reversed(range(r)))

    def unit(x):
        return any(y % p for y in x)

    for a in ring():
        for b in ring():
            if not (unit(a) or unit(b)):
                continue
            for c in ring():
                if not (unit(a) or unit(c)):
                    continue
                for d in ring():
                    if unit(_o_det((a, b, c, d), f)):
                        yield a, b, c, d


def phi_support_reps(ctx: LocalContext, n: int):
    """One representative of each coset in the support of the level-n central
    function, produced lazily in a fixed order.

    The support is k(g) = k < n, v(det g) = 1, tr g integral.  Then g = p^-k H U
    for one primitive Hermite basis H = [[p^a, 0], [c, p^b]] (a + b = 1 + 2k,
    c in O/p^b) and U in GL2(O), and g Gamma(p^n) is (k, H, U mod p^n); as
    k < n, tr g mod O is a coset invariant.  So each candidate p^-k H U, U
    over GL2(O/p^n) (`_units_mod`), is its own coset, kept if its trace is
    integral.  The order is k, then a, then c, then U.
    """
    p, f = ctx.p, ctx.defining_poly
    pad = (0,) * (ctx.r - 1)
    for k in range(n):
        pk = p**k
        for a in range(2 + 2 * k):
            b = 1 + 2 * k - a
            for c in itertools.product(range(p**b), repeat=ctx.r):
                if a and b and all(x % p == 0 for x in c):
                    continue  # H = p * H' is not primitive
                h = ((p**a,) + pad, (0,) + pad, c, (p**b,) + pad)
                for u in _units_mod(ctx, n):
                    m = _o_matmul(h, u, f)
                    if any(x % pk for x in _o_add(m[0], m[3])):
                        continue  # p^-k tr(H U) is not integral
                    yield LocalMatrix.from_integers(ctx, [m[:2], m[2:]], e=-k)


def phi_support(ctx: LocalContext, n: int):
    """The level-n central function with its support listed coset by coset,
    as {coset key: (representative, value)} in the order of
    `phi_support_reps`.  Its candidates, q^2k (q + 1) bases H per k < n
    times |GL2(O/p^n)| units, are capped first."""
    q = ctx.q
    check_cap(sum(q**(2 * k) * (q + 1) for k in range(n))
              * group_order_gl2(q, n), "central function support enumeration")
    support = {}
    for m in phi_support_reps(ctx, n):
        key = canonical_coset_rep(m, n)
        if key in support:
            raise BrokenIdentity(f"{m.to_text()} repeats a coset")
        support[key] = (m, Fraction(phi_pn(m, n)))
    return support


# ---------------------------------------------------------------------------
# identity campaigns


def branch_covering_sample(ctx: LocalContext, n: int, count: int = 200,
                           seed: int = DEFAULT_SEED):
    """Matrices hitting every branch of the level-n function."""
    p, q = ctx.p, ctx.q
    rnd = random.Random(seed)
    out = []
    # deterministic branch anchors
    out.append(LocalMatrix.from_integers(ctx, [[p, 0], [0, 1]]))          # ell infinite
    out.append(LocalMatrix.from_integers(ctx, [[0, 1], [-p, 0]]))         # trace zero
    out.append(LocalMatrix.from_integers(ctx, [[p, p], [0, p]]))          # off-support det
    for j in range(0, n + 2):
        out.append(LocalMatrix.from_integers(ctx, [[p, 0], [0, 1 + p**j]]))
    for kk in range(0, n + 1):
        rows = [[p**(kk + 1), 1], [0, p**kk]]
        out.append(LocalMatrix.from_integers(ctx, rows, e=-kk))           # k(g) = kk
    while len(out) < count:
        rows = [[rnd.randrange(p**(n + 2)) for _ in range(2)] for _ in range(2)]
        e = -rnd.randrange(n + 1)
        if _singular(rows):
            continue
        m = LocalMatrix.from_integers(ctx, rows, e=e)
        h = _random_unimodular(ctx, rnd)
        out.append(m.conjugate_by(h) if rnd.random() < 0.5 else m)
    return out


def _singular(rows):
    """[[a, b], [c, d]] with a d = b c: a singular integer matrix, or zero."""
    (a, b), (c, d) = rows
    return a * d == b * c


def _random_unimodular(ctx, rnd):
    """An integer matrix with entries below p^3 and a unit determinant, drawn
    by rejection on the integer determinant; h is built once, when kept."""
    p = ctx.p
    while True:
        rows = [[rnd.randrange(p**3) for _ in range(2)] for _ in range(2)]
        (a, b), (c, d) = rows
        if (a * d - b * c) % p:
            return LocalMatrix.from_integers(ctx, rows)


def tower_identity_check(q: int, n: int, sample=None, count: int = 200,
                         seed: int = DEFAULT_SEED):
    """phi_{p,n,t} = phi_{p,n+1,t} * e_{Gamma(p^n)} on a branch-covering sample.

    Also checks that specializing t := q reproduces the undeformed level-n
    function on the same sample.  Exact rational-function equality.  The
    level-(n+1) value at g u depends only on the branch key of g u, so the
    average over u is a sum over at most q keys (`tower_key_histogram`),
    each key's value weighted by its count over q^4.  Each (key, count)
    pair's weighted value is built once per call, in a dict the call drops
    when it returns, and read for every sample point that reaches it.

    The values are rational functions in t of degree up to 2(n + 1), and
    their exact sums cost about (n + 1)^2 per sample point, so that times
    the number of points (at least the 2n + 8 anchors of the sampler) is
    capped before the sample is drawn, as is points times q trace residues.
    """
    p, r = factor_prime_power(q)
    points = len(sample) if sample is not None else max(count, 2 * n + 8)
    check_cap(points * (n + 1)**2, "tower average arithmetic",
              default=2_500_000)
    check_cap(points * q, "tower trace residues")
    ctx = get_context(p, r, 2 * (n + 1) + 6)
    if sample is None:
        sample = branch_covering_sample(ctx, n + 1, count=count, seed=seed)
    failures, values = [], {}
    for g in sample:
        keys = tower_key_histogram(g, n)
        for key, c in keys.items() - values.keys():
            values[key, c] = branch_value_t(q, n + 1, *key) * Fraction(c, q**4)
        first, *rest = (values[kc] for kc in keys.items())
        avg = sum(rest, first)
        lhs = phi_pnt(g, n)
        if not (avg == lhs):
            failures.append((g, lhs, avg))
        spec, want = avg.specialize(q), Fraction(phi_pn(g, n))
        if spec != want:
            failures.append((g, want, spec))
    return len(failures) == 0, failures, len(sample)


def centrality_check(q: int, n: int, generators=None, count: int = 100,
                     seed: int = DEFAULT_SEED):
    """phi * f_w = f_w * phi for f_w = 1_{KwK}, K = Gamma(p^n), sampled exactly.

    Each side is q^d(w) values of phi per point.  f_w * phi is `convolve`
    over the right cosets h = u w of KwK.  For phi * f_w, h^-1 g lies in KwK
    exactly when h lies in g K w^-1 K, the disjoint union of the q^d cosets
    g x K over the right cosets x = u w^-1 of K w^-1 K; phi is
    right-K-invariant, so (phi * f_w)(g) = vol(K) sum_x phi(g x), and phi's
    support is never listed.  The sample is `branch_covering_sample` and
    the first ten support cosets of phi (`phi_support_reps`) times each
    generator.  Points times 2 q^d(w) summed over the generators is capped
    before anything is sampled.

    Precision.  Let N be the working precision, d(y) v(det) of the primitive
    part of y, dw the largest d(w) and dg the deepest point: the branch
    sample's entries lie below p^(n+2), so d <= 2n + 3, and a support coset
    times w has d <= 2n - 1 + dw.  Every point is exact, or a conjugate by a
    unimodular matrix, and so known to N digits.  h is exact; h^-1 and x are
    known to N - d(w) digits, as inverting w loses d(w) of them.  A product
    of two primitive matrices has content c at most the smaller d, so
    y = g x or h^-1 g is known to N - d(w) - c digits, with d(y) = d(g) +
    d(w) - 2c.  phi_pn(y, n) first certifies d(y), which needs
    N - d(w) - c > d(y), so N >= dg + 2 dw + 1.  Off the support it reads
    nothing more.  On it, d(y) = 1 + 2k with k < n, and it reads p^-k tr and
    p^-2k det to n - k digits, so N - d(w) - c >= 2n, which 2n + 2 dw
    <= dg + 2 dw covers.  The keys of the x read n + d(w) of their N - d(w)
    digits.  So N = dg + 2 dw + 1, and a point deeper than dg raises
    PrecisionExhausted.
    """
    p, r = factor_prime_power(q)
    if generators is None:
        rows = [[[0, 1], [1, 0]], [[p, 0], [0, 1]], [[0, 1], [p, 0]]]
        # d(w) of a primitive integer matrix is v_p of its integer determinant
        dws = [vp_int(a * d - b * c, p).value for (a, b), (c, d) in rows]
    else:
        dws = [w.det_valuation() - 2 * w.e for w in generators]
    dw = max(dws)
    dg = max(2 * n + 3, 2 * n - 1 + dw)
    ctx = get_context(p, r, dg + 2 * dw + 1)
    extra = 10  # support points times each generator
    # the sampler draws max(count, 2n + 6) points, its anchors included
    points = max(count, 2 * n + 6) + extra * len(dws)
    check_cap(points * sum(2 * q**d for d in dws),
              "central function convolution")
    if generators is None:
        generators = [LocalMatrix.from_integers(ctx, m) for m in rows]
    sample = branch_covering_sample(ctx, n, count=count, seed=seed)
    # include points in the product support: h * w shapes
    reps = list(itertools.islice(phi_support_reps(ctx, n), extra))
    sample += [rep @ w for w in generators for rep in reps]
    if any(g.det_valuation() - 2 * g.e > dg for g in sample):
        raise PrecisionExhausted(f"a sample point is deeper than d = {dg}")
    vol = vol_congruence(ctx, n)
    phi = lambda g: phi_pn(g, n)
    failures = []
    for w in generators:
        right = convolve(ctx, n, [(h, 1) for h in
                                  double_coset_indicator(ctx, n, w)],
                         phi, sample)
        xs = double_coset_indicator(ctx, n, w.inverse())
        left = [vol * sum(phi(g @ x) for x in xs) for g in sample]
        failures += [(w, g, lv, rv) for g, lv, rv in zip(sample, left, right)
                     if lv != rv]
    return len(failures) == 0, failures, len(sample) * len(generators)
