import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gl2lab.errors import DomainError, PrecisionExhausted
from gl2lab.hecke import canonical_coset_rep
from gl2lab.padic import (INF, ExtendedNat, GaloisRingElement, LocalMatrix,
                          _o_det, _o_inverse, _o_mul, _o_scale,
                          _scaled_tr_det, _tr_det, _vp_gcd, context_for_level,
                          ell_min, ell_of, frobenius, get_context, k_of,
                          norm_map, scaled_val_ge, sigma_conjugate,
                          smallest_irreducible, unit_eigenvalue, vp_int)
from gl2lab.poly import divide, mul
from gl2lab.ringtables import RingTableLists


def test_defining_polynomials_deterministic():
    assert smallest_irreducible(2, 2) == (1, 1, 1)        # x^2 + x + 1
    assert smallest_irreducible(3, 2) == (1, 0, 1)        # x^2 + 1
    assert smallest_irreducible(2, 3) == (1, 1, 0, 1)     # x^3 + x + 1
    assert smallest_irreducible(5, 1) == (0, 1)           # x


def test_extended_nat_order():
    assert ExtendedNat(3) < INF
    assert not (INF < INF)
    assert INF == INF
    assert ExtendedNat(2) < ExtendedNat(5)
    assert max(ExtendedNat(4), INF) is INF
    assert vp_int(0, 2) is not None and vp_int(0, 2).is_infinite
    assert vp_int(24, 2) == 3


@pytest.mark.parametrize("p,r,n", [(2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1),
                                   (5, 2, 1), (2, 2, 2), (3, 1, 2), (2, 1, 3),
                                   (2, 2, 3)])
def test_ring_table_lists_match_the_element_arithmetic(p, r, n):
    # the tables are built from rows and the products with the basis; the
    # ring elements' own arithmetic is the reference, entry by entry
    t = RingTableLists(p, r, n)
    ctx = get_context(p, r, n)
    els = [ctx.el(t.decode(c)) for c in range(t.Q)]

    def code(x):
        return t.encode(x.coeffs_mod(n))

    assert [code(x) for x in els] == list(range(t.Q)) and t.one == code(ctx.one)
    for i, x in enumerate(els):
        assert t.ADD[i] == [code(x + y) for y in els]
        assert t.MUL[i] == [code(x * y) for y in els]
        assert t.NEG[i] == code(-x) and t.SIG[i] == code(x.frobenius())
        v = x.valuation_below(n)
        assert t.VAL[i] == (n if v is None else v)
        assert t.INV[i] == (code(x.inverse()) if v == 0 else 0)


# ---------------------------------------------------------------------------
# frobenius


def test_frobenius_fixes_prime_subring():
    ctx = get_context(2, 2, 3)
    assert frobenius(ctx.el(3)) == ctx.el(3)


def test_frobenius_is_field_frobenius_on_residue():
    ctx = get_context(2, 2, 1)   # the field with 4 elements
    g = ctx.generator
    assert frobenius(g) == g * g


def test_frobenius_order_r_random():
    # 50 random elements of GR(2^2, 3): sigma^3 = id by brute iteration
    ctx = get_context(2, 3, 2)
    rnd = random.Random(1)
    for _ in range(50):
        x = ctx.el(tuple(rnd.randrange(4) for _ in range(3)))
        y = x
        for _ in range(ctx.r):
            y = frobenius(y)
        assert y == x


@pytest.mark.parametrize("p,r,N", [(2, 2, 3), (2, 3, 2), (2, 4, 1),
                                   (3, 2, 3), (3, 2, 1), (13, 1, 2)])
def test_frobenius_ring_automorphism_of_order_exactly_r(p, r, N):
    ctx = get_context(p, r, N)
    els = list(ctx.all_elements()) if p**(N * r) <= 4096 else None
    if els is None:
        rnd = random.Random(0)
        els = [ctx.el(tuple(rnd.randrange(ctx.pN) for _ in range(r)))
               for _ in range(64)]
    # homomorphism on sampled pairs
    for i in range(0, len(els) - 1, 7):
        x, y = els[i], els[i + 1]
        assert frobenius(x + y) == frobenius(x) + frobenius(y)
        assert frobenius(x * y) == frobenius(x) * frobenius(y)
    assert frobenius(ctx.one) == ctx.one
    # exact order r: sigma^j moves the generator for 0 < j < r
    for j in range(1, r):
        y = ctx.generator
        for _ in range(j):
            y = frobenius(y)
        assert y != ctx.generator or r == 1
    y = ctx.generator
    for _ in range(r):
        y = frobenius(y)
    assert y == ctx.generator


RING_LAWS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def ring_triples(draw):
    p, r, N = draw(st.sampled_from([(2, 2, 3), (2, 3, 2), (3, 2, 2),
                                    (2, 5, 2), (5, 3, 2), (3, 4, 1)]))
    ctx = get_context(p, r, N)
    el = st.lists(st.integers(0, ctx.pN - 1), min_size=r, max_size=r)
    return ctx, ctx.el(draw(el)), ctx.el(draw(el)), ctx.el(draw(el))


@RING_LAWS
@given(ring_triples())
def test_galois_ring_laws_sigma_order_and_norm(case):
    ctx, x, y, z = case
    assert (x + y) + z == x + (y + z) and x + y == y + x
    assert (x * y) * z == x * (y * z) and x * y == y * x
    assert x * (y + z) == x * y + x * z and x * ctx.one == x
    assert (x - y) + y == x and x + (-x) == ctx.zero
    if x.is_unit():
        assert x * x.inverse() == ctx.one
    # sigma is a ring automorphism with sigma^r = id
    assert frobenius(x * y + z) == frobenius(x) * frobenius(y) + frobenius(z)
    s = x
    for _ in range(ctx.r):
        s = frobenius(s)
    assert s == x
    # the norm is multiplicative and lands in the sigma-fixed Z/p^N
    assert norm_map(x * y) == norm_map(x) * norm_map(y)
    assert frobenius(norm_map(x)) == norm_map(x)
    assert norm_map(x).coeffs[1:] == (0,) * (ctx.r - 1)


# ---------------------------------------------------------------------------
# norm map


def test_norm_identity_and_scalar():
    ctx = get_context(2, 3, 2)
    ident = LocalMatrix.identity(ctx)
    assert norm_map(ident) == ident
    # r = 1: the norm is the identity map
    ctx1 = get_context(5, 1, 3)
    g1 = LocalMatrix.from_integers(ctx1, [[2, 3], [1, 4]])
    assert norm_map(g1) == g1
    c = ctx.el((1, 2, 3))
    scal = LocalMatrix(ctx, 0, (c.coeffs, ctx.zero.coeffs, ctx.zero.coeffs,
                                c.coeffs))
    ring_norm = c * frobenius(c) * frobenius(frobenius(c))
    nm = norm_map(scal)
    assert nm.m[0] == ring_norm.coeffs and nm.m[3] == ring_norm.coeffs


def test_norm_charpoly_in_prime_field_exhaustive():
    # all 180 elements of GL2(F_4): tr and det of the norm lie in F_2
    ctx = get_context(2, 2, 1)
    els = list(ctx.all_elements())
    count = 0
    for a in els:
        for b in els:
            for c in els:
                for d in els:
                    det = a * d - b * c
                    if not det.is_unit():
                        continue
                    count += 1
                    nd = norm_map((a, b, c, d))
                    tr = nd[0] + nd[3]
                    dt = nd[0] * nd[3] - nd[1] * nd[2]
                    assert tr.coeffs[1] == 0 and dt.coeffs[1] == 0
    assert count == 180


def test_norm_commutes_with_reduction():
    # the finite-level (entrywise) norm commutes with reduction mod p^j
    ctx = get_context(2, 2, 5)
    rnd = random.Random(4)
    for _ in range(20):
        quad = tuple(ctx.el(tuple(rnd.randrange(32) for _ in range(2)))
                     for _ in range(4))
        nd = norm_map(quad)
        for j in (1, 2, 3):
            low = get_context(2, 2, j)
            quad_l = tuple(low.el(x.coeffs_mod(j)) for x in quad)
            ndl = norm_map(quad_l)
            assert all(x.coeffs_mod(j) == y.coeffs_mod(j)
                       for x, y in zip(nd, ndl))


# ---------------------------------------------------------------------------
# k and ell


def test_k_of_examples():
    ctx = context_for_level(2, 1, 1)
    assert k_of(LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])) == 0
    # diag(p^-1, p) = p^-1 diag(1, p^2)
    assert k_of(LocalMatrix.from_integers(ctx, [[1, 0], [0, 4]], e=-1)) == 1
    # p^-1 [[1, 1], [0, p^2]]: the entry 1/p is the obstruction
    assert k_of(LocalMatrix.from_integers(ctx, [[1, 1], [0, 4]], e=-1)) == 1
    # deep-integral: k may be negative
    assert k_of(LocalMatrix.from_integers(ctx, [[2, 0], [0, 2]], e=1)) == -2


def test_ell_of_examples():
    ctx = context_for_level(2, 1, 1)
    assert ell_of(LocalMatrix.from_integers(ctx, [[2, 0], [0, 3]])) == 1
    assert ell_of(LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])) is not None
    assert ell_of(LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])).is_infinite
    ctx3 = context_for_level(3, 1, 1)
    assert ell_of(LocalMatrix.from_integers(ctx3, [[3, 0], [0, 2]])) == 0


def test_ell_preconditions():
    ctx = context_for_level(2, 1, 1)
    with pytest.raises(DomainError):
        ell_of(LocalMatrix.from_integers(ctx, [[1, 0], [0, 1]]))  # v_det = 0
    with pytest.raises(DomainError):
        ell_of(LocalMatrix.from_integers(ctx, [[0, 1], [-2, 0]]))  # v_tr >= 1


def test_ell_infinite_needs_exact_data():
    ctx = context_for_level(2, 1, 1)
    g = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    bare = LocalMatrix(ctx, g.e, g.m, prec=g.prec)  # shadow stripped
    with pytest.raises(PrecisionExhausted):
        ell_of(bare)
    # but the capped query stays certified
    assert ell_min(bare, 3) == 3


def test_conjugation_invariance_of_invariants():
    ctx = get_context(2, 1, 12)
    rnd = random.Random(5)
    g = LocalMatrix.from_integers(ctx, [[2, 1], [0, 3]])
    for _ in range(30):
        rows = [[rnd.randrange(16) for _ in range(2)] for _ in range(2)]
        try:
            h = LocalMatrix.from_integers(ctx, rows)
            h.det_valuation()
        except (DomainError, PrecisionExhausted):
            continue
        gc = g.conjugate_by(h)
        assert gc.det_valuation() == g.det_valuation()
        assert gc.trace_valuation() == g.trace_valuation()
        assert ell_of(gc) == ell_of(g)
        if h.det_valuation() == 0:   # integral conjugation preserves k
            assert k_of(gc) == k_of(g)


def test_ell_infinite_survives_conjugation():
    ctx = get_context(2, 1, 12)
    g = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    h = LocalMatrix.from_integers(ctx, [[1, 2], [1, 1]])
    assert ell_of(g.conjugate_by(h)).is_infinite


# ---------------------------------------------------------------------------
# sigma conjugation


def test_sigma_conjugate_identity_and_r1():
    ctx = get_context(2, 2, 4)
    d = LocalMatrix.from_integers(ctx, [[(1, 1), 1], [2, 3]])
    assert sigma_conjugate(LocalMatrix.identity(ctx), d) == d
    ctx1 = get_context(5, 1, 4)
    d1 = LocalMatrix.from_integers(ctx1, [[1, 2], [3, 4]])
    h1 = LocalMatrix.from_integers(ctx1, [[1, 1], [1, 2]])
    assert sigma_conjugate(h1, d1) == d1.conjugate_by(h1)


def test_norm_of_sigma_conjugate_is_conjugate_norm():
    # N(h^-1 d h^sigma) = h^-1 N(d) h for 100 random pairs at finite level
    ctx = get_context(2, 2, 4)
    rnd = random.Random(6)
    done = 0
    while done < 100:
        mk = lambda: [[tuple(rnd.randrange(8) for _ in range(2))
                       for _ in range(2)] for _ in range(2)]
        try:
            h = LocalMatrix.from_integers(ctx, mk())
            d = LocalMatrix.from_integers(ctx, mk())
            if h.det_valuation() > 1:
                continue
            d.det_valuation()
        except (DomainError, PrecisionExhausted):
            continue
        lhs = norm_map(sigma_conjugate(h, d))
        rhs = norm_map(d).conjugate_by(h)
        assert lhs == rhs
        done += 1


# ---------------------------------------------------------------------------
# unit eigenvalue


def test_unit_eigenvalue_diagonal():
    ctx = context_for_level(3, 1, 2)
    g = LocalMatrix.from_integers(ctx, [[3, 0], [0, 5]])
    assert unit_eigenvalue(g, 2) == ctx.el(5).coeffs_mod(2)[0]


def test_unit_eigenvalue_exhaustive_root_search_mod8():
    # tr = 3, det = 2 at p = 2, n = 3: the unit root of x^2 - 3x + 2 mod 8
    roots = [x for x in range(8) if (x * x - 3 * x + 2) % 8 == 0]
    unit_roots = [x for x in roots if x % 2 == 1]
    assert unit_roots == [1]
    ctx = context_for_level(2, 1, 3)
    g = LocalMatrix.from_integers(ctx, [[0, -2], [1, 3]])  # companion, tr 3 det 2
    a = unit_eigenvalue(g, 3)
    assert a.coeffs[0] % 8 == 1


def test_unit_eigenvalue_substitute_back():
    ctx = context_for_level(2, 1, 3)
    rnd = random.Random(7)
    done = 0
    while done < 100:
        tr = rnd.randrange(1, 64, 2)          # unit trace
        det = rnd.randrange(2, 64, 2)          # v(det) >= 1
        g = LocalMatrix.from_integers(ctx, [[0, -det], [1, tr]])
        a = unit_eigenvalue(g, 3)
        av = a.coeffs[0]
        assert (av * (tr - av) - det) % 8 == 0
        done += 1
    with pytest.raises(DomainError):
        unit_eigenvalue(LocalMatrix.from_integers(ctx, [[0, 1], [-2, 0]]), 2)


# ---------------------------------------------------------------------------
# precision contract and encodings


def test_precision_monotonicity():
    for N in (6, 8, 10):
        ctx = get_context(2, 1, N)
        g = LocalMatrix.from_integers(ctx, [[2, 3], [4, 7]])
        h = LocalMatrix.from_integers(ctx, [[1, 2], [1, 1]])
        gc = g.conjugate_by(h)
        assert gc.det_valuation() == 1
        assert ell_min(gc, 3) == ell_min(g, 3)
        assert k_of(g @ h) == k_of(g) + 0


def test_inverse_and_equality_contract():
    ctx = get_context(3, 1, 8)
    h = LocalMatrix.from_integers(ctx, [[3, 1], [2, 5]])
    assert h @ h.inverse() == LocalMatrix.identity(ctx)
    g1 = LocalMatrix.from_integers(ctx, [[1, 0], [0, 1]])
    g2 = LocalMatrix.from_integers(ctx, [[1, 0], [0, 1]], e=1)
    assert g1 != g2  # exponents differ



@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_exact_matmul_matches_truncated_product(p, r):
    # two exact factors give only the exact product; it must agree with
    # the truncated product of the same matrices without their exact data
    ctx = get_context(p, r, 8)
    rnd = random.Random(100 * p + r)

    def entry():
        x = [rnd.randrange(-30, 31) for _ in range(r)]
        return x[0] if r == 1 else x

    def stripped(g):
        return LocalMatrix(ctx, g.e, g.m, prec=g.prec)

    done = 0
    while done < 40:
        rows = [[[entry(), entry()], [entry(), entry()]] for _ in range(2)]
        try:
            g, h = (LocalMatrix.from_integers(ctx, m, e=rnd.randrange(-1, 2))
                    for m in rows)
            g.det_valuation(), h.det_valuation()
        except DomainError:
            continue        # the zero or a singular matrix
        gh = g @ h
        assert gh.exact is not None
        truncated = stripped(g) @ stripped(h)
        assert truncated.exact is None
        assert gh == truncated
        assert gh.det_valuation() == g.det_valuation() + h.det_valuation()
        done += 1


# ---------------------------------------------------------------------------
# the coefficient-tuple kernel against the element path it replaced


def _shift(x, k):
    """p^k * x for a ring element x (k may be negative; the stored digits
    must allow it): the element operation the oracles below shift by."""
    p = x.ctx.p
    if k >= 0:
        return GaloisRingElement(x.ctx, tuple(c * p**k for c in x.coeffs))
    pk = p**(-k)
    if any(c % pk for c in x.coeffs):
        raise PrecisionExhausted("element not divisible by requested power of p")
    return GaloisRingElement(x.ctx, tuple(c // pk for c in x.coeffs))


def _elements(g):
    """The entries of g as ring elements, as the oracles read them."""
    return tuple(g.ctx.el(x) for x in g.m)


def _element_build(ctx, e, entries, prec):
    """The renormalization of truncated element entries that LocalMatrix
    products used before the tuple kernel: the oracle."""
    if prec <= 0:
        raise PrecisionExhausted("no certified digits remain")
    vals = [x.valuation_below(prec) for x in entries]
    vals = [v for v in vals if v is not None]
    if not vals:
        raise PrecisionExhausted("cannot certify the content of the matrix")
    v = min(vals)
    return LocalMatrix(ctx, e + v, tuple(_shift(x, -v).coeffs for x in entries),
                       prec=prec - v)


def _element_matmul(x, y):
    a1, b1, c1, d1 = _elements(x)
    a2, b2, c2, d2 = _elements(y)
    prod = (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)
    return _element_build(x.ctx, x.e + y.e, prod, min(x.prec, y.prec))


def _element_det(x):
    a, b, c, d = _elements(x)
    return a * d - b * c


def _newton_inverse(x):
    """The object-level inverse the tuple kernel replaced, the oracle: the
    F_q inverse x^(q-2) in GR(p, r), lifted by N.bit_length() + 1 Newton
    steps on ring elements."""
    ctx = x.ctx
    if not x.is_unit():
        raise DomainError("not a unit")
    red = GaloisRingElement(get_context(ctx.p, ctx.r, 1), x.coeffs)
    v = ctx.el((red**(ctx.q - 2) if ctx.q > 2 else red).coeffs)
    for _ in range(ctx.N.bit_length() + 1):
        v = v * (2 - x * v)
    assert (x * v).coeffs == ctx.one.coeffs
    return v


def _element_inverse(x):
    a, b, c, d = _elements(x)
    det = _element_det(x)
    dv = det.valuation_below(x.prec)
    if dv is None:
        raise PrecisionExhausted("determinant valuation not certified")
    uinv = _newton_inverse(_shift(det, -dv))
    adj = (d * uinv, -b * uinv, -c * uinv, a * uinv)
    return _element_build(x.ctx, -x.e - dv, adj, x.prec - dv)


def _scaled_gre(x, shift, prec):
    """(value, certified digits) of p^shift * x as an integral ring element:
    the element path that ell_min and unit_eigenvalue scaled by, the oracle
    of _o_scale with a precision."""
    ctx = x.ctx
    if shift >= 0:
        return _shift(x, shift), min(ctx.N, prec + shift)
    if prec < -shift:
        raise PrecisionExhausted("shift consumes all certified digits")
    if x.valuation_below(-shift) is not None:
        raise DomainError("value is not integral at this scale")
    return _shift(x, shift), prec + shift


def _o_scale_exact(coeffs, shift, p):
    """p^shift * (exact order element), the oracle of _o_scale without a
    precision; exactness of the division is checked."""
    if shift >= 0:
        return tuple(c * p**shift for c in coeffs)
    ps = p**(-shift)
    if any(c % ps for c in coeffs):
        raise DomainError("value is not integral at this scale")
    return tuple(c // ps for c in coeffs)


def _certified(tr, det, K, p):
    """(tr, det, K) with tr and det reduced mod p^K, the digits they certify."""
    return tuple(c % p**K for c in tr), tuple(c % p**K for c in det), K


def _element_scaled_tr_det(g):
    """(p^e tr, p^2e det, K) of g on the element path, the oracle of
    _scaled_tr_det."""
    a, b, c, d = _elements(g)
    tr, ktr = _scaled_gre(a + d, g.e, g.prec)
    det, kdet = _scaled_gre(_element_det(g), 2 * g.e, g.prec)
    return _certified(tr.coeffs, det.coeffs, min(ktr, kdet), g.ctx.p)


def _tuple_scaled_tr_det(g):
    return _certified(*_scaled_tr_det(g.ctx, *_tr_det(g), g.e, g.prec),
                      g.ctx.p)


def _element_coset_rep(g, n):
    """canonical_coset_rep as it ran on ring elements in two contexts: the
    oracle of the key computed on coefficient tuples."""
    ctx = g.ctx
    p = ctx.p
    e, d = g.e, g.det_valuation() - 2 * g.e
    depth = max(n + d, 1)
    if g.prec < depth:
        raise PrecisionExhausted("coset key needs more certified digits")
    ents = _elements(g)
    top, bottom = ents[:2], ents[2:]
    vals = [x.valuation_below(depth) for x in top]
    a = min((v for v in vals if v is not None), default=d)
    b = d - a
    pa, pd, pn = p**a, p**d, p**n
    c = ctx.zero
    if b:
        j = vals.index(a)
        ctx_b = get_context(p, ctx.r, b)
        unit = ctx_b.el([x // pa for x in top[j].coeffs_mod(d)])
        c = ctx.el((ctx_b.el(bottom[j].coeffs) * unit.inverse()).coeffs)
    rows = ()
    if n:
        rows = tuple(tuple(x // pa % pn for x in y.coeffs_mod(depth))
                     for y in top)
        for y, z in zip(top, bottom):
            num = (_shift(z, a) - c * y).coeffs_mod(depth)
            assert not any(x % pd for x in num)
            rows += (tuple(x // pd % pn for x in num),)
    return (e, d, a, c.coeffs, rows)


def _outcome(fn, *args):
    """(e, prec, exact, entry coefficients) of a result, or its error."""
    try:
        out = fn(*args)
    except (DomainError, PrecisionExhausted) as exc:
        return type(exc).__name__, str(exc)
    return out.e, out.prec, out.exact, out.m


def _value(fn, *args):
    """fn(*args), or its error as (name, message)."""
    try:
        return fn(*args)
    except (DomainError, PrecisionExhausted) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def kernel_operands(draw):
    """Two matrices over GR(p^6, r), truncated to prec >= 1 with entries
    often deep in p, each sometimes exact.  An exact operand is built, as
    the samplers build theirs, from signed integer entries, some of them
    unreduced (>= p^N); its truncated entries are those mod p^N."""
    p, r = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]))
    ctx = get_context(p, r, 6)
    coeff = st.builds(lambda u, k: u * p**k % ctx.pN,
                      st.integers(0, ctx.pN - 1), st.integers(0, ctx.N))
    lift = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**20, 10**20))

    def operand():
        m = tuple(tuple(draw(coeff) for _ in range(r)) for _ in range(4))
        return LocalMatrix(ctx, draw(st.integers(-2, 2)), m,
                           prec=draw(st.integers(1, ctx.N)))

    def exact(x):
        rows = [[[c + ctx.pN * draw(lift) for c in z] for z in x.m[i:i + 2]]
                for i in (0, 2)]
        assume(any(c for row in rows for z in row for c in z))
        return LocalMatrix.from_integers(ctx, rows, e=x.e)
    x, y = operand(), operand()
    if draw(st.booleans()):
        x = exact(x)
        if draw(st.booleans()):
            y = exact(y)
    return x, y


def _poly_matmul(x, y, f):
    """The 2x2 product over O = Z[x]/(f) by polynomial multiplication and
    division, the oracle of the exact products of the kernel."""
    def times(a, b):
        prod = mul(a, b) + [0] * (len(f) - 1)
        return tuple(divide(prod, f)[1])

    def plus(a, b):
        return tuple(u + v for u, v in zip(a, b))
    return tuple(plus(times(x[i], y[j]), times(x[i + 1], y[j + 2]))
                 for i in (0, 2) for j in (0, 1))


def _exact_product_matches(x, y):
    """x @ y of exact factors is their exact product made primitive; the
    element product of their truncated entries agrees with it on every
    digit it certifies, and certifies none where the content reaches p^N."""
    ctx, p = x.ctx, x.ctx.p
    product = _poly_matmul(x.exact, y.exact, ctx.defining_poly)
    old = _outcome(_element_matmul, x, y)
    if not any(c for z in product for c in z):
        assert _outcome(x.__matmul__, y)[0] == "DomainError"
        assert old[0] == "PrecisionExhausted"
        return
    got = x @ y
    v = got.e - x.e - y.e
    assert got.prec == ctx.N and got.m == tuple(
        tuple(c % ctx.pN for c in z) for z in got.exact)
    assert product == tuple(tuple(c * p**v for c in z) for z in got.exact)
    assert any(c % p for z in got.exact for c in z)
    if v >= ctx.N:
        assert old[0] == "PrecisionExhausted"
        return
    e, prec, _, m = old
    pk = p**prec
    assert got.e == e and all(c % pk == d % pk for z, w in zip(got.m, m)
                              for c, d in zip(z, w))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kernel_operands())
def test_tuple_kernel_matches_the_element_path(case):
    x, y = case
    if y.exact is not None:
        _exact_product_matches(x, y)
    else:
        assert _outcome(x.__matmul__, y) == _outcome(_element_matmul, x, y)
    for g in (x, y):
        det = tuple(c % g.ctx.pN for c in _o_det(g.m, g.ctx.defining_poly))
        assert det == _element_det(g).coeffs
        if g.exact is not None:
            # the exact trace and determinant reduce to the element ones,
            # and v(det) is the element determinant's where it is certified
            a, _, _, d = _elements(g)
            assert g.exact_tr[0] == g.e and g.exact_det[0] == 2 * g.e
            assert tuple(c % g.ctx.pN for c in g.exact_tr[1]) == (a + d).coeffs
            assert tuple(c % g.ctx.pN for c in g.exact_det[1]) == det
            dv = _element_det(g).valuation_below(g.ctx.N)
            if dv is not None:
                assert g.det_valuation() == 2 * g.e + dv
        assert (_outcome(LocalMatrix.inverse, g)
                == _outcome(_element_inverse, g))
        assert (_value(_tuple_scaled_tr_det, g)
                == _value(_element_scaled_tr_det, g))
        for n in (0, 1, 2):
            assert (_value(canonical_coset_rep, g, n)
                    == _value(_element_coset_rep, g, n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]), st.data())
def test_scale_matches_the_element_path(pr, data):
    p, r = pr
    ctx = get_context(p, r, 6)
    coeff = st.builds(lambda u, k: u * p**k, st.integers(-10**6, 10**6),
                      st.integers(0, 8))
    coeffs = tuple(data.draw(coeff) for _ in range(r))
    shift = data.draw(st.integers(-8, 8))
    prec = data.draw(st.integers(1, ctx.N))
    # exact: any integers, the same tuple or the same error
    assert (_value(_o_scale, coeffs, shift, p)
            == _value(_o_scale_exact, coeffs, shift, p))
    # known mod p^prec: the same value mod p^N, or the same error
    x = ctx.el(coeffs)
    assert (_value(lambda: tuple(c % ctx.pN for c in
                                 _o_scale(x.coeffs, shift, p, prec)))
            == _value(lambda: _scaled_gre(x, shift, prec)[0].coeffs))


def test_valuation_below_reads_only_the_digits_below_its_cap():
    # the oracle above shares valuation_below, so pin it on its own
    ctx = get_context(3, 2, 6)
    x = ctx.el((9, 18))
    assert [x.valuation_below(cap) for cap in (1, 2, 3, 6)] == [None, None, 2, 2]
    assert ctx.el((27, 4)).valuation_below(1) == 0
    assert ctx.zero.valuation_below(6) is None


def test_tuple_kernel_raises_where_the_element_path_did():
    ctx = get_context(3, 2, 6)
    three, zero, one = (3, 0), (0, 0), (1, 0)
    # entries divisible by p, one certified digit: no content, no det
    x = LocalMatrix(ctx, 0, (three, zero, zero, three), prec=1)
    y = LocalMatrix(ctx, 0, (one, zero, zero, one), prec=4)
    for fn, oracle, args in ((LocalMatrix.__matmul__, _element_matmul, (x, y)),
                             (LocalMatrix.__matmul__, _element_matmul, (y, x)),
                             (LocalMatrix.inverse, _element_inverse, (x,))):
        got = _outcome(fn, *args)
        assert got[0] == "PrecisionExhausted" and got == _outcome(oracle, *args)
    # the coset key of x cannot certify v(det), and p^-1 x, known to one
    # digit, cannot give p^-2 det
    for fn, oracle, args in (
            (canonical_coset_rep, _element_coset_rep, (x, 1)),
            (_tuple_scaled_tr_det, _element_scaled_tr_det,
             (LocalMatrix(ctx, -1, x.m, prec=1),))):
        got = _value(fn, *args)
        assert got[0] == "PrecisionExhausted" and got == _value(oracle, *args)
    # p^-1 * 1 is not integral, exact or mod p^2
    half = LocalMatrix(ctx, -1, (one, zero, zero, one), prec=2)
    got = _value(_tuple_scaled_tr_det, half)
    assert got[0] == "DomainError" and got == _value(_element_scaled_tr_det, half)
    assert (_value(_o_scale, one, -1, 3) == _value(_o_scale_exact, one, -1, 3)
            == ("DomainError", "value is not integral at this scale"))
    # two certified digits hold the content p: the product keeps one
    x2 = LocalMatrix(ctx, 0, (three, zero, zero, three), prec=2)
    assert _outcome(LocalMatrix.__matmul__, x2, y) == (1, 1, None, (
        (1, 0), (0, 0), (0, 0), (1, 0)))


def test_trace_predicate_past_its_digits_raises():
    # v(tr) >= k needs k - shift digits; two certified ones cannot give three
    with pytest.raises(PrecisionExhausted):
        scaled_val_ge((0,), 0, 3, 2, prec=2)
    assert scaled_val_ge((0,), 0, 2, 2, prec=2)
    assert scaled_val_ge((0,), 1, 3, 2, prec=2)
    # tr = 1 + 63 = 0 mod 2^6, but only mod 2^2 is certified
    ctx = get_context(2, 1, 6)
    g = LocalMatrix(ctx, 0, ((1,), (0,), (0,), (63,)), prec=2)
    assert g.trace_val_ge(2)
    with pytest.raises(PrecisionExhausted):
        g.trace_val_ge(3)


def test_textual_encodings_roundtrip():
    ctx = get_context(2, 2, 3)
    x = ctx.el((3, 5))
    assert GaloisRingElement.from_text(ctx, x.to_text()) == x
    m = LocalMatrix.from_integers(ctx, [[(1, 1), 2], [0, 1]], e=-1)
    m2 = LocalMatrix.from_text(ctx, m.to_text())
    assert m2 == m


def test_non_invertible_rejected():
    ctx = get_context(2, 1, 6)
    with pytest.raises(DomainError):
        LocalMatrix.from_integers(ctx, [[0, 0], [0, 0]])
    g = LocalMatrix.from_integers(ctx, [[1, 1], [1, 1]])
    with pytest.raises(DomainError):
        g.det_valuation()


# ---------------------------------------------------------------------------
# the integer kernel: unit inverses, r = 1 products, exact valuations


@pytest.mark.parametrize("p,r,N", [(2, 1, 6), (3, 1, 4), (5, 1, 3),
                                   (2, 2, 4), (3, 2, 3), (2, 3, 3)])
def test_unit_inverse_matches_the_object_newton_on_every_unit(p, r, N):
    ctx = get_context(p, r, N)
    units = 0
    for x in ctx.all_elements():
        if not x.is_unit():
            with pytest.raises(DomainError, match="not a unit"):
                x.inverse()
            with pytest.raises(DomainError, match="not a unit"):
                _o_inverse(x.coeffs, ctx)
            continue
        units += 1
        v = _o_inverse(x.coeffs, ctx)
        assert v == _newton_inverse(x).coeffs == x.inverse().coeffs
        assert all(0 <= c < ctx.pN for c in v)
    assert units == ctx.q**N - ctx.q**(N - 1)


def test_a_non_unit_raises_before_any_inverse():
    for ctx in (get_context(3, 1, 5), get_context(2, 2, 4)):
        for x in (ctx.zero, ctx.el(ctx.p), ctx.el(ctx.pN - ctx.p)):
            with pytest.raises(DomainError, match="not a unit"):
                x.inverse()
        g = LocalMatrix.from_integers(ctx, [[ctx.p, 1], [0, ctx.p]])
        assert _outcome(LocalMatrix.inverse, g) == _outcome(_element_inverse, g)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-10**40, 10**40), st.integers(-10**40, 10**40),
       st.sampled_from([2, 3, 5, 7, 1009]))
def test_r1_product_is_the_polynomial_product(a, b, p):
    f = get_context(p, 1, 1).defining_poly
    assert f == (0, 1)
    assert _o_mul((a,), (b,), f) == tuple(mul((a,), (b,))) == (a * b,)
    # v_p of signed products and of the gcd, counted on the gcd
    assert _vp_gcd((a * b,), p) == vp_int(a * b, p).value
    assert _vp_gcd((a * p**7, b), p) == min(vp_int(a * p**7, p),
                                           vp_int(b, p)).value


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.just(0), st.integers(-10**30, 10**30),
                          st.builds(lambda u, k: u * 2**k * 3**k,
                                    st.integers(-50, 50), st.integers(0, 40))),
                max_size=8),
       st.sampled_from([2, 3, 5, 7]))
def test_gcd_valuation_is_the_least_valuation(coeffs, p):
    least = min((vp_int(c, p) for c in coeffs), default=INF)
    v = _vp_gcd(coeffs, p)
    assert (INF if v is None else ExtendedNat(v)) == least


def test_exact_valuations_of_vanishing_data():
    ctx = get_context(3, 2, 6)
    assert _vp_gcd([], 3) is None and _vp_gcd([0, 0, 0], 3) is None
    assert _vp_gcd([0, -18, 27], 3) == 2 and _vp_gcd([-5], 5) == 1
    zero_trace = LocalMatrix.from_integers(ctx, [[0, 1], [-3, 0]])
    assert zero_trace.trace_valuation() is INF
    assert zero_trace.det_valuation() == 1
    g = LocalMatrix.from_integers(ctx, [[(9, -9), 0], [0, (-18, 9)]], e=-1)
    assert g.e == 1 and g.exact[0] == (1, -1)   # content 9 = p^2 taken out
    assert g.det_valuation() == 2 and g.trace_valuation() == 1


def _recorded_inverses(monkeypatch, run):
    """(g, g^-1) for every LocalMatrix.inverse and (g, h, h^-1 g h) for every
    conjugate_by during run()."""
    inverses, conjugates = [], []
    real_inverse, real_conjugate = LocalMatrix.inverse, LocalMatrix.conjugate_by

    def inverse(self):
        out = real_inverse(self)
        inverses.append((self, out))
        return out

    def conjugate_by(self, h):
        out = real_conjugate(self, h)
        conjugates.append((self, h, out))
        return out

    monkeypatch.setattr(LocalMatrix, "inverse", inverse)
    monkeypatch.setattr(LocalMatrix, "conjugate_by", conjugate_by)
    run()
    monkeypatch.undo()
    return inverses, conjugates


def _e_coeffs_prec(g):
    return g.e, g.m, g.prec


@pytest.mark.parametrize("campaign", ["tower", "tree-lemma"])
def test_matrix_inverse_matches_the_object_path_on_report_samples(
        monkeypatch, campaign):
    from gl2lab.checks import tower_checks, tree_checks
    run = {"tower": tower_checks, "tree-lemma": tree_checks}[campaign]
    inverses, conjugates = _recorded_inverses(monkeypatch, run)
    assert len(conjugates) > 100 and len(inverses) >= len(conjugates)
    for g, out in inverses:
        assert _e_coeffs_prec(out) == _e_coeffs_prec(_element_inverse(g))
    for g, h, out in conjugates:
        old = _element_matmul(_element_matmul(_element_inverse(h), g), h)
        assert _e_coeffs_prec(out) == _e_coeffs_prec(old)
        assert (out.exact_tr, out.exact_det) == (g.exact_tr, g.exact_det)
    non_unit = [h for _, h, _ in conjugates if h.det_valuation() > 0]
    if campaign == "tree-lemma":   # h with v(det h) = 1 or 2 is kept there
        assert {h.det_valuation() for h in non_unit} == {1, 2}
    else:
        assert non_unit == []


def _counting_element_constructions(monkeypatch):
    """A list that grows by one coefficient tuple per GaloisRingElement built."""
    built, real = [], GaloisRingElement.__init__

    def counting(self, ctx, coeffs):
        built.append(coeffs)
        real(self, ctx, coeffs)
    monkeypatch.setattr(GaloisRingElement, "__init__", counting)
    return built


@pytest.mark.parametrize("campaign", ["tower", "centrality"])
def test_tower_and_centrality_build_no_ring_element(monkeypatch, campaign):
    # LocalMatrix entries, traces, determinants and coset keys are
    # coefficient tuples; report-all's tower and centrality runs need no
    # element arithmetic at all
    from gl2lab.checks import centrality_checks, tower_checks
    run = {"tower": tower_checks, "centrality": centrality_checks}[campaign]
    built = _counting_element_constructions(monkeypatch)
    rows = run()
    assert rows and all(row.passed for row in rows)
    assert built == []
    # the count sees the constructions a Hensel lift does make
    g = LocalMatrix.from_integers(get_context(3, 1, 8), [[3, 0], [0, 2]])
    assert unit_eigenvalue(g, 2) == g.ctx.el(2) and len(built) > 2
