"""Truncated unramified p-adic arithmetic and scaled 2x2 matrices.

The ring GR(p^N, r) = Z_{p^r} / p^N is represented by coefficient vectors
of length r modulo p^N with respect to a fixed monic lift of the
lexicographically smallest irreducible polynomial of degree r over F_p.
A matrix over Q_{p^r} is stored as p^e * M with M primitive (M != 0 mod p),
its entries coefficient tuples mod p^N, together with the number of
certified p-adic digits of M.  Matrices built from integer data additionally
carry their exact integer entries, which is what allows answers like "this
valuation is infinite" to be certified.  At r = 1, O = Z and every entry is
a one-entry tuple: the kernel functions (`_o_mul`, `_o_add`, `_o_matmul`,
`_o_det`, `_primitive_exact`, `LocalMatrix._build`) then compute on plain
ints, with no loop over coefficients.  All of report-local runs at r = 1.
"""

from __future__ import annotations

import itertools
import math
from functools import total_ordering

from .errors import DomainError, PrecisionExhausted, check_cap
from .poly import divide, horner, mul, trim


# ---------------------------------------------------------------------------
# extended naturals


@total_ordering
class ExtendedNat:
    """A non-negative integer or infinity, totally ordered with INF maximal."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        if value is not None and value < 0:
            raise ValueError("ExtendedNat must be >= 0")
        self.value = value  # None encodes infinity

    @property
    def is_infinite(self):
        return self.value is None

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other
        if isinstance(other, ExtendedNat):
            return self.value == other.value
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, int):
            other = ExtendedNat(other)
        if not isinstance(other, ExtendedNat):
            return NotImplemented
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return "oo" if self.value is None else str(self.value)


INF = ExtendedNat(None)


def vp_int(x: int, p: int) -> ExtendedNat:
    """p-adic valuation of an integer, INF for 0."""
    if x == 0:
        return INF
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return ExtendedNat(v)


def _vp_gcd(coeffs, p):
    """min v_p over the integers coeffs, as v_p of their gcd; None if all vanish."""
    g, v = math.gcd(*coeffs), 0
    while g and g % p == 0:
        g, v = g // p, v + 1
    return v if g else None


# ---------------------------------------------------------------------------
# polynomials over F_p (defining polynomial selection)


def _fp_irreducible(f, p):
    """Ben-Or's test: monic f of degree r over F_p is irreducible exactly
    when gcd(f, x^(p^i) - x mod f) = 1 over F_p for every i <= r/2."""
    x = divide((0, 1), f, p)[1]
    h = x  # x^(p^i) mod f
    for _ in range((len(f) - 1) // 2):
        base, e, h = h, p, divide((1,), f, p)[1]
        while e:  # h <- base^p mod f
            if e & 1:
                h = divide(mul(h, base), f, p)[1]
            base = divide(mul(base, base), f, p)[1]
            e >>= 1
        a, b = f, trim([(c - d) % p for c, d in zip(h, x)])
        while b:  # Euclid over F_p
            a, b = b, trim(divide(a, b, p)[1])
        if len(a) > 1:
            return False
    return True


def smallest_irreducible(p, r):
    """Monic degree-r polynomial over F_p, irreducible, least coefficient code.

    Coefficient code is c0 + c1*p + ...; coefficients lifted to [0, p).
    The search is capped by the p^(r//2) monic divisors of degree at most
    r/2 that could split one candidate.
    """
    check_cap(p**(r // 2), f"irreducibility search at degree {r} over F_{p}")
    for code in range(p**r):
        c, coeffs = code, []
        for _ in range(r):
            coeffs.append(c % p)
            c //= p
        f = coeffs + [1]
        if _fp_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _least_prime_factor(n):
    """The least prime factor of n >= 2, by capped trial division."""
    check_cap(math.isqrt(n), f"trial division of {n}")
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)


def _is_prime(p):
    return p >= 2 and _least_prime_factor(p) == p


# Input rules of the table and local layers, kept here, free of numpy, so
# that the command line rejects bad input before it loads those layers.

def check_phi_level(n):
    """The level-n central function needs n >= 1."""
    if n < 1:
        raise DomainError("phi_pn needs n >= 1")


def check_fixed_set_input(gamma, D):
    """The fixed set of gamma needs gamma conjugate to an integral matrix
    (integral trace and determinant) and a depth D >= k(gamma)."""
    if not gamma.trace_val_ge(0) or gamma.det_valuation() < 0:
        raise DomainError("gamma is not conjugate to an integral matrix")
    if D < k_of(gamma):
        raise DomainError(f"depth {D} below k(gamma) = {k_of(gamma)}")


def check_prime_level(p, n):
    """GL2(Z/p^n) needs a prime p and n >= 1."""
    if not _is_prime(p) or n < 1:
        raise DomainError("need a prime p and n >= 1")


def check_unit_group_input(p, r, n, k=0):
    """The unit-group tables of GL2(GR(p^n, r)) need a prime p, r >= 1 and
    n >= 1; a congruence level k in them needs 0 <= k <= n."""
    if not _is_prime(p) or r < 1 or n < 1:
        raise DomainError("need a prime p, r >= 1 and n >= 1")
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= {n}")


def check_level(p, m):
    """A full level-m structure in characteristic p needs m >= 3 prime to p."""
    if m < 3:
        raise DomainError("level m >= 3 required")
    if m % p == 0:
        raise DomainError("level must be prime to the characteristic")


def check_boundary_input(p, r, n, m):
    """The boundary term needs p prime, r, n >= 1 and m >= 3 prime to p."""
    if not _is_prime(p) or r < 1 or n < 1:
        raise DomainError("boundary term needs a prime p, r >= 1 and n >= 1")
    check_level(p, m)


def check_point_trace_input(p, r, kind, a=None):
    """A semisimple point trace needs r >= 1 and a known kind; an ordinary
    point also needs its unit eigenvalue residue a, prime to p."""
    if r < 1:
        raise DomainError("semisimple point trace needs r >= 1")
    if kind not in ("ordinary", "supersingular"):
        raise DomainError("kind must be 'ordinary' or 'supersingular'")
    if kind == "ordinary" and (a is None or a % p == 0):
        raise DomainError("ordinary point needs a unit eigenvalue residue")


def factor_prime_power(q: int):
    """(p, r) with q = p^r."""
    if q < 2:
        raise DomainError("q must be >= 2")
    p = _least_prime_factor(q)
    r = 0
    while q % p == 0:
        q //= p
        r += 1
    if q != 1:
        raise DomainError("q must be a prime power")
    return p, r


def group_order_gl2(q: int, n: int) -> int:
    """|GL2(GR(p^n, r))| with q = p^r."""
    if n == 0:
        return 1
    return q**(4 * (n - 1)) * (q * q - 1) * (q * q - q)


# ---------------------------------------------------------------------------
# exact arithmetic in the order O = Z[x]/(f), f the fixed monic lift


def _o_mul(a, b, f):
    """a * b in O = Z[x]/(f), f the fixed monic lift."""
    if len(f) == 2:  # O = Z: one integer product
        return (a[0] * b[0],)
    out = mul(a, b)
    return tuple(out) if len(out) < len(f) else tuple(divide(out, f)[1])


def _o_add(a, b):
    return ((a[0] + b[0],) if len(a) == 1
            else tuple(x + y for x, y in zip(a, b)))


def _o_sub(a, b):
    return ((a[0] - b[0],) if len(a) == 1
            else tuple(x - y for x, y in zip(a, b)))


def _o_matmul(x, y, f):
    """The 2x2 product of row-major matrices of coefficient tuples over O."""
    if len(f) == 2:  # O = Z: one expression of integer products
        (a,), (b,), (c,), (d,) = x
        (s,), (t,), (u,), (w,) = y
        return ((a * s + b * u,), (a * t + b * w,),
                (c * s + d * u,), (c * t + d * w,))
    return (_o_add(_o_mul(x[0], y[0], f), _o_mul(x[1], y[2], f)),
            _o_add(_o_mul(x[0], y[1], f), _o_mul(x[1], y[3], f)),
            _o_add(_o_mul(x[2], y[0], f), _o_mul(x[3], y[2], f)),
            _o_add(_o_mul(x[2], y[1], f), _o_mul(x[3], y[3], f)))


def _o_det(x, f):
    """ad - bc of a row-major matrix of coefficient tuples over O."""
    if len(f) == 2:  # O = Z
        (a,), (b,), (c,), (d,) = x
        return (a * d - b * c,)
    return _o_sub(_o_mul(x[0], x[3], f), _o_mul(x[1], x[2], f))


def _val_below(coeffs, p, cap):
    """Least valuation of the coefficients mod p^cap, None if all vanish."""
    pcap = p**cap
    return _vp_gcd([c % pcap for c in coeffs], p)


def _o_inverse(x, ctx):
    """The inverse in GR(p^N, r) of the unit with coefficient tuple x.

    At r = 1 one modular inverse; at r > 1 the F_q inverse x^(q-2) mod p,
    lifted by Newton's v <- v (2 - x v), which doubles the digits each step.
    """
    p, pN, f = ctx.p, ctx.pN, ctx.defining_poly
    if not any(c % p for c in x):
        raise DomainError("not a unit")
    if ctx.r == 1:
        return (pow(x[0], -1, pN),)
    one = (1,) + (0,) * (ctx.r - 1)
    v, base, k = one, tuple(c % p for c in x), ctx.q - 2
    while k:
        if k & 1:
            v = tuple(c % p for c in _o_mul(v, base, f))
        base = tuple(c % p for c in _o_mul(base, base, f))
        k >>= 1
    two, digits = (2,) + one[1:], 1
    while digits < ctx.N:
        v = tuple(c % pN for c in _o_mul(v, _o_sub(two, _o_mul(x, v, f)), f))
        digits *= 2
    check = tuple(c % pN for c in _o_mul(x, v, f))
    if check != one:
        raise AssertionError(f"Newton inverse of {x} failed: product {check}")
    return v


# ---------------------------------------------------------------------------
# the local context


_CTX_CACHE = {}


class LocalContext:
    """Parameters (p, r, N): arithmetic in GR(p^N, r), q = p^r."""

    def __init__(self, p: int, r: int, N: int):
        if not _is_prime(p):
            raise DomainError(f"p = {p} is not prime")
        if r < 1 or N < 1:
            raise DomainError("need r >= 1 and N >= 1")
        self.p = p
        self.r = r
        self.N = N
        self.q = p**r
        self.pN = p**N
        self.defining_poly = smallest_irreducible(p, r)
        self._sigma_cols = None  # lazily computed images of basis powers

    # -- basic element helpers ---------------------------------------------

    def el(self, coeffs) -> "GaloisRingElement":
        if isinstance(coeffs, GaloisRingElement):
            if coeffs.ctx is not self and coeffs.ctx.key() != self.key():
                raise DomainError("context mismatch")
            return coeffs
        if isinstance(coeffs, int):
            coeffs = (coeffs,) + (0,) * (self.r - 1)
        coeffs = tuple(int(c) % self.pN for c in coeffs)
        if len(coeffs) != self.r:
            raise DomainError("coefficient vector has wrong length")
        return GaloisRingElement(self, coeffs)

    @property
    def zero(self):
        return self.el(0)

    @property
    def one(self):
        return self.el(1)

    @property
    def generator(self):
        return self.el((0, 1) + (0,) * (self.r - 2)) if self.r > 1 else self.zero

    def key(self):
        return (self.p, self.r, self.N)

    def __repr__(self):
        return f"LocalContext(p={self.p}, r={self.r}, N={self.N})"

    def all_elements(self, level=None):
        """All elements with coefficients mod p^level (default: full precision N)."""
        j = self.N if level is None else level
        pj = self.p**j
        for coeffs in itertools.product(range(pj), repeat=self.r):
            yield self.el(coeffs)

    # -- Frobenius ----------------------------------------------------------

    def _sigma_columns(self):
        if self._sigma_cols is not None:
            return self._sigma_cols
        if self.r == 1:
            self._sigma_cols = [(1,)]
            return self._sigma_cols
        g = self.generator
        # Hensel lift of the root of f reducing to g^p
        x = g**self.p
        f = self.defining_poly
        fprime = tuple(i * f[i] for i in range(1, len(f)))
        for _ in range(self.N.bit_length() + 2):
            x = x - horner(f, x) * horner(fprime, x).inverse()
        if horner(f, x).coeffs != (0,) * self.r:
            raise AssertionError(f"Hensel lift of the Frobenius root of {f} "
                                 f"failed at p = {self.p}, N = {self.N}")
        cols, power = [], self.one
        for _ in range(self.r):
            cols.append(power.coeffs)
            power = power * x
        self._sigma_cols = cols
        return cols

    def sigma_coeffs(self, coeffs):
        cols = self._sigma_columns()
        out = [0] * self.r
        for i, ci in enumerate(coeffs):
            if ci:
                col = cols[i]
                for j in range(self.r):
                    out[j] += ci * col[j]
        return tuple(c % self.pN for c in out)

    # -- exact sigma on the order O (only r <= 2 stays inside O) ------------

    def sigma_exact(self, ocoeffs):
        if self.r == 1 or all(c == 0 for c in ocoeffs[1:]):
            return tuple(ocoeffs)
        if self.r == 2:
            c1 = self.defining_poly[1]
            a, b = ocoeffs
            return (a - b * c1, -b)
        return None  # conjugate root does not lie in O for r >= 3


def get_context(p: int, r: int, N: int) -> LocalContext:
    """Cached context factory (contexts are immutable once built).

    The working precision is capped before a new context forms p^N: an
    element of GR(p^N, r) may take at most r * N * bitlen(p) <= 10,000 bits,
    so every value below q^N also prints as an int.
    """
    key = (p, r, N)
    if key not in _CTX_CACHE:
        check_cap(r * N * p.bit_length(),
                  f"working precision of GR({p}^{N}, {r}) in bits",
                  default=10_000)
        _CTX_CACHE[key] = LocalContext(p, r, N)
    return _CTX_CACHE[key]


def context_for_level(p: int, r: int, n: int) -> LocalContext:
    """Working precision N = 2n + 4 suffices for every level-n branch predicate."""
    return get_context(p, r, 2 * n + 4)


# ---------------------------------------------------------------------------
# ring elements


class GaloisRingElement:
    """Element of GR(p^N, r): coefficient vector mod p^N w.r.t. 1, g, ..., g^(r-1)."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: LocalContext, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(c % ctx.pN for c in coeffs)

    def __add__(self, other):
        other = self.ctx.el(other)
        return GaloisRingElement(self.ctx, _o_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self.ctx.el(other)
        return GaloisRingElement(self.ctx, _o_sub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return self.ctx.el(other) - self

    def __neg__(self):
        return GaloisRingElement(self.ctx, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = self.ctx.el(other)
        prod = _o_mul(self.coeffs, other.coeffs, self.ctx.defining_poly)
        return GaloisRingElement(self.ctx, prod)

    __rmul__ = __mul__

    def __pow__(self, k):
        acc, base = self.ctx.one, self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.el(other)
        if not isinstance(other, GaloisRingElement):
            return NotImplemented
        return self.ctx.key() == other.ctx.key() and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx.key(), self.coeffs))

    def __repr__(self):
        return f"GR{self.coeffs}"

    # -- valuation and units -------------------------------------------------

    def valuation_below(self, cap: int):
        """Minimal coefficient valuation if < cap, else None.

        Only digits below ``cap`` are consulted, so the answer is certified
        whenever cap <= certified digits of this element.
        """
        return _val_below(self.coeffs, self.ctx.p, cap)

    def is_unit(self):
        return self.valuation_below(1) == 0

    def inverse(self):
        """The inverse of a unit (see `_o_inverse`); DomainError otherwise."""
        return GaloisRingElement(self.ctx, _o_inverse(self.coeffs, self.ctx))

    def frobenius(self):
        return GaloisRingElement(self.ctx, self.ctx.sigma_coeffs(self.coeffs))

    def coeffs_mod(self, j: int):
        pj = self.ctx.p**j
        return tuple(c % pj for c in self.coeffs)

    # -- canonical textual encoding ------------------------------------------

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.coeffs) + f" (mod {self.ctx.p}^{self.ctx.N})"

    @classmethod
    def from_text(cls, ctx: LocalContext, text: str):
        body = text.split("(")[0].strip()
        return ctx.el(tuple(int(t) for t in body.split(",")))


def frobenius(x: GaloisRingElement) -> GaloisRingElement:
    """The unique automorphism lifting y -> y^p on the residue field."""
    return x.frobenius()


# ---------------------------------------------------------------------------
# scaled matrices


def _as_ocoeffs(entry, r):
    """Integer entry / coefficient sequence -> exact coefficient tuple over Z."""
    if isinstance(entry, int):
        return (entry,) + (0,) * (r - 1)
    t = tuple(int(c) for c in entry)
    if len(t) != r:
        raise DomainError("entry coefficient vector has wrong length")
    return t


def scaled_val_ge(coeffs, shift, k, p, prec=None):
    """Certified v(p^shift * x) >= k for x in O given by integer coefficients:
    exact when prec is None, else x is known mod p^prec only."""
    need = k - shift
    if need <= 0:
        return True
    if prec is not None and need > prec:
        raise PrecisionExhausted("trace predicate deeper than certified digits")
    pk = p**need
    return all(c % pk == 0 for c in coeffs)


def _primitive_exact(ctx, e, flat):
    """p^e * flat, exact coefficient tuples, as a primitive exact matrix."""
    v = _vp_gcd([c for entry in flat for c in entry], ctx.p)
    if v is None:
        raise DomainError("the zero matrix has no primitive representation")
    pv = ctx.p**v
    if ctx.r == 1:  # O = Z: one-entry tuples of ints
        flat = tuple([(x // pv,) for (x,) in flat])
        m = [(x % ctx.pN,) for (x,) in flat]
    else:
        flat = tuple(tuple(c // pv for c in x) for x in flat) if v else tuple(flat)
        m = tuple(tuple(c % ctx.pN for c in entry) for entry in flat)
    return LocalMatrix(ctx, e + v, m, prec=ctx.N, exact=flat)


class LocalMatrix:
    """g = p^e * M with M a primitive 2x2 matrix over GR(p^N, r), its entries
    ``m`` coefficient tuples mod p^N, row-major.

    ``prec`` counts the certified digits of M.  ``exact`` (optional) holds
    untruncated integer coefficient vectors for the entries; ``exact_tr`` /
    ``exact_det`` hold exact scaled invariants (exponent, coefficient tuple)
    and survive conjugation, where the entries themselves stop being exact.
    """

    __slots__ = ("ctx", "e", "m", "prec", "exact", "exact_tr", "exact_det")

    def __init__(self, ctx, e, m, prec=None, exact=None, exact_tr=None, exact_det=None):
        self.ctx = ctx
        self.e = e
        self.m = tuple(m)  # (a, b, c, d) row-major
        self.prec = ctx.N if prec is None else prec
        if self.prec <= 0:
            raise PrecisionExhausted("no certified digits remain")
        self.exact = exact
        if exact is not None:
            exact_tr = (e, _o_add(exact[0], exact[3]))
            exact_det = (2 * e, _o_det(exact, ctx.defining_poly))
        self.exact_tr = exact_tr
        self.exact_det = exact_det

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_integers(cls, ctx, rows, e=0):
        """Exact construction of p^e * [[a, b], [c, d]] from integer(-vector) entries."""
        flat = [_as_ocoeffs(x, ctx.r) for row in rows for x in row]
        return _primitive_exact(ctx, e, flat)

    @classmethod
    def identity(cls, ctx):
        return cls.from_integers(ctx, [[1, 0], [0, 1]])

    # -- internal: renormalize to a primitive representation -------------------

    def _build(self, e, entries, prec):
        """p^e * entries, coefficient tuples known mod p^prec, made primitive."""
        ctx = self.ctx
        if prec <= 0:
            raise PrecisionExhausted("no certified digits remain")
        pN = ctx.pN
        entries = ([(x % pN,) for (x,) in entries] if ctx.r == 1  # O = Z
                   else tuple(tuple(c % pN for c in x) for x in entries))
        v = _val_below(itertools.chain(*entries), ctx.p, prec)
        if v is None:
            raise PrecisionExhausted("cannot certify the content of the matrix")
        pv = ctx.p**v
        m = ([(x // pv,) for (x,) in entries] if ctx.r == 1
             else tuple(tuple(c // pv for c in x) for x in entries))
        return LocalMatrix(ctx, e + v, m, prec=prec - v)

    # -- ring structure ---------------------------------------------------------

    def __matmul__(self, other):
        f = self.ctx.defining_poly
        if self.exact is not None and other.exact is not None:
            return _primitive_exact(self.ctx, self.e + other.e,
                                    _o_matmul(self.exact, other.exact, f))
        return self._build(self.e + other.e,
                           _o_matmul(self.m, other.m, f),
                           min(self.prec, other.prec))

    def inverse(self):
        a, b, c, d = self.m
        ctx, f = self.ctx, self.ctx.defining_poly
        det = tuple(x % ctx.pN for x in _o_det(self.m, f))
        dv = _val_below(det, ctx.p, self.prec)
        if dv is None:
            raise PrecisionExhausted("determinant valuation not certified")
        pdv = ctx.p**dv
        w = _o_inverse(tuple(x // pdv for x in det), ctx)
        nw = tuple(-x for x in w)
        adj = (_o_mul(d, w, f), _o_mul(b, nw, f), _o_mul(c, nw, f),
               _o_mul(a, w, f))
        return self._build(-self.e - dv, adj, self.prec - dv)

    def frobenius_matrix(self):
        ent = tuple(self.ctx.sigma_coeffs(x) for x in self.m)
        exact = None
        if self.exact is not None:
            imgs = [self.ctx.sigma_exact(t) for t in self.exact]
            if all(i is not None for i in imgs):
                exact = tuple(imgs)
        return LocalMatrix(self.ctx, self.e, ent, prec=self.prec, exact=exact)

    def conjugate_by(self, h):
        """h^-1 g h, carrying over the exact trace/determinant of g."""
        out = h.inverse() @ self @ h
        out.exact = None
        out.exact_tr = self.exact_tr
        out.exact_det = self.exact_det
        return out

    # -- invariants ---------------------------------------------------------------

    def det_valuation(self) -> int:
        if self.exact_det is not None:
            sh, coeffs = self.exact_det
            v = _vp_gcd(coeffs, self.ctx.p)
            if v is None:
                raise DomainError("matrix is not invertible")
            return sh + v
        v = _val_below(_o_det(self.m, self.ctx.defining_poly), self.ctx.p,
                       self.prec)
        if v is None:
            raise PrecisionExhausted("determinant valuation not certified")
        return 2 * self.e + v

    def trace_valuation(self) -> ExtendedNat:
        """v_p(tr g) as an ExtendedNat (INF when the trace is exactly zero)."""
        if self.exact_tr is not None:
            sh, coeffs = self.exact_tr
            v = _vp_gcd(coeffs, self.ctx.p)
            if v is None:
                return INF
            if sh + v < 0:
                raise DomainError("trace has negative valuation")
            return ExtendedNat(sh + v)
        v = _val_below(_o_add(self.m[0], self.m[3]), self.ctx.p, self.prec)
        if v is None:
            raise PrecisionExhausted("trace valuation not certified")
        if self.e + v < 0:
            raise DomainError("trace has negative valuation")
        return ExtendedNat(self.e + v)

    def trace_val_ge(self, k: int) -> bool:
        """Certified predicate v_p(tr g) >= k."""
        if self.exact_tr is not None:
            sh, coeffs = self.exact_tr
            return scaled_val_ge(coeffs, sh, k, self.ctx.p)
        return scaled_val_ge(_o_add(self.m[0], self.m[3]), self.e, k,
                             self.ctx.p, self.prec)

    # -- equality / encoding ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LocalMatrix):
            return NotImplemented
        if self.ctx.key()[:2] != other.ctx.key()[:2] or self.e != other.e:
            return False
        pk = self.ctx.p**min(self.prec, other.prec)
        return all(c % pk == d % pk for x, y in zip(self.m, other.m)
                   for c, d in zip(x, y))

    def __repr__(self):
        return self.to_text()

    def to_text(self) -> str:
        def ent(x):
            if self.ctx.r == 1:
                return str(x[0])
            return "[" + ",".join(str(c) for c in x) + "]"
        a, b, c, d = self.m
        return f"p^{self.e} * [[{ent(a)},{ent(b)}],[{ent(c)},{ent(d)}]]"

    @classmethod
    def from_text(cls, ctx, text: str):
        import json
        head, body = text.split("*", 1)
        e = int(head.strip().split("^")[1])
        rows = json.loads(body.strip())
        return cls.from_integers(ctx, rows, e=e)


# ---------------------------------------------------------------------------
# the named operations


def k_of(g: LocalMatrix) -> int:
    """Minimal k with p^k g integral; the primitive representation makes it -e."""
    g.det_valuation()  # certifies invertibility
    return -g.e


def _o_scale(coeffs, shift, p, prec=None):
    """p^shift * x for x in O given by integer coefficients: exact when prec
    is None, else x is known mod p^prec and the value mod p^(prec + shift).
    A negative shift must divide every coefficient."""
    if shift >= 0:
        return tuple(c * p**shift for c in coeffs)
    if prec is not None and prec < -shift:
        raise PrecisionExhausted("shift consumes all certified digits")
    ps = p**(-shift)
    if any(c % ps for c in coeffs):
        raise DomainError("value is not integral at this scale")
    return tuple(c // ps for c in coeffs)


def _tr_det(g: LocalMatrix):
    """tr M and det M of g = p^e M, coefficient tuples known mod p^prec."""
    return _o_add(g.m[0], g.m[3]), _o_det(g.m, g.ctx.defining_poly)


def _scaled_tr_det(ctx, tr, det, e, prec):
    """(p^e tr, p^2e det, K) for tr and det known mod p^prec: both values
    are known mod p^K, K = prec + min(e, 2e) capped at N."""
    return (_o_scale(tr, e, ctx.p, prec), _o_scale(det, 2 * e, ctx.p, prec),
            min(ctx.N, prec + min(e, 2 * e)))


def _ell_value(tr, det):
    """1 - tr + det over O, the value whose valuation is ell."""
    d = _o_sub(det, tr)
    return (d[0] + 1,) + d[1:]


def _require_ell_domain(g: LocalMatrix):
    """ell(g) needs v_p(det g) >= 1 and v_p(tr g) = 0."""
    if g.det_valuation() < 1:
        raise DomainError("ell is defined only for v_p(det) >= 1")
    if g.trace_val_ge(1) or not g.trace_val_ge(0):
        raise DomainError("ell is defined only for v_p(tr) = 0")


def ell_min(g: LocalMatrix, cap: int):
    """min(ell(g), cap), certified; needs v_p(det g) >= 1 and v_p(tr g) = 0."""
    _require_ell_domain(g)
    return ell_min_scaled(g.ctx, *_tr_det(g), g.e, g.prec, cap)


def ell_min_scaled(ctx, tr, det, e, prec, cap):
    """min(v(1 - p^e tr + p^2e det), cap) for tr and det coefficient tuples
    known mod p^prec, certified as ell_min certifies g = p^e M from tr M and
    det M."""
    tr, det, K = _scaled_tr_det(ctx, tr, det, e, prec)
    if K < cap:
        raise PrecisionExhausted(f"need {cap} certified digits, have {K}")
    v = _val_below(_ell_value(tr, det), ctx.p, cap)
    return cap if v is None else v


def ell_of(g: LocalMatrix) -> ExtendedNat:
    """v_p(1 - tr g + det g); INF needs exact input data to certify."""
    _require_ell_domain(g)
    p = g.ctx.p
    if g.exact_tr is not None and g.exact_det is not None:
        (st, ct), (sd, cd) = g.exact_tr, g.exact_det
        v = _vp_gcd(_ell_value(_o_scale(ct, st, p), _o_scale(cd, sd, p)), p)
        return INF if v is None else ExtendedNat(v)
    tr, det, K = _scaled_tr_det(g.ctx, *_tr_det(g), g.e, g.prec)
    v = _val_below(_ell_value(tr, det), p, K)
    if v is None:
        raise PrecisionExhausted("vanishes to working precision, not provably zero")
    return ExtendedNat(v)


def norm_map(delta):
    """N(delta) = delta * delta^sigma * ... * delta^(sigma^(r-1))."""
    if isinstance(delta, LocalMatrix):
        acc, cur = delta, delta
        for _ in range(delta.ctx.r - 1):
            cur = cur.frobenius_matrix()
            acc = acc @ cur
        return acc
    if isinstance(delta, GaloisRingElement):
        acc, cur = delta, delta
        for _ in range(delta.ctx.r - 1):
            cur = cur.frobenius()
            acc = acc * cur
        return acc
    # finite-level 2x2 tuple of GaloisRingElements
    ctx = delta[0].ctx
    acc = cur = tuple(x.coeffs for x in delta)
    for _ in range(ctx.r - 1):
        cur = tuple(ctx.sigma_coeffs(x) for x in cur)
        acc = _o_matmul(acc, cur, ctx.defining_poly)
    return tuple(GaloisRingElement(ctx, x) for x in acc)


def sigma_conjugate(h: LocalMatrix, delta: LocalMatrix) -> LocalMatrix:
    """h^-1 delta h^sigma."""
    return h.inverse() @ delta @ h.frobenius_matrix()


def unit_eigenvalue(gamma: LocalMatrix, n: int) -> GaloisRingElement:
    """Hensel-lifted unit root of x^2 - tr(gamma) x + det(gamma) mod p^n."""
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
        raise AssertionError(f"Hensel lift of the unit eigenvalue failed mod "
                             f"p^{n}: root {out.coeffs}")
    return out
