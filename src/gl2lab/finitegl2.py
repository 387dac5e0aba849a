"""Exact character theory of GL2(Z/p^n) (r = 1), in pure Python.

Conjugacy classes come from a normal form, with no element enumerated.
Write g = a0 + p^j B with j maximal and a0 in [0, p^j), B read mod
p^(n-j).  Then B is not scalar mod p, so B is cyclic and conjugate to its
companion matrix, and (p^j, a0, tr B, det B mod p^(n-j)) is a complete
conjugacy invariant; j = n is the scalar a0.  This is the 2x2 case of the
similarity classes over local rings (Avni-Onn-Prasad-Vaserstein, Comm.
Algebra 2009).  The keys are listed in closed form: the p^n - p^(n-1)
scalars, then for each j < n every a0 (a unit if j >= 1, 0 if j = 0) and
every (t, delta) mod p^(n-j), delta a unit if j = 0.

- Centralizer order.  h commutes with g iff h mod p^(n-j) commutes with B,
  whose commutant in M2(Z/p^(n-j)) is the free rank-2 algebra Z/p^(n-j)[B];
  its units are the lifts of the units of F_p[B mod p].  With the p^(4j)
  elements of the kernel of reduction mod p^(n-j), |C(g)| =
  p^(2(n-j) + 4j - 2) |F_p[B mod p]^x|, the last factor (p-1)^2, p^2 - 1 or
  p(p-1) as x^2 - t x + delta has two roots mod p, none, or a double one.
- Least representative.  The class is a0 + p^j [[u, v], [w, t - u]] over
  u(t - u) - v w = delta mod p^(n-j) with the bracket not scalar mod p, and
  the lexicographic order of (a, b, c, d) is the order of (u, v, w).  The
  companion form [[0, 1], [-delta, t]] has u = 0, so the least u is 0.  Then
  v = 0 needs delta = 0 and leaves w free up to the non-scalar condition
  (w = 0 unless p | t, then w = 1); otherwise v = 1 and the linear
  congruence w = -delta fixes w.

The classes are numbered in the order of their representatives.  One table
of Borel fixed points, from each representative's p^n + p^(n-1) line
sections, is behind every principal-series character, the Steinberg
character and the semisimple point traces (which need only the unit group
(Z/p^n)^x).  The fixed surjections (Z/p^n)^2 ->> Z/p^n come from the
elementary divisors of g - a.

Ind(1 x chi)(c) = sum_t borel_counts[c][t] chi(t), so by orthogonality on
(Z/p^n)^x, sum_chi Ind(1 x chi)(c) chi(a)^-1 = phi(p^n) borel_counts[c][a].
Every such sum the lab takes, the point traces and the Drinfeld
decomposition, is therefore an integer read off a Borel row, and so are
the degrees and St(c) = sum_t borel_counts[c][t] - 1.  The class functions
below, with values in Q(zeta_phi(p^n)), are the reference those integers
are tested against.
"""

from __future__ import annotations

import functools
import itertools
import math

from .cyclotomic import CyclotomicValue
from .errors import BrokenIdentity, DomainError, check_cap
from .padic import (_vp_gcd, check_point_trace_input, check_prime_level,
                    group_order_gl2, vp_int)


def _totient_prime_power(p, n):
    return p**(n - 1) * (p - 1)


def _unit_generators(p, n):
    """Generators (with orders) of (Z/p^n)^x; product of orders is the group order.

    Not the search `RingTableLists.unit_generators` (3 and 5 at p = 2): the
    characters are indexed on this basis; another would reorder char-table."""
    mod = p**n
    phi = _totient_prime_power(p, n)
    if phi == 1:
        return []
    if p == 2:
        if n == 2:
            return [(3, 2)]
        return [(mod - 1, 2), (5, 2**(n - 2))]
    for g in range(2, mod):
        if g % p == 0:
            continue
        k, x = 1, g
        while x != 1:
            x = x * g % mod
            k += 1
        if k == phi:
            return [(g, phi)]
    raise BrokenIdentity(f"no primitive root found mod {mod}")


class UnitGroup:
    """(Z/p^n)^x with fixed generators, the discrete log of every unit
    against them, and its characters."""

    def __init__(self, p, n):
        self.mod = p**n
        self.char_order = phi = _totient_prime_power(p, n)
        check_cap(phi, "unit group (Z/p^n)^x")
        self.unit_gens = _unit_generators(p, n)
        self.unit_dlog = {}
        for exps in itertools.product(*(range(o) for _, o in self.unit_gens)):
            u = math.prod(pow(g, a, self.mod)
                          for (g, _), a in zip(self.unit_gens, exps))
            self.unit_dlog[u % self.mod] = exps
        if len(self.unit_dlog) != phi:
            raise BrokenIdentity(f"unit generators {self.unit_gens} span "
                                 f"{len(self.unit_dlog)} of {phi} units mod {self.mod}")

    def characters(self):
        """All characters of (Z/p^n)^x, in the order of their exponents."""
        return [UnitCharacter(self, exps) for exps in self.unit_dlog.values()]


@functools.cache
def unit_group(p: int, n: int) -> UnitGroup:
    """(Z/p^n)^x, built once per (p, n)."""
    check_prime_level(p, n)
    return UnitGroup(p, n)


class UnitCharacter:
    """Character of (Z/p^n)^x given by exponents against fixed generators."""

    def __init__(self, group: UnitGroup, exponents):
        self.group = group
        self.exponents = tuple(exponents)

    def exponent(self, u: int) -> int:
        """e with chi(u) = zeta_M^e, reduced mod M."""
        g = self.group
        M = g.char_order
        return sum(j * a * (M // order) for j, a, (_, order)
                   in zip(self.exponents, g.unit_dlog[u % g.mod], g.unit_gens)) % M

    def __call__(self, u: int) -> CyclotomicValue:
        return CyclotomicValue.zeta(self.group.char_order, self.exponent(u))

    def is_trivial(self):
        return all(j == 0 for j in self.exponents)

    def __repr__(self):
        return f"chi{self.exponents}"


class FiniteGL2:
    """The group GL2(Z/p^n): its conjugacy classes by normal form, their
    Borel rows, and the unit-group data of its characters."""

    _cache = {}

    def __new__(cls, p, n):
        key = (p, n)
        if key not in cls._cache:
            obj = super().__new__(cls)
            obj._build(p, n)
            cls._cache[key] = obj
        return cls._cache[key]

    def _build(self, p, n):
        check_prime_level(p, n)
        self.p, self.n, self.mod = p, n, p**n
        self.units = unit_group(p, n)
        self.unit_gens = self.units.unit_gens
        self.unit_dlog = self.units.unit_dlog
        self.char_order = self.units.char_order
        self.order = group_order_gl2(p, n)
        check_cap(_class_count(p, n) * (p**n + p**(n - 1)),
                  "GL2 class table (classes x Borel sections)")
        table = sorted((_least_rep(p, n, key), key) for key in _class_keys(p, n))
        self.class_reps = [rep for rep, _ in table]
        self._class_ids = {key: cid for cid, (_, key) in enumerate(table)}
        counts = _commutant_unit_counts(p)
        self.class_sizes = [self.order // _centralizer_order(p, n, key, counts)
                            for _, key in table]
        if sum(self.class_sizes) != self.order:
            raise BrokenIdentity(f"class sizes of GL2(Z/{self.mod}) sum to "
                                 f"{sum(self.class_sizes)}, not {self.order}")
        self._inverse_classes = [self.class_of(_inverse(self.mod, rep))
                                 for rep in self.class_reps]
        self.borel_counts = [_borel_row(p, n, rep) for rep in self.class_reps]
        self.identity_class = self.class_of((1, 0, 0, 1))

    @functools.cached_property
    def elements(self):
        """Every element, in lexicographic (a, b, c, d) order; listed when
        first read, under the cap on the p^(4n) matrix codes."""
        check_cap(self.mod**4, "GL2 matrix-code space")
        return [m for m in itertools.product(range(self.mod), repeat=4)
                if (m[0] * m[3] - m[1] * m[2]) % self.p]

    def class_of(self, x) -> int:
        return self._class_ids[_class_key(self.p, self.n, x)]

    def inverse_class(self, cid: int) -> int:
        return self._inverse_classes[cid]

    def characters(self):
        """All characters of (Z/p^n)^x, in the order of their exponents."""
        return self.units.characters()


def _class_count(p, n):
    """The number of class keys: phi(p^n) scalars and phi(p^n) p^n keys at
    j = 0, then phi(p^j) p^(2(n-j)) at each 0 < j < n, which sum to
    p^(2n-1) - p^n.  In closed form, so a cap on it costs nothing."""
    return _totient_prime_power(p, n) * (1 + p**n) + p**(2 * n - 1) - p**n


def _class_keys(p, n):
    """Every class key (p^j, a0, t, delta) in closed form; (p^n, a, 0, 0) is
    the scalar a."""
    mod = p**n
    yield from ((mod, a, 0, 0) for a in range(mod) if a % p)
    for j in range(n):
        pj, m = p**j, p**(n - j)
        for a0 in ([x for x in range(pj) if x % p] if j else [0]):
            for t, delta in itertools.product(range(m), repeat=2):
                if j or delta % p:
                    yield pj, a0, t, delta


def _class_key(p, n, x):
    """The key (p^j, a0, tr B, det B mod p^(n-j)) of x = a0 + p^j B."""
    mod = p**n
    a, b, c, d = (v % mod for v in x)
    if (a * d - b * c) % p == 0:
        raise DomainError(f"{tuple(x)} is not invertible mod {mod}")
    pj = math.gcd(b, c, (a - d) % mod, mod)
    a0 = a % pj
    if pj == mod:
        return mod, a0, 0, 0
    m = mod // pj
    u, v, w, s = (a - a0) // pj, b // pj, c // pj, (d - a0) // pj
    return pj, a0, (u + s) % m, (u * s - v * w) % m


def _least_rep(p, n, key):
    """The lexicographically least element of the class (module docstring)."""
    pj, a0, t, delta = key
    if pj == p**n:
        return a0, 0, 0, a0
    if delta:
        v, w = 1, -delta % (p**n // pj)
    else:
        v, w = 0, (0 if t % p else 1)
    return a0, pj * v, pj * w, a0 + pj * t


def _commutant_unit_counts(p):
    """|F_p[B]^x| for B of trace t and determinant delta mod p, keyed by
    (t, delta): the roots of x^2 - t x + delta in F_p decide the algebra."""
    units = {2: (p - 1)**2, 0: p * p - 1, 1: p * (p - 1)}
    return {(t, delta): units[sum((x * x - t * x + delta) % p == 0
                                  for x in range(p))]
            for t in range(p) for delta in range(p)}


def _centralizer_order(p, n, key, units):
    """|C(g)| for the class key of g (module docstring); `units` is
    `_commutant_unit_counts(p)`."""
    pj, _, t, delta = key
    m = p**n // pj
    if m == 1:
        return group_order_gl2(p, n)
    return pj**4 * m**2 // p**2 * units[t % p, delta % p]


def _inverse(mod, x):
    """Inverse of an invertible matrix (a, b, c, d) over Z/mod."""
    di = pow((x[0] * x[3] - x[1] * x[2]) % mod, -1, mod)
    return ((x[3] * di) % mod, (-x[1] * di) % mod,
            (-x[2] * di) % mod, (x[0] * di) % mod)


def _borel_row(p, n, g):
    """row[t]: the sections x of the projective line with x^-1 g x in the
    Borel B (upper triangular) and lower-right entry t.

    One section per line: (1, 0, y, 1) for y mod p^n and (s, 1, 1, 0) for s
    in p Z/p^n.  x^-1 g x lies in B exactly when g fixes the line x e1; its
    lower-left and lower-right entries are c + (d - a) y - b y^2 and d - b y
    for the first kind, b + (a - d) s - c s^2 and a - c s for the second.
    """
    mod = p**n
    a, b, c, d = g
    row = [0] * mod
    for y in range(mod):
        if (c + (d - a) * y - b * y * y) % mod == 0:
            row[(d - b * y) % mod] += 1
    for s in range(0, mod, p):
        if (b + (a - d) * s - c * s * s) % mod == 0:
            row[(a - c * s) % mod] += 1
    return row


class ClassFunction:
    """Exact cyclotomic-valued function constant on conjugacy classes."""

    def __init__(self, group: FiniteGL2, values):
        self.group = group
        M = group.char_order
        self.values = [v if isinstance(v, CyclotomicValue)
                       else CyclotomicValue.rational(M, v) for v in values]
        if len(self.values) != len(group.class_reps):
            raise DomainError("one value per conjugacy class required")

    def __call__(self, x) -> CyclotomicValue:
        return self.values[self.group.class_of(x)]

    def __sub__(self, other):
        return ClassFunction(self.group,
                             [a - b for a, b in zip(self.values, other.values)])

    def inner(self, other) -> CyclotomicValue:
        """<f, h> = |G|^-1 sum f(g) h(g^-1), exact."""
        G = self.group
        acc = CyclotomicValue.rational(G.char_order, 0)
        for cid, size in enumerate(G.class_sizes):
            acc = acc + self.values[cid] * other.values[G.inverse_class(cid)] * size
        return acc / G.order

    def degree(self):
        return self.values[self.group.identity_class]


def trivial_character(G: FiniteGL2) -> ClassFunction:
    return ClassFunction(G, [1] * len(G.class_reps))


def induced_character(G: FiniteGL2, chi: UnitCharacter) -> ClassFunction:
    """Character induced from the Borel subgroup, twisting by chi on the
    lower-right torus coordinate; degree p^n + p^(n-1).

    Ind(chi)(c) = sum_t borel_counts[c, t] chi(t): the sum of chi(t) over the
    lines c fixes.  Each class's counts, bucketed by the exponent e of
    chi(t) = zeta_M^e, are one element of Q(zeta_M), kept as its canonical
    reduced vector, so the value is the same however it is summed.
    """
    M = G.char_order
    check_cap(len(G.class_reps) * M, "induced character sums")
    exponents = [(t, chi.exponent(t)) for t in G.unit_dlog]
    values = []
    for row in G.borel_counts:
        sums = [0] * M
        for t, e in exponents:
            sums[e] += row[t]
        values.append(CyclotomicValue(M, sums))
    return ClassFunction(G, values)


def steinberg_character(p: int, n: int) -> ClassFunction:
    """Kernel of the augmentation from the projective-line permutation module."""
    G = FiniteGL2(p, n)
    triv = [c for c in G.characters() if c.is_trivial()][0]
    return induced_character(G, triv) - trivial_character(G)


def fixed_surjections(p: int, n: int, g, a: int = 1) -> int:
    """#{s : a^-1 (s g) = s} over the surjections s = (u, v) mod p^n.

    s is fixed iff s (g - a) = 0 mod p^n, and a fixed s is no surjection iff
    s = p s' with s' (g - a) = 0 mod p^(n-1): the count is |K_n| - |K_(n-1)|,
    K_k the left kernel of g - a mod p^k.  Over Z_(p), g - a = U diag(p^e1,
    p^e2) V with U, V invertible, e1 = v_p(gcd of the entries), e1 + e2 =
    v_p(det), so |K_k| = p^(min(e1, k) + min(e2, k)).  A zero determinant
    has e2 = oo, read as n; the zero matrix fixes all p^(2n) - p^(2n-2).
    """
    check_prime_level(p, n)
    m = (g[0] - a, g[1], g[2], g[3] - a)
    e1 = _vp_gcd(m, p)
    if e1 is None:
        return p**(2 * n) - p**(2 * n - 2)
    det = m[0] * m[3] - m[1] * m[2]
    e2 = n if det == 0 else vp_int(det, p).value - e1
    return (p**(min(e1, n) + min(e2, n))
            - p**(min(e1, n - 1) + min(e2, n - 1)))


def drinfeld_module_character(p: int, n: int) -> ClassFunction:
    """Permutation character of GL2(Z/p^n) on surjections (Z/p^n)^2 ->> Z/p^n."""
    G = FiniteGL2(p, n)
    return ClassFunction(G, [fixed_surjections(p, n, c) for c in G.class_reps])


def ss_trace_closed(p: int, r: int, n: int) -> int:
    """The supersingular point trace against e_Gamma(p^n) in closed form:
    1 - p^r (p^n + p^(n-1) - 1), as dim 1 = 1 and dim St = p^n + p^(n-1) - 1."""
    return 1 - p**r * (p**n + p**(n - 1) - 1)


def ss_trace_point(kind: str, p: int, r: int, n: int, a: int = None) -> int:
    """Semisimple point trace against the idempotent e_Gamma(p^n), an integer.

    e_Gamma(p^n) is normalized so that tr(e | pi) = dim pi for every level-n
    representation pi, matching a point mass of Haar mass 1 at the identity
    coset.  So only the identity's Borel row is read, from its sections,
    with the unit group and no class table:

    ordinary:      sum_chi deg Ind(1 x chi) chi(a)^-1 = phi(p^n) row[a]
    supersingular: 1 - p^r deg St = 1 - p^r (deg Ind(1) - 1)

    The ordinary sum is sum_t row[t] sum_chi chi(t a^-1), and by orthogonality
    on (Z/p^n)^x only t = a survives, phi(p^n) times.
    """
    check_point_trace_input(p, r, kind, a)
    units = unit_group(p, n)
    check_cap(p**n + p**(n - 1), "Borel sections")
    row = _borel_row(p, n, (1, 0, 0, 1))
    if kind == "supersingular":
        return 1 - p**r * (sum(row) - 1)
    return units.char_order * row[a % units.mod]
