"""Exact character theory of GL2(Z/p^n) on the `gl2group` code arrays (r = 1).

Conjugacy classes from the shared orbit routine; one table of Borel fixed
points, from the arrays' matrix products, behind every principal-series
character; the Steinberg character, the permutation module on surjections
(Z/p^n)^2 ->> Z/p^n with its commuting unit action, and the semisimple point
traces built from them.  Values are exact elements of Q(zeta_phi(p^n)).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .cyclotomic import CyclotomicValue
from .errors import DomainError
from .gl2group import _group_and_labels
from .padic import (check_point_trace_input, check_prime_level,
                    group_order_gl2)


def _totient_prime_power(p, n):
    return p**(n - 1) * (p - 1)


def _unit_generators(p, n):
    """Generators (with orders) of (Z/p^n)^x; product of orders is the group order."""
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
    raise AssertionError("no primitive root found")


class UnitCharacter:
    """Character of (Z/p^n)^x given by exponents against fixed generators."""

    def __init__(self, group: "FiniteGL2", exponents):
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
    """The group GL2(Z/p^n) with its conjugacy classes and unit-group data."""

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
        # over Z/p^n a ring code is the residue itself and sigma is trivial
        _, G, _, labels = _group_and_labels(p, 1, n)
        if G.order != group_order_gl2(p, n):
            raise AssertionError(f"GL2(Z/{self.mod}) has {G.order} elements, "
                                 f"expected {group_order_gl2(p, n)}")
        # Elements in lexicographic (a, b, c, d) order.  The orbit routine
        # numbers classes by their least code, which weighs d most; since
        # conjugation by [[0, 1], [1, 0]] reverses (a, b, c, d), that is
        # also the order of each class's first element here.
        lex = np.lexsort(G.comps[::-1])
        self.elements = list(zip(*(x[lex].tolist() for x in G.comps)))
        first = np.unique(labels[lex], return_index=True)[1]
        if np.any(np.diff(first) <= 0):
            raise AssertionError(f"classes of GL2(Z/{self.mod}) are not "
                                 "numbered by first element")
        self._group, self._labels = G, labels
        self.class_reps = [self.elements[i] for i in first]
        self.class_sizes = np.bincount(labels).tolist()
        reps = tuple(np.array(x, dtype=np.int64) for x in zip(*self.class_reps))
        self._inverse_classes = labels[G.idx(G.minv(reps))].tolist()
        self.borel_counts = _borel_counts(G, reps)
        self.order = len(self.elements)
        self.identity_class = self.class_of((1, 0, 0, 1))

        # unit group bookkeeping for characters
        self.unit_gens = _unit_generators(p, n)
        self.char_order = phi = _totient_prime_power(p, n)
        self.unit_dlog = {}
        for exps in itertools.product(*(range(o) for _, o in self.unit_gens)):
            u = math.prod(pow(g, a, self.mod)
                          for (g, _), a in zip(self.unit_gens, exps))
            self.unit_dlog[u % self.mod] = exps
        if len(self.unit_dlog) != phi:
            raise AssertionError(f"unit generators {self.unit_gens} span "
                                 f"{len(self.unit_dlog)} of {phi} units mod {self.mod}")

    def class_of(self, x) -> int:
        i = self._group.idx(tuple(v % self.mod for v in x))
        if i < 0:
            raise DomainError(f"{tuple(x)} is not invertible mod {self.mod}")
        return int(self._labels[i])

    def inverse_class(self, cid: int) -> int:
        return self._inverse_classes[cid]

    def characters(self):
        """All characters of (Z/p^n)^x, in the order of their exponents."""
        return [UnitCharacter(self, exps) for exps in self.unit_dlog.values()]


def _borel_counts(G, reps):
    """counts[c, t]: the sections x of the projective line with x^-1 c x in
    the Borel B (upper triangular) and lower-right entry t, c over reps.

    One section per line: (1, 0, y, 1) for y mod p^n and (p y, 1, 1, 0) for
    y mod p^(n-1).  x^-1 c x lies in B exactly when c fixes the line x e1.
    """
    mod, p = G.t.Q, G.t.p
    y, w = np.arange(mod), np.arange(mod // p)
    one, zero = np.ones_like, np.zeros_like
    x = tuple(np.concatenate(halves)[None, :] for halves in
              ((one(y), p * w), (zero(y), one(w)), (y, one(w)), (one(y), zero(w))))
    z = G.matmul(G.minv(x), G.matmul(tuple(c[:, None] for c in reps), x))
    cls, sec = np.nonzero(z[2] == 0)
    counts = np.zeros((len(reps[0]), mod), dtype=np.int64)
    np.add.at(counts, (cls, z[3][cls, sec]), 1)
    return counts


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

    def __add__(self, other):
        return ClassFunction(self.group,
                             [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        return ClassFunction(self.group,
                             [a - b for a, b in zip(self.values, other.values)])

    def __eq__(self, other):
        return (isinstance(other, ClassFunction) and self.group is other.group
                and self.values == other.values)

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
    sums = np.zeros((len(G.class_reps), M), dtype=np.int64)
    for t in G.unit_dlog:
        sums[:, chi.exponent(t)] += G.borel_counts[:, t]
    return ClassFunction(G, [CyclotomicValue(M, row) for row in sums.tolist()])


def steinberg_character(p: int, n: int) -> ClassFunction:
    """Kernel of the augmentation from the projective-line permutation module."""
    G = FiniteGL2(p, n)
    triv = [c for c in G.characters() if c.is_trivial()][0]
    return induced_character(G, triv) - trivial_character(G)


def surjections(p: int, n: int):
    """Row vectors (u, v) mod p^n that generate Z/p^n."""
    mod = p**n
    return [(u, v) for u in range(mod) for v in range(mod)
            if u % p != 0 or v % p != 0]


def fixed_surjections(p: int, n: int, g, a: int = 1) -> int:
    """#{s : a^-1 (s g) = s}, the combined unit/matrix fixed-point count."""
    mod = p**n
    count = 0
    for (u, v) in surjections(p, n):
        su = (u * g[0] + v * g[2]) % mod
        sv = (u * g[1] + v * g[3]) % mod
        if su == (a * u) % mod and sv == (a * v) % mod:
            count += 1
    return count


def drinfeld_module_character(p: int, n: int) -> ClassFunction:
    """Permutation character of GL2(Z/p^n) on surjections (Z/p^n)^2 ->> Z/p^n."""
    G = FiniteGL2(p, n)
    return ClassFunction(G, [fixed_surjections(p, n, c) for c in G.class_reps])


def ss_trace_closed(p: int, r: int, n: int) -> int:
    """The supersingular point trace against e_Gamma(p^n) in closed form:
    1 - p^r (p^n + p^(n-1) - 1), as dim 1 = 1 and dim St = p^n + p^(n-1) - 1."""
    return 1 - p**r * (p**n + p**(n - 1) - 1)


def ss_trace_point(kind: str, p: int, r: int, n: int,
                   a: int = None) -> CyclotomicValue:
    """Semisimple point trace against the idempotent e_Gamma(p^n).

    e_Gamma(p^n) is normalized so that tr(e | pi) = dim pi for every level-n
    representation pi, matching a point mass of Haar mass 1 at the identity
    coset.  So only the identity row of the Borel counts is read:

    ordinary:      sum_chi deg Ind(1 x chi) chi(a)^-1
    supersingular: 1 - p^r deg St = 1 - p^r (deg Ind(1) - 1)
    """
    check_point_trace_input(p, r, kind, a)
    G = FiniteGL2(p, n)
    M, row = G.char_order, G.borel_counts[G.identity_class]
    if kind == "supersingular":
        return CyclotomicValue.rational(M, 1 - p**r * (int(row.sum()) - 1))
    a_inv = pow(a, -1, G.mod)
    buckets = [0] * M
    for chi in G.characters():
        shift = chi.exponent(a_inv)
        for t in G.unit_dlog:
            buckets[(chi.exponent(t) + shift) % M] += int(row[t])
    return CyclotomicValue(M, buckets)
