"""Exact character theory of GL2(Z/p^n).

Conjugacy classes from the shared orbit routine over the ring tables
(`gl2group`), principal-series characters induced from the Borel, the
Steinberg character, the permutation module on surjections
(Z/p^n)^2 ->> Z/p^n with its commuting unit action, and the semisimple
point traces built from them.  Values are exact cyclotomic numbers of
order dividing phi(p^n).
"""

from __future__ import annotations

import itertools

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

    def __call__(self, u: int) -> CyclotomicValue:
        g = self.group
        dlog = g.unit_dlog[u % g.mod]
        M = g.char_order
        e = 0
        for j, a, (_, order) in zip(self.exponents, dlog, g.unit_gens):
            e += j * a * (M // order)
        return CyclotomicValue.zeta(M, e)

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
        self.class_of_el = labels[lex].tolist()
        self.class_reps = [self.elements[i] for i in first]
        self.class_sizes = np.bincount(labels).tolist()

        # unit group bookkeeping for characters
        mod = self.mod
        self.unit_gens = _unit_generators(p, n)
        phi = _totient_prime_power(p, n)
        self.char_order = phi if phi > 0 else 1
        self.unit_dlog = {1: tuple(0 for _ in self.unit_gens)}
        for gi, (g, order) in enumerate(self.unit_gens):
            table = dict(self.unit_dlog)
            for u, dl in list(table.items()):
                x = u
                for a in range(1, order):
                    x = x * g % mod
                    dl2 = list(dl)
                    dl2[gi] = a
                    table[x] = tuple(dl2)
            self.unit_dlog = table
        if len(self.unit_dlog) != phi:
            raise AssertionError(f"unit generators {self.unit_gens} span "
                                 f"{len(self.unit_dlog)} of {phi} units mod {mod}")

    # -- matrix helpers ---------------------------------------------------------

    def mul(self, x, y):
        m = self.mod
        return ((x[0] * y[0] + x[1] * y[2]) % m, (x[0] * y[1] + x[1] * y[3]) % m,
                (x[2] * y[0] + x[3] * y[2]) % m, (x[2] * y[1] + x[3] * y[3]) % m)

    def inv(self, x):
        m = self.mod
        det = (x[0] * x[3] - x[1] * x[2]) % m
        di = pow(det, -1, m)
        return ((x[3] * di) % m, (-x[1] * di) % m, (-x[2] * di) % m, (x[0] * di) % m)

    def class_of(self, x) -> int:
        m = self.mod
        a, b, c, d = (v % m for v in x)
        i = self._group.idx_of_code[a + m * (b + m * (c + m * d))]
        if i < 0:
            raise DomainError(f"{tuple(x)} is not invertible mod {m}")
        return int(self._labels[i])

    @property
    def order(self):
        return len(self.elements)

    @property
    def identity_class(self):
        return self.class_of((1, 0, 0, 1))

    def inverse_class(self, cid: int) -> int:
        return self.class_of(self.inv(self.class_reps[cid]))

    def characters(self):
        """All characters of (Z/p^n)^x."""
        ranges = [range(order) for _, order in self.unit_gens]
        if not ranges:
            return [UnitCharacter(self, ())]
        return [UnitCharacter(self, exps) for exps in itertools.product(*ranges)]

    def borel_coset_reps(self):
        """Sections of the projective line over Z/p^n: p^n + p^(n-1) cosets."""
        mod, p = self.mod, self.p
        reps = [(1, 0, c, 1) for c in range(mod)]
        reps += [(c * p, 1, 1, 0) for c in range(mod // p)]
        return reps


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

    def __mul__(self, scalar):
        return ClassFunction(self.group, [v * scalar for v in self.values])

    __rmul__ = __mul__

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


def e_gamma(G: FiniteGL2) -> ClassFunction:
    """Finite-level idempotent of the principal congruence subgroup.

    Normalized so tr(e | pi) = dim pi for every level-n representation,
    matching a point mass of total Haar mass 1 at the identity coset.
    """
    vals = [0] * len(G.class_reps)
    vals[G.identity_class] = G.order
    return ClassFunction(G, vals)


def induced_character(G: FiniteGL2, chi: UnitCharacter) -> ClassFunction:
    """Character induced from the Borel subgroup, twisting by chi on the
    lower-right torus coordinate; degree p^n + p^(n-1)."""
    reps = G.borel_coset_reps()
    mod = G.mod
    M = G.char_order
    values = []
    for c in G.class_reps:
        acc = CyclotomicValue.rational(M, 0)
        for x in reps:
            z = G.mul(G.inv(x), G.mul(c, x))
            if z[2] % mod == 0:
                acc = acc + chi(z[3])
        values.append(acc)
    return ClassFunction(G, values)


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


def tr_rep(h: ClassFunction, char: ClassFunction) -> CyclotomicValue:
    """tr(h | pi) = |G|^-1 sum h(g) chi_pi(g); e_gamma gives dim pi."""
    G = h.group
    acc = CyclotomicValue.rational(G.char_order, 0)
    for cid, size in enumerate(G.class_sizes):
        acc = acc + h.values[cid] * char.values[cid] * size
    return acc / G.order


def ss_trace_point(kind: str, h: ClassFunction, p: int, r: int, n: int,
                   a: int = None) -> CyclotomicValue:
    """Semisimple point trace against the class function h.

    ordinary:      sum_chi tr(h | Ind(1 x chi)) chi(a)^-1
    supersingular: tr(h | 1) - p^r tr(h | St)
    """
    check_point_trace_input(p, r, kind, a)
    G = FiniteGL2(p, n)
    if kind == "supersingular":
        one = tr_rep(h, trivial_character(G))
        st = tr_rep(h, steinberg_character(p, n))
        return one - st * p**r
    a_inv = pow(a, -1, G.mod)
    acc = CyclotomicValue.rational(G.char_order, 0)
    for chi in G.characters():
        acc = acc + tr_rep(h, induced_character(G, chi)) * chi(a_inv)
    return acc
