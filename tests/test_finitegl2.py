"""Character theory of GL2(Z/p^n)."""

import itertools
import json
import os
import subprocess
import sys
from collections import deque

import numpy as np
import pytest

from gl2lab.cyclotomic import CyclotomicValue
from gl2lab.errors import DomainError, ResourceLimit
from gl2lab.finitegl2 import (FiniteGL2, _class_count, _class_keys,
                              _unit_generators, drinfeld_module_character,
                              fixed_surjections, induced_character,
                              ss_trace_point, steinberg_character,
                              trivial_character)
from gl2lab.padic import group_order_gl2
from gl2group import MatGroup, RingTables, _group_and_labels
from group_oracles import mul_left, mul_right, single


def _mul(mod, x, y):
    """Product of two matrices (a, b, c, d) over Z/mod."""
    return ((x[0] * y[0] + x[1] * y[2]) % mod, (x[0] * y[1] + x[1] * y[3]) % mod,
            (x[2] * y[0] + x[3] * y[2]) % mod, (x[2] * y[1] + x[3] * y[3]) % mod)


def _inv(mod, x):
    """Inverse of an invertible matrix (a, b, c, d) over Z/mod."""
    di = pow((x[0] * x[3] - x[1] * x[2]) % mod, -1, mod)
    return ((x[3] * di) % mod, (-x[1] * di) % mod,
            (-x[2] * di) % mod, (x[0] * di) % mod)


@pytest.mark.parametrize("p,n,order", [(2, 1, 6), (3, 1, 48), (2, 2, 96),
                                       (3, 2, 3888), (2, 3, 1536)])
def test_group_orders_and_class_partition(p, n, order):
    G = FiniteGL2(p, n)
    assert G.order == order == p**(4 * (n - 1)) * (p * p - 1) * (p * p - p)
    assert sum(G.class_sizes) == order
    # class map is constant on conjugacy orbits (spot check)
    g, m = G.elements[1], G.mod
    for h in G.elements[:40]:
        assert G.class_of(_mul(m, _inv(m, h), _mul(m, g, h))) == G.class_of(g)


def test_s3_structure():
    G = FiniteGL2(2, 1)
    assert len(G.class_reps) == 3
    assert sorted(G.class_sizes) == [1, 2, 3]


def _trivial_chi(G):
    return [c for c in G.characters() if c.is_trivial()][0]


def test_induced_degree_is_borel_index():
    for (p, n, deg) in ((2, 1, 3), (2, 2, 6), (3, 2, 12), (3, 1, 4)):
        G = FiniteGL2(p, n)
        ind = induced_character(G, _trivial_chi(G))
        assert ind.degree().as_rational() == deg == p**n + p**(n - 1)


def test_induced_value_is_fixed_point_count():
    # p = 3, n = 1; value at diag(1, 2) = #P^1(F_3)-fixed points = 2
    G = FiniteGL2(3, 1)
    ind = induced_character(G, _trivial_chi(G))
    assert ind((1, 0, 0, 2)).as_rational() == 2
    # and at the identity, all p + 1 points
    assert ind((1, 0, 0, 1)).as_rational() == 4


def test_steinberg():
    st = steinberg_character(2, 1)
    G = FiniteGL2(2, 1)
    assert st.degree().as_rational() == 2
    vals = sorted(v.as_rational() for v in st.values)
    assert vals == [-1, 0, 2]         # the 2-dimensional character of S_3
    assert st.inner(st).as_rational() == 1
    st3 = steinberg_character(3, 1)
    assert st3.inner(st3).as_rational() == 1
    assert steinberg_character(2, 2).degree().as_rational() == 5


def test_character_orthogonality_facts():
    G = FiniteGL2(3, 1)
    triv = trivial_character(G)
    st = steinberg_character(3, 1)
    assert triv.inner(st).is_zero()
    chis = G.characters()
    nontriv = [c for c in chis if not c.is_trivial()][0]
    ind_nt = induced_character(G, nontriv)
    ind_t = induced_character(G, _trivial_chi(G))
    assert ind_nt.inner(ind_nt).as_rational() == 1   # irreducible
    assert ind_t.inner(ind_t).as_rational() == 2     # trivial + Steinberg
    assert triv.inner(ind_nt).is_zero()


def _cyclotomic_sum(G):
    """sum_chi Ind(1 x chi) over the characters chi of (Z/p^n)^x, class by
    class, as a list of values."""
    inds = [induced_character(G, chi) for chi in G.characters()]
    zero = CyclotomicValue.rational(G.char_order, 0)
    return [sum((ind.values[cid] for ind in inds), zero)
            for cid in range(len(G.class_reps))]


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_drinfeld_decomposition(p, n):
    # (2, 3) exercises the non-cyclic unit group, indexed by <-1, 5>
    G = FiniteGL2(p, n)
    dr = drinfeld_module_character(p, n)
    assert dr.degree().as_rational() == p**(2 * n) - p**(2 * n - 2)
    acc = _cyclotomic_sum(G)
    assert acc == dr.values


def _surjections(p, n):
    """Row vectors (u, v) mod p^n that generate Z/p^n."""
    mod = p**n
    return [(u, v) for u in range(mod) for v in range(mod)
            if u % p != 0 or v % p != 0]


def _fixed_surjections_by_loop(p, n, g, a=1):
    """#{s : a^-1 (s g) = s}, by a loop over the p^(2n) row vectors."""
    mod = p**n
    count = 0
    for (u, v) in _surjections(p, n):
        su = (u * g[0] + v * g[2]) % mod
        sv = (u * g[1] + v * g[3]) % mod
        if su == (a * u) % mod and sv == (a * v) % mod:
            count += 1
    return count


def test_surjection_counts():
    assert len(_surjections(2, 1)) == 3
    assert len(_surjections(2, 2)) == 12
    G = FiniteGL2(2, 1)
    dr = drinfeld_module_character(2, 1)
    # single character
    assert dr.values == induced_character(G, _trivial_chi(G)).values


ORACLE_CASES = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 3), (2, 4)]


@pytest.mark.parametrize("p,n", ORACLE_CASES)
def test_fixed_surjections_match_the_loop(p, n):
    G = FiniteGL2(p, n)
    for rep in G.class_reps:
        for a in G.unit_dlog:
            assert (fixed_surjections(p, n, rep, a=a)
                    == _fixed_surjections_by_loop(p, n, rep, a=a)), (rep, a)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1)])
def test_fixed_surjections_read_the_integer_matrix(p, n):
    # unreduced and negative entries, a zero matrix g - a, and g - a with a
    # zero determinant or with elementary divisors past p^n
    mod = p**n
    for g, a in (((1 + mod, 0, 0, 1 - mod), 1), ((1, 0, 0, 1), 1 + mod),
                 ((-1, p, 0, -1), -1), ((1, mod * p, 0, 1), 1),
                 ((1, 1, 0, 1), 1 - mod), ((2 + mod, -mod, mod, 2), 2)):
        reduced = tuple(x % mod for x in g)
        assert (fixed_surjections(p, n, g, a=a)
                == _fixed_surjections_by_loop(p, n, reduced, a=a % mod)), (g, a)


def test_fixed_surjections_need_a_prime_and_a_positive_level():
    # the elementary divisors are read over Z_(p): p prime, and n >= 1 for
    # the kernel mod p^(n-1)
    for p, n in ((2, 0), (4, 1), (6, 2), (1, 1)):
        with pytest.raises(DomainError):
            fixed_surjections(p, n, (1, 0, 0, 1))


@pytest.mark.parametrize("p,n", ORACLE_CASES)
def test_drinfeld_identity_on_integers_matches_the_cyclotomic_sum(p, n):
    # sum_chi Ind(1 x chi)(c) = phi(p^n) borel_counts[c][1] by orthogonality
    G = FiniteGL2(p, n)
    acc = _cyclotomic_sum(G)
    for cid, rep in enumerate(G.class_reps):
        induced = G.char_order * G.borel_counts[cid][1]
        assert acc[cid] == CyclotomicValue.rational(G.char_order, induced)
        assert fixed_surjections(p, n, rep) == induced, rep


@pytest.mark.parametrize("p,n", ORACLE_CASES)
def test_char_table_values_match_the_class_functions(capsys, p, n):
    # the table prints integers read off the Borel rows; the cyclotomic class
    # functions are the reference, each value rational and printed as is
    from gl2lab.cli import main

    assert main(["char-table", "--p", str(p), "--n", str(n)]) == 0
    table = json.loads(capsys.readouterr().out)
    G = FiniteGL2(p, n)
    assert [c["rep"] for c in table["classes"]] == [list(c) for c in G.class_reps]
    for row, value in zip(table["classes"], steinberg_character(p, n).values):
        assert row["steinberg"] == repr(value), row
        assert int(row["steinberg"]) == value.as_rational()
    assert ([c["chi"] for c in table["characters"]]
            == [repr(chi) for chi in G.characters()])
    for row, chi in zip(table["characters"], G.characters()):
        degree = induced_character(G, chi).degree()
        assert row["degree"] == repr(degree), chi
        assert int(row["degree"]) == degree.as_rational()


def test_fixed_surjections_unit_action():
    # total fixed count is p^2n - p^(2n-2) iff a = 1 mod p^n, else 0
    for (p, n) in ((2, 1), (2, 2), (3, 1), (3, 2)):
        ident = (1, 0, 0, 1)
        for a in range(1, p**n):
            if a % p == 0:
                continue
            expect = p**(2 * n) - p**(2 * n - 2) if a == 1 else 0
            assert fixed_surjections(p, n, ident, a=a) == expect


def _int_trace(kind, p, r, n, a=None):
    value = ss_trace_point(kind, p, r, n, a=a)
    assert type(value) is int
    return value


def test_ss_trace_point_values():
    assert _int_trace("supersingular", 2, 1, 1) == -3
    assert _int_trace("ordinary", 2, 1, 1, a=1) == 3
    assert _int_trace("ordinary", 3, 1, 1, a=2) == 0
    # general r enters only through p^r in the supersingular branch
    assert _int_trace("supersingular", 2, 2, 1) == 1 - 4 * 2


def _trace_against_e_gamma(G, char):
    """tr(e | pi) = |G|^-1 sum over all classes of e(g) chi_pi(g) |class|, for
    the class function e that is |G| on the identity class and 0 elsewhere."""
    e = [0] * len(G.class_reps)
    e[G.identity_class] = G.order
    acc = CyclotomicValue.rational(G.char_order, 0)
    for cid, size in enumerate(G.class_sizes):
        acc = acc + char.values[cid] * (e[cid] * size)
    return acc / G.order


def test_e_gamma_traces_are_dimensions():
    for (p, n) in ((2, 1), (3, 1), (2, 2)):
        G = FiniteGL2(p, n)
        assert _trace_against_e_gamma(G, trivial_character(G)).as_rational() == 1
        ind = induced_character(G, _trivial_chi(G))
        assert _trace_against_e_gamma(G, ind).as_rational() == p**n + p**(n - 1)


def test_dual_path_on_class_reps():
    # character of the surjection module evaluated via both paths, all reps
    for (p, n) in ((2, 2), (3, 1)):
        G = FiniteGL2(p, n)
        dr = drinfeld_module_character(p, n)
        for cid, rep in enumerate(G.class_reps):
            direct = _fixed_surjections_by_loop(p, n, rep)
            assert dr.values[cid].as_rational() == direct


# ---------------------------------------------------------------------------
# the Borel count table against conjugation coset by coset


def _fixed_line_entries(G, c):
    """The lower-right entry of x^-1 c x for every section x of the projective
    line (p^n + p^(n-1) Borel cosets) that makes it upper triangular."""
    m, p = G.mod, G.p
    for x in ([(1, 0, y, 1) for y in range(m)]
              + [(y * p, 1, 1, 0) for y in range(m // p)]):
        z = _mul(m, _inv(m, x), _mul(m, c, x))
        if z[2] == 0:
            yield z[3]


BOREL_CASES = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 1), (7, 1)]


@pytest.mark.parametrize("p,n", BOREL_CASES)
def test_borel_counts_match_conjugation(p, n):
    G = FiniteGL2(p, n)
    expect = [[0] * G.mod for _ in G.class_reps]
    for cid, c in enumerate(G.class_reps):
        for t in _fixed_line_entries(G, c):
            expect[cid][t] += 1
    assert G.borel_counts == expect
    assert (sum(G.borel_counts[G.identity_class])
            == p**n + p**(n - 1))


@pytest.mark.parametrize("p,n", BOREL_CASES)
def test_induced_character_matches_conjugation(p, n):
    G = FiniteGL2(p, n)
    zero = CyclotomicValue.rational(G.char_order, 0)
    for chi in G.characters():
        expect = [sum((chi(t) for t in _fixed_line_entries(G, c)), zero)
                  for c in G.class_reps]
        # the canonical vectors, hence every printed value, agree
        assert ([v.coeffs for v in induced_character(G, chi).values]
                == [v.coeffs for v in expect]), chi


@pytest.mark.parametrize("p,n", BOREL_CASES)
def test_ss_trace_point_matches_the_class_function_sums(p, n):
    # the cyclotomic sums are the reference: each must be rational, and then
    # equal the integer read off the identity's Borel row
    G = FiniteGL2(p, n)
    trivial, st = trivial_character(G), steinberg_character(p, n)
    for r in (1, 2):
        expect = (_trace_against_e_gamma(G, trivial)
                  - _trace_against_e_gamma(G, st) * p**r)
        assert expect.as_rational() == _int_trace("supersingular", p, r, n)
    degrees = [(chi, _trace_against_e_gamma(G, induced_character(G, chi)))
               for chi in G.characters()]
    zero = CyclotomicValue.rational(G.char_order, 0)
    for a in G.unit_dlog:
        a_inv = pow(a, -1, G.mod)
        expect = sum((deg * chi(a_inv) for chi, deg in degrees), zero)
        assert expect.as_rational() == _int_trace("ordinary", p, 1, n, a=a), a


@pytest.mark.parametrize("p,n", BOREL_CASES)
def test_inverse_class_is_the_class_of_the_inverse(p, n):
    G = FiniteGL2(p, n)
    for cid, rep in enumerate(G.class_reps):
        assert G.inverse_class(cid) == G.class_of(_inv(G.mod, rep))


def _unit_dlog_by_copies(gens, mod):
    """Discrete logs by copying the table once per generator power."""
    dlog = {1: tuple(0 for _ in gens)}
    for gi, (g, order) in enumerate(gens):
        table = dict(dlog)
        for u, dl in list(table.items()):
            x = u
            for a in range(1, order):
                x = x * g % mod
                table[x] = dl[:gi] + (a,) + dl[gi + 1:]
        dlog = table
    return dlog


@pytest.mark.parametrize("p,n", BOREL_CASES + [(2, 4), (13, 1)])
def test_unit_dlog_matches_the_copy_construction(p, n):
    G = FiniteGL2(p, n)
    assert G.unit_dlog == _unit_dlog_by_copies(G.unit_gens, G.mod)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 2), (7, 1)])
def test_character_exponent_is_reduced_and_multiplicative(p, n):
    G = FiniteGL2(p, n)
    M, units = G.char_order, list(G.unit_dlog)
    for chi in G.characters():
        for u in units:
            e = chi.exponent(u)
            assert 0 <= e < M and chi(u) == CyclotomicValue.zeta(M, e)
            for v in units[:5]:
                assert chi.exponent(u * v) == (e + chi.exponent(v)) % M


# ---------------------------------------------------------------------------
# the normal-form class table against the materialized group's orbits


def _borel_counts_by_matmul(G, reps):
    """counts[c, t] over the classes' reps, from products of code arrays:
    the sections (1, 0, y, 1) and (p y, 1, 1, 0) whose conjugate x^-1 c x is
    upper triangular, bucketed by its lower-right entry t."""
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


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (3, 2), (2, 3), (2, 4)])
def test_normal_form_table_matches_the_orbit_labels(p, n):
    G = FiniteGL2(p, n)
    _, M, count, labels = _group_and_labels(p, 1, n)
    # each orbit's lexicographically least element, in label order
    lex = np.lexsort(M.comps[::-1])
    first = lex[np.unique(labels[lex], return_index=True)[1]]
    reps = [tuple(int(x[i]) for x in M.comps) for i in first]
    assert G.class_reps == reps and len(reps) == count
    assert G.class_sizes == np.bincount(labels).tolist()
    elements = zip(*(x.tolist() for x in M.comps))
    assert [G.class_of(x) for x in elements] == labels.tolist()
    codes = tuple(x[first] for x in M.comps)
    assert ([G.inverse_class(c) for c in range(count)]
            == labels[M.idx(M.minv(codes))].tolist())
    assert G.borel_counts == _borel_counts_by_matmul(M, codes).tolist()


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3),
                                 (5, 2), (3, 3), (2, 5), (7, 2)])
def test_class_count_closed_form_counts_the_keys(p, n):
    assert _class_count(p, n) == len(list(_class_keys(p, n)))


def test_class_count_costs_nothing_at_a_huge_level():
    # the cap on bc-unit norms reads it before any table, at any level
    assert _class_count(5, 100_000) > 5**199_999


@pytest.mark.parametrize("p,n", [(5, 2), (3, 3), (2, 5), (7, 2)])
def test_class_table_past_the_code_space_cap(monkeypatch, p, n):
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    G = FiniteGL2(p, n)
    assert p**(4 * n) > 200_000
    assert sum(G.class_sizes) == G.order == group_order_gl2(p, n)
    assert sum(G.borel_counts[G.identity_class]) == p**n + p**(n - 1)
    assert "elements" not in vars(G)     # nothing listed the group
    with pytest.raises(ResourceLimit):
        G.elements


# ---------------------------------------------------------------------------
# the table backbone against the tuple depth-first search it replaced


def _classes_by_tuple_search(p, n):
    """Conjugacy classes of GL2(Z/p^n) by depth-first search over tuples."""
    mod = p**n
    elements = [m for m in itertools.product(range(mod), repeat=4)
                if (m[0] * m[3] - m[1] * m[2]) % p != 0]
    index = {m: i for i, m in enumerate(elements)}
    gens = [(1, 1, 0, 1), (1, 0, 1, 1)]
    gens += [(u, 0, 0, 1) for u, _ in _unit_generators(p, n)]
    gens += [_inv(mod, g) for g in gens]
    class_of = [-1] * len(elements)
    reps, sizes = [], []
    for i, m in enumerate(elements):
        if class_of[i] != -1:
            continue
        cid = len(reps)
        reps.append(m)
        stack, class_of[i], size = [m], cid, 1
        while stack:
            x = stack.pop()
            for g in gens:
                j = index[_mul(mod, _inv(mod, g), _mul(mod, x, g))]
                if class_of[j] == -1:
                    class_of[j] = cid
                    size += 1
                    stack.append(elements[j])
        sizes.append(size)
    return elements, class_of, reps, sizes


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_backbone_matches_tuple_search(p, n):
    G = FiniteGL2(p, n)
    elements, class_of, reps, sizes = _classes_by_tuple_search(p, n)
    assert G.elements == elements
    labels = [G.class_of(x) for x in elements]
    assert labels == class_of
    assert G.class_reps == reps
    assert G.class_sizes == sizes
    # plain ints, as they are written to JSON
    assert type(G.elements[0][0]) is int and type(G.class_reps[-1][3]) is int
    assert all(type(x) is int for x in G.class_sizes + labels[:10])


def test_class_of_rejects_singular_matrices():
    with pytest.raises(DomainError):
        FiniteGL2(2, 2).class_of((2, 0, 0, 1))


def _orbits_by_bfs(perms, size):
    """Orbit labels numbered by least element, by breadth-first search."""
    lists = [p.tolist() for p in perms]
    label = [-1] * size
    count = 0
    for start in range(size):
        if label[start] != -1:
            continue
        label[start] = count
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for perm in lists:
                j = perm[i]
                if label[j] == -1:
                    label[j] = count
                    queue.append(j)
        count += 1
    return count, label


@pytest.mark.parametrize("p,r,n", [(2, 2, 1), (3, 2, 1), (2, 3, 1)])
def test_orbit_labels_match_bfs(p, r, n):
    G = MatGroup(RingTables(p, r, n))
    perms = [G.sigma_conj_perm(g) for g in G.generators()]
    count, labels = G.orbit_labels(perms)
    # each orbit of a finite permutation group is closed under the
    # forward images alone, so a forward search finds the same orbits
    assert (count, labels.tolist()) == _orbits_by_bfs(perms, G.order)


def _bcast(G, g):
    """One matrix g repeated over the whole group, for `MatGroup.matmul`."""
    return tuple(np.full(G.order, int(v), dtype=np.int64) for v in g)


@pytest.mark.parametrize("p,r,n", [(2, 2, 1), (3, 2, 1), (2, 3, 1)])
def test_one_matrix_products_match_matmul(p, r, n):
    G = MatGroup(RingTables(p, r, n))
    rng = np.random.default_rng(p * r * n)
    picks = [tuple(x[i] for x in G.comps)
             for i in rng.choice(G.order, 20, replace=False)]
    # the generators have 0 and 1 coefficients, which the products skip
    for g in picks + G.generators():
        left, right = mul_left(G, g, G.comps), mul_right(G, G.comps, g)
        assert all(map(np.array_equal, left, G.matmul(_bcast(G, g), G.comps)))
        assert all(map(np.array_equal, right,
                       G.matmul(G.comps, _bcast(G, g))))


@pytest.mark.parametrize("p,r,n", [(2, 2, 1), (3, 2, 1), (2, 2, 2), (2, 3, 1)])
def test_orbit_labels_from_unit_generators_match_every_unit(p, r, n):
    G = MatGroup(RingTables(p, r, n))
    t = G.t
    every_unit = G.generators()[:2 * r] + [
        single(G, [[t.lists.decode(u), 0], [0, 1]])
        for u in range(t.Q) if t.UNIT[u] and u != t.one]
    assert len(G.generators()) < len(every_unit)
    # g^-1 x g^sigma by two products with whole-group constants
    perms = [G.idx(G.matmul(G.matmul(_bcast(G, G.minv(g)), G.comps),
                            _bcast(G, G.sigma(g))))
             for g in every_unit]
    count, labels = G.orbit_labels(perms)
    fast_count, fast_labels = G.orbit_labels(
        [G.sigma_conj_perm(g) for g in G.generators()])
    assert fast_count == count
    assert np.array_equal(fast_labels, labels)


@pytest.mark.parametrize("p,r,n", [
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 1), (2, 2, 2),
    (2, 3, 1), (2, 4, 1), (2, 5, 1), (3, 1, 1), (3, 1, 2), (3, 2, 1),
    (5, 1, 1), (5, 2, 1), (7, 1, 1), (11, 1, 1), (13, 1, 1), (17, 1, 1)])
def test_unit_generators_span_exactly_the_units(p, r, n):
    t = RingTables(p, r, n)
    gens = t.lists.unit_generators()
    assert _unit_span(t, gens) == set(np.flatnonzero(t.UNIT).tolist())
    # none lies in the span of the others
    assert all(u not in _unit_span(t, gens[:k] + gens[k + 1:])
               for k, u in enumerate(gens))


def _unit_span(t, gens):
    """The units that products of the codes `gens` reach from 1."""
    span, stack = {t.one}, [t.one]
    while stack:
        x = stack.pop()
        for u in gens:
            y = int(t.MUL[x, u])
            if y not in span:
                span.add(y)
                stack.append(y)
    return span


@pytest.mark.parametrize("shuffled", [False, True])
def test_orbit_labels_on_one_long_cycle(shuffled):
    # one long cycle: plain label propagation needs a pass per step
    G = MatGroup(RingTables(3, 2, 1))
    cycle = np.arange(G.order)
    if shuffled:
        cycle = np.random.default_rng(0).permutation(G.order)
    perm = np.empty_like(cycle)
    perm[cycle] = np.roll(cycle, 1)
    count, labels = G.orbit_labels([perm])
    assert count == 1 and not labels.any()
    # two cycles: the even and the odd positions along the cycle
    halves = np.empty_like(cycle)
    halves[cycle] = np.roll(cycle, 2)
    count, labels = G.orbit_labels([halves])
    assert count == 2
    assert (labels[cycle[0::2]] == labels[cycle[0]]).all()
    assert (labels[cycle[1::2]] != labels[cycle[0]]).all()


def test_finite_commands_do_not_import_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import io, sys, contextlib\n"
            "from gl2lab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['char-table', '--p', '3', '--n', '2']) == 0\n"
            "    assert main(['verify-norm', '--p', '2', '--r', '2',"
            " '--n', '1']) == 0\n"
            "print('scipy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_finite_gl2_respects_the_cap(monkeypatch):
    # the class table reads p^n + p^(n-1) Borel sections for each of its
    # classes, 78 x 12 at (3, 2), and that product is capped
    monkeypatch.setattr(FiniteGL2, "_cache", {})
    monkeypatch.setenv("GL2LAB_MAX_ELEMS", str(78 * 12 - 1))
    with pytest.raises(ResourceLimit):
        FiniteGL2(3, 2)
    monkeypatch.setenv("GL2LAB_MAX_ELEMS", str(78 * 12))
    assert FiniteGL2(3, 2).order == 3888


@pytest.mark.parametrize("kind,r,a", [
    ("supersingular", 0, None), ("ordinary", 1, None), ("ordinary", 1, 6),
    ("neither", 1, 2),
])
def test_point_trace_rejects_what_the_command_line_rejects(kind, r, a):
    from gl2lab.padic import check_point_trace_input

    with pytest.raises(DomainError):
        check_point_trace_input(3, r, kind, a)
    with pytest.raises(DomainError):
        ss_trace_point(kind, 3, r, 1, a=a)
