"""Bruhat-Tits tree: vertices, stabilization, orbital sums."""

import itertools
import random
from fractions import Fraction

import pytest

from gl2lab import DEFAULT_SEED
from gl2lab.checks import _orbital_sample, tree_checks
from gl2lab.errors import DomainError, PrecisionExhausted
from gl2lab.hecke import canonical_coset_rep
from gl2lab.padic import LocalMatrix, factor_prime_power, get_context, k_of
from gl2lab.testfunc import GammaInvariants, c_closed
from gl2lab.tree import (TreeVertex, base_vertex, enumerate_vertices,
                         fixed_set, orbital_ratio, shell,
                         stabilized_line_count, stabilizes)
from hecke_oracles import orbital_sample_built_first


@pytest.mark.parametrize("q,r", [(2, 1), (3, 1), (4, 2)])
def test_shell_counts(q, r):
    p = 2 if q in (2, 4) else 3
    ctx = get_context(p, r, 8)
    assert len(list(shell(ctx, 0))) == 1
    for d in range(1, 6):
        assert len(list(shell(ctx, d))) == (q + 1) * q**(d - 1)


def test_enumerate_counts_examples():
    ctx2 = get_context(2, 1, 8)
    assert len(enumerate_vertices(ctx2, 0)) == 1
    assert len(enumerate_vertices(ctx2, 2)) == 10
    ctx3 = get_context(3, 1, 10)
    assert len(enumerate_vertices(ctx3, 3)) == 53


def _column_module_key(ctx, rows):
    """Level-0 coset key, i.e. the column lattice (independent dedup oracle)."""
    return canonical_coset_rep(LocalMatrix.from_integers(ctx, rows), 0)


@pytest.mark.parametrize("q,depth", [(2, 3), (3, 2)])
def test_vertex_enumeration_against_hnf_oracle(q, depth):
    # independent enumeration: column-HNF sublattices with cyclic quotient
    ctx = get_context(q, 1, 10)
    for d in range(1, depth + 1):
        mine = set()
        for v in shell(ctx, d):
            rows = v.basis_rows(ctx)
            mine.add(_column_module_key(ctx, rows))
        oracle = set()
        count = 0
        for s in range(d + 1):
            for t in range(q**s):
                if 0 < s < d and t % q == 0:
                    continue  # gcd condition for a cyclic quotient
                if s == 0 and t != 0:
                    continue
                oracle.add(_column_module_key(
                    ctx, [[q**s, t], [0, q**(d - s)]]))
                count += 1
        assert count == (q + 1) * q**(d - 1)
        assert len(oracle) == count       # HNF forms are pairwise distinct
        assert mine == oracle


def test_stabilizes_examples():
    ctx = get_context(2, 1, 10)
    g = LocalMatrix.from_integers(ctx, [[2, 1], [0, 3]])
    assert stabilizes(g, base_vertex(ctx))
    # diag(p,1) stabilizes the lattice spanned by (p,0) and (0,1)
    d = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    v = TreeVertex(1, "B", (0,))
    assert stabilizes(d, v)
    # the antidiagonal stabilizes exactly one neighbor (its kernel line)
    w = LocalMatrix.from_integers(ctx, [[0, 1], [-2, 0]])
    nbrs = [v for v in enumerate_vertices(ctx, 1) if v.d == 1]
    stab = [v for v in nbrs if stabilizes(w, v)]
    assert len(nbrs) == 3 and len(stab) == 1


def test_fixed_set_integral_and_conjugated():
    ctx = get_context(2, 1, 12)
    g = LocalMatrix.from_integers(ctx, [[2, 1], [0, 1]])
    rep = fixed_set(g, 2)
    assert rep.k_tree == 0 and rep.nearest == base_vertex(ctx)
    assert rep.nearest_unique and rep.check_connected()
    h = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    gp = g.conjugate_by(h)
    rep2 = fixed_set(gp, 2)
    assert rep2.k_tree == k_of(gp) == 1
    assert rep2.nearest_unique and rep2.check_connected()


def test_fixed_set_guards():
    ctx = get_context(2, 1, 12)
    g = LocalMatrix.from_integers(ctx, [[2, 1], [0, 1]])
    h = LocalMatrix.from_integers(ctx, [[4, 0], [0, 1]])
    gp = g.conjugate_by(h)
    with pytest.raises(DomainError):
        fixed_set(gp, k_of(gp) - 1)
    nonint = LocalMatrix.from_integers(ctx, [[1, 1], [0, 4]], e=-1)
    with pytest.raises(DomainError):
        fixed_set(nonint, 2)   # trace is not integral


def test_k_tree_equals_k_of_many_probes():
    for q in (2, 3):
        ctx = get_context(q, 1, 14)
        rnd = random.Random(40 + q)
        done = 0
        while done < 100:
            rows = [[rnd.randrange(q**3) for _ in range(2)]
                    for _ in range(2)]
            try:
                g0 = LocalMatrix.from_integers(ctx, rows)
                if g0.e != 0 or g0.det_valuation() != 1:
                    continue
                hrows = [[rnd.randrange(q**3) for _ in range(2)]
                         for _ in range(2)]
                h = LocalMatrix.from_integers(ctx, hrows)
                if h.det_valuation() > 2:
                    continue
            except Exception:
                continue
            g = g0.conjugate_by(h)
            k = k_of(g)
            if k > 2:
                continue
            rep = fixed_set(g, k + 1)
            assert rep.k_tree == k and rep.nearest_unique
            assert rep.check_connected()
            done += 1


def test_stabilized_line_count_examples_and_exhaustive():
    ctx = get_context(2, 1, 10)
    assert stabilized_line_count(
        LocalMatrix.from_integers(ctx, [[2, 0], [0, 3]])) == 2
    assert stabilized_line_count(
        LocalMatrix.from_integers(ctx, [[0, 1], [-2, 0]])) == 1
    # exhaustive over the 16 residue matrices with the det/tr constraints
    counted = 0
    for quad in itertools.product(range(2), repeat=4):
        a, b, c, d = quad
        if (a * d - b * c) % 2 != 0 or quad == (0, 0, 0, 0):
            continue
        for bump in itertools.product((0, 2), repeat=4):
            rows = [[a + bump[0], b + bump[1]], [c + bump[2], d + bump[3]]]
            try:
                m = LocalMatrix.from_integers(ctx, rows)
                if m.e != 0 or m.det_valuation() != 1:
                    continue
            except Exception:
                continue
            expected = 1 if (a + d) % 2 == 0 else 2
            assert stabilized_line_count(m) == expected
            counted += 1
            break
    assert counted > 0


def test_orbital_ratio_reference_values():
    ctx = get_context(2, 1, 10)
    w = LocalMatrix.from_integers(ctx, [[0, 1], [-2, 0]])
    assert orbital_ratio(w, 1)[0] == -3          # -(1+q) at n = 1
    d = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
    assert orbital_ratio(d, 1)[0] == 3           # q^(2n-1) + q^(2n-2) times q-1
    d23 = LocalMatrix.from_integers(ctx, [[2, 0], [0, 3]])
    assert orbital_ratio(d23, 2)[0] == 0         # ell = 1 < n = 2


def test_orbital_ratio_matches_closed_form():
    for (q, n) in ((2, 1), (2, 2), (3, 1), (3, 2)):
        ctx = get_context(q, 1, 2 * n + 6)
        rnd = random.Random(50 + q + n)
        done = 0
        while done < 30:
            rows = [[rnd.randrange(q**(n + 2)) for _ in range(2)]
                    for _ in range(2)]
            try:
                g = LocalMatrix.from_integers(ctx, rows)
                if g.e != 0 or g.det_valuation() != 1 or not g.trace_val_ge(0):
                    continue
            except Exception:
                continue
            ratio, ok = orbital_ratio(g, n)
            assert ok
            assert ratio == c_closed(GammaInvariants.from_matrix(g, n), n, q)
            done += 1


def test_orbital_ratio_flags_and_degenerate_weight():
    ctx = get_context(2, 1, 10)
    nonint = LocalMatrix.from_integers(ctx, [[1, 1], [0, 4]], e=-1)
    ratio, supported = orbital_ratio(nonint, 1)
    assert ratio == 0 and not supported
    # replacing the level-n values by the level-0 support indicator gives 1
    g = LocalMatrix.from_integers(ctx, [[2, 0], [0, 3]])
    q = 2
    ratio, ok = orbital_ratio(
        g, 2, phi_at=lambda dd: Fraction(1, q - 1) if dd == 0 else Fraction(0))
    assert ok and ratio == 1


# ---------------------------------------------------------------------------
# the samplers of the orbital and tree-lemma checks skip singular draws on
# the integer determinant; the loops they replaced built every draw and
# caught the library's rejection


def _old_tree_probe_pairs(ctx, q, probes, seed):
    """(g0, h) of every conjugate_by the old probe loop made."""
    rnd = random.Random(seed + q)
    pairs, tested = [], 0
    while tested < probes:
        rows = [[rnd.randrange(q**3) for _ in range(2)] for _ in range(2)]
        try:
            g0 = LocalMatrix.from_integers(ctx, rows)
            if g0.e != 0 or g0.det_valuation() != 1:
                continue
        except (DomainError, PrecisionExhausted):
            continue
        hrows = [[rnd.randrange(q**3) for _ in range(2)] for _ in range(2)]
        try:
            h = LocalMatrix.from_integers(ctx, hrows)
            if h.det_valuation() > 2:
                continue
        except (DomainError, PrecisionExhausted):
            continue
        pairs.append((g0, h))
        if k_of(g0.conjugate_by(h)) <= 3:
            tested += 1
    return pairs


def _exact(g):
    return g.e, g.m, g.prec, g.exact


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_orbital_sample_is_the_old_loops(q, n):
    ctx = get_context(q, 1, 2 * n + 6)
    new = _orbital_sample(ctx, n, 50, DEFAULT_SEED)
    old = orbital_sample_built_first(ctx, n, 50, DEFAULT_SEED)
    assert len(new) == 50 and list(map(_exact, new)) == list(map(_exact, old))


def test_tree_probes_are_the_old_loops(monkeypatch):
    pairs, real = [], LocalMatrix.conjugate_by

    def conjugate_by(self, h):
        pairs.append((self, h))
        return real(self, h)
    monkeypatch.setattr(LocalMatrix, "conjugate_by", conjugate_by)
    tree_checks()
    monkeypatch.undo()
    old = []
    for q in (2, 3):
        p, r = factor_prime_power(q)
        old += _old_tree_probe_pairs(get_context(p, r, 14), q, 100,
                                     DEFAULT_SEED)
    assert len(pairs) == len(old) >= 200
    assert ([(_exact(g), _exact(h)) for g, h in pairs]
            == [(_exact(g), _exact(h)) for g, h in old])
