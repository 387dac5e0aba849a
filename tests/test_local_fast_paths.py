"""The local campaigns' fast paths against the object paths they replaced.

The tower check evaluates one pair (branch key, key histogram) once; the
samplers test integer rows before a LocalMatrix is built; conjugation by an
exact unimodular h is one pass mod p^N; the unit eigenvalue's Newton steps
run on coefficient tuples.  Each must give what the old path gave: the same
verdicts and failures, the same matrices, the same root.
"""

import itertools
import random

import pytest

from gl2lab import hecke
from gl2lab.checks import _orbital_sample, _tree_probes, tower_checks
from gl2lab.errors import DomainError, PrecisionExhausted
from gl2lab.hecke import (branch_covering_sample, tower_identity_check,
                          tower_key_histogram)
from gl2lab.padic import (LocalMatrix, context_for_level, get_context,
                          unit_eigenvalue)
from gl2lab.ratfunc import RationalFunctionT
from gl2lab.testfunc import phi_branch
from hecke_oracles import (branch_sample_built_first, conjugate_three_step,
                           orbital_sample_built_first, tower_per_point,
                           tree_probes_built_first, unit_eigenvalue_elements)

SEEDS = (20259, 7, 101)
PR_CASES = ((2, 1), (3, 1), (2, 2), (3, 2))


def _fields(g):
    return g.e, g.m, g.prec, g.exact, g.exact_tr, g.exact_det


# ---------------------------------------------------------------------------
# the tower: one evaluation per distinct pair


def _same_tower_outcome(new, old):
    assert new[0] == old[0] and new[2] == old[2]
    assert len(new[1]) == len(old[1])
    for (g, x, y), (h, u, v) in zip(new[1], old[1]):
        assert g is h and x == u and y == v


def _tower_sample(q, n, count=200):
    ctx = get_context(q, 1, 2 * (n + 1) + 6)
    return branch_covering_sample(ctx, n + 1, count=count)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)])
def test_tower_check_matches_the_per_point_loop(monkeypatch, q, n):
    sample = _tower_sample(q, n)
    new = tower_identity_check(q, n, sample=sample)
    assert new[0] and new[2] == len(sample)
    _same_tower_outcome(new, tower_per_point(q, n, sample))
    # a level-n value that no average takes: every point fails on the left
    off = RationalFunctionT.t_power(q, 99)
    monkeypatch.setattr(hecke, "phi_pnt", lambda g, level: off)
    new = tower_identity_check(q, n, sample=sample)
    assert len(new[1]) == len(sample)
    _same_tower_outcome(new, tower_per_point(q, n, sample))
    monkeypatch.undo()
    # phi_pn moved by one: every point fails on the specialization, after
    # the left side's verdict
    real = hecke.phi_pn
    monkeypatch.setattr(hecke, "phi_pn", lambda g, level: real(g, level) + 1)
    new = tower_identity_check(q, n, sample=sample)
    assert len(new[1]) == len(sample)
    _same_tower_outcome(new, tower_per_point(q, n, sample))
    monkeypatch.undo()
    # a branch key that also says whether g was conjugated, and a level-n
    # value off on the conjugated points: points that share a histogram
    # (and the true key) get different verdicts, so the verdicts must be
    # keyed on the branch key as well as on the histogram
    real_branch, real_pnt = hecke.phi_branch, hecke.phi_pnt
    monkeypatch.setattr(hecke, "phi_branch", lambda g, level: (
        real_branch(g, level), g.exact is None))
    monkeypatch.setattr(hecke, "phi_pnt", lambda g, level: (
        off if g.exact is None else real_pnt(g, level)))
    new = tower_identity_check(q, n, sample=sample)
    assert 0 < len(new[1]) < len(sample)
    _same_tower_outcome(new, tower_per_point(q, n, sample))


def test_tower_evaluates_each_distinct_pair_once(monkeypatch):
    # report-all's cases: 8, 11 and 8 distinct (branch key, histogram)
    # pairs among 200 points each, and one phi_pnt call per pair
    calls, real = [], hecke.phi_pnt

    def counted(g, level):
        calls.append(g)
        return real(g, level)
    monkeypatch.setattr(hecke, "phi_pnt", counted)
    found = []
    for q, n in ((2, 1), (2, 2), (3, 1)):
        calls.clear()
        sample = _tower_sample(q, n)
        ok, _, cnt = tower_identity_check(q, n, sample=sample)
        pairs = {(phi_branch(g, n), frozenset(tower_key_histogram(g, n).items()))
                 for g in sample}
        assert ok and cnt == 200 and len(calls) == len(pairs)
        found.append(len(calls))
    assert found == [8, 11, 8]
    calls.clear()
    assert all(row.passed for row in tower_checks())
    assert len(calls) == 27


# ---------------------------------------------------------------------------
# the samplers: integer tests, and h built only when conjugated by


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p,r", PR_CASES)
def test_branch_sample_matches_the_built_first_sampler(p, r, seed):
    n = 2
    ctx = get_context(p, r, 2 * n + 6)
    new = branch_covering_sample(ctx, n, count=120, seed=seed)
    old = branch_sample_built_first(ctx, n, 120, seed)
    assert [_fields(g) for g in new] == [_fields(g) for g in old]
    assert any(g.exact is None for g in new)     # some were conjugated


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p,r", PR_CASES)
def test_orbital_sample_matches_the_built_first_sampler(p, r, seed):
    n = 2
    ctx = get_context(p, r, 2 * n + 6)
    new = _orbital_sample(ctx, n, 60, seed)
    old = orbital_sample_built_first(ctx, n, 60, seed)
    assert len(new) == 60
    assert [_fields(g) for g in new] == [_fields(g) for g in old]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p,r", PR_CASES)
def test_tree_probes_match_the_built_first_probes(p, r, seed):
    ctx = get_context(p, r, 14)
    new = list(itertools.islice(_tree_probes(ctx, seed), 60))
    old = list(itertools.islice(tree_probes_built_first(ctx, seed), 60))
    assert [(_fields(g), k) for g, k in new] == [(_fields(g), k)
                                                 for g, k in old]
    assert {k for _, k in new} >= {0, 1}


@pytest.mark.parametrize("p,r", PR_CASES)
def test_one_pass_conjugation_matches_three_steps(p, r):
    # g exact, or cut to fewer digits, or already conjugated; h with entries
    # that are coefficient tuples, of unit determinant (the one-pass path)
    # or not (the three steps on both sides)
    ctx = get_context(p, r, 10)
    rnd = random.Random(p * 10 + r)

    def entry(bound):
        return [rnd.randrange(bound) for _ in range(r)]

    def matrix(bound, e=0):
        while True:
            rows = [[entry(bound), entry(bound)], [entry(bound), entry(bound)]]
            try:
                m = LocalMatrix.from_integers(ctx, rows, e=e)
                m.det_valuation()
                return m
            except DomainError:   # zero or singular
                continue

    seen = {True: 0, False: 0}
    for _ in range(150):
        g = matrix(p**4, e=rnd.randrange(-2, 2))
        kind = rnd.randrange(3)
        if kind == 1:
            g = LocalMatrix(ctx, g.e, g.m, prec=rnd.randrange(2, ctx.N + 1))
        elif kind == 2:
            g = conjugate_three_step(g, matrix(p**3))
        h = matrix(p**3)
        if rnd.random() < 0.3:
            h = h @ LocalMatrix.from_integers(ctx, [[p, 0], [0, 1]])
        seen[h.e == 0 and h.det_valuation() == 0] += 1
        try:
            want = _fields(conjugate_three_step(g, h))
        except PrecisionExhausted:
            with pytest.raises(PrecisionExhausted):
                g.conjugate_by(h)
            continue
        assert _fields(g.conjugate_by(h)) == want
    assert seen[True] > 30 and seen[False] > 30


# ---------------------------------------------------------------------------
# the unit eigenvalue on coefficient tuples


@pytest.mark.parametrize("p,r,n", [(2, 1, 3), (3, 1, 2), (5, 1, 2),
                                   (2, 2, 2), (3, 2, 1), (3, 2, 2)])
def test_unit_eigenvalue_matches_the_element_newton_loop(p, r, n):
    # every (tr, det) residue pair mod p^n with a unit trace and p | det,
    # as the companion matrix [[0, -det], [1, tr]]; det = 0 stands as p^n
    ctx = context_for_level(p, r, n)
    pn, zero = p**n, (0,) * r
    residues = list(itertools.product(range(pn), repeat=r))
    pairs = 0
    for tr in residues:
        if not any(c % p for c in tr):
            continue
        for det in residues:
            if any(c % p for c in det):
                continue
            det = det if any(det) else (pn,) + zero[1:]
            g = LocalMatrix.from_integers(
                ctx, [[zero, tuple(-c for c in det)], [(1,) + zero[1:], tr]])
            root = unit_eigenvalue(g, n)
            assert root == unit_eigenvalue_elements(g, n)
            # the same root from the digits alone
            cut = LocalMatrix(ctx, g.e, g.m, prec=n + 1)
            assert unit_eigenvalue(cut, n) == root
            pairs += 1
    assert pairs == (pn**r - (pn // p)**r) * (pn // p)**r


@pytest.mark.parametrize("n", [2, 3])
def test_unit_eigenvalue_short_of_digits_raises_on_both_paths(n):
    ctx = context_for_level(3, 1, n)
    g = LocalMatrix.from_integers(ctx, [[3, 0], [0, 2]])
    short = LocalMatrix(ctx, g.e, g.m, prec=n - 1)
    for path in (unit_eigenvalue, unit_eigenvalue_elements):
        with pytest.raises(PrecisionExhausted):
            path(short, n)
    enough = LocalMatrix(ctx, g.e, g.m, prec=n)
    assert (unit_eigenvalue(enough, n) == unit_eigenvalue_elements(enough, n)
            == ctx.el(2))

