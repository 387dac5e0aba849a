"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS/FAIL line (visible under pytest -s and in
the captured output of failures).  Tolerances are zero throughout: all
values are integers, rationals, cyclotomic numbers or polynomials.
"""

import time

import pytest

from gl2lab import campaigns
from gl2lab.errors import DomainError


def _report(num, title, checks):
    ok = all(c.passed for c in checks)
    line = f"criterion-{num:02d} {'PASS' if ok else 'FAIL'}: {title} " \
           f"({sum(c.passed for c in checks)}/{len(checks)} checks)"
    print(line)
    if not ok:
        for c in checks:
            if not c.passed:
                print("   failing:", c.to_dict())
    assert ok, line
    return checks


def test_criterion_01_norm_bijection():
    t0 = time.time()
    checks = campaigns.norm_bijection_checks(
        cases=((2, 2, 1), (3, 2, 1), (2, 2, 2), (2, 3, 1)))
    elapsed = time.time() - t0
    _report(1, "sigma-conjugacy classes biject with conjugacy classes, "
               "twisted centralizer orders match", checks)
    assert elapsed < 4 * 120, "runtime target: under 2 minutes per case"


def test_criterion_02_exact_sequence():
    checks = campaigns.exact_sequence_checks(
        cases=((2, 2, 1), (2, 2, 2), (3, 2, 1)), samples=20)
    _report(2, "unit-group four-term exact sequence on >= 20 samples", checks)


def test_criterion_03_bc_unit_identity():
    checks = campaigns.bc_unit_checks(p=2, r=2, j=2, k=1, functions=3)
    assert len(checks) == 3
    _report(3, "base-change unit identity, exhaustive at (2,2,2,1), "
               "3 class functions", checks)


def test_criterion_04_tower_identity():
    checks = campaigns.tower_checks(cases=((2, 1), (2, 2), (3, 1)),
                                    samples=200)
    for c in checks:
        assert c.inputs["samples"] >= 200
    _report(4, "deformed tower identity, exact rational functions, "
               "specialization t := q included", checks)


def test_criterion_05_orbital_ratio():
    checks = campaigns.orbital_checks(
        cases=((2, 1), (2, 2), (3, 1), (3, 2)), per=50)
    for c in checks:
        if c.name == "orbital-ratio-closed-form":
            assert c.inputs["samples"] >= 50
            assert c.inputs["branches"]["ell-at-least-n"] > 0  # incl ell = oo
    _report(5, "tree orbital ratio equals the closed form on all branches",
            checks)


@pytest.mark.parametrize("n", [0, -1])
def test_orbital_checks_need_level_one(n):
    with pytest.raises(DomainError):
        campaigns.orbital_checks(cases=((2, n),), per=3)


def test_criterion_06_character_cross_identity():
    checks = campaigns.cross_identity_checks(ps=(2, 3), ns=(1, 2))
    _report(6, "closed form equals the character sum at q = p, "
               "(1+p)(1-p^n) identity included", checks)


def test_criterion_07_drinfeld_decomposition():
    checks = campaigns.drinfeld_checks(pns=((2, 1), (3, 1), (2, 2), (3, 2)))
    _report(7, "surjection module decomposes into induced characters; "
               "dual-path semisimple traces agree", checks)


def test_criterion_08_tree_lemma():
    checks = campaigns.tree_checks(qs=(2, 3), probes=100)
    _report(8, "unique nearest stabilized vertex, k agreement on 100 probes, "
               "neighbor counts exhaustive mod p", checks)


def test_criterion_09_centrality():
    checks = campaigns.centrality_checks(q=2, n=1, samples=100)
    _report(9, "level-1 function commutes with 3 double-coset generators "
               "at 100+ points", checks)


def test_criterion_10_census_consistency():
    t0 = time.time()
    checks = campaigns.census_checks(
        qs=(4, 7, 13), m=3, boundary_cases=((7, 1, 1, 3), (5, 2, 1, 3)))
    _report(10, "census/Lefschetz/boundary consistency at q in {4, 7, 13}",
            checks)
    assert time.time() - t0 < 900, "census block exceeds the runtime budget"


def test_census_consistency_beyond_sixteen():
    # the normal forms bring q = 17, 25 and 32 under the default cap
    checks = campaigns.census_checks(qs=(17, 25, 32), boundary_cases=())
    _report(10, "census/Lefschetz consistency at q in {17, 25, 32}", checks)
