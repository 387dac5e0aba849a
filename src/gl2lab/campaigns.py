"""Verification campaigns: each returns a list of named exact checks.

These back both the command-line driver and the acceptance test suite.
The census battery lives here.  The other nine live next to the code they
check, so that a command loads its own battery alone, and are re-exported:
the norm bijection, by certificate, in `normcert`; the exact sequence and
the unit identity in `basechange`; the object-path ones (tower, orbital,
tree lemma, centrality) and the character identities of GL2(Z/p^n)
(cross-identity, Drinfeld) in `checks`.  So importing this module binds
every layer, and `ALL_CAMPAIGNS` lists all ten; `report-all` runs them.
Every comparison is exact; a failing check carries the two values.
"""

from __future__ import annotations

from .basechange import bc_unit_checks, exact_sequence_checks
from .checks import (DEFAULT_SEED, Check, _witness, centrality_checks,
                     cross_identity_checks, drinfeld_checks, orbital_checks,
                     tower_checks, tree_checks)
from .curves import (boundary_orbit_report, boundary_packet_fault,
                     boundary_ss_trace, enumerate_curves, level_m_count,
                     ss_lefschetz)
from .normcert import norm_bijection_checks, norm_table_checks
from .padic import factor_prime_power

__all__ = ["DEFAULT_SEED", "Check", "ALL_CAMPAIGNS", "norm_bijection_checks",
           "norm_table_checks", "exact_sequence_checks", "bc_unit_checks",
           "tower_checks", "orbital_checks", "cross_identity_checks",
           "drinfeld_checks", "tree_checks", "centrality_checks",
           "census_checks"]


# ---------------------------------------------------------------------------
# 10. census consistency


def census_checks(qs=(4, 7, 13), m=3,
                  boundary_cases=((7, 1, 1, 3), (5, 2, 1, 3))):
    out = []
    for q in qs:
        p, r = factor_prime_power(q)
        curves = enumerate_curves(q)
        # the span enumeration against the closed form that ss_lefschetz sums
        rep0 = ss_lefschetz(p, r, 0, m)
        closed = rep0.level_points
        spans = [level_m_count(E, m) for E in curves]
        direct = sum(spans)
        fails = [(E.a, span, closed[E.a]) for E, span in zip(curves, spans)
                 if span != closed[E.a]]
        out.append(Check("lefschetz-n0-equals-census",
                         {"q": q, "m": m}, direct, int(rep0.total),
                         _witness(fails, ("a", "span_count", "closed_form"))))
        if q % m == 1:
            out.append(Check("moduli-count-two-components",
                             {"q": q, "m": m}, 2 * (q - 3), direct))
        fails = []
        for E in curves:
            # the trace from the count itself, so a bad count fails this row;
            # supersingularity from the Hasse invariant, not from the count
            count = E.count()
            trace = q + 1 - count
            supersingular = E.hasse_invariant() == 0
            if trace**2 > 4 * q or (trace % p == 0) != supersingular:
                fails.append((E.a, trace, count))
        out.append(Check("weil-and-supersingular-criteria", {"q": q}, 0,
                         len(fails), _witness(fails, ("a", "trace", "count"))))
    for (p, r, n, mm) in boundary_cases:
        formula = boundary_ss_trace(p, r, n, mm)
        packets, fixed, sizes_ok = boundary_orbit_report(p, r, n, mm)
        # a failed row names its first packet of the wrong size or that
        # Frobenius moves; the listing runs again only then
        sound = packets == fixed and sizes_ok
        out.append(Check("boundary-formula-vs-enumeration",
                         {"p": p, "r": r, "n": n, "m": mm},
                         [int(formula), True, True],
                         [packets, packets == fixed, sizes_ok],
                         None if sound else
                         boundary_packet_fault(p, r, n, mm)))
    out.append(Check("boundary-384", {"p": 7, "r": 1, "n": 1, "m": 3},
                     384, int(boundary_ss_trace(7, 1, 1, 3))))
    out.append(Check("boundary-vanishes", {"p": 2, "r": 1, "n": 1, "m": 3},
                     0, int(boundary_ss_trace(2, 1, 1, 3))))
    return out


ALL_CAMPAIGNS = {
    "norm-bijection": norm_bijection_checks,
    "exact-sequence": exact_sequence_checks,
    "bc-unit": bc_unit_checks,
    "tower": tower_checks,
    "orbital": orbital_checks,
    "cross-identity": cross_identity_checks,
    "drinfeld": drinfeld_checks,
    "tree-lemma": tree_checks,
    "centrality": centrality_checks,
    "census": census_checks,
}
