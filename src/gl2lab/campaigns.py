"""Verification campaigns: each returns a list of named exact checks.

These back both the command-line driver and the acceptance test suite.
Every comparison is exact; a failing check carries the two values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .basechange import bc_unit_identity, sigma_orbits, unit_group_exactness
from .curves import (boundary_orbit_report, boundary_ss_trace,
                     enumerate_curves, level_m_count, ss_lefschetz)
from .errors import DomainError, PrecisionExhausted
from .finitegl2 import (ClassFunction, FiniteGL2, drinfeld_module_character,
                        e_gamma, fixed_surjections, induced_character,
                        ss_trace_point, steinberg_character)
from .hecke import centrality_check, tower_identity_check
from .padic import LocalMatrix, factor_prime_power, get_context, k_of
from .testfunc import GammaInvariants, c_closed, c_r_char
from .tree import (enumerate_vertices, fixed_set, orbital_ratio,
                   stabilized_line_count, stabilizes)

DEFAULT_SEED = 20259


@dataclass
class Check:
    name: str
    inputs: dict
    expected: Any
    actual: Any
    witness: dict = None  # the first failing input and its two values

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def to_dict(self):
        row = {"name": self.name, "inputs": self.inputs,
               "expected": _render(self.expected),
               "actual": _render(self.actual),
               "pass": self.passed}
        if not self.passed and self.witness is not None:
            row["witness"] = self.witness
        return row


def _render(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_render(x) for x in v]
    return v


def _witness(fails, names):
    """The first failure as text: matrices by to_text(), values by str()."""
    if not fails:
        return None
    return {k: v.to_text() if isinstance(v, LocalMatrix) else str(v)
            for k, v in zip(names, fails[0])}


# ---------------------------------------------------------------------------
# 1. norm bijection


def norm_bijection_checks(cases=((2, 2, 1), (3, 2, 1), (2, 2, 2), (2, 3, 1))):
    out = []
    for (p, r, n) in cases:
        out.extend(norm_table_checks(sigma_orbits(p, r, n)))
    return out


def norm_table_checks(tab):
    """The four norm-bijection checks of one sigma-orbit table."""
    inputs = {"p": tab.p, "r": tab.r, "n": tab.n}
    return [
        Check("sigma-orbit-count", inputs, tab.class_count, tab.orbit_count),
        Check("norm-bijection", inputs, True, tab.bijection),
        Check("centralizer-orders", inputs, True, tab.all_centralizers_match()),
        Check("orbit-stabilizer", inputs, True,
              all(o.size * o.tw_centralizer == tab.group_order
                  for o in tab.orbits)),
    ]


# ---------------------------------------------------------------------------
# 2. exact sequence of unit groups


def exact_sequence_checks(cases=((2, 2, 1), (2, 2, 2), (3, 2, 1)),
                          samples=20, seed=DEFAULT_SEED):
    rnd = random.Random(seed)
    out = []
    for (p, r, n) in cases:
        G = FiniteGL2(p, n)
        gammas = [(1, 0, 0, 1), (2 % p**n or 1, 0, 0, 2 % p**n or 1)]
        while len(gammas) < samples:
            g = G.elements[rnd.randrange(len(G.elements))]
            gammas.append(g)
        ok = all(unit_group_exactness(g, p, r, n) for g in gammas)
        out.append(Check("unit-group-exact-sequence",
                         {"p": p, "r": r, "n": n, "samples": len(gammas)},
                         True, ok))
    return out


# ---------------------------------------------------------------------------
# 3. base-change unit identity


def bc_unit_checks(p=2, r=2, j=2, k=1, functions=3):
    small = FiniteGL2(p, j)
    nclasses = len(small.class_reps)
    fs = [[1] * nclasses]  # constant function
    for cid in range(min(functions - 1, nclasses)):
        ind = [0] * nclasses
        ind[cid] = 1
        fs.append(ind)
    out = []
    for i, f in enumerate(fs[:functions]):
        ok = bc_unit_identity(f, k, p, r, j)
        out.append(Check("bc-unit-identity",
                         {"p": p, "r": r, "j": j, "k": k, "function": i},
                         True, ok))
    return out


# ---------------------------------------------------------------------------
# 4. tower identity


def tower_checks(cases=((2, 1), (2, 2), (3, 1)), samples=200,
                 seed=DEFAULT_SEED):
    out = []
    for (q, n) in cases:
        ok, fails, cnt = tower_identity_check(q, n, count=samples, seed=seed)
        out.append(Check("tower-identity", {"q": q, "n": n, "samples": cnt},
                         0, len(fails),
                         _witness(fails, ("g", "level_n", "average"))))
    return out


# ---------------------------------------------------------------------------
# 5. orbital ratio vs closed form


def _orbital_sample(ctx, n, per, seed):
    """Branch-covering determinant-valuation-1 integral matrices."""
    p, q = ctx.p, ctx.q
    rnd = random.Random(seed)
    sample = [LocalMatrix.from_integers(ctx, [[p, 0], [0, 1]]),       # ell oo
              LocalMatrix.from_integers(ctx, [[0, 1], [-p, 0]])]      # tr 0
    for j in range(1, n + 2):                                         # ell = j
        sample.append(LocalMatrix.from_integers(
            ctx, [[p, 0], [0, 1 + p**j]]))
    if p > 2:
        sample.append(LocalMatrix.from_integers(ctx, [[p, 0], [0, 2]]))  # ell 0
    while len(sample) < per:
        rows = [[rnd.randrange(p**(n + 2)) for _ in range(2)] for _ in range(2)]
        try:
            m = LocalMatrix.from_integers(ctx, rows)
            if m.e != 0 or m.det_valuation() != 1 or not m.trace_val_ge(0):
                continue
        except (DomainError, PrecisionExhausted):
            continue
        sample.append(m)
    return sample


def orbital_checks(cases=((2, 1), (2, 2), (3, 1), (3, 2)), per=50,
                   seed=DEFAULT_SEED):
    out = []
    for (q, n) in cases:
        if n < 1:
            raise DomainError(f"orbital checks need n >= 1, got {n}")
        ctx = get_context(q, 1, 2 * n + 6)
        sample = _orbital_sample(ctx, n, per, seed)
        branches = {"trace-divisible": 0, "ell-at-least-n": 0, "ell-below-n": 0}
        bad = 0
        for g in sample:
            ratio, supported = orbital_ratio(g, n)
            inv = GammaInvariants.from_matrix(g, n)
            if ratio != c_closed(inv, n, q):
                bad += 1
            if inv.v_tr >= 1:
                branches["trace-divisible"] += 1
                # the proof-line coefficient is ratio / (q - 1)
                coeff = -(1 + q) * sum(q**i for i in range(n))
                if ratio != coeff * (q - 1):
                    bad += 1
            elif not (inv.ell < n):
                branches["ell-at-least-n"] += 1
                if ratio != (q**(2 * n - 1) + q**(2 * n - 2)) * (q - 1):
                    bad += 1
            else:
                branches["ell-below-n"] += 1
                if ratio != 0:
                    bad += 1
        out.append(Check("orbital-ratio-closed-form",
                         {"q": q, "n": n, "samples": len(sample),
                          "branches": branches},
                         0, bad))
        # at p = 2 every unit is 1 mod 2, so ell < n is unreachable for n = 1
        reachable = ["trace-divisible", "ell-at-least-n"]
        if q != 2 or n >= 2:
            reachable.append("ell-below-n")
        out.append(Check("orbital-branch-coverage", {"q": q, "n": n}, True,
                         all(branches[b] > 0 for b in reachable)))
    return out


# ---------------------------------------------------------------------------
# 6. character cross-identity


def cross_identity_checks(ps=(2, 3), ns=(1, 2)):
    from .padic import ExtendedNat, vp_int
    out = []
    for p in ps:
        for n in ns:
            G = FiniteGL2(p, n)
            h = e_gamma(G)
            ctxn = get_context(p, 1, n + 2)
            bad = 0
            # trace-divisible branch
            inv = GammaInvariants(1, ExtendedNat(1), None, None, n)
            if c_closed(inv, n, p) != c_r_char(inv, h, p, 1, n).as_rational():
                bad += 1
            # the explicit identity (1+p)(1-p^n) = 1 - p (p^n + p^(n-1) - 1)
            if (1 + p) * (1 - p**n) != 1 - p * (p**n + p**(n - 1) - 1):
                bad += 1
            # ordinary branch, every unit eigenvalue residue (ell = v_p(a - 1))
            for a in range(1, p**n):
                if a % p == 0:
                    continue
                inv = GammaInvariants(1, ExtendedNat(0), vp_int(a - 1, p),
                                      ctxn.el(a), n)
                if c_closed(inv, n, p) != c_r_char(inv, h, p, 1, n).as_rational():
                    bad += 1
            # off-support: v_det != 1
            inv = GammaInvariants(2, ExtendedNat(1), None, None, n)
            if c_closed(inv, n, p) != 0 or not c_r_char(inv, h, p, 1, n).is_zero():
                bad += 1
            out.append(Check("c-closed-vs-characters", {"p": p, "n": n}, 0, bad))
    return out


# ---------------------------------------------------------------------------
# 7. Drinfeld decomposition and dual-path traces


def drinfeld_checks(pns=((2, 1), (3, 1), (2, 2), (3, 2))):
    out = []
    for (p, n) in pns:
        G = FiniteGL2(p, n)
        dr = drinfeld_module_character(p, n)
        acc = ClassFunction(G, [0] * len(G.class_reps))
        for chi in G.characters():
            acc = acc + induced_character(G, chi)
        out.append(Check("drinfeld-decomposition", {"p^n": p**n},
                         True, acc == dr))
        # dual-path ss traces across all unit eigenvalue residues
        h = e_gamma(G)
        bad = 0
        for a in range(1, p**n):
            if a % p == 0:
                continue
            char_path = ss_trace_point("ordinary", h, p, 1, n, a=a).as_rational()
            fixed_path = fixed_surjections(p, n, (1, 0, 0, 1), a=a)
            if char_path != fixed_path:
                bad += 1
        ss_char = ss_trace_point("supersingular", h, p, 1, n).as_rational()
        if ss_char != 1 - p * (p**n + p**(n - 1) - 1):
            bad += 1
        out.append(Check("ss-trace-dual-path", {"p": p, "n": n}, 0, bad))
        # dimension bookkeeping
        triv = [c for c in G.characters() if c.is_trivial()][0]
        ind = induced_character(G, triv)
        st = steinberg_character(p, n)
        out.append(Check("principal-series-degrees", {"p": p, "n": n},
                         [p**n + p**(n - 1), p**n + p**(n - 1) - 1],
                         [int(ind.degree().as_rational()),
                          int(st.degree().as_rational())]))
    return out


# ---------------------------------------------------------------------------
# 8. tree lemma


def tree_checks(qs=(2, 3), probes=100, seed=DEFAULT_SEED):
    out = []
    for q in qs:
        ctx = get_context(q, 1, 14)
        rnd = random.Random(seed + q)
        bad_unique, bad_k, tested = 0, 0, 0
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
            g = g0.conjugate_by(h)
            k = k_of(g)
            if k > 3:
                continue
            rep = fixed_set(g, k + 1)
            if not rep.nearest_unique:
                bad_unique += 1
            if rep.k_tree != k:
                bad_k += 1
            tested += 1
        out.append(Check("nearest-vertex-unique", {"q": q, "probes": tested},
                         0, bad_unique))
        out.append(Check("k-tree-equals-k", {"q": q, "probes": tested},
                         0, bad_k))
        # neighbor counts, exhaustive over residue matrices mod p
        bad_counts = 0
        seen_counts = set()
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    for d in range(q):
                        lifted = _lift_det_val_one(ctx, (a, b, c, d), q)
                        if lifted is None:
                            continue
                        fixed_lines = stabilized_line_count(lifted)
                        stab_nbrs = sum(
                            1 for v in enumerate_vertices(ctx, 1)
                            if v.d == 1 and stabilizes(lifted, v))
                        if fixed_lines != stab_nbrs:
                            bad_counts += 1
                        expected = 1 if lifted.trace_val_ge(1) else 2
                        if fixed_lines != expected:
                            bad_counts += 1
                        seen_counts.add(q + 1 - fixed_lines)
                        if (q + 1 - fixed_lines) not in (q, q - 1):
                            bad_counts += 1
        out.append(Check("neighbor-non-stabilized-counts",
                         {"q": q, "counts_seen": sorted(seen_counts)},
                         0, bad_counts))
    return out


def _lift_det_val_one(ctx, residue, p):
    """Integral lift of a mod-p residue matrix with det valuation exactly 1."""
    a, b, c, d = residue
    if (a * d - b * c) % p != 0 or (a, b, c, d) == (0, 0, 0, 0):
        return None
    for bump in ((0, 0, 0, 0), (0, 0, 0, p), (0, p, 0, 0), (p, 0, 0, 0),
                 (0, 0, p, 0), (p, 0, 0, p)):
        rows = [[a + bump[0], b + bump[1]], [c + bump[2], d + bump[3]]]
        try:
            m = LocalMatrix.from_integers(ctx, rows)
            if m.e == 0 and m.det_valuation() == 1:
                return m
        except (DomainError, PrecisionExhausted):
            continue
    return None


# ---------------------------------------------------------------------------
# 9. centrality


def centrality_checks(q=2, n=1, samples=100, seed=DEFAULT_SEED):
    ok, fails, total = centrality_check(q, n, count=samples, seed=seed)
    return [Check("hecke-centrality",
                  {"q": q, "n": n, "checks": total}, 0, len(fails),
                  _witness(fails, ("w", "g", "phi_star_f", "f_star_phi")))]


# ---------------------------------------------------------------------------
# 10. census consistency


def census_checks(qs=(4, 7, 13), m=3,
                  boundary_cases=((7, 1, 1, 3), (5, 2, 1, 3))):
    out = []
    for q in qs:
        p, r = factor_prime_power(q)
        curves = enumerate_curves(q)
        rep0 = ss_lefschetz(p, r, 0, m)
        direct = sum(level_m_count(E, m) for E in curves)
        out.append(Check("lefschetz-n0-equals-census",
                         {"q": q, "m": m},
                         direct, int(rep0.total)))
        if q % m == 1:
            out.append(Check("moduli-count-two-components",
                             {"q": q, "m": m}, 2 * (q - 3), direct))
        fails = []
        for E in curves:
            # the trace from the count itself, so a bad count fails this row
            count = E.count()
            trace = q + 1 - count
            if trace**2 > 4 * q or (trace % p == 0) != (count % p == 1 % p):
                fails.append((E.a, trace, count))
        out.append(Check("weil-and-supersingular-criteria", {"q": q}, 0,
                         len(fails), _witness(fails, ("a", "trace", "count"))))
    for (p, r, n, mm) in boundary_cases:
        formula = boundary_ss_trace(p, r, n, mm)
        packets, fixed, sizes_ok = boundary_orbit_report(p, r, n, mm)
        out.append(Check("boundary-formula-vs-enumeration",
                         {"p": p, "r": r, "n": n, "m": mm},
                         [int(formula), True, True],
                         [packets, packets == fixed, sizes_ok]))
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
