"""The verification batteries that load no table layer.

Tower identity, orbital ratios, the tree lemma and Hecke centrality run on
Galois-ring arithmetic alone (`padic`, `testfunc`, `tree`, `hecke`).  The
character identities of GL2(Z/p^n) (cross-identity, Drinfeld) run on the
class table of `finitegl2`, which they import when they run, so the
local-path commands never load it.  None of these loads the ring tables;
`campaigns` re-exports them with the other batteries.  Every comparison is
exact; a failing check carries the two values.
"""

from __future__ import annotations

import itertools
import random

from . import DEFAULT_SEED
from .errors import DomainError, PrecisionExhausted, check_cap
from .hecke import (_int_valuations, centrality_check,
                    tower_identity_check)
from .padic import (ExtendedNat, LocalMatrix, _o_det, factor_prime_power,
                    get_context, k_of, vp_int)
from .rows import Check, _witness
from .testfunc import GammaInvariants, c_closed, c_r_char
from .tree import (enumerate_vertices, fixed_set, orbital_ratio,
                   stabilized_line_count, stabilizes)


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
    """Branch-covering determinant-valuation-1 integral matrices.

    A random draw is kept when its integer rows have content prime to p and
    v_p(ad - bc) = 1, before a LocalMatrix is built: those are its e and
    v(det), and with e = 0 the trace is integral, so the integer tests keep
    exactly the draws that the LocalMatrix tests kept."""
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
        if _int_valuations(rows, p) == (0, 1):
            sample.append(LocalMatrix.from_integers(ctx, rows))
    return sample


def orbital_checks(cases=((2, 1), (2, 2), (3, 1), (3, 2)), per=50,
                   seed=DEFAULT_SEED):
    out = []
    for (q, n) in cases:
        if n < 1:
            raise DomainError(f"orbital checks need n >= 1, got {n}")
        # per points (or the at most n + 4 anchors), each a sum over n shells
        # at precision 2n + 6, so the work grows as points times n
        check_cap(max(per, n + 4) * n, "orbital ratio shell sums",
                  default=50_000)
        ctx = get_context(q, 1, 2 * n + 6)
        sample = _orbital_sample(ctx, n, per, seed)
        branches = {"trace-divisible": 0, "ell-at-least-n": 0, "ell-below-n": 0}
        fails = []  # (gamma, closed form, ratio), one per failed comparison
        for g in sample:
            ratio, supported = orbital_ratio(g, n)
            inv = GammaInvariants.from_matrix(g, n)
            closed = c_closed(inv, n, q)
            if inv.v_tr >= 1:
                branches["trace-divisible"] += 1
                # the proof-line coefficient is ratio / (q - 1)
                coeff = -(1 + q) * sum(q**i for i in range(n))
                branch = coeff * (q - 1)
            elif not (inv.ell < n):
                branches["ell-at-least-n"] += 1
                branch = (q**(2 * n - 1) + q**(2 * n - 2)) * (q - 1)
            else:
                branches["ell-below-n"] += 1
                branch = 0
            fails += [(g, want, ratio) for want in (closed, branch)
                      if ratio != want]
        out.append(Check("orbital-ratio-closed-form",
                         {"q": q, "n": n, "samples": len(sample),
                          "branches": branches},
                         0, len(fails),
                         _witness(fails, ("gamma", "closed_form", "ratio"))))
        # at p = 2 every unit is 1 mod 2, so ell < n is unreachable for n = 1
        reachable = ["trace-divisible", "ell-at-least-n"]
        if q != 2 or n >= 2:
            reachable.append("ell-below-n")
        unreached = [b for b in reachable if not branches[b]]
        out.append(Check("orbital-branch-coverage", {"q": q, "n": n}, True,
                         not unreached,
                         {"unreached": unreached, "branches": branches}))
    return out


# ---------------------------------------------------------------------------
# 6. character cross-identity


def cross_identity_checks(ps=(2, 3), ns=(1, 2)):
    from .finitegl2 import ss_trace_closed

    out = []
    for p in ps:
        for n in ns:
            ctxn = get_context(p, 1, n + 2)
            fails = []  # (input, closed form, character sum) per failed comparison

            def compare(point, inv, vanishes=False):
                closed, chars = c_closed(inv, n, p), c_r_char(inv, p, 1, n)
                if closed != chars or (vanishes and closed != 0):
                    fails.append((point, closed, chars))

            compare("trace-divisible",
                    GammaInvariants(1, ExtendedNat(1), None, None, n))
            # the explicit identity (1+p)(1-p^n) = 1 - p (p^n + p^(n-1) - 1)
            if (1 + p) * (1 - p**n) != ss_trace_closed(p, 1, n):
                fails.append(("identity", (1 + p) * (1 - p**n),
                              ss_trace_closed(p, 1, n)))
            # ordinary branch, every unit eigenvalue residue (ell = v_p(a - 1))
            for a in range(1, p**n):
                if a % p != 0:
                    compare(f"a = {a}", GammaInvariants(
                        1, ExtendedNat(0), vp_int(a - 1, p), ctxn.el(a), n))
            # off-support: v_det != 1, where both sides vanish
            compare("off-support",
                    GammaInvariants(2, ExtendedNat(1), None, None, n), True)
            out.append(Check("c-closed-vs-characters", {"p": p, "n": n}, 0,
                             len(fails), _witness(fails, ("input", "closed_form",
                                                          "characters"))))
    return out


# ---------------------------------------------------------------------------
# 7. Drinfeld decomposition and dual-path traces


def drinfeld_checks(pns=((2, 1), (3, 1), (2, 2), (3, 2))):
    from .finitegl2 import (FiniteGL2, fixed_surjections, ss_trace_closed,
                            ss_trace_point)

    out = []
    for (p, n) in pns:
        G = FiniteGL2(p, n)
        # sum_chi Ind(1 x chi)(c) = phi(p^n) borel_counts[c][1], by
        # orthogonality on (Z/p^n)^x: one integer comparison per class
        counts = ((rep, fixed_surjections(p, n, rep), G.char_order * borel[1])
                  for rep, borel in zip(G.class_reps, G.borel_counts))
        fails = [c for c in counts if c[1] != c[2]]
        out.append(Check("drinfeld-decomposition", {"p^n": p**n},
                         True, not fails,
                         _witness(fails, ("representative", "surjections",
                                          "phi_borel"))))
        # dual-path ss traces across all unit eigenvalue residues
        fails = []  # (point, character sum, second path) per failed comparison
        for a in range(1, p**n):
            if a % p == 0:
                continue
            char_path = ss_trace_point("ordinary", p, 1, n, a=a)
            fixed_path = fixed_surjections(p, n, (1, 0, 0, 1), a=a)
            if char_path != fixed_path:
                fails.append((f"a = {a}", char_path, fixed_path))
        ss_char = ss_trace_point("supersingular", p, 1, n)
        if ss_char != ss_trace_closed(p, 1, n):
            fails.append(("supersingular", ss_char, ss_trace_closed(p, 1, n)))
        out.append(Check("ss-trace-dual-path", {"p": p, "n": n}, 0, len(fails),
                         _witness(fails, ("point", "character_sum",
                                          "second_path"))))
        # dimension bookkeeping: deg Ind(1) is the number of lines the
        # identity fixes, and St = Ind(1) - 1
        lines = sum(G.borel_counts[G.identity_class])
        out.append(Check("principal-series-degrees", {"p": p, "n": n},
                         [p**n + p**(n - 1), p**n + p**(n - 1) - 1],
                         [lines, lines - 1]))
    return out


# ---------------------------------------------------------------------------
# 8. tree lemma


def tree_checks(qs=(2, 3), probes=100, seed=DEFAULT_SEED):
    """The tree lemma over GR(p, r), q = p^r: probes of the nearest stabilized
    vertex and k, and the stabilized neighbours of every residue matrix mod
    p of determinant 0, q^4 of them with q + 1 neighbours each (capped)."""
    check_cap(probes, "tree-lemma probes", default=10_000)
    for q in qs:
        check_cap(q**4 * (q + 1), "tree-lemma residue neighbours")
    out = []
    for q in qs:
        p, r = factor_prime_power(q)
        ctx = get_context(p, r, 14)
        bad_unique, bad_k = [], []
        for g, k in itertools.islice(_tree_probes(ctx, seed + q), probes):
            rep = fixed_set(g, k + 1)
            if not rep.nearest_unique:
                bad_unique.append((g, rep.nearest, rep.nearest_unique))
            if rep.k_tree != k:
                bad_k.append((g, k, rep.k_tree))
        out.append(Check("nearest-vertex-unique", {"q": q, "probes": probes},
                         0, len(bad_unique),
                         _witness(bad_unique,
                                  ("gamma", "nearest", "nearest_unique"))))
        out.append(Check("k-tree-equals-k", {"q": q, "probes": probes},
                         0, len(bad_k),
                         _witness(bad_k, ("gamma", "k", "k_tree"))))
        # neighbor counts, exhaustive over residue matrices mod p
        bad_counts = []  # (gamma, values), one per failed comparison
        seen_counts = set()
        residues = list(itertools.product(range(p), repeat=r))  # F_q
        for residue in itertools.product(residues, repeat=4):
            lifted = _lift_det_val_one(ctx, residue)
            if lifted is None:
                continue
            fixed_lines = stabilized_line_count(lifted)
            stab_nbrs = sum(1 for v in enumerate_vertices(ctx, 1)
                            if v.d == 1 and stabilizes(lifted, v))
            expected = 1 if lifted.trace_val_ge(1) else 2
            seen_counts.add(q + 1 - fixed_lines)
            for ok in (fixed_lines == stab_nbrs, fixed_lines == expected,
                       q + 1 - fixed_lines in (q, q - 1)):
                if not ok:
                    bad_counts.append((lifted, fixed_lines, stab_nbrs,
                                       expected))
        out.append(Check("neighbor-non-stabilized-counts",
                         {"q": q, "counts_seen": sorted(seen_counts)},
                         0, len(bad_counts),
                         _witness(bad_counts,
                                  ("gamma", "fixed_lines",
                                   "stabilized_neighbors", "expected"))))
    return out


def _tree_probes(ctx, seed):
    """Endless (g, k(g)) with g = h^-1 g0 h, g0 integral with v(det) = 1 and
    v(det h) <= 2, entries below q^3, and k(g) <= 3.

    Both are tested on their integer rows before a LocalMatrix is built:
    g0 on content prime to p and v_p(ad - bc) = 1, h on v_p(ad - bc) <= 2,
    a singular draw rejected as one; those are e and v(det) of the matrices,
    so the integer tests keep exactly the draws the LocalMatrix tests kept."""
    p, q = ctx.p, ctx.q
    rnd = random.Random(seed)
    while True:
        rows = [[rnd.randrange(q**3) for _ in range(2)] for _ in range(2)]
        if _int_valuations(rows, p) != (0, 1):
            continue
        hrows = [[rnd.randrange(q**3) for _ in range(2)] for _ in range(2)]
        v_det = _int_valuations(hrows, p)[1]
        if v_det is None or v_det > 2:
            continue
        g = LocalMatrix.from_integers(ctx, rows).conjugate_by(
            LocalMatrix.from_integers(ctx, hrows))
        k = k_of(g)
        if k <= 3:
            yield g, k


def _lift_det_val_one(ctx, residue):
    """Integral lift with det valuation exactly 1 of a residue matrix mod p,
    its entries F_q coefficient tuples, of determinant 0 in F_q."""
    p = ctx.p
    if (any(c % p for c in _o_det(residue, ctx.defining_poly))
            or not any(itertools.chain(*residue))):
        return None
    for bump in ((0, 0, 0, 0), (0, 0, 0, p), (0, p, 0, 0), (p, 0, 0, 0),
                 (0, 0, p, 0), (p, 0, 0, p)):
        a, b, c, d = ((x[0] + s,) + x[1:] for x, s in zip(residue, bump))
        try:
            m = LocalMatrix.from_integers(ctx, [[a, b], [c, d]])
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
