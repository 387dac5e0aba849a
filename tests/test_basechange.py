"""Norm map, sigma-conjugacy, unit-group exact sequence, BC unit identity."""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

import group_oracles
from gl2lab import basechange, normcert
from gl2lab.basechange import (bc_unit_identity, sigma_orbits,
                               unit_group_exactness)
from gl2lab.cli import main
from gl2lab.errors import BrokenIdentity, ResourceLimit
from gl2lab.finitegl2 import FiniteGL2
from gl2lab.padic import group_order_gl2
from gl2lab.ringtables import RingTableLists
from gl2group import MatGroup, RingTables
from group_oracles import (_fibre_sums, _right_sums, array_commutant_units,
                           array_norm, array_norm_preimage,
                           array_unit_group_defect,
                           code_order_unit_generators,
                           materialized_sigma_orbits, orbit_label_data,
                           per_call_right_sums, single)


def _mul(mod, x, y):
    """Product of two matrices (a, b, c, d) over Z/mod."""
    return ((x[0] * y[0] + x[1] * y[2]) % mod,
            (x[0] * y[1] + x[1] * y[3]) % mod,
            (x[2] * y[0] + x[3] * y[2]) % mod,
            (x[2] * y[1] + x[3] * y[3]) % mod)


def _inv(mod, x):
    """Inverse of an invertible matrix (a, b, c, d) over Z/mod."""
    di = pow((x[0] * x[3] - x[1] * x[2]) % mod, -1, mod)
    return ((x[3] * di) % mod, (-x[1] * di) % mod,
            (-x[2] * di) % mod, (x[0] * di) % mod)


def brute_conjugacy_classes(p, n):
    """Independent oracle: conjugacy classes of GL2(Z/p^n) by full partition."""
    mod = p**n
    els = [m for m in itertools.product(range(mod), repeat=4)
           if (m[0] * m[3] - m[1] * m[2]) % p != 0]

    unseen = set(els)
    classes = []
    while unseen:
        g = min(unseen)
        orbit = {_mul(mod, _inv(mod, h), _mul(mod, g, h)) for h in els}
        unseen -= orbit
        classes.append((g, len(orbit)))
    return classes


def test_sigma_orbits_221_against_oracle():
    oracle = brute_conjugacy_classes(2, 1)
    assert len(oracle) == 3          # GL2(F_2) is S_3
    tab = sigma_orbits(2, 2, 1)
    assert tab.orbit_count == len(oracle)
    assert tab.bijection
    assert tab.all_centralizers_match()
    assert tab.group_order == 180    # |GL2(F_4)|


def test_sigma_orbit_identity_is_central():
    tab = sigma_orbits(2, 2, 1)
    ident = [o for o in tab.orbits if o.rep == (1, 0, 0, 1)]
    assert len(ident) == 1
    # N(delta) = 1 forces the twisted centralizer to be everything mod norms
    assert ident[0].norm_centralizer == 6  # |GL2(F_2)|


@pytest.mark.parametrize("p,r,n", [(3, 2, 1), (2, 3, 1)])
def test_sigma_orbits_centralizer_match(p, r, n):
    tab = sigma_orbits(p, r, n)
    assert tab.bijection and tab.all_centralizers_match()
    for o in tab.orbits:
        assert o.size * o.tw_centralizer == tab.group_order
    assert sum(o.size for o in tab.orbits) == tab.group_order
    # the counting identity behind surjectivity: summing |G| / |G_gamma|
    # over class representatives recovers the big group's order
    assert sum(tab.group_order // o.norm_centralizer
               for o in tab.orbits) == tab.group_order



def _commutant_loop(G, gamma, scalars):
    """Reference: the units a*1 + b*gamma, one Python (a, b) step at a time."""
    t = G.t
    gm = single(G, [[gamma[0], gamma[1]], [gamma[2], gamma[3]]])
    ident = single(G, [[1, 0], [0, 1]])
    out = []
    for a in scalars:
        for b in scalars:
            m = tuple(int(t.ADD[t.MUL[a, i], t.MUL[b, g]])
                      for i, g in zip(ident, gm))
            if t.UNIT[int(G.det(tuple(np.int64(x) for x in m)))]:
                out.append(m)
    return out


@pytest.mark.parametrize("p,r,n", [(2, 2, 1), (3, 2, 1), (2, 2, 2), (2, 3, 1)])
def test_commutant_search_matches_python_loop(p, r, n):
    # the array routine and the pairs list the same units in the same (a, b)
    # order, so the first norm preimage, and with it the matching, is the
    # same on every path
    G = MatGroup(RingTables(p, r, n))
    ring = RingTableLists(p, r, n)
    for gamma in FiniteGL2(p, n).class_reps:
        gm = single(G, [[gamma[0], gamma[1]], [gamma[2], gamma[3]]])
        matrix = normcert.commutant_ops(ring, gamma)[0]
        for scalars in (range(G.t.Q), range(p**n)):
            loop = _commutant_loop(G, gamma, scalars)
            units = array_commutant_units(G, gm, scalars)
            assert list(zip(*(x.tolist() for x in units))) == loop
            assert [matrix(a, b) for a, b in basechange._commutant_units(
                ring, gamma, scalars)] == loop
        def preimages(ms):
            return (m for m in ms if int(G.encode(*array_norm(
                G, tuple(np.int64(x) for x in m)))) == int(G.encode(*gm)))
        first = next(preimages(_commutant_loop(G, gamma, range(G.t.Q))))
        assert array_norm_preimage(G, gamma) == int(G.idx(first))
        # the certificate searches a scalar gamma on the scalars alone
        if gamma[1] == gamma[2] == 0 and gamma[0] == gamma[3]:
            first = next(preimages((a, 0, 0, a) for a in range(G.t.Q)))
        assert normcert.norm_preimage(ring, gamma) == first


def test_bad_matching_raises(monkeypatch, capsys):
    # every class sent to one delta in the orbit table, and a norm preimage
    # for the first class alone in the certificate: neither matching is a
    # bijection, and that is a failed check with exit 1, not an exception
    from gl2lab import campaigns
    monkeypatch.setattr(group_oracles, "_ORBIT_CACHE", {})
    monkeypatch.setattr(group_oracles, "norm_preimage",
                        lambda ring, gamma: (1, 0, 0, 1))
    tables, G, labels, norm_class = orbit_label_data(2, 2, 1)
    assert np.count_nonzero(norm_class >= 0) == 1
    oracle = materialized_sigma_orbits(3, 2, 1)
    assert not oracle.bijection and len(oracle.orbits) == 1
    assert not campaigns.norm_table_checks(oracle)[1].passed
    real, first = normcert.norm_preimage, FiniteGL2(3, 1).class_reps[0]
    monkeypatch.setattr(normcert, "norm_preimage", lambda ring, gamma: (
        real(ring, gamma) if gamma == first else None))
    tab = sigma_orbits(3, 2, 1)
    assert not tab.bijection and len(tab.orbits) == 1
    rows = {c.name: c for c in campaigns.norm_bijection_checks(cases=((3, 2, 1),))}
    assert not rows["norm-bijection"].passed
    assert rows["norm-bijection"].to_dict()["actual"] is False
    assert main(["verify-norm", "--p", "3", "--r", "2", "--n", "1"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert [c["pass"] for c in rep["checks"]
            if c["name"] == "norm-bijection"] == [False]
    n_classes = len(FiniteGL2(2, 1).class_reps)
    assert bc_unit_identity([1] * n_classes, 0, 2, 2, 1) is False


def test_norm_constant_on_orbits_up_to_conjugacy():
    # N(h^-1 delta h^sigma) lands in the class matched with delta's orbit
    tables, G, labels, norm_class = orbit_label_data(2, 2, 1)
    small = FiniteGL2(2, 1)
    rnd = random.Random(17)
    idxs = rnd.sample(range(G.order), 40)
    for i in idxs:
        delta = tuple(int(c[i]) for c in G.comps)
        cid = int(norm_class[labels[i]])
        # the norm's characteristic polynomial matches the class rep's
        nd = array_norm(G, tuple(np.int64(x) for x in delta))
        gamma = small.class_reps[cid]
        t = tables
        tr_n = int(t.ADD[int(nd[0]), int(nd[3])])
        det_n = int(t.ADD[t.MUL[int(nd[0]), int(nd[3])],
                          t.NEG[t.MUL[int(nd[1]), int(nd[2])]]])
        # trace and determinant lie in the prime subring and match the class
        assert tr_n == (gamma[0] + gamma[3]) % (t.p**t.n)
        assert det_n == (gamma[0] * gamma[3] - gamma[1] * gamma[2]) % (t.p**t.n)


def test_unit_group_exactness_examples():
    assert unit_group_exactness((1, 0, 0, 1), 2, 2, 1)   # identity: ring norms
    assert unit_group_exactness((3, 0, 0, 3), 2, 2, 2)   # scalar
    assert unit_group_exactness((0, 1, 1, 1), 3, 2, 1)


def test_unit_group_sequence_fails_at_its_last_spot_alone(monkeypatch):
    # a norm that keeps its kernel but sends every other unit to -1: the
    # image d2 shrinks to {1, -1}, a proper subgroup of the small units,
    # while the spots before it stay exact
    real = basechange.commutant_ops

    def collapsed(ring, gamma):
        matrix, mul, norm, det, inverse = real(ring, gamma)

        def norm_to_sign(a, b):
            one = matrix(*norm(a, b)) == (1, 0, 0, 1)
            return (1 if one else ring.NEG[1]), 0
        return matrix, mul, norm_to_sign, det, inverse

    gamma = (0, 1, 1, 1)  # x^2 - x - 1 is irreducible mod 3: F_3[gamma] = F_9
    assert basechange.unit_group_defect(gamma, 3, 2, 1) is None
    monkeypatch.setattr(basechange, "commutant_ops", collapsed)
    assert basechange.unit_group_defect(gamma, 3, 2, 1) == (
        "image d2 = small units", 2, 8)
    assert not unit_group_exactness(gamma, 3, 2, 1)


def test_unit_group_exactness_random_222():
    G = FiniteGL2(2, 2)
    rnd = random.Random(23)
    for _ in range(20):
        gamma = G.elements[rnd.randrange(len(G.elements))]
        assert unit_group_exactness(gamma, 2, 2, 2)


def test_bc_unit_constant_function():
    small = FiniteGL2(2, 2)
    const = [1] * len(small.class_reps)
    assert bc_unit_identity(const, 1, 2, 2, 2)


def test_bc_unit_at_k_zero_is_the_counting_identity():
    # k = 0 averages over the full compact group on both sides; equality
    # is exactly the matching of centralizer orders, class by class
    small = FiniteGL2(2, 1)
    for cid in range(len(small.class_reps)):
        ind = [0] * len(small.class_reps)
        ind[cid] = 1
        assert bc_unit_identity(ind, 0, 2, 2, 1)


def test_bc_unit_pointwise_at_k_equals_j():
    # k = j: the idempotent is a point mass, the identity is phi(delta) = f(N delta)
    small = FiniteGL2(2, 1)
    for cid in range(len(small.class_reps)):
        ind = [0] * len(small.class_reps)
        ind[cid] = 1
        assert bc_unit_identity(ind, 1, 2, 2, 1)


def test_bc_unit_class_indicator_2221():
    small = FiniteGL2(2, 2)
    ind = [0] * len(small.class_reps)
    ind[5] = 1
    assert bc_unit_identity(ind, 1, 2, 2, 2)


def _u_loop_sums(G, k, values):
    """Reference left sums: for each row f of values, sum f(u delta) over
    u in Gamma(p^k), one group multiplication per u."""
    sums = np.zeros_like(values)
    for ui in np.nonzero(G.congruence_mask(k))[0]:
        u = tuple(np.full(G.order, int(c[ui]), dtype=np.int64) for c in G.comps)
        sums += values[:, G.idx(G.matmul(u, G.comps))]
    return sums


@pytest.mark.parametrize("p,r,j,k", [(2, 2, 2, 1), (2, 2, 1, 0), (3, 2, 1, 0),
                                     (2, 2, 1, 1), (2, 2, 2, 2), (3, 2, 1, 1),
                                     (2, 3, 1, 1)])
def test_bc_unit_fibre_sums_match_u_loop(p, r, j, k):
    tables, G, labels, norm_class = orbit_label_data(p, r, j)
    classes = range(len(FiniteGL2(p, j).class_reps))
    fs = [[1] * len(classes)]
    fs += [[int(c == cid) for c in classes] for cid in classes]
    fs.append([c * c % 5 for c in classes])
    values = np.asarray(fs, dtype=np.int64)[:, norm_class[labels]]
    fibre_size = int(np.count_nonzero(G.congruence_mask(k)))
    fibre = np.stack([_fibre_sums(G, k, v, fibre_size) for v in values])
    assert np.array_equal(fibre, _u_loop_sums(G, k, values))
    with pytest.raises(BrokenIdentity, match="fibre of reduction"):
        _fibre_sums(G, k, values[0], fibre_size + 1)



def _bc_unit_oracle(fs, k, p, r, j):
    """Reference identity for each function in fs: u-loop left sums, right
    sums over a Python scan of GL2(Z/p^j) for the elements = 1 mod p^k."""
    tables, G, labels, norm_class = orbit_label_data(p, r, j)
    small = FiniteGL2(p, j)
    values = np.asarray(fs, dtype=np.int64)[:, norm_class[labels]]
    left = _u_loop_sums(G, k, values)
    n_left = int(np.count_nonzero(G.congruence_mask(k)))
    pk = p**k
    vs = [x for x in small.elements
          if (x[0] - 1) % pk == 0 and x[1] % pk == 0
          and x[2] % pk == 0 and (x[3] - 1) % pk == 0]
    out = []
    for f, lf in zip(fs, left):
        right = [Fraction(sum(f[small.class_of(_mul(small.mod, v, g))]
                              for v in vs),
                          len(vs)) for g in small.class_reps]
        out.append(all(Fraction(int(lf[i]), n_left)
                       == right[norm_class[labels[i]]] for i in range(G.order)))
    return out


def test_bc_unit_3210_runs_under_default_cap(monkeypatch, capsys):
    # k = 0: the one fibre is all of G_r, 5,760 norms under the cap on norms
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    p, r, j, k = 3, 2, 1, 0
    assert main(["verify-bc-unit", "--p", "3", "--r", "2",
                 "--j", "1", "--k", "0"]) == 0
    assert '"failed": 0' in capsys.readouterr().out
    nclasses = len(FiniteGL2(p, j).class_reps)
    fs = [[1] * nclasses, [int(c == 0) for c in range(nclasses)],
          [c * c % 5 for c in range(nclasses)]]
    assert _bc_unit_oracle(fs, k, p, r, j) == [True] * len(fs)
    assert [bc_unit_identity(f, k, p, r, j) for f in fs] == [True] * len(fs)

def test_bc_unit_against_brute_force_oracle():
    # independent path at (p, r, j, k) = (2, 2, 1, 1): Gamma(p) at modulus p
    # is trivial, so the identity reduces to f~(N delta) = f(class of N delta),
    # with the class found by brute conjugation search inside the big group.
    import itertools as it
    from gl2lab.padic import get_context, norm_map

    ctx = get_context(2, 2, 1)
    els = list(ctx.all_elements())
    group = []
    for quad in it.product(els, repeat=4):
        a, b, c, d = quad
        if (a * d - b * c).is_unit():
            group.append(quad)
    assert len(group) == 180

    def mat_mul(x, y):
        return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])

    def mat_inv(x):
        det = x[0] * x[3] - x[1] * x[2]
        di = det.inverse()
        return (x[3] * di, -x[1] * di, -x[2] * di, x[0] * di)

    small = FiniteGL2(2, 1)
    subring = [m for m in group
               if all(x.coeffs[1] == 0 for x in m)]
    assert len(subring) == 6

    def brute_class(x):
        for h in group:
            y = mat_mul(mat_inv(h), mat_mul(x, h))
            if all(v.coeffs[1] == 0 for v in y):
                return small.class_of(tuple(int(v.coeffs[0]) for v in y))
        raise AssertionError("norm not conjugate to a rational matrix")

    # compare against the orbit-label machinery for every delta
    tables, G, labels, norm_class = orbit_label_data(2, 2, 1)
    for i, delta in enumerate(group):
        nd = norm_map(delta)
        cid = brute_class(nd)
        code = single(G, [[tuple(delta[0].coeffs), tuple(delta[1].coeffs)],
                          [tuple(delta[2].coeffs), tuple(delta[3].coeffs)]])
        assert int(norm_class[labels[int(G.idx(code))]]) == cid


def test_twisted_centralizer_pure_python_scan():
    # recompute |G_(delta sigma)| for each orbit representative without numpy
    from gl2lab.padic import get_context

    tab = sigma_orbits(2, 2, 1)
    ctx = get_context(2, 2, 1)
    els = list(ctx.all_elements())
    import itertools as it
    group = [q for q in it.product(els, repeat=4)
             if (q[0] * q[3] - q[1] * q[2]).is_unit()]

    def mat_mul(x, y):
        return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])

    for o in tab.orbits:
        # the recorded rep is the rational class representative; its chosen
        # norm preimage delta satisfies G_(delta sigma) = G_gamma as sets
        gamma = tuple(ctx.el(v) for v in o.rep)
        delta = None
        for a in els:
            for b in els:
                m = (a + b * gamma[0], b * gamma[1],
                     b * gamma[2], a + b * gamma[3])
                if not (m[0] * m[3] - m[1] * m[2]).is_unit():
                    continue
                from gl2lab.padic import norm_map as nm
                if nm(m) == gamma:
                    delta = m
                    break
            if delta:
                break
        assert delta is not None
        count = 0
        for h in group:
            hs = tuple(x.frobenius() for x in h)
            if mat_mul(delta, hs) == mat_mul(h, delta):
                count += 1
        assert count == o.tw_centralizer


@pytest.mark.parametrize("p,r,n", [(2, 2, 1), (3, 2, 1), (2, 2, 2), (2, 3, 1)])
def test_filtered_twisted_centralizers_match_four_entry_comparison(p, r, n):
    _, G, labels, norm_class = orbit_label_data(p, r, n)
    least = np.unique(labels, return_index=True)[1]
    sig = G.sigma(G.comps)
    tab = sigma_orbits(p, r, n)
    assert len(tab.orbits) == len(least)
    for o in tab.orbits:
        orb = int(np.flatnonzero(norm_class == o.norm_class)[0])
        delta = [np.full(G.order, c[least[orb]]) for c in G.comps]
        lhs = G.matmul(delta, sig)
        rhs = G.matmul(G.comps, delta)
        full = np.count_nonzero(np.all(np.equal(lhs, rhs), axis=0))
        assert o.tw_centralizer == full


def test_ring_tables_consistency():
    t = RingTables(2, 2, 2)
    assert t.Q == 16
    # associativity spot checks through the tables
    rnd = random.Random(3)
    for _ in range(100):
        a, b, c = (rnd.randrange(16) for _ in range(3))
        assert t.MUL[a, t.MUL[b, c]] == t.MUL[t.MUL[a, b], c]
        assert t.ADD[a, b] == t.ADD[b, a]
        assert t.SIG[t.SIG[a]] == a        # sigma^2 = id for r = 2
    G = MatGroup(t)
    assert G.order == 46080               # |GL2(GR(4, 2))|


# ---------------------------------------------------------------------------
# the group is listed only where a check reads it


def test_mat_group_lists_its_elements_only_when_read(monkeypatch):
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    G = MatGroup(RingTables(5, 2, 1))        # 25^4 = 390,625 matrix codes
    # the commutant arithmetic of the array exact sequence needs no listing
    assert array_unit_group_defect((0, 1, 1, 1), 5, 2, 1) is None
    for name in ("comps", "el_codes", "order", "idx_of_code"):
        with pytest.raises(ResourceLimit, match="GL2 matrix-code space"):
            getattr(G, name)


@pytest.mark.parametrize("p,r,n", [(5, 2, 1), (3, 3, 1), (2, 3, 2),
                                   (3, 2, 2), (7, 2, 1)])
def test_exact_sequence_runs_past_the_code_space_cap(capsys, monkeypatch,
                                                     p, r, n):
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    assert p**(4 * n * r) > 200_000
    assert main(["verify-exact-seq", "--p", str(p), "--r", str(r),
                 "--n", str(n)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["summary"] == {"failed": 0, "passed": 1, "total": 1}


def test_exact_sequence_work_is_capped_before_it_starts(capsys, monkeypatch):
    def no_work(*args):
        pytest.fail("exact-sequence work started before the cap")
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    monkeypatch.setattr(RingTableLists, "__init__", no_work)
    monkeypatch.setattr(basechange, "FiniteGL2", no_work)
    # 20,000 samples on 81^2 commutant pairs each
    assert main(["verify-exact-seq", "--p", "3", "--r", "2", "--n", "2",
                 "--samples", "20000"]) == 2
    err = capsys.readouterr().err
    assert "unit-group exactness commutant pairs needs 131220000" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# the right side of the bc-unit identity, in integers mod p^j


@pytest.mark.parametrize("p,r,j,k", [
    (2, 2, 2, 1), (3, 2, 1, 0), (2, 2, 1, 0), (2, 3, 1, 0), (2, 1, 3, 1),
    (2, 2, 2, 2), (2, 2, 2, 0), (2, 2, 1, 1), (3, 2, 1, 1), (3, 1, 2, 0),
    (3, 1, 2, 1), (2, 1, 3, 2), (5, 1, 1, 0), (5, 2, 1, 1), (2, 1, 4, 1),
    (7, 1, 1, 1)])
def test_bc_right_sums_match_the_per_call_orbit_table(p, r, j, k):
    small = FiniteGL2(p, j)
    classes = range(len(small.class_reps))
    n_right = small.order if k == 0 else p**(4 * (j - k))
    # one tally per fibre mod p^k, as bc_unit_defects takes them; the
    # oracle reads every class on its own
    by_fibre = {}
    for gamma in small.class_reps:
        fibre = tuple(c % p**k for c in gamma)
        if fibre not in by_fibre:
            by_fibre[fibre] = basechange._right_tally(small, gamma, k, n_right)
    tallies = np.asarray([by_fibre[tuple(c % p**k for c in gamma)]
                          for gamma in small.class_reps])
    # the constant, every class indicator and a mixed function; the
    # indicators' sums are the tallies' columns
    fs = [[1] * len(classes), [c * c % 5 - 2 for c in classes]]
    for f in fs:
        want, want_n = per_call_right_sums(np.asarray(f), k, p, j)
        assert n_right == want_n
        assert np.array_equal(tallies @ np.asarray(f), want)
    indicators = [[int(c == cid) for c in classes] for cid in classes]
    for cid, indicator in enumerate(indicators):
        want, want_n = _right_sums(np.asarray(indicator), k, p, j)
        assert n_right == want_n and np.array_equal(tallies[:, cid], want)
    assert basechange.bc_unit_defects(fs + indicators, k, p, r, j) == \
        [None] * (len(fs) + len(indicators))


_FORCED_RIGHT = """
import json
from unittest import mock
from gl2lab.basechange import bc_unit_checks
from gl2lab.finitegl2 import FiniteGL2

# each lift on the right side read one class on; the left side reads the
# classes of its norms by its own reader
small = FiniteGL2(2, 2)
real = small.class_of
with mock.patch.object(small, "class_of",
                       lambda x: (real(x) + 1) % len(small.class_reps)):
    print(json.dumps([c.to_dict() for c in bc_unit_checks()]))
"""


def _check_forced_right(rows):
    small = FiniteGL2(2, 2)
    tab, deltas = normcert.certificate(2, 2, 2)
    gamma_of = {delta: o.rep for o, delta in zip(tab.orbits, deltas)}
    # the constant function cannot see a wrong class; each indicator can
    assert rows[0]["pass"] and not any(row["pass"] for row in rows[1:])
    for row in rows[1:]:
        c, wit = row["inputs"]["function"] - 1, row["witness"]
        assert set(wit) == {"delta", "left_average", "right_average"}
        # the left average is the true one; the right one is class c - 1's
        tally = basechange._right_tally(
            small, gamma_of[tuple(json.loads(wit["delta"]))], 1, 16)
        assert Fraction(wit["left_average"]) == Fraction(tally[c], 16)
        assert Fraction(wit["right_average"]) == Fraction(tally[c - 1], 16)


def test_bc_unit_row_fails_on_a_wrong_class_on_the_right_side():
    import contextlib
    import io
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        exec(_FORCED_RIGHT, {})
    _check_forced_right(json.loads(buf.getvalue()))


def test_bc_unit_row_fails_on_a_wrong_class_on_the_right_under_python_O():
    import os
    import subprocess
    import sys
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(here, os.pardir, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys\nif __debug__:\n    sys.exit('not under -O')\n"
            + _FORCED_RIGHT)
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    _check_forced_right(json.loads(proc.stdout))


# ---------------------------------------------------------------------------
# the orbits do not depend on which unit generators the group takes


@pytest.mark.parametrize("p,r,n", [(2, 2, 1), (3, 2, 1), (2, 2, 2), (2, 3, 1)])
def test_sigma_orbits_with_the_code_order_unit_generators(monkeypatch, p, r, n):
    # the orbit closure of the oracle table, under both generator sets
    new = materialized_sigma_orbits(p, r, n).to_dict()
    assert sigma_orbits(p, r, n).to_dict() == new
    monkeypatch.setattr(group_oracles, "_ORBIT_CACHE", {})
    monkeypatch.setattr(RingTableLists, "unit_generators",
                        code_order_unit_generators)
    G = MatGroup(RingTables(p, r, n))
    assert len(G.generators()) == 2 * r + len(
        code_order_unit_generators(G.t.lists))
    assert materialized_sigma_orbits(p, r, n).to_dict() == new


@pytest.mark.parametrize("p,r,n,count", [(3, 2, 1, 5), (2, 2, 2, 6)])
def test_group_generators_take_an_irredundant_unit_set(p, r, n, count):
    t = RingTables(p, r, n)
    assert len(MatGroup(t).generators()) == count
    assert len(code_order_unit_generators(t.lists)) + 2 * r == 7


# ---------------------------------------------------------------------------
# the new routes against the array paths they replaced


BC_CASES = [(2, 2, 2, 1), (3, 2, 1, 0), (2, 2, 1, 0), (2, 3, 1, 0),
            (2, 1, 3, 1), (2, 2, 2, 2)]


def _constant_and_indicators(p, j):
    classes = range(len(FiniteGL2(p, j).class_reps))
    return [[1] * len(classes)] + [[int(c == cid) for c in classes]
                                   for cid in classes]


@pytest.mark.parametrize("p,r,j,k", BC_CASES)
def test_bc_unit_left_sums_match_the_exhaustive_oracle(p, r, j, k):
    from group_oracles import exhaustive_bc_unit_defect, exhaustive_left_sums
    fs = _constant_and_indicators(p, j)
    assert basechange.bc_unit_defects(fs, k, p, r, j) == [
        exhaustive_bc_unit_defect(f, k, p, r, j) for f in fs]
    # the tally at each delta_gamma against the fibre sums over the listed
    # group, at delta_gamma itself
    small, ring = FiniteGL2(p, j), RingTableLists(p, r, j)
    read = basechange._norm_class_reader(ring, small)
    tab, deltas = normcert.certificate(p, r, j)
    assert tab.bijection and len(deltas) == len(small.class_reps)
    for f in fs:
        G, sums, n_left = exhaustive_left_sums(f, k, p, r, j)
        for delta in deltas:
            tally = basechange._fibre_tally(ring, delta, k, read,
                                            len(small.class_reps), n_left)
            assert sum(c * v for c, v in zip(tally, f)) == sums[G.idx(delta)]


def _campaign_gammas(cases=((2, 2, 1), (2, 2, 2), (3, 2, 1)), samples=20):
    """The samples of `exact_sequence_checks` at its defaults."""
    from gl2lab.checks import DEFAULT_SEED
    rnd = random.Random(DEFAULT_SEED)
    for p, r, n in cases:
        G = FiniteGL2(p, n)
        gammas = [(1, 0, 0, 1), (2 % p**n or 1, 0, 0, 2 % p**n or 1)]
        while len(gammas) < samples:
            gammas.append(G.elements[rnd.randrange(len(G.elements))])
        yield from ((g, p, r, n) for g in gammas)


def _every_gamma(cases=((2, 2, 1), (3, 2, 1), (2, 3, 1), (5, 2, 1))):
    for p, r, n in cases:
        yield from ((g, p, r, n) for g in FiniteGL2(p, n).elements)


def test_exact_sequence_matches_the_array_oracle():
    cases = list(_campaign_gammas()) + list(_every_gamma())
    assert len(cases) == 60 + 6 + 48 + 6 + 480
    for gamma, p, r, n in cases:
        assert basechange.unit_group_defect(gamma, p, r, n) == \
            array_unit_group_defect(gamma, p, r, n), (gamma, p, r, n)


def test_exact_sequence_faults_match_the_array_oracle(monkeypatch):
    # one small unit dropped on both paths: the same spot, the same sizes
    real = basechange._commutant_units

    def short(ring, gamma, scalars):
        units = real(ring, gamma, scalars)
        return units if len(scalars) == ring.Q else units[1:]

    def array_short(G, gm, scalars):
        units = array_commutant_units(G, gm, scalars)
        return units if len(scalars) == G.t.Q else tuple(x[1:] for x in units)
    monkeypatch.setattr(basechange, "_commutant_units", short)
    seen = set()
    for gamma, p, r, n in _every_gamma(((2, 2, 1), (3, 2, 1), (2, 3, 1))):
        defect = basechange.unit_group_defect(gamma, p, r, n)
        assert defect == array_unit_group_defect(gamma, p, r, n,
                                                 units=array_short)
        seen.add(defect and defect[0])
    assert "sigma-fixed units = small units" in seen and None in seen


@pytest.mark.parametrize("p,r,j,k", [(2, 3, 2, 1), (3, 2, 2, 1)])
def test_bc_unit_runs_past_the_code_space_cap(capsys, monkeypatch, p, r, j, k):
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    assert p**(4 * r * j) > 200_000
    assert main(["verify-bc-unit", "--p", str(p), "--r", str(r),
                 "--j", str(j), "--k", str(k)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["summary"] == {"failed": 0, "passed": 3, "total": 3}


def test_bc_unit_norms_are_capped_before_any_work(capsys, monkeypatch):
    def no_work(*args):
        pytest.fail("bc-unit work started before the cap")
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    monkeypatch.setattr(RingTableLists, "__init__", no_work)
    monkeypatch.setattr(basechange, "FiniteGL2", no_work)
    # k = 0 at (3, 2, 2): the one fibre is all of GL2(GR(9, 2))
    assert main(["verify-bc-unit", "--p", "3", "--r", "2", "--j", "2",
                 "--k", "0"]) == 2
    err = capsys.readouterr().err
    assert f"bc-unit norms needs {group_order_gl2(9, 2)} elements" in err
    assert "Traceback" not in err


def test_bc_unit_functions_are_read_after_the_cap(monkeypatch):
    # bc_unit_checks hands its functions as a generator, whose lists are
    # as long as the class count; none may be drawn before the cap
    def functions():
        pytest.fail("bc-unit functions read before the cap")
        yield
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    with pytest.raises(ResourceLimit, match="bc-unit norms needs"):
        basechange.bc_unit_defects(functions(), 0, 3, 2, 2)


_FORCED_BC = """
import json, sys
from unittest import mock
from gl2lab import basechange, campaigns, normcert

real_reader, real_classes = basechange._norm_class_reader, normcert._classes


def shifted(ring, G):
    read = real_reader(ring, G)
    return lambda *x: (read(*x) + 1) % len(G.class_reps)


out = {}
for name, patch in [
        ("wrong-class", (basechange, "_norm_class_reader", shifted)),
        ("dropped-class", (normcert, "_classes",
                           lambda p, n: real_classes(p, n)[:-1]))]:
    with mock.patch.object(*patch):
        out[name] = [c.to_dict() for c in campaigns.bc_unit_checks()]
print(json.dumps(out))
"""


def _check_forced_bc(out):
    from gl2lab.normcert import _classes
    small = FiniteGL2(2, 2)
    deltas = normcert.certificate(2, 2, 2)[1]
    wrong, dropped = out["wrong-class"], out["dropped-class"]
    # the constant function cannot see a wrong class; an indicator can,
    # and its witness is a delta_gamma with both averages
    assert wrong[0]["pass"] and not any(row["pass"] for row in wrong[1:])
    for row in wrong[1:]:
        assert set(row["witness"]) == {"delta", "left_average",
                                       "right_average"}
        assert tuple(json.loads(row["witness"]["delta"])) in deltas
        assert row["witness"]["left_average"] != row["witness"]["right_average"]
    # without its last class the twisted class equation fails, and every
    # row names that class
    last = _classes(2, 2)[-1][1]
    assert last == small.class_reps[-1]
    for row in dropped:
        assert not row["pass"]
        assert row["witness"]["class"] == str(last)
        assert row["witness"]["group_order"] == str(group_order_gl2(4, 2))


def test_bc_unit_row_fails_on_a_wrong_or_dropped_class():
    ns = {}
    import contextlib
    import io
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        exec(_FORCED_BC, ns)
    _check_forced_bc(json.loads(buf.getvalue()))


def test_bc_unit_row_fails_on_a_wrong_or_dropped_class_under_python_O():
    import os
    import subprocess
    import sys
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(here, os.pardir, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys\nif __debug__:\n    sys.exit('not under -O')\n" + _FORCED_BC
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    _check_forced_bc(json.loads(proc.stdout))


def test_one_list_table_per_ring_over_the_finite_campaigns(monkeypatch):
    import collections
    import functools

    from gl2lab import campaigns, curves
    built, real = collections.Counter(), RingTableLists._build

    def counted(self, p, r, n):
        built[(p, r, n)] += 1
        real(self, p, r, n)
    # every cache above the lists starts empty, so every caller asks
    monkeypatch.setattr(RingTableLists, "_cache", {})
    monkeypatch.setattr(RingTableLists, "_build", counted)
    monkeypatch.setattr(curves.SmallField, "_cache", {})
    monkeypatch.setattr(curves, "_census",
                        functools.cache(curves._census.__wrapped__))
    for name in ("norm-bijection", "exact-sequence", "bc-unit",
                 "cross-identity", "drinfeld", "census"):
        assert all(c.passed for c in campaigns.ALL_CAMPAIGNS[name]())
    # GR(2, 2) serves the certificate, the exact sequence and F_4
    assert {(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 1), (7, 1, 1)} <= set(built)
    assert set(built.values()) == {1}, built
