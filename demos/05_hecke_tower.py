"""Convolution identities in the level-n Hecke algebra.

The deformed functions satisfy an exact descent identity: averaging the
level-(n+1) function over a coset of the level-n congruence subgroup
reproduces the level-n function, as an identity of rational functions in
the deformation variable.  Centrality of the undeformed function is
checked against double-coset generators by computing both convolutions.
"""

import itertools

from gl2lab.hecke import (canonical_coset_rep, centrality_check, convolve,
                          double_coset_indicator, phi_support,
                          tower_identity_check)
from gl2lab.padic import LocalMatrix, get_context
from gl2lab.ratfunc import RationalFunctionT
from gl2lab.testfunc import phi_pn, phi_pnt

q, n = 2, 1
ctx = get_context(q, 1, 12)

g = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
print(f"descent by averaging at g = {g}:")
# The worked example: one product g u and one value per u.  The campaign
# below takes the fast path, hecke.tower_key_histogram, which classifies
# the q trace residues tr M + p^n y, each standing for q^3 of the u,
# without forming g u.  The q^4 = 16 elements u = 1 + p^n X of
# Gamma(p^n) / Gamma(p^(n+1)) have X with entries in {0, 1}.
acc = RationalFunctionT.zero(q)
for x11, x12, x21, x22 in itertools.product(range(q), repeat=4):
    u = LocalMatrix.from_integers(ctx, [[1 + q**n * x11, q**n * x12],
                                        [q**n * x21, 1 + q**n * x22]])
    acc = acc + phi_pnt(g @ u, n + 1)
avg = acc / q**4
print(f"  average of the level-{n+1} values over g Gamma(p^{n}): {avg}")
print(f"  level-{n} value:                                      {phi_pnt(g, n)}")
assert avg == phi_pnt(g, n)
print()

ok, fails, cnt = tower_identity_check(q, n, count=100)
print(f"tower identity on {cnt} branch-covering samples: {ok}")
print()

# phi * f from the listed support of phi ({coset key: (rep, value)}), f
# read by coset key; f * phi from the cosets of KwK and the formula
sup = phi_support(ctx, n)
print(f"support of the level-{n} function: {len(sup)} right cosets")
w = LocalMatrix.from_integers(ctx, [[0, 1], [1, 0]])
f = double_coset_indicator(ctx, n, w)
f_keys = {canonical_coset_rep(h, n) for h in f}
pts = [LocalMatrix.from_integers(ctx, [[2, 1], [2, 3]]),
       LocalMatrix.from_integers(ctx, [[0, 2], [1, 0]])]
left = convolve(ctx, n, sup.values(),
                lambda g: int(canonical_coset_rep(g, n) in f_keys), pts)
right = convolve(ctx, n, [(h, 1) for h in f], lambda g: phi_pn(g, n), pts)
for g, l, r in zip(pts, left, right):
    print(f"  (phi * f)({g}) = {l}   (f * phi)({g}) = {r}")
    assert l == r
ok, fails, total = centrality_check(q, n, count=40)
print(f"centrality against 3 generators, {total} exact checks: {ok}")
