"""Convolution identities in the level-n Hecke algebra.

The deformed functions satisfy an exact descent identity: averaging the
level-(n+1) function over a coset of the level-n congruence subgroup
reproduces the level-n function, as an identity of rational functions in
the deformation variable.  Centrality of the undeformed function is
checked against double-coset generators by computing both convolutions.
"""

from gl2lab.hecke import (centrality_check, congruence_elements, convolve,
                          double_coset_indicator, phi_formula, phi_support,
                          tower_identity_check)
from gl2lab.padic import LocalMatrix, get_context
from gl2lab.ratfunc import RationalFunctionT
from gl2lab.testfunc import phi_pnt

q, n = 2, 1
ctx = get_context(q, 1, 12)

g = LocalMatrix.from_integers(ctx, [[2, 0], [0, 1]])
print(f"descent by averaging at g = {g}:")
# The worked example: one product g u and one value per u.  The campaign
# below takes the fast path, hecke.tower_key_histogram, which classifies
# the q trace residues tr M + p^n y, each standing for q^3 of the u,
# without forming g u.
acc = RationalFunctionT.zero(q)
for u in congruence_elements(ctx, n, 1):
    acc = acc + phi_pnt(g @ u, n + 1)
avg = acc / q**4
print(f"  average of the level-{n+1} values over g Gamma(p^{n}): {avg}")
print(f"  level-{n} value:                                      {phi_pnt(g, n)}")
assert avg == phi_pnt(g, n)
print()

ok, fails, cnt = tower_identity_check(q, n, count=100)
print(f"tower identity on {cnt} branch-covering samples: {ok}")
print()

sup = phi_support(ctx, n)
print(f"support of the level-{n} function: {len(sup.support)} right cosets")
w = LocalMatrix.from_integers(ctx, [[0, 1], [1, 0]])
f = double_coset_indicator(ctx, n, w)
pts = [LocalMatrix.from_integers(ctx, [[2, 1], [2, 3]]),
       LocalMatrix.from_integers(ctx, [[0, 2], [1, 0]])]
left = convolve(sup, f, pts)
right = convolve(f, phi_formula(ctx, n), pts)
for g, l, r in zip(pts, left, right):
    print(f"  (phi * f)({g}) = {l}   (f * phi)({g}) = {r}")
    assert l == r
ok, fails, total = centrality_check(q, n, count=40)
print(f"centrality against 3 generators, {total} exact checks: {ok}")
