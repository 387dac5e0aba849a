"""The explicit central test functions and their closed-form orbital constants.

phi_p0 is the normalized indicator of the determinant-valuation-1 double
coset of the maximal compact subgroup.  phi_pn (level n >= 1) is the
four-branch function of the invariants (v_p det, v_p tr, k, ell), and
phi_pnt its rational-function deformation, which specializes to phi_pn
at t = q.  c_closed is the closed-form value of the orbital-integral
ratio, and c_r_char the character-theoretic expression for the same
constants at q = p: the semisimple point traces against the idempotent
e_Gamma(p^n) of the level-n characters of GL2(Z/p^n).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DomainError, PrecisionExhausted
from .padic import (ExtendedNat, GaloisRingElement, LocalMatrix,
                    check_phi_level, check_prime_level, ell_min, ell_of, k_of,
                    unit_eigenvalue)
from .ratfunc import RationalFunctionT

OFF_SUPPORT = "off-support"
TRACE_DIVISIBLE = "trace-divisible"
SMALL_ELL = "ell-below-threshold"
LARGE_ELL = "ell-at-least-threshold"


def phi_branch(g: LocalMatrix, n: int):
    """Branch classification of g for the level-n function.

    Returns (branch, k, ell_or_None) where ell is reported as
    min(ell(g), n - k), the only resolution the values consult.
    """
    check_phi_level(n)
    k = k_of(g)
    return branch_key(n, k, g.det_valuation(), g.trace_val_ge,
                      lambda cap: ell_min(g, cap))


def branch_key(n: int, k: int, v_det: int, trace_val_ge, ell_capped):
    """The level-n decision tree on the invariants of an element g.

    k = k(g) and v_det = v_p(det g); trace_val_ge(j) certifies v_p(tr g) >= j
    and ell_capped(c) certifies min(ell(g), c).  Each is called only where
    the tree reads it, so a read that lacks digits raises where it is made.
    """
    if v_det != 1 or not trace_val_ge(0) or k > n - 1:
        return OFF_SUPPORT, k, None
    if trace_val_ge(1):
        return TRACE_DIVISIBLE, k, None
    lm = ell_capped(n - k)
    if lm < n - k:
        return SMALL_ELL, k, lm
    return LARGE_ELL, k, lm


def phi_p0(g: LocalMatrix) -> Fraction:
    """1/(q-1) on the integral primitive determinant-valuation-1 locus, else 0."""
    q = g.ctx.q
    if g.e == 0 and g.det_valuation() == 1:
        return Fraction(1, q - 1)
    g.det_valuation()  # certify invertibility either way
    return Fraction(0)


def phi_pn(g: LocalMatrix, n: int) -> int:
    """The level-n central function, exact integer values."""
    branch, k, ell = phi_branch(g, n)
    if branch == OFF_SUPPORT:
        return 0
    return branch_value(g.ctx.q, n, k, branch == TRACE_DIVISIBLE, ell)


def branch_value(q: int, n: int, k: int, tr_div: bool, ell) -> int:
    """Level-n value at invariant k of a v_p(det) = 1 element, integral trace.

    tr_div: p divides the trace; otherwise ell may be any certified
    min(ell, c) with c >= n - k, since only ell < n - k is consulted.
    """
    if k > n - 1:
        return 0
    if tr_div:
        return -1 - q
    if ell < n - k:
        return 1 - q**(2 * ell)
    return 1 + q**(2 * (n - k) - 1)


def phi_pnt(g: LocalMatrix, n: int) -> RationalFunctionT:
    """Deformed level-n function; phi_pnt(g)(t := q) == phi_pn(g)."""
    return branch_value_t(g.ctx.q, n, *phi_branch(g, n))


def branch_value_t(q: int, n: int, branch: str, k: int,
                   ell) -> RationalFunctionT:
    """Deformed level-n value at a branch key (branch, k, ell) of phi_branch."""
    if branch == OFF_SUPPORT:
        return RationalFunctionT.zero(q)
    if branch == TRACE_DIVISIBLE:
        # -q(1 - t^2)/(q - t^2)
        return RationalFunctionT(q, (-q, 0, q), 1)
    if branch == SMALL_ELL:
        return RationalFunctionT.const(q, 1) - RationalFunctionT.t_power(q, 2 * ell)
    # 1 - (q-1) t^(2(n-k)) / (q - t^2)
    return (RationalFunctionT.const(q, 1)
            - RationalFunctionT(q, (0,) * (2 * (n - k)) + (q - 1,), 1))


# ---------------------------------------------------------------------------
# invariants record


class GammaInvariants(NamedTuple):
    """Conjugation invariants of a determinant-valuation-r element.

    ``ell`` saturates at ``level``: branch predicates only ever compare
    ell against thresholds <= level, and a reported value of exactly
    ``level`` means ">= level" unless ``ell_exact`` is set (in which case
    it is the certified exact value, INF included).  Without ``v_tr_exact``,
    ``v_tr`` is the certified lower bound e + prec >= 1, not the value.
    """

    v_det: int
    v_tr: ExtendedNat
    ell: Optional[ExtendedNat]
    t2_residue: Optional[GaloisRingElement]
    level: int
    ell_exact: bool = False
    v_tr_exact: bool = True

    @classmethod
    def from_matrix(cls, g: LocalMatrix, n: int) -> "GammaInvariants":
        v_det = g.det_valuation()
        if not g.trace_val_ge(0):
            raise DomainError("invariants need an integral trace")
        if g.trace_val_ge(1):
            try:
                return cls(v_det, g.trace_valuation(), None, None, n)
            except PrecisionExhausted:
                return cls(v_det, ExtendedNat(g.e + g.prec), None, None, n,
                           v_tr_exact=False)
        if v_det < 1:   # ell and the unit eigenvalue live on v_det >= 1 only
            return cls(v_det, ExtendedNat(0), None, None, n)
        ell_exact = True
        try:
            ell = ell_of(g)
        except PrecisionExhausted:
            ell = ExtendedNat(ell_min(g, n))
            ell_exact = False
        return cls(v_det, ExtendedNat(0), ell, unit_eigenvalue(g, n), n,
                   ell_exact)

    def t2_int(self) -> int:
        """Unit eigenvalue as an integer residue mod p^n (must be rational)."""
        if self.t2_residue is None:
            raise DomainError("no unit eigenvalue stored")
        c = self.t2_residue.coeffs_mod(self.level)
        if any(c[1:]):
            raise DomainError("unit eigenvalue does not lie in Z/p^n")
        return c[0]


def c_closed(inv: GammaInvariants, n: int, q: int) -> int:
    """Closed-form orbital-integral ratio for the level-n function."""
    if inv.v_det != 1:
        return 0
    if inv.v_tr >= 1:
        return (1 + q) * (1 - q**n)
    if inv.ell is not None and not (inv.ell < n):
        return q**(2 * n) - q**(2 * n - 2)
    return 0


def c_r_char(inv: GammaInvariants, p: int, r: int, n: int) -> int:
    """Character-theoretic value: the two-branch sum over level-n characters,
    traced against the idempotent e_Gamma(p^n) (see `ss_trace_point`).  By
    orthogonality on (Z/p^n)^x the sum is an integer read off the identity's
    Borel row.

    Vanishes unless v_p(det) = r and the trace is integral (integrality is
    part of the invariants record).
    """
    check_prime_level(p, n)
    if inv.v_det != r:
        return 0
    from .finitegl2 import ss_trace_point

    if inv.v_tr >= 1:
        return ss_trace_point("supersingular", p, r, n)
    if inv.t2_residue is None:
        raise DomainError("ordinary branch needs the unit eigenvalue")
    return ss_trace_point("ordinary", p, r, n, a=inv.t2_int())
