"""A broken internal identity is a failed verification: `BrokenIdentity`,
one line on stderr and exit 1, never an AssertionError or a traceback.

Each of the seventeen sites that check such an identity is forced to fail by
a patch, in process and under python -O, where no assert could stand in for
the check.  Thirteen of them are reached by a command.  Four are called
directly:
- `level_m_count`, which only the census campaign reaches, after
  `level_m_count_closed` has read the same curves;
- `phi_support`, which no command lists;
- `cyclotomic_polynomial`, which no command reaches;
- `_o_inverse` on a unit that is not an integer.  Commands invert such
  units only in the Frobenius lift of the ring tables, after the tables
  have inverted every unit, so in a ring where Newton's lift fails those
  tables fail first.  Here the ring is Z[x]/(x^2 + 1) at p = 2, where x is
  a unit but the error 1 - x of its residue inverse is not divisible by 2,
  only its square is, so Newton's lift ends with half the digits it counts
  on.
The memo caches that a site sits behind (the census per q, the unit groups,
the class tables, the local contexts, the ring tables and the cyclotomic
polynomials) are patched fresh.
"""

import json
import os
import subprocess
import sys

SITES = """
import contextlib, functools, io, itertools
from unittest import mock

from gl2lab import curves, cyclotomic, finitegl2, hecke, padic, tree
from gl2lab.cli import main
from gl2lab.errors import BrokenIdentity
from gl2lab.finitegl2 import FiniteGL2
from gl2lab.padic import GaloisRingElement, get_context
from gl2lab.ringtables import RingTableLists

real_order = curves.gl2_order_mod
real_centralizer = finitegl2._centralizer_order
real_irreducible = padic.smallest_irreducible
real_o_inverse = padic._o_inverse
real_inverse, real_pow = GaloisRingElement.inverse, GaloisRingElement.__pow__
real_shell = tree.shell
real_divide = cyclotomic.divide
fresh_units = (finitegl2, "unit_group",
               functools.cache(finitegl2.unit_group.__wrapped__))
SS_TRACE = ["ss-trace", "--p", "3", "--n", "1", "--kind", "ordinary", "--a", "1"]


E = next(E for E in curves.enumerate_curves(7)
         if curves.level_m_count_closed(E, 3))
F2 = FiniteGL2(2, 1)

# site -> (patches (owner, attribute, value), a call or a command line)
SITES = {
    "level_m_count": ([(E, "aut_order", 5)],
                      lambda: curves.level_m_count(E, 3)),
    "level_m_count_closed": (
        [(curves, "gl2_order_mod", lambda N: real_order(N) + 1)],
        ["census", "--q", "7", "--m", "3"]),
    "boundary_ss_trace": (
        [(curves, "gl2_order_mod", lambda N: real_order(N) + 2 * N)],
        ["boundary", "--p", "7", "--n", "1", "--m", "3"]),
    # the last class of GL2(F_2) one element larger, past the class table's
    # own check: at k = 0 the right side's one tally is the class sizes
    "_right_tally": ([(F2, "class_sizes",
                       F2.class_sizes[:-1] + [F2.class_sizes[-1] + 1])],
                     ["verify-bc-unit", "--p", "2", "--r", "2", "--j", "1",
                      "--k", "0"]),
    "_check_point_trace": ([(curves, "ss_trace_point", lambda *a, **k: 12345)],
                           ["census", "--q", "7", "--m", "3", "--n", "1"]),
    # the generators claimed to join every normal form into one orbit
    "_census": ([(curves, "_census",
                  functools.cache(curves._census.__wrapped__)),
                 (curves, "_orbits", lambda perms, size: [(0, size)])],
                ["census", "--q", "7", "--m", "3"]),
    # one more unit than (Z/3)^x has, so no unit generates them all
    "_unit_generators": ([fresh_units, (finitegl2, "_totient_prime_power",
                                        lambda p, n: p**(n - 1) * (p - 1) + 1)],
                         SS_TRACE),
    "UnitGroup": ([fresh_units, (finitegl2, "_unit_generators",
                                 lambda p, n: [(1, 2)])], SS_TRACE),
    "FiniteGL2": ([(FiniteGL2, "_cache", {}),
                   (finitegl2, "_centralizer_order",
                    lambda *a: 2 * real_centralizer(*a))],
                  ["char-table", "--p", "2", "--n", "1"]),
    "canonical_coset_rep": ([(hecke, "_o_sub",
                              lambda x, y: tuple(v + 1 for v in x))],
                            ["verify-central", "--q", "2", "--n", "1",
                             "--samples", "3"]),
    "phi_support": ([(hecke, "canonical_coset_rep", lambda m, n: 0)],
                    lambda: hecke.phi_support(get_context(2, 1, 8), 1)),
    # no monic polynomial passes the irreducibility test
    "smallest_irreducible": ([(padic, "_CTX_CACHE", {}),
                              (padic, "_fp_irreducible", lambda f, p: False)],
                             ["verify-tower", "--q", "2", "--n", "1",
                              "--samples", "3"]),
    # x^2 + 1 = (x + 1)^2 mod 2 made the ring of GR(2^N, 2)
    "_o_inverse": ([(padic, "_CTX_CACHE", {}),
                    (padic, "smallest_irreducible",
                     lambda p, r: (1, 0, 1) if (p, r) == (2, 2)
                     else real_irreducible(p, r))],
                   lambda: get_context(2, 2, 8).generator.inverse()),
    # the Frobenius root's start x = g^3 moved by 3 and each Newton step
    # doubled, so the error keeps its one digit
    "_sigma_columns": ([(padic, "_CTX_CACHE", {}),
                        (RingTableLists, "_cache", {}),
                        (GaloisRingElement, "__pow__",
                         lambda x, k: real_pow(x, k) + x.ctx.p),
                        (GaloisRingElement, "inverse",
                         lambda x: real_inverse(x) * 2)],
                       ["verify-exact-seq", "--p", "3", "--r", "2", "--n", "2",
                        "--samples", "2"]),
    # each Newton step doubled: the unit root's error keeps its one digit
    "unit_eigenvalue": ([(padic, "_o_inverse", lambda x, ctx: tuple(
                            2 * c for c in real_o_inverse(x, ctx)))],
                        ["census", "--q", "7", "--m", "3", "--n", "2"]),
    # the base vertex listed twice
    "enumerate_vertices": ([(tree, "shell", lambda ctx, d: itertools.chain(
                               real_shell(ctx, d),
                               real_shell(ctx, 0) if d == 0 else ()))],
                           ["tree-fixed-set", "--p", "3",
                            "--gamma", "[[3,0],[0,1]]"]),
    # every remainder of the division x^M - 1 by Phi_d moved by one
    "cyclotomic_polynomial": (
        [(cyclotomic, "cyclotomic_polynomial", functools.lru_cache(None)(
            cyclotomic.cyclotomic_polynomial.__wrapped__)),
         (cyclotomic, "divide", lambda a, b: (lambda quo, rem: (
             quo, [rem[0] + 1] + rem[1:]))(*real_divide(a, b)))],
        lambda: cyclotomic.cyclotomic_polynomial(6)),
}


def run_sites():
    out = {}
    for name, (patches, call) in SITES.items():
        with contextlib.ExitStack() as stack:
            for owner, attribute, value in patches:
                stack.enter_context(mock.patch.object(owner, attribute, value))
            if callable(call):
                try:
                    call()
                    out[name] = {"raised": None}
                except BrokenIdentity as exc:
                    out[name] = {"raised": "BrokenIdentity",
                                 "message": str(exc)}
                continue
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \\
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(call)
            out[name] = {"code": code, "stderr": err.getvalue().splitlines()}
    return out
"""

MESSAGES = {
    "level_m_count": "does not act freely on the",
    "level_m_count_closed": "does not divide the 49 bases of E[3]",
    "boundary_ss_trace": "boundary packet count 2305/6 is not an integer",
    "_right_tally": "mod p^0 has 7 units, not |Gamma(p^k)| = 6",
    "_check_point_trace": "point trace at (p, r, n) = (7, 1, 1): "
                          "character sum 12345 != ",
    "_census": "over F_7 has 42 tuples, not a divisor of 6",
    "_unit_generators": "no primitive root found mod 3",
    "UnitGroup": "unit generators [(1, 2)] span 1 of 2 units mod 3",
    "FiniteGL2": "class sizes of GL2(Z/2) sum to 2, not 6",
    "canonical_coset_rep": "is not divisible by p^1",
    "phi_support": "repeats a coset",
    "smallest_irreducible": "no irreducible polynomial found",
    "_o_inverse": "Newton inverse of (0, 1) failed",
    "_sigma_columns": "Hensel lift of the Frobenius root of (1, 0, 1) "
                      "failed at p = 3, N = 2",
    "unit_eigenvalue": "Hensel lift of the unit eigenvalue failed mod p^2",
    "enumerate_vertices": "18 vertices within distance 2, expected 17",
    "cyclotomic_polynomial": "Phi_1 leaves remainder [1]",
}
DIRECT = ("level_m_count", "phi_support", "_o_inverse",
          "cyclotomic_polynomial")


def _check_sites(out):
    assert set(out) == set(MESSAGES)
    for name in DIRECT:
        direct = out.pop(name)
        assert direct["raised"] == "BrokenIdentity", (name, direct)
        assert MESSAGES[name] in direct["message"], (name, direct)
    for name, rep in out.items():
        assert rep["code"] == 1, (name, rep)
        # the command's timing line, then the one line of the failure
        assert len(rep["stderr"]) == 2, (name, rep)
        assert rep["stderr"][-1].startswith("verification failed: "), name
        assert MESSAGES[name] in rep["stderr"][-1], (name, rep)


def test_each_site_fails_with_exit_1_in_process():
    ns = {}
    exec(SITES, ns)
    _check_sites(ns["run_sites"]())


def test_each_site_fails_with_exit_1_under_python_O():
    here = os.path.dirname(os.path.abspath(__file__))
    code = "\n".join([
        "import json, sys",
        "if __debug__:",
        "    sys.exit('not running under python -O')",
        SITES,
        "print(json.dumps(run_sites()))"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(here, os.pardir, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    _check_sites(json.loads(proc.stdout))
