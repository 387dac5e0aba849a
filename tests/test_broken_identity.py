"""A broken internal identity is a failed verification: `BrokenIdentity`,
one line on stderr and exit 1, never an AssertionError or a traceback.

Each of the eleven sites that check such an identity is forced to fail by a
patch, in process and under python -O, where no assert could stand in for
the check.  Nine of them are reached by a command.  Two are called
directly: `level_m_count`, which only the census campaign reaches, after
`level_m_count_closed` has read the same curves, and `phi_support`, which no
command lists.  The memo caches that a site sits behind (the census per q,
the unit groups and the class tables) are patched fresh.
"""

import json
import os
import subprocess
import sys

SITES = """
import contextlib, functools, io
from unittest import mock

import numpy as np

from gl2lab import curves, finitegl2, hecke
from gl2lab.cli import main
from gl2lab.errors import BrokenIdentity
from gl2lab.finitegl2 import FiniteGL2
from gl2lab.gl2group import MatGroup
from gl2lab.padic import get_context

real_order = curves.gl2_order_mod
real_mask = MatGroup.congruence_mask
real_centralizer = finitegl2._centralizer_order
fresh_units = (finitegl2, "unit_group",
               functools.cache(finitegl2.unit_group.__wrapped__))
SS_TRACE = ["ss-trace", "--p", "3", "--n", "1", "--kind", "ordinary", "--a", "1"]


def one_more(self, k):
    mask = real_mask(self, k).copy()
    mask[np.argmin(mask)] = True
    return mask


E = next(E for E in curves.enumerate_curves(7)
         if curves.level_m_count_closed(E, 3))

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
    "_fibre_sums": ([(MatGroup, "congruence_mask", one_more)],
                    ["verify-bc-unit", "--p", "2", "--r", "2", "--j", "1",
                     "--k", "1"]),
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
    "_fibre_sums": "a fibre of reduction mod 2 does not have",
    "_check_point_trace": "point trace at (p, r, n) = (7, 1, 1): "
                          "character sum 12345 != ",
    "_census": "over F_7 has 42 tuples, not a divisor of 6",
    "_unit_generators": "no primitive root found mod 3",
    "UnitGroup": "unit generators [(1, 2)] span 1 of 2 units mod 3",
    "FiniteGL2": "class sizes of GL2(Z/2) sum to 2, not 6",
    "canonical_coset_rep": "is not divisible by p^1",
    "phi_support": "repeats a coset",
}
DIRECT = ("level_m_count", "phi_support")


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
