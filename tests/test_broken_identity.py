"""A broken internal identity is a failed verification: `BrokenIdentity`,
one line on stderr and exit 1, never an AssertionError or a traceback.

Each of the six sites that check such an identity is forced to fail by a
patch, in process and under python -O, where no assert could stand in for
the check.  Five of them are reached by a command; `level_m_count` only by
the census campaign, after `level_m_count_closed` has read the same curves,
so it is called directly.  The census of `_census` is cached per q, so its
site patches in a fresh cache.
"""

import json
import os
import subprocess
import sys

SITES = """
import contextlib, functools, io
from unittest import mock

import numpy as np

from gl2lab import curves
from gl2lab.cli import main
from gl2lab.errors import BrokenIdentity
from gl2lab.gl2group import MatGroup

real_order = curves.gl2_order_mod
real_mask = MatGroup.congruence_mask


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
}


def _check_sites(out):
    assert set(out) == set(MESSAGES)
    direct = out.pop("level_m_count")
    assert direct["raised"] == "BrokenIdentity"
    assert MESSAGES["level_m_count"] in direct["message"]
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
