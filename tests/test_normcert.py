"""The norm certificate against the materialized sigma-orbit table, its
reach past the group listing, its cap, and its forced faults.

Each forced fault is one step of the certificate gone wrong: a class
without a norm preimage, a wrong twisted centralizer order, a class dropped
from the class table.  Each must fail a norm row that names that class, in
process and under python -O.
"""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from gl2lab import normcert
from gl2lab.cli import main
from gl2lab.finitegl2 import FiniteGL2
from gl2lab.normcert import _smith, norm_table_checks, sigma_orbits
from gl2lab.ringtables import RingTableLists
from group_oracles import materialized_sigma_orbits

# every (p, r, n) whose group the materialized table lists under the
# default cap, p^(4nr) <= 200,000
ORACLE_CASES = [(p, r, n) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
                for r in range(1, 5) for n in range(1, 5)
                if p**(4 * n * r) <= 200_000]


@pytest.mark.parametrize("p,r,n", ORACLE_CASES)
def test_certificate_equals_the_materialized_table(p, r, n):
    cert, oracle = sigma_orbits(p, r, n), materialized_sigma_orbits(p, r, n)
    assert cert.bijection and cert.orbit_count == len(FiniteGL2(p, n).class_reps)
    assert cert == oracle
    assert ([c.to_dict() for c in norm_table_checks(cert)]
            == [c.to_dict() for c in norm_table_checks(oracle)])


@pytest.mark.parametrize("p,r,n", [(5, 2, 1), (3, 3, 1), (2, 3, 2), (3, 2, 2),
                                   (7, 2, 1)])
def test_verify_norm_runs_past_the_code_space_cap(capsys, monkeypatch, p, r, n):
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    assert p**(4 * n * r) > 200_000
    assert main(["verify-norm", "--p", str(p), "--r", str(r),
                 "--n", str(n)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["summary"] == {"failed": 0, "passed": 4, "total": 4}
    assert rep["table"]["orbit_count"] == len(FiniteGL2(p, n).class_reps)


def test_norm_search_is_capped_before_it_starts(capsys, monkeypatch):
    def no_work(*args):
        pytest.fail("norm certificate work started before the cap")
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    monkeypatch.setattr(RingTableLists, "__init__", no_work)
    monkeypatch.setattr(normcert, "FiniteGL2", no_work)
    # 620 classes of GL2(Z/25), each on 625^2 commutant pairs
    assert main(["verify-norm", "--p", "5", "--r", "2", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert "norm preimage search pairs needs 242187500" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("p,n,size", [(2, 2, 3), (3, 2, 3), (2, 3, 2),
                                      (5, 1, 4), (3, 1, 5)])
def test_smith_form_kernel_size_matches_a_count(p, n, size):
    rnd = random.Random(p * 100 + n * 10 + size)
    mod = p**n
    for _ in range(20):
        # low-rank and non-unit entries as well as generic ones
        rows = [[rnd.choice([0, p, rnd.randrange(mod)]) for _ in range(size)]
                for _ in range(size - 1)]
        rows.append([sum(rnd.randrange(2) * row[j] for row in rows) % mod
                     for j in range(size)])
        exponents, C = _smith([list(row) for row in rows], p, n)
        kernel = sum(all(sum(a * x for a, x in zip(row, vec)) % mod == 0
                         for row in rows)
                     for vec in itertools.product(range(mod), repeat=size))
        assert p**sum(exponents) == kernel
        # C is invertible: its determinant is a unit mod p
        assert _det(C, mod) % p


def _det(M, mod):
    """Determinant mod `mod` by cofactor expansion (small matrices)."""
    if len(M) == 1:
        return M[0][0] % mod
    return sum((-1)**j * M[0][j] * _det([row[:j] + row[j + 1:]
                                         for row in M[1:]], mod)
               for j in range(len(M))) % mod


# the three faults, at the fourth class of GL2(F_3) in the (3, 2, 1) table
FAULTS = """
from gl2lab import normcert
from gl2lab.finitegl2 import FiniteGL2
from gl2lab.ringtables import RingTableLists

real = {name: getattr(normcert, name) for name in (
    "norm_preimage", "twisted_centralizer_order", "_classes")}
bad = FiniteGL2(3, 1).class_reps[3]
bad_delta = real["norm_preimage"](RingTableLists(3, 2, 1), bad)
FAULTS = {
    "norm_preimage": lambda ring, gamma: (
        None if gamma == bad else real["norm_preimage"](ring, gamma)),
    "twisted_centralizer_order": lambda ring, delta: (
        real["twisted_centralizer_order"](ring, delta) + (delta == bad_delta)),
    "_classes": lambda p, n: [c for c in real["_classes"](p, n)
                              if c[1] != bad],
}


def fault_rows():
    out = {}
    for name, fault in FAULTS.items():
        setattr(normcert, name, fault)
        try:
            out[name] = [c.to_dict() for c in
                         normcert.norm_bijection_checks(cases=((3, 2, 1),))]
        finally:
            setattr(normcert, name, real[name])
    return out
"""

# fault -> (the rows it fails, the rows among them that name the class)
EXPECTED = {
    "norm_preimage": ({"sigma-orbit-count", "norm-bijection",
                       "orbit-stabilizer"},
                      {"norm-bijection", "orbit-stabilizer"}),
    "twisted_centralizer_order": ({"norm-bijection", "centralizer-orders",
                                   "orbit-stabilizer"},
                                  {"norm-bijection", "centralizer-orders",
                                   "orbit-stabilizer"}),
    "_classes": ({"sigma-orbit-count", "norm-bijection", "orbit-stabilizer"},
                 {"norm-bijection", "orbit-stabilizer"}),
}


def _check_fault_rows(out):
    bad = str(FiniteGL2(3, 1).class_reps[3])
    assert set(out) == set(EXPECTED)
    for name, rows in out.items():
        rows = {row["name"]: row for row in rows}
        failed = {k for k, row in rows.items() if not row["pass"]}
        named = {k for k in failed
                 if (rows[k].get("witness") or {}).get("class") == bad}
        assert (failed, named) == EXPECTED[name], name
        if "sigma-orbit-count" in failed:
            assert rows["sigma-orbit-count"]["actual"] == 7


def test_each_fault_fails_a_row_that_names_its_class():
    ns = {}
    exec(FAULTS, ns)
    _check_fault_rows(ns["fault_rows"]())
    # and the faults are undone: every row passes again
    assert all(c.passed for c in normcert.norm_bijection_checks(
        cases=((3, 2, 1),)))


def test_each_fault_fails_a_row_that_names_its_class_under_python_O():
    here = os.path.dirname(os.path.abspath(__file__))
    code = "\n".join([
        "import json, sys",
        "if __debug__:",
        "    sys.exit('not running under python -O')",
        FAULTS,
        "print(json.dumps(fault_rows()))"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(here, os.pardir, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    _check_fault_rows(json.loads(proc.stdout))
