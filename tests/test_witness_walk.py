"""Every boolean row of report-all names a witness when it fails.

The walk runs report-all and takes every row whose value is a boolean, or a
list that holds one (`boundary-formula-vs-enumeration`).  For
each such row it applies that row's own patch from FORCED, reruns the row's
campaign, and requires the row to fail with a non-empty witness.  A boolean
row with no entry in FORCED fails the walk, so a new boolean check must
come with a forced failure and a witness.  The walk runs in process and
under python -O, where no assert can stand in for a check.
"""

import contextlib
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

from gl2lab import basechange, campaigns, checks, curves, finitegl2, normcert
from gl2lab.cli import main

_norm_preimage = normcert.norm_preimage
_twisted_centralizer_order = normcert.twisted_centralizer_order
_classes = normcert._classes
_boundary_packets = curves.boundary_packets
_commutant_units = basechange._commutant_units
_norm_class_reader = basechange._norm_class_reader
_orbital_sample = checks._orbital_sample
_fixed_surjections = finitegl2.fixed_surjections


def _one_small_unit_short(ring, gamma, scalars):
    units = _commutant_units(ring, gamma, scalars)
    return units if len(scalars) == ring.Q else units[1:]


def _classes_shifted(ring, G):
    read = _norm_class_reader(ring, G)
    return lambda *x: (read(*x) + 1) % len(G.class_reps)


def _last_packet_moved(p, r, n, m):
    packets = _boundary_packets(p, r, n, m)
    return packets[:-1] + [(*packets[-1][:2], False)]


# boolean row -> (its campaign, the patches (owner, attribute, value) that
# make it fail): the three norm rows by the certificate's own faults, a
# class without a norm preimage, a wrong twisted centralizer order and a
# class dropped from the class table
FORCED = {
    "norm-bijection": ("norm-bijection", [
        (normcert, "norm_preimage", lambda ring, gamma: None if tuple(
            gamma) == (1, 0, 0, 1) else _norm_preimage(ring, gamma))]),
    "centralizer-orders": ("norm-bijection", [
        (normcert, "twisted_centralizer_order",
         lambda ring, delta: _twisted_centralizer_order(ring, delta) + 1)]),
    "orbit-stabilizer": ("norm-bijection", [
        (normcert, "_classes", lambda p, n: _classes(p, n)[:-1])]),
    "boundary-formula-vs-enumeration": ("census", [
        (curves, "boundary_packets", _last_packet_moved)]),
    "unit-group-exact-sequence": ("exact-sequence", [
        (basechange, "_commutant_units", _one_small_unit_short)]),
    "bc-unit-identity": ("bc-unit", [
        (basechange, "_norm_class_reader", _classes_shifted)]),
    "orbital-branch-coverage": ("orbital", [
        (checks, "_orbital_sample", lambda ctx, n, per, seed: [
            g for g in _orbital_sample(ctx, n, per, seed)
            if not g.trace_val_ge(1)])]),
    "drinfeld-decomposition": ("drinfeld", [
        (finitegl2, "fixed_surjections",
         lambda p, n, g, a=1: _fixed_surjections(p, n, g, a=a) + 1)]),
}


def walk():
    """The problems found: boolean rows without an entry in FORCED, entries
    that no boolean row uses, and forced rows that pass or fail with no
    witness."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        if main(["report-all", "--out", path]) != 0:
            return ["report-all does not pass"]
        with open(path) as fh:
            rows = json.load(fh)["checks"]
    boolean = {row["name"] for row in rows
               if any(isinstance(x, bool) for x in (
                   row["actual"] if isinstance(row["actual"], list)
                   else [row["actual"]]))}
    problems = [f"{name}: boolean row with no forced failure"
                for name in sorted(boolean - set(FORCED))]
    problems += [f"{name}: forced, but report-all has no such boolean row"
                 for name in sorted(set(FORCED) - boolean)]
    for name in sorted(boolean & set(FORCED)):
        campaign, patches = FORCED[name]
        with contextlib.ExitStack() as stack:
            for owner, attribute, value in patches:
                stack.enter_context(mock.patch.object(owner, attribute, value))
            out = campaigns.ALL_CAMPAIGNS[campaign]()
        failed = [c.to_dict() for c in out if c.name == name and not c.passed]
        if not failed:
            problems.append(f"{name}: its patch does not fail it")
        problems += [f"{name}: failed with no witness: {row}"
                     for row in failed if not row.get("witness")]
    return problems


def test_every_boolean_row_names_a_witness_when_forced_to_fail():
    assert walk() == []


_UNDER_O = """
import sys
if __debug__:
    sys.exit("not running under python -O")
sys.path.insert(0, {tests!r})
from test_witness_walk import walk
problems = walk()
print("\\n".join(problems))
sys.exit(1 if problems else 0)
"""


def test_the_walk_holds_under_python_O():
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(here, os.pardir, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c",
                           _UNDER_O.format(tests=here)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
