"""The local-path commands and malformed table input load no table layer,
and the character commands, the census, the boundary term (its packet
enumeration included) and the norm certificate load no numpy.  Malformed
local-path input is rejected before the local layers load, and no command
here loads `dataclasses` or the `inspect` stack behind it.

Each command runs in a fresh interpreter, as from the console script, and
reports which of the numpy-backed modules it left loaded.  No bytecode is
written.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

TABLE_MODULES = ("numpy", "gl2lab.gl2group", "gl2lab.ringtables",
                 "gl2lab.finitegl2", "gl2lab.basechange", "gl2lab.curves")

# the stdlib no command of the mix needs: dataclasses and what it imports
INTROSPECTION = ("dataclasses", "inspect")

# one command or more in one interpreter; sys.modules only grows, so a
# module that one command loads shows at that command and every one after
RUN = """
import contextlib, io, json, sys
from gl2lab.cli import main
out = []
for argv in {argvs!r}:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(err):
        code = main(argv)
    out.append({{"code": code, "stderr": err.getvalue().splitlines(),
                "loaded": [m for m in {modules!r} if m in sys.modules],
                "stdlib": [m for m in {stdlib!r} if m in sys.modules]}})
print(json.dumps(out))
"""


def _fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-B", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_all(argvs, modules):
    reps = _fresh(RUN.format(argvs=argvs, modules=modules,
                             stdlib=INTROSPECTION))
    for argv, rep in zip(argvs, reps, strict=True):
        assert rep.pop("stdlib") == [], (argv, rep)
    return reps


def _run(argv, modules=TABLE_MODULES):
    rep, = _run_all([argv], modules)
    del rep["stderr"]
    return rep


@pytest.mark.parametrize("argv", [
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", "[[2,0],[0,1]]"],
    ["eval-phi", "--p", "3", "--n", "2", "--matrix", "[[3,0],[0,4]]",
     "--deformed"],
    ["tree-orbital", "--p", "2", "--n", "1", "--gamma", "[[0,1],[-2,0]]"],
    ["tree-fixed-set", "--p", "2", "--gamma", "[[2,1],[0,1]]"],
    ["tree-fixed-set", "--p", "2", "--verify", "--probes", "5"],
    ["verify-orbital", "--q", "3", "--n", "1", "--samples", "10"],
    ["verify-tower", "--q", "2", "--n", "1", "--samples", "5"],
    ["verify-central", "--q", "2", "--n", "1", "--samples", "3"],
], ids=lambda argv: " ".join(argv[:1] + argv[-1:]))
def test_local_path_command_loads_no_table_layer(argv):
    assert _run(argv) == {"code": 0, "loaded": []}


LOCAL_LAYERS = ("gl2lab.testfunc", "gl2lab.tree", "gl2lab.checks",
                "gl2lab.hecke")

# (argv, the error line), every one checked against the parameters and the
# matrix by padic's rules before a local layer loads
MALFORMED_LOCAL = [
    (["eval-phi", "--p", "2", "--n", "1", "--matrix", "[[2,0]]"],
     "matrix must be [[a, b], [c, d]] with entries integers; got [[2,0]]"),
    (["eval-phi", "--p", "2", "--n", "1", "--matrix", "[[2,0],[0,1.5]]"],
     "matrix must be [[a, b], [c, d]] with entries integers; "
     "got [[2,0],[0,1.5]]"),
    (["eval-phi", "--p", "3", "--n", "2", "--matrix", "[[2,0],"],
     "Expecting value: line 1 column 8 (char 7)"),
    (["eval-phi", "--p", "4", "--n", "1", "--matrix", "[[2,0],[0,1]]"],
     "p = 4 is not prime"),
    (["eval-phi", "--p", "2", "--n", "0", "--matrix", "[[2,0],[0,1]]"],
     "phi_pn needs n >= 1"),
    (["tree-fixed-set", "--p", "2", "--depth", "-1", "--gamma",
      "[[2,1],[0,1]]"], "depth -1 below k(gamma) = 0"),
    (["tree-orbital", "--p", "2", "--n", "0", "--gamma", "[[0,1],[-2,0]]"],
     "tree-orbital needs n >= 1"),
    (["tree-fixed-set", "--p", "2", "--gamma", "[[2,1],[0]]"],
     "matrix must be [[a, b], [c, d]] with entries integers; "
     "got [[2,1],[0]]"),
    (["verify-orbital", "--q", "4", "--n", "1"], "p = 4 is not prime"),
    (["verify-tower", "--q", "6", "--n", "1"], "q must be a prime power"),
    (["verify-central", "--q", "1", "--n", "1"], "q must be >= 2"),
]


def test_malformed_local_input_exits_before_the_local_layers():
    # one interpreter for all eleven
    argvs = [argv for argv, _ in MALFORMED_LOCAL]
    reps = _run_all(argvs, LOCAL_LAYERS)
    for (argv, message), rep in zip(MALFORMED_LOCAL, reps):
        assert rep["code"] == 2 and rep["loaded"] == [], (argv, rep)
        # the command's timing line, then the one line of the error
        assert rep["stderr"][1:] == [f"error: {message}"], (argv, rep)


@pytest.mark.parametrize("argv", [
    ["char-table", "--p", "2", "--n", "0"],
    ["ss-trace", "--p", "4", "--n", "1", "--kind", "supersingular"],
    ["boundary", "--p", "7", "--n", "1", "--m", "2"],
    ["boundary", "--p", "6", "--n", "1", "--m", "5"],
    ["census", "--q", "6", "--m", "3"],
    ["verify-norm", "--p", "4", "--r", "2", "--n", "1"],
    ["verify-cr", "--p", "4", "--n", "1"],
    ["verify-exact-seq", "--p", "2", "--r", "0", "--n", "1"],
    ["verify-bc-unit", "--p", "6", "--r", "2"],
    ["verify-bc-unit", "--k", "3"],
], ids=" ".join)
def test_malformed_table_command_exits_before_the_table_layer(argv):
    assert _run(argv) == {"code": 2, "loaded": []}


@pytest.mark.parametrize("argv", [
    ["ss-trace", "--p", "3", "--r", "0", "--n", "1", "--kind",
     "supersingular"],
    ["ss-trace", "--p", "3", "--n", "1", "--kind", "ordinary"],
    ["ss-trace", "--p", "3", "--n", "1", "--kind", "ordinary", "--a", "6"],
    ["census", "--q", "5", "--m", "2"],
], ids=" ".join)
def test_malformed_point_or_level_exits_before_numpy(argv):
    # the rules live in padic, called by finitegl2 and curves and by the CLI
    assert _run(argv) == {"code": 2, "loaded": []}


def test_a_table_command_still_loads_its_layer():
    rep = _run(["char-table", "--p", "2", "--n", "1"])
    assert rep["code"] == 0 and "gl2lab.finitegl2" in rep["loaded"]


@pytest.mark.parametrize("argv", [
    ["char-table", "--p", "2", "--n", "2"],
    ["ss-trace", "--p", "3", "--n", "2", "--kind", "supersingular"],
    ["verify-cr", "--p", "3", "--n", "1"],
], ids=" ".join)
def test_character_command_loads_no_numpy(argv):
    # the class table of GL2(Z/p^n) is a normal form in pure Python
    assert _run(argv) == {"code": 0, "loaded": ["gl2lab.finitegl2"]}


@pytest.mark.parametrize("argv", [
    ["census", "--q", "4", "--m", "3"],
    ["census", "--q", "7", "--m", "3", "--n", "1"],
    ["boundary", "--p", "7", "--n", "1", "--m", "3"],
    ["boundary", "--p", "7", "--n", "1", "--m", "3", "--enumerate"],
], ids=" ".join)
def test_census_and_boundary_formula_load_no_numpy(argv):
    # the census runs on list tables, and the packets are listed through CRT
    assert _run(argv) == {"code": 0,
                          "loaded": ["gl2lab.ringtables", "gl2lab.finitegl2",
                                     "gl2lab.curves"]}


def test_boundary_enumeration_leaves_numpy_ma_unloaded():
    argv = ["boundary", "--p", "7", "--n", "1", "--m", "3", "--enumerate"]
    assert _run(argv, modules=("numpy", "numpy.ma")) == {"code": 0,
                                                         "loaded": []}


@pytest.mark.parametrize("argv", [
    ["verify-norm", "--p", "2", "--r", "2", "--n", "1"],
    ["verify-norm", "--p", "5", "--r", "2", "--n", "1"],
], ids=" ".join)
def test_norm_certificate_loads_no_numpy(argv):
    # the certificate runs on list tables and the normal-form class table
    assert _run(argv) == {"code": 0,
                          "loaded": ["gl2lab.ringtables", "gl2lab.finitegl2"]}


TRACED = """
import json, sys
sys.path.insert(0, {bench!r})
from tracer import COUNTED_CACHES, LRU_CACHES, TIMED
import gl2lab.campaigns
named = {{module for module, _ in TIMED.values()}}
named |= {{module for (module, _), _ in COUNTED_CACHES.values()}}
named |= {{module for module, _ in LRU_CACHES.values()}}
named.discard("gl2lab.cli")   # the tracer imports the CLI by name
print(json.dumps({{"named": sorted(named),
                   "missing": sorted(named - set(sys.modules))}}))
"""


def test_campaigns_binds_every_layer_the_tracer_names():
    rep = _fresh(TRACED.format(bench=os.path.join(ROOT, "perfbench")))
    assert "gl2lab.curves" in rep["named"] and rep["missing"] == []
