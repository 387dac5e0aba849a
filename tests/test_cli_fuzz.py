"""Argv fuzzing of the exit-code contract: 0 or 2, never a traceback.

Every case runs in this process through `cli.main`, one at a time, under a
small enumeration cap and a wall-clock budget.  Exit 1 means a failed
verification, which no input, well formed or not, may produce.
"""

import contextlib
import io
import os
import random
import signal

import pytest

from gl2lab.cli import main

CAP = "5000"     # GL2LAB_MAX_ELEMS for every case
BUDGET_S = 20    # wall-clock budget of one case


class Overrun(BaseException):
    """A case ran past its budget (not an Exception: nothing may catch it)."""


def _alarm(signum, frame):
    raise Overrun()


def run_case(argv):
    """(exit code, stderr) of one in-process run under the cap and budget."""
    old_cap = os.environ.get("GL2LAB_MAX_ELEMS")
    os.environ["GL2LAB_MAX_ELEMS"] = CAP
    old_handler = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    except Overrun:
        pytest.fail(f"{argv} ran past {BUDGET_S} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
        if old_cap is None:
            del os.environ["GL2LAB_MAX_ELEMS"]
        else:
            os.environ["GL2LAB_MAX_ELEMS"] = old_cap
    return code, err.getvalue()


def check_contract(argv):
    code, err = run_case(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    return code


MALFORMED = [
    # inputs that once broke the contract
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", "[[2,0]]"],
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", "[[2,0],[0,1.5]]"],
    ["tree-orbital", "--p", "2", "--n", "0", "--gamma", "[[0,1],[-2,0]]"],
    ["tree-fixed-set", "--p", "3", "--r", "-1", "--verify"],
    # malformed matrices
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", "[[2,0],[0,1]"],
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", "[[0,0],[0,0]]"],
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", "[[true,0],[0,1]]"],
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", '[[2,0],[0,"1"]]'],
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", "[[1,2,3],[4,5,6]]"],
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", "null"],
    ["eval-phi", "--p", "2", "--r", "2", "--n", "1", "--matrix",
     "[[[1],0],[0,1]]"],
    ["tree-fixed-set", "--p", "2", "--gamma", "[[1,1],[1,1]]"],
    ["tree-orbital", "--p", "3", "--n", "1", "--gamma", "[[1e400,0],[0,1]]"],
    # the level n beyond the precision cap
    ["verify-central", "--n", "100000"],
    ["tree-orbital", "--p", "2", "--n", "1000000", "--gamma",
     "[[0,1],[-2,0]]"],
    ["eval-phi", "--p", "2", "--n", "100000", "--matrix", "[[2,0],[0,1]]"],
    ["eval-phi", "--p", "2", "--r", "4", "--n", "2400", "--matrix",
     "[[2,0],[0,1]]"],
    ["verify-tower", "--q", "2", "--n", "1000"],
    # samples beyond their caps
    ["verify-central", "--samples", "100000000"],
    ["verify-orbital", "--q", "2", "--n", "1", "--samples", "100000000"],
    ["verify-exact-seq", "--p", "2", "--r", "2", "--n", "1", "--samples",
     "100000000"],
    ["tree-fixed-set", "--p", "2", "--verify", "--probes", "100000000"],
    ["verify-tower", "--q", "2", "--n", "1", "--samples", "0"],
    # a verification that checks nothing
    ["verify-bc-unit", "--functions", "0"],
    ["verify-bc-unit", "--functions", "-3"],
    # census takes r from q, so --r is no option of it
    ["census", "--q", "4", "--m", "3", "--r", "2"],
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_seeded_input_exits_two(argv):
    assert check_contract(argv) == 2


BAD = ["-1", "0", "1", "2", "4", "9", "16", "100000", "x", "2.5"]
MATRICES = ["[[2,0],[0,1]]", "[[0,1],[-2,0]]", "[[2,1],[0,1]]",
            "[[4,1],[0,2]]", "[[1,1],[1,1]]", "[[0,0],[0,0]]", "[[2,0]]",
            "[[2,0],[0,1.5]]", "[[[1,1],0],[0,2]]", "[[2,0],[0,1]", "{}"]
P, R, N, Q = ("2", "3", "5"), ("1", "2"), ("1", "2"), ("2", "3", "4")
FLAG = ()
# command -> ({required option: well-formed values}, {other options: ...})
COMMANDS = {
    "eval-phi": ({"--p": P, "--n": N, "--matrix": MATRICES},
                 {"--r": R, "--e": ("0", "-1"), "--deformed": FLAG}),
    "tree-orbital": ({"--p": P, "--n": N, "--gamma": MATRICES},
                     {"--r": R, "--e": ("0", "-1")}),
    "tree-fixed-set": ({"--p": P},
                       {"--gamma": MATRICES, "--r": R, "--e": ("0",),
                        "--depth": ("1", "2"), "--verify": FLAG,
                        "--probes": ("5", "20")}),
    "char-table": ({"--p": P, "--n": N}, {}),
    "ss-trace": ({"--p": P, "--n": N,
                  "--kind": ("ordinary", "supersingular", "split")},
                 {"--r": R, "--a": ("1", "2")}),
    "verify-norm": ({"--p": P, "--r": R, "--n": N}, {}),
    "verify-exact-seq": ({"--p": P, "--r": R, "--n": N},
                         {"--samples": ("3", "5")}),
    "verify-bc-unit": ({}, {"--p": P, "--r": R, "--j": N, "--k": ("0", "1"),
                            "--functions": ("1", "2")}),
    "verify-tower": ({"--q": Q, "--n": N}, {"--samples": ("5", "20")}),
    "verify-central": ({}, {"--q": Q, "--n": N, "--samples": ("3", "5")}),
    "verify-orbital": ({"--q": Q, "--n": N}, {"--samples": ("5", "20")}),
    "verify-cr": ({"--p": P, "--n": N}, {}),
    # census takes r from q; --r stays here so that the seeded argvs, and
    # their test ids, stay as they are.  CENSUS below leaves it out.
    "census": ({"--q": Q, "--m": ("3", "4", "5")},
               {"--n": ("0", "1"), "--r": R, "--format": ("json", "csv")}),
    "boundary": ({"--p": P, "--n": N, "--m": ("3", "4", "5")},
                 {"--r": R, "--enumerate": FLAG}),
}


# census with the options it takes, so a drawn argv reaches the census
CENSUS = {"census": ({"--q": Q + ("7", "9", "16"), "--m": ("3", "4", "5")},
                     {"--n": ("0", "1"), "--format": ("json", "csv")})}


def fuzzed_argv(seed, commands=COMMANDS):
    """A command with its required options (each dropped one time in
    twenty) and about half of the others; a value is well formed seven
    times in ten, else small, huge, negative or unparsable."""
    rnd = random.Random(seed)
    command = rnd.choice(sorted(commands))
    required, optional = commands[command]
    argv = [command]
    for option, good in [*required.items(), *optional.items()]:
        if rnd.random() < (0.95 if option in required else 0.5):
            argv.append(option)
            if good is not FLAG:
                argv.append(rnd.choice(good if rnd.random() < 0.7 else BAD))
    return argv


@pytest.mark.parametrize("argv", [fuzzed_argv(seed) for seed in range(300)],
                         ids=" ".join)
def test_fuzzed_argv_keeps_the_exit_contract(argv):
    check_contract(argv)


@pytest.mark.parametrize("argv", [fuzzed_argv(seed, CENSUS)
                                  for seed in range(40)], ids=" ".join)
def test_fuzzed_census_argv_keeps_the_exit_contract(argv):
    check_contract(argv)
