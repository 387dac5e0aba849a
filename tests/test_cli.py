"""Command-line driver: exit codes, schemas, determinism."""

import inspect
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from gl2lab.cli import main

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_phi(capsys):
    code, out = run(capsys, "eval-phi", "--p", "2", "--n", "1",
                    "--matrix", "[[2,0],[0,1]]")
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == "3"
    assert rep["schema_version"] == "1"
    code, out = run(capsys, "eval-phi", "--p", "2", "--n", "1",
                    "--matrix", "[[2,0],[0,1]]", "--deformed")
    assert code == 0
    assert "t^2" in json.loads(out)["value"]


def test_tree_commands(capsys):
    code, out = run(capsys, "tree-orbital", "--p", "2", "--n", "1",
                    "--gamma", "[[0,1],[-2,0]]")
    assert code == 0
    assert json.loads(out)["ratio"] == "-3"
    code, out = run(capsys, "tree-fixed-set", "--p", "2",
                    "--gamma", "[[2,1],[0,1]]", "--depth", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["k_tree"] == 0 and rep["nearest_unique"] and rep["connected"]
    code, out = run(capsys, "tree-fixed-set", "--p", "2", "--verify",
                    "--probes", "10")
    assert code == 0
    assert json.loads(out)["summary"]["failed"] == 0


def test_eval_phi_with_prefactor(capsys):
    # p^-1 [[4,1],[0,2]] has k = 1: off-support at level 1, value 3 at level 2
    code, out = run(capsys, "eval-phi", "--p", "2", "--n", "1",
                    "--matrix", "[[4,1],[0,2]]", "--e", "-1")
    assert code == 0 and json.loads(out)["value"] == "0"
    code, out = run(capsys, "eval-phi", "--p", "2", "--n", "2",
                    "--matrix", "[[4,1],[0,2]]", "--e", "-1")
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == "3" and rep["k"] == 1


def test_char_table_and_ss_trace(capsys):
    code, out = run(capsys, "char-table", "--p", "2", "--n", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["group_order"] == 6 and len(rep["classes"]) == 3
    code, out = run(capsys, "ss-trace", "--p", "2", "--n", "1",
                    "--kind", "supersingular")
    assert code == 0
    assert json.loads(out)["value"] == "-3"
    code, out = run(capsys, "ss-trace", "--p", "3", "--n", "1",
                    "--kind", "ordinary", "--a", "2")
    assert json.loads(out)["value"] == "0"


def test_verify_commands_exit_zero(capsys):
    code, out = run(capsys, "verify-norm", "--p", "2", "--r", "2", "--n", "1")
    assert code == 0
    assert json.loads(out)["summary"]["failed"] == 0
    code, out = run(capsys, "verify-exact-seq", "--p", "2", "--r", "2",
                    "--n", "1", "--samples", "5")
    assert code == 0
    code, out = run(capsys, "verify-tower", "--q", "2", "--n", "1",
                    "--samples", "30")
    assert code == 0
    code, out = run(capsys, "verify-orbital", "--q", "2", "--n", "1",
                    "--samples", "20")
    assert code == 0
    code, out = run(capsys, "verify-bc-unit", "--p", "2", "--r", "2",
                    "--j", "1", "--k", "1")
    assert code == 0
    code, out = run(capsys, "verify-cr", "--p", "2", "--n", "1")
    assert code == 0


def test_census_and_boundary(capsys):
    code, out = run(capsys, "census", "--q", "4", "--m", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("a1,a2,a3,a4,a6")
    rep = json.loads(lines[-1])
    assert rep["total"] == "2"
    code, out = run(capsys, "boundary", "--p", "7", "--n", "1", "--m", "3")
    assert code == 0
    assert json.loads(out)["value"] == "384"


@pytest.mark.parametrize("q", [17, 25, 32])
def test_census_beyond_sixteen(capsys, q):
    code, out = run(capsys, "census", "--q", str(q), "--m", "3")
    assert code == 0
    lines = out.strip().split("\n")
    rows = [list(map(int, line.split(","))) for line in lines[1:-1]]
    assert sum(Fraction(1, row[6]) for row in rows) == q
    points = sum(row[7] for row in rows)
    assert json.loads(lines[-1])["total"] == str(points)
    assert points == (2 * (q - 3) if q % 3 == 1 else 0)


@pytest.mark.parametrize("argv", [
    ["char-table", "--p", "2", "--n", "30"],
    ["census", "--q", "7", "--m", "3", "--n", "50"],
])
def test_group_cap_comes_before_the_ring_tables(capsys, monkeypatch, argv):
    from gl2lab.curves import enumerate_curves
    from gl2lab.ringtables import RingTableLists

    enumerate_curves(7)          # the field tables of F_7, built at full size

    # the one table builder, behind both the census's field and RingTables
    def no_tables(self, p, r, n):
        pytest.fail(f"ring tables of GR({p}^{n}, {r}) built before the cap")
    monkeypatch.setattr(RingTableLists, "__init__", no_tables)
    monkeypatch.setenv("GL2LAB_MAX_ELEMS", "1000")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "unit group (Z/p^n)^x needs" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["verify-exact-seq", "--p", "2", "--r", "2", "--n", "1"],
    ["verify-tower", "--q", "2", "--n", "1"],
    ["verify-central"],
    ["verify-orbital", "--q", "2", "--n", "1"],
])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_exit_two(capsys, command, samples):
    assert main(command + ["--samples", samples]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"--samples: need an integer >= 1, got '{samples}'" in err


def test_byte_determinism(capsys):
    _, out1 = run(capsys, "verify-tower", "--q", "2", "--n", "1",
                  "--samples", "25")
    _, out2 = run(capsys, "verify-tower", "--q", "2", "--n", "1",
                  "--samples", "25")
    assert out1 == out2
    _, out3 = run(capsys, "census", "--q", "4", "--m", "3")
    _, out4 = run(capsys, "census", "--q", "4", "--m", "3")
    assert out3 == out4


def test_usage_errors_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["eval-phi", "--p", "2", "--n", "1",
                 "--matrix", "not json"]) == 2
    # p not prime
    assert main(["eval-phi", "--p", "4", "--n", "1",
                 "--matrix", "[[2,0],[0,1]]"]) == 2


@pytest.mark.parametrize("argv", [
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", "[[2,0]]"],
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", "[[2,0],[0,1.5]]"],
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", "[[2,0],[0,true]]"],
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", "[[2,0],[0,[1]]]"],
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", "[[2,0],[0,1],[1,1]]"],
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", "{\"a\": 1}"],
    ["eval-phi", "--p", "2", "--r", "2", "--n", "1",
     "--matrix", "[[[2,0,1],0],[0,1]]"],
    ["tree-fixed-set", "--p", "2", "--gamma", "[[2,1],[0,\"1\"]]"],
    ["tree-orbital", "--p", "2", "--n", "0", "--gamma", "[[0,1],[-2,0]]"],
    ["verify-central", "--n", "0"],
    ["verify-tower", "--q", "2", "--n", "0"],
    ["verify-orbital", "--q", "2", "--n", "0", "--samples", "3"],
    ["verify-orbital", "--q", "2", "--n", "-1", "--samples", "3"],
    ["verify-central", "--generators", "1"],
    ["char-table", "--p", "2", "--n", "1", "--json"],
    ["boundary", "--p", "4", "--n", "1", "--m", "3"],
    ["boundary", "--p", "4", "--n", "1", "--m", "3", "--enumerate"],
    ["boundary", "--p", "6", "--n", "1", "--m", "5"],
    ["boundary", "--p", "2", "--r", "0", "--n", "1", "--m", "3"],
    ["ss-trace", "--p", "3", "--r", "0", "--n", "1", "--kind", "supersingular"],
    ["ss-trace", "--p", "3", "--r", "-1", "--n", "1",
     "--kind", "supersingular"],
    ["tree-orbital", "--p", "2", "--n", "1", "--gamma", "[[1,1],[1,1]]"],
    ["eval-phi", "--p", "2", "--n", "1", "--matrix", "[[1,1],[1,1]]"],
    ["tree-fixed-set", "--p", "2", "--gamma", "[[1,1],[1,1]]"],
])
def test_malformed_input_exits_two(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error:" in err


@pytest.mark.parametrize("argv", [
    ["eval-phi", "--p", "1000000000000000003", "--n", "1",
     "--matrix", "[[2,0],[0,1]]"],
    ["eval-phi", "--p", "2", "--r", "40", "--n", "1",
     "--matrix", "[[2,0],[0,1]]"],
    ["census", "--q", "1000000000000000003", "--m", "3"],
    ["verify-tower", "--q", "1000000000000000003", "--n", "1"],
])
def test_unbounded_search_is_refused(argv):
    # in a subprocess with a timeout, so a search without a cap fails the
    # test instead of hanging the suite
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("GL2LAB_MAX_ELEMS", None)
    proc = subprocess.run([sys.executable, "-m", "gl2lab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "cap is" in proc.stderr


def test_matrix_with_coefficient_lists(capsys):
    # at r = 2 an entry may be a length-2 coefficient list
    code, out = run(capsys, "eval-phi", "--p", "2", "--r", "2", "--n", "1",
                    "--matrix", "[[[2,0],0],[0,[1,1]]]")
    assert code == 0 and json.loads(out)["q"] == 4


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify-norm", "--p", "2", "--r", "2", "--n", "1",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["summary"]["failed"] == 0


def test_verify_norm_builds_its_table_once(capsys, monkeypatch):
    from gl2lab import campaigns, normcert

    calls = []
    real = normcert.sigma_orbits

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(normcert, "sigma_orbits", counted)
    code, out = run(capsys, "verify-norm", "--p", "3", "--r", "2", "--n", "1")
    assert code == 0
    assert calls == [(3, 2, 1)]
    rep = json.loads(out)
    assert rep["table"] == json.loads(json.dumps(real(3, 2, 1).to_dict()))
    assert rep["checks"] == [c.to_dict() for c in
                             campaigns.norm_bijection_checks(cases=((3, 2, 1),))]


def test_verdict_reports_the_seed_that_ran(capsys):
    argv = ["verify-orbital", "--q", "3", "--n", "2", "--samples", "30"]
    reps = {}
    for seed in (None, 7, 20259):
        code, out = run(capsys, *argv, *(["--seed", str(seed)] if seed else []))
        assert code == 0
        reps[seed] = json.loads(out)
    assert reps[7]["config"]["seed"] == 7
    assert reps[None]["config"]["seed"] == 20259
    assert reps[None] == reps[20259]
    assert reps[7]["checks"] != reps[20259]["checks"]


def test_report_all_passes_its_seed(capsys, monkeypatch):
    from gl2lab import campaigns

    seeded = {"exact-sequence", "tower", "orbital", "tree-lemma", "centrality"}
    assert seeded == {name for name, fn in campaigns.ALL_CAMPAIGNS.items()
                      if "seed" in inspect.signature(fn).parameters}
    calls = {}

    def stub(name):
        def seeded_campaign(seed=campaigns.DEFAULT_SEED):
            calls[name] = {"seed": seed}
            return [campaigns.Check(name, {}, 0, 0)]

        def unseeded_campaign():
            calls[name] = {}
            return [campaigns.Check(name, {}, 0, 0)]
        return seeded_campaign if name in seeded else unseeded_campaign

    monkeypatch.setattr(campaigns, "ALL_CAMPAIGNS",
                        {name: stub(name) for name in campaigns.ALL_CAMPAIGNS})
    for argv, seed in ((["report-all"], 20259),
                       (["report-all", "--seed", "7"], 7)):
        calls.clear()
        code, out = run(capsys, *argv)
        assert code == 0 and json.loads(out)["config"]["seed"] == seed
        assert calls == {name: {"seed": seed} if name in seeded else {}
                         for name in campaigns.ALL_CAMPAIGNS}


def test_failed_centrality_row_keeps_its_witness(capsys, monkeypatch):
    from gl2lab import hecke
    from gl2lab.testfunc import phi_pn

    argv = ["verify-central", "--q", "2", "--n", "1", "--samples", "5"]
    code, out = run(capsys, *argv)
    assert code == 0 and "witness" not in json.loads(out)["checks"][0]

    # +1 where g is integral with lower-left entry 0 mod p: right
    # Gamma(p^n)-invariant, but not a class function, so not central (a
    # constant shift would add vol q^d to both sides and cancel)
    def broken(g, n):
        lower_left = g.m[2]
        bump = g.e == 0 and all(c % g.ctx.p == 0 for c in lower_left)
        return Fraction(phi_pn(g, n)) + bump

    monkeypatch.setattr(hecke, "phi_pn", broken)
    code, out = run(capsys, *argv)
    assert code == 1
    row = json.loads(out)["checks"][0]
    assert not row["pass"] and row["actual"] > 0
    wit = row["witness"]
    assert set(wit) == {"w", "g", "phi_star_f", "f_star_phi"}
    assert wit["w"].startswith("p^") and wit["g"].startswith("p^")
    assert Fraction(wit["phi_star_f"]) != Fraction(wit["f_star_phi"])


@pytest.mark.parametrize("q,n", [(3, 2), (2, 3), (5, 2)])
def test_verify_central_reaches_past_the_listed_support(capsys, monkeypatch,
                                                        q, n):
    # levels whose support the old left side had to list: (3, 2) needed
    # 20,217,600 elements against the default cap
    from gl2lab import hecke

    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    argv = ["verify-central", "--q", str(q), "--n", str(n)]
    code, out = run(capsys, *argv)
    row = json.loads(out)["checks"][0]
    assert code == 0 and row["pass"] and row["inputs"]["checks"] == 390
    # one bad right-side value at one point fails the run, with that point
    # as the witness
    real, bad = hecke.convolve, []

    def one_bad_point(*args):
        at = args[-1]
        out = real(*args)
        bad.append(at[7].to_text())
        return out[:7] + [out[7] + 1] + out[8:]

    monkeypatch.setattr(hecke, "convolve", one_bad_point)
    code, out = run(capsys, *argv)
    row = json.loads(out)["checks"][0]
    assert code == 1 and row["actual"] == 3 and len(set(bad)) == 1
    assert row["witness"]["g"] == bad[0]
    assert (Fraction(row["witness"]["f_star_phi"])
            == Fraction(row["witness"]["phi_star_f"]) + 1)


@pytest.mark.parametrize("q,n", [(25, 2), (49, 3)])
def test_verify_central_lists_cosets_under_the_default_cap(capsys,
                                                          monkeypatch, q, n):
    # both were refused when each double coset was a saturation of
    # q^(4d) congruence elements; its q^d cosets are now listed directly
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    code = main(["verify-central", "--q", str(q), "--n", str(n)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    rows = json.loads(captured.out)["checks"]
    assert code == 0 and rows and all(row["pass"] for row in rows)


@pytest.mark.parametrize("n", [30, 60])
def test_verify_central_at_a_deep_level_holds_no_residue_list(capsys,
                                                              monkeypatch, n):
    # 2^n residues per entry pass every cap; the ten support points come
    # from the lazy unit listing, so the run ends with a verdict
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    t0 = time.perf_counter()
    code = main(["verify-central", "--q", "2", "--n", str(n)])
    assert time.perf_counter() - t0 < 60
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert code == 0 and json.loads(captured.out)["checks"][0]["pass"]


def test_failed_tower_row_keeps_its_witness(capsys, monkeypatch):
    from gl2lab import hecke

    real = hecke.phi_pn
    monkeypatch.setattr(hecke, "phi_pn", lambda g, n: real(g, n) + 1)
    code, out = run(capsys, "verify-tower", "--q", "2", "--n", "1",
                    "--samples", "5")
    assert code == 1
    wit = json.loads(out)["checks"][0]["witness"]
    assert set(wit) == {"g", "level_n", "average"}
    assert Fraction(wit["level_n"]) == Fraction(wit["average"]) + 1


def test_verify_tower_stops_at_a_large_n(capsys, monkeypatch):
    # the exact rational-function sums grow with n: n = 1000 stops before
    # anything is sampled, with the lab's message
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    t0 = time.perf_counter()
    assert main(["verify-tower", "--q", "2", "--n", "1000"]) == 2
    assert time.perf_counter() - t0 < 5
    err = capsys.readouterr().err
    assert "tower average arithmetic" in err and "cap is 2500000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,size", [
    # max(samples, 2n + 8 anchors) points, times (n + 1)^2
    (["--q", "2", "--n", "1000"], 2008 * 1001**2),
    (["--q", "2", "--n", "1000", "--samples", "1"], 2008 * 1001**2),
    (["--q", "2", "--n", "100"], 208 * 101**2),
    (["--q", "2", "--n", "100", "--samples", "50"], 208 * 101**2),
    (["--q", "3", "--n", "1", "--samples", "300"], 300 * 2**2),
    (["--q", "2", "--n", "2"], 200 * 3**2),
])
def test_verify_tower_cap_sees_n(capsys, monkeypatch, argv, size):
    from gl2lab import hecke
    from gl2lab.errors import ResourceLimit

    seen = []

    def stop(size, what, default=200_000):
        seen.append((what, size, default))
        raise ResourceLimit(what)

    monkeypatch.setattr(hecke, "check_cap", stop)
    assert main(["verify-tower", *argv]) == 2
    assert seen == [("tower average arithmetic", size, 2_500_000)]
    # (2, 100) at the default 200 samples and report-all's cases stay under
    assert (size <= 2_500_000) == ("1000" not in argv)


@pytest.mark.parametrize("argv,size", [
    # max(samples, 2n + 8 anchors) points, times q trace residues
    (["--q", "25", "--n", "1"], 200 * 25),
    (["--q", "997", "--n", "1"], 200 * 997),
    (["--q", "2", "--n", "100", "--samples", "50"], 208 * 2),
])
def test_verify_tower_caps_its_trace_residues(capsys, monkeypatch, argv,
                                              size):
    from gl2lab import hecke
    from gl2lab.errors import ResourceLimit

    seen = []

    def stop_at_residues(size, what, default=200_000):
        seen.append((what, default))
        if what == "tower trace residues":
            seen.append(size)
            raise ResourceLimit(what)

    monkeypatch.setattr(hecke, "check_cap", stop_at_residues)
    assert main(["verify-tower", *argv]) == 2
    assert seen == [("tower average arithmetic", 2_500_000),
                    ("tower trace residues", 200_000), size]


def test_verify_tower_runs_past_q_21(capsys, monkeypatch):
    # q = 25 was refused by a q^4 "congruence subgroup enumeration" cap
    # that no loop of the histogram had
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    code, out = run(capsys, "verify-tower", "--q", "25", "--n", "1")
    rep = json.loads(out)
    assert code == 0 and rep["summary"] == {"failed": 0, "passed": 1,
                                            "total": 1}
    # 300 points times 997 residues is over the default cap, before sampling
    assert main(["verify-tower", "--q", "997", "--n", "1",
                 "--samples", "300"]) == 2
    err = capsys.readouterr().err
    assert "tower trace residues needs 299100" in err
    assert "Traceback" not in err


def _rows(out):
    return {row["name"]: row for row in json.loads(out)["checks"]}


def test_failed_orbital_row_keeps_its_witness(capsys, monkeypatch):
    from gl2lab import checks

    argv = ["verify-orbital", "--q", "3", "--n", "1", "--samples", "10"]
    code, out = run(capsys, *argv)
    assert code == 0 and "witness" not in _rows(out)["orbital-ratio-closed-form"]
    real = checks.c_closed
    monkeypatch.setattr(checks, "c_closed", lambda inv, n, q: real(inv, n, q) + 1)
    code, out = run(capsys, *argv)
    assert code == 1
    row = _rows(out)["orbital-ratio-closed-form"]
    assert not row["pass"] and row["actual"] == 10
    wit = row["witness"]
    assert set(wit) == {"gamma", "closed_form", "ratio"}
    assert wit["gamma"].startswith("p^")
    assert int(wit["closed_form"]) == int(wit["ratio"]) + 1


def test_failed_branch_coverage_row_names_the_unreached_branch(capsys,
                                                               monkeypatch):
    from gl2lab import checks

    argv = ["verify-orbital", "--q", "3", "--n", "1", "--samples", "10"]
    code, out = run(capsys, *argv)
    assert code == 0 and "witness" not in _rows(out)["orbital-branch-coverage"]
    real = checks._orbital_sample
    # the sample without its trace-divisible points
    monkeypatch.setattr(checks, "_orbital_sample", lambda ctx, n, per, seed: [
        g for g in real(ctx, n, per, seed) if not g.trace_val_ge(1)])
    code, out = run(capsys, *argv)
    assert code == 1
    rows = _rows(out)
    row = rows["orbital-branch-coverage"]
    assert not row["pass"] and row["actual"] is False
    branches = rows["orbital-ratio-closed-form"]["inputs"]["branches"]
    assert branches["trace-divisible"] == 0
    assert row["witness"] == {"unreached": ["trace-divisible"],
                              "branches": branches}
    assert rows["orbital-ratio-closed-form"]["pass"]


TREE_ARGV = ["tree-fixed-set", "--p", "2", "--verify", "--probes", "5"]


def test_passing_tree_rows_carry_no_witness(capsys):
    code, out = run(capsys, *TREE_ARGV)
    assert code == 0
    assert not any("witness" in row for row in _rows(out).values())


@pytest.mark.parametrize("field,value,name,keys", [
    ("nearest_unique", False, "nearest-vertex-unique",
     {"gamma", "nearest", "nearest_unique"}),
    ("k_tree", 99, "k-tree-equals-k", {"gamma", "k", "k_tree"}),
])
def test_failed_tree_probe_row_keeps_its_witness(capsys, monkeypatch, field,
                                                 value, name, keys):
    from gl2lab import checks

    real = checks.fixed_set
    monkeypatch.setattr(checks, "fixed_set", lambda g, depth: real(
        g, depth)._replace(**{field: value}))
    code, out = run(capsys, *TREE_ARGV)
    assert code == 1
    rows = _rows(out)
    assert not rows[name]["pass"] and rows[name]["actual"] == 5
    wit = rows[name]["witness"]
    assert set(wit) == keys and wit["gamma"].startswith("p^")
    assert wit[field] == str(value)
    if field == "k_tree":
        assert int(wit["k"]) != 99
    other = ({"nearest-vertex-unique", "k-tree-equals-k"} - {name}).pop()
    assert rows[other]["pass"] and "witness" not in rows[other]


def test_failed_neighbor_count_row_keeps_its_witness(capsys, monkeypatch):
    from gl2lab import checks

    real = checks.stabilized_line_count
    monkeypatch.setattr(checks, "stabilized_line_count",
                        lambda g: real(g) + 1)
    code, out = run(capsys, *TREE_ARGV)
    assert code == 1
    row = _rows(out)["neighbor-non-stabilized-counts"]
    assert not row["pass"] and row["actual"] > 0
    wit = row["witness"]
    assert set(wit) == {"gamma", "fixed_lines", "stabilized_neighbors",
                        "expected"}
    assert wit["gamma"].startswith("p^")
    # one too many fixed lines: neither the neighbors nor the closed form agree
    assert int(wit["fixed_lines"]) == int(wit["stabilized_neighbors"]) + 1
    assert int(wit["fixed_lines"]) == int(wit["expected"]) + 1


@pytest.mark.parametrize("q", [4, 9])
def test_verify_tower_reaches_extension_fields(capsys, q):
    # r = 2: the average runs on the coefficient pairs, not on q^4 products
    code, out = run(capsys, "verify-tower", "--q", str(q), "--n", "1",
                    "--samples", "12")
    rep = json.loads(out)
    assert code == 0 and rep["summary"] == {"failed": 0, "passed": 1,
                                            "total": 1}
    assert rep["checks"][0]["inputs"] == {"q": q, "n": 1, "samples": 12}


@pytest.mark.parametrize("argv,what,cap", [
    (["verify-central", "--samples", "100000000"],
     "central function convolution", 200_000),
    (["verify-orbital", "--q", "2", "--n", "1", "--samples", "100000000"],
     "orbital ratio shell sums", 50_000),
    (["verify-exact-seq", "--p", "2", "--r", "2", "--n", "1",
      "--samples", "100000000"], "unit-group exactness sample", 20_000),
    (["tree-fixed-set", "--p", "2", "--verify", "--probes", "100000000"],
     "tree-lemma probes", 10_000),
])
def test_sampled_counts_are_capped_before_they_are_drawn(capsys, monkeypatch,
                                                          argv, what, cap):
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 5
    err = capsys.readouterr().err
    assert f"{what} needs" in err and f"cap is {cap}" in err
    assert "Traceback" not in err


def test_probes_below_one_exit_two(capsys):
    for probes in ("0", "-5"):
        assert main(["tree-fixed-set", "--p", "2", "--verify",
                     "--probes", probes]) == 2
        err = capsys.readouterr().err
        assert "argument --probes: need an integer >= 1" in err


@pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (2, 3)])
def test_tree_lemma_runs_over_unramified_extensions(capsys, monkeypatch, p,
                                                    r):
    # the residue matrices mod p are F_q coefficient tuples, q = p^r, and
    # every one of the q^4 is examined
    from gl2lab import checks

    real, residues = checks._lift_det_val_one, set()

    def lift(ctx, residue):
        residues.add(residue)
        return real(ctx, residue)

    monkeypatch.setattr(checks, "_lift_det_val_one", lift)
    code, out = run(capsys, "tree-fixed-set", "--p", str(p), "--r", str(r),
                    "--verify", "--probes", "5")
    rows = json.loads(out)["checks"]
    assert code == 0 and len(rows) == 3 and all(row["pass"] for row in rows)
    q = p**r
    assert all(row["inputs"]["q"] == q for row in rows)
    assert rows[2]["inputs"]["counts_seen"] == [q - 1, q]
    assert len(residues) == q**4


def test_tree_lemma_residues_are_capped(capsys, monkeypatch):
    # q^4 residue matrices times q + 1 neighbours: 1,114,112 at q = 16
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    for argv in (["--p", "2", "--r", "4"], ["--p", "1009"]):
        assert main(["tree-fixed-set", *argv, "--verify", "--probes",
                     "5"]) == 2
        err = capsys.readouterr().err
        assert "tree-lemma residue neighbours needs" in err
        assert "Traceback" not in err


def test_report_all_and_oneshot_counts_lie_under_the_sample_caps(monkeypatch):
    # each cap is the first thing its battery does; stop there and compare
    from gl2lab import campaigns, checks, hecke

    class Capped(Exception):
        pass

    seen = []

    def record(size, what, default=200_000):
        seen.append((what, size, default))
        raise Capped(what)

    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    for module in (campaigns, checks, hecke):
        monkeypatch.setattr(module, "check_cap", record)
    calls = [campaigns.exact_sequence_checks, campaigns.tree_checks,
             campaigns.centrality_checks]
    # report-all's orbital cases, and the one-shot verify-orbital's
    calls += [lambda case=case, per=per: campaigns.orbital_checks(
        cases=(case,), per=per)
        for per in (50, 20) for case in ((2, 1), (2, 2), (3, 1), (3, 2))]
    for call in calls:
        with pytest.raises(Capped):
            call()
    assert len(seen) == len(calls)
    assert all(size <= default for _, size, default in seen)


def test_failed_cross_identity_row_keeps_its_witness(capsys, monkeypatch):
    from gl2lab import checks

    argv = ["verify-cr", "--p", "3", "--n", "1"]
    code, out = run(capsys, *argv)
    assert code == 0 and not any("witness" in row
                                 for row in json.loads(out)["checks"])
    real = checks.c_r_char
    # one more on the ordinary branch, at a = 1 and a = 2
    monkeypatch.setattr(checks, "c_r_char", lambda inv, p, r, n: (
        real(inv, p, r, n) + (inv.t2_residue is not None)))
    code, out = run(capsys, *argv)
    assert code == 1
    row = _rows(out)["c-closed-vs-characters"]
    assert not row["pass"] and row["actual"] == 2
    wit = row["witness"]
    assert set(wit) == {"input", "closed_form", "characters"}
    assert wit["input"] == "a = 1"
    assert Fraction(wit["characters"]) == Fraction(wit["closed_form"]) + 1
    assert _rows(out)["ss-trace-dual-path"]["pass"]


def test_failed_dual_path_row_keeps_its_witness(capsys, monkeypatch):
    from gl2lab import finitegl2

    argv = ["verify-cr", "--p", "3", "--n", "1"]
    real = finitegl2.fixed_surjections
    # the battery imports fixed_surjections from finitegl2 when it runs
    monkeypatch.setattr(finitegl2, "fixed_surjections", lambda p, n, g, a=1: (
        real(p, n, g, a=a) + (a == 2)))
    code, out = run(capsys, *argv)
    assert code == 1
    rows = _rows(out)
    row = rows["ss-trace-dual-path"]
    assert not row["pass"] and row["actual"] == 1
    assert row["witness"] == {"point": "a = 2", "character_sum": "0",
                              "second_path": "1"}
    assert rows["c-closed-vs-characters"]["pass"]
    assert "witness" not in rows["c-closed-vs-characters"]


def test_failed_drinfeld_row_names_its_class(capsys, monkeypatch):
    from gl2lab import finitegl2

    argv = ["verify-cr", "--p", "3", "--n", "1"]
    code, out = run(capsys, *argv)
    assert code == 0 and "witness" not in _rows(out)["drinfeld-decomposition"]
    G = finitegl2.FiniteGL2(3, 1)
    bad = G.class_reps[-1]
    induced = G.char_order * G.borel_counts[len(G.class_reps) - 1][1]
    real = finitegl2.fixed_surjections
    # the battery imports fixed_surjections from finitegl2 when it runs
    monkeypatch.setattr(finitegl2, "fixed_surjections", lambda p, n, g, a=1: (
        real(p, n, g, a=a) + (tuple(g) == bad)))
    code, out = run(capsys, *argv)
    assert code == 1
    rows = _rows(out)
    row = rows["drinfeld-decomposition"]
    assert not row["pass"] and row["actual"] is False
    assert row["witness"] == {"representative": str(bad),
                              "surjections": str(induced + 1),
                              "phi_borel": str(induced)}
    assert rows["ss-trace-dual-path"]["pass"]


NORM_ARGV = ["verify-norm", "--p", "2", "--r", "2", "--n", "1"]


def test_failed_norm_bijection_row_names_its_class(capsys, monkeypatch):
    from gl2lab import normcert
    from gl2lab.finitegl2 import FiniteGL2

    code, out = run(capsys, *NORM_ARGV)
    assert code == 0 and not any("witness" in row
                                 for row in _rows(out).values())
    # a norm preimage for the first class alone: the second class is the
    # first without one
    reps = FiniteGL2(2, 1).class_reps
    real = normcert.norm_preimage
    monkeypatch.setattr(normcert, "norm_preimage", lambda ring, gamma: (
        real(ring, gamma) if gamma == reps[0] else None))
    code, out = run(capsys, *NORM_ARGV)
    assert code == 1
    rows = _rows(out)
    tab = json.loads(out)["table"]
    row = rows["norm-bijection"]
    assert not row["pass"] and row["actual"] is False
    assert row["witness"] == {"class": str(reps[1]),
                              "classes": str(tab["class_count"]),
                              "orbits": str(tab["orbit_count"])}


def test_unclaimed_orbit_is_the_bijection_witness(monkeypatch):
    from gl2lab import basechange, campaigns

    real = basechange.sigma_orbits(2, 2, 1)
    # a table where every class has its own orbit but one orbit is left
    tab = real._replace(orbit_count=real.orbit_count + 1, bijection=False,
                        unclaimed=(0, 1, 2, 3))
    row = campaigns.norm_table_checks(tab)[1].to_dict()
    assert row["name"] == "norm-bijection" and not row["pass"]
    assert row["witness"] == {"orbit": "(0, 1, 2, 3)",
                              "classes": str(real.class_count),
                              "orbits": str(real.orbit_count + 1)}


def test_failed_centralizer_rows_name_their_class(capsys, monkeypatch):
    # one twisted centralizer one too large fails the centralizer rows and
    # the twisted class equation, and with it the bijection, each with that
    # class as the witness; it is a failed check with exit 1, not an
    # exception in sigma_orbits
    from gl2lab import normcert
    from gl2lab.finitegl2 import FiniteGL2
    from gl2lab.padic import group_order_gl2
    from gl2lab.ringtables import RingTableLists

    G = FiniteGL2(2, 1)
    bad = len(G.class_reps) - 1
    real = normcert.twisted_centralizer_order
    bad_delta = normcert.norm_preimage(RingTableLists(2, 2, 1),
                                       G.class_reps[bad])
    monkeypatch.setattr(normcert, "twisted_centralizer_order",
                        lambda ring, delta: real(ring, delta)
                        + (delta == bad_delta))
    code, out = run(capsys, *NORM_ARGV)
    assert code == 1
    rows = _rows(out)
    orbit = next(o for o in json.loads(out)["table"]["orbits"]
                 if o["norm_class"] == bad)
    stand = group_order_gl2(2, 1) // G.class_sizes[bad]
    assert orbit["tw_centralizer"] == stand + 1
    assert rows["centralizer-orders"]["witness"] == {
        "class": str(G.class_reps[bad]), "tw_centralizer": str(stand + 1),
        "norm_centralizer": str(stand)}
    order = group_order_gl2(4, 1)
    total = sum(Fraction(order, o["tw_centralizer"])
                for o in json.loads(out)["table"]["orbits"])
    assert total != order
    assert rows["orbit-stabilizer"]["witness"] == {
        "class": str(G.class_reps[bad]), "class_equation_sum": str(total),
        "group_order": str(order)}
    assert rows["norm-bijection"]["witness"]["class"] == str(G.class_reps[bad])
    assert rows["sigma-orbit-count"]["pass"]


@pytest.mark.parametrize("argv,digest", [
    (["report-all"],
     "11ec09e0f1cd27522ede9542b5c7047a353d9f2ca62c8b30ab037afda438abda"),
    (["report-all", "--seed", "7"],
     "cf49edfbe3340c9d41abf509a84f983508f913986b9dd119febe1684456571a0"),
])
def test_report_all_bytes_are_pinned(capsys, monkeypatch, argv, digest):
    import hashlib

    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# digests of the one-shot commands that read the polynomial kernel, taken
# before the rings shared it
@pytest.mark.parametrize("argv,digest", [
    (["eval-phi", "--p", "3", "--r", "2", "--n", "2", "--matrix",
      "[[3,1],[0,1]]", "--deformed"],
     "a31874ed274bc24f753b908acbe46ddcd7edbb4d54e345d68969a7a873e126e8"),
    (["eval-phi", "--p", "2", "--r", "2", "--n", "1", "--matrix",
      "[[2,0],[0,1]]"],
     "6452637886802e29609ec2c8630b9a34dad373ccb896ca31fb6c92a2c521b1a3"),
    (["eval-phi", "--p", "2", "--r", "35", "--n", "1", "--matrix",
      "[[2,0],[0,1]]"],
     "2b26ea367f1229da37e6ab781dd8555380d565e53681c3b21fedcdb6bed72380"),
    (["char-table", "--p", "3", "--n", "2"],
     "9210456c709411452f03fbeb6a936fe53ed7ddb28076c14ba9f6e4af265dcdf3"),
    (["ss-trace", "--p", "3", "--r", "2", "--n", "1", "--kind", "ordinary",
      "--a", "2"],
     "2cc30b3b05d5177271a5d5680c7fd803ef0bbfb0f20e09a04528504deb5f1182"),
    (["ss-trace", "--p", "3", "--r", "2", "--n", "1", "--kind",
      "supersingular"],
     "c49a35bb551c7a0ac1066ffdd975dd7e74c572414824d544ab4923a5ee9bdecb"),
    (["verify-cr", "--p", "2", "--n", "2"],
     "909f6f5e0ea6e0b6b4524199636f5f9f8e738c2937ba6055a055dc30598b4bf6"),
    # local campaigns at r = 2, which report-all runs at r = 1 only: the
    # Newton inverse in the coset key, entries printed as coefficient lists
    (["verify-central", "--q", "4", "--n", "1"],
     "6e96f55c58c1ae1dd66efc3db00335d94ede60fc1ec4f2067e4320201f7a0df6"),
    # double cosets listed as u_z w, digest taken from the saturation
    (["verify-central", "--q", "9", "--n", "2"],
     "4cb679f6e0ffd3cab1b937e85beea96f81ec581cb3d22317efc93f59fff10a0b"),
    (["tree-fixed-set", "--p", "3", "--r", "2", "--gamma",
      "[[[0,1],1],[3,0]]", "--depth", "2"],
     "d398effec0d15ca761e004dea549c1197e79e8f837ae0201527ad13f7d5deacc"),
    (["verify-tower", "--q", "4", "--n", "1", "--samples", "40"],
     "1fefb4c14563393a0e4b0b07beed65decd761bcd2969499f0da3341279f0f146"),
], ids=lambda v: " ".join(v[:1] + v[-2:]) if isinstance(v, list) else "")
def test_oneshot_bytes_are_pinned(capsys, monkeypatch, argv, digest):
    import hashlib

    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_cr_reads_one_borel_row_past_the_default_cap(capsys,
                                                            monkeypatch):
    import hashlib

    # p^(4n) = 531,441 codes: past the default cap, under this one; the
    # digest is the output of the full class-table traces
    monkeypatch.setenv("GL2LAB_MAX_ELEMS", "600000")
    code, out = run(capsys, "verify-cr", "--p", "3", "--n", "3")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "2acebb7b7e8ecd7714d6fd235db97362cc5bbddfd26786918a347bf7e2610fd9")


# digests taken with GL2LAB_MAX_ELEMS=2000000 from the Drinfeld character
# that looped over the p^(2n) row vectors for every class; (7, 2) from the
# cyclotomic class functions, before the values were read off the Borel rows
@pytest.mark.parametrize("p,n,digest", [
    (5, 2, "cbb2cec62b30da3b1b0b2af847e5dfeeb31977ad4367047f32ef315a731f2205"),
    (3, 3, "2acebb7b7e8ecd7714d6fd235db97362cc5bbddfd26786918a347bf7e2610fd9"),
    (2, 5, "ccc0b8060bf6c3a960b945b4a12ac1bae34a7e292ae300e4809b0125ac883979"),
    (7, 2, "88b2580be5b4b1ee4398ce8b5c46e22468a29216a0df8640ad98021ea22f162f"),
])
def test_verify_cr_runs_under_the_default_cap(capsys, monkeypatch, p, n,
                                              digest):
    import hashlib

    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    code, out = run(capsys, "verify-cr", "--p", str(p), "--n", str(n))
    assert code == 0 and p**(4 * n) > 200_000
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_commands_and_campaigns_need_no_cyclotomic_arithmetic(capsys,
                                                              monkeypatch):
    from gl2lab import campaigns
    from gl2lab.cyclotomic import CyclotomicValue

    def tripwire(self, M, coeffs):
        raise RuntimeError("cyclotomic arithmetic on a command path")

    monkeypatch.setattr(CyclotomicValue, "__init__", tripwire)
    with pytest.raises(RuntimeError):
        CyclotomicValue.rational(6, 1)
    for argv in (["char-table", "--p", "3", "--n", "2"],
                 ["ss-trace", "--p", "3", "--r", "2", "--n", "2",
                  "--kind", "ordinary", "--a", "4"],
                 ["ss-trace", "--p", "3", "--r", "2", "--n", "2",
                  "--kind", "supersingular"],
                 ["verify-cr", "--p", "3", "--n", "2"]):
        code, _ = run(capsys, *argv)
        assert code == 0, argv
    for battery in (campaigns.cross_identity_checks,
                    campaigns.drinfeld_checks, campaigns.census_checks):
        assert all(c.passed for c in battery()), battery.__name__


# digests taken from the materialized-group class table, with the cap raised
# past the p^(4n) codes it listed; (7, 2) from the cyclotomic class functions,
# before the values were read off the Borel rows
@pytest.mark.parametrize("p,n,digest", [
    (5, 2, "303a8c67f620ff586a49df52e61781ff21d9cea06b3cb136c0606c61387d3591"),
    (3, 3, "937df11a036291fc7093858f5959c7cd9f1baeca8a475d69c0471e4c1ee9feb7"),
    (2, 5, "ccb36469cdf2d785af5503f8cc1d61aa39f3f45932a52606750b657685113cd2"),
    (7, 2, "f20403505f79f6ff11d81d91ccad6b9d2f96d957aadd3a8c7a4da5dead177b22"),
])
def test_char_table_runs_past_the_code_space_cap(capsys, monkeypatch, p, n,
                                                 digest):
    import hashlib

    from gl2lab.padic import group_order_gl2

    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    code, out = run(capsys, "char-table", "--p", str(p), "--n", str(n))
    assert code == 0 and p**(4 * n) > 200_000
    table = json.loads(out)
    assert (sum(c["size"] for c in table["classes"]) == table["group_order"]
            == group_order_gl2(p, n))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_census_point_traces_need_no_class_table(capsys, monkeypatch):
    # 13^8 codes of GL2(Z/169); the point traces read the unit group only
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    code, out = run(capsys, "census", "--q", "13", "--m", "3", "--n", "2")
    assert code == 0
    rep = json.loads(out.strip().split("\n")[-1])
    assert rep["n"] == 2 and rep["per_class"]


@pytest.mark.parametrize("argv", [
    ["verify-central", "--n", "100000"],
    ["tree-orbital", "--p", "2", "--n", "1000000", "--gamma",
     "[[0,1],[-2,0]]"],
    ["eval-phi", "--p", "2", "--n", "100000", "--matrix", "[[2,0],[0,1]]"],
    # q^(2n - 1) of 5,779 digits at q = 16 would pass N alone
    ["eval-phi", "--p", "2", "--r", "4", "--n", "2400", "--matrix",
     "[[2,0],[0,1]]"],
], ids=lambda argv: " ".join(argv[:1] + argv[2:6]))
def test_level_n_is_capped_before_its_integers_are_formed(capsys, monkeypatch,
                                                          argv):
    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 5
    err = capsys.readouterr().err
    assert "working precision of GR(2^" in err and "cap is 10000" in err
    assert "Traceback" not in err and "4300" not in err


def test_report_all_contexts_lie_under_the_precision_cap(capsys, monkeypatch):
    from gl2lab import padic

    seen = []
    real = padic.check_cap

    def record(size, what, default=200_000):
        if what.startswith("working precision"):
            seen.append((what, size, default))
        real(size, what, default)

    monkeypatch.delenv("GL2LAB_MAX_ELEMS", raising=False)
    monkeypatch.setattr(padic, "check_cap", record)
    monkeypatch.setattr(padic, "_CTX_CACHE", {})
    assert main(["report-all"]) == 0
    capsys.readouterr()
    assert len(seen) > 10
    assert all(size <= default == 10_000 for _, size, default in seen)


def test_failed_exact_sequence_row_keeps_its_witness(capsys, monkeypatch):
    from gl2lab import basechange

    argv = ["verify-exact-seq", "--p", "2", "--r", "2", "--n", "1",
            "--samples", "4"]
    code, out = run(capsys, *argv)
    assert code == 0 and "witness" not in out
    real = basechange._commutant_units

    def one_small_unit_short(ring, gamma, scalars):
        units = real(ring, gamma, scalars)
        return units if len(scalars) == ring.Q else units[1:]
    monkeypatch.setattr(basechange, "_commutant_units", one_small_unit_short)
    code, out = run(capsys, *argv)
    assert code == 1
    row = _rows(out)["unit-group-exact-sequence"]
    assert not row["pass"] and row["actual"] is False
    wit = row["witness"]
    # a scalar gamma has every small unit twice over, so it stays exact
    assert wit["gamma"] == "(1, 0, 1, 1)"
    assert wit["spot"] == "sigma-fixed units = small units"
    assert int(wit["left_size"]) == int(wit["right_size"]) + 1


def test_failed_bc_unit_row_keeps_its_witness(capsys, monkeypatch):
    from gl2lab import basechange
    from gl2lab.finitegl2 import FiniteGL2

    argv = ["verify-bc-unit", "--p", "2", "--r", "2", "--j", "1", "--k", "0"]
    code, out = run(capsys, *argv)
    assert code == 0 and "witness" not in out
    real = basechange._norm_class_reader

    # a wrong class read off each norm of the left side; the r = 1 table,
    # which numbers the classes for the right side, stays as it is
    def classes_shifted(ring, G):
        read = real(ring, G)
        return lambda *x: (read(*x) + 1) % len(G.class_reps)
    monkeypatch.setattr(basechange, "_norm_class_reader", classes_shifted)
    code, out = run(capsys, *argv)
    assert code == 1
    rows = [row for row in json.loads(out)["checks"]
            if row["name"] == "bc-unit-identity"]
    # a constant f cannot tell the classes apart; an indicator can
    assert rows[0]["pass"] and "witness" not in rows[0]
    failed = [row for row in rows if not row["pass"]]
    assert failed and all(set(row["witness"]) == {
        "delta", "left_average", "right_average"} for row in failed)
    # at k = 0 both averages run over the whole group: an indicator of class
    # c averages to |c| / |GL2(Z/2)| on the right, while on the left the
    # shift hands class c the elements whose norms lie in class c - 1
    small = FiniteGL2(2, 1)
    share = [Fraction(size, small.order) for size in small.class_sizes]
    for row in failed:
        c = row["inputs"]["function"] - 1
        wit = row["witness"]
        assert len(json.loads(wit["delta"])) == 4
        assert Fraction(wit["left_average"]) == share[c - 1]
        assert Fraction(wit["right_average"]) == share[c]
