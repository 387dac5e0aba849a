"""Command-line driver: verification campaigns and table generators.

Every campaign prints a machine-readable report (JSON, or CSV for the
census) and exits 0 on all-pass, 1 on any failed verification, 2 on a
usage error.  An identity that a computation rests on and that does not
hold (`BrokenIdentity`) is a failed verification too: one line on stderr
and exit 1.  Reports are byte-deterministic for a fixed configuration
and seed; wall-clock timings go to stderr only.

Each command imports the layers it uses when it runs, after it has checked
its input with the rules of `padic`, which the CLI loads anyway: p, r, q,
n, the matrix, eval-phi's level and tree-fixed-set's depth for the
local-path commands, and p, n, q, r, the point kind and residue,
the level m and the congruence level k for the table commands.  So
malformed input exits 2 before any layer below loads.  The layers each
command loads:

- eval-phi: `testfunc` (with `ratfunc`); tree-orbital and tree-fixed-set:
  `tree` on top of it;
- verify-tower, verify-central, verify-orbital and tree-fixed-set
  `--verify`: the batteries of `checks`, with `hecke` and `tree`;
- char-table and ss-trace: the pure-Python `finitegl2`; verify-cr:
  `checks` on top of it;
- census and `boundary` (`--enumerate` included): `curves`, with
  `finitegl2` and the list tables of `ringtables`;
- verify-norm: the certificate of `normcert`, on the same two;
- verify-exact-seq and verify-bc-unit: `basechange`, with its two
  batteries, on top of the certificate;
- report-all: `campaigns`, which binds every layer.

No command loads numpy.  Only report-all loads `inspect`, to see which
batteries take a seed; the report records are plain classes and
NamedTuples, which need none of it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import DEFAULT_SEED
from .errors import BrokenIdentity, DomainError, GL2LabError
from .padic import (LocalMatrix, check_boundary_input, check_fixed_set_input,
                    check_level, check_phi_level, check_point_trace_input,
                    check_prime_level, check_unit_group_input,
                    factor_prime_power, get_context)

SCHEMA_VERSION = "1"


def _emit(report: dict, out=None):
    report = {"schema_version": SCHEMA_VERSION, **report}
    text = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verdict(campaign: str, checks, params: dict, out=None, extra=None,
             seed=DEFAULT_SEED) -> int:
    rows = [c.to_dict() for c in checks]
    passed = sum(1 for c in checks if c.passed)
    report = {
        "campaign": campaign,
        "config": {"command": campaign, "seed": seed, **params},
        "checks": rows,
        "summary": {"total": len(rows), "passed": passed,
                    "failed": len(rows) - passed},
    }
    if extra:
        report.update(extra)
    _emit(report, out)
    return 0 if passed == len(rows) else 1


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_matrix(ctx, text, e=0):
    """[[a, b], [c, d]] from JSON: int entries, or length-r int lists if r > 1."""
    rows = json.loads(text)

    def entry_ok(x):
        return _is_int(x) or (ctx.r > 1 and isinstance(x, list)
                              and len(x) == ctx.r and all(map(_is_int, x)))
    if not (isinstance(rows, list) and len(rows) == 2
            and all(isinstance(row, list) and len(row) == 2
                    and all(map(entry_ok, row)) for row in rows)):
        shape = "integers" if ctx.r == 1 else f"integers or {ctx.r}-lists of them"
        raise DomainError(f"matrix must be [[a, b], [c, d]] with entries {shape}; "
                          f"got {text}")
    return LocalMatrix.from_integers(ctx, rows, e=e)


def _positive_int(text):
    """argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")
    return value


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report to this file")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser = argparse.ArgumentParser(
        prog="gl2lab",
        description="exact GL(2) p-adic harmonic analysis verification lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    sp = add_parser("eval-phi", help="evaluate the central test function")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--matrix", required=True, help='e.g. "[[2,0],[0,1]]"')
    sp.add_argument("--e", type=int, default=0, help="power-of-p prefactor")
    sp.add_argument("--deformed", action="store_true")

    sp = add_parser("tree-orbital", help="orbital ratio via the tree")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--e", type=int, default=0)

    sp = add_parser("tree-fixed-set", help="stabilized vertices report")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--gamma")
    sp.add_argument("--e", type=int, default=0)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--verify", action="store_true",
                    help="run the tree-lemma battery instead (criterion 8)")
    sp.add_argument("--probes", type=_positive_int, default=100)

    sp = add_parser("char-table", help="principal-series character data")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = add_parser("ss-trace", help="semisimple point trace")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--kind", choices=["ordinary", "supersingular"],
                    required=True)
    sp.add_argument("--a", type=int, help="unit eigenvalue residue mod p^n")

    sp = add_parser("verify-norm", help="criterion 1 at one (p, r, n)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = add_parser("verify-exact-seq", help="criterion 2")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=_positive_int, default=20)

    sp = add_parser("verify-bc-unit", help="criterion 3")
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--j", type=int, default=2)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--functions", type=_positive_int, default=3)

    sp = add_parser("verify-tower", help="criterion 4 at one (q, n)")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=_positive_int, default=200)

    sp = add_parser("verify-central", help="criterion 9")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--samples", type=_positive_int, default=100)

    sp = add_parser("verify-orbital", help="criterion 5 at one (q, n)")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=_positive_int, default=50)

    sp = add_parser("verify-cr", help="criteria 6 and 7 at one (p, n)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = add_parser("census", help="elliptic curve census and traces")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--format", choices=["json", "csv"], default="csv")

    sp = add_parser("boundary", help="boundary semisimple trace")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--enumerate", action="store_true",
                    help="also run the independent packet enumeration")

    add_parser("report-all", help="run the full acceptance battery")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except BrokenIdentity as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 1
    except (GL2LabError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    t0 = time.time()
    try:
        return _run_command(args)
    finally:
        sys.stderr.write(f"[{cmd}] wall-clock {time.time() - t0:.2f}s\n")


def _run_command(args) -> int:
    cmd = args.command
    if cmd in ("tree-orbital", "verify-tower", "verify-central",
               "verify-orbital") and args.n < 1:
        raise DomainError(f"{cmd} needs n >= 1")

    if cmd == "eval-phi":
        ctx = get_context(args.p, args.r, 2 * args.n + 6)
        g = _parse_matrix(ctx, args.matrix, e=args.e)
        check_phi_level(args.n)
        from fractions import Fraction

        from .testfunc import phi_branch, phi_pn, phi_p0, phi_pnt
        branch, k, ell = phi_branch(g, args.n)
        report = {
            "campaign": "eval-phi",
            "matrix": g.to_text(),
            "q": ctx.q, "n": args.n,
            "branch": branch, "k": k,
            "ell_capped": ell,
            "value": str(phi_pnt(g, args.n)) if args.deformed
            else str(Fraction(phi_pn(g, args.n))),
            "level0_value": str(phi_p0(g)),
        }
        _emit(report, args.out)
        return 0

    if cmd == "tree-orbital":
        ctx = get_context(args.p, args.r, 2 * args.n + 6)
        g = _parse_matrix(ctx, args.gamma, e=args.e)
        from .tree import orbital_ratio, orbital_shell_tally
        ratio, supported = orbital_ratio(g, args.n)
        report = {
            "campaign": "tree-orbital",
            "gamma": g.to_text(), "q": ctx.q, "n": args.n,
            "ratio": str(ratio), "supported": supported,
            "shells": [{k: str(v) for k, v in row.items()}
                       for row in (orbital_shell_tally(g, args.n)
                                   if supported else [])],
        }
        _emit(report, args.out)
        return 0

    if cmd == "tree-fixed-set":
        if args.verify:
            get_context(args.p, args.r, 1)  # a prime p and r >= 1
            from .checks import tree_checks
            checks = tree_checks(qs=(args.p**args.r,), probes=args.probes,
                                 seed=args.seed)
            return _verdict("tree-lemma", checks,
                            {"p": args.p, "r": args.r, "probes": args.probes},
                            args.out, seed=args.seed)
        if not args.gamma:
            raise DomainError("--gamma is required without --verify")
        ctx = get_context(args.p, args.r, 2 * args.depth + 8)
        g = _parse_matrix(ctx, args.gamma, e=args.e)
        check_fixed_set_input(g, args.depth)
        from .tree import fixed_set
        rep = fixed_set(g, args.depth)
        report = {
            "campaign": "tree-fixed-set",
            "gamma": g.to_text(), "depth": rep.depth,
            "k_tree": rep.k_tree,
            "nearest": repr(rep.nearest),
            "nearest_unique": rep.nearest_unique,
            "connected": rep.check_connected(),
            "stabilized": [repr(v) for v in rep.stabilized],
        }
        _emit(report, args.out)
        return 0

    if cmd == "char-table":
        check_prime_level(args.p, args.n)
        from .finitegl2 import FiniteGL2
        G = FiniteGL2(args.p, args.n)
        # St(c) = Ind(1)(c) - 1 counts the lines c fixes, less one; every
        # Ind(1 x chi) has the degree of Ind(1), the lines the identity fixes
        lines = sum(G.borel_counts[G.identity_class])
        table = {
            "campaign": "char-table",
            "p": args.p, "n": args.n,
            "group_order": G.order,
            "classes": [
                {"rep": list(rep), "size": size,
                 "steinberg": str(sum(row) - 1)}
                for rep, size, row in
                zip(G.class_reps, G.class_sizes, G.borel_counts)
            ],
            "characters": [{"chi": repr(chi), "degree": str(lines)}
                           for chi in G.characters()],
        }
        _emit(table, args.out)
        return 0

    if cmd == "ss-trace":
        check_prime_level(args.p, args.n)
        check_point_trace_input(args.p, args.r, args.kind, args.a)
        from .finitegl2 import ss_trace_point
        val = ss_trace_point(args.kind, args.p, args.r, args.n, a=args.a)
        _emit({"campaign": "ss-trace", "kind": args.kind,
               "p": args.p, "r": args.r, "n": args.n, "a": args.a,
               "value": str(val)}, args.out)
        return 0

    if cmd == "verify-norm":
        check_unit_group_input(args.p, args.r, args.n)
        from .normcert import norm_table_checks, sigma_orbits
        tab = sigma_orbits(args.p, args.r, args.n)
        return _verdict("norm-bijection", norm_table_checks(tab),
                        {"p": args.p, "r": args.r, "n": args.n}, args.out,
                        extra={"table": tab.to_dict()})

    if cmd == "verify-exact-seq":
        check_unit_group_input(args.p, args.r, args.n)
        from .basechange import exact_sequence_checks
        checks = exact_sequence_checks(
            cases=((args.p, args.r, args.n),), samples=args.samples,
            seed=args.seed)
        return _verdict("exact-sequence", checks,
                        {"p": args.p, "r": args.r, "n": args.n,
                         "samples": args.samples}, args.out, seed=args.seed)

    if cmd == "verify-bc-unit":
        check_unit_group_input(args.p, args.r, args.j, args.k)
        from .basechange import bc_unit_checks
        checks = bc_unit_checks(p=args.p, r=args.r, j=args.j, k=args.k,
                                functions=args.functions)
        return _verdict("bc-unit", checks,
                        {"p": args.p, "r": args.r, "j": args.j, "k": args.k},
                        args.out)

    if cmd == "verify-tower":
        factor_prime_power(args.q)
        from .checks import tower_checks
        checks = tower_checks(cases=((args.q, args.n),), samples=args.samples,
                              seed=args.seed)
        return _verdict("tower", checks,
                        {"q": args.q, "n": args.n, "samples": args.samples},
                        args.out, seed=args.seed)

    if cmd == "verify-central":
        factor_prime_power(args.q)
        from .checks import centrality_checks
        checks = centrality_checks(q=args.q, n=args.n, samples=args.samples,
                                   seed=args.seed)
        return _verdict("centrality", checks,
                        {"q": args.q, "n": args.n}, args.out, seed=args.seed)

    if cmd == "verify-orbital":
        get_context(args.q, 1, 2 * args.n + 6)  # the context the checks use
        from .checks import orbital_checks
        checks = orbital_checks(cases=((args.q, args.n),), per=args.samples,
                                seed=args.seed)
        return _verdict("orbital", checks,
                        {"q": args.q, "n": args.n, "samples": args.samples},
                        args.out, seed=args.seed)

    if cmd == "verify-cr":
        check_prime_level(args.p, args.n)
        from .checks import cross_identity_checks, drinfeld_checks
        checks = cross_identity_checks(ps=(args.p,), ns=(args.n,))
        checks += drinfeld_checks(pns=((args.p, args.n),))
        return _verdict("cross-identity", checks,
                        {"p": args.p, "n": args.n}, args.out)

    if cmd == "census":
        p, r = factor_prime_power(args.q)
        check_level(p, args.m)
        from .curves import enumerate_curves, ss_lefschetz
        rep = ss_lefschetz(p, r, args.n, args.m)
        curves = enumerate_curves(args.q)
        if args.format == "csv":
            lines = ["a1,a2,a3,a4,a6,trace,aut_order,level_points,ss_trace"]
            for E in curves:
                pts = rep.level_points[E.a]
                tr = next((row["point_trace"] for row in rep.per_class
                           if row["trace"] == E.trace), 0)
                lines.append(",".join(map(str, (*E.a, E.trace, E.aut_order,
                                                pts, tr if pts else 0))))
            text = "\n".join(lines) + "\n"
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            sys.stdout.write(json.dumps(
                {"schema_version": SCHEMA_VERSION, **rep.to_dict()},
                sort_keys=True) + "\n")
        else:
            _emit(rep.to_dict(), args.out)
        return 0

    if cmd == "boundary":
        check_boundary_input(args.p, args.r, args.n, args.m)
        from .curves import boundary_orbit_report, boundary_ss_trace
        val = boundary_ss_trace(args.p, args.r, args.n, args.m)
        report = {"campaign": "boundary", "p": args.p, "r": args.r,
                  "n": args.n, "m": args.m, "value": str(val)}
        code = 0
        if args.enumerate:
            packets, fixed, sizes_ok = boundary_orbit_report(
                args.p, args.r, args.n, args.m)
            report["packets"] = packets
            report["fixed_packets"] = fixed
            report["packet_sizes_ok"] = sizes_ok
            expected = int(val) if val else 0
            report["match"] = (fixed == expected and sizes_ok)
            code = 0 if report["match"] else 1
        _emit(report, args.out)
        return code

    if cmd == "report-all":
        import inspect

        from . import campaigns
        all_checks = []
        names = []
        for name, fn in campaigns.ALL_CAMPAIGNS.items():
            t0 = time.time()
            seeded = "seed" in inspect.signature(fn).parameters
            checks = fn(seed=args.seed) if seeded else fn()
            sys.stderr.write(f"[report-all] {name}: "
                             f"{sum(c.passed for c in checks)}/{len(checks)} "
                             f"[{time.time() - t0:.1f}s]\n")
            all_checks.extend(checks)
            names.append(name)
        return _verdict("report-all", all_checks, {"campaigns": names},
                        args.out, seed=args.seed)

    raise DomainError(f"unknown command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
