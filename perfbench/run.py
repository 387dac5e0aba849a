"""gl2lab benchmark: one run of one workload.

    python3 perfbench/run.py --workload report-local --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` in fresh worker processes, one at a time (a closed loop of one
client, no threads), so every memo cache starts empty as it does for a user.
Each worker is a cold ``python3 perfbench/child.py``; the run repeats
workers until ``--seconds`` is spent, starting another only if it would
end less than half its predecessor's duration past the limit, and always
running at least one.

Every worker also times a fixed loop on its own core while it runs (see
child.HostProbe), and the run reports times at that probe's reference
speed, so that a slower or faster shared host moves them less.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced workers and reports the per-layer metrics; the traced
workers wrap the layers' public functions from outside (see tracer.py),
and the untraced ones give the wall time the tracing overhead is measured
against.  The last stdout line is the result object; the line before it
holds provenance, digests and the failures behind ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402  (names only; the library is not imported here)
from child import MARK  # noqa: E402
from workloads import (BATTERIES, CLI_WORKLOAD, LOCAL, FINITE,  # noqa: E402
                       WORKLOADS, cli_commands)

ROOT = BENCH_DIR.parent
SETUP_PROBES = 6          # extra import-only workers per battery run
HARD_LIMIT_S = 170.0      # a run must end within 180 s, build included

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "cmd_p50_ms": "ms", "cmd_tail_ms": "ms"}


def per_layer_units():
    units = {}
    for name in tracer.TIMED:
        if name != "cli.main":
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["curves.enumerate_curves.repeat_ratio"] = "ratio"
    units["curves.useful_ratio"] = "ratio"
    for name in tracer.CACHE_NAMES:
        units[f"cache.{name}.entries"] = "count"
        units[f"cache.{name}.hits"] = "count"
    for name in (*FINITE, *LOCAL):
        units[f"campaigns.{name}.wall_s"] = "s"
    units["errors.cap_fraction.max"] = "frac"
    units["trace_overhead_frac"] = "frac"
    units["ops_failed_frac"] = "frac"
    return units


PER_LAYER = per_layer_units()


# ---------------------------------------------------------------------------
# workers


class Runner:
    """Spawns cold workers and keeps the run inside its time limits."""

    def __init__(self, seconds):
        self.t_start = time.perf_counter()
        self.seconds = seconds
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("GL2LAB_MAX_ELEMS", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def elapsed(self):
        return time.perf_counter() - self.t_start

    def room_for(self, duration):
        """Whether a worker as long as `duration` should still start: it must
        end less than half its length past the limit, so a run's length
        stays near ``--seconds`` however long one worker takes."""
        return self.elapsed() + duration / 2 <= self.seconds

    def spawn(self, args):
        """Run one worker; return (spawn time, latency, exit code, out, err)."""
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), *args]
        timeout = HARD_LIMIT_S - self.elapsed()
        t0 = time.perf_counter()
        if timeout <= 0:
            return t0, 0.0, None, "", "not started: out of time"
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:   # run() has killed and reaped it
            return t0, time.perf_counter() - t0, None, "", \
                f"timed out after {timeout:.0f}s"
        return t0, time.perf_counter() - t0, proc.returncode, proc.stdout, \
            proc.stderr


def at_ref(seconds, probe_s, report):
    """A worker's `seconds`, of which `probe_s` were its own probes, in
    seconds at the probe's reference speed (see child.HostProbe)."""
    return (seconds - probe_s) * report["probe"]["speed"]


def _json_line(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def p90(samples):
    """90th percentile (inclusive interpolation) and how many samples lie
    beyond it.  The percentile is fixed rather than chosen from the sample
    count, because the count grows as the program gets faster and a moving
    percentile would make two versions' tails incomparable."""
    if len(samples) == 1:
        return samples[0], 0
    value = statistics.quantiles(samples, n=10, method="inclusive")[-1]
    return value, sum(1 for x in samples if x > value)


def _merge_traces(traces):
    """Sum the tracer reports of several processes (one traced pass)."""
    total = {"calls": {}, "self_s": {}, "caches": {}, "curves_distinct_q": 0,
             "curves_returned": 0, "weierstrass_built": 0,
             "cap_fraction_max": 0.0, "missing": []}
    for tr in traces:
        for key in ("calls", "self_s"):
            for name, v in tr[key].items():
                total[key][name] = total[key].get(name, 0) + v
        for name, (entries, hits) in tr["caches"].items():
            e0, h0 = total["caches"].get(name, (0, 0))
            total["caches"][name] = (e0 + entries, h0 + hits)
        for key in ("curves_distinct_q", "curves_returned", "weierstrass_built"):
            total[key] += tr[key]
        total["cap_fraction_max"] = max(total["cap_fraction_max"],
                                        tr["cap_fraction_max"])
        total["missing"] = sorted(set(total["missing"]) | set(tr["missing"]))
    return total


def _layer_metrics(traces, campaign_walls, overhead, failed_frac):
    """Per-layer metrics from the traced repetitions (each a merged report)."""
    first = traces[0]
    m = {}
    for name in tracer.TIMED:
        if name != "cli.main":
            m[f"{name}.calls"] = first["calls"].get(name, 0)
        m[f"{name}.self_s"] = statistics.median(
            tr["self_s"].get(name, 0.0) for tr in traces)
    m["curves.enumerate_curves.repeat_ratio"] = (
        first["calls"].get("curves.enumerate_curves", 0)
        / first["curves_distinct_q"]
        if first["curves_distinct_q"] else 0.0)
    m["curves.useful_ratio"] = (
        first["curves_returned"] / first["weierstrass_built"]
        if first["weierstrass_built"] else 0.0)
    for name in tracer.CACHE_NAMES:
        entries, hits = first["caches"].get(name, (0, 0))
        m[f"cache.{name}.entries"] = entries
        m[f"cache.{name}.hits"] = hits
    for name in (*FINITE, *LOCAL):
        walls = campaign_walls.get(name)
        m[f"campaigns.{name}.wall_s"] = statistics.median(walls) if walls else 0.0
    m["errors.cap_fraction.max"] = first["cap_fraction_max"]
    m["trace_overhead_frac"] = overhead
    m["ops_failed_frac"] = failed_frac
    return m


def _layer_fingerprint(trace):
    """What must repeat exactly between traced repetitions of one input."""
    return json.dumps([trace["calls"], trace["caches"],
                       trace["weierstrass_built"]], sort_keys=True)


# ---------------------------------------------------------------------------
# workloads


def _new_result():
    """Samples and counts a run collects; walls are keyed by trace mode."""
    return {"setup": [], "latency": [], "rss": [], "attempted": 0,
            "failed": 0, "failures": [], "digests": {}, "walls": {0: [], 1: []},
            "raw_walls": {0: [], 1: []}, "speeds": [], "campaign_walls": {},
            "traces": [], "numpy": None}


def _ref_times(res, t0, latency, report):
    """Record a worker's probe speed; return its latency and set-up time
    at the reference speed."""
    probe = report["probe"]
    res["speeds"].append(probe["speed"])
    return (at_ref(latency, probe["probe_s"], report),
            at_ref(report["t_ready"] - t0, report["probe_s_ready"], report))


def run_battery(runner, workload, seed, trace, size):
    names = BATTERIES[workload]
    res = _new_result()
    consistent = True

    for _ in range(SETUP_PROBES):
        t0, latency, code, out, err = runner.spawn(["probe"])
        if code == 0:
            res["setup"].append(_ref_times(res, t0, latency, _json_line(out))[1])

    modes = [0, 1] if trace else [0]
    last = 0.0
    i = 0
    while i < len(modes) or runner.room_for(last):
        mode = modes[i % len(modes)]
        i += 1
        t0, latency, code, out, err = runner.spawn(
            ["battery", str(mode), str(seed), size, *names])
        last = latency
        res["raw_walls"][mode].append(latency)
        report = _json_line(out) if code == 0 else None
        if report is None:
            res["walls"][mode].append(latency)
            res["attempted"] += 1
            res["failed"] += 1
            res["failures"].append(f"worker exit {code}: {err.strip()[-500:]}")
            consistent = False
            continue
        res["numpy"] = report["numpy"]
        wall, setup = _ref_times(res, t0, latency, report)
        res["walls"][mode].append(wall)
        if mode == 0:
            res["setup"].append(setup)
            res["latency"].append(wall)
            res["rss"].append(report["rss_mb"])
        for name, c in report["campaigns"].items():
            res["attempted"] += c["checks"]
            res["failed"] += c["failed"]
            if c["failed"]:
                res["failures"].append(
                    f"{name}: {c['error'] or str(c['failed']) + ' checks failed'}")
            if mode == 0:
                res["campaign_walls"].setdefault(name, []).append(
                    c["wall_s"] * report["probe"]["speed"])
            rows = {"sha256": c["digest"], "checks": c["checks"]}
            if res["digests"].setdefault(name, rows) != rows:
                consistent = False
                res["failures"].append(f"{name}: digest differs between workers")
        if mode == 1:
            res["traces"].append(report["trace"])
    if len({_layer_fingerprint(t) for t in res["traces"]}) > 1:
        consistent = False
        res["failures"].append("call counts differ between traced workers")
    res["correct"] = consistent and res["failed"] == 0
    return res


def run_cli(runner, seed, trace):
    commands = cli_commands(seed)
    res = _new_result()
    broken = set()
    wrong = False
    pass_digests = set()

    modes = [0, 1] if trace else [0]
    last = 0.0
    i = 0
    while i < len(modes) or runner.room_for(last):
        mode = modes[i % len(modes)]
        i += 1
        digest = hashlib.sha256()
        traces = []
        pass_wall = 0.0
        t_pass = time.perf_counter()
        for cmd in commands:
            t0, latency, code, out, err = runner.spawn(
                ["cli", str(mode), *cmd.argv])
            lines = err.splitlines()
            marks = [json.loads(x[len(MARK):]) for x in lines
                     if x.startswith(MARK)]
            err = "\n".join(x for x in lines if not x.startswith(MARK))
            reason = cmd.verify(code, out, err)
            res["attempted"] += 1
            if reason is not None:
                res["failed"] += 1
                broken.add((" ".join(cmd.argv), reason))
                wrong = wrong or not cmd.malformed
            digest.update(json.dumps([cmd.argv, code, out]).encode())
            if not marks:   # died before gl2lab was imported: no probe to scale by
                res["failures"].append(f"{' '.join(cmd.argv)}: no worker report")
                wrong = True
                pass_wall += latency
                continue
            wall, setup = _ref_times(res, t0, latency, marks[0])
            pass_wall += wall
            if mode == 0:
                res["latency"].append(wall)
                res["setup"].append(setup)
                res["rss"].append(marks[0]["rss_mb"])
            elif marks[0]["trace"]:
                traces.append(marks[0]["trace"])
        last = time.perf_counter() - t_pass
        res["raw_walls"][mode].append(last)
        res["walls"][mode].append(pass_wall)
        pass_digests.add(digest.hexdigest())
        if mode == 1:
            res["traces"].append(_merge_traces(traces))
    res["digests"] = {"passes": sorted(pass_digests)}
    res["failures"] = sorted(set(res["failures"])) + [
        f"{argv}: {why}" for argv, why in sorted(broken)]
    fingerprints = {_layer_fingerprint(t) for t in res["traces"]}
    res["correct"] = not wrong and len(pass_digests) == 1 and len(fingerprints) <= 1
    if len(pass_digests) > 1:
        res["failures"].append("stdout differs between passes")
    if len(fingerprints) > 1:
        res["failures"].append("call counts differ between traced passes")
    return res


# ---------------------------------------------------------------------------
# reporting


def provenance(seed, numpy_version):
    rev = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True)
        rev = proc.stdout.strip() or rev
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "git_rev": rev, "src_lines": src_lines, "seed": seed}


def metric(value, unit):
    return {"value": value, "unit": unit}


def summarize(res, trace):
    if trace:
        untraced = statistics.median(res["walls"][0])
        traced = statistics.median(res["walls"][1])
        failed_frac = res["failed"] / max(res["attempted"], 1)
        layer = _layer_metrics(res["traces"] or [_merge_traces([])],
                               res["campaign_walls"],
                               traced / untraced - 1.0, failed_frac)
        return {name: metric(layer[name], unit)
                for name, unit in PER_LAYER.items()}
    tail, beyond = p90(res["latency"])
    values = {
        "wall_s": statistics.median(res["walls"][0]),
        "setup_s": statistics.median(res["setup"]),
        "peak_rss_mb": max(res["rss"]),
        "cmd_p50_ms": 1000 * statistics.median(res["latency"]),
        "cmd_tail_ms": 1000 * tail,
    }
    res["tail"] = {"percentile": 90, "samples": len(res["latency"]),
                   "beyond": beyond}
    return {name: metric(values[name], unit)
            for name, unit in END_TO_END.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's small campaign parameters")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gl2lab" / "__init__.py").is_file():
        sys.stderr.write(f"no gl2lab sources under {ROOT / 'src'}\n")
        return 2

    load_before = os.getloadavg()
    runner = Runner(args.seconds)
    if args.workload == CLI_WORKLOAD:
        res = run_cli(runner, args.seed, bool(args.trace))
    else:
        res = run_battery(runner, args.workload, args.seed, bool(args.trace),
                          args.size)
    if not res["walls"][0] or (args.trace and not res["walls"][1]):
        sys.stderr.write("no worker completed\n")
        return 1
    numpy_version = res["numpy"]
    if numpy_version is None:
        from importlib.metadata import version
        numpy_version = version("numpy")
    metrics = summarize(res, bool(args.trace))
    detail = {
        "workload": args.workload, "trace": args.trace, "size": args.size,
        "provenance": provenance(args.seed, numpy_version),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "run_s": runner.elapsed(),
        "worker_walls_s": {"untraced": res["walls"][0],
                           "traced": res["walls"][1]},
        "raw_worker_walls_s": {"untraced": res["raw_walls"][0],
                               "traced": res["raw_walls"][1]},
        "probe_speed": {"median": statistics.median(res["speeds"] or [0.0]),
                        "min": min(res["speeds"] or [0.0]),
                        "max": max(res["speeds"] or [0.0])},
        "tail": res.get("tail"),
        "digests": res["digests"],
        "failures": res["failures"],
        "trace_targets_missing": sorted({m for t in res["traces"]
                                         for m in t["missing"]}),
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
