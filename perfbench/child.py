"""One cold worker process of the benchmark.

    python3 perfbench/child.py probe
    python3 perfbench/child.py battery TRACE SEED SIZE CAMPAIGN...
    python3 perfbench/child.py cli TRACE ARG...

Every mode records ``perf_counter()`` once gl2lab is imported and ready
(``t_ready``); the parent subtracts its own spawn time to get set-up time.
Every mode also runs the host-speed probe (``HostProbe``) from its first
line to its report, and reports it as ``probe``.
``probe`` and ``battery`` print one JSON object on stdout.  ``cli`` runs
``gl2lab.cli.main(ARGS)`` exactly as the console script does, leaving stdout
and stderr to the command, and writes its JSON object to stderr as one line
that starts with ``MARK``.
"""

import hashlib
import json
import os
import resource
import signal
import sys
import time

MARK = "@@perfbench "

# The host-speed probe.  On a shared host the same work takes 20-50% more
# or less time from one minute, or one core, to the next.  So every worker
# times a fixed loop of PROBE_CALLS ``os.stat(".")`` calls every PROBE_EVERY_S
# of real time on its own core, from a SIGALRM handler that runs between the
# program's bytecodes.  Of the loops tried (integer arithmetic, dict lookups,
# allocation, reads from a 16 MB buffer, system calls), this one followed
# the workers' own slowdowns best on all three workloads: each call crosses
# into the kernel and back, so it feels the neighbours' use of the core and
# its caches.  ``speed`` is the mean of PROBE_REF_S over each probe's time:
# 1.0 on a host where the loop takes PROBE_REF_S, lower on a slower one.
# The parent subtracts the probes' own time from a worker's times and
# multiplies by ``speed``, which gives seconds at the reference speed.  The
# probes take about 0.5% of a worker's time.
PROBE_CALLS = 100
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.00027


class HostProbe:
    def __init__(self):
        self.times = []
        self.spent = 0.0

    def sample(self, *_):
        t0 = time.perf_counter()
        for _ in range(PROBE_CALLS):
            os.stat(".")
        t = time.perf_counter() - t0
        self.times.append(t)
        self.spent += t

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return {"speed": sum(PROBE_REF_S / t for t in self.times) / len(self.times),
                "probe_s": self.spent, "probes": len(self.times)}


PROBE = HostProbe()


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rows_digest(checks):
    """SHA-256 of a campaign's rows as ``report-all`` renders them."""
    rows = [c.to_dict() for c in checks]
    text = json.dumps(rows, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _ready():
    """Import the whole package (the CLI binds every layer); return the time
    and the probes' share of it."""
    import gl2lab.cli  # noqa: F401
    return {"t_ready": time.perf_counter(), "probe_s_ready": PROBE.spent}


def run_battery(trace, seed, size, names):
    ready = _ready()
    import inspect

    import numpy
    from gl2lab import campaigns
    from workloads import TINY_PARAMS
    tracer = None
    if trace:
        import tracer as tracer_mod
        tracer = tracer_mod.install()
    out = {}
    for name in names:
        fn = campaigns.ALL_CAMPAIGNS[name]
        kwargs = dict(TINY_PARAMS[name]) if size == "tiny" else {}
        if "seed" in inspect.signature(fn).parameters:
            kwargs["seed"] = seed
        t0, probed = time.perf_counter(), PROBE.spent
        try:
            checks = fn(**kwargs)
        except Exception as exc:  # a raising campaign is a failed operation
            out[name] = {"wall_s": time.perf_counter() - t0
                         - (PROBE.spent - probed), "checks": 1,
                         "failed": 1, "digest": None,
                         "error": f"{type(exc).__name__}: {exc}"}
            continue
        out[name] = {"wall_s": time.perf_counter() - t0 - (PROBE.spent - probed),
                     "checks": len(checks),
                     "failed": sum(1 for c in checks if not c.passed),
                     "digest": rows_digest(checks), "error": None}
    return {**ready, "campaigns": out, "rss_mb": _rss_mb(),
            "numpy": numpy.__version__, "probe": PROBE.stop(),
            "trace": tracer.report() if tracer is not None else None}


def run_cli(trace, args):
    ready = _ready()
    import gl2lab.cli
    tracer = None
    if trace:
        import tracer as tracer_mod
        tracer = tracer_mod.install()
    try:
        code = gl2lab.cli.main(args)
    finally:
        sys.stdout.flush()
        probe = PROBE.stop()
        sys.stderr.write(MARK + json.dumps(
            {**ready, "rss_mb": _rss_mb(), "probe": probe,
             "trace": tracer.report() if tracer is not None else None})
            + "\n")
        sys.stderr.flush()
    return code


def main(argv):
    PROBE.start()
    mode = argv[0]
    if mode == "probe":
        ready = _ready()
        print(json.dumps({**ready, "probe": PROBE.stop()}))
        return 0
    trace = argv[1] == "1"
    if mode == "battery":
        print(json.dumps(run_battery(trace, int(argv[2]), argv[3], argv[4:])))
        return 0
    if mode == "cli":
        return run_cli(trace, argv[2:])
    raise SystemExit(f"unknown mode {mode}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
