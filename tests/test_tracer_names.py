"""The benchmark's tracer still finds every name it wraps."""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

CODE = """
import json, sys
sys.path.insert(0, {bench!r})
import tracer
tr = tracer.install()
from gl2lab import campaigns
campaigns.tower_checks(cases=((2, 1),), samples=5)
campaigns.centrality_checks(q=2, n=1, samples=3)
rep = tr.report()
print(json.dumps({{"missing": rep["missing"], "calls": rep["calls"]}}))
"""


def test_tracer_wraps_every_name_of_tower_and_centrality():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ as it is
    code = CODE.format(bench=os.path.join(ROOT, "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["missing"] == []
    calls = rep["calls"]
    # centrality: three right sides by convolve, six double-coset lists (KwK
    # and K w^-1 K per generator), and phi's support is never listed
    assert calls["hecke.tower_check"] == 1 and calls["hecke.convolve"] == 3
    assert calls["hecke.double_coset"] == 6
    assert calls["testfunc.phi_branch"] > 0 and calls["hecke.phi_support"] == 0
