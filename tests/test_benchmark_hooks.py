"""The benchmark's tracer hooks screenlab functions and methods by name.

A rename or deletion in the package would break only a benchmark run, whose
own tests sit outside this suite; this test installs the tracer against the
current package and reduces an empty span range to the per-layer metrics.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import json
from tracer import Tracer
tracer = Tracer()
tracer.install()
metrics, _ = tracer.op_metrics(0, 0)
print(json.dumps(sorted(metrics)))
"""


def test_tracer_installs_and_reduces():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    keys = json.loads(proc.stdout.splitlines()[-1])
    assert len(keys) == 31
    assert "scores.scalar.calls" in keys and "cli.manifest.s" in keys
