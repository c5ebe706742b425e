"""screenlab benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload sweep-baseline --seed 1 --seconds 30 --trace 0

Run from the root of a screenlab checkout; the program is imported from its
src/.  Inputs are derived from --seed.  With --trace 0 the last line of
standard output is a JSON object whose metrics are setup_s, ref_wall_s and
peak_rss_mb; with --trace 1 they are the per-layer metrics of a traced run.
Operation times are rescaled to the reference speed of the host, measured
by the calibration kernel in calibrate.py; raw seconds are printed beside
them.
Every operation's output is checked by an independent route outside the
timed region, and a failed check or a ScreeningError counts as a failed
operation.  A full report goes to .bench_work/<workload>/report.json.
See benchmarks/README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import calibrate
import checks
import workloads
from reference import Model
from tracer import UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join("src", "screenlab")
SETUP_PROBES = 7
SETUP_PROBE = (
    "import time, screenlab.cli; "
    f"screenlab.ModelConfig.from_json_path({workloads.CONFIG!r}); "
    "print(time.monotonic())"
)
WORKER_TIMEOUT_S = 150


def measure_setup(env: dict) -> float:
    """Median seconds from starting a fresh interpreter to screenlab imported
    and the config loaded.  A first, untimed start fills the bytecode and
    file caches, which users pay once, not on every run.  Set-up is not
    rescaled: it is mostly file and import work, which the calibration
    kernel does not track."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        started = time.monotonic()  # CLOCK_MONOTONIC is shared with the child
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        )
        times.append(float(probe.stdout.split()[-1]) - started)
    return statistics.median(times[1:])


def run_worker(inputs: dict, seconds: int, trace: int, work: str, env: dict) -> dict:
    result_path = os.path.join(work, "worker.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--inputs", json.dumps(inputs),
         "--seconds", str(seconds), "--trace", str(trace), "--work", work,
         "--result", result_path],
        env=env, check=True, timeout=WORKER_TIMEOUT_S,
    )
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not the top of a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(".") else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(workload: str, out_dir: str) -> dict:
    """Information recorded next to the metrics; none of it is gated."""
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(SOURCE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    meta = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_screenlab_lines": src_lines,
    }
    if workload == "sweep-baseline":
        try:
            with open(os.path.join(out_dir, workloads.MANIFEST), encoding="utf-8") as fh:
                outputs = json.load(fh)["outputs"]
            meta["sweep_sha256"] = {e["name"]: e["sha256"] for e in outputs}
        except (OSError, ValueError, KeyError) as exc:
            meta["sweep_sha256"] = f"unavailable: {exc}"
    return meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for required in (os.path.join(SOURCE, "__init__.py"), workloads.CONFIG):
        if not os.path.isfile(required):
            print(f"error: {required} not found; run from the root of a screenlab "
                  "checkout", file=sys.stderr)
            return 2

    inputs = workloads.derive_inputs(args.workload, args.seed)
    work = os.path.abspath(os.path.join(".bench_work", args.workload))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )

    setup_s = None if args.trace else measure_setup(env)
    worker = run_worker(inputs, args.seconds, args.trace, work, env)
    ops = worker["ops"]
    out_dir = os.path.join(work, "out")
    failures, failed = checks.evaluate(inputs, ops, out_dir, Model.load(workloads.CONFIG))
    attempted, n_failed = len(ops), sum(failed)

    print(f"screenlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.trace:
        metrics = {name: {"value": worker["layers"][name], "unit": unit}
                   for name, unit in UNITS.items()}
    else:
        plain = [op["wall_s"] for op in ops]
        rescaled = [calibrate.rescale(op["wall_s"], op["calibration_s"]) for op in ops]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ref_wall_s": {"value": statistics.median(rescaled), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
        print(f"  setup_s      {setup_s:10.4f} s   median of {SETUP_PROBES} fresh interpreters")
        print(f"  ref_wall_s   {statistics.median(rescaled):10.4f} s   median of {len(plain)} "
              f"operations (min {min(rescaled):.4f}, max {max(rescaled):.4f})")
        print(f"  wall_s       {statistics.median(plain):10.4f} s   raw, not rescaled "
              f"(min {min(plain):.4f}, max {max(plain):.4f})")
        print(f"  peak_rss_mb  {worker['peak_rss_mb']:10.1f} MB  workload process")
    print(f"  fail_frac    {n_failed / attempted:10.4f}     {n_failed} of {attempted} "
          "operations failed")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:38s} {metric['value']:14.6g} {metric['unit']}")
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    meta = metadata(args.workload, out_dir)
    print("meta " + json.dumps(meta, sort_keys=True))
    with open(os.path.join(work, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"inputs": inputs, "metrics": metrics, "meta": meta,
                   "failures": failures, "ops": ops,
                   "functions": worker.get("functions")}, fh, indent=1)
    print(json.dumps({
        "correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
        "metrics": metrics,
    }), flush=True)
    return 0



if __name__ == "__main__":
    sys.exit(main())
