"""End-to-end runs of the benchmark command in a scratch copy of the checkout.

The traced run on one seed, repeated, must give the same exact counts; every
metric BENCHMARK.json names must be reported; and in a directory holding
only the benchmark, the command must fail without printing a result.
"""
from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from calibrate import REFERENCE_S  # noqa: E402
from tracer import COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _checkout(tmp_path, *, with_program=True) -> str:
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(os.path.join(ROOT, "configs"), root / "configs")
    return str(root)


def _run(root: str, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload, tmp_path):
    root = _checkout(tmp_path)
    first, second = (_result(_run(root, workload, 7, trace=1)) for _ in range(2))
    names = [m["name"] for m in SPEC["per_layer"]]
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == names
        for name, metric in zip(names, SPEC["per_layer"]):
            assert metric["unit"] == result["metrics"][name]["unit"]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    with open(os.path.join(root, ".bench_work", workload, "report.json"), encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    plain = [op["wall_s"] for op in ops if op["phase"] == "plain"]
    traced = [op["wall_s"] for op in ops if op["phase"] == "traced"]
    assert second["metrics"]["trace.overhead_frac"]["value"] == pytest.approx(
        statistics.median(traced) / statistics.median(plain) - 1.0
    )


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    root = _checkout(tmp_path)
    result = _result(_run(root, "tau-bar-mc", 3, trace=0))
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    with open(os.path.join(root, ".bench_work", "tau-bar-mc", "report.json"),
              encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    assert all(op["calibration_s"] > 0 for op in ops)
    assert result["metrics"]["peak_rss_mb"]["value"] == ops[0]["peak_rss_mb"]
    rescaled = [op["wall_s"] * REFERENCE_S / op["calibration_s"] for op in ops]
    assert result["metrics"]["ref_wall_s"]["value"] == pytest.approx(statistics.median(rescaled))


def test_fails_without_the_program(tmp_path):
    proc = _run(_checkout(tmp_path, with_program=False), "sweep-baseline", 1, trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
