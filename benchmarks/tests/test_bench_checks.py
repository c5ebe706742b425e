"""Negative controls for the benchmark's output checks.

Each check first passes on artifacts the program wrote, then fails on a
copy with one defect: an altered cell, a dropped row, a shifted root.  This
shows that a zero fail_frac means the outputs were checked.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
from reference import Model  # noqa: E402
from workloads import CONFIG, hash_artifacts  # noqa: E402

SWEEP_INPUTS = {
    "workload": "sweep-baseline",
    "thetas": [-0.73, 1.21],
    "checked_average_rows": [0, 137, 399],
}
SIMULATE_INPUTS = {"workload": "simulate-1m", "m": 200_000, "tau": 0.0, "sim_seed": 5}


def _cli(*argv: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "screenlab.cli", *argv], cwd=ROOT, env=env,
                   check=True, timeout=120)


@pytest.fixture(scope="module")
def model():
    return Model.load(os.path.join(ROOT, CONFIG))


@pytest.fixture(scope="module")
def tau_bar(model):
    return model.tau_bar()


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sweep"))
    thetas = ",".join(repr(t) for t in SWEEP_INPUTS["thetas"])
    _cli("sweep", "--config", CONFIG, "--out", out, f"--theta={thetas}")
    return out


@pytest.fixture(scope="module")
def simulate_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("simulate"))
    _cli("simulate", "--config", CONFIG, "--out", out,
         "--m", str(SIMULATE_INPUTS["m"]), "--tau=0.0",
         "--seed", str(SIMULATE_INPUTS["sim_seed"]))
    return out


def _copy(src: str, tmp_path) -> str:
    dst = str(tmp_path / "artifacts")
    shutil.copytree(src, dst)
    return dst


def _edit_csv(path: str, row: int, column: str, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(column)
    rows[row + 1][j] = edit(rows[row + 1][j])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _nudge(cell: str) -> str:
    return repr(float(cell) * (1 + 1e-6))


# ---------------------------------------------------------------------
# sweep-baseline
# ---------------------------------------------------------------------

def test_sweep_artifacts_pass(sweep_dir, model, tau_bar):
    assert checks.check_manifest(sweep_dir, "sweep-baseline", hash_artifacts(sweep_dir)) == []
    assert checks.check_sweep(sweep_dir, SWEEP_INPUTS, model, tau_bar) == []


@pytest.mark.parametrize("name, row, column", [
    ("scores.csv", 517, "s1"),
    ("scores.csv", 3, "surv_u"),
    ("regret.csv", 2000, "u"),
    ("regret.csv", 900, "score"),
    ("average_regret.csv", 137, "avg_regret_s2"),
])
def test_sweep_altered_cell_fails(sweep_dir, model, tau_bar, tmp_path, name, row, column):
    out = _copy(sweep_dir, tmp_path)
    _edit_csv(os.path.join(out, name), row, column, _nudge)
    failures = checks.check_sweep(out, SWEEP_INPUTS, model, tau_bar)
    assert any(name in f and column in f for f in failures), failures


def test_sweep_dropped_row_fails(sweep_dir, model, tau_bar, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    path = os.path.join(out, "scores.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:100] + lines[101:])
    assert any("scores.csv" in f for f in checks.check_sweep(out, SWEEP_INPUTS, model, tau_bar))


def test_sweep_shifted_root_fails(sweep_dir, model, tau_bar, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    path = os.path.join(out, "thresholds.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["per_theta"][1]["tau_star"] += 1e-8
    doc["tau_bar"] += 1e-5
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    failures = checks.check_sweep(out, SWEEP_INPUTS, model, tau_bar)
    assert any("tau_star" in f for f in failures), failures
    assert any("tau_bar" in f for f in failures), failures


def test_manifest_mismatch_fails(sweep_dir, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    _edit_csv(os.path.join(out, "scores.csv"), 0, "s2", _nudge)
    assert checks.check_manifest(out, "sweep-baseline", hash_artifacts(out))


def test_operation_with_other_bytes_fails(sweep_dir, model):
    hashes = hash_artifacts(sweep_dir)
    ops = [
        {"ok": True, "error": None, "hashes": hashes},
        {"ok": True, "error": None, "hashes": {**hashes, "scores.csv": "0" * 64}},
        {"ok": False, "error": "exit status 2", "hashes": hashes},
    ]
    _, failed = checks.evaluate(SWEEP_INPUTS, ops, sweep_dir, model)
    assert failed == [False, True, True]


# ---------------------------------------------------------------------
# simulate-1m
# ---------------------------------------------------------------------

def test_simulate_artifacts_pass(simulate_dir, model):
    assert checks.check_manifest(simulate_dir, "simulate-1m", hash_artifacts(simulate_dir)) == []
    assert checks.check_simulate(simulate_dir, SIMULATE_INPUTS, model) == []


def test_simulate_dropped_row_fails(simulate_dir, model, tmp_path):
    out = _copy(simulate_dir, tmp_path)
    path = os.path.join(out, "stage1.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:500] + lines[501:])
    failures = checks.check_simulate(out, SIMULATE_INPUTS, model)
    assert any("rows" in f for f in failures), failures


def test_simulate_flipped_decision_fails(simulate_dir, model, tmp_path):
    out = _copy(simulate_dir, tmp_path)
    path = os.path.join(out, "stage1.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    i = next(i for i, line in enumerate(lines[1:], start=1) if line.endswith(",1,1\n"))
    lines[i] = lines[i][: -len("1,1\n")] + "0,\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    failures = checks.check_simulate(out, SIMULATE_INPUTS, model)
    assert any("recount" in f for f in failures), failures


def test_simulate_altered_bin_fails(simulate_dir, model, tmp_path):
    out = _copy(simulate_dir, tmp_path)
    _edit_csv(os.path.join(out, "scores_empirical.csv"), 20, "s1_hat", _nudge)
    failures = checks.check_simulate(out, SIMULATE_INPUTS, model)
    assert any("s1_hat" in f for f in failures), failures


def test_simulate_shifted_mc_regret_fails(simulate_dir, model, tmp_path):
    out = _copy(simulate_dir, tmp_path)
    path = os.path.join(out, "regret_mc.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        se = float(list(csv.DictReader(fh))[0]["standard_error"])
    _edit_csv(path, 0, "value", lambda cell: repr(float(cell) + 10 * se))
    failures = checks.check_simulate(out, SIMULATE_INPUTS, model)
    assert any("regret_mc.csv s1" in f for f in failures), failures


# ---------------------------------------------------------------------
# tau-bar-mc
# ---------------------------------------------------------------------

def test_tau_bar_root_within_band_passes(tau_bar):
    assert checks.check_tau_bar({"value": tau_bar + 1e-3, "standard_error": 6e-4}, tau_bar) == []


@pytest.mark.parametrize("outcome", [
    {"value": None, "standard_error": None},
    {"value": -0.40, "standard_error": 0.0},
    {"value": -0.40, "standard_error": float("nan")},
])
def test_tau_bar_missing_root_fails(outcome, tau_bar):
    assert checks.check_tau_bar(outcome, tau_bar)


def test_tau_bar_shifted_root_fails(tau_bar):
    assert checks.check_tau_bar({"value": tau_bar + 4e-3, "standard_error": 6e-4}, tau_bar)
