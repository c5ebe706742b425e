"""Workload names, the inputs each one derives from its seed, and artifact hashing.

This module does not import screenlab: the orchestrator uses it to derive
inputs and to check outputs, and only the worker process runs the program.
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

CONFIG = os.path.join("configs", "baseline.json")
MANIFEST = "run_manifest.json"

# artifacts each file-writing workload must leave, besides the manifest
ARTIFACTS = {
    "sweep-baseline": (
        "average_regret.csv", "regret.csv", "regret_jumps.json",
        "scores.csv", "thresholds.json",
    ),
    "simulate-1m": (
        "environment.json", "regret_mc.csv", "scores_empirical.csv", "stage1.csv",
    ),
}
WORKLOADS = ("sweep-baseline", "simulate-1m", "tau-bar-mc")

SWEEP_THETAS = 21
SWEEP_TAU_POINTS = 400          # the CLI's default grid, which the sweep keeps
SWEEP_CHECKED_AVERAGE_ROWS = 4  # average_regret.csv rows re-integrated by quad
SIMULATE_M = 1_000_000
SIMULATE_TAU = 0.0
TAU_BAR_M = 100_000


def derive_inputs(workload: str, seed: int) -> dict:
    """Every input of one run, derived from the workload seed alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng(seed)
    if workload == "sweep-baseline":
        thetas = np.sort(rng.uniform(-2.0, 2.0, SWEEP_THETAS))
        rows = rng.choice(SWEEP_TAU_POINTS, SWEEP_CHECKED_AVERAGE_ROWS, replace=False)
        return {
            "workload": workload,
            "thetas": [float(t) for t in thetas],
            "checked_average_rows": sorted(int(r) for r in rows),
        }
    if workload == "simulate-1m":
        return {
            "workload": workload,
            "m": SIMULATE_M,
            "tau": SIMULATE_TAU,
            "sim_seed": int(rng.integers(0, 2**31 - 1)),
        }
    return {"workload": workload, "m": TAU_BAR_M, "mc_seed": int(rng.integers(0, 2**31 - 1))}


def hash_artifacts(out_dir: str) -> dict[str, str]:
    """sha256 of every file in ``out_dir`` except the manifest.

    The manifest holds timestamps, so it differs between identical runs.
    """
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        if name == MANIFEST:
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes
