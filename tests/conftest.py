"""Shared fixtures: reference configs, the frozen random-config table, and
a terminal summary that prints one line per acceptance criterion."""
from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

from screenlab import ModelConfig

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

BASELINE_DOC = {
    "pi": 0.4, "x_q": 1.0, "x_u": 1.0, "c": 0.0,
    "mu_q": [1.0, 1.0], "mu_u": [0.0, 0.0],
    "sigma_theta": 1.0, "sigma_gamma": 1.0, "rho": 0.0,
}

# High prior, high cutoff, weak separation: the firm prefers the
# acceptance-trained score at every prejudice level.
IRREGULAR_DOC = {
    "pi": 0.9, "x_q": 1.0, "x_u": 1.0, "c": 0.9,
    "mu_q": [0.5, 0.5], "mu_u": [0.0, 0.0],
    "sigma_theta": 1.0, "sigma_gamma": 1.0, "rho": 0.0,
}

# Asymmetric payoffs with a mid-range cutoff; at theta=0 the qualified
# regret curves cross three times, at theta=0.35 twice.
ENGINEERED_DOC = {
    "pi": 0.4, "x_q": 2.0, "x_u": 1.0, "c": 0.5,
    "mu_q": [1.0, 1.0], "mu_u": [0.0, 0.0],
    "sigma_theta": 1.0, "sigma_gamma": 1.0, "rho": 0.0,
}

# A gamma shift of 0.001 sd: the fine signal barely separates the classes,
# so near the clamped upper tau the acceptance cutoff sits ~1.5e4 sds out.
WEAK_GAMMA_DOC = dict(BASELINE_DOC, mu_q=[1.0, 0.001])

# Certified jointly, yet the theta marginals order the wrong way: the
# negative correlation lets the gamma shift carry the whole certificate.
NONMONOTONE_PHI_DOC = {
    "pi": 0.4, "x_q": 1.0, "x_u": 1.0, "c": 0.0,
    "mu_q": [-0.3, 0.6], "mu_u": [0.0, 0.0],
    "sigma_theta": 1.0, "sigma_gamma": 1.0, "rho": -0.8,
}


@pytest.fixture(scope="session")
def baseline() -> ModelConfig:
    return ModelConfig.from_dict(BASELINE_DOC)


@pytest.fixture(scope="session")
def irregular_config() -> ModelConfig:
    return ModelConfig.from_dict(IRREGULAR_DOC)


@pytest.fixture(scope="session")
def engineered() -> ModelConfig:
    return ModelConfig.from_dict(ENGINEERED_DOC)


class RandomRecord:
    """One frozen randomized config plus its standard theta grid."""

    def __init__(self, entry: dict, grid_points: int):
        self.config = ModelConfig.from_dict(entry["config"])
        self.classification = entry["classification"]
        self.theta_grid = np.linspace(
            entry["theta_grid_lo"], entry["theta_grid_hi"], grid_points
        )


@pytest.fixture(scope="session")
def random_table() -> list[RandomRecord]:
    with open(os.path.join(DATA_DIR, "random_configs.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    records = [RandomRecord(entry, doc["grid_points"]) for entry in doc["configs"]]
    assert len(records) == 50
    return records


def baseline_theta_grid(points: int = 20) -> np.ndarray:
    """Baseline standard grid: theta mixture mean +/- 2.5 mixture sd."""
    pi, shift = 0.4, 1.0
    mean = pi * 1.0
    sd = float(np.sqrt(1.0 + pi * (1.0 - pi) * shift**2))
    return np.linspace(mean - 2.5 * sd, mean + 2.5 * sd, points)


# =====================================================================
# Acceptance criterion summary lines
# =====================================================================

_CRITERION_RE = re.compile(r"test_criterion_(\d+)_([a-z0-9_]+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[tuple[int, str], str] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION_RE.search(getattr(report, "nodeid", ""))
            if not match:
                continue
            key = (int(match.group(1)), match.group(2))
            label = {"passed": "PASS"}.get(status, "FAIL")
            if status == "skipped":
                label = "SKIP"
            # A criterion split over parametrized cases fails as a whole
            # when any case fails.
            if outcomes.get(key) != "FAIL":
                outcomes[key] = label
    if not outcomes:
        return
    writer = terminalreporter
    writer.section("acceptance criteria")
    for (number, name), label in sorted(outcomes.items()):
        dots = "." * max(2, 44 - len(name))
        writer.write_line(f"  {number:02d} {name.replace('_', ' ')} {dots} {label}")
