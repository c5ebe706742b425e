"""Shared fixtures: reference configs, the frozen random-config table, a
reference bisection, a scalar twin of the package's root loop, and a
terminal summary that prints one line per acceptance criterion."""
from __future__ import annotations

import json
import math
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

# The baseline with rho a 5,000-digit integer literal, past the 4,300
# digits Python converts from a string by default (json.dumps cannot
# write it either).
HUGE_INT_TEXT = json.dumps({**BASELINE_DOC, "rho": "HUGE"}).replace('"HUGE"', "9" * 5000)

# A gamma shift of 0.001 sd: the fine signal barely separates the classes,
# so near the clamped upper tau the acceptance cutoff sits ~1.5e4 sds out.
WEAK_GAMMA_DOC = dict(BASELINE_DOC, mu_q=[1.0, 0.001])

# A theta mean shift of 1e-300: phi is flat to double precision, and the
# phi = beta breakpoint lies ~4e299 out, so every alpha is 1.0.
FLAT_THETA_DOC = dict(BASELINE_DOC, mu_q=[1e-300, 1.0])

# Certified jointly, yet the theta marginals order the wrong way: the
# negative correlation lets the gamma shift carry the whole certificate.
NONMONOTONE_PHI_DOC = {
    "pi": 0.4, "x_q": 1.0, "x_u": 1.0, "c": 0.0,
    "mu_q": [-0.3, 0.6], "mu_u": [0.0, 0.0],
    "sigma_theta": 1.0, "sigma_gamma": 1.0, "rho": -0.8,
}

# Finite configs whose derived quantities leave float's range, each with the
# command that met it: beta rounded onto 1 or 0, a sigma squared overflowing,
# the prejudice interval's ends summing past float's range, and a log
# likelihood ratio intercept of inf - inf.
EXTREME_CONFIGS = {
    "beta-rounds-to-1": ({"x_q": 1e-300}, ["validate"]),
    "beta-rounds-to-0": ({"x_q": 1.7e308, "x_u": 1e-320}, ["validate"]),
    "sigma-squared-overflows": ({"sigma_theta": 1.7e308, "rho": 0.5}, ["validate"]),
    "tau-interval-overflows": ({"x_q": 1.7e308}, ["tau", "--theta", "3"]),
    "theta-mean-overflows": ({"mu_q": [1.7e308, 1.0]}, ["tau", "--theta", "40"]),
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


def split_passes(monkeypatch, parts: int, part_min: int = 1_000) -> None:
    """Make each Monte Carlo pass run in ``parts`` threads wherever m holds
    that many parts of ``part_min`` applicants."""
    from screenlab import thresholds

    monkeypatch.setattr(thresholds, "_available_cpus", lambda: parts)
    monkeypatch.setattr(thresholds, "PART_MIN", part_min)


def scalar_bisect(f, lo: float, hi: float, width: float = 0.0) -> float:
    """Reference bisection of a monotone f, one float at a time: runs to
    machine resolution, or until the bracket is at most ``width`` wide, and
    stops on an exact zero."""
    f_lo, f_hi = float(f(lo)), float(f(hi))
    assert np.sign(f_lo) != np.sign(f_hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    descending = f_lo > 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi or hi - lo <= width:
            break
        f_mid = float(f(mid))
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_mid > 0.0) == descending:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_root(f, lo: float, hi: float) -> float:
    """Twin of the package's root loop, one float at a time: regula falsi
    with Anderson-Bjorck's (or Illinois') scaling of an end kept twice
    running, each point kept 2 eps |x| inside the bracket, and a bisection
    where none is left or the bracket has not halved over three steps.
    Runs to adjacent floats and stops on an exact zero."""
    f_lo, f_hi = float(f(lo)), float(f(hi))
    assert np.sign(f_lo) != np.sign(f_hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    orient = -1.0 if f_lo > 0.0 else 1.0
    g_lo, g_hi, last = orient * f_lo, orient * f_hi, 1.0
    below = above = False
    widths = [math.inf] * 3
    eps = float(np.finfo(float).eps)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        width = hi - lo
        x = lo - g_lo * width / (g_hi - g_lo)
        tol = 2.0 * eps * abs(x)
        x = min(max(x, lo + tol), hi - tol)
        if not (width <= 0.5 * widths[0] and lo < x < hi):
            x = mid
        widths = widths[1:] + [width]
        g = orient * float(f(x))
        if g == 0.0:
            return x
        kept_hi, kept_lo = below, above
        below, above = g < 0.0, g > 0.0
        ratio = g / (last if abs(g) < abs(last) else g)
        m = 1.0 - ratio if ratio < 1.0 else 0.5
        last = g
        if below:
            lo, g_lo = x, g
            if kept_hi:
                g_hi = m * g_hi
        else:
            hi, g_hi = x, g
            if kept_lo:
                g_lo = m * g_lo
    return 0.5 * (lo + hi)


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
