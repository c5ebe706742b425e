"""Generate the frozen randomized-config table used by the acceptance tests.

Draws MLRP-certified model configs at random and keeps only those that are
numerically comfortable for every acceptance property: certificate weights
bounded away from zero, endpoint limits already tight at the probe offset,
equalizing prejudice and population indifference prejudice well inside the
clamped interval, classification margins wide enough that quadrature noise
cannot flip a verdict, and no knife-edge thetas on the standard grid.

Filtering only rejects draws; it never edits a draw, so every kept config
is still an independent sample from the stated product distribution
conditioned on the comfort region.

Usage:
    python3 scripts/gen_random_configs.py --out tests/data/random_configs.json

The output is committed; tests read it instead of re-sampling so the suite
is deterministic. Regenerate only when the filters change, and note the
seed below.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from screenlab import (
    EndpointResolutionError,
    ModelConfig,
    QuadratureError,
    ScreeningError,
    classify_environment,
    clamped_tau_interval,
    expected_regret,
    expected_regret_gap,
    find_critical_prejudices,
    find_tau_bar,
    find_tau_star,
    marginal_posterior_phi,
    score_s1,
    score_s2,
    validate_mlrp,
)

SEED = 20250819
GRID_POINTS = 20
GRID_HALF_WIDTH_SD = 2.5

# Comfort margins. Each is strictly tighter than the acceptance tolerance
# it protects, so a kept config passes with headroom.
MIN_CERT_WEIGHT = 0.05
LIMIT_GAP_MAX = 5e-3          # acceptance allows 0.01
KNIFE_EDGE_MARGIN = 1e-4
TAU_STAR_MARGIN = 0.12        # acceptance probes tau_star +/- 0.1
TAU_BAR_MARGIN = 0.07         # acceptance probes tau_bar +/- 0.05
GAP_PROBE_MIN = 0.01          # |D(tau_bar -/+ 0.05)| floor
CLASS_MARGIN = 0.08           # |lhs - rhs| floor
LEFT_GAP_MIN = 5e-3           # |D(left endpoint)| floor
ENDPOINT_QUAD_MAX = 5e-7      # acceptance allows 1e-6


def standard_theta_grid(config: ModelConfig) -> np.ndarray:
    """The per-config theta grid every grid-based test reuses."""
    signal = config.signal
    pi = config.payoffs.pi
    mean = pi * signal.mu_q[0] + (1.0 - pi) * signal.mu_u[0]
    shift = signal.mu_q[0] - signal.mu_u[0]
    sd = float(np.sqrt(signal.sigma_theta**2 + pi * (1.0 - pi) * shift**2))
    half = GRID_HALF_WIDTH_SD * sd
    return np.linspace(mean - half, mean + half, GRID_POINTS)


def draw_phase1(rng: np.random.Generator) -> dict:
    pi = rng.uniform(0.2, 0.8)
    x_q = rng.uniform(0.5, 2.5)
    x_u = rng.uniform(0.5, 2.5)
    beta = rng.uniform(0.15, 0.85)
    mu_u = rng.uniform(-0.5, 0.5, size=2)
    shift = rng.uniform(0.4, 1.6, size=2)
    return {
        "pi": pi, "x_q": x_q, "x_u": x_u,
        "c": beta * (x_q + x_u) - x_u,
        "mu_q": list(mu_u + shift), "mu_u": list(mu_u),
        "sigma_theta": rng.uniform(0.6, 1.6),
        "sigma_gamma": rng.uniform(0.6, 1.6),
        "rho": rng.uniform(-0.6, 0.6),
    }


def draw_phase2(rng: np.random.Generator) -> dict:
    """Skewed toward irregular verdicts: high prior, high cutoff, weak signal."""
    pi = rng.uniform(0.75, 0.9)
    x_q = rng.uniform(0.5, 2.0)
    x_u = rng.uniform(0.5, 2.0)
    beta = rng.uniform(0.75, 0.9)
    mu_u = rng.uniform(-0.3, 0.3, size=2)
    shift = rng.uniform(0.25, 0.6, size=2)
    return {
        "pi": pi, "x_q": x_q, "x_u": x_u,
        "c": beta * (x_q + x_u) - x_u,
        "mu_q": list(mu_u + shift), "mu_u": list(mu_u),
        "sigma_theta": rng.uniform(0.7, 1.4),
        "sigma_gamma": rng.uniform(0.7, 1.4),
        "rho": rng.uniform(-0.3, 0.3),
    }


def vet(doc: dict) -> dict | None:
    """Return the annotated record for a comfortable config, else None."""
    try:
        config = ModelConfig.from_dict(doc)
    except ScreeningError:
        return None

    cert = validate_mlrp(config.signal)
    if min(cert.w_theta, cert.w_gamma) < MIN_CERT_WEIGHT:
        return None

    payoffs = config.payoffs
    scale = payoffs.x_q + payoffs.x_u
    lo, hi = clamped_tau_interval(payoffs)
    grid = standard_theta_grid(config)

    phi = np.asarray(marginal_posterior_phi(config, grid))
    if np.min(np.abs(phi - payoffs.beta)) < KNIFE_EDGE_MARGIN:
        return None

    # Endpoint limits must already be tight at the coarse probe offset.
    eps = 1e-3 * scale
    left, right = payoffs.tau_min + eps, payoffs.tau_max - eps
    s1_l = np.asarray(score_s1(config, grid, left))
    s2_l = np.asarray(score_s2(config, grid, left))
    s1_r = np.asarray(score_s1(config, grid, right))
    s2_r = np.asarray(score_s2(config, grid, right))
    worst = max(
        np.max(np.abs(s2_l - 1.0)), np.max(np.abs(s1_l - phi)),
        np.max(np.abs(s1_r - 1.0)), np.max(np.abs(s2_r)),
    )
    if worst > LIMIT_GAP_MAX:
        return None

    try:
        for theta in grid:
            tau_star = find_tau_star(config, float(theta))
            if not (lo + TAU_STAR_MARGIN <= tau_star <= hi - TAU_STAR_MARGIN):
                return None
            find_critical_prejudices(config, float(theta))
    except (EndpointResolutionError, ScreeningError):
        return None

    try:
        report = classify_environment(config)
    except ScreeningError:
        return None
    if abs(report.lhs - report.rhs) < CLASS_MARGIN:
        return None

    try:
        eu_s1_left, eu_s2_left = expected_regret(config, left)
        eu_s2_right = expected_regret(config, right)[1]
    except QuadratureError:
        return None
    pi = payoffs.pi
    closed_s2_left = (1.0 - pi) * scale
    closed_s2_right = -payoffs.x_u
    closed_s1_left = (
        payoffs.x_q * pi * report.alpha_q
        - payoffs.x_u * (1.0 - pi) * report.alpha_u
    )
    if max(
        abs(eu_s2_left - closed_s2_left),
        abs(eu_s2_right - closed_s2_right),
        abs(eu_s1_left - closed_s1_left),
    ) > ENDPOINT_QUAD_MAX:
        return None

    left_gap = eu_s2_left - eu_s1_left
    if abs(left_gap) < LEFT_GAP_MIN:
        return None
    if (left_gap > 0) != (report.classification == "regular"):
        return None

    try:
        bar = find_tau_bar(config, "analytic")
    except ScreeningError:
        return None
    if report.classification == "regular":
        if bar.value is None:
            return None
        if not (lo + TAU_BAR_MARGIN <= bar.value <= hi - TAU_BAR_MARGIN):
            return None
        if expected_regret_gap(config, bar.value - 0.05) < GAP_PROBE_MIN:
            return None
        if expected_regret_gap(config, bar.value + 0.05) > -GAP_PROBE_MIN:
            return None
    elif bar.value is not None:
        return None

    return {
        "config": doc,
        "classification": report.classification,
        "theta_grid_lo": float(grid[0]),
        "theta_grid_hi": float(grid[-1]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output JSON path")
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--min-irregular", type=int, default=5)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    kept: list[dict] = []
    drawn = 0
    target_phase1 = args.count - args.min_irregular
    while len(kept) < target_phase1 and drawn < 20_000:
        drawn += 1
        record = vet(draw_phase1(rng))
        if record is not None:
            kept.append(record)
            print(
                f"phase1 {len(kept):3d}/{target_phase1} "
                f"({record['classification']}) after {drawn} draws",
                file=sys.stderr,
            )
    irregular = sum(1 for r in kept if r["classification"] == "irregular")
    while len(kept) < args.count and drawn < 40_000:
        drawn += 1
        record = vet(draw_phase2(rng))
        if record is None or record["classification"] != "irregular":
            continue
        kept.append(record)
        irregular += 1
        print(
            f"phase2 {len(kept):3d}/{args.count} irregular={irregular} "
            f"after {drawn} draws",
            file=sys.stderr,
        )
    if len(kept) < args.count:
        print(f"gave up after {drawn} draws with {len(kept)} configs",
              file=sys.stderr)
        return 1

    doc = {
        "seed": args.seed,
        "generator": "scripts/gen_random_configs.py",
        "grid_points": GRID_POINTS,
        "grid_half_width_sd": GRID_HALF_WIDTH_SD,
        "count": len(kept),
        "irregular": irregular,
        "configs": kept,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(kept)} configs ({irregular} irregular) to {args.out}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
