"""Acceptance gate: one test per shipped guarantee, run on the baseline
config plus the frozen table of fifty randomized certified configs.

Each test prints through the terminal-summary hook in conftest as a single
pass/fail line. Tolerances are pinned here and nowhere else."""
from __future__ import annotations

import time

import numpy as np

from screenlab import (
    ModelConfig,
    acceptance_threshold_T,
    classify_environment,
    clamped_tau_interval,
    expected_regret,
    expected_regret_gap,
    find_critical_prejudices,
    find_regret_crossings,
    find_tau_bar,
    find_tau_star,
    gamma1,
    bisect_monotone,
    marginal_posterior_phi,
    regret_curve,
    run_stage_one,
    sample_population,
    score_s1,
    score_s2,
    threshold_report,
    verify_nonatomic,
)
from screenlab.population import empirical_scores
from screenlab.scores import ALGOS
from conftest import baseline_theta_grid

TAU_GRID_POINTS = 400
LIMIT_EPS_SCALE = 1e-3          # endpoint probe offset, times x_q + x_u
LIMIT_TOL = 0.01
MONOTONE_SLACK = 1e-9
EQUALIZER_RESIDUAL_TOL = 1e-10
COINCIDENCE_TOL = 1e-8
CROSSING_MATCH_TOL = 1e-8
ENDPOINT_QUAD_TOL = 1e-6
MC_SEEDS = 100
MC_MIN_COVERED = 95
BIN_BAND_SIGMA = 3.0
BIN_MIN_FRACTION = 0.95
GAMMA1_DUAL_TOL = 1e-10


def all_configs(baseline, random_table):
    """(config, theta grid) for the baseline and every random config."""
    yield baseline, baseline_theta_grid()
    for record in random_table:
        yield record.config, record.theta_grid


def tau_grid_for(config) -> np.ndarray:
    lo, hi = clamped_tau_interval(config.payoffs)
    return np.linspace(lo, hi, TAU_GRID_POINTS)


def endpoint_probes(config) -> tuple[float, float]:
    payoffs = config.payoffs
    eps = LIMIT_EPS_SCALE * (payoffs.x_q + payoffs.x_u)
    return payoffs.tau_min + eps, payoffs.tau_max - eps


def test_criterion_01_monotonicity(baseline, random_table):
    """s2 strictly falls and s1 strictly rises across the prejudice grid."""
    started = time.perf_counter()
    for config, thetas in all_configs(baseline, random_table):
        taus = tau_grid_for(config)
        for theta in thetas:
            s1 = np.asarray(score_s1(config, float(theta), taus))
            s2 = np.asarray(score_s2(config, float(theta), taus))
            assert np.all(np.diff(s1) > -MONOTONE_SLACK)
            assert np.all(np.diff(s2) < MONOTONE_SLACK)
            assert s1[-1] > s1[0]
            assert s2[-1] < s2[0]
    assert time.perf_counter() - started < 5.0


def test_criterion_02_endpoint_limits(baseline, random_table):
    """Near the ends of the interval the scores sit on their limits:
    (phi, 1) on the left and (1, 0) on the right."""
    for config, thetas in all_configs(baseline, random_table):
        left, right = endpoint_probes(config)
        phi = np.asarray(marginal_posterior_phi(config, thetas))
        s1_left = np.asarray(score_s1(config, thetas, left))
        s2_left = np.asarray(score_s2(config, thetas, left))
        s1_right = np.asarray(score_s1(config, thetas, right))
        s2_right = np.asarray(score_s2(config, thetas, right))
        assert np.max(np.abs(s2_left - 1.0)) < LIMIT_TOL
        assert np.max(np.abs(s1_left - phi)) < LIMIT_TOL
        assert np.max(np.abs(s1_right - 1.0)) < LIMIT_TOL
        assert np.max(np.abs(s2_right)) < LIMIT_TOL


def test_criterion_03_equalizing_prejudice(baseline, random_table):
    """The score curves cross exactly once, the crossing resolves to a
    tiny residual, and the gap is signed around it."""
    for config, thetas in all_configs(baseline, random_table):
        taus = tau_grid_for(config)
        for theta in thetas:
            theta = float(theta)
            diff = np.asarray(score_s1(config, theta, taus)) - np.asarray(
                score_s2(config, theta, taus)
            )
            assert np.all(diff != 0.0)
            assert int((np.sign(diff[:-1]) * np.sign(diff[1:]) < 0).sum()) == 1
            tau_star = find_tau_star(config, theta)
            residual = abs(
                float(score_s1(config, theta, tau_star))
                - float(score_s2(config, theta, tau_star))
            )
            assert residual < EQUALIZER_RESIDUAL_TOL
            below = float(score_s1(config, theta, tau_star - 0.1)) - float(
                score_s2(config, theta, tau_star - 0.1)
            )
            above = float(score_s1(config, theta, tau_star + 0.1)) - float(
                score_s2(config, theta, tau_star + 0.1)
            )
            assert below < 0 < above


def test_criterion_04_critical_prejudice_chain(random_table):
    """Existence, ordering, betweenness, and the tuned-cutoff coincidence
    of the two critical prejudice levels, on every random config."""
    for record in random_table:
        config = record.config
        payoffs = config.payoffs
        beta = payoffs.beta
        for theta in record.theta_grid[1::4]:
            theta = float(theta)
            phi = float(marginal_posterior_phi(config, theta))
            d1, d2 = find_critical_prejudices(config, theta)
            assert (d1 is None) == (phi >= beta)
            tau_star = find_tau_star(config, theta)
            s_star = float(score_s1(config, theta, tau_star))
            if d1 is not None:
                assert (d1 > d2) == (s_star < beta)
                assert min(d1, d2) < tau_star < max(d1, d2)
            tuned_doc = config.to_dict()
            tuned_doc["c"] = s_star * (payoffs.x_q + payoffs.x_u) - payoffs.x_u
            tuned = ModelConfig.from_dict(tuned_doc)
            t1, t2 = find_critical_prejudices(tuned, theta)
            assert t1 is not None
            assert abs(t1 - t2) < COINCIDENCE_TOL


def _check_jump_structure(config, report, q, taus):
    payoffs = config.payoffs
    step = taus[1] - taus[0]
    curves = regret_curve(config, report.theta, q, taus, (report.tau_d1, report.tau_d2))
    annotated = {jump.algo: jump for jump in curves.jumps}
    d1, d2 = find_critical_prejudices(config, report.theta)
    expected_tau = {"s1": d1, "s2": d2}
    height_size = payoffs.x_q if q == 1 else payoffs.x_u
    sign_of = {"s1": -1.0 if q == 1 else 1.0, "s2": 1.0 if q == 1 else -1.0}
    for k, algo in enumerate(ALGOS):
        diffs = np.diff(curves.u[k])
        if expected_tau[algo] is None:
            assert algo not in annotated
            assert np.max(np.abs(diffs)) < 0.5 * height_size
            continue
        cell = int(np.argmax(np.abs(diffs)))
        smooth = np.abs(np.delete(diffs, cell))
        max_slope = float(smooth.max()) / step
        # exactly one jump: every other cell moves like a smooth curve
        assert float(smooth.max()) < 0.5 * height_size
        assert taus[cell] - 0.5 * step <= expected_tau[algo] <= taus[cell + 1] + 0.5 * step
        measured = float(diffs[cell])
        expected = sign_of[algo] * height_size
        assert abs(measured - expected) < 2.0 * step * max_slope + 1e-12


def test_criterion_05_regret_jump_structure(baseline, random_table):
    """Each per-applicant regret curve jumps exactly once, at its own
    critical prejudice, by the relevant payoff."""
    taus = tau_grid_for(baseline)
    for report in threshold_report(baseline, baseline_theta_grid()):
        for q in (0, 1):
            _check_jump_structure(baseline, report, q, taus)
    for record in random_table:
        taus = tau_grid_for(record.config)
        for report in threshold_report(record.config, record.theta_grid[4::6]):
            for q in (0, 1):
                _check_jump_structure(record.config, report, q, taus)


def test_criterion_06_crossing_counts(baseline, random_table, engineered):
    """Unqualified curves cross once, exactly at the equalizing level;
    qualified curves cross one to three times, and the engineered configs
    pin down the three- and two-crossing cases."""
    for config, thetas in all_configs(baseline, random_table):
        for theta in thetas[1::4]:
            theta = float(theta)
            report = find_regret_crossings(config, theta, 0)
            assert len(report.crossings) == 1
            tau_star = find_tau_star(config, theta)
            assert abs(report.crossings[0] - tau_star) < CROSSING_MATCH_TOL
            qualified = find_regret_crossings(config, theta, 1)
            assert len(qualified.crossings) in (1, 2, 3)
    three = find_regret_crossings(engineered, 0.0, 1)
    assert three.case_label == "case-1"
    assert len(three.crossings) == 3
    two = find_regret_crossings(engineered, 0.35, 1)
    assert two.case_label == "case-2"
    assert len(two.crossings) == 2


def test_criterion_07_endpoint_expectations(baseline, random_table):
    """Quadrature meets the closed-form endpoint values of the average
    regret curves."""
    for config, _ in all_configs(baseline, random_table):
        payoffs = config.payoffs
        pi = payoffs.pi
        scale = payoffs.x_q + payoffs.x_u
        left, right = clamped_tau_interval(payoffs)
        report = classify_environment(config)
        s1_left, s2_left = expected_regret(config, left)
        np.testing.assert_allclose(
            s2_left, (1.0 - pi) * scale,
            atol=ENDPOINT_QUAD_TOL,
        )
        np.testing.assert_allclose(
            expected_regret(config, right)[1], -payoffs.x_u,
            atol=ENDPOINT_QUAD_TOL,
        )
        np.testing.assert_allclose(
            s1_left,
            payoffs.x_q * pi * report.alpha_q
            - payoffs.x_u * (1.0 - pi) * report.alpha_u,
            atol=ENDPOINT_QUAD_TOL,
        )


def test_criterion_08_classification_consistency(baseline, random_table, irregular_config):
    """The analytic verdict agrees with the sign of the average-regret gap
    at the left endpoint, and the two reference configs land as documented."""
    assert classify_environment(baseline).classification == "regular"
    assert classify_environment(irregular_config).classification == "irregular"
    for record in random_table:
        config = record.config
        left, _ = clamped_tau_interval(config.payoffs)
        gap = expected_regret_gap(config, left)
        verdict = classify_environment(config).classification
        assert verdict == record.classification
        assert (gap > 0) == (verdict == "regular")


def test_criterion_09_population_indifference(baseline, random_table, irregular_config):
    """Regular environments yield a unique indifference prejudice with a
    signed gap around it; irregular ones keep the gap negative everywhere;
    Monte Carlo reproduces the analytic location within its error band."""
    started = time.perf_counter()
    for record in random_table:
        config = record.config
        result = find_tau_bar(config, "analytic")
        if record.classification == "regular":
            assert result.value is not None
            assert expected_regret_gap(config, result.value - 0.05) > 0
            assert expected_regret_gap(config, result.value + 0.05) < 0
        else:
            assert result.value is None
            assert result.reason == "irregular"
    # the documented irregular config, with an explicit grid scan
    assert find_tau_bar(irregular_config, "analytic").value is None
    lo, hi = clamped_tau_interval(irregular_config.payoffs)
    for tau in np.linspace(lo, hi, 25):
        assert expected_regret_gap(irregular_config, float(tau)) < 0

    analytic = find_tau_bar(baseline, "analytic").value
    covered = 0
    for seed in range(MC_SEEDS):
        estimate = find_tau_bar(baseline, "mc", m=100_000, seed=seed)
        if abs(estimate.value - analytic) <= 3.0 * estimate.standard_error:
            covered += 1
    assert covered >= MC_MIN_COVERED
    assert time.perf_counter() - started < 120.0


def test_criterion_10_oracle_equivalence(baseline):
    """Simulated populations reproduce the analytic scores bin by bin, and
    the closed-form cutoff matches inverting the likelihood ratio."""
    tau = 0.0
    population = sample_population(baseline, 1_000_000, seed=20240901)
    data = run_stage_one(baseline, population, tau)
    bins = empirical_scores(data, theta_bins=50)
    edges = np.array([bins[0].theta_lo] + [b.theta_hi for b in bins])
    assignment = np.clip(
        np.searchsorted(edges[1:-1], data.theta, side="right"), 0, len(bins) - 1
    )
    s2_values = np.asarray(score_s2(baseline, data.theta, tau))
    s1_values = np.asarray(score_s1(baseline, data.theta, tau))
    checks = 0
    within = 0
    for k, b in enumerate(bins):
        members = assignment == k
        assert int(members.sum()) == b.n
        if b.n >= 1000:
            p = s2_values[members]
            band = BIN_BAND_SIGMA * np.sqrt(np.sum(p * (1 - p))) / b.n
            checks += 1
            within += abs(b.s2_hat - p.mean()) <= band
        accepted = members & data.accepted
        if int(accepted.sum()) >= 100:
            p = s1_values[accepted]
            n_acc = int(accepted.sum())
            band = BIN_BAND_SIGMA * np.sqrt(np.sum(p * (1 - p))) / n_acc
            checks += 1
            within += abs(b.s1_hat - p.mean()) <= band
    assert checks >= 50
    assert within / checks >= BIN_MIN_FRACTION

    lo, hi = clamped_tau_interval(baseline.payoffs)
    for theta in np.linspace(-3.0, 4.0, 15):
        for tau_probe in np.linspace(lo + 0.05, hi - 0.05, 9):
            closed = float(gamma1(baseline, theta, tau_probe))
            bar = np.log(acceptance_threshold_T(baseline.payoffs, tau_probe))

            def excess(g):
                return baseline.signal.log_likelihood_ratio(theta, g) - bar

            root = bisect_monotone(excess, closed - 5.0, closed + 5.0)
            assert abs(closed - root.root) < GAMMA1_DUAL_TOL


def test_criterion_11_nonatomic_thresholds(baseline):
    """At population scale no two applicants share a score value or a
    critical prejudice value."""
    report = verify_nonatomic(baseline, tau=0.0, m=100_000, seed=77)
    assert report.m == 100_000
    for quantity, count in report.duplicates.items():
        assert count == 0, f"{quantity} collided {count} times"
