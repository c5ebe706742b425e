"""Analytic score curves: reference values, limits, monotonicity, and the
dual-route check for the fine-signal cutoff."""
from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import expit, log_ndtr, ndtr
from scipy.stats import norm

from screenlab import (
    DomainError,
    ModelConfig,
    PayoffParams,
    acceptance_threshold_T,
    bisect_monotone,
    clamped_tau_interval,
    gamma1,
    marginal_posterior_phi,
    score_s1,
    score_s2,
)
from screenlab import scores
from screenlab.population import sample_population
from screenlab.regret import _regret_values
from screenlab.scores import (
    _Scores, log_acceptance_threshold, score_pair, score_table,
)
from screenlab.thresholds import _sampled_losses
from conftest import BASELINE_DOC, WEAK_GAMMA_DOC, baseline_theta_grid, split_passes


class TestAcceptanceThreshold:
    def test_reference_value(self, baseline):
        np.testing.assert_allclose(
            acceptance_threshold_T(baseline.payoffs, 0.0), 1.5, rtol=1e-15
        )

    def test_rejects_tau_outside_open_interval(self, baseline):
        for tau, bad in ((-1.0, "-1.0"), (1.0, "1.0"), (-1.5, "-1.5"), (2.0, "2.0"),
                         (float("nan"), "nan"), (np.array([0.0, 1.0]), "1.0"),
                         (np.float64(5.0), "5.0")):
            with pytest.raises(DomainError) as info:
                acceptance_threshold_T(baseline.payoffs, tau)
            assert str(info.value) == (
                f"tau={bad} outside the open prejudice interval (-1.0, 1.0)"
            )

    def test_strictly_increasing_in_tau(self, baseline):
        taus = np.linspace(-0.999, 0.999, 400)
        values = np.array(
            [acceptance_threshold_T(baseline.payoffs, t) for t in taus]
        )
        assert np.all(np.diff(values) > 0)

    def test_log_threshold_equals_its_four_terms_bit_for_bit(self):
        """log T reads the stored prior log odds; negating them gives the
        bits of log(1 - pi) - log(pi), so every cutoff keeps its bits."""
        rng = np.random.default_rng(28)
        pis = np.concatenate([rng.uniform(0.0, 1.0, 300), 10.0 ** rng.uniform(-300, -1, 100),
                              1.0 - 10.0 ** rng.uniform(-16, -1, 100)])
        for pi in pis:
            x_q, x_u = 10.0 ** rng.uniform(-3, 3, 2)
            payoffs = PayoffParams(pi=pi, x_q=x_q, x_u=x_u,
                                   c=rng.uniform(0.05, 0.95) * (x_q + x_u) - x_u)
            taus = -x_u + (x_q + x_u) * rng.uniform(1e-6, 1.0 - 1e-6, 16)
            for tau in (taus, float(taus[0]), taus[1:2].reshape(())):
                terms = (np.log1p(-payoffs.pi) - np.log(payoffs.pi)
                         + np.log(payoffs.x_u + tau) - np.log(payoffs.x_q - tau))
                got = log_acceptance_threshold(payoffs, tau)
                assert type(got) is type(terms)
                assert np.asarray(got).tobytes() == np.asarray(terms).tobytes(), (payoffs, tau)

    def test_clamp_interval_scales_with_payoffs(self):
        config = ModelConfig.from_dict({**BASELINE_DOC, "x_q": 3.0, "x_u": 2.0})
        lo, hi = clamped_tau_interval(config.payoffs)
        np.testing.assert_allclose(lo, -2.0 + 5e-6, rtol=1e-12)
        np.testing.assert_allclose(hi, 3.0 - 5e-6, rtol=1e-12)


class TestGamma1:
    def test_reference_value(self, baseline):
        np.testing.assert_allclose(
            gamma1(baseline, 0.0, 0.0), 1.4054651081081644, rtol=1e-14
        )

    def test_closed_form_matches_bisection_on_ratio(self, baseline):
        """Dual route: the cutoff is where the joint likelihood ratio meets
        the acceptance bar, so invert that ratio numerically and compare."""
        signal = baseline.signal
        for theta in (-2.0, -0.5, 0.0, 1.0, 2.5):
            for tau in (-0.9, -0.3, 0.0, 0.4, 0.9):
                bar = acceptance_threshold_T(baseline.payoffs, tau)

                def excess(g):
                    return signal.log_likelihood_ratio(theta, g) - np.log(bar)

                root = bisect_monotone(excess, -60.0, 60.0)
                np.testing.assert_allclose(
                    gamma1(baseline, theta, tau), root.root, atol=1e-10
                )

    def test_vectorized_over_tau(self, baseline):
        taus = np.linspace(-0.9, 0.9, 7)
        batch = gamma1(baseline, 0.0, taus)
        singles = [float(gamma1(baseline, 0.0, t)) for t in taus]
        np.testing.assert_allclose(batch, singles, rtol=1e-15)


def score_cell(config, theta: float, tau: float) -> dict[str, float]:
    """score_table's columns at the single cell (theta, tau), by name."""
    names = ("theta", "tau", "s1", "s2", "gamma1", "phi", "surv_q", "surv_u")
    columns = score_table(config, theta, [tau])
    return {name: float(column[0]) for name, column in zip(names, columns)}


class TestScoreValues:
    def test_reference_point(self, baseline):
        point = score_cell(baseline, 0.0, 0.0)
        np.testing.assert_allclose(point["s1"], 0.6340681545868624, rtol=1e-12)
        np.testing.assert_allclose(point["s2"], 0.15555916743512083, rtol=1e-12)
        np.testing.assert_allclose(point["phi"], 0.28792871203468484, rtol=1e-12)
        np.testing.assert_allclose(point["surv_q"], 0.34256783051484596, rtol=1e-12)
        np.testing.assert_allclose(point["surv_u"], 0.0799415089086386, rtol=1e-12)

    def test_s2_is_mixture_of_survivals(self, baseline):
        """s2 = phi P(accept | q=1) + (1-phi) P(accept | q=0)."""
        point = score_cell(baseline, 0.7, -0.2)
        np.testing.assert_allclose(
            point["s2"],
            point["phi"] * point["surv_q"] + (1 - point["phi"]) * point["surv_u"],
            rtol=1e-14,
        )

    def test_s1_from_bayes_on_survivals(self, baseline):
        """s1 = phi surv_q / (phi surv_q + (1-phi) surv_u)."""
        point = score_cell(baseline, 0.7, -0.2)
        expected = (point["phi"] * point["surv_q"]) / (
            point["phi"] * point["surv_q"] + (1 - point["phi"]) * point["surv_u"]
        )
        np.testing.assert_allclose(point["s1"], expected, rtol=1e-13)

    def test_s1_against_posterior_quadrature(self, baseline):
        """Dual route: integrate the joint posterior over accepted gammas."""
        theta, tau = 0.3, -0.1
        cut = float(gamma1(baseline, theta, tau))
        phi = float(marginal_posterior_phi(baseline, theta))
        signal = baseline.signal

        def accepted_mass(qualified):
            mean = signal.conditional_gamma_mean(theta, qualified=qualified)
            sd = signal.conditional_gamma_sd
            value, err = quad(
                lambda g: norm.pdf(g, mean, sd), cut, mean + 12 * sd,
                epsabs=1e-13, epsrel=1e-13,
            )
            assert err < 1e-10
            return value

        mass_q = phi * accepted_mass(True)
        mass_u = (1 - phi) * accepted_mass(False)
        np.testing.assert_allclose(
            score_s1(baseline, theta, tau), mass_q / (mass_q + mass_u), rtol=1e-9
        )
        np.testing.assert_allclose(
            score_s2(baseline, theta, tau), mass_q + mass_u, rtol=1e-9
        )

    def test_survives_extreme_prejudice_without_underflow(self, baseline):
        """Deep in the tails the survival ratio underflows a naive
        formula; the log-space route must keep s1 finite and ordered."""
        lo, hi = clamped_tau_interval(baseline.payoffs)
        for theta in (-8.0, 0.0, 8.0):
            s1 = np.asarray(score_s1(baseline, theta, np.array([lo, hi])))
            assert np.all(np.isfinite(s1))
            assert 0.0 <= s1[0] <= s1[1] <= 1.0


def per_theta_table(config, theta: float, tau: np.ndarray) -> list[np.ndarray]:
    """One theta's scores.csv columns from separate score, cutoff and phi calls."""
    cutoff = gamma1(config, theta, tau)
    signal, sd = config.signal, config.signal.conditional_gamma_sd
    z_q = (cutoff - signal.conditional_gamma_mean(theta, qualified=True)) / sd
    z_u = (cutoff - signal.conditional_gamma_mean(theta, qualified=False)) / sd
    return [
        np.full(len(tau), theta), tau, score_s1(config, theta, tau), score_s2(config, theta, tau),
        cutoff, np.full(len(tau), float(marginal_posterior_phi(config, theta))),
        ndtr(-z_q), ndtr(-z_u),
    ]


class TestScoreTable:
    def test_theta_vector_stacks_per_theta_tables(self, baseline, irregular_config, random_table):
        """A theta vector gives, bit for bit, its per-theta tables one after another."""
        cases = [(baseline, baseline_theta_grid()), (irregular_config, baseline_theta_grid())]
        cases += [(record.config, record.theta_grid) for record in random_table]
        for config, thetas in cases:
            lo, hi = clamped_tau_interval(config.payoffs)
            taus = np.linspace(lo, hi, 40)  # both clamped ends included
            stacked = [np.concatenate(blocks) for blocks in
                       zip(*(per_theta_table(config, float(t), taus) for t in thetas))]
            table = score_table(config, thetas, taus)
            assert len(table) == len(stacked) == 8
            for column, expected in zip(table, stacked):
                assert column.shape == (len(thetas) * len(taus),)
                assert np.array_equal(column, expected)


class TestLimits:
    def test_left_endpoint(self, baseline):
        lo, _ = clamped_tau_interval(baseline.payoffs)
        for theta in baseline_theta_grid():
            phi = float(marginal_posterior_phi(baseline, theta))
            np.testing.assert_allclose(float(score_s2(baseline, theta, lo)), 1.0, atol=1e-4)
            np.testing.assert_allclose(float(score_s1(baseline, theta, lo)), phi, atol=1e-4)

    def test_right_endpoint(self, baseline):
        _, hi = clamped_tau_interval(baseline.payoffs)
        for theta in baseline_theta_grid():
            np.testing.assert_allclose(float(score_s1(baseline, theta, hi)), 1.0, atol=1e-4)
            np.testing.assert_allclose(float(score_s2(baseline, theta, hi)), 0.0, atol=1e-4)


class TestMonotonicity:
    @given(theta=st.floats(-3.0, 3.5))
    @settings(deadline=None, max_examples=60)
    def test_s1_up_s2_down_in_tau(self, theta):
        config = ModelConfig.from_dict(BASELINE_DOC)
        lo, hi = clamped_tau_interval(config.payoffs)
        taus = np.linspace(lo, hi, 200)
        s1 = np.asarray(score_s1(config, theta, taus))
        s2 = np.asarray(score_s2(config, theta, taus))
        assert np.all(np.diff(s1) > -1e-9)
        assert np.all(np.diff(s2) < 1e-9)
        assert s1[-1] > s1[0]
        assert s2[-1] < s2[0]

    def test_both_scores_increase_in_theta(self, baseline):
        """With a positive theta mean shift both scores rank applicants
        the same way the posterior does."""
        thetas = np.linspace(-3.0, 3.5, 80)
        for tau in (-0.5, 0.0, 0.5):
            s1 = np.array([float(score_s1(baseline, t, tau)) for t in thetas])
            s2 = np.array([float(score_s2(baseline, t, tau)) for t in thetas])
            assert np.all(np.diff(s1) > 0)
            assert np.all(np.diff(s2) > 0)


class TestDomain:
    @given(
        bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        good=st.lists(st.floats(-5.0, 5.0), max_size=4),
        where=st.integers(0, 4),
        tau=st.floats(-0.9, 0.9),
    )
    @settings(deadline=None, max_examples=60)
    def test_non_finite_theta_rejected(self, bad, good, where, tau):
        config = ModelConfig.from_dict(BASELINE_DOC)
        thetas = good[:where] + [bad] + good[where:]
        for theta in (bad, np.array(thetas)):
            for fn in (score_s1, score_s2, gamma1):
                with pytest.raises(DomainError, match="not finite"):
                    fn(config, theta, tau)

    @given(
        theta=st.floats(allow_nan=False, allow_infinity=False),
        which=st.integers(0, 51),
        where=st.floats(0.0, 1.0),
    )
    @settings(deadline=None, max_examples=300)
    def test_finite_theta_gives_finite_scores(
        self, baseline, irregular_config, random_table, theta, which, where
    ):
        configs = [baseline, irregular_config] + [record.config for record in random_table]
        config = configs[which]
        lo, hi = clamped_tau_interval(config.payoffs)
        tau = lo + where * (hi - lo)
        for fn in (score_s1, score_s2, gamma1):
            for thetas in (theta, np.array([theta, 0.0])):
                try:
                    value = np.asarray(fn(config, thetas, tau))
                except DomainError:
                    # every cutoff of these configs within |theta| <= 1e4
                    # lies under 6e4 sds out, far inside S1_MAX_Z
                    assert abs(theta) > 1e4
                    continue
                assert np.isfinite(value).all()
                if fn is not gamma1:
                    assert ((value >= 0.0) & (value <= 1.0)).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_theta_warns_of_nothing(self, baseline, irregular_config, random_table):
        """Past |theta| ~ 1e16 the cutoff, its z-scores or the log odds may
        overflow; that ends in DomainError or in an infinite z-score or log
        odds, whose ndtr and expit limits are exact, and is not warned of."""
        magnitudes = (1e16, 1e64, 1e154, 1e250, 1e300, 1e307, 1.7e308, np.finfo(float).max)
        thetas = [sign * x for x in magnitudes for sign in (1.0, -1.0)]
        for config in [baseline, irregular_config] + [record.config for record in random_table]:
            lo, hi = clamped_tau_interval(config.payoffs)
            for tau in (lo, 0.5 * (lo + hi), hi):
                for theta in thetas:
                    for fn in (score_s1, score_s2, gamma1):
                        try:
                            value = float(fn(config, theta, tau))
                        except DomainError:
                            continue
                        assert math.isfinite(value)
                        if fn is not gamma1:
                            assert 0.0 <= value <= 1.0

    def test_s1_rejects_a_cutoff_past_its_precision(self, baseline):
        """On the baseline the cutoff sits about -theta sds above both means;
        s1's log survival difference became NaN past theta ~ -2.3e154 and
        rounds off by ~eps * theta**2 / 2 long before."""
        taus = np.linspace(-0.9, 0.9, 7)
        # the accepted crowd the acceptance boundary, whose posterior is
        # (x_u + tau) / (x_q + x_u)
        for theta in (-1e3, -1e6):
            np.testing.assert_allclose(
                score_s1(baseline, theta, taus), (1.0 + taus) / 2.0, atol=1e-3
            )
        for theta in (-1e7, -2.29e154, -1e200, np.array([0.0, -1e200])):
            with pytest.raises(DomainError, match="round off"):
                score_s1(baseline, theta, taus[:1])

    def test_s1_keeps_its_digits_on_a_weak_gamma_signal(self):
        """At the clamped upper tau the cutoff is ~1.5e4 sds out; s1 must
        match the tail expansion of its log survival difference."""
        config = ModelConfig.from_dict(WEAK_GAMMA_DOC)
        lo, hi = clamped_tau_interval(config.payoffs)
        taus = np.linspace(lo, hi, 400)
        for theta in (-1.0, 0.0, 1.0):
            s1 = score_s1(config, theta, taus)
            assert ((s1 >= 0.0) & (s1 <= 1.0)).all() and (np.diff(s1) >= 0.0).all()
            cutoff = gamma1(config, theta, hi)
            sd = config.signal.conditional_gamma_sd
            z_q, z_u = (cutoff - 0.001) / sd, cutoff / sd
            assert z_u > 1e4
            # log ndtr(-z) = -z**2/2 - log z - log(2 pi)/2 + log(1 - 1/z**2 + ...)
            log_diff = (
                (z_u - z_q) * (z_u + z_q) / 2.0 + np.log(z_u / z_q)
                + np.log1p(-1.0 / z_q**2) - np.log1p(-1.0 / z_u**2)
            )
            log_odds = config.payoffs.log_odds_prior + config.signal.theta_log_ratio(theta)
            np.testing.assert_allclose(s1[-1], expit(log_odds + log_diff), rtol=0, atol=1e-7)


def score_terms(config, theta, tau):
    """(z_q, z_u, log odds, phi) at (theta, tau), written out term by term
    from the model's closed forms."""
    signal = config.signal
    w_theta, w_gamma = signal.log_ratio_weights
    log_t = log_acceptance_threshold(config.payoffs, tau)
    cutoff = (log_t - signal.log_ratio_intercept - w_theta * theta) / w_gamma
    sd = signal.conditional_gamma_sd
    z_q = (cutoff - signal.conditional_gamma_mean(theta, qualified=True)) / sd
    z_u = (cutoff - signal.conditional_gamma_mean(theta, qualified=False)) / sd
    log_odds = config.payoffs.log_odds_prior + signal.theta_log_ratio(theta)
    return z_q, z_u, log_odds, marginal_posterior_phi(config, theta)


def log_route_s1(config, theta, tau):
    """s1 by the log route alone, expit(log odds + log S_q - log S_u)."""
    z_q, z_u, log_odds, _ = score_terms(config, theta, tau)
    return expit(log_odds + log_ndtr(-z_q) - log_ndtr(-z_u))


def reference_scores(config, theta, tau):
    """(s1, s2) written out term by term from the model's closed forms: the
    reference the score evaluator must equal bit for bit.  s1 is the ratio
    phi S_q / s2 where its numerator is at least 2**-970 (the smallest normal
    float over eps) and the log route elsewhere, both evaluated everywhere and
    then picked element by element."""
    z_q, z_u, _, phi = score_terms(config, theta, tau)
    numerator = phi * ndtr(-z_q)
    s2 = numerator + (1.0 - phi) * ndtr(-z_u)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = numerator / s2
    return np.where(numerator >= 2.0**-970, ratio, log_route_s1(config, theta, tau)), s2


class TestS1Routes:
    """s1 is the ratio phi S_q / s2 down to S1_RATIO_MIN and the log route
    below it: the ratio is no less accurate, and the switch keeps s1 a
    probability that rises with tau."""

    def test_ratio_route_is_no_less_accurate_than_the_log_route(self, baseline, irregular_config):
        """Both routes against a 50-digit reference computed from the same
        double z-scores and log odds, over generated and extreme thetas at
        nine taus from one clamped end to the other."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2)
        weak_gamma = ModelConfig.from_dict(WEAK_GAMMA_DOC)
        for config in (baseline, irregular_config, weak_gamma):
            lo, hi = clamped_tau_interval(config.payoffs)
            thetas = np.concatenate([
                rng.uniform(-60.0, 60.0, 100),
                -np.exp(rng.uniform(np.log(60.0), np.log(2000.0), 30)),
                [-2000.0, -200.0, -40.0, -30.0, 40.0, 1e3, 1e5],
            ])[:, None]
            taus = np.linspace(lo, hi, 9)
            z_q, z_u, log_odds, _ = np.broadcast_arrays(*score_terms(config, thetas, taus))
            routes = (score_s1(config, thetas, taus), log_route_s1(config, thetas, taus))
            errors = ([], [])
            with mpmath.workdps(50):
                for k in np.ndindex(z_q.shape):
                    odds_u = mpmath.exp(-mpmath.mpf(log_odds[k])) * mpmath.ncdf(-z_u[k])
                    exact = 1 / (1 + odds_u / mpmath.ncdf(-z_q[k]))
                    ulp = np.spacing(float(exact))
                    for s1, error in zip(routes, errors):
                        error.append(float(abs(mpmath.mpf(s1[k]) - exact) / ulp))
            new, old = np.array(errors[0]), np.array(errors[1])
            differ = (routes[0] != routes[1]).ravel()
            # the far tail, where both take the log route, holds the overall max
            assert new.max() <= old.max()
            assert new[differ].max(initial=0) <= old[differ].max(initial=0)
            # the weak gamma signal puts its cutoffs tens of sds from both class
            # means, where the two routes round to the same bits
            assert config is weak_gamma or differ.sum() > 100

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("which,theta", [("baseline", -30.0), ("irregular", -40.0)])
    def test_s1_rises_across_the_route_switch(self, baseline, irregular_config, which, theta):
        """phi S_q falls below S1_RATIO_MIN inside the clamped tau grid; s1
        stays in [0, 1] and non-decreasing there, and on two finer grids
        around the switch, down to taus ~1e-9 apart."""
        config = baseline if which == "baseline" else irregular_config
        grid = np.linspace(*clamped_tau_interval(config.payoffs), 400)
        for _ in range(3):
            z_q, _, _, phi = score_terms(config, theta, grid)
            ratio = phi * ndtr(-z_q) >= scores.S1_RATIO_MIN
            assert ratio[0] and not ratio[-1]
            s1 = score_s1(config, theta, grid)
            assert ((s1 >= 0.0) & (s1 <= 1.0)).all() and (np.diff(s1) >= 0.0).all()
            switch = np.argmin(ratio)
            grid = np.linspace(grid[switch - 1], grid[switch], 2001)

    def test_ratio_waits_for_the_unqualified_survival(self, baseline):
        """At the clamped upper tau, theta = -22.58 gives a normal phi S_q of
        ~5.6e-307 while ndtr flushes S_u, truly ~5.4e-313, to 0: a ratio there
        would read s1 = 1.0 against the true 0.99999903, so s1 keeps the log
        route."""
        theta, tau = -22.580225758741747, clamped_tau_interval(baseline.payoffs)[1]
        z_q, z_u, _, phi = score_terms(baseline, theta, tau)
        assert phi * ndtr(-z_q) > np.finfo(float).tiny and ndtr(-z_u) == 0.0
        s1 = score_s1(baseline, theta, tau)
        assert s1 == log_route_s1(baseline, theta, tau)
        np.testing.assert_allclose(s1, 0.99999902641676455, rtol=1e-14)


class TestBoundScores:
    """A population bound once, and ``score_pair``, give bit for bit what
    each score call gives."""

    M = 4_000

    def test_bound_pair_equals_score_calls(self, baseline, irregular_config, random_table):
        configs = [baseline, irregular_config] + [record.config for record in random_table]
        for k, config in enumerate(configs):
            population = sample_population(config, self.M, seed=k)
            losses = _sampled_losses(config, self.M, seed=k)
            lo, hi = clamped_tau_interval(config.payoffs)
            taus = np.linspace(lo, hi, 9)  # both clamped ends included
            # (pair of tau, theta, tau): the population bound once and
            # score_pair over it tau by tau, score_pair at one applicant, and
            # score_pair over the (theta x tau) grid in one call
            lone, grid = float(population.theta[0]), population.theta[:, None]
            cases = [(_Scores(config, population.theta), population.theta, tau)
                     for tau in taus]
            cases += [(partial(score_pair, config, theta), theta, tau)
                      for theta in (population.theta, lone) for tau in taus]
            cases.append((partial(score_pair, config, grid), grid, taus))
            for pair, theta, tau in cases:
                s1, s2 = pair(tau)
                assert np.array_equal(s1, score_s1(config, theta, tau))
                assert np.array_equal(s2, score_s2(config, theta, tau))
                ref1, ref2 = reference_scores(config, theta, tau)
                assert np.array_equal(s1, ref1) and np.array_equal(s2, ref2)
            for tau in taus:
                ref1, ref2 = reference_scores(config, population.theta, tau)
                u2 = _regret_values(config.payoffs, ref2, population.q)[3]
                u1 = _regret_values(config.payoffs, ref1, population.q)[3]
                assert np.array_equal(losses(tau), u2 - u1)

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_split_pass_equals_the_serial_reference(
        self, baseline, irregular_config, random_table, monkeypatch, parts,
    ):
        """However many threads share a pass, each applicant's loss is the
        reference written out term by term, bit for bit."""
        split_passes(monkeypatch, parts)
        sizes = []

        class Counted(_Scores):
            __slots__ = ()

            def __init__(self, config, theta):
                sizes.append(len(theta))
                super().__init__(config, theta)

        monkeypatch.setattr(scores, "_Scores", Counted)
        configs = [baseline, irregular_config] + [record.config for record in random_table]
        for k, config in enumerate(configs):
            sizes.clear()
            population = sample_population(config, self.M, seed=k)
            losses = _sampled_losses(config, self.M, seed=k)
            assert len(sizes) == parts and sum(sizes) == self.M
            lo, hi = clamped_tau_interval(config.payoffs)
            for tau in np.linspace(lo, hi, 5):
                ref1, ref2 = reference_scores(config, population.theta, tau)
                u2 = _regret_values(config.payoffs, ref2, population.q)[3]
                u1 = _regret_values(config.payoffs, ref1, population.q)[3]
                assert np.array_equal(losses(tau), u2 - u1)

    def test_terms_are_bound_once_for_every_tau(self, baseline, monkeypatch):
        """phi is computed when the thetas are bound, not again at each tau."""
        calls = []
        phi = scores.marginal_posterior_phi

        def counted(config, theta):
            calls.append(np.shape(theta))
            return phi(config, theta)

        monkeypatch.setattr(scores, "marginal_posterior_phi", counted)
        bound = _Scores(baseline, np.linspace(-2.0, 2.0, 11))
        for tau in np.linspace(-0.5, 0.5, 5):
            bound(tau)
        assert calls == [(11,)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("theta", [np.inf, np.nan], ids=["inf", "nan"])
    def test_binding_a_nonfinite_theta_warns_of_nothing(self, baseline, theta):
        """The baseline's rho = 0 meets an infinite theta as 0 * inf while the
        terms are bound; the first evaluation raises, as each score call does."""
        thetas = np.array([0.0, theta, 1.0])
        bound = _Scores(baseline, thetas)
        with pytest.raises(DomainError) as paired:
            bound(0.2)
        for fn in (score_s1, score_s2):
            with pytest.raises(DomainError) as called:
                fn(baseline, thetas, 0.2)
            assert str(paired.value) == str(called.value)

    @pytest.mark.parametrize("theta,raising", [
        (np.inf, (score_s1, score_s2)),
        (np.nan, (score_s1, score_s2)),
        (-1e200, (score_s1,)),
    ], ids=["inf", "nan", "beyond-s1-max-z"])
    def test_bound_pair_raises_as_score_calls_do(self, baseline, theta, raising):
        thetas = np.array([0.0, theta, 1.0])
        pairs = (
            lambda: _Scores(baseline, thetas)(0.2),
            lambda: score_pair(baseline, thetas, 0.2),
            lambda: score_pair(baseline, theta, 0.2),
            lambda: score_pair(baseline, thetas[:, None], np.array([-0.5, 0.2])),
        )
        for pair in pairs:
            with pytest.raises(DomainError) as paired:
                pair()
            for fn in raising:
                with pytest.raises(DomainError) as called:
                    fn(baseline, thetas, 0.2)
                assert str(paired.value) == str(called.value)
