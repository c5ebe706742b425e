"""Analytic score curves: reference values, limits, monotonicity, and the
dual-route check for the fine-signal cutoff."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import expit
from scipy.stats import norm

from screenlab import (
    DomainError,
    ModelConfig,
    acceptance_threshold_T,
    bisect_monotone,
    clamped_tau_interval,
    gamma1,
    marginal_posterior_phi,
    score_point,
    score_s1,
    score_s2,
)
from screenlab.scores import score
from conftest import BASELINE_DOC, WEAK_GAMMA_DOC, baseline_theta_grid


class TestAcceptanceThreshold:
    def test_reference_value(self, baseline):
        np.testing.assert_allclose(
            acceptance_threshold_T(baseline.payoffs, 0.0), 1.5, rtol=1e-15
        )

    def test_rejects_tau_outside_open_interval(self, baseline):
        for tau in (-1.0, 1.0, -1.5, 2.0, float("nan"), np.array([0.0, 1.0])):
            with pytest.raises(DomainError, match="outside the open prejudice interval"):
                acceptance_threshold_T(baseline.payoffs, tau)

    def test_strictly_increasing_in_tau(self, baseline):
        taus = np.linspace(-0.999, 0.999, 400)
        values = np.array(
            [acceptance_threshold_T(baseline.payoffs, t) for t in taus]
        )
        assert np.all(np.diff(values) > 0)

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

                root = bisect_monotone(excess, -60.0, 60.0, residual_tol=1e-9)
                np.testing.assert_allclose(
                    gamma1(baseline, theta, tau), root.root, atol=1e-10
                )

    def test_vectorized_over_tau(self, baseline):
        taus = np.linspace(-0.9, 0.9, 7)
        batch = gamma1(baseline, 0.0, taus)
        singles = [float(gamma1(baseline, 0.0, t)) for t in taus]
        np.testing.assert_allclose(batch, singles, rtol=1e-15)


class TestScoreValues:
    def test_reference_point(self, baseline):
        point = score_point(baseline, 0.0, 0.0)
        np.testing.assert_allclose(point.s1, 0.6340681545868624, rtol=1e-12)
        np.testing.assert_allclose(point.s2, 0.15555916743512083, rtol=1e-12)
        np.testing.assert_allclose(point.phi, 0.28792871203468484, rtol=1e-12)
        np.testing.assert_allclose(point.surv_q, 0.34256783051484596, rtol=1e-12)
        np.testing.assert_allclose(point.surv_u, 0.0799415089086386, rtol=1e-12)

    def test_s2_is_mixture_of_survivals(self, baseline):
        """s2 = phi P(accept | q=1) + (1-phi) P(accept | q=0)."""
        point = score_point(baseline, 0.7, -0.2)
        np.testing.assert_allclose(
            point.s2,
            point.phi * point.surv_q + (1 - point.phi) * point.surv_u,
            rtol=1e-14,
        )

    def test_s1_from_bayes_on_survivals(self, baseline):
        """s1 = phi surv_q / (phi surv_q + (1-phi) surv_u)."""
        point = score_point(baseline, 0.7, -0.2)
        expected = (point.phi * point.surv_q) / (
            point.phi * point.surv_q + (1 - point.phi) * point.surv_u
        )
        np.testing.assert_allclose(point.s1, expected, rtol=1e-13)

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

    def test_score_dispatches_by_name(self, baseline):
        taus = np.linspace(-0.9, 0.9, 5)
        np.testing.assert_array_equal(score(baseline, "s1", 0.3, taus), score_s1(baseline, 0.3, taus))
        np.testing.assert_array_equal(score(baseline, "s2", 0.3, taus), score_s2(baseline, 0.3, taus))
        with pytest.raises(DomainError, match="algo"):
            score(baseline, "s3", 0.3, taus)
