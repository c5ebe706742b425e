"""Config validation, the likelihood-ratio certificate, and posteriors."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import multivariate_normal

from screenlab import (
    GaussianSignalModel,
    InvalidModelError,
    ModelConfig,
    PayoffParams,
    UnsupportedModelError,
    likelihood_ratio,
    marginal_posterior_phi,
    posterior_kappa,
    require_increasing_phi,
    validate_mlrp,
)
from conftest import BASELINE_DOC, NONMONOTONE_PHI_DOC


class TestPayoffParams:
    def test_beta_and_interval(self):
        p = PayoffParams(pi=0.4, x_q=2.0, x_u=1.0, c=0.5)
        assert p.beta == (1.0 + 0.5) / 3.0
        assert p.tau_min == -1.0
        assert p.tau_max == 2.0

    def test_log_odds_prior(self):
        p = PayoffParams(pi=0.4, x_q=1.0, x_u=1.0, c=0.0)
        np.testing.assert_allclose(p.log_odds_prior, np.log(0.4 / 0.6), rtol=1e-15)

    @pytest.mark.parametrize("field,value", [
        ("pi", 0.0), ("pi", 1.0), ("pi", -0.1),
        ("x_q", 0.0), ("x_q", -1.0),
        ("x_u", 0.0),
        ("c", 1.0), ("c", -1.0), ("c", 2.5),
    ])
    def test_rejects_out_of_range(self, field, value):
        doc = {"pi": 0.4, "x_q": 1.0, "x_u": 1.0, "c": 0.0}
        doc[field] = value
        with pytest.raises(InvalidModelError):
            PayoffParams(**doc)

    @given(
        pi=st.floats(0.05, 0.95),
        x_q=st.floats(0.1, 5.0),
        x_u=st.floats(0.1, 5.0),
        beta=st.floats(0.05, 0.95),
    )
    @settings(deadline=None, max_examples=100)
    def test_beta_stays_inside_unit_interval(self, pi, x_q, x_u, beta):
        """beta = (x_u+c)/(x_q+x_u) lands in (0,1) whenever c is interior."""
        c = beta * (x_q + x_u) - x_u
        p = PayoffParams(pi=pi, x_q=x_q, x_u=x_u, c=c)
        assert 0.0 < p.beta < 1.0
        np.testing.assert_allclose(p.beta, beta, rtol=1e-12)


class TestSignalModel:
    def test_rejects_degenerate_correlation(self):
        with pytest.raises(InvalidModelError):
            GaussianSignalModel(
                mu_q=(1.0, 1.0), mu_u=(0.0, 0.0),
                sigma_theta=1.0, sigma_gamma=1.0, rho=1.0,
            )

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(InvalidModelError):
            GaussianSignalModel(
                mu_q=(1.0, 1.0), mu_u=(0.0, 0.0),
                sigma_theta=0.0, sigma_gamma=1.0, rho=0.0,
            )

    def test_log_ratio_matches_density_ratio(self, baseline):
        """The affine log ratio agrees with direct bivariate densities."""
        signal = baseline.signal
        f_q = multivariate_normal(signal.mu_q, signal.covariance)
        f_u = multivariate_normal(signal.mu_u, signal.covariance)
        rng = np.random.default_rng(7)
        points = rng.uniform(-3, 3, size=(64, 2))
        direct = f_q.logpdf(points) - f_u.logpdf(points)
        affine = signal.log_likelihood_ratio(points[:, 0], points[:, 1])
        np.testing.assert_allclose(affine, direct, atol=1e-12)

    def test_log_ratio_with_correlation(self):
        signal = GaussianSignalModel(
            mu_q=(0.8, 1.2), mu_u=(-0.2, 0.1),
            sigma_theta=1.3, sigma_gamma=0.7, rho=0.45,
        )
        f_q = multivariate_normal(signal.mu_q, signal.covariance)
        f_u = multivariate_normal(signal.mu_u, signal.covariance)
        rng = np.random.default_rng(8)
        points = rng.uniform(-3, 3, size=(64, 2))
        direct = f_q.logpdf(points) - f_u.logpdf(points)
        affine = signal.log_likelihood_ratio(points[:, 0], points[:, 1])
        np.testing.assert_allclose(affine, direct, atol=1e-12)

    def test_conditional_gamma_moments(self, baseline):
        """With rho=0 the conditional gamma law ignores theta."""
        signal = baseline.signal
        assert signal.conditional_gamma_mean(3.0, qualified=True) == 1.0
        assert signal.conditional_gamma_mean(3.0, qualified=False) == 0.0
        assert signal.conditional_gamma_sd == 1.0

    def test_conditional_gamma_against_simulation(self):
        signal = GaussianSignalModel(
            mu_q=(1.0, 1.0), mu_u=(0.0, 0.0),
            sigma_theta=1.0, sigma_gamma=1.5, rho=0.6,
        )
        rng = np.random.default_rng(11)
        z = rng.standard_normal((1_000_000, 2))
        theta = 1.0 * z[:, 0]
        gamma = 1.5 * (0.6 * z[:, 0] + np.sqrt(1 - 0.36) * z[:, 1])
        near = np.abs(theta - 0.5) < 0.05
        np.testing.assert_allclose(
            gamma[near].mean(),
            signal.conditional_gamma_mean(0.5, qualified=False),
            atol=0.025,
        )
        np.testing.assert_allclose(
            gamma[near].std(),
            signal.conditional_gamma_sd,
            atol=0.025,
        )


class TestCertificate:
    def test_baseline_certified(self, baseline):
        cert = validate_mlrp(baseline.signal)
        assert cert.accepted
        np.testing.assert_allclose([cert.w_theta, cert.w_gamma], [1.0, 1.0])

    def test_negative_shift_rejected(self):
        signal = GaussianSignalModel(
            mu_q=(1.0, -0.5), mu_u=(0.0, 0.0),
            sigma_theta=1.0, sigma_gamma=1.0, rho=0.0,
        )
        cert = validate_mlrp(signal)
        assert not cert.accepted
        assert cert.violating == "gamma"

    def test_certified_yet_phi_decreasing(self):
        """A joint certificate does not order the theta marginals: with a
        strong negative correlation the gamma shift can certify both
        weights while the theta mean shift is negative."""
        config_doc = dict(NONMONOTONE_PHI_DOC)
        config = ModelConfig.from_dict(config_doc)
        cert = validate_mlrp(config.signal)
        assert cert.accepted
        assert config.signal.theta_slope < 0.0
        with pytest.raises(UnsupportedModelError):
            require_increasing_phi(config, "this test")

    def test_config_rejects_uncertified(self):
        doc = dict(BASELINE_DOC)
        doc["mu_q"] = [1.0, -0.5]
        with pytest.raises(InvalidModelError):
            ModelConfig.from_dict(doc)


class TestConfigRoundTrip:
    def test_missing_key(self):
        doc = dict(BASELINE_DOC)
        del doc["rho"]
        with pytest.raises(InvalidModelError, match="rho"):
            ModelConfig.from_dict(doc)

    def test_extra_key(self):
        doc = dict(BASELINE_DOC)
        doc["speed"] = 3.0
        with pytest.raises(InvalidModelError, match="speed"):
            ModelConfig.from_dict(doc)

    def test_to_dict_round_trips(self, baseline):
        again = ModelConfig.from_dict(baseline.to_dict())
        assert again.to_dict() == baseline.to_dict()

    @pytest.mark.parametrize("field,value", [
        ("pi", float("nan")), ("x_q", float("inf")), ("x_u", float("nan")),
        ("c", float("-inf")), ("mu_q", [float("nan"), 1.0]),
        ("mu_u", [0.0, float("-inf")]), ("sigma_theta", float("nan")),
        ("sigma_gamma", float("inf")), ("rho", float("nan")),
    ])
    def test_rejects_non_finite(self, field, value):
        """NaN passes every ordering check and inf passes most of them."""
        with pytest.raises(InvalidModelError, match="finite"):
            ModelConfig.from_dict({**BASELINE_DOC, field: value})


class TestPosteriors:
    def test_ratio_at_reference_points(self, baseline):
        np.testing.assert_allclose(
            likelihood_ratio(baseline, 0.0, 0.0), 0.36787944117144233, rtol=1e-15
        )
        np.testing.assert_allclose(
            likelihood_ratio(baseline, 0.5, 0.5), 1.0, rtol=1e-15
        )

    def test_kappa_at_reference_point(self, baseline):
        np.testing.assert_allclose(
            posterior_kappa(baseline, 0.0, 0.0), 0.19695031331397192, rtol=1e-13
        )

    def test_kappa_against_bayes_rule(self, baseline):
        """kappa = pi f_q / (pi f_q + (1-pi) f_u) via raw densities."""
        signal = baseline.signal
        f_q = multivariate_normal(signal.mu_q, signal.covariance)
        f_u = multivariate_normal(signal.mu_u, signal.covariance)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2.5, 2.5, size=(64, 2))
        num = 0.4 * f_q.pdf(pts)
        direct = num / (num + 0.6 * f_u.pdf(pts))
        ours = posterior_kappa(baseline, pts[:, 0], pts[:, 1])
        np.testing.assert_allclose(ours, direct, atol=1e-12)

    def test_kappa_stable_in_far_tails(self, baseline):
        """Raw-density Bayes returns 0/0 out here; the log-space route
        must underflow gracefully instead of producing NaN."""
        low = posterior_kappa(baseline, -40.0, -40.0)
        high = posterior_kappa(baseline, 40.0, 40.0)
        assert 0.0 < low < 1e-30
        assert high == 1.0
        f_q = multivariate_normal(baseline.signal.mu_q, baseline.signal.covariance)
        assert f_q.pdf([-40.0, -40.0]) == 0.0

    def test_phi_at_reference_point(self, baseline):
        np.testing.assert_allclose(
            marginal_posterior_phi(baseline, 0.0), 0.28792871203468484, rtol=1e-14
        )

    @given(
        theta=st.floats(-4, 4), gamma=st.floats(-4, 4),
        step=st.floats(1e-3, 1.0),
    )
    @settings(deadline=None, max_examples=150)
    def test_kappa_monotone_under_certificate(self, theta, gamma, step):
        """Raising either signal raises the posterior on a certified model."""
        config = ModelConfig.from_dict(BASELINE_DOC)
        base = posterior_kappa(config, theta, gamma)
        assert posterior_kappa(config, theta + step, gamma) > base
        assert posterior_kappa(config, theta, gamma + step) > base
