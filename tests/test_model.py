"""Config validation, the likelihood-ratio certificate, and posteriors."""
from __future__ import annotations

import copy
import dataclasses
import json
import pickle

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
    expected_regret,
    likelihood_ratio,
    marginal_posterior_phi,
    posterior_kappa,
    require_increasing_phi,
    validate_mlrp,
)
from conftest import (
    BASELINE_DOC, EXTREME_CONFIGS, HUGE_INT_TEXT, IRREGULAR_DOC, NONMONOTONE_PHI_DOC,
)


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


def accessor_values(config: ModelConfig) -> dict:
    """Each derived constant of ``config``'s three types, keyed by (type,
    name), written as the accessors that recomputed it on every read wrote
    it, so a stored value can be checked bit for bit."""
    p, s = config.payoffs, config.signal
    d_theta = s.mu_q[0] - s.mu_u[0]
    d_gamma = s.mu_q[1] - s.mu_u[1]
    one_minus = 1.0 - s.rho**2
    w_theta = (
        d_theta / s.sigma_theta**2 - s.rho * d_gamma / (s.sigma_theta * s.sigma_gamma)
    ) / one_minus
    w_gamma = (
        d_gamma / s.sigma_gamma**2 - s.rho * d_theta / (s.sigma_theta * s.sigma_gamma)
    ) / one_minus
    mid_theta = 0.5 * (s.mu_q[0] + s.mu_u[0])
    mid_gamma = 0.5 * (s.mu_q[1] + s.mu_u[1])
    beta = (p.x_u + p.c) / (p.x_q + p.x_u)
    return {
        ("PayoffParams", "beta"): beta,
        ("PayoffParams", "tau_min"): -p.x_u,
        ("PayoffParams", "tau_max"): p.x_q,
        ("PayoffParams", "log_odds_prior"): float(np.log(p.pi) - np.log1p(-p.pi)),
        ("GaussianSignalModel", "log_ratio_weights"): (w_theta, w_gamma),
        ("GaussianSignalModel", "log_ratio_intercept"): -(w_theta * mid_theta + w_gamma * mid_gamma),
        ("GaussianSignalModel", "theta_slope"): (s.mu_q[0] - s.mu_u[0]) / s.sigma_theta**2,
        ("GaussianSignalModel", "theta_midpoint"): 0.5 * (s.mu_q[0] + s.mu_u[0]),
        ("GaussianSignalModel", "conditional_gamma_sd"):
            s.sigma_gamma * float(np.sqrt(1.0 - s.rho**2)),
        ("ModelConfig", "beta"): beta,
    }


def owners(config: ModelConfig) -> dict:
    """``config`` and its two parts by type name."""
    return {type(obj).__name__: obj for obj in (config.payoffs, config.signal, config)}


def stored_values(config: ModelConfig) -> dict:
    """The values ``config``'s three types hold, keyed as accessor_values."""
    return {(owner, name): getattr(owners(config)[owner], name)
            for owner, name in accessor_values(config)}


def bits(value) -> bytes:
    """The float64 bytes of a float or a tuple of floats: 0.0 and -0.0 differ."""
    return np.asarray(value, dtype=np.float64).tobytes()


class TestDerivedOnce:
    """Each type computes its derived constants once, when it is built, and
    stores them beside its fields."""

    def test_stored_values_equal_the_closed_forms_bit_for_bit(self, baseline, random_table):
        configs = [baseline, ModelConfig.from_dict(IRREGULAR_DOC)]
        configs += [record.config for record in random_table]
        for config in configs:
            stored = stored_values(config)
            for key, value in accessor_values(config).items():
                assert type(stored[key]) is type(value), key
                assert bits(stored[key]) == bits(value), (key, config)

    def test_stored_beside_the_fields_and_not_as_fields(self, baseline):
        for (owner, name), value in stored_values(baseline).items():
            instance = owners(baseline)[owner]
            assert name in vars(instance), (owner, name)
            assert name not in {field.name for field in dataclasses.fields(instance)}
            assert not isinstance(value, np.ndarray), (owner, name)

    def test_fields_alone_make_equality_hash_repr_and_tuple(self, baseline):
        payoffs = baseline.payoffs
        assert dataclasses.astuple(payoffs) == (0.4, 1.0, 1.0, 0.0)
        assert repr(payoffs) == "PayoffParams(pi=0.4, x_q=1.0, x_u=1.0, c=0.0)"
        twin = ModelConfig.from_dict(BASELINE_DOC)
        assert twin == baseline and hash(twin) == hash(baseline)
        assert baseline.to_dict() == BASELINE_DOC

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
                             ids=["deepcopy", "pickle"])
    def test_copies_keep_the_stored_values(self, baseline, copier):
        clone = copier(baseline)
        assert clone == baseline
        assert {key: bits(v) for key, v in stored_values(clone).items()} == {
            key: bits(v) for key, v in stored_values(baseline).items()}

    def test_replace_derives_afresh(self, baseline):
        signal = dataclasses.replace(baseline.signal, rho=0.3)
        payoffs = dataclasses.replace(baseline.payoffs, c=0.2)
        config = ModelConfig(payoffs, signal)
        assert payoffs.beta == 0.6 and config.beta == 0.6
        assert signal.log_ratio_weights != baseline.signal.log_ratio_weights
        assert signal.conditional_gamma_sd != baseline.signal.conditional_gamma_sd
        for key, value in accessor_values(config).items():
            assert bits(stored_values(config)[key]) == bits(value), key

    def test_covariance_is_a_new_array_on_each_read(self, baseline):
        signal = baseline.signal
        assert signal.covariance is not signal.covariance
        certificate, regret = validate_mlrp(signal), expected_regret(baseline, 0.1)
        signal.covariance[:] = [[1.0, 5.0], [5.0, 1.0]]  # indefinite, were it kept
        assert validate_mlrp(signal) == certificate
        assert bits(expected_regret(baseline, 0.1)) == bits(regret)
        np.testing.assert_array_equal(signal.covariance, np.eye(2))


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

    def test_to_dict_keys_are_the_fields(self, baseline):
        """to_dict writes from_dict's keys, in the same order."""
        assert list(baseline.to_dict()) == list(ModelConfig._FIELDS)
        assert baseline.to_dict() == BASELINE_DOC

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

    @pytest.mark.parametrize("field,value", [
        ("pi", None), ("pi", [0.4]), ("sigma_theta", {"value": 1.0}), ("pi", "0.4"),
        ("x_q", True), ("mu_q", [1.0, "a"]), ("mu_u", [False, 0.0]),
    ], ids=["null", "list", "object", "numeric-string", "bool", "bad-mu-entry", "bool-mu-entry"])
    def test_rejects_a_value_that_is_not_a_number(self, field, value):
        """None, lists and objects escaped as TypeError or ValueError, while
        a numeric string or a bool passed as a number."""
        with pytest.raises(InvalidModelError, match=f"{field} must be a number"):
            ModelConfig.from_dict({**BASELINE_DOC, field: value})

    @pytest.mark.parametrize("name", EXTREME_CONFIGS)
    def test_rejects_derived_quantities_past_float_range(self, name):
        """Finite fields whose beta rounds onto 0 or 1, or whose covariance,
        log likelihood ratio or tau interval leaves float's range, passed
        validation and failed later with a misleading error, a bare
        OverflowError or a RuntimeWarning."""
        with pytest.raises(InvalidModelError, match="too extreme"):
            ModelConfig.from_dict({**BASELINE_DOC, **EXTREME_CONFIGS[name][0]})

    def test_int_past_float_range_is_not_finite(self):
        with pytest.raises(InvalidModelError, match="finite, got rho=inf"):
            ModelConfig.from_dict({**BASELINE_DOC, "rho": 10**400})

    @pytest.mark.parametrize("text,message", [
        (None, "cannot read config"),
        ("{not json", "config parse error"),
        (json.dumps({**BASELINE_DOC, "rho": float("nan")}), "contains NaN"),
        ("[1, 2]", "must be a JSON object"),
        (b"\xff\xfe{}", "is not UTF-8"),
        (json.dumps({**BASELINE_DOC, "pi": None}), "pi must be a number"),
        (HUGE_INT_TEXT, "config parse error .* Exceeds the limit"),
    ], ids=["missing", "malformed", "nan-literal", "not-an-object", "not-utf-8", "null-value",
            "huge-int"])
    def test_from_json_path_raises_invalid_model(self, tmp_path, text, message):
        """A missing file raised FileNotFoundError, malformed JSON
        json.JSONDecodeError, other bytes than UTF-8 UnicodeDecodeError and
        an integer past Python's 4,300-digit conversion limit ValueError,
        none of them a ScreeningError."""
        path = tmp_path / "config.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        with pytest.raises(InvalidModelError, match=message):
            ModelConfig.from_json_path(path)


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
