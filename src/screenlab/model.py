"""Parameter bundles and Bayesian machinery for the two-stage screening model.

The modeled world: each applicant carries a hidden qualification bit Q
(prior probability ``pi``) and a pair of signals (theta, gamma) drawn from a
class-conditional bivariate Gaussian with a covariance matrix shared across
classes.  A first-stage reviewer observes both signals, forms the posterior
probability of qualification, and accepts whenever the expected payoff,
tilted by a group-specific prejudice penalty tau, is positive.  Hiring a
qualified applicant pays ``x_q``; hiring an unqualified one costs ``x_u``.
A second-stage screen later reuses scores fit on the first stage's
selectively labeled data and accepts when the ex ante payoff clears the
cutoff ``c``.

This module owns the parameter containers, the monotone-likelihood-ratio
certificate that every downstream computation relies on, and the two
posteriors of interest: kappa(theta, gamma), the reviewer's full-information
posterior, and phi(theta), the posterior given the coarse signal alone.

Everything here is pure and immutable; instances can be shared freely
across threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.special import expit


# =====================================================================
# Exceptions
# =====================================================================

class ScreeningError(Exception):
    """Base class for every error raised by this package."""


class InvalidModelError(ScreeningError):
    """A parameter bundle violates a structural requirement."""


class DomainError(ScreeningError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedModelError(ScreeningError):
    """The model is valid but outside the family an operation supports.

    Raised by operations that need the coarse-signal posterior phi to be
    strictly increasing in theta, which for the Gaussian family requires a
    positive theta mean shift.  A negative signal correlation can produce a
    certified model whose theta marginals are uninformative or reversed,
    and silently computing with those would flip every tail probability.
    """


# =====================================================================
# Parameter containers
# =====================================================================

def _require_finite(**fields) -> None:
    """NaN and inf pass every ordering check, so reject them up front."""
    bad = [f"{name}={value!r}" for name, value in fields.items()
           if not np.all(np.isfinite(value))]
    if bad:
        raise InvalidModelError(f"parameters must be finite, got {', '.join(bad)}")


@dataclass(frozen=True)
class PayoffParams:
    """Payoff environment: prior, hire payoffs, and second-stage cutoff.

    ``beta`` is the score level at which the ex ante payoff equals the
    cutoff; it is always recomputed from the other fields, never stored.
    """

    pi: float
    x_q: float
    x_u: float
    c: float

    def __post_init__(self) -> None:
        _require_finite(pi=self.pi, x_q=self.x_q, x_u=self.x_u, c=self.c)
        if not 0.0 < self.pi < 1.0:
            raise InvalidModelError(f"pi must lie in (0, 1), got {self.pi}")
        if self.x_q <= 0.0 or self.x_u <= 0.0:
            raise InvalidModelError(
                f"payoffs must be positive, got x_q={self.x_q}, x_u={self.x_u}"
            )
        if not -self.x_u < self.c < self.x_q:
            raise InvalidModelError(
                f"cutoff c must lie in (-x_u, x_q) = ({-self.x_u}, {self.x_q}), "
                f"got {self.c}"
            )

    @property
    def beta(self) -> float:
        """Critical score: the s with ex ante payoff exactly c."""
        return (self.x_u + self.c) / (self.x_q + self.x_u)

    @property
    def tau_min(self) -> float:
        """Lower endpoint of the open prejudice interval."""
        return -self.x_u

    @property
    def tau_max(self) -> float:
        """Upper endpoint of the open prejudice interval."""
        return self.x_q

    @property
    def log_odds_prior(self) -> float:
        return float(np.log(self.pi) - np.log1p(-self.pi))


@dataclass(frozen=True)
class MlrpCertificate:
    """Outcome of the monotone-likelihood-ratio check.

    For the shared-covariance Gaussian family the log likelihood ratio is
    affine in the signals, log l = intercept + w_theta*theta + w_gamma*gamma
    with weights w = inv(Sigma) @ (mu_q - mu_u).  The ratio is jointly
    strictly increasing exactly when both weights are positive.
    """

    accepted: bool
    w_theta: float
    w_gamma: float
    violating: str | None = None

    def require(self) -> "MlrpCertificate":
        if not self.accepted:
            raise InvalidModelError(
                "likelihood ratio is not jointly increasing: "
                f"non-positive weight on the {self.violating} coordinate "
                f"(w_theta={self.w_theta:.6g}, w_gamma={self.w_gamma:.6g})"
            )
        return self


@dataclass(frozen=True)
class GaussianSignalModel:
    """Class-conditional signal law: bivariate normal, shared covariance.

    ``mu_q`` and ``mu_u`` are the (theta, gamma) means given Q=1 and Q=0.
    The shared covariance is parameterized by the two standard deviations
    and the correlation ``rho``.
    """

    mu_q: tuple[float, float]
    mu_u: tuple[float, float]
    sigma_theta: float
    sigma_gamma: float
    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu_q", (float(self.mu_q[0]), float(self.mu_q[1])))
        object.__setattr__(self, "mu_u", (float(self.mu_u[0]), float(self.mu_u[1])))
        _require_finite(
            mu_q=self.mu_q, mu_u=self.mu_u, sigma_theta=self.sigma_theta,
            sigma_gamma=self.sigma_gamma, rho=self.rho,
        )
        if self.sigma_theta <= 0.0 or self.sigma_gamma <= 0.0:
            raise InvalidModelError(
                "signal standard deviations must be positive, got "
                f"sigma_theta={self.sigma_theta}, sigma_gamma={self.sigma_gamma}"
            )
        if not -1.0 < self.rho < 1.0:
            raise InvalidModelError(
                f"covariance is not positive definite: rho={self.rho} "
                "must lie strictly inside (-1, 1)"
            )

    # -- derived linear-algebra pieces (cheap, recomputed on demand) ----

    @property
    def covariance(self) -> np.ndarray:
        off = self.rho * self.sigma_theta * self.sigma_gamma
        return np.array(
            [[self.sigma_theta**2, off], [off, self.sigma_gamma**2]]
        )

    @property
    def log_ratio_weights(self) -> tuple[float, float]:
        """Affine slopes (w_theta, w_gamma) of the log likelihood ratio."""
        d_theta = self.mu_q[0] - self.mu_u[0]
        d_gamma = self.mu_q[1] - self.mu_u[1]
        one_minus = 1.0 - self.rho**2
        w_theta = (
            d_theta / self.sigma_theta**2
            - self.rho * d_gamma / (self.sigma_theta * self.sigma_gamma)
        ) / one_minus
        w_gamma = (
            d_gamma / self.sigma_gamma**2
            - self.rho * d_theta / (self.sigma_theta * self.sigma_gamma)
        ) / one_minus
        return w_theta, w_gamma

    @property
    def log_ratio_intercept(self) -> float:
        w_theta, w_gamma = self.log_ratio_weights
        mid_theta = 0.5 * (self.mu_q[0] + self.mu_u[0])
        mid_gamma = 0.5 * (self.mu_q[1] + self.mu_u[1])
        return -(w_theta * mid_theta + w_gamma * mid_gamma)

    @property
    def theta_slope(self) -> float:
        """Slope of the theta-marginal log likelihood ratio."""
        return (self.mu_q[0] - self.mu_u[0]) / self.sigma_theta**2

    @property
    def theta_midpoint(self) -> float:
        return 0.5 * (self.mu_q[0] + self.mu_u[0])

    def log_likelihood_ratio(self, theta, gamma) -> np.ndarray:
        """log of the joint density ratio h_q / h_u, affine in the signals."""
        w_theta, w_gamma = self.log_ratio_weights
        theta = np.asarray(theta, dtype=float)
        gamma = np.asarray(gamma, dtype=float)
        return self.log_ratio_intercept + w_theta * theta + w_gamma * gamma

    def theta_log_ratio(self, theta) -> np.ndarray:
        """log of the theta-marginal density ratio f_q / f_u."""
        theta = np.asarray(theta, dtype=float)
        return self.theta_slope * (theta - self.theta_midpoint)

    def conditional_gamma_mean(self, theta, qualified: bool) -> np.ndarray:
        """Mean of gamma given theta within one class."""
        mu = self.mu_q if qualified else self.mu_u
        theta = np.asarray(theta, dtype=float)
        return mu[1] + self.rho * (self.sigma_gamma / self.sigma_theta) * (theta - mu[0])

    @property
    def conditional_gamma_sd(self) -> float:
        """Standard deviation of gamma given theta (class-independent)."""
        return self.sigma_gamma * float(np.sqrt(1.0 - self.rho**2))


@dataclass(frozen=True)
class ModelConfig:
    """Complete world description: payoffs plus a certified signal model.

    Construction fails if the signal model does not carry a strict
    monotone-likelihood-ratio certificate, so any ModelConfig in flight
    can be trusted by the score and threshold machinery.
    """

    payoffs: PayoffParams
    signal: GaussianSignalModel

    def __post_init__(self) -> None:
        validate_mlrp(self.signal).require()

    @property
    def beta(self) -> float:
        return self.payoffs.beta

    # -- serialization (flat JSON document) -----------------------------

    _FIELDS = (
        "pi", "x_q", "x_u", "c",
        "mu_q", "mu_u", "sigma_theta", "sigma_gamma", "rho",
    )

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ModelConfig":
        missing = [k for k in cls._FIELDS if k not in doc]
        if missing:
            raise InvalidModelError(f"config is missing keys: {', '.join(missing)}")
        extra = [k for k in doc if k not in cls._FIELDS]
        if extra:
            raise InvalidModelError(f"config has unknown keys: {', '.join(extra)}")
        for key in ("mu_q", "mu_u"):
            value = doc[key]
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise InvalidModelError(f"{key} must be a [theta, gamma] pair")
        payoffs = PayoffParams(
            pi=float(doc["pi"]), x_q=float(doc["x_q"]),
            x_u=float(doc["x_u"]), c=float(doc["c"]),
        )
        signal = GaussianSignalModel(
            mu_q=(float(doc["mu_q"][0]), float(doc["mu_q"][1])),
            mu_u=(float(doc["mu_u"][0]), float(doc["mu_u"][1])),
            sigma_theta=float(doc["sigma_theta"]),
            sigma_gamma=float(doc["sigma_gamma"]),
            rho=float(doc["rho"]),
        )
        return cls(payoffs=payoffs, signal=signal)

    def to_dict(self) -> dict[str, Any]:
        return {
            "pi": self.payoffs.pi,
            "x_q": self.payoffs.x_q,
            "x_u": self.payoffs.x_u,
            "c": self.payoffs.c,
            "mu_q": list(self.signal.mu_q),
            "mu_u": list(self.signal.mu_u),
            "sigma_theta": self.signal.sigma_theta,
            "sigma_gamma": self.signal.sigma_gamma,
            "rho": self.signal.rho,
        }

    @classmethod
    def from_json_path(cls, path) -> "ModelConfig":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise InvalidModelError("config document must be a JSON object")
        return cls.from_dict(doc)


# =====================================================================
# Operations
# =====================================================================

def validate_mlrp(signal: GaussianSignalModel) -> MlrpCertificate:
    """Check that the joint likelihood ratio is strictly increasing.

    Returns a certificate carrying the affine weights.  The certificate is
    rejected, naming the offending coordinate, when either weight fails to
    be strictly positive.
    """
    cov = signal.covariance
    # The type invariants already force positive definiteness; this guard
    # protects against a hand-built instance that bypassed them.
    if np.linalg.det(cov) <= 0.0 or cov[0, 0] <= 0.0:
        raise InvalidModelError("signal covariance is not positive definite")
    w_theta, w_gamma = signal.log_ratio_weights
    if w_theta <= 0.0:
        return MlrpCertificate(False, w_theta, w_gamma, violating="theta")
    if w_gamma <= 0.0:
        return MlrpCertificate(False, w_theta, w_gamma, violating="gamma")
    return MlrpCertificate(True, w_theta, w_gamma)


def likelihood_ratio(config: ModelConfig, theta, gamma) -> np.ndarray:
    """Joint density ratio h_q/h_u, evaluated in log space then exponentiated."""
    return np.exp(config.signal.log_likelihood_ratio(theta, gamma))


def posterior_kappa(config: ModelConfig, theta, gamma) -> np.ndarray:
    """Reviewer's posterior P(Q=1 | theta, gamma).

    Computed as a logistic transform of prior log odds plus log likelihood
    ratio, which stays accurate when the ratio spans hundreds of orders of
    magnitude.
    """
    return expit(
        config.payoffs.log_odds_prior
        + config.signal.log_likelihood_ratio(theta, gamma)
    )


def marginal_posterior_phi(config: ModelConfig, theta) -> np.ndarray:
    """Posterior P(Q=1 | theta) from the theta marginals alone."""
    return expit(config.payoffs.log_odds_prior + config.signal.theta_log_ratio(theta))


def require_increasing_phi(config: ModelConfig, operation: str) -> None:
    """Guard for operations that need phi strictly increasing in theta.

    The joint certificate orders the joint likelihood ratio but says
    nothing about the theta marginals: with a negative signal correlation
    a certified model can still have a non-positive theta mean shift, and
    then phi is flat or falling, the acceptance region in theta is no
    longer an upper tail, and the classification algebra does not apply.
    """
    if config.signal.theta_slope <= 0.0:
        raise UnsupportedModelError(
            f"{operation} needs the coarse-signal posterior to increase with "
            "theta, but this model's theta marginals have a non-positive "
            f"mean shift ({config.signal.theta_slope:.6g} per unit variance); "
            "the joint certificate does not order the theta marginals"
        )
