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

This module owns the parameter containers and their JSON loader, the
monotone-likelihood-ratio certificate that every downstream computation
relies on, and the two posteriors of interest: kappa(theta, gamma), the
reviewer's full-information posterior, and phi(theta), the posterior given
the coarse signal alone.

Everything here is pure and immutable; instances can be shared freely
across threads.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import astuple, dataclass
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


# Largest size accepted for an array length given from outside: a
# population's (m, 2) normals take 16 bytes an applicant, and past
# intp's maximum in bytes numpy raises a plain ValueError, not MemoryError.
MAX_SIZE = np.iinfo(np.intp).max // 16


def require_size(what: str, n: int, least: int) -> None:
    """DomainError unless least <= n <= MAX_SIZE."""
    if n < least:
        raise DomainError(f"{what} must be at least {least}, got {n}")
    if n > MAX_SIZE:
        raise DomainError(f"{what} {n} is too large to allocate (at most {MAX_SIZE})")


def _as_scalar_or_1d(values, what: str) -> np.ndarray:
    """``values`` as a float array, DomainError unless a scalar or 1-D."""
    array = np.asarray(values, dtype=float)
    if array.ndim > 1:
        raise DomainError(f"{what} must be a scalar or a 1-D array, got shape {array.shape}")
    return array


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

    Derived when the instance is built, never passed in:

    - ``beta``: the critical score, the s whose ex ante payoff is exactly c
    - ``tau_min``, ``tau_max``: the ends of the open prejudice interval
    - ``log_odds_prior``: log(pi / (1 - pi))
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
        beta = (self.x_u + self.c) / (self.x_q + self.x_u)
        # beta rounded onto 0 or 1 takes a log of 0; root loops add and subtract taus
        if not (0.0 < beta < 1.0 and math.isfinite(2.0 * (self.x_q + self.x_u))):
            raise InvalidModelError(f"payoffs too extreme: beta={beta!r} must lie in (0, 1) "
                                    f"and 2 * (x_q + x_u) be finite, got x_q={self.x_q!r}, "
                                    f"x_u={self.x_u!r}")
        derived = {"beta": beta, "tau_min": -self.x_u, "tau_max": self.x_q,
                   "log_odds_prior": float(np.log(self.pi) - np.log1p(-self.pi))}
        for name, value in derived.items():
            object.__setattr__(self, name, value)


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

    Derived when the instance is built:

    - ``log_ratio_weights``, ``log_ratio_intercept``: the affine slopes
      (w_theta, w_gamma) and intercept of the log likelihood ratio
    - ``theta_slope``, ``theta_midpoint``: the theta-marginal log likelihood
      ratio is theta_slope * (theta - theta_midpoint)
    - ``conditional_gamma_sd``: the sd of gamma given theta, the same in
      both classes
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
        d_theta, d_gamma = self.mu_q[0] - self.mu_u[0], self.mu_q[1] - self.mu_u[1]
        mid_theta = 0.5 * (self.mu_q[0] + self.mu_u[0])
        mid_gamma = 0.5 * (self.mu_q[1] + self.mu_u[1])
        one_minus = 1.0 - self.rho**2
        try:  # a sigma squared past float's range, or rounded to 0
            cross = self.sigma_theta * self.sigma_gamma
            w_theta = (d_theta / self.sigma_theta**2 - self.rho * d_gamma / cross) / one_minus
            w_gamma = (d_gamma / self.sigma_gamma**2 - self.rho * d_theta / cross) / one_minus
            derived = {
                "log_ratio_weights": (w_theta, w_gamma),
                "log_ratio_intercept": -(w_theta * mid_theta + w_gamma * mid_gamma),
                "theta_slope": d_theta / self.sigma_theta**2,
                "theta_midpoint": mid_theta,
                "conditional_gamma_sd": self.sigma_gamma * float(np.sqrt(one_minus)),
            }
            finite = all(np.all(np.isfinite(value))
                         for value in (self.covariance, *derived.values()))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise InvalidModelError("signal parameters too extreme: their covariance, log "
                                    "likelihood ratio and theta marginals must be finite")
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def covariance(self) -> np.ndarray:
        """The shared 2x2 covariance, a new array on each read."""
        off = self.rho * self.sigma_theta * self.sigma_gamma
        return np.array(
            [[self.sigma_theta**2, off], [off, self.sigma_gamma**2]]
        )

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
        object.__setattr__(self, "beta", self.payoffs.beta)  # the payoffs' critical score

    # -- serialization (flat JSON document) -----------------------------

    # PayoffParams' fields, then GaussianSignalModel's, each in field order
    _FIELDS = (
        "pi", "x_q", "x_u", "c",
        "mu_q", "mu_u", "sigma_theta", "sigma_gamma", "rho",
    )

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ModelConfig":
        if not isinstance(doc, dict):
            raise InvalidModelError("config document must be a JSON object")
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

        def number(key: str, value) -> float:
            # float() would also take a bool or a numeric string
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise InvalidModelError(f"{key} must be a number, got {value!r}")
            try:
                return float(value)
            except OverflowError:  # an int past float's range fails the finite check
                return math.inf if value > 0 else -math.inf

        fields = [tuple(number(key, v) for v in doc[key]) if key in ("mu_q", "mu_u")
                  else number(key, doc[key]) for key in cls._FIELDS]
        return cls(payoffs=PayoffParams(*fields[:4]), signal=GaussianSignalModel(*fields[4:]))

    def to_dict(self) -> dict[str, Any]:
        values = astuple(self.payoffs) + astuple(self.signal)
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in zip(self._FIELDS, values)}

    @classmethod
    def from_json_path(cls, path) -> "ModelConfig":
        """The config in the JSON file at ``path``; see load_config."""
        return load_config(path)[0]


def load_config(path) -> tuple[ModelConfig, str]:
    """The JSON config at ``path`` and the sha256 of the exact bytes parsed.

    An unreadable file, bytes that are not UTF-8, malformed JSON (an int
    past the digit limit too), a NaN or Infinity literal and a document
    that is not an object raise InvalidModelError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidModelError(f"cannot read config {path!r}: {exc}") from exc

    def reject_constant(name: str):
        raise InvalidModelError(
            f"config {path!r} contains {name}; every value must be finite"
        )

    try:
        doc = json.loads(raw.decode("utf-8"), parse_constant=reject_constant)
    except UnicodeDecodeError as exc:
        raise InvalidModelError(f"config {path!r} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidModelError(
            f"config parse error in {path!r} at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # e.g. an integer past int's digit limit
        raise InvalidModelError(f"config parse error in {path!r}: {exc}") from exc
    return ModelConfig.from_dict(doc), hashlib.sha256(raw).hexdigest()


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
    # The field checks make it positive definite in exact arithmetic, but its
    # determinant can still round to 0: sigmas of 1e-100 give 1e-400.
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
