"""Analytic score curves for the second-stage screen.

After the first-stage reviewer has produced a selectively labeled dataset,
two score functions of the coarse signal theta are of interest:

* ``s2(theta, tau)``: the probability the reviewer accepts, i.e. the curve
  a model trained on accept/reject labels would learn.  It inherits the
  reviewer's prejudice and falls as tau rises.
* ``s1(theta, tau)``: the probability of qualification among the accepted,
  i.e. the curve a model trained on realized outcomes would learn.  Raising
  tau tightens the acceptance bar, so survivors are more selected and s1
  rises.

Both have closed forms for the shared-covariance Gaussian family.  The
reviewer accepts exactly when the likelihood ratio clears a threshold
T(tau), which by the affine log-ratio translates into a cutoff gamma1 on
the fine signal.  Conditioning on theta leaves gamma normal within each
class, so the two class-conditional survival probabilities, and with them
s1 and s2, come straight from the normal survival function.

Evaluation is restricted to a clamped prejudice interval
[-x_u + eps, x_q - eps] with eps = 1e-6 * (x_q + x_u): at the open
interval's endpoints gamma1 diverges and the scores are defined only as
limits.  Near the upper endpoint both survival probabilities underflow;
s1 is therefore computed from the difference of log survival functions
(scipy's log_ndtr, which switches to the asymptotic tail expansion), so
the ratio stays finite and tends to 1 as it should.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_ndtr, ndtr

from .model import DomainError, ModelConfig, PayoffParams, marginal_posterior_phi

# Fraction of the interval length trimmed off each end of the open
# prejudice interval before any grid evaluation.
TAU_CLAMP_SCALE = 1e-6

# s1's log survival difference, of two ~-z**2/2 terms, rounds off by ~eps*z**2/2
# in the log odds (NaN past z ~ 1.3e154); cutoffs over S1_MAX_Z sds above both
# classes' means, where that exceeds S1_LOG_ODDS_TOL, are rejected.
S1_LOG_ODDS_TOL = 1e-3
S1_MAX_Z = math.sqrt(2.0 * S1_LOG_ODDS_TOL / np.finfo(float).eps)  # ~3e6

# The two scores, by the name every curve, table and estimate carries.
ALGOS = ("s1", "s2")


@dataclass(frozen=True)
class ScorePoint:
    """Both scores at one (theta, tau) cell, with their building blocks.

    ``surv_q`` and ``surv_u`` are the class-conditional probabilities that
    the fine signal clears the acceptance cutoff gamma1; ``phi`` is the
    qualification posterior given theta alone.
    """

    theta: float
    tau: float
    s1: float
    s2: float
    gamma1: float
    phi: float
    surv_q: float
    surv_u: float


def clamped_tau_interval(payoffs: PayoffParams) -> tuple[float, float]:
    """The evaluation interval for tau, trimmed clear of both endpoints."""
    eps = TAU_CLAMP_SCALE * (payoffs.x_q + payoffs.x_u)
    return payoffs.tau_min + eps, payoffs.tau_max - eps


def _require_open_interval(payoffs: PayoffParams, tau: np.ndarray) -> None:
    # min/max cost half of an elementwise mask on scalars; NaN fails both
    if tau.size and not (payoffs.tau_min < tau.min() and tau.max() < payoffs.tau_max):
        inside = (tau > payoffs.tau_min) & (tau < payoffs.tau_max)
        bad = tau[~inside].flat[0]
        raise DomainError(
            f"tau={bad!r} outside the open prejudice interval "
            f"({payoffs.tau_min}, {payoffs.tau_max})"
        )


def acceptance_threshold_T(payoffs: PayoffParams, tau) -> np.ndarray:
    """Likelihood-ratio bar the reviewer applies at prejudice tau.

    Strictly increasing in tau, vanishing at the lower endpoint and
    diverging at the upper one: more prejudice means a higher bar.
    """
    tau = np.asarray(tau, dtype=float)
    _require_open_interval(payoffs, tau)
    return ((1.0 - payoffs.pi) * (payoffs.x_u + tau)) / (
        payoffs.pi * (payoffs.x_q - tau)
    )


def log_acceptance_threshold(payoffs: PayoffParams, tau) -> np.ndarray:
    """log T(tau), assembled term by term so the endpoints do not overflow."""
    tau = np.asarray(tau, dtype=float)
    _require_open_interval(payoffs, tau)
    return (
        np.log1p(-payoffs.pi)
        - np.log(payoffs.pi)
        + np.log(payoffs.x_u + tau)
        - np.log(payoffs.x_q - tau)
    )


def gamma1(config: ModelConfig, theta, tau) -> np.ndarray:
    """Fine-signal cutoff: acceptance happens exactly when gamma > gamma1.

    Closed form from the affine log likelihood ratio; strictly increasing
    in tau and strictly decreasing in theta.  A NaN or infinite theta, or a
    finite one so extreme that the cutoff overflows, raises DomainError.
    """
    theta = np.asarray(theta, dtype=float)
    w_theta, w_gamma = config.signal.log_ratio_weights
    log_t = log_acceptance_threshold(config.payoffs, tau)
    cutoff = (log_t - config.signal.log_ratio_intercept - w_theta * theta) / w_gamma
    # the bisections call this with scalars, where math.isfinite costs a
    # fraction of an array reduction
    if not (math.isfinite(cutoff) if cutoff.ndim == 0 else np.isfinite(cutoff).all()):
        bad = float(np.broadcast_to(theta, cutoff.shape)[~np.isfinite(cutoff)].flat[0])
        raise DomainError(f"theta={bad!r} is NaN, infinite or too extreme: cutoff not finite")
    return cutoff


def _standardized_cutoffs(config: ModelConfig, theta, cutoff):
    """z-scores of the gamma cutoff under each class's conditional law."""
    sd = config.signal.conditional_gamma_sd
    z_q = (cutoff - config.signal.conditional_gamma_mean(theta, qualified=True)) / sd
    z_u = (cutoff - config.signal.conditional_gamma_mean(theta, qualified=False)) / sd
    return z_q, z_u


def score_s2(config: ModelConfig, theta, tau) -> np.ndarray:
    """Acceptance probability given theta: the accept/reject-trained score.

    Mixture of the two class-conditional survival probabilities weighted
    by the qualification posterior phi(theta).
    """
    theta = np.asarray(theta, dtype=float)
    cutoff = gamma1(config, theta, tau)
    z_q, z_u = _standardized_cutoffs(config, theta, cutoff)
    phi = marginal_posterior_phi(config, theta)
    return phi * ndtr(-z_q) + (1.0 - phi) * ndtr(-z_u)


def score_s1(config: ModelConfig, theta, tau) -> np.ndarray:
    """Qualification probability among the accepted: the outcome-trained score.

    Evaluated as a logistic transform of the theta log odds plus the log
    survival difference, which is exact algebra on the mixture form and
    remains finite when both survivals underflow.  A cutoff past S1_MAX_Z
    sds in both classes, where it has lost its digits, raises DomainError.
    """
    theta = np.asarray(theta, dtype=float)
    cutoff = gamma1(config, theta, tau)
    z_q, z_u = _standardized_cutoffs(config, theta, cutoff)
    beyond = (z_q > S1_MAX_Z) & (z_u > S1_MAX_Z)
    # a scalar bool is tested directly: ndarray.any costs ~2 us per call
    if beyond if beyond.ndim == 0 else beyond.any():
        bad = float(np.broadcast_to(theta, beyond.shape)[beyond].flat[0])
        raise DomainError(
            f"theta={bad!r} puts the acceptance cutoff over {S1_MAX_Z:.3g} sds above "
            f"both classes' means, where s1's log odds round off by over {S1_LOG_ODDS_TOL:g}"
        )
    log_odds_theta = (
        config.payoffs.log_odds_prior + config.signal.theta_log_ratio(theta)
    )
    return expit(log_odds_theta + log_ndtr(-z_q) - log_ndtr(-z_u))


def score(config: ModelConfig, algo: str, theta, tau) -> np.ndarray:
    """The score named ``algo``, "s1" or "s2", at (theta, tau)."""
    if algo not in ALGOS:
        raise DomainError(f"algo must be one of {ALGOS}, got {algo!r}")
    # looked up at call time, so a rebound score_s1/score_s2 is the one called
    fn = score_s1 if algo == "s1" else score_s2
    return fn(config, theta, tau)


def score_table(config: ModelConfig, theta: float, tau) -> list[np.ndarray]:
    """Every ScorePoint field along a tau array at one theta, in field order.

    theta and phi do not depend on tau and are repeated down their columns.
    """
    tau = np.asarray(tau, dtype=float)
    k = len(tau)
    cutoff = gamma1(config, theta, tau)
    z_q, z_u = _standardized_cutoffs(config, theta, cutoff)
    return [
        np.full(k, theta),
        tau,
        score_s1(config, theta, tau),
        score_s2(config, theta, tau),
        cutoff,
        np.full(k, float(marginal_posterior_phi(config, theta))),
        ndtr(-z_q),
        ndtr(-z_u),
    ]


def score_point(config: ModelConfig, theta: float, tau: float) -> ScorePoint:
    """Evaluate everything at a single (theta, tau) cell."""
    columns = score_table(config, float(theta), [float(tau)])
    return ScorePoint(*(float(column[0]) for column in columns))
