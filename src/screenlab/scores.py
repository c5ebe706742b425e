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
limits.  s1 is the qualified share phi * S_q / s2 while the numerator is
not tiny.  Near the upper endpoint both survivals underflow; there s1 comes
from the difference of log survival functions (scipy's log_ndtr, which
switches to the asymptotic tail expansion), so it stays finite and tends to 1.

Every score evaluation goes through one evaluator, ``_Scores``.  It binds
its thetas' tau-free terms once, when it is built, and then prices any tau
with one cutoff, one pair of z-scores and their two survivals.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import expit, log_ndtr, ndtr

from .model import DomainError, ModelConfig, PayoffParams, marginal_posterior_phi

# Fraction of the interval length trimmed off each end of the open
# prejudice interval before any grid evaluation.
TAU_CLAMP_SCALE = 1e-6

# s1 = phi * S_q / s2 where that numerator is at least S1_RATIO_MIN, as what ndtr
# loses below the smallest normal float (0 past z ~ 37.7) is there under eps of s2.
# Elsewhere s1 takes the log route: two ~-z**2/2 log survivals, whose difference
# rounds off by ~eps*z**2/2 in the log odds (NaN past z ~ 1.3e154); cutoffs over
# S1_MAX_Z sds above both means, where that exceeds S1_LOG_ODDS_TOL, are rejected.
S1_RATIO_MIN = np.finfo(float).tiny / np.finfo(float).eps  # 2**-970, ~1e-292
S1_LOG_ODDS_TOL = 1e-3
S1_MAX_Z = math.sqrt(2.0 * S1_LOG_ODDS_TOL / np.finfo(float).eps)  # ~3e6

# The two scores, by the name every curve, table and estimate carries.
ALGOS = ("s1", "s2")


def clamped_tau_interval(payoffs: PayoffParams) -> tuple[float, float]:
    """The evaluation interval for tau, trimmed clear of both endpoints."""
    eps = TAU_CLAMP_SCALE * (payoffs.x_q + payoffs.x_u)
    return payoffs.tau_min + eps, payoffs.tau_max - eps


def _require_open_interval(payoffs: PayoffParams, tau: np.ndarray) -> None:
    # min/max cost half of an elementwise mask on scalars; NaN fails both
    if tau.size and not (payoffs.tau_min < tau.min() and tau.max() < payoffs.tau_max):
        inside = (tau > payoffs.tau_min) & (tau < payoffs.tau_max)
        bad = float(tau[~inside].flat[0])
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
    """log T(tau), assembled term by term so the endpoints do not overflow:
    minus the stored prior log odds, plus log(x_u + tau), minus log(x_q - tau)."""
    tau = np.asarray(tau, dtype=float)
    _require_open_interval(payoffs, tau)
    return -payoffs.log_odds_prior + np.log(payoffs.x_u + tau) - np.log(payoffs.x_q - tau)


def gamma1(config: ModelConfig, theta, tau) -> np.ndarray:
    """Fine-signal cutoff: acceptance happens exactly when gamma > gamma1.

    Closed form from the affine log likelihood ratio; strictly increasing
    in tau and strictly decreasing in theta.  A NaN or infinite theta, or a
    finite one so extreme that the cutoff overflows, raises DomainError.
    """
    with np.errstate(over="ignore"):
        return _Scores(config, theta).cutoff(log_acceptance_threshold(config.payoffs, tau))


class _Scores:
    """The scores at fixed thetas, at any number of taus; every score
    formula lives here.

    The terms that do not depend on tau (w_theta * theta, both conditional
    gamma means and phi) are computed once, when the thetas are bound, so
    each tau costs one cutoff, one pair of z-scores and two survivals
    outside s1's tail.  ``score_pair`` and the other public score functions
    bind their thetas for one tau (or tau array); a Monte Carlo pass binds
    a population once for every tau of its root.

    A NaN or infinite theta may make a term NaN (0 * inf where rho = 0) or
    overflow while it is bound; the first evaluation's cutoff check raises
    DomainError.  Each evaluation runs under ``np.errstate(over="ignore")``:
    an extreme theta may overflow on the way, which either ends in the
    cutoff's DomainError or gives an infinite z-score or log odds, whose
    ndtr and expit limits are exact.
    """

    __slots__ = ("config", "theta", "w_theta_theta", "mean_q", "mean_u", "phi")

    def __init__(self, config: ModelConfig, theta):
        self.config = config
        self.theta = np.asarray(theta, dtype=float)
        signal = config.signal
        with np.errstate(over="ignore", invalid="ignore"):
            self.w_theta_theta = signal.log_ratio_weights[0] * self.theta
            self.mean_q = signal.conditional_gamma_mean(self.theta, True)
            self.mean_u = signal.conditional_gamma_mean(self.theta, False)
            self.phi = marginal_posterior_phi(config, self.theta)

    def cutoff(self, log_t) -> np.ndarray:
        """gamma1 where log T(tau) is ``log_t``, checked finite."""
        signal = self.config.signal
        w_gamma = signal.log_ratio_weights[1]
        cutoff = (log_t - signal.log_ratio_intercept - self.w_theta_theta) / w_gamma
        # the bisections call this with scalars, where math.isfinite costs a
        # fraction of an array reduction
        if not (math.isfinite(cutoff) if cutoff.ndim == 0 else np.isfinite(cutoff).all()):
            bad = float(np.broadcast_to(self.theta, cutoff.shape)[~np.isfinite(cutoff)].flat[0])
            raise DomainError(f"theta={bad!r} is NaN, infinite or too extreme: cutoff not finite")
        return cutoff

    def z_scores(self, cutoff):
        """z-scores of the gamma cutoff under each class's conditional law."""
        sd = self.config.signal.conditional_gamma_sd
        return (cutoff - self.mean_q) / sd, (cutoff - self.mean_u) / sd

    def __call__(self, tau) -> tuple:
        """(s1, s2) at tau; both share one cutoff and one pair of z-scores."""
        return self.at_log_t(log_acceptance_threshold(self.config.payoffs, tau))

    def at_log_t(self, log_t) -> tuple:
        """(s1, s2) where log T(tau) is ``log_t``.  It calls no public
        function, so it may run off the thread that computed ``log_t``."""
        with np.errstate(over="ignore"):
            return self.at_z(*self.z_scores(self.cutoff(log_t)))[:2]

    def at_z(self, z_q, z_u) -> tuple:
        """(s1, s2, S_q, S_u) at a cutoff's z-scores, S = ndtr(-z); s1 = phi S_q / s2 down to
        S1_RATIO_MIN, and the log route expit(log odds + log S_q - log S_u) below it,
        whose theta log odds, logit phi(theta), are computed for those elements alone."""
        beyond = (z_q > S1_MAX_Z) & (z_u > S1_MAX_Z)
        # a scalar bool is tested directly: ndarray.any costs ~2 us per call
        if beyond if beyond.ndim == 0 else beyond.any():
            bad = float(np.broadcast_to(self.theta, beyond.shape)[beyond].flat[0])
            raise DomainError(
                f"theta={bad!r} puts the acceptance cutoff over {S1_MAX_Z:.3g} sds above "
                f"both classes' means, where s1's log odds round off by over {S1_LOG_ODDS_TOL:g}"
            )
        surv_q, surv_u = ndtr(-z_q), ndtr(-z_u)
        mass_q = self.phi * surv_q
        s2 = mass_q + (1.0 - self.phi) * surv_u
        tail = mass_q < S1_RATIO_MIN
        if not (tail if tail.ndim == 0 else tail.any()):
            mass_q /= s2  # in place, so a pass holds one array fewer
            return mass_q, s2, surv_q, surv_u
        s1 = np.divide(mass_q, s2, out=np.zeros(tail.shape), where=~tail)
        theta = np.broadcast_to(self.theta, tail.shape)[tail]
        log_odds = self.config.payoffs.log_odds_prior + self.config.signal.theta_log_ratio(theta)
        s1[tail] = expit(log_odds + log_ndtr(-z_q[tail]) - log_ndtr(-z_u[tail]))
        return s1[()], s2, surv_q, surv_u


def score_s2(config: ModelConfig, theta, tau) -> np.ndarray:
    """Acceptance probability given theta: the accept/reject-trained score.

    Mixture of the two class-conditional survival probabilities weighted
    by phi(theta).  Computed with s1, it raises s1's DomainError too.
    """
    return _Scores(config, theta)(tau)[1]


def score_s1(config: ModelConfig, theta, tau) -> np.ndarray:
    """Qualification probability among the accepted: the outcome-trained score.

    The qualified share phi * S_q / s2 of the acceptance probability, or its
    log-space form where the numerator underflows.  A cutoff past S1_MAX_Z
    sds in both classes, where the log form has lost its digits, raises
    DomainError.
    """
    return _Scores(config, theta)(tau)[0]


def score_pair(config: ModelConfig, theta, tau) -> tuple[np.ndarray, np.ndarray]:
    """(s1, s2) at (theta, tau) from one cutoff and one pair of z-scores."""
    return _Scores(config, theta)(tau)


def score_table(config: ModelConfig, theta, tau) -> list[np.ndarray]:
    """The scores.csv columns of the (theta x tau) table, theta by theta
    and along tau within each: theta, tau, s1, s2, gamma1, phi, surv_q and
    surv_u (the class-conditional probabilities that gamma clears gamma1).
    theta is a scalar or a 1-D array; all columns share one binding of the
    thetas (phi is its bound term), one cutoff and its survivals.
    """
    scores = _Scores(config, np.reshape(theta, (-1, 1)))
    with np.errstate(over="ignore"):
        cutoff = scores.cutoff(log_acceptance_threshold(config.payoffs, tau))
        s1, s2, surv_q, surv_u = scores.at_z(*scores.z_scores(cutoff))
        table = np.broadcast_arrays(scores.theta, np.asarray(tau, dtype=float),
                                    s1, s2, cutoff, scores.phi, surv_q, surv_u)
    return [column.ravel() for column in table]
