"""Sampled populations, the replayed first stage, and empirical cross-checks.

This module is the Monte Carlo half of the laboratory.  It samples
applicant populations from the mixture law, replays the first-stage
reviewer to produce the selectively labeled dataset (qualification is
observed only for the accepted), estimates both score curves from that
dataset as a finite-sample cross-check of the analytic forms, estimates
the average regret, and classifies the payoff environment as regular or
irregular.

Randomness comes from a counter-based Philox generator keyed by the run
seed, so results are bit-reproducible across platforms and independent of
how work is partitioned.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import ndtr

from . import scores as _scores
from ._roots import bisect_monotone, bisect_monotone_many
from .model import (
    DomainError,
    ModelConfig,
    marginal_posterior_phi,
    require_increasing_phi,
)
from .regret import _regret_values


# =====================================================================
# Sampling
# =====================================================================

@dataclass(frozen=True)
class Population:
    """Column-wise applicant sample."""

    q: np.ndarray
    theta: np.ndarray
    gamma: np.ndarray

    def __len__(self) -> int:
        return len(self.q)


def sample_population(config: ModelConfig, m: int, seed: int) -> Population:
    """Draw m applicants i.i.d. from the mixture law, deterministically.

    The qualification bit is Bernoulli(pi); the signal pair given the bit
    is the class-conditional bivariate normal, generated from standard
    normals through the shared Cholesky factor.
    """
    if m < 1:
        raise DomainError(f"population size must be at least 1, got {m}")
    signal = config.signal
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    q = (rng.random(m) < config.payoffs.pi).astype(np.int8)
    z = rng.standard_normal((m, 2))
    cross_sd = signal.rho * signal.sigma_gamma
    resid_sd = signal.conditional_gamma_sd
    theta_noise = signal.sigma_theta * z[:, 0]
    gamma_noise = cross_sd * z[:, 0] + resid_sd * z[:, 1]
    qualified = q == 1
    theta = np.where(qualified, signal.mu_q[0], signal.mu_u[0]) + theta_noise
    gamma = np.where(qualified, signal.mu_q[1], signal.mu_u[1]) + gamma_noise
    return Population(q=q, theta=theta, gamma=gamma)


# =====================================================================
# First stage and selective labels
# =====================================================================

@dataclass(frozen=True)
class StageOneRecord:
    """One applicant as the second stage sees them.

    ``q_label`` is None for rejected applicants: the outcome of an
    applicant who was never hired does not exist in the data.  The fine
    signal gamma is deliberately not part of this record.
    """

    theta: float
    accepted: int
    q_label: int | None


@dataclass(frozen=True)
class StageOneData:
    """Column-wise selectively labeled dataset.

    ``q_label`` is a masked array whose mask marks the rejected rows, so
    accidental reads of missing labels surface as masked values instead of
    leaking a sentinel number into an estimate.
    """

    theta: np.ndarray
    accepted: np.ndarray
    q_label: np.ma.MaskedArray

    def __len__(self) -> int:
        return len(self.theta)

    def records(self) -> Iterator[StageOneRecord]:
        for i in range(len(self.theta)):
            accepted = bool(self.accepted[i])
            yield StageOneRecord(
                theta=float(self.theta[i]),
                accepted=int(accepted),
                q_label=int(self.q_label.data[i]) if accepted else None,
            )


def run_stage_one(config: ModelConfig, population: Population, tau: float) -> StageOneData:
    """Replay the reviewer at prejudice tau over a sampled population.

    Acceptance happens when the likelihood ratio clears the reviewer's
    bar, evaluated in log space.
    """
    log_bar = float(_scores.log_acceptance_threshold(config.payoffs, tau))
    log_ratio = config.signal.log_likelihood_ratio(population.theta, population.gamma)
    accepted = log_ratio > log_bar
    q_label = np.ma.MaskedArray(population.q.copy(), mask=~accepted)
    return StageOneData(
        theta=population.theta.copy(), accepted=accepted, q_label=q_label
    )


# =====================================================================
# Empirical score estimates
# =====================================================================

@dataclass(frozen=True)
class ScoreBin:
    """Empirical score estimates inside one theta bin.

    ``s1_hat`` is None when the bin holds no accepted applicants; there is
    nothing to average and no sentinel is invented.  Standard errors are
    the usual binomial ones.
    """

    theta_lo: float
    theta_hi: float
    n: int
    n_accepted: int
    s2_hat: float
    s2_se: float
    s1_hat: float | None
    s1_se: float | None


def empirical_scores(data: StageOneData, theta_bins: int = 50) -> list[ScoreBin]:
    """Binned estimates of both score curves from selectively labeled data.

    Bins are equal-count (quantile) in theta so the tails are not starved.
    Inside a bin, the acceptance rate estimates the acceptance-trained
    score and the qualified fraction among the accepted estimates the
    outcome-trained score.
    """
    if len(data) == 0:
        raise DomainError("cannot bin an empty dataset")
    if isinstance(theta_bins, int):
        if theta_bins < 1:
            raise DomainError(f"need at least one bin, got {theta_bins}")
        edges = np.unique(
            np.quantile(data.theta, np.linspace(0.0, 1.0, theta_bins + 1))
        )
    else:
        edges = np.unique(np.asarray(theta_bins, dtype=float))
        if len(edges) < 2:
            raise DomainError("explicit bin edges must contain at least two values")
    # One pass: bin k holds edges[k] <= theta < edges[k+1], the last bin
    # also its upper edge; thetas outside the edges get index -1 or k_bins.
    k_bins = len(edges) - 1
    index = np.searchsorted(edges, data.theta, side="right") - 1
    index[data.theta == edges[-1]] = k_bins - 1
    inside = (index >= 0) & (index < k_bins)
    hired = inside & data.accepted
    counts = np.bincount(index[inside], minlength=k_bins).tolist()
    accepted_counts = np.bincount(index[hired], minlength=k_bins).tolist()
    qualified_sums = np.bincount(
        index[hired], weights=data.q_label.data[hired], minlength=k_bins
    ).tolist()
    bins: list[ScoreBin] = []
    for k in range(k_bins):
        n, n_accepted = counts[k], accepted_counts[k]
        if n == 0:
            continue
        s2_hat = n_accepted / n
        s2_se = float(np.sqrt(s2_hat * (1.0 - s2_hat) / n))
        if n_accepted > 0:
            s1_hat = qualified_sums[k] / n_accepted
            s1_se = float(np.sqrt(s1_hat * (1.0 - s1_hat) / n_accepted))
        else:
            s1_hat = None
            s1_se = None
        bins.append(ScoreBin(
            theta_lo=float(edges[k]),
            theta_hi=float(edges[k + 1]),
            n=n,
            n_accepted=n_accepted,
            s2_hat=float(s2_hat),
            s2_se=s2_se,
            s1_hat=s1_hat,
            s1_se=s1_se,
        ))
    return bins


# =====================================================================
# Monte Carlo average regret
# =====================================================================

@dataclass(frozen=True)
class McRegretEstimate:
    value: float
    standard_error: float
    algo: str
    tau: float
    m: int
    seed: int


def mc_average_regret(
    config: ModelConfig, tau: float, m: int, seed: int
) -> list[McRegretEstimate]:
    """Sample mean of each score's regret loss over one fresh population.

    The population is drawn independently of any first-stage dataset (a
    second-stage cohort) and shared by both scores, which are the analytic
    curves; the standard error is the sample standard deviation over
    sqrt(m).  Returns one estimate per score, in ``ALGOS`` order.
    """
    population = sample_population(config, m, seed)

    def estimate(algo: str) -> McRegretEstimate:
        # one score's population-sized arrays are freed before the next's
        s = _scores.score(config, algo, population.theta, tau)
        u = _regret_values(config.payoffs, s, population.q)[3]
        return McRegretEstimate(
            value=float(u.mean()),
            standard_error=float(u.std(ddof=1) / np.sqrt(m)),
            algo=algo,
            tau=float(tau),
            m=int(m),
            seed=int(seed),
        )

    return [estimate(algo) for algo in _scores.ALGOS]


# =====================================================================
# Environment classification
# =====================================================================

@dataclass(frozen=True)
class EnvironmentReport:
    """Which side of the regularity inequality the environment falls on.

    ``alpha_q`` and ``alpha_u`` are the class-conditional probabilities
    that the coarse posterior phi(Theta) stays at or below the critical
    score; ``theta_beta`` is the breakpoint where phi meets beta.
    """

    alpha_q: float
    alpha_u: float
    rhs: float
    lhs: float
    classification: str
    theta_beta: float


def classify_environment(config: ModelConfig) -> EnvironmentReport:
    """Classify the environment as regular or irregular.

    phi is strictly increasing in theta (enforced), so the event
    phi(Theta) <= beta is a lower tail in theta with breakpoint theta_beta
    found by bisection on phi - beta.  Both alpha values then follow from
    the class-conditional normal CDFs, and the verdict is the strict
    inequality x_u/x_q > (pi/(1-pi) * alpha_q - 1) / (alpha_u + 1).
    """
    require_increasing_phi(config, "classify_environment")
    payoffs = config.payoffs
    signal = config.signal
    beta = config.beta

    def gap(theta: float) -> float:
        return float(marginal_posterior_phi(config, theta)) - beta

    # The affine log odds give a starting guess; the bracket is widened
    # geometrically from there until it straddles the sign change.
    log_odds_beta = float(np.log(beta) - np.log1p(-beta))
    center = signal.theta_midpoint + (
        (log_odds_beta - payoffs.log_odds_prior) / signal.theta_slope
    )
    half = max(1.0, signal.sigma_theta)
    while gap(center - half) >= 0.0 or gap(center + half) <= 0.0:
        half *= 2.0
        if half > 1e6 * signal.sigma_theta:
            raise DomainError(
                "could not bracket the phi = beta breakpoint; the posterior "
                "is numerically flat at this beta"
            )
    theta_beta = bisect_monotone(gap, center - half, center + half).root
    alpha_q = float(ndtr((theta_beta - signal.mu_q[0]) / signal.sigma_theta))
    alpha_u = float(ndtr((theta_beta - signal.mu_u[0]) / signal.sigma_theta))
    prior_odds = payoffs.pi / (1.0 - payoffs.pi)
    rhs = (prior_odds * alpha_q - 1.0) / (alpha_u + 1.0)
    lhs = payoffs.x_u / payoffs.x_q
    return EnvironmentReport(
        alpha_q=alpha_q,
        alpha_u=alpha_u,
        rhs=rhs,
        lhs=lhs,
        classification="regular" if lhs > rhs else "irregular",
        theta_beta=theta_beta,
    )


# =====================================================================
# Non-atomicity check
# =====================================================================

@dataclass(frozen=True)
class NonatomicReport:
    """Exact-duplicate counts for the per-applicant derived quantities.

    ``duplicates`` maps each quantity to (number of values) minus (number
    of distinct values); zero means no two applicants collided.
    ``defined`` records how many applicants carry each quantity at all,
    since the outcome-trained critical prejudice exists only where
    phi(theta) < beta.
    """

    m: int
    tau: float
    defined: dict[str, int]
    duplicates: dict[str, int]


def verify_nonatomic(
    config: ModelConfig,
    tau: float,
    m: int,
    seed: int,
    *,
    thetas: np.ndarray | None = None,
) -> NonatomicReport:
    """Count exact floating-point collisions among per-applicant values.

    Samples theta from the mixture marginal (or uses the supplied array,
    which lets a degenerate constant sample invert the check), evaluates
    both scores at the given tau and both critical prejudices per
    applicant, and reports duplicate counts.  For a continuous theta law
    every count is expected to be zero.
    """
    if thetas is None:
        population = sample_population(config, m, seed)
        thetas = population.theta
    else:
        thetas = np.asarray(thetas, dtype=float)
        m = len(thetas)
        if m < 1:
            raise DomainError("need at least one theta value")
    payoffs = config.payoffs
    beta = config.beta
    lo, hi = _scores.clamped_tau_interval(payoffs)

    s1 = np.asarray(_scores.score_s1(config, thetas, tau))
    s2 = np.asarray(_scores.score_s2(config, thetas, tau))

    lo_vec = np.full(m, lo)
    hi_vec = np.full(m, hi)
    tau_d2 = bisect_monotone_many(
        lambda t: np.asarray(_scores.score_s2(config, thetas, t)) - beta,
        lo_vec, hi_vec,
    )
    phi = np.asarray(marginal_posterior_phi(config, thetas))
    has_d1 = phi < beta
    sub = thetas[has_d1]
    tau_d1 = bisect_monotone_many(
        lambda t: np.asarray(_scores.score_s1(config, sub, t)) - beta,
        np.full(len(sub), lo), np.full(len(sub), hi),
    ) if len(sub) else np.empty(0)

    def dup(values: np.ndarray) -> int:
        return int(len(values) - len(np.unique(values)))

    return NonatomicReport(
        m=int(m),
        tau=float(tau),
        defined={
            "s1": m, "s2": m, "tau_d1": int(has_d1.sum()), "tau_d2": m,
        },
        duplicates={
            "s1": dup(s1), "s2": dup(s2),
            "tau_d1": dup(tau_d1), "tau_d2": dup(tau_d2),
        },
    )
