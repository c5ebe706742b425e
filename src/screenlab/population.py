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
from .model import DomainError, ModelConfig, require_increasing_phi, require_size
from .regret import _accepted_payoff, _losses


# =====================================================================
# Sampling
# =====================================================================

# Applicants drawn, and scored by mc_average_regret, at once: a part's
# normals, bound score terms and temporaries take a few MB, where whole 1e6
# cohorts' raised simulate's peak memory by ~45 MB at sampling and again at
# the MC regret.
_MC_PART = 65_536


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
    normals through the shared Cholesky factor.  The signals are drawn
    ``_MC_PART`` applicants at a time into the returned arrays.
    """
    q, signals = _draw(config, m, seed)
    theta, gamma = np.empty(m), np.empty(m)
    for part, theta_part, gamma_part in signals:
        theta[part], gamma[part] = theta_part, gamma_part
    return Population(q=q, theta=theta, gamma=gamma)


def _draw(config: ModelConfig, m: int, seed: int, *, gamma: bool = True
          ) -> tuple[np.ndarray, Iterator[tuple[slice, np.ndarray, np.ndarray | None]]]:
    """The one sampler: every qualification bit, then the signals by part.

    The stream is one Philox generator keyed by ``seed``: m uniforms for
    the bits, then an (m, 2) block of standard normals.  Both are drawn in
    parts of ``_MC_PART`` rows, which consume the stream as one call would,
    so the bits do not depend on the part size.  Returns q and an iterator
    of (part, theta, gamma) over contiguous parts that draws each part's
    normals as it is advanced; gamma is None without ``gamma``.
    """
    require_size("population size", m, 1)
    if not 0 <= seed < 2**128:  # the range of a Philox key
        raise DomainError(f"seed must lie in [0, 2**128), got {seed}")
    signal = config.signal
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    q = np.empty(m, dtype=np.int8)
    for a in range(0, m, _MC_PART):
        q[a:a + _MC_PART] = rng.random(min(_MC_PART, m - a)) < config.payoffs.pi

    def signals():
        cross_sd = signal.rho * signal.sigma_gamma
        resid_sd = signal.conditional_gamma_sd
        for a in range(0, m, _MC_PART):
            part = slice(a, a + _MC_PART)
            z = rng.standard_normal((min(_MC_PART, m - a), 2))
            theta_noise = signal.sigma_theta * z[:, 0]
            qualified = q[part] == 1
            theta = np.where(qualified, signal.mu_q[0], signal.mu_u[0]) + theta_noise
            if not gamma:
                yield part, theta, None
                continue
            noise = cross_sd * z[:, 0] + resid_sd * z[:, 1]
            yield part, theta, np.where(qualified, signal.mu_q[1], signal.mu_u[1]) + noise

    return q, signals()


def _require_mc_size(m: int) -> None:
    if m < 2:  # the sample standard deviation of one applicant is NaN
        raise DomainError(f"a Monte Carlo standard error needs m >= 2, got {m}")


def _mean_and_se(u: np.ndarray) -> tuple[float, float]:
    """The sample mean of ``u`` and its standard error, the sample standard
    deviation over sqrt(n); ``u`` is overwritten.  These are the bits of
    ``u.mean()`` and ``u.std(ddof=1) / np.sqrt(n)``: numpy's variance takes
    the same steps, in a temporary of u's size that this one does without.
    """
    mean = u.mean()
    u -= mean
    u *= u
    return float(mean), float(np.sqrt(u.sum() / (len(u) - 1)) / np.sqrt(len(u)))


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
    require_size("theta bin count", theta_bins, 1)
    values = np.sort(data.theta)
    # the quantiles of a sorted copy are those of the unsorted one
    edges = np.unique(np.quantile(values, np.linspace(0.0, 1.0, theta_bins + 1)))
    if len(edges) < 2:  # a single distinct theta spans no bin
        return []
    # bin k holds edges[k] <= theta < edges[k+1], the last bin also its upper
    # edge; the edges run from the least theta to the largest

    def per_bin(sorted_thetas: np.ndarray) -> list[int]:
        """Applicants in each bin: the steps between the first positions at
        or past each edge, the top edge's position being the end."""
        at = np.searchsorted(sorted_thetas, edges)
        at[-1] = len(sorted_thetas)
        return np.diff(at).tolist()

    hired = data.accepted
    counts = per_bin(values)
    accepted_counts = per_bin(np.sort(data.theta[hired]))
    qualified_counts = per_bin(np.sort(data.theta[hired & (data.q_label.data == 1)]))
    bins: list[ScoreBin] = []
    for k in range(len(edges) - 1):
        n, n_accepted = counts[k], accepted_counts[k]
        if n == 0:
            continue
        s2_hat = n_accepted / n
        s2_se = float(np.sqrt(s2_hat * (1.0 - s2_hat) / n))
        if n_accepted > 0:
            s1_hat = qualified_counts[k] / n_accepted
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
    curves; the estimate and its standard error, the sample standard
    deviation over sqrt(m), so m >= 2, come from ``_mean_and_se``.  Each
    part of _MC_PART applicants is scored as ``_draw`` gives it, into one
    row of losses per score, so only q and the losses are held for the
    whole cohort; each estimate reduces a whole row, so the parts do not
    change its bits.  Returns one estimate per score, in ``ALGOS`` order.
    """
    _require_mc_size(m)
    q, signals = _draw(config, m, seed, gamma=False)
    losses = np.empty((len(_scores.ALGOS), m))
    for part, theta, _ in signals:
        pay = _accepted_payoff(config.payoffs, q[part])
        for row, s in zip(losses, _scores.score_pair(config, theta, tau)):
            row[part] = _losses(config.payoffs, s, pay)
    return [
        McRegretEstimate(*_mean_and_se(u), algo=algo, tau=float(tau), m=int(m), seed=int(seed))
        for algo, u in zip(_scores.ALGOS, losses)
    ]


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
    phi(Theta) <= beta is a lower tail in theta.  phi's log odds are affine
    in theta, so its breakpoint theta_beta, where phi meets beta, is the
    closed form theta_midpoint + (logit(beta) - logit(pi)) / theta_slope.
    Both alpha values then follow from the class-conditional normal CDFs,
    and the verdict is the strict inequality
    x_u/x_q > (pi/(1-pi) * alpha_q - 1) / (alpha_u + 1).
    """
    require_increasing_phi(config, "classify_environment")
    payoffs = config.payoffs
    signal = config.signal
    beta = config.beta
    log_odds_beta = float(np.log(beta) - np.log1p(-beta))
    theta_beta = signal.theta_midpoint + (
        (log_odds_beta - payoffs.log_odds_prior) / signal.theta_slope
    )
    if not np.isfinite(theta_beta):
        # a subnormal theta_slope (a near-zero theta mean shift) overflows it
        raise DomainError(
            f"the phi = beta breakpoint is not finite ({theta_beta!r}): the theta "
            f"mean shift ({signal.theta_slope:.6g} per unit variance) is too "
            "small to locate it"
        )
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
