"""Ex ante payoff, the second-stage rule, and the regret loss it generates.

The second-stage screen prices an applicant with score s at the ex ante
payoff N(s) = s*x_q - (1-s)*x_u and accepts when N(s) strictly exceeds the
cutoff c, equivalently when s strictly exceeds the critical score beta.
Once the qualification bit q is realized the position pays the ex post
amount, and the regret loss u is the gap between expectation and outcome:

    rejected:              u = N(s)
    accepted, qualified:   u = N(s) - x_q
    accepted, unqualified: u = N(s) + x_u

Holding an applicant fixed and sweeping the prejudice tau, the regret from
each score curve is continuous except for a single jump where the score
crosses beta (the score's critical prejudice): height x_q for a qualified
applicant and x_u for an unqualified one.  ``regret_curve`` tabulates both
curves of one bit for a theta or a 1-D array of thetas at once, s1 and s2
on one axis in ``ALGOS`` order.

``expected_regret`` averages u = N(s) - p over the applicant population at
each tau of a grid, for s1 and s2 together.  N is affine in s, so E[N(s2)]
is N of the reviewer's acceptance rate, in closed form.  N(s1) is smooth in
theta and is integrated by an adaptive Gauss-Legendre panel scheme: every
tau's initial panels come from one evaluation of s1, and only a tau whose
error estimate misses the tolerance refines its own panels, one at a time.
Each score rises in theta, so the applicants accepted are those above one
breakpoint, one root search per score for a whole grid, and the mean of p is
the class tail masses above it, in closed form.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import scores as _scores
from ._roots import bisect_monotone_many
from .model import (
    DomainError,
    ModelConfig,
    PayoffParams,
    ScreeningError,
    _as_scalar_or_1d,
    require_increasing_phi,
)


class QuadratureError(ScreeningError):
    """Adaptive integration missed QUAD_TOL within MAX_PANELS panels."""


# =====================================================================
# Individual regret
# =====================================================================

@dataclass(frozen=True)
class RegretRecord:
    """One applicant's regret bookkeeping under one score."""

    q: int
    score: float
    n_ex_ante: float
    accepted: int
    p_ex_post: float
    u: float


def _require_unit_score(s: np.ndarray) -> None:
    inside = (s >= 0.0) & (s <= 1.0)
    if not np.all(inside):
        raise DomainError(f"score {float(s[~inside].flat[0])!r} outside [0, 1]")


def _ex_ante(payoffs: PayoffParams, s):
    """N(s) without domain checks."""
    return s * payoffs.x_q - (1.0 - s) * payoffs.x_u


def ex_ante_payoff(payoffs: PayoffParams, s) -> np.ndarray:
    """Expected payoff of accepting an applicant scored s.

    Affine and strictly increasing in s, with value exactly c at the
    critical score beta.
    """
    s = np.asarray(s, dtype=float)
    _require_unit_score(s)
    return _ex_ante(payoffs, s)


def _regret_values(payoffs: PayoffParams, s, q):
    """Vectorized (n, accepted, p, u) without domain checks."""
    s = np.asarray(s, dtype=float)
    n = _ex_ante(payoffs, s)
    accepted = n > payoffs.c
    p = np.where(accepted, _accepted_payoff(payoffs, q), 0.0)
    return n, accepted, p, n - p


def _accepted_payoff(payoffs: PayoffParams, q) -> np.ndarray:
    """The ex post payoff of accepting each applicant: x_q, or -x_u if unqualified."""
    return np.where(np.asarray(q) == 1, payoffs.x_q, -payoffs.x_u)


def _losses(payoffs: PayoffParams, s: np.ndarray, pay: np.ndarray) -> np.ndarray:
    """The u of ``_regret_values`` over a score array, given ``_accepted_payoff``.

    A product with the acceptance mask stands in for the second ``np.where``,
    which costs ten times as much on a population's random mask; its -0.0
    for a rejected unqualified applicant leaves u alone, as N(s) of a score
    in [0, 1] is never -0.0."""
    n = _ex_ante(payoffs, s)
    n -= (n > payoffs.c) * pay
    return n


def individual_regret(payoffs: PayoffParams, s: float, q: int) -> RegretRecord:
    """Full regret record for one applicant.

    The acceptance rule is strict: a score landing exactly on beta is
    rejected, matching the infimum convention used for the critical
    prejudices.
    """
    if q not in (0, 1):
        raise DomainError(f"qualification bit must be 0 or 1, got {q!r}")
    s = np.asarray(s, dtype=float)
    _require_unit_score(s)
    n, accepted, p, u = _regret_values(payoffs, s, q)
    return RegretRecord(
        q=int(q),
        score=float(s),
        n_ex_ante=float(n),
        accepted=int(accepted),
        p_ex_post=float(p),
        u=float(u),
    )


# =====================================================================
# Regret curves along the prejudice axis
# =====================================================================

@dataclass(frozen=True)
class JumpAnnotation:
    """Location and signed height of a regret curve's single jump."""

    algo: str
    tau_d: float
    height: float


@dataclass(frozen=True)
class RegretCurves:
    """Regret of both scores along a tau grid, for one q and each theta.

    ``score``, ``n_ex_ante``, ``accepted``, ``p_ex_post`` and ``u`` hold
    the scores on an ``ALGOS`` axis ahead of tau: shape (2, k) for a scalar
    theta and (n, 2, k) for n thetas.  ``jumps`` is the lone theta's tuple
    of annotations, or one such tuple per theta.
    """

    theta: float | np.ndarray
    q: int
    tau: np.ndarray
    score: np.ndarray
    n_ex_ante: np.ndarray
    accepted: np.ndarray
    p_ex_post: np.ndarray
    u: np.ndarray
    jumps: tuple


def regret_curve(config: ModelConfig, theta, q, tau_grid, critical) -> RegretCurves:
    """Evaluate u(s1(tau)) and u(s2(tau)) along a grid, annotating jumps.

    ``theta`` is a scalar or a 1-D array, and every theta's curves come
    from one evaluation of both scores.  The grid must stay inside the open
    prejudice interval.  ``critical`` is (tau_d1, tau_d2) as
    find_critical_prejudices returns it for ``theta``, where the curves
    jump; a tau_d1 of None (phi(theta) >= beta) leaves that theta's s1
    curve continuous throughout.
    """
    if q not in (0, 1):
        raise DomainError(f"qualification bit must be 0 or 1, got {q!r}")
    thetas = _as_scalar_or_1d(theta, "theta")
    tau = np.sort(np.asarray(tau_grid, dtype=float).ravel())
    payoffs = config.payoffs
    score = np.stack(_scores.score_pair(config, thetas[..., None], tau), axis=-2)
    n, accepted, p, u = _regret_values(payoffs, score, q)
    pay = float(_accepted_payoff(payoffs, q))

    def annotate(tau_d1, tau_d2) -> tuple[JumpAnnotation, ...]:
        s1 = () if tau_d1 is None else (JumpAnnotation(algo="s1", tau_d=tau_d1, height=-pay),)
        return (*s1, JumpAnnotation(algo="s2", tau_d=tau_d2, height=pay))

    return RegretCurves(
        theta=float(thetas) if thetas.ndim == 0 else thetas,
        q=int(q),
        tau=tau,
        score=score,
        n_ex_ante=n,
        accepted=accepted.astype(int),
        p_ex_post=p,
        u=u,
        jumps=tuple(map(annotate, *critical)) if thetas.ndim else annotate(*critical),
    )


# =====================================================================
# Population expectation of the regret loss
# =====================================================================

_NODES_COARSE = np.polynomial.legendre.leggauss(20)
_NODES_FINE = np.polynomial.legendre.leggauss(40)
_NODES_BOTH = np.concatenate([_NODES_COARSE[0], _NODES_FINE[0]])

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Largest summed panel error estimate expected_regret accepts per tau, and
# the most panels one tau may split its theta range into before it raises.
QUAD_TOL = 1e-8
MAX_PANELS = 200


def _normal_pdf(x, mean: float, sd: float) -> np.ndarray:
    z = (np.asarray(x, dtype=float) - mean) / sd
    return np.exp(-0.5 * z * z) * (_INV_SQRT_2PI / sd)


def _estimates(f, a: np.ndarray, b: np.ndarray, tau: np.ndarray):
    """(fine, error) estimates of f(theta, tau)'s integral over each panel
    [a, b], from one evaluation of f at both node sets: shape tau.shape + a.shape."""
    half = 0.5 * (b - a)
    values = f(0.5 * (a + b)[:, None] + half[:, None] * _NODES_BOTH, tau[..., None, None])
    coarse = half * (values[..., :20] @ _NODES_COARSE[1])
    fine = half * (values[..., 20:] @ _NODES_FINE[1])
    return fine, abs(fine - coarse)


def _refine(f, tau: float, panels) -> float:
    """Adaptive Gauss-Legendre integral of f at one tau from (-error, left,
    right, value) panels covering the range: the worst panel on a heap is
    halved until the error estimates sum below QUAD_TOL."""
    heap = []
    while True:
        for item in panels:
            heapq.heappush(heap, item)
        total_err = -sum(item[0] for item in heap)
        if total_err < QUAD_TOL:
            return sum(item[3] for item in heap)
        if len(heap) >= MAX_PANELS:
            neg_err, left, right, _ = heap[0]
            raise QuadratureError(
                f"integration stalled at estimated error {total_err:.3e} "
                f"(tolerance {QUAD_TOL:.3e}) with {len(heap)} panels; "
                f"worst panel [{left!r}, {right!r}] contributes {-neg_err:.3e}"
            )
        _, left, right, _ = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        fine, err = _estimates(f, np.array([left, mid]), np.array([mid, right]), np.asarray(tau))
        panels = zip((-err).tolist(), (left, mid), (mid, right), fine.tolist())


def _integrate(f, lo: float, hi: float, taus: np.ndarray) -> np.ndarray:
    """The integral of f(theta, tau) over [lo, hi] at each tau of a 1-D array:
    8 panels for every tau from one evaluation of f, summed in panel order,
    and a heap of them for a tau whose summed error misses QUAD_TOL."""
    edges = np.linspace(lo, hi, 9)
    a, b = edges[:-1], edges[1:]
    fine, err = _estimates(f, a, b, taus)
    integrals = sum(fine.T)
    for i in np.flatnonzero(~(sum(err.T) < QUAD_TOL)):
        panels = zip((-err[i]).tolist(), a.tolist(), b.tolist(), fine[i].tolist())
        integrals[i] = _refine(f, taus[i], panels)
    return integrals


def expected_regret(config: ModelConfig, tau):
    """(E[u(s1)], E[u(s2)]), the population means of the regret loss, at each tau.

    ``tau`` is a scalar, giving two floats, or a 1-D array, giving two arrays.
    E[N(s1)] is one adaptive quadrature over the class means +/- 10 sds of
    theta.  E[N(s2)] is N of the acceptance rate: the log likelihood ratio
    w.(theta, gamma) + b is normal within each class, and the reviewer
    accepts above log T(tau).  The realized payoff p is x_q for an accepted
    qualified applicant and -x_u for an accepted unqualified one, and
    acceptance means theta above the score's breakpoint, so
    E[p] = x_q*pi*P_q(accepted) - x_u*(1-pi)*P_u(accepted), with each class's
    mass between the breakpoint and the range's top.
    """
    require_increasing_phi(config, "expected_regret")
    taus = _as_scalar_or_1d(tau, "tau")
    payoffs, signal = config.payoffs, config.signal
    pi, beta = payoffs.pi, payoffs.beta
    sd = signal.sigma_theta
    mu_q, mu_u = signal.mu_q[0], signal.mu_u[0]
    lo, hi = min(mu_q, mu_u) - 10.0 * sd, max(mu_q, mu_u) + 10.0 * sd

    def s1_payoff(theta, tau) -> np.ndarray:
        mixture = pi * _normal_pdf(theta, mu_q, sd) + (1.0 - pi) * _normal_pdf(theta, mu_u, sd)
        return _ex_ante(payoffs, _scores.score_pair(config, theta, tau)[0]) * mixture

    w = np.array(signal.log_ratio_weights)
    log_t = _scores.log_acceptance_threshold(payoffs, taus)
    d_q, d_u = ((w @ mu + signal.log_ratio_intercept - log_t) / np.sqrt(w @ signal.covariance @ w)
                for mu in (signal.mu_q, signal.mu_u))
    n_ex_ante = (_integrate(s1_payoff, lo, hi, taus.reshape(-1)).reshape(taus.shape),
                 _ex_ante(payoffs, pi * ndtr(d_q) + (1.0 - pi) * ndtr(d_u)))
    ends = zip(_scores.score_pair(config, lo, taus), _scores.score_pair(config, hi, taus))
    results = []
    for k, (s_lo, s_hi) in enumerate(ends):
        # the rule accepts above one breakpoint: lo when it accepts everyone,
        # hi when no one, else the root of s - beta, all taus in one batch;
        # a lone tau stays 0-d, on numpy's scalar paths (as a (1,) batch it
        # doubles the time of each gap value in find_tau_bar's Brent search)
        gap_lo, gap_hi = s_lo - beta, s_hi - beta
        breakpoints = np.where(gap_lo > 0.0, lo, hi)
        split = ~(gap_lo > 0.0) & ~(gap_hi <= 0.0)
        if split.any():
            inner = taus[split] if taus.ndim else taus
            breakpoints[split] = bisect_monotone_many(
                lambda theta: _scores.score_pair(config, theta, inner)[k] - beta,
                np.full_like(inner, lo), np.full_like(inner, hi),
            ).root
        mass_q, mass_u = (ndtr((hi - mean) / sd) - ndtr((breakpoints - mean) / sd)
                          for mean in (mu_q, mu_u))
        expected_p = payoffs.x_q * pi * mass_q - payoffs.x_u * (1.0 - pi) * mass_u
        result = n_ex_ante[k] - expected_p
        results.append(float(result) if taus.ndim == 0 else result)
    return tuple(results)


def expected_regret_gap(config: ModelConfig, tau):
    """E[u(s2)] - E[u(s1)] at each tau: positive where s1 is the cheaper score."""
    u1, u2 = expected_regret(config, tau)
    return u2 - u1
