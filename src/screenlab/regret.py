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
applicant and x_u for an unqualified one.

``expected_regret`` integrates u over the applicant population for a fixed
tau.  The integrand is smooth except where the acceptance indicator flips,
so the theta axis is split at that breakpoint first and each piece is
handled by an adaptive Gauss-Legendre panel scheme.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from . import scores as _scores
from ._roots import bisect_monotone
from .model import (
    DomainError,
    ModelConfig,
    PayoffParams,
    ScreeningError,
    require_increasing_phi,
)
from .scores import ALGOS


class QuadratureError(ScreeningError):
    """Adaptive integration failed to reach the requested tolerance."""


# =====================================================================
# Individual regret
# =====================================================================

@dataclass(frozen=True)
class RegretRecord:
    """One applicant's regret bookkeeping under one score.

    ``theta``, ``tau`` and ``algo`` are provenance fields; they are None
    when the score value arrives without a curve context.
    """

    q: int
    score: float
    n_ex_ante: float
    accepted: int
    p_ex_post: float
    u: float
    theta: float | None = None
    tau: float | None = None
    algo: str | None = None


def _require_unit_score(s: np.ndarray) -> None:
    inside = (s >= 0.0) & (s <= 1.0)
    if not np.all(inside):
        raise DomainError(f"score {s[~inside].flat[0]!r} outside [0, 1]")


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
    q = np.asarray(q)
    n = _ex_ante(payoffs, s)
    accepted = n > payoffs.c
    p = np.where(accepted, np.where(q == 1, payoffs.x_q, -payoffs.x_u), 0.0)
    return n, accepted, p, n - p


def individual_regret(
    payoffs: PayoffParams,
    s: float,
    q: int,
    *,
    theta: float | None = None,
    tau: float | None = None,
    algo: str | None = None,
) -> RegretRecord:
    """Full regret record for one applicant.

    The acceptance rule is strict: a score landing exactly on beta is
    rejected, matching the infimum convention used for the critical
    prejudices.
    """
    if q not in (0, 1):
        raise DomainError(f"qualification bit must be 0 or 1, got {q!r}")
    if algo is not None and algo not in ALGOS:
        raise DomainError(f"algo must be one of {ALGOS}, got {algo!r}")
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
        theta=theta,
        tau=tau,
        algo=algo,
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
    """Regret of both scores along a tau grid, for one (theta, q)."""

    theta: float
    q: int
    tau: np.ndarray
    score: dict[str, np.ndarray]
    n_ex_ante: dict[str, np.ndarray]
    accepted: dict[str, np.ndarray]
    p_ex_post: dict[str, np.ndarray]
    u: dict[str, np.ndarray]
    jumps: tuple[JumpAnnotation, ...]


def regret_curve(config: ModelConfig, theta, q, tau_grid) -> RegretCurves:
    """Evaluate u(s1(tau)) and u(s2(tau)) along a grid, annotating jumps.

    The grid must stay inside the open prejudice interval.  Jump locations
    are the critical prejudices; the s1 jump is absent for theta with
    phi(theta) >= beta, where that curve is continuous throughout.
    """
    from .thresholds import find_critical_prejudices

    if q not in (0, 1):
        raise DomainError(f"qualification bit must be 0 or 1, got {q!r}")
    tau = np.sort(np.asarray(tau_grid, dtype=float).ravel())
    payoffs = config.payoffs
    score, n_ex_ante, accepted, p_ex_post, u = {}, {}, {}, {}, {}
    for algo in ALGOS:
        s = _scores.score(config, algo, theta, tau)
        n, acc, p, loss = _regret_values(payoffs, s, q)
        score[algo] = s
        n_ex_ante[algo] = n
        accepted[algo] = acc.astype(int)
        p_ex_post[algo] = p
        u[algo] = loss

    tau_d1, tau_d2 = find_critical_prejudices(config, theta)
    jumps = []
    if tau_d1 is not None:
        jumps.append(JumpAnnotation(
            algo="s1",
            tau_d=tau_d1,
            height=-payoffs.x_q if q == 1 else payoffs.x_u,
        ))
    jumps.append(JumpAnnotation(
        algo="s2",
        tau_d=tau_d2,
        height=payoffs.x_q if q == 1 else -payoffs.x_u,
    ))
    return RegretCurves(
        theta=float(theta),
        q=int(q),
        tau=tau,
        score=score,
        n_ex_ante=n_ex_ante,
        accepted=accepted,
        p_ex_post=p_ex_post,
        u=u,
        jumps=tuple(jumps),
    )


# =====================================================================
# Population expectation of the regret loss
# =====================================================================

_NODES_COARSE = np.polynomial.legendre.leggauss(20)
_NODES_FINE = np.polynomial.legendre.leggauss(40)
_NODES_BOTH = np.concatenate([_NODES_COARSE[0], _NODES_FINE[0]])

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _normal_pdf(x, mean: float, sd: float) -> np.ndarray:
    z = (np.asarray(x, dtype=float) - mean) / sd
    return np.exp(-0.5 * z * z) * (_INV_SQRT_2PI / sd)


def _panel_values(f, a: float, b: float) -> tuple[float, float]:
    """(fine estimate, error estimate) for one panel.

    Both node sets are evaluated in a single call so the per-panel python
    overhead stays flat as the panel list grows.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    values = np.asarray(f(mid + half * _NODES_BOTH), dtype=float)
    coarse = half * float(np.dot(_NODES_COARSE[1], values[:20]))
    fine = half * float(np.dot(_NODES_FINE[1], values[20:]))
    return fine, abs(fine - coarse)


def _adaptive_integral(f, a: float, b: float, tol: float, max_panels: int) -> float:
    """Adaptive Gauss-Legendre integration of a smooth vectorized f."""
    if b <= a:
        return 0.0
    edges = np.linspace(a, b, 9)
    heap = []
    for left, right in zip(edges[:-1], edges[1:]):
        value, err = _panel_values(f, left, right)
        heapq.heappush(heap, (-err, left, right, value))
    while True:
        total_err = -sum(item[0] for item in heap)
        if total_err < tol:
            return sum(item[3] for item in heap)
        if len(heap) >= max_panels:
            neg_err, left, right, _ = heap[0]
            raise QuadratureError(
                f"integration stalled at estimated error {total_err:.3e} "
                f"(tolerance {tol:.3e}) with {len(heap)} panels; "
                f"worst panel [{left!r}, {right!r}] contributes {-neg_err:.3e}"
            )
        _, left, right, _ = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        for seg in ((left, mid), (mid, right)):
            value, err = _panel_values(f, *seg)
            heapq.heappush(heap, (-err, seg[0], seg[1], value))


def _theta_range(config: ModelConfig) -> tuple[float, float]:
    """Theta interval covering both class means to ten marginal deviations."""
    sd = config.signal.sigma_theta
    means = (config.signal.mu_q[0], config.signal.mu_u[0])
    return min(means) - 10.0 * sd, max(means) + 10.0 * sd


def _acceptance_breakpoint(
    config: ModelConfig, algo: str, tau: float, lo: float, hi: float
) -> float | None:
    """Theta above which the second stage accepts, or None when one-sided.

    Returns lo when the rule accepts everywhere and hi when it accepts
    nowhere on [lo, hi]; both collapse the accepted region to a boundary
    case the integrator handles uniformly.
    """
    beta = config.payoffs.beta

    def gap(theta):
        return _scores.score(config, algo, theta, tau) - beta

    gap_lo = float(gap(lo))
    gap_hi = float(gap(hi))
    if gap_lo > 0.0:
        return lo
    if gap_hi <= 0.0:
        return hi
    return bisect_monotone(gap, lo, hi).root


def expected_regret(
    config: ModelConfig,
    algo: str,
    tau: float,
    *,
    tol: float = 1e-8,
    max_panels: int = 200,
) -> float:
    """Population mean of the regret loss u(s(Theta, tau)).

    Decomposes the expectation into a smooth ex ante term over the full
    theta range and an ex post term supported on the accepted region,
    whose boundary is located by bisection before integrating.  The result
    is deterministic to the quadrature tolerance.
    """
    require_increasing_phi(config, "expected_regret")
    tau = float(tau)
    payoffs = config.payoffs
    signal = config.signal
    lo, hi = _theta_range(config)

    def ex_ante_term(theta):
        f_q = _normal_pdf(theta, signal.mu_q[0], signal.sigma_theta)
        f_u = _normal_pdf(theta, signal.mu_u[0], signal.sigma_theta)
        mixture = payoffs.pi * f_q + (1.0 - payoffs.pi) * f_u
        return _ex_ante(payoffs, _scores.score(config, algo, theta, tau)) * mixture

    def ex_post_term(theta):
        f_q = _normal_pdf(theta, signal.mu_q[0], signal.sigma_theta)
        f_u = _normal_pdf(theta, signal.mu_u[0], signal.sigma_theta)
        return (
            payoffs.x_q * payoffs.pi * f_q
            - payoffs.x_u * (1.0 - payoffs.pi) * f_u
        )

    breakpoint_theta = _acceptance_breakpoint(config, algo, tau, lo, hi)
    expected_n = _adaptive_integral(ex_ante_term, lo, breakpoint_theta, tol / 4,
                                    max_panels)
    expected_n += _adaptive_integral(ex_ante_term, breakpoint_theta, hi, tol / 4,
                                     max_panels)
    expected_p = _adaptive_integral(ex_post_term, breakpoint_theta, hi, tol / 2,
                                    max_panels)
    return expected_n - expected_p


def expected_regret_gap(config: ModelConfig, tau: float, *, tol: float = 1e-8) -> float:
    """E[u(s2)] - E[u(s1)] at one tau: positive where s1 is the cheaper score."""
    return expected_regret(config, "s2", tau, tol=tol) - expected_regret(
        config, "s1", tau, tol=tol
    )
