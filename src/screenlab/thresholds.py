"""Root-finding for every distinguished prejudice level.

Four thresholds organize the whole analysis, and each one is the root of a
curve that is strictly monotone in tau on the clamped interval:

* ``tau_star``: where the two score curves of a given applicant cross
  (outcome-trained minus acceptance-trained score is strictly increasing).
* ``tau_d1`` and ``tau_d2``: where each score crosses the critical score
  beta, so the second-stage decision for that applicant flips.  The
  acceptance-trained score always crosses; the outcome-trained score
  crosses only when phi(theta) < beta, since it never dips below phi.
* crossing points of the two regret curves, found cell by cell between
  the critical prejudices, where the regret gap is continuous and
  strictly increasing.
* ``tau_bar``: where the population-average regrets of the two scores
  meet, which exists exactly in regular environments.

All roots come from bracketed bisection run to floating-point resolution
(see _roots); residual tolerances are checked afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scores as _scores
from ._roots import BracketError, bisect_monotone
from .model import (
    DomainError,
    ModelConfig,
    ScreeningError,
    marginal_posterior_phi,
)
from .population import classify_environment, sample_population
from .regret import _ex_ante, _regret_values, expected_regret_gap

# Largest residual accepted at a per-theta root: tau_star, the critical
# prejudices and the regret crossings.
ROOT_TOL = 1e-10

# Roots closer than this multiple of ROOT_TOL to a cell boundary are
# flagged rather than trusted: a root sitting on a jump is a limit
# statement about the discontinuity, not a crossing.
BOUNDARY_FLAG_FACTOR = 10.0

# Largest average-regret gap accepted at the analytic tau_bar: ten times
# expected_regret's default quadrature tolerance of 1e-8.
TAU_BAR_RESIDUAL_TOL = 1e-7

# Taus at which an irregular environment's gap is confirmed to hold its sign.
CONFIRM_GRID = 101

# Two critical prejudices closer than this (scaled by x_q + x_u) are
# reported as coinciding.
ORDERING_ATOL_SCALE = 1e-9


class EndpointResolutionError(ScreeningError):
    """A root lies too close to the prejudice interval's endpoints.

    The clamped interval trimmed off the region containing the sign
    change; re-evaluating with a smaller clamp scale would recover it.
    """


class InconclusiveResolutionError(ScreeningError):
    """A Monte Carlo root could not be statistically separated from zero."""


@dataclass(frozen=True)
class ThresholdReport:
    """Per-applicant threshold summary at one theta."""

    theta: float
    tau_star: float
    tau_d1: float | None
    tau_d2: float
    equalized_score: float
    ordering: str
    knife_edge: bool = False


@dataclass(frozen=True)
class CrossingReport:
    """Where the two regret curves meet, for one (theta, q)."""

    theta: float
    q: int
    crossings: tuple[float, ...]
    case_label: str
    boundary_flags: tuple[bool, ...]


@dataclass(frozen=True)
class TauBarResult:
    """Population indifference prejudice, or its absence."""

    value: float | None
    mode: str
    reason: str | None = None
    standard_error: float | None = None
    m: int | None = None
    seed: int | None = None


# =====================================================================
# Equalizing prejudice
# =====================================================================

def find_tau_star(config: ModelConfig, theta: float) -> float:
    """The unique tau where both scores agree for this theta.

    The score gap s1 - s2 is strictly increasing in tau and changes sign
    across the open interval, so bisection on the clamped interval finds
    the root unless it sits inside the clamp margin.
    """
    lo, hi = _scores.clamped_tau_interval(config.payoffs)

    def gap(tau: float) -> float:
        return float(
            _scores.score_s1(config, theta, tau)
            - _scores.score_s2(config, theta, tau)
        )

    try:
        return bisect_monotone(gap, lo, hi, residual_tol=ROOT_TOL).root
    except BracketError as exc:
        raise EndpointResolutionError(
            f"score curves do not cross on the clamped interval for "
            f"theta={theta!r}; the crossing sits within the clamp margin, "
            f"re-evaluate with a smaller clamp scale ({exc})"
        ) from exc


# =====================================================================
# Critical prejudices
# =====================================================================

def find_critical_prejudices(
    config: ModelConfig, theta: float
) -> tuple[float | None, float]:
    """Roots of each score against the critical score beta.

    Returns (tau_d1, tau_d2) where tau_d1 is None when phi(theta) >= beta:
    the outcome-trained score stays strictly above phi, hence above beta,
    and its regret curve never jumps.  The knife edge phi(theta) == beta
    is folded into the absent case.
    """
    lo, hi = _scores.clamped_tau_interval(config.payoffs)
    beta = config.beta

    def root(algo: str) -> float:
        def gap(tau: float) -> float:
            return float(_scores.score(config, algo, theta, tau)) - beta

        try:
            return bisect_monotone(gap, lo, hi, residual_tol=ROOT_TOL).root
        except BracketError as exc:
            raise EndpointResolutionError(
                f"score {algo} never meets beta={beta!r} on the "
                f"clamped interval for theta={theta!r}: {exc}"
            ) from exc

    tau_d2 = root("s2")
    if float(marginal_posterior_phi(config, theta)) >= beta:
        return None, tau_d2
    return root("s1"), tau_d2


def threshold_report(config: ModelConfig, theta: float) -> ThresholdReport:
    """Full per-theta report: equalizing and critical prejudices."""
    tau_star = find_tau_star(config, theta)
    tau_d1, tau_d2 = find_critical_prejudices(config, theta)
    equalized = 0.5 * float(
        _scores.score_s1(config, theta, tau_star)
        + _scores.score_s2(config, theta, tau_star)
    )
    phi = float(marginal_posterior_phi(config, theta))
    scale = config.payoffs.x_q + config.payoffs.x_u
    if tau_d1 is None:
        ordering = "d1-absent"
    elif abs(tau_d1 - tau_d2) <= ORDERING_ATOL_SCALE * scale:
        ordering = "d1=d2"
    elif tau_d1 < tau_d2:
        ordering = "d1<d2"
    else:
        ordering = "d2<d1"
    return ThresholdReport(
        theta=float(theta),
        tau_star=tau_star,
        tau_d1=tau_d1,
        tau_d2=tau_d2,
        equalized_score=equalized,
        ordering=ordering,
        knife_edge=(phi == config.beta),
    )


# =====================================================================
# Regret-curve crossings
# =====================================================================

def find_regret_crossings(config: ModelConfig, theta: float, q: int) -> CrossingReport:
    """All tau where both scores generate identical regret for (theta, q).

    The clamped interval is partitioned at the critical prejudices.  On
    each open cell both second-stage decisions are constant bits, so the
    regret gap reduces to the smooth, strictly increasing expression
    N(s1) - N(s2) minus a constant, and holds at most one root.  Roots
    landing within the boundary window of a critical prejudice are
    reported with a flag: the curves are discontinuous there, so equality
    holds only as a one-sided limit.
    """
    if q not in (0, 1):
        raise DomainError(f"qualification bit must be 0 or 1, got {q!r}")
    payoffs = config.payoffs
    lo, hi = _scores.clamped_tau_interval(payoffs)
    tau_d1, tau_d2 = find_critical_prejudices(config, theta)
    boundaries = sorted(
        {t for t in (tau_d1, tau_d2) if t is not None and lo < t < hi}
    )
    edges = [lo, *boundaries, hi]
    drift = payoffs.x_q if q == 1 else -payoffs.x_u
    window = BOUNDARY_FLAG_FACTOR * ROOT_TOL

    def ex_ante_gap(tau):
        return (_ex_ante(payoffs, _scores.score_s1(config, theta, tau))
                - _ex_ante(payoffs, _scores.score_s2(config, theta, tau)))

    crossings: list[float] = []
    flags: list[bool] = []
    for a, b in zip(edges[:-1], edges[1:]):
        if not a < b:
            continue
        accept_1 = 1 if (tau_d1 is None or a >= tau_d1) else 0
        accept_2 = 1 if b <= tau_d2 else 0
        offset = (accept_1 - accept_2) * drift

        def cell_gap(tau: float) -> float:
            return float(ex_ante_gap(tau)) - offset

        g_a = cell_gap(a)
        g_b = cell_gap(b)
        if g_a == 0.0:
            root = a
        elif g_b == 0.0:
            root = b
        elif g_a < 0.0 < g_b:
            root = bisect_monotone(cell_gap, a, b, residual_tol=ROOT_TOL).root
        else:
            continue
        if crossings and root == crossings[-1]:
            continue
        near_jump = any(abs(root - t) <= window for t in boundaries)
        crossings.append(root)
        flags.append(near_jump)

    if q == 0:
        label = "unqualified"
    else:
        surplus_dominates = payoffs.x_q - payoffs.c > payoffs.x_u
        phi = float(marginal_posterior_phi(config, theta))
        if not surplus_dominates:
            label = "case-3"
        elif _ex_ante(payoffs, phi) < 0.0:
            label = "case-1"
        else:
            label = "case-2"
    return CrossingReport(
        theta=float(theta),
        q=int(q),
        crossings=tuple(crossings),
        case_label=label,
        boundary_flags=tuple(flags),
    )


# =====================================================================
# Population indifference prejudice
# =====================================================================

def find_tau_bar(
    config: ModelConfig,
    mode: str = "analytic",
    *,
    m: int = 100_000,
    seed: int = 0,
) -> TauBarResult:
    """The tau where both scores cost the firm the same average regret.

    In a regular environment the average-regret gap D(tau) falls strictly
    from a positive left limit to a negative right limit, so its root is
    unique; in an irregular environment D stays negative and the
    none-variant is returned after a grid confirmation.  The analytic mode
    evaluates D by quadrature; the Monte Carlo mode replays a sampled
    population and propagates the sample standard error through the local
    slope of D.
    """
    if mode not in ("analytic", "mc"):
        raise DomainError(f"mode must be 'analytic' or 'mc', got {mode!r}")
    lo, hi = _scores.clamped_tau_interval(config.payoffs)
    report = classify_environment(config)

    if mode == "analytic":
        def gap(tau: float) -> float:
            return expected_regret_gap(config, tau)

        if report.classification == "irregular":
            grid = np.linspace(lo, hi, CONFIRM_GRID)
            values = np.array([gap(t) for t in grid])
            if np.any(values >= 0.0):
                worst = int(np.argmax(values))
                raise ScreeningError(
                    "environment classified irregular but the average-regret "
                    f"gap is {values[worst]!r} >= 0 at tau={grid[worst]!r}"
                )
            return TauBarResult(value=None, mode=mode, reason="irregular")
        scale = config.payoffs.x_q + config.payoffs.x_u
        try:
            root = bisect_monotone(
                gap, lo, hi, residual_tol=TAU_BAR_RESIDUAL_TOL, xtol=1e-10 * scale
            ).root
        except BracketError as exc:
            raise EndpointResolutionError(
                f"average-regret gap holds one sign on the clamped interval "
                f"despite a regular classification: {exc}"
            ) from exc
        return TauBarResult(value=root, mode=mode)

    population = sample_population(config, m, seed)
    theta = population.theta
    q = population.q
    payoffs = config.payoffs

    def losses(tau: float) -> np.ndarray:
        """u(s2) - u(s1), applicant by applicant."""
        u2 = _regret_values(payoffs, _scores.score_s2(config, theta, tau), q)[3]
        return u2 - _regret_values(payoffs, _scores.score_s1(config, theta, tau), q)[3]

    def estimate(tau: float) -> tuple[float, float]:
        diff = losses(tau)
        return float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(len(diff)))

    if report.classification == "irregular":
        grid = np.linspace(lo, hi, CONFIRM_GRID)
        for t in grid:
            value, se = estimate(float(t))
            if value >= 3.0 * se:
                raise InconclusiveResolutionError(
                    f"irregular environment but the sampled average-regret gap "
                    f"is {value!r} (3*SE={3*se!r}) at tau={t!r}; increase m"
                )
        return TauBarResult(value=None, mode=mode, reason="irregular", m=m, seed=seed)

    scale = config.payoffs.x_q + config.payoffs.x_u
    try:
        # resolving the root beyond 1e-8*scale buys nothing: the location is
        # only known to its propagated standard error anyway
        root = bisect_monotone(
            lambda t: estimate(t)[0], lo, hi,
            residual_tol=np.inf, xtol=1e-8 * scale,
        ).root
    except BracketError as exc:
        raise InconclusiveResolutionError(
            f"sampled average-regret gap holds one sign on the clamped "
            f"interval; increase m ({exc})"
        ) from exc
    _, se_root = estimate(root)
    delta = 0.01 * scale
    slope = (
        expected_regret_gap(config, min(root + delta, hi))
        - expected_regret_gap(config, max(root - delta, lo))
    ) / (min(root + delta, hi) - max(root - delta, lo))
    if slope >= 0.0:
        raise InconclusiveResolutionError(
            f"average-regret gap slope {slope!r} is not negative near the "
            f"candidate root {root!r}; increase m"
        )
    standard_error = se_root / abs(slope)
    probe = 0.02 * scale
    for side, want_positive in ((max(root - probe, lo), True),
                                (min(root + probe, hi), False)):
        value, se = estimate(float(side))
        resolved = value > 3.0 * se if want_positive else value < -3.0 * se
        if not resolved:
            raise InconclusiveResolutionError(
                f"sampled average-regret gap {value!r} at tau={side!r} is "
                f"within 3*SE={3*se!r} of zero; the sign change is not "
                "resolved, increase m"
            )
    return TauBarResult(
        value=root, mode=mode, standard_error=standard_error, m=m, seed=seed
    )
