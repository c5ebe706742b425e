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

The per-theta roots come from _roots' safeguarded regula falsi, run to
floating-point resolution, with residual tolerances checked afterwards;
tau_bar, in both modes, from Brent's method, on the quadrature gap or on a
sampled population bound once to the terms of its scores that do not
depend on tau.
A population of at least 2 * PART_MIN applicants is bound in parts, which
threads evaluate side by side in each pass with the same bits as one thread.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import scores as _scores
from ._roots import RESIDUAL_TOL, BracketError, bisect_monotone_many, brent_root
from .model import (
    DomainError,
    ModelConfig,
    ScreeningError,
    _as_scalar_or_1d,
    marginal_posterior_phi,
)
from .population import _draw, _mean_and_se, _require_mc_size, classify_environment
from .regret import _accepted_payoff, _ex_ante, _losses, expected_regret_gap

# Roots closer to a cell boundary than this multiple of the residual bound
# of the per-theta roots (tau_star, the critical prejudices, the regret
# crossings) are flagged rather than trusted: a root sitting on a jump is a
# limit statement about the discontinuity, not a crossing.
BOUNDARY_FLAG_FACTOR = 10.0

# Largest |average-regret gap| accepted at the analytic tau_bar, checked
# here: ten times regret.QUAD_TOL, the tolerance of each expected_regret.
TAU_BAR_RESIDUAL_TOL = 1e-7

# Taus at which an irregular environment's gap is confirmed to hold its sign.
CONFIRM_GRID = 101

# Two critical prejudices closer than this (scaled by x_q + x_u) are
# reported as coinciding.
ORDERING_ATOL_SCALE = 1e-9

# Fewest applicants a thread of a Monte Carlo pass takes.  On 2 vCPUs a
# one-thread pool only beat the serial pass from ~16k applicants up, so
# every m below 2 * PART_MIN stays on one thread and m = 1e5 splits.
PART_MIN = 16_384


class EndpointResolutionError(ScreeningError):
    """A root lies too close to the prejudice interval's endpoints.

    The sign change sits in the margin that the clamped interval trims off
    each end, scores.TAU_CLAMP_SCALE of the interval's length, where no
    score is evaluated.
    """


class InconclusiveResolutionError(ScreeningError):
    """A Monte Carlo root could not be statistically separated from zero."""


@dataclass(frozen=True)
class CrossingReport:
    """Where the two regret curves meet, for one (theta, q)."""

    theta: float
    q: int
    crossings: tuple[float, ...]
    case_label: str
    boundary_flags: tuple[bool, ...]


@dataclass(frozen=True)
class ThresholdReport:
    """Per-applicant threshold summary at one theta, with the regret-curve
    crossings of an unqualified and a qualified applicant."""

    theta: float
    tau_star: float
    tau_d1: float | None
    tau_d2: float
    equalized_score: float
    ordering: str
    knife_edge: bool
    crossings_q0: CrossingReport
    crossings_q1: CrossingReport


@dataclass(frozen=True)
class TauBarResult:
    """Population indifference prejudice, or its absence."""

    value: float | None
    mode: str
    reason: str | None = None
    standard_error: float | None = None
    m: int | None = None
    seed: int | None = None
    # taus the gap was evaluated at: Brent's values with both ends (plus, by
    # Monte Carlo, two probes; the SE reuses Brent's pass at its root) or an
    # irregular CONFIRM_GRID
    passes: int | None = None


def _tau_roots(config: ModelConfig, gap, thetas: np.ndarray, what: str) -> np.ndarray:
    """One root of ``gap`` per theta on the clamped interval, in one batch;
    a theta without a sign change raises EndpointResolutionError: ``what``."""
    lo, hi = _scores.clamped_tau_interval(config.payoffs)
    try:
        return bisect_monotone_many(
            gap, np.full_like(thetas, lo), np.full_like(thetas, hi)
        ).root
    except BracketError as exc:
        theta = float(thetas.flat[exc.member])
        raise EndpointResolutionError(f"{what} for theta={theta!r}: {exc}") from exc


# =====================================================================
# Equalizing prejudice
# =====================================================================

def find_tau_star(config: ModelConfig, theta):
    """The unique tau where both scores agree, per theta.

    The score gap s1 - s2 is strictly increasing in tau and changes sign
    across the open interval, so the root loop on the clamped interval
    finds the root unless it sits inside the clamp margin.  A scalar theta
    gives a float, a 1-D array one root per theta from one batch.
    """
    thetas = _as_scalar_or_1d(theta, "theta")
    roots = _tau_roots(
        config,
        lambda tau: np.subtract(*_scores.score_pair(config, thetas, tau)),
        thetas,
        "score curves do not cross on the clamped interval (the crossing sits "
        "within the clamp margin, where no score is evaluated)",
    )
    return float(roots) if thetas.ndim == 0 else roots


# =====================================================================
# Critical prejudices
# =====================================================================

def find_critical_prejudices(config: ModelConfig, theta):
    """Roots of each score against the critical score beta.

    Returns (tau_d1, tau_d2) where tau_d1 is None when phi(theta) >= beta:
    the outcome-trained score stays strictly above phi, hence above beta,
    and its regret curve never jumps.  The knife edge phi(theta) == beta
    is folded into the absent case.  A 1-D theta array gives two lists,
    one entry per theta, each score's roots from one batch of the root loop.
    """
    thetas = _as_scalar_or_1d(theta, "theta")
    has_d1, tau_d1, tau_d2 = _critical_roots(config, thetas)
    if thetas.ndim == 0:
        return (float(tau_d1) if has_d1 else None), float(tau_d2)
    listed = [None] * len(thetas)
    for i, root in zip(np.flatnonzero(has_d1), tau_d1.tolist()):
        listed[i] = root
    return listed, tau_d2.tolist()


def _critical_roots(config: ModelConfig, thetas: np.ndarray):
    """(has_d1, tau_d1, tau_d2): whether phi(theta) < beta, the s1 roots of
    the thetas where it holds, and every theta's s2 root, one batch per
    score; a 0-d theta stays 0-d, on numpy's scalar paths, twice as fast."""
    beta = config.beta

    def roots(k: int, members: np.ndarray) -> np.ndarray:
        return _tau_roots(
            config, lambda tau: _scores.score_pair(config, members, tau)[k] - beta, members,
            f"score {_scores.ALGOS[k]} never meets beta={beta!r} on the clamped interval",
        )

    tau_d2 = roots(1, thetas)
    has_d1 = marginal_posterior_phi(config, thetas) < beta
    members = thetas if thetas.ndim == 0 else thetas[has_d1]
    tau_d1 = roots(0, members) if has_d1.any() else np.empty(0)
    return has_d1, tau_d1, tau_d2


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


def verify_nonatomic(config: ModelConfig, tau: float, m: int, seed: int) -> NonatomicReport:
    """Count exact floating-point collisions among per-applicant values.

    Samples theta from the mixture marginal, evaluates both scores at the
    given tau and both critical prejudices per applicant, and reports
    duplicate counts.  For a continuous theta law every count is expected
    to be zero.
    """
    # the sampler's parts, in order and without gamma, which is not needed
    thetas = np.concatenate([theta for _, theta, _ in _draw(config, m, seed, gamma=False)[1]])
    s1, s2 = _scores.score_pair(config, thetas, tau)
    has_d1, tau_d1, tau_d2 = _critical_roots(config, thetas)

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


def threshold_report(config: ModelConfig, theta):
    """Full per-theta report: equalizing and critical prejudices, and the
    regret-curve crossings for both qualification bits.

    A 1-D theta array gives a list of reports, with each kind of root
    found for every theta in one batch of the root loop.
    """
    flat = _as_scalar_or_1d(theta, "theta").reshape(-1)
    tau_star = find_tau_star(config, flat)
    tau_d1, tau_d2 = find_critical_prejudices(config, flat)
    equalized = 0.5 * np.add(*_scores.score_pair(config, flat, tau_star))
    phi = marginal_posterior_phi(config, flat)
    crossings = [_crossings(config, flat, q, tau_d1, tau_d2) for q in (0, 1)]
    scale = config.payoffs.x_q + config.payoffs.x_u
    reports = []
    for i, (d1, d2) in enumerate(zip(tau_d1, tau_d2)):
        if d1 is None:
            ordering = "d1-absent"
        elif abs(d1 - d2) <= ORDERING_ATOL_SCALE * scale:
            ordering = "d1=d2"
        else:
            ordering = "d1<d2" if d1 < d2 else "d2<d1"
        reports.append(ThresholdReport(
            float(flat[i]), float(tau_star[i]), d1, d2, float(equalized[i]), ordering,
            bool(phi[i] == config.beta), crossings[0][i], crossings[1][i],
        ))
    return reports[0] if np.ndim(theta) == 0 else reports


# =====================================================================
# Regret-curve crossings
# =====================================================================

def find_regret_crossings(config: ModelConfig, theta, q: int):
    """All tau where both scores generate identical regret for (theta, q).

    The clamped interval is partitioned at the critical prejudices.  On
    each open cell both second-stage decisions are constant bits, so the
    regret gap reduces to the smooth, strictly increasing expression
    N(s1) - N(s2) minus a constant, and holds at most one root.  Roots
    landing within the boundary window of a critical prejudice are
    reported with a flag: the curves are discontinuous there, so equality
    holds only as a one-sided limit.  A 1-D theta array gives a list of
    reports, the cells of every theta rooted in one batch.
    """
    if q not in (0, 1):
        raise DomainError(f"qualification bit must be 0 or 1, got {q!r}")
    # a lone theta roots on numpy's scalar paths, in half the time of a (1,) batch
    thetas = _as_scalar_or_1d(theta, "theta")
    critical = find_critical_prejudices(config, thetas)
    if thetas.ndim == 0:
        return _crossings(config, thetas.reshape(1), q, *([t] for t in critical))[0]
    return _crossings(config, thetas, q, *critical)


def _crossings(config, thetas, q, tau_d1, tau_d2) -> list[CrossingReport]:
    """find_regret_crossings for each theta, given its critical prejudices;
    the cells of every theta are rooted in one batch of the root loop."""
    if not len(thetas):
        return []
    payoffs = config.payoffs
    lo, hi = _scores.clamped_tau_interval(payoffs)
    drift = float(_accepted_payoff(payoffs, q))
    window = BOUNDARY_FLAG_FACTOR * RESIDUAL_TOL
    boundaries, cells = [], []
    for i, (d1, d2) in enumerate(zip(tau_d1, tau_d2)):
        boundaries.append(sorted({t for t in (d1, d2) if t is not None and lo < t < hi}))
        edges = [lo, *boundaries[i], hi]
        for a, b in zip(edges[:-1], edges[1:]):
            if a < b:
                accept_1 = 1 if (d1 is None or a >= d1) else 0
                accept_2 = 1 if b <= d2 else 0
                cells.append((i, a, b, (accept_1 - accept_2) * drift))
    owner, a, b, offset = (np.array(column) for column in zip(*cells))
    theta = thetas[owner]

    def cell_gap(tau, members=slice(None)):
        s1, s2 = _scores.score_pair(config, theta[members], tau)
        return _ex_ante(payoffs, s1) - _ex_ante(payoffs, s2) - offset[members]

    g_a = cell_gap(a)
    g_b = cell_gap(b)
    roots = np.where(g_a == 0.0, a, b)
    found = (g_a == 0.0) | (g_b == 0.0)
    inside = ~found & (g_a < 0.0) & (0.0 < g_b)
    if inside.any():
        roots[inside] = bisect_monotone_many(
            lambda tau: cell_gap(tau, inside), a[inside], b[inside]
        ).root
    phi = marginal_posterior_phi(config, thetas)
    reports = []
    for i, theta_i in enumerate(thetas.tolist()):
        crossings, flags = [], []
        for root in roots[(found | inside) & (owner == i)].tolist():
            if not crossings or root != crossings[-1]:
                crossings.append(root)
                flags.append(any(abs(root - t) <= window for t in boundaries[i]))
        if q == 0:
            label = "unqualified"
        elif not payoffs.x_q - payoffs.c > payoffs.x_u:
            label = "case-3"
        else:
            label = "case-1" if _ex_ante(payoffs, phi[i]) < 0.0 else "case-2"
        reports.append(CrossingReport(theta_i, int(q), tuple(crossings), label, tuple(flags)))
    return reports


# =====================================================================
# Population indifference prejudice
# =====================================================================

def _available_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _sampled_losses(config: ModelConfig, m: int, seed: int):
    """u(s2) - u(s1) as a function of tau, applicant by applicant, over m
    applicants sampled with ``seed``.  Each part of the population is bound
    once as a ``_Scores``, with its payoffs, to every term that does not
    depend on tau.

    The population is bound in P contiguous parts, one per available CPU
    but none under PART_MIN applicants.  Each pass computes log T(tau) once;
    worker threads compute the losses of the first P - 1 parts and the
    calling thread those of the last, so the special functions, which
    release the GIL, run side by side, and the parts are joined in order.
    Every value is elementwise, so the result is the same bit for bit for
    any P; at P = 1 no thread starts.  The threads call no public function
    and none outlives its pass.  A failing pass raises the error of the
    first part that fails, once every part is done.
    """
    q, signals = _draw(config, m, seed, gamma=False)  # gamma is not needed
    theta = np.concatenate([theta for _, theta, _ in signals])
    pay = _accepted_payoff(config.payoffs, q)
    count = max(1, min(_available_cpus(), m // PART_MIN))
    edges = [m * i // count for i in range(count + 1)]
    parts = [(_scores._Scores(config, theta[a:b]), pay[a:b])
             for a, b in zip(edges[:-1], edges[1:])]
    del q, theta, pay  # theta lives on in the bindings

    def part_losses(log_t, bound, pay) -> np.ndarray:
        s1, s2 = bound.at_log_t(log_t)
        u2 = _losses(config.payoffs, s2, pay)
        u2 -= _losses(config.payoffs, s1, pay)
        return u2

    def losses(tau: float) -> np.ndarray:
        log_t = _scores.log_acceptance_threshold(config.payoffs, tau)
        if count == 1:
            return part_losses(log_t, *parts[0])
        with ThreadPoolExecutor(count - 1) as pool:
            workers = [pool.submit(part_losses, log_t, *part) for part in parts[:-1]]
            try:
                last = part_losses(log_t, *parts[-1])
            finally:
                # the workers' parts come first, so their errors outrank this one's
                values = [worker.result() for worker in workers]
        # joined once every part is done, so no (m,) array is held while they run
        return np.concatenate([*values, last])

    return losses


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
    none-variant is returned after a grid confirmation.  Both modes root D
    with Brent's method and report in ``passes`` how many taus they
    evaluated it at.  The analytic mode evaluates D by quadrature; the Monte
    Carlo mode replays a sampled population, propagates the sample standard
    error through the local slope of D and adds the width of Brent's final
    bracket in quadrature.
    """
    if mode not in ("analytic", "mc"):
        raise DomainError(f"mode must be 'analytic' or 'mc', got {mode!r}")
    lo, hi = _scores.clamped_tau_interval(config.payoffs)
    scale = config.payoffs.x_q + config.payoffs.x_u
    report = classify_environment(config)

    if mode == "analytic":
        if report.classification == "irregular":
            grid = np.linspace(lo, hi, CONFIRM_GRID)
            values = expected_regret_gap(config, grid)
            if np.any(values >= 0.0):
                worst = int(np.argmax(values))
                raise ScreeningError(
                    "environment classified irregular but the average-regret "
                    f"gap is {values[worst]!r} >= 0 at tau={grid[worst]!r}"
                )
            return TauBarResult(value=None, mode=mode, reason="irregular",
                                passes=CONFIRM_GRID)
        try:
            root = brent_root(lambda tau: expected_regret_gap(config, tau), lo, hi,
                              xtol=1e-10 * scale)
        except BracketError as exc:
            raise EndpointResolutionError(
                f"average-regret gap holds one sign on the clamped interval "
                f"despite a regular classification: {exc}"
            ) from exc
        if not root.residual <= TAU_BAR_RESIDUAL_TOL:
            raise ScreeningError(f"average-regret gap at tau={root.root!r} has residual "
                                 f"{root.residual:.3e}, which exceeds {TAU_BAR_RESIDUAL_TOL:.3e}")
        return TauBarResult(value=root.root, mode=mode, passes=root.iterations + 2)

    _require_mc_size(m)
    sampled = _sampled_losses(config, m, seed)
    priced: dict[float, tuple[float, float]] = {}  # tau: (mean gap, its SE), one pass each

    def estimate(tau: float) -> tuple[float, float]:
        if tau not in priced:
            priced[tau] = _mean_and_se(sampled(tau))
        return priced[tau]

    if report.classification == "irregular":
        grid = np.linspace(lo, hi, CONFIRM_GRID)
        for t in grid:
            value, se = estimate(float(t))
            if value >= 3.0 * se:
                raise InconclusiveResolutionError(
                    f"irregular environment but the sampled average-regret gap "
                    f"is {value!r} (3*SE={3*se!r}) at tau={t!r}; increase m"
                )
        return TauBarResult(value=None, mode=mode, reason="irregular", m=m, seed=seed,
                            passes=len(priced))

    try:
        # resolving the root beyond 1e-8*scale buys nothing: the location is
        # only known to its propagated standard error anyway
        located = brent_root(lambda t: estimate(t)[0], lo, hi, xtol=1e-8 * scale)
    except BracketError as exc:
        raise InconclusiveResolutionError(
            f"sampled average-regret gap holds one sign on the clamped "
            f"interval; increase m ({exc})"
        ) from exc
    root = located.root
    # Brent returns a tau it has priced, so its SE is a lookup
    _, se_root = estimate(root)
    delta = 0.01 * scale
    right, left = min(root + delta, hi), max(root - delta, lo)
    gap_right, gap_left = expected_regret_gap(config, np.array([right, left])).tolist()
    slope = (gap_right - gap_left) / (right - left)
    if slope >= 0.0:
        raise InconclusiveResolutionError(
            f"average-regret gap slope {slope!r} is not negative near the "
            f"candidate root {root!r}; increase m"
        )
    # the sampling error, propagated through the slope, and the width of
    # Brent's final bracket: a cohort whose gap has no spread still has a
    # root located only to the bracket
    standard_error = math.hypot(se_root / abs(slope), located.bracket_width)
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
        value=root, mode=mode, standard_error=standard_error, m=m, seed=seed,
        passes=len(priced),
    )
