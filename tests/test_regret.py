"""Regret loss: per-applicant records, curve jumps, and the population
average computed by adaptive quadrature."""
from __future__ import annotations

import heapq
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

from screenlab import regret
from screenlab.scores import ALGOS, log_acceptance_threshold, score_pair
from screenlab import (
    DomainError,
    ModelConfig,
    PayoffParams,
    QuadratureError,
    UnsupportedModelError,
    bisect_monotone,
    clamped_tau_interval,
    classify_environment,
    ex_ante_payoff,
    expected_regret,
    expected_regret_gap,
    find_critical_prejudices,
    individual_regret,
    regret_curve,
    score_s1,
    score_s2,
)
from conftest import NONMONOTONE_PHI_DOC, WEAK_GAMMA_DOC, scalar_bisect, scalar_root


class TestIndividualRegret:
    def test_reference_records(self, baseline):
        s = 0.6340681545868624
        rec1 = individual_regret(baseline.payoffs, s, 1)
        np.testing.assert_allclose(rec1.n_ex_ante, 0.2681363091737248, rtol=1e-12)
        assert rec1.accepted
        np.testing.assert_allclose(rec1.u, -0.7318636908262752, rtol=1e-12)
        rec0 = individual_regret(baseline.payoffs, s, 0)
        np.testing.assert_allclose(rec0.u, 1.2681363091737248, rtol=1e-12)

    def test_rejected_applicant_keeps_ex_ante_value(self, baseline):
        rec = individual_regret(baseline.payoffs, 0.2, 1)
        assert not rec.accepted
        assert rec.p_ex_post == 0.0
        assert rec.u == rec.n_ex_ante

    def test_acceptance_is_strict_at_the_cutoff(self):
        """N(s) = c exactly means rejection: acceptance needs a strict
        excess. beta is chosen so N(beta) = c to float rounding."""
        payoffs = PayoffParams(pi=0.4, x_q=1.0, x_u=1.0, c=0.0)
        rec = individual_regret(payoffs, payoffs.beta, 1)
        assert rec.n_ex_ante == payoffs.c
        assert not rec.accepted
        assert individual_regret(payoffs, np.nextafter(payoffs.beta, 1.0), 1).accepted

    def test_rejects_score_outside_unit_interval(self, baseline):
        for s in (-0.01, 1.01):
            with pytest.raises(DomainError):
                individual_regret(baseline.payoffs, s, 1)

    @pytest.mark.parametrize("s,shown", [(1.5, "1.5"), (-0.25, "-0.25"), (float("nan"), "nan")])
    def test_out_of_range_score_message_is_a_plain_float(self, baseline, s, shown):
        """The message printed np.float64(1.5) for a score of 1.5."""
        message = f"score {shown} outside [0, 1]"
        with pytest.raises(DomainError) as individual:
            individual_regret(baseline.payoffs, s, 1)
        assert str(individual.value) == message
        with pytest.raises(DomainError) as payoff:
            ex_ante_payoff(baseline.payoffs, np.array([0.5, s]))
        assert str(payoff.value) == message

    @given(s=st.floats(0.0, 1.0), q=st.integers(0, 1))
    @settings(deadline=None, max_examples=200)
    def test_four_case_table(self, s, q):
        """u = N for rejections, N - x_q for accepted qualified,
        N + x_u for accepted unqualified."""
        payoffs = PayoffParams(pi=0.4, x_q=2.0, x_u=1.0, c=0.5)
        rec = individual_regret(payoffs, s, q)
        n = s * 2.0 - (1 - s) * 1.0
        np.testing.assert_allclose(rec.n_ex_ante, n, atol=1e-14)
        if not rec.accepted:
            assert rec.u == rec.n_ex_ante
        elif q == 1:
            np.testing.assert_allclose(rec.u, n - 2.0, atol=1e-14)
        else:
            np.testing.assert_allclose(rec.u, n + 1.0, atol=1e-14)

    def test_ex_ante_payoff_vectorized(self, baseline):
        s = np.array([0.0, 0.25, 0.5, 1.0])
        np.testing.assert_allclose(
            ex_ante_payoff(baseline.payoffs, s), [-1.0, -0.5, 0.0, 1.0], atol=1e-15
        )


class TestRegretCurves:
    def test_jump_annotations_match_critical_levels(self, baseline):
        lo, hi = clamped_tau_interval(baseline.payoffs)
        grid = np.linspace(lo, hi, 101)
        curves = regret_curve(baseline, 0.0, 1, grid, find_critical_prejudices(baseline, 0.0))
        jumps = {j.algo: j for j in curves.jumps}
        d1, d2 = find_critical_prejudices(baseline, 0.0)
        np.testing.assert_allclose(jumps["s1"].tau_d, d1, atol=1e-12)
        np.testing.assert_allclose(jumps["s2"].tau_d, d2, atol=1e-12)

    @pytest.mark.parametrize("q,s1_height,s2_height", [
        (1, -1.0, 1.0),
        (0, 1.0, -1.0),
    ])
    def test_jump_heights_signed_by_class(self, baseline, q, s1_height, s2_height):
        """Qualified curves lose x_q when the outcome-trained score starts
        accepting and gain it when the acceptance-trained score stops;
        unqualified curves mirror with x_u."""
        lo, hi = clamped_tau_interval(baseline.payoffs)
        grid = np.linspace(lo, hi, 101)
        curves = regret_curve(baseline, 0.0, q, grid, find_critical_prejudices(baseline, 0.0))
        jumps = {j.algo: j for j in curves.jumps}
        assert jumps["s1"].height == s1_height
        assert jumps["s2"].height == s2_height

    def test_no_s1_jump_when_phi_exceeds_beta(self, baseline):
        """theta far above the knife edge: the outcome-trained score never
        dips to beta, so its curve never jumps."""
        lo, hi = clamped_tau_interval(baseline.payoffs)
        grid = np.linspace(lo, hi, 101)
        curves = regret_curve(baseline, 2.5, 1, grid, find_critical_prejudices(baseline, 2.5))
        algos = {j.algo for j in curves.jumps}
        assert algos == {"s2"}

    def test_measured_jump_matches_annotation(self, baseline):
        lo, hi = clamped_tau_interval(baseline.payoffs)
        grid = np.linspace(lo, hi, 2001)
        curves = regret_curve(baseline, 0.0, 1, grid, find_critical_prejudices(baseline, 0.0))
        for jump in curves.jumps:
            u = curves.u[ALGOS.index(jump.algo)]
            cell = int(np.argmax(np.abs(np.diff(u))))
            assert grid[cell] <= jump.tau_d <= grid[cell + 1]
            np.testing.assert_allclose(np.diff(u)[cell], jump.height, atol=5e-3)

    @pytest.mark.parametrize("q", [0, 1])
    def test_theta_batch_equals_lone_calls(self, baseline, irregular_config, q):
        """Every field and jump of a theta array's curves is its lone
        theta's, bit for bit, on both sides of theta_beta: tau_d1 is there
        below it and absent above."""
        for config in (baseline, irregular_config):
            thetas = classify_environment(config).theta_beta + np.array([-1.5, -0.2, 0.3, 2.0])
            lo, hi = clamped_tau_interval(config.payoffs)
            taus = np.linspace(lo, hi, 41)
            critical = find_critical_prejudices(config, thetas)
            assert [d is None for d in critical[0]] == [False, False, True, True]
            batch = regret_curve(config, thetas, q, taus, critical)
            assert batch.score.shape == (4, 2, 41)
            assert batch.theta.tolist() == thetas.tolist()
            for i, theta in enumerate(thetas.tolist()):
                lone = regret_curve(config, theta, q, taus,
                                    find_critical_prejudices(config, theta))
                assert lone.score.shape == (2, 41)
                assert batch.tau.tobytes() == lone.tau.tobytes()
                for name in ("score", "n_ex_ante", "accepted", "p_ex_post", "u"):
                    ours, theirs = getattr(batch, name)[i], getattr(lone, name)
                    assert ours.dtype == theirs.dtype
                    assert ours.tobytes() == theirs.tobytes(), name
                assert batch.jumps[i] == lone.jumps

    def test_curve_values_recompose_from_scalars(self, baseline):
        taus = np.linspace(-0.8, 0.8, 9)
        curves = regret_curve(baseline, 0.4, 1, taus, find_critical_prejudices(baseline, 0.4))
        for k, score_fn in enumerate((score_s1, score_s2)):
            for j, tau in enumerate(taus):
                s = float(score_fn(baseline, 0.4, tau))
                rec = individual_regret(baseline.payoffs, s, 1)
                np.testing.assert_allclose(curves.score[k][j], s, rtol=1e-14)
                np.testing.assert_allclose(curves.u[k][j], rec.u, rtol=1e-12)


def scipy_expected_regret(config, algo, tau, accepted: set) -> float:
    """E[u] by scipy.integrate.quad over the means +/- 10 sd, split where
    the acceptance indicator flips; adds who is accepted to ``accepted``."""
    payoffs = config.payoffs
    pi = payoffs.pi
    sd = config.signal.sigma_theta
    mu_q = config.signal.mu_q[0]
    mu_u = config.signal.mu_u[0]
    lo = min(mu_q, mu_u) - 10.0 * sd
    hi = max(mu_q, mu_u) + 10.0 * sd
    score_fn = score_s1 if algo == "s1" else score_s2

    def integrand(theta):
        s = float(score_fn(config, theta, tau))
        n = s * payoffs.x_q - (1 - s) * payoffs.x_u
        f_q = pi * norm.pdf(theta, mu_q, sd)
        f_u = (1 - pi) * norm.pdf(theta, mu_u, sd)
        if n > payoffs.c:
            return n * (f_q + f_u) - (f_q * payoffs.x_q - f_u * payoffs.x_u)
        return n * (f_q + f_u)

    def excess(theta):
        s = np.asarray(score_fn(config, theta, tau))
        return s * payoffs.x_q - (1 - s) * payoffs.x_u - payoffs.c

    # the acceptance indicator flips at most once in theta
    if excess(lo) > 0 or excess(hi) <= 0:
        edges = [lo, hi]
        accepted.add("everyone" if excess(lo) > 0 else "no one")
    else:
        edges = [lo, bisect_monotone(excess, lo, hi).root, hi]
        accepted.add("upper tail")
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        piece, err = quad(integrand, a, b, limit=300)
        assert err < 1e-7
        total += piece
    return total


# =====================================================================
# Scalar oracle: expected_regret one tau at a time, with the scalar twin
# of the root loop, s1's own panel heap and s2's closed form, as the
# package computes them
# =====================================================================

_GL_COARSE = np.polynomial.legendre.leggauss(20)
_GL_FINE = np.polynomial.legendre.leggauss(40)
_GL_BOTH = np.concatenate([_GL_COARSE[0], _GL_FINE[0]])

# WEAK_GAMMA_DOC at index 30 of its 41 clamped-grid taus: one of the 39
# where s1's eight initial panels miss the tolerance and get refined
REFINING = ("s1", 0.49999899999999997)


def _scalar_integral(f, a: float, b: float, tol: float, max_panels: int):
    """(integral, panels): 20/40-node Gauss-Legendre on 8 panels of [a, b],
    summed in panel order; or, when their error estimates sum to tol or
    more, halving the worst panel on a heap until they sum below it."""
    def panels(lefts, rights) -> list:
        lefts, rights = np.array(lefts), np.array(rights)
        half = 0.5 * (rights - lefts)
        values = f(0.5 * (lefts + rights)[:, None] + half[:, None] * _GL_BOTH)
        coarse = half * (values[:, :20] @ _GL_COARSE[1])
        fine = half * (values[:, 20:] @ _GL_FINE[1])
        return list(zip((-abs(fine - coarse)).tolist(), lefts.tolist(), rights.tolist(),
                        fine.tolist()))

    edges = np.linspace(a, b, 9)
    initial = panels(edges[:-1], edges[1:])
    if sum(-item[0] for item in initial) < tol:
        return sum(item[3] for item in initial), len(initial)
    heap = []
    for item in initial:
        heapq.heappush(heap, item)
    while -sum(item[0] for item in heap) >= tol:
        if len(heap) >= max_panels:
            raise QuadratureError(f"oracle stalled with {len(heap)} panels")
        _, left, right, _ = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        for item in panels([left, mid], [mid, right]):
            heapq.heappush(heap, item)
    return sum(item[3] for item in heap), len(heap)


def closed_form_acceptance(config, tau):
    """(P_q, P_u), each class's probability that the reviewer accepts at
    tau: the log likelihood ratio w.(theta, gamma) + b is normal in a
    class, with mean w.mu + b and variance w'Sigma w, and must exceed log T."""
    signal = config.signal
    w = np.array(signal.log_ratio_weights)
    log_t = log_acceptance_threshold(config.payoffs, tau)
    return tuple(ndtr((w @ mu + signal.log_ratio_intercept - log_t)
                      / np.sqrt(w @ signal.covariance @ w))
                 for mu in (signal.mu_q, signal.mu_u))


def oracle_expected_regret(config, algo, tau: float, tol=1e-8, max_panels=200):
    """(E[u], who is accepted, panels) at one tau: E[N(s)], minus the
    closed-form accepted payoff above the acceptance breakpoint.  For s1,
    E[N(s1)] is the integral of N(s1) times the mixture density over
    ``panels`` panels; for s2 it is N of the closed-form acceptance rate,
    with no panels."""
    payoffs = config.payoffs
    pi, beta = payoffs.pi, payoffs.beta
    sd = config.signal.sigma_theta
    mu_q, mu_u = config.signal.mu_q[0], config.signal.mu_u[0]
    lo, hi = min(mu_q, mu_u) - 10.0 * sd, max(mu_q, mu_u) + 10.0 * sd
    score_fn = score_s1 if algo == "s1" else score_s2

    def pdf(x, mean):
        z = (x - mean) / sd
        return np.exp(-0.5 * z * z) * (1.0 / np.sqrt(2.0 * np.pi) / sd)

    def integrand(theta):
        s = score_fn(config, theta, tau)
        n = s * payoffs.x_q - (1.0 - s) * payoffs.x_u
        return n * (pi * pdf(theta, mu_q) + (1.0 - pi) * pdf(theta, mu_u))

    def gap(theta):
        return score_fn(config, theta, tau) - beta

    if gap(lo) > 0.0:
        breakpoint_theta, accepted = lo, "everyone"
    elif gap(hi) <= 0.0:
        breakpoint_theta, accepted = hi, "no one"
    else:
        breakpoint_theta, accepted = scalar_root(gap, lo, hi), "upper tail"

    def mass(mean):
        return float(ndtr((hi - mean) / sd) - ndtr((breakpoint_theta - mean) / sd))

    if algo == "s1":
        integral, panels = _scalar_integral(integrand, lo, hi, tol, max_panels)
    else:
        p_q, p_u = closed_form_acceptance(config, tau)
        rate = pi * p_q + (1.0 - pi) * p_u
        integral, panels = rate * payoffs.x_q - (1.0 - rate) * payoffs.x_u, 0
    expected_p = payoffs.x_q * pi * mass(mu_q) - payoffs.x_u * (1.0 - pi) * mass(mu_u)
    return float(integral - expected_p), accepted, panels


def mp_expected_regret_s1(config, tau: float, mp):
    """E[u(s1)] at one tau to 30 digits, with ``mp`` mpmath's context: the
    model rebuilt in mpmath from the config's fields, its integral of
    N(s1) times the mixture density by ``mp.quad`` over the package's 9
    double edges, less E[p] above a breakpoint bisected to 30 digits.

    Where the theta step over which a class's z-score moves by one is under
    1/512 of the range, points are added around the crossing of the cutoff
    and each class's gamma mean, up to 8 steps out: on WEAK_GAMMA_DOC the
    step is 1e-3, and tanh-sinh over the 8 panels alone misses the
    integral there by ~1e-6."""
    with mp.workdps(30):
        payoffs, signal = config.payoffs, config.signal
        pi, x_q, x_u, c, tau, sd_theta, sd_gamma, rho = map(mp.mpf, (
            payoffs.pi, payoffs.x_q, payoffs.x_u, payoffs.c, tau,
            signal.sigma_theta, signal.sigma_gamma, signal.rho))
        means = [[mp.mpf(v) for v in mu] for mu in (signal.mu_q, signal.mu_u)]
        beta = (x_u + c) / (x_q + x_u)
        det = (sd_theta * sd_gamma) ** 2 * (1 - rho**2)
        inv = mp.matrix([[sd_gamma**2, -rho * sd_theta * sd_gamma],
                         [-rho * sd_theta * sd_gamma, sd_theta**2]]) / det
        mu_q, mu_u = (mp.matrix(mu) for mu in means)
        w = inv * (mu_q - mu_u)
        b = -((mu_q.T * inv * mu_q)[0] - (mu_u.T * inv * mu_u)[0]) / 2
        log_t = mp.log((1 - pi) * (x_u + tau)) - mp.log(pi * (x_q - tau))
        slope = rho * sd_gamma / sd_theta  # of gamma's conditional mean in theta
        sd = sd_gamma * mp.sqrt(1 - rho**2)

        def s1_and_mixture(theta):
            cutoff = (log_t - b - w[0] * theta) / w[1]
            dens = [pk * mp.npdf(theta, mu[0], sd_theta)
                    for pk, mu in ((pi, means[0]), (1 - pi, means[1]))]
            tails = [d * mp.ncdf((mu[1] + slope * (theta - mu[0]) - cutoff) / sd)
                     for d, mu in zip(dens, means)]
            return tails[0] / (tails[0] + tails[1]), dens[0] + dens[1]

        def integrand(theta):
            s1, mixture = s1_and_mixture(theta)
            return (s1 * x_q - (1 - s1) * x_u) * mixture

        lo = min(signal.mu_q[0], signal.mu_u[0]) - 10.0 * signal.sigma_theta
        hi = max(signal.mu_q[0], signal.mu_u[0]) + 10.0 * signal.sigma_theta
        edges = [mp.mpf(e) for e in np.linspace(lo, hi, 9)]
        rate = slope + w[0] / w[1]  # of the cutoff's gap to a class's gamma mean
        step = sd / rate  # the theta step that moves a z-score by one
        crossings = [((log_t - b) / w[1] - mu[1] + slope * mu[0]) / rate for mu in means]
        points = sorted(set(edges) | {
            x for cross in crossings for j in (-8, -4, -2, -1, 0, 1, 2, 4, 8)
            if step < (hi - lo) / 512 and edges[0] < (x := cross + j * step) < edges[-1]})
        integral = mp.quad(integrand, points)

        def gap(theta):
            return s1_and_mixture(theta)[0] - beta

        left, right = edges[0], edges[-1]
        if gap(left) > 0:
            point = left
        elif gap(right) <= 0:
            point = right
        else:
            for _ in range(110):  # 2**-110 of the range: past 30 digits
                mid = (left + right) / 2
                left, right = (left, mid) if gap(mid) > 0 else (mid, right)
            point = left
        mass_q, mass_u = (mp.ncdf((edges[-1] - mu[0]) / sd_theta)
                          - mp.ncdf((point - mu[0]) / sd_theta) for mu in means)
        return integral - (x_q * pi * mass_q - x_u * (1 - pi) * mass_u)


class TestExpectedRegret:
    def test_reference_values(self, baseline):
        s1, s2 = expected_regret(baseline, 0.0)
        np.testing.assert_allclose(s1, 0.5459524011, atol=2e-8)
        np.testing.assert_allclose(s2, -0.3829867601, atol=2e-8)
        assert type(s1) is float and type(s2) is float

    def test_matches_scipy_quadrature(self, baseline, irregular_config, random_table):
        """Dual route: scipy's adaptive quadrature of u = N(s) - p itself,
        split at the acceptance breakpoint, with the class means and sd read
        from the config.  The taus include one next to each clamp edge,
        where the rule accepts everyone or no one."""
        for config in (baseline, irregular_config, random_table[2].config):
            accepted = set()
            for tau in np.linspace(*clamped_tau_interval(config.payoffs), 5):
                for algo, value in zip(("s1", "s2"), expected_regret(config, tau)):
                    np.testing.assert_allclose(
                        value, scipy_expected_regret(config, algo, tau, accepted), atol=5e-8,
                    )
            assert accepted == {"everyone", "no one", "upper tail"}

    def test_gap_is_difference_of_expectations(self, baseline):
        u1, u2 = expected_regret(baseline, 0.1)
        assert expected_regret_gap(baseline, 0.1) == u2 - u1

    def test_quadrature_error_when_budget_too_small(self, baseline, monkeypatch):
        monkeypatch.setattr(regret, "QUAD_TOL", 0.0)
        monkeypatch.setattr(regret, "MAX_PANELS", 4)
        with pytest.raises(QuadratureError, match="panel"):
            expected_regret(baseline, 0.0)

    def test_quadrature_error_inside_a_batch(self, baseline, monkeypatch):
        monkeypatch.setattr(regret, "QUAD_TOL", 0.0)
        monkeypatch.setattr(regret, "MAX_PANELS", 4)
        with pytest.raises(QuadratureError, match="panel"):
            expected_regret(baseline, np.array([-0.5, 0.0, 0.5]))

    def test_batch_equals_scalar_oracle_bit_for_bit(
        self, baseline, irregular_config, random_table
    ):
        """Both rows of one batched call against the oracle, one tau at a
        time.  Nine taus per config span the clamped interval, so their edges
        accept everyone or no one, and the weak-gamma config, with REFINING's
        tau added, has s1's panels refined."""
        weak_gamma = ModelConfig.from_dict(WEAK_GAMMA_DOC)
        configs = [baseline, irregular_config, weak_gamma] + [r.config for r in random_table]
        seen, refined = set(), 0
        for config in configs:
            taus = np.linspace(*clamped_tau_interval(config.payoffs), 9)
            if config is weak_gamma:
                taus = np.append(taus, REFINING[1])
            batch = expected_regret(config, taus)
            assert len(batch) == 2
            for algo, row in zip(("s1", "s2"), batch):
                assert row.shape == taus.shape
                for tau, value in zip(taus.tolist(), row.tolist()):
                    exact, accepted, panels = oracle_expected_regret(config, algo, tau)
                    assert value == exact, (algo, tau)
                    seen.add(accepted)
                    refined += panels > 8
        assert seen == {"everyone", "no one", "upper tail"}
        assert refined >= 1

    def test_bisected_breakpoints_move_the_averages_little(
        self, baseline, irregular_config, monkeypatch
    ):
        """Second route for the breakpoints of a 400-tau grid: a scalar
        bisection to adjacent floats at each tau, in place of the root loop.
        The two differ only by which float of the gap's rounding noise each
        search ends on; the bound is the largest move measured (on
        irregular's s1)."""
        for config in (baseline, irregular_config):
            signal, beta = config.signal, config.payoffs.beta
            sd, means = signal.sigma_theta, (signal.mu_q[0], signal.mu_u[0])
            lo, hi = min(means) - 10.0 * sd, max(means) + 10.0 * sd
            taus = np.linspace(*clamped_tau_interval(config.payoffs), 400)
            calls = []

            def bisected(f, a, b):
                k = len(calls)  # one call per score, in ALGOS order
                calls.append(k)
                s_lo, s_hi = (score_pair(config, theta, taus)[k] for theta in (lo, hi))
                inner = taus[~(s_lo - beta > 0.0) & ~(s_hi - beta <= 0.0)]
                assert a.shape == inner.shape
                return types.SimpleNamespace(root=np.array([scalar_bisect(
                    lambda theta: float(score_pair(config, theta, tau)[k]) - beta, lo, hi
                ) for tau in inner.tolist()]))

            looped = expected_regret(config, taus)
            monkeypatch.setattr(regret, "bisect_monotone_many", bisected)
            for row, other in zip(looped, expected_regret(config, taus)):
                np.testing.assert_allclose(row, other, rtol=0.0, atol=6.5e-15)
            monkeypatch.undo()
            assert calls == [0, 1]

    def test_scalar_tau_gives_float(self):
        algo, tau = REFINING
        config = ModelConfig.from_dict(WEAK_GAMMA_DOC)
        values = expected_regret(config, tau)
        assert [type(v) for v in values] == [float, float]
        value = values[("s1", "s2").index(algo)]
        exact, _, panels = oracle_expected_regret(config, algo, tau)
        assert value == exact and panels > 8

    def test_lone_tau_equals_grid_bit_for_bit(self, baseline, irregular_config):
        """Both rows at a lone tau are that tau's values inside a grid, at
        both clamp edges and at the weak-gamma taus where s1 is refined."""
        weak_gamma = ModelConfig.from_dict(WEAK_GAMMA_DOC)
        for config in (baseline, irregular_config, weak_gamma):
            taus = np.linspace(*clamped_tau_interval(config.payoffs), 41)
            grid = expected_regret(config, taus)
            for j, tau in enumerate(taus.tolist()):
                assert expected_regret(config, tau) == (grid[0][j], grid[1][j]), tau

    @pytest.mark.parametrize("route", ["n_of_s2", "s1_times_s2"])
    def test_quadrature_matches_closed_forms(
        self, baseline, irregular_config, random_table, route
    ):
        """Second routes for the closed form and for s1's integrand: the
        kernel's quadrature of N(s2) times the mixture density is N of the
        acceptance rate, and that of s1*s2 = P(q = 1, accepted | theta) is
        pi*P_q(accepted), within QUAD_TOL on 41 clamped taus per config."""
        configs = [baseline, irregular_config, ModelConfig.from_dict(WEAK_GAMMA_DOC)]
        for config in configs + [record.config for record in random_table]:
            payoffs, signal = config.payoffs, config.signal
            pi, sd = payoffs.pi, signal.sigma_theta
            means = (signal.mu_q[0], signal.mu_u[0])
            taus = np.linspace(*clamped_tau_interval(payoffs), 41)

            def integrand(theta, tau):
                s1, s2 = score_pair(config, theta, tau)
                mixture = (pi * norm.pdf(theta, means[0], sd)
                           + (1.0 - pi) * norm.pdf(theta, means[1], sd))
                if route == "n_of_s2":
                    return (s2 * payoffs.x_q - (1.0 - s2) * payoffs.x_u) * mixture
                return s1 * s2 * mixture

            p_q, p_u = closed_form_acceptance(config, taus)
            rate = pi * p_q + (1.0 - pi) * p_u
            exact = (rate * payoffs.x_q - (1.0 - rate) * payoffs.x_u
                     if route == "n_of_s2" else pi * p_q)
            lo, hi = min(means) - 10.0 * sd, max(means) + 10.0 * sd
            got = regret._integrate(integrand, lo, hi, taus)
            np.testing.assert_allclose(got, exact, rtol=0.0, atol=regret.QUAD_TOL)

    def test_empty_tau_gives_empty_rows(self, baseline):
        """An empty tau array raised numpy's reshape ValueError."""
        rows = expected_regret(baseline, np.array([]))
        assert [row.shape for row in rows] == [(0,), (0,)]

    def test_rejects_two_dimensional_tau(self, baseline):
        with pytest.raises(DomainError, match="1-D"):
            expected_regret(baseline, np.zeros((2, 2)))

    def test_unsupported_when_phi_not_increasing(self):
        config = ModelConfig.from_dict(NONMONOTONE_PHI_DOC)
        with pytest.raises(UnsupportedModelError):
            expected_regret(config, 0.0)

    def test_s1_average_matches_a_30_digit_route(self, baseline, irregular_config,
                                                  monkeypatch):
        """E[u(s1)] against ``mp_expected_regret_s1`` at four taus of
        baseline and irregular, whose eight panels meet the tolerance, and
        at two weak-gamma taus that refine.  The bounds are the measured
        errors, rounded up: 8.5e-16 over the first eight, and 4.2e-10 and
        5.5e-11 at the refining taus, whose panels stop once their error
        estimates sum below QUAD_TOL = 1e-8."""
        mp = pytest.importorskip("mpmath").mp
        refined = []
        refine = regret._refine

        def counting(f, tau, panels):
            refined.append(tau)
            return refine(f, tau, panels)

        monkeypatch.setattr(regret, "_refine", counting)
        weak_gamma = ModelConfig.from_dict(WEAK_GAMMA_DOC)
        taus = np.linspace(*clamped_tau_interval(weak_gamma.payoffs), 41)[[5, 30]]
        assert taus[1] == REFINING[1]
        cases = [(config, tau, 1e-15) for config in (baseline, irregular_config)
                 for tau in (-0.9, -0.4, 0.0, 0.6)]
        cases += [(weak_gamma, tau, 5e-10) for tau in taus]
        for config, tau, bound in cases:
            refined.clear()
            got = expected_regret(config, tau)[0]
            assert bool(refined) == (config is weak_gamma), tau
            error = abs(mp.mpf(got) - mp_expected_regret_s1(config, tau, mp))
            assert error <= bound, (tau, error)
