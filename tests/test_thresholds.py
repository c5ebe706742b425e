"""Distinguished prejudice levels: the equalizing level, the two critical
levels, regret-curve crossings, and the population indifference level."""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from screenlab import (
    DomainError,
    EndpointResolutionError,
    InconclusiveResolutionError,
    ModelConfig,
    ScreeningError,
    clamped_tau_interval,
    expected_regret_gap,
    find_critical_prejudices,
    find_regret_crossings,
    find_tau_bar,
    find_tau_star,
    marginal_posterior_phi,
    regret_curve,
    score_s1,
    score_s2,
    threshold_report,
)
import screenlab
from screenlab import scores, thresholds
from screenlab.thresholds import CONFIRM_GRID, _crossings, _sampled_losses
from conftest import (
    BASELINE_DOC, FLAT_THETA_DOC, IRREGULAR_DOC, baseline_theta_grid,
    scalar_bisect, scalar_root, split_passes,
)


class TestEqualizingPrejudice:
    def test_reference_value(self, baseline):
        np.testing.assert_allclose(
            find_tau_star(baseline, 0.0), -0.46857276580209095, atol=1e-12
        )

    def test_scores_coincide_at_root(self, baseline):
        for theta in baseline_theta_grid(9):
            tau = find_tau_star(baseline, float(theta))
            s1 = float(score_s1(baseline, theta, tau))
            s2 = float(score_s2(baseline, theta, tau))
            assert abs(s1 - s2) < 1e-10

    def test_sign_pattern_around_root(self, baseline):
        """s1 < s2 below the equalizing level, s1 > s2 above it."""
        tau = find_tau_star(baseline, 0.0)
        below = float(score_s1(baseline, 0.0, tau - 0.1)) - float(
            score_s2(baseline, 0.0, tau - 0.1)
        )
        above = float(score_s1(baseline, 0.0, tau + 0.1)) - float(
            score_s2(baseline, 0.0, tau + 0.1)
        )
        assert below < 0 < above

    def test_grid_scan_agrees(self, baseline):
        """Independent route: scan a fine grid for the sign change."""
        lo, hi = clamped_tau_interval(baseline.payoffs)
        taus = np.linspace(lo, hi, 20_001)
        diff = np.asarray(score_s1(baseline, 0.5, taus)) - np.asarray(
            score_s2(baseline, 0.5, taus)
        )
        flips = np.nonzero(np.diff(np.sign(diff)) != 0)[0]
        assert len(flips) == 1
        root = find_tau_star(baseline, 0.5)
        assert taus[flips[0]] <= root <= taus[flips[0] + 1]

    def test_far_tail_theta_raises_endpoint_error(self, baseline):
        """At theta=50 both scores are exactly 1.0 across the clamped
        interval: every tau equalizes them, so the clamp edge is no answer."""
        for theta in (-30.0, 50.0):
            with pytest.raises(EndpointResolutionError):
                find_tau_star(baseline, theta)


class TestCriticalPrejudices:
    def test_reference_values(self, baseline):
        d1, d2 = find_critical_prejudices(baseline, 0.0)
        np.testing.assert_allclose(d1, -0.35986836698867297, atol=1e-12)
        np.testing.assert_allclose(d2, -0.5124846463145134, atol=1e-12)

    def test_scores_meet_beta_at_roots(self, baseline):
        d1, d2 = find_critical_prejudices(baseline, 0.0)
        beta = baseline.beta
        assert abs(float(score_s1(baseline, 0.0, d1)) - beta) < 1e-10
        assert abs(float(score_s2(baseline, 0.0, d2)) - beta) < 1e-10

    def test_d1_absent_iff_phi_at_or_above_beta(self, baseline):
        for theta in baseline_theta_grid(15):
            phi = float(marginal_posterior_phi(baseline, theta))
            d1, _ = find_critical_prejudices(baseline, float(theta))
            assert (d1 is None) == (phi >= baseline.beta)

    def test_report_composes_everything(self, baseline):
        report = threshold_report(baseline, 0.0)
        assert report.ordering == "d2<d1"
        assert not report.knife_edge
        np.testing.assert_allclose(report.equalized_score, 0.458275772936962, atol=1e-9)
        assert report.tau_d2 < report.tau_star < report.tau_d1

    def test_ordering_flips_with_equalized_score(self, baseline):
        """The ordering of the two critical levels is decided by whether
        the equalized score sits below or above beta; sweep c to see both."""
        seen = set()
        for c in (-0.4, -0.2, 0.0, 0.2):
            config = ModelConfig.from_dict({**BASELINE_DOC, "c": c})
            report = threshold_report(config, 0.0)
            if report.tau_d1 is None:
                continue
            seen.add(report.ordering)
            below = report.equalized_score < config.beta
            assert (report.tau_d1 > report.tau_d2) == below
        assert {"d1<d2", "d2<d1"} <= seen

    def test_tuned_cutoff_makes_critical_levels_coincide(self, baseline):
        """Choosing c so that beta equals the equalized score forces both
        critical levels onto the equalizing level."""
        for theta in (-0.5, 0.0, 0.8):
            tau_star = find_tau_star(baseline, theta)
            s_star = float(score_s1(baseline, theta, tau_star))
            payoffs = baseline.payoffs
            tuned_c = s_star * (payoffs.x_q + payoffs.x_u) - payoffs.x_u
            tuned = ModelConfig.from_dict({**BASELINE_DOC, "c": tuned_c})
            d1, d2 = find_critical_prejudices(tuned, theta)
            assert d1 is not None
            assert abs(d1 - d2) < 1e-8
            assert abs(d1 - tau_star) < 1e-8

    def test_knife_edge_flagged(self):
        """With a symmetric prior and cutoff, phi equals beta exactly at
        the signal midpoint; the first critical level is absent there."""
        config = ModelConfig.from_dict({**BASELINE_DOC, "pi": 0.5})
        theta_mid = config.signal.theta_midpoint
        assert float(marginal_posterior_phi(config, theta_mid)) == config.beta
        report = threshold_report(config, float(theta_mid))
        assert report.knife_edge
        assert report.tau_d1 is None


class TestRegretCrossings:
    def test_unqualified_always_crosses_once_at_tau_star(self, baseline):
        for theta in (-1.0, 0.0, 1.5):
            report = find_regret_crossings(baseline, theta, 0)
            assert report.case_label == "unqualified"
            assert len(report.crossings) == 1
            np.testing.assert_allclose(
                report.crossings[0], find_tau_star(baseline, theta), atol=1e-8
            )

    def test_engineered_three_crossing_case(self, engineered):
        report = find_regret_crossings(engineered, 0.0, 1)
        assert report.case_label == "case-1"
        np.testing.assert_allclose(
            report.crossings,
            [-0.8659277598267762, -0.2028591487031362, 0.908976592983954],
            atol=1e-10,
        )

    def test_engineered_two_crossing_case(self, engineered):
        report = find_regret_crossings(engineered, 0.35, 1)
        assert report.case_label == "case-2"
        np.testing.assert_allclose(
            report.crossings,
            [-0.058202033224790284, 1.0228816697477456],
            atol=1e-10,
        )

    def test_crossings_verified_by_fine_scan(self, engineered):
        """Independent route: count sign changes of the regret gap on a
        fine grid, skipping the two payoff-jump cells."""
        from screenlab import individual_regret

        payoffs = engineered.payoffs
        lo, hi = clamped_tau_interval(payoffs)
        taus = np.linspace(lo, hi, 40_001)
        s1 = np.asarray(score_s1(engineered, 0.0, taus))
        s2 = np.asarray(score_s2(engineered, 0.0, taus))
        u1 = np.array([individual_regret(payoffs, s, 1).u for s in s1])
        u2 = np.array([individual_regret(payoffs, s, 1).u for s in s2])
        gap = u1 - u2
        beta = payoffs.beta
        jump_cell = (np.diff(np.sign(s1 - beta)) != 0) | (
            np.diff(np.sign(s2 - beta)) != 0
        )
        flips = (np.diff(np.sign(gap)) != 0) & ~jump_cell
        assert int(flips.sum()) == 3

    def test_boundary_flag_set_when_crossing_hugs_jump(self, engineered):
        reports = [find_regret_crossings(engineered, t, 1) for t in (0.0, 0.35)]
        assert all(not any(r.boundary_flags) for r in reports)


def root_gaps(config, theta: float) -> dict:
    """The gap whose root on the clamped interval is tau_star, tau_d1 and
    tau_d2 of a lone theta, by report field."""
    beta = config.payoffs.beta
    return {
        "tau_star": lambda t: score_s1(config, theta, t) - score_s2(config, theta, t),
        "tau_d1": lambda t: score_s1(config, theta, t) - beta,
        "tau_d2": lambda t: score_s2(config, theta, t) - beta,
    }


class TestThetaBatch:
    """Every per-theta root over a theta vector, one batch root search per kind."""

    def test_batch_matches_a_scalar_bisection(self, baseline, engineered):
        """Dual route: tau_star and both critical prejudices of each theta by
        the test suite's scalar twin of the root loop, bit for bit."""
        for config in (baseline, engineered):
            lo, hi = clamped_tau_interval(config.payoffs)
            beta = config.payoffs.beta
            thetas = np.linspace(-2.0, 2.0, 9)
            reports = threshold_report(config, thetas)
            star = find_tau_star(config, thetas)
            d1, d2 = find_critical_prejudices(config, thetas)
            for i, theta in enumerate(thetas.tolist()):
                gaps = root_gaps(config, theta)
                assert reports[i].theta == theta
                assert star[i] == reports[i].tau_star == scalar_root(gaps["tau_star"], lo, hi)
                assert d2[i] == reports[i].tau_d2 == scalar_root(gaps["tau_d2"], lo, hi)
                if float(marginal_posterior_phi(config, theta)) >= beta:
                    assert d1[i] is None and reports[i].tau_d1 is None
                else:
                    assert d1[i] == reports[i].tau_d1 == scalar_root(gaps["tau_d1"], lo, hi)

    def test_roots_stay_near_a_scalar_bisection(self, baseline, irregular_config):
        """Second route: bisection to adjacent floats, at 61 thetas.  The
        roots differ only by which float of the gap's rounding noise each
        search ends on; the bounds are the largest moves measured.  tau_d1
        moved most (181 ulps at theta=26/15 on baseline, where s1 - beta is
        exactly 0.0 on both roots and its slope is 0.005)."""
        moved = {"tau_star": 2.3e-16, "tau_d1": 2.1e-14, "tau_d2": 3.9e-16}
        for config in (baseline, irregular_config):
            lo, hi = clamped_tau_interval(config.payoffs)
            thetas = np.linspace(-2.0, 2.0, 61)
            for theta, report in zip(thetas.tolist(), threshold_report(config, thetas)):
                for field, gap in root_gaps(config, theta).items():
                    root = getattr(report, field)
                    if root is not None:
                        assert abs(root - scalar_bisect(gap, lo, hi)) <= moved[field], field

    def test_batch_reports_equal_lone_reports(self, engineered):
        thetas = [-0.5, 0.0, 0.35, 1.2]
        reports = threshold_report(engineered, np.array(thetas))
        for theta, report in zip(thetas, reports):
            assert report == threshold_report(engineered, theta)
            assert report.crossings_q0 == find_regret_crossings(engineered, theta, 0)
            assert report.crossings_q1 == find_regret_crossings(engineered, theta, 1)
        assert [len(r.crossings_q1.crossings) for r in reports[1:3]] == [3, 2]
        for q in (0, 1):
            batch = find_regret_crossings(engineered, np.array(thetas), q)
            assert batch == [getattr(r, f"crossings_q{q}") for r in reports]

    @given(data=st.data())
    @settings(deadline=None, max_examples=30, derandomize=True)
    def test_batch_invariance(self, random_table, data):
        """Generated property: over baseline, irregular and the 50 frozen
        configs and 1-9 thetas from each config's standard theta range,
        every batched root equals its lone call bit for bit, and a permuted
        batch returns the permuted results."""
        k = data.draw(st.integers(0, len(random_table) + 1), label="config")
        if k < 2:
            config = ModelConfig.from_dict((BASELINE_DOC, IRREGULAR_DOC)[k])
            signal, pi = config.signal, config.payoffs.pi
            shift = signal.mu_q[0] - signal.mu_u[0]
            mean = signal.mu_u[0] + pi * shift
            sd = float(np.sqrt(signal.sigma_theta**2 + pi * (1.0 - pi) * shift**2))
            lo, hi = mean - 2.5 * sd, mean + 2.5 * sd
        else:
            record = random_table[k - 2]
            config, lo, hi = record.config, record.theta_grid[0], record.theta_grid[-1]
        thetas = data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=9), label="thetas")
        order = data.draw(st.permutations(range(len(thetas))), label="order")

        def batched(thetas):
            thetas = np.array(thetas)
            return (find_tau_star(config, thetas).tolist(),
                    list(zip(*find_critical_prejudices(config, thetas))),
                    find_regret_crossings(config, thetas, 0),
                    find_regret_crossings(config, thetas, 1),
                    threshold_report(config, thetas))

        def bits(value):
            if isinstance(value, float):
                return value.hex()
            if dataclasses.is_dataclass(value):
                value = dataclasses.astuple(value)
            return [bits(v) for v in value] if isinstance(value, (tuple, list)) else value

        whole = batched(thetas)
        lone = [[f(config, t) for t in thetas] for f in (
            find_tau_star, find_critical_prejudices,
            lambda c, t: find_regret_crossings(c, t, 0),
            lambda c, t: find_regret_crossings(c, t, 1), threshold_report)]
        assert bits(whole) == bits(lone)
        assert bits(batched([thetas[i] for i in order])) == bits(
            [[field[i] for i in order] for field in whole])

    def test_error_names_the_offending_theta(self, baseline):
        with pytest.raises(EndpointResolutionError, match="theta=50.0"):
            find_tau_star(baseline, np.array([0.0, 0.5, 50.0]))

    def test_empty_theta_gives_empty_results(self, baseline):
        empty = np.array([])
        assert find_tau_star(baseline, empty).shape == (0,)
        assert find_critical_prejudices(baseline, empty) == ([], [])
        assert find_regret_crossings(baseline, empty, 0) == []
        assert find_regret_crossings(baseline, empty, 1) == []
        assert threshold_report(baseline, empty) == []
        curves = regret_curve(baseline, empty, 1, np.linspace(-0.5, 0.5, 7), ([], []))
        for values in (curves.score, curves.n_ex_ante, curves.accepted,
                       curves.p_ex_post, curves.u):
            assert values.shape == (0, 2, 7)
        assert curves.jumps == ()

    @pytest.mark.parametrize("name,extra", [
        ("find_tau_star", ()), ("find_critical_prejudices", ()),
        ("find_regret_crossings", (1,)), ("threshold_report", ()),
        ("regret_curve", (1, [0.0], ([None, None], [0.0, 0.0]))),
    ])
    def test_two_dimensional_theta_is_a_domain_error(self, baseline, name, extra):
        with pytest.raises(DomainError, match="theta must be a scalar or a 1-D array"):
            getattr(screenlab, name)(baseline, np.zeros((2, 2)), *extra)


class TestOneCutoffPerGap:
    """Each value of the score gap and of the regret-crossing gap scores
    both algorithms from one cutoff, so one log T(tau) per value."""

    @staticmethod
    def spy(monkeypatch) -> dict:
        calls = {"log_t": 0, "gap": 0}
        log_t, bisect_many = scores.log_acceptance_threshold, thresholds.bisect_monotone_many

        def counted_log_t(*args):
            calls["log_t"] += 1
            return log_t(*args)

        def counted_bisect(f, lo, hi):
            def gap(tau):
                calls["gap"] += 1
                return f(tau)
            return bisect_many(gap, lo, hi)

        monkeypatch.setattr(scores, "log_acceptance_threshold", counted_log_t)
        monkeypatch.setattr(thresholds, "bisect_monotone_many", counted_bisect)
        return calls

    def test_find_tau_star(self, engineered, monkeypatch):
        calls = self.spy(monkeypatch)
        for theta in (0.3, np.linspace(-2.0, 2.0, 5)):
            calls.update(log_t=0, gap=0)
            find_tau_star(engineered, theta)
            assert calls["gap"] > 0 and calls["log_t"] == calls["gap"]

    def test_regret_crossings(self, engineered, monkeypatch):
        thetas = np.array([0.0, 0.35, 1.0])  # three, two and one crossings
        critical = find_critical_prejudices(engineered, thetas)
        calls = self.spy(monkeypatch)
        _crossings(engineered, thetas, 1, *critical)
        # the gap at the ends of every cell takes two values before the bisection
        assert calls["gap"] > 0 and calls["log_t"] == 2 + calls["gap"]


class TestTauBar:
    def test_analytic_reference_value(self, baseline):
        result = find_tau_bar(baseline, "analytic")
        assert result.mode == "analytic"
        # Brent's gap values, both ends included; bisection took ~34
        assert result.passes <= 15
        np.testing.assert_allclose(result.value, -0.4086591074919251, atol=1e-7)

    def test_analytic_root_within_xtol_of_the_sign_change(self, baseline, random_table):
        """Second route, without Brent's code: D falls strictly, so a sign
        change across root -/+ xtol puts the root within xtol of it."""
        for config in [baseline] + [r.config for r in random_table
                                    if r.classification == "regular"]:
            root = find_tau_bar(config, "analytic").value
            xtol = 1e-10 * (config.payoffs.x_q + config.payoffs.x_u)
            left, right = expected_regret_gap(config, np.array([root - xtol, root + xtol]))
            assert left > 0.0 > right

    def test_analytic_residual_checked(self, baseline, monkeypatch):
        monkeypatch.setattr(thresholds, "TAU_BAR_RESIDUAL_TOL", 0.0)
        with pytest.raises(ScreeningError, match="residual .* exceeds 0.000e"):
            find_tau_bar(baseline, "analytic")

    def test_gap_changes_sign_across_value(self, baseline):
        result = find_tau_bar(baseline, "analytic")
        assert expected_regret_gap(baseline, result.value - 0.05) > 0
        assert expected_regret_gap(baseline, result.value + 0.05) < 0

    def test_irregular_returns_none_with_reason(self, irregular_config):
        result = find_tau_bar(irregular_config, "analytic")
        assert result.value is None
        assert result.reason == "irregular"
        assert result.passes == CONFIRM_GRID

    def test_mc_mode_brackets_analytic_value(self, baseline):
        analytic = find_tau_bar(baseline, "analytic").value
        result = find_tau_bar(baseline, "mc", m=100_000, seed=5)
        assert result.mode == "mc"
        assert type(result.value) is float
        assert type(result.standard_error) is float
        assert abs(result.value - analytic) < 4 * result.standard_error
        # Brent's ~10-15 values, the SE's among them, plus two probes;
        # bisection to the same width took ~28 plus three
        assert result.passes <= 20

    @pytest.mark.parametrize("seed", range(10))
    def test_mc_brent_root_matches_bisection(self, baseline, seed):
        """Second route: bisection on the same sampled gap finds the same
        sign change, to far inside the root's standard error."""
        result = find_tau_bar(baseline, "mc", m=100_000, seed=seed)
        losses = _sampled_losses(baseline, 100_000, seed)
        lo, hi = clamped_tau_interval(baseline.payoffs)
        scale = baseline.payoffs.x_q + baseline.payoffs.x_u
        bisected = scalar_bisect(lambda t: losses(t).mean(), lo, hi, width=1e-8 * scale)
        assert abs(result.value - bisected) <= 1e-3 * result.standard_error

    def test_mc_standard_error_covers_the_bracket(self):
        """Every applicant of a flat-theta config shares one pair of
        scores, so the sampled gap has no spread; the root is still known
        only to Brent's final bracket, and the SE says so."""
        config = ModelConfig.from_dict(FLAT_THETA_DOC)
        result = find_tau_bar(config, "mc", m=20_000, seed=1)
        analytic = find_tau_bar(config, "analytic").value
        assert result.standard_error > 0.0
        assert abs(result.value - analytic) <= result.standard_error

    def test_mc_mode_irregular_detected(self, irregular_config):
        result = find_tau_bar(irregular_config, "mc", m=200_000, seed=5)
        assert result.value is None
        assert result.reason == "irregular"
        assert result.passes == CONFIRM_GRID

    @pytest.mark.parametrize("doc,passes", [(BASELINE_DOC, None), (IRREGULAR_DOC, CONFIRM_GRID)],
                             ids=["regular", "irregular"])
    def test_mc_prices_each_tau_once(self, doc, passes, monkeypatch):
        """Every pass over the population prices a tau not priced before,
        Brent's root included, and ``passes`` counts them."""
        priced = []

        def recorded(*args):
            losses = _sampled_losses(*args)

            def record(tau):
                priced.append(tau)
                return losses(tau)
            return record

        monkeypatch.setattr(thresholds, "_sampled_losses", recorded)
        result = find_tau_bar(ModelConfig.from_dict(doc), "mc", m=20_000, seed=5)
        assert len(set(priced)) == len(priced) == result.passes
        if passes is not None:
            assert result.passes == passes

    @pytest.mark.parametrize("doc", [BASELINE_DOC, IRREGULAR_DOC], ids=["regular", "irregular"])
    def test_mc_mode_needs_two_applicants(self, doc, monkeypatch):
        """m = 1 has a NaN standard error: the regular search failed with
        '3*SE=nan' and the irregular confirmation passed every NaN check."""
        from screenlab import thresholds

        def no_draw(*args, **kwargs):
            raise AssertionError("sampled before checking m")

        monkeypatch.setattr(thresholds, "_draw", no_draw)
        with pytest.raises(DomainError, match="needs m >= 2, got 1"):
            find_tau_bar(ModelConfig.from_dict(doc), "mc", m=1, seed=5)

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**130],
                             ids=["negative", "2**128", "2**130"])
    def test_mc_mode_rejects_a_seed_outside_philox_keys(self, baseline, seed):
        with pytest.raises(DomainError, match=r"seed must lie in \[0, 2\*\*128\)"):
            find_tau_bar(baseline, "mc", m=1000, seed=seed)

    def test_mc_mode_too_small_sample_is_inconclusive(self, baseline):
        with pytest.raises(InconclusiveResolutionError):
            find_tau_bar(baseline, "mc", m=60, seed=5)


class TestSplitPass:
    """A Monte Carlo pass split across threads gives the serial root and the
    serial errors, leaves no thread behind and runs no public function off
    the main thread."""

    @pytest.fixture(autouse=True)
    def no_thread_left(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_root_is_the_same_on_two_threads(self, baseline, monkeypatch, seed):
        results = []
        for parts in (1, 2):
            split_passes(monkeypatch, parts)
            result = find_tau_bar(baseline, "mc", m=20_000, seed=seed)
            results.append((result.value, result.standard_error, result.passes))
        assert results[0] == results[1]

    @pytest.mark.parametrize("spoiled,named", [
        ({100: np.nan}, "nan"),
        ({3_900: np.inf}, "inf"),
        ({100: np.nan, 3_900: np.inf}, "nan"),
    ], ids=["worker-part", "calling-thread-part", "both-parts"])
    def test_failing_part_raises_the_serial_error(self, baseline, monkeypatch, spoiled, named):
        """Of 4,000 applicants in two parts, a worker thread takes the first
        2,000 and the calling thread the rest."""
        draw = thresholds._draw

        def spoiled_draw(*args, **kwargs):
            q, signals = draw(*args, **kwargs)

            def spoiled_signals():
                for part, theta, gamma in signals:
                    for i, value in spoiled.items():
                        if part.start <= i < part.stop:
                            theta[i - part.start] = value
                    yield part, theta, gamma

            return q, spoiled_signals()

        monkeypatch.setattr(thresholds, "_draw", spoiled_draw)
        messages = []
        for parts in (1, 2):
            split_passes(monkeypatch, parts)
            losses = _sampled_losses(baseline, 4_000, seed=3)
            before = threading.active_count()
            with pytest.raises(DomainError, match=f"theta={named} ") as info:
                losses(0.2)
            assert threading.active_count() == before
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_no_public_function_runs_off_the_main_thread(self, baseline, monkeypatch):
        """Every public function of the package, wrapped where it is bound
        as the benchmark's tracer wraps it, is entered on the main thread
        only, while the bound parts do run off it."""
        import screenlab

        modules = [importlib.import_module(f"screenlab.{name}") for name in
                   ("model", "scores", "_roots", "thresholds", "regret", "population", "cli")]
        off_main = []

        def spy(fn, label):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(label)
                return fn(*args, **kwargs)
            return wrapped

        wrappers = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, spy(obj, f"{module.__name__}.{attr}"))
        for module in (screenlab, *modules):
            for attr, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    monkeypatch.setattr(module, attr, wrapper)
        bound_off_main = []
        at_log_t = scores._Scores.at_log_t

        def counted(self, log_t):
            if threading.current_thread() is not threading.main_thread():
                bound_off_main.append(len(self.theta))
            return at_log_t(self, log_t)

        monkeypatch.setattr(scores._Scores, "at_log_t", counted)
        split_passes(monkeypatch, 3)
        result = find_tau_bar(baseline, "mc", m=20_000, seed=1)
        assert off_main == []
        assert len(bound_off_main) == 2 * result.passes
