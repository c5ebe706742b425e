"""Bracketed roots: the safeguarded regula falsi on monotone curves, and
Brent's method."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from screenlab import BracketError, ModelConfig, ScreeningError
from screenlab import (
    clamped_tau_interval, expected_regret, find_tau_bar, find_tau_star, threshold_report,
)
from screenlab import regret, thresholds
from screenlab._roots import bisect_monotone, bisect_monotone_many, brent_root
from conftest import WEAK_GAMMA_DOC, scalar_bisect


class TestScalarBisection:
    def test_cubic_root(self):
        result = bisect_monotone(lambda x: x**3 - 2.0, 0.0, 2.0)
        np.testing.assert_allclose(result.root, 2.0 ** (1.0 / 3.0), rtol=1e-15)
        assert result.residual < 1e-10

    def test_descending_curve(self):
        result = bisect_monotone(lambda x: np.cos(x) - 0.25, 0.0, 3.0)
        np.testing.assert_allclose(result.root, np.arccos(0.25), rtol=1e-15)

    def test_machine_resolution_bracket(self):
        """The final bracket spans at most one representable gap, so two
        nearby but distinct curves cannot share a root value."""
        result = bisect_monotone(lambda x: x - np.pi, 0.0, 6.0)
        assert result.bracket_width <= np.spacing(result.root)

    def test_exact_zero_at_endpoint(self):
        result = bisect_monotone(lambda x: x - 1.0, 1.0, 3.0)
        assert result.root == 1.0
        assert result.iterations == 0

    def test_rejects_flat_bracket(self):
        """f == 0 everywhere: every point is a root, so none is returned."""
        with pytest.raises(BracketError, match="no sign change"):
            bisect_monotone(lambda x: 0.0, 0.0, 1.0)

    def test_rejects_same_sign_bracket(self):
        with pytest.raises(BracketError, match="no sign change"):
            bisect_monotone(lambda x: x + 10.0, 0.0, 1.0)

    def test_rejects_empty_bracket(self):
        with pytest.raises(BracketError, match="empty"):
            bisect_monotone(lambda x: x, 2.0, 1.0)

    def test_residual_tolerance_enforced(self):
        """A gap function has no zero; the residual check must catch it."""
        with pytest.raises(ScreeningError, match="residual"):
            bisect_monotone(lambda x: 1.0 if x > 0.3 else -1.0, -1.0, 1.0)

    @pytest.mark.parametrize("f", [
        lambda x: float("nan"),
        lambda x: float("nan") if x == 0.0 else x - 0.5,
        lambda x: float("nan") if 0.4 < x < 0.6 else x - 0.5,
    ], ids=["everywhere", "at-lo", "at-mid"])
    def test_nan_raises(self, f):
        with pytest.raises(ScreeningError, match="NaN"):
            bisect_monotone(f, 0.0, 1.0)

    def test_nan_residual_raises(self):
        """The bracket walk evaluates each x once and ends on one it has
        seen; f is NaN the second time, so only the residual check meets it."""
        seen = set()

        def f(x):
            if x in seen:
                return float("nan")
            seen.add(x)
            return x - 0.3

        with pytest.raises(ScreeningError, match="residual nan"):
            bisect_monotone(f, 0.0, 1.0)

    def test_nan_theta_has_no_tau_star(self, baseline):
        with pytest.raises(ScreeningError, match="NaN"):
            find_tau_star(baseline, float("nan"))

    @given(root=st.floats(-100.0, 100.0), scale=st.floats(0.01, 50.0))
    @settings(deadline=None, max_examples=100)
    def test_recovers_affine_root(self, root, scale):
        result = bisect_monotone(lambda x: scale * (x - root), root - 7.3, root + 11.1)
        np.testing.assert_allclose(result.root, root, rtol=1e-12, atol=1e-12)


class TestBatchBisection:
    def test_matches_scalar_route(self):
        roots = np.array([-3.0, -0.5, 0.0, 1.75, 9.0])

        def f(x):
            return np.tanh(x - roots)

        batch = bisect_monotone_many(f, roots - 5.0, roots + 5.0)
        np.testing.assert_allclose(batch.root, roots, atol=1e-14)
        for i, root in enumerate(roots):
            lone = bisect_monotone(lambda x: np.tanh(x - root), root - 5.0, root + 5.0)
            assert batch.root[i] == lone.root
            assert batch.iterations[i] == lone.iterations
            assert batch.residual[i] == lone.residual
            assert batch.bracket_width[i] == lone.bracket_width

    def test_exact_zero_freezes_a_member(self):
        """A member whose midpoint value is exactly 0.0 stops there, as a lone
        bisection does; the step function below is 0.0 on a whole interval."""
        shifts = np.array([0.0, 0.3, -0.2, 0.125])

        def f(x):
            return np.round(x - shifts, 1)

        batch = bisect_monotone_many(f, np.full(4, -1.0), np.full(4, 1.0))
        for i, shift in enumerate(shifts):
            lone = bisect_monotone(lambda x: np.round(x - shift, 1), -1.0, 1.0)
            assert (batch.root[i], batch.iterations[i]) == (lone.root, lone.iterations)
        assert batch.iterations[0] == 1 and batch.bracket_width[0] == 0.0

    def test_residual_checked_per_member(self):
        """A step has no zero: only the member bracketing it fails."""
        def f(x):
            return np.array([1.0 if x[0] > 0.3 else -1.0, x[1] - 0.5])

        with pytest.raises(ScreeningError, match="converged .* member 0 .* residual"):
            bisect_monotone_many(f, np.full(2, -1.0), np.full(2, 1.0))

    def test_offending_member_is_recorded(self):
        with pytest.raises(BracketError) as info:
            bisect_monotone_many(lambda x: x - np.array([0.5, 0.5, 7.0]), np.zeros(3), np.ones(3))
        assert info.value.member == 2

    def test_lone_bracket_keeps_zero_dimensions(self):
        shapes = []

        def f(x):
            shapes.append(np.shape(x))
            return x - 0.3

        result = bisect_monotone_many(f, 0.0, 1.0)
        assert set(shapes) == {()}
        assert result.root.shape == () and result.root == bisect_monotone(f, 0.0, 1.0).root

    def test_rejects_flat_bracket(self):
        """The lone rule holds in a batch: f == 0 at both ends has no single root."""
        with pytest.raises(BracketError, match="no sign change"):
            bisect_monotone_many(lambda x: np.zeros_like(x), np.zeros(2), np.ones(2))

    def test_reports_offending_member(self):
        def f(x):
            return x - np.array([0.5, 99.0])

        with pytest.raises(BracketError, match="member 1"):
            bisect_monotone_many(f, np.zeros(2), np.ones(2))

    @pytest.mark.parametrize("nan_at", ["lo", "mid"])
    def test_nan_raises_naming_member(self, nan_at):
        roots = np.array([0.25, 0.5, 0.75])

        def f(x):
            values = x - roots
            if nan_at == "lo" and x[1] == 0.0 or nan_at == "mid" and 0.0 < x[1] < 1.0:
                values[1] = np.nan
            return values

        with pytest.raises(ScreeningError, match="member 1"):
            bisect_monotone_many(f, np.zeros(3), np.ones(3))

    def test_large_batch_has_no_duplicates(self):
        """Distinct roots must stay distinct at machine resolution."""
        rng = np.random.default_rng(3)
        roots = np.sort(rng.uniform(-1.0, 1.0, size=5_000))

        def f(x):
            return (x - roots) ** 3

        batch = bisect_monotone_many(f, np.full_like(roots, -2.0), np.full_like(roots, 2.0)).root
        assert len(np.unique(batch)) == len(roots)
        np.testing.assert_allclose(batch, roots, atol=1e-9)


NAN = float("nan")


class TestBrentRoot:
    @pytest.mark.parametrize("f,lo,hi", [
        (lambda x: x, 2.0, 1.0),
        (lambda x: NAN if x == 0.0 else x - 0.5, 0.0, 1.0),
        (lambda x: NAN if x == 1.0 else x - 0.5, 0.0, 1.0),
        (lambda x: x + 10.0, 0.0, 1.0),
        (lambda x: 0.0, 0.0, 1.0),
    ], ids=["empty", "nan-at-lo", "nan-at-hi", "same-sign", "zero-at-both-ends"])
    def test_bracket_rules_raise_as_bisection_does(self, f, lo, hi):
        with pytest.raises(ScreeningError) as bisected:
            bisect_monotone(f, lo, hi)
        with pytest.raises(ScreeningError) as brent:
            brent_root(f, lo, hi, xtol=1e-12)
        assert type(brent.value) is type(bisected.value)
        assert str(brent.value) == str(bisected.value)
        if isinstance(bisected.value, BracketError):
            assert brent.value.member == bisected.value.member

    def test_nan_inside_raises(self):
        """Both searches first look at 0.5, the secant point of this bracket."""
        def f(x):
            return NAN if 0.4 < x < 0.6 else x - 0.5

        for search in (lambda: bisect_monotone(f, 0.0, 1.0),
                       lambda: brent_root(f, 0.0, 1.0, xtol=1e-12)):
            with pytest.raises(ScreeningError, match=r"^f is NaN at 0\.5 on bracket"):
                search()

    @pytest.mark.parametrize("lo,hi", [(1.0, 3.0), (-1.0, 1.0)])
    def test_exact_zero_at_an_end_is_the_root(self, lo, hi):
        result = brent_root(lambda x: x - 1.0, lo, hi, xtol=1e-12)
        assert result.root == 1.0 == bisect_monotone(lambda x: x - 1.0, lo, hi).root
        assert (result.residual, result.iterations) == (0.0, 0)

    def test_evaluates_each_end_once(self):
        calls = []

        def f(x):
            calls.append(x)
            return np.tanh(x - 0.3)

        result = brent_root(f, -2.0, 5.0, xtol=1e-10)
        assert calls.count(-2.0) == 1 and calls.count(5.0) == 1
        assert len(calls) == result.iterations + 2

    @given(root=st.floats(-100.0, 100.0), scale=st.floats(0.01, 50.0),
           shape=st.sampled_from(["affine", "cubic", "tanh", "descending"]))
    @settings(deadline=None, max_examples=200)
    def test_root_within_xtol_of_bisection(self, root, scale, shape):
        def f(x):
            d = scale * (x - root)
            return {"affine": d, "cubic": d**3 + d, "tanh": np.tanh(d), "descending": -d}[shape]

        lo, hi, xtol = root - 7.3, root + 11.1, 1e-8
        brent = brent_root(f, lo, hi, xtol=xtol)
        assert abs(brent.root - bisect_monotone(f, lo, hi).root) <= xtol
        values = []

        def counted(x):
            values.append(x)
            return f(x)

        scalar_bisect(counted, lo, hi, width=xtol)
        # both counts leave out the two ends
        assert brent.iterations < len(values) - 2


class TestSteps:
    def test_no_member_takes_more_than_45_steps(
        self, baseline, irregular_config, random_table, monkeypatch
    ):
        """The loop's steps on the package's own roots: every member of
        threshold_report's batches, of a 400-tau expected_regret's
        breakpoints and of find_tau_bar's lone breakpoints, on baseline,
        irregular, weak gamma and the 50 frozen configs.  The worst measured
        was 40 (weak gamma's 400-tau breakpoints); bisection to adjacent
        floats took up to 66, 71 and 65 steps in the three."""
        steps = {"threshold_report": [], "expected_regret": [], "find_tau_bar": []}
        phase = []

        def counted(search):
            def spy(f, lo, hi):
                result = search(f, lo, hi)
                steps[phase[-1]].append(int(np.max(result.iterations, initial=0)))
                return result
            return spy

        monkeypatch.setattr(thresholds, "bisect_monotone_many",
                            counted(thresholds.bisect_monotone_many))
        monkeypatch.setattr(regret, "bisect_monotone_many", counted(regret.bisect_monotone_many))
        weak_gamma = ModelConfig.from_dict(WEAK_GAMMA_DOC)
        grids = [(config, np.linspace(-2.0, 2.0, 21))
                 for config in (baseline, irregular_config, weak_gamma)]
        for config, thetas in grids + [(r.config, r.theta_grid) for r in random_table]:
            phase.append("threshold_report")
            threshold_report(config, thetas)
            phase.append("expected_regret")
            expected_regret(config, np.linspace(*clamped_tau_interval(config.payoffs), 400))
            phase.append("find_tau_bar")
            find_tau_bar(config, "analytic")
        assert all(steps.values())
        assert max(max(counts) for counts in steps.values()) <= 45

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: np.arctan(1e300 * x) - 0.1, -1.0, 1.0),  # a root near 1e-301
        (lambda x: np.exp(x) - 1.0 - 1e-310, -700.0, 700.0),  # 1 - e^x rounds flat
    ], ids=["root-near-1e-301", "flat-exp"])
    def test_long_searches_reach_adjacent_floats(self, f, lo, hi):
        """Brackets whose roots take hundreds of steps, past a fixed cap of
        200, still run to adjacent floats or an exact zero, as bisection of
        a root near 1e-301 must halve its bracket ~1,000 times."""
        result = bisect_monotone(f, lo, hi)
        assert result.iterations > 200
        assert result.bracket_width <= np.spacing(result.root)
        assert result.residual <= 1e-10
