"""Bracketed bisection on monotone curves."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from screenlab import BracketError, ScreeningError
from screenlab import find_tau_star
from screenlab._roots import bisect_monotone, bisect_monotone_many


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
        """The bracket walk never evaluates 0.375; the residual check does."""
        def f(x):
            return float("nan") if x == 0.375 else x - 0.3

        with pytest.raises(ScreeningError, match="residual nan"):
            bisect_monotone(f, 0.0, 1.0, xtol=0.3)

    def test_nan_theta_has_no_tau_star(self, baseline):
        with pytest.raises(ScreeningError, match="NaN"):
            find_tau_star(baseline, float("nan"))

    def test_xtol_stops_early(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.123456

        loose = bisect_monotone(f, 0.0, 1.0, xtol=1e-6, residual_tol=1e-5)
        loose_calls = len(calls)
        calls.clear()
        bisect_monotone(f, 0.0, 1.0, residual_tol=1e-5)
        assert loose_calls < len(calls)
        assert abs(loose.root - 0.123456) < 1e-6

    @given(root=st.floats(-100.0, 100.0), scale=st.floats(0.01, 50.0))
    @settings(deadline=None, max_examples=100)
    def test_recovers_affine_root(self, root, scale):
        result = bisect_monotone(
            lambda x: scale * (x - root), root - 7.3, root + 11.1,
            residual_tol=1e-6,
        )
        np.testing.assert_allclose(result.root, root, rtol=1e-12, atol=1e-12)


class TestBatchBisection:
    def test_matches_scalar_route(self):
        roots = np.array([-3.0, -0.5, 0.0, 1.75, 9.0])

        def f(x):
            return np.tanh(x - roots)

        batch = bisect_monotone_many(f, roots - 5.0, roots + 5.0)
        np.testing.assert_allclose(batch, roots, atol=1e-14)

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

        batch = bisect_monotone_many(f, np.full_like(roots, -2.0), np.full_like(roots, 2.0))
        assert len(np.unique(batch)) == len(roots)
        np.testing.assert_allclose(batch, roots, atol=1e-9)
