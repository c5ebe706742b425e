"""Bracketed bisection on monotone curves.

Every distinguished threshold in this package is the root of a strictly
monotone function of one variable, so plain bisection is the right tool:
it cannot be fooled by the flat tails the score curves
develop near the ends of the prejudice interval, and it terminates at
floating-point resolution, which keeps distinct inputs from collapsing
onto a shared root value.

Bisection runs until the midpoint stops moving (the bracket spans at most
one representable gap), then the residual is checked against a tolerance.
A NaN value anywhere along the way raises instead of steering the bracket,
since every comparison with NaN is False.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ScreeningError


class BracketError(ScreeningError):
    """The supplied bracket does not straddle a sign change."""


@dataclass(frozen=True)
class RootResult:
    root: float
    residual: float
    bracket_width: float
    iterations: int


def bisect_monotone(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    residual_tol: float = 1e-10,
    xtol: float = 0.0,
    max_iter: int = 200,
) -> RootResult:
    """Find the root of a monotone ``f`` on [lo, hi].

    Runs to machine resolution by default; a positive ``xtol`` stops once
    the bracket is that narrow (useful when each evaluation is itself a
    quadrature).  Raises BracketError when f(lo) and f(hi) share a sign,
    and ScreeningError when ``f`` returns NaN or the converged root's
    residual exceeds ``residual_tol`` (which for a genuinely monotone
    continuous curve indicates the tolerance was set below what float64
    can deliver).
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise BracketError(f"empty bracket: lo={lo!r} >= hi={hi!r}")
    f_lo = float(f(lo))
    f_hi = float(f(hi))
    if f_lo != f_lo or f_hi != f_hi:
        raise ScreeningError(
            f"f is NaN on the bracket [{lo!r}, {hi!r}]: "
            f"f(lo)={f_lo!r}, f(hi)={f_hi!r}"
        )
    if f_lo == 0.0:
        return RootResult(lo, 0.0, 0.0, 0)
    if f_hi == 0.0:
        return RootResult(hi, 0.0, 0.0, 0)
    if np.sign(f_lo) == np.sign(f_hi):
        raise BracketError(
            f"no sign change on bracket [{lo!r}, {hi!r}]: "
            f"f(lo)={f_lo!r}, f(hi)={f_hi!r}"
        )
    descending = f_lo > 0.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi or hi - lo <= xtol:
            break
        f_mid = float(f(mid))
        if f_mid != f_mid:
            raise ScreeningError(f"f is NaN at {mid!r} inside [{lo!r}, {hi!r}]")
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_mid > 0.0) == descending:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    residual = abs(float(f(root)))
    if not residual <= residual_tol:
        raise ScreeningError(
            f"bisection converged to {root!r} but the residual {residual:.3e} "
            f"exceeds the tolerance {residual_tol:.3e}; "
            f"final bracket [{lo!r}, {hi!r}]"
        )
    return RootResult(root, residual, hi - lo, iterations)


def bisect_monotone_many(
    f: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    *,
    max_iter: int = 200,
) -> np.ndarray:
    """Vectorized machine-resolution bisection for a batch of brackets.

    ``f`` must map an array of abscissas to an array of values, elementwise
    monotone in the same direction for every batch member, and every
    bracket must straddle a sign change.  Returns the array of roots;
    raises ScreeningError when ``f`` returns NaN for any member.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    f_lo = np.asarray(f(lo), dtype=float)
    f_hi = np.asarray(f(hi), dtype=float)
    _require_no_nan(f_lo, lo)
    _require_no_nan(f_hi, hi)
    if np.any(np.sign(f_lo) * np.sign(f_hi) > 0):
        bad = int(np.argmax(np.sign(f_lo) * np.sign(f_hi) > 0))
        raise BracketError(
            f"no sign change for batch member {bad}: "
            f"bracket [{lo.flat[bad]!r}, {hi.flat[bad]!r}], "
            f"f values ({f_lo.flat[bad]!r}, {f_hi.flat[bad]!r})"
        )
    lo_positive = f_lo > 0.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        open_cells = (mid != lo) & (mid != hi)
        if not np.any(open_cells):
            break
        f_mid = np.asarray(f(mid), dtype=float)
        _require_no_nan(f_mid, mid)
        move_lo = open_cells & ((f_mid > 0.0) == lo_positive)
        move_hi = open_cells & ~move_lo
        lo[move_lo] = mid[move_lo]
        hi[move_hi] = mid[move_hi]
    return 0.5 * (lo + hi)


def _require_no_nan(values: np.ndarray, at: np.ndarray) -> None:
    nan = np.isnan(values)
    if nan.any():
        bad = int(np.argmax(nan))
        raise ScreeningError(
            f"f is NaN for batch member {bad} at {at.flat[bad]!r}"
        )
