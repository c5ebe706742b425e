"""Bracketed roots: safeguarded regula falsi on monotone curves, Brent for tau_bar.

Every distinguished threshold in this package is the root of a strictly
monotone function of one variable.  The per-theta roots and the
acceptance breakpoints of the average regret come from one loop, which
keeps each root's bracket and steps to the secant point of its ends.  An
end kept twice in a row has its value scaled by Anderson and Bjorck's
factor, or halved (the Illinois rule) where that factor is not positive,
so the next point lands past the root and a smooth curve's bracket closes
from both sides, superlinearly (Dowell & Jarratt 1971, *BIT* 11:168;
Anderson & Bjorck 1973, *BIT* 13:253).

Two safeguards, after Brent, bound the steps.  A point is kept at least
2 eps |x| inside the bracket, so every step shrinks it, and once one end
sits next to the root the next point lands past it, closing the far end.
And a member bisects when its bracket has not halved over its last three
steps.  Secant points creep on the flat tails the score curves develop
near the ends of the prejudice interval, and on the rounding noise of a
curve next to its root; the bisection then halves the bracket at least
once in four steps, while three steps leave room for a scaled end to
carry the next point across.  On the package's roots the worst member
takes ~40 steps, where bisection took ~70.  The halving bounds every
bracket: the loop allows four steps per halving from the bracket's
magnitude down to the least float spacing, and raises if a member is
still short of adjacent floats after them.

Each member runs until its bracket spans adjacent floats (its midpoint is
one of its ends) or a point lands on an exact zero, and its residual is
then checked against RESIDUAL_TOL.  Stopping at floating-point
resolution, not at a width, keeps distinct inputs from collapsing onto a
shared root value, and each root's bits, and so the artifacts, fixed.
One loop serves a batch of brackets at once, and a single bracket is a
batch of one; every step is elementwise, so each member takes the steps,
and reaches the bits, that it takes alone.  A NaN value raises, since
every comparison with NaN is False: at an end at once, inside the bracket
once the loop ends, the member having stopped where it met it.

Each value of the tau_bar gap is a quadrature or a pass over a sampled
population, so tau_bar roots with Brent's method to a set width, in both
modes: ~7-15 values where bisection to the same width takes ~28-34.  Both
searches share the bracket rules; Brent's caller checks the residual.
Brent stays apart from the loop: the loop with Brent's stop took 15.4
values per Monte Carlo root (m = 1e5, 24 seeds) against Brent's 13.7, and
428 analytic gap values against 419 (baseline and 45 random configs).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ScreeningError


class BracketError(ScreeningError):
    """A bracket does not straddle a sign change; ``member`` is its flat index."""

    def __init__(self, message: str, member: int = 0):
        super().__init__(message)
        self.member = member


# Most values Brent's method takes for one root.
MAX_ITER = 200

# Largest |f(root)| the root loop accepts.
RESIDUAL_TOL = 1e-10

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RootResult:
    """A root, |f(root)|, the final bracket width and the steps taken.

    Floats from ``bisect_monotone``; arrays, member by member, from
    ``bisect_monotone_many``.
    """

    root: float | np.ndarray
    residual: float | np.ndarray
    bracket_width: float | np.ndarray
    iterations: int | np.ndarray


def bisect_monotone(f: Callable[[float], float], lo: float, hi: float) -> RootResult:
    """``bisect_monotone_many`` on one bracket, with floats in and out."""
    lone = bisect_monotone_many(lambda x: f(float(x)), float(lo), float(hi))
    return RootResult(float(lone.root), float(lone.residual),
                      float(lone.bracket_width), int(lone.iterations))


def _member(shape: tuple, lo, hi, i: int) -> str:
    """Names a bracket in an error; a lone bracket needs no member name."""
    name = f" for batch member {i}" if shape else ""
    return f"{name} on bracket [{float(lo.flat[i])!r}, {float(hi.flat[i])!r}]"


def _ends(values, lo: np.ndarray, hi: np.ndarray):
    """f at both ends of each bracket, under the rules every search here
    shares: an empty bracket, or one without a sign change, raises
    BracketError, and a NaN at an end ScreeningError.  An exact zero at one
    end is that bracket's root."""
    empty = ~(lo < hi)
    if empty.any():
        i = int(np.argmax(empty))
        raise BracketError(f"empty bracket, lo >= hi{_member(lo.shape, lo, hi, i)}", i)
    f_lo = values(lo)
    f_hi = values(hi)

    def ends(i: int) -> str:
        return (f"{_member(lo.shape, lo, hi, i)}: f(lo)={float(np.ravel(f_lo)[i])!r}, "
                f"f(hi)={float(np.ravel(f_hi)[i])!r}")

    nan = np.isnan(f_lo) | np.isnan(f_hi)
    if nan.any():
        raise ScreeningError("f is NaN" + ends(int(np.argmax(nan))))
    flat = np.sign(f_lo) == np.sign(f_hi)  # a zero at both ends has no single root
    if flat.any():
        i = int(np.argmax(flat))
        raise BracketError("no sign change" + ends(i), i)
    return f_lo, f_hi


def _pick(c, a, b):
    """``np.where`` on one member."""
    return a if c else b


def bisect_monotone_many(f: Callable[[np.ndarray], np.ndarray], lo, hi) -> RootResult:
    """The root of a monotone ``f`` on each bracket [lo, hi], to machine resolution.

    ``f`` maps an array of abscissas to an array of values, each member
    monotone on its own bracket.  Each member takes the steps, and reaches
    the bits, that it takes alone; 0-d brackets, a batch of one, keep their
    shape, so ``f`` runs on numpy's scalar paths.  Raises BracketError when
    f(lo) and f(hi) share a sign or are both zero, and ScreeningError when
    ``f`` returns NaN or a converged root's residual exceeds RESIDUAL_TOL
    (which for a genuinely monotone continuous curve means ``f`` has a
    jump, not a zero, there); an error names the first offending member.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    shape = lo.shape

    def values(x) -> np.ndarray:
        # 0-d values index to numpy scalars, whose arithmetic is cheaper
        return np.asarray(f(x), dtype=float).reshape(shape)[()]

    def member(i: int) -> str:
        return _member(shape, lo, hi, i)

    f_lo, f_hi = _ends(values, lo, hi)
    nan = np.zeros(shape, bool)[()]  # a NaN at an end has raised
    # an exact zero at an end is the root, before any step
    hi = np.where(f_lo == 0.0, lo, hi)[()]
    lo = np.where(f_hi == 0.0, hi, lo)[()]
    live = lo != hi
    orient = np.where(f_lo > 0.0, -1.0, 1.0)[()]  # orient * f rises through the root
    # the values of orient * f the steps take at the ends, g_lo < 0 < g_hi,
    # a stopped member's frozen; last is the latest nonzero value taken
    g_lo = np.where(live, orient * f_lo, -1.0)[()]
    g_hi = np.where(live, orient * f_hi, 1.0)[()]
    last = np.ones(shape)[()]
    below = above = np.zeros(shape, bool)[()]  # the end the last step moved: none yet
    # the bracket widths one, two and three steps back, halved
    back_1 = back_2 = back_3 = np.full(shape, np.inf)[()]
    iterations = np.zeros(shape, np.int64)[()]
    # elementwise select and clamps; on a lone bracket's numpy scalars
    # Python's own cost a tenth as much and give the same bits
    pick, lower, upper, any_ = ((np.where, np.maximum, np.minimum, np.any) if shape
                                else (_pick, max, min, bool))
    # the safeguard halves a bracket at least once in four steps, and one no
    # wider than the least float spacing, 2**-1074, spans adjacent floats;
    # the package's roots take at most ~40 steps of this bound's ~4,300
    halvings = int(np.frexp(np.max(np.maximum(abs(lo), abs(hi)), initial=0.0))[1]) + 1076
    for _ in range(4 * halvings + 1):
        mid = 0.5 * (lo + hi)
        iterations = iterations + live
        live = live & (lo < mid) & (mid < hi)
        if not any_(live):
            break
        # the regula falsi point, kept 2 eps |x| inside the bracket; the
        # midpoint where no such point is left, or where the bracket has
        # not halved over the last three steps
        width = hi - lo
        x = lo - g_lo * width / (g_hi - g_lo)
        tol = 2.0 * EPS * abs(x)
        x = upper(lower(x, lo + tol), hi - tol)
        x = pick((width <= back_3) & (lo < x) & (x < hi), x, mid)
        back_3, back_2, back_1 = back_2, back_1, 0.5 * width
        g = orient * values(x)
        # an end kept a second time running has its value scaled by
        # Anderson-Bjorck's m = 1 - g(x) / g(the end moved both times), or
        # halved (Illinois) where m is not positive
        kept_hi, kept_lo = below, above
        below, above = live & (g < 0.0), live & (g > 0.0)
        ratio = g / pick(abs(g) < abs(last), last, g)  # at most 1: no overflow
        m = pick(ratio < 1.0, 1.0 - ratio, 0.5)
        last = pick(below | above, g, last)
        g_lo = pick(below, g, pick(above & kept_lo, m * g_lo, g_lo))
        g_hi = pick(above, g, pick(below & kept_hi, m * g_hi, g_hi))
        # each live member moves one end onto x, both on an exact zero,
        # where it stops; a NaN also moves both and is reported below
        nan = nan | (live & (g != g))
        done = ~live
        lo = pick(above | done, lo, x)
        hi = pick(below | done, hi, x)
        live = below | above
    else:
        i = int(np.argmax(live))
        raise ScreeningError(f"root search did not reach adjacent floats in "
                             f"{4 * halvings} steps{member(i)}")
    root = 0.5 * (lo + hi)
    if nan.any():
        i = int(np.argmax(nan))
        raise ScreeningError(f"f is NaN at {float(root.flat[i])!r}{member(i)}")
    residual = np.abs(values(root))
    bad = ~(residual <= RESIDUAL_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise ScreeningError(
            f"root search converged to {float(root.flat[i])!r}{member(i)} but the "
            f"residual {float(residual.flat[i]):.3e} exceeds the tolerance {RESIDUAL_TOL:.3e}"
        )
    return RootResult(root, residual, hi - lo, iterations)


def brent_root(f: Callable[[float], float], lo: float, hi: float, *, xtol: float) -> RootResult:
    """A root of ``f`` on [lo, hi] to within ``xtol`` > 0, by Brent's method.

    Brent 1973 (*Algorithms for Minimization without Derivatives*, ch. 4):
    an inverse quadratic or secant step where it lands well inside the
    bracket, a bisection step where it does not, so a smooth ``f`` takes
    far fewer values than bisection needs.  The bracket rules of
    ``bisect_monotone`` apply and each end is evaluated once; a NaN inside
    the bracket raises ScreeningError.  No residual is checked, and
    ``iterations`` counts the values inside the bracket.
    """
    lo, hi = np.asarray(float(lo)), np.asarray(float(hi))
    f_lo, f_hi = _ends(lambda x: float(f(float(x))), lo, hi)
    a, fa, b, fb = float(lo), f_lo, float(hi), f_hi
    if fa == 0.0:  # an exact zero at an end is the root
        b, fb = a, fa
    c, fc = a, fa  # the root lies between b, the best value, and c
    step = last = b - a
    for steps in range(MAX_ITER):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            step = last = b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 2.0 * EPS * abs(b) + 0.5 * xtol
        half = 0.5 * (c - b)
        if fb == 0.0 or abs(half) <= tol:
            return RootResult(b, abs(fb), abs(c - b), steps)
        if abs(last) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            q, p = (-q, p) if p > 0.0 else (q, -p)
            # accept the step only if it stays inside the bracket and shrinks
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(last * q)):
                last, step = step, p / q
            else:
                last = step = half
        else:
            last = step = half
        a, fa = b, fb
        b += step if abs(step) > tol else math.copysign(tol, half)
        fb = float(f(b))
        if fb != fb:
            raise ScreeningError(f"f is NaN at {b!r}{_member((), lo, hi, 0)}")
    raise ScreeningError(f"Brent's method did not converge in {MAX_ITER} steps"
                         f"{_member((), lo, hi, 0)}")
