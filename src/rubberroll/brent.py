"""Scalar bracketed root finders.

Brent, Algorithms for Minimization without Derivatives (1973), ch. 4:
:func:`brentq` brackets a root with inverse quadratic interpolation and
bisection.  It repeats the C ``brentq`` of ``scipy.optimize`` operation by
operation on Python floats, so it returns the same floats after the same
function calls; the tests keep scipy as the oracle.  It lives here so that
the package runs on numpy alone; it serves the roots with no slope at hand,
the extrema among them, as roots of their slopes.  :func:`newton_bracketed`
serves the roots with an exact slope.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["brentq", "newton_bracketed"]

_RTOL = 8.9e-16         # relative tolerance of brentq, just above four float epsilons
_MAXITER = 100          # brentq iterations before RuntimeError


def _checked(x: float, fx: float) -> float:
    fx = float(fx)
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f: Callable[[float], float], a: float, b: float, *, xtol: float) -> float:
    """A root of f in [a, b], to within xtol + 8.9e-16 |root|.

    Raises ValueError when f(a) and f(b) have the same sign, when f returns
    NaN or when xtol is not positive, and RuntimeError when 100 iterations
    do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xtol = float(xtol)
    xpre, xcur = float(a), float(b)
    fpre = _checked(xpre, f(xpre))
    fcur = _checked(xcur, f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf     # C gives inf or NaN there, and bisects
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _checked(xcur, f(xcur))
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")


def newton_bracketed(f_df: Callable[[float], tuple[float, float]], a: float, b: float,
                     fa: float, fb: float, *, xtol: float, x0: float | None = None) -> float:
    """A root of f in [a, b] to within xtol + 8.9e-16 |root|, with brentq's
    end rules and errors, by Newton on f_df(x) = (f(x), f'(x)) from x0 or the
    secant point; fa, fb = f(a), f(b).  A step leaving the bracket, or above
    half the step before, bisects it (rtsafe); the first below the tolerance
    is taken and ends the search."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    a, b, fa, fb = float(a), float(b), _checked(a, fa), _checked(b, fb)
    if fa == 0 or fb == 0:
        return a if fa == 0 else b
    if (fa < 0) == (fb < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    lo, hi = (a, b) if a < b else (b, a)
    lo_neg = (fa < 0) == (a < b)        # f < 0 at lo
    x = x0 if x0 is not None and lo < x0 < hi else a - fa * (b - a) / (fb - fa)
    step_old = hi - lo
    for _ in range(_MAXITER):
        fx, dfx = f_df(x)
        if fx == 0:
            return x
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        if (fx < 0) == lo_neg:
            lo = x
        else:
            hi = x
        step = -fx / dfx if dfx else math.inf
        tol = xtol + _RTOL * abs(x)
        if -tol <= step <= tol:
            x += step
            return lo if x < lo else hi if x > hi else x
        if hi - lo <= tol:
            return x
        if not lo < x + step < hi or step_old < 2 * abs(step):
            step = 0.5 * (lo + hi) - x
        x, step_old = x + step, abs(step)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")
