"""Brent's scalar root finder.

Brent, Algorithms for Minimization without Derivatives (1973), ch. 4:
:func:`brentq` brackets a root with inverse quadratic interpolation and
bisection.  It repeats the C ``brentq`` of ``scipy.optimize`` operation by
operation on Python floats, so it returns the same floats after the same
function calls; the tests keep scipy as the oracle.  It lives here so that
the package runs on numpy alone.  The package finds its extrema with it too,
as roots of their slopes.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["brentq"]

_RTOL = 8.9e-16         # relative tolerance of brentq, just above four float epsilons
_MAXITER = 100          # brentq iterations before RuntimeError


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
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
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
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
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")
