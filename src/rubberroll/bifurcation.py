"""Steady rotations, their stability, and the bifurcation diagram.

The reduced system has relative equilibria (theta, p_theta) = (theta0, 0) at
the zeros of G0.  Their images on the (kappa, eps) plane of integral values
form the bifurcation set: a one-parameter family of curves traced by the
inclination theta0, a parabola of equatorial rolling in the balanced case
alpha = 0, and the two rest points at the poles.  This module evaluates all
of them, classifies linear stability, finds the fold point where stability
changes along the curve, and assembles the labeled diagram with its
region-of-possible-motions boundary.

Sign conventions: the curve is symmetric under kappa -> -kappa; sampled
curves carry the kappa >= 0 half.  Steady-rotation circle radii are signed by
sin/cos of the inclination, so radii for theta0 > pi/2 come out negative;
magnitudes are the geometric radii.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .brent import _RTOL, brentq
from .dynamics import _arc_table, _centrifugal, _sincos, _steady_kappa_sq, g0, g0_prime
from .geometry import profile, surface_b, surface_g0, surface_g0_prime, surface_u, surface_z
from .model import Params

__all__ = [
    "PermanentRotation",
    "BifurcationCurve",
    "FixedPointImage",
    "CuspPoint",
    "BifurcationDiagram",
    "omega0_sq",
    "permanent_rotation",
    "sigma_theta_kappa_sq",
    "sigma_theta_eps",
    "branch_ranges",
    "sigma_theta_curve",
    "equator_parabola",
    "equator_kappa_c",
    "linear_stability",
    "inclined_equilibrium",
    "cusp",
    "rpm_boundary",
    "rpm_floor",
    "diagram",
]

CENTER = "center"
SADDLE = "saddle"

_EDGE = 1e-9          # inset used when sampling up to open interval ends
_BOUNDARY_TOL = 1e-12  # |beta^2 - (1 +/- alpha)| that puts a body on a region boundary
_SPLIT_BUDGET = 20000  # interval halvings per sampled arc
_RPM_NODES = 721       # grid angles of the RPM floor, shared by every kappa slice

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PermanentRotation:
    """A steady rotation at constant inclination and its invariants."""

    theta0: float
    omega0: float
    kappa: float
    eps: float
    rho_c: float        # center-of-mass circle radius (signed by tan theta0)
    rho_p: float        # contact-point circle radius (signed)
    stability: str      # "center" or "saddle"
    lambda_sq: float
    z_c: float


@dataclass(frozen=True, eq=False)
class BifurcationCurve:
    """A labeled curve of the diagram as one column per sample field."""

    label: str
    theta0: np.ndarray
    kappa: np.ndarray
    eps: np.ndarray
    stability: list[str]    # "center" or "saddle" per sample
    lambda_sq: np.ndarray


@dataclass(frozen=True)
class FixedPointImage:
    label: str
    kappa: float
    eps: float
    isolated: bool
    stable: bool


@dataclass(frozen=True)
class CuspPoint:
    theta: float
    kappa: float
    eps: float
    kind: str           # "cusp" (alpha > 0) or "tangency" (alpha = 0)


@dataclass(frozen=True)
class BifurcationDiagram:
    params: Params
    diagram_type: str               # one of "a".."e"
    boundary: bool                  # parameters sit on a region boundary
    curves: list[BifurcationCurve]
    points: list[FixedPointImage]
    cusp: CuspPoint | None
    two_torus_region: bool          # a wedge with two connected components exists
    rpm_boundary: BifurcationCurve  # lower envelope eps_min(kappa)
    kappa_symmetric: bool = True


def omega0_sq(theta: float, p: Params) -> float:
    """Squared rate of the steady rotation at inclination theta.

    May be negative; the caller decides admissibility.  Raises at the equator
    and the poles where the family is not defined by this formula.
    """
    s = math.sin(theta)
    if abs(s) < 1e-15 or abs(math.cos(theta)) < 1e-15:
        raise ValueError(f"steady-rotation rate undefined at theta={theta}")
    # kappa = J omega0 sin(theta) on the curve kappa^2 = K
    js = profile(theta, p, pole_mode=True).J * s
    return sigma_theta_kappa_sq(theta, p) / (js * js)


def _sigma_theta(s, c, p: Params):
    """(kappa^2, eps) along the steady-rotation curve at the inclination with
    sine s and cosine c, floats or arrays alike.

    For alpha != 0 both diverge at the equator, c = 0.
    """
    Z = surface_z(s * s, c, p)
    eps = (3.0 * Z * Z - 1.0) / (2.0 * Z)
    if p.alpha != 0.0:
        eps = eps + p.alpha * (3.0 * c * c - 1.0) / (2.0 * c)
    return _steady_kappa_sq(s, c, Z, p), eps


def _sigma_theta_at(theta0: float, p: Params) -> tuple[float, float]:
    c = math.cos(theta0)
    if p.alpha != 0.0 and abs(c) < 1e-15:
        raise ValueError("sigma_theta diverges at the equator for alpha != 0")
    return _sigma_theta(math.sin(theta0), c, p)


def sigma_theta_kappa_sq(theta0: float, p: Params) -> float:
    """kappa^2 along the steady-rotation curve; negative means no rotation."""
    return _sigma_theta_at(theta0, p)[0]


def sigma_theta_eps(theta0: float, p: Params) -> float:
    """eps along the steady-rotation curve (closed form)."""
    return _sigma_theta_at(theta0, p)[1]


def linear_stability(theta0: float, kappa: float, p: Params) -> tuple[float, str]:
    """Eigenvalue square and type of a reduced fixed point.

    lambda^2 = G0'(theta0)/B(theta0); negative is a center, positive a
    saddle.  The point must satisfy G0(theta0) = 0 at this kappa to 1e-8
    (the poles with kappa = 0 qualify).
    """
    resid = g0(theta0, kappa, p)
    if abs(resid) > 1e-8:
        raise ValueError(f"(theta0={theta0}, kappa={kappa}) is not a fixed point: G0={resid}")
    B = profile(theta0, p, pole_mode=True).B
    lam2 = g0_prime(theta0, kappa, p) / B
    return lam2, (CENTER if lam2 < 0.0 else SADDLE)


def permanent_rotation(theta0: float, p: Params) -> PermanentRotation:
    """Steady rotation at inclination theta0 with full invariant data."""
    w2 = omega0_sq(theta0, p)
    if w2 < 0.0:
        raise ValueError(f"no steady rotation at theta0={theta0}: omega0^2={w2} < 0")
    s = math.sin(theta0)
    c = math.cos(theta0)
    ev = profile(theta0, p)
    omega0 = math.sqrt(w2)
    kappa = ev.J * omega0 * s
    eps = (0.0 if kappa == 0.0 else kappa * kappa / (2.0 * s * s)) + ev.U
    t = s / c
    rho_c = ev.Z * t + p.alpha * s
    rho_p = (p.beta * p.beta / ev.Z) * t
    lam2, stab = linear_stability(theta0, kappa, p)
    return PermanentRotation(
        theta0=theta0, omega0=omega0, kappa=kappa, eps=eps,
        rho_c=rho_c, rho_p=rho_p, stability=stab, lambda_sq=lam2, z_c=ev.U,
    )


def inclined_equilibrium(p: Params) -> float | None:
    """Inclination of the tilted rest position, the zero of the rate numerator.

    The numerator n(theta) = cos(theta)(1 - beta^2) + alpha Z(theta) is
    monotone, so a sign change over (0, pi) pins a unique root; it exists
    precisely for beta^2 >= 1 + alpha (cos > 0 side) or beta^2 <= 1 - alpha
    (cos < 0 side).  Root-finding on n is the primary path; the closed form
    cos^2 = alpha^2 beta^2 / ((1 - beta^2)(1 - beta^2 - alpha^2)) only seeds
    the bracket.
    """
    b2 = p.beta * p.beta
    a = p.alpha

    def n(th: float) -> float:
        c = math.cos(th)
        s = math.sin(th)
        return c * (1.0 - b2) + a * surface_z(s * s, c, p)

    if a == 0.0:
        return None if b2 == 1.0 else math.pi / 2.0
    n0 = 1.0 + a - b2
    npi = b2 - 1.0 + a
    if n0 == 0.0:
        return 0.0
    if npi == 0.0:
        return math.pi
    if n0 * npi > 0.0:
        return None
    # brentq: the slope of n needs Z', which no surface function gives
    return brentq(n, 1e-15, math.pi - 1e-15, xtol=1e-12)


def branch_ranges(p: Params) -> list[tuple[float, float, bool, bool]]:
    """theta0 intervals where the steady-rotation curve exists.

    Each entry is (lo, hi, lo_closed, hi_closed).  The structure follows the
    sign analysis of kappa^2(theta0): for beta^2 < 1 - alpha a single arc
    (pi/2, theta*); for 1 - alpha < beta^2 < 1 + alpha the arc (pi/2, pi);
    above 1 + alpha additionally (0, theta*] on the small-angle side.  For
    alpha = 0 with beta > 1 the two open arcs meet the equator, where the
    curve ends on the rolling parabola.
    """
    a, b2 = p.alpha, p.beta * p.beta
    ts = inclined_equilibrium(p)
    out: list[tuple[float, float, bool, bool]] = []
    if a == 0.0:
        if b2 > 1.0:
            out.append((0.0, math.pi / 2.0, False, False))
            out.append((math.pi / 2.0, math.pi, False, False))
        return out
    if b2 < 1.0 - a:
        out.append((math.pi / 2.0, ts, False, False))
    elif b2 <= 1.0 + a:
        out.append((math.pi / 2.0, math.pi, False, False))
    else:
        out.append((0.0, ts, False, True))
        out.append((math.pi / 2.0, math.pi, False, False))
    return out


def cusp(p: Params) -> CuspPoint | None:
    """Fold of the steady-rotation curve, where stability changes.

    G0 = 0 together with dG0/dtheta = 0, an extremum of kappa^2 along the
    curve: the first fold of the small-angle half in the body's arc table
    (:mod:`.dynamics`), found to 1e-12 from 1e-6 up.  Exists only for
    beta^2 > 1 + alpha; in the balanced case the solution sits at the
    equator where the curve is tangent to the rolling parabola, reported
    with kind="tangency".
    """
    a, b2 = p.alpha, p.beta * p.beta
    if b2 <= 1.0 + a:
        return None
    if a == 0.0:
        kc = equator_kappa_c(p)
        return CuspPoint(theta=math.pi / 2.0, kappa=kc, eps=kc * kc / 2.0 + p.beta, kind="tangency")
    th_c = next((th for th in _arc_table(p)[3] if th < 0.5 * math.pi), None)
    if th_c is None or sigma_theta_kappa_sq(th_c, p) < 0.0:
        return None
    return CuspPoint(theta=th_c, kappa=math.sqrt(sigma_theta_kappa_sq(th_c, p)),
                     eps=sigma_theta_eps(th_c, p), kind="cusp")


def equator_kappa_c(p: Params) -> float:
    """Stability threshold of equatorial rolling in the balanced case.

    The equator fixed point is a center iff |kappa| exceeds this value;
    below it (slow rolling) the point is a saddle.  Zero when beta <= 1,
    meaning rolling is stable at every rate.
    """
    if p.alpha != 0.0:
        raise ValueError("equatorial rolling family requires alpha = 0")
    b2 = p.beta * p.beta
    if b2 <= 1.0:
        return 0.0
    return math.sqrt((b2 - 1.0) / p.beta)


def equator_parabola(p: Params, kappa_max: float) -> BifurcationCurve:
    """Image of equatorial rolling, eps = kappa^2/2 + beta (alpha = 0 only),
    at 601 kappas from 0 to kappa_max."""
    if p.alpha != 0.0:
        raise ValueError("the equatorial rolling curve exists only for alpha = 0")
    kc = equator_kappa_c(p)
    k = np.linspace(0.0, kappa_max, 601)
    lam2 = _lambda_sq(math.sin(math.pi / 2.0), math.cos(math.pi / 2.0), k, p)
    stability = np.where((k > kc) | (kc <= 0.0), CENTER, SADDLE).tolist()
    return BifurcationCurve("sigma_pi2", np.full(len(k), math.pi / 2.0), k,
                            k * k / 2.0 + p.beta, stability, lam2)


def _lambda_sq(s, c, kappa, p: Params):
    """G0'/B, the eigenvalue square of the fixed point at the angle with sine
    s and cosine c, floats or arrays alike; an array kappa keeps off the poles."""
    s2 = s * s
    Z = surface_z(s2, c, p)
    return surface_g0_prime(s2, c, Z, kappa, p) / surface_b(s, s2, c, Z, p)[0]


def _curve_points(th: np.ndarray, p: Params):
    """(s, c, kappa, eps, on) of the steady-rotation curve at the inclinations
    th; ``on`` marks where kappa^2 >= 0, and kappa is 0 elsewhere."""
    s, c = _sincos(th)
    k2, eps = _sigma_theta(s, c, p)
    on = k2 >= 0.0
    return s, c, np.sqrt(np.where(on, k2, 0.0)), eps, on


def _sample_arc(
    p: Params,
    lo: float,
    hi: float,
    lo_closed: bool,
    hi_closed: bool,
    n_init: int,
    ds_max: float,
    eps_max: float,
    kappa_max: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str], np.ndarray]:
    """Adaptively sample one theta0 arc to arc length <= ds_max in (kappa, eps).

    Returns the columns of a :class:`BifurcationCurve` after its label.

    Refinement applies inside the plotting window |kappa| <= kappa_max,
    eps <= eps_max; one sample beyond each window exit is kept so the curve
    visibly leaves the frame.  An interval is halved while both its ends lie
    on the curve, one of them in the window, their distance exceeds ds_max
    and its width 1e-12.  All intervals of one depth are halved at once.  Of
    the halvings, the first _SPLIT_BUDGET in depth-first order (an interval
    before its halves, the left half before the right) are kept.
    """
    a = lo + (_EDGE if not lo_closed else 0.0)
    b = hi - (_EDGE if not hi_closed else 0.0)

    def points(th):
        s, c, k, e, on = _curve_points(th, p)
        return th, s, c, k, e, on, on & (k <= kappa_max) & (e <= eps_max)

    pts = points(np.linspace(a, b, n_init))   # theta, s, c, kappa, eps, on, in window
    t, _, _, k, e, on, win = pts
    i0 = np.arange(n_init - 1)
    i1 = i0 + 1
    split_t0, split_depth, split_mid = [], [], []
    earlier = np.empty(0)    # sorted left ends of the intervals halved at lower depths
    depth = 0
    while len(i0):
        cand = np.flatnonzero(on[i0] & on[i1] & (win[i0] | win[i1]) & (t[i1] - t[i0] > 1e-12))
        ds = np.fromiter(map(math.hypot, (k[i1[cand]] - k[i0[cand]]).tolist(),
                             (e[i1[cand]] - e[i0[cand]]).tolist()), float, len(cand))
        cut = cand[ds > ds_max]
        # an interval's depth-first rank is at least the number of halvings
        # known to come before it: those of lower depth that start at or left
        # of it, and those of its own depth to its left
        t0 = t[i0[cut]]
        rank = np.searchsorted(earlier, t0, side="right") + np.arange(len(cut))
        keep = rank < _SPLIT_BUDGET
        cut, t0 = cut[keep], t0[keep]
        if not len(cut):
            break
        new = points(0.5 * (t0 + t[i1[cut]]))
        mid = np.arange(len(t), len(t) + len(cut))
        pts = tuple(np.concatenate(pair) for pair in zip(pts, new))
        t, _, _, k, e, on, win = pts
        split_t0.append(t0)
        split_depth.append(np.full(len(cut), depth))
        split_mid.append(mid)
        earlier = np.sort(np.concatenate([earlier, t0]))
        i0, i1 = (np.column_stack([i0[cut], mid]).ravel(),
                  np.column_stack([mid, i1[cut]]).ravel())
        depth += 1

    mids = np.concatenate(split_mid) if split_mid else np.empty(0, int)
    if len(mids) > _SPLIT_BUDGET:
        # depth-first order is by left end, an interval before its left half
        order = np.lexsort((np.concatenate(split_depth), np.concatenate(split_t0)))
        mids = mids[order[:_SPLIT_BUDGET]]
    sel = np.concatenate([np.arange(n_init), mids])
    sel = sel[np.argsort(t[sel])]
    t, s, c, k, e, on, _ = (x[sel] for x in pts)
    t, s, c, k, e = t[on], s[on], c[on], k[on], e[on]
    lam2 = _lambda_sq(s, c, k, p)
    return t, k, e, np.where(lam2 < 0.0, CENTER, SADDLE).tolist(), lam2


def _curves(p: Params, cp: CuspPoint | None) -> tuple[list[BifurcationCurve], float]:
    """:func:`sigma_theta_curve` with the cusp given, and the kappa_max of
    the plotting window the curves are sampled in."""
    eps_max = _default_eps_max(p, cp)
    kappa_max = _default_kappa_max(p, eps_max)
    arcs = []
    for (lo, hi, lc, hc) in branch_ranges(p):
        if lo >= math.pi / 2.0:
            arcs.append(("sigma_spi", lo, hi, lc, hc))
        elif cp is not None and cp.kind == "cusp" and lo < cp.theta < hi:
            arcs += [("sigma_s0", lo, cp.theta, lc, True), ("sigma_u", cp.theta, hi, True, hc)]
        else:
            arcs.append(("sigma_s0", lo, hi, lc, hc))
    return [BifurcationCurve(label, *_sample_arc(p, *arc, 200, 1e-3, eps_max, kappa_max))
            for label, *arc in arcs], kappa_max


def sigma_theta_curve(p: Params) -> list[BifurcationCurve]:
    """All steady-rotation curve branches, labeled and stability-tagged.

    Labels: "sigma_spi" for the branch at inclinations beyond the equator,
    "sigma_s0"/"sigma_u" for the center/saddle pieces of the small-angle
    branch split at the fold, and "sigma_s0" for the whole small-angle
    branch in the balanced case.  These are :func:`diagram`'s curves: 200
    angles per arc, refined to arc length 1e-3 in (kappa, eps) in its window.
    """
    return _curves(p, cusp(p))[0]


def _rpm_terms(th: np.ndarray, k: np.ndarray, p: Params):
    """(s, s2, c, Z, V, G0, G0') at the angles th, one per kappa in k; the
    kappa terms are left out where k^2 = 0, so that the poles are valid there."""
    s, c = _sincos(th)
    s2 = s * s
    Z = surface_z(s2, c, p)
    U = surface_u(c, Z, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (U + _centrifugal(s2, k), surface_g0(s, s2, c, Z, k, p),
                 surface_g0_prime(s2, c, Z, k, p))
    zero = k * k == 0.0
    if zero.any():
        z = (s[zero], s2[zero], c[zero], Z[zero])
        terms[0][zero], terms[1][zero], terms[2][zero] = (
            U[zero], surface_g0(*z, 0.0, p), surface_g0_prime(*z[1:], 0.0, p))
    return (s, s2, c, Z) + terms


def _rpm_floors(kappas, p: Params) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta, V, G0'/B) at the global minimum of the effective potential
    V = U + kappa^2/(2 sin^2) on each kappa slice.

    One grid of _RPM_NODES angles serves every slice: [0, pi], or [0, pi/2]
    at alpha = 0, where V is even about the equator, so that theta <= pi/2
    there.  U and 1/(2 sin^2) are taken once; the rows of V are their outer
    sum with kappa^2, and a kappa^2 != 0 makes V = +inf and G0 = -V' = +-inf
    at the poles.  The argmin of each row (the first on a tie) is polished
    between its two neighbours, all slices at once, with brentq's end rules:
    an end where G0 = 0 is the root, and where G0 keeps its sign (a pole
    minimum at kappa = 0, a minimum on the equator at alpha = 0) the argmin
    stays.  Otherwise Newton steps with the exact G0' shrink the bracket, a
    step that would leave it is a bisection, until |step| <= 1e-14 + _RTOL
    |theta|, brentq's tolerance.  V and G0'/B come from the same arrays.
    """
    k = np.asarray(kappas, dtype=float)
    grid = np.linspace(0.0, math.pi if p.alpha != 0.0 else 0.5 * math.pi, _RPM_NODES)
    s, c = _sincos(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 0.5 / (s * s)
        w[-1] = math.inf if p.alpha != 0.0 else w[-1]    # sin(pi) is 1.2e-16, not 0
        V = np.multiply.outer(k * k, w)
    V[k * k == 0.0] = 0.0                                # not 0 * inf at the poles
    V += surface_u(c, surface_z(s * s, c, p), p)
    j = V.argmin(axis=1)
    lo, hi = grid[np.maximum(j - 1, 0)], grid[np.minimum(j + 1, _RPM_NODES - 1)]
    g_lo, g_hi = _rpm_terms(np.concatenate((lo, hi)), np.tile(k, 2), p)[5].reshape(2, -1)
    g_hi[(hi == math.pi) & (k * k != 0.0)] = -math.inf  # the barrier at pi, as in V
    x = np.where(g_lo == 0.0, lo, np.where(g_hi == 0.0, hi, grid[j]))
    live = np.flatnonzero(np.sign(g_lo) * np.sign(g_hi) < 0.0)
    for _ in range(100):
        if not len(live):
            break
        t = x[live]
        G, dG = _rpm_terms(t, k[live], p)[5:]
        left = (G > 0.0) == (g_lo[live] > 0.0)        # t lies on lo's side of the root
        a = lo[live] = np.where(left, t, lo[live])
        b = hi[live] = np.where(left, hi[live], t)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = t - G / dG
        x[live] = new = np.where((new >= a) & (new <= b), new, 0.5 * (a + b))
        live = live[np.abs(new - t) > 1e-14 + _RTOL * np.abs(t)]
    if len(live):
        raise RuntimeError(f"RPM floor polish failed to converge at kappa={k[live].tolist()}")
    s, s2, c, Z, V, _, dG = _rpm_terms(x, k, p)
    return x, V, dG / surface_b(s, s2, c, Z, p)[0]


def rpm_floor(kappa: float, p: Params) -> float:
    """Global minimum of the effective potential at this kappa.

    The lower edge of the region of possible motions on the (kappa, eps)
    plane.  At kappa = 0 the potential continues smoothly through the poles,
    so the candidates include both pole values.
    """
    return float(_rpm_floors([kappa], p)[1][0])


def rpm_boundary(p: Params, kappa_max: float) -> BifurcationCurve:
    """Lower envelope eps_min(kappa) of the region of possible motions, with
    the angle theta0 each floor is taken at and G0'/B there: one
    :func:`_rpm_floors` pass over 241 kappas from 0 to kappa_max."""
    kappas = np.linspace(0.0, kappa_max, 241)
    theta0, eps, lam2 = _rpm_floors(kappas, p)
    return BifurcationCurve("rpm_boundary", theta0, kappas, eps, [CENTER] * len(kappas), lam2)


def _default_eps_max(p: Params, cp: CuspPoint | None) -> float:
    cands = [1.0 + p.alpha, 1.0 - p.alpha]
    ts = inclined_equilibrium(p)
    if ts is not None and 0.0 < ts < math.pi:
        cands.append(profile(ts, p).U)
    if cp is not None:
        cands.append(cp.eps)
    return max(cands) + 1.0


def _default_kappa_max(p: Params, eps_max: float) -> float:
    # find where each branch leaves the eps window and take the largest kappa
    k_best = 1.0
    for (lo, hi, lc, hc) in branch_ranges(p):
        a = lo + (0.0 if lc else _EDGE)
        b = hi - (0.0 if hc else _EDGE)
        _, _, k, e, on = _curve_points(np.linspace(a, b, 2001), p)
        k = k[on & (e <= eps_max)]
        if len(k):
            k_best = max(k_best, float(k.max()))
    if p.alpha == 0.0 and p.beta > 1.0:
        k_best = max(k_best, equator_kappa_c(p) + 1.0)
    k_best = max(k_best, math.sqrt(max(2.0 * (eps_max - p.beta), 0.0)) if p.alpha == 0.0 else k_best)
    return k_best


def diagram(p: Params) -> BifurcationDiagram:
    """Assemble the labeled bifurcation diagram and classify its type.

    Types by the (alpha, beta^2) region: "a" alpha>0, beta^2 < 1-alpha;
    "b" alpha>0, 1-alpha < beta^2 < 1+alpha; "c" alpha>0, beta^2 > 1+alpha;
    "d" alpha=0, beta^2 < 1; "e" alpha=0, beta^2 > 1.  Parameters on a
    region boundary resolve to the higher-beta^2 type with the boundary
    flag set.  The seconds and sample counts of the curves, whose seconds
    include finding the plotting window, and of the RPM boundary are logged
    at INFO.
    """
    a, b2 = p.alpha, p.beta * p.beta
    # the region boundaries in beta^2, each with the type above it
    edges = [(1.0, "e")] if a == 0.0 else [(1.0 - a, "b"), (1.0 + a, "c")]
    dtype, boundary = "d" if a == 0.0 else "a", False
    for edge, above in edges:
        if abs(b2 - edge) <= _BOUNDARY_TOL:
            dtype, boundary = above, True
            break
        if b2 > edge:
            dtype = above

    cp = cusp(p)
    t0 = time.perf_counter()
    curves, kappa_max = _curves(p, cp)
    if a == 0.0:
        curves.append(equator_parabola(p, kappa_max))
    t1 = time.perf_counter()
    rpm = rpm_boundary(p, kappa_max)
    t2 = time.perf_counter()
    log.info("diagram curves: %d samples in %.3f s; rpm boundary: %d samples in %.3f s",
             sum(len(c.kappa) for c in curves), t1 - t0, len(rpm.kappa), t2 - t1)

    points = [
        FixedPointImage(label="sigma_0", kappa=0.0, eps=1.0 + a,
                        isolated=b2 < 1.0 + a, stable=b2 > 1.0 + a),
        FixedPointImage(label="sigma_pi", kappa=0.0, eps=1.0 - a,
                        isolated=b2 < 1.0 - a, stable=b2 > 1.0 - a),
    ]
    return BifurcationDiagram(
        params=p,
        diagram_type=dtype,
        boundary=boundary,
        curves=curves,
        points=points,
        cusp=cp,
        two_torus_region=(cp is not None and cp.kind == "cusp"),
        rpm_boundary=rpm,
    )

