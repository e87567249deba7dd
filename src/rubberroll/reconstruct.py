"""Absolute-space reconstruction and qualitative trajectory classification.

The reduced flow lives on the meridian chart (theta, p_theta).  Everything
else the rolling body does in the fixed frame follows by quadratures: the
precession psi and proper rotation phi obey

    dpsi/dt = -kappa cos(theta) / (J sin^2(theta)),
    dphi/dt =  kappa / (J sin^2(theta)),

the attitude is the Euler rotation Q(theta, psi, phi) whose columns are the
fixed axes expressed in the body frame (convention gamma_1 = sin theta
sin phi, gamma_2 = sin theta cos phi), and the center of mass moves in the
horizontal plane by

    d(x_c + i y_c)/dt = -U(theta) (kappa/(J sin theta) + i dtheta/dt) e^{i psi}

with height z_c = U(theta) pinned by the contact constraint.  The contact
point is the center of mass shifted by the body-frame contact vector pushed
to the fixed frame, and sits on the plane by construction.

Averaging the precession over one exact nutation period gives the rotation
number N, which drives the qualitative classification of the planar paths
into ten kinds: resting states and relative equilibria (Point, Circle,
UnboundedLine), the kappa = 0 meridian motions (Segment, UnboundedLine, and
NeutralRest on a flat potential, where every angle is at rest), separatrix
orbits (AsymptoticToCircles, AsymptoticToLines), and the generic levels,
split by the arithmetic of N (UnboundedResonant at integer N with a
one-period drift, ClosedPeriodic at rational N, QuasiPeriodicBounded
otherwise).  The drift comes from :func:`.integrate.period_map`, a
quadrature on the half period's nodes, so no level needs the stepper short
of its node cap.

kappa -> -kappa mirrors every path across the x axis and flips the sign of
N; all classifications are even in kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .brent import brentq, minimize_bounded
from .model import Params
from .geometry import profile, surface_u
from .dynamics import (
    _LEVEL_FLOOR,
    FP_WIDTH,
    FullState,
    component_intervals,
    critical_thetas,
    effective_potential,
    g0_prime,
    kinematic_init,
    potential_grid,
    turning_points,
)
from .integrate import (
    DEFAULT_MAX_STEPS,
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    HalfPeriod,
    _half_period_ends,
    _period_map,
    half_period,
    integrate,
)
from .bifurcation import cusp, inclined_equilibrium

__all__ = [
    "CLASS_KINDS",
    "AbsolutePath",
    "RotationNumber",
    "TrajectoryClass",
    "ResonancePoint",
    "quadrature_rates",
    "euler_rotation",
    "contact_shift",
    "reconstruct_trajectory",
    "reconstruct_from_full",
    "path_from_kinematic",
    "rotation_number",
    "classify",
    "resonance_curve",
    "epsilon_min",
    "kappa_max",
]

CLASS_KINDS = (
    "Point",
    "Circle",
    "UnboundedLine",
    "Segment",
    "UnboundedResonant",
    "ClosedPeriodic",
    "QuasiPeriodicBounded",
    "AsymptoticToCircles",
    "AsymptoticToLines",
    "NeutralRest",
)

_POLE_TOL = 1e-12
_SEP_TOL = 1e-9       # classify: a level this close to a saddle level is a separatrix
_WARN_TOL = 1e-6      # classify: ... and this close flags near_separatrix
_Q_MAX = 64           # classify: largest denominator of a locked rational N
_DRIFT_TOL = 1e-3     # classify: one-period drift over path diameter that counts as drift
_FLAT_GRID = 65       # classify: nodes on which a kappa = 0 component is tested for flatness
_RES_SCAN = 9         # resonance_curve: eps nodes scanned per segment and branch
_BUMP_HALFWIDTH = 0.35  # _bump_peak: half width of the eps window scanned
_BUMP_SCAN = 25       # _bump_peak: eps nodes in that window
_KAPPA_HI = 1.5       # kappa_max: search stops at this multiple of the fold's kappa


@dataclass(frozen=True)
class AbsolutePath:
    """Sampled fixed-frame trajectory: Euler angles, center of mass, contact.

    psi and phi are continuous (unwrapped) angles.  z_p is identically zero
    and therefore not stored.
    """

    t: np.ndarray
    theta: np.ndarray
    p_theta: np.ndarray
    psi: np.ndarray
    phi: np.ndarray
    x_c: np.ndarray
    y_c: np.ndarray
    z_c: np.ndarray
    x_p: np.ndarray
    y_p: np.ndarray


@dataclass(frozen=True)
class RotationNumber:
    """Precession per nutation period, N = -(1/2 pi) int psi_dot dt.

    err estimates the absolute error of N: with method "quadrature" the
    difference between the two finest midpoint rules of the half-period
    quadrature, or their rounding error where that is larger; with method
    "ode" (past the quadrature's node cap) the difference between stepper
    runs at the requested and at 10 times tighter tolerances.  For a
    degenerate level (relative equilibrium) N is the linearization value
    -psi_dot(theta_0)/omega_lin, fixed_point is set, err is 0 and method is
    "linearization"; period is None there and for kappa = 0, where N = 0
    exactly, err is 0 and method is None.
    """

    N: float
    err: float
    period: float | None = None
    fixed_point: bool = False
    method: str | None = None


@dataclass(frozen=True)
class TrajectoryClass:
    """Qualitative type of the planar center-of-mass path at one level.

    kind is one of CLASS_KINDS.  resonance carries (num, den) of the locked
    rational N when kind is ClosedPeriodic or UnboundedResonant.  targets
    lists the nutation angles of the limiting motions for asymptotic kinds
    (and the equilibrium angle for Point / Circle / UnboundedLine).
    NeutralRest is a kappa = 0 level on which V stays within rounding of
    eps over the whole component (the centered sphere at its rest level):
    every angle is an equilibrium, N = 0 and targets is empty.
    near_separatrix flags a level closer to a critical value than the
    classification can reliably resolve.
    """

    kind: str
    N: float | None = None
    N_err: float | None = None
    resonance: tuple[int, int] | None = None
    targets: tuple[float, ...] = ()
    near_separatrix: bool = False


@dataclass(frozen=True)
class ResonancePoint:
    """One sample of a resonance curve N(kappa, eps) = -n."""

    kappa: float
    eps: float
    N: float
    N_err: float
    branch: int


def quadrature_rates(theta: float, kappa: float, p: Params) -> tuple[float, float, float]:
    """Precession rate, proper-rotation rate and spin at a nutation angle.

    Returns (psi_dot, phi_dot, omega3) with omega3 = kappa/J(theta),
    phi_dot = omega3/sin^2, psi_dot = -omega3 cos/sin^2.
    """
    s = math.sin(theta)
    if abs(s) < _POLE_TOL:
        raise ValueError(f"quadrature rates undefined at the pole theta={theta}")
    if kappa == 0.0:
        return 0.0, 0.0, 0.0
    se = profile(theta, p, pole_mode=True)
    w3 = kappa / se.J
    s2 = s * s
    return -w3 * math.cos(theta) / s2, w3 / s2, w3


def euler_rotation(theta: float, psi: float, phi: float) -> np.ndarray:
    """Euler rotation as a 3x3 array whose columns are the fixed axes in the
    body frame; the third column is the vertical (sin sin phi, sin cos phi,
    cos).  Fixed components of a body vector v are Q^T v.
    """
    st = math.sin(theta); ct = math.cos(theta)
    sp = math.sin(psi); cp = math.cos(psi)
    sf = math.sin(phi); cf = math.cos(phi)
    a = (cp * cf - ct * sp * sf, -cp * sf - ct * sp * cf, st * sp)
    b = (sp * cf + ct * cp * sf, -sp * sf + ct * cp * cf, -st * cp)
    g = (st * sf, st * cf, ct)
    return np.array([a, b, g]).T


def _meridian_contact(st: np.ndarray, ct: np.ndarray, p: Params):
    """(Z, chi1, chi2) on arrays of sin and cos of theta, where the contact
    vector is r = (chi1 gamma_1, chi1 gamma_2, chi2) on the unit sphere.

    Z is rounded as sqrt((beta^2 st) st + ct^2), one ulp apart from
    :func:`.geometry.surface_z` in places, so that the z_c, x_p and y_p
    trajectory columns keep their bits.
    """
    b2 = p.beta * p.beta
    Z = np.sqrt(b2 * st * st + ct * ct)
    return Z, -b2 / Z, -ct / Z - p.alpha


def contact_shift(theta: np.ndarray, psi: np.ndarray, phi: np.ndarray, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal offset from center of mass to contact point, vectorized.

    Dots the body-frame contact vector with the first two columns of the
    Euler rotation.  Valid on the extended meridian chart (any real theta).
    """
    th = np.asarray(theta, float)
    ps = np.asarray(psi, float)
    ph = np.asarray(phi, float)
    st = np.sin(th); ct = np.cos(th)
    sp = np.sin(ps); cp = np.cos(ps)
    sf = np.sin(ph); cf = np.cos(ph)
    _, chi1, r3 = _meridian_contact(st, ct, p)
    r1 = chi1 * st * sf
    r2 = chi1 * st * cf
    dx = (cp * cf - ct * sp * sf) * r1 + (-cp * sf - ct * sp * cf) * r2 + st * sp * r3
    dy = (sp * cf + ct * cp * sf) * r1 + (-sp * sf + ct * cp * cf) * r2 - st * cp * r3
    return dx, dy


def _absolute_from_augmented(t: np.ndarray, y: np.ndarray, p: Params) -> AbsolutePath:
    th = y[:, 0]
    ct = np.cos(th)
    z_c = surface_u(ct, _meridian_contact(np.sin(th), ct, p)[0], p)
    dx, dy = contact_shift(th, y[:, 2], y[:, 3], p)
    return AbsolutePath(
        t=t, theta=th, p_theta=y[:, 1], psi=y[:, 2], phi=y[:, 3],
        x_c=y[:, 4], y_c=y[:, 5], z_c=z_c,
        x_p=y[:, 4] + dx, y_p=y[:, 5] + dy,
    )


def reconstruct_trajectory(
    init: tuple[float, float],
    kappa: float,
    t_span: tuple[float, float],
    p: Params,
    *,
    psi0: float = 0.0,
    phi0: float = 0.0,
    x0: float = 0.0,
    y0: float = 0.0,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    max_steps: int = DEFAULT_MAX_STEPS,
    t_eval: np.ndarray | None = None,
) -> AbsolutePath:
    """Fixed-frame path of the reduced orbit through (theta0, p_theta0).

    Integrates the reduced flow together with the angle quadratures and the
    planar center-of-mass velocity on one adaptive grid, then attaches the
    contact point through the Euler rotation and the height through the
    contact constraint.  Samples at t_eval when given, else at the accepted
    steps.
    """
    theta0, p_theta0 = init
    y0v = np.array([theta0, p_theta0, psi0, phi0, x0, y0], dtype=float)
    traj = integrate(
        "augmented", y0v, t_span, p, kappa=kappa,
        tol_abs=tol_abs, tol_rel=tol_rel, max_steps=max_steps, t_eval=t_eval,
    )
    if t_eval is not None:
        return _absolute_from_augmented(traj.t_eval, traj.y_eval, p)
    return _absolute_from_augmented(traj.t, traj.y, p)


def reconstruct_from_full(
    state: FullState,
    t_span: tuple[float, float],
    p: Params,
    *,
    x0: float = 0.0,
    y0: float = 0.0,
    a_hint: np.ndarray | None = None,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    max_steps: int = DEFAULT_MAX_STEPS,
    t_eval: np.ndarray | None = None,
) -> AbsolutePath:
    """Fixed-frame path by direct kinematic integration of a full state.

    Transports the fixed axes in the body frame alongside (omega, gamma) and
    reads the Euler angles off them afterwards; no quadratures involved.
    This is the oracle route the quadrature reconstruction is checked
    against.  Works on the principal chart theta in [0, pi]; samples where
    gamma passes through a pole have degenerate angle reads.
    """
    y0v = kinematic_init(state, x0=x0, y0=y0, a_hint=a_hint)
    traj = integrate(
        "kinematic", y0v, t_span, p,
        tol_abs=tol_abs, tol_rel=tol_rel, max_steps=max_steps, t_eval=t_eval,
    )
    t, y = (traj.t_eval, traj.y_eval) if t_eval is not None else (traj.t, traj.y)
    return path_from_kinematic(t, y, p)


def path_from_kinematic(t: np.ndarray, y: np.ndarray, p: Params) -> AbsolutePath:
    """Fixed-frame path read off samples y (one row per time in t) of the
    kinematic system (see :func:`.dynamics.kinematic_field`)."""
    w = y[:, 0:3]
    g = y[:, 3:6]
    ax = y[:, 6:9]
    bx = y[:, 9:12]
    gn = g / np.linalg.norm(g, axis=1)[:, None]
    g3 = np.clip(gn[:, 2], -1.0, 1.0)
    th = np.arccos(g3)
    st = np.sin(th)

    phi = np.unwrap(np.arctan2(gn[:, 0], gn[:, 1]))
    psi = np.unwrap(np.arctan2(ax[:, 2], -bx[:, 2]))

    p_theta = (gn[:, 1] * w[:, 0] - gn[:, 0] * w[:, 1]) / np.maximum(st, 1e-300)
    Z, chi1, chi2 = _meridian_contact(st, g3, p)
    r = np.column_stack([chi1 * gn[:, 0], chi1 * gn[:, 1], chi2])
    x_c = y[:, 12]
    y_c = y[:, 13]
    return AbsolutePath(
        t=t, theta=th, p_theta=p_theta, psi=psi, phi=phi,
        x_c=x_c, y_c=y_c, z_c=surface_u(g3, Z, p),
        x_p=x_c + np.einsum("ij,ij->i", ax, r),
        y_p=y_c + np.einsum("ij,ij->i", bx, r),
    )


def rotation_number(
    kappa: float,
    eps: float,
    p: Params,
    branch: int = 0,
    *,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> RotationNumber:
    """Rotation number of the level (kappa, eps) on one admissible component.

    By the time symmetry of the nutation, the full-period precession is
    twice the precession psi_half between the turning points, so
    N = -psi_half/pi; :func:`.integrate.half_period` gives psi_half and the
    half period by quadrature.  tol_abs and tol_rel are the quadrature's
    stop target (and the stepper's tolerances on its fallback).
    """
    lo, hi = turning_points(kappa, eps, p, branch)
    return _rotation_number(kappa, eps, p, lo, hi, tol_abs, tol_rel)[0]


def _rotation_number(
    kappa: float, eps: float, p: Params, lo: float, hi: float,
    tol_abs: float, tol_rel: float,
) -> tuple[RotationNumber, HalfPeriod | None]:
    """:func:`rotation_number` of the component [lo, hi], and the half
    period it comes from (None where there is none)."""
    if kappa == 0.0:
        return RotationNumber(N=0.0, err=0.0, period=None,
                              fixed_point=hi - lo <= FP_WIDTH), None

    if hi - lo <= FP_WIDTH:
        thc = 0.5 * (lo + hi)
        lam2 = g0_prime(thc, kappa, p) / profile(thc, p).B
        if lam2 >= 0.0:
            raise ValueError(
                f"level ({kappa}, {eps}) sits on an unstable relative equilibrium; "
                "no oscillation frequency"
            )
        psi_dot, _, _ = quadrature_rates(thc, kappa, p)
        return RotationNumber(N=-psi_dot / math.sqrt(-lam2), err=0.0, period=None,
                              fixed_point=True, method="linearization"), None

    lo, hi, _ = _half_period_ends(kappa, eps, p, lo, hi)
    hp = half_period(kappa, eps, p, lo, hi, tol_abs=tol_abs, tol_rel=tol_rel)
    return RotationNumber(N=-hp.psi / math.pi, err=hp.psi_err / math.pi,
                          period=2.0 * hp.t, fixed_point=False, method=hp.method), hp


def _kappa0_saddles(p: Params) -> list[tuple[float, float]]:
    """Unstable equilibria of the kappa = 0 meridian system, (theta, level)."""
    out = []
    if g0_prime(0.0, 0.0, p) > 0.0:
        out.append((0.0, 1.0 + p.alpha))
    if g0_prime(math.pi, 0.0, p) > 0.0:
        out.append((math.pi, 1.0 - p.alpha))
    for thc in critical_thetas(0.0, p):
        if g0_prime(thc, 0.0, p) > 0.0:
            out.append((thc, effective_potential(thc, 0.0, p)))
    return out


def _path_diameter(z: np.ndarray) -> float:
    """Diagonal of the bounding box of the planar path z = x + i y."""
    return math.hypot(float(np.ptp(z.real)), float(np.ptp(z.imag)))


def classify(
    kappa: float,
    eps: float,
    p: Params,
    branch: int = 0,
    *,
    tol_int: float | None = None,
    tol_rat: float | None = None,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> TrajectoryClass:
    """Qualitative type of the center-of-mass path at one level set.

    Decision order: degenerate components (rest states and relative
    equilibria), at kappa = 0 a flat potential (NeutralRest) and then the
    meridian dichotomy against the circulation threshold, separatrix levels
    within 1e-9 of a critical value, then the rotation number: integers
    give unbounded resonant drift unless the one-period drift D of
    :func:`.integrate.period_map` is at most 1e-3 of the path's diameter
    (symmetric orbits close instead), rationals with denominator at most
    64 close up, everything else fills an annulus.  Levels within 1e-6 of
    a critical value classify generically but carry the near_separatrix
    flag.  The level's components are scanned once.

    tol_int and tol_rat default to 5 err + 1e-9 from the computed rotation
    number; pass wider values to match data of limited precision.

    Raises
    ------
    ValueError
        If the level (kappa, eps) has no admissible motion or ``branch`` is
        out of range.
    IntegrationError
        If, past the quadrature's node cap, the stepper finds no half-period
        return (a level too close to a critical value).
    """
    lo, hi = turning_points(kappa, eps, p, branch)
    alpha0 = p.alpha == 0.0

    if hi - lo <= FP_WIDTH:
        thc = 0.5 * (lo + hi)
        if kappa == 0.0:
            return TrajectoryClass(kind="Point", targets=(thc,))
        if alpha0 and abs(thc - 0.5 * math.pi) <= 1e-9:
            return TrajectoryClass(kind="UnboundedLine", targets=(thc,))
        return TrajectoryClass(kind="Circle", targets=(thc,))

    if kappa == 0.0:
        # a flat potential, V = eps within rounding over the whole component:
        # every angle of it is an equilibrium
        nodes = np.linspace(lo, hi, _FLAT_GRID)
        if np.all(np.abs(potential_grid(nodes, 0.0, p)[0] - eps)
                  <= _LEVEL_FLOOR * max(1.0, abs(eps))):
            return TrajectoryClass(kind="NeutralRest", N=0.0, N_err=0.0)
        e_circ = epsilon_min(p)
        hits = [(th, lv) for th, lv in _kappa0_saddles(p)
                if abs(eps - lv) <= _SEP_TOL and lo - 1e-6 <= th <= hi + 1e-6]
        if hits:
            return TrajectoryClass(kind="Segment", N=0.0, N_err=0.0,
                                   targets=tuple(th for th, _ in hits))
        near = any(abs(eps - lv) <= _WARN_TOL for _, lv in _kappa0_saddles(p))
        if eps < e_circ:
            return TrajectoryClass(kind="Segment", N=0.0, N_err=0.0,
                                   near_separatrix=near)
        return TrajectoryClass(kind="UnboundedLine", N=0.0, N_err=0.0,
                               near_separatrix=near)

    near = False
    for thc in critical_thetas(kappa, p):
        if g0_prime(thc, kappa, p) <= 0.0:
            continue
        lv = effective_potential(thc, kappa, p)
        if abs(eps - lv) <= _SEP_TOL and lo - 1e-6 <= thc <= hi + 1e-6:
            if alpha0 and abs(thc - 0.5 * math.pi) <= 1e-9:
                return TrajectoryClass(kind="AsymptoticToLines", targets=(thc,))
            return TrajectoryClass(kind="AsymptoticToCircles", targets=(thc,))
        if abs(eps - lv) <= _WARN_TOL:
            near = True

    rn, hp = _rotation_number(kappa, eps, p, lo, hi, tol_abs, tol_rel)
    t_int = tol_int if tol_int is not None else 5.0 * rn.err + 1e-9
    t_rat = tol_rat if tol_rat is not None else 5.0 * rn.err + 1e-9

    n_near = round(rn.N)
    if abs(rn.N - n_near) <= t_int:
        pm = _period_map(kappa, eps, p, lo, hi, False, hp, tol_abs, tol_rel)
        diam = _path_diameter(np.concatenate(([0.0], pm.z, [pm.D])))
        if abs(pm.D) > _DRIFT_TOL * max(diam, 1e-300):
            return TrajectoryClass(kind="UnboundedResonant", N=rn.N, N_err=rn.err,
                                   resonance=(n_near, 1), near_separatrix=near)
        return TrajectoryClass(kind="ClosedPeriodic", N=rn.N, N_err=rn.err,
                               resonance=(n_near, 1), near_separatrix=near)

    fr = Fraction(rn.N).limit_denominator(_Q_MAX)
    if abs(rn.N - float(fr)) <= t_rat:
        return TrajectoryClass(kind="ClosedPeriodic", N=rn.N, N_err=rn.err,
                               resonance=(fr.numerator, fr.denominator),
                               near_separatrix=near)
    return TrajectoryClass(kind="QuasiPeriodicBounded", N=rn.N, N_err=rn.err,
                           near_separatrix=near)


def _slice_segments(kappa: float, p: Params, eps_max: float) -> list[tuple[float, float]]:
    """Open eps-intervals of constant component structure on a kappa slice."""
    levels = sorted({effective_potential(th, kappa, p)
                     for th in critical_thetas(kappa, p)})
    levels = [lv for lv in levels if lv < eps_max]
    if not levels:
        return []
    cuts = levels + [eps_max]
    return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]


def resonance_curve(
    n: int,
    p: Params,
    kappa_range: tuple[float, float],
    n_kappa: int = 25,
    *,
    branch: int | None = None,
    eps_max: float | None = None,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> list[ResonancePoint]:
    """Sampled locus of N(kappa, eps) = -n over a kappa grid.

    Each kappa slice is cut at its critical levels, where the component
    structure changes and N may jump or diverge; within a segment N is
    continuous per component, so sign changes of N + n on a coarse scan
    bracket every crossing, refined by brentq and kept only when the
    polished residual is at most 1e-6.  Slices contribute nothing where no
    crossing exists; the result may be empty.  kappa = 0 grid nodes are
    skipped (N vanishes identically there).
    """
    out: list[ResonancePoint] = []
    for kap in np.linspace(kappa_range[0], kappa_range[1], n_kappa):
        kap = float(kap)
        if abs(kap) < 1e-9:
            continue
        top = eps_max
        if top is None:
            levels = [effective_potential(th, kap, p) for th in critical_thetas(kap, p)]
            if not levels:
                continue
            top = max(levels) + 2.0
        for seg_lo, seg_hi in _slice_segments(kap, p, top):
            pad = max(1e-9, 1e-6 * (seg_hi - seg_lo))
            a, b = seg_lo + pad, seg_hi - pad
            if not a < b:
                continue
            mid_count = len(component_intervals(kap, 0.5 * (a + b), p))
            for br in range(mid_count):
                if branch is not None and br != branch:
                    continue

                def f(e: float) -> float:
                    return rotation_number(kap, e, p, br,
                                           tol_abs=tol_abs, tol_rel=tol_rel).N + n

                grid = np.linspace(a, b, _RES_SCAN)
                vals = [f(float(e)) for e in grid]
                for i in range(_RES_SCAN - 1):
                    if vals[i] == 0.0 or vals[i] * vals[i + 1] >= 0.0:
                        continue
                    root = brentq(f, float(grid[i]), float(grid[i + 1]), xtol=1e-12)
                    rn = rotation_number(kap, float(root), p, br,
                                         tol_abs=tol_abs, tol_rel=tol_rel)
                    if abs(rn.N + n) <= 1e-6:
                        out.append(ResonancePoint(kappa=kap, eps=float(root),
                                                  N=rn.N, N_err=rn.err, branch=br))
    return out


def epsilon_min(p: Params) -> float:
    """Lowest energy of unbounded kappa = 0 motion (meridian circulation).

    Equals the larger pole height 1 + alpha while the poles dominate the
    height profile, and the interior maximum U(theta*) once beta^2 exceeds
    1 + alpha.
    """
    if p.beta * p.beta <= 1.0 + p.alpha:
        return 1.0 + p.alpha
    th = inclined_equilibrium(p)
    return profile(th, p, pole_mode=True).U


def _bump_peak(
    kappa: float, p: Params, e_center: float, *,
    tol_abs: float = DEFAULT_TOL_ABS, tol_rel: float = DEFAULT_TOL_REL,
) -> tuple[float, float]:
    """Local maximum of N over eps near e_center on the topmost branch.

    Past the fold merge the slice keeps a narrow bump of elevated N around
    the old merge level; a uniform scan brackets it and a bounded search
    refines the peak.  Returns (eps_peak, N_peak).
    """
    levels = [effective_potential(th, kappa, p) for th in critical_thetas(kappa, p)]
    base = max(levels)
    lo = max(base + max(1e-7, 1e-7 * abs(base)), e_center - _BUMP_HALFWIDTH)
    hi = e_center + _BUMP_HALFWIDTH

    def n_of(e: float) -> float:
        try:
            return rotation_number(kappa, e, p, 0, tol_abs=tol_abs, tol_rel=tol_rel).N
        except (ValueError, RuntimeError):
            return -math.inf

    grid = np.linspace(lo, hi, _BUMP_SCAN)
    vals = [n_of(float(e)) for e in grid]
    i = int(np.argmax(vals))
    if i == 0 or i == _BUMP_SCAN - 1:
        return float(grid[i]), vals[i]
    e_peak, neg_n = minimize_bounded(lambda e: -n_of(e), float(grid[i - 1]),
                                     float(grid[i + 1]), xatol=1e-6)
    return e_peak, -neg_n


def _peak_eps(
    kappa: float, p: Params, e_seed: float, *, span: float = 0.02,
    tol_abs: float = DEFAULT_TOL_ABS, tol_rel: float = DEFAULT_TOL_REL,
) -> float:
    """Stationary eps of N near e_seed, as a root of the FD slope.

    A second-order slope locates the peak coarsely; a fourth-order
    stencil at a tenth of the step then removes the truncation bias,
    which matters because the peak can be extremely sharp (third
    derivatives of order 1e7 occur near the fold).
    """
    levels = [effective_potential(th, kappa, p) for th in critical_thetas(kappa, p)]
    floor = max(levels) + 1e-3

    def n_of(e: float) -> float:
        return rotation_number(kappa, e, p, 0, tol_abs=tol_abs, tol_rel=tol_rel).N

    def slope2(e: float, h: float = 1e-4) -> float:
        return (n_of(e + h) - n_of(e - h)) / (2.0 * h)

    def slope4(e: float, h: float = 1e-5) -> float:
        return (-n_of(e + h) + 8.0 * n_of(e + 0.5 * h)
                - 8.0 * n_of(e - 0.5 * h) + n_of(e - h)) / (6.0 * h)

    w = span
    for _ in range(5):
        lo, hi = max(e_seed - w, floor), e_seed + w
        s_lo, s_hi = slope2(lo), slope2(hi)
        if s_lo == 0.0:
            e1 = lo
            break
        if s_lo * s_hi < 0.0:
            e1 = float(brentq(slope2, lo, hi, xtol=1e-9))
            break
        w *= 2.0
    else:
        raise RuntimeError(f"no N-slope sign change near eps={e_seed} at kappa={kappa}")

    d = 2e-4
    s_lo, s_hi = slope4(e1 - d), slope4(e1 + d)
    if s_lo * s_hi < 0.0:
        return float(brentq(slope4, e1 - d, e1 + d, xtol=1e-12))
    return e1


def kappa_max(
    p: Params,
    *,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> float | None:
    """Largest kappa reached by the N = 0 resonance locus, or None.

    Only diagrams with an interior height maximum and alpha > 0 carry a
    bounded N = 0 curve.  Below the fold merge the curve's upper branch
    hugs the saddle level, where N diverges to +infinity, so a crossing
    exists on every slice; past the merge only a finite bump of elevated
    N survives near the old merge level, and it sinks below zero at the
    fold of the locus.  The fold solves N = 0 and dN/deps = 0 by nested
    1-D root-finding: the inner root locates the slice's peak eps, the
    outer root drives the peak height to zero over kappa.  Both residuals
    are checked below 1e-6 on return.
    """
    if p.alpha == 0.0 or p.beta * p.beta <= 1.0 + p.alpha:
        return None

    cp = cusp(p)
    if cp is None:
        return None
    e_c = float(cp.eps)
    k0 = float(cp.kappa)
    hi = _KAPPA_HI * k0

    e_warm = e_c

    def g(kk: float) -> float:
        # peak height of the slice; the inner slope root updates the seed
        nonlocal e_warm
        e_warm = _peak_eps(kk, p, e_warm, tol_abs=tol_abs, tol_rel=tol_rel)
        return rotation_number(kk, e_warm, p, 0, tol_abs=tol_abs, tol_rel=tol_rel).N

    # walk kappa up from the merge until the bump peak sinks below zero;
    # the coarse scan can miss a narrow positive spike, so a non-positive
    # scan result is confirmed with the slope-rooted peak before stopping
    k_a = k0 + max(1e-4, 1e-4 * k0)
    e_a, n_a = _bump_peak(k_a, p, e_c, tol_abs=tol_abs, tol_rel=tol_rel)
    if n_a > 0.0:
        e_warm = e_a
    step = max(0.002, 0.002 * k0)
    k_b = None
    k = k_a
    grows = 0
    while k < hi:
        k_n = min(k + step, hi)
        e_n, n_n = _bump_peak(k_n, p, e_warm, tol_abs=tol_abs, tol_rel=tol_rel)
        if n_n <= 0.0:
            e_keep = e_warm
            try:
                n_n = g(k_n)
            except (ValueError, RuntimeError):
                n_n = -1.0
            if n_n <= 0.0:
                e_warm = e_keep
                k_b = k_n
                break
        else:
            e_warm = e_n
        k = k_n
        grows += 1
        if grows % 8 == 0:
            step *= 2.0
    if k_b is None:
        return None

    k_star = float(brentq(g, k, k_b, xtol=1e-8))

    e_star = _peak_eps(k_star, p, e_warm, tol_abs=1e-14, tol_rel=1e-12)

    def n_tight(e: float) -> float:
        return rotation_number(k_star, e, p, 0, tol_abs=1e-14, tol_rel=1e-12).N

    f1 = n_tight(e_star)
    h = 1e-5
    f2 = (-n_tight(e_star + h) + 8.0 * n_tight(e_star + 0.5 * h)
          - 8.0 * n_tight(e_star - 0.5 * h) + n_tight(e_star - h)) / (6.0 * h)
    if abs(f1) > 1e-6 or abs(f2) > 1e-6:
        raise RuntimeError(
            f"kappa_max polish stalled at residuals N={f1:.3e}, dN/deps={f2:.3e}")
    return k_star
