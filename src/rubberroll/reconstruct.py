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
quadrature on the half period's nodes, so no level needs the stepper.

kappa -> -kappa mirrors every path across the x axis and flips the sign of
N; all classifications are even in kappa.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .brent import brentq
from .model import Params
from .geometry import profile, surface_u, surface_z
from .dynamics import (
    _LEVEL_FLOOR,
    FullState,
    component_intervals,
    critical_points,
    g0_prime,
    kinematic_init,
    potential_grid,
    reduce_state,
    reduced_energy,
    scan_roots,
)
from .integrate import (
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    HalfPeriod,
    IntegrationError,
    _component,
    _ladder,
    _pole_margin,
    _psi_slope,
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
    "euler_rotation",
    "contact_shift",
    "reconstruct_trajectory",
    "reconstruct_from_full",
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

_SEP_TOL = 1e-9       # classify: a level this close to a saddle level is a separatrix
_WARN_TOL = 1e-6      # classify: ... and this close flags near_separatrix
_Q_MAX = 64           # classify: largest denominator of a locked rational N
_DRIFT_TOL = 1e-3     # classify: one-period drift over path diameter that counts as drift
_FLAT_GRID = 65       # classify: nodes on which a kappa = 0 component is tested for flatness
_RES_SCAN = 9         # resonance_curve: eps nodes scanned per segment and branch
_RES_TOL = 1e-6       # resonance_curve: largest |N + n| of a kept root
_PEAK_STEP = 1e-4     # kappa_max: first eps step out from the last peak
_PEAK_DOUBLINGS = 16  # kappa_max: steps, each twice the last, before giving up
_KAPPA_HI = 1.5       # kappa_max: search stops at this multiple of the cusp's kappa

log = logging.getLogger(__name__)


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

    err estimates the absolute error of N: the difference between the two
    finest midpoint rules of the half-period quadrature, or their rounding
    error where that is larger.  For a degenerate level (relative
    equilibrium) N is the linearization value -psi_dot(theta_0)/omega_lin,
    fixed_point is set and err is 0; period is None there and for
    kappa = 0, where N = 0 exactly and err is 0.
    """

    N: float
    err: float
    period: float | None = None
    fixed_point: bool = False


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
    vector is r = (chi1 gamma_1, chi1 gamma_2, chi2) on the unit sphere."""
    Z = surface_z(st * st, ct, p)
    return Z, -p.beta * p.beta / Z, -ct / Z - p.alpha


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


def _absolute(t, theta, p_theta, psi, phi, x_c, y_c, p: Params) -> AbsolutePath:
    """The path of the reduced columns given, with its height and contact point."""
    ct = np.cos(theta)
    dx, dy = contact_shift(theta, psi, phi, p)
    return AbsolutePath(
        t=t, theta=theta, p_theta=p_theta, psi=psi, phi=phi, x_c=x_c, y_c=y_c,
        z_c=surface_u(ct, _meridian_contact(np.sin(theta), ct, p)[0], p),
        x_p=x_c + dx, y_p=y_c + dy,
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
    t_eval: np.ndarray | None = None,
) -> AbsolutePath:
    """Fixed-frame path of the reduced orbit through (theta0, p_theta0).

    The start fixes the level (:func:`.dynamics.reduced_energy`) and the
    component, the one that holds theta0, and one nutation period of
    quadrature, at tol_abs and tol_rel, the whole orbit
    (:func:`.integrate._ladder`): the start's phase comes from the node
    map, each sample's from Newton on the time modulo the period.  The
    seeds psi0, phi0, x0 and y0 rotate, offset and translate the orbit; the
    contact point follows through the Euler rotation, the height through
    the contact constraint.  At kappa = 0 theta0 may be any angle of the
    extended meridian chart, otherwise it must lie inside the chart's pole
    margin (ValueError).  Samples at t_eval when given (before t_span[0] or
    past t_span[1] too: the orbit runs both ways), else on t_span at as
    many times per period as nodes; a sample at t_span[0] is the start.

    Where the period map has no answer, on a relative equilibrium and where
    the half period does not converge by its node cap (next to a critical
    level), :func:`_stepped_path` steps the orbit at tol_abs and tol_rel.
    Each run logs its route at INFO.
    """
    theta0, p_theta0 = init
    # kappa = 0: theta = sigma theta_r + 2 pi m, theta_r in [0, pi], as the
    # flow is even and 2 pi-periodic in theta, and z changes sign with theta
    sigma, th = 1.0, theta0 % (2.0 * math.pi) if kappa == 0.0 else theta0
    if kappa != 0.0 and not _pole_margin(kappa) < th < math.pi - _pole_margin(kappa):
        raise ValueError(f"theta0={theta0} lies past the chart's pole margin at kappa={kappa}")
    if th > math.pi:
        sigma, th = -1.0, 2.0 * math.pi - th
    eps = reduced_energy(theta0, p_theta0, kappa, p)
    ivs = component_intervals(kappa, eps, p)
    branch = min(range(len(ivs)), key=lambda i: max(ivs[i][0] - th, th - ivs[i][1]), default=0)
    ends = _component(kappa, eps, p, branch)[2]
    try:
        if ends is None:
            raise IntegrationError("the start is a relative equilibrium")
        hp = half_period(kappa, eps, p, *ends[:2], circuit=ends[2], tol_abs=tol_abs,
                         tol_rel=tol_rel)
    except IntegrationError as ex:
        log.info("reconstruct_trajectory: DOP853 stepper, as %s", ex)
        return _stepped_path((theta0, p_theta0, psi0, phi0, x0, y0), kappa, t_span, p,
                             tol_abs, tol_rel, t_eval)
    pm, orbit = _ladder(kappa, eps, p, hp, tol_abs, tol_rel)
    if ends[2] and sigma * p_theta0 < 0.0:
        sigma, th = -sigma, 2.0 * math.pi - th   # a circuit run backwards, mirrored
    m = round((theta0 - sigma * th) / (2.0 * math.pi))
    t_s, th_s, pt_s, psi_s, phi_s, z_s = orbit.at(*orbit.phase(th, sigma * p_theta0))
    t0, t1 = t_span
    t = (np.asarray(t_eval, dtype=float) if t_eval is not None else
         np.linspace(t0, t1, 1 + math.ceil(len(orbit.u) * abs(t1 - t0) / orbit.T)))
    _, th_r, pt_r, psi_r, phi_r, z_r = orbit.at(*orbit.phases(t - t0 + t_s))
    dz = z_r - z_s if kappa != 0.0 else 1j * (z_r - z_s).imag   # a meridian motion keeps x
    cols = [sigma * th_r + 2.0 * math.pi * m, sigma * pt_r, psi0 + (psi_r - psi_s),
            phi0 + (phi_r - phi_s), complex(x0, y0) + sigma * cmath.exp(1j * (psi0 - psi_s[0])) * dz]
    for col, start in zip(cols, (theta0, p_theta0, psi0, phi0, complex(x0, y0))):
        col[t == t0] = start
    log.info("reconstruct_trajectory: period map on %d nodes, orbit on %d nodes, T = %.17g, "
             "err %.3g, %.6g periods", len(pm.u) // 2, len(orbit.u) // 2, orbit.T, pm.err,
             abs(t1 - t0) / orbit.T)
    return _absolute(t, *cols[:4], cols[4].real, cols[4].imag, p)


def _stepped_path(
    start: tuple, kappa: float, t_span: tuple[float, float], p: Params,
    tol_abs: float = DEFAULT_TOL_ABS, tol_rel: float = DEFAULT_TOL_REL,
    t_eval: np.ndarray | None = None,
) -> AbsolutePath:
    """:func:`reconstruct_trajectory` by DOP853 on the augmented system from
    start = (theta0, p_theta0, psi0, phi0, x0, y0), the seeds left out 0:
    at t_eval when given, else at the accepted steps.  Its fallback, and the
    oracle the tests and ``verify`` hold the period route to."""
    y0v = np.concatenate((start, np.zeros(6 - len(start))))
    traj = integrate("augmented", y0v, t_span, p, kappa=kappa, tol_abs=tol_abs,
                     tol_rel=tol_rel, t_eval=t_eval)
    return _absolute(traj.t, *traj.y.T, p)


def reconstruct_from_full(
    state: FullState,
    t_span: tuple[float, float],
    p: Params,
    *,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    t_eval: np.ndarray | None = None,
) -> AbsolutePath:
    """Fixed-frame path by direct kinematic integration of a full state,
    with the contact starting at the origin.

    Transports the fixed axes in the body frame alongside (omega, gamma) and
    reads the Euler angles off them afterwards; no quadratures involved:
    the oracle of the period route from the same start (:func:`_full_start`).
    Works on the principal chart theta in [0, pi]; samples where gamma
    passes through a pole have degenerate angle reads.
    """
    traj = integrate("kinematic", kinematic_init(state), t_span, p,
                     tol_abs=tol_abs, tol_rel=tol_rel, t_eval=t_eval)
    y = traj.y
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
        t=traj.t, theta=th, p_theta=p_theta, psi=psi, phi=phi,
        x_c=x_c, y_c=y_c, z_c=surface_u(g3, Z, p),
        x_p=x_c + np.einsum("ij,ij->i", ax, r),
        y_p=y_c + np.einsum("ij,ij->i", bx, r),
    )


def _full_start(state: FullState, p: Params) -> tuple[tuple[float, float], float, dict]:
    """The start ((theta0, p_theta0), kappa, {psi0, phi0}) of a full state on
    the period route: :func:`.dynamics.reduce_state`'s, with psi0 the angle
    that turns the fixed axes of :func:`.dynamics.kinematic_init` to phi0
    (at a pole these fix only psi0 +/- phi0)."""
    r = reduce_state(state, p)
    ax, bx = kinematic_init(state)[6:12].reshape(2, 3)
    sf, cf = math.sin(r.phi), math.cos(r.phi)
    psi0 = math.atan2(bx[0] * cf - bx[1] * sf, ax[0] * cf - ax[1] * sf)
    return (r.theta, r.p_theta), r.kappa, {"psi0": psi0, "phi0": r.phi}


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
    half period by quadrature on the level's node map, which clusters the
    nodes at a saddle the level passes close to and at an end next to a
    saddle or a pole.  tol_abs and tol_rel are the quadrature's stop
    target.  Raises ValueError where the level has no admissible motion or
    ``branch`` is out of range, and IntegrationError where the half period
    does not converge by the node cap (see :func:`.integrate.half_period`).
    """
    return _rotation_number(kappa, eps, p, *_component(kappa, eps, p, branch), tol_abs, tol_rel)[0]


def _rotation_number(
    kappa: float, eps: float, p: Params, lo: float, hi: float, ends: tuple | None,
    tol_abs: float, tol_rel: float,
) -> tuple[RotationNumber, HalfPeriod | None]:
    """:func:`rotation_number` of the component (lo, hi, ends) of
    :func:`.integrate._component`, and its half period (None where there is none)."""
    if kappa == 0.0:
        return RotationNumber(N=0.0, err=0.0, period=None, fixed_point=ends is None), None

    if ends is None:
        thc = 0.5 * (lo + hi)
        se = profile(thc, p)
        lam2 = g0_prime(thc, kappa, p) / se.B
        if lam2 >= 0.0:
            raise ValueError(
                f"level ({kappa}, {eps}) sits on an unstable relative equilibrium; "
                "no oscillation frequency"
            )
        s = math.sin(thc)
        psi_dot = -(kappa / se.J) * math.cos(thc) / (s * s)
        return RotationNumber(N=-psi_dot / math.sqrt(-lam2), err=0.0, period=None,
                              fixed_point=True), None

    hp = half_period(kappa, eps, p, ends[0], ends[1], tol_abs=tol_abs, tol_rel=tol_rel)
    return RotationNumber(N=-hp.psi / math.pi, err=hp.psi_err / math.pi,
                          period=2.0 * hp.t, fixed_point=False), hp


def classify(
    kappa: float,
    eps: float,
    p: Params,
    branch: int = 0,
    *,
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

    A resonance, integer or rational, is claimed only where the window
    N +/- (5 err + 1e-9) holds exactly one fraction with denominator at
    most 64; a window that holds several (any window wider than 1/64 does)
    cannot tell them apart, and the level is QuasiPeriodicBounded.

    Raises
    ------
    ValueError
        If the level (kappa, eps) has no admissible motion or ``branch`` is
        out of range.
    IntegrationError
        If the half period does not converge by the quadrature's node cap
        (see :func:`.integrate.half_period`).  A kappa = 0 level is
        classified without a half period.
    """
    lo, hi, ends = _component(kappa, eps, p, branch)
    alpha0 = p.alpha == 0.0

    if ends is None:
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

    # separatrix levels: a saddle of the component within _SEP_TOL of eps
    sads = critical_points(kappa, p).saddles
    hits = [th for th, lv, _ in sads if abs(eps - lv) <= _SEP_TOL and lo - 1e-6 <= th <= hi + 1e-6]
    near = any(abs(eps - lv) <= _WARN_TOL for _, lv, _ in sads)
    if kappa == 0.0:
        if hits:
            return TrajectoryClass(kind="Segment", N=0.0, N_err=0.0, targets=tuple(hits))
        return TrajectoryClass(kind="Segment" if eps < epsilon_min(p) else "UnboundedLine",
                               N=0.0, N_err=0.0, near_separatrix=near)
    if hits:
        lines = alpha0 and abs(hits[0] - 0.5 * math.pi) <= 1e-9
        return TrajectoryClass(kind="AsymptoticToLines" if lines else "AsymptoticToCircles",
                               targets=(hits[0],))

    rn, hp = _rotation_number(kappa, eps, p, lo, hi, ends, tol_abs, tol_rel)
    fr = _lone_fraction(rn.N, 5.0 * rn.err + 1e-9)
    if fr is not None and fr.denominator == 1:
        pm = next(_ladder(kappa, eps, p, hp, tol_abs, tol_rel)).period_map()
        z = np.concatenate(([0.0], pm.z, [pm.D]))   # diam: of its bounding box
        diam = math.hypot(float(np.ptp(z.real)), float(np.ptp(z.imag)))
        kind = ("UnboundedResonant" if abs(pm.D) > _DRIFT_TOL * max(diam, 1e-300)
                else "ClosedPeriodic")
        return TrajectoryClass(kind=kind, N=rn.N, N_err=rn.err,
                               resonance=(fr.numerator, 1), near_separatrix=near)
    if fr is not None:
        return TrajectoryClass(kind="ClosedPeriodic", N=rn.N, N_err=rn.err,
                               resonance=(fr.numerator, fr.denominator), near_separatrix=near)
    return TrajectoryClass(kind="QuasiPeriodicBounded", N=rn.N, N_err=rn.err,
                           near_separatrix=near)


def _lone_fraction(N: float, tol: float) -> Fraction | None:
    """The fraction with denominator at most _Q_MAX within tol of N, where
    there is exactly one; None where there is none or there are several."""
    if 2.0 * tol * _Q_MAX * _Q_MAX < 1.0:
        # two such fractions lie at least 1 / _Q_MAX^2 apart: at most one
        # fits, and it is the nearest
        fr = Fraction(N).limit_denominator(_Q_MAX)
        return fr if abs(N - float(fr)) <= tol else None
    found = None
    for q in range(1, _Q_MAX + 1):
        for n in range(math.floor((N - tol) * q), math.ceil((N + tol) * q) + 1):
            if abs(N - n / q) > tol or (found is not None and n * found[1] == found[0] * q):
                continue
            if found is not None:
                return None
            found = n, q
    return None if found is None else Fraction(*found)


def resonance_curve(
    n: int,
    p: Params,
    kappa: float,
    *,
    eps_max: float | None = None,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> list[ResonancePoint]:
    """Points of the locus N(kappa, eps) = -n on one kappa slice.

    The slice is cut at its critical levels, where the component structure
    changes and N may jump or diverge; within a segment N is continuous per
    component, so a coarse scan of N + n finds its roots: each node where it
    is 0, and each sign change, refined by brentq.  Two roots in one cell of
    the scan are missed.  A root is kept only when its polished residual is
    at most 1e-6; a slice that drops roots logs at INFO how many and the
    largest residual.  The result is empty where no crossing exists, and at
    kappa = 0 (N vanishes identically there).
    """
    out: list[ResonancePoint] = []
    if abs(kappa) < 1e-9:
        return out
    levels = critical_points(kappa, p).levels
    top = eps_max
    if top is None:
        if not levels:
            return out
        top = max(levels) + 2.0
    dropped, worst = 0, 0.0
    # the open eps-intervals of constant component structure
    cuts = [lv for lv in sorted(set(levels)) if lv < top]
    for seg_lo, seg_hi in zip(cuts, cuts[1:] + [top]):
        pad = max(1e-9, 1e-6 * (seg_hi - seg_lo))
        a, b = seg_lo + pad, seg_hi - pad
        if not a < b:
            continue
        for br in range(len(component_intervals(kappa, 0.5 * (a + b), p))):
            def f(e: float) -> float:
                return rotation_number(kappa, e, p, br, tol_abs=tol_abs, tol_rel=tol_rel).N + n

            grid = np.linspace(a, b, _RES_SCAN)
            # brentq (no start given): the scan does not read dN/deps yet
            for root in scan_roots(f, grid, np.array([f(float(e)) for e in grid]), 1e-12):
                rn = rotation_number(kappa, root, p, br, tol_abs=tol_abs, tol_rel=tol_rel)
                resid = abs(rn.N + n)
                if resid <= _RES_TOL:
                    out.append(ResonancePoint(kappa=kappa, eps=root,
                                              N=rn.N, N_err=rn.err, branch=br))
                else:
                    dropped, worst = dropped + 1, max(worst, resid)
    if dropped:
        log.info("resonance N = %d at kappa = %.17g: dropped %d roots with |N + n| above "
                 "%g, the largest %.3g", -n, kappa, dropped, _RES_TOL, worst)
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


def _rotation_slope(kappa: float, eps: float, p: Params) -> tuple[float, float, float]:
    """(N, dN/deps, err of dN/deps) on branch 0 of a libration at kappa != 0, from
    the half period :func:`rotation_number` keeps (see :func:`.integrate._psi_slope`)."""
    rn, hp = _rotation_number(kappa, eps, p, *_component(kappa, eps, p, 0),
                              DEFAULT_TOL_ABS, DEFAULT_TOL_REL)
    if hp is None:
        raise ValueError(f"level ({kappa}, {eps}) has no half period to differentiate")
    d_psi, err = _psi_slope(kappa, eps, p, hp)
    return rn.N, -d_psi / math.pi, err / math.pi


def kappa_max(p: Params) -> float | None:
    """Largest kappa reached by the N = 0 resonance locus, or None.

    Only diagrams with an interior height maximum and alpha > 0 carry a
    bounded N = 0 curve.  Past the cusp a narrow bump of N survives on
    branch 0 near the old saddle level, and the locus folds where its peak
    sinks to N = 0.  Each kappa slice's peak is the brentq root of the
    exact dN/deps (:func:`_rotation_slope`), bracketed by doubling steps out
    from the previous slice's peak (the cusp level on the first slice).
    Slices walk up from the cusp in kappa steps of 1 % until the peak
    height is no longer positive, and the fold is the brentq root in kappa
    of that height; None where the walk reaches 1.5 times the cusp's kappa.

    Raises RuntimeError if no slope sign change brackets a slice's peak, or
    if |N| or |dN/deps| exceeds 1e-6 at the fold, and the errors of
    :func:`rotation_number` where a level on the way has none.
    """
    if p.alpha == 0.0 or p.beta * p.beta <= 1.0 + p.alpha:
        return None
    cp = cusp(p)
    if cp is None:
        return None
    k0, e_peak = float(cp.kappa), float(cp.eps)

    def peak_height(kappa: float) -> float:
        # N at the slice's peak; the peak seeds the next slice
        nonlocal e_peak
        slope = lambda e: _rotation_slope(kappa, e, p)[1]
        a, s_a = e_peak, slope(e_peak)
        step = math.copysign(_PEAK_STEP, s_a)
        for _ in range(_PEAK_DOUBLINGS):
            b, s_b = a + step, slope(a + step)
            if s_a * s_b <= 0.0:
                break
            a, s_a, step = b, s_b, 2.0 * step
        else:
            raise RuntimeError(f"no peak of N near eps={e_peak} at kappa={kappa}")
        # brentq: the peak is a root of dN/deps, and d2N/deps2 is not at hand
        e_peak = brentq(slope, min(a, b), max(a, b), xtol=1e-12)
        return rotation_number(kappa, e_peak, p).N

    k_top = _KAPPA_HI * k0
    k_lo = k = k0 + max(1e-4, 1e-4 * k0)
    while peak_height(k) > 0.0:
        if k >= k_top:
            return None
        k_lo, k = k, min(k + 0.01 * k0, k_top)
    # brentq: the peak height has no slope in kappa at hand
    k_star = brentq(peak_height, k_lo, k, xtol=1e-10)

    peak_height(k_star)
    n_star, slope_star, _ = _rotation_slope(k_star, e_peak, p)
    if abs(n_star) > 1e-6 or abs(slope_star) > 1e-6:
        raise RuntimeError(
            f"kappa_max residuals at the fold: N={n_star:.3e}, dN/deps={slope_star:.3e}")
    return k_star
