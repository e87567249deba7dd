"""Equations of motion: full vector form and the one degree of freedom reduction.

Full system, dimensionless, in the body frame (m = g = 1):

    Jt dw/dt + w x (Jt w) + r x (w x dr/dt) + gamma x r - mu gamma = 0
    dgamma/dt = gamma x w

with the contact-point inertia tensor Jt = I + |r|^2 Id - r (x) r,
I = diag(1/eta, 1/eta, nu/eta), and the multiplier mu chosen so the no-spin
constraint (w, gamma) = 0 is preserved identically.

Conserved along motions with (w, gamma) = 0:

    F0 = (gamma, gamma)          geometric, identically
    F1 = (w, gamma)              constraint, identically
    kappa = J(gamma_3) w_3       axial momentum combination
    eps = (Jt w, w)/2 - (r, gamma)   energy

On the sphere F0 = 1 with F1 = 0 the nutation angle decouples:

    dtheta/dt = p
    dp/dt = (G0(theta) - B'(theta) p^2 / 2) / B(theta)
    G0(theta) = kappa^2 cos/sin^3 + alpha sin + (1 - beta^2) sin cos / Z

with energy eps = B p^2/2 + kappa^2/(2 sin^2) + U(theta).  G0 doubles as the
negative derivative of the effective potential, so its roots are the relative
equilibria and the turning-point machinery below is built on it.

The level-set scans here evaluate whole theta grids at once.  The rule is
"the array selects, the scalar decides": the array only picks grid cells or
nodes, and every number a scan returns comes from the scalar functions
(:func:`effective_potential`, :func:`g0`), through brentq, midpoint
membership tests or a plain re-evaluation at the selected node;
:func:`scan_roots` turns each sign scan into its roots.  A minimum is a root
of its slope, so brentq finds the extrema too.  Here only
:func:`critical_thetas` scans a fine grid, of G0 and G0', each a kappa-free
part plus kappa^2 times a factor of theta: one 45 KB table per body keeps
these, and a slice takes six array operations.  V is monotone between
consecutive critical thetas, so :func:`component_intervals` brackets every
turning point of a level with those thetas and the chart edges alone.  Each
kappa slice is scanned once: :func:`critical_points` keeps the critical
thetas of the last slices with their levels and saddle flags, and
:func:`component_intervals` keeps the components of the last levels, in
bounded per-process caches.  The caches key on the arguments as floats, so a
kept result does not depend on which caller computed it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .brent import brentq
from .geometry import (
    B_SIGN_DERIVED,
    g0_prime_spin,
    g0_spin,
    surface_b,
    surface_g0,
    surface_g0_prime,
    surface_j,
    surface_u,
    surface_z,
)
from .model import Params

__all__ = [
    "FullState",
    "ReducedState",
    "ReducedCoords",
    "Integrals",
    "full_field",
    "kinematic_field",
    "kinematic_init",
    "reduced_field",
    "augmented_field",
    "integrals",
    "reduced_energy",
    "effective_potential",
    "g0",
    "g0_prime",
    "potential_grid",
    "check_turning_point",
    "measure_density",
    "reduce_state",
    "lift",
    "sign_cells",
    "scan_roots",
    "CriticalPoints",
    "critical_points",
    "critical_thetas",
    "saddles",
    "component_intervals",
    "turning_points",
]


@dataclass(frozen=True)
class FullState:
    """Body angular velocity and unit vertical, both in the body frame."""

    omega: np.ndarray
    gamma: np.ndarray

    def as_array(self) -> np.ndarray:
        return np.concatenate([np.asarray(self.omega, float), np.asarray(self.gamma, float)])

    @staticmethod
    def from_array(y: np.ndarray) -> "FullState":
        y = np.asarray(y, dtype=float)
        return FullState(omega=y[:3].copy(), gamma=y[3:6].copy())


@dataclass(frozen=True)
class ReducedState:
    theta: float
    p_theta: float


@dataclass(frozen=True)
class ReducedCoords:
    """Reduced chart of a full state: (theta, p_theta), kappa, precession seed."""

    theta: float
    p_theta: float
    kappa: float
    phi: float
    psi_rate: float


@dataclass(frozen=True)
class Integrals:
    F0: float
    F1: float
    kappa: float
    eps: float


def _j_gamma3(gamma3: float, p: Params) -> float:
    """J as a function of gamma_3 alone (on the unit sphere)."""
    s2 = 1.0 - gamma3 * gamma3
    return surface_j(s2, gamma3, surface_u(gamma3, surface_z(s2, gamma3, p), p), p)


# --- Full system ---


def full_field(p: Params) -> Callable[[float, np.ndarray], np.ndarray]:
    """Right-hand side of the full system as f(t, y), y = (w, gamma).

    The closure is the hot path for the adaptive integrator, so the vector
    algebra is unrolled to scalars: cross products, the symmetric 3x3
    contact-inertia tensor and its adjugate-based solve.
    """
    a = p.alpha
    b2 = p.beta * p.beta
    i1 = 1.0 / p.eta
    i3 = p.nu / p.eta

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        # Python floats: the same arithmetic as on numpy scalars, faster
        w1, w2, w3, g1, g2, g3 = y.tolist()

        bg1 = b2 * g1; bg2 = b2 * g2; bg3 = g3
        s2 = g1 * bg1 + g2 * bg2 + g3 * bg3
        s = math.sqrt(s2)
        r1 = -bg1 / s
        r2 = -bg2 / s
        r3 = -bg3 / s - a

        # dgamma/dt = gamma x w
        u1 = g2 * w3 - g3 * w2
        u2 = g3 * w1 - g1 * w3
        u3 = g1 * w2 - g2 * w1

        # dr/dt along the flow, differentiating -Bq gamma / |gamma|_Bq
        d = bg1 * u1 + bg2 * u2 + bg3 * u3
        s3 = s2 * s
        rd1 = -b2 * u1 / s + bg1 * d / s3
        rd2 = -b2 * u2 / s + bg2 * d / s3
        rd3 = -u3 / s + bg3 * d / s3

        rr = r1 * r1 + r2 * r2 + r3 * r3
        J11 = i1 + rr - r1 * r1
        J22 = i1 + rr - r2 * r2
        J33 = i3 + rr - r3 * r3
        J12 = -r1 * r2
        J13 = -r1 * r3
        J23 = -r2 * r3

        Jw1 = J11 * w1 + J12 * w2 + J13 * w3
        Jw2 = J12 * w1 + J22 * w2 + J23 * w3
        Jw3 = J13 * w1 + J23 * w2 + J33 * w3

        # h = w x Jt w + r x (w x dr/dt) + gamma x r
        h1 = w2 * Jw3 - w3 * Jw2
        h2 = w3 * Jw1 - w1 * Jw3
        h3 = w1 * Jw2 - w2 * Jw1

        e1 = w2 * rd3 - w3 * rd2
        e2 = w3 * rd1 - w1 * rd3
        e3 = w1 * rd2 - w2 * rd1
        h1 += r2 * e3 - r3 * e2
        h2 += r3 * e1 - r1 * e3
        h3 += r1 * e2 - r2 * e1

        h1 += g2 * r3 - g3 * r2
        h2 += g3 * r1 - g1 * r3
        h3 += g1 * r2 - g2 * r1

        # adjugate of the symmetric Jt
        A11 = J22 * J33 - J23 * J23
        A12 = J13 * J23 - J12 * J33
        A13 = J12 * J23 - J13 * J22
        A22 = J11 * J33 - J13 * J13
        A23 = J12 * J13 - J11 * J23
        A33 = J11 * J22 - J12 * J12
        det = J11 * A11 + J12 * A12 + J13 * A13

        x1 = A11 * g1 + A12 * g2 + A13 * g3
        x2 = A12 * g1 + A22 * g2 + A23 * g3
        x3 = A13 * g1 + A23 * g2 + A33 * g3
        mu = (h1 * x1 + h2 * x2 + h3 * x3) / (g1 * x1 + g2 * x2 + g3 * x3)

        q1 = mu * g1 - h1
        q2 = mu * g2 - h2
        q3 = mu * g3 - h3

        out = np.empty(6)
        out[0] = (A11 * q1 + A12 * q2 + A13 * q3) / det
        out[1] = (A12 * q1 + A22 * q2 + A23 * q3) / det
        out[2] = (A13 * q1 + A23 * q2 + A33 * q3) / det
        out[3] = u1
        out[4] = u2
        out[5] = u3
        return out

    return rhs


def kinematic_init(
    s: FullState, x0: float = 0.0, y0: float = 0.0, a_hint: np.ndarray | None = None
) -> np.ndarray:
    """Initial 14-vector for kinematic_field.

    The fixed axes expressed in body coordinates must form an orthonormal
    right-handed triple (ax, bx, gamma); ax is built by projecting a_hint
    (default: whichever of e1/e2 is farther from gamma) off gamma, and
    bx = gamma x ax closes the triple.
    """
    g = np.asarray(s.gamma, float)
    if a_hint is None:
        a_hint = np.array([1.0, 0.0, 0.0]) if abs(g[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    ax = a_hint - (a_hint @ g) * g
    n = np.linalg.norm(ax)
    if n < 1e-12:
        raise ValueError("a_hint is parallel to gamma")
    ax = ax / n
    bx = np.cross(g, ax)
    return np.concatenate([s.omega, g, ax, bx, [x0, y0]])


def kinematic_field(p: Params) -> Callable[[float, np.ndarray], np.ndarray]:
    """Full system extended by fixed-frame kinematics.

    State layout: (w, gamma, ax, bx, xc, yc), 14 entries, where ax and bx are
    the fixed horizontal unit vectors expressed in the body frame; together
    with gamma they form an orthonormal triple (see kinematic_init).  They
    evolve like gamma, and the center of mass moves with velocity
    v = r x w mapped back to the fixed frame.  This is the oracle against
    which quadrature-based reconstruction is checked.
    """
    base = full_field(p)
    a = p.alpha
    b2 = p.beta * p.beta

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        out = np.empty(14)
        out[:6] = base(t, y[:6])
        w1, w2, w3, g1, g2, g3, a1, a2, a3, c1, c2, c3, _, _ = y.tolist()

        out[6] = a2 * w3 - a3 * w2
        out[7] = a3 * w1 - a1 * w3
        out[8] = a1 * w2 - a2 * w1
        out[9] = c2 * w3 - c3 * w2
        out[10] = c3 * w1 - c1 * w3
        out[11] = c1 * w2 - c2 * w1

        bg1 = b2 * g1; bg2 = b2 * g2; bg3 = g3
        s = math.sqrt(g1 * bg1 + g2 * bg2 + g3 * bg3)
        r1 = -bg1 / s
        r2 = -bg2 / s
        r3 = -bg3 / s - a
        v1 = r2 * w3 - r3 * w2
        v2 = r3 * w1 - r1 * w3
        v3 = r1 * w2 - r2 * w1
        out[12] = a1 * v1 + a2 * v2 + a3 * v3
        out[13] = c1 * v1 + c2 * v2 + c3 * v3
        return out

    return rhs


# --- Reduced system ---


def reduced_field(
    kappa: float, p: Params, b_sign: str = B_SIGN_DERIVED
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Right-hand side of the reduced system as f(t, y), y = (theta, p_theta).

    Valid for any real theta when kappa = 0 (smooth meridian extension); the
    integrator guards the poles when kappa != 0.  ``b_sign`` selects the B
    cross term, see :mod:`.geometry`.
    """
    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        th, pt = y.tolist()
        s = math.sin(th); c = math.cos(th); s2 = s * s
        Z = surface_z(s2, c, p)
        B, dB = surface_b(s, s2, c, Z, p, b_sign)
        out = np.empty(2)
        out[0] = pt
        out[1] = (surface_g0(s, s2, c, Z, kappa, p) - 0.5 * dB * pt * pt) / B
        return out

    return rhs


def augmented_field(kappa: float, p: Params) -> Callable[[float, np.ndarray], np.ndarray]:
    """Reduced system extended by the precession quadratures and the planar path.

    State layout: (theta, p_theta, psi, phi, xc, yc).  psi and phi are the
    accumulated quadrature angles

        dpsi/dt = -kappa cos / (J sin^2),   dphi/dt = kappa / (J sin^2)

    and the center of mass moves by

        d(xc + i yc)/dt = -U(theta) (kappa/(J sin) + i p_theta) exp(i psi).

    At kappa = 0 all precession terms vanish and the field stays regular
    through the poles in the extended meridian chart.
    """
    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        th, pt, psi, _, _, _ = y.tolist()
        s = math.sin(th); c = math.cos(th); s2 = s * s
        Z = surface_z(s2, c, p)
        # the reduced field, as in reduced_field
        B, dB = surface_b(s, s2, c, Z, p)
        out = np.empty(6)
        out[0] = pt
        out[1] = (surface_g0(s, s2, c, Z, kappa, p) - 0.5 * dB * pt * pt) / B
        U = surface_u(c, Z, p)
        if kappa != 0.0:
            w3 = kappa / surface_j(s2, c, U, p)
            out[2] = -w3 * c / s2
            out[3] = w3 / s2
            A = w3 / s
        else:
            out[2] = 0.0
            out[3] = 0.0
            A = 0.0
        cp = math.cos(psi); sp = math.sin(psi)
        out[4] = -U * (A * cp - pt * sp)
        out[5] = -U * (A * sp + pt * cp)
        return out

    return rhs


def _centrifugal(s2, kappa):
    """kappa^2 / (2 sin^2), the spin part of the effective potential; an
    array kappa always carries its term, so its angles stay off the poles."""
    return 0.5 * kappa * kappa / s2 if isinstance(kappa, np.ndarray) or kappa != 0.0 else 0.0


def reduced_energy(
    theta: float, p_theta: float, kappa: float, p: Params, b_sign: str = B_SIGN_DERIVED
) -> float:
    """eps = B p^2/2 + kappa^2/(2 sin^2) + U."""
    s = math.sin(theta); c = math.cos(theta); s2 = s * s
    Z = surface_z(s2, c, p)
    B, _ = surface_b(s, s2, c, Z, p, b_sign)
    return 0.5 * B * p_theta * p_theta + surface_u(c, Z, p) + _centrifugal(s2, kappa)


def effective_potential(theta: float, kappa: float, p: Params) -> float:
    """V(theta) = kappa^2/(2 sin^2) + U(theta); the p_theta = 0 energy."""
    s = math.sin(theta); c = math.cos(theta); s2 = s * s
    return surface_u(c, surface_z(s2, c, p), p) + _centrifugal(s2, kappa)


def g0(theta: float, kappa: float, p: Params) -> float:
    """Fixed-point function of the reduced system (minus the potential slope)."""
    s = math.sin(theta); c = math.cos(theta); s2 = s * s
    return surface_g0(s, s2, c, surface_z(s2, c, p), kappa, p)


def g0_prime(theta: float, kappa: float, p: Params) -> float:
    """Analytic d G0 / d theta, used by the linear stability exponent."""
    s = math.sin(theta); c = math.cos(theta); s2 = s * s
    return surface_g0_prime(s2, c, surface_z(s2, c, p), kappa, p)


def potential_grid(
    theta: np.ndarray, kappa: float, p: Params
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, G0, G0') on an array of theta: the array form of
    :func:`effective_potential`, :func:`g0` and :func:`g0_prime`.

    Both run the same surface formulas, so the values agree with the scalar
    functions to the last bit wherever np.sin/np.cos agree with
    math.sin/math.cos.
    """
    th = np.asarray(theta, dtype=float)
    s = np.sin(th); c = np.cos(th); s2 = s * s
    Z = surface_z(s2, c, p)
    return (surface_u(c, Z, p) + _centrifugal(s2, kappa),
            surface_g0(s, s2, c, Z, kappa, p), surface_g0_prime(s2, c, Z, kappa, p))


def check_turning_point(theta: float, kappa: float, eps: float, p: Params) -> None:
    """Raise ValueError unless theta is a turning point of the level eps.

    A turning point solves V(theta) = eps; the allowance covers the 1e-14
    resolution of the root solve, which the slope V' = -G0 magnifies next to
    a pole.
    """
    gap = effective_potential(theta, kappa, p) - eps
    if abs(gap) > 1e-9 * max(1.0, abs(eps)) + 1e-13 * abs(g0(theta, kappa, p)):
        raise ValueError(
            f"theta={theta} is no turning point of the level (kappa={kappa}, eps={eps}): "
            f"V - eps = {gap}"
        )


# --- Integrals and measure ---


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b row by row, by the dot kernel of a single row pair."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def integrals(s: FullState, p: Params) -> Integrals:
    """All four conserved quantities of a full state, or, with (n, 3) rows
    of omega and gamma, arrays of them equal bit for bit to those per row."""
    w = np.asarray(s.omega, float)
    g = np.asarray(s.gamma, float)
    F0 = _dot(g, g)
    F1 = _dot(w, g)

    a = p.alpha
    b2 = p.beta * p.beta
    bg = g * np.array([b2, b2, 1.0])
    r = -bg / np.sqrt(_dot(g, bg))[..., None]
    r[..., 2] -= a

    rg = _dot(r, g)
    g1, g2, g3 = g.T
    J2 = (g3 * g3 + p.nu * (g1 * g1 + g2 * g2)) / p.eta + rg * rg
    kappa = np.sqrt(J2) * w[..., 2]

    I = np.array([1.0 / p.eta, 1.0 / p.eta, p.nu / p.eta])
    Jw = I * w + _dot(r, r)[..., None] * w - r * _dot(r, w)[..., None]
    out = (F0, F1, kappa, 0.5 * _dot(Jw, w) - rg)
    return Integrals(*(map(float, out) if w.ndim == 1 else out))


def measure_density(gamma3: float, p: Params) -> float:
    """Density of the preserved phase-space measure, rho = B J = (1/eta + |r|^2) J."""
    s2 = 1.0 - gamma3 * gamma3
    Z = surface_z(s2, gamma3, p)
    B, _ = surface_b(math.sqrt(s2), s2, gamma3, Z, p)
    return B * surface_j(s2, gamma3, surface_u(gamma3, Z, p), p)


# --- Chart maps ---


def reduce_state(s: FullState, p: Params, tol: float = 1e-6) -> ReducedCoords:
    """Project a valid full state to the reduced chart.

    Requires F0 = 1 and F1 = 0 within ``tol``.  The returned phi is the
    proper-rotation angle of the vertical, phi = atan2(gamma_1, gamma_2), and
    psi_rate seeds the precession quadrature at the state.
    """
    w = np.asarray(s.omega, float)
    g = np.asarray(s.gamma, float)
    F0 = float(g @ g)
    F1 = float(w @ g)
    if abs(F0 - 1.0) > tol:
        raise ValueError(f"state off the unit sphere: |gamma|^2 = {F0}")
    if abs(F1) > tol:
        raise ValueError(f"state violates the no-spin constraint: (w, gamma) = {F1}")
    g3 = min(1.0, max(-1.0, g[2]))
    theta = math.acos(g3)
    phi = math.atan2(g[0], g[1])
    p_theta = w[0] * math.cos(phi) - w[1] * math.sin(phi)
    kappa = _j_gamma3(g3, p) * w[2]
    s2 = 1.0 - g3 * g3
    psi_rate = -w[2] * g3 / s2 if s2 > 0.0 else 0.0
    return ReducedCoords(theta=theta, p_theta=p_theta, kappa=kappa, phi=phi, psi_rate=psi_rate)


def lift(r: ReducedState, kappa: float, phi: float, p: Params) -> FullState:
    """Inverse of reduce_state: rebuild the full state on F0 = 1, F1 = 0."""
    th = r.theta
    s = math.sin(th); c = math.cos(th)
    if s == 0.0:
        raise ValueError("lift undefined at the poles")
    w3 = kappa / _j_gamma3(c, p)
    cot = c / s
    sp = math.sin(phi); cp = math.cos(phi)
    w1 = r.p_theta * cp - w3 * cot * sp
    w2 = -r.p_theta * sp - w3 * cot * cp
    gamma = np.array([s * sp, s * cp, c])
    return FullState(omega=np.array([w1, w2, w3]), gamma=gamma)


# --- Effective-potential structure ---

FP_WIDTH = 1e-9   # components narrower than this are relative equilibria
_CRIT_GRID = 800  # critical_thetas: sign-scan nodes over (0, pi)
_CRIT_EDGE = 1e-6  # critical_thetas: the scan grid stops this far from each pole
_LEVEL_TOL = 1e-10  # component_intervals: relative gap that puts a critical point on the level
_LEVEL_FLOOR = 4 * math.ulp(1.0)  # component_intervals: relative rounding floor of V - eps
_SLICE_CACHE = 64  # critical_points: kappa slices kept per process
_BODY_CACHE = 16  # critical_points: bodies whose scan tables are kept per process
_LEVEL_CACHE = 64  # component_intervals: levels kept per process


def sign_cells(vals: np.ndarray) -> list[int]:
    """Grid cells [i, i + 1] that bracket a root: vals[i] == 0 or a sign change."""
    head, tail = vals[:-1], vals[1:]
    return np.flatnonzero((head == 0.0) | (head * tail < 0.0)).tolist()


def scan_roots(f: Callable[[float], float], grid, vals: np.ndarray, xtol: float,
               edge: float = 0.0) -> list[float]:
    """The roots of f that its scan, vals on grid, brackets, in order: each
    node where vals is exactly 0, the last node included, and one brentq root
    per sign change, to xtol, or to xtol x theta in a cell left of ``edge``,
    where a root next to the pole 0 needs a tolerance relative to theta."""
    roots = []
    for i in sign_cells(vals):
        a = float(grid[i])
        if vals[i] == 0.0:
            roots.append(a)
        else:
            roots.append(brentq(f, a, float(grid[i + 1]), xtol=xtol * a if a < edge else xtol))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


@dataclass(frozen=True)
class CriticalPoints:
    """The relative equilibria of one kappa slice, sorted by theta: the
    roots of G0 that :func:`critical_thetas` returns, the level V at each,
    and G0' at each; a saddle, a maximum of V, has G0' > 0."""

    thetas: tuple[float, ...]
    levels: tuple[float, ...]
    dg0: tuple[float, ...]

    @property
    def saddle(self) -> tuple[bool, ...]:
        """Whether each is a saddle."""
        return tuple(g > 0.0 for g in self.dg0)


def _finite(name: str, x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(f"{name}={x} is not finite")
    return float(x)


def critical_points(kappa: float, p: Params) -> CriticalPoints:
    """The critical points of the kappa slice, found once per slice.

    Every observable of a level reads them, and the sweeps hold kappa fixed
    while eps varies, so the process keeps the last _SLICE_CACHE slices.
    A non-finite kappa raises ValueError.
    """
    return _critical_points(_finite("kappa", kappa), p)


def critical_thetas(kappa: float, p: Params) -> list[float]:
    """Interior roots of G0 on (0, pi): relative equilibria of the reduced flow.

    For kappa != 0 the centrifugal term dominates both pole limits, so every
    root is interior and a sign scan on a uniform grid brackets all of them;
    roots between a pole and the grid's 1e-6 edge get a node beyond them (one
    whose sin^4 underflows raises ValueError), and a pair closer than the
    grid spacing is found from the G0 extremum between them.  A root nearer
    pi than the float spacing there (|kappa| below about 1e-30 for bodies of
    order one) cannot be resolved and raises ValueError too.
    :func:`component_intervals` relies on getting every root.  For kappa = 0
    the only interior root is the inclined equilibrium, when it exists; the
    poles themselves are always equilibria of the meridian chart and are not
    reported here.  Read from :func:`critical_points`.
    """
    return list(critical_points(kappa, p).thetas)


@functools.lru_cache(maxsize=_SLICE_CACHE)
def saddles(kappa: float, p: Params) -> tuple[tuple[float, float, float], ...]:
    """(theta, level, G0') of each saddle of the kappa slice, a maximum of
    V: at kappa = 0 first each pole where V peaks, at its height
    1 +/- alpha, then the saddles of :func:`critical_points`; kept per
    slice as those are."""
    cp = critical_points(kappa, p)
    poles = [(th, 1.0 + p.alpha * math.cos(th), g0_prime(th, 0.0, p))
             for th in ((0.0, math.pi) if kappa == 0.0 else ())]
    return tuple(s for s in poles + list(zip(cp.thetas, cp.levels, cp.dg0)) if s[2] > 0.0)


@functools.lru_cache(maxsize=_SLICE_CACHE)
def _critical_points(kappa: float, p: Params) -> CriticalPoints:
    thetas = _g0_roots(kappa, p)
    return CriticalPoints(
        thetas=tuple(thetas),
        levels=tuple(effective_potential(th, kappa, p) for th in thetas),
        dg0=tuple(g0_prime(th, kappa, p) for th in thetas),
    )


@functools.lru_cache(maxsize=_BODY_CACHE)
def _scan_table(p: Params) -> tuple[np.ndarray, ...]:
    """The scan grid of :func:`critical_thetas`, and on it G0 and G0' at zero
    kappa and the factors of their kappa^2 terms, all read-only."""
    grid = np.linspace(_CRIT_EDGE, math.pi - _CRIT_EDGE, _CRIT_GRID)
    s = np.sin(grid); c = np.cos(grid); s2 = s * s
    Z = surface_z(s2, c, p)
    table = (grid, surface_g0(s, s2, c, Z, 0.0, p), surface_g0_prime(s2, c, Z, 0.0, p),
             *g0_spin(s, s2, c), *g0_prime_spin(s2, c))
    for a in table:
        a.flags.writeable = False
    return table


def _g0_roots(kappa: float, p: Params) -> list[float]:
    """The scan of :func:`critical_thetas`."""
    f = lambda th: g0(th, kappa, p)
    if kappa == 0.0:
        # G0 = sin * (alpha + (1 - beta^2) cos / Z) and the bracketed factor
        # is monotone, so one sign change brackets the only interior root;
        # on the centered sphere G0 vanishes everywhere, and no angle is one
        lo, hi = 1e-9, math.pi - 1e-9
        g_lo, g_hi = f(lo), f(hi)
        if g_lo * g_hi > 0.0 or g_lo == g_hi == 0.0:
            return []
        return [brentq(f, lo, hi, xtol=1e-14)]

    grid, g, dg, gn, gd, dn, dd = _scan_table(p)
    vals = g + kappa * kappa * gn / gd
    slope = dg - kappa * kappa * dn / dd
    if vals[0] < 0.0 or vals[-1] > 0.0:
        # G0 -> +inf at the pole 0 and -inf at pi, so the wrong sign at a
        # clip edge means a root between it and the pole: the near-pole
        # relative equilibria at sin(theta) ~ sqrt(|kappa|).  The non-
        # centrifugal part of G0 is at most C sin(theta) in size, so G0
        # keeps the pole's sign wherever sin^4 < kappa^2 cos / C, and the
        # node th_e below lies beyond the root.
        C = p.alpha + abs(1.0 - p.beta * p.beta) / min(1.0, p.beta)
        th_e = 0.5 * math.sqrt(abs(kappa) / math.sqrt(C))
        # sin^4 underflows there, and G0' with it, or a near-pi node rounds onto pi
        if th_e ** 4 == 0.0 or (vals[-1] > 0.0 and math.pi - th_e == math.pi):
            raise ValueError(f"|kappa|={abs(kappa)} too small to resolve the poles; use kappa = 0")
        n = int(vals[0] < 0.0)   # extra nodes below the grid
        extra = np.array([th_e] * n + [math.pi - th_e] * int(vals[-1] > 0.0))
        _, x_vals, x_slope = potential_grid(extra, kappa, p)
        grid, vals, slope = (np.concatenate((x[:n], a, x[n:])) for x, a in
                             ((extra, grid), (x_vals, vals), (x_slope, slope)))
    roots = scan_roots(f, grid, vals, 1e-14, _CRIT_EDGE)
    # next to a fold a center/saddle pair can share one cell of one sign.
    # The pair straddles an extremum of G0, which G0' brackets.  While G0'
    # is monotone across the cell, G0 at the extremum lies within |G0'| x
    # width of either node, so a node farther from zero than twice that
    # rules the pair out without a solve.
    for i in sign_cells(slope):
        a, b = float(grid[i]), float(grid[i + 1])
        ga, gb = vals[i], vals[i + 1]
        if (ga * gb <= 0.0 or abs(ga) > 2.0 * (b - a) * abs(slope[i])
                or abs(gb) > 2.0 * (b - a) * abs(slope[i + 1])):
            continue
        xtol = 1e-14 * a if a < _CRIT_EDGE else 1e-14
        m = brentq(lambda th: g0_prime(th, kappa, p), a, b, xtol=xtol)
        if f(m) * ga < 0.0:
            roots += [brentq(f, a, m, xtol=xtol), brentq(f, m, b, xtol=xtol)]
    return sorted(roots)


def turning_points(kappa: float, eps: float, p: Params, branch: int = 0) -> tuple[float, float]:
    """Turning points of the branch-th admissible component.

    Thin selector over :func:`component_intervals`; a degenerate component
    returns coinciding endpoints (the relative equilibrium angle).
    """
    ivs = component_intervals(kappa, eps, p)
    if not ivs:
        raise ValueError(f"no admissible motion at kappa={kappa}, eps={eps}")
    if not 0 <= branch < len(ivs):
        raise ValueError(f"branch {branch} out of range, {len(ivs)} component(s)")
    return ivs[branch]


def component_intervals(kappa: float, eps: float, p: Params) -> list[tuple[float, float]]:
    """Connected theta-intervals of the admissible region {V <= eps}.

    V is monotone between consecutive critical thetas, so a sign scan of
    V - eps on the chart edges and the critical thetas brackets every
    turning point, and one brentq per sign change finds it; V at the
    critical thetas comes from :func:`critical_points`.
    Returns a sorted list of (theta_lo, theta_hi).  Degenerate components
    (stable relative equilibria: a minimum of V within 1e-10 relative of
    eps, a pole minimum included at kappa = 0) come back with
    theta_lo == theta_hi; a saddle never does.  For kappa = 0 the
    admissible set lives on the meridian circle; intervals touching a pole
    include the pole point and stand for the pole-crossing component.  For
    kappa != 0 an interval reaching toward a pole ends at the turning point
    on its centrifugal wall, however close to the pole; a wall angle below
    1e-30, or a wall next to pi that would round onto it, raises ValueError.
    V within four ulps (relative to max(1, |eps|)) of eps counts as on the
    level, so a flat potential, the centered sphere's at kappa = 0, gives the
    single component (0, pi) at its rest level.  The observables of a level
    each read its components, so the process keeps the last _LEVEL_CACHE
    levels.
    """
    return list(_component_intervals(_finite("kappa", kappa), _finite("eps", eps), p))


@functools.lru_cache(maxsize=_LEVEL_CACHE)
def _component_intervals(kappa: float, eps: float, p: Params) -> tuple[tuple[float, float], ...]:
    V = lambda th: effective_potential(th, kappa, p)
    cp = _critical_points(kappa, p)

    lo_edge = 0.0 if kappa == 0.0 else _CRIT_EDGE
    hi_edge = math.pi - lo_edge

    node_v = {lo_edge: V(lo_edge), hi_edge: V(hi_edge), **dict(zip(cp.thetas, cp.levels))}
    grid = sorted(node_v)
    vals = np.array([node_v[th] for th in grid]) - eps
    if kappa != 0.0 and min(vals[0], vals[-1]) < 0.0:
        # an admissible clip edge is no turning point: the centrifugal wall
        # lies between it and the pole.  V > eps wherever
        # sin(theta) < |kappa| / sqrt(2 (eps - min U)), and
        # min U >= min(1, beta) - alpha, so half the angle of that bound is
        # a node beyond the wall.
        th_w = 0.5 * math.asin(abs(kappa) / math.sqrt(2.0 * (eps - min(1.0, p.beta) + p.alpha)))
        # below 1e-30 brentq stops converging on the wider wall brackets, and
        # a node nearer pi than half the float spacing there rounds to pi
        if th_w < 1e-30 or (vals[-1] < 0.0 and math.pi - th_w == math.pi):
            raise ValueError(
                f"|kappa|={abs(kappa)} too small to resolve the centrifugal wall; use kappa = 0"
            )
        if vals[0] < 0.0:
            grid.insert(0, th_w)
            vals = np.insert(vals, 0, V(th_w) - eps)
        if vals[-1] < 0.0:
            grid.append(math.pi - th_w)
            vals = np.append(vals, V(math.pi - th_w) - eps)

    scale = max(1.0, abs(eps))
    floor = _LEVEL_FLOOR * scale
    # values within rounding of the level are on it: the noise of a flat
    # potential (the centered sphere at rest) makes no turning points
    vals[np.abs(vals) <= floor] = 0.0
    intervals: list[tuple[float, float]] = []

    # degenerate components first: minima of V sitting on the level.  A
    # saddle within the tolerance above the level is no motion: the wells
    # on either side end short of it
    degen = [th for th, lv, g in zip(cp.thetas, cp.levels, cp.dg0)
             if g <= 0.0 and abs(lv - eps) <= _LEVEL_TOL * scale]
    if kappa == 0.0:
        for pole in (0.0, math.pi):
            if g0_prime(pole, 0.0, p) <= 0.0 and abs(V(pole) - eps) <= _LEVEL_TOL * scale:
                degen.append(pole)

    # breakpoints: refined sign changes plus exact-level grid nodes; segment
    # membership is decided at midpoints, so a node that merely touches the
    # level cannot flip the interval parity
    breaks = sorted({grid[0], grid[-1],
                     *scan_roots(lambda th: V(th) - eps, grid, vals, 1e-14, lo_edge)})

    for u, v in zip(breaks[:-1], breaks[1:]):
        if V(0.5 * (u + v)) - eps <= floor:
            if intervals and intervals[-1][1] == u:
                intervals[-1] = (intervals[-1][0], v)
            else:
                intervals.append((u, v))

    for tc in degen:
        if not any(lo - 1e-9 <= tc <= hi + 1e-9 for lo, hi in intervals):
            intervals.append((tc, tc))

    intervals.sort()
    return tuple(intervals)
