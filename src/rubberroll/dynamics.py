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
"the array selects, the scalar decides": the array only picks grid cells,
nodes or Newton starts, and every number a scan returns comes from the
scalar surface functions, through Newton on the exact slopes (V' = -G0,
G0'), midpoint membership tests or a re-evaluation at the selected node;
:func:`scan_roots` turns each sign scan into its roots.  No slice scans G0:
G0 = (cos / sin^3)(kappa^2 - K), K the kappa^2 of the steady-rotation
curve, and one 33 KB table per body holds K on about 2 000 nodes, cut into
monotone arcs at its folds: a slice takes a Newton solve per arc that
crosses kappa^2.  V is monotone between consecutive critical thetas, so
:func:`component_intervals` brackets every turning point of a level with
those thetas and the chart edges alone.  Each kappa slice is solved once:
:func:`critical_points` keeps the critical thetas of the last slices with
their levels, G0' values and saddles, and :func:`component_intervals` keeps
the checked components of the last levels, in bounded per-process caches.
The caches key on the arguments as floats, so a kept result does not depend
on which caller computed it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .brent import brentq, newton_bracketed
from .geometry import (
    B_SIGN_DERIVED,
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
    "scan_roots",
    "CriticalPoints",
    "critical_points",
    "critical_thetas",
    "component_intervals",
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
    """Reduced chart of a full state: (theta, p_theta), kappa and the
    proper-rotation angle phi."""

    theta: float
    p_theta: float
    kappa: float
    phi: float


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


def _full_rates(w1, w2, w3, g1, g2, g3, a, b2, i1, i3) -> tuple[float, ...]:
    """dw/dt, dgamma/dt and the contact vector r at (w, gamma), nine floats.

    The hot path of the full fields, on Python floats (the same arithmetic
    as on numpy scalars, faster), so the vector algebra is unrolled to
    scalars: cross products, the symmetric 3x3 contact-inertia tensor and
    its adjugate-based solve.  a = alpha, b2 = beta^2, i1 and i3 the
    principal inertias.
    """
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
    return ((A11 * q1 + A12 * q2 + A13 * q3) / det,
            (A12 * q1 + A22 * q2 + A23 * q3) / det,
            (A13 * q1 + A23 * q2 + A33 * q3) / det,
            u1, u2, u3, r1, r2, r3)


def _full_constants(p: Params) -> tuple[float, float, float, float]:
    """The body constants of :func:`_full_rates`: alpha, beta^2, i1, i3."""
    return p.alpha, p.beta * p.beta, 1.0 / p.eta, p.nu / p.eta


def full_field(p: Params) -> Callable[[float, np.ndarray], np.ndarray]:
    """Right-hand side of the full system as f(t, y), y = (w, gamma)."""
    body = _full_constants(p)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return np.array(_full_rates(*y.tolist(), *body)[:6])

    return rhs


def kinematic_init(s: FullState) -> np.ndarray:
    """Initial 14-vector for kinematic_field, with the contact at the origin.

    The fixed axes expressed in body coordinates must form an orthonormal
    right-handed triple (ax, bx, gamma); ax is built by projecting whichever
    of e1/e2 is farther from gamma off gamma, and bx = gamma x ax closes the
    triple.
    """
    g = np.asarray(s.gamma, float)
    e = np.array([1.0, 0.0, 0.0]) if abs(g[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    ax = e - (e @ g) * g
    ax = ax / np.linalg.norm(ax)
    bx = np.cross(g, ax)
    return np.concatenate([s.omega, g, ax, bx, [0.0, 0.0]])


def kinematic_field(p: Params) -> Callable[[float, np.ndarray], np.ndarray]:
    """Full system extended by fixed-frame kinematics.

    State layout: (w, gamma, ax, bx, xc, yc), 14 entries, where ax and bx are
    the fixed horizontal unit vectors expressed in the body frame; together
    with gamma they form an orthonormal triple (see kinematic_init).  They
    evolve like gamma, and the center of mass moves with velocity
    v = r x w mapped back to the fixed frame.  This is the oracle against
    which quadrature-based reconstruction is checked.
    """
    body = _full_constants(p)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        w1, w2, w3, g1, g2, g3, a1, a2, a3, c1, c2, c3, _, _ = y.tolist()
        d1, d2, d3, u1, u2, u3, r1, r2, r3 = _full_rates(w1, w2, w3, g1, g2, g3, *body)
        v1 = r2 * w3 - r3 * w2
        v2 = r3 * w1 - r1 * w3
        v3 = r1 * w2 - r2 * w1
        return np.array((d1, d2, d3, u1, u2, u3,
                         a2 * w3 - a3 * w2, a3 * w1 - a1 * w3, a1 * w2 - a2 * w1,
                         c2 * w3 - c3 * w2, c3 * w1 - c1 * w3, c1 * w2 - c2 * w1,
                         a1 * v1 + a2 * v2 + a3 * v3, c1 * v1 + c2 * v2 + c3 * v3))

    return rhs


# --- Reduced system ---


def augmented_field(
    kappa: float, p: Params, b_sign: str = B_SIGN_DERIVED
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Reduced system extended by the precession quadratures and the planar path.

    State layout: (theta, p_theta, psi, phi, xc, yc).  (theta, p_theta) obey
    the reduced system of the module docstring, whose B cross term
    ``b_sign`` selects (see :mod:`.geometry`).  psi and phi are the
    accumulated quadrature angles

        dpsi/dt = -kappa cos / (J sin^2),   dphi/dt = kappa / (J sin^2)

    and the center of mass moves by

        d(xc + i yc)/dt = -U(theta) (kappa/(J sin) + i p_theta) exp(i psi).

    At kappa = 0 all precession terms vanish and the field stays regular
    through the poles in the extended meridian chart; the integrator guards
    the poles when kappa != 0.
    """
    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        th, pt, psi, _, _, _ = y.tolist()
        s = math.sin(th); c = math.cos(th); s2 = s * s
        Z = surface_z(s2, c, p)
        B, dB = surface_b(s, s2, c, Z, p, b_sign)
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
    kappa = surface_j(g1 * g1 + g2 * g2, g3, rg, p) * w[..., 2]

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


def reduce_state(s: FullState, p: Params) -> ReducedCoords:
    """Project a valid full state to the reduced chart.

    Requires F0 = 1 and F1 = 0 within 1e-6.  The returned phi is the
    proper-rotation angle of the vertical, phi = atan2(gamma_1, gamma_2).
    """
    w = np.asarray(s.omega, float)
    g = np.asarray(s.gamma, float)
    F0 = float(g @ g)
    F1 = float(w @ g)
    if abs(F0 - 1.0) > 1e-6:
        raise ValueError(f"state off the unit sphere: |gamma|^2 = {F0}")
    if abs(F1) > 1e-6:
        raise ValueError(f"state violates the no-spin constraint: (w, gamma) = {F1}")
    g3 = min(1.0, max(-1.0, g[2]))
    theta = math.acos(g3)
    phi = math.atan2(g[0], g[1])
    p_theta = w[0] * math.cos(phi) - w[1] * math.sin(phi)
    kappa = _j_gamma3(g3, p) * w[2]
    return ReducedCoords(theta=theta, p_theta=p_theta, kappa=kappa, phi=phi)


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
_ARC_NODES = 1024  # critical_thetas: uniform cells of the arc table per half of (0, pi)
_CRIT_EDGE = 1e-6  # the arc table's first node, and the level scan's chart edge at kappa != 0
_LEVEL_TOL = 1e-10  # component_intervals: relative gap that puts a critical point on the level
_LEVEL_FLOOR = 4 * math.ulp(1.0)  # component_intervals: relative rounding floor of V - eps
_SLICE_CACHE = 64  # critical_points: kappa slices kept per process
_BODY_CACHE = 16  # critical_points: bodies whose arc tables are kept per process
_LEVEL_CACHE = 64  # component_intervals: levels kept per process


def scan_roots(f: Callable, grid, vals: np.ndarray, xtol: float, edge: float = 0.0,
               start: Callable[[int], float | None] | None = None) -> list[float]:
    """The roots of f that its scan, vals on grid, brackets, in order: each
    node where vals is exactly 0, the last node included, and one root per
    sign change, to xtol, or to xtol x theta in a cell left of ``edge``,
    where a root next to the pole 0 needs a tolerance relative to theta.
    Given ``start``, f returns (value, slope) and Newton finds the root of
    cell i from start(i); else brentq finds it from f's value."""
    roots, head, tail = [], vals[:-1], vals[1:]
    for i in np.flatnonzero((head == 0.0) | (head * tail < 0.0)).tolist():
        a, b = float(grid[i]), float(grid[i + 1])
        tol = xtol * a if a < edge else xtol
        roots.append(a if vals[i] == 0.0 else brentq(f, a, b, xtol=tol) if start is None else
                     newton_bracketed(f, a, b, vals[i], vals[i + 1], xtol=tol, x0=start(i)))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


@dataclass(frozen=True)
class CriticalPoints:
    """The relative equilibria of one kappa slice, sorted by theta: the
    roots of G0 that :func:`critical_thetas` returns, the level V at each,
    and G0' at each; the poles as (theta, V, G0') at kappa = 0 only; and
    the saddles, maxima of V (G0' > 0), as (theta, V, G0'), poles first."""

    thetas: tuple[float, ...]
    levels: tuple[float, ...]
    dg0: tuple[float, ...]
    poles: tuple[tuple[float, float, float], ...]
    saddles: tuple[tuple[float, float, float], ...]


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

    For kappa != 0 every root is interior, where K = kappa^2 on the steady-
    rotation curve: one Newton solve on G0 and G0' in each monotone arc of
    the body's table of K that crosses kappa^2, and in each pole cell, up to
    the table's first node 1e-6 from the pole, where K ~ sin^4 rises past
    kappa^2; at alpha = 0 the equator too.  A near-pole root too small to
    bracket (a sin^4 that underflows, or nearer pi than the float spacing:
    |kappa| below about 1e-30 for bodies of order one) raises ValueError.
    :func:`component_intervals` relies on getting every root.  For kappa = 0
    the only interior root is the inclined equilibrium, when it exists; the
    poles themselves are always equilibria of the meridian chart and are not
    reported here.  Read from :func:`critical_points`.
    """
    return list(critical_points(kappa, p).thetas)


@functools.lru_cache(maxsize=_SLICE_CACHE)
def _critical_points(kappa: float, p: Params) -> CriticalPoints:
    thetas = tuple(_g0_roots(kappa, p))
    levels = tuple(effective_potential(th, kappa, p) for th in thetas)
    dg0 = tuple(g0_prime(th, kappa, p) for th in thetas)
    poles = tuple((th, effective_potential(th, 0.0, p), g0_prime(th, 0.0, p))
                  for th in ((0.0, math.pi) if kappa == 0.0 else ()))
    saddles = tuple(s for s in poles + tuple(zip(thetas, levels, dg0)) if s[2] > 0.0)
    return CriticalPoints(thetas, levels, dg0, poles, saddles)


def _pow4(s):
    # np.float_power calls the C pow per element, as Python's ** does on a
    # float; s ** 4 on an array rounds differently in the last bit
    return s ** 4 if isinstance(s, float) else np.float_power(s, 4)


def _sincos(th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of the angles th from math per element, so that the bits
    do not depend on numpy's SIMD dispatch."""
    ths = th.tolist()
    return (np.fromiter(map(math.sin, ths), float, len(ths)),
            np.fromiter(map(math.cos, ths), float, len(ths)))


def _steady_kappa_sq(s, c, Z, p: Params):
    """K = -sin^3 G0(kappa = 0) / cos, kappa^2 along the steady-rotation
    curve, at sine s, cosine c and surface factor Z, floats or arrays."""
    b2 = p.beta * p.beta
    if p.alpha == 0.0:
        return _pow4(s) * (b2 - 1.0) / Z
    return _pow4(s) * ((b2 - 1.0) / Z - p.alpha / c)


def _fold(s, c, p: Params):
    """G0' at kappa^2 = K, from G0 and G0' at kappa = 0; K' = -(sin^3 / cos)
    times it, so its roots are the folds of the steady-rotation curve."""
    s2 = s * s; Z = surface_z(s2, c, p)
    return (surface_g0_prime(s2, c, Z, 0.0, p)
            + surface_g0(s, s2, c, Z, 0.0, p) * (1.0 + 2.0 * c * c) / (c * s))


@functools.lru_cache(maxsize=_BODY_CACHE)
def _arc_table(p: Params) -> tuple[np.ndarray, np.ndarray, tuple, tuple]:
    """(theta, K, arcs, folds): K on each half, [_CRIT_EDGE, pi/2] and its
    mirror image from the float after pi/2 (cos keeps its sign on each), at
    _CRIT_EDGE and _ARC_NODES uniform nodes, read-only; the index ranges
    (i0, i1) where K is monotone; and the folds that cut the halves into
    them, each a node, so that a fold next to a pole, beyond _CRIT_EDGE, is
    bracketed too."""
    h = 0.5 * math.pi / _ARC_NODES
    left = np.concatenate(([_CRIT_EDGE], np.linspace(h, 0.5 * math.pi, _ARC_NODES)))
    theta = np.concatenate((left, math.pi - left[::-1]))
    m = len(left)   # the first node of the right half
    theta[m] = math.nextafter(0.5 * math.pi, math.pi)
    s, c = _sincos(theta)
    # a fold in each cell of a half where _fold changes sign, by brentq: its
    # slope would need G0''.  At alpha = 0, K = sin^4 (beta^2 - 1) / Z is
    # monotone on each half
    f = _fold(s, c, p) if p.alpha != 0.0 else np.zeros(1)
    cells = np.flatnonzero((f[:-1] > 0.0) != (f[1:] > 0.0))
    cells = cells[cells != m - 1]
    folds = [brentq(lambda th: _fold(math.sin(th), math.cos(th), p), theta[i], theta[i + 1],
                    xtol=1e-12) for i in cells]
    theta, s, c = (np.insert(x, cells + 1, y)
                   for x, y in zip((theta, s, c), (folds, *_sincos(np.array(folds)))))
    K = _steady_kappa_sq(s, c, surface_z(s * s, c, p), p)
    m += int(np.count_nonzero(cells < m))
    ends = sorted({0, m - 1, m, len(theta) - 1, *(cells + 1 + np.arange(len(cells))).tolist()})
    theta.flags.writeable = K.flags.writeable = False
    return theta, K, tuple(ab for ab in zip(ends[:-1], ends[1:]) if ab != (m - 1, m)), tuple(folds)


def _g0_roots(kappa: float, p: Params) -> list[float]:
    """The roots of :func:`critical_thetas`."""
    # at alpha = 0 the equator is a root of every slice, and G0 / cos is
    # smooth through it: its roots next to the equator are simple
    over_cos = p.alpha == 0.0 and kappa != 0.0

    def f_df(th):
        s = math.sin(th); c = math.cos(th); s2 = s * s; Z = surface_z(s2, c, p)
        g, dg = surface_g0(s, s2, c, Z, kappa, p), surface_g0_prime(s2, c, Z, kappa, p)
        return (g / c, (dg + g / c * s) / c) if over_cos else (g, dg)

    if kappa == 0.0:
        # G0 = sin * (alpha + (1 - beta^2) cos / Z) and the bracketed factor
        # is monotone, so one sign change brackets the only interior root;
        # on the centered sphere G0 vanishes everywhere, and no angle is one
        lo, hi = 1e-9, math.pi - 1e-9
        g_lo, g_hi = f_df(lo)[0], f_df(hi)[0]
        if g_lo * g_hi > 0.0 or g_lo == g_hi == 0.0:
            return []
        return [newton_bracketed(f_df, lo, hi, g_lo, g_hi, xtol=1e-14)]

    # G0 = (cos / sin^3)(kappa^2 - K): a root in each cell of an arc where K
    # crosses kappa^2, and in a pole cell, from the pole (K = 0) to the table,
    # where K ~ sin^4 rises past it; each cell as (theta, K) at both ends
    theta, K, arcs, _ = _arc_table(p)
    k2 = kappa * kappa
    node = lambda i: (float(theta[i]), float(K[i]))
    cells = [(pole, 0.0, *node(i)) for i, pole in ((-1, math.pi), (0, 0.0))
             if 0.0 < K[i] and k2 <= K[i]]
    for i0, i1 in arcs:
        if min(K[i0], K[i1]) < k2 < max(K[i0], K[i1]):
            j = i0 + np.count_nonzero((K[i0:i1 + 1] <= k2) == (K[i0] < k2)) - 1
            cells.append((*node(j), *node(j + 1)))
    q = lambda k: math.copysign(abs(k) ** 0.25, k)
    roots = [0.5 * math.pi] if over_cos else []
    for ta, ka, tb, kb in cells:
        # from the cell's linear interpolant of K^(1/4), ~ sin next to a pole
        x0 = ta + (tb - ta) * (q(k2) - q(ka)) / (q(kb) - q(ka))
        if ta in (0.0, math.pi):
            # G0 - kappa^2 cos / sin^3 is at most C sin in size, so G0 keeps
            # the pole's sign wherever sin^4 < kappa^2 cos / C, as at th_e.  If
            # sin^4 underflows there or pi - th_e rounds to pi, the root is lost
            # (the cell at pi comes first, so this raises before any solve)
            C = p.alpha + abs(1.0 - p.beta * p.beta) / min(1.0, p.beta)
            th_e = 0.5 * math.sqrt(abs(kappa) / math.sqrt(C))
            if th_e ** 4 == 0.0 or math.pi - th_e == math.pi:
                raise ValueError(f"|kappa|={abs(kappa)} too small to resolve the poles; "
                                 "use kappa = 0")
            ta = abs(ta - th_e)
        sign = 1.0 if over_cos or ta < 0.5 * math.pi else -1.0   # the sign of cos
        lo = min(ta, tb)
        roots.append(newton_bracketed(f_df, ta, tb, sign * (k2 - ka), sign * (k2 - kb),
                                      xtol=1e-14 * lo if lo < _CRIT_EDGE else 1e-14, x0=x0))
    return sorted(roots)


def component_intervals(kappa: float, eps: float, p: Params) -> list[tuple[float, float]]:
    """Connected theta-intervals of the admissible region {V <= eps}.

    V is monotone between consecutive critical thetas, so a sign scan of
    V - eps on the chart edges and the critical thetas brackets every
    turning point, and Newton on V' = -G0 within each sign change finds it,
    polished to the rounding of V and checked by :func:`check_turning_point`;
    V and G0' at the critical thetas (and poles) come from :func:`critical_points`.
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
    # (V, G0') at each critical point, at kappa = 0 the poles included
    crit = {th: (v, g) for th, v, g in cp.poles + tuple(zip(cp.thetas, cp.levels, cp.dg0))}
    node_v = {th: v for th, (v, _) in crit.items()}
    # the chart edges: the poles at kappa = 0, else the scan's clip edges
    lo_edge = 0.0 if kappa == 0.0 else _CRIT_EDGE
    if kappa != 0.0:
        node_v.update((th, V(th)) for th in (lo_edge, math.pi - lo_edge))
    first, last = (node_v[th] - eps for th in (min(node_v), max(node_v)))

    def wall(u):
        # the angle next to the pole 0 where kappa^2 / (2 sin^2) = eps - u, or None
        s = abs(kappa) / math.sqrt(2.0 * (eps - u)) if eps > u else 2.0
        return math.asin(s) if s <= 1.0 else None

    if kappa != 0.0 and min(first, last) < 0.0:
        # an admissible clip edge is no turning point: the centrifugal wall
        # lies between it and the pole.  V > eps wherever
        # sin(theta) < |kappa| / sqrt(2 (eps - min U)), and
        # min U >= min(1, beta) - alpha, so half the angle of that bound is
        # a node beyond the wall.
        th_w = 0.5 * wall(min(1.0, p.beta) - p.alpha)
        # walls below 1e-30 are out of the documented range, and a node
        # nearer pi than half the float spacing there rounds to pi
        if th_w < 1e-30 or (last < 0.0 and math.pi - th_w == math.pi):
            raise ValueError(
                f"the centrifugal wall of |kappa|={abs(kappa)} at eps={eps} lies too near the "
                "pole to resolve (|kappa| too small or eps too large); use kappa = 0 or a "
                "smaller eps"
            )
        for th, val in ((th_w, first), (math.pi - th_w, last)):
            if val < 0.0:
                node_v[th] = V(th)
    grid = sorted(node_v)
    vals = np.array([node_v[th] for th in grid]) - eps

    scale = max(1.0, abs(eps))
    floor = _LEVEL_FLOOR * scale
    # values within rounding of the level are on it: the noise of a flat
    # potential (the centered sphere at rest) makes no turning points
    vals[np.abs(vals) <= floor] = 0.0
    intervals: list[tuple[float, float]] = []

    # degenerate components first: minima of V sitting on the level.  A
    # saddle within the tolerance above the level is no motion: the wells
    # on either side end short of it
    degen = [th for th, (lv, g) in crit.items() if g <= 0.0 and abs(lv - eps) <= _LEVEL_TOL * scale]

    def start(i):
        u, v = grid[i], grid[i + 1]
        if kappa != 0.0 and i in (0, len(grid) - 2):
            # V falls from a pole to the first critical point: the wall, with
            # U the mean of V - kappa^2 / (2 sin^2) at the cell's ends
            th = wall(0.5 * sum(node_v[t] - _centrifugal(math.sin(t) ** 2, kappa) for t in (u, v)))
            return th if th is None or i == 0 else math.pi - th
        # V' = 0 and V'' = -G0' at a critical end: where the parabola of the
        # end whose level lies nearer eps meets the level
        tc = min((th for th in (u, v) if th in crit), key=lambda th: abs(crit[th][0] - eps))
        d2 = 2.0 * (crit[tc][0] - eps) / crit[tc][1] if crit[tc][1] != 0.0 else -1.0
        return None if d2 <= 0.0 else tc + math.sqrt(d2) if tc == u else tc - math.sqrt(d2)

    def f_df(th):
        s = math.sin(th); c = math.cos(th); s2 = s * s; Z = surface_z(s2, c, p)
        return surface_u(c, Z, p) + _centrifugal(s2, kappa) - eps, -surface_g0(s, s2, c, Z, kappa, p)

    # breakpoints: refined sign changes plus exact-level grid nodes; segment
    # membership is decided at midpoints, so a node that merely touches the
    # level cannot flip the interval parity
    breaks = sorted({grid[0], grid[-1], *scan_roots(f_df, grid, vals, 1e-14, lo_edge, start)})

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
    # every end but a relative equilibrium's and a kappa = 0 pole is a turning point
    for lo, hi in intervals:
        for end in (lo, hi):
            if hi - lo > FP_WIDTH and end not in (0.0, math.pi):
                check_turning_point(end, kappa, eps, p)
    return tuple(intervals)
