"""Contact geometry of the rolling ellipsoid of revolution.

Let gamma be the unit vertical expressed in the body frame and theta the
nutation angle, gamma_3 = cos(theta).  Once the motion is reduced to one
degree of freedom, every object the package studies is built from a few
surface functions of theta, written once here:

    Z(theta) = sqrt(beta^2 sin^2 + cos^2)      support function factor
    U(theta) = alpha cos + Z                   center-of-mass height
    B(theta) = 1/eta + |r(gamma)|^2            effective nutation inertia
    J(theta) = sqrt((cos^2 + nu sin^2)/eta + U^2)
    G0(theta) = kappa^2 cos/sin^3 + alpha sin + (1 - beta^2) sin cos / Z

together with B' = dB/dtheta, J' = dJ/dtheta and G0' = dG0/dtheta.  G0 is
minus the slope of the effective potential kappa^2/(2 sin^2) + U.  r(gamma)
is the vector from the center of mass to the contact point,

    r(gamma) = -Bq gamma / sqrt((gamma, Bq gamma)) - alpha e3,
    Bq = diag(beta^2, beta^2, 1).

The ``surface_*`` functions are plain arithmetic on the terms s = sin,
s2 = sin^2 and c = cos, so the same code serves Python floats and numpy
arrays.  A chart that knows only gamma_3 passes s2 = 1 - gamma_3^2 and
c = gamma_3.  All formulas are smooth on the whole real theta line and even
around the poles theta = 0, pi (B' and G0 odd), which is what makes the
kappa = 0 meridian chart extension possible.

The cross term inside B carries a sign switch, ``b_sign`` of :func:`surface_b`
(and of :func:`.dynamics.augmented_field` and :func:`.dynamics.reduced_energy`).
The value derived from |r|^2 is (cos + alpha Z)^2; ``b_sign="paper"`` selects
the published variant (alpha Z - cos)^2 instead.  The two differ whenever
alpha > 0, and only the derived one is consistent with energy conservation of
the full equations of motion.  The rest of the package uses the derived form
only; the switch exists so that ``rubberroll verify --b-sign paper`` can show
the mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Params

__all__ = [
    "B_SIGN_DERIVED",
    "B_SIGN_PAPER",
    "SurfaceEval",
    "profile",
    "contact_vector",
    "surface_z",
    "surface_u",
    "surface_b",
    "surface_j",
    "surface_j_prime",
    "surface_g0",
    "surface_g0_prime",
]

B_SIGN_DERIVED = "derived"
B_SIGN_PAPER = "paper"


def surface_z(s2, c, p: Params):
    """Z = sqrt(beta^2 sin^2 + cos^2)."""
    Z2 = p.beta * p.beta * s2 + c * c
    # math.sqrt and np.sqrt both round correctly: floats and arrays get the same bits
    return math.sqrt(Z2) if isinstance(Z2, float) else np.sqrt(Z2)


def surface_u(c, Z, p: Params):
    """U = alpha cos + Z, the height of the center of mass."""
    return p.alpha * c + Z


def surface_b(s, s2, c, Z, p: Params, b_sign: str = B_SIGN_DERIVED):
    """(B, B'): the nutation inertia and its theta-derivative.

    ``b_sign`` selects the cross term, see the module docstring; an unknown
    value raises ValueError.
    """
    a = p.alpha
    b2 = p.beta * p.beta
    Z2 = Z * Z
    if b_sign == B_SIGN_DERIVED:
        cross = c + a * Z
        dB = 2.0 * b2 * s * ((b2 - 1.0) * c - a * Z) / (Z2 * Z2)
    elif b_sign == B_SIGN_PAPER:
        cross = a * Z - c
        dB = 2.0 * b2 * s * ((b2 - 1.0) * c + a * Z) / (Z2 * Z2)
    else:
        raise ValueError(f"unknown b_sign {b_sign!r}")
    return 1.0 / p.eta + (b2 * b2 * s2 + cross * cross) / Z2, dB


def surface_j(s2, c, U, p: Params):
    """J = sqrt((cos^2 + nu sin^2)/eta + U^2), the spin inertia factor."""
    J2 = (c * c + p.nu * s2) / p.eta + U * U
    return math.sqrt(J2) if isinstance(J2, float) else np.sqrt(J2)


def surface_j_prime(s, s2, c, Z, U, J, p: Params):
    """J' = dJ/dtheta = ((nu - 1) sin cos / eta + U U') / J, where
    U' = -alpha sin - (1 - beta^2) sin cos / Z is minus G0 at kappa = 0."""
    dU = -surface_g0(s, s2, c, Z, 0.0, p)
    return ((p.nu - 1.0) * s * c / p.eta + U * dU) / J


def surface_g0(s, s2, c, Z, kappa: float, p: Params):
    """G0 = kappa^2 cos/sin^3 + alpha sin + (1 - beta^2) sin cos / Z.

    Minus the slope of the effective potential: its roots are the relative
    equilibria.  The kappa term is left out at kappa = 0, so the poles are
    valid points of the meridian chart there; an array kappa is as in
    :func:`surface_g0_prime`.
    """
    val = p.alpha * s + (1.0 - p.beta * p.beta) * s * c / Z
    if isinstance(kappa, np.ndarray) or kappa != 0.0:
        val = val + kappa * kappa * c / (s2 * s)
    return val


def surface_g0_prime(s2, c, Z, kappa, p: Params):
    """G0' = dG0/dtheta; its sign at a root of G0 decides linear stability.

    kappa may be an array, one value per angle; its term is then always
    taken, so the angles must stay off the poles.
    """
    b2 = p.beta * p.beta
    c2 = c * c
    val = p.alpha * c + (1.0 - b2) * ((c2 - s2) / Z - (b2 - 1.0) * s2 * c2 / (Z * Z * Z))
    if isinstance(kappa, np.ndarray) or kappa != 0.0:
        val = val - kappa * kappa * (1.0 + 2.0 * (c * c)) / (s2 * s2)
    return val


@dataclass(frozen=True)
class SurfaceEval:
    """Surface functions at one nutation angle, and the derivative of B."""

    theta: float
    Z: float
    U: float
    B: float
    J: float
    dB: float


def profile(theta: float, p: Params, *, pole_mode: bool = False) -> SurfaceEval:
    """Evaluate the surface functions at nutation angle theta, with the
    derived B cross term.

    Parameters
    ----------
    theta : float
        Nutation angle.  Must lie strictly inside (0, pi) unless
        ``pole_mode`` is set.
    p : Params
        Dimensionless parameter group.
    pole_mode : bool
        Allow any real theta.  Used by the kappa = 0 meridian extension,
        where theta runs over the full real line and the pole values are
        taken by smooth even continuation.

    Returns
    -------
    SurfaceEval
    """
    if not pole_mode and not 0.0 < theta < math.pi:
        raise ValueError(
            f"theta={theta} outside (0, pi); pass pole_mode=True for the meridian extension"
        )
    s = math.sin(theta)
    c = math.cos(theta)
    s2 = s * s
    Z = surface_z(s2, c, p)
    U = surface_u(c, Z, p)
    B, dB = surface_b(s, s2, c, Z, p)
    return SurfaceEval(theta=theta, Z=Z, U=U, B=B, J=surface_j(s2, c, U, p), dB=dB)


def contact_vector(gamma: np.ndarray, p: Params) -> np.ndarray:
    """Vector from the center of mass to the contact point, body frame.

    ``gamma`` must be a unit vector (checked to 1e-9).  The formula itself is
    homogeneous of degree zero in gamma, which the dynamics exploits off the
    unit sphere; the public entry point enforces the physical normalization.
    """
    g = np.asarray(gamma, dtype=float)
    if g.shape != (3,):
        raise ValueError(f"gamma must be a 3-vector, got shape {g.shape}")
    n = math.sqrt(float(g @ g))
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"gamma must be unit length, |gamma| = {n}")
    b2 = p.beta * p.beta
    bg = np.array([b2 * g[0], b2 * g[1], g[2]])
    s = math.sqrt(float(g @ bg))
    r = -bg / s
    r[2] -= p.alpha
    return r
