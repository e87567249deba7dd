"""Contact geometry of the rolling ellipsoid of revolution.

Let gamma be the unit vertical expressed in the body frame and theta the
nutation angle, gamma_3 = cos(theta).  The scalar functions collected in
:class:`SurfaceEval` are

    Z(theta) = sqrt(beta^2 sin^2 + cos^2)      support function factor
    U(theta) = alpha cos + Z                   center-of-mass height
    B(theta) = 1/eta + |r(gamma)|^2            effective nutation inertia
    J(theta) = sqrt((cos^2 + nu sin^2)/eta + (Z + alpha cos)^2)

where r(gamma) is the vector from the center of mass to the contact point,

    r(gamma) = -Bq gamma / sqrt((gamma, Bq gamma)) - alpha e3,
    Bq = diag(beta^2, beta^2, 1).

All formulas are smooth on the whole real theta line and even around the
poles theta = 0, pi, which is what makes the kappa = 0 meridian chart
extension possible.

The cross term inside B carries a sign switch, ``b_sign`` of :func:`profile`
(and of :func:`.dynamics.reduced_field` and :func:`.dynamics.reduced_energy`).
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
    "meridian_profile",
    "z_of_gamma3",
]

B_SIGN_DERIVED = "derived"
B_SIGN_PAPER = "paper"


@dataclass(frozen=True)
class SurfaceEval:
    """Surface functions and their theta-derivatives at one nutation angle."""

    theta: float
    Z: float
    U: float
    B: float
    J: float
    dZ: float
    dU: float
    dB: float
    dJ: float


def profile(
    theta: float,
    p: Params,
    b_sign: str = B_SIGN_DERIVED,
    pole_mode: bool = False,
) -> SurfaceEval:
    """Evaluate the surface functions at nutation angle theta.

    Parameters
    ----------
    theta : float
        Nutation angle.  Must lie strictly inside (0, pi) unless
        ``pole_mode`` is set.
    p : Params
        Dimensionless parameter group.
    b_sign : str
        ``"derived"`` (default) or ``"paper"``; selects the B cross-term.
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
    if b_sign not in (B_SIGN_DERIVED, B_SIGN_PAPER):
        raise ValueError(f"unknown b_sign {b_sign!r}")
    a = p.alpha
    b2 = p.beta * p.beta
    s = math.sin(theta)
    c = math.cos(theta)
    s2 = s * s
    c2 = c * c
    Z = math.sqrt(b2 * s2 + c2)
    dZ = (b2 - 1.0) * s * c / Z
    U = a * c + Z
    dU = -a * s + dZ
    Z2 = Z * Z
    Z4 = Z2 * Z2
    if b_sign == B_SIGN_DERIVED:
        cross = c + a * Z
        dB = 2.0 * b2 * s * ((b2 - 1.0) * c - a * Z) / Z4
    else:
        cross = a * Z - c
        dB = 2.0 * b2 * s * ((b2 - 1.0) * c + a * Z) / Z4
    B = 1.0 / p.eta + (b2 * b2 * s2 + cross * cross) / Z2
    w = Z + a * c
    J2 = (c2 + p.nu * s2) / p.eta + w * w
    J = math.sqrt(J2)
    dJ2 = 2.0 * s * c * (p.nu - 1.0) / p.eta + 2.0 * w * (dZ - a * s)
    dJ = 0.5 * dJ2 / J
    return SurfaceEval(theta=theta, Z=Z, U=U, B=B, J=J, dZ=dZ, dU=dU, dB=dB, dJ=dJ)


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


def z_of_gamma3(gamma3: float, p: Params) -> float:
    """Z as a function of gamma_3 = cos(theta)."""
    b2 = p.beta * p.beta
    return math.sqrt(b2 * (1.0 - gamma3 * gamma3) + gamma3 * gamma3)


def meridian_profile(gamma3: float, p: Params) -> tuple[float, float]:
    """Meridian decomposition of the contact vector.

    Returns (chi1, chi2) such that r = (chi1 g1, chi1 g2, chi2) on the unit
    sphere:

        chi1 = -beta^2 / Z(gamma3),   chi2 = -gamma3 / Z(gamma3) - alpha.
    """
    if not -1.0 <= gamma3 <= 1.0:
        raise ValueError(f"gamma3 must lie in [-1, 1], got {gamma3}")
    Z = z_of_gamma3(gamma3, p)
    chi1 = -p.beta * p.beta / Z
    chi2 = -gamma3 / Z - p.alpha
    return chi1, chi2
