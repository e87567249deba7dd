"""Body data and the dimensionless parameter group.

A rigid ellipsoid of revolution with semi-axes ``b1 = b2`` and ``b3`` rolls on
a horizontal plane.  The center of mass sits on the symmetry axis, displaced
by ``a`` from the geometric center.  The inertia tensor is axially symmetric,
``I = diag(i1, i1, i3)``.

Everything downstream works with four dimensionless ratios::

    alpha = a / b3          center-of-mass offset,      0 <= alpha <= 1
    beta  = b1 / b3         equatorial/axial ratio,     beta > 0
    nu    = i3 / i1         inertia ratio,              0 < nu <= 2
    eta   = m * b3**2 / i1  mass-geometry ratio,        eta > 0

and with units of length ``b3``, mass ``m`` and time ``sqrt(b3 / g)``.  In
these units the gravitational acceleration equals one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DimensionalBody",
    "Params",
    "Scales",
    "nondimensionalize",
    "validate",
]


@dataclass(frozen=True)
class DimensionalBody:
    """Physical description of the rolling body in SI-like units."""

    m: float    # mass
    g: float    # gravitational acceleration
    a: float    # center-of-mass offset along the symmetry axis
    b1: float   # equatorial semi-axis (= b2)
    b3: float   # axial semi-axis
    i1: float   # equatorial moment of inertia (= i2)
    i3: float   # axial moment of inertia

    def violations(self) -> list[str]:
        """Return human-readable bound violations, empty when the body is valid."""
        bad = []
        if not self.m > 0.0:
            bad.append(f"mass must be positive, got m={self.m}")
        if not self.g > 0.0:
            bad.append(f"gravity must be positive, got g={self.g}")
        if not self.b1 > 0.0:
            bad.append(f"equatorial semi-axis must be positive, got b1={self.b1}")
        if not self.b3 > 0.0:
            bad.append(f"axial semi-axis must be positive, got b3={self.b3}")
        if not self.i1 > 0.0:
            bad.append(f"equatorial inertia must be positive, got i1={self.i1}")
        if not self.i3 > 0.0:
            bad.append(f"axial inertia must be positive, got i3={self.i3}")
        if self.a < 0.0 or (self.b3 > 0.0 and self.a > self.b3):
            bad.append(f"offset must satisfy 0 <= a <= b3, got a={self.a}, b3={self.b3}")
        if self.i1 > 0.0 and not 0.0 < self.i3 / self.i1 <= 2.0:
            bad.append(
                f"inertia ratio must satisfy 0 < i3/i1 <= 2, got {self.i3}/{self.i1}"
            )
        return bad


@dataclass(frozen=True)
class Params:
    """Dimensionless parameter group (alpha, beta, nu, eta)."""

    alpha: float
    beta: float
    nu: float
    eta: float


@dataclass(frozen=True)
class Scales:
    """Units carried alongside Params: (length, mass, time)."""

    length: float
    mass: float
    time: float


def validate(p: Params) -> list[str]:
    """Check a Params group against its admissible ranges.

    Returns a list of diagnostics naming every violated bound; an empty list
    means the group is admissible.
    """
    bad = []
    if not 0.0 <= p.alpha <= 1.0:
        bad.append(f"alpha must lie in [0, 1], got {p.alpha}")
    if not 0.0 < p.beta < math.inf:
        bad.append(f"beta must be positive and finite, got {p.beta}")
    if not 0.0 < p.nu <= 2.0:
        bad.append(f"nu must lie in (0, 2], got {p.nu}")
    if not 0.0 < p.eta < math.inf:
        bad.append(f"eta must be positive and finite, got {p.eta}")
    return bad


def nondimensionalize(body: DimensionalBody) -> tuple[Params, Scales]:
    """Reduce a dimensional body to (Params, Scales).

    Raises
    ------
    ValueError
        If the body, or the parameter group derived from it, violates any
        admissible bound.  The message names the violated bounds.
    """
    bad = body.violations()
    if bad:
        raise ValueError("invalid body: " + "; ".join(bad))
    p = Params(
        alpha=body.a / body.b3,
        beta=body.b1 / body.b3,
        nu=body.i3 / body.i1,
        eta=body.m * body.b3 ** 2 / body.i1,
    )
    bad = validate(p)
    if bad:
        raise ValueError("invalid parameters: " + "; ".join(bad))
    scales = Scales(length=body.b3, mass=body.m, time=math.sqrt(body.b3 / body.g))
    return p, scales
