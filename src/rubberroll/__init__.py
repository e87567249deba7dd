"""Rolling ellipsoid of revolution on a plane, without slipping or spinning.

Numerical engine for the reduced dynamics, the bifurcation diagram of
relative equilibria, and the classification of absolute-space trajectories
of the contact point and center of mass.
"""

from .model import (
    DimensionalBody,
    Params,
    Scales,
    nondimensionalize,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionalBody",
    "Params",
    "Scales",
    "nondimensionalize",
    "validate",
    "__version__",
]
