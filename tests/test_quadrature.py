"""Half-period quadrature against the DOP853 stepper.

The oracle is the DOP853 run of the augmented system from a turning point
to the next p_theta = 0 crossing, at tolerances near the stepper's floor.
"""

import math

import numpy as np
import pytest

from rubberroll.dynamics import (
    component_intervals,
    critical_thetas,
    effective_potential,
    inertia_grid,
)
from rubberroll.geometry import profile
from rubberroll.integrate import _ode_half_period, section_period
from rubberroll.model import Params
from rubberroll.reconstruct import rotation_number

P_XY = Params(0.5, 3.0, 0.5, 0.5)
P_EQ = Params(0.0, 1.5, 1.0, 1.0)
P_ALPHA1 = Params(1.0, 3.0, 0.5, 0.5)
P_BETA1 = Params(0.5, 1.0, 0.7, 2.0)

TIGHT = dict(tol_abs=1e-15, tol_rel=2.3e-14, max_steps=10 ** 7)


def _oracle(kappa, eps, p, lo, hi, circuit=False):
    """(T, N) of the level by the tight stepper."""
    t, psi, _ = _ode_half_period(kappa, eps, p, lo, hi, circuit, **TIGHT)
    return 2.0 * t, -psi / math.pi


def _levels(p, rng, n_kappa):
    """Seeded (kind, kappa, eps, branch) levels of one body."""
    out = []
    for i in range(n_kappa):
        kappa = (-1.0) ** i * float(rng.uniform(0.15, 0.8))
        crit = critical_thetas(kappa, p)
        levels = [effective_potential(t, kappa, p) for t in crit]
        out.append(("generic", kappa, min(levels) + float(rng.uniform(0.02, 1.5)), 0))
        if len(crit) == 3:
            wells, v_s = (levels[0], levels[2]), levels[1]
            for sign in (-1.0, 1.0):
                d = 10.0 ** rng.uniform(-4.0, -3.0)
                out.append(("near_separatrix", kappa, v_s + sign * d, 0))
            if max(wells) < v_s - 0.02:
                out.append(("branch1", kappa,
                            float(rng.uniform(max(wells) + 0.01, v_s - 0.01)), 1))
    poles = sorted([effective_potential(0.0, 0.0, p), effective_potential(math.pi, 0.0, p)])
    top = max([poles[1]] + [effective_potential(t, 0.0, p) for t in critical_thetas(0.0, p)])
    out.append(("kappa0_crossing", 0.0, float(rng.uniform(poles[0] + 0.02, top - 0.02)), 0))
    out.append(("kappa0_circulating", 0.0, float(rng.uniform(top + 0.02, top + 1.0)), 0))
    return out


@pytest.mark.parametrize("p", [P_XY, P_EQ, P_ALPHA1, P_BETA1],
                         ids=["main", "alpha0", "alpha1", "beta1"])
def test_quadrature_error_estimate_bounds_the_oracle_gap(p):
    rng = np.random.default_rng(11)
    kinds = set()
    for kind, kappa, eps, branch in _levels(p, rng, n_kappa=3):
        kinds.add(kind)
        sp = section_period(kappa, eps, p, branch)
        assert sp.method == "quadrature", (kind, kappa, eps)
        if sp.circulating:
            T_ode, _ = _oracle(0.0, eps, p, 0.0, math.pi, circuit=True)
        else:
            T_ode, N_ode = _oracle(kappa, eps, p, sp.theta_min, sp.theta_max)
        assert abs(sp.T_theta - T_ode) <= sp.err + 1e-10 * T_ode, (kind, kappa, eps)
        rn = rotation_number(kappa, eps, p, branch)
        if kappa == 0.0:
            assert rn.N == 0.0
            continue
        assert rn.method == "quadrature" and rn.period == sp.T_theta
        assert abs(rn.N - N_ode) <= rn.err + 1e-10, (kind, kappa, eps)
    assert {"generic", "kappa0_crossing", "kappa0_circulating"} <= kinds
    if p is not P_BETA1:   # no saddle for beta = 1 at these kappa
        assert {"near_separatrix", "branch1"} <= kinds


def test_known_near_separatrix_level_matches_the_tight_stepper():
    # 1.1e-4 below the saddle level, where the stepper at default
    # tolerances put the section period 1.1e-7 off
    kappa, eps = -0.281252334049, 3.08761657623
    T_ode, N_ode = _oracle(kappa, eps, P_XY, *component_intervals(kappa, eps, P_XY)[0])
    assert abs(section_period(kappa, eps, P_XY).T_theta - T_ode) <= 1e-9 * T_ode
    rn = rotation_number(kappa, eps, P_XY)
    assert abs(rn.period - T_ode) <= 1e-9 * T_ode
    assert abs(rn.N - N_ode) <= 1e-9


def test_past_the_node_cap_the_stepper_takes_over():
    # 1e-9 above the saddle the integrand's peak at the saddle is too narrow
    # for 2^14 nodes
    kappa = 0.5
    sad = critical_thetas(kappa, P_XY)[1]
    eps = effective_potential(sad, kappa, P_XY) + 1e-9
    rn = rotation_number(kappa, eps, P_XY)
    sp = section_period(kappa, eps, P_XY)
    assert rn.method == sp.method == "ode" and rn.err > 0.0 and sp.err > 0.0
    T_ode, N_ode = _oracle(kappa, eps, P_XY, *component_intervals(kappa, eps, P_XY)[0])
    assert abs(rn.N - N_ode) <= rn.err + 1e-10
    assert abs(sp.T_theta - T_ode) <= sp.err + 1e-10 * T_ode


def test_inertia_grid_matches_profile():
    for p in (P_XY, P_EQ, P_ALPHA1, P_BETA1):
        th = np.concatenate([np.linspace(-1.0, 2.0 * math.pi, 37), [0.0, math.pi]])
        B, J, U = inertia_grid(th, p)
        ref = [profile(float(t), p, pole_mode=True) for t in th]
        np.testing.assert_array_max_ulp(B, [se.B for se in ref], maxulp=2)
        np.testing.assert_array_max_ulp(J, [se.J for se in ref], maxulp=2)
        np.testing.assert_array_max_ulp(U, [se.U for se in ref], maxulp=2)
