"""Relative equilibria, stability, cusp, and diagram assembly."""

import math

import numpy as np
import pytest

from rubberroll.bifurcation import (
    branch_ranges,
    cusp,
    diagram,
    equator_kappa_c,
    equator_parabola,
    inclined_equilibrium,
    linear_stability,
    omega0_sq,
    permanent_rotation,
    rpm_floor,
    sigma_theta_curve,
    sigma_theta_eps,
    sigma_theta_kappa_sq,
)
from rubberroll.dynamics import ReducedState, component_intervals, g0, g0_prime, kinematic_init, lift
from rubberroll.geometry import profile
from rubberroll.integrate import integrate
from rubberroll.model import Params

from conftest import circle_fit

P = Params(alpha=0.5, beta=3.0, nu=0.5, eta=0.5)
P_EQ = Params(alpha=0.0, beta=1.5, nu=1.0, eta=1.0)


def test_inclined_equilibrium_closed_form():
    # cos(theta*) = alpha beta^2 / sqrt((beta^2 - 1)(beta^4 - 1 + alpha^2 beta^2))
    ts = inclined_equilibrium(P)
    np.testing.assert_allclose(math.cos(ts), 1.5 / math.sqrt(66.0), rtol=1e-12)
    assert abs(omega0_sq(ts, P)) < 1e-12
    ts2 = inclined_equilibrium(Params(0.5, 0.5, 1.0, 1.0))
    np.testing.assert_allclose(math.cos(ts2), -0.25 / math.sqrt(0.375), rtol=1e-12)


def test_omega0_sq_vanishes_for_ball():
    p = Params(0.0, 1.0, 1.0, 1.0)
    for th in np.linspace(0.1, 3.0, 7):
        if abs(th - math.pi / 2.0) < 0.05:
            continue
        assert abs(omega0_sq(float(th), p)) < 1e-15


def test_permanent_rotation_radii():
    pr = permanent_rotation(math.pi / 3.0, P)
    np.testing.assert_allclose(pr.rho_c, math.sqrt(21.0) + math.sqrt(3.0) / 4.0,
                               rtol=1e-12)
    np.testing.assert_allclose(pr.rho_p, 9.0 * math.sqrt(3.0) / math.sqrt(7.0),
                               rtol=1e-12)
    np.testing.assert_allclose(pr.kappa ** 2,
                               sigma_theta_kappa_sq(math.pi / 3.0, P), rtol=1e-10)
    np.testing.assert_allclose(pr.eps, sigma_theta_eps(math.pi / 3.0, P),
                               rtol=1e-10)


def test_permanent_rotation_dynamic_oracle():
    # integrate the lifted steady state: theta frozen, CoM on the predicted circle
    pr = permanent_rotation(math.pi / 3.0, P)
    st = lift(ReducedState(math.pi / 3.0, 0.0), pr.kappa, 0.0, P)
    t_circ = 2.0 * math.pi * math.tan(math.pi / 3.0) / pr.omega0
    tr = integrate("kinematic", kinematic_init(st), (0.0, 1.2 * t_circ), P,
                   t_eval=np.linspace(0.0, 1.2 * t_circ, 400))
    th_traj = np.arccos(np.clip(tr.y[:, 5], -1.0, 1.0))
    assert np.abs(th_traj - math.pi / 3.0).max() < 1e-6
    _, _, r_fit = circle_fit(tr.y[:, 12], tr.y[:, 13])
    np.testing.assert_allclose(r_fit, pr.rho_c, atol=1e-6)


def test_branch_endpoint_limits():
    # both branch ends flow to the vertical spins at (kappa, eps) = (0, 1 +/- alpha)
    np.testing.assert_allclose(sigma_theta_eps(1e-8, P), 1.5, atol=1e-6)
    np.testing.assert_allclose(sigma_theta_eps(math.pi - 1e-8, P), 0.5, atol=1e-6)
    assert abs(sigma_theta_kappa_sq(1e-8, P)) < 1e-6
    assert abs(sigma_theta_kappa_sq(math.pi - 1e-8, P)) < 1e-6


def test_curve_samples_are_fixed_points():
    curves = sigma_theta_curve(P)
    n_tot = 0
    for c in curves:
        for theta0, kappa, eps in zip(c.theta0.tolist(), c.kappa.tolist(), c.eps.tolist()):
            n_tot += 1
            assert abs(g0(theta0, kappa, P)) < 1e-10
            s = math.sin(theta0)
            v_min = kappa ** 2 / (2.0 * s * s) + profile(theta0, P).U
            assert abs(eps - v_min) < 1e-12
    assert n_tot > 100


def test_branch_ranges_single_branch_case():
    p = Params(0.5, 0.5, 1.0, 1.0)
    br = branch_ranges(p)
    assert len(br) == 1
    np.testing.assert_allclose(br[0][0], math.pi / 2.0, atol=1e-15)
    np.testing.assert_allclose(br[0][1], inclined_equilibrium(p), atol=1e-12)


def test_equator_family():
    kc = equator_kappa_c(P_EQ)
    np.testing.assert_allclose(kc, math.sqrt((1.5 ** 2 - 1.0) / 1.5), rtol=1e-15)
    ep = equator_parabola(P_EQ, kappa_max=2.0)
    row = np.argmin(np.abs(ep.kappa - 1.0))
    np.testing.assert_allclose(ep.eps[row], 2.0, atol=1e-9)
    # slow equator spins are saddles, fast ones centers
    lam2, stab = linear_stability(math.pi / 2.0, 0.5, P_EQ)
    assert stab == "saddle" and lam2 > 0.0
    lam2, stab = linear_stability(math.pi / 2.0, 1.0, P_EQ)
    assert stab == "center" and lam2 < 0.0


def test_vertical_spin_stability_boundaries():
    p = Params(0.5, 1.1, 1.0, 1.0)
    assert linear_stability(math.pi, 0.0, p)[1] == "center"
    assert linear_stability(0.0, 0.0, p)[1] == "saddle"
    # lambda^2 changes sign across beta^2 = 1 +/- alpha, bracket width 1e-6
    for th0, b2_crit in ((0.0, 1.5), (math.pi, 0.5)):
        lam_lo = linear_stability(th0, 0.0,
                                  Params(0.5, math.sqrt(b2_crit - 5e-7), 1.0, 1.0))[0]
        lam_hi = linear_stability(th0, 0.0,
                                  Params(0.5, math.sqrt(b2_crit + 5e-7), 1.0, 1.0))[0]
        assert lam_lo > 0.0 > lam_hi


def test_cusp_location_and_flip():
    cp = cusp(P)
    assert cp is not None and cp.kind == "cusp"
    assert 0.0 < cp.theta < inclined_equilibrium(P)
    assert abs(g0(cp.theta, cp.kappa, P)) < 1e-10
    assert abs(g0_prime(cp.theta, cp.kappa, P)) < 1e-10
    for dth, want in ((-1e-3, "center"), (1e-3, "saddle")):
        th = cp.theta + dth
        kk = math.sqrt(sigma_theta_kappa_sq(th, P))
        assert linear_stability(th, kk, P)[1] == want
    assert cusp(Params(0.5, 1.1, 1.0, 1.0)) is None
    cpe = cusp(P_EQ)
    assert cpe.kind == "tangency"
    np.testing.assert_allclose([cpe.theta, cpe.kappa],
                               [math.pi / 2.0, equator_kappa_c(P_EQ)], atol=1e-14)


# the cusp angles of alpha = 0.5, nu = eta = 1 at beta^2 = 1.5 + delta, next
# to the region-c boundary, as the 4001-node scan of the fold condition
# from 1e-6 to the inclined equilibrium found them
CUSP_NEXT_TO_REGION_C = {
    1e-1: 0.39123912754981255, 1e-2: 0.13226105837486477, 1e-3: 0.042129391850405665,
    1e-4: 0.013332247057097032, 1e-5: 0.0042163358584855395, 1e-6: 0.0013333322469891412,
    1e-7: 0.00042163698651911014, 1e-8: 0.00013333333232669139, 1e-9: 4.216370045598027e-05,
    1e-10: 1.3333337834043956e-05, 3e-12: 2.309359501559009e-06,
}


@pytest.mark.parametrize("delta", sorted(CUSP_NEXT_TO_REGION_C))
def test_the_cusp_next_to_the_region_c_boundary(delta):
    # the fold closes in on the pole 0 as sqrt(delta), 2.3e-6 from it at
    # delta = 3e-12
    p = Params(0.5, math.sqrt(1.5 + delta), 1.0, 1.0)
    cp = cusp(p)
    assert cp is not None and cp.kind == "cusp"

    def fold(th):
        # G0' at kappa^2 = K(theta), from G0 and G0' at kappa = 0
        c, s = math.cos(th), math.sin(th)
        return g0_prime(th, 0.0, p) + g0(th, 0.0, p) * (1.0 + 2.0 * c * c) / (c * s)

    # the fold condition's terms cancel to about delta, so 4 ulp of them
    # move its root by 4 ulp over its slope, 1.5e-11 at delta = 1e-10
    h = 1e-3 * cp.theta
    slope = (fold(cp.theta + h) - fold(cp.theta - h)) / (2.0 * h)
    rounding = 4.0 * math.ulp(p.alpha + abs(1.0 - p.beta ** 2)) / abs(slope)
    assert abs(cp.theta - CUSP_NEXT_TO_REGION_C[delta]) <= 2e-12 + rounding
    # a 2e-12 move of theta moves kappa by 5e-5 relative at delta = 3e-12,
    # so kappa and eps are held to their closed forms at theta
    assert cp.kappa == math.sqrt(sigma_theta_kappa_sq(cp.theta, p))
    assert cp.eps == sigma_theta_eps(cp.theta, p)


@pytest.mark.parametrize("ab,want", [
    ((0.5, 0.5), "a"),
    ((0.5, 1.1), "b"),
    ((0.5, 3.0), "c"),
    ((0.0, 0.5), "d"),
    ((0.0, 1.5), "e"),
])
def test_diagram_types(ab, want):
    d = diagram(Params(ab[0], ab[1], 1.0, 1.0))
    assert d.diagram_type == want
    assert not d.boundary


def test_diagram_boundary_flag():
    d = diagram(Params(0.0, 1.0, 1.0, 1.0))
    assert d.boundary


def test_diagram_curve_labels_and_torus_region():
    d = diagram(P)
    assert d.two_torus_region
    assert sorted(c.label for c in d.curves) == ["sigma_s0", "sigma_spi", "sigma_u"]
    assert d.kappa_symmetric


def test_connected_component_counts():
    u_star = profile(inclined_equilibrium(P), P).U
    assert len(component_intervals(0.0, 2.0, P)) == 2
    assert len(component_intervals(0.0, u_star + 0.5, P)) == 1
    assert component_intervals(0.8, 1.2, P) == []
    assert rpm_floor(0.8, P) > 1.2


def test_centered_body_mirror_symmetry():
    for th in (0.3, 0.7, 1.2):
        np.testing.assert_allclose(sigma_theta_kappa_sq(th, P_EQ),
                                   sigma_theta_kappa_sq(math.pi - th, P_EQ),
                                   atol=1e-14)
        np.testing.assert_allclose(sigma_theta_eps(th, P_EQ),
                                   sigma_theta_eps(math.pi - th, P_EQ),
                                   atol=1e-14)


def test_kappa_sq_elimination_identity():
    # sigma kappa^2 agrees with solving G0 = 0 for kappa^2 directly
    for th in np.linspace(0.1, math.pi - 0.1, 23):
        if abs(math.cos(th)) < 0.05:
            continue
        s, c = math.sin(th), math.cos(th)
        z = math.sqrt(9.0 * s * s + c * c)
        a0 = 0.5 * s + (1.0 - 9.0) * s * c / z
        k2e = -a0 * s ** 3 / c
        np.testing.assert_allclose(sigma_theta_kappa_sq(float(th), P), k2e,
                                   rtol=1e-12, atol=1e-12)
