"""Vector fields, first integrals, reduction, and the invariant measure."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from rubberroll.dynamics import (
    FullState,
    ReducedState,
    augmented_field,
    component_intervals,
    critical_points,
    critical_thetas,
    effective_potential,
    full_field,
    g0,
    g0_prime,
    integrals,
    kinematic_field,
    kinematic_init,
    lift,
    measure_density,
    reduce_state,
    reduced_energy,
    scan_roots,
)
from rubberroll.geometry import (B_SIGN_DERIVED, B_SIGN_PAPER, contact_vector, profile,
                                 surface_b, surface_g0, surface_z)
from rubberroll.integrate import _component
from rubberroll.model import Params

from conftest import random_valid_state

P = Params(alpha=0.5, beta=3.0, nu=0.5, eta=0.5)


def _kinematic_states(n):
    """n seeded 14-vectors on the leaf, each with a perturbed copy off it
    (|gamma| != 1, omega.gamma != 0, ax and bx not orthonormal), as the
    stages of a step see them."""
    rng = np.random.default_rng(30)
    for _ in range(n):
        y = kinematic_init(random_valid_state(rng))
        y[12:] = rng.normal(size=2)
        yield y, True
        yield y + 1e-2 * rng.normal(size=14), False


@pytest.mark.parametrize("p", [P, Params(alpha=0.0, beta=0.7, nu=1.0, eta=1.0)])
def test_the_kinematic_field_extends_the_full_field_bit_for_bit(p):
    full, kin = full_field(p), kinematic_field(p)
    for y, _ in _kinematic_states(200):
        assert np.array_equal(kin(0.0, y)[:6], full(0.0, y[:6]))


@pytest.mark.parametrize("p", [P, Params(alpha=0.0, beta=0.7, nu=1.0, eta=1.0)])
def test_the_kinematic_rates_match_the_contact_vector(p):
    # contact_vector sums its dot product in numpy, so the check is to
    # rounding, not bit for bit
    kin = kinematic_field(p)
    for y, on_leaf in _kinematic_states(200):
        if not on_leaf:
            continue
        w, ax, bx = y[:3], y[6:9], y[9:12]
        v = np.cross(contact_vector(y[3:6], p), w)
        ref = np.concatenate([np.cross(ax, w), np.cross(bx, w), [ax @ v, bx @ v]])
        got = kin(0.0, y)[6:]
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), (y, got - ref)


def test_first_integrals_conserved():
    rng = np.random.default_rng(0)
    f = full_field(P)
    for _ in range(5):
        s0 = random_valid_state(rng)
        c0 = integrals(s0, P)
        sol = solve_ivp(f, (0.0, 20.0), s0.as_array(), method="DOP853",
                        rtol=1e-12, atol=1e-14)
        assert sol.success
        c1 = integrals(FullState.from_array(sol.y[:, -1]), P)
        assert abs(c1.F0 - c0.F0) < 1e-11
        assert abs(c1.F1 - c0.F1) < 1e-11
        assert abs(c1.kappa - c0.kappa) < 1e-8 * max(1.0, abs(c0.kappa))
        assert abs(c1.eps - c0.eps) < 1e-8 * max(1.0, abs(c0.eps))


@pytest.mark.parametrize("p", [P, Params(alpha=0.0, beta=1.5, nu=1.0, eta=1.0)])
def test_integrals_of_rows_equal_those_per_row(p):
    rng = np.random.default_rng(12)
    states = [random_valid_state(rng) for _ in range(300)]
    # gamma within 1e-6 of the pole, omega normal to it
    th, ph = 1e-6, 2.0
    g = np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])
    w = np.array([0.4, -0.7, 0.0])
    w[2] = -(w[0] * g[0] + w[1] * g[1]) / g[2]
    states.append(FullState(omega=w, gamma=g))
    # as strided columns of a kinematic state array, as simulate passes them
    y = np.zeros((len(states), 14))
    y[:, :6] = [s.as_array() for s in states]
    rows = integrals(FullState(omega=y[:, :3], gamma=y[:, 3:6]), p)
    one = [integrals(s, p) for s in states]
    for name in ("F0", "F1", "kappa", "eps"):
        assert getattr(rows, name).tolist() == [getattr(c, name) for c in one], name
    assert all(type(v) is float for c in one for v in (c.F0, c.F1, c.kappa, c.eps))


def test_field_tangency():
    # d/dt of F0 and F1 vanishes pointwise along the field
    rng = np.random.default_rng(1)
    f = full_field(P)
    h = 1e-7
    for _ in range(10):
        y = random_valid_state(rng).as_array()
        dy = f(0.0, y)
        c_p = integrals(FullState.from_array(y + h * dy), P)
        c_m = integrals(FullState.from_array(y - h * dy), P)
        assert abs(c_p.F0 - c_m.F0) / (2.0 * h) < 1e-6
        assert abs(c_p.F1 - c_m.F1) / (2.0 * h) < 1e-6


def test_reduced_energy_matches_full():
    rng = np.random.default_rng(2)
    for _ in range(8):
        th0 = rng.uniform(0.4, math.pi - 0.4)
        pt0 = rng.uniform(-0.5, 0.5)
        kap = rng.uniform(0.2, 1.2) * rng.choice([-1.0, 1.0])
        phi0 = rng.uniform(0.0, 2.0 * math.pi)
        s = lift(ReducedState(th0, pt0), kap, phi0, P)
        c = integrals(s, P)
        assert abs(c.kappa - kap) < 1e-12
        e_red = reduced_energy(th0, pt0, kap, P)
        np.testing.assert_allclose(e_red, c.eps, rtol=1e-12)
        # the published cross-term sign breaks the identity for alpha > 0
        e_pap = reduced_energy(th0, pt0, kap, P, b_sign=B_SIGN_PAPER)
        if abs(pt0) > 0.05:
            assert abs(e_pap - c.eps) > 1e-4


# the ids name the kappa and the B cross term under test
@pytest.mark.parametrize("b_sign", [B_SIGN_DERIVED, B_SIGN_PAPER])
@pytest.mark.parametrize("kappa", [0.0, 0.8, -0.3])
def test_augmented_field_extends_reduced_field(kappa, b_sign):
    rng = np.random.default_rng(5)
    aug = augmented_field(kappa, P, b_sign)
    other = augmented_field(kappa, P, B_SIGN_PAPER if b_sign == B_SIGN_DERIVED else B_SIGN_DERIVED)
    default = augmented_field(kappa, P)
    for _ in range(50):
        th = rng.uniform(0.05, math.pi - 0.05)
        y = np.array([th, rng.normal(), rng.uniform(-7.0, 7.0), 0.0, 0.0, 0.0])
        out = aug(0.0, y)
        # (theta, p_theta) follow the reduced equation with the B of b_sign
        s, c = math.sin(th), math.cos(th)
        s2 = s * s
        Z = surface_z(s2, c, P)
        B, dB = surface_b(s, s2, c, Z, P, b_sign)
        assert out[0] == y[1]
        assert out[1] == (surface_g0(s, s2, c, Z, kappa, P) - 0.5 * dB * y[1] * y[1]) / B
        # the precession and the planar path do not read B
        assert np.array_equal(out[2:], other(0.0, y)[2:])
        if b_sign == B_SIGN_DERIVED:
            assert np.array_equal(out, default(0.0, y))
        pr = profile(th, P)
        assert out[2] == pytest.approx(-kappa * c / (pr.J * s2), rel=1e-12, abs=1e-300)
        assert out[3] == pytest.approx(kappa / (pr.J * s2), rel=1e-12, abs=1e-300)
        speed = math.hypot(out[4], out[5])
        assert speed == pytest.approx(pr.U * math.hypot(kappa / (pr.J * s), y[1]), rel=1e-12)


def test_reduce_lift_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(8):
        s = random_valid_state(rng)
        if abs(float(s.gamma[2])) > 0.95:
            continue
        rc = reduce_state(s, P)
        back = lift(ReducedState(rc.theta, rc.p_theta), rc.kappa, rc.phi, P)
        np.testing.assert_allclose(back.gamma, s.gamma, atol=1e-12)
        np.testing.assert_allclose(back.omega, s.omega, atol=1e-11)


def test_reduce_state_rejects_off_leaf():
    s = FullState(omega=np.array([0.1, 0.2, 0.3]), gamma=np.array([0.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        reduce_state(s, P)


def test_reduced_tracks_full_theta():
    rng = np.random.default_rng(4)
    f = full_field(P)
    for _ in range(4):
        th0 = rng.uniform(0.5, math.pi - 0.5)
        pt0 = rng.uniform(-0.4, 0.4)
        kap = rng.uniform(0.3, 1.2)
        s0 = lift(ReducedState(th0, pt0), kap, 0.0, P)
        sol_f = solve_ivp(f, (0.0, 10.0), s0.as_array(), method="DOP853",
                          rtol=1e-11, atol=1e-13, dense_output=True)
        sol_r = solve_ivp(augmented_field(kap, P), (0.0, 10.0), [th0, pt0, 0.0, 0.0, 0.0, 0.0],
                          method="DOP853", rtol=1e-11, atol=1e-13,
                          dense_output=True)
        ts = np.linspace(0.0, 10.0, 200)
        th_full = np.arccos(np.clip(sol_f.sol(ts)[5], -1.0, 1.0))
        np.testing.assert_allclose(sol_r.sol(ts)[0], th_full, atol=1e-8)


def test_effective_potential_pole_barrier():
    # kappa != 0 walls at both poles; kappa = 0 reaches the pole heights
    assert effective_potential(1e-4, 0.7, P) > 1e6
    np.testing.assert_allclose(effective_potential(1e-9, 0.0, P), 1.0 + P.alpha,
                               rtol=1e-9)


def test_g0_is_minus_potential_slope():
    h = 1e-6
    for th in (0.5, 1.0, 1.9, 2.7):
        for kap in (0.0, 0.6):
            fd = (effective_potential(th + h, kap, P)
                  - effective_potential(th - h, kap, P)) / (2.0 * h)
            np.testing.assert_allclose(g0(th, kap, P), -fd, rtol=1e-8, atol=1e-8)
            fd2 = (g0(th + h, kap, P) - g0(th - h, kap, P)) / (2.0 * h)
            np.testing.assert_allclose(g0_prime(th, kap, P), fd2,
                                       rtol=1e-7, atol=1e-7)


def test_critical_thetas_bracket_wells():
    kap = 0.5
    crit = critical_thetas(kap, P)
    assert len(crit) == 3
    for th in crit:
        assert abs(g0(th, kap, P)) < 1e-10
    # two wells separated by a saddle: V at the middle root exceeds its neighbors
    vs = [effective_potential(t, kap, P) for t in sorted(crit)]
    assert vs[1] > vs[0] and vs[1] > vs[2]


def test_component_intervals_split_and_merge():
    kap = 0.5
    crit = sorted(critical_thetas(kap, P))
    v_saddle = effective_potential(crit[1], kap, P)
    below = component_intervals(kap, v_saddle - 0.1, P)
    above = component_intervals(kap, v_saddle + 0.1, P)
    assert len(below) == 2 and len(above) == 1
    for lo, hi in below:
        assert lo < hi
        np.testing.assert_allclose(
            [effective_potential(lo, kap, P), effective_potential(hi, kap, P)],
            [v_saddle - 0.1] * 2, rtol=1e-9)
    lo, hi, _ = _component(kap, v_saddle - 0.1, P, 1)
    assert below[1] == (lo, hi)
    with pytest.raises(ValueError, match="branch 2 out of range, 2 component"):
        _component(kap, v_saddle - 0.1, P, 2)


def test_component_intervals_empty_below_floor():
    assert component_intervals(0.8, 1.2, P) == []


def test_scan_roots_keeps_zero_nodes_and_refines_each_sign_change():
    f = lambda x: (x - 0.25) * (x - 1.0) * (x - 2.0)
    grid = np.linspace(0.0, 2.0, 5)
    vals = np.array([f(x) for x in grid])
    # a sign change in [0, 0.5]; zeros on the node 1 and on the last node
    roots = scan_roots(f, grid, vals, 1e-14)
    assert roots[0] == pytest.approx(0.25, abs=2e-14) and roots[1:] == [1.0, 2.0]
    # left of the edge the tolerance is relative to the cell's left node
    f = lambda x: x - 1e-20
    grid = np.array([1e-25, 1e-6, 1.0])
    (root,) = scan_roots(f, grid, f(grid), 1e-14, edge=1e-6)
    assert root == pytest.approx(1e-20, rel=1e-12)


def test_measure_density_positive_and_even_in_alpha_zero():
    p0 = Params(alpha=0.0, beta=1.5, nu=1.0, eta=1.0)
    for g3 in (-0.9, -0.3, 0.0, 0.3, 0.9):
        assert measure_density(g3, P) > 0.0
        np.testing.assert_allclose(measure_density(g3, p0),
                                   measure_density(-g3, p0), rtol=1e-14)


def test_measure_divergence_vanishes():
    # central differences of the rho-weighted field in the ambient chart
    rng = np.random.default_rng(5)
    f = full_field(P)
    h = 1e-5
    for _ in range(20):
        y0 = random_valid_state(rng).as_array()

        def rho_f(y):
            return measure_density(float(y[5]), P) * f(0.0, y)

        div = 0.0
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            div += (rho_f(y0 + e)[i] - rho_f(y0 - e)[i]) / (2.0 * h)
        assert abs(div) / np.linalg.norm(rho_f(y0)) < 1e-6


def test_measure_divergence_nonzero_without_density():
    # the bare field alone is not divergence-free, so the density is load-bearing
    rng = np.random.default_rng(6)
    f = full_field(P)
    h = 1e-5
    worst = 0.0
    for _ in range(5):
        y0 = random_valid_state(rng).as_array()
        div = 0.0
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            div += (f(0.0, y0 + e)[i] - f(0.0, y0 - e)[i]) / (2.0 * h)
        worst = max(worst, abs(div) / np.linalg.norm(f(0.0, y0)))
    assert worst > 1e-3


def test_the_centered_sphere_has_no_kappa_zero_critical_angle():
    # G0 vanishes at every angle of the centered sphere; a flat potential
    # has no isolated relative equilibrium for the scan to return
    for nu, eta in ((1.0, 1.0), (2.0, 1.0), (0.5, 3.0)):
        p = Params(0.0, 1.0, nu, eta)
        assert critical_thetas(0.0, p) == []
        assert critical_points(0.0, p).saddles == ()
