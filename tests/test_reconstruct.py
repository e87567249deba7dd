"""Quadratures, rotation numbers, classification, and the resonance fold."""

import dataclasses
import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

import rubberroll.reconstruct
from rubberroll.bifurcation import (
    cusp,
    equator_kappa_c,
    permanent_rotation,
)
from rubberroll.dynamics import (
    ReducedState,
    component_intervals,
    critical_thetas,
    effective_potential,
    g0_prime,
    kinematic_init,
    lift,
)
from rubberroll.geometry import surface_u, surface_z
from rubberroll.integrate import integrate, section_period
from rubberroll.model import Params
from rubberroll.reconstruct import (
    CLASS_KINDS,
    _lone_fraction,
    classify,
    epsilon_min,
    euler_rotation,
    kappa_max,
    reconstruct_from_full,
    reconstruct_trajectory,
    resonance_curve,
    rotation_number,
)

from conftest import circle_fit, random_valid_state

P_XY = Params(alpha=0.5, beta=3.0, nu=0.5, eta=0.5)
P_C = Params(alpha=0.5, beta=3.0, nu=1.0, eta=1.0)
P_EQ = Params(alpha=0.0, beta=1.5, nu=1.0, eta=1.0)

KAP, TH0 = 0.8, 0.4678


def test_euler_rotation_matches_transported_axes():
    rng = np.random.default_rng(7)
    for _ in range(3):
        st = random_valid_state(rng)
        tev = np.linspace(0.0, 3.0, 61)
        path = reconstruct_from_full(st, (0.0, 3.0), P_XY, t_eval=tev)
        traj = integrate("kinematic", kinematic_init(st), (0.0, 3.0), P_XY,
                         t_eval=tev)
        for i in range(0, 61, 5):
            q = euler_rotation(path.theta[i], path.psi[i], path.phi[i])
            gm = traj.y[i, 3:6]
            np.testing.assert_allclose(q[:, 0], traj.y[i, 6:9], atol=1e-8)
            np.testing.assert_allclose(q[:, 1], traj.y[i, 9:12], atol=1e-8)
            np.testing.assert_allclose(q[:, 2], gm / np.linalg.norm(gm), atol=1e-8)


def test_quadrature_reconstruction_vs_kinematic():
    full0 = lift(ReducedState(TH0, 0.0), KAP, 0.3, P_XY)
    tev = np.linspace(0.0, 40.0, 401)
    oracle = reconstruct_from_full(full0, (0.0, 40.0), P_XY, t_eval=tev)
    quad = reconstruct_trajectory((TH0, 0.0), KAP, (0.0, 40.0), P_XY,
                                  psi0=oracle.psi[0], phi0=oracle.phi[0],
                                  t_eval=tev)
    for name in ("theta", "psi", "phi", "x_c", "y_c", "x_p", "y_p", "z_c"):
        d = np.abs(getattr(quad, name) - getattr(oracle, name)).max()
        assert d < 1e-6, (name, d)
    # height constraint along the way
    z_expect = (P_XY.alpha * np.cos(quad.theta)
                + np.sqrt(P_XY.beta ** 2 * np.sin(quad.theta) ** 2
                          + np.cos(quad.theta) ** 2))
    np.testing.assert_allclose(quad.z_c, z_expect, atol=1e-9)


def test_height_is_the_profile_height_bit_for_bit():
    # z_c and the surface height U both take Z from geometry.surface_z
    rng = np.random.default_rng(20261018)
    for p in (P_XY, P_EQ, Params(0.3, 0.6, 1.0, 1.0)):
        th0, pth0, kap = rng.uniform(0.4, 2.6), rng.uniform(-0.3, 0.3), rng.uniform(0.2, 1.0)
        path = reconstruct_trajectory((th0, pth0), kap, (0.0, 20.0), p)
        s, c = np.sin(path.theta), np.cos(path.theta)
        assert np.array_equal(path.z_c, surface_u(c, surface_z(s * s, c, p), p))


def test_rotation_number_locked_fraction():
    eps = effective_potential(TH0, KAP, P_XY)
    rn = rotation_number(KAP, eps, P_XY)
    assert abs(rn.N + 1.0 / 7.0) < 2e-3
    assert rn.err < 1e-6
    sp = section_period(KAP, eps, P_XY)
    assert abs(sp.T_theta - rn.period) < 1e-8


def test_exact_resonance_closes_and_classifies():
    eps0 = effective_potential(TH0, KAP, P_XY)
    e_star = brentq(lambda e: rotation_number(KAP, e, P_XY).N + 1.0 / 7.0,
                    eps0 - 0.05, eps0 + 0.05, xtol=1e-13)
    rn = rotation_number(KAP, e_star, P_XY)
    assert abs(rn.N + 1.0 / 7.0) < 1e-10
    lo = component_intervals(KAP, e_star, P_XY)[0][0]
    t_close = 7.0 * rn.period
    cl = reconstruct_trajectory((lo, 0.0), KAP, (0.0, t_close), P_XY,
                                t_eval=np.linspace(0.0, t_close, 1401))
    drift = math.hypot(cl.x_c[-1] - cl.x_c[0], cl.y_c[-1] - cl.y_c[0])
    diam = math.hypot(cl.x_c.max() - cl.x_c.min(), cl.y_c.max() - cl.y_c.min())
    assert drift <= 1e-3 * diam
    tc = classify(KAP, e_star, P_XY)
    assert tc.kind == "ClosedPeriodic"
    assert tc.resonance == (-1, 7)


def test_kappa_zero_path_is_collinear():
    path = reconstruct_trajectory((2.5, 0.0), 0.0, (0.0, 30.0), P_C,
                                  t_eval=np.linspace(0.0, 30.0, 601))
    xy = np.column_stack([path.x_c, path.y_c])
    xy -= xy.mean(axis=0)
    sv = np.linalg.svd(xy, full_matrices=False)[1]
    assert sv[1] < 1e-8 * max(sv[0], 1.0)


def test_proper_rotation_secular_split():
    # psi(t) - w t is T-periodic with w = -2 pi N / T
    eps = effective_potential(TH0, KAP, P_XY)
    rn = rotation_number(KAP, eps, P_XY)
    t_fin = 3.0 * rn.period
    w_psi = -2.0 * math.pi * rn.N / rn.period
    lo = component_intervals(KAP, eps, P_XY)[0][0]
    tev = np.linspace(0.0, t_fin, 901)
    pp = reconstruct_trajectory((lo, 0.0), KAP, (0.0, t_fin), P_XY, t_eval=tev)
    dev = pp.psi - w_psi * tev
    assert np.abs(dev[300:] - dev[:-300]).max() < 1e-6


def test_classify_kinds_cover_the_diagram():
    # NeutralRest, the flat potential's kind, is pinned in test_symmetry.py
    assert len(CLASS_KINDS) == 10
    # kappa = 0 ladder: point at a stable bottom, bounded arc, full meridian line
    assert classify(0.0, 1.5, P_C).kind == "Point"
    assert classify(0.0, 2.0, P_C).kind == "Segment"
    assert classify(0.0, 3.5, P_C).kind == "UnboundedLine"
    emin = epsilon_min(P_C)
    tc = classify(0.0, emin, P_C)
    assert tc.kind == "Segment" and len(tc.targets) == 1
    # steady rotation level: circle
    pr = permanent_rotation(math.pi / 3.0, P_C)
    assert classify(pr.kappa, pr.eps, P_C).kind == "Circle"
    # equator spins of the centered body: line when a center, saddle web else
    kc = equator_kappa_c(P_EQ)
    ke = 1.2 * kc
    assert classify(ke, 0.5 * ke * ke + P_EQ.beta, P_EQ).kind == "UnboundedLine"
    ks = 0.5 * kc
    tc = classify(ks, 0.5 * ks * ks + P_EQ.beta, P_EQ)
    assert tc.kind == "AsymptoticToLines"
    np.testing.assert_allclose(tc.targets, [math.pi / 2.0], atol=1e-9)
    # interior saddle level of the offset body
    cp = cusp(P_C)
    ksad = 0.5 * cp.kappa
    sad = [t for t in critical_thetas(ksad, P_C) if g0_prime(t, ksad, P_C) > 0.0]
    lvl = effective_potential(sad[0], ksad, P_C)
    assert classify(ksad, lvl, P_C).kind == "AsymptoticToCircles"
    # generic level
    eps = effective_potential(TH0, KAP, P_XY)
    assert classify(KAP, eps + 0.013, P_XY).kind == "QuasiPeriodicBounded"


def test_classify_widened_rational_tolerance():
    # classify's window N +/- (5 err + 1e-9), widened as a level with a
    # larger err widens it
    N = classify(KAP, effective_potential(TH0, KAP, P_XY), P_XY).N
    # N + 1/7 = 3.8e-4 here, and -9/64 lies 1.85e-3 on the other side
    assert _lone_fraction(N, 1e-3) == Fraction(-1, 7)
    # a window that holds both fractions tells them apart no more
    assert _lone_fraction(N, 2e-3) is None


def test_classify_claims_no_resonance_from_a_wide_window():
    # 1.1e-10 below a saddle level next to a fold the half period needs the
    # stepper, and N = 9.755 comes with N_err = 5.2e-3: the window of
    # 5 N_err holds many fractions with denominator at most 64
    p = Params(0.3, 1.5, 1.0, 1.0)
    kappa = cusp(p).kappa * (1.0 - 1e-6)
    tc = classify(kappa, 1.6620067284569213, p)
    assert 5.0 * tc.N_err > 1.0 / 64
    assert tc.kind == "QuasiPeriodicBounded" and tc.resonance is None
    assert tc.near_separatrix


def test_centered_body_even_rotation_number_and_drift():
    eps = 0.5 * 0.25 + P_EQ.beta + 0.4
    r_p = rotation_number(0.5, eps, P_EQ)
    r_m = rotation_number(-0.5, eps, P_EQ)
    assert abs(r_p.N) < 1e-8 and abs(r_p.N - r_m.N) < 1e-8
    tc = classify(0.5, eps, P_EQ)
    assert tc.kind == "UnboundedResonant" and tc.resonance == (0, 1)
    # the N = 0 band drifts along a fixed horizontal direction
    lo = component_intervals(0.5, eps, P_EQ)[0][0]
    t_fin = 4.0 * r_p.period
    ps = reconstruct_trajectory((lo, 0.0), 0.5, (0.0, t_fin), P_EQ,
                                t_eval=np.linspace(0.0, t_fin, 801))
    xdrift = abs(ps.x_c[-1] - ps.x_c[0])
    yspan = ps.y_c.max() - ps.y_c.min()
    assert xdrift > 10.0 * yspan


def test_rotation_number_odd_in_kappa_and_mirror():
    eps = effective_potential(TH0, KAP, P_XY)
    r_p = rotation_number(KAP, eps, P_XY)
    r_m = rotation_number(-KAP, eps, P_XY)
    assert abs(r_p.N + r_m.N) < 1e-8
    # flipping kappa mirrors the path to (x, -y) once psi starts at pi
    tev = np.linspace(0.0, 10.0, 201)
    pm = reconstruct_trajectory((TH0, 0.0), -KAP, (0.0, 10.0), P_XY,
                                psi0=math.pi, t_eval=tev)
    pq = reconstruct_trajectory((TH0, 0.0), KAP, (0.0, 10.0), P_XY, t_eval=tev)
    assert np.abs(pm.x_c - pq.x_c).max() < 1e-8
    assert np.abs(pm.y_c + pq.y_c).max() < 1e-8


def test_small_kappa_starts_at_the_centrifugal_wall():
    # N is linear in kappa as kappa -> 0 (N / kappa = -0.2891 at 1e-3 and
    # 1e-5).  Below |kappa| ~ 1e-6 the turning point lies inside the 1e-6
    # scan clip, which used to be returned as lo and gave N = 0.5000001.
    for kap in (1e-6, 1e-7):
        lo, _ = component_intervals(kap, 3.5, P_XY)[0]
        assert lo < 1e-6
        assert abs(effective_potential(lo, kap, P_XY) - 3.5) < 1e-12
    assert rotation_number(1e-6, 3.5, P_XY).N == pytest.approx(-2.891e-7, rel=2e-3)
    # the orbit passes theta = pi at 4e-8, where the float spacing of theta
    # (4e-16) limits psi, and so N, to an absolute error of order 1e-8
    assert abs(rotation_number(1e-7, 3.5, P_XY).N + 2.891e-8) < 1e-8


def test_start_off_the_level_is_rejected(monkeypatch):
    # a clipped interval edge is no turning point: component_intervals
    # refuses it instead of handing a different level to the observables
    import rubberroll.dynamics

    real = rubberroll.dynamics.scan_roots
    clipped = lambda *args, **kwargs: [max(r, 1e-6) for r in real(*args, **kwargs)]
    monkeypatch.setattr(rubberroll.dynamics, "scan_roots", clipped)
    for observable in (component_intervals, rotation_number, section_period):
        with pytest.raises(ValueError, match="is no turning point of the level"):
            observable(1e-7, 3.5, P_XY)


def test_kappa_too_small_for_the_wall_is_an_error():
    with pytest.raises(ValueError, match="too small"):
        component_intervals(1e-40, 3.5, P_XY)


def test_steady_rotation_circles_via_quadratures():
    pr = permanent_rotation(math.pi / 3.0, P_C)
    t_circ = 2.0 * math.pi * math.tan(math.pi / 3.0) / pr.omega0
    path = reconstruct_trajectory((math.pi / 3.0, 0.0), pr.kappa,
                                  (0.0, t_circ), P_C,
                                  t_eval=np.linspace(0.0, t_circ, 721))
    cx, cy, _ = circle_fit(path.x_c, path.y_c)
    r_com = np.hypot(path.x_c - cx, path.y_c - cy)
    assert abs(r_com.mean() - abs(pr.rho_c)) < 1e-6
    assert r_com.max() - r_com.min() < 1e-8
    cxp, cyp, _ = circle_fit(path.x_p, path.y_p)
    r_con = np.hypot(path.x_p - cxp, path.y_p - cyp)
    assert abs(r_con.mean() - abs(pr.rho_p)) < 1e-6
    assert math.hypot(path.x_c[-1] - path.x_c[0],
                      path.y_c[-1] - path.y_c[0]) < 1e-6


def test_rotation_number_at_fixed_point():
    pr = permanent_rotation(math.pi / 3.0, P_C)
    r_fp = rotation_number(pr.kappa, pr.eps, P_C)
    assert r_fp.fixed_point
    r_nb = rotation_number(pr.kappa, pr.eps + 1e-6, P_C)
    assert abs(r_nb.N - r_fp.N) < 1e-3


def test_resonance_curve_zero_order_point():
    pts = resonance_curve(0, P_XY, 0.5)
    assert len(pts) == 1
    q = pts[0]
    np.testing.assert_allclose(q.eps, 3.1790302156, atol=1e-6)
    assert abs(q.N) < 1e-6


def test_resonance_curve_logs_the_roots_it_drops(monkeypatch, caplog):
    import rubberroll.reconstruct as rec

    caplog.set_level(logging.INFO, logger="rubberroll.reconstruct")
    assert len(resonance_curve(0, P_XY, 0.5)) == 1
    assert not caplog.records
    # N pushed 1e-3 away from zero on either side keeps the sign change
    # that brackets the root, but brentq's root then has a residual of 1e-3
    real = rec.rotation_number

    def jumpy(*args, **kwargs):
        rn = real(*args, **kwargs)
        return dataclasses.replace(rn, N=rn.N + math.copysign(1e-3, rn.N))

    monkeypatch.setattr(rec, "rotation_number", jumpy)
    assert resonance_curve(0, P_XY, 0.5) == []
    assert [r.getMessage() for r in caplog.records] == [
        "resonance N = 0 at kappa = 0.5: dropped 1 roots with |N + n| above 1e-06, "
        "the largest 0.001"]


def test_resonance_curve_keeps_a_root_on_a_scan_node(monkeypatch):
    import rubberroll.reconstruct as rec

    # kappa = 1.1 has one critical level, so below eps_max = 3.5 the slice
    # is one segment of one component, scanned first
    real = rec.rotation_number
    seen = []
    monkeypatch.setattr(rec, "rotation_number",
                        lambda k, e, *a, **kw: seen.append(e) or real(k, e, *a, **kw))
    resonance_curve(0, P_XY, 1.1, eps_max=3.5)
    # N exactly 0 on the middle scan node and of either sign beside it: no
    # cell changes sign, the node is the root
    e0 = seen[rec._RES_SCAN // 2]
    monkeypatch.setattr(rec, "rotation_number", lambda k, e, *a, **kw: dataclasses.replace(
        real(k, e, *a, **kw), N=e - e0))
    pts = resonance_curve(0, P_XY, 1.1, eps_max=3.5)
    assert [(q.eps, q.N) for q in pts] == [(e0, 0.0)]


@pytest.mark.xfail(strict=True, reason="next to the fold of the N = 0 locus (kappa_max = "
                   "1.10784) the pair of roots shares one cell of the 9-node eps scan")
def test_resonance_curve_finds_the_pair_next_to_the_fold():
    pts = resonance_curve(0, P_XY, 1.1)
    assert len(pts) == 2
    np.testing.assert_allclose([q.eps for q in pts], [3.7000173, 3.7087006], atol=1e-6)


def test_epsilon_min_closed_forms():
    a, b = P_C.alpha, P_C.beta
    expect = b * math.sqrt((b * b - 1.0 + a * a) / (b * b - 1.0))
    np.testing.assert_allclose(epsilon_min(P_C), expect, atol=1e-12)
    np.testing.assert_allclose(epsilon_min(P_C), 3.0465144017384853, atol=1e-9)
    # pole-dominated regime falls back to the upper pole height
    np.testing.assert_allclose(epsilon_min(Params(0.5, 1.1, 1.0, 1.0)), 1.5,
                               atol=1e-12)


def _peak_height(kappa, p, e_center, halfwidth=0.35):
    """Independent N maximum over the eps window above the critical levels."""
    base = max(effective_potential(t, kappa, p)
               for t in critical_thetas(kappa, p)) + 1e-3
    lo = max(base, e_center - halfwidth)
    hi = e_center + halfwidth

    def neg_n(e):
        try:
            return -rotation_number(kappa, e, p, tol_abs=1e-13,
                                    tol_rel=1e-11).N
        except (ValueError, RuntimeError):
            return math.inf

    grid = np.linspace(lo, hi, 41)
    vals = [neg_n(float(e)) for e in grid]
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, 40)]
    res = minimize_scalar(neg_n, bounds=(a, b), method="bounded",
                          options={"xatol": 1e-7})
    return float(res.x), -float(res.fun)


@pytest.mark.slow
def test_kappa_max_fold_certification():
    cp = cusp(P_XY)
    k_star = kappa_max(P_XY)
    np.testing.assert_allclose(k_star, 1.10783603, atol=1e-6)
    assert k_star > cp.kappa
    # independent residuals at the returned fold: peak height and flatness
    e_peak, n_peak = _peak_height(k_star, P_XY, cp.eps)
    assert abs(n_peak) <= 1e-6
    h = 1e-5

    def n_of(e):
        return rotation_number(k_star, e, P_XY, tol_abs=1e-14, tol_rel=1e-12).N

    def slope4(e):
        return (-n_of(e + h) + 8.0 * n_of(e + 0.5 * h)
                - 8.0 * n_of(e - 0.5 * h) + n_of(e - h)) / (6.0 * h)

    # the fold is sharp (curvature ~ -1e4), so the scan peak sits a few
    # 1e-8 off the stationary point; root the slope before judging it
    e_root = brentq(slope4, e_peak - 2e-6, e_peak + 2e-6, xtol=1e-12)
    assert abs(slope4(e_root)) <= 1e-6
    assert abs(n_of(e_root)) <= 1e-6


@pytest.mark.slow
def test_kappa_max_depends_on_inertia():
    k_round = kappa_max(P_C)
    np.testing.assert_allclose(k_round, 1.10326503, atol=1e-6)
    assert k_round > cusp(P_C).kappa


def test_kappa_max_checks_its_residual_at_the_fold(monkeypatch):
    # the walk roots a peak height shifted by 1e-3; the residual check reads
    # N afresh with the exact slope, and refuses the shifted fold
    real = rubberroll.reconstruct.rotation_number

    def shifted(*args, **kwargs):
        rn = real(*args, **kwargs)
        return dataclasses.replace(rn, N=rn.N - 1e-3)

    monkeypatch.setattr(rubberroll.reconstruct, "rotation_number", shifted)
    with pytest.raises(RuntimeError, match="residuals at the fold"):
        kappa_max(P_XY)


def test_kappa_max_absent_cases():
    assert kappa_max(Params(0.0, 1.5, 1.0, 1.0)) is None
    assert kappa_max(Params(0.5, 1.1, 1.0, 1.0)) is None
    assert kappa_max(Params(0.5, 0.5, 1.0, 1.0)) is None
