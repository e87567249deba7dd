"""Acceptance suite: end-to-end checks of the shipped numerical claims.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line with the measured numbers (visible with ``pytest -s``), then
asserts.  Tolerances are the contract values, not what the implementation
happens to achieve.
"""

import math

import numpy as np
from scipy.optimize import brentq

from rubberroll.bifurcation import (
    diagram,
    equator_kappa_c,
    linear_stability,
    permanent_rotation,
    sigma_theta_eps,
    sigma_theta_kappa_sq,
)
from rubberroll.cli import main
from rubberroll.dynamics import (
    FullState,
    ReducedState,
    component_intervals,
    critical_thetas,
    effective_potential,
    full_field,
    integrals,
    kinematic_init,
    lift,
    measure_density,
    reduce_state,
    reduced_energy,
)
from rubberroll.integrate import integrate
from rubberroll.model import Params
from rubberroll.reconstruct import (
    classify,
    epsilon_min,
    reconstruct_trajectory,
    rotation_number,
)

from conftest import circle_fit, random_valid_state

P = Params(alpha=0.5, beta=3.0, nu=0.5, eta=0.5)
TOLS = {"tol_abs": 1e-12, "tol_rel": 1e-12}


def _report(num, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {num:2d} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_c01_conservation():
    rng = np.random.default_rng(0)
    worst = np.zeros(4)
    for _ in range(20):
        s0 = random_valid_state(rng)
        c0 = integrals(s0, P)
        tr = integrate("full", s0.as_array(), (0.0, 100.0), P, **TOLS)
        c1 = integrals(FullState.from_array(tr.y[-1]), P)
        worst = np.maximum(worst, [
            abs(c1.F0 - c0.F0),
            abs(c1.F1 - c0.F1),
            abs(c1.kappa - c0.kappa) / abs(c0.kappa),
            abs(c1.eps - c0.eps) / abs(c0.eps)])
    ok = worst[0] <= 1e-10 and worst[1] <= 1e-10 \
        and worst[2] <= 1e-8 and worst[3] <= 1e-8
    _report(1, "conservation", ok,
            f"20 states, t=100: |dF0|={worst[0]:.2e} |dF1|={worst[1]:.2e} "
            f"rel|dkappa|={worst[2]:.2e} rel|deps|={worst[3]:.2e}")


def test_c02_reduction_tracks_full():
    rng = np.random.default_rng(1)
    worst = 0.0
    done = 0
    while done < 10:
        s0 = random_valid_state(rng)
        if abs(float(s0.gamma[2])) > 0.9:
            continue
        rc = reduce_state(s0, P)
        tev = np.linspace(0.0, 50.0, 501)
        full = integrate("full", s0.as_array(), (0.0, 50.0), P,
                         t_eval=tev, **TOLS)
        red = integrate("augmented", (rc.theta, rc.p_theta, 0.0, 0.0, 0.0, 0.0), (0.0, 50.0),
                        P, kappa=rc.kappa, t_eval=tev, **TOLS)
        th_full = np.arccos(np.clip(full.y[:, 5], -1.0, 1.0))
        worst = max(worst, float(np.abs(red.y[:, 0] - th_full).max()))
        done += 1
    _report(2, "reduction", worst <= 1e-6,
            f"10 orbits, t=50: max|theta_red - theta_full| = {worst:.2e}")


def test_c03_steady_rotation_circles():
    pr = permanent_rotation(math.pi / 3.0, P)
    st = lift(ReducedState(math.pi / 3.0, 0.0), pr.kappa, 0.0, P)
    tev = np.linspace(0.0, 100.0, 2001)
    tr = integrate("kinematic", kinematic_init(st), (0.0, 100.0), P,
                   t_eval=tev, **TOLS)
    th = np.arccos(np.clip(tr.y[:, 5], -1.0, 1.0))
    th_drift = float(np.abs(th - math.pi / 3.0).max())
    _, _, r_com = circle_fit(tr.y[:, 12], tr.y[:, 13])
    # contact circle from the transported axes: p = c + Q r(gamma)
    from rubberroll.geometry import contact_vector
    xp, yp = [], []
    for row in tr.y[::20]:
        g = row[3:6] / np.linalg.norm(row[3:6])
        r = contact_vector(g, P)
        xp.append(row[12] + float(row[6:9] @ r))
        yp.append(row[13] + float(row[9:12] @ r))
    _, _, r_con = circle_fit(np.array(xp), np.array(yp))
    rho_c = math.sqrt(21.0) + math.sqrt(3.0) / 4.0
    rho_p = 9.0 * math.sqrt(3.0) / math.sqrt(7.0)
    ok = th_drift <= 1e-6 and abs(r_com - rho_c) <= 1e-6 \
        and abs(r_con - rho_p) <= 1e-6
    _report(3, "steady rotation", ok,
            f"theta drift {th_drift:.2e}; R_com {r_com:.7f} vs {rho_c:.7f}, "
            f"R_contact {r_con:.7f} vs {rho_p:.7f}")


def test_c04_branch_endpoints():
    e0 = sigma_theta_eps(1e-8, P)
    epi = sigma_theta_eps(math.pi - 1e-8, P)
    k0 = math.sqrt(max(sigma_theta_kappa_sq(1e-8, P), 0.0))
    kpi = math.sqrt(max(sigma_theta_kappa_sq(math.pi - 1e-8, P), 0.0))
    ok = abs(e0 - 1.5) <= 1e-6 and abs(epi - 0.5) <= 1e-6 \
        and k0 <= 1e-6 and kpi <= 1e-6
    _report(4, "branch endpoints", ok,
            f"upper ({k0:.1e}, {e0:.8f}) -> (0, 1.5); "
            f"lower ({kpi:.1e}, {epi:.8f}) -> (0, 0.5)")


def test_c05_vertical_stability_brackets():
    ok = True
    details = []
    for th0, b2c in ((0.0, 1.5), (math.pi, 0.5)):
        lam_lo = linear_stability(th0, 0.0,
                                  Params(0.5, math.sqrt(b2c - 5e-7), 1.0, 1.0))[0]
        lam_hi = linear_stability(th0, 0.0,
                                  Params(0.5, math.sqrt(b2c + 5e-7), 1.0, 1.0))[0]
        ok = ok and lam_lo > 0.0 > lam_hi
        details.append(f"beta^2={b2c}: lambda^2 {lam_lo:+.2e} -> {lam_hi:+.2e}")
    _report(5, "stability brackets", ok,
            "width 1e-6; " + "; ".join(details))


def test_c06_diagram_types():
    cases = [((0.5, 0.5), "a"), ((0.5, 1.1), "b"), ((0.5, 3.0), "c"),
             ((0.0, 0.5), "d"), ((0.0, 1.5), "e")]
    got = []
    ok = True
    for (al, be), want in cases:
        d = diagram(Params(al, be, 1.0, 1.0))
        got.append(f"({al},{be})->{d.diagram_type}")
        ok = ok and d.diagram_type == want
    _report(6, "diagram types", ok, " ".join(got))


def test_c07_equator_threshold():
    p = Params(0.0, 1.5, 1.0, 1.0)
    kc = equator_kappa_c(p)
    kc_expect = math.sqrt((1.5 ** 2 - 1.0) / 1.5)
    n_below = len(critical_thetas(kc - 0.05, p))
    n_above = len(critical_thetas(kc + 0.05, p))
    ok = abs(kc - kc_expect) <= 1e-9 and n_below == 3 and n_above == 1
    _report(7, "equator threshold", ok,
            f"kappa_c = {kc:.9f} vs sqrt(5/6) = {kc_expect:.9f}; "
            f"fixed points {n_below} -> {n_above} across it")


def test_c08_locked_resonance():
    kap, th0 = 0.8, 0.4678
    eps0 = effective_potential(th0, kap, P)
    rn0 = rotation_number(kap, eps0, P)
    miss = abs(rn0.N + 1.0 / 7.0)
    # closure is judged on the exactly locked level next to the printed one
    e_star = brentq(lambda e: rotation_number(kap, e, P).N + 1.0 / 7.0,
                    eps0 - 0.05, eps0 + 0.05, xtol=1e-13)
    rn = rotation_number(kap, e_star, P)
    lo = component_intervals(kap, e_star, P)[0][0]
    t_close = 7.0 * rn.period
    path = reconstruct_trajectory((lo, 0.0), kap, (0.0, t_close), P,
                                  t_eval=np.linspace(0.0, t_close, 1401))
    drift = math.hypot(path.x_c[-1] - path.x_c[0], path.y_c[-1] - path.y_c[0])
    diam = math.hypot(path.x_c.max() - path.x_c.min(),
                      path.y_c.max() - path.y_c.min())
    ok = miss <= 2e-3 and drift <= 1e-2 * diam
    _report(8, "1:7 resonance", ok,
            f"|N + 1/7| = {miss:.2e} at the printed level; closure gap "
            f"{drift:.2e} over 7 nutation periods vs diameter {diam:.3f}")


def test_c09_bounded_annulus():
    kap, th0 = 1.0, 2.1
    eps = reduced_energy(th0, 0.0, kap, P)
    tc = classify(kap, eps, P)
    rn = rotation_number(kap, eps, P)
    t_prec = rn.period / abs(rn.N)
    t_fin = 50.0 * t_prec
    tev = np.linspace(0.0, t_fin, 5001)
    path = reconstruct_trajectory((th0, 0.0), kap, (0.0, t_fin), P, t_eval=tev)
    cx = 0.5 * (path.x_c.max() + path.x_c.min())
    cy = 0.5 * (path.y_c.max() + path.y_c.min())
    r = np.hypot(path.x_c - cx, path.y_c - cy)
    fifth = len(r) // 5
    ok = (tc.kind == "QuasiPeriodicBounded"
          and r.min() >= 1.174680 * 0.99
          and r.max() <= 2.773705 * 1.01
          and float(r[fifth:].max()) <= float(r[:fifth].max()) * 1.01)
    _report(9, "bounded annulus", ok,
            f"{tc.kind}; r in [{r.min():.4f}, {r.max():.4f}] over 50 "
            f"precession periods (T_prec = {t_prec:.3f})")


def test_c10_resonant_drift():
    kap = 0.5
    crit = sorted(critical_thetas(kap, P))
    saddle = effective_potential(crit[1], kap, P)
    e_star = brentq(lambda e: rotation_number(kap, e, P).N,
                    saddle + 1e-4, saddle + 0.05, xtol=1e-13)
    rn = rotation_number(kap, e_star, P)
    t_per = rn.period
    lo = component_intervals(kap, e_star, P)[0][0]
    n_per, n_sub = 10, 200
    tev = np.linspace(0.0, n_per * t_per, n_per * n_sub + 1)
    path = reconstruct_trajectory((lo, 0.0), kap, (0.0, n_per * t_per), P,
                                  t_eval=tev)
    r = np.column_stack([path.x_c, path.y_c])
    strobe = r[::n_sub]
    dist = np.hypot(*(strobe[1:] - strobe[0]).T)
    mono = bool(np.all(np.diff(dist) > 0.0))
    # one-period deviation loop around the secular drift
    d_per = strobe[1] - strobe[0]
    dev = r[: n_sub + 1] - np.outer(tev[: n_sub + 1] / t_per, d_per)
    diam = 0.0
    for i in range(0, n_sub + 1, 4):
        diam = max(diam, float(np.hypot(*(dev[i] - dev).T).max()))
    amp = 0.5 * diam
    net = float(dist[-1])
    ok = mono and net > 5.0 * amp
    _report(10, "resonant drift", ok,
            f"N = 0 at eps = {e_star:.6f}; |r(kT) - r(0)| monotone: {mono}; "
            f"net drift {net:.3f} vs 5 x amplitude {amp:.3f}")


def test_c11_measure_divergence():
    rng = np.random.default_rng(2)
    f = full_field(P)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        y0 = random_valid_state(rng).as_array()

        def rho_f(y):
            return measure_density(float(y[5]), P) * f(0.0, y)

        div = 0.0
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            div += (rho_f(y0 + e)[i] - rho_f(y0 - e)[i]) / (2.0 * h)
        worst = max(worst, abs(div) / float(np.linalg.norm(rho_f(y0))))
    _report(11, "invariant measure", worst <= 1e-6,
            f"100 states: max relative |div(rho f)| = {worst:.2e}")


def test_c12_circulation_threshold(capsys):
    a, b = P.alpha, P.beta
    adopted = b * math.sqrt((b * b - 1.0 + a * a) / (b * b - 1.0))
    flipped = b * math.sqrt((1.0 + a * a - b * b) / (1.0 - b * b))
    emin = epsilon_min(P)
    code = main(["verify", "--quick"])
    out = capsys.readouterr().out
    with capsys.disabled():
        demo = next((ln for ln in out.splitlines() if "threshold-form" in ln), "")
        ok = (abs(emin - adopted) <= 1e-9
              and abs(emin - flipped) > 1e-3
              and code == 0
              and demo.startswith("PASS")
              and "sign-flipped variant" in demo)
        _report(12, "circulation threshold", ok,
                f"eps_min = {emin:.10f}, adopted form {adopted:.10f}, "
                f"sign-flipped variant {flipped:.10f} (off by "
                f"{abs(emin - flipped):.2e}); verify: {demo or 'missing'}")
