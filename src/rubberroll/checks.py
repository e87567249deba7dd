"""The self-checks of ``rubberroll verify``, in the order they run.

Each takes the body, the run's one random generator, the quick flag and
the B cross-term sign under test, and returns a :class:`Check`; ``--quick``
runs the first :data:`N_QUICK` of :data:`CHECKS`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import Params
from .geometry import profile
from .dynamics import (FullState, ReducedState, augmented_field, critical_points, full_field, g0,
                       integrals, lift, measure_density, reduce_state, reduced_energy)
from .integrate import (_component, _ode_half_period, _pole_guard_factory, integrate,
                        integrate_raw, period_map)
from .bifurcation import (inclined_equilibrium, permanent_rotation, sigma_theta_eps,
                          sigma_theta_kappa_sq)
from .reconstruct import (_rotation_slope, _stepped_path, epsilon_min, reconstruct_from_full,
                          reconstruct_trajectory, resonance_curve, rotation_number)

__all__ = ["Check", "CHECKS", "N_QUICK"]   # each check is an entry of CHECKS

_TOLS = dict(tol_abs=1e-12, tol_rel=1e-12)


class Check(NamedTuple):
    """A check's measured values, their bounds and its printed detail; it
    passes when every value is at most its bound (a floor enters negated)."""
    name: str
    values: tuple[float, ...]
    bounds: tuple[float, ...]
    detail: str

    @property
    def ok(self) -> bool:
        return all(v <= b for v, b in zip(self.values, self.bounds, strict=True))


def _random_valid_state(rng: np.random.Generator, p: Params) -> FullState:
    g = rng.normal(size=3)
    g /= np.linalg.norm(g)
    w = rng.normal(size=3)
    w -= (w @ g) * g
    return FullState(omega=w, gamma=g)


def _threshold_forms(a: float, b: float) -> tuple[float, float]:
    """U(theta*) for beta^2 > 1 + alpha by the adopted +alpha^2 closed form
    and by its sign-flipped variant, inf where that has no real value."""
    arg = (1.0 + a * a - b * b) / (1.0 - b * b)
    return (b * math.sqrt((b * b - 1.0 + a * a) / (b * b - 1.0)),
            b * math.sqrt(arg) if arg >= 0.0 else math.inf)


def conservation(p: Params, rng: np.random.Generator, quick: bool, b_sign: str) -> Check:
    """F0, F1, kappa and eps along the full flow.  Over the full check's
    t = 100, tolerances of 1e-12 let |dF1| reach the 1e-10 bound on some
    bodies (1.1e-10 at alpha 0.9, beta 5), so its runs step at 1e-13."""
    n_states, t_end, tol = (3, 10.0, 1e-12) if quick else (12, 100.0, 1e-13)
    worst = np.zeros(4)
    for _ in range(n_states):
        s = _random_valid_state(rng, p)
        c0 = integrals(s, p)
        traj = integrate("full", s.as_array(), (0.0, t_end), p, tol_abs=tol, tol_rel=tol)
        c1 = integrals(FullState.from_array(traj.y[-1]), p)
        worst = np.maximum(worst, [
            abs(c1.F0 - c0.F0), abs(c1.F1 - c0.F1),
            abs(c1.kappa - c0.kappa) / max(abs(c0.kappa), 1e-300),
            abs(c1.eps - c0.eps) / max(abs(c0.eps), 1e-300)])
    return Check("conservation", tuple(worst), (1e-10, 1e-10, 1e-8, 1e-8),
                 f"max |dF0|={worst[0]:.2e} |dF1|={worst[1]:.2e} "
                 f"rel |dkappa|={worst[2]:.2e} rel |deps|={worst[3]:.2e}")


def reduction(p: Params, rng: np.random.Generator, quick: bool, b_sign: str) -> Check:
    """The reduced chart, whose field takes the B cross term under test,
    reproduces the full system's theta(t)."""
    n_orb, t_red = (2, 10.0) if quick else (5, 50.0)
    worst, tries, done = 0.0, 0, 0
    while done < n_orb and tries < 40:
        tries += 1
        s = _random_valid_state(rng, p)
        if abs(float(s.gamma[2])) > 0.98:
            continue
        rc = reduce_state(s, p)
        t_eval = np.linspace(0.0, t_red, 501)
        full = integrate("full", s.as_array(), (0.0, t_red), p, t_eval=t_eval, **_TOLS)
        th_full = np.arccos(np.clip(full.y[:, 5], -1.0, 1.0))
        red = integrate_raw(augmented_field(rc.kappa, p, b_sign),
                            (rc.theta, rc.p_theta, 0.0, 0.0, 0.0, 0.0), (0.0, t_red),
                            guard=_pole_guard_factory(rc.kappa), t_eval=t_eval, **_TOLS)
        worst = max(worst, float(np.max(np.abs(red.y[:, 0] - th_full))))
        done += 1
    return Check("reduction", (worst,), (1e-6,),
                 f"max |theta_red - theta_full| = {worst:.2e} on {done} orbits")


def measure(p: Params, rng: np.random.Generator, quick: bool, b_sign: str) -> Check:
    """The phase flow preserves the rho-weighted volume."""
    n_div, h, f = 20 if quick else 100, 1e-5, full_field(p)
    worst = 0.0
    for _ in range(n_div):
        y = _random_valid_state(rng, p).as_array()
        div = 0.0
        for i, e in enumerate(np.eye(6) * h):
            fp, fm = (measure_density(float(x[5]), p) * f(0.0, x)[i] for x in (y + e, y - e))
            div += (fp - fm) / (2.0 * h)
        scale = float(np.linalg.norm(measure_density(float(y[5]), p) * f(0.0, y)))
        worst = max(worst, abs(div) / scale)
    return Check("measure", (worst,), (1e-6,),
                 f"max relative |div(rho f)| = {worst:.2e} over {n_div} states")


def steady_rotations(p: Params, rng: np.random.Generator, quick: bool, b_sign: str) -> Check:
    """Steady-rotation branch identities and endpoint limits."""
    e0, epi = sigma_theta_eps(1e-8, p), sigma_theta_eps(math.pi - 1e-8, p)
    k0, kpi = sigma_theta_kappa_sq(1e-8, p), sigma_theta_kappa_sq(math.pi - 1e-8, p)
    worst = 0.0
    for th0 in (0.3, 0.7, 1.0, 2.2, 2.8):
        try:
            pr = permanent_rotation(th0, p)
        except ValueError:
            continue
        worst = max(worst, abs(g0(th0, pr.kappa, p)))
    return Check("steady-rotations",
                 (abs(e0 - (1.0 + p.alpha)), abs(k0), abs(epi - (1.0 - p.alpha)), abs(kpi), worst),
                 (1e-6, 1e-6, 1e-6, 1e-6, 1e-8),
                 f"endpoint limits ({e0:.6f}, {epi:.6f}); max fixed-point residual = {worst:.2e}")


def energy_form(p: Params, rng: np.random.Generator, quick: bool, b_sign: str) -> Check:
    """Kinetic cross-term sign: the reduced energy reproduces the full one."""
    worst = 0.0
    for _ in range(3 if quick else 8):
        s = _random_valid_state(rng, p)
        if abs(float(s.gamma[2])) > 0.99:
            continue
        eps = integrals(s, p).eps
        rc = reduce_state(s, p)
        e_red = reduced_energy(rc.theta, rc.p_theta, rc.kappa, p, b_sign=b_sign)
        worst = max(worst, abs(e_red - eps) / max(abs(eps), 1e-300))
    return Check("energy-form", (worst,), (1e-10,),
                 f"max relative |eps_reduced - eps_full| = {worst:.2e} (b_sign={b_sign})")


def threshold_form(p: Params, rng: np.random.Generator, quick: bool, b_sign: str) -> Check:
    """The circulation threshold: the root-found height maximum against the
    adopted +alpha^2 closed form, with the sign-flipped variant more than
    1e-3 off where the two differ (they coincide at alpha = 0); in the pole
    regime, eps_min against 1 + alpha."""
    a, b = p.alpha, p.beta
    if b * b <= 1.0 + a:
        eps_min = epsilon_min(p)
        return Check("threshold-form", (abs(eps_min - (1.0 + a)),), (1e-12,),
                     f"pole regime, eps_min={eps_min:.9f}")
    u_star = profile(inclined_equilibrium(p), p, pole_mode=True).U
    adopted, variant = _threshold_forms(a, b)
    d_adopted, d_variant = abs(u_star - adopted), abs(u_star - variant)
    detail = f"U(theta*)={u_star:.9f}; adopted form off by {d_adopted:.2e}; "
    if abs(adopted - variant) <= 2e-3:
        return Check("threshold-form", (d_adopted,), (1e-9,),
                     detail + "sign-flipped variant coincides with it")
    # d_variant > 1e-3, strict: the float after 1e-3 is its floor
    return Check("threshold-form", (d_adopted, -d_variant), (1e-9, -math.nextafter(1e-3, math.inf)),
                 detail + f"sign-flipped variant off by {d_variant:.2e}")


def quadrature(p: Params, rng: np.random.Generator, quick: bool, b_sign: str) -> Check:
    """Half-period quadrature against the tight stepper, on a generic and a
    near-separatrix level per kappa; reports the level farthest over its bound."""
    gaps = []
    for kap in (0.5, -0.3) if quick else (0.5, -0.3, 0.8, -1.2):
        lv = critical_points(kap, p).levels
        for eps in [min(lv) + 0.3] + ([lv[1] + 1e-3] if len(lv) == 3 else []):
            rn = rotation_number(kap, eps, p)
            ends = _component(kap, eps, p, 0)[2]
            _, psi = _ode_half_period(kap, eps, p, *ends, 1e-15, 2.3e-14)
            gaps.append((abs(rn.N + psi / math.pi), rn.err + 1e-10))
    dn, bound = max(gaps, key=lambda g: g[0] - g[1])
    return Check("quadrature", (dn,), (bound,),
                 f"worst |N_quad - N_ode| = {dn:.2e} against its bound "
                 f"err + 1e-10 = {bound:.2e} on {len(gaps)} levels")


def period_map_drift(p: Params, rng: np.random.Generator, quick: bool, b_sign: str) -> Check:
    """One-period drift by quadrature against the tight stepper's path (not
    the period route), on a generic level and, where the slice has one, an
    N = 0 level."""
    kap = 0.5
    lv = critical_points(kap, p).levels
    gaps = []
    for eps in [min(lv) + 0.3] + [pt.eps for pt in resonance_curve(0, p, kap)[:1]]:
        pm = period_map(kap, eps, p)
        lo = _component(kap, eps, p, 0)[2][0]
        path = _stepped_path((lo, 0.0), kap, (0.0, pm.T), p, 1e-15, 2.3e-14,
                             np.array([0.0, pm.T]))
        gaps.append((abs(pm.D - complex(path.x_c[-1], path.y_c[-1])), pm.err + 1e-10))
    dd, bound = max(gaps, key=lambda g: g[0] - g[1])
    return Check("period-map", (dd,), (bound,),
                 f"worst |D_quad - D_ode| = {dd:.2e} against its bound "
                 f"err + 1e-10 = {bound:.2e} on {len(gaps)} levels")


def slope(p: Params, rng: np.random.Generator, quick: bool, b_sign: str) -> Check:
    """The exact eps-derivative of N against a fourth-order centred
    difference, on one libration above every critical level; 1e-9 covers
    the difference's rounding where symmetry makes N = 0."""
    kap, h = 0.8, 1e-3
    eps = max(3.5, max(critical_points(kap, p).levels) + 0.1)
    dn = _rotation_slope(kap, eps, p)[1]
    n = [rotation_number(kap, eps + d * h, p, **_TOLS).N for d in (1.0, 0.5, -0.5, -1.0)]
    gap = abs(dn - (8.0 * (n[1] - n[2]) - n[0] + n[3]) / (6.0 * h))
    bound = 1e-8 * abs(dn) + 1e-9
    return Check("slope", (gap,), (bound,),
                 f"|dN/deps - fourth-order difference| = {gap:.2e} "
                 f"({gap / max(abs(dn), 1e-300):.2e} relative) against its bound "
                 f"1e-8 |dN/deps| + 1e-9 = {bound:.2e} at (kappa, eps) = ({kap}, {eps})")


def log_slope(p: Params, rng: np.random.Generator, quick: bool, b_sign: str) -> Check:
    """N 1e-8 and 1e-10 above a saddle against the closed form of its slope
    in ln delta, psi_dot_s / (pi lambda_s); 1e-9 covers the
    O(delta ln delta) remainder where the closed form vanishes."""
    found = [(k, s) for k in (0.5, -0.3, 0.8, -1.2) for s in critical_points(k, p).saddles]
    if not found:
        return Check("log-slope", (), (), "no saddle on the slices kappa = 0.5, -0.3, 0.8, -1.2")
    kap, (th, lv, g) = found[0]
    se = profile(th, p)
    want = -kap * math.cos(th) / (se.J * math.sin(th) ** 2 * math.pi * math.sqrt(g / se.B))
    n = [rotation_number(kap, lv + d, p).N for d in (1e-8, 1e-10)]
    gap, bound = abs((n[0] - n[1]) / math.log(100.0) - want), 1e-5 * abs(want) + 1e-9
    return Check("log-slope", (gap,), (bound,),
                 f"|dN/d ln delta - psi_dot_s/(pi lambda_s)| = {gap:.2e} against its bound "
                 f"1e-5 |{want:.8f}| + 1e-9 = {bound:.2e} above the saddle of kappa = {kap}")


def reconstruction(p: Params, rng: np.random.Generator, quick: bool, b_sign: str) -> Check:
    """Absolute-space reconstruction against direct kinematics, and its height."""
    th0, pt0, kap = 0.9, 0.3, 0.7
    state = lift(ReducedState(theta=th0, p_theta=pt0), kap, 0.0, p)
    t_eval = np.linspace(0.0, 30.0, 601)
    pa = reconstruct_trajectory((th0, pt0), kap, (0.0, 30.0), p, t_eval=t_eval, **_TOLS)
    pb = reconstruct_from_full(state, (0.0, 30.0), p, t_eval=t_eval, **_TOLS)
    gap = max(float(np.max(np.abs(pa.x_c - pb.x_c))),
              float(np.max(np.abs(pa.y_c - pb.y_c))),
              float(np.max(np.abs(pa.psi - pb.psi))))
    zres = float(np.max(np.abs(
        pa.z_c - (p.alpha * np.cos(pa.theta) + np.array([profile(t, p).Z for t in pa.theta])))))
    return Check("reconstruction", (gap, zres), (1e-6, 1e-9),
                 f"max quadrature-vs-kinematic gap = {gap:.2e}, "
                 f"height identity residual = {zres:.2e}")


CHECKS = (conservation, reduction, measure, steady_rotations, energy_form, threshold_form,
          quadrature, period_map_drift, slope, log_slope, reconstruction)
N_QUICK = 7
