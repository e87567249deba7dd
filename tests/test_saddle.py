"""The level engine next to saddles, where the node map clusters its nodes.

A seeded grid holds levels 1e-12 to 1e-4 either side of the saddle of both
``levels`` bodies, at one kappa of each sign, and kappa = 0 circuits over
the inclined saddle.  Next to a saddle the stepper is no better than the
quadrature, so three oracles check it:

* the cosine map x = y, which 1e-6 to 1e-4 above the saddle still
  converges with nodes enough, against the sinh map forced onto the same
  levels;
* the closed form of the log slope: N = c + k ln|delta| + o(1), with
  k = psi_dot_s / (pi lambda_s) above the saddle and k / 2 on each well
  below it, lambda_s = sqrt(G0' / B) at the saddle;
* the stepper at its tightest tolerances.  Near its floor its error is not
  monotone in the tolerance, so the larger of the last two steps of its
  tolerance ladder is its error bar.

The float eps fixes delta = eps - V_s only to ulp(eps), so N carries an
error of |k| ulp(eps) / |delta| that no method removes; err includes it.
"""

import functools
import math

import numpy as np
import pytest

import rubberroll.integrate
from rubberroll.dynamics import component_intervals, critical_points, saddles
from rubberroll.geometry import profile
from rubberroll.integrate import (
    _half_period_ends,
    _ode_half_period,
    period_map,
    section_period,
)
from rubberroll.model import Params
from rubberroll.reconstruct import _rotation_slope, classify, resonance_curve, rotation_number

from conftest import clear_caches

BODIES = {"main": Params(0.5, 3.0, 0.5, 0.5), "balanced": Params(0.0, 1.5, 1.0, 1.0)}
KAPPA_RANGES = {"main": (0.15, 0.85), "balanced": (0.15, 0.6)}


@functools.lru_cache(maxsize=None)
def grid():
    """Seeded (body, kappa, eps) levels: per body one kappa of each sign
    with one level a decade either side of the saddle, for the decades
    from 1e-12 to 1e-4, and kappa = 0 circuits 1e-12 to 1e-5 above the
    inclined saddle."""
    rng = np.random.default_rng(20)
    out = []
    for body, p in BODIES.items():
        for sign in (1.0, -1.0):
            kappa = sign * float(rng.uniform(*KAPPA_RANGES[body]))
            ((_, v_s, _),) = saddles(kappa, p)
            for decade in (-12, -10, -8, -6, -5):
                for side in (1.0, -1.0):
                    out.append((body, kappa, v_s + side * 10.0 ** (decade + rng.uniform())))
        ((_, v_s, _),) = saddles(0.0, p)
        for decade in (-12, -10, -8, -6):
            out.append((body, 0.0, v_s + 10.0 ** (decade + rng.uniform())))
    return out


def _ids():
    return [f"{body}-{kappa:+.3f}-{eps - saddles(kappa, BODIES[body])[0][1]:+.0e}"
            for body, kappa, eps in grid()]


def _slopes(kappa, eps, p):
    """(k_T, k_N, delta): d/d ln|delta| of T and N per component, and delta."""
    ((th, v_s, g),) = saddles(kappa, p)
    se = profile(th, p)
    lam = math.sqrt(g / se.B)
    psi_dot = -(kappa / se.J) * math.cos(th) / math.sin(th) ** 2
    # above the saddle a half period passes it once, below it each
    # component's half period passes half of it
    share = 1.0 if eps > v_s else 0.5
    return -2.0 * share / lam, share * psi_dot / (math.pi * lam), eps - v_s


def _no_stepper(*args, **kwargs):
    raise AssertionError("the stepper ran")


@pytest.mark.parametrize("level", range(len(grid())), ids=_ids())
def test_the_saddle_grid_runs_on_the_quadrature_alone(level, monkeypatch):
    body, kappa, eps = grid()[level]
    p = BODIES[body]
    monkeypatch.setattr(rubberroll.integrate, "integrate_raw", _no_stepper)
    k_T, k_N, delta = _slopes(kappa, eps, p)
    cond = math.ulp(eps) / abs(delta)
    ivs = component_intervals(kappa, eps, p)
    assert len(ivs) == (1 if delta > 0.0 else 2)
    for branch in range(len(ivs)):
        rn = rotation_number(kappa, eps, p, branch)
        sp = section_period(kappa, eps, p, branch)
        pm = period_map(kappa, eps, p, branch)
        tc = classify(kappa, eps, p, branch)
        assert pm.T == sp.T_theta and tc.kind in rubberroll.reconstruct.CLASS_KINDS
        assert sp.circulating == (kappa == 0.0)
        # err stays within the rounding the level's eps leaves, magnified
        # where eps - V loses its digits, at the nodes next to a turning point
        assert 0.0 < sp.err <= 1e3 * abs(k_T) * cond + 1e-8 * sp.T_theta, (sp.err, cond)
        if kappa != 0.0:
            # within 1e-9 of the saddle classify names the separatrix, without N
            assert rn.period == sp.T_theta and tc.N in (None, rn.N)
            assert 0.0 < rn.err <= 1e3 * abs(k_N) * cond + 1e-7, (rn.err, cond)
            N, slope, slope_err = _rotation_slope(kappa, eps, p, branch)
            assert N == rn.N and math.isfinite(slope) and slope_err > 0.0


@pytest.mark.parametrize("body", BODIES)
def test_the_sinh_map_matches_the_cosine_map_off_the_saddle(body, monkeypatch):
    # 1e-6 to 1e-4 above the saddle the cosine map converges by 2^17 nodes
    # (below it the level keeps x = y)
    p = BODIES[body]
    levels = [(kappa, eps) for b, kappa, eps in grid() if b == body
              and 1e-6 <= eps - saddles(kappa, p)[0][1] <= 1e-4]
    assert len(levels) >= 5
    values = []
    real_map = rubberroll.integrate._node_map
    for forced in (lambda *args: None, real_map):
        with monkeypatch.context() as m:
            m.setattr(rubberroll.integrate, "integrate_raw", _no_stepper)
            if forced is real_map:
                # every feature of these levels narrower than 0.15 in u
                m.setattr(rubberroll.integrate, "_MAP_WIDTH", 0.15)
            else:
                m.setattr(rubberroll.integrate, "_N_CAP", 2 ** 17)
            m.setattr(rubberroll.integrate, "_node_map", forced)
            clear_caches()
            out = []
            for kappa, eps in levels:
                for branch in range(len(component_intervals(kappa, eps, p))):
                    sp = section_period(kappa, eps, p, branch)
                    pm = period_map(kappa, eps, p, branch)
                    row = [(sp.T_theta, sp.err), (pm.D, pm.err)]
                    if kappa != 0.0:
                        lo, hi = component_intervals(kappa, eps, p)[branch]
                        if forced is real_map:
                            ends = _half_period_ends(kappa, eps, p, lo, hi)
                            assert real_map(kappa, eps, p, *ends) is not None
                        rn = rotation_number(kappa, eps, p, branch)
                        N, slope, slope_err = _rotation_slope(kappa, eps, p, branch)
                        row += [(rn.N, rn.err), (slope, slope_err)]
                    out.append(row)
            values.append(out)
    clear_caches()
    for cos_row, sinh_row, in zip(*values):
        for (a, a_err), (b, b_err) in zip(cos_row, sinh_row):
            assert abs(a - b) <= a_err + b_err + 1e-14 * abs(a), (a, b, a_err, b_err)


@pytest.mark.parametrize("body", BODIES)
def test_the_log_slope_matches_its_closed_form(body, monkeypatch):
    # N at 1e-8 and 1e-10 either side of the saddle gives the slope of N in
    # ln|delta| to 1e-5 relative, up to the O(delta ln delta) remainder,
    # 1e-9 at most; dN/deps gives it alone at 1e-8
    monkeypatch.setattr(rubberroll.integrate, "integrate_raw", _no_stepper)
    p = BODIES[body]
    for kappa in sorted({kappa for b, kappa, _ in grid() if b == body and kappa != 0.0}):
        ((_, v_s, _),) = saddles(kappa, p)
        for side in (1.0, -1.0):
            near, far = v_s + side * 1e-10, v_s + side * 1e-8
            _, k_N, _ = _slopes(kappa, far, p)
            for branch in range(len(component_intervals(kappa, far, p))):
                a = rotation_number(kappa, far, p, branch)
                b = rotation_number(kappa, near, p, branch)
                k = (a.N - b.N) / math.log(100.0)
                assert abs(k - k_N) <= 1e-5 * abs(k_N) + (a.err + b.err) / math.log(100.0) + 1e-9, \
                    (kappa, side, branch, k, k_N)
                _, slope, slope_err = _rotation_slope(kappa, far, p, branch)
                assert abs(slope * (far - v_s) - k_N) <= 1e-4 * abs(k_N) + 1e-8 * slope_err + 1e-9


def _stepper(kappa, eps, p, lo, hi, circuit):
    """(T, N, T bar, N bar) of the stepper's tolerance ladder."""
    runs = [_ode_half_period(kappa, eps, p, lo, hi, circuit, 0.05 * r, r, 10 ** 7)
            for r in (1e-12, 1e-13, 2.3e-14)]
    t = [2.0 * run[0] for run in runs]
    n = [-run[1] / math.pi for run in runs]
    return (t[-1], n[-1], max(abs(t[2] - t[1]), abs(t[1] - t[0])),
            max(abs(n[2] - n[1]), abs(n[1] - n[0])))


def test_err_bounds_the_gap_to_the_tight_stepper():
    # one kappa of each body and sign, and the circuits; a level a decade
    # from 1e-12 to 1e-8 and from 1e-6 either side of the saddle
    for body, kappa, eps in grid():
        p = BODIES[body]
        delta = eps - saddles(kappa, p)[0][1]
        if 1e-8 < abs(delta) < 1e-6:
            continue
        for branch, (lo, hi) in enumerate(component_intervals(kappa, eps, p)):
            sp = section_period(kappa, eps, p, branch)
            rn = rotation_number(kappa, eps, p, branch)
            ends = _half_period_ends(kappa, eps, p, lo, hi)
            T, N, T_bar, N_bar = _stepper(kappa, eps, p, *ends)
            assert abs(sp.T_theta - T) <= sp.err + T_bar, (body, kappa, delta, branch)
            assert abs(rn.N - N) <= rn.err + N_bar, (body, kappa, delta, branch)


@pytest.mark.parametrize("body", BODIES)
def test_small_kappa_answers_with_an_honest_err(body, monkeypatch):
    # at |kappa| from 1e-5 to 1e-9 a component ends next to a pole, or at
    # both poles.  N = N_0 + a kappa + O(kappa^3) with N_0 = 0 or +/- 1/2,
    # so 2 N(kappa/2) - N(kappa) is N_0 to within the errs of both; T
    # moves by O(kappa^2) between the two
    monkeypatch.setattr(rubberroll.integrate, "integrate_raw", _no_stepper)
    p = BODIES[body]
    for kappa in (1e-5, -1e-6, 1e-7, -1e-8, 2e-9):
        levels = critical_points(kappa, p).levels
        for eps in (min(levels) + 0.05, max(levels) + 0.5):
            for branch in range(len(component_intervals(kappa, eps, p))):
                a, b = (rotation_number(k, eps, p, branch) for k in (kappa, 0.5 * kappa))
                n0 = 2.0 * b.N - a.N
                assert abs(n0 - round(2.0 * n0) / 2.0) <= a.err + 2.0 * b.err + 1e2 * kappa ** 2
                ta, tb = (section_period(k, eps, p, branch) for k in (kappa, 0.5 * kappa))
                assert abs(ta.T_theta - tb.T_theta) <= ta.err + tb.err + 1e2 * kappa ** 2


def test_the_readme_resonance_slices_run_no_stepper(monkeypatch):
    # the scan nodes of resonance_curve lie 1e-6 x segment width from the
    # critical levels, within reach of a saddle; every slice of the README
    # example's range stays on the quadrature
    monkeypatch.setattr(rubberroll.integrate, "integrate_raw", _no_stepper)
    pts = resonance_curve(0, BODIES["main"], (0.3, 1.1), n_kappa=5)
    assert len(pts) >= 4 and all(abs(pt.N) <= 1e-6 for pt in pts)
