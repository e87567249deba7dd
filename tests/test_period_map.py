"""The one-period map by quadrature against the DOP853 stepper.

The oracle is the augmented system integrated over one period from the
lower turning point, at tolerances near the stepper's floor.  The grid
holds levels of both benchmark bodies: generic, rational and integer N,
and near-separatrix levels 3e-4 to 1e-3 from the saddle.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

import rubberroll.dynamics
import rubberroll.integrate
from rubberroll.brent import brentq
from rubberroll.dynamics import (
    augmented_field,
    component_intervals,
    critical_points,
    critical_thetas,
    effective_potential,
    potential_grid,
)
from rubberroll.geometry import profile, surface_b, surface_z
from rubberroll.integrate import (
    _ode_half_period,
    _period_map,
    _return_end,
    half_period,
    integrate,
    period_map,
    section_period,
)
from rubberroll.model import Params
from rubberroll.reconstruct import _rotation_slope, _stepped_path, classify, rotation_number

from conftest import clear_caches

BODIES = {"main": Params(0.5, 3.0, 0.5, 0.5), "balanced": Params(0.0, 1.5, 1.0, 1.0)}
KAPPA_RANGES = {"main": (0.15, 0.85), "balanced": (0.15, 0.6)}
TIGHT = dict(tol_abs=1e-15, tol_rel=2.3e-14, max_steps=10 ** 7)


def _rational_between(a, b, q_max=30):
    """The fraction of smallest denominator strictly between a and b that
    is no integer, or None."""
    lo, hi = min(a, b), max(a, b)
    for q in range(2, q_max + 1):
        for n in range(math.floor(lo * q) + 1, math.ceil(hi * q)):
            if n % q:
                return Fraction(n, q)
    return None


@functools.lru_cache(maxsize=None)
def grid():
    """Seeded (kind, body, kappa, eps, branch) levels of both bodies."""
    rng = np.random.default_rng(8)
    out = []
    for body, p in BODIES.items():
        for i in range(2):
            kappa = (-1.0) ** i * float(rng.uniform(*KAPPA_RANGES[body]))
            levels = [effective_potential(t, kappa, p) for t in critical_thetas(kappa, p)]
            wells, v_s = (levels[0], levels[2]), levels[1]
            # the balanced body's N vanishes above its saddle
            top = v_s + 0.6 if body == "main" else v_s
            eps = v_s
            while min(abs(eps - v) for v in levels) < 0.01:
                eps = float(rng.uniform(min(wells) + 0.02, top))
            out.append(("generic", body, kappa, eps, 0))
            for sign in (-1.0, 1.0):
                d = 10.0 ** rng.uniform(math.log10(3e-4), -3.0)
                out.append(("near_separatrix", body, kappa, v_s + sign * d, 0))
            # N is monotone in eps on one component below the saddle
            a, b = max(wells) + 0.01, v_s - 0.01
            n_of = lambda e: rotation_number(kappa, e, p).N
            fr = _rational_between(n_of(a), n_of(b))
            if fr is not None:
                e = brentq(lambda e: n_of(e) - float(fr), a, b, xtol=1e-13)
                out.append(("rational", body, kappa, e, 0))
            # above the saddle: N = 0 by symmetry on the balanced body, a
            # root of N just above the saddle on the main one
            if body == "balanced":
                e = v_s + float(rng.uniform(0.02, 0.6))
            else:
                e = brentq(n_of, v_s + 1e-4, v_s + 0.05, xtol=1e-13)
            out.append(("integer", body, kappa, e, 0))
    return out


def _ids():
    return [f"{kind}-{body}-{i}" for i, (kind, body, *_) in enumerate(grid())]


def _stepper_path(kappa, p, start, t, **tols):
    # the stepper itself: reconstruct_trajectory runs the period map
    path = _stepped_path(start, kappa, (0.0, float(t[-1])), p, t_eval=t, **tols)
    return path.x_c + 1j * path.y_c


def _node_times(kappa, eps, p, lo, hi, circuit, M):
    """The times of the period map's M nodes u_j = (j + 1/2) 2 pi / M, with
    theta = m - h cos(u) between the turning points lo and hi, or
    theta = lo + (hi - lo) u / pi on a meridian circuit: the cumulative sum
    of the trigonometric interpolant of dt/du, which is even in u."""
    u = (np.arange(M) + 0.5) * (2.0 * math.pi / M)
    if circuit:
        th, jac = lo + (hi - lo) / math.pi * u, (hi - lo) / math.pi
    else:
        h = 0.5 * (hi - lo)
        th, jac = lo + h - h * np.cos(u), h * np.abs(np.sin(u))
    s, c = np.sin(th), np.cos(th)
    B = surface_b(s, s * s, c, surface_z(s * s, c, p), p)[0]
    dt = jac * np.sqrt(B / (2.0 * (eps - potential_grid(th, kappa, p)[0])))
    X = np.fft.fft(dt)
    k = np.fft.fftfreq(M, 1.0 / M)
    k[0] = 1.0
    mean, X[0] = X[0].real / M, 0.0
    return mean * u + np.fft.ifft(X / (1j * k)).real


def _no_stepper(*args, **kwargs):
    raise AssertionError("the stepper ran")


def test_grid_holds_every_kind_of_level():
    kinds = {(kind, body) for kind, body, *_ in grid()}
    assert kinds == {(k, b) for k in ("generic", "near_separatrix", "rational", "integer")
                     for b in BODIES}
    for kind, body, kappa, eps, branch in grid():
        rn = rotation_number(kappa, eps, BODIES[body], branch)
        is_int = abs(rn.N - round(rn.N)) <= 5.0 * rn.err + 1e-9
        # near-separatrix levels above the balanced body's saddle have N = 0
        if kind != "near_separatrix":
            assert is_int == (kind == "integer"), (kind, rn.N)


@pytest.mark.parametrize("level", range(len(grid())), ids=_ids())
def test_period_map_matches_the_tight_stepper(level, monkeypatch):
    kind, body, kappa, eps, branch = grid()[level]
    p = BODIES[body]
    with monkeypatch.context() as m:
        m.setattr(rubberroll.integrate, "integrate_raw", _no_stepper)
        pm = period_map(kappa, eps, p, branch)
    lo, hi = component_intervals(kappa, eps, p)[branch]
    t = _node_times(kappa, eps, p, lo, hi, False, len(pm.z))
    assert np.all(np.diff(t) > 0.0) and 0.0 < t[0] and t[-1] < pm.T
    z = _stepper_path(kappa, p, (lo, 0.0), np.append(t, pm.T), **TIGHT)
    assert abs(pm.D - z[-1]) <= pm.err + 1e-10, (kind, abs(pm.D - z[-1]), pm.err)
    # err meets the default stop target, relative to the path length
    length = np.sum(np.abs(np.diff(np.concatenate(([0.0], pm.z, [pm.D])))))
    assert pm.err <= 1e-12 + 1e-10 * length
    # the path at the nodes, and T and dpsi twice the half period's
    assert np.max(np.abs(pm.z - z[:-1])) <= pm.err + 1e-10
    hp = half_period(kappa, eps, p, lo, hi)
    assert (pm.T, pm.dpsi) == (2.0 * hp.t, 2.0 * hp.psi)


@pytest.mark.parametrize("kind", ["kappa0_crossing", "kappa0_circulating"])
def test_kappa_zero_period_map_matches_the_stepper(kind, monkeypatch):
    p = BODIES["main"]
    poles = sorted([effective_potential(0.0, 0.0, p), effective_potential(math.pi, 0.0, p)])
    top = max([poles[1]] + [effective_potential(t, 0.0, p) for t in critical_thetas(0.0, p)])
    if kind == "kappa0_crossing":
        eps = 0.5 * (poles[0] + poles[1])
        lo, hi = component_intervals(0.0, eps, p)[0]
        # the component reaches one pole; the path starts at the turning
        # point mirrored through it
        ends = (-hi, hi) if lo == 0.0 else (lo, 2.0 * math.pi - lo)
        start, circuit = (ends[0], 0.0), False
    else:
        eps = top + 0.5
        B0 = profile(0.0, p, pole_mode=True).B
        start = (0.0, math.sqrt(2.0 * (eps - effective_potential(0.0, 0.0, p)) / B0))
        ends, circuit = (0.0, math.pi), True
    with monkeypatch.context() as m:
        m.setattr(rubberroll.integrate, "integrate_raw", _no_stepper)
        pm = period_map(0.0, eps, p)
    assert pm.dpsi == 0.0
    t = _node_times(0.0, eps, p, *ends, circuit, len(pm.z))
    z = _stepper_path(0.0, p, start, np.append(t, pm.T), **TIGHT)
    assert abs(pm.D - z[-1]) <= pm.err + 1e-10
    assert np.max(np.abs(pm.z - z[:-1])) <= pm.err + 1e-10
    # back and forth on a segment, or a line advanced once per circuit
    assert (abs(pm.D) < 1e-10) == (kind == "kappa0_crossing")


def test_quasi_periodic_annulus_bounds_a_long_stepper_path():
    # after each period the path turns by dpsi about c, so |z - c| has
    # period T and one period's nodes give the annulus of the whole path
    kind, body, kappa, eps, branch = grid()[0]
    p = BODIES[body]
    assert classify(kappa, eps, p, branch).kind == "QuasiPeriodicBounded"
    pm = period_map(kappa, eps, p, branch)
    c = pm.D / (1.0 - complex(math.cos(pm.dpsi), math.sin(pm.dpsi)))
    r = np.abs(np.concatenate(([0.0], pm.z, [pm.D])) - c)
    lo = component_intervals(kappa, eps, p)[branch][0]
    r_ode = np.abs(_stepper_path(kappa, p, (lo, 0.0), np.linspace(0.0, 20.0 * pm.T, 4001)) - c)
    # the nodes sample the extremes of |z - c| to about 1e-3 of their size
    slack = 1e-3 * r.max()
    assert r.min() - slack <= r_ode.min() <= r.min() + slack
    assert r.max() - slack <= r_ode.max() <= r.max() + slack


def _stepper_rule(kappa, eps, p, branch):
    """classify's integer-N rule before the period map: one period by the
    stepper, 257 samples, drift against 1e-3 of the path's diameter."""
    rn = rotation_number(kappa, eps, p, branch)
    n = round(rn.N)
    if abs(rn.N - n) > 5.0 * rn.err + 1e-9:
        return None
    lo = component_intervals(kappa, eps, p)[branch][0]
    path = _stepped_path((lo, 0.0), kappa, (0.0, rn.period), p,
                         t_eval=np.linspace(0.0, rn.period, 257))
    drift = math.hypot(path.x_c[-1] - path.x_c[0], path.y_c[-1] - path.y_c[0])
    diam = math.hypot(np.ptp(path.x_c), np.ptp(path.y_c))
    kind = "UnboundedResonant" if drift > 1e-3 * diam else "ClosedPeriodic"
    return kind, (n, 1)


def test_classify_kinds_match_the_stepper_rule():
    for kind, body, kappa, eps, branch in grid():
        p = BODIES[body]
        tc = classify(kappa, eps, p, branch)
        old = _stepper_rule(kappa, eps, p, branch)
        if old is not None:
            assert (tc.kind, tc.resonance) == old, (kind, body, kappa, eps)
        else:
            assert tc.resonance is None or tc.resonance[1] > 1


def test_classify_runs_no_stepper_on_integer_levels(monkeypatch):
    monkeypatch.setattr(rubberroll.integrate, "integrate_raw", _no_stepper)
    levels = [lv for lv in grid() if lv[0] == "integer"]
    assert levels
    for _, body, kappa, eps, branch in levels:
        tc = classify(kappa, eps, BODIES[body], branch)
        assert tc.kind == "UnboundedResonant" and tc.resonance == (0, 1)


def test_classify_reads_its_level_once(monkeypatch):
    calls = []
    real = rubberroll.integrate.component_intervals

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rubberroll.integrate, "component_intervals", counting)
    for kind, body, kappa, eps, branch in grid():
        if kind in ("generic", "integer"):
            calls.clear()
            classify(kappa, eps, BODIES[body], branch)
            assert len(calls) == 1, kind


def _stepper_drift(kappa, eps, p, start, circuit, tols=TIGHT):
    """D by the tight stepper over one whole period, from a libration's
    lower turning point or from the pole 0 on a meridian circuit.  The run
    stops at the period map's T, and its end moves to first order to where
    the period ends, as in the half period's oracle: to p_theta = 0, or to
    theta = 2 pi.  Near a saddle the period is known only to the stepper's
    error, which the path at a given time would multiply by the speed
    there."""
    T = period_map(kappa, eps, p).T
    y = integrate("augmented", (*start, 0.0, 0.0, 0.0, 0.0), (0.0, T), p, kappa=kappa,
                  **tols).y[-1]
    k, end = (0, 2.0 * math.pi) if circuit else (1, 0.0)
    _, y = _return_end(augmented_field(kappa, p), T, y, k, end)
    return complex(y[4], y[5])


def _stepper_drift_bar(kappa, eps, p, start, circuit):
    """D by the stepper at the last step of a tolerance ladder, and the
    change over that step as its error bar."""
    D = [_stepper_drift(kappa, eps, p, start, circuit, dict(tol_abs=0.05 * r, tol_rel=r))
         for r in (1e-13, 2.3e-14)]
    return D[1], abs(D[1] - D[0])


def test_next_to_a_saddle_the_period_map_matches_the_stepper(monkeypatch):
    # 1e-9 above the saddle the cosine map would need more than 2^14 nodes;
    # the sinh map clusters them at the saddle, and the period map goes on
    # up the same ladder with no stepper run
    p = BODIES["main"]
    kappa = 0.5
    sad = critical_thetas(kappa, p)[1]
    eps = effective_potential(sad, kappa, p) + 1e-9
    with monkeypatch.context() as m:
        m.setattr(rubberroll.integrate, "integrate_raw", _no_stepper)
        pm = period_map(kappa, eps, p)
    lo = component_intervals(kappa, eps, p)[0][0]
    assert len(pm.z) <= 1024
    D, bar = _stepper_drift_bar(kappa, eps, p, (lo, 0.0), False)
    assert abs(pm.D - D) <= pm.err + bar


def test_next_to_the_inclined_saddle_a_meridian_circuit_matches_the_stepper(monkeypatch):
    # kappa = 0, 1e-9 above the inclined saddle: the level circulates over
    # both poles, and the nodes cluster at the saddle in -cos(theta)
    p = BODIES["main"]
    (sad,) = critical_thetas(0.0, p)
    eps = effective_potential(sad, 0.0, p) + 1e-9
    assert component_intervals(0.0, eps, p) == [(0.0, math.pi)]
    with monkeypatch.context() as m:
        m.setattr(rubberroll.integrate, "integrate_raw", _no_stepper)
        sp = section_period(0.0, eps, p)
        pm = period_map(0.0, eps, p)
    assert sp.circulating and pm.T == sp.T_theta and pm.dpsi == 0.0
    B0 = profile(0.0, p, pole_mode=True).B
    start = (0.0, math.sqrt(2.0 * (eps - effective_potential(0.0, 0.0, p)) / B0))
    D, bar = _stepper_drift_bar(0.0, eps, p, start, True)
    assert abs(pm.D - D) <= pm.err + bar


def test_a_meridian_circuit_that_turns_back_raises(monkeypatch):
    # 1e-12 above the level of the two pole maxima the stepper's circuit
    # turns back 2.7e-5 short of pi; it used to rock there until its
    # 2 000 000-step budget ran out.  The quadrature clusters its nodes at
    # both poles and answers, with the err that the level's rounding leaves
    p = Params(0.0, 0.6, 1.0, 1.0)
    eps = 1.0 + 1e-12
    assert component_intervals(0.0, eps, p) == [(0.0, math.pi)]
    with pytest.raises(rubberroll.integrate.IntegrationError, match="turned back") as info:
        _ode_half_period(0.0, eps, p, 0.0, math.pi, True, 1e-12, 1e-10, 10 ** 6)
    assert "step budget" not in str(info.value) and f"eps={eps}" in str(info.value)
    monkeypatch.setattr(rubberroll.integrate, "integrate_raw", _no_stepper)
    sp = section_period(0.0, eps, p)
    assert sp.circulating and 0.0 < sp.err < 1e-2 * sp.T_theta
    assert period_map(0.0, eps, p).T == sp.T_theta


def test_a_drift_short_of_its_target_at_the_node_cap_keeps_the_last_rung(monkeypatch):
    # at |kappa| = 3e-7 the precession peaks narrowly at both near-pole
    # ends; a half period to 1e-4 stops on a low rung, and with the node cap
    # there D has that rung and the one below: it comes back with the
    # larger err of their gap
    p = BODIES["balanced"]
    kappa, eps = 3e-7, 3.0
    lo, hi = component_intervals(kappa, eps, p)[0]
    hp = half_period(kappa, eps, p, lo, hi, tol_abs=1e-4, tol_rel=1e-4)
    with monkeypatch.context() as m:
        m.setattr(rubberroll.integrate, "integrate_raw", _no_stepper)
        m.setattr(rubberroll.integrate, "_N_CAP", hp.n)
        pm = _period_map(kappa, eps, p, hp, 1e-12, 1e-10)
    length = np.sum(np.abs(np.diff(np.concatenate(([0.0], pm.z, [pm.D])))))
    assert len(pm.z) == 2 * hp.n and pm.err > 1e-12 + 1e-10 * length
    # near the pole the stepper needs minutes at 1e-15 / 2.3e-14.  Its
    # bounce off the pole runs about 1e-7 off the quadrature's time, where
    # p_theta is far from linear in t: the moved end leaves D 6e-7 off
    D = _stepper_drift(kappa, eps, p, (lo, 0.0), False, dict(tol_abs=1e-13, tol_rel=1e-11))
    assert abs(pm.D - D) <= pm.err


def test_classify_next_to_a_saddle_climbs_the_ladder_once(monkeypatch):
    # N = 0 above the balanced body's saddle; 1e-8 above it classify reads
    # the period map on from the rotation number's half period: one ladder
    # of quadrature nodes, and no stepper run
    p = BODIES["balanced"]
    kappa = 0.5
    eps = effective_potential(critical_thetas(kappa, p)[1], kappa, p) + 1e-8
    steps, passes = [], []
    real_stepper, real_nodes = rubberroll.integrate.integrate_raw, rubberroll.integrate._half_nodes

    def stepping(*args, **kwargs):
        steps.append(args)
        return real_stepper(*args, **kwargs)

    def recording(*args):
        passes.append(args[-1])
        return real_nodes(*args)

    monkeypatch.setattr(rubberroll.integrate, "integrate_raw", stepping)
    monkeypatch.setattr(rubberroll.integrate, "_half_nodes", recording)
    rotation_number(kappa, eps, p)
    ladder, ladder_passes = sum(map(len, passes)), len(passes)
    passes.clear()
    clear_caches()
    tc = classify(kappa, eps, p)
    assert tc.kind == "UnboundedResonant" and tc.resonance == (0, 1)
    assert not steps and ladder < sum(map(len, passes)) <= ladder + 3
    # the period map's rungs, from the half period's n/2 on, take two passes
    assert len(passes) == ladder_passes + 2, passes
    # a warm repeat reads the kept half period and its component
    assert classify(kappa, eps, p) == tc
    assert not steps


def test_the_period_map_goes_on_from_the_half_periods_rung(monkeypatch):
    # the half period climbs 16, 32, ..., n nodes; the period map restarts
    # at n/2, the rung its first comparison of D needs, and evaluates no
    # rung below that twice
    rungs, passes = [], []
    real = rubberroll.integrate._half_nodes

    def recording(*args):
        passes.append(args[-1])
        rungs.extend(args[-1])
        return real(*args)

    monkeypatch.setattr(rubberroll.integrate, "_half_nodes", recording)
    monkeypatch.setattr(rubberroll.integrate, "integrate_raw", _no_stepper)
    levels = [lv for lv in grid() if lv[0] == "integer"]
    assert levels
    for _, body, kappa, eps, branch in levels:
        p = BODIES[body]
        lo, hi = component_intervals(kappa, eps, p)[branch]
        n = half_period(kappa, eps, p, lo, hi).n
        assert n >= 32
        # the ladder takes one pass for its rungs up to 64 nodes and one for
        # each rung past that
        climb = [(16, 32, 64)] + [(m,) for m in (128 * 2 ** i for i in range(7)) if m <= n]
        for run in (lambda: period_map(kappa, eps, p, branch),
                    lambda: classify(kappa, eps, p, branch)):
            clear_caches()
            rungs.clear()
            passes.clear()
            run()
            assert rungs.count(n // 2) == 2 and rungs.count(n) >= 2, rungs
            assert all(rungs.count(m) == 1 for m in rungs if m < n // 2), rungs
            assert passes[:len(climb)] == climb and passes[len(climb)][0] == n // 2, passes
            # a warm repeat climbs no rung of the kept half period again
            rungs.clear()
            half_period(kappa, eps, p, lo, hi)
            assert rungs == []
            passes.clear()
            run()
            assert min(rungs) == n // 2 and rungs.count(n // 2) == 1, rungs
            assert passes[0][0] == n // 2, passes


def test_every_observable_of_a_level_reads_one_setup(monkeypatch):
    # the first N = 0 level of the README resonance example: its class, N,
    # period, period map and dN/deps solve for its two turning points once
    # each and map its nodes once between them
    p, kappa, eps = BODIES["main"], 0.3, 3.09393724582727
    calls = {"_node_map": 0, "newton_bracketed": 0}
    for name, mod in (("_node_map", rubberroll.integrate), ("newton_bracketed", rubberroll.dynamics)):
        def counting(*args, name=name, real=getattr(mod, name), **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counting)
    clear_caches()
    critical_points(kappa, p)     # the slice's own roots, the critical angles
    calls["newton_bracketed"] = 0
    assert classify(kappa, eps, p).kind == "UnboundedResonant"
    rotation_number(kappa, eps, p)
    section_period(kappa, eps, p)
    period_map(kappa, eps, p)
    _rotation_slope(kappa, eps, p)
    assert calls == {"_node_map": 1, "newton_bracketed": 2}


def test_relative_equilibrium_has_no_period_map():
    p = BODIES["main"]
    kappa = 0.5
    well = critical_thetas(kappa, p)[0]
    with pytest.raises(ValueError, match="relative equilibrium"):
        period_map(kappa, effective_potential(well, kappa, p), p)
