"""reconstruct_trajectory's period route against the DOP853 stepper.

The period route builds an orbit from one nutation period of quadrature
(``integrate._ladder``); ``reconstruct._stepped_path``, the stepper it
replaced, stays its oracle and its fallback.  The oracle is a tolerance
ladder of the stepper (tol_rel 1e-12, 1e-13, 2.3e-14, tol_abs 0.05 tol_rel):
its last run is the reference, and the larger change over its last two
steps, per column, its bar.  Every sample of the route must lie within the
larger of the bar and the quadrature's err times the periods run, and no
column may lie farther from the reference than the stepper at the route's
own tolerances does.
"""

import logging
import math

import numpy as np
import pytest

import rubberroll.integrate
from rubberroll import checks
from rubberroll.bifurcation import permanent_rotation
from rubberroll.dynamics import (component_intervals, critical_points, critical_thetas,
                                 effective_potential, reduced_energy)
from rubberroll.geometry import profile
from rubberroll.integrate import _component, _ladder, half_period
from rubberroll.model import Params
from rubberroll.reconstruct import _stepped_path, reconstruct_trajectory

from conftest import clear_caches
from test_cli import SWEEP

P_MAIN = Params(0.5, 3.0, 0.5, 0.5)
P_ROUND = Params(0.5, 3.0, 1.0, 1.0)
COLUMNS = ("theta", "p_theta", "psi", "phi", "x_c", "y_c", "z_c", "x_p", "y_p")
SEEDS = ("psi0", "phi0", "x0", "y0")


def _tolerance_ladder(start, kappa, p, t):
    runs = [_stepped_path(start, kappa, (0.0, float(t[-1])), p, 0.05 * r, r, t)
            for r in (1e-12, 1e-13, 2.3e-14)]
    bars = {c: max(np.abs(getattr(runs[2], c) - getattr(runs[1], c)).max(),
                   np.abs(getattr(runs[1], c) - getattr(runs[0], c)).max()) for c in COLUMNS}
    return runs[2], bars


def _start_half_period(start, kappa, p):
    """(eps, hp): the level of start and the half period the route takes
    at the default tolerances."""
    eps = reduced_energy(*start[:2], kappa, p)
    th = start[0] % (2.0 * math.pi) if kappa == 0.0 else start[0]
    th = min(th, 2.0 * math.pi - th)
    ivs = component_intervals(kappa, eps, p)
    branch = min(range(len(ivs)), key=lambda i: max(ivs[i][0] - th, th - ivs[i][1]))
    ends = _component(kappa, eps, p, branch)[2]
    return eps, half_period(kappa, eps, p, ends[0], ends[1], circuit=ends[2])


def _quadrature_err(start, kappa, p):
    """(err, T): the largest error estimate of the route's half period and
    period map at the default tolerances, and the period."""
    eps, hp = _start_half_period(start, kappa, p)
    pm = next(_ladder(kappa, eps, p, hp, 1e-12, 1e-10)).period_map()
    return max(2.0 * hp.t_err, 2.0 * hp.psi_err, pm.err), pm.T


def _check(start, kappa, p, tmax, n=301, slack=1.0):
    """The route from start = (theta0, p_theta0, psi0, phi0, x0, y0) over
    [0, tmax] against the ladder and against the stepper at the route's
    tolerances, up to a factor slack."""
    t = np.linspace(0.0, tmax, n)
    seeds = dict(zip(SEEDS, start[2:]))
    route = reconstruct_trajectory(start[:2], kappa, (0.0, tmax), p, t_eval=t, **seeds)
    stepper = _stepped_path(start, kappa, (0.0, tmax), p, t_eval=t)
    ref, bars = _tolerance_ladder(start, kappa, p, t)
    err, T = _quadrature_err(start, kappa, p)
    assert np.array_equal(route.t, t)
    for c in COLUMNS:
        gap = np.abs(getattr(route, c) - getattr(ref, c))
        bound = np.maximum(err * np.maximum(1.0, t / T), bars[c])
        assert (gap <= bound).all(), (c, gap.max(), err, bars[c])
        assert gap.max() <= slack * np.abs(getattr(stepper, c) - getattr(ref, c)).max(), c
    return route


def _orbit_starts():
    """The reduced starts of the benchmark's orbits workload: |kappa| in
    0.3 to 0.9, 0.1 to 0.6 above the well bottom, theta0 inside the
    component's middle 80 %, p_theta0 upward from the energy."""
    rng = np.random.default_rng(7)
    out = []
    for u, v in zip((rng.random(5) + np.arange(5)) / 5, rng.permutation(5) / 5 + 0.1):
        kappa = float(rng.choice([-1.0, 1.0]) * (0.3 + 0.6 * u))
        v_min, th_min = min((effective_potential(t, kappa, P_MAIN), t)
                            for t in critical_thetas(kappa, P_MAIN))
        eps = v_min + 0.1 + 0.5 * v
        lo, hi = next(iv for iv in component_intervals(kappa, eps, P_MAIN)
                      if iv[0] <= th_min <= iv[1])
        th = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
        gap = eps - effective_potential(th, kappa, P_MAIN)
        out.append((kappa, th, math.sqrt(2.0 * gap / profile(th, P_MAIN, pole_mode=True).B)))
    return out


@pytest.mark.parametrize("kappa, theta0, p_theta0", _orbit_starts())
def test_the_orbits_strata_match_the_ladder(kappa, theta0, p_theta0):
    _check((theta0, p_theta0, 0.0, 0.0, 0.0, 0.0), kappa, P_MAIN, 200.0, 2001)


@pytest.mark.parametrize("alpha, beta", SWEEP)
def test_the_sweep_bodies_match_the_ladder(alpha, beta):
    _check((1.1, 0.3, 0.0, 0.0, 0.0, 0.0), 0.7, Params(alpha, beta, 1.0, 1.0), 30.0)


def test_the_readme_examples_match_the_ladder():
    # simulate: from the lower turning point over 200; trajectory: psi0 = 3.14159
    _check((0.4678, 0.0, 0.0, 0.0, 0.0, 0.0), 0.8, P_MAIN, 200.0, 2001)
    _check((0.4678, 0.0, 3.14159, 0.0, 0.0, 0.0), 0.8, P_MAIN, 50.0, 2001)


@pytest.mark.parametrize("start", [
    (2.5, 0.0), (0.3, 1.0), (-0.3, 1.0), (0.3, 3.0), (0.3, -3.0), (7.0, -2.0), (-4.0, 3.0),
], ids=["libration", "crossing", "crossing-negative-theta", "circuit", "circuit-backwards",
        "crossing-past-2pi", "circuit-past-minus-pi"])
def test_kappa_zero_levels_match_the_ladder(start):
    # the extended meridian chart: theta0 anywhere, poles crossed or circled
    route = _check(start + (0.4, 0.0, 0.5, -0.5), 0.0, P_ROUND, 30.0)
    assert (route.phi == 0.0).all() and (route.psi == 0.4).all()


@pytest.mark.parametrize("alpha, beta", [(0.5, 3.0), (0.9, 5.0)])
def test_a_circuit_just_above_its_top_level_matches_the_ladder(alpha, beta):
    # 1e-9 above the saddle it passes the quadrature converges on a sinh
    # map long before p_theta's interpolant does: the orbit's rung climbs
    # until the next rung confirms it.  From the pole 0, where the map's
    # dtheta/du is 0/0, from pi, and from 2 pi backwards
    p = Params(alpha, beta, 1.0, 1.0)
    top = max(critical_points(0.0, p).levels)
    for theta0, sign in ((0.0, 1.0), (math.pi, 1.0), (2.0 * math.pi, -1.0)):
        gap = top + 1e-9 - effective_potential(theta0, 0.0, p)
        p_theta0 = sign * math.sqrt(2.0 * gap / profile(theta0, p, pole_mode=True).B)
        _check((theta0, p_theta0, 0.0, 0.0, 0.0, 0.0), 0.0, p, 20.0, 201, slack=2.0)


@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_levels_next_to_a_saddle_match_the_ladder(delta):
    kappa = 0.5
    sad = critical_thetas(kappa, P_MAIN)[1]
    eps = effective_potential(sad, kappa, P_MAIN) + delta
    lo, hi = component_intervals(kappa, eps, P_MAIN)[0]
    _check((lo, 0.0, 0.0, 0.0, 0.0, 0.0), kappa, P_MAIN, 60.0, 601)
    th = lo + 0.3 * (hi - lo)
    pt = math.sqrt(2.0 * (eps - effective_potential(th, kappa, P_MAIN)) / profile(th, P_MAIN).B)
    _check((th, -pt, 0.0, 0.0, 0.0, 0.0), kappa, P_MAIN, 60.0, 601)


def test_turning_points_backward_starts_and_seeds_match_the_ladder():
    # a start 1e-7 in p_theta past a turning point lies within rounding of
    # it in theta: p_theta must fix its phase
    lo, hi = component_intervals(0.6, 3.8, P_MAIN)[0]
    for start in ((lo, 0.0), (hi, 0.0), (1.0, -0.3), (lo, 1e-7), (hi, -1e-7), (hi, 1e-7)):
        _check(start + (0.0,) * 4, 0.6, P_MAIN, 50.0)
    _check((1.0, 0.3, 0.3, -1.2, 2.0, -0.5), -0.6, P_MAIN, 50.0)


def test_a_sample_at_the_start_is_the_start_state():
    start = (1.0, -0.3, 0.3, -1.2, 2.0, -0.5)
    for t in (np.zeros(1), np.zeros(3), np.array([0.0, 1.0, 0.0])):
        path = reconstruct_trajectory(start[:2], 0.6, (0.0, 0.0), P_MAIN, t_eval=t,
                                      **dict(zip(SEEDS, start[2:])))
        for c, v in zip(("theta", "p_theta", "psi", "phi", "x_c", "y_c"), start):
            assert (getattr(path, c)[t == 0.0] == v).all(), c


def test_a_long_run_repeats_the_period_map():
    # 1e5 time units: about 6 000 periods, far past what the tight stepper
    # could run; the route's samples one period apart repeat the period
    # map's planar rigid motion, and the tight stepper from the route's own
    # state 5 before the end agrees at the end
    kappa, start = 0.8, (0.4678, 0.0)
    eps = reduced_energy(*start, kappa, P_MAIN)
    ends = _component(kappa, eps, P_MAIN, 0)[2]
    hp = half_period(kappa, eps, P_MAIN, ends[0], ends[1])
    pm = next(_ladder(kappa, eps, P_MAIN, hp, 1e-12, 1e-10)).period_map()
    t = np.array([0.0, 1e5 - pm.T - 5.0, 1e5 - pm.T, 1e5 - 5.0, 1e5])
    path = reconstruct_trajectory(start, kappa, (0.0, 1e5), P_MAIN, t_eval=t)
    z = path.x_c + 1j * path.y_c
    turn = complex(math.cos(pm.dpsi), math.sin(pm.dpsi))
    assert abs(z[4] - (pm.D + turn * z[2])) <= 1e-6 * (1.0 + abs(z[4]))
    assert abs(path.theta[4] - path.theta[2]) <= 1e-9
    assert abs(path.psi[4] - path.psi[2] - pm.dpsi) <= 1e-9 * abs(path.psi[4])
    end = _stepped_path((path.theta[3], path.p_theta[3], path.psi[3], path.phi[3],
                         path.x_c[3], path.y_c[3]), kappa, (1e5 - 5.0, 1e5), P_MAIN,
                        1e-15, 2.3e-14, t[3:])
    for c in COLUMNS:
        assert abs(getattr(path, c)[4] - getattr(end, c)[1]) <= 1e-9, c
    e = [reduced_energy(th, pt, kappa, P_MAIN) for th, pt in zip(path.theta, path.p_theta)]
    assert max(e) - min(e) <= 1e-12


def test_without_sample_times_the_route_samples_as_densely_as_its_nodes():
    path = reconstruct_trajectory((0.4678, 0.0), 0.8, (0.0, 20.0), P_MAIN)
    assert path.t[0] == 0.0 and path.t[-1] == 20.0
    assert len(path.t) > 2 and np.all(np.diff(path.t) > 0.0)


def _falls_back(start, kappa, p, caplog, reason):
    t = np.linspace(0.0, 10.0, 101)
    with caplog.at_level(logging.INFO, logger="rubberroll.reconstruct"):
        route = reconstruct_trajectory(start, kappa, (0.0, 10.0), p, t_eval=t)
    lines = [r.getMessage() for r in caplog.records if r.name == "rubberroll.reconstruct"]
    assert len(lines) == 1 and "DOP853 stepper" in lines[0] and reason in lines[0], lines
    stepper = _stepped_path(start, kappa, (0.0, 10.0), p, t_eval=t)
    for c in COLUMNS:
        assert np.array_equal(getattr(route, c), getattr(stepper, c)), c


def test_a_relative_equilibrium_falls_back_to_the_stepper(caplog):
    pr = permanent_rotation(math.pi / 3.0, P_ROUND)
    _falls_back((math.pi / 3.0, 0.0), pr.kappa, P_ROUND, caplog, "relative equilibrium")


def test_a_start_on_a_saddle_falls_back_to_the_stepper(caplog):
    # the half period of the saddle's own level diverges: no node map
    # converges by the node cap
    sad = critical_thetas(0.5, P_MAIN)[1]
    _falls_back((sad, 0.0), 0.5, P_MAIN, caplog, "did not converge")


def test_the_period_route_logs_its_nodes_period_error_and_periods(caplog):
    # the rungs where D converged and where the next rung confirmed the
    # interpolants: the same on the README start; 256 and 1 024 nodes on a
    # kappa = 0 circuit 1e-9 above its top level
    p_round = Params(0.5, 3.0, 1.0, 1.0)
    gap = (max(critical_points(0.0, p_round).levels) + 1e-9
           - effective_potential(math.pi, 0.0, p_round))
    circuit = (math.pi, math.sqrt(2.0 * gap / profile(math.pi, p_round, pole_mode=True).B))
    for kappa, start, p, rungs in ((0.8, (0.4678, 0.0), P_MAIN, (128, 128)),
                                   (0.0, circuit, p_round, (256, 1024))):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="rubberroll.reconstruct"):
            reconstruct_trajectory(start, kappa, (0.0, 200.0), p)
        lines = [r.getMessage() for r in caplog.records if r.name == "rubberroll.reconstruct"]
        assert len(lines) == 1, lines
        assert lines[0].startswith("reconstruct_trajectory: period map on "), lines
        assert tuple(int(part.split(" on ")[1].split()[0])
                     for part in lines[0].split(", ")[:2]) == rungs, lines
        periods = float(lines[0].split(", ")[-1].split()[0])
        T = float(lines[0].split("T = ")[1].split(",")[0])
        assert periods == pytest.approx(200.0 / T, rel=1e-5)


@pytest.mark.parametrize("kappa, start", [(0.8, (0.4678, 0.0)), (0.0, (4.0, 0.3))],
                         ids=["readme-simulate", "kappa0"])
def test_the_route_builds_each_rung_above_the_half_periods_once(kappa, start, monkeypatch):
    # the period map and the orbit climb one ladder: past the half period's
    # rung, each rung's integrands and its record are built once, and the
    # ladder builds the half period's own rung and the one below again, as
    # the half period keeps no nodes
    nodes, records = [], []
    real_nodes, real_init = rubberroll.integrate._half_nodes, rubberroll.integrate._Rung.__init__

    def counting_nodes(*args):
        out = real_nodes(*args)
        nodes.extend(len(n.dt) for n in out)
        return out

    def counting_init(rung, rung_nodes, *args):
        records.append(len(rung_nodes.dt))
        real_init(rung, rung_nodes, *args)

    monkeypatch.setattr(rubberroll.integrate, "_half_nodes", counting_nodes)
    monkeypatch.setattr(rubberroll.integrate._Rung, "__init__", counting_init)
    clear_caches()
    reconstruct_trajectory(start, kappa, (0.0, 200.0), P_MAIN)
    n = _start_half_period(start, kappa, P_MAIN)[1].n
    above = sorted(m for m in nodes if m > n)
    assert above and above == sorted(set(above)), nodes
    assert max(map(nodes.count, nodes)) == 2, nodes
    assert sorted(m for m in records if m > n) == above, records


def test_a_kappa_start_past_the_pole_margin_is_refused():
    for theta0 in (-0.5, 0.0, 5e-7, math.pi, 3.5):
        with pytest.raises(ValueError, match="pole margin"):
            reconstruct_trajectory((theta0, 0.0), 0.8, (0.0, 1.0), P_MAIN)


def test_the_period_map_check_reads_the_stepper_not_the_period_route(monkeypatch):
    # every period map, and the route's orbit with it, drifts 1e-6 too far:
    # a check against the period route would follow it and pass
    real = rubberroll.integrate._Rung.__init__

    def stretched(rung, *args):
        real(rung, *args)
        s = 1.0 + 1e-6
        rung.D, rung.X_z, rung.C, rung.q_near = (x * s for x in
                                                 (rung.D, rung.X_z, rung.C, rung.q_near))

    monkeypatch.setattr(rubberroll.integrate._Rung, "__init__", stretched)
    pm = rubberroll.integrate.period_map(0.5, 3.5, P_MAIN)
    lo = _component(0.5, 3.5, P_MAIN, 0)[2][0]
    path = reconstruct_trajectory((lo, 0.0), 0.5, (0.0, pm.T), P_MAIN,
                                  t_eval=np.array([0.0, pm.T]))
    assert abs(complex(path.x_c[1], path.y_c[1]) - pm.D) <= 1e-9
    record = checks.period_map_drift(P_MAIN, np.random.default_rng(0), True, "derived")
    assert not record.ok
