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

A full-style ``simulate`` start (omega, gamma) takes the same route from the
state's reduction; its oracle is the kinematic system
(``reconstruct_from_full``), on the same ladder and with the same bounds.
"""

import importlib.util
import logging
import math
from pathlib import Path

import numpy as np
import pytest

import rubberroll.integrate
from rubberroll import checks
from rubberroll.bifurcation import permanent_rotation
from rubberroll.cli import main
from rubberroll.dynamics import (FullState, ReducedState, component_intervals, critical_points,
                                 critical_thetas, effective_potential, lift, reduce_state,
                                 reduced_energy)
from rubberroll.geometry import profile
from rubberroll.integrate import _component, _ladder, half_period
from rubberroll.model import Params
from rubberroll.reconstruct import _stepped_path, reconstruct_from_full, reconstruct_trajectory

from conftest import clear_caches
from test_cli import SWEEP, read_csv

P_MAIN = Params(0.5, 3.0, 0.5, 0.5)
P_ROUND = Params(0.5, 3.0, 1.0, 1.0)
COLUMNS = ("theta", "p_theta", "psi", "phi", "x_c", "y_c", "z_c", "x_p", "y_p")
SEEDS = ("psi0", "phi0", "x0", "y0")


def _tolerance_ladder(start, kappa, p, t):
    return _ladder_of(lambda a, r: _stepped_path(start, kappa, (0.0, float(t[-1])), p, a, r, t))


def _ladder_of(run):
    """(reference, bars) of the oracle run(tol_abs, tol_rel) -> AbsolutePath."""
    runs = [run(0.05 * r, r) for r in (1e-12, 1e-13, 2.3e-14)]
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


PHYSICAL = ("x_c", "y_c", "z_c", "x_p", "y_p")


def _full_rows(state, p, tmax, n, tmp_path):
    """The simulate CSV of the full state over [0, tmax], n rows, as columns."""
    out = tmp_path / "full.csv"
    body = ["--alpha", repr(p.alpha), "--beta", repr(p.beta), "--nu", repr(p.nu),
            "--eta", repr(p.eta)]
    assert main(["simulate", *body, "--omega=" + ",".join(map(repr, state.omega.tolist())),
                 "--gamma=" + ",".join(map(repr, state.gamma.tolist())), "--tmax", repr(tmax),
                 "--samples", str(n), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    return dict(zip(header, np.array(rows, dtype=float).T))


def _check_full(state, p, tmax, tmp_path, n=301, exact=True):
    """The simulate rows of a full state against the kinematic ladder; at
    kappa = 0 the physical columns only, as the route's extended chart
    reads theta, psi and phi otherwise.  Where exact, the first row is the
    kinematic read of the start within 1e-15, and no column lies farther
    from its reference than the kinematic stepper at the default
    tolerances."""
    rows = _full_rows(state, p, tmax, n, tmp_path)
    t = rows["t"]
    ref, bars = _ladder_of(lambda a, r: reconstruct_from_full(state, (0.0, tmax), p, tol_abs=a,
                                                              tol_rel=r, t_eval=t))
    stepper = reconstruct_from_full(state, (0.0, tmax), p, t_eval=t)
    r = reduce_state(state, p)
    err, T = _quadrature_err((r.theta, r.p_theta), r.kappa, p)
    assert (rows["F1_drift"] == 0.0).all()
    for c in COLUMNS if r.kappa != 0.0 else PHYSICAL:
        assert not exact or abs(rows[c][0] - getattr(ref, c)[0]) <= 1e-15, c
        gap = np.abs(rows[c] - getattr(ref, c))
        assert (gap <= np.maximum(err * np.maximum(1.0, t / T), bars[c])).all(), \
            (c, gap.max(), err, bars[c])
        assert not exact or gap.max() <= np.abs(getattr(stepper, c) - getattr(ref, c)).max(), c
    return rows


def _perfbench(name):
    """The module perfbench/<name>.py of the benchmark, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _orbit_full_starts(batches=3):
    """The full-style starts of the benchmark's orbits workload at seed 7,
    from its first batches as the benchmark draws them."""
    rng = _perfbench("run").streams(7)[0]
    orbits = _perfbench("workloads").Orbits()
    ops = [op for i in range(batches) for op in orbits.batch(rng, i, Path("orbit.csv"))]
    flags = [dict(a[2:].split("=") for a in op["argv"] if a.startswith(("--omega=", "--gamma=")))
             for op in ops if op["kind"] == "full"]
    return [FullState(omega=np.array([float(v) for v in f["omega"].split(",")]),
                      gamma=np.array([float(v) for v in f["gamma"].split(",")])) for f in flags]


@pytest.mark.parametrize("state", _orbit_full_starts())
def test_the_orbits_full_starts_match_the_kinematic_ladder(state, tmp_path):
    _check_full(state, P_MAIN, 200.0, tmp_path, 2001)


@pytest.mark.parametrize("alpha, beta", SWEEP)
def test_the_sweep_bodies_full_starts_match_the_kinematic_ladder(alpha, beta, tmp_path):
    p = Params(alpha, beta, 1.0, 1.0)
    _check_full(lift(ReducedState(1.1, 0.3), 0.7, 0.4, p), p, 30.0, tmp_path)


@pytest.mark.parametrize("omega", [(0.2, 0.0, 0.0), (1.5, 0.0, 0.0)],
                         ids=["crossing", "circuit"])
def test_kappa_zero_full_starts_match_the_kinematic_ladder(omega, tmp_path):
    # theta runs on the extended chart through the pole, where the kinematic
    # read folds it into [0, pi] and turns psi and phi by pi; the route
    # keeps psi and phi at their start
    state = FullState(omega=np.array(omega), gamma=np.array([0.0, 0.6, 0.8]))
    rows = _check_full(state, P_MAIN, 200.0, tmp_path, 2001)
    assert (rows["psi"] == rows["psi"][0]).all() and (rows["phi"] == 0.0).all()
    assert rows["theta"].min() < 0.0 if omega[0] < 1.0 else rows["theta"].max() > 2.0 * math.pi


@pytest.mark.parametrize("omega", [(0.0, 1.0, 0.0), (0.3, -0.7, 0.0)])
@pytest.mark.parametrize("gamma3", [1.0, -1.0], ids=["north", "south"])
def test_a_full_start_at_a_pole_matches_the_kinematic_ladder(omega, gamma3, tmp_path):
    # gamma fixes no phi at a pole: the start takes the meridian omega tips
    # gamma along, so that no horizontal component of omega is lost.  Not
    # exact: the kinematic read keeps exactly 0 what a vertical gamma, or
    # omega along a body axis, leaves at 0, where the route's angles round
    # (sin(pi) is 1.2e-16 in floating point)
    state = FullState(omega=np.array(omega), gamma=np.array([0.0, 0.0, gamma3]))
    rows = _check_full(state, P_MAIN, 60.0, tmp_path, 601, exact=False)
    assert rows["p_theta"][0] == math.hypot(*omega)


@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_a_full_start_next_to_a_saddle_level_matches_the_kinematic_ladder(delta, tmp_path):
    kappa = 0.5
    eps = effective_potential(critical_thetas(kappa, P_MAIN)[1], kappa, P_MAIN) + delta
    lo, hi = component_intervals(kappa, eps, P_MAIN)[0]
    th = lo + 0.3 * (hi - lo)
    pt = math.sqrt(2.0 * (eps - effective_potential(th, kappa, P_MAIN)) / profile(th, P_MAIN).B)
    _check_full(lift(ReducedState(th, pt), kappa, 0.7, P_MAIN), P_MAIN, 60.0, tmp_path, 601)


def test_a_relative_equilibrium_full_start_steps_and_matches_the_kinematic_ladder(
        tmp_path, caplog):
    theta0 = math.pi / 3.0
    state = lift(ReducedState(theta0, 0.0), permanent_rotation(theta0, P_ROUND).kappa, 0.4,
                 P_ROUND)
    t = np.linspace(0.0, 30.0, 301)
    with caplog.at_level(logging.INFO, logger="rubberroll.reconstruct"):
        rows = _full_rows(state, P_ROUND, 30.0, 301, tmp_path)
    assert "DOP853 stepper, as the start is a relative equilibrium" in caplog.text
    ref, bars = _ladder_of(lambda a, r: reconstruct_from_full(state, (0.0, 30.0), P_ROUND,
                                                              tol_abs=a, tol_rel=r, t_eval=t))
    stepper = reconstruct_from_full(state, (0.0, 30.0), P_ROUND, t_eval=t)
    for c in COLUMNS:
        gap = np.abs(rows[c] - getattr(ref, c))
        assert gap.max() <= max(bars[c], np.abs(getattr(stepper, c) - getattr(ref, c)).max()), c
