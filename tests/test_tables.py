"""The level-free tables of the level engine, against what they replaced.

``critical_points`` finds the critical angles of a kappa slice on one
table per body: the steady-rotation curve kappa^2 = K(theta), cut into
monotone arcs at its folds.  Its roots must be the ones the per-slice scan
of G0 found, and K the steady-rotation closed form, bit for bit.  The
quadrature ladder reads one table per rung size: du, u, cos u and sin u,
the FFT frequencies and the half-node shifts.  Every number must be the
one the per-call arithmetic gave, bit for bit, and no caller may write
into a shared array.
"""

import math
import warnings

import numpy as np
import pytest

import rubberroll.integrate
from rubberroll.bifurcation import _sigma_theta, cusp, sigma_theta_kappa_sq
from rubberroll.brent import brentq, newton_bracketed
from rubberroll.dynamics import (
    _arc_table,
    check_turning_point,
    component_intervals,
    critical_points,
    critical_thetas,
    effective_potential,
    g0,
    g0_prime,
    potential_grid,
)
from rubberroll.integrate import (
    _component,
    _half_nodes,
    _node_table,
    period_map,
)
from rubberroll.model import Params
from rubberroll.reconstruct import rotation_number

from conftest import clear_caches

P_MAIN = Params(0.5, 3.0, 0.5, 0.5)
# regions a-e of the diagram, the ends alpha = 0 and 1, beta = 1, the
# sphere and the region boundaries beta^2 = 1 -/+ alpha
SWEEP_BODIES = {
    "a": Params(0.5, 0.5, 1.0, 1.0),
    "b": Params(0.5, 1.0, 0.7, 2.0),
    "c": P_MAIN,
    "d": Params(0.0, 0.7, 1.5, 0.8),
    "e": Params(0.0, 1.5, 1.0, 1.0),
    "alpha1": Params(1.0, 2.0, 0.5, 1.5),
    "alpha1_oblate": Params(1.0, 0.7, 1.0, 1.0),
    "beta1": Params(0.3, 1.0, 2.0, 1.0),
    "sphere": Params(0.0, 1.0, 1.0, 1.0),
    "minus": Params(0.5, math.sqrt(0.5), 1.0, 1.0),
    "plus": Params(0.5, math.sqrt(1.5), 1.0, 1.0),
}


def sign_cells(vals):
    """Grid cells [i, i + 1] that bracket a root: vals[i] == 0 or a sign change."""
    head, tail = vals[:-1], vals[1:]
    return np.flatnonzero((head == 0.0) | (head * tail < 0.0)).tolist()


def _potential_grid_scan(kappa, p):
    """(grid, G0, G0') of the scan at kappa != 0 as it was before the body
    tables: every kappa slice evaluates potential_grid on the whole grid."""
    grid = np.linspace(1e-6, math.pi - 1e-6, 800)
    _, vals, slope = potential_grid(grid, kappa, p)
    if vals[0] < 0.0 or vals[-1] > 0.0:
        C = p.alpha + abs(1.0 - p.beta * p.beta) / min(1.0, p.beta)
        th_e = 0.5 * math.sqrt(abs(kappa) / math.sqrt(C))
        grid = np.concatenate(([th_e] if vals[0] < 0.0 else [], grid,
                               [math.pi - th_e] if vals[-1] > 0.0 else []))
        _, vals, slope = potential_grid(grid, kappa, p)
    return grid, vals, slope


def _newton(f_df, a, b, fa, fb, xtol, x0):
    return newton_bracketed(f_df, a, b, fa, fb, xtol=xtol, x0=x0)


def _brentq_tenth(f_df, a, b, fa, fb, xtol, x0):
    """brentq on the value alone, to a tenth of the scan's tolerance."""
    return brentq(lambda th: f_df(th)[0], a, b, xtol=0.1 * xtol)


def _potential_grid_roots(kappa, p, polish=_newton):
    """The roots critical_thetas found on that scan, each sign cell and
    each half of a close pair polished by Newton on G0 and G0' from the
    scan's tangent at the cell's end nearer the root (or by ``polish``)."""
    f = lambda th: g0(th, kappa, p)
    f_df = lambda th: (g0(th, kappa, p), g0_prime(th, kappa, p))
    if kappa == 0.0:
        lo, hi = 1e-9, math.pi - 1e-9
        flo, fhi = f(lo), f(hi)
        if flo == fhi == 0.0:
            return []   # G0 vanishes everywhere: the centered sphere
        if flo == 0.0:
            return [lo]
        if fhi == 0.0:
            return [hi]
        if flo * fhi > 0.0:
            return []
        return [polish(f_df, lo, hi, flo, fhi, 1e-14, None)]

    eps_edge = 1e-6
    grid, vals, slope = _potential_grid_scan(kappa, p)

    def tangent(j):
        return float(grid[j] - vals[j] / slope[j]) if slope[j] != 0.0 else None

    roots = []
    for i in sign_cells(vals):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        else:
            xtol = 1e-14 * grid[i] if grid[i] < eps_edge else 1e-14
            j = i if abs(vals[i]) < abs(vals[i + 1]) else i + 1
            roots.append(polish(f_df, float(grid[i]), float(grid[i + 1]), vals[i], vals[i + 1],
                                xtol, tangent(j)))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    for i in sign_cells(slope):
        a, b = float(grid[i]), float(grid[i + 1])
        ga, gb = vals[i], vals[i + 1]
        if (ga * gb <= 0.0 or abs(ga) > 2.0 * (b - a) * abs(slope[i])
                or abs(gb) > 2.0 * (b - a) * abs(slope[i + 1])):
            continue
        xtol = 1e-14 * a if a < eps_edge else 1e-14
        m = brentq(lambda th: g0_prime(th, kappa, p), a, b, xtol=xtol)
        gm = f(m)
        if gm * ga < 0.0:
            roots += [polish(f_df, a, m, ga, gm, xtol, tangent(i)),
                      polish(f_df, m, b, gm, gb, xtol, tangent(i + 1))]
    return sorted(roots)


def _sweep_kappas(p, rng):
    """|kappa| log-uniform from 1e-13 (the near-pole re-grid) to twice the
    cusp's kappa (or 3), with both signs, plus the ends themselves."""
    c = cusp(p)
    top = 2.0 * c.kappa if c is not None else 3.0
    mags = [1e-13, 1e-7, top] + (10.0 ** rng.uniform(-13.0, math.log10(top), 14)).tolist()
    if c is not None:
        mags += [c.kappa * (1.0 - 1e-6), c.kappa * (1.0 + 1e-6)]
    return [0.0] + [s * m for m in mags for s in (1.0, -1.0)]


def _fine_scan_roots(kappa, p, polish):
    """The roots of G0 on a 400 001-node scan, each sign cell polished."""
    f_df = lambda th: (g0(th, kappa, p), g0_prime(th, kappa, p))
    grid = np.linspace(1e-6, math.pi - 1e-6, 400_001)
    vals = potential_grid(grid, kappa, p)[1]
    return [polish(f_df, float(grid[i]), float(grid[i + 1]), vals[i], vals[i + 1], 1e-14, None)
            for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)]


def _reference_roots(kappa, p, polish):
    """The per-slice scan's roots, or at alpha = 0 within 1e-5 of the
    tangency the fine scan's: the three roots there share one cell of the
    800-node scan, which sees one."""
    c = cusp(p)
    if p.alpha == 0.0 and c is not None and abs(abs(kappa) / c.kappa - 1.0) <= 1e-5:
        return _fine_scan_roots(kappa, p, polish)
    return _potential_grid_roots(kappa, p, polish)


def _assert_within_the_tolerance(got, ref, kappa, p, where):
    # the Newton roots lie within the tolerance and 4 ulp of the brentq
    # roots.  Next to a fold G0' is small at the root, and the rounding of
    # G0's largest term (4 ulp of it) moves the root by that over |G0'| too
    assert len(got) == len(ref), where
    for th, rth in zip(got, ref):
        xtol = 1e-14 * rth if rth < 1e-6 else 1e-14
        term = p.alpha + abs(1.0 - p.beta ** 2) + kappa ** 2 / math.sin(rth) ** 3
        rounding = 4.0 * math.ulp(term) / abs(g0_prime(rth, kappa, p))
        assert abs(th - rth) <= xtol + 4 * math.ulp(rth) + rounding, (*where, th, rth)


@pytest.mark.parametrize("name", sorted(SWEEP_BODIES))
def test_critical_points_equal_the_per_slice_scan(name):
    # the same roots as the scan's Newton polish, to the tolerance, with the
    # level and G0' of each the scalar functions' at the returned angle
    p = SWEEP_BODIES[name]
    rng = np.random.default_rng(18)
    for kappa in _sweep_kappas(p, rng):
        cp = critical_points(kappa, p)
        _assert_within_the_tolerance(cp.thetas, _reference_roots(kappa, p, _newton), kappa, p,
                                     (name, kappa))
        assert cp.levels == tuple(effective_potential(th, kappa, p) for th in cp.thetas), (name, kappa)
        assert cp.dg0 == tuple(g0_prime(th, kappa, p) for th in cp.thetas), (name, kappa)


@pytest.mark.parametrize("name", sorted(SWEEP_BODIES))
def test_critical_points_are_brentqs_roots_to_the_tolerance(name):
    # the same cells polished by brentq to a tenth of the tolerance
    p = SWEEP_BODIES[name]
    rng = np.random.default_rng(18)
    for kappa in _sweep_kappas(p, rng):
        _assert_within_the_tolerance(critical_points(kappa, p).thetas,
                                     _reference_roots(kappa, p, _brentq_tenth), kappa, p,
                                     (name, kappa))


@pytest.mark.parametrize("name", sorted(SWEEP_BODIES))
def test_the_arc_tables_K_is_the_steady_rotation_curve_bit_for_bit(name):
    # K at every node, the folds included, is sigma_theta_kappa_sq's, or at
    # the two nodes next to the equator, where that raises for alpha != 0,
    # the closed form's; K is monotone on every arc (constant on the
    # sphere's), and the arcs meet at the folds, each a node
    p = SWEEP_BODIES[name]
    theta, K, arcs, folds = _arc_table(p)
    for th, k in zip(theta.tolist(), K.tolist()):
        if p.alpha != 0.0 and abs(math.cos(th)) < 1e-15:
            assert k == _sigma_theta(math.sin(th), math.cos(th), p)[0], (name, th)
        else:
            assert k == sigma_theta_kappa_sq(th, p), (name, th)
    for i0, i1 in arcs:
        steps = np.diff(K[i0:i1 + 1])
        assert np.all(steps >= 0.0) or np.all(steps <= 0.0), (name, i0, i1)
    inner = [theta[i1] for (_, i1), (j0, _) in zip(arcs, arcs[1:]) if i1 == j0]
    assert inner == list(folds), name
    assert arcs[0][0] == 0 and arcs[-1][1] == len(theta) - 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_raise_and_name_the_argument(bad):
    with pytest.raises(ValueError, match="kappa"):
        critical_points(bad, P_MAIN)
    with pytest.raises(ValueError, match="kappa"):
        critical_thetas(bad, P_MAIN)
    with pytest.raises(ValueError, match="kappa"):
        component_intervals(bad, 3.5, P_MAIN)
    with pytest.raises(ValueError, match="eps"):
        component_intervals(0.5, bad, P_MAIN)
    with pytest.raises(ValueError, match="eps"):
        rotation_number(0.5, bad, P_MAIN)


@pytest.mark.parametrize("kappa", [1e-200, -1e-200, 1e-162])
def test_a_near_pole_node_whose_sin4_underflows_raises(kappa):
    # the near-pole node lies at about 0.5 sqrt(|kappa|), whose sin^4 is 0
    # in floats; G0' there would be 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too small.*use kappa = 0"):
            critical_thetas(kappa, P_MAIN)
        with pytest.raises(ValueError, match="too small.*use kappa = 0"):
            component_intervals(kappa, 3.5, P_MAIN)


def test_a_near_pi_root_within_the_float_spacing_raises():
    # the node beyond the near-pi root lies about 0.5 sqrt(|kappa|) / C^(1/4)
    # from pi and rounds onto pi below |kappa| ~ 1e-31, where the root came
    # back as pi itself (1e-31) or was left out (1e-40, and 1e-155, where
    # the node next to the pole 0 has a subnormal sin^4)
    for kappa in (1e-29, 1e-30):
        crit = critical_thetas(kappa, P_MAIN)
        assert len(crit) == 3 and max(crit) < math.pi, kappa
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kappa in (1e-31, -1e-40, 1e-155):
            with pytest.raises(ValueError, match="too small.*use kappa = 0"):
                critical_thetas(kappa, P_MAIN)


def test_a_wall_node_that_rounds_to_pi_raises():
    # the upper wall node pi - th_w lies about |kappa| / 5.3 from pi at
    # eps = 3.5 and rounds to pi below |kappa| ~ 1e-15, where the wall
    # would come back as the pole itself
    ((lo, hi),) = component_intervals(1e-12, 3.5, P_MAIN)
    assert hi < math.pi
    check_turning_point(hi, 1e-12, 3.5, P_MAIN)
    for kappa in (1e-16, -1e-16, 1e-20):
        with pytest.raises(ValueError, match="too small.*use kappa = 0"):
            component_intervals(kappa, 3.5, P_MAIN)
        with pytest.raises(ValueError, match="too small.*use kappa = 0"):
            rotation_number(kappa, 3.5, P_MAIN)


def test_a_wall_lost_to_a_large_eps_names_kappa_and_eps():
    # at eps = 1e300 the wall lies below 1e-30 with |kappa| = 0.5: the error
    # names both, and blames neither alone
    for observable in (component_intervals, rotation_number):
        with pytest.raises(ValueError, match=r"\|kappa\|=0\.5 at eps=1e\+300 .*too small or "
                                             r"eps too large\); use kappa = 0 or a smaller eps"):
            observable(0.5, 1e300, P_MAIN)


def _tables():
    return list(_arc_table(P_MAIN)[:2]) + [
        a for n in (16, 32, 1024) for a in _node_table(n) if isinstance(a, np.ndarray)]


def test_shared_arrays_are_read_only():
    tables = _tables()
    assert len(tables) == 2 + 3 * 6
    for a in tables:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_both_caches_are_bounded_and_cleared_by_clear_caches():
    for cached, args in ((_arc_table, [Params(0.5, 3.0, 0.5, 0.5 + 0.1 * i) for i in range(40)]),
                         (_node_table, [16 * i for i in range(1, 41)])):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and maxsize < len(args)
        for a in args:
            cached(a)
        assert cached.cache_info().currsize == maxsize
    clear_caches()
    assert _arc_table.cache_info().currsize == 0
    assert _node_table.cache_info().currsize == 0


def test_two_bodies_read_in_turns_get_their_own_roots():
    bodies = [SWEEP_BODIES["a"], SWEEP_BODIES["c"], SWEEP_BODIES["e"]]
    kappas = [0.3, -0.7, 1e-13, 1.2]
    cold = {}
    for p in bodies:
        for kappa in kappas:
            clear_caches()
            cold[p, kappa] = critical_points(kappa, p)
    clear_caches()
    for kappa in kappas:
        for p in bodies + bodies[::-1]:
            assert critical_points(kappa, p) == cold[p, kappa], (p, kappa)


def _fresh_node_table(n):
    """What the ladder computed on each call before the node tables:
    writable arrays, spelled as it spelled them, with the nodes of the rungs
    that share a pass with n (16, 32 and 64 nodes, or 32 and 64) after n's."""
    du = math.pi / n
    rungs = {16: (16, 32, 64), 32: (32, 64)}.get(n, (n,))
    u = np.concatenate([(np.arange(m) + 0.5) * (math.pi / m) for m in rungs])
    M = 2 * n
    k = np.fft.fftfreq(M, 1.0 / M)
    k_div = np.fft.fftfreq(M, 1.0 / M)
    k_div[0] = 1.0
    return du, u, np.cos(u), np.sin(u), k, k_div, np.exp(-0.5j * du * k), rungs


def _levels():
    """A libration at kappa != 0, a pole-crossing and a circulating kappa = 0
    level of P_MAIN, as (kappa, eps, lo, hi, circuit)."""
    out = []
    for kappa, eps in ((0.5, 3.3), (0.0, 2.0), (0.0, 3.5)):
        lo, hi, circuit = _component(kappa, eps, P_MAIN, 0)[2]
        out.append((kappa, eps, lo, hi, circuit))
    return out


def test_node_tables_equal_a_recomputation_bit_for_bit():
    for n in (16, 32, 64, 2 ** 14):
        got, ref = _node_table(n), _fresh_node_table(n)
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert type(a) is type(b)
            assert np.array_equal(a, b) and np.shape(a) == np.shape(b)


def _node_fields(nodes):
    return [nodes.du, nodes.dth, nodes.dt, nodes.dpsi, nodes.spin, nodes.U, nodes.rel,
            *nodes.terms]


def test_half_nodes_and_period_map_on_the_tables_equal_a_recomputation(monkeypatch):
    got, got_pm = {}, {}
    for kappa, eps, lo, hi, circuit in _levels():
        for n in (16, 128, 1024):
            (nodes,) = _half_nodes(kappa, eps, P_MAIN, lo, hi, circuit, None, (n,))
            got[kappa, eps, n] = _node_fields(nodes)
        got_pm[kappa, eps] = period_map(kappa, eps, P_MAIN)
    clear_caches()
    monkeypatch.setattr(rubberroll.integrate, "_node_table", _fresh_node_table)
    for kappa, eps, lo, hi, circuit in _levels():
        for n in (16, 128, 1024):
            ref = _node_fields(_half_nodes(kappa, eps, P_MAIN, lo, hi, circuit, None, (n,))[0])
            for a, b in zip(got[kappa, eps, n], ref):
                assert (a is None and b is None) or np.array_equal(a, b), (kappa, eps, n)
        pm, ref_pm = got_pm[kappa, eps], period_map(kappa, eps, P_MAIN)
        assert (pm.T, pm.dpsi, pm.D, pm.err) == (ref_pm.T, ref_pm.dpsi, ref_pm.D, ref_pm.err)
        assert np.array_equal(pm.z, ref_pm.z)
