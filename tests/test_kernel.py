"""The array kernel and the grid scans built on it, against the scalar path.

The ``_scalar_*`` functions are the point-by-point scans the array kernel
replaced, kept verbatim as oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

import rubberroll.dynamics
from rubberroll.bifurcation import cusp, equator_kappa_c, rpm_floor
from rubberroll.dynamics import (
    check_turning_point,
    component_intervals,
    critical_points,
    critical_thetas,
    effective_potential,
    g0,
    g0_prime,
    potential_grid,
)
from rubberroll.model import Params

from conftest import clear_caches

# one body per diagram region a-e
REGION_BODIES = {
    "a": Params(0.5, 0.5, 1.0, 1.0),
    "b": Params(0.5, 1.0, 0.7, 2.0),
    "c": Params(0.5, 3.0, 0.5, 0.5),
    "d": Params(0.0, 0.7, 1.5, 0.8),
    "e": Params(0.0, 1.5, 1.0, 1.0),
}


def _scalar_critical_thetas(kappa, p, n_grid=800):
    if kappa == 0.0:
        b2 = p.beta * p.beta

        def fac(th):
            c = math.cos(th)
            Z = math.sqrt(b2 * (1.0 - c * c) + c * c)
            return p.alpha + (1.0 - b2) * c / Z

        lo, hi = 1e-9, math.pi - 1e-9
        flo, fhi = fac(lo), fac(hi)
        if flo == 0.0:
            return [lo]
        if fhi == 0.0:
            return [hi]
        if flo * fhi > 0.0:
            return []
        return [brentq(fac, lo, hi, xtol=1e-14, rtol=8.9e-16)]

    f = lambda th: g0(th, kappa, p)
    eps_edge = 1e-6
    grid = np.linspace(eps_edge, math.pi - eps_edge, n_grid)
    vals = np.array([f(t) for t in grid])
    roots = []
    for i in range(n_grid - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(grid[i]))
        elif a * b < 0.0:
            roots.append(brentq(f, float(grid[i]), float(grid[i + 1]), xtol=1e-14, rtol=8.9e-16))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return sorted(roots)


def _scalar_component_intervals(kappa, eps, p, n_grid=2000, tol_fp=1e-10):
    V = lambda th: effective_potential(th, kappa, p)
    crit = _scalar_critical_thetas(kappa, p)
    if kappa == 0.0:
        lo_edge, hi_edge = 0.0, math.pi
    else:
        lo_edge, hi_edge = 1e-6, math.pi - 1e-6
    grid = sorted(set(np.linspace(lo_edge, hi_edge, n_grid).tolist() + crit))
    vals = [V(t) - eps for t in grid]
    scale = max(1.0, abs(eps))
    intervals = []
    # only a minimum of V (G0' <= 0) on the level is a rest state
    degen = [tc for tc in crit + ([0.0, math.pi] if kappa == 0.0 else [])
             if g0_prime(tc, kappa, p) <= 0.0 and abs(V(tc) - eps) <= tol_fp * scale]
    breaks = [grid[0], grid[-1]]
    for i in range(len(grid) - 1):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0:
            breaks.append(grid[i])
        elif va * vb < 0.0:
            breaks.append(
                brentq(lambda th: V(th) - eps, grid[i], grid[i + 1], xtol=1e-14, rtol=8.9e-16)
            )
    breaks = sorted(set(breaks))
    for u, v in zip(breaks[:-1], breaks[1:]):
        if V(0.5 * (u + v)) - eps < 0.0:
            if intervals and intervals[-1][1] == u:
                intervals[-1] = (intervals[-1][0], v)
            else:
                intervals.append((u, v))
    for tc in degen:
        if not any(lo - 1e-9 <= tc <= hi + 1e-9 for lo, hi in intervals):
            intervals.append((tc, tc))
    intervals.sort()
    return intervals


def _scalar_rpm_floor(kappa, p):
    n = 721
    if kappa == 0.0:
        grid = np.linspace(0.0, math.pi, n)
    else:
        barrier = max(1e-6, abs(kappa) * 1e-3)
        grid = np.linspace(barrier, math.pi - barrier, n)
    vals = [effective_potential(float(t), kappa, p) for t in grid]
    i = int(np.argmin(vals))
    lo = grid[max(0, i - 1)]
    hi = grid[min(n - 1, i + 1)]
    if hi - lo < 1e-15:
        return float(vals[i])
    res = minimize_scalar(
        lambda t: effective_potential(float(t), kappa, p),
        bounds=(float(lo), float(hi)), method="bounded",
        options={"xatol": 1e-13},
    )
    return float(min(res.fun, vals[i]))


@st.composite
def bodies(draw):
    """Bodies with weight on the documented limits: alpha in {0, 1},
    beta = 1, nu = 2 and the region boundaries beta^2 = 1 +/- alpha."""
    alpha = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    beta_choices = [1.0, math.sqrt(1.0 + alpha)]
    if alpha < 1.0:
        beta_choices.append(math.sqrt(1.0 - alpha))
    beta = draw(st.sampled_from(beta_choices) | st.floats(0.2, 4.0))
    nu = draw(st.just(2.0) | st.floats(0.1, 2.0))
    eta = draw(st.floats(0.1, 5.0))
    return Params(alpha, beta, nu, eta)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    p=bodies(),
    kappa=st.just(0.0) | st.floats(-3.0, 3.0),
    thetas=st.lists(st.floats(1e-6, math.pi - 1e-6), min_size=1, max_size=40),
)
def test_kernel_matches_scalar_to_2ulp(p, kappa, thetas):
    if kappa == 0.0:
        # the meridian chart: the poles themselves are valid points
        thetas = thetas + [0.0, math.pi]
    th = np.array(thetas)
    V, G, dG = potential_grid(th, kappa, p)
    np.testing.assert_array_max_ulp(V, [effective_potential(t, kappa, p) for t in thetas], maxulp=2)
    np.testing.assert_array_max_ulp(G, [g0(t, kappa, p) for t in thetas], maxulp=2)
    np.testing.assert_array_max_ulp(dG, [g0_prime(t, kappa, p) for t in thetas], maxulp=2)


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(b))


@pytest.mark.parametrize("region", sorted(REGION_BODIES))
def test_scans_match_scalar_oracles(region):
    p = REGION_BODIES[region]
    for kappa in (0.0, 0.05, -0.3, 0.8, 1.7):
        floor = rpm_floor(kappa, p)
        assert _close(floor, _scalar_rpm_floor(kappa, p))
        crit = critical_thetas(kappa, p)
        ref = _scalar_critical_thetas(kappa, p)
        assert len(crit) == len(ref)
        assert all(_close(a, b) for a, b in zip(crit, ref))
        levels = [effective_potential(t, kappa, p) for t in crit]
        for eps in [floor + 0.01, floor + 0.4, floor + 2.5] + [lv + 1e-3 for lv in levels]:
            ivs = component_intervals(kappa, eps, p)
            ref_ivs = _scalar_component_intervals(kappa, eps, p)
            assert len(ivs) == len(ref_ivs), (kappa, eps)
            for (lo, hi), (rlo, rhi) in zip(ivs, ref_ivs):
                assert _close(lo, rlo) and _close(hi, rhi), (kappa, eps)


@pytest.mark.parametrize("kappa", [1e-13, -1e-13])
def test_tiny_kappa_keeps_the_near_pole_equilibria(kappa):
    # region c: both poles are height minima, so each holds a stable
    # relative equilibrium where kappa^2 / sin^4 balances the height
    # curvature, here about 1.9e-7 from the pole, inside the 1e-6 scan clip
    p = REGION_BODIES["c"]
    b2 = p.beta * p.beta
    crit = critical_thetas(kappa, p)
    assert len(crit) == 3
    np.testing.assert_allclose(crit[0], (kappa ** 2 / (b2 - 1.0 - p.alpha)) ** 0.25, rtol=1e-6)
    np.testing.assert_allclose(math.pi - crit[-1],
                               (kappa ** 2 / (b2 - 1.0 + p.alpha)) ** 0.25, rtol=1e-6)
    assert g0_prime(crit[0], kappa, p) < 0.0 and g0_prime(crit[-1], kappa, p) < 0.0


# a body with a fold of its steady-rotation curve
FOLD_BODY = Params(0.3, 1.5, 1.0, 1.0)
# the oracle test's bodies: regions a-e, the off-center sphere and the fold body
ORACLE_BODIES = list(REGION_BODIES.values()) + [Params(0.3, 1.0, 2.0, 1.0), FOLD_BODY]
CLIP = 1e-6  # the oracle's level scan stops this far from each pole at kappa != 0


def test_level_sets_match_the_scalar_oracle_next_to_critical_levels():
    # levels within 1e-12 .. 1e-6 of a critical level, where the turning
    # points are worst conditioned, plus seeded levels above the floor.
    # An endpoint may move by the root solve's resolution plus what 16 ulps
    # of V - eps move a root by, 16 ulp / |V'| = 16 ulp / |G0|.
    rng = np.random.default_rng(13)
    n_levels = 0
    for p in ORACLE_BODIES:
        for kappa in [0.0, 1e-7, -1e-5] + rng.uniform(-2.0, 2.0, 2).tolist():
            levels = [effective_potential(t, kappa, p) for t in critical_thetas(kappa, p)]
            if kappa == 0.0:
                levels += [effective_potential(0.0, 0.0, p), effective_potential(math.pi, 0.0, p)]
            epss = (rpm_floor(kappa, p) + rng.uniform(0.0, 3.0, 3)).tolist()
            epss += [lv + s * d for lv in levels for d in (1e-12, 1e-9, 1e-6) for s in (-1.0, 1.0)]
            for eps in epss:
                n_levels += 1
                ivs = component_intervals(kappa, eps, p)
                ref_ivs = _scalar_component_intervals(kappa, eps, p)
                assert len(ivs) == len(ref_ivs), (p, kappa, eps)
                ulps = 16.0 * math.ulp(max(1.0, abs(eps)))
                for got, ref in zip(ivs, ref_ivs):
                    for th, rth in zip(got, ref):
                        if kappa != 0.0 and rth in (CLIP, math.pi - CLIP):
                            # the oracle has no centrifugal wall and ends at
                            # its clip edge; the turning point lies beyond it
                            assert abs(th - math.pi / 2) > abs(rth - math.pi / 2)
                            check_turning_point(th, kappa, eps, p)
                            continue
                        slope = abs(g0(rth, kappa, p))
                        tol = 1e-13 + ulps / slope if slope > 0.0 else math.inf
                        assert abs(th - rth) <= tol, (p, kappa, eps, th, rth)
    assert n_levels > 400


def test_level_scan_evaluates_only_the_critical_nodes(monkeypatch):
    # V is monotone between critical points, so the level scan needs the two
    # chart edges, the critical thetas and at most two centrifugal-wall
    # nodes, and brackets each turning point between two neighbouring ones.
    # It evaluates no array: V at the critical thetas is the slice's, and so
    # is V at the chart edges of kappa = 0, the poles
    real_v = rubberroll.dynamics.effective_potential
    real_newton = rubberroll.dynamics.newton_bracketed
    for p in REGION_BODIES.values():
        for kappa in (0.0, 1e-7, -0.3, 1.7):
            crit = critical_thetas(kappa, p)
            floor = rpm_floor(kappa, p)
            edges = {0.0, math.pi} if kappa == 0.0 else {CLIP, math.pi - CLIP}
            for eps in (floor + 0.01, floor + 0.4, floor + 2.5):
                thetas, brackets = [], []

                def recording_v(theta, k, q):
                    thetas.append(theta)
                    return real_v(theta, k, q)

                def recording_newton(f, a, b, *args, **kwargs):
                    brackets.append((a, b))
                    return real_newton(f, a, b, *args, **kwargs)

                with monkeypatch.context() as m:
                    m.setattr(rubberroll.dynamics, "effective_potential", recording_v)
                    m.setattr(rubberroll.dynamics, "newton_bracketed", recording_newton)
                    m.setattr(rubberroll.dynamics, "potential_grid", None)
                    ivs = component_intervals(kappa, eps, p)
                assert kappa == 0.0 or edges <= set(thetas)
                walls = {x for ab in brackets for x in ab} - edges - set(crit)
                assert len(walls) <= 2 and all(min(edges) > w or w > max(edges) for w in walls)
                nodes = np.array(sorted(edges | set(crit) | walls))
                for a, b in brackets:
                    assert np.count_nonzero((nodes > a) & (nodes < b)) == 0, (p, kappa, eps)
                clear_caches()
                assert ivs == component_intervals(kappa, eps, p)


@pytest.mark.parametrize("k", [5, 6, 7])
def test_fold_pair_inside_one_scan_cell(k):
    # just short of the fold the center/saddle pair near theta = 0.97 is
    # closer than the 800-node scan's spacing (3.9e-3), so G0 keeps its sign
    # across the cell that holds both roots
    kappa = cusp(FOLD_BODY).kappa * (1.0 - 10.0 ** -k)
    grid = np.linspace(1e-6, math.pi - 1e-6, 200_001)
    vals = potential_grid(grid, kappa, FOLD_BODY)[1]
    ref = [brentq(g0, grid[i], grid[i + 1], args=(kappa, FOLD_BODY), xtol=1e-15, rtol=8.9e-16)
           for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)]
    crit = critical_thetas(kappa, FOLD_BODY)
    assert len(ref) == len(crit) == 3
    np.testing.assert_allclose(crit, ref, rtol=0.0, atol=1e-12)

    # the level between the pair's two levels holds the two-component wedge:
    # the center's own well and the main well beyond the saddle.  For k >= 6
    # the saddle is within the 1e-10 level tolerance of this level, but above
    # it, so it is no component of its own
    centre, saddle = crit[0], crit[1]
    eps = 0.5 * (effective_potential(centre, kappa, FOLD_BODY)
                 + effective_potential(saddle, kappa, FOLD_BODY))
    wells = component_intervals(kappa, eps, FOLD_BODY)
    assert len(wells) == 2
    assert wells[0][0] < centre < wells[0][1] < saddle < wells[1][0] < crit[2] < wells[1][1]


# balanced bodies whose equator rolling changes stability at equator_kappa_c
TANGENCY_BODIES = [REGION_BODIES["e"], Params(0.0, 2.0, 0.5, 1.5)]


@pytest.mark.parametrize("k", [6, 7, 8, 10])
@pytest.mark.parametrize("body", range(len(TANGENCY_BODIES)))
def test_tangency_triple_inside_one_scan_cell(body, k):
    # just below the tangency the equator is a saddle between two centers
    # 1.08e-3 (k = 6) to 1.08e-5 (k = 10) from it, all three inside one cell
    # of an 800-node scan, whose odd count of sign changes showed one root
    p = TANGENCY_BODIES[body]
    kappa = equator_kappa_c(p) * (1.0 - 10.0 ** -k)
    grid = np.linspace(1e-6, math.pi - 1e-6, 400_001)
    vals = potential_grid(grid, kappa, p)[1]
    ref = [brentq(g0, grid[i], grid[i + 1], args=(kappa, p), xtol=1e-15, rtol=8.9e-16)
           for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)]
    crit = critical_thetas(kappa, p)
    assert len(ref) == len(crit) == 3
    for th, rth in zip(crit, ref):
        # G0 = cos * (G0 / cos), whose terms are of order one: next to the
        # equator its rounding moves a root by 4 ulp over its slope G0' / cos
        term = abs(1.0 - p.beta ** 2) + kappa ** 2 / math.sin(rth) ** 3
        rounding = 4.0 * math.ulp(term) * abs(math.cos(rth) / g0_prime(rth, kappa, p))
        assert abs(th - rth) <= 1e-12 + rounding, (k, th, rth)

    # the equator is the one saddle; a level just below it holds the two
    # wells, one on each side of it, each a point once it is shallower
    # than the 1e-13 (k >= 7)
    (saddle,) = critical_points(kappa, p).saddles
    assert saddle[0] == crit[1] == math.pi / 2
    wells = component_intervals(kappa, saddle[1] - 1e-13, p)
    assert len(wells) == 2
    assert wells[0][0] <= crit[0] <= wells[0][1] < crit[1] < wells[1][0] <= crit[2] <= wells[1][1]


def test_a_pole_maximum_just_above_the_level_is_no_component():
    # the kappa = 0 twin of the fold test's k = 6 level: 1e-12 below the
    # level of the pole 0, a maximum of V, the pole is no rest state and the
    # one component ends at a turning point next to it
    p = REGION_BODIES["a"]
    assert g0_prime(0.0, 0.0, p) > 0.0
    (iv,) = component_intervals(0.0, effective_potential(0.0, 0.0, p) - 1e-12, p)
    assert 0.0 < iv[0] < iv[1] == math.pi
