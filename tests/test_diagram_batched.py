"""The batched bifurcation diagram against the scalar loops it replaced.

The oracles below are the pointwise loops the diagram ran before its curve
sampling, window search and RPM floor were batched: one closed-form
evaluation per angle, a depth-first ``thetas.insert`` refinement, and the
RPM floor's argmin and Newton polish one kappa slice at a time.  The batched
code does the same arithmetic, so the results must agree bit for bit.  The
RPM floor is also held to an independent route, a grid of its own per kappa
slice and brentq, and to the critical angles, which a separate scan finds.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from rubberroll import bifurcation as bif
from rubberroll.dynamics import critical_thetas, effective_potential, g0, g0_prime, potential_grid
from rubberroll.geometry import profile
from rubberroll.model import Params


def _scalar_curve_point(theta0, p):
    s = math.sin(theta0)
    c = math.cos(theta0)
    b2 = p.beta * p.beta
    Z = math.sqrt(b2 * (s * s) + c * c)
    eps = (3.0 * Z * Z - 1.0) / (2.0 * Z)
    if p.alpha == 0.0:
        k2 = s ** 4 * (b2 - 1.0) / Z
    else:
        k2 = s ** 4 * ((b2 - 1.0) / Z - p.alpha / c)
        eps += p.alpha * (3.0 * c * c - 1.0) / (2.0 * c)
    if k2 < 0.0:
        return None
    return math.sqrt(k2), eps


def _scalar_sample_arc(p, lo, hi, lo_closed, hi_closed, n_init, ds_max, eps_max, kappa_max):
    a = lo + (bif._EDGE if not lo_closed else 0.0)
    b = hi - (bif._EDGE if not hi_closed else 0.0)
    thetas = list(np.linspace(a, b, n_init))
    pts = {}

    def pt(th):
        if th not in pts:
            pts[th] = _scalar_curve_point(th, p)
        return pts[th]

    def in_window(q):
        return q is not None and q[0] <= kappa_max and q[1] <= eps_max

    i = 0
    budget = 20000
    while i < len(thetas) - 1 and budget > 0:
        t0, t1 = thetas[i], thetas[i + 1]
        q0, q1 = pt(t0), pt(t1)
        if (in_window(q0) or in_window(q1)) and q0 is not None and q1 is not None:
            ds = math.hypot(q1[0] - q0[0], q1[1] - q0[1])
            if ds > ds_max and t1 - t0 > 1e-12:
                thetas.insert(i + 1, 0.5 * (t0 + t1))
                budget -= 1
                continue
        i += 1
    out = []
    for th in thetas:
        q = pt(th)
        if q is None:
            continue
        lam2 = g0_prime(th, q[0], p) / profile(th, p, pole_mode=True).B
        out.append((float(th), q[0], q[1], lam2, "center" if lam2 < 0.0 else "saddle"))
    return out


def _scalar_default_kappa_max(p, eps_max):
    k_best = 1.0
    for (lo, hi, lc, hc) in bif.branch_ranges(p):
        a = lo + (0.0 if lc else bif._EDGE)
        b = hi - (0.0 if hc else bif._EDGE)
        for th in np.linspace(a, b, 2001):
            q = _scalar_curve_point(float(th), p)
            if q is not None and q[1] <= eps_max and q[0] > k_best:
                k_best = q[0]
    if p.alpha == 0.0 and p.beta > 1.0:
        k_best = max(k_best, bif.equator_kappa_c(p) + 1.0)
    if p.alpha == 0.0:
        k_best = max(k_best, math.sqrt(max(2.0 * (eps_max - p.beta), 0.0)))
    return k_best


def _scalar_rpm_floor(kappa, p):
    """(theta, eps, lambda_sq) of the RPM floor one slice at a time, in
    scalars: the argmin of V on the shared grid, then Newton on G0 between
    the argmin's neighbours, with brentq's end rules."""
    n = 721
    grid = np.linspace(0.0, math.pi if p.alpha != 0.0 else math.pi / 2.0, n).tolist()
    kappa = kappa if kappa * kappa != 0.0 else 0.0

    def V(i):
        t = grid[i]
        if kappa == 0.0:
            return effective_potential(t, 0.0, p)
        if i == 0 or (i == n - 1 and p.alpha != 0.0):
            return math.inf
        return effective_potential(t, 0.0, p) + kappa * kappa * (0.5 / (math.sin(t) ** 2))

    def G(t):
        return math.inf if t == 0.0 and kappa != 0.0 else g0(t, kappa, p)

    def dG(t):
        return -math.inf if t == 0.0 and kappa != 0.0 else g0_prime(t, kappa, p)

    i = min(range(n), key=V)
    lo, hi, x = grid[max(i - 1, 0)], grid[min(i + 1, n - 1)], grid[i]
    g_lo, g_hi = G(lo), G(hi)
    if hi == math.pi and kappa != 0.0:
        g_hi = -math.inf    # the barrier of a nonzero kappa, though sin(pi) is not 0
    if g_lo == 0.0 or g_hi == 0.0:
        x = lo if g_lo == 0.0 else hi
    elif (g_lo > 0.0) != (g_hi > 0.0):
        for _ in range(100):
            g, dg = G(x), dG(x)
            if (g > 0.0) == (g_lo > 0.0):
                lo = x
            else:
                hi = x
            new = x - g / dg if dg != 0.0 else math.nan
            if not lo <= new <= hi:
                new = 0.5 * (lo + hi)
            done = abs(new - x) <= 1e-14 + 8.9e-16 * abs(x)
            x = new
            if done:
                break
    return x, effective_potential(x, kappa, p), g0_prime(x, kappa, p) / profile(x, p, pole_mode=True).B


def _brentq_rpm_floor(kappa, p):
    """(theta, eps) of the RPM floor by an independent route: a grid of its
    own per kappa slice, short of the poles unless kappa = 0, and scipy's
    brentq on G0 between the argmin's neighbours."""
    n = 721
    if kappa == 0.0:
        grid = np.linspace(0.0, math.pi, n)
    else:
        barrier = max(1e-6, abs(kappa) * 1e-3)
        grid = np.linspace(barrier, math.pi - barrier, n)
    i = int(np.argmin(potential_grid(grid, kappa, p)[0]))
    try:
        theta = brentq(lambda t: g0(t, kappa, p), float(grid[max(0, i - 1)]),
                       float(grid[min(n - 1, i + 1)]), xtol=1e-14, rtol=8.9e-16)
    except ValueError:
        theta = float(grid[i])
    return theta, effective_potential(theta, kappa, p)


def _arcs(p):
    """The theta0 arcs the curves are sampled on, split at the cusp."""
    cp = bif.cusp(p)
    for (lo, hi, lc, hc) in bif.branch_ranges(p):
        if lo < math.pi / 2.0 and cp is not None and cp.kind == "cusp" and lo < cp.theta < hi:
            yield lo, cp.theta, lc, True
            yield cp.theta, hi, True, hc
        else:
            yield lo, hi, lc, hc


def _seeded_body(region, rng):
    if region in "de":
        b2 = rng.uniform(0.1, 0.95) if region == "d" else rng.uniform(1.05, 9.0)
        return Params(0.0, math.sqrt(b2), 1.0, 1.0)
    alpha = rng.uniform(0.3, 0.8) if region == "a" else rng.uniform(0.2, 0.8)
    lo, hi = {"a": (0.1, 1.0 - alpha - 0.05), "b": (1.0 - alpha + 0.05, 1.0 + alpha - 0.05),
              "c": (1.0 + alpha + 0.05, 9.0)}[region]
    return Params(alpha, math.sqrt(rng.uniform(lo, hi)), 1.0, 1.0)


_RNG = np.random.default_rng(20261018)
BODIES = {f"{r}{i}": _seeded_body(r, _RNG) for i in range(2) for r in "abcde"}
BODIES.update({
    "sphere": Params(0.0, 1.0, 1.0, 1.0),
    "beta2=1-alpha": Params(0.5, math.sqrt(0.5), 1.0, 1.0),
    "beta2=1+alpha": Params(0.5, math.sqrt(1.5), 1.0, 1.0),
    "cusp": Params(0.5, 3.0, 0.5, 0.5),
    "alpha=1": Params(1.0, 2.0, 1.0, 1.0),
})


def _same_samples(got, want):
    """got: the columns theta0, kappa, eps, stability, lambda_sq; want: the
    scalar loop's (theta0, kappa, eps, lambda_sq, stability) rows."""
    theta0, kappa, eps, stability, lambda_sq = got
    cols = list(zip(*want)) if want else [()] * 5
    assert len(theta0) == len(want)
    assert all(np.array_equal(g, np.array(w, dtype=float))
               for g, w in zip((theta0, kappa, eps, lambda_sq), cols[:4]))
    assert stability == list(cols[4])


@pytest.mark.parametrize("name", sorted(BODIES))
def test_batched_diagram_matches_the_scalar_loops(name):
    p = BODIES[name]
    eps_max = bif._default_eps_max(p, bif.cusp(p))
    kappa_max = bif._default_kappa_max(p, eps_max)
    assert kappa_max == _scalar_default_kappa_max(p, eps_max)
    arcs = list(_arcs(p))
    if name == "cusp":
        assert len(arcs) == 3
    for (lo, hi, lc, hc) in arcs:
        _same_samples(bif._sample_arc(p, lo, hi, lc, hc, 200, 1e-3, eps_max, kappa_max),
                      _scalar_sample_arc(p, lo, hi, lc, hc, 200, 1e-3, eps_max, kappa_max))
    rpm = bif.rpm_boundary(p, kappa_max)
    want = list(zip(*[_scalar_rpm_floor(k, p) for k in np.linspace(0.0, kappa_max, 241).tolist()]))
    assert all(np.array_equal(g, w) for g, w in zip((rpm.theta0, rpm.eps, rpm.lambda_sq), want))
    for kappa in (0.0, -0.4, 1e-9, 2.5):
        assert bif.rpm_floor(kappa, p) == _scalar_rpm_floor(kappa, p)[1]


@pytest.mark.parametrize("name", sorted(BODIES))
def test_the_floor_matches_a_per_slice_brentq_oracle(name):
    p = BODIES[name]
    kappa_max = bif._default_kappa_max(p, bif._default_eps_max(p, bif.cusp(p)))
    kappas = np.linspace(0.0, kappa_max, 241).tolist() + [-0.4, 1e-9, 2.5]
    theta0, eps, _ = bif._rpm_floors(kappas, p)
    for kappa, t, e in zip(kappas, theta0.tolist(), eps.tolist()):
        t_ref, e_ref = _brentq_rpm_floor(kappa, p)
        assert abs(e - e_ref) <= 1e-15 * max(1.0, abs(e_ref)), (kappa, e, e_ref)
        if p.alpha == 0.0:
            # V is even about the equator: of two mirror wells the floor takes theta <= pi/2
            assert t <= math.pi / 2.0
            t_ref = min(t_ref, math.pi - t_ref, key=lambda r: abs(t - r))
        # on the sphere V = 1 + kappa^2/(2 sin^2) rounds to 1 at most angles
        # for kappa^2 below the rounding of V: no isolated minimum in floats
        if not (name == "sphere" and kappa * kappa < 1e-15):
            assert abs(t - t_ref) <= 1e-13, (kappa, t, t_ref)
    if name == "cusp":
        # the kappa = 1e-9 well lies inside the grid's end cell at the pole pi
        assert math.pi - math.pi / 720 < theta0[-2] < math.pi


@pytest.mark.parametrize("name", sorted(BODIES))
def test_the_floor_is_continuous_as_kappa_goes_to_zero(name):
    # at 1e-40 a well next to a pole lies far inside sin(pi) = 1.2e-16, and
    # kappa^2 underflows to 0 at 1e-170
    p = BODIES[name]
    floor0 = bif.rpm_floor(0.0, p)
    for kappa in (1e-40, -1e-170):
        assert abs(bif.rpm_floor(kappa, p) - floor0) <= 1e-15 * max(1.0, abs(floor0)), kappa
        assert bif.rpm_floor(kappa, p) == _scalar_rpm_floor(kappa, p)[1]


@pytest.mark.parametrize("name", sorted(BODIES))
def test_the_floor_is_the_lowest_critical_level(name):
    p = BODIES[name]
    kappa_max = bif._default_kappa_max(p, bif._default_eps_max(p, bif.cusp(p)))
    rpm = bif.rpm_boundary(p, kappa_max)
    extra = [0.0, -0.4, 1e-9, 0.05, 2.5]
    floors = zip(extra + rpm.kappa.tolist(), [bif.rpm_floor(k, p) for k in extra] + rpm.eps.tolist(),
                 [None] * len(extra) + rpm.theta0.tolist())
    for kappa, floor, theta0 in floors:
        crit = critical_thetas(kappa, p)
        poles = [0.0, math.pi] if kappa == 0.0 else []
        low = min(effective_potential(t, kappa, p) for t in crit + poles)
        assert abs(floor - low) <= 1e-13 * max(1.0, abs(low)), (kappa, floor, low)
        # V has no isolated minimum on the flat sphere at kappa = 0
        if theta0 is not None and not (name == "sphere" and kappa == 0.0):
            assert theta0 in poles or min(abs(theta0 - t) for t in crit) <= 1e-9, (kappa, theta0)


@pytest.mark.parametrize("ds_max", [2e-6, 1e-9])
def test_the_split_budget_keeps_the_first_halvings_depth_first(ds_max):
    # the README body's saddle arc needs far more than 20 000 halvings at
    # these ds_max, so the budget decides which of them are made
    p = BODIES["cusp"]
    eps_max = bif._default_eps_max(p, bif.cusp(p))
    kappa_max = bif._default_kappa_max(p, eps_max)
    lo, hi, lc, hc = list(_arcs(p))[1]
    got = bif._sample_arc(p, lo, hi, lc, hc, 200, ds_max, eps_max, kappa_max)
    want = _scalar_sample_arc(p, lo, hi, lc, hc, 200, ds_max, eps_max, kappa_max)
    assert len(want) == 200 + bif._SPLIT_BUDGET
    _same_samples(got, want)


def test_the_closed_forms_serve_floats_and_arrays_alike():
    p = BODIES["c0"]
    th = np.linspace(0.01, math.pi - 0.01, 501)
    th = th[np.abs(np.cos(th)) > 1e-6]
    s, c, k, e, on = bif._curve_points(th, p)
    want = [_scalar_curve_point(float(t), p) for t in th]
    assert on.tolist() == [q is not None for q in want]
    assert np.array_equal(k[on], [q[0] for q in want if q is not None])
    assert np.array_equal(e[on], [q[1] for q in want if q is not None])
    assert [bif.sigma_theta_eps(float(t), p) for t in th] == e.tolist()
    with pytest.raises(ValueError):
        bif.sigma_theta_kappa_sq(math.pi / 2.0, p)
    with pytest.raises(ValueError):
        bif.sigma_theta_eps(math.pi / 2.0, p)


def test_diagram_solves_the_cusp_once(monkeypatch):
    calls = []
    real = bif.cusp
    monkeypatch.setattr(bif, "cusp", lambda p: calls.append(p) or real(p))
    d = bif.diagram(BODIES["cusp"])
    assert len(calls) == 1
    assert d.cusp == real(BODIES["cusp"])
