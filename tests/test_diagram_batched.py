"""The batched bifurcation diagram against the scalar loops it replaced.

The oracles below are the pointwise loops the diagram ran before its curve
sampling, window search and RPM floor were batched: one closed-form
evaluation per angle, a depth-first ``thetas.insert`` refinement and one
potential grid per kappa.  The batched code does the same arithmetic, so the
results must agree bit for bit.  The RPM floor is also held to the critical
angles, which a separate scan finds.
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
    want = [_scalar_rpm_floor(float(k), p) for k in np.linspace(0.0, kappa_max, 241)]
    assert np.array_equal(rpm.theta0, [t for t, _ in want])
    assert np.array_equal(rpm.eps, [v for _, v in want])
    assert np.array_equal(rpm.lambda_sq, [g0_prime(t, k, p) / profile(t, p, pole_mode=True).B
                                          for (t, _), k in zip(want, rpm.kappa)])
    for kappa in (0.0, -0.4, 1e-9, 2.5):
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
