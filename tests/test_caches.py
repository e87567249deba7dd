"""The per-process caches of the level structure give what a cold call gives.

critical_points keeps the last kappa slices, component_intervals the last
levels and half_period the last half periods.  A kept result must be the
one a cold call returns, bit for bit, and nothing a caller does to a
returned object may reach a later call.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

import rubberroll.dynamics
from rubberroll.dynamics import (
    FP_WIDTH,
    component_intervals,
    critical_points,
    critical_thetas,
    effective_potential,
)
from rubberroll.integrate import _component, half_period, period_map, section_period
from rubberroll.model import Params
from rubberroll.reconstruct import classify, rotation_number

from conftest import clear_caches

BODIES = {"main": Params(0.5, 3.0, 0.5, 0.5), "balanced": Params(0.0, 1.5, 1.0, 1.0)}
KAPPA_RANGES = {"main": (0.15, 0.85), "balanced": (0.15, 0.6)}


def _levels():
    """Seeded (kind, p, kappa, eps, branch) levels of both bodies: generic,
    near-separatrix and branch-1 levels, and kappa = 0 levels at 0.0 and
    -0.0."""
    rng = np.random.default_rng(14)
    out = []
    for body, p in BODIES.items():
        for _ in range(2):
            kappa = float(rng.choice([-1.0, 1.0]) * rng.uniform(*KAPPA_RANGES[body]))
            levels = critical_points(kappa, p).levels
            wells, v_s = (levels[0], levels[2]), levels[1]
            eps = v_s
            while min(abs(eps - v) for v in levels) < 0.01:
                eps = float(rng.uniform(min(wells) + 0.02, v_s + 0.6))
            out.append(("generic", p, kappa, eps, 0))
            d = 10.0 ** rng.uniform(math.log10(3e-4), -3.0)
            out.append(("near_separatrix", p, kappa, v_s + rng.choice([-1.0, 1.0]) * d, 0))
            out.append(("branch1", p, kappa, float(rng.uniform(max(wells) + 0.01, v_s - 0.01)), 1))
        (th_s,) = critical_thetas(0.0, p)
        v_s = effective_potential(th_s, 0.0, p)
        top_pole = max(effective_potential(0.0, 0.0, p), effective_potential(math.pi, 0.0, p))
        for zero in (0.0, -0.0):
            out.append(("kappa0_circulating", p, zero, float(rng.uniform(v_s + 0.02, v_s + 1.0)), 0))
            out.append(("kappa0_crossing", p, zero, float(rng.uniform(top_pole + 0.02, v_s - 0.02)), 0))
    return out


def _fingerprint(kappa, eps, p, branch, cold=False):
    """Every observable of the level, spelled so that a changed bit, a
    signed zero included, shows; with ``cold`` each from empty caches."""
    lo, hi, circuit = _component(kappa, eps, p, branch)[2]
    calls = [lambda: critical_points(kappa, p), lambda: critical_thetas(kappa, p),
             lambda: component_intervals(kappa, eps, p),
             lambda: half_period(kappa, eps, p, lo, hi, circuit=circuit),
             lambda: rotation_number(kappa, eps, p, branch),
             lambda: section_period(kappa, eps, p, branch),
             lambda: classify(kappa, eps, p, branch),
             lambda: period_map(kappa, eps, p, branch)]
    out = []
    for call in calls:
        if cold:
            clear_caches()
        out.append(call())
    pm = out.pop()
    return repr(out + [dataclasses.replace(pm, z=None), pm.z.tolist()])


@pytest.mark.parametrize("level", _levels(), ids=lambda lv: f"{lv[0]}-k{lv[2]!r}")
def test_cached_results_equal_cold_results(level):
    _, p, kappa, eps, branch = level
    cold = _fingerprint(kappa, eps, p, branch, cold=True)
    # warm: every cache holds this level, read in the order of the levels
    # workload's operation, and then again; a looser quadrature of the
    # level is kept apart
    loose = lambda *args: rotation_number(*args, tol_abs=1e-9, tol_rel=1e-6)
    for first in (rotation_number, section_period, classify, loose):
        clear_caches()
        first(kappa, eps, p, branch)
        assert _fingerprint(kappa, eps, p, branch) == cold
        assert _fingerprint(kappa, eps, p, branch) == cold
    if kappa == 0.0:
        # 0.0 and -0.0 share one key: the kept result of either is the other's
        clear_caches()
        _fingerprint(-kappa, eps, p, branch)
        assert _fingerprint(kappa, eps, p, branch) == cold


@pytest.mark.parametrize("level", _levels(), ids=lambda lv: f"{lv[0]}-k{lv[2]!r}")
def test_each_turning_point_is_checked_once_where_it_is_made(level, monkeypatch):
    # the first observable of a level checks each end of each component,
    # but a relative equilibrium's and the kappa = 0 poles, once; the
    # observables after it check nothing
    kind, p, kappa, eps, branch = level
    real, calls = rubberroll.dynamics.check_turning_point, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, mod in list(sys.modules.items()):
        if name == "rubberroll" or name.startswith("rubberroll."):
            for key, val in list(vars(mod).items()):
                if val is real:
                    monkeypatch.setattr(mod, key, counting)
    rotation_number(kappa, eps, p, branch)
    first = [args[0] for args in calls]
    for observable in (rotation_number, section_period, classify, period_map):
        observable(kappa, eps, p, branch)
    ends = [end for lo, hi in component_intervals(kappa, eps, p) if hi - lo > FP_WIDTH
            for end in (lo, hi) if end not in (0.0, math.pi)]
    assert sorted(first) == sorted(ends) and len(calls) == len(ends)
    assert len(ends) > 0 or kind == "kappa0_circulating"


def test_what_a_caller_changes_does_not_reach_a_later_call():
    p = BODIES["main"]
    kappa = 0.5
    thetas = critical_thetas(kappa, p)
    cp = critical_points(kappa, p)
    eps = cp.levels[0] + 0.3
    ivs = component_intervals(kappa, eps, p)
    want = (list(thetas), list(ivs))
    thetas[0] = -1.0
    thetas.append(7.0)
    ivs.clear()
    assert (critical_thetas(kappa, p), component_intervals(kappa, eps, p)) == want
    with pytest.raises(dataclasses.FrozenInstanceError):
        cp.levels = ()

    # the period map builds a new path on every call, on the cosine map of
    # a generic level and on the sinh map 1e-9 above the saddle alike
    for eps in (eps, cp.levels[1] + 1e-9):
        pm = period_map(kappa, eps, p)
        z = pm.z.copy()
        pm.z[:] = 0.0
        assert np.array_equal(period_map(kappa, eps, p).z, z)
