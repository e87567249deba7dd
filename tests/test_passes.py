"""The quadrature ladder's multi-rung passes against passes of one rung.

``_half_nodes`` evaluates the small rungs of a ladder (16, 32 and 64 nodes,
or 32 and 64) in one array pass on their concatenated nodes and splits it
per rung.  Every array of each rung, and every result read from them, must
equal bit for bit what a pass of that rung alone gives: the same code with
``_PASS_NODES = 0``, where each pass holds one rung.
"""

import numpy as np
import pytest

import rubberroll.integrate
from rubberroll.dynamics import component_intervals, critical_thetas, effective_potential
from rubberroll.integrate import (
    _component,
    _doublings,
    _half_nodes,
    _node_map,
    _period_map,
    _psi_slope,
    half_period,
)
from rubberroll.model import Params

from conftest import clear_caches

P_MAIN = Params(0.5, 3.0, 0.5, 0.5)
P_BALANCED = Params(0.0, 1.5, 1.0, 1.0)


def _saddle(kappa, p):
    return effective_potential(critical_thetas(kappa, p)[1], kappa, p)


def _levels():
    """(name, p, kappa, eps, branch) of every kind of level the ladder meets."""
    out = [("generic-main", P_MAIN, 0.5, 3.3, 0),
           ("generic-balanced", P_BALANCED, -0.4, 2.2, 0)]
    for d in (1e-4, 1e-7, 1e-10):
        out += [(f"below-saddle-{d:g}", P_MAIN, 0.5, _saddle(0.5, P_MAIN) - d, 0),
                (f"above-saddle-{d:g}", P_BALANCED, -0.5, _saddle(-0.5, P_BALANCED) + d, 0)]
    wells = [effective_potential(t, 0.5, P_MAIN) for t in critical_thetas(0.5, P_MAIN)[::2]]
    out += [("branch1", P_MAIN, 0.5, 0.5 * (max(wells) + _saddle(0.5, P_MAIN)), 1),
            ("kappa0-crossing", P_MAIN, 0.0, 2.0, 0),
            ("kappa0-circulating", P_MAIN, 0.0, 3.5, 0),
            ("kappa-1e-7", P_MAIN, 1e-7, 3.5, 0),
            ("kappa-minus-1e-7", P_BALANCED, -1e-7, 2.5, 0)]
    return out


LEVELS = _levels()


def _fields(nodes):
    return [nodes.du, nodes.dth, nodes.dt, nodes.dpsi, nodes.spin, nodes.U, nodes.rel,
            *nodes.terms, *(nodes.ends or ())]


def _assert_same_nodes(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        fa, fb = _fields(a), _fields(b)
        assert len(fa) == len(fb)
        for x, y in zip(fa, fb):
            assert (x is None and y is None) or (
                np.shape(x) == np.shape(y) and np.array_equal(x, y)), (x, y)


def _results(kappa, eps, p, branch):
    """Half period, period map and, on a libration at kappa != 0, the eps
    slope of psi, cold."""
    clear_caches()
    ends = _component(kappa, eps, p, branch)[2]
    hp = half_period(kappa, eps, p, ends[0], ends[1], circuit=ends[2])
    pm = _period_map(kappa, eps, p, hp, 1e-12, 1e-10)
    slope = None if kappa == 0.0 or ends[2] else _psi_slope(kappa, eps, p, hp)
    return hp, pm, slope


def test_the_levels_cover_every_kind_of_node_map():
    maps = []
    for _, p, kappa, eps, branch in LEVELS:
        lo, hi, circuit = _component(kappa, eps, p, branch)[2]
        maps.append(_node_map(kappa, eps, p, lo, hi, circuit))
    assert any(m is None for m in maps)
    assert any(m is not None and m[0] is not None for m in maps)    # a sinh map
    assert any(m is not None and m[2] is not None for m in maps)    # both ends clustered


@pytest.mark.parametrize("level", LEVELS, ids=lambda lv: lv[0])
def test_a_pass_of_several_rungs_equals_passes_of_one(level, monkeypatch):
    _, p, kappa, eps, branch = level
    lo, hi, circuit = _component(kappa, eps, p, branch)[2]
    node_map = _node_map(kappa, eps, p, lo, hi, circuit)
    grid = (lo, hi, circuit, node_map)
    for rungs in ((16, 32, 64), (32, 64), (8, 16, 32)):
        got = _half_nodes(kappa, eps, p, *grid, rungs)
        assert len(got) == len(rungs)
        _assert_same_nodes(got, [_half_nodes(kappa, eps, p, *grid, (m,))[0] for m in rungs])
    hp, pm, slope = _results(kappa, eps, p, branch)
    monkeypatch.setattr(rubberroll.integrate, "_PASS_NODES", 0)
    ref_hp, ref_pm, ref_slope = _results(kappa, eps, p, branch)
    clear_caches()
    assert hp == ref_hp
    assert (pm.T, pm.dpsi, pm.D, pm.err) == (ref_pm.T, ref_pm.dpsi, ref_pm.D, ref_pm.err)
    assert np.array_equal(pm.z, ref_pm.z)
    assert slope == ref_slope


def test_a_node_off_the_level_in_a_later_rung_ends_the_pass_before_that_rung():
    # lo moved below the turning point by 6e-4 of the half width h: the
    # first node of 16 and of 32 midpoints lies 4.8e-3 h and 1.2e-3 h above
    # lo, on the level, the first of 64 only 3.0e-4 h, off it
    p, kappa, eps = P_MAIN, 0.5, 3.3
    ((lo, hi),) = component_intervals(kappa, eps, p)
    lo -= 6e-4 * 0.5 * (hi - lo)
    grid = (lo, hi, False, None)
    assert _half_nodes(kappa, eps, p, *grid, (64,)) == []
    singles = [_half_nodes(kappa, eps, p, *grid, (m,))[0] for m in (16, 32)]
    _assert_same_nodes(_half_nodes(kappa, eps, p, *grid, (16, 32, 64)), singles)
    _assert_same_nodes(_half_nodes(kappa, eps, p, *grid, (32, 64)), singles[1:])
    # the ladder ends where it ends with one rung a pass
    assert [len(nodes.dt) for nodes, _ in _doublings(kappa, eps, p, *grid)] == [16, 32]
    # and a node off the level in the first rung leaves none
    lo -= 1e-2 * (hi - lo)
    assert _half_nodes(kappa, eps, p, lo, hi, False, None, (16, 32, 64)) == []
    assert list(_doublings(kappa, eps, p, lo, hi, False, None)) == []
