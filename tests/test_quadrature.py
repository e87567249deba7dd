"""Half-period quadrature against the DOP853 stepper.

The oracle is the DOP853 run of the augmented system from a turning point
to the next p_theta = 0 crossing, at tolerances near the stepper's floor.
"""

import dataclasses
import math

import numpy as np
import pytest

import rubberroll.integrate
from rubberroll.dynamics import (
    component_intervals,
    critical_thetas,
    effective_potential,
)
from rubberroll.integrate import (
    IntegrationError,
    _ode_half_period,
    _psi_slope,
    half_period,
    section_period,
)
from rubberroll.model import Params
from rubberroll.reconstruct import _rotation_slope, rotation_number

P_XY = Params(0.5, 3.0, 0.5, 0.5)
P_EQ = Params(0.0, 1.5, 1.0, 1.0)
P_ALPHA1 = Params(1.0, 3.0, 0.5, 0.5)
P_BETA1 = Params(0.5, 1.0, 0.7, 2.0)

TIGHT = dict(tol_abs=1e-15, tol_rel=2.3e-14, max_steps=10 ** 7)


def _oracle(kappa, eps, p, lo, hi, circuit=False):
    """(T, N) of the level by the tight stepper."""
    t, psi = _ode_half_period(kappa, eps, p, lo, hi, circuit, **TIGHT)
    return 2.0 * t, -psi / math.pi


def _levels(p, rng, n_kappa):
    """Seeded (kind, kappa, eps, branch) levels of one body."""
    out = []
    for i in range(n_kappa):
        kappa = (-1.0) ** i * float(rng.uniform(0.15, 0.8))
        crit = critical_thetas(kappa, p)
        levels = [effective_potential(t, kappa, p) for t in crit]
        out.append(("generic", kappa, min(levels) + float(rng.uniform(0.02, 1.5)), 0))
        if len(crit) == 3:
            wells, v_s = (levels[0], levels[2]), levels[1]
            for sign in (-1.0, 1.0):
                d = 10.0 ** rng.uniform(-4.0, -3.0)
                out.append(("near_separatrix", kappa, v_s + sign * d, 0))
            if max(wells) < v_s - 0.02:
                out.append(("branch1", kappa,
                            float(rng.uniform(max(wells) + 0.01, v_s - 0.01)), 1))
    poles = sorted([effective_potential(0.0, 0.0, p), effective_potential(math.pi, 0.0, p)])
    top = max([poles[1]] + [effective_potential(t, 0.0, p) for t in critical_thetas(0.0, p)])
    out.append(("kappa0_crossing", 0.0, float(rng.uniform(poles[0] + 0.02, top - 0.02)), 0))
    out.append(("kappa0_circulating", 0.0, float(rng.uniform(top + 0.02, top + 1.0)), 0))
    return out


@pytest.mark.parametrize("p", [P_XY, P_EQ, P_ALPHA1, P_BETA1],
                         ids=["main", "alpha0", "alpha1", "beta1"])
def test_quadrature_error_estimate_bounds_the_oracle_gap(p):
    rng = np.random.default_rng(11)
    kinds = set()
    for kind, kappa, eps, branch in _levels(p, rng, n_kappa=3):
        kinds.add(kind)
        sp = section_period(kappa, eps, p, branch)
        if sp.circulating:
            T_ode, _ = _oracle(0.0, eps, p, 0.0, math.pi, circuit=True)
        else:
            T_ode, N_ode = _oracle(kappa, eps, p, sp.theta_min, sp.theta_max)
        assert abs(sp.T_theta - T_ode) <= sp.err + 1e-10 * T_ode, (kind, kappa, eps)
        rn = rotation_number(kappa, eps, p, branch)
        if kappa == 0.0:
            assert rn.N == 0.0
            continue
        assert rn.period == sp.T_theta
        assert abs(rn.N - N_ode) <= rn.err + 1e-10, (kind, kappa, eps)
    assert {"generic", "kappa0_crossing", "kappa0_circulating"} <= kinds
    if p is not P_BETA1:   # no saddle for beta = 1 at these kappa
        assert {"near_separatrix", "branch1"} <= kinds


def test_known_near_separatrix_level_matches_the_tight_stepper():
    # 1.1e-4 below the saddle level, where the stepper at default
    # tolerances put the section period 1.1e-7 off
    kappa, eps = -0.281252334049, 3.08761657623
    T_ode, N_ode = _oracle(kappa, eps, P_XY, *component_intervals(kappa, eps, P_XY)[0])
    assert abs(section_period(kappa, eps, P_XY).T_theta - T_ode) <= 1e-9 * T_ode
    rn = rotation_number(kappa, eps, P_XY)
    assert abs(rn.period - T_ode) <= 1e-9 * T_ode
    assert abs(rn.N - N_ode) <= 1e-9


def _stepper_ladder(kappa, eps, p, lo, hi):
    """(T, N, T bar, N bar): the stepper at the last step of a tolerance
    ladder, and the larger change over its last two steps as the error
    bars, since near its floor its error is not monotone in the tolerance."""
    runs = [_ode_half_period(kappa, eps, p, lo, hi, False, 0.05 * r, r, 10 ** 7)
            for r in (1e-12, 1e-13, 2.3e-14)]
    t = [2.0 * run[0] for run in runs]
    n = [-run[1] / math.pi for run in runs]
    return (t[2], n[2], max(abs(t[2] - t[1]), abs(t[1] - t[0])),
            max(abs(n[2] - n[1]), abs(n[1] - n[0])))


def test_next_to_a_saddle_the_quadrature_matches_the_tight_stepper(monkeypatch):
    # 1e-9 above the saddle the integrand's peak at the saddle is too narrow
    # for 2^14 nodes of the cosine map; the sinh map clusters them there,
    # and no stepper runs
    kappa = 0.5
    sad = critical_thetas(kappa, P_XY)[1]
    eps = effective_potential(sad, kappa, P_XY) + 1e-9
    with monkeypatch.context() as m:
        m.setattr(rubberroll.integrate, "integrate_raw", _no_stepper)
        rn = rotation_number(kappa, eps, P_XY)
        sp = section_period(kappa, eps, P_XY)
    lo, hi = component_intervals(kappa, eps, P_XY)[0]
    assert half_period(kappa, eps, P_XY, lo, hi).n <= 512
    T_ode, N_ode, T_bar, N_bar = _stepper_ladder(kappa, eps, P_XY, lo, hi)
    assert abs(rn.N - N_ode) <= rn.err + N_bar
    assert abs(sp.T_theta - T_ode) <= sp.err + T_bar


def _no_stepper(*args, **kwargs):
    raise AssertionError("the stepper ran")


# --- the exact eps-derivative of N ---


def _slope_levels():
    """(name, p, kappa, eps, branch, h) levels of both benchmark bodies:
    generic, branch-1 and near-separatrix levels, and on the main body the
    narrow bump of N past the cusp and its peak near the N = 0 fold; h is
    the step of the difference each is checked against."""
    out = []
    for name, p in (("main", P_XY), ("balanced", P_EQ)):
        kappa = 0.5
        well_0, v_s, well_1 = [effective_potential(th, kappa, p) for th in critical_thetas(kappa, p)]
        out += [(f"{name}-generic", p, kappa, v_s + 0.4, 0, 1e-3),
                (f"{name}-branch1", p, kappa, 0.5 * (max(well_0, well_1) + v_s), 1, 1e-3),
                # V is even in kappa, N odd
                (f"{name}-below-saddle", p, -kappa, v_s - 1e-3, 0, 3e-5),
                (f"{name}-above-saddle", p, kappa, v_s + 1e-3, 0, 3e-5)]
    return out + [("main-bump", P_XY, 1.1, 3.70, 0, 3e-5), ("main-fold", P_XY, 1.1078, 3.7137, 0, 3e-5)]


@pytest.mark.parametrize("level", _slope_levels(), ids=lambda lv: lv[0])
def test_the_eps_slope_matches_a_fourth_order_difference(level):
    # the difference's truncation error falls as h^4; its rounding, the
    # stencil over the err of each N, grows as 1/h
    _, p, kappa, eps, branch, h = level
    # the slope on the branch's half period, _rotation_slope's on branch 0;
    # err covers the gap to the sums on the rung below
    lo, hi = component_intervals(kappa, eps, p)[branch]
    hp = half_period(kappa, eps, p, lo, hi)
    d_psi, err_psi = _psi_slope(kappa, eps, p, hp)
    d_half = _psi_slope(kappa, eps, p, dataclasses.replace(hp, n=hp.n // 2))[0]
    slope, err = -d_psi / math.pi, err_psi / math.pi
    if branch == 0:
        assert _rotation_slope(kappa, eps, p) == (rotation_number(kappa, eps, p).N, slope, err)
    assert abs(d_psi - d_half) <= err_psi
    rns = [rotation_number(kappa, eps + d * h, p, branch, tol_abs=1e-14, tol_rel=1e-12)
           for d in (1.0, 0.5, -0.5, -1.0)]
    n = [rn.N for rn in rns]
    fd = (8.0 * (n[1] - n[2]) - n[0] + n[3]) / (6.0 * h)
    fd_err = (8.0 * (rns[1].err + rns[2].err) + rns[0].err + rns[3].err) / (6.0 * h)
    assert abs(slope - fd) <= 1e-7 * abs(slope) + fd_err + err


def test_the_eps_slope_is_stable_across_rungs():
    # at the narrow bump past the cusp, where dN/deps = 125.5; the finer
    # rungs' sums agree with the kept rung's to its err and to 1e-10
    kappa, eps = 1.1, 3.70
    lo, hi = component_intervals(kappa, eps, P_XY)[0]
    hp = half_period(kappa, eps, P_XY, lo, hi)
    d_psi, err = _psi_slope(kappa, eps, P_XY, hp)
    assert err <= 1e-10 * abs(d_psi)
    for m in (2, 4):
        d_fine, err_fine = _psi_slope(kappa, eps, P_XY, dataclasses.replace(hp, n=m * hp.n))
        assert abs(d_fine - d_psi) <= err + err_fine
        assert abs(d_fine - d_psi) <= 1e-10 * abs(d_psi)


def test_the_eps_slope_reads_the_kept_rung_and_climbs_no_ladder(monkeypatch):
    kappa, eps = 1.1, 3.70
    rungs = []
    real = rubberroll.integrate._half_nodes

    def recording(*args):
        rungs.append(args[-1])
        return real(*args)

    monkeypatch.setattr(rubberroll.integrate, "_half_nodes", recording)
    # cold: the half period's own ladder, then its rung and the one below
    _rotation_slope(kappa, eps, P_XY)
    lo, hi = component_intervals(kappa, eps, P_XY)[0]
    n = half_period(kappa, eps, P_XY, lo, hi).n
    assert n >= 32 and rungs == [16 * 2 ** i for i in range(rungs.index(n) + 1)] + [n // 2, n]
    # warm: the two rungs alone
    rungs.clear()
    _rotation_slope(kappa, eps, P_XY)
    assert rungs == [n // 2, n]


def test_past_the_node_cap_the_eps_slope_raises(monkeypatch):
    # on the saddle level itself the half period diverges: no rung
    # converges, and the slope raises with the half period, no stepper run
    kappa = 0.5
    eps = effective_potential(critical_thetas(kappa, P_XY)[1], kappa, P_XY)
    monkeypatch.setattr(rubberroll.integrate, "integrate_raw", _no_stepper)
    with pytest.raises(IntegrationError, match="did not converge by 16384 nodes"):
        rotation_number(kappa, eps, P_XY)
    with pytest.raises(IntegrationError, match="did not converge by 16384 nodes"):
        _rotation_slope(kappa, eps, P_XY)
