"""Stepper wrapper: periods against quadrature, streaming, pole chart, and
the DOP853 loop against scipy's stepper."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, quad
from scipy.optimize import minimize_scalar

from rubberroll.dynamics import (
    FullState,
    augmented_field,
    component_intervals,
    effective_potential,
    full_field,
    integrals,
    kinematic_field,
    kinematic_init,
    reduced_energy,
)
from rubberroll.geometry import profile
from rubberroll.integrate import (
    IntegrationError,
    IntegrationStats,
    PoleError,
    Trajectory,
    _pole_guard_factory,
    _return_end,
    half_period,
    integrate,
    integrate_raw,
    section_period,
)
from rubberroll.model import Params

from conftest import deadline, random_valid_state

P = Params(alpha=0.5, beta=3.0, nu=1.0, eta=0.5)
KAPPA, EPS = 0.8, 2.6


def period_quadrature(kappa, eps, p, lo, hi):
    """T = 2 int dtheta / sqrt(2 (eps - V)/B), cosine substitution at the ends."""
    mid = 0.5 * (lo + hi)
    amp = 0.5 * (hi - lo)

    def f(u):
        th = mid - amp * math.cos(u)
        v2 = 2.0 * (eps - effective_potential(th, kappa, p)) \
            / profile(th, p, pole_mode=True).B
        if v2 <= 0.0:
            # roundoff exactly at a turning point
            return 0.0
        return amp * math.sin(u) / math.sqrt(v2)

    val, _ = quad(f, 0.0, math.pi, limit=200, epsabs=1e-13, epsrel=1e-12)
    return 2.0 * val


def test_libration_period_matches_quadrature():
    lo, hi = component_intervals(KAPPA, EPS, P)[0]
    sp = section_period(KAPPA, EPS, P)
    tq = period_quadrature(KAPPA, EPS, P, lo, hi)
    assert abs(sp.T_theta - tq) < 1e-8
    np.testing.assert_allclose([sp.theta_min, sp.theta_max], [lo, hi], atol=1e-9)
    assert not sp.circulating and not sp.pole_crossing


def test_small_oscillation_matches_linearization():
    lo, hi = component_intervals(KAPPA, EPS, P)[0]
    res = minimize_scalar(lambda th: effective_potential(th, KAPPA, P),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13})
    thc = float(res.x)
    h = 1e-5
    w2 = (effective_potential(thc + h, KAPPA, P)
          - 2.0 * effective_potential(thc, KAPPA, P)
          + effective_potential(thc - h, KAPPA, P)) / h ** 2
    t_lin = 2.0 * math.pi / math.sqrt(w2 / profile(thc, P).B)
    sp = section_period(KAPPA, effective_potential(thc, KAPPA, P) + 1e-8, P)
    assert abs(sp.T_theta - t_lin) / t_lin < 1e-4


def test_pole_crossing_well_period():
    # kappa = 0 level crossing a pole: extended chart, V even through theta = 0
    sp = section_period(0.0, 1.52, P, branch=0)
    assert sp.pole_crossing
    tq = period_quadrature(0.0, 1.52, P, sp.theta_min, sp.theta_max)
    assert abs(sp.T_theta - tq) < 1e-8


def test_meridian_circulation_period():
    eps_circ = 5.0

    def f(th):
        v2 = 2.0 * (eps_circ - effective_potential(th, 0.0, P)) \
            / profile(th, P, pole_mode=True).B
        return 1.0 / math.sqrt(v2)

    tq, _ = quad(f, 0.0, 2.0 * math.pi, limit=200, epsabs=1e-13, epsrel=1e-12)
    sp = section_period(0.0, eps_circ, P, branch=0)
    assert sp.circulating
    assert abs(sp.T_theta - tq) < 1e-8


@pytest.mark.parametrize("circuit", [False, True], ids=["libration", "circuit"])
def test_the_moved_return_end_moves_by_second_order_with_the_stop(circuit):
    # the half period's oracle stops at the quadrature's T/2 and moves its
    # end to p_theta = 0, or to theta = pi on a meridian circuit: a stop
    # 1e-6 early or late moves (t, psi) of the moved end by O(1e-12) only
    if circuit:
        kappa, eps, lo, hi = 0.0, 5.0, 0.0, math.pi
        rate = math.sqrt(2.0 * (eps - effective_potential(lo, 0.0, P))
                         / profile(lo, P, pole_mode=True).B)
    else:
        kappa, eps, rate = KAPPA, EPS, 0.0
        lo, hi = component_intervals(KAPPA, EPS, P)[0]
    k, end = (0, hi) if circuit else (1, 0.0)
    t_half = half_period(kappa, eps, P, lo, hi, circuit=circuit).t
    ends = []
    for shift in (-1e-6, 0.0, 1e-6):
        tr = integrate("augmented", (lo, rate, 0.0, 0.0, 0.0, 0.0), (0.0, t_half + shift), P,
                       kappa=kappa, tol_abs=1e-15, tol_rel=2.3e-14)
        t, y = _return_end(augmented_field(kappa, P), t_half + shift, tr.y[-1], k, end)
        ends.append((t, y[2]))
    for t, psi in ends[::2]:
        assert abs(t - ends[1][0]) <= 1e-10
        assert abs(psi - ends[1][1]) <= 1e-10


def test_t_eval_streaming_matches_final_state():
    lo, _ = component_intervals(KAPPA, EPS, P)[0]
    y0 = (lo, 0.0, 0.0, 0.0, 0.0, 0.0)
    tr_s = integrate("augmented", y0, (0.0, 10.0), P, kappa=KAPPA,
                     t_eval=np.linspace(0.0, 10.0, 101))
    tr_p = integrate("augmented", y0, (0.0, 10.0), P, kappa=KAPPA)
    # a sampled run returns its samples alone, not its accepted steps
    assert tr_s.t.shape == (101,) and tr_s.y.shape == (101, 6)
    assert len(tr_p.t) != 101
    np.testing.assert_allclose(tr_s.y[-1], tr_p.y[-1], atol=1e-9)


def test_full_system_renormalizes_gamma():
    rng = np.random.default_rng(7)
    s0 = random_valid_state(rng)
    tr = integrate("full", s0.as_array(), (0.0, 100.0), P,
                   tol_abs=1e-12, tol_rel=1e-12)
    c0 = integrals(s0, P)
    c1 = integrals(FullState.from_array(tr.y[-1]), P)
    assert abs(c1.F0 - c0.F0) <= 1e-10
    assert abs(c1.F1 - c0.F1) <= 1e-10


def test_pole_transit_conserves_energy():
    sp = section_period(0.0, 1.52, P, branch=0)
    tr = integrate("augmented", (sp.theta_max, 0.0, 0.0, 0.0, 0.0, 0.0),
                   (0.0, 5.0 * sp.T_theta), P, kappa=0.0)
    es = [reduced_energy(th, pt, 0.0, P) for th, pt in tr.y[:, :2]]
    assert max(abs(e - es[0]) for e in es) < 1e-9
    # the transit actually left (0, pi)
    assert tr.y[:, 0].min() < 0.0 or tr.y[:, 0].max() > math.pi


def test_pole_guard_trips_for_nonzero_kappa():
    # starting outside (0, pi) with kappa != 0 is rejected, not integrated
    with pytest.raises((PoleError, ValueError)):
        integrate("augmented", (-0.2, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0), P, kappa=0.5)


def test_reduced_requires_kappa():
    # the reduced system integrates as the augmented one
    with pytest.raises(ValueError, match="kappa"):
        integrate("augmented", (1.0, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0), P)


def test_unknown_system_rejected():
    # the reduced system runs as "augmented" and has no name of its own
    for system in ("nope", "reduced"):
        with pytest.raises(ValueError, match="unknown system"):
            integrate(system, (1.0, 0.0), (0.0, 1.0), P, kappa=0.5)


def test_a_nan_slope_fails_the_step_instead_of_hanging():
    # a NaN slope makes the first step size NaN; the rejection loop once
    # shrank that NaN step for ever
    with deadline(20), pytest.raises(IntegrationError, match="stepper failed"):
        integrate_raw(lambda t, y: np.full_like(y, math.nan), (1.0, 0.0), (0.0, 1.0))


def test_t_eval_must_be_finite_and_non_decreasing():
    # unsorted, t = 1 after t = 5 once read the start state; a NaN dropped
    # every later sample
    for bad in ([5.0, 1.0, 9.0], [1.0, math.nan, 9.0], [1.0, math.inf], [-math.inf, 1.0]):
        with pytest.raises(ValueError, match="finite, non-decreasing"):
            integrate("augmented", (1.0, 0.2, 0.0, 0.0, 0.0, 0.0), (0.0, 10.0), P,
                      kappa=0.6, t_eval=bad)


def test_t_eval_leaves_out_times_past_the_end():
    lo, _ = component_intervals(KAPPA, EPS, P)[0]
    tev = np.linspace(0.0, 20.0, 201)
    tr = integrate("augmented", (lo, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 10.0), P, kappa=KAPPA,
                   t_eval=tev)
    assert np.array_equal(tr.t, tev[tev <= 10.0])
    assert tr.y.shape == (101, 6)


def test_t_eval_sampling_peak_memory():
    # the loop keeps the interpolant of each sampled step, not the samples:
    # only the pass after the last step holds arrays of len(t_eval) rows
    lo, hi = component_intervals(KAPPA, EPS, P)[0]
    fun = augmented_field(KAPPA, P)
    tev = np.linspace(0.0, 20.0, 200_001)
    tracemalloc.start()
    try:
        tr = integrate_raw(fun, (0.5 * (lo + hi), 0.1, 0.0, 0.0, 0.0, 0.0), (0.0, 20.0),
                           t_eval=tev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.y.shape == (200_001, 6)
    assert peak < 3 * tr.y.nbytes


def test_t_eval_rejects_backward_runs():
    with pytest.raises(ValueError, match="forward"):
        integrate("augmented", (1.0, 0.3, 0.0, 0.0, 0.0, 0.0), (0.0, -5.0), P, kappa=0.5,
                  t_eval=np.linspace(0.0, -5.0, 11))


def test_zero_tol_abs_needs_nonzero_start_components():
    # 0/0 in the error scale would leave every step size nan and loop for ever
    with pytest.raises(ValueError, match="no zero component"):
        integrate("augmented", (1.0, 0.0, 0.3, 0.2, 0.1, 0.1), (0.0, 1.0), P, kappa=0.5,
                  tol_abs=0.0)
    traj = integrate("augmented", (1.0, 0.3, 0.3, 0.2, 0.1, 0.1), (0.0, 1.0), P, kappa=0.5,
                     tol_abs=0.0)
    assert traj.t[-1] == 1.0


LEAF_BODIES = [Params(0.5, 3.0, 0.5, 0.5), Params(0.0, 1.5, 1.0, 1.0),
               Params(0.3, 0.5, 2.0, 2.0), Params(1.0, 1.0, 0.2, 3.0)]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    body=st.sampled_from(LEAF_BODIES),
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2.0 * math.pi),
    u=st.floats(-1.5, 1.5),
    v=st.floats(-1.5, 1.5),
)
def test_full_system_conserves_the_four_integrals(body, theta, phi, u, v):
    # a leaf state: |gamma| = 1 and omega = u e_theta + v e_phi normal to it
    sth, cth, sph, cph = math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)
    gamma = np.array([sth * cph, sth * sph, cth])
    omega = u * np.array([cth * cph, cth * sph, -sth]) + v * np.array([-sph, cph, 0.0])
    s0 = FullState(omega=omega, gamma=gamma)
    c0 = integrals(s0, body)
    tr = integrate("full", s0.as_array(), (0.0, 20.0), body)
    drift = np.zeros(4)
    for y in tr.y:
        c = integrals(FullState.from_array(y), body)
        drift = np.maximum(drift, [
            abs(c.F0 - c0.F0), abs(c.F1 - c0.F1),
            abs(c.kappa - c0.kappa) / max(1.0, abs(c0.kappa)),
            abs(c.eps - c0.eps) / max(1.0, abs(c0.eps))])
    # over 1 200 random draws of this kind (t = 20, default tolerances) the
    # worst drifts were 8.9e-16 (F0), 5.5e-10 (F1), 2.9e-10 (kappa) and
    # 1.5e-9 (eps, both relative to max(1, |value|)); the bounds are about
    # ten times these
    assert drift[0] <= 1e-14
    assert drift[1] <= 5e-9
    assert drift[2] <= 5e-9
    assert drift[3] <= 1.5e-8


def test_max_steps_cap():
    with pytest.raises(IntegrationError, match="step"):
        integrate("augmented", (1.0, 0.3, 0.0, 0.0, 0.0, 0.0), (0.0, 1e6), P, kappa=0.5,
                  max_steps=50)


def scipy_integrate_raw(fun, y0, t_span, *, tol_abs=1e-12, tol_rel=1e-10,
                        renorm_slice=None, guard=None, t_eval=None):
    """Reference: the same loop around scipy's DOP853 solver object, one
    solver.step() and one dense_output() object per accepted step; with
    t_eval it returns the samples, else the accepted steps."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    y0 = np.asarray(y0, dtype=float)
    solver = DOP853(fun, t0, y0, t1, rtol=tol_rel, atol=tol_abs)
    stats = IntegrationStats()
    ts = [t0]
    ys = [y0.copy()]
    eval_times = None if t_eval is None else np.asarray(t_eval, dtype=float)
    eval_states = []
    eval_idx = 0
    while solver.status != "finished":
        msg = solver.step()
        assert solver.status != "failed", msg
        stats.n_steps += 1
        if (eval_times is not None and eval_idx < len(eval_times)
                and eval_times[eval_idx] <= solver.t):
            dense = solver.dense_output()
            while eval_idx < len(eval_times) and eval_times[eval_idx] <= solver.t:
                tt = float(eval_times[eval_idx])
                if tt < solver.t_old:
                    eval_states.append(ys[0].copy())
                else:
                    eval_states.append(np.array(dense(tt)))
                eval_idx += 1
        y_now = solver.y
        if renorm_slice is not None:
            g = y_now[renorm_slice]
            n = math.sqrt(float(g @ g))
            stats.max_renorm = max(stats.max_renorm, abs(n - 1.0))
            if n != 1.0:
                y_now[renorm_slice] = g / n
                solver.f = solver.fun(solver.t, y_now)
        if guard is not None:
            guard(solver.t, y_now)
        ts.append(float(solver.t))
        ys.append(y_now.copy())
    stats.n_rhs = int(solver.nfev)
    if eval_times is None:
        return Trajectory(t=np.array(ts), y=np.array(ys), stats=stats)
    return Trajectory(t=eval_times[: len(eval_states)],
                      y=np.array(eval_states) if eval_states else np.empty((0, len(y0))),
                      stats=stats)


def _oracle_cases():
    lo, hi = component_intervals(KAPPA, EPS, P)[0]
    th0 = 0.5 * (lo + hi)
    pt0 = math.sqrt(2.0 * (EPS - effective_potential(th0, KAPPA, P))
                    / profile(th0, P).B)
    s0 = random_valid_state(np.random.default_rng(3))
    samples = np.linspace(0.0, 20.0, 301)
    # the "reduced" cases run the reduced system as the augmented field
    red = augmented_field(KAPPA, P)
    return {
        "reduced, pole guard": dict(
            fun=red, y0=(lo, 0.0, 0.0, 0.0, 0.0, 0.0), t_span=(0.0, 30.0),
            guard=_pole_guard_factory(KAPPA)),
        "full, renormalized, t_eval": dict(
            fun=full_field(P), y0=s0.as_array(), t_span=(0.0, 20.0),
            renorm_slice=slice(3, 6), t_eval=samples),
        "kinematic, renormalized, t_eval": dict(
            fun=kinematic_field(P), y0=kinematic_init(s0), t_span=(0.0, 20.0),
            renorm_slice=slice(3, 6), t_eval=samples, tol_rel=1e-12),
        "kinematic, span of length zero": dict(
            fun=kinematic_field(P), y0=kinematic_init(s0) * (1.0 + 1e-9), t_span=(2.0, 2.0),
            renorm_slice=slice(3, 6), t_eval=np.array([1.0, 2.0, 2.0, 3.0])),
        "reduced, backward": dict(
            fun=red, y0=(th0, pt0, 0.0, 0.0, 0.0, 0.0), t_span=(0.0, -10.0)),
        "augmented, many samples per step": dict(
            fun=augmented_field(KAPPA, P), y0=(th0, pt0, 0.0, 0.0, 0.0, 0.0),
            t_span=(0.0, 20.0), t_eval=np.linspace(0.0, 20.0, 20_001)),
        "reduced, samples from before the start": dict(
            fun=red, y0=(th0, pt0, 0.0, 0.0, 0.0, 0.0), t_span=(2.0, 12.0),
            t_eval=np.linspace(0.0, 14.0, 141)),
        "reduced, samples on the step ends": dict(
            fun=red, y0=(th0, pt0, 0.0, 0.0, 0.0, 0.0), t_span=(0.0, 10.0),
            t_eval=scipy_integrate_raw(red, (th0, pt0, 0.0, 0.0, 0.0, 0.0), (0.0, 10.0)).t),
    }


@pytest.mark.parametrize("case", sorted(_oracle_cases()))
def test_stepper_matches_scipy_dop853_bit_for_bit(case):
    # fresh inputs each: scipy's solver renormalizes a zero-length run's
    # start state in place, in the caller's array
    ref = scipy_integrate_raw(**_oracle_cases()[case])
    got = integrate_raw(**_oracle_cases()[case])
    assert np.array_equal(got.t, ref.t)
    assert np.array_equal(got.y, ref.y)
    assert got.stats.n_steps == ref.stats.n_steps
    assert got.stats.n_rhs == ref.stats.n_rhs
    assert got.stats.max_renorm == ref.stats.max_renorm


def test_rejected_attempts_are_counted():
    # without samples or renormalization every attempt costs 12 RHS
    # calls, plus one for the initial slope and one for the first step size
    lo, _ = component_intervals(KAPPA, EPS, P)[0]
    tr = integrate("augmented", (lo, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 30.0), P, kappa=KAPPA)
    st = tr.stats
    assert st.n_rejected > 0
    assert st.n_rhs == 2 + 12 * (st.n_steps + st.n_rejected)
