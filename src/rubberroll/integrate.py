"""Adaptive integration driver and reduced-period machinery.

The stepper is DOP853, the eighth-order embedded Runge-Kutta pair of
Hairer, Norsett and Wanner (Solving ODEs I, II) with adaptive error control
and a local dense interpolant.  :func:`integrate_raw` runs it as an
in-package loop on the DOP853 tableau, written out below, that repeats
scipy's ``DOP853`` solver operation by operation (stage sums, error norm,
step controller, initial step, interpolant), so its results match scipy's
bit for bit; the tests keep scipy's solver as the oracle.  The loop calls
the right-hand side directly, builds the three extra interpolant stages only
on steps that need them, and evaluates the sample times of all steps in one
array pass after the last step; a run returns those samples, or without
sample times its accepted steps.  It goes one accepted step at a time so that

  * the vertical unit vector can be renormalized after every accepted step
    (magnitude logged, delivered in the run statistics),
  * the reduced chart can be guarded against pole contact when kappa != 0.

Default tolerances are 1e-12 absolute and 1e-10 relative.  Each run reports
an :class:`IntegrationStats` (accepted steps ``n_steps``, rejected step
attempts ``n_rejected``, right-hand-side evaluations ``n_rhs``, the largest
renormalization ``max_renorm``) and logs it and the sample count at DEBUG.

The per-level observables (:func:`section_period` here, the rotation number
in :mod:`.reconstruct`) need no stepping: the time and the precession from
one turning point to the other are the quadratures

    T/2 = int sqrt(B / 2(eps - V)) dtheta,
    psi/2 = int psi_dot sqrt(B / 2(eps - V)) dtheta,
    psi_dot = -kappa cos(theta) / (J sin^2(theta)),

which :func:`half_period` evaluates by a node-doubling midpoint rule on a
map of the nodes that the level picks: it clusters them at a saddle the
level passes close to, or at an end next to a saddle or a pole.  The
planar path over one period continues the same node ladder:
:func:`period_map` integrates d(x_c + i y_c)/dt over the whole period by a
spectral cumulative sum and a Filon-type FFT rule, which gives the drift D
the center of mass makes per period.  Each rung size keeps its level-free
arrays, read-only (88 bytes a node).  The small rungs of a ladder (16, 32
and 64 nodes) are evaluated in one array pass on their concatenated nodes,
and each rung sums its own slice of it: the integrands are elementwise and
a contiguous slice sums as an array of its own does, so the pass changes no
bit of any result and saves numpy's fixed cost per call on all rungs but
one.  The stepper runs no level: it stays the oracle the tests and
``verify`` hold the quadrature to.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .dynamics import (
    FP_WIDTH,
    _centrifugal,
    augmented_field,
    component_intervals,
    critical_points,
    effective_potential,
    full_field,
    g0,
    kinematic_field,
)
from .geometry import (profile, surface_b, surface_g0, surface_j, surface_j_prime, surface_u,
                       surface_z)
from .model import Params

__all__ = [
    "IntegrationError",
    "PoleError",
    "IntegrationStats",
    "Trajectory",
    "integrate_raw",
    "integrate",
    "HalfPeriod",
    "half_period",
    "PeriodMap",
    "period_map",
    "SectionPeriod",
    "section_period",
]

log = logging.getLogger(__name__)

DEFAULT_TOL_ABS = 1e-12
DEFAULT_TOL_REL = 1e-10
DEFAULT_MAX_STEPS = 2_000_000


class IntegrationError(RuntimeError):
    """Numerical failure: step-size underflow or step budget exhausted, or
    a half-period quadrature that does not converge by its node cap."""


class PoleError(IntegrationError):
    """Reduced chart reached a coordinate pole with kappa != 0."""


@dataclass
class IntegrationStats:
    """Cost of one run: accepted steps, rejected step attempts, right-hand
    side evaluations and the largest |norm - 1| renormalized away."""

    n_steps: int = 0
    n_rejected: int = 0
    n_rhs: int = 0
    max_renorm: float = 0.0


@dataclass
class Trajectory:
    """The samples of a run: at its sample times if it was given any, else
    at its accepted steps."""

    t: np.ndarray
    y: np.ndarray                       # shape (len(t), dim)
    # always empty: perfbench's tracer reads it (events_hit); goes with ROADMAP item 1
    events: list = field(default_factory=list)
    stats: IntegrationStats = field(default_factory=IntegrationStats)


# DOP853 tableau, the coefficients of scipy's dop853_coefficients to the
# last bit: 12 stages plus the step's end derivative, 3 more stages for the
# dense interpolant.  Row s of _A_LOWER is A[s, :s]; A is strictly lower
# triangular.
_N_STAGES = 12
_N_STAGES_EXTENDED = 16
_INTERPOLATOR_POWER = 7
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778,
])
_A_LOWER = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
_A = np.array([row + (0.0,) * (_N_STAGES_EXTENDED - len(row)) for row in _A_LOWER])
_B = _A[_N_STAGES, :_N_STAGES]
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
])
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
])
_D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])
_STAGES = [(s, _A[s, :s], float(_C[s])) for s in range(1, _N_STAGES)]
_EXTRA = [(s, _A[s, :s], float(_C[s])) for s in range(_N_STAGES + 1, _N_STAGES_EXTENDED)]
_SAFETY = 0.9
_MIN_FACTOR = 0.2     # largest decrease of the step in one attempt
_MAX_FACTOR = 10      # largest increase of the step
_ERROR_EXPONENT = -1 / 8   # -1 / (order of the error estimator + 1)
_MIN_RTOL = 100 * np.finfo(float).eps
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t1, f0, direction, rtol, atol) -> float:
    """First step size, Hairer, Norsett and Wanner, Solving ODEs I, II.4."""
    interval_length = abs(t1 - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _step(fun, t, y, f, h_abs, t1, direction, rtol, atol, K, stages):
    """One accepted step from (t, y) with slope f, trying h_abs first.

    Returns t, y and the slope at the step's end, the step h, the size to
    try next and the number of rejected attempts; K holds the stages of the
    accepted attempt.  As scipy's RungeKutta._step_impl and rk_step with
    DOP853's error norm.
    """
    min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
    if h_abs < min_step:
        h_abs = min_step
    rejected = 0
    while True:
        if not h_abs >= min_step:   # a NaN step, from a non-finite slope, fails too
            raise IntegrationError(f"stepper failed at t={t}: {_TOO_SMALL_STEP}")
        h = h_abs * direction
        t_new = t + h
        if direction * (t_new - t1) > 0:
            t_new = t1
        h = t_new - t
        h_abs = abs(h)

        K[0] = f
        for KsT, a, c, row in stages:
            row[:] = fun(t + c * h, y + np.dot(KsT, a) * h)
        y_new = y + h * np.dot(K[:-1].T, _B)
        f_new = fun(t + h, y_new)
        K[-1] = f_new

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err5 = np.dot(K.T, _E5) / scale
        err3 = np.dot(K.T, _E3) / scale
        # np.linalg.norm(err) ** 2, spelt out
        err5_norm_2 = math.sqrt(float(err5.dot(err5))) ** 2
        err3_norm_2 = math.sqrt(float(err3.dot(err3))) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            error_norm = 0.0
        else:
            denom = err5_norm_2 + 0.01 * err3_norm_2
            error_norm = abs(h) * err5_norm_2 / math.sqrt(denom * len(y))
        if error_norm < 1:
            if error_norm == 0:
                factor = _MAX_FACTOR
            else:
                factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            if rejected:
                factor = min(1, factor)
            return t_new, y_new, f_new, h, h_abs * factor, rejected
        h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        rejected += 1


def _dense_coefficients(fun, t_old, h, y_old, y_new, f_new, K_ext, extra):
    """The 3 extra stages of the step from (t_old, y_old) to y_new and the
    coefficients of its interpolant, as scipy's DOP853._dense_output_impl."""
    for KsT, a, c, row in extra:
        row[:] = fun(t_old + c * h, y_old + np.dot(KsT, a) * h)
    F = np.empty((_INTERPOLATOR_POWER, len(y_old)))
    f_old = K_ext[0]
    delta_y = y_new - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f_new + f_old)
    F[3:] = h * np.dot(_D, K_ext)
    return F


def _dense_samples(steps, t, dim):
    """DOP853 dense output at the sorted times t, one row per time, in one
    pass over all steps; each entry (count, F, t_old, h, y_old) of steps
    covers the next count times; without steps every row is zero."""
    y = np.zeros((len(t), dim))
    if steps:
        counts, F, t_old, h, y_old = zip(*steps)
        k = np.repeat(np.arange(len(steps)), counts)
        F = np.array(F)
        x = ((t - np.array(t_old)[k]) / np.array(h)[k])[:, None]
        xm = 1 - x
        for i in range(_INTERPOLATOR_POWER - 1, -1, -1):
            y += F[k, i]
            y *= x if i % 2 == 0 else xm
        y += np.array(y_old)[k]
    return y


def integrate_raw(
    fun: Callable[[float, np.ndarray], np.ndarray],
    y0: Sequence[float],
    t_span: tuple[float, float],
    *,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    max_steps: int = DEFAULT_MAX_STEPS,
    renorm_slice: slice | None = None,
    guard: Callable[[float, np.ndarray], None] | None = None,
    t_eval: np.ndarray | None = None,
) -> Trajectory:
    """Drive the adaptive stepper from t_span[0] to t_span[1].

    fun(t, y) returns dy/dt as a float array shaped like y.

    Parameters
    ----------
    renorm_slice : slice, optional
        Sub-vector renormalized to unit Euclidean length after every accepted
        step; the largest |norm - 1| seen is logged in the statistics.
    guard : callable, optional
        Called after every accepted step; may raise to abort.
    t_eval : array, optional
        Sample times (forward integration only, finite and non-decreasing)
        on the dense interpolant, returned in place of the accepted steps.
        The loop keeps 7 rows of coefficients per sampled step and
        evaluates all samples after it, at a peak of about 2.5 times the
        bytes of the returned y.  Times before t_span[0], and every time on
        a run of length zero, give the start state; those past t_span[1]
        are left out.

    Raises
    ------
    ValueError
        On a non-finite start state, t_eval on a backward run, a
        t_eval that is not finite and non-decreasing, a negative tol_abs,
        or tol_abs = 0 with a zero start component.
    IntegrationError
        On stepper failure or step-budget exhaustion.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.array(y0, dtype=float)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("the initial state must be a finite 1-D vector")
    if t_eval is not None and t1 < t0:
        raise ValueError("t_eval sampling supports forward integration only")
    if tol_abs < 0.0:
        raise ValueError("tol_abs must be non-negative")
    if tol_abs == 0.0 and not y.all():
        # a zero component would get a zero error scale, 0/0 in the first
        # step size, and a stepper that never advances
        raise ValueError("tol_abs = 0 needs a start state with no zero component")
    if tol_rel < _MIN_RTOL:
        warnings.warn(f"tol_rel below {_MIN_RTOL}, raised to it", stacklevel=2)
        tol_rel = _MIN_RTOL

    dim = len(y)
    direction = 1.0 if t1 >= t0 else -1.0
    K_ext = np.empty((_N_STAGES_EXTENDED, dim))
    K = K_ext[: _N_STAGES + 1]
    stages = [(K_ext[:s].T, a, c, K_ext[s]) for s, a, c in _STAGES]
    extra = [(K_ext[:s].T, a, c, K_ext[s]) for s, a, c in _EXTRA]

    stats = IntegrationStats()
    ts = [t0]
    ys = [y.copy()]

    eval_times = None
    sampled: list[tuple] = []   # (count, F, t_old, h, y_old) per step holding samples
    eval_idx = n_eval = 0
    if t_eval is not None:
        eval_times = np.asarray(t_eval, dtype=float)
        if (eval_times.ndim != 1 or not np.isfinite(eval_times).all()
                or (eval_times[1:] < eval_times[:-1]).any()):
            raise ValueError("t_eval must be a finite, non-decreasing 1-D array")
        n_eval = len(eval_times)
    next_eval = float(eval_times[0]) if n_eval else math.inf

    t = t0
    f = fun(t, y)
    n_rhs = 1
    if t0 != t1:
        h_abs = _initial_step(fun, t0, y, t1, f, direction, tol_rel, tol_abs)
        n_rhs += 1

    while True:
        if stats.n_steps >= max_steps:
            raise IntegrationError(f"step budget exhausted after {max_steps} steps at t={t}")
        t_old = t
        y_old = y
        zero_length = t == t1
        if zero_length:
            # a run of length zero: one step that changes nothing
            h = 0.0
            t_new, y_new, f_new = t, y, f
        else:
            t_new, y_new, f_new, h, h_abs, rejected = _step(
                fun, t, y, f, h_abs, t1, direction, tol_rel, tol_abs, K, stages)
            n_rhs += _N_STAGES * (1 + rejected)
            stats.n_rejected += rejected
        t = t_new
        stats.n_steps += 1

        if next_eval <= t:
            j = int(eval_times.searchsorted(t, "right"))
            if not zero_length:   # else sampled below
                F = _dense_coefficients(fun, t_old, h, y_old, y_new, f_new, K_ext, extra)
                n_rhs += len(extra)
                sampled.append((j - eval_idx, F, t_old, h, y_old))
            eval_idx = j
            next_eval = float(eval_times[j]) if j < n_eval else math.inf

        if renorm_slice is not None:
            g = y_new[renorm_slice]
            n = math.sqrt(float(g @ g))
            delta = abs(n - 1.0)
            if delta > stats.max_renorm:
                stats.max_renorm = delta
            if delta > 0.0:
                y_new[renorm_slice] = g / n
                f_new = fun(t, y_new)
                n_rhs += 1

        if guard is not None:
            guard(t, y_new)

        if eval_times is None:
            ts.append(float(t))
            ys.append(y_new.copy())
        y, f = y_new, f_new
        if t == t1:
            break

    stats.n_rhs = n_rhs
    log.debug("integrate_raw: %d steps, %d rejected attempts, %d RHS calls, %d samples, max "
              "renorm %.3g", stats.n_steps, stats.n_rejected, n_rhs, eval_idx, stats.max_renorm)
    if eval_times is None:
        return Trajectory(t=np.array(ts), y=np.array(ys), stats=stats)
    t_out = eval_times[:eval_idx]
    y_out = _dense_samples(sampled, t_out, dim)
    # requested before the start, or on a run of length zero: the start state
    y_out[: eval_times.searchsorted(t0, "right" if t0 == t1 else "left")] = ys[0]
    return Trajectory(t=t_out, y=y_out, stats=stats)


def _pole_guard_factory(kappa: float):
    """Guard of the reduced chart at kappa != 0; None at kappa = 0, where the
    meridian extension lets theta cross the poles."""
    if kappa == 0.0:
        return None
    # a level eps keeps sin(theta) >= |kappa| / sqrt(2 (eps - min U)), so the
    # margin shrinks with |kappa| to admit the small-|kappa| turning points
    margin = min(1e-6, 1e-3 * abs(kappa))

    def guard(t: float, y: np.ndarray) -> None:
        th = y[0]
        if th <= margin or th >= math.pi - margin:
            raise PoleError(
                f"theta={th} reached a chart pole at t={t} with kappa={kappa}; "
                "only kappa = 0 motions may cross the poles"
            )
    return guard


def integrate(
    system: str,
    init: Sequence[float],
    t_span: tuple[float, float],
    p: Params,
    *,
    kappa: float | None = None,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    max_steps: int = DEFAULT_MAX_STEPS,
    t_eval: np.ndarray | None = None,
) -> Trajectory:
    """Integrate one of the shipped vector fields.

    The route of orbits over time (``simulate``, ``trajectory``,
    :func:`.reconstruct.reconstruct_trajectory`) and of the oracles the
    tests and ``verify`` hold the quadratures to; no per-level observable
    steps.

    system:
      "full"      init = (w1, w2, w3, g1, g2, g3); gamma renormalized per step.
      "kinematic" init = 14-vector (w, gamma, ax, bx, xc, yc); same treatment.
      "augmented" init = (theta, p_theta, psi, phi, xc, yc), requires kappa;
                  pole-guarded unless kappa = 0, where the smooth meridian
                  extension lets theta run over the whole real line.
    """
    if system == "full":
        fun = full_field(p)
        renorm = slice(3, 6)
        guard = None
    elif system == "kinematic":
        fun = kinematic_field(p)
        renorm = slice(3, 6)
        guard = None
    elif system == "augmented":
        if kappa is None:
            raise ValueError("system='augmented' requires kappa")
        fun = augmented_field(kappa, p)
        renorm = None
        guard = _pole_guard_factory(kappa)
    else:
        raise ValueError(f"unknown system {system!r}")
    return integrate_raw(
        fun,
        init,
        t_span,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        max_steps=max_steps,
        renorm_slice=renorm,
        guard=guard,
        t_eval=t_eval,
    )


_N_START = 16         # first midpoint rule compared against its doubling
_N_CAP = 2 ** 14      # past this node count half_period raises IntegrationError
_MAP_WIDTH = 1e-2     # a feature narrower than this in u gets a sinh map
_EPS_MACH = 2.0 ** -52
_PI_LO = 1.2246467991473532e-16  # pi - math.pi
_HALF_PERIOD_CACHE = 64  # half_period: results kept per process
_NODE_TABLES = 16  # _node_table: rung sizes kept per process (the ladder has 11)
# the rungs of one _half_nodes pass sum to at most this many nodes: so from
# 16 a pass takes 16, 32 and 64, from 32 it takes 32 and 64, and a larger
# rung goes alone.  A pass costs about 44 us plus 55 ns a node (numpy 2.4,
# 2-core Xeon VM), so the small rungs share the fixed cost; a larger budget
# was slower, since a pass wastes its last rungs when the ladder stops first
_PASS_NODES = 112


@dataclass(frozen=True)
class PeriodMap:
    """One nutation period of the planar path, which fixes all of it.

    z = x_c + i y_c starts at 0, with psi = 0, at the lower turning point
    (or at the pole 0 on a meridian circuit).  After each period the path
    repeats the same planar rigid motion, a rotation by dpsi = -2 pi N and
    the translation D: z(s + T) = D + e^{i dpsi} z(s).  T and dpsi are
    twice the time and precession of :func:`half_period`, bit for bit; err
    estimates the absolute error of D.  z holds the path over one period at
    the quadrature nodes.  For non-integer N the path turns about
    c = D / (1 - e^{i dpsi}) and fills the annulus
    min |z - c| <= r <= max |z - c|.
    """

    T: float
    dpsi: float
    D: complex
    err: float
    z: np.ndarray


@dataclass(frozen=True)
class HalfPeriod:
    """Time t and precession psi over half an oscillation, with estimates
    of their absolute errors; n is the node count at which the quadrature
    converged, and grid = (lo, hi, circuit, node_map) its ends and node map,
    which the period map and d psi / d eps reuse."""

    t: float
    psi: float
    t_err: float
    psi_err: float
    n: int
    grid: tuple


@functools.lru_cache(maxsize=_NODE_TABLES)
def _node_table(n: int) -> tuple:
    """(du, u, cos u, sin u, k, k_div, shift, rungs) of n nodes, read-only:
    rungs = (n, 2n, ...) the rungs of the pass from n (see _PASS_NODES), u
    the midpoints of (0, pi) of each rung in turn, n's own first; on the 2n
    nodes of the circle the FFT frequencies k, with k_div[0] = 1 for
    :func:`_cumulative`, and shifts exp(-i du k / 2)."""
    du = math.pi / n
    rungs = [n]
    while sum(rungs) + 2 * rungs[-1] <= _PASS_NODES:
        rungs.append(2 * rungs[-1])
    u = np.concatenate([(np.arange(m) + 0.5) * (math.pi / m) for m in rungs])
    k = np.fft.fftfreq(2 * n, 1.0 / (2 * n))
    arrays = (u, np.cos(u), np.sin(u), k, np.concatenate(([1.0], k[1:])), np.exp(-0.5j * du * k))
    for a in arrays:
        a.flags.writeable = False
    return (du,) + arrays + (tuple(rungs),)


def _passes(n: int, last: int) -> Iterator[tuple[int, ...]]:
    """The rungs n, 2n, ... up to last, a pass of :func:`_half_nodes` at a
    time."""
    while n <= last:
        rungs = tuple(m for m in _node_table(n)[7] if m <= last)
        yield rungs
        n = 2 * rungs[-1]


@dataclass(frozen=True)
class _Nodes:
    """The integrands of half an oscillation at the n midpoint nodes
    u_j = (j + 1/2) du of u in (0, pi), du = pi / n."""

    du: float
    dth: np.ndarray              # dtheta/du
    dt: np.ndarray               # dt/du
    dpsi: np.ndarray | None      # dpsi/du; None at kappa = 0
    spin: np.ndarray | None      # kappa / (J sin(theta)) dt/du; None at kappa = 0
    U: np.ndarray                # height of the center of mass
    rel: np.ndarray              # relative rounding error of eps - V
    terms: tuple                 # (s, s2, c, Z, J, B, B', G0, eps - V), for _psi_slope
    ends: tuple | None           # (1 + x, 1 - x) on a sinh map, for _psi_slope


def _node_map(
    kappa: float, eps: float, p: Params, lo: float, hi: float, circuit: bool,
) -> tuple | None:
    """The map x(y), y = -cos(u), of the level's nodes: theta = m + h x
    between the turning points lo = m - h and hi = m + h, or
    -cos(theta) = x on a meridian circuit from 0 to pi.

    None is x = y, which spaces its nodes about e / sqrt(1 - x_s^2) in u
    from a feature of width e in x at x_s inside, sqrt(e / 2) at an end.
    Features narrower than _MAP_WIDTH in u get (x_s, e, b, q) instead (see
    :func:`_mapped`): the sinh map from the narrowest feature, composed,
    where both ends or an end and the inside have one, with the map that
    clusters both ends at the wider end's scale (x_s then comes pulled back
    through it, None if nothing is left narrow); q is pi - hi to full
    precision (two Newton steps on V = eps), for the angles next to hi.

    The features: a saddle inside [lo, hi], delta = eps - V_s below the
    level, is a stretch of width w = sqrt(2 delta / G0'); on a circuit its
    width in x is w sin(theta_s), or w^2 / 4 for a saddle at a pole, an
    end.  At kappa != 0 an end is as narrow as it is near its pole.  The
    end of a level just below a saddle is no feature: x = y resolves it
    (down to 3e-13 below a saddle by 8 192 nodes) with its nodes farther
    from the turning point, where eps - V has the fewest digits, than a
    sinh map's.
    """
    if circuit:
        if (lo, hi) != (0.0, math.pi):
            return None
        h, found = 1.0, []
    else:
        h = 0.5 * (hi - lo)
        found = [] if kappa == 0.0 else [(-1.0, lo / h), (1.0, (math.pi - hi) / h)]
    for th_s, v_s, g in critical_points(kappa, p).saddles:
        w = math.sqrt(2.0 * abs(eps - v_s) / g)
        if circuit:
            x_s = -math.cos(th_s)
            found.append((x_s, 0.25 * w * w if abs(x_s) == 1.0 else w * math.sin(th_s)))
            continue
        if lo < th_s < hi:
            found.append(((th_s - lo) / h - 1.0, w / h))
    # narrower than _MAP_WIDTH in u
    narrow = [(x, max(e, _EPS_MACH)) for x, e in found
              if e < _MAP_WIDTH * math.sqrt(max(1.0 - x * x, 2.0 * e))]
    if not narrow:
        return None
    width = lambda f: f[1] / math.sqrt(max(1.0 - f[0] * f[0], 2.0 * f[1]))   # in u
    ends = [f for f in narrow if abs(f[0]) == 1.0]
    sides = {x for x, _ in ends}
    b = None
    if ends and (len(narrow) > len(ends) or len(sides) == 2):
        # both ends at the scale of the wider one; the features left, the
        # narrower end among them, pulled back through that map
        b = 0.5 * math.asinh(2.0 / max(min(e for x, e in ends if x == s) for s in sides))
        t = math.tanh(b)
        narrow = [(z, e * t * math.cosh(b * z) ** 2 / b) for z, e in
                  ((x if abs(x) == 1.0 else math.atanh(x * t) / b, e) for x, e in narrow)]
        narrow = [f for f in narrow if width(f) < _MAP_WIDTH]
    x_s, e = min(narrow, key=width) if narrow else (None, 0.0)
    # V as a function of q = pi - theta has the slope G0
    q = math.pi - hi + _PI_LO
    for _ in range(2):
        s, c = math.sin(q), -math.cos(q)
        Z = surface_z(s * s, c, p)
        g = surface_g0(s, s * s, c, Z, kappa, p)
        if g != 0.0:
            q -= (surface_u(c, Z, p) + _centrifugal(s * s, kappa) - eps) / g
    return x_s, e, b, q


def _mapped(
    node_map: tuple, u: np.ndarray, cos_u: np.ndarray, sin_u: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """(1 + x, 1 - x, dx/du) at the nodes u of a map of :func:`_node_map`,
    free of cancellation from 1 + y = 2 sin^2(u/2) and 1 - y = 2 cos^2(u/2)
    on: x = x_s + e sinh(a + c y), with x(-1) = -1 and x(1) = 1, and then
    x = tanh(b z) / tanh(b), b = asinh(2/e) / 2, which puts its nodes as
    densely at each end as the sinh map from that end."""
    opx, omx, dx = 2.0 * np.sin(0.5 * u) ** 2, 2.0 * np.cos(0.5 * u) ** 2, sin_u
    x_s, e, b, _ = node_map
    if x_s is not None:
        ap, am = math.asinh((1.0 - x_s) / e), math.asinh((1.0 + x_s) / e)
        a, c = 0.5 * (ap - am), 0.5 * (ap + am)
        opx, omx, dx = (2.0 * e * np.cosh(a - 0.5 * c * omx) * np.sinh(0.5 * c * opx),
                        2.0 * e * np.cosh(a + 0.5 * c * opx) * np.sinh(0.5 * c * omx),
                        e * c * np.cosh(a - c * cos_u) * dx)
    if b is not None:
        bz = 0.5 * b * (opx - omx)
        scale = math.sinh(b) * np.cosh(bz)
        opx, omx, dx = (np.sinh(b * opx) / scale, np.sinh(b * omx) / scale,
                        b / math.tanh(b) / np.cosh(bz) ** 2 * dx)
    return opx, omx, dx


def _half_nodes(
    kappa: float, eps: float, p: Params, lo: float, hi: float, circuit: bool,
    node_map: tuple | None, rungs: tuple[int, ...],
) -> list[_Nodes]:
    """The integrands between lo and hi on the map node_map of
    :func:`_node_map` for each of rungs, the first rungs of the pass from
    rungs[0] (see :func:`_passes`), in one array pass on their nodes; the
    rungs before the first with a node off the level.

    Every array of the pass is elementwise in its nodes, and a numpy ufunc
    gives an element the same bits whatever the array's length and the
    element's place in it: each rung's slice of the pass is, bit for bit,
    what a pass of that rung alone gives.
    """
    size = sum(rungs)
    u, cos_u, sin_u = (a[:size] for a in _node_table(rungs[0])[1:4])
    ends = None
    if node_map is not None:
        opx, omx, dx = _mapped(node_map, u, cos_u, sin_u)
        lower = opx <= omx
        if circuit:
            # -cos(theta) = x: 1 + x = 2 sin^2(theta/2), 1 - x = 2 cos^2(theta/2)
            half = 2.0 * np.arcsin(np.sqrt(0.5 * np.minimum(opx, omx)))
            th = np.where(lower, half, math.pi - half)
            jac = dx / np.sqrt(opx * omx)
        else:
            # each angle from its nearer end: theta next to lo, q = pi - theta
            # next to hi, sin and cos alike, so that an end next to a pole
            # keeps its digits
            h = 0.5 * (hi - lo)
            q = node_map[3] + h * omx
            th = np.where(lower, lo + h * opx, math.pi - q)
            s = np.where(lower, np.sin(th), np.sin(q))
            c = np.where(lower, np.cos(th), -np.cos(q))
            jac = h * dx
            ends = opx, omx
    elif circuit:
        jac = np.full(size, (hi - lo) / math.pi)
        th = lo + jac * u
    else:
        h = 0.5 * (hi - lo)
        th = (lo + h) - h * cos_u
        jac = h * sin_u
    if ends is None:
        s = np.sin(th); c = np.cos(th)
        ang = th
    else:
        ang = np.where(lower, th, q)   # the angle whose rounding theta carries
    s2 = s * s
    Z = surface_z(s2, c, p)
    U = surface_u(c, Z, p)
    gap = eps - (U + _centrifugal(s2, kappa))
    on = gap > 0.0
    if not on.all():
        # keep the rungs before the first node off the level, so that no
        # square root below sees a gap <= 0
        kept = int(np.searchsorted(np.cumsum(rungs), np.argmin(on), "right"))
        rungs, size = rungs[:kept], sum(rungs[:kept])
        if not rungs:
            return []
        s, s2, c, Z, U, gap, jac, ang = (a[:size] for a in (s, s2, c, Z, U, gap, jac, ang))
        if ends is not None:
            ends = opx[:size], omx[:size]
    G = surface_g0(s, s2, c, Z, kappa, p)
    B, dB = surface_b(s, s2, c, Z, p)
    J = surface_j(s2, c, U, p)
    dt = jac * np.sqrt(B / (2.0 * gap))
    # eps - V carries the rounding of V and that of theta times the slope
    # V' = -G, both magnified where the gap is small; the sums carry their
    # own rounding
    rel = (_EPS_MACH * (4.0 * max(1.0, abs(eps)) + np.abs(ang * G)) / gap
           + 32.0 * _EPS_MACH)
    dpsi = spin = None
    if kappa != 0.0:
        js = J * s
        dpsi = (-kappa) * c / (js * s) * dt
        spin = kappa / js * dt
    out, stop = [], 0
    for n in rungs:
        cut = slice(stop, stop + n)
        stop += n
        out.append(_Nodes(
            du=math.pi / n, dth=jac[cut], dt=dt[cut],
            dpsi=None if dpsi is None else dpsi[cut], spin=None if spin is None else spin[cut],
            U=U[cut], rel=rel[cut], terms=tuple(a[cut] for a in (s, s2, c, Z, J, B, dB, G, gap)),
            ends=None if ends is None else (ends[0][cut], ends[1][cut])))
    return out


def _midpoint_sums(nodes: _Nodes) -> tuple[float, float, float, float]:
    """Midpoint sums of the half-period time and precession, and the size
    of their rounding errors."""
    du, dt, rel = nodes.du, nodes.dt, nodes.rel
    t = float(dt.sum()) * du
    t_floor = float((dt * rel).sum()) * du
    if nodes.dpsi is None:
        return t, 0.0, t_floor, 0.0
    dpsi = nodes.dpsi
    return t, float(dpsi.sum()) * du, t_floor, float((np.abs(dpsi) * rel).sum()) * du


def _doublings(
    kappa: float, eps: float, p: Params, lo: float, hi: float, circuit: bool,
    node_map: tuple | None, n: int = _N_START,
) -> Iterator[tuple[_Nodes, tuple[float, float, float, float]]]:
    """(nodes, midpoint sums) for n, 2n, ... up to the node cap, between lo
    and hi on the level's node map node_map (:func:`_node_map`); stops
    early when a node falls off the level.

    The rungs come from :func:`_half_nodes` a pass at a time, the small ones
    several to a pass (see _PASS_NODES): the nodes of n and 2n midpoints are
    disjoint, so a pass evaluates the integrands on their concatenation and
    each rung sums its own slice.  That changes no bit: the integrands are
    elementwise, and a contiguous slice sums as an array of its own does.
    The rungs, their order and the rung the caller stops at stay the same;
    a rung the caller never reaches may be computed in the pass all the same.

    On a libration theta = m + h x(y), y = -cos(u), over u in [0, pi]
    cancels the (theta - lo)(hi - theta) factor of eps - V; on half a
    meridian circuit theta runs linearly from lo to hi, where the integrand
    is even, or -cos(theta) = x(y) cancels the sin(theta) of dtheta.  Either
    way the integrands are smooth, even, 2 pi-periodic functions of u, so
    midpoint rules converge geometrically.
    """
    for rungs in _passes(n, _N_CAP):
        batch = _half_nodes(kappa, eps, p, lo, hi, circuit, node_map, rungs)
        for nodes in batch:
            yield nodes, _midpoint_sums(nodes)
        if len(batch) < len(rungs):
            return


def _return_end(fun: Callable, t: float, y: np.ndarray, k: int,
                end: float) -> tuple[float, np.ndarray]:
    """The state y of a run at time t moved to first order, by one call of
    its field fun, to where y[k] reaches end: (t + dt, y + y' dt)."""
    dy = fun(t, y)
    dt = (end - y[k]) / dy[k]
    return t + dt, y + dy * dt


def _ode_half_period(
    kappa: float, eps: float, p: Params, lo: float, hi: float, circuit: bool,
    tol_abs: float, tol_rel: float, max_steps: int,
) -> tuple[float, float]:
    """(t, psi) of the half oscillation by DOP853 on the augmented system:
    from the turning point lo, or on a circulating level from lo, a pole, at
    the circulation speed, to where it returns.  The oracle ``verify`` and
    the tests hold :func:`half_period` to.  The run takes the quadrature's
    T/2 only as the first time to stop at, and :func:`_return_end` moves its
    end to where the return residual, p_theta on a libration and theta - hi
    on a circuit, vanishes.  That leaves an error cubic in the move, which
    1e-12 from a saddle, where T/2 is known to about 1e-3, is 1e-6: so a leg
    runs on to each moved end and moves it again, and the last move smaller
    than the one before gives the answer.  Within about 1e-12 of a
    pole-maximum level a circuit run can turn back short of hi: a p_theta
    that changes sign on the way ends it with an IntegrationError."""
    rate = 0.0
    if circuit:
        rate = math.sqrt(2.0 * (eps - effective_potential(lo, kappa, p))
                         / profile(lo, p, pole_mode=True).B)
    fun = augmented_field(kappa, p)
    k, end = (0, hi) if circuit else (1, 0.0)
    t, y = 0.0, (lo, rate, 0.0, 0.0, 0.0, 0.0)
    t_end = half_period(kappa, eps, p, lo, hi, circuit=circuit).t
    last, found = math.inf, (math.nan, math.nan)
    while True:
        traj = integrate("augmented", y, (t, t_end), p, kappa=kappa, tol_abs=tol_abs,
                         tol_rel=tol_rel, max_steps=max_steps)
        if circuit and (traj.y[:, 1] < 0.0).any():
            raise IntegrationError(
                f"the meridian circuit of the level (kappa={kappa}, eps={eps}) turned back at "
                f"theta={traj.y[:, 0].max()}, short of {hi}; level too close to a "
                "pole-maximum level"
            )
        t, y = t_end, traj.y[-1]
        t_end, y_end = _return_end(fun, t, y, k, end)
        if not abs(t_end - t) < last:
            return found
        last, found = abs(t_end - t), (t_end, float(y_end[2]))


def half_period(
    kappa: float,
    eps: float,
    p: Params,
    lo: float,
    hi: float,
    *,
    circuit: bool = False,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> HalfPeriod:
    """Time and precession from the turning point lo to the turning point hi.

    The turning points are taken as given: :func:`.dynamics.
    component_intervals` polishes them to the rounding of V and checks them.
    For a kappa = 0 component crossing a pole, lo and hi are the turning
    points in the extended meridian chart.  With ``circuit`` set, the level
    circulates (kappa = 0) and lo and hi are instead two points the
    potential is even about, such as the poles 0 and pi: the half period is
    then the time from lo to hi, half the meridian circuit.

    A midpoint rule on the level's node map doubles its nodes until two
    rungs agree (see :func:`_doublings` and :func:`_half_period`), and the
    result records the node count it converged at.  The rungs of 16, 32
    and 64 nodes are evaluated in one array pass, bit for bit as one at a
    time: the integrands are elementwise, and each rung sums its own slice.
    The observables of a level share its half period, so the process keeps
    the last _HALF_PERIOD_CACHE results.

    Raises IntegrationError if the rungs do not agree by the node cap of
    2^14 nodes, or a node falls off the level first: on a saddle level
    itself, where the half period diverges.
    """
    return _half_period(float(kappa), float(eps), p, float(lo), float(hi), bool(circuit),
                        float(tol_abs), float(tol_rel))


def _psi_slope(kappa: float, eps: float, p: Params, hp: HalfPeriod) -> tuple[float, float]:
    """d psi / d eps of the half period hp of a libration at kappa != 0,
    and an estimate of its absolute error, on hp's ends and node map.

    The sums of :func:`_half_period` differentiated at fixed u: the turning
    points move as d lo / d eps = -1 / G0(lo) (and so hi), and
    d(eps - V)/d eps = 1 + G0 d theta/d eps vanishes with eps - V at both
    ends, so the summand stays smooth.  Summed on hp's rung and the n/2
    nodes below it, in one pass where both are small, whose difference (or
    the rounding, where larger) is the error.  The node map stays fixed as
    eps moves: at fixed x, d theta/d eps = d lo/d eps + (1 + x) dh/d eps.
    """
    lo, hi, _, node_map = hp.grid
    lo_e, hi_e = -1.0 / g0(lo, kappa, p), -1.0 / g0(hi, kappa, p)
    h, h_e = 0.5 * (hi - lo), 0.5 * (hi_e - lo_e)
    sums = []
    for rungs in _passes(hp.n // 2, hp.n):
        for nodes in _half_nodes(kappa, eps, p, lo, hi, False, node_map, rungs):
            if nodes.ends is None:
                n = len(nodes.dt)
                th_e = 0.5 * (lo_e + hi_e) - h_e * _node_table(n)[2][:n]
            else:
                opx, omx = nodes.ends
                th_e = np.where(opx <= omx, lo_e + h_e * opx, hi_e - h_e * omx)
            s, s2, c, Z, J, B, dB, G, gap = nodes.terms
            # d(dpsi/dt)/dtheta, with dpsi/dt = dpsi/du / (dt/du)
            w_th = kappa / (J * s) - nodes.dpsi / nodes.dt * (
                surface_j_prime(s, s2, c, Z, nodes.U, J, p) / J + 2.0 * c / s)
            f = (nodes.dpsi * (h_e / h + 0.5 * dB / B * th_e - 0.5 * (1.0 + G * th_e) / gap)
                 + nodes.dt * w_th * th_e)
            # f divides by eps - V once and a half; 1 + G0 theta_e has its own rounding
            floor = (2.0 * np.abs(f) * nodes.rel
                     + np.abs(nodes.dpsi) * (1.0 + np.abs(G * th_e)) * _EPS_MACH / gap)
            sums.append((float(f.sum()) * nodes.du, float(floor.sum()) * nodes.du))
    return sums[1][0], max(abs(sums[1][0] - sums[0][0]), sums[1][1])


@functools.lru_cache(maxsize=_HALF_PERIOD_CACHE)
def _half_period(
    kappa: float, eps: float, p: Params, lo: float, hi: float, circuit: bool,
    tol_abs: float, tol_rel: float,
) -> HalfPeriod:
    """The node-doubling midpoint rule of :func:`half_period`.

    The error estimate is the difference between the sums of n and of n/2
    nodes, or the rounding error of the sums where that is larger; the
    doubling stops once the difference meets tol_abs + tol_rel |value| or
    falls below the rounding error.  The rounding error stays below 1e-12
    relative on generic levels and grows as eps - V shrinks: close to a
    critical level it limits err.
    """
    grid = lo, hi, circuit, _node_map(kappa, eps, p, lo, hi, circuit)
    prev = None
    for nodes, (t, psi, t_floor, psi_floor) in _doublings(kappa, eps, p, *grid):
        if prev is not None:
            t_err = max(abs(t - prev[0]), t_floor)
            psi_err = max(abs(psi - prev[1]), psi_floor)
            if (t_err <= max(tol_abs + tol_rel * abs(t), t_floor)
                    and psi_err <= max(tol_abs + tol_rel * abs(psi), psi_floor)):
                return HalfPeriod(t=t, psi=psi, t_err=t_err, psi_err=psi_err,
                                  n=len(nodes.dt), grid=grid)
        prev = t, psi
    raise IntegrationError(
        f"the half period of the level (kappa={kappa}, eps={eps}) did not converge by "
        f"{_N_CAP} nodes; level too close to a critical value")


def _cumulative(f: np.ndarray, k_div: np.ndarray) -> tuple[float, np.ndarray]:
    """int_0^u f at the M midpoint nodes u_j = (j + 1/2) 2 pi / M of a full
    period, for f periodic and even, sampled there; k_div from :func:`_node_table`.

    Returns (a, r): the integral is a u_j + r_j, with a the mean of f and r
    the integral of the trigonometric interpolant of f - a (coefficients
    divided by i k), periodic and odd, so that it starts from 0 at u = 0.
    """
    X = np.fft.fft(f)
    a = float(X[0].real) / len(f)
    X[0] = 0.0
    return a, np.fft.ifft(X / (1j * k_div)).real


def _phase_integral(w, u):
    """int_0^u e^{i w s} ds = (e^{i w u} - 1) / (i w), in a form that stays
    exact as w tends to 0."""
    return u * np.exp(0.5j * w * u) * np.sinc(0.5 * w * u / math.pi)


def _one_period(
    nodes: _Nodes, circuit: bool, psi_floor: float,
) -> tuple[complex, float, float, Callable[[], np.ndarray]]:
    """(D, length, floor, path) on the 2n full-circle nodes: the drift
    D = z(2 pi), the path length, the rounding error of D, and a function
    that returns the path z at the nodes.

    The second half of the period retraces the first in theta, so each
    integrand there is the mirror image of the first half's, with dtheta/du
    odd on a libration.  psi = a u + r(u) with r periodic (the spectral
    cumulative sum), and dz/du = e^{i a u} h(u) with h periodic.  With the
    Fourier coefficients q_k of h, z(u) = sum_k q_k (e^{i w_k u} - 1)/(i w_k),
    w_k = a + k, exactly for the interpolant of h and for any a: one FFT
    gives the q_k, one inverse FFT z at the nodes (a Filon-type rule).  The
    term with the smallest |w_k| is summed on its own, by
    :func:`_phase_integral`.
    """
    du, _, _, _, k, k_div, shift, _ = _node_table(len(nodes.dt))
    M = 2 * len(nodes.dt)

    def mirror(a: np.ndarray, sign: float = 1.0) -> np.ndarray:
        return np.concatenate((a, sign * a[::-1]))

    dth = mirror(nodes.dth, 1.0 if circuit else -1.0)
    U = mirror(nodes.U)
    if nodes.dpsi is None:
        a, r = 0.0, np.zeros(M)
        v = -1j * U * dth
        spin_floor = 0.0
    else:
        a, r = _cumulative(mirror(nodes.dpsi), k_div)
        spin = mirror(nodes.spin)
        v = -U * (spin + 1j * dth)
        spin_floor = float(np.abs(U * spin * mirror(nodes.rel)).sum()) * du
    length = float(np.abs(v).sum()) * du
    # the phase carries the rounding of psi, twice that of its half period
    floor = spin_floor + (2.0 * psi_floor + 32.0 * _EPS_MACH) * length

    X = np.fft.fft(v * np.exp(1j * r))         # q_k = X_k shift_k / M
    X[M // 2] = 0.0                           # the Nyquist term
    w = a + k
    near = int(np.argmin(np.abs(w)))
    w_near, q_near = float(w[near]), complex(X[near] * shift[near]) / M
    X[near] = 0.0
    w[near] = 1.0
    R = X / (1j * w)
    C = complex(np.sum(R * shift)) / M        # sum of q_k / (i w_k) but the near one
    turn = 2.0 * math.pi * a
    D = ((complex(math.cos(turn), math.sin(turn)) - 1.0) * C
         + q_near * complex(_phase_integral(w_near, 2.0 * math.pi)))

    def path() -> np.ndarray:
        u = (np.arange(M) + 0.5) * du
        return np.exp(1j * a * u) * np.fft.ifft(R) - C + q_near * _phase_integral(w_near, u)

    return D, length, floor, path


def _period_map(
    kappa: float, eps: float, p: Params, hp: HalfPeriod, tol_abs: float, tol_rel: float,
) -> PeriodMap:
    """:func:`period_map` of the half period hp, computed with the same
    tolerances, on hp's ends and node map.

    The node doubling goes on from the n/2 nodes below the rung hp
    converged at, until D agrees with the D of half the
    nodes to tol_abs + tol_rel times the path length, or to its rounding
    error.  Where D does not by the node cap, or a node of the next rung
    falls off the level, the last rung is returned with its larger err.
    """
    prev_D = None
    for nodes, cur in _doublings(kappa, eps, p, *hp.grid, hp.n // 2):
        D, length, floor, path = _one_period(nodes, hp.grid[2], cur[3])
        if prev_D is not None:
            err = max(abs(D - prev_D), floor)
            if err <= max(tol_abs + tol_rel * length, floor):
                break
        prev_D = D
    return PeriodMap(T=2.0 * hp.t, dpsi=2.0 * hp.psi, D=D, err=err, z=path())


def _component(
    kappa: float, eps: float, p: Params, branch: int,
) -> tuple[float, float, tuple[float, float, bool] | None]:
    """(lo, hi, ends): the branch's component [lo, hi] of the level, set up
    once for every observable of it, with ends = (theta_min, theta_max,
    circuit), the ends :func:`half_period` takes for it, or None where the
    component is a relative equilibrium.

    A kappa = 0 component reaching both poles circulates: half its circuit
    runs from 0 to pi.  One reaching a single pole crosses it, and its
    turning points lie in the extended meridian chart, mirrored through
    that pole.  Raises ValueError where the level has no admissible motion
    or ``branch`` is out of range.
    """
    ivs = component_intervals(kappa, eps, p)
    if not ivs:
        raise ValueError(f"no admissible motion at kappa={kappa}, eps={eps}")
    if not 0 <= branch < len(ivs):
        raise ValueError(f"branch {branch} out of range, {len(ivs)} component(s)")
    lo, hi = ivs[branch]
    if hi - lo <= FP_WIDTH:
        return lo, hi, None
    touches_0, touches_pi = lo == 0.0, hi == math.pi   # kappa = 0 alone reaches a pole
    if touches_0 and touches_pi:
        return lo, hi, (0.0, math.pi, True)
    return lo, hi, (-hi if touches_0 else lo, 2.0 * math.pi - lo if touches_pi else hi, False)


def period_map(kappa: float, eps: float, p: Params, branch: int = 0) -> PeriodMap:
    """The planar path over one nutation period of the level (kappa, eps).

    Runs on the nodes of :func:`half_period`'s quadrature over the full
    circle (see :func:`_one_period`), doubled on from the half period's
    rung until D converges as well (see :func:`_period_map`).  ``branch`` selects the
    component as in :func:`section_period`; the path starts at the lower
    turning point, or at the pole 0 on a meridian circuit.

    Raises
    ------
    ValueError
        If the level has no admissible motion, ``branch`` is out of range
        or the component is a relative equilibrium (no nutation period).
    IntegrationError
        If the half period does not converge by the node cap (see
        :func:`half_period`).
    """
    ends = _component(kappa, eps, p, branch)[2]
    if ends is None:
        raise ValueError(
            f"branch {branch} of the level ({kappa}, {eps}) is a relative equilibrium; "
            "no nutation period"
        )
    hp = half_period(kappa, eps, p, ends[0], ends[1], circuit=ends[2])
    return _period_map(kappa, eps, p, hp, DEFAULT_TOL_ABS, DEFAULT_TOL_REL)


@dataclass(frozen=True)
class SectionPeriod:
    """Nutation period data of one admissible component.

    For librations theta_min/theta_max are the turning points; for a
    kappa = 0 component crossing a pole they are reported in the extended
    meridian chart (theta_min < 0 or theta_max > pi) with pole_crossing set.
    Circulating kappa = 0 motions report the full meridian circuit time.
    Degenerate components (relative equilibria) carry fixed_point=True and no
    period.  err estimates the absolute error of T_theta.
    """

    T_theta: float | None
    theta_min: float | None
    theta_max: float | None
    fixed_point: bool = False
    circulating: bool = False
    pole_crossing: bool = False
    err: float | None = None


def section_period(
    kappa: float,
    eps: float,
    p: Params,
    branch: int = 0,
    *,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> SectionPeriod:
    """Period of the nutation oscillation on the level set (kappa, eps).

    The full period is twice the time between the turning points (by the
    reflection symmetry of the reduced system), computed by
    :func:`half_period`; the meridian circuit takes twice the time from
    theta = 0 to pi.  ``branch`` selects the connected component of the
    admissible region, ordered by theta.  tol_abs and tol_rel are the
    quadrature's stop target.

    Raises
    ------
    ValueError
        If the level has no admissible motion or ``branch`` is out of range.
    IntegrationError
        If the half period does not converge by the node cap (see
        :func:`half_period`).
    """
    lo, hi, ends = _component(kappa, eps, p, branch)
    if ends is None:
        return SectionPeriod(T_theta=None, theta_min=lo, theta_max=hi, fixed_point=True)

    th0, th1, circuit = ends
    hp = half_period(kappa, eps, p, th0, th1, circuit=circuit, tol_abs=tol_abs,
                     tol_rel=tol_rel)
    # a full meridian circuit has no turning points; ends mirrored through a
    # pole lie in the extended chart
    return SectionPeriod(
        T_theta=2.0 * hp.t, theta_min=None if circuit else th0,
        theta_max=None if circuit else th1, circulating=circuit,
        pole_crossing=not circuit and (th0, th1) != (lo, hi), err=2.0 * hp.t_err)
