"""Adaptive integration driver, event detection, and reduced-period machinery.

The stepper is DOP853, the eighth-order embedded Runge-Kutta pair of
Hairer, Norsett and Wanner (Solving ODEs I, II) with adaptive error control
and a local dense interpolant.  :func:`integrate_raw` runs it as an
in-package loop on the DOP853 tableau, written out below, that repeats
scipy's ``DOP853`` solver operation by operation (stage sums, error norm,
step controller, initial step, interpolant), so its results match scipy's
bit for bit; the tests keep scipy's solver as the oracle.  The loop calls
the right-hand side directly, builds the three extra interpolant stages only
on steps that need them, and evaluates all sample times of a step in one
array call.  It goes one accepted step at a time so that

  * the vertical unit vector can be renormalized after every accepted step
    (magnitude logged, delivered in the run statistics),
  * section crossings are located on the dense interpolant and refined to
    root tolerance well below 1e-12 in t,
  * the reduced chart can be guarded against pole contact when kappa != 0.

Default tolerances are 1e-12 absolute and 1e-10 relative.  Each run reports
an :class:`IntegrationStats`: accepted steps ``n_steps``, rejected step
attempts ``n_rejected``, right-hand-side evaluations ``n_rhs`` and the
largest renormalization ``max_renorm``.

The per-level observables (:func:`section_period` here, the rotation number
in :mod:`.reconstruct`) need no stepping: the time and the precession from
one turning point to the other are the quadratures

    T/2 = int sqrt(B / 2(eps - V)) dtheta,
    psi/2 = int psi_dot sqrt(B / 2(eps - V)) dtheta,
    psi_dot = -kappa cos(theta) / (J sin^2(theta)),

which :func:`half_period` evaluates by a node-doubling midpoint rule.  The
planar path over one period continues the same node ladder:
:func:`period_map` integrates d(x_c + i y_c)/dt over the whole period by a
spectral cumulative sum and a Filon-type FFT rule, which gives the drift D
the center of mass makes per period.  Past the node cap the stepper
integrates the half period instead, and the reflection symmetry of the
reduced flow gives the second half of the period from the first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .brent import brentq
from .dynamics import (
    FP_WIDTH,
    augmented_field,
    check_turning_point,
    effective_potential,
    full_field,
    g0,
    inertia_grid,
    kinematic_field,
    potential_grid,
    reduced_field,
    turning_points,
)
from .geometry import profile
from .model import Params

__all__ = [
    "IntegrationError",
    "PoleError",
    "EventSpec",
    "EventHit",
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

DEFAULT_TOL_ABS = 1e-12
DEFAULT_TOL_REL = 1e-10
DEFAULT_MAX_STEPS = 2_000_000


class IntegrationError(RuntimeError):
    """Numerical failure: step-size underflow or step budget exhausted."""


class PoleError(IntegrationError):
    """Reduced chart reached a coordinate pole with kappa != 0."""


@dataclass(frozen=True)
class EventSpec:
    """Scalar event g(t, y) located on sign changes of the dense output."""

    label: str
    fn: Callable[[float, np.ndarray], float]
    direction: int = 0       # +1 rising only, -1 falling only, 0 both
    terminal: bool = False


@dataclass(frozen=True)
class EventHit:
    label: str
    t: float
    y: np.ndarray


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
    """Accepted-step samples plus optional uniform samples and events."""

    t: np.ndarray
    y: np.ndarray                       # shape (len(t), dim)
    events: list[EventHit] = field(default_factory=list)
    stats: IntegrationStats = field(default_factory=IntegrationStats)
    t_eval: np.ndarray | None = None
    y_eval: np.ndarray | None = None     # shape (len(t_eval), dim)

    @property
    def t_final(self) -> float:
        return float(self.t[-1])

    @property
    def y_final(self) -> np.ndarray:
        return self.y[-1]


_N_EVENT_NODES = 5    # dense-output subdivisions per step scanned for events

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
        if h_abs < min_step:
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
        err5_norm_2 = np.sqrt(err5.dot(err5)) ** 2
        err3_norm_2 = np.sqrt(err3.dot(err3)) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            error_norm = 0.0
        else:
            denom = err5_norm_2 + 0.01 * err3_norm_2
            error_norm = abs(h) * err5_norm_2 / np.sqrt(denom * len(y))
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


def _interpolate(F, t_old, h, y_old, t):
    """DOP853 dense output over one step at a time t or an array of times
    (one row per time); F None stands for a step of length zero."""
    if F is None:
        return y_old.copy() if np.ndim(t) == 0 else np.tile(y_old, (len(t), 1))
    x = (t - t_old) / h
    if np.ndim(t) == 0:
        y = np.zeros_like(y_old)
    else:
        x = x[:, None]
        y = np.zeros((len(x), len(y_old)))
    xm = 1 - x
    for i in range(len(F) - 1, -1, -1):
        y += F[i]
        y *= x if i % 2 == 0 else xm
    y += y_old
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
    events: Sequence[EventSpec] = (),
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
    events : sequence of EventSpec
        Located on the per-step dense interpolant (forward integration only)
        and refined by bracketed root solving.  A terminal event truncates
        the run at the crossing.
    guard : callable, optional
        Called after every accepted step; may raise to abort.
    t_eval : array, optional
        Extra sample times (forward integration only), evaluated on the
        dense interpolant while stepping (memory stays O(len(t_eval))
        instead of O(steps)).

    Raises
    ------
    ValueError
        On a non-finite start state, t_eval or events on a backward run, a
        negative tol_abs, or tol_abs = 0 with a zero start component.
    IntegrationError
        On stepper failure or step-budget exhaustion.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.array(y0, dtype=float)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("the initial state must be a finite 1-D vector")
    if events and t1 < t0:
        raise ValueError("event detection supports forward integration only")
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
    hits: list[EventHit] = []

    eval_times = None
    eval_list: list[float] = []
    eval_chunks: list[np.ndarray] = []
    eval_idx = 0
    if t_eval is not None:
        eval_times = np.asarray(t_eval, dtype=float)
        eval_list = eval_times.tolist()
    n_eval = len(eval_list)

    prev_ev = [spec.fn(t0, y) for spec in events]

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

        F = None
        if not zero_length and (events or (eval_idx < n_eval and eval_list[eval_idx] <= t)):
            F = _dense_coefficients(fun, t_old, h, y_old, y_new, f_new, K_ext, extra)
            n_rhs += len(extra)

        t_stop = None
        if events:
            nodes = np.linspace(t_old, t, _N_EVENT_NODES)
            node_states = _interpolate(F, t_old, h, y_old, nodes)
            for k, spec in enumerate(events):
                g_prev = prev_ev[k]
                node_vals = [spec.fn(float(tn), node_states[i]) for i, tn in enumerate(nodes)]
                g_left = g_prev
                for i in range(1, _N_EVENT_NODES):
                    g_right = node_vals[i]
                    trig = g_left * g_right < 0.0
                    if trig and spec.direction > 0:
                        trig = g_left < g_right
                    if trig and spec.direction < 0:
                        trig = g_left > g_right
                    if trig:
                        a, b = float(nodes[i - 1]), float(nodes[i])
                        t_hit = brentq(
                            lambda tt: spec.fn(tt, _interpolate(F, t_old, h, y_old, tt)),
                            a, b, xtol=1e-14,
                        )
                        y_hit = _interpolate(F, t_old, h, y_old, t_hit)
                        hits.append(EventHit(label=spec.label, t=float(t_hit), y=y_hit))
                        if spec.terminal and (t_stop is None or t_hit < t_stop):
                            t_stop = float(t_hit)
                    g_left = g_right
                prev_ev[k] = node_vals[-1]

        seg_end = t if t_stop is None else t_stop
        if eval_idx < n_eval and eval_list[eval_idx] <= seg_end:
            j = eval_idx + 1
            while j < n_eval and eval_list[j] <= seg_end:
                j += 1
            chunk = eval_times[eval_idx:j]
            vals = _interpolate(F, t_old, h, y_old, chunk)
            # requested before the start: clamp to the start state
            vals[chunk < t_old] = ys[0]
            eval_chunks.append(vals)
            eval_idx = j

        if t_stop is not None:
            ts.append(t_stop)
            ys.append(_interpolate(F, t_old, h, y_old, t_stop))
            break

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

        ts.append(float(t))
        ys.append(y_new.copy())
        y, f = y_new, f_new
        if t == t1:
            break

    stats.n_rhs = n_rhs
    traj = Trajectory(t=np.array(ts), y=np.array(ys), events=hits, stats=stats)
    if eval_times is not None:
        traj.t_eval = eval_times[:eval_idx]
        traj.y_eval = np.concatenate(eval_chunks) if eval_chunks else np.empty((0, dim))
    return traj


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
    events: Sequence[EventSpec] = (),
    t_eval: np.ndarray | None = None,
) -> Trajectory:
    """Integrate one of the shipped vector fields.

    system:
      "full"      init = (w1, w2, w3, g1, g2, g3); gamma renormalized per step.
      "kinematic" init = 14-vector (w, gamma, ax, bx, xc, yc); same treatment.
      "reduced"   init = (theta, p_theta), requires kappa; pole-guarded
                  unless kappa = 0, where the smooth meridian extension lets
                  theta run over the whole real line.
      "augmented" init = (theta, p_theta, psi, phi, xc, yc), requires kappa.
    """
    if system == "full":
        fun = full_field(p)
        renorm = slice(3, 6)
        guard = None
    elif system == "kinematic":
        fun = kinematic_field(p)
        renorm = slice(3, 6)
        guard = None
    elif system in ("reduced", "augmented"):
        if kappa is None:
            raise ValueError(f"system={system!r} requires kappa")
        fun = (reduced_field if system == "reduced" else augmented_field)(kappa, p)
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
        events=events,
        guard=guard,
        t_eval=t_eval,
    )


_N_START = 16         # first midpoint rule compared against its doubling
_N_CAP = 2 ** 14      # past this node count the stepper takes over
_EPS_MACH = 2.0 ** -52
_RTOL_FLOOR = 2.3e-14  # about the smallest relative tolerance DOP853 accepts


@dataclass(frozen=True)
class PeriodMap:
    """One nutation period of the planar path, which fixes all of it.

    z = x_c + i y_c starts at 0, with psi = 0, at the lower turning point
    (or at the pole 0 on a meridian circuit).  After each period the path
    repeats the same planar rigid motion, a rotation by dpsi = -2 pi N and
    the translation D: z(s + T) = D + e^{i dpsi} z(s).  T and dpsi are
    twice the time and precession of :func:`half_period`, bit for bit; err
    estimates the absolute error of D.  z holds the path over one period:
    at the quadrature nodes, or past the quadrature's node cap at the
    stepper's steps over the first half and their mirror images over the
    second, from z = 0 to z = D.  For non-integer N the path turns about
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
    of their absolute errors and the method that ran ("quadrature" or
    "ode").  n is the node count at which the quadrature converged (0 on
    the stepper route); period is the period map the stepper route gives
    (None on the quadrature route, where :func:`_period_map` goes on up the
    node ladder)."""

    t: float
    psi: float
    t_err: float
    psi_err: float
    method: str
    n: int = 0
    period: PeriodMap | None = None


def _polish_turning_point(theta: float, kappa: float, eps: float, p: Params) -> float:
    """One Newton step on V(theta) = eps, with V' = -G0.

    The scans resolve a turning point to about 1e-14 in theta, which leaves
    |V - eps| ~ 1e-14 |V'| there; next to the ends the gap eps - V the
    quadrature divides by is not much larger.  The step brings the residual
    down to the rounding of V.
    """
    g = g0(theta, kappa, p)
    if g == 0.0:
        return theta
    return theta + (effective_potential(theta, kappa, p) - eps) / g


@dataclass(frozen=True)
class _Nodes:
    """The integrands of half an oscillation at the n midpoint nodes
    u_j = (j + 1/2) du of u in (0, pi), du = pi / n."""

    du: float
    dth: np.ndarray | float      # dtheta/du
    dt: np.ndarray               # dt/du
    dpsi: np.ndarray | None      # dpsi/du; None at kappa = 0
    spin: np.ndarray | None      # kappa / (J sin(theta)) dt/du; None at kappa = 0
    U: np.ndarray                # height of the center of mass
    rel: np.ndarray              # relative rounding error of eps - V


def _half_nodes(
    kappa: float, eps: float, p: Params, lo: float, hi: float, circuit: bool, n: int,
) -> _Nodes | None:
    """The n-node integrands between lo and hi; None if a node falls off
    the level."""
    du = math.pi / n
    u = (np.arange(n) + 0.5) * du
    if circuit:
        jac = (hi - lo) / math.pi
        th = lo + jac * u
    else:
        h = 0.5 * (hi - lo)
        th = (lo + h) - h * np.cos(u)
        jac = h * np.sin(u)
    V, G, _ = potential_grid(th, kappa, p)
    gap = eps - V
    if not np.all(gap > 0.0):
        return None
    B, J, U = inertia_grid(th, p)
    dt = jac * np.sqrt(B / (2.0 * gap))
    # eps - V carries the rounding of V and that of theta times the slope
    # V' = -G, both magnified where the gap is small; the sums carry their
    # own rounding
    rel = (_EPS_MACH * (4.0 * max(1.0, abs(eps)) + np.abs(th * G)) / gap
           + 32.0 * _EPS_MACH)
    dpsi = spin = None
    if kappa != 0.0:
        s = np.sin(th)
        js = J * s
        dpsi = (-kappa) * np.cos(th) / (js * s) * dt
        spin = kappa / js * dt
    return _Nodes(du=du, dth=jac, dt=dt, dpsi=dpsi, spin=spin, U=U, rel=rel)


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
    n: int = _N_START,
) -> Iterator[tuple[_Nodes, tuple[float, float, float, float]]]:
    """(nodes, midpoint sums) for n, 2n, ... up to the node cap; stops
    early when a node falls off the level.

    On a libration theta = m - h cos(u) over u in [0, pi] cancels the
    (theta - lo)(hi - theta) factor of eps - V; on half a meridian circuit
    theta runs linearly from lo to hi, where the integrand is even.  Either
    way the integrands are smooth, even, 2 pi-periodic functions of u, so
    midpoint rules converge geometrically.
    """
    if not circuit:
        lo = _polish_turning_point(lo, kappa, eps, p)
        hi = _polish_turning_point(hi, kappa, eps, p)
    while n <= _N_CAP:
        nodes = _half_nodes(kappa, eps, p, lo, hi, circuit, n)
        if nodes is None:
            return
        yield nodes, _midpoint_sums(nodes)
        n *= 2


def _quadrature(
    kappa: float, eps: float, p: Params, lo: float, hi: float, circuit: bool,
    tol_abs: float, tol_rel: float,
) -> HalfPeriod | None:
    """Node-doubling midpoint rule; None past the node cap or when a node
    falls off the level.

    The error estimate is the difference between the sums of n and of n/2
    nodes, or the rounding error of the sums where that is larger; the
    doubling stops once the difference meets tol_abs + tol_rel |value| or
    falls below the rounding error.  The rounding error stays below 1e-12
    relative on generic levels and grows as eps - V shrinks: closer than
    about 1e-6 to a critical level it limits err.
    """
    prev = None
    for nodes, (t, psi, t_floor, psi_floor) in _doublings(kappa, eps, p, lo, hi, circuit):
        if prev is not None:
            t_err = max(abs(t - prev[0]), t_floor)
            psi_err = max(abs(psi - prev[1]), psi_floor)
            if (t_err <= max(tol_abs + tol_rel * abs(t), t_floor)
                    and psi_err <= max(tol_abs + tol_rel * abs(psi), psi_floor)):
                return HalfPeriod(t=t, psi=psi, t_err=t_err, psi_err=psi_err,
                                  method="quadrature", n=len(nodes.dt))
        prev = t, psi
    return None


def _ode_half_period(
    kappa: float, eps: float, p: Params, lo: float, hi: float, circuit: bool,
    tol_abs: float, tol_rel: float, max_steps: int,
) -> tuple[float, float, np.ndarray]:
    """(t, psi, z) of the half oscillation by DOP853 on the augmented
    system: from the turning point lo to the next p_theta = 0 crossing, or
    on a circulating level from lo, a pole, at the circulation speed to hi.
    z = x_c + i y_c at the accepted steps, from 0 to the end.  The fallback
    of :func:`half_period` and the oracle its tests check it against."""
    if circuit:
        rate = math.sqrt(2.0 * (eps - effective_potential(lo, kappa, p))
                         / profile(lo, p, pole_mode=True).B)
        ev = EventSpec("half", lambda t, y: y[0] - hi, direction=+1, terminal=True)
    else:
        rate = 0.0
        ev = EventSpec("turn", lambda t, y: y[1], direction=0, terminal=True)
    traj = integrate(
        "augmented", (lo, rate, 0.0, 0.0, 0.0, 0.0),
        (0.0, 1e7), p, kappa=kappa, tol_abs=tol_abs, tol_rel=tol_rel,
        max_steps=max_steps, events=(ev,),
    )
    if not traj.events:
        raise IntegrationError(
            f"no half-period return found before the time cap at kappa={kappa}, eps={eps}; "
            "level too close to a critical value"
        )
    hit = traj.events[-1]
    return hit.t, float(hit.y[2]), traj.y[:, 4] + 1j * traj.y[:, 5]


def _reflect(z, dpsi: float, circuit: bool):
    """The term of z(s) in z(T - s) = D - reflect(z(s)).

    The second half of a period retraces the first in theta, backwards.  On
    a libration psi(T - s) = dpsi - psi(s) and dtheta/dt is odd, so the
    velocity at T - s is e^{i dpsi} times the conjugate of that at s; on a
    meridian circuit (kappa = 0, psi = 0) dtheta/dt is even and the velocity
    repeats.  At s = T/2 this gives D = z_h + reflect(z_h).
    """
    if circuit:
        return z
    return complex(math.cos(dpsi), math.sin(dpsi)) * z.conjugate()


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

    For a kappa = 0 component crossing a pole, lo and hi are the turning
    points in the extended meridian chart.  With ``circuit`` set, the level
    circulates (kappa = 0) and lo and hi are instead two points the
    potential is even about, such as the poles 0 and pi: the half period is
    then the time from lo to hi, half the meridian circuit.

    The quadrature runs first (see :func:`_doublings` and
    :func:`_quadrature`) and records the node count it converged at.  Past
    its node cap the stepper integrates the half period at the given
    tolerances, and a second run 10 times tighter gives the error estimate.
    The two runs also give the period map: the drift D of each from its end
    point (see :func:`_reflect`), err their gap, and the path the loose
    run's steps followed by their mirror images.
    """
    q = _quadrature(kappa, eps, p, lo, hi, circuit, tol_abs, tol_rel)
    if q is not None:
        return q
    t, psi, z = _ode_half_period(kappa, eps, p, lo, hi, circuit, tol_abs, tol_rel,
                                 DEFAULT_MAX_STEPS)
    t_tight, psi_tight, z_tight = _ode_half_period(
        kappa, eps, p, lo, hi, circuit, 0.1 * tol_abs, max(0.1 * tol_rel, _RTOL_FLOOR),
        DEFAULT_MAX_STEPS)
    dpsi = 2.0 * psi
    D = complex(z[-1] + _reflect(z[-1], dpsi, circuit))
    D_tight = complex(z_tight[-1] + _reflect(z_tight[-1], 2.0 * psi_tight, circuit))
    path = np.concatenate((z, (D - _reflect(z[:-1], dpsi, circuit))[::-1]))
    pm = PeriodMap(T=2.0 * t, dpsi=dpsi, D=D, err=abs(D - D_tight), z=path)
    return HalfPeriod(t=t, psi=psi, t_err=abs(t_tight - t), psi_err=abs(psi_tight - psi),
                      method="ode", period=pm)


def _cumulative(f: np.ndarray) -> tuple[float, np.ndarray]:
    """int_0^u f at the M midpoint nodes u_j = (j + 1/2) 2 pi / M of a full
    period, for f periodic and even, sampled there.

    Returns (a, r): the integral is a u_j + r_j, with a the mean of f and r
    the integral of the trigonometric interpolant of f - a (coefficients
    divided by i k), periodic and odd, so that it starts from 0 at u = 0.
    """
    M = len(f)
    k = np.fft.fftfreq(M, 1.0 / M)
    X = np.fft.fft(f)
    a = float(X[0].real) / M
    X[0] = 0.0
    k[0] = 1.0
    return a, np.fft.ifft(X / (1j * k)).real


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
    du = nodes.du
    M = 2 * len(nodes.dt)

    def mirror(a: np.ndarray, sign: float = 1.0) -> np.ndarray:
        return np.concatenate((a, sign * a[::-1]))

    dth = np.full(M, nodes.dth) if circuit else mirror(nodes.dth, -1.0)
    U = mirror(nodes.U)
    if nodes.dpsi is None:
        a, r = 0.0, np.zeros(M)
        v = -1j * U * dth
        spin_floor = 0.0
    else:
        a, r = _cumulative(mirror(nodes.dpsi))
        spin = mirror(nodes.spin)
        v = -U * (spin + 1j * dth)
        spin_floor = float(np.abs(U * spin * mirror(nodes.rel)).sum()) * du
    length = float(np.abs(v).sum()) * du
    # the phase carries the rounding of psi, twice that of its half period
    floor = spin_floor + (2.0 * psi_floor + 32.0 * _EPS_MACH) * length

    k = np.fft.fftfreq(M, 1.0 / M)
    shift = np.exp(-0.5j * du * k)
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
    kappa: float, eps: float, p: Params, lo: float, hi: float, circuit: bool,
    hp: HalfPeriod, tol_abs: float, tol_rel: float,
) -> PeriodMap:
    """:func:`period_map` between the ends :func:`half_period` takes, given
    the half period hp it returned there with the same tolerances.

    On the quadrature route the node doubling goes on from the n/2 nodes
    below the rung hp converged at, until D agrees with the D of half the
    nodes to tol_abs + tol_rel times the path length, or to its rounding
    error.  Where D does not by the node cap, or a node of the next rung
    falls off the level, the last rung is returned with its larger err;
    this is seen at |kappa| below about 1e-6, where the precession peaks
    narrowly at a near-pole end.
    """
    if hp.period is not None:
        return hp.period
    prev_D = None
    for nodes, cur in _doublings(kappa, eps, p, lo, hi, circuit, hp.n // 2):
        D, length, floor, path = _one_period(nodes, circuit, cur[3])
        if prev_D is not None:
            err = max(abs(D - prev_D), floor)
            if err <= max(tol_abs + tol_rel * length, floor):
                break
        prev_D = D
    return PeriodMap(T=2.0 * hp.t, dpsi=2.0 * hp.psi, D=D, err=err, z=path())


def _half_period_ends(
    kappa: float, eps: float, p: Params, lo: float, hi: float,
) -> tuple[float, float, bool]:
    """(theta_min, theta_max, circuit): the ends :func:`half_period` takes
    for the non-degenerate component [lo, hi].

    A kappa = 0 component reaching both poles circulates: half its circuit
    runs from 0 to pi.  One reaching a single pole crosses it, and its
    turning points lie in the extended meridian chart, mirrored through
    that pole.  Every end that is not a pole is checked to be a turning
    point.
    """
    touches_0 = kappa == 0.0 and lo <= 1e-12
    touches_pi = kappa == 0.0 and hi >= math.pi - 1e-12
    if touches_0 and touches_pi:
        return 0.0, math.pi, True
    for end, at_pole in ((lo, touches_0), (hi, touches_pi)):
        if not at_pole:
            check_turning_point(end, kappa, eps, p)
    if touches_0:
        return -hi, hi, False
    if touches_pi:
        return lo, 2.0 * math.pi - lo, False
    return lo, hi, False


def period_map(kappa: float, eps: float, p: Params, branch: int = 0) -> PeriodMap:
    """The planar path over one nutation period of the level (kappa, eps).

    Runs on the nodes of :func:`half_period`'s quadrature over the full
    circle (see :func:`_one_period`), doubled on from the half period's
    rung until D converges as well (see :func:`_period_map`).  Past the
    node cap, about 1e-6 from a saddle level, the two stepper runs of the
    half period give it (see :func:`half_period`).  ``branch`` selects the
    component as in :func:`section_period`; the path starts at the lower
    turning point, or at the pole 0 on a meridian circuit.

    Raises
    ------
    ValueError
        If the level has no admissible motion, ``branch`` is out of range
        or the component is a relative equilibrium (no nutation period).
    IntegrationError
        If, past the node cap, the stepper finds no half-period return.
    """
    lo, hi = turning_points(kappa, eps, p, branch)
    if hi - lo <= FP_WIDTH:
        raise ValueError(
            f"branch {branch} of the level ({kappa}, {eps}) is a relative equilibrium; "
            "no nutation period"
        )
    th0, th1, circuit = _half_period_ends(kappa, eps, p, lo, hi)
    hp = half_period(kappa, eps, p, th0, th1, circuit=circuit)
    return _period_map(kappa, eps, p, th0, th1, circuit, hp, DEFAULT_TOL_ABS,
                       DEFAULT_TOL_REL)


@dataclass(frozen=True)
class SectionPeriod:
    """Nutation period data of one admissible component.

    For librations theta_min/theta_max are the turning points; for a
    kappa = 0 component crossing a pole they are reported in the extended
    meridian chart (theta_min < 0 or theta_max > pi) with pole_crossing set.
    Circulating kappa = 0 motions report the full meridian circuit time.
    Degenerate components (relative equilibria) carry fixed_point=True and no
    period.  err estimates the absolute error of T_theta and method names
    the route that computed it ("quadrature", or "ode" past the quadrature's
    node cap; None for fixed points).
    """

    T_theta: float | None
    theta_min: float | None
    theta_max: float | None
    fixed_point: bool = False
    circulating: bool = False
    pole_crossing: bool = False
    err: float | None = None
    method: str | None = None


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
    quadrature's stop target (and the stepper's tolerances on its fallback).
    """
    lo, hi = turning_points(kappa, eps, p, branch)

    if hi - lo <= FP_WIDTH:
        return SectionPeriod(T_theta=None, theta_min=lo, theta_max=hi, fixed_point=True)

    th0, th1, circuit = _half_period_ends(kappa, eps, p, lo, hi)
    hp = half_period(kappa, eps, p, th0, th1, circuit=circuit, tol_abs=tol_abs,
                     tol_rel=tol_rel)
    if circuit:
        # full meridian circuit: no turning points, theta advances by 2 pi
        return SectionPeriod(
            T_theta=2.0 * hp.t, theta_min=None, theta_max=None, circulating=True,
            err=2.0 * hp.t_err, method=hp.method,
        )
    return SectionPeriod(
        T_theta=2.0 * hp.t,
        theta_min=th0,
        theta_max=th1,
        # mirrored through a pole into the extended chart
        pole_crossing=(th0, th1) != (lo, hi),
        err=2.0 * hp.t_err,
        method=hp.method,
    )
