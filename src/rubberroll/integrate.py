"""Adaptive integration driver, event detection, and reduced-period machinery.

The stepper is an eighth-order embedded Runge-Kutta pair with adaptive error
control and a local dense interpolant (scipy's DOP853), driven one accepted
step at a time so that

  * the vertical unit vector can be renormalized after every accepted step
    (magnitude logged, delivered in the run statistics),
  * section crossings are located on the dense interpolant and refined to
    root tolerance well below 1e-12 in t,
  * the reduced chart can be guarded against pole contact when kappa != 0.

Default tolerances are 1e-12 absolute and 1e-10 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

from .dynamics import (
    FP_WIDTH,
    augmented_field,
    check_turning_point,
    component_intervals,
    effective_potential,
    full_field,
    kinematic_field,
    reduced_field,
)
from .geometry import B_SIGN_DERIVED, profile
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
    n_steps: int = 0
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
        Extra sample times, evaluated on the dense interpolant while
        stepping (memory stays O(len(t_eval)) instead of O(steps)).

    Raises
    ------
    IntegrationError
        On stepper failure or step-budget exhaustion.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    y0 = np.asarray(y0, dtype=float)
    if events and t1 < t0:
        raise ValueError("event detection supports forward integration only")

    solver = DOP853(fun, t0, y0, t1, rtol=tol_rel, atol=tol_abs)
    stats = IntegrationStats()
    ts = [t0]
    ys = [y0.copy()]
    hits: list[EventHit] = []

    eval_times = None
    eval_states: list[np.ndarray] = []
    eval_idx = 0
    if t_eval is not None:
        eval_times = np.asarray(t_eval, dtype=float)

    prev_ev = [spec.fn(t0, y0) for spec in events]
    finished = False

    while not finished:
        if solver.status == "finished":
            break
        if stats.n_steps >= max_steps:
            raise IntegrationError(f"step budget exhausted after {max_steps} steps at t={solver.t}")
        msg = solver.step()
        if solver.status == "failed":
            raise IntegrationError(f"stepper failed at t={solver.t}: {msg}")
        stats.n_steps += 1

        need_dense = bool(events) or (
            eval_times is not None
            and eval_idx < len(eval_times)
            and eval_times[eval_idx] <= solver.t
        )
        dense = solver.dense_output() if need_dense else None

        t_stop = None
        if events:
            nodes = np.linspace(solver.t_old, solver.t, _N_EVENT_NODES)
            node_states = dense(nodes)
            for k, spec in enumerate(events):
                g_prev = prev_ev[k]
                node_vals = [spec.fn(float(tn), node_states[:, i]) for i, tn in enumerate(nodes)]
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
                            lambda tt: spec.fn(tt, dense(tt)), a, b, xtol=1e-14, rtol=8.9e-16
                        )
                        y_hit = dense(t_hit)
                        hits.append(EventHit(label=spec.label, t=float(t_hit), y=np.array(y_hit)))
                        if spec.terminal and (t_stop is None or t_hit < t_stop):
                            t_stop = float(t_hit)
                    g_left = g_right
                prev_ev[k] = node_vals[-1]

        seg_end = solver.t if t_stop is None else t_stop
        if eval_times is not None:
            while eval_idx < len(eval_times) and eval_times[eval_idx] <= seg_end:
                tt = float(eval_times[eval_idx])
                if tt < solver.t_old:   # requested before start: clamp to start state
                    eval_states.append(ys[0].copy())
                else:
                    eval_states.append(np.array(dense(tt)) if dense is not None else solver.y.copy())
                eval_idx += 1

        if t_stop is not None:
            ts.append(t_stop)
            ys.append(np.array(dense(t_stop)))
            finished = True
            break

        y_now = solver.y
        if renorm_slice is not None:
            g = y_now[renorm_slice]
            n = math.sqrt(float(g @ g))
            delta = abs(n - 1.0)
            if delta > stats.max_renorm:
                stats.max_renorm = delta
            if delta > 0.0:
                y_now[renorm_slice] = g / n
                solver.f = solver.fun(solver.t, y_now)

        if guard is not None:
            guard(solver.t, y_now)

        ts.append(float(solver.t))
        ys.append(y_now.copy())

    stats.n_rhs = int(solver.nfev)
    traj = Trajectory(t=np.array(ts), y=np.array(ys), events=hits, stats=stats)
    if eval_times is not None:
        traj.t_eval = eval_times[: len(eval_states)]
        traj.y_eval = np.array(eval_states) if eval_states else np.empty((0, len(y0)))
    return traj


def _pole_guard_factory(kappa: float):
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
    b_sign: str = B_SIGN_DERIVED,
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
        fun = (reduced_field if system == "reduced" else augmented_field)(kappa, p, b_sign)
        renorm = None
        guard = _pole_guard_factory(kappa) if kappa != 0.0 else None
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


@dataclass(frozen=True)
class SectionPeriod:
    """Nutation period data of one admissible component.

    For librations theta_min/theta_max are the turning points; for a
    kappa = 0 component crossing a pole they are reported in the extended
    meridian chart (theta_min < 0 or theta_max > pi) with pole_crossing set.
    Circulating kappa = 0 motions report the full meridian circuit time.
    Degenerate components (relative equilibria) carry fixed_point=True and no
    period.
    """

    T_theta: float | None
    theta_min: float | None
    theta_max: float | None
    fixed_point: bool = False
    circulating: bool = False
    pole_crossing: bool = False


def section_period(
    kappa: float,
    eps: float,
    p: Params,
    branch: int = 0,
    *,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> SectionPeriod:
    """Period of the nutation oscillation on the level set (kappa, eps).

    The orbit starts at a turning point and runs to the next p_theta = 0
    section crossing; the full period is twice that half period, by the
    reflection symmetry of the reduced system.  ``branch`` selects the
    connected component of the admissible region, ordered by theta.
    """
    ivs = component_intervals(kappa, eps, p)
    if not ivs:
        raise ValueError(f"no admissible motion at kappa={kappa}, eps={eps}")
    if not 0 <= branch < len(ivs):
        raise ValueError(f"branch {branch} out of range, {len(ivs)} component(s)")
    lo, hi = ivs[branch]

    if hi - lo <= FP_WIDTH:
        return SectionPeriod(T_theta=None, theta_min=lo, theta_max=hi, fixed_point=True)

    touches_0 = kappa == 0.0 and lo <= 1e-12
    touches_pi = kappa == 0.0 and hi >= math.pi - 1e-12

    if touches_0 and touches_pi:
        # full meridian circuit: no turning points, theta advances by 2 pi
        th0 = math.pi / 2.0
        V0 = effective_potential(th0, 0.0, p)
        pt0 = math.sqrt(2.0 * (eps - V0) / profile(th0, p).B)
        ev = EventSpec("circuit", lambda t, y: y[0] - (th0 + 2.0 * math.pi), direction=+1, terminal=True)
        traj = integrate(
            "reduced", (th0, pt0), (0.0, 1e7), p, kappa=0.0,
            tol_abs=tol_abs, tol_rel=tol_rel, max_steps=max_steps, events=(ev,),
        )
        if not traj.events:
            raise IntegrationError("meridian circuit event not reached")
        return SectionPeriod(
            T_theta=traj.events[-1].t, theta_min=None, theta_max=None, circulating=True,
        )

    if touches_0:
        theta_min, theta_max = -hi, hi
        start = hi
    elif touches_pi:
        theta_min, theta_max = lo, 2.0 * math.pi - lo
        start = lo
    else:
        theta_min, theta_max = lo, hi
        start = lo

    check_turning_point(start, kappa, eps, p)
    ev = EventSpec("section", lambda t, y: y[1], direction=0, terminal=True)
    traj = integrate(
        "reduced", (start, 0.0), (0.0, 1e7), p, kappa=kappa,
        tol_abs=tol_abs, tol_rel=tol_rel, max_steps=max_steps, events=(ev,),
    )
    if not traj.events:
        raise IntegrationError("section return not reached before the time cap")
    half = traj.events[-1].t
    return SectionPeriod(
        T_theta=2.0 * half,
        theta_min=theta_min,
        theta_max=theta_max,
        pole_crossing=touches_0 or touches_pi,
    )
