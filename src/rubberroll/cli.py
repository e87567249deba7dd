"""Command-line front end.

Subcommands
-----------
simulate
    Integrate the reduced (theta, p_theta, kappa) or the full (omega, gamma)
    system and write the absolute-space trajectory CSV.
trajectory
    Absolute-space reconstruction from reduced initial data, with optional
    angle and position seeds.
bifurcation
    Build the labeled (kappa, eps) diagram for (alpha, beta) and write JSON.
rotation-number
    Rotation number N on a point or grid of (kappa, eps); CSV output.
resonance
    Sampled N = -n resonance loci over a kappa range; CSV per n.
classify
    Trajectory class of one (kappa, eps, branch) point; JSON output.
verify
    Self-check suite (conservation, reduction oracle, measure invariance,
    steady-rotation identities, formula arbitration, quadrature and period
    map against the stepper); exit 3 on failure.

Config files given with --config hold ``key = value`` lines whose keys
mirror the long flag names; they replace the option defaults, and explicit
flags win.  All numeric output uses 17 significant digits.  RUBBERROLL_LOG
selects the log level.  Exit codes: 0 success, 1 invalid parameters or
usage, 2 numerical failure, 3 failed verification.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from .model import Params, validate
from .geometry import B_SIGN_DERIVED, B_SIGN_PAPER, profile
from .dynamics import (
    FullState,
    component_intervals,
    critical_thetas,
    effective_potential,
    g0,
    integrals,
    kinematic_init,
    lift,
    measure_density,
    full_field,
    reduce_state,
    reduced_energy,
    reduced_field,
    ReducedState,
)
from .integrate import (
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    IntegrationError,
    PoleError,
    _ode_half_period,
    _pole_guard_factory,
    integrate,
    integrate_raw,
    period_map,
)
from .bifurcation import (
    diagram,
    inclined_equilibrium,
    permanent_rotation,
    sigma_theta_eps,
    sigma_theta_kappa_sq,
)
from .reconstruct import (
    classify,
    epsilon_min,
    path_from_kinematic,
    reconstruct_from_full,
    reconstruct_trajectory,
    resonance_curve,
    rotation_number,
)

log = logging.getLogger("rubberroll")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3

_CSV_HEADER = ["t", "theta", "p_theta", "psi", "phi",
               "x_c", "y_c", "z_c", "x_p", "y_p", "E_drift", "F1_drift"]


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _g(x: float) -> str:
    return format(float(x), ".17g")


def _read_config(path: str) -> dict[str, str]:
    """Parse a key = value config file; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


_CONFIG_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


def _config_cast(action: argparse.Action, text: str):
    """Convert a config value the way the option's flag would."""
    if isinstance(action, argparse._StoreTrueAction):
        if text.lower() not in _CONFIG_BOOLS:
            raise ValueError(text)
        return _CONFIG_BOOLS[text.lower()]
    value = (action.type or str)(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(text)
    return value


def _config_defaults(args: argparse.Namespace, parser: _Parser) -> None:
    """Make the --config file's values the defaults of the subcommand's
    options, so that parsing the command line again lets every given flag
    win; each value is cast by its option's own parser action."""
    try:
        cfg = _read_config(args.config)
    except (OSError, ValueError) as ex:
        parser.error(str(ex))
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    subparser = sub.choices[args.command]
    actions = {a.dest: a for a in subparser._actions}
    defaults = {}
    for key, val in cfg.items():
        action = actions.get(key)
        if action is None or not hasattr(args, key):
            continue
        try:
            defaults[key] = _config_cast(action, val)
        except (ValueError, argparse.ArgumentTypeError):
            parser.error(f"config key {key}: cannot parse {val!r}")
    subparser.set_defaults(**defaults)


def _params(args: argparse.Namespace, parser: _Parser) -> Params:
    vals = {}
    for name in ("alpha", "beta", "nu", "eta"):
        v = getattr(args, name)
        if v is None:
            parser.error(f"--{name} is required")
        vals[name] = v
    p = Params(**vals)
    bad = validate(p)
    if bad:
        parser.error("; ".join(bad))
    return p


def _require(args: argparse.Namespace, parser: _Parser, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            parser.error(f"--{name.replace('_', '-')} is required")


def _triple(text: str, parser: _Parser, flag: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        parser.error(f"{flag} expects three comma-separated numbers")
    try:
        return np.array([float(v) for v in parts])
    except ValueError:
        parser.error(f"{flag}: cannot parse {text!r}")


def _span(text: str, parser: _Parser, flag: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        parser.error(f"{flag} expects lo:hi")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        parser.error(f"{flag}: cannot parse {text!r}")


def _write_csv(path: str, header: list[str], rows) -> None:
    """Header, then one line per row with every value as in :func:`_g`."""
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % tuple(row) for row in rows)


def _json_clean(obj):
    """Recursively replace non-finite floats with None for JSON output."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    return obj


def _emit_json(payload, out: str | None) -> None:
    text = json.dumps(_json_clean(payload), indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- simulate / trajectory ---


def _tmax(args: argparse.Namespace, parser: _Parser) -> float:
    _require(args, parser, "tmax")
    tmax = float(args.tmax)
    if not tmax >= 0.0:
        parser.error(f"--tmax must be non-negative, got {args.tmax}")
    return tmax


def _path_rows(path, kappa: float, p: Params):
    """CSV rows from an AbsolutePath; E_drift from the reduced energy."""
    e0 = reduced_energy(float(path.theta[0]), float(path.p_theta[0]), kappa, p)
    for i in range(len(path.t)):
        e = reduced_energy(float(path.theta[i]), float(path.p_theta[i]), kappa, p)
        yield (path.t[i], path.theta[i], path.p_theta[i], path.psi[i],
               path.phi[i], path.x_c[i], path.y_c[i], path.z_c[i],
               path.x_p[i], path.y_p[i], e - e0, 0.0)


def cmd_simulate(args: argparse.Namespace, parser: _Parser) -> int:
    p = _params(args, parser)
    tmax = _tmax(args, parser)
    reduced_style = args.theta0 is not None or args.kappa is not None
    full_style = args.omega is not None or args.gamma is not None
    if reduced_style == full_style:
        parser.error("give either --kappa/--theta0 or --omega/--gamma")
    t_eval = np.linspace(0.0, tmax, args.samples)
    tols = dict(tol_abs=args.tol_abs, tol_rel=args.tol_rel)

    try:
        if reduced_style:
            _require(args, parser, "kappa", "theta0")
            kappa = float(args.kappa)
            theta0 = float(args.theta0)
            if args.energy is not None:
                # p_theta0 from the energy level, upward branch
                se = profile(theta0, p, pole_mode=True)
                v = effective_potential(theta0, kappa, p)
                gap = float(args.energy) - v
                if gap < 0.0:
                    parser.error(f"--energy {args.energy} below the potential {v:.6g}")
                p0 = math.sqrt(2.0 * gap / se.B)
            else:
                p0 = args.ptheta0
            path = reconstruct_trajectory((theta0, p0), kappa, (0.0, tmax), p,
                                          t_eval=t_eval, **tols)
            rows = list(_path_rows(path, kappa, p))
            drifts = (max(abs(r[10]) for r in rows), 0.0)
        else:
            _require(args, parser, "omega", "gamma")
            w = _triple(args.omega, parser, "--omega")
            g = _triple(args.gamma, parser, "--gamma")
            if abs(float(g @ g) - 1.0) > 1e-6:
                parser.error(f"--gamma must be a unit vector, |gamma|^2 = {g @ g:.6g}")
            if abs(float(w @ g)) > 1e-6:
                parser.error(f"--omega must have no vertical spin, omega.gamma = {w @ g:.6g}")
            state = FullState(omega=w, gamma=g)
            # one kinematic run gives the path and, in its (omega, gamma)
            # part, the drifts of the integrals along it
            traj = integrate("kinematic", kinematic_init(state), (0.0, tmax),
                             p, t_eval=t_eval, **tols)
            path = path_from_kinematic(traj.t_eval, traj.y_eval, p)
            c0 = integrals(state, p)
            rows = []
            for i in range(len(path.t)):
                ci = integrals(FullState.from_array(traj.y_eval[i]), p)
                rows.append((path.t[i], path.theta[i], path.p_theta[i],
                             path.psi[i], path.phi[i], path.x_c[i], path.y_c[i],
                             path.z_c[i], path.x_p[i], path.y_p[i],
                             ci.eps - c0.eps, ci.F1 - c0.F1))
            drifts = (max(abs(r[10]) for r in rows), max(abs(r[11]) for r in rows))
    except (PoleError, IntegrationError, ValueError) as ex:
        print(f"numerical failure: {ex}", file=sys.stderr)
        return EXIT_NUMERIC

    _write_csv(args.out, _CSV_HEADER, rows)
    print(f"max |E drift| = {_g(drifts[0])}, max |F1 drift| = {_g(drifts[1])}",
          file=sys.stderr)
    log.info("wrote %s (%d rows)", args.out, len(rows))
    return EXIT_OK


def cmd_trajectory(args: argparse.Namespace, parser: _Parser) -> int:
    p = _params(args, parser)
    tmax = _tmax(args, parser)
    _require(args, parser, "kappa", "theta0")
    t_eval = np.linspace(0.0, tmax, args.samples)
    try:
        path = reconstruct_trajectory(
            (args.theta0, args.ptheta0), args.kappa, (0.0, tmax), p,
            psi0=args.psi0, phi0=args.phi0, x0=args.x0, y0=args.y0,
            tol_abs=args.tol_abs, tol_rel=args.tol_rel, t_eval=t_eval)
    except (PoleError, IntegrationError, ValueError) as ex:
        print(f"numerical failure: {ex}", file=sys.stderr)
        return EXIT_NUMERIC
    _write_csv(args.out, _CSV_HEADER, _path_rows(path, args.kappa, p))
    log.info("wrote %s", args.out)
    return EXIT_OK


# --- bifurcation ---


def cmd_bifurcation(args: argparse.Namespace, parser: _Parser) -> int:
    p = _params(args, parser)
    try:
        d = diagram(p)
    except (ValueError, IntegrationError) as ex:
        print(f"numerical failure: {ex}", file=sys.stderr)
        return EXIT_NUMERIC
    payload = {
        "params": {"alpha": p.alpha, "beta": p.beta, "nu": p.nu, "eta": p.eta},
        "diagram_type": d.diagram_type,
        "boundary": d.boundary,
        "two_torus_region": d.two_torus_region,
        "kappa_symmetric": d.kappa_symmetric,
        "cusp": None if d.cusp is None else {
            "theta": d.cusp.theta, "kappa": d.cusp.kappa,
            "eps": d.cusp.eps, "kind": d.cusp.kind},
        "curves": [{
            "label": c.label,
            "samples": [{"theta0": s.theta0, "kappa": s.kappa, "eps": s.eps,
                         "stability": s.stability, "lambda_sq": s.lambda_sq}
                        for s in c.samples]} for c in d.curves],
        "points": [{"label": q.label, "kappa": q.kappa, "eps": q.eps,
                    "isolated": q.isolated, "stable": q.stable}
                   for q in d.points],
        "rpm_boundary": {
            "label": d.rpm_boundary.label,
            "samples": [{"theta0": s.theta0, "kappa": s.kappa, "eps": s.eps,
                         "stability": s.stability, "lambda_sq": s.lambda_sq}
                        for s in d.rpm_boundary.samples]},
    }
    _emit_json(payload, args.out)
    return EXIT_OK


# --- rotation number / resonance / classify ---


def _map(fn, tasks: list, jobs: int) -> list:
    """fn over tasks in order, on a pool of jobs processes when jobs > 1."""
    if jobs <= 1:
        return [fn(t) for t in tasks]
    # imported here, so that the other commands do not pay for loading
    # multiprocessing at start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def _rn_point(task):
    """Grid worker: one (kappa, eps) rotation number or None."""
    kappa, eps, branch, p, tol_abs, tol_rel = task
    try:
        rn = rotation_number(kappa, eps, p, branch, tol_abs=tol_abs, tol_rel=tol_rel)
    except (ValueError, RuntimeError):
        return None
    return (kappa, eps, rn.N, rn.err)


def cmd_rotation_number(args: argparse.Namespace, parser: _Parser) -> int:
    p = _params(args, parser)
    if (args.kappa is None) == (args.kappa_range is None):
        parser.error("give exactly one of --kappa or --kappa-range")
    if (args.energy is None) == (args.energy_range is None):
        parser.error("give exactly one of --energy or --energy-range")
    if args.kappa is not None:
        kappas = [float(args.kappa)]
    else:
        lo, hi = _span(args.kappa_range, parser, "--kappa-range")
        kappas = [float(v) for v in np.linspace(lo, hi, args.n_kappa)]
    if args.energy is not None:
        energies = [float(args.energy)]
    else:
        lo, hi = _span(args.energy_range, parser, "--energy-range")
        energies = [float(v) for v in np.linspace(lo, hi, args.n_energy)]
    tasks = [(k, e, args.branch, p, args.tol_abs, args.tol_rel)
             for k in kappas for e in energies]
    results = _map(_rn_point, tasks, args.jobs)
    rows = [r for r in results if r is not None]
    _write_csv(args.out, ["kappa", "eps", "N", "N_err"], rows)
    log.info("wrote %s (%d of %d grid points admissible)", args.out, len(rows), len(tasks))
    return EXIT_OK


def _res_slice(task):
    """Grid worker: resonance points of one kappa slice."""
    n, kappa, p, eps_max, tol_abs, tol_rel = task
    pts = resonance_curve(n, p, (kappa, kappa), n_kappa=1, eps_max=eps_max,
                          tol_abs=tol_abs, tol_rel=tol_rel)
    return [(q.kappa, q.eps, q.N, q.N_err, q.branch) for q in pts]


def cmd_resonance(args: argparse.Namespace, parser: _Parser) -> int:
    p = _params(args, parser)
    _require(args, parser, "kappa_range")
    orders = args.n
    lo, hi = _span(args.kappa_range, parser, "--kappa-range")
    kappas = [float(v) for v in np.linspace(lo, hi, args.n_kappa)]
    for order in orders:
        tasks = [(order, k, p, args.eps_max, args.tol_abs, args.tol_rel) for k in kappas]
        chunks = _map(_res_slice, tasks, args.jobs)
        rows = [r for ch in chunks for r in ch]
        if len(orders) == 1:
            out = args.out
        else:
            stem, ext = os.path.splitext(args.out)
            out = f"{stem}_n{order}{ext or '.csv'}"
        _write_csv(out, ["kappa", "eps", "N", "N_err", "branch"], rows)
        log.info("wrote %s (%d resonance points)", out, len(rows))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace, parser: _Parser) -> int:
    p = _params(args, parser)
    _require(args, parser, "kappa", "energy")
    try:
        tc = classify(args.kappa, args.energy, p, args.branch,
                      tol_abs=args.tol_abs, tol_rel=args.tol_rel)
    except (ValueError, RuntimeError) as ex:
        print(f"numerical failure: {ex}", file=sys.stderr)
        return EXIT_NUMERIC
    payload = {
        "params": {"alpha": p.alpha, "beta": p.beta, "nu": p.nu, "eta": p.eta},
        "kappa": args.kappa,
        "eps": args.energy,
        "branch": args.branch,
        "kind": tc.kind,
        "N": tc.N,
        "N_err": tc.N_err,
        "resonance": None if tc.resonance is None else list(tc.resonance),
        "targets": list(tc.targets),
        "near_separatrix": tc.near_separatrix,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


# --- verify ---


def _check(name: str, ok: bool, detail: str, failures: list[str]) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {name}: {detail}")
    if not ok:
        failures.append(name)


def _random_valid_state(rng: np.random.Generator, p: Params) -> FullState:
    g = rng.normal(size=3)
    g /= np.linalg.norm(g)
    w = rng.normal(size=3)
    w -= (w @ g) * g
    return FullState(omega=w, gamma=g)


def cmd_verify(args: argparse.Namespace, parser: _Parser) -> int:
    if args.alpha is None and args.beta is None:
        args.alpha, args.beta = 0.5, 3.0
    p = _params(args, parser)
    quick = args.quick
    b_sign = args.b_sign
    rng = np.random.default_rng(args.seed)
    failures: list[str] = []
    tols = dict(tol_abs=1e-12, tol_rel=1e-12)

    # conservation of F0, F1, kappa, eps along the full flow
    n_states, t_end = (3, 10.0) if quick else (12, 100.0)
    worst = np.zeros(4)
    for _ in range(n_states):
        s = _random_valid_state(rng, p)
        c0 = integrals(s, p)
        traj = integrate("full", s.as_array(), (0.0, t_end), p, **tols)
        c1 = integrals(FullState.from_array(traj.y[-1]), p)
        worst = np.maximum(worst, [
            abs(c1.F0 - c0.F0), abs(c1.F1 - c0.F1),
            abs(c1.kappa - c0.kappa) / max(abs(c0.kappa), 1e-300),
            abs(c1.eps - c0.eps) / max(abs(c0.eps), 1e-300)])
    _check("conservation", bool(np.all(worst <= [1e-10, 1e-10, 1e-8, 1e-8])),
           f"max |dF0|={worst[0]:.2e} |dF1|={worst[1]:.2e} "
           f"rel |dkappa|={worst[2]:.2e} rel |deps|={worst[3]:.2e}", failures)

    # reduced chart reproduces the full-system theta(t); the reduced field
    # takes the selected B cross term
    n_orb, t_red = (2, 10.0) if quick else (5, 50.0)
    worst_th = 0.0
    tries = 0
    done = 0
    while done < n_orb and tries < 40:
        tries += 1
        s = _random_valid_state(rng, p)
        g3 = float(s.gamma[2])
        if abs(g3) > 0.98:
            continue
        rc = reduce_state(s, p)
        t_eval = np.linspace(0.0, t_red, 501)
        full = integrate("full", s.as_array(), (0.0, t_red), p,
                         t_eval=t_eval, **tols)
        th_full = np.arccos(np.clip(full.y_eval[:, 5], -1.0, 1.0))
        red = integrate_raw(reduced_field(rc.kappa, p, b_sign), (rc.theta, rc.p_theta),
                            (0.0, t_red), guard=_pole_guard_factory(rc.kappa),
                            t_eval=t_eval, **tols)
        worst_th = max(worst_th, float(np.max(np.abs(red.y_eval[:, 0] - th_full))))
        done += 1
    _check("reduction", worst_th <= 1e-6,
           f"max |theta_red - theta_full| = {worst_th:.2e} on {done} orbits", failures)

    # the phase flow preserves the rho-weighted volume
    n_div = 20 if quick else 100
    f = full_field(p)
    h = 1e-5
    worst_div = 0.0
    for _ in range(n_div):
        s = _random_valid_state(rng, p)
        y = s.as_array()
        div = 0.0
        for i in range(6):
            yp = y.copy(); yp[i] += h
            ym = y.copy(); ym[i] -= h
            fp = measure_density(float(yp[5]), p) * f(0.0, yp)[i]
            fm = measure_density(float(ym[5]), p) * f(0.0, ym)[i]
            div += (fp - fm) / (2.0 * h)
        scale = float(np.linalg.norm(measure_density(float(y[5]), p) * f(0.0, y)))
        worst_div = max(worst_div, abs(div) / scale)
    _check("measure", worst_div <= 1e-6,
           f"max relative |div(rho f)| = {worst_div:.2e} over {n_div} states", failures)

    # steady-rotation branch identities and endpoint limits
    e0 = sigma_theta_eps(1e-8, p)
    epi = sigma_theta_eps(math.pi - 1e-8, p)
    k0 = sigma_theta_kappa_sq(1e-8, p)
    kpi = sigma_theta_kappa_sq(math.pi - 1e-8, p)
    lim_ok = (abs(e0 - (1.0 + p.alpha)) <= 1e-6 and abs(k0) <= 1e-6
              and abs(epi - (1.0 - p.alpha)) <= 1e-6 and abs(kpi) <= 1e-6)
    worst_fp = 0.0
    for th0 in (0.3, 0.7, 1.0, 2.2, 2.8):
        try:
            pr = permanent_rotation(th0, p)
        except ValueError:
            continue
        worst_fp = max(worst_fp, abs(g0(th0, pr.kappa, p)))
    _check("steady-rotations", lim_ok and worst_fp <= 1e-8,
           f"endpoint limits ({e0:.6f}, {epi:.6f}); "
           f"max fixed-point residual = {worst_fp:.2e}", failures)

    # kinetic cross-term sign: reduced energy must reproduce the full energy
    worst_e = 0.0
    for _ in range(3 if quick else 8):
        s = _random_valid_state(rng, p)
        if abs(float(s.gamma[2])) > 0.99:
            continue
        c0 = integrals(s, p)
        rc = reduce_state(s, p)
        e_red = reduced_energy(rc.theta, rc.p_theta, rc.kappa, p, b_sign=b_sign)
        worst_e = max(worst_e, abs(e_red - c0.eps) / max(abs(c0.eps), 1e-300))
    _check("energy-form", worst_e <= 1e-10,
           f"max relative |eps_reduced - eps_full| = {worst_e:.2e} "
           f"(b_sign={b_sign})", failures)

    # circulation threshold: root-found height maximum against the two
    # closed forms (adopted +alpha^2 form; sign-flipped variant rejected)
    a, b = p.alpha, p.beta
    if b * b > 1.0 + a:
        th_star = inclined_equilibrium(p)
        u_star = profile(th_star, p, pole_mode=True).U
        adopted = b * math.sqrt((b * b - 1.0 + a * a) / (b * b - 1.0))
        d_adopted = abs(u_star - adopted)
        variant = None
        d_variant = math.inf
        arg = (1.0 + a * a - b * b) / (1.0 - b * b)
        if arg >= 0.0:
            variant = b * math.sqrt(arg)
            d_variant = abs(u_star - variant)
        ok = d_adopted <= 1e-9 and d_variant > 1e-3
        detail = (f"U(theta*)={u_star:.9f}; adopted form off by {d_adopted:.2e}; "
                  f"sign-flipped variant off by {d_variant:.2e}")
    else:
        ok = abs(epsilon_min(p) - (1.0 + a)) <= 1e-12
        detail = f"pole regime, eps_min={epsilon_min(p):.9f}"
    _check("threshold-form", ok, detail, failures)

    # half-period quadrature against the tight stepper: a generic and a
    # near-separatrix level per kappa
    worst_dn, worst_bound, n_lv = 0.0, 0.0, 0
    for kap in (0.5, -0.3) if quick else (0.5, -0.3, 0.8, -1.2):
        lv = [effective_potential(t, kap, p) for t in critical_thetas(kap, p)]
        for eps in [min(lv) + 0.3] + ([lv[1] + 1e-3] if len(lv) == 3 else []):
            rn = rotation_number(kap, eps, p)
            lo, hi = component_intervals(kap, eps, p)[0]
            _, psi, _ = _ode_half_period(kap, eps, p, lo, hi, False, 1e-15, 2.3e-14, 10 ** 7)
            dn, bound = abs(rn.N + psi / math.pi), rn.err + 1e-10
            if n_lv == 0 or dn - bound > worst_dn - worst_bound:
                worst_dn, worst_bound = dn, bound
            n_lv += 1
    _check("quadrature", worst_dn <= worst_bound,
           f"worst |N_quad - N_ode| = {worst_dn:.2e} against its bound "
           f"err + 1e-10 = {worst_bound:.2e} on {n_lv} levels",
           failures)

    if not quick:
        # one-period drift by quadrature against the tight stepper's path:
        # a generic level and, where the slice has one, an N = 0 level
        kap = 0.5
        lv = [effective_potential(t, kap, p) for t in critical_thetas(kap, p)]
        levels = [min(lv) + 0.3] + [pt.eps for pt in resonance_curve(0, p, (kap, kap), 1)[:1]]
        worst_dd, worst_bound = 0.0, 0.0
        for i, eps in enumerate(levels):
            pm = period_map(kap, eps, p)
            lo = component_intervals(kap, eps, p)[0][0]
            path = reconstruct_trajectory((lo, 0.0), kap, (0.0, pm.T), p, tol_abs=1e-15,
                                          tol_rel=2.3e-14, max_steps=10 ** 7,
                                          t_eval=np.array([0.0, pm.T]))
            dd = abs(pm.D - complex(path.x_c[-1], path.y_c[-1]))
            bound = pm.err + 1e-10
            if i == 0 or dd - bound > worst_dd - worst_bound:
                worst_dd, worst_bound = dd, bound
        _check("period-map", worst_dd <= worst_bound,
               f"worst |D_quad - D_ode| = {worst_dd:.2e} against its bound "
               f"err + 1e-10 = {worst_bound:.2e} on {len(levels)} levels", failures)

        # absolute-space reconstruction against direct kinematics
        th0, pt0, kap = 0.9, 0.3, 0.7
        state = lift(ReducedState(theta=th0, p_theta=pt0), kap, 0.0, p)
        t_eval = np.linspace(0.0, 30.0, 601)
        pa = reconstruct_trajectory((th0, pt0), kap, (0.0, 30.0), p, t_eval=t_eval, **tols)
        pb = reconstruct_from_full(state, (0.0, 30.0), p, t_eval=t_eval, **tols)
        worst_p = max(float(np.max(np.abs(pa.x_c - pb.x_c))),
                      float(np.max(np.abs(pa.y_c - pb.y_c))),
                      float(np.max(np.abs(pa.psi - pb.psi))))
        zres = float(np.max(np.abs(
            pa.z_c - (p.alpha * np.cos(pa.theta)
                      + np.array([profile(t, p).Z for t in pa.theta])))))
        _check("reconstruction", worst_p <= 1e-6 and zres <= 1e-9,
               f"max quadrature-vs-kinematic gap = {worst_p:.2e}, "
               f"height identity residual = {zres:.2e}", failures)

    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


# --- parser wiring ---


def _positive_int(text: str) -> int:
    """Option type of the sizes and worker counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    """Option type of the resonance orders: comma-separated integers."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _add_common(sp: _Parser, *, nu_eta: float | None = None) -> None:
    """Body ratios and --config; nu_eta is the default of --nu and --eta."""
    sp.add_argument("--alpha", type=float, help="axis offset ratio a/b3 in [0, 1]")
    sp.add_argument("--beta", type=float, help="equatorial axis ratio b1/b3 > 0")
    sp.add_argument("--nu", type=float, default=nu_eta, help="inertia ratio i3/i1 in (0, 2]")
    sp.add_argument("--eta", type=float, default=nu_eta, help="mass ratio m b3^2/i1 > 0")
    sp.add_argument("--config", type=str, default=None,
                    help="key = value file of option defaults; flags win over file values")


def _add_tols(sp: _Parser) -> None:
    sp.add_argument("--tol-abs", type=float, default=DEFAULT_TOL_ABS,
                    help="absolute tolerance (default %(default)g)")
    sp.add_argument("--tol-rel", type=float, default=DEFAULT_TOL_REL,
                    help="relative tolerance (default %(default)g)")


def _add_out(sp: _Parser, default: str | None) -> None:
    sp.add_argument("--out", type=str, default=default,
                    help=f"output file path (default {default or 'stdout'})")


def build_parser() -> _Parser:
    parser = _Parser(prog="rubberroll",
                     description="Rolling ellipsoid of revolution: reduced dynamics, "
                                 "bifurcation diagrams, and absolute trajectories.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("simulate", help="integrate and write a trajectory CSV")
    _add_common(sp)
    _add_tols(sp)
    _add_out(sp, "simulate.csv")
    sp.add_argument("--kappa", type=float, help="area-integral constant (reduced style)")
    sp.add_argument("--theta0", type=float, help="initial inclination (reduced style)")
    sp.add_argument("--ptheta0", type=float, default=0.0, help="initial theta rate (default 0)")
    sp.add_argument("--energy", type=float,
                    help="energy level fixing |ptheta0| (alternative to --ptheta0)")
    sp.add_argument("--omega", type=str, help="w1,w2,w3 (full style)")
    sp.add_argument("--gamma", type=str, help="g1,g2,g3 (full style)")
    sp.add_argument("--tmax", type=float, help="integration horizon")
    sp.add_argument("--samples", type=_positive_int, default=2001,
                    help="output rows (default 2001)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("trajectory", help="absolute-space reconstruction CSV")
    _add_common(sp)
    _add_tols(sp)
    _add_out(sp, "trajectory.csv")
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--theta0", type=float)
    sp.add_argument("--ptheta0", type=float, default=0.0)
    sp.add_argument("--psi0", type=float, default=0.0, help="initial proper-rotation angle")
    sp.add_argument("--phi0", type=float, default=0.0, help="initial precession angle")
    sp.add_argument("--x0", type=float, default=0.0, help="initial center-of-mass x")
    sp.add_argument("--y0", type=float, default=0.0, help="initial center-of-mass y")
    sp.add_argument("--tmax", type=float)
    sp.add_argument("--samples", type=_positive_int, default=2001)
    sp.set_defaults(func=cmd_trajectory)

    sp = sub.add_parser("bifurcation", help="labeled (kappa, eps) diagram JSON")
    _add_common(sp, nu_eta=1.0)
    _add_out(sp, None)
    sp.set_defaults(func=cmd_bifurcation)

    sp = sub.add_parser("rotation-number", help="N over a (kappa, eps) point or grid")
    _add_common(sp)
    _add_tols(sp)
    _add_out(sp, "rotation_number.csv")
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--kappa-range", type=str, help="lo:hi")
    sp.add_argument("--n-kappa", type=_positive_int, default=11, help="grid size (default 11)")
    sp.add_argument("--energy", type=float)
    sp.add_argument("--energy-range", type=str, help="lo:hi")
    sp.add_argument("--n-energy", type=_positive_int, default=11, help="grid size (default 11)")
    sp.add_argument("--branch", type=int, default=0, help="component index (default 0)")
    sp.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers (default 1)")
    sp.set_defaults(func=cmd_rotation_number)

    sp = sub.add_parser("resonance", help="N = -n loci over a kappa range")
    _add_common(sp)
    _add_tols(sp)
    _add_out(sp, "resonance.csv")
    sp.add_argument("--n", type=_int_list, default="0",
                    help="resonance orders, comma-separated (default 0)")
    sp.add_argument("--kappa-range", type=str, help="lo:hi")
    sp.add_argument("--n-kappa", type=_positive_int, default=25, help="grid size (default 25)")
    sp.add_argument("--eps-max", type=float, help="upper energy cut per slice")
    sp.add_argument("--jobs", type=_positive_int, default=1)
    sp.set_defaults(func=cmd_resonance)

    sp = sub.add_parser("classify", help="trajectory class of one (kappa, eps) point")
    _add_common(sp)
    _add_tols(sp)
    _add_out(sp, None)
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--energy", type=float)
    sp.add_argument("--branch", type=int, default=0)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("verify", help="self-check suite; exit 3 on failure")
    _add_common(sp, nu_eta=0.5)
    sp.add_argument("--b-sign", choices=[B_SIGN_DERIVED, B_SIGN_PAPER],
                    default=B_SIGN_DERIVED, help="kinetic cross-term variant under test")
    sp.add_argument("--quick", action="store_true", help="quick subset of the checks")
    sp.add_argument("--seed", type=int, default=0, help="random-state seed (default 0)")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("RUBBERROLL_LOG", "WARNING").upper(),
                      logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _config_defaults(args, parser)
            args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as ex:
        return int(ex.code or 0)


if __name__ == "__main__":
    sys.exit(main())
