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
    map against the stepper, the log slope of N above a saddle against its
    closed form); exit 3 on failure.

Config files given with --config hold ``key = value`` lines whose keys
mirror the long flag names; they replace the option defaults, and explicit
flags win.  All numeric output uses 17 significant digits.  RUBBERROLL_LOG
selects the log level.  Exit codes: 0 success, 1 invalid parameters or
usage, 2 numerical failure, 3 failed verification.
"""

from __future__ import annotations

import argparse
from json.encoder import encode_basestring_ascii
import logging
import math
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from .model import Params, validate
from .geometry import B_SIGN_DERIVED, B_SIGN_PAPER, profile
from .dynamics import (
    FullState,
    component_intervals,
    critical_points,
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
    saddles,
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
    _rotation_slope,
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


def _json_atom(v) -> str | None:
    """v as JSON if it is a number, a string, a bool or None; a non-finite
    float becomes null."""
    if isinstance(v, float):
        return float.__repr__(v) if math.isfinite(v) else "null"
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    return None


class _Columns(NamedTuple):
    """A list of flat records held as one column per key: record i is
    ``{names[j]: columns[j][i]}``.  Every value must be a JSON atom."""

    names: tuple[str, ...]
    columns: tuple


def _json_column(values) -> list[str]:
    """One column as JSON atoms; all-finite float and all-string columns
    take a C-level map."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    out = list(map(_json_atom, values))
    if None in out:
        raise TypeError("a column holds a value that is not a JSON atom")
    return out


def _json_text(obj, indent: str = "") -> str:
    """obj as ``json.dumps(obj, indent=2)`` writes it, at the given indent,
    with every non-finite float written as null and every :class:`_Columns`
    as its list of records; dict keys must be strings.

    The records of a _Columns are formatted with one template.
    """
    atom = _json_atom(obj)
    if atom is not None:
        return atom
    inner = indent + "  "
    if isinstance(obj, _Columns):
        template = ("{\n" + inner + "  " + (",\n" + inner + "  ").join(
            encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in obj.names)
            + "\n" + inner + "}")
        items = [template % row for row in zip(*map(_json_column, obj.columns), strict=True)]
    elif isinstance(obj, (list, tuple)):
        items = [_json_text(v, inner) for v in obj]
    elif isinstance(obj, dict):
        if not obj:
            return "{}"
        return ("{\n" + inner + (",\n" + inner).join(
            encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in obj.items())
            + "\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return "[]"
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _emit_json(payload, out: str | None) -> int:
    """Write payload as JSON with a final newline, to out or stdout; returns
    the bytes written."""
    text = _json_text(payload) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return len(text)


# --- simulate / trajectory ---


def _tmax(args: argparse.Namespace, parser: _Parser) -> float:
    _require(args, parser, "tmax")
    tmax = float(args.tmax)
    if not tmax >= 0.0:
        parser.error(f"--tmax must be non-negative, got {args.tmax}")
    return tmax


def _path_rows(path, e_drift, f1_drift) -> list[tuple]:
    """CSV rows from an AbsolutePath and the two drift columns."""
    columns = [getattr(path, name).tolist() for name in _CSV_HEADER[:10]]
    return list(zip(*columns, e_drift, f1_drift))


def _reduced_rows(path, kappa: float, p: Params) -> list[tuple]:
    """CSV rows from an AbsolutePath; E_drift from the reduced energy."""
    e = [reduced_energy(th, pt, kappa, p)
         for th, pt in zip(path.theta.tolist(), path.p_theta.tolist())]
    return _path_rows(path, [ei - e[0] for ei in e], [0.0] * len(e))


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
            rows = _reduced_rows(path, kappa, p)
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
            ci = integrals(FullState(omega=traj.y_eval[:, :3], gamma=traj.y_eval[:, 3:6]), p)
            rows = _path_rows(path, (ci.eps - c0.eps).tolist(), (ci.F1 - c0.F1).tolist())
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
    _write_csv(args.out, _CSV_HEADER, _reduced_rows(path, args.kappa, p))
    log.info("wrote %s", args.out)
    return EXIT_OK


# --- bifurcation ---


_SAMPLE_KEYS = ("theta0", "kappa", "eps", "stability", "lambda_sq")


def _diagram_payload(d) -> dict:
    """The ``bifurcation`` JSON document of a diagram."""
    p = d.params

    def curve(c):
        return {"label": c.label, "samples": _Columns(_SAMPLE_KEYS, tuple(
            getattr(c, k) for k in _SAMPLE_KEYS))}

    return {
        "params": {"alpha": p.alpha, "beta": p.beta, "nu": p.nu, "eta": p.eta},
        "diagram_type": d.diagram_type,
        "boundary": d.boundary,
        "two_torus_region": d.two_torus_region,
        "kappa_symmetric": d.kappa_symmetric,
        "cusp": None if d.cusp is None else {
            "theta": d.cusp.theta, "kappa": d.cusp.kappa,
            "eps": d.cusp.eps, "kind": d.cusp.kind},
        "curves": [curve(c) for c in d.curves],
        "points": [{"label": q.label, "kappa": q.kappa, "eps": q.eps,
                    "isolated": q.isolated, "stable": q.stable}
                   for q in d.points],
        "rpm_boundary": curve(d.rpm_boundary),
    }


def cmd_bifurcation(args: argparse.Namespace, parser: _Parser) -> int:
    p = _params(args, parser)
    try:
        d = diagram(p)
    except (ValueError, IntegrationError) as ex:
        print(f"numerical failure: {ex}", file=sys.stderr)
        return EXIT_NUMERIC
    t0 = time.perf_counter()
    size = _emit_json(_diagram_payload(d), args.out)
    log.info("wrote %s (%d bytes in %.3f s)", args.out or "stdout", size, time.perf_counter() - t0)
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


class _Dropped(NamedTuple):
    """Why a grid point has no row: the exception's type name and message."""

    kind: str
    message: str


def _rn_point(task):
    """Grid worker: one (kappa, eps, N, N_err) row, or why there is none."""
    kappa, eps, branch, p, tol_abs, tol_rel = task
    try:
        rn = rotation_number(kappa, eps, p, branch, tol_abs=tol_abs, tol_rel=tol_rel)
    except (ValueError, RuntimeError) as ex:
        return _Dropped(type(ex).__name__, str(ex))
    return (kappa, eps, rn.N, rn.err)


def _drop_report(dropped: list[_Dropped]) -> str:
    """'; dropped: 3 ValueError (first: ...)' per exception type, in the
    order of first appearance; empty when nothing was dropped."""
    kinds: dict[str, list] = {}
    for d in dropped:
        kinds.setdefault(d.kind, [0, d.message])[0] += 1
    return "".join(f"; dropped: {n} {kind} (first: {msg})" for kind, (n, msg) in kinds.items())


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
    rows = [r for r in results if not isinstance(r, _Dropped)]
    _write_csv(args.out, ["kappa", "eps", "N", "N_err"], rows)
    log.info("wrote %s (%d of %d grid points admissible%s)", args.out, len(rows), len(tasks),
             _drop_report([r for r in results if isinstance(r, _Dropped)]))
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


def _threshold_forms(a: float, b: float) -> tuple[float, float]:
    """U(theta*) for beta^2 > 1 + alpha by the adopted +alpha^2 closed form
    and by its sign-flipped variant, inf where that has no real value."""
    arg = (1.0 + a * a - b * b) / (1.0 - b * b)
    return (b * math.sqrt((b * b - 1.0 + a * a) / (b * b - 1.0)),
            b * math.sqrt(arg) if arg >= 0.0 else math.inf)


def cmd_verify(args: argparse.Namespace, parser: _Parser) -> int:
    if args.alpha is None and args.beta is None:
        args.alpha, args.beta = 0.5, 3.0
    p = _params(args, parser)
    quick = args.quick
    b_sign = args.b_sign
    rng = np.random.default_rng(args.seed)
    failures: list[str] = []
    tols = dict(tol_abs=1e-12, tol_rel=1e-12)

    # conservation of F0, F1, kappa, eps along the full flow.  Over the full
    # check's t = 100, tolerances of 1e-12 let |dF1| reach the 1e-10 bound on
    # some bodies (1.1e-10 at alpha 0.9, beta 5), so its runs step at 1e-13
    n_states, t_end, cons_tol = (3, 10.0, 1e-12) if quick else (12, 100.0, 1e-13)
    worst = np.zeros(4)
    for _ in range(n_states):
        s = _random_valid_state(rng, p)
        c0 = integrals(s, p)
        traj = integrate("full", s.as_array(), (0.0, t_end), p,
                         tol_abs=cons_tol, tol_rel=cons_tol)
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
    # closed forms (adopted +alpha^2 form; sign-flipped variant rejected
    # where it differs, it coincides with the adopted one at alpha = 0)
    a, b = p.alpha, p.beta
    if b * b > 1.0 + a:
        u_star = profile(inclined_equilibrium(p), p, pole_mode=True).U
        adopted, variant = _threshold_forms(a, b)
        d_adopted, d_variant = abs(u_star - adopted), abs(u_star - variant)
        distinct = abs(adopted - variant) > 2e-3
        ok = d_adopted <= 1e-9 and (d_variant > 1e-3 or not distinct)
        detail = (f"U(theta*)={u_star:.9f}; adopted form off by {d_adopted:.2e}; "
                  + (f"sign-flipped variant off by {d_variant:.2e}" if distinct
                     else "sign-flipped variant coincides with it"))
    else:
        ok = abs(epsilon_min(p) - (1.0 + a)) <= 1e-12
        detail = f"pole regime, eps_min={epsilon_min(p):.9f}"
    _check("threshold-form", ok, detail, failures)

    # half-period quadrature against the tight stepper: a generic and a
    # near-separatrix level per kappa
    worst_dn, worst_bound, n_lv = 0.0, 0.0, 0
    for kap in (0.5, -0.3) if quick else (0.5, -0.3, 0.8, -1.2):
        lv = critical_points(kap, p).levels
        for eps in [min(lv) + 0.3] + ([lv[1] + 1e-3] if len(lv) == 3 else []):
            rn = rotation_number(kap, eps, p)
            lo, hi = component_intervals(kap, eps, p)[0]
            _, psi = _ode_half_period(kap, eps, p, lo, hi, False, 1e-15, 2.3e-14, 10 ** 7)
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
        lv = critical_points(kap, p).levels
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

        # the exact eps-derivative of N against a fourth-order centred
        # difference, on one libration above every critical level; 1e-9
        # covers the difference's rounding where symmetry makes N = 0
        kap, h = 0.8, 1e-3
        eps = max(3.5, max(critical_points(kap, p).levels) + 0.1)
        slope = _rotation_slope(kap, eps, p)[1]
        n = [rotation_number(kap, eps + d * h, p, **tols).N for d in (1.0, 0.5, -0.5, -1.0)]
        gap = abs(slope - (8.0 * (n[1] - n[2]) - n[0] + n[3]) / (6.0 * h))
        bound = 1e-8 * abs(slope) + 1e-9
        _check("slope", gap <= bound,
               f"|dN/deps - fourth-order difference| = {gap:.2e} "
               f"({gap / max(abs(slope), 1e-300):.2e} relative) against its bound "
               f"1e-8 |dN/deps| + 1e-9 = {bound:.2e} at (kappa, eps) = ({kap}, {eps})", failures)

        # N 1e-8 and 1e-10 above a saddle against the closed form of its
        # slope in ln delta, psi_dot_s / (pi lambda_s); 1e-9 covers the
        # O(delta ln delta) remainder where the closed form vanishes
        found = [(k, s) for k in (0.5, -0.3, 0.8, -1.2) for s in saddles(k, p)]
        ok, detail = True, "no saddle on the slices kappa = 0.5, -0.3, 0.8, -1.2"
        if found:
            kap, (th, lv, g) = found[0]
            se = profile(th, p)
            want = -kap * math.cos(th) / (se.J * math.sin(th) ** 2 * math.pi * math.sqrt(g / se.B))
            n = [rotation_number(kap, lv + d, p).N for d in (1e-8, 1e-10)]
            gap, bound = abs((n[0] - n[1]) / math.log(100.0) - want), 1e-5 * abs(want) + 1e-9
            ok, detail = gap <= bound, (
                f"|dN/d ln delta - psi_dot_s/(pi lambda_s)| = {gap:.2e} against its bound "
                f"1e-5 |{want:.8f}| + 1e-9 = {bound:.2e} above the saddle of kappa = {kap}")
        _check("log-slope", ok, detail, failures)

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


_COMMANDS = {"simulate": cmd_simulate, "trajectory": cmd_trajectory,
             "bifurcation": cmd_bifurcation, "rotation-number": cmd_rotation_number,
             "resonance": cmd_resonance, "classify": cmd_classify, "verify": cmd_verify}


def _build_parser(command: str | None = None) -> _Parser:
    """The command-line parser.  With one of _COMMANDS named, only that
    subcommand's parser is built; the usage line still names them all."""
    lone = command in _COMMANDS
    parser = _Parser(prog="rubberroll",
                     description="Rolling ellipsoid of revolution: reduced dynamics, "
                                 "bifurcation diagrams, and absolute trajectories.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                metavar="{" + ",".join(_COMMANDS) + "}" if lone else None)

    def add(name: str, text: str) -> _Parser | None:
        return sub.add_parser(name, help=text) if not lone or name == command else None

    if sp := add("simulate", "integrate and write a trajectory CSV"):
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

    if sp := add("trajectory", "absolute-space reconstruction CSV"):
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

    if sp := add("bifurcation", "labeled (kappa, eps) diagram JSON"):
        _add_common(sp, nu_eta=1.0)
        _add_out(sp, None)

    if sp := add("rotation-number", "N over a (kappa, eps) point or grid"):
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

    if sp := add("resonance", "N = -n loci over a kappa range"):
        _add_common(sp)
        _add_tols(sp)
        _add_out(sp, "resonance.csv")
        sp.add_argument("--n", type=_int_list, default="0",
                        help="resonance orders, comma-separated (default 0)")
        sp.add_argument("--kappa-range", type=str, help="lo:hi")
        sp.add_argument("--n-kappa", type=_positive_int, default=25, help="grid size (default 25)")
        sp.add_argument("--eps-max", type=float, help="upper energy cut per slice")
        sp.add_argument("--jobs", type=_positive_int, default=1)

    if sp := add("classify", "trajectory class of one (kappa, eps) point"):
        _add_common(sp)
        _add_tols(sp)
        _add_out(sp, None)
        sp.add_argument("--kappa", type=float)
        sp.add_argument("--energy", type=float)
        sp.add_argument("--branch", type=int, default=0)

    if sp := add("verify", "self-check suite; exit 3 on failure"):
        _add_common(sp, nu_eta=0.5)
        sp.add_argument("--b-sign", choices=[B_SIGN_DERIVED, B_SIGN_PAPER],
                        default=B_SIGN_DERIVED, help="kinetic cross-term variant under test")
        sp.add_argument("--quick", action="store_true", help="quick subset of the checks")
        sp.add_argument("--seed", type=int, default=0, help="random-state seed (default 0)")

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("RUBBERROLL_LOG", "WARNING").upper(),
                      logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if args.config:
            _config_defaults(args, parser)
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, parser)
    except SystemExit as ex:
        return int(ex.code or 0)


if __name__ == "__main__":
    sys.exit(main())
