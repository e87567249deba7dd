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
    Self-checks from :mod:`.checks`, in order: conservation, reduction,
    measure, steady-rotations, energy-form, threshold-form, quadrature (the
    --quick subset), period-map, slope, log-slope, reconstruction; exit 3 on
    failure.

Config files given with --config hold ``key = value`` lines whose keys
mirror the long flag names; they replace the option defaults, and explicit
flags win.  All numeric output uses 17 significant digits.  RUBBERROLL_LOG
selects the log level.  Exit codes: 0 success, 1 invalid parameters or
usage (an unwritable or empty --out too, found before any computing), 2
numerical failure, 3 failed verification.  A ValueError or RuntimeError out
of any command is a numerical failure: :func:`main` prints it as one
"numerical failure:" line on stderr.
"""

from __future__ import annotations

import argparse
import errno
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
from .dynamics import FullState, effective_potential, integrals, kinematic_init, reduced_energy
from .integrate import DEFAULT_TOL_ABS, DEFAULT_TOL_REL, integrate
from .bifurcation import diagram
from .reconstruct import (classify, path_from_kinematic, reconstruct_trajectory, resonance_curve,
                          rotation_number)

__all__ = ["main"]

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
    except ValueError as ex:
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
    _require(args, parser, "alpha", "beta", "nu", "eta")
    p = Params(alpha=args.alpha, beta=args.beta, nu=args.nu, eta=args.eta)
    bad = validate(p)
    if bad:
        parser.error("; ".join(bad))
    return p


def _require(args: argparse.Namespace, parser: _Parser, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            parser.error(f"--{name.replace('_', '-')} is required")


def _outputs(args: argparse.Namespace) -> list[str]:
    """The files the command writes: none to stdout, one per order for a
    resonance run of several orders, named after it, else --out; an empty
    --out is kept, for :func:`_check_writable` to refuse."""
    out = getattr(args, "out", None)
    if out is None:
        return []
    if out and args.command == "resonance" and len(args.n) > 1:
        stem, ext = os.path.splitext(out)
        return [f"{stem}_n{order}{ext or '.csv'}" for order in args.n]
    return [out]


def _check_writable(path: str) -> None:
    """Raise the OSError that opening path for writing would raise where
    path is empty or a directory, or its directory is missing or not
    writable: before the computing, and creating no file."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not path or not os.path.isdir(folder):
        code = errno.ENOENT
    elif not os.access(folder, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


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
    """Write payload as JSON with a final newline, to out, or to stdout
    where out is None; returns the bytes written."""
    text = _json_text(payload) + "\n"
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return len(text)


# --- simulate / trajectory ---


def _tmax(args: argparse.Namespace, parser: _Parser) -> float:
    _require(args, parser, "tmax")
    if args.tmax < 0.0:
        parser.error(f"--tmax must be non-negative, got {args.tmax}")
    return args.tmax


def _path_rows(path, e_drift, f1_drift) -> list[tuple]:
    """CSV rows from an AbsolutePath and the two drift columns."""
    columns = [getattr(path, name).tolist() for name in _CSV_HEADER[:10]]
    return list(zip(*columns, e_drift, f1_drift))


def _reduced_rows(path, kappa: float, p: Params) -> list[tuple]:
    """CSV rows from an AbsolutePath; E_drift from the reduced energy."""
    e = [reduced_energy(th, pt, kappa, p)
         for th, pt in zip(path.theta.tolist(), path.p_theta.tolist())]
    return _path_rows(path, [ei - e[0] for ei in e], [0.0] * len(e))


def _reduced_style_rows(args: argparse.Namespace, p: Params, tmax: float, start: tuple,
                        **seeds) -> list[tuple]:
    """CSV rows of the reduced orbit from start = (theta0, p_theta0) at
    --kappa over [0, tmax], with the angle and position seeds given."""
    path = reconstruct_trajectory(start, args.kappa, (0.0, tmax), p,
                                  t_eval=np.linspace(0.0, tmax, args.samples),
                                  tol_abs=args.tol_abs, tol_rel=args.tol_rel, **seeds)
    return _reduced_rows(path, args.kappa, p)


def cmd_simulate(args: argparse.Namespace, parser: _Parser) -> int:
    p = _params(args, parser)
    tmax = _tmax(args, parser)
    reduced_style = args.theta0 is not None or args.kappa is not None
    full_style = args.omega is not None or args.gamma is not None
    if reduced_style == full_style:
        parser.error("give either --kappa/--theta0 or --omega/--gamma")
    if (args.ptheta0 is not None) + (args.energy is not None) + full_style > 1:
        parser.error("give at most one of --ptheta0, --energy and --omega/--gamma")

    if reduced_style:
        _require(args, parser, "kappa", "theta0")
        p0 = 0.0 if args.ptheta0 is None else args.ptheta0
        if args.energy is not None:
            # p_theta0 from the energy level, upward branch
            se = profile(args.theta0, p, pole_mode=True)
            v = effective_potential(args.theta0, args.kappa, p)
            gap = float(args.energy) - v
            if gap < 0.0:
                parser.error(f"--energy {args.energy} below the potential {v:.6g}")
            p0 = math.sqrt(2.0 * gap / se.B)
        rows = _reduced_style_rows(args, p, tmax, (args.theta0, p0))
        drifts = (max(abs(r[10]) for r in rows), 0.0)
    else:
        _require(args, parser, "omega", "gamma")
        w, g = np.array(args.omega), np.array(args.gamma)
        if abs(float(g @ g) - 1.0) > 1e-6:
            parser.error(f"--gamma must be a unit vector, |gamma|^2 = {g @ g:.6g}")
        if abs(float(w @ g)) > 1e-6:
            parser.error(f"--omega must have no vertical spin, omega.gamma = {w @ g:.6g}")
        state = FullState(omega=w, gamma=g)
        # one kinematic run gives the path and, in its (omega, gamma)
        # part, the drifts of the integrals along it
        traj = integrate("kinematic", kinematic_init(state), (0.0, tmax), p,
                         t_eval=np.linspace(0.0, tmax, args.samples),
                         tol_abs=args.tol_abs, tol_rel=args.tol_rel)
        path = path_from_kinematic(traj.t, traj.y, p)
        c0 = integrals(state, p)
        ci = integrals(FullState(omega=traj.y[:, :3], gamma=traj.y[:, 3:6]), p)
        rows = _path_rows(path, (ci.eps - c0.eps).tolist(), (ci.F1 - c0.F1).tolist())
        drifts = (max(abs(r[10]) for r in rows), max(abs(r[11]) for r in rows))

    _write_csv(args.out, _CSV_HEADER, rows)
    print(f"max |E drift| = {_g(drifts[0])}, max |F1 drift| = {_g(drifts[1])}",
          file=sys.stderr)
    log.info("wrote %s (%d rows)", args.out, len(rows))
    return EXIT_OK


def cmd_trajectory(args: argparse.Namespace, parser: _Parser) -> int:
    p = _params(args, parser)
    tmax = _tmax(args, parser)
    _require(args, parser, "kappa", "theta0")
    rows = _reduced_style_rows(args, p, tmax, (args.theta0, args.ptheta0), psi0=args.psi0,
                               phi0=args.phi0, x0=args.x0, y0=args.y0)
    _write_csv(args.out, _CSV_HEADER, rows)
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
    d = diagram(_params(args, parser))
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
        kappas = [float(v) for v in np.linspace(*args.kappa_range, args.n_kappa)]
    if args.energy is not None:
        energies = [float(args.energy)]
    else:
        energies = [float(v) for v in np.linspace(*args.energy_range, args.n_energy)]
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
    pts = resonance_curve(n, p, kappa, eps_max=eps_max, tol_abs=tol_abs, tol_rel=tol_rel)
    return [(q.kappa, q.eps, q.N, q.N_err, q.branch) for q in pts]


def cmd_resonance(args: argparse.Namespace, parser: _Parser) -> int:
    p = _params(args, parser)
    _require(args, parser, "kappa_range")
    kappas = [float(v) for v in np.linspace(*args.kappa_range, args.n_kappa)]
    for order, out in zip(args.n, _outputs(args)):
        tasks = [(order, k, p, args.eps_max, args.tol_abs, args.tol_rel) for k in kappas]
        chunks = _map(_res_slice, tasks, args.jobs)
        rows = [r for ch in chunks for r in ch]
        _write_csv(out, ["kappa", "eps", "N", "N_err", "branch"], rows)
        log.info("wrote %s (%d resonance points)", out, len(rows))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace, parser: _Parser) -> int:
    p = _params(args, parser)
    _require(args, parser, "kappa", "energy")
    tc = classify(args.kappa, args.energy, p, args.branch,
                  tol_abs=args.tol_abs, tol_rel=args.tol_rel)
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


def cmd_verify(args: argparse.Namespace, parser: _Parser) -> int:
    from .checks import CHECKS, N_QUICK   # not loaded with the other commands

    if args.alpha is None and args.beta is None:
        args.alpha, args.beta = 0.5, 3.0
    p = _params(args, parser)
    rng = np.random.default_rng(args.seed)
    records = []
    for check in CHECKS[:N_QUICK] if args.quick else CHECKS:
        records.append(rec := check(p, rng, args.quick, args.b_sign))
        print(f"{'PASS' if rec.ok else 'FAIL'} {rec.name}: {rec.detail}")
    failed = [rec.name for rec in records if not rec.ok]
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}")
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


# --- parser wiring ---


def _integer(low: int):
    """Option type of an integer of at least low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            kind = "positive" if low == 1 else "non-negative"
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value
    return parse


_count, _index = _integer(1), _integer(0)   # sizes and worker counts; the branch and the seed


def _number(low: float = -math.inf):
    """Option type of a finite float of at least low; every number on the
    command line parses through one, those of the ranges and vectors too."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value >= low):
            kind = "non-negative " if low == 0.0 else ""
            raise argparse.ArgumentTypeError(f"expected a finite {kind}number, got {text!r}")
        return value
    return parse


_finite, _tolerance = _number(), _number(0.0)   # any number; the tolerances


def _numbers(sep: str, n: int):
    """Option type of n finite numbers joined by sep."""
    def parse(text: str) -> tuple[float, ...]:
        if len(parts := text.split(sep)) != n:
            raise argparse.ArgumentTypeError(f"expected {n} numbers joined by {sep!r}, got {text!r}")
        return tuple(map(_finite, parts))
    return parse


_span, _triple = _numbers(":", 2), _numbers(",", 3)   # lo:hi ranges, full-style vectors


def _int_list(text: str) -> list[int]:
    """Option type of the resonance orders: comma-separated integers, each once."""
    try:
        orders = [int(v) for v in text.split(",")]
    except ValueError:
        orders = None
    if orders is None or len(set(orders)) < len(orders):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, each once, got {text!r}")
    return orders


def _add_common(sp: _Parser, *, nu_eta: float | None = None) -> None:
    """Body ratios and --config; nu_eta is the default of --nu and --eta."""
    sp.add_argument("--alpha", type=_finite, help="axis offset ratio a/b3 in [0, 1]")
    sp.add_argument("--beta", type=_finite, help="equatorial axis ratio b1/b3 > 0")
    sp.add_argument("--nu", type=_finite, default=nu_eta, help="inertia ratio i3/i1 in (0, 2]")
    sp.add_argument("--eta", type=_finite, default=nu_eta, help="mass ratio m b3^2/i1 > 0")
    sp.add_argument("--config", type=str, default=None,
                    help="key = value file of option defaults; flags win over file values")


def _add_tols(sp: _Parser) -> None:
    sp.add_argument("--tol-abs", type=_tolerance, default=DEFAULT_TOL_ABS,
                    help="absolute tolerance (default %(default)g)")
    sp.add_argument("--tol-rel", type=_tolerance, default=DEFAULT_TOL_REL,
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
        sp.add_argument("--kappa", type=_finite, help="area-integral constant (reduced style)")
        sp.add_argument("--theta0", type=_finite, help="initial inclination (reduced style)")
        sp.add_argument("--ptheta0", type=_finite, help="initial theta rate (default 0)")
        sp.add_argument("--energy", type=_finite,
                        help="energy level fixing |ptheta0| (alternative to --ptheta0)")
        sp.add_argument("--omega", type=_triple, help="w1,w2,w3 (full style)")
        sp.add_argument("--gamma", type=_triple, help="g1,g2,g3 (full style)")
        sp.add_argument("--tmax", type=_finite, help="integration horizon")
        sp.add_argument("--samples", type=_count, default=2001,
                        help="output rows (default 2001)")

    if sp := add("trajectory", "absolute-space reconstruction CSV"):
        _add_common(sp)
        _add_tols(sp)
        _add_out(sp, "trajectory.csv")
        sp.add_argument("--kappa", type=_finite)
        sp.add_argument("--theta0", type=_finite)
        sp.add_argument("--ptheta0", type=_finite, default=0.0)
        sp.add_argument("--psi0", type=_finite, default=0.0, help="initial precession angle")
        sp.add_argument("--phi0", type=_finite, default=0.0, help="initial proper-rotation angle")
        sp.add_argument("--x0", type=_finite, default=0.0, help="initial center-of-mass x")
        sp.add_argument("--y0", type=_finite, default=0.0, help="initial center-of-mass y")
        sp.add_argument("--tmax", type=_finite)
        sp.add_argument("--samples", type=_count, default=2001)

    if sp := add("bifurcation", "labeled (kappa, eps) diagram JSON"):
        _add_common(sp, nu_eta=1.0)
        _add_out(sp, None)

    if sp := add("rotation-number", "N over a (kappa, eps) point or grid"):
        _add_common(sp)
        _add_tols(sp)
        _add_out(sp, "rotation_number.csv")
        sp.add_argument("--kappa", type=_finite)
        sp.add_argument("--kappa-range", type=_span, help="lo:hi")
        sp.add_argument("--n-kappa", type=_count, default=11, help="grid size (default 11)")
        sp.add_argument("--energy", type=_finite)
        sp.add_argument("--energy-range", type=_span, help="lo:hi")
        sp.add_argument("--n-energy", type=_count, default=11, help="grid size (default 11)")
        sp.add_argument("--branch", type=_index, default=0, help="component index (default 0)")
        sp.add_argument("--jobs", type=_count, default=1, help="parallel workers (default 1)")

    if sp := add("resonance", "N = -n loci over a kappa range"):
        _add_common(sp)
        _add_tols(sp)
        _add_out(sp, "resonance.csv")
        sp.add_argument("--n", type=_int_list, default="0",
                        help="resonance orders, comma-separated (default 0)")
        sp.add_argument("--kappa-range", type=_span, help="lo:hi")
        sp.add_argument("--n-kappa", type=_count, default=25, help="grid size (default 25)")
        sp.add_argument("--eps-max", type=_finite, help="upper energy cut per slice")
        sp.add_argument("--jobs", type=_count, default=1)

    if sp := add("classify", "trajectory class of one (kappa, eps) point"):
        _add_common(sp)
        _add_tols(sp)
        _add_out(sp, None)
        sp.add_argument("--kappa", type=_finite)
        sp.add_argument("--energy", type=_finite)
        sp.add_argument("--branch", type=_index, default=0)

    if sp := add("verify", "self-check suite; exit 3 on failure"):
        _add_common(sp, nu_eta=0.5)
        sp.add_argument("--b-sign", choices=[B_SIGN_DERIVED, B_SIGN_PAPER],
                        default=B_SIGN_DERIVED, help="kinetic cross-term variant under test")
        sp.add_argument("--quick", action="store_true", help="quick subset of the checks")
        sp.add_argument("--seed", type=_index, default=0, help="random-state seed (default 0)")

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("RUBBERROLL_LOG", "WARNING").upper(),
                      logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
    try:
        try:
            args = parser.parse_args(argv)
            if args.config:
                _config_defaults(args, parser)
                args = parser.parse_args(argv)
            for path in _outputs(args):
                _check_writable(path)
            try:
                return _COMMANDS[args.command](args, parser)
            except (ValueError, RuntimeError) as ex:
                # IntegrationError and PoleError are RuntimeErrors
                print(f"numerical failure: {ex}", file=sys.stderr)
                return EXIT_NUMERIC
        except OSError as ex:
            # a config file that cannot be read or an output file that cannot
            # be written: a usage error whose message names the path
            parser.error(str(ex))
    except SystemExit as ex:
        return int(ex.code or 0)


if __name__ == "__main__":
    sys.exit(main())
