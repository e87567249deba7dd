"""Command-line surface: exit codes, formats, determinism, config merge."""

import csv
import dataclasses
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rubberroll
from rubberroll import checks, cli
from rubberroll.bifurcation import diagram, permanent_rotation
from rubberroll.cli import main
from rubberroll.integrate import IntegrationError, PoleError
from rubberroll.model import Params
from rubberroll.reconstruct import rotation_number

from conftest import deadline

ARGS_XY = ["--alpha", "0.5", "--beta", "3", "--nu", "0.5", "--eta", "0.5"]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_missing_required_flag_exits_one(capsys):
    code, _, err = run(["simulate", "--alpha", "0.5", "--kappa", "0.8",
                        "--theta0", "0.4678", "--tmax", "1"], capsys)
    assert code == 1
    assert "--beta is required" in err


def test_invalid_parameter_exits_one(capsys):
    code, _, err = run(["simulate", *ARGS_XY[:6], "--eta", "-1", "--kappa", "0.8",
                        "--theta0", "0.4678", "--tmax", "1"], capsys)
    assert code == 1
    assert "eta" in err


def test_energy_below_potential_exits_one(capsys):
    code, _, err = run(["simulate", *ARGS_XY, "--kappa", "0.8", "--theta0", "0.9",
                        "--energy", "1.0", "--tmax", "1"], capsys)
    assert code == 1
    assert "below the potential" in err


def test_conflicting_styles_exit_one(capsys):
    code, _, err = run(["simulate", *ARGS_XY, "--kappa", "0.8", "--theta0", "0.9",
                        "--omega", "0,0,1", "--gamma", "0,0,1",
                        "--tmax", "1"], capsys)
    assert code == 1


_FULL_START = ["--omega", "0.3,-0.18616978176397397,0.2346033803494251",
               "--gamma", "0,0.78332690962748341,0.62160996827066439"]


@pytest.mark.parametrize("start,extra", [
    (["--kappa", "0.8", "--theta0", "0.4678"], {"ptheta0": "0.3", "energy": "3.8"}),
    (_FULL_START, {"ptheta0": "0.3"}),
    (_FULL_START, {"energy": "3.8"}),
], ids=["both", "ptheta0-full-style", "energy-full-style"])
def test_ptheta0_and_energy_exclude_each_other_and_the_full_style(start, extra, tmp_path,
                                                                   capsys):
    # simulate once read --ptheta0 only without --energy, and neither in
    # the full style: each dropped value was ignored without a word
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in extra.items()))
    flags = [f"--{k}={v}" for k, v in extra.items()]
    out = tmp_path / "run.csv"
    for more in (flags, ["--config", str(cfg)]):
        code, _, err = run(["simulate", *ARGS_XY, *start, *more, "--tmax", "1",
                            "--out", str(out)], capsys)
        assert code == 1, err
        assert err.startswith("usage: rubberroll") and "--ptheta0" in err
        assert not out.exists()


def test_ptheta0_or_energy_alone_sets_the_start_rate(tmp_path, capsys):
    rates = []
    for more in ([], ["--ptheta0", "0.3"], ["--energy", "3.8"]):
        out = tmp_path / "run.csv"
        code, _, err = run(["simulate", *ARGS_XY, "--kappa", "0.8", "--theta0", "0.4678",
                            *more, "--tmax", "1", "--samples", "3", "--out", str(out)], capsys)
        assert code == 0, err
        rates.append(float(read_csv(out)[1][0][2]))
    assert rates[:2] == [0.0, 0.3] and rates[2] > 0.0


@pytest.mark.parametrize("command", ["simulate", "trajectory"])
@pytest.mark.parametrize("theta0", ["-0.5", "3.14159265358979", "0", "4"])
def test_a_start_off_the_chart_at_nonzero_kappa_is_a_usage_error(command, theta0, tmp_path,
                                                                   capsys, monkeypatch):
    # such a start once ran the stepper into the chart's pole guard and
    # exited 2, "reached a chart pole", as if the computing had failed
    monkeypatch.setattr(cli, "reconstruct_trajectory", _never_called)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"kappa = 0.8\ntheta0 = {theta0}\n")
    out = tmp_path / "run.csv"
    for start in (["--kappa", "0.8", f"--theta0={theta0}"], ["--config", str(cfg)]):
        code, _, err = run([command, *ARGS_XY, *start, "--tmax", "5", "--out", str(out)], capsys)
        assert code == 1, err
        assert err.startswith("usage: rubberroll") and "--theta0 must lie in" in err
        assert not out.exists()


def _never_called(*args, **kwargs):
    raise AssertionError("computed")


@pytest.mark.parametrize("command", ["simulate", "trajectory"])
def test_a_kappa_zero_start_keeps_the_extended_chart(command, tmp_path, capsys):
    out = tmp_path / "run.csv"
    for theta0 in ("-0.5", "4", "0"):
        code, _, err = run([command, *ARGS_XY, "--kappa", "0", f"--theta0={theta0}",
                            "--ptheta0", "0.3", "--tmax", "5", "--samples", "11",
                            "--out", str(out)], capsys)
        assert code == 0, err
        assert float(read_csv(out)[1][0][1]) == float(theta0)


def test_off_leaf_full_state_exits_one(capsys):
    code, _, err = run(["simulate", *ARGS_XY, "--omega", "0,0,1",
                        "--gamma", "0,0,0", "--tmax", "1"], capsys)
    assert code == 1 and "unit vector" in err
    code, _, err = run(["simulate", *ARGS_XY, "--omega", "0,0,1",
                        "--gamma", "0,0,1", "--tmax", "1"], capsys)
    assert code == 1 and "vertical spin" in err


def test_simulate_reduced_csv_contract(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, _, err = run(["simulate", *ARGS_XY, "--kappa", "0.8",
                        "--theta0", "0.4678", "--ptheta0", "0",
                        "--tmax", "20", "--samples", "51",
                        "--out", str(out)], capsys)
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "theta", "p_theta", "psi", "phi", "x_c", "y_c",
                      "z_c", "x_p", "y_p", "E_drift", "F1_drift"]
    assert len(rows) == 51
    # 17 significant digits survive the round trip
    assert rows[1][1] == "%.17g" % float(rows[1][1])
    assert "max |E drift|" in err
    drift = float(err.split("=")[1].split(",")[0])
    assert abs(drift) <= 1e-8


def test_simulate_full_style_runs(tmp_path, capsys):
    out = tmp_path / "full.csv"
    code, _, err = run(["simulate", *ARGS_XY,
                        "--omega", "0.3,-0.18616978176397397,0.2346033803494251",
                        "--gamma", "0,0.78332690962748341,0.62160996827066439",
                        "--tmax", "10", "--samples", "41",
                        "--out", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 41
    # the F1 drift column is live for full-style runs
    f1 = [abs(float(r[11])) for r in rows]
    assert max(f1) < 1e-9


@pytest.mark.parametrize("style", [
    ["simulate", "--kappa", "0.8", "--theta0", "0.4678"],
    ["simulate", "--omega", "0.3,-0.18616978176397397,0.2346033803494251",
     "--gamma", "0,0.78332690962748341,0.62160996827066439"],
    ["trajectory", "--kappa", "0.8", "--theta0", "0.4678"],
])
def test_negative_tmax_exits_one(style, tmp_path, capsys):
    code, _, err = run([*style, *ARGS_XY, "--tmax", "-5",
                        "--out", str(tmp_path / "neg.csv")], capsys)
    assert code == 1
    assert "--tmax must be non-negative" in err
    assert "Traceback" not in err
    assert not (tmp_path / "neg.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "trajectory"])
def test_zero_tmax_repeats_the_start_state(command, tmp_path, capsys):
    out = tmp_path / "zero.csv"
    code, _, _ = run([command, *ARGS_XY, "--kappa", "0.8", "--theta0", "0.4678",
                      "--ptheta0", "0.1", "--tmax", "0", "--samples", "5",
                      "--out", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 5
    assert all(r == rows[0] for r in rows)
    assert [float(v) for v in rows[0][:3]] == [0.0, 0.4678, 0.1]


@pytest.mark.parametrize("command", ["simulate", "trajectory"])
def test_one_sample_is_the_start_state(command, tmp_path, capsys):
    out = tmp_path / "one.csv"
    code, _, err = run([command, *ARGS_XY, "--kappa", "0.8", "--theta0", "0.4678",
                        "--ptheta0", "-0.1", "--tmax", "5", "--samples", "1",
                        "--out", str(out)], capsys)
    assert code == 0, err
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert [float(v) for v in rows[0][:5]] == [0.0, 0.4678, -0.1, 0.0, 0.0]


def test_full_style_simulate_integrates_once(tmp_path, capsys, monkeypatch):
    # the path and the drift columns come from one kinematic run
    import rubberroll.cli as cli

    systems = []
    real = cli.integrate

    def counting(system, *args, **kwargs):
        systems.append(system)
        return real(system, *args, **kwargs)

    monkeypatch.setattr(cli, "integrate", counting)
    code, _, _ = run(["simulate", *ARGS_XY,
                      "--omega", "0.3,-0.18616978176397397,0.2346033803494251",
                      "--gamma", "0,0.78332690962748341,0.62160996827066439",
                      "--tmax", "5", "--samples", "11",
                      "--out", str(tmp_path / "full.csv")], capsys)
    assert code == 0
    assert systems == ["kinematic"]


def test_simulate_rows_equal_rows_built_one_at_a_time(tmp_path, capsys):
    # reference: each row read from the path as numpy scalars, with its own
    # reduced_energy or integrals call
    from rubberroll.dynamics import FullState, integrals, kinematic_init, reduced_energy
    from rubberroll.integrate import integrate
    from rubberroll.reconstruct import path_from_kinematic, reconstruct_trajectory

    p = Params(0.5, 3.0, 0.5, 0.5)
    tev = np.linspace(0.0, 30.0, 301)
    sim = [*ARGS_XY, "--tmax", "30", "--samples", "301"]

    def reference(path, drift):
        rows = []
        for i in range(len(path.t)):
            rows.append((path.t[i], path.theta[i], path.p_theta[i], path.psi[i],
                         path.phi[i], path.x_c[i], path.y_c[i], path.z_c[i],
                         path.x_p[i], path.y_p[i], *drift(i)))
        out = tmp_path / "ref.csv"
        cli._write_csv(str(out), cli._CSV_HEADER, rows)
        return out.read_bytes()

    out = tmp_path / "reduced.csv"
    assert main(["simulate", *sim, "--kappa", "-0.6", "--theta0", "1.1", "--ptheta0", "0.4",
                 "--out", str(out)]) == 0
    path = reconstruct_trajectory((1.1, 0.4), -0.6, (0.0, 30.0), p, t_eval=tev)

    def energy(i):
        return reduced_energy(float(path.theta[i]), float(path.p_theta[i]), -0.6, p)

    assert out.read_bytes() == reference(path, lambda i: (energy(i) - energy(0), 0.0))

    w = "0.3,-0.18616978176397397,0.2346033803494251"
    g = "0,0.78332690962748341,0.62160996827066439"
    out = tmp_path / "full.csv"
    assert main(["simulate", *sim, "--omega", w, "--gamma", g, "--out", str(out)]) == 0
    state = FullState(omega=np.array([float(v) for v in w.split(",")]),
                      gamma=np.array([float(v) for v in g.split(",")]))
    traj = integrate("kinematic", kinematic_init(state), (0.0, 30.0), p, t_eval=tev)
    path = path_from_kinematic(traj.t, traj.y, p)
    c0 = integrals(state, p)

    def drifts(i):
        ci = integrals(FullState.from_array(traj.y[i]), p)
        return ci.eps - c0.eps, ci.F1 - c0.F1

    assert out.read_bytes() == reference(path, drifts)
    capsys.readouterr()


def test_simulate_debug_log_leaves_the_file_alone(tmp_path):
    for command in ("simulate", "trajectory"):
        _log_leaves_the_file_alone(tmp_path, command)


def _log_leaves_the_file_alone(tmp_path, command):
    # a logging setup is per process, so each log level gets its own
    src = str(Path(rubberroll.__file__).resolve().parent.parent)
    files, errs = [], []
    for level in ("WARNING", "INFO", "DEBUG"):
        out = tmp_path / f"{command}-{level}.csv"
        env = dict(os.environ, RUBBERROLL_LOG=level, PYTHONPATH=os.pathsep.join(
            [src] + [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q]))
        proc = subprocess.run([sys.executable, "-m", "rubberroll.cli", command, *ARGS_XY,
                               "--kappa", "0.6", "--theta0", "1.2", "--ptheta0", "0.3",
                               "--tmax", "20", "--samples", "201", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        files.append(out.read_bytes())
        errs.append(proc.stderr)
    assert files[0] == files[1] == files[2]
    assert "reconstruct_trajectory" not in errs[0]
    # the period route: one line with the nodes of the period map's rung
    # and of the orbit's, the period, D's error and the period count, and
    # no stepper run
    route = (r"INFO rubberroll\.reconstruct: reconstruct_trajectory: period map on \d+ nodes, "
             r"orbit on \d+ nodes, T = [0-9.]+, err [0-9.e+-]+, [0-9.]+ periods\n")
    for err in errs[1:]:
        assert len(re.findall(route, err)) == 1, err
        assert "integrate_raw" not in err


def test_csv_values_print_as_17_significant_digits(tmp_path):
    from rubberroll.cli import _write_csv

    rows = [(1.0 / 3.0, -0.0, float("nan"), float("inf"), -float("inf"), 5),
            (1e-300, 2.5e17, 0.1, 123456789012345678.0, -1.5, 0)]
    out = tmp_path / "v.csv"
    _write_csv(str(out), list("abcdef"), rows)
    # the csv module writing format(float(v), ".17g") per value
    with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(list("abcdef"))
        for row in rows:
            w.writerow([format(float(v), ".17g") for v in row])
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_simulate_deterministic_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", *ARGS_XY, "--kappa", "0.8", "--theta0", "0.4678",
            "--tmax", "10", "--samples", "21"]
    assert main([*argv, "--out", str(a)]) == 0
    assert main([*argv, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_config_file_merge_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nalpha = 0.5\nbeta = 3\nnu = 0.5\neta = 0.5\n"
                   "kappa = 0.8\ntheta0 = 0.4678\ntmax = 5\nsamples = 11\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--kappa", "0.9",
                 "--out", str(b)]) == 0
    capsys.readouterr()
    _, rows_a = read_csv(a)
    _, rows_b = read_csv(b)
    assert rows_a[5][5] != rows_b[5][5]


def test_config_values_are_cast_like_their_flags(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("alpha = 0.5\nbeta = 3\nnu = 0.5\neta = 0.5\n"
                   "kappa-range = 0.5:0.8\nn-kappa = 2\nenergy = 3.5\n")
    out = tmp_path / "rn.csv"
    code, _, err = run(["rotation-number", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0, err
    _, rows = read_csv(out)
    assert [float(r[0]) for r in rows] == [0.5, 0.8]
    # a store_true option takes a boolean
    quick = tmp_path / "quick.cfg"
    quick.write_text("quick = true\n")
    code, out_text, _ = run(["verify", "--config", str(quick)], capsys)
    assert code == 0 and "reconstruction" not in out_text
    quick.write_text("quick = maybe\n")
    code, _, err = run(["verify", "--config", str(quick)], capsys)
    assert code == 1 and "cannot parse" in err


def test_flag_equal_to_its_default_beats_the_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa = 0.8\ntheta0 = 0.4678\ntmax = 1\nsamples = 11\n")
    out = tmp_path / "run.csv"
    code, _, err = run(["simulate", *ARGS_XY, "--config", str(cfg), "--samples", "2001",
                        "--out", str(out)], capsys)
    assert code == 0, err
    _, rows = read_csv(out)
    assert len(rows) == 2001


@pytest.mark.parametrize("argv", [
    ["simulate", *ARGS_XY, "--kappa", "0.8", "--theta0", "0.4678", "--tmax", "1",
     "--samples", "0"],
    ["trajectory", *ARGS_XY, "--kappa", "0.8", "--theta0", "0.4678", "--tmax", "1",
     "--samples", "0"],
    ["rotation-number", *ARGS_XY, "--kappa", "0.8", "--energy", "3.4", "--jobs", "0"],
    ["rotation-number", *ARGS_XY, "--kappa-range", "0.4:0.6", "--n-kappa", "0",
     "--energy", "3.4"],
    ["rotation-number", *ARGS_XY, "--kappa", "0.8", "--energy-range", "3.2:3.6",
     "--n-energy", "0"],
    ["resonance", *ARGS_XY, "--kappa-range", "0.5:0.5", "--n-kappa", "0"],
    ["resonance", *ARGS_XY, "--kappa-range", "0.5:0.5", "--jobs", "0"],
])
def test_zero_sizes_exit_one(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code, _, err = run([*argv, "--out", str(out)], capsys)
    assert code == 1
    assert "expected a positive integer, got '0'" in err
    assert not out.exists()


@pytest.mark.parametrize("orders", ["a", "", "1,,2", "0.5", "0,0", "1,0,1"])
def test_bad_resonance_orders_exit_one(orders, tmp_path, capsys):
    # a repeated order too; on the command line and in a config file alike
    out = tmp_path / "out.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = {orders}\n")
    for argv, message in (
            (["--n", orders], f"expected comma-separated integers, each once, got {orders!r}"),
            (["--config", str(cfg)], f"config key n: cannot parse {orders!r}")):
        code, _, err = run(["resonance", *ARGS_XY, "--kappa-range", "0.5:0.5", *argv,
                            "--out", str(out)], capsys)
        assert code == 1 and message in err, err
        assert not out.exists()


_TOL_RUNS = {
    "simulate": ["--kappa", "0.8", "--theta0", "0.4678", "--tmax", "1", "--samples", "3"],
    "trajectory": ["--kappa", "0.8", "--theta0", "0.4678", "--tmax", "1", "--samples", "3"],
    "rotation-number": ["--kappa", "0.8", "--energy", "3.4"],
    "resonance": ["--kappa-range", "0.5:0.5", "--n-kappa", "1"],
    "classify": ["--kappa", "1", "--energy", "3.057"],
}


@pytest.mark.parametrize("argv", [
    [command, *rest, flag, value] for command, rest in _TOL_RUNS.items()
    for flag in ("--tol-abs", "--tol-rel") for value in ("-1", "nan", "inf")
] + [[command, *_TOL_RUNS[command], "--tmax", "inf"] for command in ("simulate", "trajectory")])
def test_bad_tolerances_and_an_infinite_horizon_exit_one(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code, _, err = run([argv[0], *ARGS_XY, *argv[1:], "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("usage: rubberroll") and "Traceback" not in err
    flag, value = argv[-2:]
    if flag == "--tmax":
        assert "argument --tmax: expected a finite number, got 'inf'" in err
    else:
        assert f"argument {flag}: expected a finite non-negative number, got {value!r}" in err
    assert not out.exists()


def test_a_bad_tolerance_in_the_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol_rel = nan\n")
    out = tmp_path / "out.csv"
    code, _, err = run(["rotation-number", *ARGS_XY, *_TOL_RUNS["rotation-number"],
                        "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1 and "config key tol_rel: cannot parse 'nan'" in err
    assert not out.exists()


def test_zero_tol_abs_is_honoured(tmp_path, capsys, monkeypatch):
    import rubberroll.cli as cli

    seen = []
    real = cli.reconstruct_trajectory

    def recording(*args, **kwargs):
        seen.append((kwargs["tol_abs"], kwargs["tol_rel"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "reconstruct_trajectory", recording)
    base = [*ARGS_XY, "--kappa", "0.8", "--theta0", "0.4678", "--ptheta0", "0.1",
            "--tmax", "1", "--samples", "3", "--tol-abs", "0",
            "--out", str(tmp_path / "z.csv")]
    # a pure relative tolerance needs a start state with no zero component
    code, _, err = run(["trajectory", *base, "--psi0", "0.1", "--phi0", "0.1",
                        "--x0", "0.1", "--y0", "0.1"], capsys)
    assert code == 0, err
    # the period route's quadrature takes a pure relative tolerance from any start
    code, _, err = run(["simulate", *base], capsys)
    assert code == 0, err
    assert seen == [(0.0, 1e-10), (0.0, 1e-10)]
    # the stepper, the route of a relative equilibrium, needs a start state
    # with no zero component
    kappa = permanent_rotation(1.0, Params(0.5, 3.0, 0.5, 0.5)).kappa
    code, _, err = run(["simulate", *ARGS_XY, "--kappa", repr(kappa), "--theta0", "1.0",
                        "--tmax", "1", "--samples", "3", "--tol-abs", "0",
                        "--out", str(tmp_path / "z.csv")], capsys)
    assert code == 2
    assert "no zero component" in err


def test_classify_passes_its_tolerances_on(capsys, monkeypatch):
    import rubberroll.cli as cli

    seen = []
    real = cli.classify

    def recording(*args, **kwargs):
        seen.append((kwargs["tol_abs"], kwargs["tol_rel"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "classify", recording)
    code, out, _ = run(["classify", *ARGS_XY, "--kappa", "1", "--energy", "3.056979338",
                        "--tol-abs", "1e-13", "--tol-rel", "1e-11"], capsys)
    assert code == 0
    assert seen == [(1e-13, 1e-11)]
    assert json.loads(out)["kind"] == "QuasiPeriodicBounded"


@pytest.mark.parametrize("argv", [
    ["bifurcation", "--alpha", "0.5", "--beta", "3", "--tol-abs", "1e-9"],
    ["bifurcation", "--alpha", "0.5", "--beta", "3", "--tol-rel", "1e-9"],
    ["verify", "--quick", "--tol-abs", "1e-9"],
    ["verify", "--quick", "--out", "verify.txt"],
])
def test_unread_flags_are_rejected(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert "unrecognized arguments" in err


def test_config_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha 0.5\n")
    code, _, err = run(["simulate", "--config", str(cfg)], capsys)
    assert code == 1
    assert "key = value" in err


def test_trajectory_angle_seeds(tmp_path, capsys):
    base = tmp_path / "t0.csv"
    seeded = tmp_path / "t1.csv"
    argv = ["trajectory", *ARGS_XY, "--kappa", "0.8", "--theta0", "0.4678",
            "--tmax", "5", "--samples", "11"]
    assert main([*argv, "--out", str(base)]) == 0
    assert main([*argv, "--psi0", "3.141592653589793", "--x0", "1.0",
                 "--out", str(seeded)]) == 0
    capsys.readouterr()
    _, r0 = read_csv(base)
    _, r1 = read_csv(seeded)
    assert float(r1[0][3]) == pytest.approx(np.pi)
    assert float(r1[0][5]) == 1.0
    assert r0[0][3] == "0"


def test_trajectory_help_names_psi_the_precession_and_phi_the_proper_rotation(monkeypatch,
                                                                              capsys):
    monkeypatch.setenv("COLUMNS", "200")
    code, out, _ = run(["trajectory", "--help"], capsys)
    assert code == 0
    assert re.search(r"--psi0 PSI0\s+initial precession angle\n", out)
    assert re.search(r"--phi0 PHI0\s+initial proper-rotation angle\n", out)


@pytest.mark.parametrize("ab,want", [
    (("0.5", "0.5"), "a"),
    (("0.5", "1.1"), "b"),
    (("0.5", "3"), "c"),
    (("0", "0.5"), "d"),
    (("0", "1.5"), "e"),
])
def test_bifurcation_types(tmp_path, capsys, ab, want):
    out = tmp_path / "d.json"
    code, _, _ = run(["bifurcation", "--alpha", ab[0], "--beta", ab[1],
                      "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["diagram_type"] == want
    assert doc["boundary"] is False


def test_bifurcation_sphere_boundary_flag(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main(["bifurcation", "--alpha", "0", "--beta", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["boundary"] is True


def test_bifurcation_json_round_trip(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main(["bifurcation", "--alpha", "0.5", "--beta", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert json.loads(json.dumps(doc)) == doc
    assert {c["label"] for c in doc["curves"]} == {"sigma_s0", "sigma_spi",
                                                  "sigma_u"}
    for c in doc["curves"]:
        assert all(s["stability"] in ("center", "saddle") for s in c["samples"])


def _stdlib_json(payload):
    def clean(obj):
        if isinstance(obj, float):
            return obj if math.isfinite(obj) else None
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        return obj

    return json.dumps(clean(payload), indent=2) + "\n"


def _diagram_records(d) -> dict:
    """The bifurcation document of d, each curve's samples a list of dicts."""
    keys = ("theta0", "kappa", "eps", "stability", "lambda_sq")

    def curve(c):
        cols = [list(getattr(c, k)) for k in keys]
        assert len({len(col) for col in cols}) == 1
        return {"label": c.label, "samples": [dict(zip(keys, row)) for row in zip(*cols)]}

    p = d.params
    return {
        "params": {"alpha": p.alpha, "beta": p.beta, "nu": p.nu, "eta": p.eta},
        "diagram_type": d.diagram_type,
        "boundary": d.boundary,
        "two_torus_region": d.two_torus_region,
        "kappa_symmetric": d.kappa_symmetric,
        "cusp": None if d.cusp is None else {
            "theta": d.cusp.theta, "kappa": d.cusp.kappa, "eps": d.cusp.eps, "kind": d.cusp.kind},
        "curves": [curve(c) for c in d.curves],
        "points": [{"label": q.label, "kappa": q.kappa, "eps": q.eps,
                    "isolated": q.isolated, "stable": q.stable} for q in d.points],
        "rpm_boundary": curve(d.rpm_boundary),
    }


# the README body; the balanced sigma_pi2 parabola with its saddle/center
# switch; the sphere, where the parabola is all centers
@pytest.mark.parametrize("alpha, beta", [(0.5, 3.0), (0.0, 1.5), (0.0, 1.0)],
                         ids=["readme", "sigma_pi2", "sphere"])
def test_bifurcation_readme_file_is_the_stdlib_encoding(alpha, beta, tmp_path, capsys):
    out = tmp_path / "diagram.json"
    assert main(["bifurcation", "--alpha", str(alpha), "--beta", str(beta),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    # nu and eta default to 1
    want = _stdlib_json(_diagram_records(diagram(Params(alpha, beta, 1.0, 1.0))))
    assert out.read_bytes() == want.encode("ascii")


def test_bifurcation_stage_report_leaves_the_file_alone(tmp_path):
    # a logging setup is per process, so each log level gets its own
    src = str(Path(rubberroll.__file__).resolve().parent.parent)
    files, errs = [], []
    for level in ("WARNING", "INFO"):
        out = tmp_path / f"{level}.json"
        env = dict(os.environ, RUBBERROLL_LOG=level, PYTHONPATH=os.pathsep.join(
            [src] + [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q]))
        proc = subprocess.run([sys.executable, "-m", "rubberroll.cli", "bifurcation",
                               "--alpha", "0", "--beta", "0.5", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        files.append(out.read_bytes())
        errs.append(proc.stderr)
    assert files[0] == files[1]
    assert errs[0] == ""
    assert re.search(r"diagram curves: \d+ samples in [\d.]+ s; "
                     r"rpm boundary: 241 samples in [\d.]+ s", errs[1])
    assert f"({len(files[1])} bytes in " in errs[1]


def test_rotation_number_grid_reports_why_points_drop(tmp_path, caplog):
    # the grid crosses the RPM floor: the levels below it have no motion
    out = tmp_path / "rn.csv"
    caplog.set_level(logging.INFO, logger="rubberroll")
    assert main(["rotation-number", *ARGS_XY, "--kappa-range", "0.25:0.75", "--n-kappa", "3",
                 "--energy-range", "1.0:3.4", "--n-energy", "4", "--out", str(out)]) == 0
    p = Params(0.5, 3.0, 0.5, 0.5)
    rows, first = [], {}
    for k in (0.25, 0.5, 0.75):
        for e in np.linspace(1.0, 3.4, 4).tolist():
            try:
                rn = rotation_number(k, e, p, 0)
            except (ValueError, RuntimeError) as ex:
                first.setdefault(type(ex).__name__, [0, str(ex)])[0] += 1
                continue
            rows.append([k, e, rn.N, rn.err])
    assert list(first) == ["ValueError"] and 0 < first["ValueError"][0] < 12
    header, got = read_csv(out)
    assert [[float(v) for v in r] for r in got] == rows
    n, msg = first["ValueError"]
    assert (f"({len(rows)} of 12 grid points admissible; dropped: {n} ValueError "
            f"(first: {msg}))") in caplog.text
    assert "no admissible motion at kappa=0.25, eps=1.0" in msg


def test_rotation_number_grid_zero_kappa(tmp_path, capsys):
    out = tmp_path / "rn.csv"
    code, _, _ = run(["rotation-number", *ARGS_XY, "--kappa", "0",
                      "--energy-range", "3.2:3.6", "--n-energy", "5",
                      "--out", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 5
    assert all(r[2] == "0" for r in rows)


def test_rotation_number_grid_skips_empty_levels(tmp_path, capsys):
    # eps below the floor at this kappa: rows are dropped, not faked
    out = tmp_path / "rn.csv"
    code, _, _ = run(["rotation-number", *ARGS_XY, "--kappa", "0.8",
                      "--energy-range", "1.0:3.4", "--n-energy", "4",
                      "--out", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert 0 < len(rows) < 4


def test_rotation_number_jobs_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["rotation-number", *ARGS_XY, "--kappa-range", "0.4:0.6",
            "--n-kappa", "3", "--energy", "3.4"]
    assert main([*argv, "--out", str(a)]) == 0
    assert main([*argv, "--jobs", "3", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["rotation-number", *ARGS_XY, "--kappa-range", "0.4:0.8", "--n-kappa", "3",
     "--energy-range", "3.3:3.6", "--n-energy", "2"],
    ["resonance", *ARGS_XY, "--n", "0", "--kappa-range", "0.5:0.6", "--n-kappa", "2"],
], ids=["rotation-number", "resonance"])
def test_grid_csv_same_under_one_and_two_jobs(argv, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*argv, "--jobs", "1", "--out", str(a)]) == 0
    assert main([*argv, "--jobs", "2", "--out", str(b)]) == 0
    capsys.readouterr()
    assert len(read_csv(a)[1]) > 1
    assert a.read_bytes() == b.read_bytes()


def test_resonance_curve_known_point(tmp_path, capsys):
    out = tmp_path / "res.csv"
    code, _, _ = run(["resonance", *ARGS_XY, "--n", "0",
                      "--kappa-range", "0.5:0.5", "--n-kappa", "1",
                      "--out", str(out)], capsys)
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["kappa", "eps", "N", "N_err", "branch"]
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(3.1790302156, abs=1e-6)


def test_classify_json_output(capsys):
    code, out, _ = run(["classify", *ARGS_XY, "--kappa", "1",
                        "--energy", "3.056979338"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "QuasiPeriodicBounded"
    assert doc["resonance"] is None
    assert abs(doc["N"] + 0.759287942) < 1e-6


def test_classify_below_floor_exits_two(capsys):
    code, _, err = run(["classify", *ARGS_XY, "--kappa", "0.8",
                        "--energy", "1.2"], capsys)
    assert code == 2
    assert "numerical failure" in err


def test_verify_quick_passes(capsys):
    code, out, _ = run(["verify", "--quick"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 6
    assert all(ln.startswith("PASS") for ln in lines)
    assert "all checks passed" in out


CHECK_NAMES = ["conservation", "reduction", "measure", "steady-rotations", "energy-form",
               "threshold-form", "quadrature", "period-map", "slope", "log-slope",
               "reconstruction"]


def test_verify_runs_every_check_once_in_order(capsys):
    for flags, names in ((["--quick"], CHECK_NAMES[:7]), ([], CHECK_NAMES)):
        code, out, _ = run(["verify", *flags], capsys)
        lines = out.splitlines()
        assert code == 0 and lines[-1] == "all checks passed", out
        assert [ln.split(":")[0] for ln in lines[:-1]] == [f"PASS {name}" for name in names]


# nu = eta = 1 bodies across regions a-e, alpha = 0 with the sphere, and
# the region boundaries beta^2 = 1 -/+ alpha
SWEEP = [(0.5, 0.5), (0.7, 0.5), (0.5, 1.0), (1.0, 1.2), (0.5, 3.0), (0.3, 1.5), (0.9, 5.0),
         (0.05, 2.0), (1.0, 2.0), (0.0, 0.7), (0.0, 1.5), (0.0, 3.0), (0.0, 1.0),
         (0.5, math.sqrt(0.5)), (0.5, math.sqrt(1.5))]


@pytest.mark.parametrize("alpha, beta", SWEEP)
def test_verify_quick_passes_across_the_regions(alpha, beta):
    p, rng = Params(alpha, beta, 1.0, 1.0), np.random.default_rng(0)
    records = [check(p, rng, True, "derived") for check in checks.CHECKS[:checks.N_QUICK]]
    failed = [(r.name, r.values, r.bounds) for r in records if not r.ok]
    assert not failed, failed


@pytest.mark.slow
def test_full_verify_passes_where_f1_drift_reached_the_bound(capsys):
    # at tolerances 1e-12 the conservation runs drifted |dF1| = 1.09e-10 here
    code, out, _ = run(["verify", "--alpha", "0.9", "--beta", "5", "--nu", "1", "--eta", "1"],
                       capsys)
    assert code == 0, [ln for ln in out.splitlines() if ln.startswith("FAIL")]


def test_verify_flipped_cross_term_fails(capsys):
    code, out, _ = run(["verify", "--quick", "--b-sign", "paper"], capsys)
    assert code == 3
    failed = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert any("energy-form" in ln for ln in failed)
    assert any(ln.startswith("FAIL reduction") for ln in failed)


@pytest.mark.parametrize("command", ["simulate", "trajectory", "bifurcation",
                                     "rotation-number", "resonance", "classify"])
def test_b_sign_is_a_verify_only_flag(command, capsys):
    code, _, err = run([command, *ARGS_XY, "--b-sign", "derived"], capsys)
    assert code == 1
    assert "unrecognized arguments: --b-sign" in err


def _parse_error(parser, argv, capsys):
    with pytest.raises(SystemExit) as ex:
        parser.parse_args(argv)
    return ex.value.code, capsys.readouterr().err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_lone_subcommand_parser_reads_as_the_full_one(command, capsys):
    lone, full = cli._build_parser(command), cli._build_parser()

    def sub(parser):
        return next(a for a in parser._actions if a.dest == "command").choices[command]

    assert sub(lone).format_help() == sub(full).format_help()
    bad = _parse_error(lone, [command, "--alpha", "x"], capsys)
    assert bad == _parse_error(full, [command, "--alpha", "x"], capsys)
    assert bad[0] == 1 and "argument --alpha: expected a finite number, got 'x'" in bad[1]
    # the subcommands report their own usage errors through the top-level parser
    for parser in (lone, full):
        with pytest.raises(SystemExit):
            parser.error("--alpha is required")
    lone_err, full_err = capsys.readouterr().err.split("rubberroll: error: --alpha is required\n")[:2]
    assert lone_err == full_err and all(c in full_err for c in cli._COMMANDS)


@pytest.mark.parametrize("argv", [[], ["nope"]])
def test_no_or_an_unknown_command_lists_every_command(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert all(c in err for c in cli._COMMANDS)


@pytest.mark.parametrize("body, detail", [
    ([], "sign-flipped variant off by 9.38e-02"),
    # at alpha = 0 both closed forms of the circulation threshold equal beta
    (["--alpha", "0", "--beta", "1.5"], "sign-flipped variant coincides with it"),
    (["--alpha", "0", "--beta", "3"], "sign-flipped variant coincides with it"),
])
def test_verify_threshold_form_compares_the_variant_where_it_differs(body, detail, capsys):
    code, out, _ = run(["verify", "--quick", *body], capsys)
    assert code == 0
    line = next(ln for ln in out.splitlines() if "threshold-form" in ln)
    assert line.startswith("PASS") and line.endswith(detail)


def test_verify_threshold_form_catches_a_flipped_alpha_term(capsys, monkeypatch):
    forms = checks._threshold_forms

    def flipped(a, b):
        return b * math.sqrt((b * b - 1.0 - a * a) / (b * b - 1.0)), forms(a, b)[1]

    monkeypatch.setattr(checks, "_threshold_forms", flipped)
    code, out, _ = run(["verify", "--quick"], capsys)
    assert code == 3
    failed = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("FAIL threshold-form")


def test_verify_seed_changes_draws_not_verdict(capsys):
    code0, out0, _ = run(["verify", "--quick", "--seed", "1"], capsys)
    code1, out1, _ = run(["verify", "--quick", "--seed", "2"], capsys)
    assert code0 == code1 == 0
    assert out0 != out1


def test_verify_quadrature_check_catches_a_wrong_rotation_number(capsys, monkeypatch):
    rotation_number = checks.rotation_number

    def off(*args, **kwargs):
        rn = rotation_number(*args, **kwargs)
        return dataclasses.replace(rn, N=rn.N + 1e-8)

    monkeypatch.setattr(checks, "rotation_number", off)
    code, out, _ = run(["verify", "--quick"], capsys)
    assert code == 3
    failed = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("FAIL quadrature")


P_VERIFY = Params(0.5, 3.0, 0.5, 0.5)


def _off_by(monkeypatch, name, perturb):
    """Make checks.<name> return perturb(its result, its arguments)."""
    fn = getattr(checks, name)
    monkeypatch.setattr(checks, name, lambda *args, **kwargs: perturb(fn(*args, **kwargs), args))


def _fails(check, values_failing):
    rec = check(P_VERIFY, np.random.default_rng(0), False, "derived")
    assert [v > b for v, b in zip(rec.values, rec.bounds)] == values_failing, rec
    assert not rec.ok


# the four checks of the full suite alone, each with the program it guards
# put off by far more than its bound and far less than its own size

def test_period_map_check_catches_a_wrong_drift(monkeypatch):
    _off_by(monkeypatch, "period_map", lambda pm, args: dataclasses.replace(pm, D=pm.D + 1e-8))
    _fails(checks.period_map_drift, [True])


def test_slope_check_catches_a_wrong_slope(monkeypatch):
    _off_by(monkeypatch, "_rotation_slope", lambda r, args: (r[0], r[1] * (1.0 + 1e-6), r[2]))
    _fails(checks.slope, [True])


def test_log_slope_check_catches_a_wrong_slope_in_ln_delta(monkeypatch):
    # N + 1e-6 ln delta moves the measured slope by 1e-6, about 4x the bound
    def off(rn, args):
        kappa, eps, p = args[:3]
        delta = eps - checks.critical_points(kappa, p).saddles[0][1]
        return dataclasses.replace(rn, N=rn.N + 1e-6 * math.log(delta))

    _off_by(monkeypatch, "rotation_number", off)
    _fails(checks.log_slope, [True])


def test_reconstruction_check_catches_a_wrong_path(monkeypatch):
    # the height identity still holds, so only the path gap fails
    _off_by(monkeypatch, "reconstruct_trajectory",
            lambda path, args: dataclasses.replace(path, x_c=path.x_c + 1e-5))
    _fails(checks.reconstruction, [True, False])


# every option whose value holds numbers, by its type: how a bad number is
# written into a value of that type
_NUMBER_TYPES = {
    cli._finite: lambda x: x,
    cli._tolerance: lambda x: x,
    cli._span: lambda x: f"0:{x}",
    cli._triple: lambda x: f"0,0,{x}",
}


def _subparser_actions(command):
    parser = cli._build_parser(command)
    sub = next(a for a in parser._actions if a.dest == "command")
    return sub.choices[command]._actions


def _number_options():
    return [(command, action.option_strings[0], action.dest, _NUMBER_TYPES[action.type])
            for command in cli._COMMANDS for action in _subparser_actions(command)
            if action.type in _NUMBER_TYPES]


def test_no_option_parses_a_plain_float():
    # a plain float option would take nan and inf; each number option has
    # one of the types the table below checks
    for command in cli._COMMANDS:
        for action in _subparser_actions(command):
            assert action.type is not float, (command, action.option_strings)
    assert len(_number_options()) > 50


@pytest.mark.parametrize("command,flag,dest,spell", _number_options())
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_every_number_option_rejects_a_non_finite_value(command, flag, dest, spell, bad,
                                                        tmp_path, capsys):
    # on the command line and in a config file alike: exit 1 with a usage
    # error, before any output file is written
    value = spell(bad)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{dest} = {value}\n")
    out = ["--out", str(tmp_path / "out")] if command != "verify" else []
    for argv, message in (([command, f"{flag}={value}", *out], f"argument {flag}: expected"),
                          ([command, "--config", str(cfg), *out], f"config key {dest}: cannot")):
        with deadline(20):
            code, _, err = run(argv, capsys)
        assert code == 1, (argv, err)
        assert err.startswith("usage: rubberroll") and message in err, err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


# every option whose value is an integer, by its type: the least value it takes
_INTEGER_LOWS = {cli._count: 1, cli._index: 0}


def _integer_options():
    return [(command, action.option_strings[0], action.dest, _INTEGER_LOWS[action.type])
            for command in cli._COMMANDS for action in _subparser_actions(command)
            if action.type in _INTEGER_LOWS]


def test_no_option_parses_a_plain_int():
    # a plain int option would take a negative branch, seed or size; each
    # integer option has one of the bounded types the table below checks
    for command in cli._COMMANDS:
        for action in _subparser_actions(command):
            assert action.type is not int, (command, action.option_strings)
    assert len(_integer_options()) >= 10


@pytest.mark.parametrize("command,flag,dest,low", _integer_options())
def test_every_integer_option_rejects_a_value_below_its_bound(command, flag, dest, low,
                                                              tmp_path, capsys):
    # on the command line and in a config file alike: exit 1 with a usage
    # error, before any output file is written
    value = low - 1
    kind = "positive" if low == 1 else "non-negative"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{dest} = {value}\n")
    out = ["--out", str(tmp_path / "out")] if command != "verify" else []
    for argv, message in (([command, f"{flag}={value}", *out],
                           f"argument {flag}: expected a {kind} integer, got '{value}'"),
                          ([command, "--config", str(cfg), *out], f"config key {dest}: cannot")):
        with deadline(20):
            code, _, err = run(argv, capsys)
        assert code == 1, (argv, err)
        assert err.startswith("usage: rubberroll") and message in err, err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_a_branch_past_the_components_depends_on_the_level(tmp_path, capsys):
    # the level has one component: classify fails numerically, and the
    # rotation-number grid drops the point
    code, out, err = run(["classify", *ARGS_XY, "--kappa", "1", "--energy", "3.057",
                          "--branch", "1"], capsys)
    assert code == 2 and "branch 1 out of range, 1 component(s)" in err
    path = tmp_path / "rn.csv"
    code, _, _ = run(["rotation-number", *ARGS_XY, "--kappa", "1", "--energy", "3.057",
                      "--branch", "1", "--out", str(path)], capsys)
    assert code == 0 and path.read_text() == "kappa,eps,N,N_err\n"


def test_validate_rejects_infinite_ratios():
    from rubberroll.model import validate
    assert validate(Params(0.5, math.inf, 0.5, 0.5)) == ["beta must be positive and finite, got inf"]
    assert validate(Params(0.5, 3.0, 0.5, math.inf)) == ["eta must be positive and finite, got inf"]


# a short run of each subcommand that writes a file
_OUT_RUNS = {
    "simulate": ["--kappa", "0.8", "--theta0", "0.4678", "--tmax", "1", "--samples", "3"],
    "trajectory": ["--kappa", "0.8", "--theta0", "0.4678", "--tmax", "1", "--samples", "3"],
    "bifurcation": [],
    "rotation-number": ["--kappa", "0.8", "--energy", "3.4"],
    "resonance": ["--kappa-range", "0.5:0.5", "--n-kappa", "1"],
    "classify": ["--kappa", "1", "--energy", "3.057"],
}


# the function each command computes its output with
_COMPUTE = {"simulate": "reconstruct_trajectory", "trajectory": "reconstruct_trajectory",
            "bifurcation": "diagram", "rotation-number": "rotation_number",
            "resonance": "resonance_curve", "classify": "classify"}


def _never(*args, **kwargs):
    raise AssertionError("computed before the output was checked")


@pytest.mark.parametrize("command", [command for command in cli._COMMANDS
                                     if any("--out" in action.option_strings
                                            for action in _subparser_actions(command))])
def test_an_output_that_cannot_be_written_exits_one(command, tmp_path, capsys, monkeypatch):
    # a path in a missing directory, a directory and an empty path: one
    # usage error line that names the path, no traceback, nothing computed
    # first and no file, in the working directory neither
    monkeypatch.setattr(cli, _COMPUTE[command], _never)
    monkeypatch.chdir(tmp_path)
    for path in (tmp_path / "missing" / "out", tmp_path, ""):
        code, _, err = run([command, *ARGS_XY, *_OUT_RUNS[command], "--out", str(path)], capsys)
        assert code == 1 and "Traceback" not in err, err
        assert err.startswith("usage: rubberroll") and err.count("rubberroll: error:") == 1, err
        assert repr(str(path)) in err.splitlines()[-1], err
    assert [p.name for p in tmp_path.iterdir()] == []


def test_every_output_of_a_resonance_run_is_checked_before_the_first_is_computed(
        tmp_path, capsys, monkeypatch):
    # the second order's file is a directory: the run fails before it
    # computes the first order, and writes neither file
    monkeypatch.setattr(cli, "resonance_curve", _never)
    (tmp_path / "res_n1.csv").mkdir()
    code, _, err = run(["resonance", *ARGS_XY, "--n", "0,1", "--kappa-range", "0.5:0.5",
                        "--n-kappa", "1", "--out", str(tmp_path / "res.csv")], capsys)
    assert code == 1 and "Traceback" not in err, err
    assert repr(str(tmp_path / "res_n1.csv")) in err.splitlines()[-1], err
    assert [p.name for p in tmp_path.iterdir()] == ["res_n1.csv"]


def test_an_empty_out_of_a_resonance_run_of_several_orders_exits_one(tmp_path, capsys,
                                                                     monkeypatch):
    # "" names no file, and no "_n{order}" file is made from it either
    monkeypatch.setattr(cli, "resonance_curve", _never)
    monkeypatch.chdir(tmp_path)
    code, _, err = run(["resonance", *ARGS_XY, "--n", "0,1", *_OUT_RUNS["resonance"],
                        "--out", ""], capsys)
    assert code == 1 and err.splitlines()[-1].endswith("No such file or directory: ''"), err
    assert list(tmp_path.iterdir()) == []


_FAILURES = [ValueError, IntegrationError, PoleError, RuntimeError]


@pytest.mark.parametrize("error", _FAILURES, ids=lambda e: e.__name__)
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_numerical_failure_exits_two(command, error, tmp_path, capsys, monkeypatch):
    # one "numerical failure:" line on stderr, no traceback, nothing on
    # stdout and no file; the rotation-number grid drops the point instead
    def fail(*args, **kwargs):
        raise error("no convergence")

    if command == "verify":
        monkeypatch.setattr(checks, "CHECKS", [fail, *checks.CHECKS[1:]])
        argv = ["verify", "--quick"]
    else:
        monkeypatch.setattr(cli, _COMPUTE[command], fail)
        jobs = ["--jobs", "1"] if command == "rotation-number" else []
        argv = [command, *ARGS_XY, *_OUT_RUNS[command], *jobs, "--out", str(tmp_path / "out")]
    code, out, err = run(argv, capsys)
    if command == "rotation-number":
        assert code == 0 and err == "", err
        assert (tmp_path / "out").read_text() == "kappa,eps,N,N_err\n"
        return
    assert code == 2 and out == "", (out, err)
    assert err.splitlines() == ["numerical failure: no convergence"], err
    assert list(tmp_path.iterdir()) == []


def test_a_resonance_run_whose_wall_is_lost_to_a_huge_eps_exits_two(tmp_path, capsys):
    path = tmp_path / "res.csv"
    code, _, err = run(["resonance", *ARGS_XY, *_OUT_RUNS["resonance"], "--eps-max", "1e300",
                        "--out", str(path)], capsys)
    assert code == 2, err
    (line,) = err.splitlines()
    assert line.startswith("numerical failure: the centrifugal wall of |kappa|=0.5 at eps="), line
    assert not path.exists()
