"""The scipy-free runtime: Brent's root finder and the DOP853 tableau
against scipy, their oracle, and a run that loads no scipy; the bracketed
Newton polish against Brent's root finder."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate._ivp import dop853_coefficients as dop
from scipy.optimize import brentq as scipy_brentq

import rubberroll
import rubberroll.dynamics
from rubberroll import brent, integrate
from rubberroll.brent import brentq, newton_bracketed
from rubberroll.dynamics import check_turning_point, component_intervals
from rubberroll.model import Params

# f(x; r, c) families: smooth monotone, flat root, oscillating (several or no
# roots in a bracket), a sign step (bisection only), NaN past a point, and
# values so small that the extrapolation's denominator underflows to zero
ROOT_FAMILIES = {
    "cubic": lambda x, r, c: (x - r) * (1.0 + c * (x - r) ** 2),
    "tiny": lambda x, r, c: 1e-300 * (x - r) * (1.0 + c * (x - r) ** 2),
    "flat": lambda x, r, c: (x - r) ** 5,
    "cos": lambda x, r, c: math.cos((1.0 + 3.0 * c) * x) - r / 5.0,
    "tanh": lambda x, r, c: math.tanh(10.0 ** (3.0 * c) * (x - r)) + 0.1 * c,
    "step": lambda x, r, c: -1.0 if x < r else 1.0,
    "nan": lambda x, r, c: x - r if x < r + c else math.nan,
}

# their exact slopes; "step" has none but 0, so its Newton steps bisect
SLOPES = {
    "cubic": lambda x, r, c: 1.0 + 3.0 * c * (x - r) ** 2,
    "tiny": lambda x, r, c: 1e-300 * (1.0 + 3.0 * c * (x - r) ** 2),
    "flat": lambda x, r, c: 5.0 * (x - r) ** 4,
    "cos": lambda x, r, c: -(1.0 + 3.0 * c) * math.sin((1.0 + 3.0 * c) * x),
    "tanh": lambda x, r, c: 10.0 ** (3.0 * c) * (1.0 - math.tanh(10.0 ** (3.0 * c) * (x - r)) ** 2),
    "step": lambda x, r, c: 0.0,
    "nan": lambda x, r, c: 1.0,
}


def _counted(fn, calls):
    def f(x):
        calls.append(x)
        return fn(x)
    return f


def _outcome(solver, fn, *args, **kwargs):
    """(result, exception type and text, the points f was called at)."""
    calls = []
    try:
        return solver(_counted(fn, calls), *args, **kwargs), None, calls
    except (ValueError, RuntimeError) as ex:
        return None, (type(ex), str(ex)), calls


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(sorted(ROOT_FAMILIES)),
    r=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    c=st.floats(0.0, 1.0),
    a=st.floats(-5.0, 5.0),
    b=st.floats(-5.0, 5.0),
    log_xtol=st.floats(-300.0, -1.0),
)
def test_brentq_matches_scipy(family, r, c, a, b, log_xtol):
    f = lambda x: ROOT_FAMILIES[family](x, r, c)
    xtol = 10.0 ** log_xtol
    got = _outcome(brentq, f, a, b, xtol=xtol)
    ref = _outcome(scipy_brentq, f, a, b, xtol=xtol, rtol=brent._RTOL)
    assert got == ref


def test_brentq_error_contract():
    # no sign change, a NaN value, 100 bisections that do not reach the
    # tolerance, and a zero xtol: the same errors as scipy
    cases = [
        (lambda x: x * x + 1.0, -1.0, 1.0, 2e-12),
        (lambda x: math.nan, -1.0, 1.0, 2e-12),
        (lambda x: -1.0 if x < 0.0 else 1.0, -1.0, 1.0, 1e-300),
        (lambda x: x, -1.0, 1.0, 0.0),
    ]
    kinds = []
    for f, a, b, xtol in cases:
        got = _outcome(brentq, f, a, b, xtol=xtol)
        assert got == _outcome(scipy_brentq, f, a, b, xtol=xtol, rtol=brent._RTOL)
        kinds.append(got[1][0])
    assert kinds == [ValueError, ValueError, RuntimeError, ValueError]


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E3", "E5"])
def test_dop853_tableau_is_scipys(name):
    assert np.array_equal(getattr(integrate, "_" + name), getattr(dop, name))


def test_dop853_stage_counts_are_scipys():
    assert integrate._N_STAGES == dop.N_STAGES
    assert integrate._N_STAGES_EXTENDED == dop.N_STAGES_EXTENDED
    assert integrate._INTERPOLATOR_POWER == dop.INTERPOLATOR_POWER


def test_runtime_loads_no_scipy(tmp_path):
    code = textwrap.dedent(f"""
        import sys

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        from rubberroll.cli import main
        print("import", scipy_modules())
        assert main(["verify", "--quick"]) == 0
        assert main(["bifurcation", "--alpha", "0.5", "--beta", "3",
                     "--out", {str(tmp_path / "diagram.json")!r}]) == 0
        print("runs", scipy_modules())
    """)
    src = str(Path(rubberroll.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "import []"
    assert lines[-1] == "runs []"


def _newton(f, df, a, b, **kwargs):
    """newton_bracketed's outcome as _outcome gives brentq's, on the values
    of f at the ends and f_df = (f, df) inside."""
    calls = []

    def f_df(x):
        calls.append(x)
        return f(x), df(x)
    try:
        return newton_bracketed(f_df, a, b, f(a), f(b), **kwargs), None, calls
    except (ValueError, RuntimeError) as ex:
        return None, (type(ex), str(ex)), calls


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(sorted(set(ROOT_FAMILIES) - {"step"})),
    r=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    c=st.floats(0.0, 1.0),
    a=st.floats(-5.0, 5.0),
    b=st.floats(-5.0, 5.0),
    log_xtol=st.floats(-15.0, -1.0),
)
def test_newton_bracketed_finds_brentqs_root(family, r, c, a, b, log_xtol):
    # within xtol + 4 ulp of brentq's root at xtol 1e-15; a root of
    # multiplicity m (flat: 5) is only known to m times that from the last
    # step.  Where a bracket holds several roots (cos), or brentq cannot
    # reach 1e-15 (flat at 0), f changes sign within that of the root
    f = lambda x: ROOT_FAMILIES[family](x, r, c)
    df = lambda x: SLOPES[family](x, r, c)
    xtol = 10.0 ** log_xtol
    ref = _outcome(brentq, f, a, b, xtol=1e-15)
    got = _newton(f, df, a, b, xtol=xtol)
    if got[1] is not None or (ref[1] is not None and ref[1][0] is ValueError):
        # same-sign ends, or NaN at an end, which brentq meets first too
        assert got[1] == ref[1] and got[2] == [], (got, ref)
        return
    x = got[0]
    assert min(a, b) <= x <= max(a, b)
    tol = (5 if family == "flat" else 1) * (xtol + 4 * math.ulp(x))
    if family == "cos" or ref[1] is not None:
        lo, hi = f(x - tol - brent._RTOL * abs(x)), f(x + tol + brent._RTOL * abs(x))
        assert f(x) == 0.0 or lo * hi <= 0.0, (x, lo, hi)
    else:
        assert abs(x - ref[0]) <= tol, (x, ref[0])


def test_newton_bracketed_keeps_brentqs_end_rules_and_errors():
    # a zero end is the root, without a call; same-sign ends, NaN at an end
    # and a zero xtol raise brentq's errors; NaN inside raises ValueError;
    # 100 bisections of a step short of the tolerance raise RuntimeError
    line = lambda x: x - 0.25
    one = lambda x: 1.0
    assert _newton(line, one, 0.25, 1.0, xtol=1e-12) == (0.25, None, [])
    assert _newton(line, one, -1.0, 0.25, xtol=1e-12) == (0.25, None, [])
    for f, a, b, xtol in [(lambda x: x * x + 1.0, -1.0, 1.0, 2e-12),
                          (lambda x: math.nan, -1.0, 1.0, 2e-12),
                          (lambda x: x if x < 0.5 else math.nan, -1.0, 1.0, 2e-12),
                          (lambda x: x, -1.0, 1.0, 0.0)]:
        got = _newton(f, one, a, b, xtol=xtol)
        assert got[1] == _outcome(brentq, f, a, b, xtol=xtol)[1] and got[2] == []
    inside = _newton(lambda x: x if abs(x) > 0.1 else math.nan, one, -1.0, 0.5, xtol=1e-12)
    assert inside[1][0] is ValueError and "is NaN" in inside[1][1]
    step = lambda x: -1.0 if x < 0.0 else 1.0
    got = _newton(step, lambda x: 0.0, -1.0, 1.0, xtol=1e-300)
    assert got[1] == (RuntimeError, "Failed to converge after 100 iterations.")
    assert len(got[2]) == 100
    # with a reachable xtol the same bisections converge on the jump
    x, err, calls = _newton(step, lambda x: 0.0, -1.0, 1.0, xtol=1e-12)
    assert err is None and abs(x) <= 1e-12 and len(calls) < 50


@pytest.mark.parametrize("log_r", [-30.0, -22.5, -13.0, -7.0])
def test_newton_bracketed_near_a_pole_with_a_relative_xtol(log_r):
    # a centrifugal wall f = (r / x)^2 - 1 on a bracket of six decades, to a
    # tolerance relative to its left end as the scans take it; from the
    # secant point, halving carries the steps down the decades
    r = 10.0 ** log_r
    a, b = 1e-3 * r, 1e3 * r
    f = lambda x: (r / x) ** 2 - 1.0
    df = lambda x: -2.0 * r * r / x ** 3
    x, err, calls = _newton(f, df, a, b, xtol=1e-14 * a)
    assert err is None and len(calls) <= 60
    x_ref = brentq(f, a, b, xtol=1e-15 * a)
    assert abs(x - x_ref) <= 1e-14 * a + 4 * math.ulp(x_ref)
    assert abs(x - r) <= 2 * math.ulp(r)


def test_a_wall_at_kappa_1e_13_takes_two_evaluations_at_most(monkeypatch):
    # the closed-form start of the centrifugal wall: about 50 evaluations
    # of plain halving from the wall node become one or two Newton steps
    p, kappa, eps = Params(0.5, 3.0, 0.5, 0.5), 1e-13, 3.5
    evals = []
    real = rubberroll.dynamics.newton_bracketed

    def counting(f_df, a, b, *args, **kwargs):
        n = [0]

        def f(x):
            n[0] += 1
            return f_df(x)
        root = real(f, a, b, *args, **kwargs)
        evals.append((root, n[0]))
        return root
    monkeypatch.setattr(rubberroll.dynamics, "newton_bracketed", counting)
    ((lo, hi),) = component_intervals(kappa, eps, p)
    walls = [n for root, n in evals if root in (lo, hi)]
    assert lo < 1e-12 and math.pi - hi < 1e-12, evals
    assert len(walls) == 2 and max(walls) <= 2, evals
    for end in (lo, hi):
        check_turning_point(end, kappa, eps, p)
