"""The scipy-free runtime: Brent's root finder and bounded minimizer and the
DOP853 tableau against scipy, their oracle, and a run that loads no scipy."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate._ivp import dop853_coefficients as dop
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

import rubberroll
from rubberroll import brent, integrate
from rubberroll.brent import brentq, minimize_bounded

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

# g(x; m, c) families: one smooth minimum, several, a kink, a narrow dip,
# terraces (ties between trial values) and a constant
MIN_FAMILIES = {
    "quadratic": lambda x, m, c: (x - m) ** 2,
    "terraces": lambda x, m, c: math.floor(10.0 * c * math.cos(3.0 * x + m)),
    "wavy": lambda x, m, c: (x - m) ** 2 + c * math.cos(8.0 * x),
    "kink": lambda x, m, c: abs(x - m) + c * x,
    "dip": lambda x, m, c: -math.exp(-(((x - m) / (0.01 + c)) ** 2)),
    "flat": lambda x, m, c: 1.0,
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(sorted(MIN_FAMILIES)),
    m=st.floats(-3.0, 3.0),
    c=st.floats(0.0, 1.0),
    lo=st.floats(-3.0, 3.0),
    width=st.one_of(st.just(0.0), st.floats(1e-9, 6.0)),
    log_xatol=st.floats(-13.0, -2.0),
)
# ties between a trial value and the kept points
@example(family="terraces", m=-1.07, c=0.54, lo=0.69, width=3.91, log_xatol=-3.0)
@example(family="terraces", m=-1.05, c=0.14, lo=0.06, width=5.99, log_xatol=-6.0)
def test_minimize_bounded_matches_scipy(family, m, c, lo, width, log_xatol):
    g = lambda x: MIN_FAMILIES[family](float(x), m, c)
    hi, xatol = lo + width, 10.0 ** log_xatol
    calls = []
    x, fun = minimize_bounded(_counted(g, calls), lo, hi, xatol=xatol)
    ref_calls = []
    res = minimize_scalar(_counted(g, ref_calls), bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol})
    assert (x, fun) == (float(res.x), float(res.fun))
    assert calls == ref_calls


def test_minimize_bounded_rejects_bad_bounds():
    with pytest.raises(ValueError, match="exceeds"):
        minimize_bounded(abs, 1.0, 0.0, xatol=1e-5)
    with pytest.raises(ValueError, match="finite"):
        minimize_bounded(abs, 0.0, math.inf, xatol=1e-5)


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
