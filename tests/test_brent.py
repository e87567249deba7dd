"""The scipy-free runtime: Brent's root finder and the DOP853 tableau
against scipy, their oracle, and a run that loads no scipy."""

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
from rubberroll import brent, integrate
from rubberroll.brent import brentq

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
