"""kappa -> -kappa mirror symmetry, and the documented limits of the body
ratios (alpha in {0, 1}, beta = 1, nu = 2, beta^2 = 1 +/- alpha)."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rubberroll.bifurcation import diagram, rpm_floor
from rubberroll.dynamics import component_intervals, critical_thetas, effective_potential
from rubberroll.geometry import contact_vector, surface_b, surface_u, surface_z
from rubberroll.integrate import IntegrationError, section_period
from rubberroll.model import Params
from rubberroll.reconstruct import CLASS_KINDS, classify, rotation_number

# one body per diagram region a-e
REGION_BODIES = [
    Params(0.5, 0.5, 1.0, 1.0),
    Params(0.5, 1.0, 0.7, 2.0),
    Params(0.5, 3.0, 0.5, 0.5),
    Params(0.0, 0.7, 1.5, 0.8),
    Params(0.0, 1.5, 1.0, 1.0),
]

# (body, diagram type, on a region boundary)
EDGE_BODIES = [
    (Params(0.0, 1.0, 2.0, 1.0), "e", True),                  # centered sphere
    (Params(1.0, 1.0, 2.0, 0.5), "b", False),                 # offset on the surface
    (Params(1.0, math.sqrt(2.0), 1.0, 1.0), "c", True),       # beta^2 = 1 + alpha
    (Params(0.5, math.sqrt(0.5), 2.0, 1.0), "b", True),       # beta^2 = 1 - alpha
    (Params(0.5, math.sqrt(1.5), 0.5, 2.0), "c", True),       # beta^2 = 1 + alpha
    (Params(0.0, 2.0, 2.0, 1.0), "e", False),
    (Params(1.0, 3.0, 2.0, 0.5), "c", False),
]
EDGE_IDS = [f"a{p.alpha:g}-b{p.beta:.4g}-nu{p.nu:g}" for p, _, _ in EDGE_BODIES]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    body=st.sampled_from(REGION_BODIES),
    kappa=st.floats(0.05, 2.0),
    height=st.floats(1e-3, 2.0),
    pick=st.integers(0, 3),
)
def test_mirrored_kappa_flips_n_and_keeps_t_and_class(body, kappa, height, pick):
    eps = rpm_floor(kappa, body) + height
    comps = component_intervals(kappa, eps, body)
    assume(comps)
    branch = pick % len(comps)
    assert component_intervals(-kappa, eps, body) == comps

    a = rotation_number(kappa, eps, body, branch)
    b = rotation_number(-kappa, eps, body, branch)
    assert abs(a.N + b.N) <= a.err + b.err + 1e-13
    assert a.period == b.period

    ta = section_period(kappa, eps, body, branch)
    tb = section_period(-kappa, eps, body, branch)
    assert abs(ta.T_theta - tb.T_theta) <= ta.err + tb.err + 1e-13 * ta.T_theta

    ca = classify(kappa, eps, body, branch)
    cb = classify(-kappa, eps, body, branch)
    assert ca.kind == cb.kind
    assert ca.targets == cb.targets
    if ca.resonance is not None:
        assert cb.resonance == (-ca.resonance[0], ca.resonance[1])


@pytest.mark.parametrize("p", [b[0] for b in EDGE_BODIES], ids=EDGE_IDS)
def test_edge_body_kernel_matches_contact_vector(p):
    # B = 1/eta + |r|^2 and (r, gamma) = -U, with r built from gamma alone;
    # the kernel runs on the gamma_3 chart, s^2 = 1 - gamma_3^2
    rng = np.random.default_rng(7)
    gammas = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]),
              np.array([0.6, 0.8, 0.0])]
    gammas += [g / np.linalg.norm(g) for g in rng.normal(size=(20, 3))]
    for g in gammas:
        r = contact_vector(g, p)
        c = float(g[2])
        s2 = 1.0 - c * c
        Z = surface_z(s2, c, p)
        B, _ = surface_b(math.sqrt(s2), s2, c, Z, p)
        np.testing.assert_allclose(B, 1.0 / p.eta + float(r @ r), rtol=1e-13)
        np.testing.assert_allclose(float(r @ g), -surface_u(c, Z, p), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("p, dtype, boundary", EDGE_BODIES, ids=EDGE_IDS)
def test_edge_body_diagram_and_classes(p, dtype, boundary):
    d = diagram(p)
    assert (d.diagram_type, d.boundary) == (dtype, boundary)
    assert all(len(c.kappa) for c in d.curves)
    for kappa in (0.0, 0.3, -1.0):
        floor = rpm_floor(kappa, p)
        levels = [effective_potential(t, kappa, p) for t in critical_thetas(kappa, p)]
        for eps in [floor + 0.05, floor + 0.5] + levels + [lv + 1e-3 for lv in levels]:
            n_comp = len(component_intervals(kappa, eps, p))
            for branch in sorted({0, n_comp - 1}):
                # a level outside the region of possible motions is the
                # documented ValueError; every other level gets a class
                try:
                    tc = classify(kappa, eps, p, branch)
                except ValueError:
                    assert n_comp == 0
                    continue
                except IntegrationError:
                    continue
                assert tc.kind in CLASS_KINDS


def test_centered_sphere_rest_level_is_one_component():
    # V is 1 at every angle, up to one ulp of rounding noise, which must not
    # split the level into components
    p = Params(0.0, 1.0, 2.0, 1.0)
    assert component_intervals(0.0, 1.0, p) == [(0.0, math.pi)]
    with pytest.raises(ValueError, match="branch 1 out of range, 1 component"):
        classify(0.0, 1.0, p, 1)
    # every angle is at rest there: a kind of its own, with N = 0
    tc = classify(0.0, 1.0, p, 0)
    assert tc.kind == "NeutralRest" and tc.kind in CLASS_KINDS
    assert (tc.N, tc.N_err, tc.resonance, tc.targets) == (0.0, 0.0, None, ())
    # just above the rest level the sphere rolls over both poles
    assert classify(0.0, 1.0 + 1e-12, p, 0).kind == "UnboundedLine"
    # a level of the flat potential within rounding of it is still at rest
    assert classify(0.0, 1.0 + 2.0 * math.ulp(1.0), p, 0).kind == "NeutralRest"


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    body=st.sampled_from(REGION_BODIES),
    height=st.floats(0.05, 1.0),
    log_kappa=st.floats(-4.0, -3.0),
)
def test_n_is_continuous_as_kappa_tends_to_zero_above_both_poles(body, height, log_kappa):
    # above both poles and every kappa = 0 critical level the kappa = 0
    # motion circulates through both poles with N = 0.  N is odd in kappa,
    # N = a kappa + O(kappa^3), so halving kappa halves N
    levels = [effective_potential(0.0, 0.0, body), effective_potential(math.pi, 0.0, body)]
    levels += [effective_potential(t, 0.0, body) for t in critical_thetas(0.0, body)]
    eps = max(levels) + height
    assert rotation_number(0.0, eps, body).N == 0.0
    kappa = 10.0 ** log_kappa
    a = rotation_number(kappa, eps, body)
    b = rotation_number(0.5 * kappa, eps, body)
    assert abs(a.N - 2.0 * b.N) <= 1e-3 * abs(a.N) + 5.0 * (a.err + 2.0 * b.err) + 1e-12
