"""Surface functions: closed forms, derivatives, pole behavior, B variants."""

import math

import numpy as np
import pytest

from rubberroll.geometry import (
    B_SIGN_DERIVED,
    B_SIGN_PAPER,
    contact_vector,
    meridian_profile,
    profile,
    z_of_gamma3,
)
from rubberroll.model import Params

P = Params(alpha=0.5, beta=3.0, nu=0.5, eta=0.5)


def test_sphere_values():
    # beta = 1 collapses Z to 1 and U to alpha cos + 1
    p = Params(alpha=0.3, beta=1.0, nu=1.0, eta=2.0)
    for th in (0.3, 1.2, 2.9):
        se = profile(th, p)
        np.testing.assert_allclose(se.Z, 1.0, rtol=1e-15)
        np.testing.assert_allclose(se.U, 0.3 * math.cos(th) + 1.0, rtol=1e-15)
        np.testing.assert_allclose(se.dZ, 0.0, atol=1e-15)


def test_equator_and_pole_values():
    se = profile(math.pi / 2.0, P)
    np.testing.assert_allclose(se.Z, P.beta, rtol=1e-15)
    np.testing.assert_allclose(se.U, P.beta, rtol=1e-15)
    np.testing.assert_allclose(se.B, 1.0 / P.eta + P.beta ** 2 + P.alpha ** 2,
                               rtol=1e-15)
    sp = profile(0.0, P, pole_mode=True)
    np.testing.assert_allclose(sp.Z, 1.0, rtol=1e-15)
    np.testing.assert_allclose(sp.U, 1.0 + P.alpha, rtol=1e-15)


def test_derivatives_match_finite_differences():
    h = 1e-6
    for th in np.linspace(0.2, math.pi - 0.2, 9):
        lo = profile(float(th) - h, P)
        hi = profile(float(th) + h, P)
        se = profile(float(th), P)
        for name in ("Z", "U", "B", "J"):
            fd = (getattr(hi, name) - getattr(lo, name)) / (2.0 * h)
            np.testing.assert_allclose(getattr(se, "d" + name), fd,
                                       rtol=2e-9, atol=2e-9, err_msg=name)


def test_pole_mode_even_extension():
    # all surface functions even in theta about 0, and the guard trips without it
    for th in (0.4, 1.0):
        a = profile(th, P, pole_mode=True)
        b = profile(-th, P, pole_mode=True)
        np.testing.assert_allclose([a.Z, a.U, a.B, a.J], [b.Z, b.U, b.B, b.J],
                                   rtol=1e-15)
        np.testing.assert_allclose([a.dZ, a.dU], [-b.dZ, -b.dU], rtol=1e-13)
    with pytest.raises(ValueError, match="pole_mode"):
        profile(-0.1, P)
    with pytest.raises(ValueError, match="pole_mode"):
        profile(math.pi, P)


def test_b_from_contact_vector():
    # B = 1/eta + |r|^2 with r built independently from gamma
    rng = np.random.default_rng(3)
    for _ in range(10):
        th = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        g = np.array([math.sin(th) * math.sin(phi),
                      math.sin(th) * math.cos(phi),
                      math.cos(th)])
        r = contact_vector(g, P)
        se = profile(th, P)
        np.testing.assert_allclose(se.B, 1.0 / P.eta + float(r @ r), rtol=1e-12)


def test_paper_variant_differs_only_in_cross_term():
    th = 1.1
    d = profile(th, P, b_sign=B_SIGN_DERIVED)
    q = profile(th, P, b_sign=B_SIGN_PAPER)
    assert d.B != q.B
    np.testing.assert_allclose([d.Z, d.U, d.J], [q.Z, q.U, q.J], rtol=1e-15)
    # the two coincide for a centered body
    p0 = Params(alpha=0.0, beta=3.0, nu=0.5, eta=0.5)
    np.testing.assert_allclose(profile(th, p0, b_sign=B_SIGN_PAPER).B,
                               profile(th, p0).B, rtol=1e-15)
    with pytest.raises(ValueError, match="b_sign"):
        profile(th, P, b_sign="bogus")


def test_contact_vector_support_identity():
    # (r, gamma) = -(Z + alpha cos): the support height below the center of mass
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = rng.normal(size=3)
        g /= np.linalg.norm(g)
        r = contact_vector(g, P)
        th = math.acos(np.clip(g[2], -1.0, 1.0))
        se = profile(th, P, pole_mode=True)
        np.testing.assert_allclose(float(r @ g), -(se.Z + P.alpha * g[2]),
                                   rtol=1e-12, atol=1e-12)


def test_contact_vector_rejects_bad_input():
    with pytest.raises(ValueError, match="unit"):
        contact_vector(np.array([1.0, 1.0, 1.0]), P)
    with pytest.raises(ValueError, match="3-vector"):
        contact_vector(np.array([1.0, 0.0]), P)


def test_meridian_profile_matches_contact_vector():
    for g3 in (-0.9, -0.2, 0.0, 0.4, 0.99):
        chi1, chi2 = meridian_profile(g3, P)
        s = math.sqrt(1.0 - g3 * g3)
        g = np.array([0.6 * s, 0.8 * s, g3])
        r = contact_vector(g, P)
        np.testing.assert_allclose(r, [chi1 * g[0], chi1 * g[1], chi2],
                                   rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(z_of_gamma3(0.3, P),
                               profile(math.acos(0.3), P).Z, rtol=1e-15)
    with pytest.raises(ValueError):
        meridian_profile(1.2, P)
