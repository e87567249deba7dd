"""Surface functions: closed forms, derivatives, pole behavior, B variants,
and the kernel on floats, arrays and the gamma_3 chart."""

import math

import numpy as np
import pytest

from rubberroll.geometry import (
    B_SIGN_DERIVED,
    B_SIGN_PAPER,
    contact_vector,
    profile,
    surface_b,
    surface_j,
    surface_j_prime,
    surface_u,
    surface_z,
)
from rubberroll.model import Params

P = Params(alpha=0.5, beta=3.0, nu=0.5, eta=0.5)


def _b(th, p, b_sign):
    """(B, B') of the b_sign variant at the angle th."""
    s, c = math.sin(th), math.cos(th)
    return surface_b(s, s * s, c, surface_z(s * s, c, p), p, b_sign)


def test_sphere_values():
    # beta = 1 collapses Z to 1 and U to alpha cos + 1
    p = Params(alpha=0.3, beta=1.0, nu=1.0, eta=2.0)
    for th in (0.3, 1.2, 2.9):
        se = profile(th, p)
        np.testing.assert_allclose(se.Z, 1.0, rtol=1e-15)
        np.testing.assert_allclose(se.U, 0.3 * math.cos(th) + 1.0, rtol=1e-15)
        # Z = 1 leaves B = 1/eta + sin^2 + (cos + alpha)^2, so B' = -2 alpha sin
        np.testing.assert_allclose(se.dB, -0.6 * math.sin(th), rtol=1e-14)


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
    for b_sign in (B_SIGN_DERIVED, B_SIGN_PAPER):
        for th in np.linspace(0.2, math.pi - 0.2, 9):
            fd = (_b(float(th) + h, P, b_sign)[0] - _b(float(th) - h, P, b_sign)[0]) / (2.0 * h)
            np.testing.assert_allclose(_b(float(th), P, b_sign)[1], fd,
                                       rtol=2e-9, atol=2e-9, err_msg=b_sign)


def test_j_prime_matches_a_finite_difference():
    # on floats and arrays alike, and for nu above, at and below 1
    h = 1e-6
    for p in (P, Params(0.2, 0.7, 1.0, 2.0), Params(1.0, 1.5, 1.8, 0.3)):
        th = np.linspace(0.2, math.pi - 0.2, 9)
        s = np.sin(th); c = np.cos(th); s2 = s * s
        Z = surface_z(s2, c, p); U = surface_u(c, Z, p)
        dJ = surface_j_prime(s, s2, c, Z, U, surface_j(s2, c, U, p), p)
        fd = [(profile(float(t) + h, p).J - profile(float(t) - h, p).J) / (2.0 * h) for t in th]
        np.testing.assert_allclose(dJ, fd, rtol=2e-9, atol=2e-9)
        for i, t in enumerate(th.tolist()):
            se = profile(t, p)
            sn, cn = math.sin(t), math.cos(t)
            np.testing.assert_allclose(surface_j_prime(sn, sn * sn, cn, se.Z, se.U, se.J, p),
                                       dJ[i], rtol=1e-14)


def test_pole_mode_even_extension():
    # all surface functions even in theta about 0, and the guard trips without it
    for th in (0.4, 1.0):
        a = profile(th, P, pole_mode=True)
        b = profile(-th, P, pole_mode=True)
        np.testing.assert_allclose([a.Z, a.U, a.B, a.J], [b.Z, b.U, b.B, b.J],
                                   rtol=1e-15)
        np.testing.assert_allclose(a.dB, -b.dB, rtol=1e-13)
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
    d = _b(th, P, B_SIGN_DERIVED)
    q = _b(th, P, B_SIGN_PAPER)
    se = profile(th, P)
    assert d == (se.B, se.dB)     # profile takes the derived variant
    # (alpha Z - cos)^2 - (cos + alpha Z)^2 = -4 alpha Z cos, over Z^2
    np.testing.assert_allclose(q[0] - d[0], -4.0 * P.alpha * math.cos(th) / se.Z, rtol=1e-12)
    # the two coincide for a centered body
    p0 = Params(alpha=0.0, beta=3.0, nu=0.5, eta=0.5)
    np.testing.assert_allclose(_b(th, p0, B_SIGN_PAPER)[0], profile(th, p0).B, rtol=1e-15)
    with pytest.raises(ValueError, match="b_sign"):
        _b(th, P, "bogus")


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
    # on the gamma_3 chart (s2 = 1 - gamma_3^2, c = gamma_3) the contact
    # vector is (-beta^2/Z gamma_1, -beta^2/Z gamma_2, -gamma_3/Z - alpha)
    for g3 in (-0.9, -0.2, 0.0, 0.4, 0.99):
        Z = surface_z(1.0 - g3 * g3, g3, P)
        s = math.sqrt(1.0 - g3 * g3)
        g = np.array([0.6 * s, 0.8 * s, g3])
        r = contact_vector(g, P)
        chi1 = -P.beta * P.beta / Z
        np.testing.assert_allclose(r, [chi1 * g[0], chi1 * g[1], -g3 / Z - P.alpha],
                                   rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(surface_z(1.0 - 0.3 * 0.3, 0.3, P),
                               profile(math.acos(0.3), P).Z, rtol=1e-15)


def test_kernel_serves_floats_and_arrays_alike():
    th = np.concatenate([np.linspace(-1.0, 2.0 * math.pi, 23), [0.0, math.pi]])
    s = np.sin(th); c = np.cos(th); s2 = s * s
    Z = surface_z(s2, c, P)
    U = surface_u(c, Z, P)
    B, dB = surface_b(s, s2, c, Z, P)
    J = surface_j(s2, c, U, P)
    same = [i for i, t in enumerate(th) if (math.sin(t), math.cos(t)) == (s[i], c[i])]
    assert len(same) > len(th) // 2
    # bit for bit wherever np.sin/np.cos agree with math.sin/math.cos
    for i in same:
        se = profile(float(th[i]), P, pole_mode=True)
        assert (se.Z, se.U, se.B, se.dB, se.J) == (Z[i], U[i], B[i], dB[i], J[i])
