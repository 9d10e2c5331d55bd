"""Tests for the radially blended extension of circle homeomorphisms."""

import math
import warnings

import numpy as np
import pytest

from qcmap.extension import CircleHomeo, extend_F, mu_F


def _fd_dilatation(f, z, h=1e-6):
    fe, fw = f(z + h), f(z - h)
    fn, fs = f(z + 1j * h), f(z - 1j * h)
    dx = (fe - fw) / (2 * h)
    dy = (fn - fs) / (2 * h)
    return (0.5 * (dx + 1j * dy)) / (0.5 * (dx - 1j * dy))


def test_identity_gamma():
    h = CircleHomeo.identity()
    rng = np.random.default_rng(0)
    z = 0.99 * np.sqrt(rng.uniform(size=300)) * np.exp(2j * math.pi * rng.uniform(size=300))
    np.testing.assert_allclose(extend_F(h, z), z, atol=1e-14)
    inner = z[np.abs(z) > 1e-3]
    np.testing.assert_allclose(mu_F(h, inner), 0.0, atol=1e-14)


def test_boundary_values():
    h = CircleHomeo.from_fourier(a=[0.1])
    th = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    got = extend_F(h, np.exp(1j * th))
    want = np.exp(1j * (th + 0.1 * np.sin(th)))
    np.testing.assert_allclose(got, want, atol=1e-14)
    with pytest.raises(ValueError):
        extend_F(h, 1.5)


def test_direct_substitution_example():
    # gamma(t) = t + 0.1 sin t at z = 0.5 i: angle = 0.5*(pi/2 + 0.1) + 0.5*(pi/2)
    h = CircleHomeo.from_fourier(a=[0.1])
    got = extend_F(h, 0.5j)
    want = 0.5 * np.exp(1j * (0.5 * (math.pi / 2 + 0.1) + 0.5 * (math.pi / 2)))
    assert got == pytest.approx(want, abs=1e-14)


def test_modulus_preserved_exactly():
    h = CircleHomeo.from_fourier(a=[0.1, 0.02], b=[0.05])
    rng = np.random.default_rng(1)
    z = np.sqrt(rng.uniform(size=1000)) * np.exp(2j * math.pi * rng.uniform(size=1000))
    assert np.abs(np.abs(extend_F(h, z)) - np.abs(z)).max() < 1e-15


def test_extension_fixes_origin():
    h = CircleHomeo.from_fourier(a=[0.1])
    assert extend_F(h, 0.0) == 0.0


def test_mu_formula_matches_finite_differences():
    h = CircleHomeo.from_fourier(a=[0.1])
    rng = np.random.default_rng(2)
    r = np.sqrt(rng.uniform(0.01, 0.9, 100))
    z = r * np.exp(2j * math.pi * rng.uniform(size=100))
    fd = _fd_dilatation(lambda w: extend_F(h, w), z, h=1e-4)
    formula = mu_F(h, z)
    assert np.abs(fd - formula).max() < 1e-3


def test_mu_vanishes_linearly_at_origin():
    h = CircleHomeo.from_fourier(a=[0.1], b=[0.03])
    th = np.linspace(0, 2 * math.pi, 128, endpoint=False)
    rs = np.exp(np.linspace(math.log(1e-3), math.log(0.1), 12))
    sup = np.array([np.abs(mu_F(h, r * np.exp(1j * th))).max() for r in rs])
    slope = np.polyfit(np.log(rs), np.log(sup), 1)[0]
    assert slope >= 0.99
    assert sup[0] < 0.01  # continuity at the origin


def _polar_grid():
    th = np.arange(256) * (2 * math.pi / 256)
    return (np.linspace(0.05, 0.95, 64)[:, None] * np.exp(1j * th)).ravel()


def test_mu_bounded_for_small_perturbation():
    h = CircleHomeo.from_fourier(a=[0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sup = np.abs(mu_F(h, _polar_grid())).max()
    assert 0.0 < sup < 1.0


def test_identity_mu_vanishes_on_polar_grid():
    assert np.abs(mu_F(CircleHomeo.identity(), _polar_grid())).max() == 0.0


def test_spectral_derivative_matches_analytic():
    analytic = CircleHomeo.from_fourier(a=[0.1, 0.0, 0.02], b=[0.05])
    sampled = CircleHomeo(gamma=analytic.gamma)  # derivative built spectrally
    th = np.linspace(0, 2 * math.pi, 500)
    np.testing.assert_allclose(sampled.gamma_prime(th),
                               analytic.gamma_prime(th), atol=1e-6)
    rng = np.random.default_rng(3)
    z = np.sqrt(rng.uniform(0.01, 0.9, 50)) * np.exp(2j * math.pi * rng.uniform(size=50))
    np.testing.assert_allclose(mu_F(sampled, z), mu_F(analytic, z), atol=1e-6)


def test_rejects_unnormalized_lift():
    with pytest.raises(ValueError):
        CircleHomeo(gamma=lambda t: np.asarray(t) + 0.5)


def test_mu_warns_when_not_extendable():
    bad = CircleHomeo.from_fourier(a=[0.0, 1.2])
    with pytest.warns(RuntimeWarning):
        mu_F(bad, 0.95 * np.exp(1j * math.pi / 2))
