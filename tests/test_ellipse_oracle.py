"""Closed-form oracle on a smooth domain that is not a disk.

For mu = c on the ellipse E = e^{i phi} {x^2/a^2 + y^2/b^2 <= 1}, the
Cauchy transform of the indicator of E is conj(z) - q z inside E, with
q = (a - b)/(a + b) e^{-2i phi}, so S sends it to -q there and the density
is h = H on E, H = c / (1 + c q). Unlike on a disk (q = 0), the density is
not mu, so the Neumann iteration has work to do. Then Phi = (1 - H q) z +
H conj(z) inside E, and outside, with w = e^{-i phi} z and f^2 = a^2 - b^2,
Phi = z + H e^{-i phi} 2ab / (w + sqrt(w^2 - f^2)) on the root with the
larger |w + sqrt(w^2 - f^2)|. The tail is H a b.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from qcmap.solver import SolverConfig, grid_coordinates, solve_principal


@dataclass(frozen=True)
class EllipseConstant:
    """mu = c on the closed ellipse of semi-axes a >= b turned by phi."""

    c: complex
    a: float
    b: float
    phi: float = 0.0

    def support_radius(self):
        return self.a

    def evaluate(self, z):
        w = np.exp(-1j * self.phi) * np.asarray(z)
        inside = (w.real / self.a) ** 2 + (w.imag / self.b) ** 2 <= 1.0
        return np.where(inside, complex(self.c), 0j)

    @property
    def density(self):
        """H, the constant value of the exact density on E."""
        q = (self.a - self.b) / (self.a + self.b) * cmath.exp(-2j * self.phi)
        return self.c / (1 + self.c * q)

    @property
    def tail(self):
        return self.density * self.a * self.b

    def exact(self, z):
        """The principal solution Phi at the points z."""
        a, b, H = self.a, self.b, self.density
        q = (a - b) / (a + b) * cmath.exp(-2j * self.phi)
        w = np.exp(-1j * self.phi) * z
        root = np.sqrt(w * w - (a * a - b * b))
        root = np.where(np.abs(w + root) >= np.abs(w - root), root, -root)
        outside = z + H * np.exp(-1j * self.phi) * 2 * a * b / (w + root)
        inside = (1 - H * q) * z + H * np.conj(z)
        return np.where(self.evaluate(z) != 0, inside, outside)


_CASES = {
    "c0.5": EllipseConstant(c=0.5, a=1.0, b=0.6),
    "c0.9i": EllipseConstant(c=0.9j, a=1.0, b=0.6),
    "turned": EllipseConstant(c=-0.759 + 0.561j, a=1.0, b=0.7, phi=1.0),
}


@functools.lru_cache(maxsize=None)
def _solve(name, n, tol=None):
    return solve_principal(_CASES[name], SolverConfig(grid_n=n, tol=tol))


@pytest.fixture(autouse=True, scope="module")
def _drop_solves():
    yield
    _solve.cache_clear()


def _errors(name, n):
    """Nodal sup error of the map over |z| <= 2a, and the tail's error."""
    mu = _CASES[name]
    gm = _solve(name, n)
    _, _, Z = grid_coordinates(gm.bbox, gm.values.shape)
    sel = np.abs(Z) <= 2 * mu.a
    err = float(np.abs(gm.values[sel] - mu.exact(Z[sel])).max())
    return err, abs(gm.tail - mu.tail)


def test_closed_form_is_the_disk_map_for_a_circle():
    mu = EllipseConstant(c=0.3 - 0.4j, a=1.0, b=1.0, phi=0.7)
    assert mu.density == mu.c
    z = np.array([0.2 + 0.1j, -0.5j, 1.5, -2 + 2j])
    want = np.where(np.abs(z) <= 1, z + mu.c * np.conj(z), z + mu.c / z)
    np.testing.assert_allclose(mu.exact(z), want, rtol=0, atol=1e-15)


def test_closed_form_is_continuous_across_the_ellipse():
    mu = _CASES["turned"]
    t = np.linspace(0, 2 * math.pi, 97)
    edge = cmath.exp(1j * mu.phi) * (mu.a * np.cos(t) + 1j * mu.b * np.sin(t))
    np.testing.assert_allclose(mu.exact(edge * (1 - 1e-9)),
                               mu.exact(edge * (1 + 1e-9)), atol=1e-8)


@pytest.mark.parametrize("name", sorted(_CASES))
def test_ellipse_error_is_first_order(name):
    # n = 256 -> 512: map 6.58e-3 -> 3.40e-3 (c = 0.5), 1.65e-2 -> 8.90e-3
    # (c = 0.9i) and 1.79e-2 -> 9.10e-3 (turned); tails 5.1e-4 -> 2.7e-4,
    # 2.2e-3 -> 1.1e-3 and 2.0e-3 -> 1.1e-3
    coarse, fine = _errors(name, 256), _errors(name, 512)
    assert fine[0] <= 0.6 * coarse[0]
    assert fine[1] <= 0.6 * coarse[1]
    assert coarse[0] <= 2e-2


def test_ellipse_density_is_not_mu():
    # the tail is H a b, the total of the density over pi; mu = c on E
    # would give c a b, far outside the tail's error
    for name, mu in _CASES.items():
        gm = _solve(name, 256)
        err = abs(gm.tail - mu.tail)
        assert abs(gm.tail - mu.c * mu.a * mu.b) > 10 * err


@pytest.mark.parametrize("name", sorted(_CASES))
def test_default_stop_lies_within_its_error_bound_on_an_ellipse(name):
    # the bound is 47 (c = 0.5) to 960 (turned) times the distance
    loose = _solve(name, 256)
    tight = _solve(name, 256, 1e-12)
    assert loose.iterations < tight.iterations
    assert np.abs(loose.values - tight.values).max() \
        <= loose.iteration_error_bound
