"""Closed-form oracle for a non-constant Hölder mu, the paper's hypothesis.

Phi = z + c conj(z) + a (1 - |z|^2)^2 conj(z)^2 on the unit disk and
z + c / z outside is continuous across |z| = 1 and is z + O(1/z), so it is
the principal solution of its own Beltrami coefficient. With u = 1 - |z|^2,
Phi_z = 1 - 2 a u conj(z)^3 and Phi_zbar = c + 2 a u conj(z) (1 - 2 |z|^2),
so mu = Phi_zbar / Phi_z on the disk and 0 outside: smooth up to the circle,
where it jumps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qcmap.solver import SolverConfig, grid_coordinates, solve_principal


@dataclass(frozen=True)
class BumpedDisk:
    """mu of the manufactured map above, supported on the closed unit disk."""

    c: complex
    a: float

    def support_radius(self):
        return 1.0

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        zb = np.conj(z)
        u = 1.0 - (z * zb).real
        mu = (self.c + 2 * self.a * u * zb * (1 - 2 * (1 - u))) \
            / (1 - 2 * self.a * u * zb ** 3)
        return np.where(u >= 0, mu, 0j)

    def exact(self, z):
        """The principal solution Phi at the points z."""
        zb = np.conj(z)
        u = 1.0 - (z * zb).real
        inside = z + self.c * zb + self.a * u * u * zb * zb
        with np.errstate(divide="ignore", invalid="ignore"):
            outside = z + self.c / z
        return np.where(u >= 0, inside, outside)


_MU = BumpedDisk(c=0.5, a=0.3)


def _nodal_error(n):
    gm = solve_principal(_MU, SolverConfig(grid_n=n))
    _, _, Z = grid_coordinates(gm.bbox, gm.values.shape)
    sel = np.abs(Z) <= 2.0
    return float(np.abs(gm.values[sel] - _MU.exact(Z[sel])).max())


def test_manufactured_map_is_continuous_and_mu_is_not_constant():
    t = np.linspace(0, 2 * np.pi, 61)
    edge = np.exp(1j * t)
    np.testing.assert_allclose(_MU.exact(edge * (1 - 1e-9)),
                               _MU.exact(edge * (1 + 1e-9)), atol=1e-8)
    # |mu| ranges over [0.351, 0.659] inside the disk
    r, s = np.meshgrid(np.linspace(0, 0.99, 100), t)
    mu = np.abs(_MU.evaluate(r * np.exp(1j * s)))
    assert abs(mu.max() - 0.659) < 1e-3
    assert abs(mu.min() - 0.351) < 1e-3


def test_holder_mu_error_is_first_order():
    # default stop, 9 sweeps at both sizes: 8.344e-3 at n = 256 and
    # 4.053e-3 at n = 512
    coarse, fine = _nodal_error(256), _nodal_error(512)
    assert coarse <= 1e-2
    assert fine <= 0.6 * coarse
