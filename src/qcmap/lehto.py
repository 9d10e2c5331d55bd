"""Quadrature of the singular modulus-distortion integral over annuli.

The integral of |mu(y)| / |x - y|^2 over an annulus centered at x controls
how much a quasiconformal map with dilatation mu can change the modulus of
that annulus. In polar coordinates about the center the area element cancels
one power of the singularity, leaving the integrand |mu| / rho, and a
log-uniform radial grid makes the midpoint rule exact for constant |mu|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modulus import AnnulusSpec, modulus

_MAX_CELLS = 1 << 24


@dataclass(frozen=True)
class LehtoEstimate:
    value: float
    abs_error: float
    cells: int
    converged: bool


def _mu_at(mu, z):
    """mu(z) for a dilatation field or any callable z -> mu(z)."""
    return mu.evaluate(z) if hasattr(mu, "evaluate") else mu(z)


def lehto_integral(mu, a: AnnulusSpec, tol=1e-6,
                   max_cells=_MAX_CELLS) -> LehtoEstimate:
    """Integrate |mu(y)| / |center - y|^2 over the annulus.

    ``mu`` is a dilatation field or any callable z -> mu(z). Midpoint rule on
    a log-uniform radial grid times a uniform angular grid of 32 cells at
    first, refined by doubling both directions until the difference between
    successive levels is at most ``tol``; that difference is the reported
    error estimate. If the cell budget runs out first, the best estimate is
    returned with ``converged`` unset.
    """
    span = modulus(a)
    n_rho = max(16, int(math.ceil(2.0 * span)))
    n_theta = 32
    u0, u1 = math.log(a.r1), math.log(a.r2)

    prev = None
    while True:
        du = (u1 - u0) / n_rho
        dth = 2.0 * math.pi / n_theta
        u = u0 + (np.arange(n_rho) + 0.5) * du
        th = (np.arange(n_theta) + 0.5) * dth
        rho = np.exp(u)
        pts = a.center + rho[:, None] * np.exp(1j * th[None, :])
        value = float(np.sum(np.abs(_mu_at(mu, pts))) * du * dth)
        cells = n_rho * n_theta
        if prev is not None:
            err = abs(value - prev)
            if err <= tol:
                return LehtoEstimate(value=value, abs_error=err, cells=cells,
                                     converged=True)
            if cells * 4 > max_cells:
                return LehtoEstimate(value=value, abs_error=err, cells=cells,
                                     converged=False)
        prev = value
        n_rho *= 2
        n_theta *= 2
