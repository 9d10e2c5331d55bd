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

from .modulus import AnnulusSpec, bounding_annuli, modulus

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
    value = 0.0
    cells = 0
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


@dataclass(frozen=True)
class LehtoCheck:
    """One-sided consistency of the sandwich gap against the integral bound."""

    lhs_low: float
    lhs_high: float
    rhs: float
    consistent: bool
    mu_spot_median_error: float


def lehto_check(f, mu, a: AnnulusSpec, ck=1.0) -> LehtoCheck:
    """Check |M(f(A)) - M(A)| <= C(K) * integral on one annulus.

    The left side is only known to lie in the interval of the (M(E), M(D))
    sandwich, so consistency means its lower end is at most ck times the
    integral (to tolerance 1e-6). That mu is the dilatation of f is the
    caller's responsibility; it is spot-checked by central differences at 16
    points of the annulus (seed 0), reporting the median mismatch, which
    tolerates a few samples straddling jump curves.
    """
    lower, upper = bounding_annuli(f, a).sandwich()
    m = modulus(a)
    if lower <= m <= upper:
        lhs_low = 0.0
    else:
        lhs_low = min(abs(lower - m), abs(upper - m))
    lhs_high = max(abs(lower - m), abs(upper - m))

    rhs = float(ck) * lehto_integral(mu, a).value

    rng = np.random.default_rng(0)
    rho = np.sqrt(rng.uniform(a.r1 ** 2, a.r2 ** 2, size=16))
    ang = rng.uniform(0.0, 2.0 * math.pi, size=16)
    z = a.center + rho * np.exp(1j * ang)
    step = 1e-6 * (1.0 + np.abs(z))
    fe = np.asarray(f(z + step))
    fw = np.asarray(f(z - step))
    fn = np.asarray(f(z + 1j * step))
    fs = np.asarray(f(z - 1j * step))
    dx = (fe - fw) / (2.0 * step)
    dy = (fn - fs) / (2.0 * step)
    dz = 0.5 * (dx - 1j * dy)
    dzbar = 0.5 * (dx + 1j * dy)
    ok = np.abs(dz) > 1e-8
    mu_val = np.atleast_1d(_mu_at(mu, z))
    spot = float(np.median(np.abs(dzbar[ok] / dz[ok] - mu_val[ok]))) if ok.any() else math.nan

    return LehtoCheck(lhs_low=lhs_low, lhs_high=lhs_high, rhs=rhs,
                      consistent=lhs_low <= rhs + 1e-9,
                      mu_spot_median_error=spot)
