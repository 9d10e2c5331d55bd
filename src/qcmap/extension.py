"""Radially interpolated extension of circle homeomorphisms to the disk.

A boundary correspondence gamma lifts to an increasing map with
gamma(theta + 2*pi) = gamma(theta) + 2*pi and gamma(0) = 0. The naive
extension r e^{i theta} -> r e^{i gamma(theta)} has a dilatation that fails
to be continuous at the origin, so the angle is blended with the radius:

    F(r e^{i theta}) = r e^{i [r gamma(theta) + (1 - r) theta]}.

F preserves |z| exactly, restricts to e^{i gamma} on the boundary, and its
dilatation admits the closed polar-coordinate formula implemented here, which
vanishes linearly at the origin.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._arrays import pointwise

_SPECTRAL_N = 4096


@dataclass(frozen=True, eq=False)
class CircleHomeo:
    """Boundary correspondence given by an increasing lift with gamma(0) = 0.

    ``gamma`` is a vectorized callable on [0, 2*pi). If ``gamma_prime`` is not
    supplied it is built by spectral differentiation of the periodic part
    gamma(theta) - theta sampled on a fine grid, accurate for smooth lifts.
    """

    gamma: object
    gamma_prime: object = None

    def __post_init__(self):
        g0 = float(self.gamma(0.0))
        if abs(g0) > 1e-9:
            raise ValueError(f"gamma(0) must be 0 (normalize the lift), got {g0}")
        if self.gamma_prime is None:
            object.__setattr__(self, "gamma_prime", _spectral_derivative(self.gamma))

    @classmethod
    def identity(cls):
        return cls(gamma=lambda th: np.asarray(th, dtype=float),
                   gamma_prime=lambda th: np.ones_like(np.asarray(th, dtype=float)))

    @classmethod
    def from_fourier(cls, a=(), b=()):
        """gamma(theta) = theta + sum a_k sin(k theta) + b_k (1 - cos(k theta))."""
        a = tuple(float(v) for v in a)
        b = tuple(float(v) for v in b)

        def gamma(th):
            th = np.asarray(th, dtype=float)
            out = th.astype(float).copy()
            for k, ak in enumerate(a, start=1):
                out = out + ak * np.sin(k * th)
            for k, bk in enumerate(b, start=1):
                out = out + bk * (1.0 - np.cos(k * th))
            return out

        def gamma_prime(th):
            th = np.asarray(th, dtype=float)
            out = np.ones_like(th)
            for k, ak in enumerate(a, start=1):
                out = out + ak * k * np.cos(k * th)
            for k, bk in enumerate(b, start=1):
                out = out + bk * k * np.sin(k * th)
            return out

        return cls(gamma=gamma, gamma_prime=gamma_prime)


def _spectral_derivative(gamma, n=_SPECTRAL_N):
    th = np.arange(n) * (math.tau / n)
    d = np.asarray(gamma(th), dtype=float) - th
    coeffs = np.fft.fft(d)
    k = np.fft.fftfreq(n) * n
    k[n // 2] = 0.0  # drop the unmatched Nyquist mode of the derivative
    dprime = np.real(np.fft.ifft(1j * k * coeffs))
    dense = np.concatenate([dprime, dprime[:1]])
    grid = np.linspace(0.0, math.tau, n + 1)

    def gamma_prime(t):
        tt = np.asarray(t, dtype=float) % math.tau
        return 1.0 + np.interp(tt, grid, dense)

    return gamma_prime


@pointwise
def extend_F(h: CircleHomeo, z):
    """Evaluate the blended extension on the closed unit disk."""
    r = np.abs(z)
    if np.any(r > 1.0 + 1e-12):
        raise ValueError("extend_F is defined on the closed unit disk only")
    th = np.angle(z) % math.tau
    ang = r * np.asarray(h.gamma(th), dtype=float) + (1.0 - r) * th
    out = r * np.exp(1j * ang)
    out[r == 0] = 0.0
    return out


@pointwise
def mu_F(h: CircleHomeo, z):
    """Dilatation of the extension at interior points (0 < |z| < 1).

    mu = [r (1 - gamma') + i r (gamma - theta)]
         / [2 - r (1 - gamma') + i r (gamma - theta)] * e^{2 i theta}.

    Values with |mu| >= 1 mean the boundary map is too wild for this recipe
    at that point; they are flagged with a warning, not raised, since the
    formula itself stays evaluable.
    """
    r = np.abs(z)
    if np.any((r <= 0) | (r >= 1.0)):
        raise ValueError("mu_F needs 0 < |z| < 1")
    th = np.angle(z) % math.tau
    g = np.asarray(h.gamma(th), dtype=float)
    gp = np.asarray(h.gamma_prime(th), dtype=float)
    num = r * (1.0 - gp) + 1j * r * (g - th)
    den = 2.0 - r * (1.0 - gp) + 1j * r * (g - th)
    out = num / den * np.exp(2j * th)
    if np.any(np.abs(out) >= 1.0):
        warnings.warn("extension dilatation reached |mu| >= 1; the boundary "
                      "map is not quasiconformally extendable by this recipe",
                      RuntimeWarning, stacklevel=3)
    return out
