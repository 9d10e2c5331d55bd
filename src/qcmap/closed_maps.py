"""Closed-form bi-Lipschitz Beltrami solutions on the disk and on sectors.

Provides the disk map (z + c*conj(z) inside the unit disk, z + c/z outside),
its inverse, the sector spiral map built by slitting the plane along the
positive real axis, rescaling in logarithmic coordinates and re-exponentiating,
the allowability predicates tied to the real part of the log-rescaling factor,
and the dilatation composition formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._arrays import coefficient, count, opening, pointwise

_PI_LO = 1.2246467991473532e-16  # pi - math.pi


class AmbiguousInverseError(RuntimeError):
    """Inverse branch selection failed near the image of the unit circle."""


@dataclass(frozen=True)
class DiskMapSpec:
    """Constant dilatation c on the unit disk, |c| < 1."""

    c: complex

    def __post_init__(self):
        object.__setattr__(self, "c", coefficient(self.c))


@dataclass(frozen=True)
class SectorMapSpec:
    """Derived invariants of the sector map for dilatation c on opening theta0.

    R*exp(i*theta1) is the image of exp(i*theta0) under (z + c*conj(z))/(1+c),
    with theta1 normalized to [0, 2*pi); ``a`` rotates and scales the second
    sector so the two pieces agree along the theta0 ray; ``lam`` is the factor
    that sews the two sides of the slit along the positive real axis. The raw
    (R, theta1) are exposed so callers can audit the wrap convention.
    """

    c: complex
    theta0: float
    R: float
    theta1: float
    a: complex
    lam: complex


def _coerce_spec(spec):
    if isinstance(spec, DiskMapSpec):
        return spec
    return DiskMapSpec(complex(spec))


@pointwise
def eval_fc(spec, z):
    """Evaluate the disk map: z + c*conj(z) for |z| <= 1, z + c/z outside.

    Continuous across the unit circle (conj(z) = 1/z there), conformal outside
    the disk, and equal to z + O(1/z) at infinity; this is the principal
    solution for the constant dilatation c on the unit disk.
    """
    c = _coerce_spec(spec).c
    outside = np.abs(z) > 1.0
    n_out = np.count_nonzero(outside)
    if n_out == z.size:
        return z + c / z
    out = z + c * np.conj(z)
    if n_out:
        out[outside] = z[outside] + c / z[outside]
    return out


@pointwise
def eval_fc_inverse(spec, w):
    """Invert the disk map.

    Inside the image of the closed unit disk the map is real-linear and the
    inverse is (w - c*conj(w)) / (1 - |c|^2); outside, solve z^2 - w z + c = 0
    and keep the root of modulus > 1, (w + s) / 2 for s = sqrt(w^2 - 4c) with
    Re(conj(w) s) >= 0, as |w + s|^2 - |w - s|^2 = 4 Re(conj(w) s). Raises
    AmbiguousInverseError only if the two branches both claim the point
    (within 1e-9 of the seam) yet disagree by more than 1e-6.
    """
    spec = _coerce_spec(spec)
    c = spec.c
    z_in = (w - c * np.conj(w)) / (1.0 - abs(c) ** 2)
    use_in = np.abs(z_in) <= 1.0

    s = np.sqrt(w * w - 4.0 * c)
    flip = np.real(np.conj(w) * s) < 0
    s[flip] = -s[flip]
    z_out = 0.5 * (w + s)

    out = np.where(use_in, z_in, z_out)
    # the outside branch must land outside; failures can only occur within
    # rounding of the ellipse seam where both branches agree anyway
    bad = (~use_in) & (np.abs(z_out) < 1.0 - 1e-9)
    if np.any(bad) and np.any(np.abs(z_out[bad] - z_in[bad]) > 1e-6):
        raise AmbiguousInverseError(
            "branch selection ambiguous near the image of the unit circle")
    return out


def sector_invariants(c, theta0):
    """Compute (R, theta1, a, lambda) for the sector map.

    lambda = 2*pi*i / (log R + i*(2*pi + theta1 - theta0)) with theta1 taken
    in [0, 2*pi). For theta0 = pi the quotient is exactly -1 for every |c| < 1
    and lambda = 1, the half-plane case.
    """
    c = coefficient(c)
    theta0 = opening(theta0)
    w = (np.exp(1j * theta0) + c * np.exp(-1j * theta0)) / (1.0 + c)
    R = abs(w)
    theta1 = float(np.angle(w)) % math.tau
    a = w / np.exp(1j * theta0)
    lam = 2j * math.pi / (math.log(R) + 1j * (math.tau + theta1 - theta0))
    return SectorMapSpec(c=c, theta0=theta0, R=R, theta1=theta1,
                         a=complex(a), lam=complex(lam))


@pointwise
def eval_fangle(spec, z):
    """Evaluate the sector spiral map f(z) = exp(lambda * Log f1(z)).

    f1 is (z + c*conj(z))/(1+c) on the sector arg z in [0, theta0) and a*z on
    the rest, with arg taken in [0, 2*pi). Log f1 uses the continuous lift of
    the argument on the slit plane: on the second sector the lifted argument
    is arg z + theta1 - theta0, which runs up to 2*pi + theta1 - theta0 at the
    top side of the slit so the lambda rescaling sews the two sides together.
    The map extends to z = 0 by 0, which is returned explicitly.
    """
    if not isinstance(spec, SectorMapSpec):
        raise TypeError("eval_fangle needs a SectorMapSpec from sector_invariants")
    out = np.zeros(z.shape, dtype=complex)
    nz = z != 0
    zv = z[nz]
    th = np.arctan2(zv.imag, zv.real)
    th[th < 0.0] += math.tau
    first = th < spec.theta0
    w1 = spec.a * zv  # over every point: cheaper than picking out the rest
    lift = th + (spec.theta1 - spec.theta0)
    z1 = zv[first]
    w1[first] = w = (z1 + spec.c * np.conj(z1)) / (1.0 + spec.c)
    arg1 = np.arctan2(w.imag, w.real)
    arg1[arg1 < 0.0] += math.tau
    # points on the positive real axis can round to arg ~ 2*pi; snap them back
    lift[first] = np.where(arg1 > math.tau - 1e-12, 0.0, arg1)
    out[nz] = np.exp(spec.lam * (np.log(np.abs(w1)) + 1j * lift))
    return out


def is_allowable_sector(c, theta0, tol=1e-9):
    """True iff Re lambda(c, theta0) is 1 within tol (bi-Lipschitz locus)."""
    lam = sector_invariants(c, theta0).lam
    return abs(lam.real - 1.0) <= tol


def unrotate_corner(c, alpha, beta):
    """(c*exp(-2i*beta), alpha*pi): a corner's dilatation and opening as a sector's.

    Unrotating a corner of opening alpha*pi whose arcs sit at angle beta
    multiplies the dilatation by exp(-2i*beta). Openings are restricted to
    alpha in (0, 2).
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 2.0):
        raise ValueError(f"corner opening alpha must lie in (0, 2), got {alpha}")
    return complex(c) * np.exp(-2j * float(beta)), alpha * math.pi


def allowable_for_corner(c, alpha, beta, tol=1e-9):
    """Allowability at a corner of opening alpha*pi whose arcs sit at angle beta.

    c is allowable for the corner iff its unrotated dilatation is allowable
    for the standard sector of opening alpha*pi (see ``unrotate_corner``).
    """
    return is_allowable_sector(*unrotate_corner(c, alpha, beta), tol=tol)


@dataclass(frozen=True)
class LocusResult:
    """Allowable-dilatation locus for a fixed opening.

    ``whole_disk`` is set for theta0 = pi, where lambda is identically 1 and
    every |c| < 1 is allowable; ``points`` is then empty.
    """

    theta0: float
    points: np.ndarray
    whole_disk: bool


def allowable_locus(theta0, samples=256):
    """The locus { c in the unit disk : Re lambda(c, theta0) = 1 } in closed form.

    With log w = log R + i*theta1, Re lambda = 1 is the circle
    (log R)^2 + (phi - pi)^2 = pi^2 in phi = 2*pi + theta1 - theta0, so
    log w = i*theta0 + u(s) with u(s) = i*pi*(exp(i*s) - 1), and inverting
    the Moebius map w(c) gives c + 1 = expm1(2i*theta0) / expm1(2i*theta0 + u).
    |c| < 1 iff w lies on the side of the real axis of exp(i*theta0), which
    is the arc |s| < 2*asin(sqrt((theta0 mod pi) / (2*pi))); s = 0 is c = 0.
    Returns the ``samples`` midpoints of that arc, uniform in s. Only within
    rounding of the degenerate openings 0, pi and 2*pi can points round onto
    the unit circle; they are dropped.
    """
    theta0 = opening(theta0)
    samples = count(samples, "samples")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if abs(theta0 - math.pi) < 1e-15:
        return LocusResult(theta0=theta0, points=np.empty(0, dtype=complex),
                           whole_disk=True)
    # d = theta0 - k*pi in [-pi/2, pi/2] against a two-part pi, so that near
    # the degenerate openings expm1(2i*d) keeps the digits of d
    k = round(theta0 / math.pi)
    d = (theta0 - k * math.pi) - k * _PI_LO
    s_max = 2.0 * math.asin(math.sqrt((d if d >= 0.0 else math.pi + d) / math.tau))
    s = s_max * ((2.0 * np.arange(samples) + 1.0) / samples - 1.0)
    u = 1j * math.pi * np.expm1(1j * s)
    rot = 2j * d
    points = np.expm1(rot) / np.expm1(rot + u) - 1.0
    # one ulp clear of the unit circle, so every point passes |c| < 1 checks
    points = points[np.abs(points) < 1.0 - np.finfo(float).eps]
    return LocusResult(theta0=theta0, points=points, whole_disk=False)


def compose_dilatation(mu1, mu2, arg_df2):
    """Dilatation of f1 composed with the inverse of f2, at the image point.

    Returns (mu1 - mu2) / (1 - mu1*conj(mu2)) * exp(2i*arg_df2), where the
    mu's are the dilatations of f1 and f2 at the same source point z and
    arg_df2 is the argument of the z-derivative of f2 there.
    """
    mu1 = np.asarray(mu1, dtype=complex)
    mu2 = np.asarray(mu2, dtype=complex)
    if not np.all(np.abs(mu2) < 1.0):
        raise ValueError("need |mu2| < 1")
    out = (mu1 - mu2) / (1.0 - mu1 * np.conj(mu2)) * np.exp(2j * np.asarray(arg_df2))
    if out.ndim == 0:
        return complex(out)
    return out


# PlanarMap factories: vectorized callables z -> w used by the certifier and
# the CLI.

def identity_map(z):
    return np.asarray(z, dtype=complex)


def fc_map(c):
    spec = _coerce_spec(c)
    return lambda z: eval_fc(spec, z)


def fangle_map(c, theta0):
    spec = sector_invariants(c, theta0)
    return lambda z: eval_fangle(spec, z)
