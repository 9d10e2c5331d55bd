"""Annulus moduli, bounding annuli of quasiconformal images, certification.

The image of a round annulus under a quasiconformal map is generally not
round, so its modulus is never computed exactly. Instead the min/max image
radii over each boundary circle give four round annuli B, C, D, E; the inner
one (E) and outer one (D) sandwich the image modulus by monotonicity. The
certifier drives families of annuli through a map and compares the sandwich
against the source modulus: a uniform bound on the discrepancy is the
geometric bi-Lipschitz criterion, and an unbounded gap certifies failure.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._arrays import count, unit_circle


class NotSeparatedError(RuntimeError):
    """Image circles overlap radially; enlarge the annulus modulus."""


@dataclass(frozen=True)
class AnnulusSpec:
    """Round annulus { z : r1 < |z - center| < r2 }."""

    center: complex
    r1: float
    r2: float

    def __post_init__(self):
        if not (0.0 < self.r1 < self.r2 < math.inf):
            raise ValueError(f"need 0 < r1 < r2 < inf, got ({self.r1}, {self.r2})")
        object.__setattr__(self, "center", complex(self.center))


def modulus(a: AnnulusSpec) -> float:
    """log(r2 / r1), the conformal modulus of the round annulus."""
    return math.log(a.r2 / a.r1)


@dataclass(frozen=True)
class BoundingAnnuli:
    """Min/max image radii over the two boundary circles of an annulus.

    rho1/R1 are the min/max of |f(z) - f(center)| over the inner circle,
    rho2/R2 the same over the outer circle. ``separated`` means R1 < rho2, in
    which case E = A(f(center), R1, rho2) is the largest centered annulus
    inside the image and D = A(f(center), rho1, R2) the smallest containing
    it, and M(E) <= M(image) <= M(D).
    """

    image_center: complex
    rho1: float
    R1: float
    rho2: float
    R2: float

    @property
    def separated(self):
        return self.R1 < self.rho2

    @property
    def finite(self):
        """False if f left the plane: a non-finite image center or radius."""
        radii = (self.rho1, self.R1, self.rho2, self.R2)
        return cmath.isfinite(self.image_center) and all(map(math.isfinite, radii))

    def sandwich(self):
        """(M(E), M(D)) = (log(rho2 / R1), log(R2 / rho1)), which bracket the
        image modulus; raises NotSeparatedError when E is empty."""
        if not self.separated:
            raise NotSeparatedError("bounding annuli not separated")
        return math.log(self.rho2 / self.R1), math.log(self.R2 / self.rho1)

    @property
    def E(self):
        if not self.separated:
            raise NotSeparatedError("R1 >= rho2, the inner annulus is empty")
        return AnnulusSpec(self.image_center, self.R1, self.rho2)


def bounding_annuli(f, a: AnnulusSpec, circle_samples=1024) -> BoundingAnnuli:
    """Sample both boundary circles under f and extract min/max image radii."""
    if count(circle_samples, "circle_samples") < 64:
        raise ValueError("need at least 64 circle samples")
    ring = unit_circle(circle_samples)
    fc0 = complex(np.asarray(f(np.array([a.center], dtype=complex))).ravel()[0])
    d1 = np.abs(np.asarray(f(a.center + a.r1 * ring)) - fc0)
    d2 = np.abs(np.asarray(f(a.center + a.r2 * ring)) - fc0)
    return BoundingAnnuli(image_center=fc0,
                          rho1=float(d1.min()), R1=float(d1.max()),
                          rho2=float(d2.min()), R2=float(d2.max()))


@dataclass(frozen=True)
class QuasisymmetryBound:
    """Distortion control eta_K for global K-quasiconformal maps."""

    K: float
    eta: object
    eta_at_one: float

    @property
    def C_K(self):
        """Bound 2*log(eta_K(1)) on the sandwich width M(D) - M(E)."""
        return 2.0 * math.log(self.eta_at_one)


def default_eta(K):
    """Conservative global quasisymmetry bound eta(t) = 16^K max(t^K, t^(1/K)).

    Valid for every K-quasiconformal homeomorphism of the plane; sharper
    bounds exist but only thresholds, not estimates, depend on eta.
    """
    K = float(K)
    if not 1.0 <= K < math.inf:
        raise ValueError(f"K must be finite and >= 1, got {K}")
    scale = 16.0 ** K

    def eta(t):
        t = np.asarray(t, dtype=float)
        return scale * np.maximum(t ** K, t ** (1.0 / K))

    return QuasisymmetryBound(K=K, eta=eta, eta_at_one=scale)


def modulus_gap_bounds(ba: BoundingAnnuli, qs: QuasisymmetryBound,
                       a: AnnulusSpec):
    """Sandwich (M(E), M(D)) for the image modulus, and its width.

    Raises NotSeparatedError when the bounding annuli are not separated and
    ValueError if the width exceeds the quasisymmetry budget C_K, which would
    mean the map is not K-quasiconformal for the claimed K.
    """
    lower, upper = ba.sandwich()
    width = upper - lower
    if width > qs.C_K + 1e-12:
        raise ValueError(
            f"sandwich width {width:.6g} exceeds C_K = {qs.C_K:.6g}")
    return lower, upper, width


@dataclass(frozen=True)
class AnnulusGapRecord:
    center: complex
    r1: float
    r2: float
    modulus: float
    lower: float
    upper: float
    gap: float

    def to_dict(self):
        return {"center": [self.center.real, self.center.imag],
                "r1": self.r1, "r2": self.r2, "modulus": self.modulus,
                "lower": self.lower, "upper": self.upper, "gap": self.gap}


@dataclass
class CertificateReport:
    """Outcome of the modulus-gap certification run.

    ``r_min`` and ``r_max`` are the radii the annuli were built from, after
    the defaults and the resolution floor were applied.
    """

    bound: float
    annuli_tested: int
    skipped: int
    gaps: list
    sup_gap: float
    lipschitz_min: float
    lipschitz_max: float
    lipschitz_pairs: int
    verdict: bool
    mu_sup: float = None
    nonfinite: int = 0
    unresolved: int = 0
    r_min: float = None
    r_max: float = None

    def to_dict(self):
        return {"bound": self.bound,
                "r_min": self.r_min,
                "r_max": self.r_max,
                "annuli_tested": self.annuli_tested,
                "skipped": self.skipped,
                "nonfinite": self.nonfinite,
                "unresolved": self.unresolved,
                "sup_gap": self.sup_gap,
                "lipschitz_min": self.lipschitz_min,
                "lipschitz_max": self.lipschitz_max,
                "lipschitz_pairs": self.lipschitz_pairs,
                "verdict": "pass" if self.verdict else "fail",
                "mu_sup": self.mu_sup,
                "gaps": [g.to_dict() for g in self.gaps]}


def _lipschitz_pairs(pts, seed):
    """At most 4000 pairs (ii, jj) of distinct points, i < j.

    The pairs are ranked row by row, as ``np.triu_indices`` lists them, and
    above 4000 ``default_rng(seed)`` draws the kept ranks. Each rank maps back
    to its row through the running pair counts, and only the drawn rows that
    hold a repeated point are listed, so memory stays linear in len(pts).
    """
    counts = np.array([np.count_nonzero(pts[i + 1:] != p) for i, p in enumerate(pts)])
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if total > 4000:
        ranks = np.random.default_rng(seed).choice(total, 4000, replace=False)
    else:
        ranks = np.arange(total)
    ii = np.searchsorted(ends, ranks, side="right")
    offset = ranks - (ends - counts)[ii]
    jj = ii + 1 + offset  # the j of a row without a repeat of its point
    # the drawn rows with a repeat; a set, as np.unique would load numpy.ma
    for i in set(ii[counts[ii] < pts.size - 1 - ii].tolist()):
        at = ii == i
        jj[at] = i + 1 + np.flatnonzero(pts[i + 1:] != pts[i])[offset[at]]
    return ii, jj


def certify_bilipschitz(f, test_set, bound, mu=None, annuli_per_center=20,
                        circle_samples=1024, r_min=None, r_max=None, seed=0,
                        resolution=None) -> CertificateReport:
    """Certify bounded modulus distortion of f over annuli centered in test_set.

    For each center, builds ``annuli_per_center`` annuli with fixed outer
    radius ``r_max`` and geometrically spaced inner radii down to ``r_min``
    (defaults: 4x and 1e-4x the diameter of the test set), so the family
    reaches the large moduli that matter for the criterion. Each image modulus
    is estimated by the (M(E), M(D)) sandwich and the recorded gap is the
    worst deviation of either bound from M(A); the verdict passes iff the
    supremum of gaps is at most ``bound``. Annuli whose images are not
    separated are skipped (and counted); if everything is skipped the
    certification cannot run and NotSeparatedError is raised. Annuli with a
    non-finite image center or radius are counted in ``nonfinite`` and fail
    the verdict.

    ``resolution`` is the smallest radius at which f is known (by default
    f's ``resolution``, as a ``GridMap`` has, else 0). The default r_min is
    raised to it; annuli with a smaller inner radius are not tested, are
    counted in ``unresolved`` and fail the verdict.

    Lipschitz ratios |f(x) - f(y)| / |x - y| over at most 4000 pairs of
    distinct test points (``lipschitz_pairs`` counts them) are reported as
    corroborating diagnostics; they are not the criterion. Above 4000 pairs
    ``np.random.default_rng(seed)`` draws the subsample and is built only
    then; a negative or non-integer ``seed`` and a non-finite ``bound`` raise
    ValueError.
    """
    bound = float(bound)
    if not math.isfinite(bound):
        raise ValueError(f"bound must be finite, got {bound}")
    if resolution is None:
        resolution = getattr(f, "resolution", 0.0)
    pts = np.asarray(list(test_set), dtype=complex).ravel()
    if pts.size == 0:
        raise ValueError("empty test set")
    if r_max is None or r_min is None:
        # the exact diameter, one row of distances at a time
        diam = float(max(np.abs(pts - p).max() for p in pts))
        if diam <= 0:
            raise ValueError("test set has zero diameter; pass r_min and r_max")
        r_max = 4.0 * diam if r_max is None else float(r_max)
        r_min = max(1e-4 * diam, resolution) if r_min is None else float(r_min)
    if not (0.0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    if count(annuli_per_center, "annuli_per_center") < 1:
        raise ValueError("annuli_per_center must be >= 1")
    rnd = sys.modules.get("numpy.random")  # loaded if seed is one of its objects
    own = rnd and (rnd.Generator, rnd.BitGenerator, rnd.bit_generator.ISeedSequence)
    if not (seed is None or own and isinstance(seed, own)) and any(
            count(s, "seed") < 0 for s in np.ravel(np.array(seed, dtype=object))):
        raise ValueError(f"seed must be non-negative, got {seed!r}")

    delta = math.log(r_max / r_min) / annuli_per_center
    # an r_min at or above the floor resolves every annulus, also the last,
    # whose inner radius is r_min only up to round-off
    floor = resolution if r_min < resolution else 0.0
    records = []
    skipped = nonfinite = unresolved = 0
    for x0 in pts:
        for j in range(1, annuli_per_center + 1):
            r1 = r_max * math.exp(-j * delta)
            if r1 < floor:
                unresolved += 1
                continue
            a = AnnulusSpec(complex(x0), r1, r_max)
            ba = bounding_annuli(f, a, circle_samples)
            if not ba.finite:
                nonfinite += 1
                continue
            if not ba.separated:
                skipped += 1
                continue
            m = modulus(a)
            lower, upper = ba.sandwich()
            gap = max(abs(upper - m), abs(lower - m))
            records.append(AnnulusGapRecord(center=complex(x0), r1=r1, r2=r_max,
                                            modulus=m, lower=lower, upper=upper,
                                            gap=gap))
    if not records and not (nonfinite or unresolved):
        raise NotSeparatedError("all annuli were skipped as not separated")

    ii, jj = _lipschitz_pairs(pts, seed)
    if ii.size:
        fz = np.asarray(f(pts))
        ratios = np.abs(fz[ii] - fz[jj]) / np.abs(pts[ii] - pts[jj])
        lip_min, lip_max = float(ratios.min()), float(ratios.max())
    else:
        lip_min = lip_max = float("nan")

    sup_gap = max((r.gap for r in records), default=math.nan)
    return CertificateReport(
        bound=bound, annuli_tested=len(records), skipped=skipped,
        gaps=records, sup_gap=sup_gap,
        lipschitz_min=lip_min, lipschitz_max=lip_max, lipschitz_pairs=int(ii.size),
        verdict=not (nonfinite or unresolved) and sup_gap <= bound,
        mu_sup=None if mu is None else float(mu.sup_norm), nonfinite=nonfinite,
        unresolved=unresolved, r_min=float(r_min), r_max=float(r_max))
