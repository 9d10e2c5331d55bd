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
from dataclasses import dataclass, field as dc_field

import numpy as np

from .closed_maps import DiskMapSpec, eval_fc, eval_fc_inverse


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

    @property
    def B(self):
        return AnnulusSpec(self.image_center, self.rho1, self.rho2)

    @property
    def C(self):
        return AnnulusSpec(self.image_center, self.R1, self.R2)

    @property
    def D(self):
        return AnnulusSpec(self.image_center, self.rho1, self.R2)

    @property
    def E(self):
        if not self.separated:
            raise NotSeparatedError("R1 >= rho2, the inner annulus is empty")
        return AnnulusSpec(self.image_center, self.R1, self.rho2)


def bounding_annuli(f, a: AnnulusSpec, circle_samples=1024) -> BoundingAnnuli:
    """Sample both boundary circles under f and extract min/max image radii."""
    if circle_samples < 64:
        raise ValueError("need at least 64 circle samples")
    theta = np.linspace(0.0, 2.0 * math.pi, circle_samples, endpoint=False)
    ring = np.exp(1j * theta)
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
    if K < 1.0:
        raise ValueError("K must be >= 1")
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
    if not ba.separated:
        raise NotSeparatedError("bounding annuli not separated")
    lower = math.log(ba.rho2 / ba.R1)
    upper = math.log(ba.R2 / ba.rho1)
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
    """Outcome of the modulus-gap certification run."""

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

    def to_dict(self):
        return {"bound": self.bound,
                "annuli_tested": self.annuli_tested,
                "skipped": self.skipped,
                "nonfinite": self.nonfinite,
                "sup_gap": self.sup_gap,
                "lipschitz_min": self.lipschitz_min,
                "lipschitz_max": self.lipschitz_max,
                "lipschitz_pairs": self.lipschitz_pairs,
                "verdict": "pass" if self.verdict else "fail",
                "mu_sup": self.mu_sup,
                "gaps": [g.to_dict() for g in self.gaps]}


def _diameter(pts):
    if pts.size <= 2000:
        d = np.abs(pts[:, None] - pts[None, :])
        return float(d.max())
    xs, ys = pts.real, pts.imag
    return float(math.hypot(xs.max() - xs.min(), ys.max() - ys.min()))


def certify_bilipschitz(f, test_set, bound, mu=None, annuli_per_center=20,
                        circle_samples=1024, r_min=None, r_max=None,
                        max_pairs=4000, seed=0) -> CertificateReport:
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

    Lipschitz ratios |f(x) - f(y)| / |x - y| over pairs of test points are
    reported as corroborating diagnostics; they are not the criterion.
    """
    pts = np.asarray(list(test_set), dtype=complex).ravel()
    if pts.size == 0:
        raise ValueError("empty test set")
    if r_max is None or r_min is None:
        diam = _diameter(pts)
        if diam <= 0:
            raise ValueError("test set has zero diameter; pass r_min and r_max")
        r_max = 4.0 * diam if r_max is None else float(r_max)
        r_min = 1e-4 * diam if r_min is None else float(r_min)
    if not (0.0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    if annuli_per_center < 1:
        raise ValueError("annuli_per_center must be >= 1")

    delta = math.log(r_max / r_min) / annuli_per_center
    records = []
    skipped = nonfinite = 0
    for x0 in pts:
        for j in range(1, annuli_per_center + 1):
            r1 = r_max * math.exp(-j * delta)
            a = AnnulusSpec(complex(x0), r1, r_max)
            ba = bounding_annuli(f, a, circle_samples)
            if not ba.finite:
                nonfinite += 1
                continue
            if not ba.separated:
                skipped += 1
                continue
            m = modulus(a)
            lower = math.log(ba.rho2 / ba.R1)
            upper = math.log(ba.R2 / ba.rho1)
            gap = max(abs(upper - m), abs(lower - m))
            records.append(AnnulusGapRecord(center=complex(x0), r1=r1, r2=r_max,
                                            modulus=m, lower=lower, upper=upper,
                                            gap=gap))
    if not records and not nonfinite:
        raise NotSeparatedError("all annuli were skipped as not separated")

    rng = np.random.default_rng(seed)
    ii, jj = np.triu_indices(pts.size, k=1)
    if ii.size > max_pairs:
        keep = rng.choice(ii.size, size=max_pairs, replace=False)
        ii, jj = ii[keep], jj[keep]
    if ii.size:
        fz = np.asarray(f(pts))
        ratios = np.abs(fz[ii] - fz[jj]) / np.abs(pts[ii] - pts[jj])
        lip_min, lip_max = float(ratios.min()), float(ratios.max())
    else:
        lip_min = lip_max = float("nan")

    sup_gap = max((r.gap for r in records), default=math.nan)
    return CertificateReport(
        bound=float(bound), annuli_tested=len(records), skipped=skipped,
        gaps=records, sup_gap=sup_gap,
        lipschitz_min=lip_min, lipschitz_max=lip_max, lipschitz_pairs=int(ii.size),
        verdict=not nonfinite and sup_gap <= float(bound),
        mu_sup=None if mu is None else float(mu.sup_norm), nonfinite=nonfinite)


def decompose_modulus_gap(f, fc_spec: DiskMapSpec, a: AnnulusSpec,
                          circle_samples=1024):
    """Split the modulus gap of f over A through the comparison map f_c.

    With g = f composed with the inverse of f_c, and E the inner bounding
    annulus of f_c(A), returns the triangle pieces
    t1 = |est M(f(A)) - est M(g(E))|, t2 = |est M(g(E)) - M(E)|,
    t3 = |M(E) - M(A)|, where each image modulus estimate is the midpoint of
    its sandwich. Their sum dominates the certified gap up to sandwich slack.
    """
    if not isinstance(fc_spec, DiskMapSpec):
        fc_spec = DiskMapSpec(complex(fc_spec))
    ba_fc = bounding_annuli(lambda z: eval_fc(fc_spec, z), a, circle_samples)
    e_ann = ba_fc.E  # raises NotSeparatedError when not separated

    def g(w):
        return np.asarray(f(eval_fc_inverse(fc_spec, w)))

    ba_f = bounding_annuli(f, a, circle_samples)
    if not ba_f.separated:
        raise NotSeparatedError("f image annuli not separated")
    ba_g = bounding_annuli(g, e_ann, circle_samples)
    if not ba_g.separated:
        raise NotSeparatedError("composed image annuli not separated")

    def mid(ba):
        return 0.5 * (math.log(ba.rho2 / ba.R1) + math.log(ba.R2 / ba.rho1))

    est_f = mid(ba_f)
    est_g = mid(ba_g)
    me = modulus(e_ann)
    t1 = abs(est_f - est_g)
    t2 = abs(est_g - me)
    t3 = abs(me - modulus(a))
    return t1, t2, t3
