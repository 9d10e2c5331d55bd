"""Tests for annulus moduli, bounding annuli and the gap certifier."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qcmap.closed_maps import fc_map, identity_map
from qcmap.field import DiskConstant
from qcmap.modulus import (AnnulusSpec, NotSeparatedError, _lipschitz_pairs,
                           bounding_annuli, certify_bilipschitz, default_eta,
                           modulus, modulus_gap_bounds)
from qcmap.solver import SolverConfig, solve_principal


def test_modulus_values():
    assert modulus(AnnulusSpec(0, 1.0, math.e)) == pytest.approx(1.0)
    for center in (0, 3 - 2j, 100j):
        a = AnnulusSpec(center, 0.7, 0.7 * math.exp(2.5))
        assert modulus(a) == pytest.approx(2.5)
    assert modulus(AnnulusSpec(0, 0.5, 2.0)) == pytest.approx(math.log(4.0))


def test_annulus_validation():
    with pytest.raises(ValueError):
        AnnulusSpec(0, 2.0, 1.0)
    with pytest.raises(ValueError):
        AnnulusSpec(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        AnnulusSpec(0, 1.0, math.inf)


def test_bounding_annuli_identity():
    a = AnnulusSpec(1 + 2j, 0.5, 3.0)
    ba = bounding_annuli(identity_map, a)
    assert ba.separated
    assert ba.rho1 == pytest.approx(0.5, abs=1e-14)
    assert ba.R1 == pytest.approx(0.5, abs=1e-14)
    assert ba.rho2 == pytest.approx(3.0, abs=1e-14)
    assert ba.R2 == pytest.approx(3.0, abs=1e-14)
    assert ba.sandwich()[1] == pytest.approx(modulus(a), abs=1e-12)
    assert modulus(ba.E) == pytest.approx(modulus(a), abs=1e-12)


def test_bounding_annuli_similarity():
    w = 1.5 - 2.0j
    b = 4 + 1j

    def f(z):
        return w * np.asarray(z) + b

    a = AnnulusSpec(-1j, 0.2, 1.1)
    ba = bounding_annuli(f, a)
    assert ba.image_center == pytest.approx(f(np.array([-1j]))[0])
    for got, src in ((ba.rho1, a.r1), (ba.R1, a.r1), (ba.rho2, a.r2), (ba.R2, a.r2)):
        assert got == pytest.approx(abs(w) * src, rel=1e-12)
    assert modulus(ba.E) == pytest.approx(modulus(a), abs=1e-12)


def test_bounding_annuli_fc_band():
    c = 0.5
    a = AnnulusSpec(0, 0.1, 10.0)
    ba = bounding_annuli(fc_map(c), a)
    assert ba.separated
    lower, upper, width = modulus_gap_bounds(ba, default_eta(3.0), a)
    assert lower <= upper
    assert width >= 0
    # radial distortion of the disk map is within [1-|c|, 1+|c|] exactly
    assert width <= 2 * math.log((1 + c) / (1 - c)) + 1e-12


def test_not_separated_flagged():
    # thin annulus: the inner image circle reaches past the outer one
    a = AnnulusSpec(0, 1.0, 1.2)
    ba = bounding_annuli(fc_map(0.5), a)
    assert not ba.separated
    with pytest.raises(NotSeparatedError):
        _ = ba.E
    with pytest.raises(NotSeparatedError):
        modulus_gap_bounds(ba, default_eta(3.0), a)


def test_modulus_gap_identity_zero_width():
    a = AnnulusSpec(0.5j, 0.3, 2.0)
    ba = bounding_annuli(identity_map, a)
    lower, upper, width = modulus_gap_bounds(ba, default_eta(1.0), a)
    assert lower == pytest.approx(modulus(a), abs=1e-12)
    assert upper == pytest.approx(modulus(a), abs=1e-12)
    assert width == pytest.approx(0.0, abs=1e-12)


def test_gap_invariant_under_similarity():
    # rotate by an exact multiple of the sampling angle so the sampled point
    # sets correspond; then min/max radii scale exactly
    n = 256
    rot = np.exp(2j * math.pi * 7 / n)
    scale_pre = 0.35
    shift_pre = 2 - 1j
    post_w = 3.0 * np.exp(2j * math.pi * 5 / n)
    post_b = -7 + 2j

    f = fc_map(0.4)

    def g(z):
        return post_w * np.asarray(f(scale_pre * rot * np.asarray(z) + shift_pre)) + post_b

    a = AnnulusSpec(0.3 + 0.1j, 0.2, 4.0)
    a_pre = AnnulusSpec((a.center - shift_pre) / (scale_pre * rot),
                        a.r1 / scale_pre, a.r2 / scale_pre)
    ba = bounding_annuli(f, a, circle_samples=n)
    bg = bounding_annuli(g, a_pre, circle_samples=n)
    gap_f = max(abs(math.log(ba.R2 / ba.rho1) - modulus(a)),
                abs(math.log(ba.rho2 / ba.R1) - modulus(a)))
    gap_g = max(abs(math.log(bg.R2 / bg.rho1) - modulus(a_pre)),
                abs(math.log(bg.rho2 / bg.R1) - modulus(a_pre)))
    assert gap_f == pytest.approx(gap_g, abs=1e-10)


def test_default_eta():
    qs = default_eta(1.0)
    assert qs.eta(1.0) == pytest.approx(16.0)
    ts = np.linspace(1e-3, 10, 500)
    vals = qs.eta(ts)
    assert np.all(np.diff(vals) > 0)
    assert qs.C_K == pytest.approx(2 * math.log(16.0))
    qs3 = default_eta(3.0)
    assert qs3.C_K == pytest.approx(6 * math.log(16.0))
    with pytest.raises(ValueError):
        default_eta(0.5)


def test_circle_sampling_convergence():
    # quadrupling the samples moves the radius estimates by less than the
    # map's Lipschitz bound times the coarse arc spacing
    c = 0.5
    f = fc_map(c)
    a = AnnulusSpec(0.2 + 0.1j, 0.5, 5.0)
    coarse = bounding_annuli(f, a, circle_samples=1024)
    fine = bounding_annuli(f, a, circle_samples=4096)
    arc = 2 * math.pi * a.r2 / 1024
    lip = 1 + c
    for attr in ("rho1", "R1", "rho2", "R2"):
        assert abs(getattr(coarse, attr) - getattr(fine, attr)) < lip * arc


def test_certify_identity_passes():
    centers = [0, 1, 1j, -1 - 1j]
    rep = certify_bilipschitz(identity_map, centers, bound=1e-12)
    assert rep.verdict
    assert rep.sup_gap == pytest.approx(0.0, abs=1e-12)
    assert rep.lipschitz_min == pytest.approx(1.0, abs=1e-12)
    assert rep.lipschitz_max == pytest.approx(1.0, abs=1e-12)
    assert rep.annuli_tested > 0


def test_certify_fc_passes():
    c = 0.5
    xs = np.linspace(-1.4, 1.4, 3)
    X, Y = np.meshgrid(xs, xs)
    centers = (X + 1j * Y).ravel()
    rep = certify_bilipschitz(fc_map(c), centers, bound=2 * math.log(3) + 0.1,
                              annuli_per_center=10)
    assert rep.verdict
    assert rep.sup_gap <= math.log(3.0) + 1e-9
    assert rep.lipschitz_min >= 1 - c - 1e-9
    assert rep.lipschitz_max <= 1 + c + 1e-9
    assert rep.annuli_tested == 9 * 10


def test_certify_conformal_away_from_support():
    # far from the support the disk map is a near-identity conformal map and
    # the sandwich hugs the true (conformally invariant) modulus
    rep = certify_bilipschitz(fc_map(0.5), [60.0, 63.0 + 2j], bound=1e-3,
                              annuli_per_center=6, r_min=0.05, r_max=2.0)
    assert rep.verdict
    assert rep.sup_gap < 1e-3


def test_certify_all_skipped_raises():
    with pytest.raises(NotSeparatedError):
        certify_bilipschitz(fc_map(0.5), [0.0, 1.0], bound=1.0,
                            annuli_per_center=3, r_min=0.5, r_max=1.0)


def test_certify_fails_on_nonfinite_images():
    # NaN radii are not "separated", so these annuli used to be skipped and
    # the certificate passed on the finite rest
    def holed(z):
        z = np.asarray(z, dtype=complex)
        return np.where(np.abs(z) < 0.5, np.nan, z)

    rep = certify_bilipschitz(holed, [0.0, 1.0], bound=1.0)
    assert rep.nonfinite > 0
    assert rep.skipped == 0
    assert rep.annuli_tested + rep.nonfinite == 40
    assert not rep.verdict
    assert rep.to_dict()["nonfinite"] == rep.nonfinite


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_certify_all_nonfinite_fails_without_gaps():
    rep = certify_bilipschitz(lambda z: np.full(np.shape(z), np.inf + 0j),
                              [0.0, 1.0], bound=1.0, annuli_per_center=3)
    assert rep.nonfinite == 6 and rep.annuli_tested == 0
    assert not rep.verdict


def test_certify_default_r_min_is_raised_to_the_resolution():
    centers = [0.0, 1.0, 1j]
    rep = certify_bilipschitz(fc_map(0.5), centers, bound=2.3,
                              annuli_per_center=10, resolution=0.1)
    assert rep.verdict and rep.unresolved == 0
    assert min(g.r1 for g in rep.gaps) == pytest.approx(0.1)
    assert rep.to_dict()["unresolved"] == 0


def test_certify_takes_the_resolution_from_the_map():
    gm = solve_principal(DiskConstant(c=0.5), SolverConfig(grid_n=64))
    rep = certify_bilipschitz(gm, [0.0, 1.0], bound=2.3, annuli_per_center=4)
    assert rep.r_min == gm.resolution


def test_certify_fails_on_annuli_below_the_resolution():
    # an explicit r_min below the floor: the small annuli are counted, not
    # tested, and no pass rests on them
    rep = certify_bilipschitz(fc_map(0.5), [0.0, 1.0], bound=2.3,
                              annuli_per_center=10, r_min=1e-3, r_max=1.0,
                              resolution=0.05)
    r1 = np.exp(np.linspace(0.0, math.log(1e-3), 11)[1:])
    assert rep.unresolved == 2 * int(np.sum(r1 < 0.05))
    assert rep.annuli_tested + rep.skipped + rep.unresolved == 20
    assert min(g.r1 for g in rep.gaps) >= 0.05
    assert rep.sup_gap <= 2.3
    assert not rep.verdict


def test_certify_requires_radii_for_single_center():
    with pytest.raises(ValueError):
        certify_bilipschitz(identity_map, [0.0], bound=1.0)
    rep = certify_bilipschitz(identity_map, [0.0], bound=0.5,
                              r_min=0.01, r_max=1.0)
    assert rep.verdict
    # counts are integers where they enter, not where range() meets them
    for kw in ({"annuli_per_center": 2.5}, {"annuli_per_center": math.nan},
               {"circle_samples": 100.5}):
        with pytest.raises(ValueError, match="must be an integer"):
            certify_bilipschitz(identity_map, [0.0], bound=0.5, r_min=0.01,
                                r_max=1.0, **kw)


def test_certify_report_dict_shape():
    rep = certify_bilipschitz(identity_map, [0, 1], bound=0.1,
                              r_min=0.01, r_max=1.0)
    d = rep.to_dict()
    assert d["verdict"] == "pass"
    assert d["annuli_tested"] == len(d["gaps"])
    assert set(d["gaps"][0]) == {"center", "r1", "r2", "modulus",
                                 "lower", "upper", "gap"}


def test_default_r_max_is_four_diameters_of_a_large_test_set():
    # 2001 points on the unit circle: the diameter is the longest chord,
    # not the bounding-box diagonal 2*sqrt(2)
    n = 2001
    pts = np.exp(2j * math.pi * np.arange(n) / n)
    tracemalloc.start()
    try:
        rep = certify_bilipschitz(identity_map, pts, bound=1.0,
                                  annuli_per_center=1, circle_samples=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.r_max == pytest.approx(4 * 2 * math.sin(math.pi * 1000 / n),
                                      rel=1e-12)
    # the 4000 Lipschitz pairs are drawn without listing all 2,001,000
    assert peak < 16e6


def test_certify_lipschitz_ratios_skip_repeated_test_points():
    # a repeated center gave a 0/0 pair, whose NaN ratio nulled both bounds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = certify_bilipschitz(fc_map(0.5), [0.0, 0.0, 1.0], bound=3.0,
                                  annuli_per_center=3)
    assert math.isfinite(rep.lipschitz_min) and math.isfinite(rep.lipschitz_max)
    assert rep.lipschitz_pairs == 2
    assert rep.lipschitz_min == rep.lipschitz_max == pytest.approx(1.5)
    assert rep.verdict


@pytest.mark.parametrize("seed", [0, 7])
def test_certify_lipschitz_subsample_above_4000_pairs(seed):
    # 100 distinct centers give 4950 pairs, of which default_rng(seed) keeps
    # 4000; these points are drawn so that for both seeds the kept pairs miss
    # an extreme of all 4950, so the extremes tell which pairs were kept
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2, 2, 100) + 1j * rng.uniform(-2, 2, 100)
    f = fc_map(0.5 + 0.2j)
    rep = certify_bilipschitz(f, pts, bound=3.0, annuli_per_center=1,
                              circle_samples=64, seed=seed)
    ii, jj = np.triu_indices(100, k=1)
    ratios = np.abs(f(pts[ii]) - f(pts[jj])) / np.abs(pts[ii] - pts[jj])
    keep = np.random.default_rng(seed).choice(4950, size=4000, replace=False)
    assert rep.lipschitz_pairs == 4000
    assert (rep.lipschitz_min, rep.lipschitz_max) == \
        (ratios[keep].min(), ratios[keep].max())
    assert (ratios[keep].min(), ratios[keep].max()) != (ratios.min(), ratios.max())


@pytest.mark.parametrize("seed", [0, 7])
def test_certify_lipschitz_subsample_skips_repeated_points(seed):
    # 120 centers on 30 distinct points: 6913 distinct pairs, so a subsample;
    # the reference lists every pair and drops the repeats before drawing
    rng = np.random.default_rng(5)
    base = rng.uniform(-2, 2, 30) + 1j * rng.uniform(-2, 2, 30)
    pts = base[rng.integers(0, 30, 120)]
    f = fc_map(0.5 + 0.2j)
    rep = certify_bilipschitz(f, pts, bound=3.0, annuli_per_center=1,
                              circle_samples=64, seed=seed)
    ii, jj = np.triu_indices(pts.size, k=1)
    distinct = pts[ii] != pts[jj]
    ii, jj = ii[distinct], jj[distinct]
    assert ii.size > 4000
    keep = np.random.default_rng(seed).choice(ii.size, 4000, replace=False)
    ii, jj = ii[keep], jj[keep]
    picked = _lipschitz_pairs(pts, seed)
    assert np.array_equal(picked[0], ii) and np.array_equal(picked[1], jj)
    ratios = np.abs(f(pts[ii]) - f(pts[jj])) / np.abs(pts[ii] - pts[jj])
    assert rep.lipschitz_pairs == 4000
    assert (rep.lipschitz_min, rep.lipschitz_max) == (ratios.min(), ratios.max())


def test_certify_checks_the_seed_without_a_subsample():
    # 9 centers give 36 pairs, so no generator is built, yet the seed is
    # refused as default_rng would refuse it
    centers = [complex(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    for seed in (-1, np.int64(-2), [3, -1], 1.5, "7"):
        with pytest.raises(ValueError, match="seed"):
            certify_bilipschitz(fc_map(0.5), centers, bound=3.0,
                                annuli_per_center=2, seed=seed)
    for seed in (None, 2**70, [1, 2], np.random.SeedSequence(1),
                 np.random.default_rng(1)):
        rep = certify_bilipschitz(fc_map(0.5), centers, bound=3.0,
                                  annuli_per_center=2, seed=seed)
        assert rep.lipschitz_pairs == 36
