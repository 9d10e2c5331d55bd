"""Tests for the closed-form disk and sector solutions and allowability.

High-precision oracle values (60-digit arithmetic applied to the defining
formulas) are frozen below; everything else is checked against independent
constructions: finite differences for dilatations, direct substitution for
map values, and bisection-free verification for locus points.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcmap.closed_maps import (AmbiguousInverseError, DiskMapSpec,
                               allowable_for_corner, allowable_locus,
                               compose_dilatation, eval_fangle, eval_fc,
                               eval_fc_inverse, fangle_map, fc_map,
                               is_allowable_sector, sector_invariants)

# lambda(0.5, pi/2) computed from the defining formula with mpmath at 40
# digits: 2*pi*i / (log(1/3) + 2*pi*i)
LAMBDA_HALF_PI_05 = 0.9703345683544652 - 0.1696625881295549j


def _fd_dilatation(f, z, h=1e-6):
    fe, fw = f(z + h), f(z - h)
    fn, fs = f(z + 1j * h), f(z - 1j * h)
    dx = (fe - fw) / (2 * h)
    dy = (fn - fs) / (2 * h)
    dz = 0.5 * (dx - 1j * dy)
    dzbar = 0.5 * (dx + 1j * dy)
    return dzbar / dz


# --- disk map -----------------------------------------------------------

def test_fc_zero_dilatation_is_identity():
    rng = np.random.default_rng(0)
    z = rng.normal(size=200) + 1j * rng.normal(size=200)
    np.testing.assert_allclose(eval_fc(0.0, z), z, atol=1e-15)


def test_fc_direct_values():
    assert eval_fc(0.5, 2.0) == pytest.approx(2.25)
    # both branches agree on the unit circle: the image is an ellipse
    assert eval_fc(0.5, 1j) == pytest.approx(0.5j)
    inside = 1j * (1 - 1e-12) + 0
    outside = 1j * (1 + 1e-12) + 0
    assert abs(eval_fc(0.5, inside) - eval_fc(0.5, outside)) < 1e-11


def test_fc_continuity_across_circle():
    rng = np.random.default_rng(1)
    th = rng.uniform(0, 2 * math.pi, 500)
    c = 0.3 - 0.4j
    lo = eval_fc(c, (1 - 1e-10) * np.exp(1j * th))
    hi = eval_fc(c, (1 + 1e-10) * np.exp(1j * th))
    assert np.abs(lo - hi).max() < 1e-9


def test_fc_bilipschitz_band():
    c = 0.5
    spec = DiskMapSpec(c)
    rng = np.random.default_rng(2)
    z = rng.uniform(-3, 3, 100000) + 1j * rng.uniform(-3, 3, 100000)
    w = rng.uniform(-3, 3, 100000) + 1j * rng.uniform(-3, 3, 100000)
    keep = np.abs(z - w) > 1e-12
    z, w = z[keep], w[keep]
    ratio = np.abs(eval_fc(spec, z) - eval_fc(spec, w)) / np.abs(z - w)
    assert ratio.min() >= (1 - c) * (1 - 1e-9)
    assert ratio.max() <= (1 + c) * (1 + 1e-9)


def test_fc_finite_difference_dilatation():
    c = 0.35 + 0.2j
    f = fc_map(c)
    h = 1e-3
    rng = np.random.default_rng(3)
    z = 0.7 * np.sqrt(rng.uniform(0.05, 1, 300)) * np.exp(2j * math.pi * rng.uniform(size=300))
    mu = _fd_dilatation(f, z, h=h)
    assert np.abs(mu - c).max() < 10 * h


def test_fc_inverse_examples():
    assert eval_fc_inverse(DiskMapSpec(0.0), 0.7 - 0.2j) == pytest.approx(0.7 - 0.2j)
    assert eval_fc_inverse(DiskMapSpec(0.5), 2.25) == pytest.approx(2.0)


def test_fc_inverse_round_trip():
    spec = DiskMapSpec(0.4 - 0.3j)
    rng = np.random.default_rng(4)
    z = rng.uniform(-4, 4, 10000) + 1j * rng.uniform(-4, 4, 10000)
    back = eval_fc_inverse(spec, eval_fc(spec, z))
    assert np.abs(back - z).max() < 1e-12


def test_fc_inverse_near_seam():
    spec = DiskMapSpec(0.5)
    th = np.linspace(0, 2 * math.pi, 257)
    for eps in (1e-9, -1e-9):
        z = (1 + eps) * np.exp(1j * th)
        back = eval_fc_inverse(spec, eval_fc(spec, z))
        assert np.abs(back - z).max() < 1e-7


# --- sector invariants and the spiral map --------------------------------

def test_sector_invariants_trivial():
    for th0 in (0.5, 1.0, math.pi / 3, 4.0):
        s = sector_invariants(0.0, th0)
        assert s.R == pytest.approx(1.0, abs=1e-14)
        assert s.theta1 == pytest.approx(th0, abs=1e-12)
        assert s.lam == pytest.approx(1.0, abs=1e-13)


def test_sector_invariants_half_plane():
    rng = np.random.default_rng(5)
    cs = 0.97 * np.sqrt(rng.uniform(size=50)) * np.exp(2j * math.pi * rng.uniform(size=50))
    for c in cs:
        s = sector_invariants(c, math.pi)
        assert abs(s.lam - 1.0) < 1e-12


def test_sector_invariants_frozen_value():
    s = sector_invariants(0.5, math.pi / 2)
    assert s.R == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert s.theta1 == pytest.approx(math.pi / 2, abs=1e-12)
    assert s.lam == pytest.approx(LAMBDA_HALF_PI_05, abs=1e-12)


def test_sector_invariants_consistency():
    # R e^{i theta1} must reproduce the defining quotient, a its normalization
    rng = np.random.default_rng(6)
    for _ in range(100):
        c = 0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        th0 = rng.uniform(0.05, 2 * math.pi - 0.05)
        s = sector_invariants(c, th0)
        lhs = s.R * np.exp(1j * s.theta1)
        rhs = (np.exp(1j * th0) + c * np.exp(-1j * th0)) / (1 + c)
        assert abs(lhs - rhs) < 1e-12
        assert abs(s.a - lhs / np.exp(1j * th0)) < 1e-12
        denom = math.log(s.R) + 1j * (2 * math.pi + s.theta1 - s.theta0)
        assert abs(s.lam * denom - 2j * math.pi) < 1e-12


def test_fangle_identity_for_zero_c():
    s = sector_invariants(0.0, 2.0)
    rng = np.random.default_rng(7)
    z = rng.normal(size=100) + 1j * rng.normal(size=100)
    z = z[np.abs(z) > 1e-3]
    np.testing.assert_allclose(eval_fangle(s, z), z, atol=1e-12)


def test_fangle_fixes_one():
    for c, th0 in ((0.5, math.pi / 2), (0.2 - 0.1j, 1.0), (-0.3j, 4.0)):
        s = sector_invariants(c, th0)
        assert eval_fangle(s, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert eval_fangle(sector_invariants(0.5, 1.0), 0.0) == 0.0


@pytest.mark.parametrize("c,th0", [
    (0.5, math.pi / 2),
    (-0.5j, math.pi / 2),   # theta1 > theta0: exercises the argument lift
    (0.3 + 0.4j, 5.5),
])
def test_fangle_sews_the_slit(c, th0):
    s = sector_invariants(c, th0)
    for r in (0.5, 1.0, 2.0):
        lo = eval_fangle(s, r * np.exp(1j * 1e-9))
        hi = eval_fangle(s, r * np.exp(1j * (2 * math.pi - 1e-9)))
        assert abs(lo - hi) < 1e-6, (c, th0, r)


def test_fangle_log_modulus_linear_along_rays():
    s = sector_invariants(0.5, math.pi / 2)
    rs = np.exp(np.linspace(math.log(1e-6), math.log(10), 41))
    for th in (0.3, 1.0, 2.0, 4.0, 5.9):
        vals = eval_fangle(s, rs * np.exp(1j * th))
        resid = np.log(np.abs(vals)) - s.lam.real * np.log(rs)
        assert resid.max() - resid.min() < 1e-10


def test_fangle_finite_difference_dilatation():
    c, th0 = 0.4 - 0.2j, 2.0
    f = fangle_map(c, th0)
    rng = np.random.default_rng(8)
    r = np.exp(rng.uniform(math.log(0.3), math.log(2.0), 200))
    inside = r * np.exp(1j * rng.uniform(0.15, th0 - 0.15, 200))
    outside = r * np.exp(1j * rng.uniform(th0 + 0.15, 2 * math.pi - 0.15, 200))
    mu_in = _fd_dilatation(f, inside)
    mu_out = _fd_dilatation(f, outside)
    assert np.abs(mu_in - c).max() < 1e-6
    assert np.abs(mu_out).max() < 1e-6


# an allowable c at the right angle, |c| = 0.5116, where the pair-ratio band
# of the spiral stays within (0.1, 10)
C_ALLOW_HALF_PI = 0.5060750906886151 + 0.07506914834585444j


def test_fangle_lipschitz_band_when_allowable():
    c = C_ALLOW_HALF_PI
    assert is_allowable_sector(c, math.pi / 2, tol=1e-12)
    s = sector_invariants(c, math.pi / 2)
    rs = np.exp(np.linspace(math.log(1e-6), 0, 25))
    th = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    z = rs[:, None] * np.exp(1j * th[None, :])
    ratio = np.abs(eval_fangle(s, z)) / np.abs(z)
    # Re lambda = 1: the radial stretching |f(z)|/|z| depends on the ray only
    assert np.abs(np.log(ratio) - np.log(ratio[0])[None, :]).max() < 1e-9


def test_fangle_pair_ratios_scale_invariant_when_allowable():
    # f(s z) = s^lam f(z) for s > 0, so with Re lam = 1 the band of pair
    # ratios |f(z)-f(w)| / |z-w| is the same at every scale
    c = C_ALLOW_HALF_PI
    assert is_allowable_sector(c, math.pi / 2, tol=1e-12)
    s = sector_invariants(c, math.pi / 2)

    def band(scale):
        rng = np.random.default_rng(11)  # same pair draw at every scale
        z = scale * (rng.uniform(0.1, 1, 2000) + 0j) * np.exp(2j * math.pi * rng.uniform(size=2000))
        w = scale * (rng.uniform(0.1, 1, 2000) + 0j) * np.exp(2j * math.pi * rng.uniform(size=2000))
        keep = np.abs(z - w) > 1e-3 * scale
        r = np.abs(eval_fangle(s, z[keep]) - eval_fangle(s, w[keep])) / np.abs(z[keep] - w[keep])
        return r.min(), r.max()

    lo1, hi1 = band(1.0)
    lo2, hi2 = band(1e-4)
    assert hi1 < 10.0 and lo1 > 0.1
    # same draw at both scales: the ratio sets coincide up to rounding
    assert hi2 == pytest.approx(hi1, rel=1e-6)
    assert lo2 == pytest.approx(lo1, rel=1e-6)


def test_fangle_scaling_slope_when_not_allowable():
    s = sector_invariants(0.5, math.pi / 2)
    rs = np.exp(np.linspace(math.log(1e-4), 0, 40))
    for th in np.linspace(0.1, 2 * math.pi - 0.1, 8):
        ratio = np.abs(eval_fangle(s, rs * np.exp(1j * th))) / rs
        slope = np.polyfit(np.log(rs), np.log(ratio), 1)[0]
        assert abs(slope - (s.lam.real - 1.0)) < 0.01


# --- allowability --------------------------------------------------------

def test_is_allowable_examples():
    assert is_allowable_sector(0.0, math.pi / 3, tol=1e-12)
    assert is_allowable_sector(0.3 + 0.2j, math.pi, tol=1e-12)
    assert not is_allowable_sector(0.5, math.pi / 2, tol=1e-3)


def test_allowable_locus_half_plane_flag():
    locus = allowable_locus(math.pi, samples=16)
    assert locus.whole_disk
    assert locus.points.size == 0


def test_allowable_locus_points_verify():
    locus = allowable_locus(math.pi / 2, samples=256)
    assert not locus.whole_disk
    assert len(locus.points) >= 4
    for c in locus.points:
        assert is_allowable_sector(c, math.pi / 2, tol=1e-9)
        assert abs(c) < 1.0


def test_allowable_locus_reaches_the_unit_circle():
    # the locus at a right angle runs out to |c| -> 1; a ray scan in |c|
    # stopped at 0.65
    points = allowable_locus(math.pi / 2, samples=256).points
    assert np.abs(points).max() > 0.99


def test_allowable_locus_contains_zero_and_rejects_no_samples():
    # an odd sample count puts the middle sample at c = 0
    assert abs(allowable_locus(math.pi / 3, samples=5).points[2]) < 1e-15
    with pytest.raises(ValueError):
        allowable_locus(math.pi / 3, samples=0)


_OPENING_MARGIN = 1e-6


@settings(max_examples=200, deadline=None)
@given(theta0=st.floats(_OPENING_MARGIN, 2 * math.pi - _OPENING_MARGIN),
       samples=st.integers(1, 4096))
def test_allowable_locus_closed_form_properties(theta0, samples):
    # 0, pi and 2*pi are the degenerate openings
    assume(abs(theta0 - math.pi) > _OPENING_MARGIN)
    points = allowable_locus(theta0, samples=samples).points
    assert len(points) == samples
    assert np.all(np.abs(points) < 1.0)
    # As theta0 mod pi -> pi the arc's ends run to c = -1, where w(c) scales
    # an error in c by 1 / |1 + c|: rounding c to a double moves Re lambda by
    # about 1e-16 / (pi - theta0 mod pi), and sector_invariants' own rounding
    # by up to about 2e-15 / (pi - theta0 mod pi).
    tol = max(1e-12, 1e-14 / (math.pi - theta0 % math.pi))
    worst = max(abs(sector_invariants(c, theta0).lam.real - 1.0)
                for c in points)
    assert worst <= tol


def test_corner_allowability_unfolds_to_sector():
    rng = np.random.default_rng(9)
    for _ in range(20):
        c = 0.8 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        alpha = rng.uniform(0.1, 1.9)
        assert (allowable_for_corner(c, alpha, 0.0)
                == is_allowable_sector(c, alpha * math.pi))
    # flat corner: opening pi, allowable for every c and rotation
    for _ in range(20):
        c = 0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        beta = rng.uniform(0, 2 * math.pi)
        assert allowable_for_corner(c, 1.0, beta, tol=1e-10)


def test_corner_allowability_rotation_example():
    got = allowable_for_corner(0.5, 0.5, math.pi / 4, tol=1e-3)
    want = is_allowable_sector(-0.5j, math.pi / 2, tol=1e-3)
    assert got == want


def test_corner_rejects_bad_opening():
    with pytest.raises(ValueError):
        allowable_for_corner(0.1, 2.0, 0.0)
    with pytest.raises(ValueError):
        allowable_for_corner(0.1, 0.0, 0.0)


# --- composition formula --------------------------------------------------

def test_compose_dilatation_values():
    assert compose_dilatation(0.3 + 0.1j, 0.3 + 0.1j, 1.234) == 0.0
    assert compose_dilatation(0.5, 0.0, 0.0) == pytest.approx(0.5)
    assert compose_dilatation(0.5, 0.2, 0.0) == pytest.approx(1.0 / 3.0)


def test_compose_dilatation_stays_in_disk():
    rng = np.random.default_rng(10)
    m1 = 0.9 * np.sqrt(rng.uniform(size=3000)) * np.exp(2j * math.pi * rng.uniform(size=3000))
    m2 = 0.9 * np.sqrt(rng.uniform(size=3000)) * np.exp(2j * math.pi * rng.uniform(size=3000))
    arg = rng.uniform(0, 2 * math.pi, 3000)
    out = compose_dilatation(m1, m2, arg)
    assert np.abs(out).max() < 1.0
    with pytest.raises(ValueError):
        compose_dilatation(0.5, 1.0, 0.0)
