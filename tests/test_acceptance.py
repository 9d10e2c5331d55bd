"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is pinned here; the tests fail loudly if any drifts.
"""

import math
import time

import numpy as np
import pytest

from qcmap.closed_maps import (DiskMapSpec, compose_dilatation, eval_fangle,
                               eval_fc, eval_fc_inverse, fangle_map, fc_map,
                               identity_map, is_allowable_sector,
                               sector_invariants)
from qcmap.extension import CircleHomeo, extend_F, mu_F
from qcmap.field import DiskConstant
from qcmap.lehto import lehto_integral
from qcmap.modulus import (AnnulusSpec, NotSeparatedError, bounding_annuli,
                           certify_bilipschitz, default_eta, modulus,
                           modulus_gap_bounds)
from qcmap.solver import SolverConfig, grid_coordinates, solve_principal


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_solver_matches_disk_oracle():
    t0 = time.perf_counter()
    errs = {}
    for n in (512, 1024):
        gm = solve_principal(DiskConstant(c=0.5),
                             SolverConfig(grid_n=n, pad_factor=4.0, tol=1e-9))
        _, _, Z = grid_coordinates(gm.bbox, gm.values.shape)
        sel = np.abs(Z) <= 2.0
        exact = eval_fc(DiskMapSpec(0.5), Z[sel])
        errs[n] = float(np.abs(gm.values[sel] - exact).max())
    elapsed = time.perf_counter() - t0
    ok = (errs[512] < 2e-2 and errs[1024] <= 0.6 * errs[512] and elapsed < 120.0)
    _report(1, ok, f"err512={errs[512]:.3e}, err1024={errs[1024]:.3e}, "
                   f"ratio={errs[1024] / errs[512]:.3f}, {elapsed:.1f}s")


def test_criterion_2_half_plane_and_zero_dilatation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        c = 0.999 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        worst = max(worst, abs(sector_invariants(c, math.pi).lam - 1.0))
    for _ in range(100):
        th0 = rng.uniform(1e-3, 2 * math.pi - 1e-3)
        worst = max(worst, abs(sector_invariants(0.0, th0).lam - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(2, ok, f"max|lambda-1|={worst:.2e}, {elapsed * 1000:.0f}ms")


def test_criterion_3_spiral_scaling_law():
    spec = sector_invariants(0.5, math.pi / 2)
    rs = np.exp(np.linspace(math.log(1e-4), 0.0, 60))
    worst_slope = 0.0
    min_variation = math.inf
    for th in (np.arange(8) + 0.5) * (2 * math.pi / 8):
        vals = np.abs(eval_fangle(spec, rs * np.exp(1j * th)))
        slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
        worst_slope = max(worst_slope, abs(slope - spec.lam.real))
        ratio = vals / rs
        min_variation = min(min_variation, ratio.max() / ratio.min())

    # an allowable c at the right angle, |c| = 0.5116
    c_allow = 0.5060750906886151 + 0.07506914834585444j
    assert is_allowable_sector(c_allow, math.pi / 2, tol=1e-12)
    spec_a = sector_invariants(c_allow, math.pi / 2)
    th = np.linspace(0, 2 * math.pi, 64, endpoint=False)

    def band(r_lo):
        r = np.exp(np.linspace(math.log(r_lo), 0.0, 40))
        z = r[:, None] * np.exp(1j * th[None, :])
        ratio = np.abs(eval_fangle(spec_a, z)) / np.abs(z)
        return max(ratio.max(), 1.0 / ratio.min())

    L1, L2 = band(1e-4), band(1e-6)
    stable = abs(L2 - L1) / L1 < 0.01
    ok = worst_slope < 1e-3 and min_variation > 1.2 and stable
    _report(3, ok, f"slope err={worst_slope:.2e}, variation={min_variation:.3f}, "
                   f"band {L1:.4f}->{L2:.4f}")


def test_criterion_4_certify_fc_positive():
    t0 = time.perf_counter()
    xs = np.linspace(-1.4, 1.4, 3)
    X, Y = np.meshgrid(xs, xs)
    centers = (X + 1j * Y).ravel()
    bound = 2 * math.log(3.0) + 0.1
    rep = certify_bilipschitz(fc_map(0.5), centers, bound=bound,
                              annuli_per_center=20)
    elapsed = time.perf_counter() - t0
    ok = (rep.verdict and rep.sup_gap <= bound
          and rep.lipschitz_min >= 0.5 - 0.01
          and rep.lipschitz_max <= 1.5 + 0.01
          and elapsed < 30.0)
    _report(4, ok, f"sup_gap={rep.sup_gap:.4f} (bound {bound:.4f}), "
                   f"lip=[{rep.lipschitz_min:.3f},{rep.lipschitz_max:.3f}], "
                   f"{elapsed:.1f}s")


def test_criterion_5_certify_fangle_negative():
    spec = sector_invariants(0.5, math.pi / 2)
    target = abs(spec.lam.real - 1.0)  # ~0.0297
    rep = certify_bilipschitz(fangle_map(0.5, math.pi / 2),
                              [0.0, 0.4 + 0.3j], bound=0.2,
                              annuli_per_center=26,
                              r_min=math.exp(-13.0), r_max=1.0)
    recs = [g for g in rep.gaps if g.center == 0 and 4.0 <= g.modulus <= 12.0]
    ms = np.array([g.modulus for g in recs])
    gaps = np.array([g.gap for g in recs])
    slope = np.polyfit(ms, gaps, 1)[0]
    ok = (not rep.verdict and len(recs) >= 10
          and abs(slope - target) <= 0.2 * target)
    _report(5, ok, f"gap slope={slope:.5f} vs |Re lambda - 1|={target:.5f}, "
                   f"{len(recs)} annuli, verdict={'fail' if not rep.verdict else 'pass'}")


def test_criterion_6_lehto_quadrature():
    mu = DiskConstant(c=0.5, radius=20.0)
    est = lehto_integral(mu, AnnulusSpec(0, 0.1, 10.0), tol=1e-4)
    closed = math.pi * math.log(100.0)
    const_ok = est.converged and abs(est.value - closed) <= 1e-4

    def holder_mu(z):
        return 0.3 * np.sqrt(np.abs(z))

    vals = []
    for n in range(1, 24):
        e = lehto_integral(holder_mu, AnnulusSpec(0, 2.0 ** -n, 1.0), tol=1e-5)
        vals.append(e.value)
    vals = np.array(vals)
    diffs = np.abs(np.diff(vals))
    bound = 2 * math.pi * 0.3 * 2.0  # the n -> inf limit of the sequence
    holder_ok = (vals.max() <= bound + 1e-3
                 and diffs[-1] < 1e-3 and diffs[-2] < 1e-3)
    ok = const_ok and holder_ok
    _report(6, ok, f"const err={abs(est.value - closed):.2e}, "
                   f"tail diffs=({diffs[-2]:.2e},{diffs[-1]:.2e}), "
                   f"sup={vals.max():.4f} (limit {bound:.4f})")


def test_criterion_7_extension_formula():
    h = CircleHomeo.from_fourier(a=[0.1])
    rng = np.random.default_rng(77)
    r = np.sqrt(rng.uniform(0.01, 0.9, 100))
    z = r * np.exp(2j * math.pi * rng.uniform(size=100))
    mesh = 1e-4
    fe = extend_F(h, z + mesh)
    fw = extend_F(h, z - mesh)
    fn = extend_F(h, z + 1j * mesh)
    fs = extend_F(h, z - 1j * mesh)
    dx = (fe - fw) / (2 * mesh)
    dy = (fn - fs) / (2 * mesh)
    fd = (0.5 * (dx + 1j * dy)) / (0.5 * (dx - 1j * dy))
    fd_err = float(np.abs(fd - mu_F(h, z)).max())

    zz = np.sqrt(rng.uniform(size=2000)) * np.exp(2j * math.pi * rng.uniform(size=2000))
    mod_err = float(np.abs(np.abs(extend_F(h, zz)) - np.abs(zz)).max())

    th = np.linspace(0, 2 * math.pi, 128, endpoint=False)
    rs = np.exp(np.linspace(math.log(1e-3), math.log(0.1), 12))
    sup = np.array([np.abs(mu_F(h, rr * np.exp(1j * th))).max() for rr in rs])
    exponent = np.polyfit(np.log(rs), np.log(sup), 1)[0]

    ok = fd_err < 1e-3 and mod_err <= 1e-15 and exponent >= 0.99
    _report(7, ok, f"fd err={fd_err:.2e}, |F|-|z| err={mod_err:.2e}, "
                   f"vanishing exponent={exponent:.4f}")


def test_criterion_8_composition_formula():
    c1, c2 = 0.5, 0.2
    spec1, spec2 = DiskMapSpec(c1), DiskMapSpec(c2)

    def g(w):
        return eval_fc(spec1, eval_fc_inverse(spec2, w))

    rng = np.random.default_rng(88)
    zeta = 0.9 * np.sqrt(rng.uniform(size=3000)) * np.exp(2j * math.pi * rng.uniform(size=3000))
    z = eval_fc_inverse(spec2, zeta)
    # drop a thin band around the pullback of the unit circle, where centered
    # differences straddle the dilatation jump and cannot converge
    keep = np.abs(np.abs(z) - 1.0) > 5e-3
    zeta, z = zeta[keep], z[keep]

    mesh = 1e-4
    dx = (g(zeta + mesh) - g(zeta - mesh)) / (2 * mesh)
    dy = (g(zeta + 1j * mesh) - g(zeta - 1j * mesh)) / (2 * mesh)
    fd = (0.5 * (dx + 1j * dy)) / (0.5 * (dx - 1j * dy))

    inside = np.abs(z) <= 1.0
    mu1 = np.where(inside, c1, 0.0)
    mu2 = np.where(inside, c2, 0.0)
    darg = np.where(inside, 0.0, np.angle(1.0 - c2 / np.where(inside, 1.0, z) ** 2))
    expect = compose_dilatation(mu1, mu2, darg)
    err = float(np.abs(fd - expect).max())
    ok = err < 5e-3 and zeta.size >= 2500
    _report(8, ok, f"max err={err:.2e} over {zeta.size} points in 0.9*disk")


def test_criterion_9_sandwich_validity():
    rng = np.random.default_rng(99)
    c = 0.5
    maps = [("fc", fc_map(c)), ("identity", identity_map),
            ("fangle", fangle_map(0.3, 1.0))]
    qs = default_eta(3.0)
    tested = 0
    fc_tested = 0
    min_width = math.inf
    max_fc_width = -math.inf
    for k in range(200):
        name, f = maps[k % 3]
        center = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        r1 = 10 ** rng.uniform(-2, 0.3)
        r2 = r1 * math.exp(rng.uniform(1.5, 5.0))
        a = AnnulusSpec(center, r1, r2)
        ba = bounding_annuli(f, a)
        if not ba.separated:
            continue
        lower, upper, width = modulus_gap_bounds(ba, qs, a)
        tested += 1
        min_width = min(min_width, width)
        if name == "fc":
            fc_tested += 1
            max_fc_width = max(max_fc_width, width)
    fc_bound = 2 * math.log((1 + c) / (1 - c))
    ok = (tested >= 150 and min_width >= -1e-12
          and max_fc_width <= fc_bound + 1e-9)
    _report(9, ok, f"{tested}/200 separated, min width={min_width:.2e}, "
                   f"max fc width={max_fc_width:.4f} <= {fc_bound:.4f}")
