"""Tests for the spectral transforms and the principal-solution grid solver.

The closed-form disk solution is the main oracle: the solver output is
compared pointwise against it, its tail coefficient against the known
far-field, and the finite-difference dilatation of the output against the
input field.
"""

import math
import struct
import warnings

import numpy as np
import pytest

from qcmap import solver
from qcmap.closed_maps import DiskMapSpec, compose_dilatation, eval_fc, \
    eval_fc_inverse, fangle_map, fc_map, sector_invariants
from qcmap.field import Composite, DiskConstant, HolderGrid, SectorConstant
from qcmap.solver import (ConvergenceError, GridMap, SolverConfig,
                          SupportError, cauchy_transform, eval_gridmap,
                          finite_difference_mu, grid_coordinates,
                          singular_transform, solve_principal)


def _reference_cell_kernel(U, hx, hy):
    """Per-cell four-corner closed form of the hx-by-hy cell kernel."""
    def G(s):
        return s * (np.log(s) - 1.0)

    base = 1j * (G(U + hx / 2 - 1j * hy / 2) - G(U - hx / 2 - 1j * hy / 2)
                 - G(U + hx / 2 + 1j * hy / 2) + G(U - hx / 2 + 1j * hy / 2))
    inrow = np.abs(U.imag) < hy / 2
    corr = -2.0 * math.pi * (hx / 2 - np.clip(U.real, -hx / 2, hx / 2))
    return (base + np.where(inrow, corr, 0.0)) / math.pi


def _reference_cauchy(g, spacing):
    """Cauchy transform with the kernel built per cell at the given spacing."""
    ny, nx = g.shape
    dx, dy = spacing
    ox = (np.fft.fftfreq(2 * nx) * 2 * nx) * dx
    oy = (np.fft.fftfreq(2 * ny) * 2 * ny) * dy
    OX, OY = np.meshgrid(ox, oy)
    K = _reference_cell_kernel(OX + 1j * OY, dx, dy)
    gp = np.zeros((2 * ny, 2 * nx), dtype=complex)
    gp[:ny, :nx] = g
    return np.fft.ifft2(np.fft.fft2(gp) * np.fft.fft2(K))[:ny, :nx]


def _bump_grid(n=256, L=4.0, center=0.0, sigma=0.5):
    _, _, Z = grid_coordinates((-L, -L, L, L), (n, n))
    g = np.exp(-np.abs(Z - center) ** 2 / sigma**2).astype(complex)
    h = 2 * L / n
    return Z, g, h


def _solver_like_density(n):
    """An off-center disk plateau plus a smooth bump, inside the inner box.

    White noise would cancel in the Cauchy convolution and leave only the
    round-off of the four-corner sums, which the kernels under test share.
    """
    Z, bump, h = _bump_grid(n=n, center=-1.0 + 0.5j)
    return (0.5 + 0.3j) * (np.abs(Z - 0.3 - 0.2j) <= 1.0) + bump, h


def test_singular_transform_zero():
    out = singular_transform(np.zeros((64, 64), dtype=complex))
    assert np.abs(out).max() == 0.0


def test_singular_transform_parseval():
    # the multiplier is unimodular away from the killed zero frequency, so
    # mean-free inputs keep their grid l2 norm
    n, L = 256, 4.0
    _, _, Z = grid_coordinates((-L, -L, L, L), (n, n))
    h = 2 * L / n
    g = (np.exp(-np.abs(Z - 0.5) ** 2 / 0.25)
         - np.exp(-np.abs(Z + 0.5) ** 2 / 0.25)).astype(complex)
    assert abs(g.sum()) < 1e-12
    out = singular_transform(g, spacing=(h, h))
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(g), rel=1e-10)


def test_singular_transform_vs_cauchy_derivatives():
    # dbar(C g) = g and d(C g) = S g, checked by centered differences
    Z, g, h = _bump_grid(n=256)
    P = cauchy_transform(g, spacing=(h, h))
    dx = (P[1:-1, 2:] - P[1:-1, :-2]) / (2 * h)
    dy = (P[2:, 1:-1] - P[:-2, 1:-1]) / (2 * h)
    dzbar = 0.5 * (dx + 1j * dy)
    dz = 0.5 * (dx - 1j * dy)
    sg = singular_transform(g, spacing=(h, h))
    in_err = np.abs(dzbar - g[1:-1, 1:-1]).max()
    s_err = np.abs(dz - sg[1:-1, 1:-1]).max()
    assert in_err < 10 * h
    assert s_err < 10 * h


def test_singular_transform_beurling_oracle():
    # S applied to the disk indicator: 0 inside the disk, -1/z^2 outside;
    # ringing from the jump decays away from the circle
    n, L = 512, 4.0
    _, _, Z = grid_coordinates((-L, -L, L, L), (n, n))
    h = 2 * L / n
    g = (np.abs(Z) <= 1.0).astype(complex)
    out = singular_transform(g, spacing=(h, h))
    inner = np.abs(Z) < 0.7
    outer = (np.abs(Z) > 1.3) & (np.abs(Z) < 2.5)
    assert np.abs(out[inner]).max() < 3e-2
    assert np.abs(out[outer] + 1.0 / Z[outer] ** 2).max() < 3e-2


def test_singular_transform_warns_near_boundary():
    g = np.zeros((128, 128), dtype=complex)
    g[2:10, 2:10] = 1.0
    with pytest.warns(RuntimeWarning):
        singular_transform(g)


def test_cauchy_transform_disk_oracle():
    # Cauchy transform of the unit-disk indicator: conj(z) inside, 1/z outside
    n, L = 256, 4.0
    _, _, Z = grid_coordinates((-L, -L, L, L), (n, n))
    h = 2 * L / n
    g = (np.abs(Z) <= 1.0).astype(complex)
    P = cauchy_transform(g, spacing=(h, h))
    inner = np.abs(Z) < 0.9
    outer = np.abs(Z) > 1.1
    assert np.abs(P[inner] - np.conj(Z[inner])).max() < 3e-2
    assert np.abs(P[outer] - 1.0 / Z[outer]).max() < 3e-2


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("aspect", [1.0, 2.0])
def test_cauchy_transform_matches_per_cell_kernel(n, aspect):
    g, h = _solver_like_density(n)
    ref = _reference_cauchy(g, (h, aspect * h))
    out = cauchy_transform(g, spacing=(h, aspect * h))
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_transform_caches_match_fresh_calls():
    cases = [((n, n), (h, a * h)) for n in (64, 128) for h in (0.05, 0.125)
             for a in (1.0, 2.0)]
    grids = {shape: _solver_like_density(shape[0])[0] for shape, _ in cases}

    def transforms(shape, spacing):
        g = grids[shape]
        window = g[shape[0] // 4:shape[0] // 2 + 3, shape[1] // 4:]
        return (singular_transform(g, spacing=spacing),
                singular_transform(window, spacing=spacing, period=shape),
                cauchy_transform(g, spacing=spacing))

    fresh = []
    for shape, spacing in cases:
        solver._s_multiplier.cache_clear()
        solver._kernel_hat.cache_clear()
        fresh.append(transforms(shape, spacing))
    for _ in range(2):
        for (shape, spacing), refs in zip(cases, fresh):
            for out, ref in zip(transforms(shape, spacing), refs):
                assert np.array_equal(out, ref)


def test_transform_caches_are_read_only():
    solver._s_multiplier.cache_clear()
    solver._kernel_hat.cache_clear()
    mult = solver._s_multiplier(64, 64, 1.0, 64, 64)
    folded = solver._s_multiplier(64, 64, 1.0, 36, 36)
    khat = solver._kernel_hat(128, 128, 1.0)
    for arr in (mult, folded, khat):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


@pytest.mark.parametrize("period, shape, spacing", [
    ((64, 64), (1, 1), (1.0, 1.0)),
    ((64, 64), (17, 23), (1.0, 1.0)),
    ((64, 128), (9, 40), (0.1, 0.1)),
    ((64, 64), (40, 40), (1.0, 1.0)),
    ((64, 64), (40, 9), (1.0, 1.0)),
    ((64, 96), (20, 31), (0.1, 0.25)),
])
def test_windowed_transform_equals_torus_transform(period, shape, spacing):
    # a window wider than half its period keeps the plain multiplier on
    # that axis; the folded kernel must reproduce the torus operator exactly
    rng = np.random.default_rng(sum(shape))
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    oy, ox = ((p - b) // 2 for p, b in zip(period, shape))
    padded = np.zeros(period, dtype=complex)
    padded[oy:oy + shape[0], ox:ox + shape[1]] = w
    ref = singular_transform(padded, spacing=spacing)[oy:oy + shape[0],
                                                      ox:ox + shape[1]]
    out = singular_transform(w, spacing=spacing, period=period)
    assert out.shape == shape
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_windowed_transform_rejects_window_beyond_period():
    with pytest.raises(ValueError):
        singular_transform(np.ones((8, 65)), period=(64, 64))


@pytest.mark.parametrize("pad_factor", [4.0, 2.0])
def test_solve_matches_full_grid_neumann_loop(pad_factor):
    # at pad_factor 2 the support window is wider than half the grid, so the
    # sweeps take the plain-multiplier path
    mu = DiskConstant(c=0.6 - 0.3j, center=0.3 + 0.1j, radius=0.8)
    cfg = SolverConfig(grid_n=64, tol=1e-10, pad_factor=pad_factor)
    with warnings.catch_warnings():
        # the support sits inside the box, so no sweep warns
        warnings.simplefilter("error", RuntimeWarning)
        gm = solve_principal(mu, cfg)
    n = (cfg.grid_n, cfg.grid_n)
    _, _, Z = grid_coordinates(gm.bbox, n)
    h = (gm.bbox[2] - gm.bbox[0]) / cfg.grid_n
    m = solver._sample_mu(mu, gm.bbox, n)
    cur = m.copy()
    for it in range(1, cfg.max_iter + 1):
        nxt = m * singular_transform(cur, spacing=(h, h)) + m
        res = np.abs(nxt - cur).max()
        cur = nxt
        if res <= cfg.tol:
            break
    assert gm.iterations == it
    assert gm.final_residual == pytest.approx(res, rel=1e-12)
    assert np.abs(gm.values - (Z + _reference_cauchy(cur, (h, h)))).max() <= 1e-12
    assert abs(gm.tail - cur.sum() * h * h / math.pi) <= 1e-12


def test_solve_reports_phases_and_rate():
    gm = solve_principal(DiskConstant(c=0.5), SolverConfig(grid_n=64))
    assert set(gm.timings_ms) == {"sample", "iterate", "cauchy"}
    assert all(v >= 0 for v in gm.timings_ms.values())
    hist = np.array(gm.residual_history)
    ratios = hist[1:] / hist[:-1]
    assert gm.observed_rate == pytest.approx(np.exp(np.log(ratios).mean()))
    assert gm.sup_mu == pytest.approx(0.5)
    zero = solve_principal(DiskConstant(c=0.0), SolverConfig(grid_n=64))
    assert zero.observed_rate is None
    assert zero.sup_mu == 0.0


def test_solve_high_dilatation_at_default_max_iter():
    # |c| = 0.95 needs 231 sweeps at n=256
    gm = solve_principal(DiskConstant(c=0.95), SolverConfig(grid_n=256))
    assert gm.iterations > 200
    assert gm.final_residual <= 1e-8


def test_solve_zero_field_identity():
    gm = solve_principal(DiskConstant(c=0.0), SolverConfig(grid_n=64))
    _, _, Z = grid_coordinates(gm.bbox, gm.values.shape)
    assert gm.iterations == 1
    assert np.abs(gm.values - Z).max() < 1e-14
    assert gm.tail == 0


def test_solve_disk_constant_against_closed_form():
    c = 0.5
    gm = solve_principal(DiskConstant(c=c), SolverConfig(grid_n=256, tol=1e-9))
    _, _, Z = grid_coordinates(gm.bbox, gm.values.shape)
    sel = np.abs(Z) <= 2.0
    exact = eval_fc(DiskMapSpec(c), Z[sel])
    assert np.abs(gm.values[sel] - exact).max() < 2e-2
    assert abs(gm.tail - c) < 5e-3


def test_solve_neumann_geometric_decay():
    # sup-norm residuals contract geometrically at rate ~ sup|mu|; single
    # steps fluctuate from the jump-curve ringing, the running rate does not
    c = 0.5
    gm = solve_principal(DiskConstant(c=c), SolverConfig(grid_n=128, tol=1e-8))
    res = np.array(gm.residual_history)
    assert len(res) >= 8
    mean_rate = (res[-1] / res[0]) ** (1.0 / (len(res) - 1))
    assert mean_rate <= c + 0.05
    window = (res[4:] / res[:-4]) ** 0.25
    assert window.max() <= c + 0.15


def test_solve_nonconvergence_error():
    with pytest.raises(ConvergenceError) as ei:
        solve_principal(DiskConstant(c=0.99),
                        SolverConfig(grid_n=64, tol=1e-10, max_iter=10))
    assert ei.value.residual is not None
    assert ei.value.residual > 1e-10


def test_solve_rejects_unbounded_support():
    with pytest.raises(SupportError):
        solve_principal(SectorConstant(c=0.3, theta0=1.0),
                        SolverConfig(grid_n=64))


def _holder_grid(masked):
    xs = np.linspace(-0.7, 0.9, 17)
    ys = np.linspace(-0.2, 0.5, 8)
    X, Y = np.meshgrid(xs, ys)
    samples = 0.4 * np.exp(1j * (X + 2 * Y))
    mask = np.hypot(X - 0.1, Y - 0.15) <= 0.5 if masked else None
    return HolderGrid(samples=samples, bbox=(-0.7, -0.2, 0.9, 0.5),
                      epsilon=1.0, holder_c=1.0, mask=mask)


_WINDOW_FIELDS = [
    DiskConstant(c=0.7 - 0.2j, center=0.6 - 0.4j, radius=0.5),
    *(SectorConstant(c=0.8j, theta0=t, beta=b, radius=1.3)
      for t in (0.3, math.pi / 2, 5.0) for b in (0.0, 1.0, -2.5)),
    _holder_grid(masked=False),
    _holder_grid(masked=True),
    Composite((DiskConstant(c=0.5, center=-1.5 + 1.0j, radius=0.3),
               _holder_grid(masked=True))),
]


@pytest.mark.parametrize("pad_factor", [2.0, 2.5, 4.0])
@pytest.mark.parametrize("mu", _WINDOW_FIELDS)
def test_sampled_field_vanishes_outside_support_window(mu, pad_factor):
    # the solver samples only the support window: a field nonzero off it
    # would be cut off silently
    n = (64, 64)
    L = pad_factor * mu.support_radius()
    bbox = (-L, -L, L, L)
    window = solver._support_window(n[0], pad_factor)
    full = solver._sample_mu(mu, bbox, n)
    outside = np.ones(n, dtype=bool)
    outside[window] = False
    assert np.any(full)
    assert not np.any(full[outside])
    assert np.array_equal(solver._sample_mu(mu, bbox, n, window), full[window])


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grid_n=100)
    with pytest.raises(ValueError):
        SolverConfig(grid_n=32)
    with pytest.raises(ValueError):
        SolverConfig(pad_factor=1.0)


def test_eval_gridmap_identity_everywhere():
    n, L = 64, 2.0
    _, _, Z = grid_coordinates((-L, -L, L, L), (n, n))
    gm = GridMap(bbox=(-L, -L, L, L), values=Z, tail=0j)
    rng = np.random.default_rng(0)
    inside = rng.uniform(-L, L, 500) + 1j * rng.uniform(-L, L, 500)
    outside = rng.uniform(L, 3 * L, 200) * np.exp(2j * math.pi * rng.uniform(size=200))
    np.testing.assert_allclose(eval_gridmap(gm, inside), inside, atol=1e-12)
    np.testing.assert_allclose(eval_gridmap(gm, outside), outside, atol=1e-12)
    assert eval_gridmap(gm, 0.25 + 0.125j) == pytest.approx(0.25 + 0.125j)


def test_eval_gridmap_tail_and_boundary_continuity():
    # the interpolated interior values and the identity-plus-tail off-grid
    # rule describe the same map where they meet at the box edge
    c = 0.5
    gm = solve_principal(DiskConstant(c=c), SolverConfig(grid_n=256, tol=1e-9))
    L = gm.bbox[2]
    th = np.linspace(0, 2 * math.pi, 721)
    edge = 1.0 / np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))
    z = 0.9995 * L * edge * np.exp(1j * th)
    interp = eval_gridmap(gm, z)
    tail_formula = z + gm.tail / z
    assert np.abs(interp - tail_formula).max() < 1e-3


def test_gridmap_save_load_round_trip(tmp_path):
    gm = solve_principal(DiskConstant(c=0.3 + 0.2j), SolverConfig(grid_n=64))
    p = tmp_path / "map.qcmap"
    gm.save(p)
    back = GridMap.load(p)
    assert np.array_equal(back.values, gm.values)
    assert back.bbox == gm.bbox
    assert back.tail == gm.tail


def test_gridmap_load_bad_magic(tmp_path):
    p = tmp_path / "map.qcmap"
    p.write_bytes(b"BADMAGIC" + b"\x00" * 100)
    with pytest.raises(ValueError):
        GridMap.load(p)


@pytest.mark.parametrize("bbox", [(math.nan, -1, 1, 1), (-1, -1, math.inf, 1),
                                  (1, -1, -1, 1), (-1, 1, 1, 1), (-1, -1, 1)])
def test_gridmap_rejects_bad_bbox(bbox):
    with pytest.raises(ValueError):
        GridMap(bbox=bbox, values=np.zeros((4, 4), dtype=complex))


@pytest.mark.parametrize("shape", [(1, 1), (1, 8), (8, 1)])
def test_gridmap_rejects_grids_below_two_by_two(shape):
    with pytest.raises(ValueError):
        GridMap(bbox=(-1, -1, 1, 1), values=np.zeros(shape, dtype=complex))


def _qcmap_bytes(nx, ny, payload=b""):
    return (solver.SOLVER_MAGIC + struct.pack("<II", nx, ny)
            + struct.pack("<4d", -1, -1, 1, 1) + struct.pack("<2d", 0, 0)
            + payload)


def test_gridmap_load_rejects_zero_dims(tmp_path):
    p = tmp_path / "map.qcmap"
    p.write_bytes(_qcmap_bytes(0, 0))
    with pytest.raises(ValueError, match="zero"):
        GridMap.load(p)


def test_gridmap_load_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "map.qcmap"
    p.write_bytes(_qcmap_bytes(2, 2, bytes(16 * 4 + 16)))
    with pytest.raises(ValueError, match="trailing"):
        GridMap.load(p)


def test_gridmap_load_rejects_truncated_header(tmp_path):
    p = tmp_path / "map.qcmap"
    p.write_bytes(_qcmap_bytes(2, 2)[:30])
    with pytest.raises(ValueError):
        GridMap.load(p)


def test_gridmap_injective_on_samples():
    gm = solve_principal(DiskConstant(c=0.5), SolverConfig(grid_n=128))
    rng = np.random.default_rng(1)
    flat = gm.values.ravel()
    i = rng.integers(0, flat.size, 4000)
    j = rng.integers(0, flat.size, 4000)
    keep = i != j
    assert np.abs(flat[i[keep]] - flat[j[keep]]).min() > 1e-9


def test_finite_difference_mu_identity():
    n, L = 64, 2.0
    _, _, Z = grid_coordinates((-L, -L, L, L), (n, n))
    gm = GridMap(bbox=(-L, -L, L, L), values=Z)
    mu = finite_difference_mu(gm)
    inner = mu[1:-1, 1:-1]
    assert np.abs(inner).max() < 1e-12
    assert np.isnan(mu[0, :]).all()


def test_finite_difference_mu_fc_sampled():
    c = 0.3
    n, L = 256, 4.0
    _, _, Z = grid_coordinates((-L, -L, L, L), (n, n))
    h = 2 * L / n
    gm = GridMap(bbox=(-L, -L, L, L), values=eval_fc(DiskMapSpec(c), Z), tail=c)
    mu = finite_difference_mu(gm)
    dist = np.abs(np.abs(Z) - 1.0)
    inner = (np.abs(Z) < 1.0) & (dist > 4 * h)
    outer = (np.abs(Z) > 1.0) & (dist > 4 * h) & (np.abs(Z) < 3.0)
    assert np.abs(mu[inner] - c).max() < 1e-9
    assert np.abs(mu[outer]).max() < 1e-3


def test_finite_difference_mu_solver_output():
    c = 0.4
    gm = solve_principal(DiskConstant(c=c), SolverConfig(grid_n=256, tol=1e-9))
    _, _, Z = grid_coordinates(gm.bbox, gm.values.shape)
    h = (gm.bbox[2] - gm.bbox[0]) / gm.values.shape[1]
    mu = finite_difference_mu(gm)
    dist = np.abs(np.abs(Z) - 1.0)
    inner = (np.abs(Z) < 1.0) & (dist > 4 * h)
    outer = (np.abs(Z) > 1.0) & (dist > 4 * h) & (np.abs(Z) < 3.0)
    assert np.nanmax(np.abs(mu[inner] - c)) < 5e-2
    assert np.nanmax(np.abs(mu[outer])) < 5e-2


def test_finite_difference_mu_fangle_sampled():
    c, th0 = 0.4, math.pi / 2
    spec = sector_invariants(c, th0)
    f = fangle_map(c, th0)
    n, L = 256, 2.0
    _, _, Z = grid_coordinates((-L, -L, L, L), (n, n))
    h = 2 * L / n
    gm = GridMap(bbox=(-L, -L, L, L), values=np.asarray(f(Z)))
    mu = finite_difference_mu(gm)
    ang = np.angle(Z) % (2 * math.pi)
    rad = np.abs(Z)
    margin = 0.12
    inside = ((ang > margin) & (ang < th0 - margin)
              & (rad > 0.3) & (rad < 1.8))
    outside = ((ang > th0 + margin) & (ang < 2 * math.pi - margin)
               & (rad > 0.3) & (rad < 1.8))
    assert np.nanmax(np.abs(mu[inside] - c)) < 5e-2
    assert np.nanmax(np.abs(mu[outside])) < 5e-2


def test_composition_consistency_with_solver():
    # dilatation of solve(mu1) composed with the inverse disk map matches the
    # pointwise composition formula away from the jump circle
    c1, c2 = 0.3, 0.1
    gm = solve_principal(DiskConstant(c=c1), SolverConfig(grid_n=256, tol=1e-9))
    spec2 = DiskMapSpec(c2)

    def g(w):
        return eval_gridmap(gm, eval_fc_inverse(spec2, w))

    rng = np.random.default_rng(2)
    r = np.concatenate([rng.uniform(0.2, 0.85, 150), rng.uniform(1.15, 1.8, 150)])
    z = r * np.exp(2j * math.pi * rng.uniform(size=300))
    zeta = eval_fc(spec2, z)

    h = (gm.bbox[2] - gm.bbox[0]) / gm.values.shape[1]
    step = 2 * h
    dx = (g(zeta + step) - g(zeta - step)) / (2 * step)
    dy = (g(zeta + 1j * step) - g(zeta - 1j * step)) / (2 * step)
    mu_fd = (0.5 * (dx + 1j * dy)) / (0.5 * (dx - 1j * dy))

    inside = np.abs(z) <= 1.0
    mu1 = np.where(inside, c1, 0.0)
    mu2 = np.where(inside, c2, 0.0)
    darg = np.where(inside, 0.0, np.angle(1 - c2 / z**2))
    expect = compose_dilatation(mu1, mu2, darg)
    assert np.abs(mu_fd - expect).max() < 5e-2


def test_unit_circle_image_is_ellipse():
    c = 0.5
    gm = solve_principal(DiskConstant(c=c), SolverConfig(grid_n=256, tol=1e-9))
    th = np.linspace(0, 2 * math.pi, 1024, endpoint=False)
    img = eval_gridmap(gm, np.exp(1j * th))
    ell = np.exp(1j * th) + c * np.exp(-1j * th)
    # Hausdorff distance between the sampled curves
    d = np.abs(img[:, None] - ell[None, :])
    hausdorff = max(d.min(axis=0).max(), d.min(axis=1).max())
    assert hausdorff < 2e-2


def test_solver_gap_outside_support():
    # annuli fully outside the support see a conformal map; the certified gap
    # collapses up to interpolation noise
    from qcmap.modulus import AnnulusSpec, bounding_annuli, modulus

    gm = solve_principal(DiskConstant(c=0.5), SolverConfig(grid_n=512, tol=1e-9))
    a = AnnulusSpec(0, 1.6, 3.2)
    ba = bounding_annuli(gm, a)
    gap = max(abs(math.log(ba.R2 / ba.rho1) - modulus(a)),
              abs(math.log(ba.rho2 / ba.R1) - modulus(a)))
    exact_ba = bounding_annuli(fc_map(0.5), a)
    exact_gap = max(abs(math.log(exact_ba.R2 / exact_ba.rho1) - modulus(a)),
                    abs(math.log(exact_ba.rho2 / exact_ba.R1) - modulus(a)))
    assert abs(gap - exact_gap) < 5e-3
