"""Tests for the spectral transforms and the principal-solution grid solver.

The closed-form disk solution is the main oracle: the solver output is
compared pointwise against it, its tail coefficient against the known
far-field, and the finite-difference dilatation of the output against the
input field.
"""

import math
import struct
import time
import tracemalloc
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

from test_package import _fresh_python


def _reference_cell_kernel(U, hx, hy):
    """Per-cell four-corner closed form of the hx-by-hy cell kernel."""
    def G(s):
        return s * (np.log(s) - 1.0)

    base = 1j * (G(U + hx / 2 - 1j * hy / 2) - G(U - hx / 2 - 1j * hy / 2)
                 - G(U + hx / 2 + 1j * hy / 2) + G(U - hx / 2 + 1j * hy / 2))
    inrow = np.abs(U.imag) < hy / 2
    corr = -2.0 * math.pi * (hx / 2 - np.clip(U.real, -hx / 2, hx / 2))
    return (base + np.where(inrow, corr, 0.0)) / math.pi


def _reference_cauchy(g, h):
    """Cauchy transform with the kernel built per cell of side h."""
    ny, nx = g.shape
    ox = (np.fft.fftfreq(2 * nx) * 2 * nx) * h
    oy = (np.fft.fftfreq(2 * ny) * 2 * ny) * h
    OX, OY = np.meshgrid(ox, oy)
    K = _reference_cell_kernel(OX + 1j * OY, h, h)
    gp = np.zeros((2 * ny, 2 * nx), dtype=complex)
    gp[:ny, :nx] = g
    return np.fft.ifft2(np.fft.fft2(gp) * np.fft.fft2(K))[:ny, :nx]


def _bump_grid(n=256, L=4.0, center=0.0, sigma=0.5):
    _, _, Z = grid_coordinates((-L, -L, L, L), (n, n))
    g = np.exp(-np.abs(Z - center) ** 2 / sigma**2).astype(complex)
    h = 2 * L / n
    return Z, g, h


def _clear_kernel_caches():
    solver._cauchy_hat.cache_clear()
    solver._s_hat.cache_clear()
    solver._S_TORUS.clear()


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
    g = (np.exp(-np.abs(Z - 0.5) ** 2 / 0.25)
         - np.exp(-np.abs(Z + 0.5) ** 2 / 0.25)).astype(complex)
    assert abs(g.sum()) < 1e-12
    out = singular_transform(g)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(g), rel=1e-10)


def test_singular_transform_vs_cauchy_derivatives():
    # dbar(C g) = g and d(C g) = S g, checked by centered differences
    Z, g, h = _bump_grid(n=256)
    P = cauchy_transform(g, h)
    dx = (P[1:-1, 2:] - P[1:-1, :-2]) / (2 * h)
    dy = (P[2:, 1:-1] - P[:-2, 1:-1]) / (2 * h)
    dzbar = 0.5 * (dx + 1j * dy)
    dz = 0.5 * (dx - 1j * dy)
    sg = singular_transform(g)
    in_err = np.abs(dzbar - g[1:-1, 1:-1]).max()
    s_err = np.abs(dz - sg[1:-1, 1:-1]).max()
    assert in_err < 10 * h
    assert s_err < 10 * h


def test_singular_transform_beurling_oracle():
    # S applied to the disk indicator: 0 inside the disk, -1/z^2 outside;
    # ringing from the jump decays away from the circle
    n, L = 512, 4.0
    _, _, Z = grid_coordinates((-L, -L, L, L), (n, n))
    g = (np.abs(Z) <= 1.0).astype(complex)
    out = singular_transform(g)
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
    P = cauchy_transform(g, h)
    inner = np.abs(Z) < 0.9
    outer = np.abs(Z) > 1.1
    assert np.abs(P[inner] - np.conj(Z[inner])).max() < 3e-2
    assert np.abs(P[outer] - 1.0 / Z[outer]).max() < 3e-2


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("h", [1.0, 0.1])
def test_cauchy_transform_matches_per_cell_kernel(n, h):
    g, _ = _solver_like_density(n)
    ref = _reference_cauchy(g, h)
    out = cauchy_transform(g, h)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("my, mx", [(640, 640), (27, 27), (26, 30)])
def test_cauchy_kernel_matches_complex_log_closed_form(my, mx):
    # the kernel takes log s in real arithmetic; the reference takes the
    # complex log of each cell's four corners
    kx = np.arange(-(mx // 2), mx - mx // 2)
    ky = np.arange(-(my // 2), my - my // 2)
    ref = _reference_cell_kernel(kx[None, :] + 1j * ky[:, None], 1.0, 1.0)
    K = solver._cauchy_kernel(my, mx)
    assert K.shape == (my, mx)
    assert np.abs(K - ref).max() <= 1e-12


def _full_lattice_cauchy_kernel(my, mx):
    """The unit-cell Cauchy kernel with the closed form taken at every
    corner of its (m + 1)^2 lattice: the reference for the quadrant and
    the mirror images of _cauchy_kernel."""
    ny, nx = my // 2, mx // 2
    a = np.arange(mx + 1) - (nx + 0.5)
    b = (np.arange(my + 1) - (ny + 0.5))[:, None]
    log_r = np.log(np.square(a) + np.square(b))
    log_r *= 0.5
    log_r -= 1.0
    arg = np.arctan2(b, a)
    G = np.empty(log_r.shape, dtype=complex)
    G.real = a * log_r - b * arg
    G.imag = a * arg + b * log_r
    del log_r, arg
    K = G[:-1, 1:] - G[:-1, :-1]
    K -= G[1:, 1:]
    K += G[1:, :-1]
    del G
    K *= 1j
    kx = np.arange(-nx, mx - nx)
    K[ny] += -2.0 * math.pi * (0.5 - np.clip(kx, -0.5, 0.5))
    K /= math.pi
    return K


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


_KERNEL_SHAPES = [(27, 27), (26, 30), (320, 320), (640, 640)]


@pytest.mark.parametrize("my, mx", _KERNEL_SHAPES)
def test_cauchy_kernel_mirror_symmetry_is_exact(my, mx):
    # the cell is symmetric about both axes: off the real axis
    # K(conj u) = conj K(u), and off the imaginary axis
    # K(-conj u) = -conj K(u), bit for bit; on the axes, where the
    # principal-branch closed form is not exactly real or imaginary, and
    # under the quarter turn K(i u) = -i K(u), only to round-off
    K = solver._cauchy_kernel(my, mx)
    cy, cx = my // 2, mx // 2
    py, px = (my - 1) // 2, (mx - 1) // 2
    S = K[cy - py:cy + py + 1, cx - px:cx + px + 1]
    off_x = np.ones(S.shape[0], dtype=bool)
    off_x[py] = False
    off_y = np.ones(S.shape[1], dtype=bool)
    off_y[px] = False
    assert np.array_equal(_bits(S[::-1][off_x]), _bits(np.conj(S[off_x])))
    assert np.array_equal(_bits(S[:, ::-1][:, off_y]),
                          _bits(-np.conj(S[:, off_y])))
    assert np.array_equal(_bits(S[::-1, ::-1][off_x][:, off_y]),
                          _bits(-S[off_x][:, off_y]))
    assert np.abs(S[py].imag).max() <= 1e-16
    assert np.abs(S[:, px].real).max() <= 1e-12
    p = min(py, px)
    Q = K[cy:cy + p + 1, cx:cx + p + 1]
    assert np.abs(Q.T + 1j * np.conj(Q)).max() <= 1e-12


@pytest.mark.parametrize("my, mx", _KERNEL_SHAPES)
def test_cauchy_kernel_quadrant_is_the_full_lattice_formula(my, mx):
    # offsets k >= 0 per axis are computed, the rest mirrored; the
    # mirrored entries differ from the full-lattice formula by its own
    # cancellation error, which grows with the offset
    K = solver._cauchy_kernel(my, mx)
    ref = _full_lattice_cauchy_kernel(my, mx)
    cy, cx = my // 2, mx // 2
    assert np.array_equal(_bits(K[cy:, cx:]), _bits(ref[cy:, cx:]))
    assert np.abs(K - ref).max() <= 5e-13


def _kernel_regression_fields():
    from test_ellipse_oracle import EllipseConstant

    return {"disk": DiskConstant(c=0.6 - 0.3j),
            "sector": SectorConstant(c=0.6j, theta0=1.0, beta=0.3,
                                     radius=1.0),
            "ellipse": EllipseConstant(c=-0.759 + 0.561j, a=1.0, b=0.7,
                                       phi=1.0)}


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("name", ["disk", "sector", "ellipse"])
def test_solves_match_the_full_lattice_kernel(monkeypatch, name, n):
    # the kernel change moves no iteration count and the maps by round-off
    mu = _kernel_regression_fields()[name]
    cfg = SolverConfig(grid_n=n)
    _clear_kernel_caches()
    gm = solve_principal(mu, cfg)
    with monkeypatch.context() as m:
        m.setattr(solver, "_cauchy_kernel", _full_lattice_cauchy_kernel)
        _clear_kernel_caches()
        ref = solve_principal(mu, cfg)
    _clear_kernel_caches()
    assert gm.iterations == ref.iterations
    scale = np.abs(ref.values).max()
    assert np.abs(gm.values - ref.values).max() <= 1e-13 * scale
    assert abs(gm.tail - ref.tail) <= 1e-13 * scale


@pytest.mark.parametrize("n, pad_factor, h", [
    *((n, p, 1.0) for n in (64, 128) for p in (2.0, 2.5, 4.0)),
    (64, 4.0, 0.1),
])
def test_windowed_cauchy_transform_equals_full_grid(n, pad_factor, h):
    # the solver's Cauchy step: P on the whole grid from its support window
    g, _ = _solver_like_density(n)
    w = solver._support_window(n, pad_factor)
    embedded = np.zeros_like(g)
    embedded[w, w] = g[w, w]
    ref = cauchy_transform(embedded, h)
    out = cauchy_transform(g[w, w], h, border=w.start)
    assert out.shape == (n, n)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_windowed_cauchy_transform_on_odd_fft_grid():
    # 2 (10 + 3) = 26 cells per axis round up to the odd 5-smooth size 27
    assert solver._next_5_smooth(26) == 27
    _, _, Z = grid_coordinates((-1, -1, 1, 1), (10, 10))
    w = np.exp(-np.abs(Z - 0.2j) ** 2) * (1 + 0.5j * Z.real)
    embedded = np.zeros((16, 16), dtype=complex)
    embedded[3:13, 3:13] = w
    ref = cauchy_transform(embedded, 0.2)
    out = cauchy_transform(w, 0.2, border=3)
    assert out.shape == (16, 16)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_warm_solve_memory_peak():
    # a solve holds its support window, the Cauchy step's spectrum, its
    # inverse's second pass on the result's rows only and the n-by-n
    # result, but no n-by-n density, coordinate grid or 2n-by-2n padding
    for n, mib in ((256, 4), (512, 13)):
        mu, cfg = DiskConstant(c=0.5), SolverConfig(grid_n=n)
        solve_principal(mu, cfg)  # fills the kernel caches
        tracemalloc.start()
        try:
            solve_principal(mu, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20, n


def test_transform_caches_match_fresh_calls():
    cases = [((n, n), h) for n in (64, 128) for h in (0.05, 0.125)]
    grids = {shape: _solver_like_density(shape[0])[0] for shape, _ in cases}

    def transforms(shape, h):
        g = grids[shape]
        window = g[shape[0] // 4:shape[0] // 2 + 3, shape[1] // 4:]
        return (singular_transform(g),
                singular_transform(window, period=shape),
                cauchy_transform(g, h))

    fresh = []
    for shape, h in cases:
        _clear_kernel_caches()
        fresh.append(transforms(shape, h))
    for _ in range(2):
        for (shape, h), refs in zip(cases, fresh):
            for out, ref in zip(transforms(shape, h), refs):
                assert np.array_equal(out, ref)


def test_transform_caches_are_read_only():
    _clear_kernel_caches()
    torus = solver._s_hat(64, 64, (64, 64))
    folded = solver._s_hat(36, 36, (64, 64))
    khat, _ = solver._cauchy_hat(128, 128)
    shifted, _ = solver._cauchy_hat(90, 90, shift=23)
    for arr in (torus, folded, khat, shifted, solver._S_TORUS[(64, 64)]):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_solve_caches_one_kernel_per_transform(monkeypatch):
    # a solve builds one kernel FFT per transform and keeps the Cauchy
    # entry and one torus S kernel for its period; its box's S entry, used
    # by every sweep, goes with the solve
    _clear_kernel_caches()
    built = []
    placed = solver._placed_hat
    monkeypatch.setattr(solver, "_placed_hat",
                        lambda *a: built.append(a) or placed(*a))
    gm = solve_principal(DiskConstant(c=0.5),
                         SolverConfig(grid_n=64, pad_factor=4.0))
    assert gm.iterations > 2 and len(built) == 2
    assert solver._cauchy_hat.cache_info().currsize == 1
    assert solver._s_hat.cache_info().currsize == 0
    assert list(solver._S_TORUS) == [(64, 64)]


@pytest.mark.parametrize("period, shape", [
    ((64, 64), (1, 1)),
    ((64, 64), (17, 23)),
    ((64, 128), (9, 40)),
    ((64, 64), (40, 40)),
    ((64, 64), (40, 9)),
    ((64, 96), (20, 31)),
])
def test_windowed_transform_equals_torus_transform(period, shape):
    # a window wider than half its period is convolved on the period itself
    # along that axis; the kernel must reproduce the torus operator exactly
    rng = np.random.default_rng(sum(shape))
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    oy, ox = ((p - b) // 2 for p, b in zip(period, shape))
    padded = np.zeros(period, dtype=complex)
    padded[oy:oy + shape[0], ox:ox + shape[1]] = w
    ref = singular_transform(padded)[oy:oy + shape[0], ox:ox + shape[1]]
    out = singular_transform(w, period=period)
    assert out.shape == shape
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("period, shape, h", [
    ((64, 64), (17, 23), 1.0),
    ((64, 64), (40, 9), 1.0),
    ((64, 64), (40, 40), 0.1),
    ((64, 96), (20, 31), 0.1),
    ((256, 256), (66, 66), 1.0),
])
def test_pruned_inverse_ffts_equal_full_ifft2(period, shape, h):
    # each transform inverts only the lines it reads back; that must change
    # no bit of the unpruned inverse read back on the same lines. The
    # spectrum is in [x, y] layout, and the inverse runs along y on every
    # line, then along x
    rng = np.random.default_rng(sum(shape))
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    (wy, wx), (ny, nx) = shape, period

    def unpruned(g, M, khat_t):
        spec = np.fft.fft2(g, s=M).T * khat_t
        return np.fft.ifft(np.fft.ifft(spec, axis=1).T, axis=1)

    my, mx = (min(p, solver._next_5_smooth(2 * b - 1))
              for p, b in zip(period, shape))
    khat = solver._s_hat(my, mx, period)
    assert khat.shape == (mx, my)
    ref = unpruned(w, (my, mx), khat)[:wy, :wx]
    assert np.array_equal(singular_transform(w, period), ref)

    border = 3
    M = [solver._next_5_smooth(2 * (b + border)) for b in shape]
    khat, _ = solver._cauchy_hat(*M, shift=border)
    ref = unpruned(w * h, M, khat)[:wy + 2 * border, :wx + 2 * border]
    assert np.array_equal(cauchy_transform(w, h, border), ref)

    zeta = (np.fft.fftfreq(nx)[None, :]
            + 1j * np.fft.fftfreq(ny)[:, None])
    mult = np.zeros_like(zeta)
    mult[zeta != 0] = np.conj(zeta[zeta != 0]) / zeta[zeta != 0]
    rows = np.arange(-(my // 2), my - my // 2) % ny
    cols = np.arange(-(mx // 2), mx - mx // 2) % nx
    ref = np.fft.ifft2(mult)[np.ix_(rows, cols)]
    assert np.array_equal(solver._s_kernel(my, mx, period), ref)


def test_windowed_transform_rejects_window_beyond_period():
    with pytest.raises(ValueError):
        singular_transform(np.ones((8, 65)), period=(64, 64))


@pytest.mark.parametrize("pad_factor", [4.0, 2.0])
def test_solve_matches_full_grid_neumann_loop(pad_factor):
    # at pad_factor 2 the support window is wider than half the grid, so the
    # sweeps convolve on the full n-by-n torus
    mu = DiskConstant(c=0.6 - 0.3j, center=0.3 + 0.1j, radius=0.8)
    cfg = SolverConfig(grid_n=64, tol=1e-10, pad_factor=pad_factor)
    with warnings.catch_warnings():
        # the support sits inside the box, so no sweep warns
        warnings.simplefilter("error", RuntimeWarning)
        gm = solve_principal(mu, cfg)
    n = (cfg.grid_n, cfg.grid_n)
    xs, _, Z = grid_coordinates(gm.bbox, n)
    h = (gm.bbox[2] - gm.bbox[0]) / cfg.grid_n
    m = solver._sample_mu(mu, Z, xs[1] - xs[0])
    w = solver._support_window(cfg.grid_n, pad_factor)
    k = float(np.abs(m).max())
    M = solver._cauchy_size(w.stop - w.start, w.start)
    gain = h * solver._cauchy_hat(M, M, shift=w.start)[1] * k / (1 - k)
    cur = m.copy()
    for it in range(1, cfg.max_iter + 1):
        nxt = m * singular_transform(cur) + m
        d = nxt - cur
        res = np.abs(d).max()
        cur = nxt
        if gain * np.linalg.norm(d) <= cfg.tol:
            break
    assert gm.iterations == it
    assert gm.final_residual == pytest.approx(res, rel=1e-12)
    assert np.abs(gm.values - (Z + _reference_cauchy(cur, h))).max() <= 1e-12
    assert abs(gm.tail - cur.sum() * h * h / math.pi) <= 1e-12


def test_solve_reports_phases_and_rate():
    gm = solve_principal(DiskConstant(c=0.5), SolverConfig(grid_n=64))
    assert set(gm.timings_ms) == {"sample", "kernels", "iterate", "cauchy"}
    assert all(v >= 0 for v in gm.timings_ms.values())
    hist = np.array(gm.residual_history)
    ratios = hist[1:] / hist[:-1]
    assert gm.observed_rate == pytest.approx(np.exp(np.log(ratios).mean()))
    assert gm.sup_mu == pytest.approx(0.5)
    zero = solve_principal(DiskConstant(c=0.0), SolverConfig(grid_n=64))
    assert zero.observed_rate is None
    assert zero.sup_mu == 0.0


def test_solve_high_dilatation_at_default_max_iter():
    # |c| = 0.95 needs 276 sweeps at n=256 to bound the change still to
    # come in Phi by 1e-8
    gm = solve_principal(DiskConstant(c=0.95),
                         SolverConfig(grid_n=256, tol=1e-8))
    assert gm.iterations > 200
    assert gm.iteration_error_bound <= 1e-8


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


_BOUND_FIELDS = {
    "disk": DiskConstant(c=0.9j),
    "sector": SectorConstant(c=0.85 * np.exp(2.0j), theta0=2.0, beta=1.0,
                             radius=1.0),
    "composite": Composite((
        DiskConstant(c=0.8, center=-0.5 + 0.4j, radius=0.4),
        SectorConstant(c=0.6j, theta0=math.pi / 2, beta=-2.5, radius=0.6))),
}


@pytest.mark.parametrize("name", sorted(_BOUND_FIELDS))
def test_default_solve_lies_within_its_error_bound(name):
    # the default stop leaves Phi within iteration_error_bound of the
    # converged map: on the nodes, and through eval_gridmap inside the box
    # (its edge band included) and outside it, where the tail takes over
    mu = _BOUND_FIELDS[name]
    loose = solve_principal(mu, SolverConfig(grid_n=128))
    tight = solve_principal(mu, SolverConfig(grid_n=128, tol=1e-12))
    bound = loose.iteration_error_bound
    L = loose.bbox[2]
    assert 0 < bound <= 0.01 * (2 * L / 128)
    assert loose.iterations < tight.iterations
    assert np.abs(loose.values - tight.values).max() <= bound
    rng = np.random.default_rng(3)
    inside = rng.uniform(-L, L, 2000) + 1j * rng.uniform(-L, L, 2000)
    edge = L * np.concatenate([np.linspace(-1, 1, 65) + 1j * s
                               for s in (-1, 1)])
    edge = np.concatenate([edge, 1j * edge])
    outside = L * (1.001 + rng.uniform(0, 3, 500)) * np.exp(
        2j * math.pi * rng.uniform(size=500))
    for z in (inside, edge, outside):
        assert np.abs(eval_gridmap(loose, z) - eval_gridmap(tight, z)).max() \
            <= bound


def test_default_solve_stops_early_at_high_dilatation():
    # a 1e-8 bound on Phi takes 276 sweeps at |c| = 0.95, n=256; the
    # default bound, 0.01 of a cell side, far fewer
    gm = solve_principal(DiskConstant(c=0.95), SolverConfig(grid_n=256))
    assert gm.iterations <= 150
    assert gm.iteration_error_bound <= 0.01 * 8 / 256
    assert gm.to_dict()["iteration_error_bound"] == gm.iteration_error_bound


def test_explicit_tol_stops_at_the_first_sweep_within_it():
    # tol bounds the change still to come in Phi, as the default does: the
    # solve stops at the first sweep whose bound is <= tol, so one sweep
    # fewer does not reach it
    mu = DiskConstant(c=0.9j)
    gm = solve_principal(mu, SolverConfig(grid_n=64, tol=1e-6))
    assert gm.iteration_error_bound <= 1e-6
    with pytest.raises(ConvergenceError) as ei:
        solve_principal(mu, SolverConfig(grid_n=64, tol=1e-6,
                                         max_iter=gm.iterations - 1))
    assert ei.value.error_bound > 1e-6
    assert ei.value.iterations == gm.iterations - 1


def test_error_bound_is_kernel_norm_times_last_step():
    # the bound is h ||K||_2 k / (1 - k) ||last step||_2, with ||K||_2 the
    # l2 norm of the unit-cell Cauchy kernel, read by Parseval from the
    # cache entry the Cauchy step uses, so a solve adds no entry
    _clear_kernel_caches()
    mu, cfg = DiskConstant(c=0.7j, radius=0.8), SolverConfig(grid_n=64,
                                                               tol=1e-4)
    gm = solve_principal(mu, cfg)
    assert solver._cauchy_hat.cache_info().currsize == 1
    n = cfg.grid_n
    w = solver._support_window(n, cfg.pad_factor)
    b = w.stop - w.start
    m = solver._cauchy_size(b, w.start)
    K = solver._cauchy_kernel(m, m)
    xs, _, Z = grid_coordinates(gm.bbox, (n, n))
    h = xs[1] - xs[0]
    mu_win = solver._sample_mu(mu, Z[w, w], h)
    x = mu_win
    for _ in range(gm.iterations):
        x, prev = mu_win * singular_transform(x, period=(n, n)) + mu_win, x
    k = np.abs(mu_win).max()
    want = (2 * gm.bbox[2] / n) * np.sqrt(np.vdot(K, K).real) * k / (1 - k) \
        * np.linalg.norm(x - prev)
    assert gm.iteration_error_bound == pytest.approx(want, rel=1e-9)


def test_nonconvergence_error_carries_the_error_bound():
    with pytest.raises(ConvergenceError) as ei:
        solve_principal(DiskConstant(c=0.99), SolverConfig(grid_n=64,
                                                           max_iter=10))
    assert ei.value.iterations == 10
    assert ei.value.error_bound > 0.01 * 8 / 64


@pytest.mark.parametrize("call", [
    "solver.singular_transform(np.zeros((0, 4)))",
    "solver.cauchy_transform(np.zeros((0, 0)), 0.1)",
    "solver.solve_principal(DiskConstant(c=0.5), solver.SolverConfig("
    "grid_n=64, pad_factor=1e16))",
], ids=["singular_transform", "cauchy_transform", "solve_pad_1e16"])
def test_degenerate_grids_raise_instead_of_looping(call, tmp_path):
    # each call runs in a child process with a timeout, so a call that loops
    # fails the test instead of stopping the suite
    code = f"""if True:
        import numpy as np
        from qcmap import solver
        from qcmap.field import DiskConstant
        try:
            {call}
        except ValueError as exc:
            print("ValueError:", exc)
    """
    assert _fresh_python(code, tmp_path).startswith("ValueError:")


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
    w = solver._support_window(n[0], pad_factor)
    xs, _, Z = grid_coordinates(bbox, n)
    full = solver._sample_mu(mu, Z, xs[1] - xs[0])
    outside = np.ones(n, dtype=bool)
    outside[w, w] = False
    assert np.any(full)
    assert not np.any(full[outside])
    assert np.array_equal(solver._sample_mu(mu, Z[w, w], xs[1] - xs[0]),
                          full[w, w])


@pytest.mark.parametrize("n", [64, 256, 512])
def test_support_window_is_tight(n):
    # every edge row and column of the window meets the support: no cell
    # that is always zero is iterated
    mu = DiskConstant(c=0.5, center=0.0, radius=1.0)
    w = solver._support_window(n, 4.0)
    L = 4.0 * mu.support_radius()
    xs, _, Z = grid_coordinates((-L, -L, L, L), (n, n))
    win = solver._sample_mu(mu, Z[w, w], xs[1] - xs[0])
    for edge in (win[0], win[-1], win[:, 0], win[:, -1]):
        assert np.any(edge)
    assert w.stop - w.start == n // 4


def _window_loop(mu, cfg):
    """The Neumann loop on the whole support window, the reference for the
    solver's sweeps on the samples' nonzero box: iterations, map, tail and
    the window's samples."""
    n = cfg.grid_n
    L = cfg.pad_factor * mu.support_radius()
    xs, _, Z = grid_coordinates((-L, -L, L, L), (n, n))
    h = 2 * L / n
    w = solver._support_window(n, cfg.pad_factor)
    mu_win = solver._sample_mu(mu, Z[w, w], xs[1] - xs[0])
    k = float(np.abs(mu_win).max())
    M = solver._cauchy_size(w.stop - w.start, w.start)
    gain = h * solver._cauchy_hat(M, M, shift=w.start)[1] * k / (1 - k)
    target = 0.01 * h if cfg.tol is None else cfg.tol
    x = mu_win
    for it in range(1, cfg.max_iter + 1):
        nxt = mu_win * singular_transform(x, period=(n, n)) + mu_win
        d = nxt - x
        x = nxt
        if gain * np.linalg.norm(d) <= target:
            break
    P = cauchy_transform(x, h, border=w.start) + Z
    return it, P, x.sum() * h * h / math.pi, mu_win


def _single_cell_disk(pad_factor, n=64):
    # a disk inside one cell of the grid its support radius 1 gives: it
    # holds the cell's center, and no sample point of another cell
    h = 2 * pad_factor / n
    xs = -pad_factor + (np.arange(n) + 0.5) * h
    i = np.flatnonzero(xs <= 1 - h / 2)[-1]
    center = complex(xs[i], xs[n // 2])
    return DiskConstant(c=0.6 + 0.2j, center=center, radius=1 - abs(center))


_BOX_FIELDS = {
    **{f"disk-q{q}": DiskConstant(
        c=0.6 - 0.3j, radius=0.5,
        center=0.4 * np.exp(1j * math.pi * (q - 0.5) / 2))
       for q in (1, 2, 3, 4)},
    **{f"sector-{t:.2f}-{b}": SectorConstant(c=0.8j, theta0=t, beta=b,
                                             radius=1.0)
       for t in (math.pi / 4, math.pi / 2, 3 * math.pi / 2)
       for b in (0.0, 1.0, -2.5)},
    "holder-masked": _holder_grid(masked=True),
    "two-disks": Composite((
        DiskConstant(c=0.5, center=-0.6 + 0.5j, radius=0.3),
        DiskConstant(c=-0.4j, center=0.5 - 0.2j, radius=0.2))),
    "single-cell": None,
}


@pytest.mark.parametrize("tol", [1e-10, None])
@pytest.mark.parametrize("pad_factor", [2.0, 4.0])
@pytest.mark.parametrize("name", sorted(_BOX_FIELDS))
def test_box_sweeps_match_window_sweeps(name, pad_factor, tol):
    # sweeping only the samples' nonzero box changes the FFT sizes, not the
    # iterates: same stop, same map and tail to round-off
    mu = _BOX_FIELDS[name] or _single_cell_disk(pad_factor)
    cfg = SolverConfig(grid_n=64, pad_factor=pad_factor, tol=tol)
    gm = solve_principal(mu, cfg)
    it, P, tail, mu_win = _window_loop(mu, cfg)
    rows, cols = (np.flatnonzero(mu_win.any(axis=a)) for a in (1, 0))
    assert gm.sweep_cells == (rows[-1] + 1 - rows[0], cols[-1] + 1 - cols[0])
    assert gm.to_dict()["sweep_cells"] == list(gm.sweep_cells)
    if name == "single-cell":
        assert gm.sweep_cells == (1, 1)
    assert gm.iterations == it
    assert np.abs(gm.values - P).max() <= 1e-13
    assert abs(gm.tail - tail) <= 1e-13


def test_window_box_takes_the_window_path_bit_for_bit():
    # a centered disk's samples reach every edge of the window, so its
    # sweeps are the window's, bit for bit
    mu, cfg = DiskConstant(c=0.5 - 0.2j), SolverConfig(grid_n=128)
    gm = solve_principal(mu, cfg)
    it, P, tail, mu_win = _window_loop(mu, cfg)
    assert gm.sweep_cells == mu_win.shape == (32, 32)
    assert gm.iterations == it
    assert np.array_equal(gm.values, P)
    assert gm.tail == tail


def test_zero_field_sweeps_the_window():
    gm = solve_principal(DiskConstant(c=0.0), SolverConfig(grid_n=64))
    assert gm.iterations == 1
    assert gm.sweep_cells == (16, 16)


def test_kernel_builds_are_timed_apart_from_the_sweeps(monkeypatch):
    # the one-off kernels are built before the loop, so their time lands
    # in timings_ms["kernels"], not in "iterate"
    _clear_kernel_caches()
    calls = []

    def slow(build):
        def built(*args):
            calls.append(build.__name__)
            time.sleep(0.1)
            return build(*args)
        return built

    for name in ("_cauchy_kernel", "_s_kernel"):
        monkeypatch.setattr(solver, name, slow(getattr(solver, name)))
    gm = solve_principal(SectorConstant(c=0.8j, theta0=1.0, radius=1.0),
                         SolverConfig(grid_n=64))
    assert sorted(calls) == ["_cauchy_kernel", "_s_kernel"]
    assert gm.timings_ms["kernels"] >= 200
    assert gm.timings_ms["iterate"] < 100


def test_boxes_of_one_grid_share_the_kernel_builds(monkeypatch):
    # twelve boxes on one grid: the Cauchy kernel and the torus S are built
    # once, each box's kernel FFT is sliced from that torus, and no entry
    # is writable
    _clear_kernel_caches()
    calls = []

    def counted(build):
        def built(*args):
            calls.append(build.__name__)
            return build(*args)
        return built

    for name in ("_cauchy_kernel", "_s_kernel"):
        monkeypatch.setattr(solver, name, counted(getattr(solver, name)))
    cfg = SolverConfig(grid_n=128)
    boxes = set()
    for theta0 in (0.4, 1.0, 2.0, 4.0):
        for beta in (0.2, 1.3, 3.6):
            mu = SectorConstant(c=0.6j, theta0=theta0, beta=beta, radius=1.0)
            boxes.add(solve_principal(mu, cfg).sweep_cells)
    assert len(boxes) == 12
    assert sorted(calls) == ["_cauchy_kernel", "_s_kernel"]
    assert list(solver._S_TORUS) == [(128, 128)]
    w = solver._support_window(128, cfg.pad_factor)
    m = solver._cauchy_size(w.stop - w.start, w.start)
    box = [solver._s_size(b, 128)
           for b in solve_principal(mu, cfg).sweep_cells]
    for arr in (solver._S_TORUS[(128, 128)],
                solver._cauchy_hat(m, m, shift=w.start)[0],
                solver._s_hat(*box, (128, 128))):
        assert not arr.flags.writeable
    assert len(calls) == 2
    solve_principal(DiskConstant(c=0.5), SolverConfig(grid_n=64))
    assert calls.count("_s_kernel") == 2
    assert set(solver._S_TORUS) == {(128, 128), (64, 64)}


@pytest.mark.parametrize("my, mx, period", [
    (64, 64, (128, 128)), (27, 64, (128, 128)), (45, 16, (128, 128)),
    (1, 1, (128, 128)), (64, 64, (64, 64)), (25, 45, (64, 96)),
])
def test_box_kernel_fft_is_the_full_kernel_fft_bit_for_bit(my, mx, period):
    # a box kernel sliced from a wider torus kernel has the FFT of the
    # kernel built for the box alone
    _clear_kernel_caches()
    solver._s_torus(*period, period)
    K = solver._s_kernel(my, mx, period)
    ref = solver._fft_t(np.roll(K, (-(my // 2), -(mx // 2)), axis=(0, 1)),
                        my, mx)
    khat = solver._s_hat(my, mx, period)
    assert not khat.flags.writeable
    assert np.array_equal(khat, ref)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grid_n=100)
    with pytest.raises(ValueError):
        SolverConfig(grid_n=32)
    with pytest.raises(ValueError):
        SolverConfig(pad_factor=1.0)
    # counts are integers where they enter, not where range() meets them
    for kw in ({"grid_n": 64.0}, {"grid_n": "64"}, {"max_iter": math.nan},
               {"max_iter": 2.5}):
        with pytest.raises(ValueError, match="must be an integer"):
            SolverConfig(**kw)
    cfg = SolverConfig(grid_n=np.int64(64), max_iter=np.int32(5))
    assert type(cfg.grid_n) is int and type(cfg.max_iter) is int


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


def test_gridmap_resolution_is_twice_the_larger_cell_side():
    gm = GridMap(bbox=(-2, -1, 2, 1), values=np.zeros((8, 16), dtype=complex))
    assert gm.resolution == 2 * 0.25


def test_gridmap_save_load_round_trip(tmp_path):
    signed_zeros = np.array([[complex(-0.0, 1), complex(1, -0.0)],
                             [complex(-0.0, -0.0), 0.5]])
    p, again = tmp_path / "map.qcmap", tmp_path / "again.qcmap"
    solved = solve_principal(DiskConstant(c=0.3 + 0.2j), SolverConfig(grid_n=64))
    zeros = GridMap(bbox=(-1, -1, 1, 1), values=signed_zeros, tail=-0.0)
    for gm in (solved, zeros):
        gm.save(p)
        back = GridMap.load(p)
        assert back.values.tobytes() == gm.values.tobytes()
        assert back.bbox == gm.bbox
        assert back.tail == gm.tail
        back.save(again)
        assert again.read_bytes() == p.read_bytes()


def test_gridmap_load_bad_magic(tmp_path):
    p = tmp_path / "map.qcmap"
    p.write_bytes(b"BADMAGIC" + b"\x00" * 100)
    with pytest.raises(ValueError):
        GridMap.load(p)


@pytest.mark.parametrize("bbox", [(math.nan, -1, 1, 1), (-1, -1, math.inf, 1),
                                  (1, -1, -1, 1), (-1, 1, 1, 1), (-1, -1, 1),
                                  (-1, -math.inf, 1, 1), (-1, -1, 1, 1, 2),
                                  (1, -1, 1, 1), (-1, 2, 1, 1)])
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
