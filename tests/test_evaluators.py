"""Bitwise checks of the map evaluators that certify and render call.

``eval_gridmap`` and ``eval_fc`` skip the work that a one-sided input
does not need (masks, the unused branch) and ``eval_gridmap`` gathers the
bilinear corners by flat index. ``eval_fangle`` calls ``arctan2`` without
``np.angle``'s wrapper, works out (z + c*conj(z))/(1 + c) and its argument
only on the first sector, and lifts both arguments into [0, 2*pi) with a
masked + 2*pi instead of the float remainder. The plain forms they
replaced are kept here as references: every value must agree to the last
bit, on each side of every branch and on the seams between them.
"""

import math

import numpy as np
import pytest

from qcmap._arrays import pointwise, unit_circle
from qcmap.closed_maps import (DiskMapSpec, eval_fangle, eval_fc, fangle_map,
                               fc_map, sector_invariants)
from qcmap.field import DiskConstant
from qcmap.modulus import AnnulusSpec, bounding_annuli, certify_bilipschitz
from qcmap.solver import GridMap, SolverConfig, eval_gridmap, solve_principal

_TWO_PI = 2.0 * math.pi


@pointwise
def _ref_eval_gridmap(gm, z):
    xmin, ymin, xmax, ymax = gm.bbox
    ny, nx = gm.values.shape
    hx = (xmax - xmin) / nx
    hy = (ymax - ymin) / ny
    out = np.empty(z.shape, dtype=complex)
    inside = ((z.real >= xmin) & (z.real <= xmax)
              & (z.imag >= ymin) & (z.imag <= ymax))
    zi = z[inside]
    if zi.size:
        fx = (zi.real - xmin) / hx - 0.5
        fy = (zi.imag - ymin) / hy - 0.5
        ix = np.clip(np.floor(fx).astype(int), 0, nx - 2)
        iy = np.clip(np.floor(fy).astype(int), 0, ny - 2)
        tx = fx - ix
        ty = fy - iy
        v = gm.values
        out[inside] = ((1 - tx) * (1 - ty) * v[iy, ix]
                       + tx * (1 - ty) * v[iy, ix + 1]
                       + (1 - tx) * ty * v[iy + 1, ix]
                       + tx * ty * v[iy + 1, ix + 1])
    zo = z[~inside]
    if zo.size:
        zc = complex(0.5 * (xmin + xmax), 0.5 * (ymin + ymax))
        out[~inside] = zo + gm.tail / (zo - zc)
    return out


@pointwise
def _ref_eval_fc(spec, z):
    out = z + spec.c * np.conj(z)
    outside = np.abs(z) > 1.0
    out[outside] = z[outside] + spec.c / z[outside]
    return out


@pointwise
def _ref_eval_fangle(spec, z):
    out = np.zeros(z.shape, dtype=complex)
    nz = z != 0
    zv = z[nz]
    th = np.angle(zv) % _TWO_PI
    first = th < spec.theta0
    w1 = np.where(first, (zv + spec.c * np.conj(zv)) / (1.0 + spec.c),
                  spec.a * zv)
    arg1 = np.angle(w1) % _TWO_PI
    arg1 = np.where(arg1 > _TWO_PI - 1e-12, 0.0, arg1)
    lift = np.where(first, arg1, th + (spec.theta1 - spec.theta0))
    out[nz] = np.exp(spec.lam * (np.log(np.abs(w1)) + 1j * lift))
    return out


def _assert_bitwise(got, want):
    assert isinstance(got, np.ndarray) and got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.fixture(scope="module")
def solved():
    return solve_principal(DiskConstant(c=0.5 + 0.2j), SolverConfig(grid_n=64))


def _gridmap_points(gm):
    """Named point sets on each side of the box and on its seams."""
    xmin, ymin, xmax, ymax = gm.bbox
    ny, nx = gm.values.shape
    hx = (xmax - xmin) / nx
    hy = (ymax - ymin) / ny
    rng = np.random.default_rng(7)
    inside = rng.uniform(xmin, xmax, 999) + 1j * rng.uniform(ymin, ymax, 999)
    outside = (rng.uniform(1.01, 3.0, 999) * xmax
               * np.exp(1j * rng.uniform(0, _TWO_PI, 999)))
    t = np.linspace(0.0, 1.0, 41)
    xs = xmin + t * (xmax - xmin)
    ys = ymin + t * (ymax - ymin)
    edges = np.concatenate([xs + 1j * ymin, xs + 1j * ymax,
                            xmin + 1j * ys, xmax + 1j * ys,
                            [complex(xmin, ymin), complex(xmax, ymax),
                             complex(np.nextafter(xmax, np.inf), 0.0),
                             complex(0.0, np.nextafter(ymin, -np.inf))]])
    # between the outermost sample rows and the box edge the map extrapolates
    band = np.concatenate([xmin + 0.5 * hx * t + 1j * ys,
                           xmax - 0.5 * hx * t + 1j * ys,
                           xs + 1j * (ymin + 0.5 * hy * t),
                           xs + 1j * (ymax - 0.5 * hy * t)])
    return {"inside": inside, "outside": outside,
            "mixed": np.concatenate([inside[:300], outside[:300], edges]),
            "edges": edges, "band": band, "zero": np.zeros(5, complex),
            "grid_2d": inside[:900].reshape(30, 30)}


@pytest.mark.parametrize("name", ["inside", "outside", "mixed", "edges",
                                  "band", "zero", "grid_2d"])
def test_eval_gridmap_is_bitwise_the_plain_form(solved, name):
    z = _gridmap_points(solved)[name]
    _assert_bitwise(eval_gridmap(solved, z), _ref_eval_gridmap(solved, z))


def test_eval_gridmap_on_a_non_square_box_is_bitwise_the_plain_form():
    rng = np.random.default_rng(3)
    gm = GridMap(bbox=(-1.0, -2.0, 3.0, 0.5),
                 values=rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5)),
                 tail=0.3 - 0.1j)
    for z in _gridmap_points(gm).values():
        _assert_bitwise(eval_gridmap(gm, z), _ref_eval_gridmap(gm, z))


def test_eval_gridmap_empty_and_scalar(solved):
    _assert_bitwise(eval_gridmap(solved, np.array([], complex)),
                    _ref_eval_gridmap(solved, np.array([], complex)))
    for z in (0.3 - 0.2j, 0.0, complex(solved.bbox[2], 0.0), 40.0 + 1j):
        got = eval_gridmap(solved, z)
        assert type(got) is complex
        _assert_bitwise(np.array([got]),
                        np.array([_ref_eval_gridmap(solved, z)]))


def _fc_points():
    rng = np.random.default_rng(11)
    r = rng.uniform(0.0, 3.0, 999)
    z = r * np.exp(1j * rng.uniform(0, _TWO_PI, 999))
    seam = np.array([1.0, -1.0, 1j, -1j, 0.6 + 0.8j, 0.0,
                     np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)], complex)
    return {"inside": z[r < 1.0], "outside": z[r > 1.0], "mixed": z,
            "seam": seam, "unit": seam[:5], "zero": np.zeros(3, complex),
            "empty": np.array([], complex), "grid_2d": z[:900].reshape(30, 30)}


@pytest.mark.parametrize("c", [0.5, -0.3 + 0.9j])
def test_eval_fc_is_bitwise_the_plain_form(c):
    spec = DiskMapSpec(c)
    for z in _fc_points().values():
        _assert_bitwise(eval_fc(spec, z), _ref_eval_fc(spec, z))
    for z in (0.0, 1.0, 0.3 + 0.1j, -2.0 + 5j):
        got = eval_fc(spec, z)
        assert type(got) is complex and got == _ref_eval_fc(spec, z)


def _fangle_seams(spec):
    """Points where a masked + 2*pi and the remainder % 2*pi could differ."""
    # signed zero imaginary parts on both real half-axes: % makes -0.0 +0.0
    zeros = np.array([complex(1.0, -0.0), complex(0.5, -0.0),
                      complex(-1.0, -0.0), complex(-1.0, 0.0)])
    # the theta0 ray and one ulp of angle to either side, on the lifted arg
    ulps = spec.theta0 + np.arange(-4, 5) * np.spacing(spec.theta0)
    near = (np.linspace(0.25, 3.0, 40)[:, None] * np.exp(1j * ulps)).ravel()
    th = np.angle(near) % _TWO_PI
    targets = [np.nextafter(spec.theta0, 0.0), spec.theta0,
               np.nextafter(spec.theta0, 7.0)]
    on = np.isin(th, targets)
    assert set(th[on]) == set(targets)
    ray = near[on]
    # first-sector points at and just above the positive real axis, where
    # arg f1 rounds to within 1e-12 of 2*pi and is snapped to 0
    axis = (np.linspace(0.1, 3.0, 300)[:, None]
            * np.exp(1j * np.array([0.0, 1e-16, 1e-14, 1e-13]))).ravel()
    w1 = (axis + spec.c * np.conj(axis)) / (1.0 + spec.c)
    snap = axis[np.angle(w1) % _TWO_PI > _TWO_PI - 1e-12]
    assert snap.size >= 5
    return {"zeros": zeros, "ray": ray, "snap": snap}


def test_eval_fangle_is_bitwise_the_plain_form():
    # an opening below pi and one above it
    for spec in (sector_invariants(0.5 - 0.2j, 1.5707963),
                 sector_invariants(-0.3 + 0.6j, 4.0)):
        for z in [*_fc_points().values(), *_fangle_seams(spec).values()]:
            _assert_bitwise(eval_fangle(spec, z), _ref_eval_fangle(spec, z))


def test_certify_is_the_same_through_the_plain_evaluators(solved):
    centers = [0.0, 0.7 + 0.2j, -1.0 + 1.0j]
    spec = DiskMapSpec(0.5)
    for f, ref, res in ((solved, lambda z: _ref_eval_gridmap(solved, z),
                         solved.resolution),
                        (fc_map(0.5), lambda z: _ref_eval_fc(spec, z), 0.0)):
        got = certify_bilipschitz(f, centers, bound=1.0, annuli_per_center=8)
        want = certify_bilipschitz(ref, centers, bound=1.0,
                                   annuli_per_center=8, resolution=res)
        assert got.gaps == want.gaps and got.annuli_tested > 0
        assert got.sup_gap == want.sup_gap
        assert got.verdict == want.verdict
        assert (got.lipschitz_min, got.lipschitz_max) == \
            (want.lipschitz_min, want.lipschitz_max)


def test_certify_fangle_is_the_same_through_the_plain_form():
    # the settings of acceptance criterion 5
    spec = sector_invariants(0.5, math.pi / 2)
    kw = dict(bound=0.2, annuli_per_center=26, r_min=math.exp(-13.0),
              r_max=1.0)
    got = certify_bilipschitz(fangle_map(0.5, math.pi / 2), [0.0, 0.4 + 0.3j],
                              **kw)
    want = certify_bilipschitz(lambda z: _ref_eval_fangle(spec, z),
                               [0.0, 0.4 + 0.3j], **kw)
    assert got.gaps == want.gaps and got.annuli_tested > 0
    assert got.sup_gap == want.sup_gap
    assert got.verdict == want.verdict
    assert (got.lipschitz_min, got.lipschitz_max, got.lipschitz_pairs) == \
        (want.lipschitz_min, want.lipschitz_max, want.lipschitz_pairs)


@pytest.mark.parametrize("samples", [64, 1024, 4096])
def test_unit_circle_is_cached_read_only_and_exact(samples):
    # certify's circles and render's share this ring; at a power of two
    # samples the linspace and the arange formulas agree bit for bit
    ring = unit_circle(samples)
    assert ring is unit_circle(samples)
    assert not ring.flags.writeable
    _assert_bitwise(ring, np.exp(
        1j * np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)))
    _assert_bitwise(ring, np.exp(2j * math.pi * np.arange(samples) / samples))
    with pytest.raises(ValueError):
        ring[0] = 0


def test_bounding_annuli_rejects_too_few_circle_samples():
    for samples in (63, 100.5):
        with pytest.raises(ValueError):
            bounding_annuli(fc_map(0.5), AnnulusSpec(0, 0.5, 2.0),
                            circle_samples=samples)
