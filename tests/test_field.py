"""Tests for dilatation field construction, evaluation and serialization."""

import json
import math

import numpy as np
import pytest

from qcmap.field import (Composite, DiskConstant, FieldError, HolderGrid,
                         SectorConstant, field_from_json, holder_check,
                         read_grid_samples, write_grid_samples)


def test_disk_constant_inside_outside():
    f = DiskConstant(c=0.5)
    assert f.evaluate(0.3) == 0.5
    assert f.evaluate(2.0) == 0.0
    assert f.evaluate(1.0) == 0.5  # boundary counts as inside


def test_sector_constant_inside():
    f = SectorConstant(c=0.5j, theta0=math.pi / 2)
    assert f.evaluate(np.exp(1j * math.pi / 4)) == 0.5j
    assert f.evaluate(np.exp(-1j * math.pi / 4)) == 0.0
    assert f.evaluate(0.0) == 0.0


def test_sector_rotation_and_truncation():
    # beta = pi starts the sector at the negative real axis, sweeping ccw
    f = SectorConstant(c=0.3, theta0=math.pi / 2, beta=math.pi, radius=2.0)
    assert f.evaluate(-1.0 - 0.1j) == 0.3
    assert f.evaluate(-1.0 + 0.1j) == 0.0
    assert f.evaluate(-3.0 - 0.1j) == 0.0  # beyond the truncation radius
    assert f.support_radius() == 2.0


def test_sup_norm_rejects_unit_dilatation():
    with pytest.raises(FieldError):
        DiskConstant(c=1.0)
    with pytest.raises(FieldError):
        DiskConstant(c=0.8 + 0.7j)
    with pytest.raises(FieldError):
        SectorConstant(c=1.0 + 0j, theta0=1.0)
    samples = np.full((8, 8), 0.999, dtype=complex)
    samples[3, 3] = 1.0
    with pytest.raises(FieldError):
        HolderGrid(samples=samples, bbox=(-1, -1, 1, 1), epsilon=0.5, holder_c=1.0)


def test_rejects_non_finite():
    with pytest.raises(FieldError):
        DiskConstant(c=complex(np.nan, 0))
    bad = np.zeros((4, 4), dtype=complex)
    bad[1, 2] = complex(np.inf, 0)
    with pytest.raises(FieldError):
        HolderGrid(samples=bad, bbox=(-1, -1, 1, 1), epsilon=0.5, holder_c=1.0)


def test_evaluate_is_pure():
    f = DiskConstant(c=0.25 + 0.1j, center=0.2j, radius=1.5)
    z = np.array([0.1 + 0.2j, 1.9j, -2.0, 0.0])
    a = f.evaluate(z)
    b = f.evaluate(z)
    assert np.array_equal(a, b)


def _grid_of(fn, n=97, box=(-1.0, -1.0, 1.0, 1.0), **kw):
    xmin, ymin, xmax, ymax = box
    xs = np.linspace(xmin, xmax, n)
    ys = np.linspace(ymin, ymax, n)
    X, Y = np.meshgrid(xs, ys)
    return HolderGrid(samples=fn(X + 1j * Y), bbox=box, **kw)


def test_holder_grid_bilinear_and_bound():
    g = _grid_of(lambda z: 0.4 * np.exp(1j * z.real), epsilon=1.0, holder_c=0.5)
    rng = np.random.default_rng(7)
    z = rng.uniform(-0.99, 0.99, 400) + 1j * rng.uniform(-0.99, 0.99, 400)
    vals = g.evaluate(z)
    # interpolation never exceeds the sample sup norm
    assert np.abs(vals).max() <= g.sup_norm + 1e-15
    # close to the true smooth function on a fine grid
    truth = 0.4 * np.exp(1j * z.real)
    assert np.abs(vals - truth).max() < 5e-4
    assert g.evaluate(1.5 + 0j) == 0.0


def test_holder_grid_mask_gates_support():
    samples = np.full((33, 33), 0.5, dtype=complex)
    mask = np.zeros((33, 33), dtype=bool)
    mask[:, :16] = True  # left half plane of the box only
    g = HolderGrid(samples=samples, bbox=(-1, -1, 1, 1), epsilon=0.5,
                   holder_c=1.0, mask=mask)
    assert g.evaluate(-0.5 + 0.1j) == 0.5
    assert g.evaluate(0.5 + 0.1j) == 0.0
    assert g.support_contains(-0.5) and not g.support_contains(0.5)


def test_holder_check_constant_grid():
    g = _grid_of(lambda z: np.full(z.shape, 0.3 + 0j), epsilon=0.5, holder_c=0.1)
    rep = holder_check(g, pair_count=500, seed=1)
    assert rep.max_violation <= 0.0
    assert rep.pairs > 0


def test_holder_check_sqrt_profile_consistent():
    # |a^(1/2) - b^(1/2)| <= |a - b|^(1/2), so C = 0.3 and eps = 1/2 hold
    # exactly on the sampled nodes
    g = _grid_of(lambda z: 0.3 * np.sqrt(np.abs(z)).astype(complex),
                 epsilon=0.5, holder_c=0.3)
    rep = holder_check(g, pair_count=4000, seed=2)
    assert rep.max_violation <= 1e-12


def test_holder_check_detects_jump():
    def jump(z):
        return np.where(z.real > 0, 0.8, 0.0).astype(complex)

    # mesh is ~0.02, so the jump of height 0.8 violates C * mesh^eps = 0.07
    g = _grid_of(jump, epsilon=0.5, holder_c=0.5)
    rep = holder_check(g, pair_count=4000, seed=3)
    assert rep.max_violation > 0.0


def test_holder_check_rejects_constants():
    with pytest.raises(FieldError):
        holder_check(DiskConstant(c=0.5))
    with pytest.raises(FieldError):
        holder_check(Composite((DiskConstant(c=0.5),)))


def test_holder_check_composite_of_grids():
    left = HolderGrid(samples=np.full((9, 9), 0.2, dtype=complex),
                      bbox=(-3, -1, -1, 1), epsilon=0.5, holder_c=0.5)
    right = HolderGrid(samples=np.full((9, 9), -0.1j, dtype=complex),
                       bbox=(1, -1, 3, 1), epsilon=0.5, holder_c=0.5)
    rep = holder_check(Composite((left, right)), pair_count=400, seed=4)
    assert rep.max_violation <= 0.0


def test_composite_dispatch_and_disjointness():
    left = DiskConstant(c=0.4, center=-2.0, radius=1.0)
    right = DiskConstant(c=-0.3j, center=2.0, radius=1.0)
    comp = Composite((left, right))
    assert comp.evaluate(-2.0) == 0.4
    assert comp.evaluate(2.0) == -0.3j
    assert comp.evaluate(0.0) == 0.0
    assert comp.sup_norm == 0.4
    with pytest.raises(FieldError):
        Composite((DiskConstant(c=0.4), DiskConstant(c=0.2, center=0.5)))


def test_composite_support_radius():
    comp = Composite((DiskConstant(c=0.1, center=3.0, radius=0.5),
                      DiskConstant(c=0.2, center=-1.0, radius=0.25)))
    assert comp.support_radius() == 3.5


def test_grid_binary_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    samples = (rng.uniform(-0.4, 0.4, (17, 23))
               + 1j * rng.uniform(-0.4, 0.4, (17, 23)))
    path = tmp_path / "mu.bin"
    write_grid_samples(path, samples)
    back = read_grid_samples(path)
    assert np.array_equal(back, samples)


def test_grid_binary_bad_magic(tmp_path):
    path = tmp_path / "mu.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(FieldError):
        read_grid_samples(path)


def test_field_from_json_kinds(tmp_path):
    disk = field_from_json({"kind": "disk_constant", "c": [0.5, 0.0],
                            "center": [0, 0], "radius": 1.0})
    assert isinstance(disk, DiskConstant)
    assert disk.evaluate(0.2) == 0.5

    sector = field_from_json({"kind": "sector_constant", "c": [0.0, 0.5],
                              "theta0": 1.5707963, "beta": 0.0})
    assert isinstance(sector, SectorConstant)
    assert sector.evaluate(np.exp(0.5j)) == 0.5j

    rng = np.random.default_rng(11)
    samples = rng.uniform(-0.3, 0.3, (16, 16)).astype(complex)
    write_grid_samples(tmp_path / "mu.bin", samples)
    spec = {"kind": "holder_grid", "bbox": [-1, -1, 1, 1], "n": [16, 16],
            "epsilon": 0.5, "holder_c": 1.0, "data_file": "mu.bin"}
    (tmp_path / "field.json").write_text(json.dumps(spec))
    grid = field_from_json(tmp_path / "field.json")
    assert isinstance(grid, HolderGrid)
    xs, ys = grid.node_coordinates()
    assert grid.evaluate(complex(xs[3], ys[7])) == samples[7, 3]


def test_field_from_json_dim_mismatch(tmp_path):
    samples = np.zeros((8, 8), dtype=complex)
    write_grid_samples(tmp_path / "mu.bin", samples)
    spec = {"kind": "holder_grid", "bbox": [-1, -1, 1, 1], "n": [16, 16],
            "epsilon": 0.5, "holder_c": 1.0, "data_file": "mu.bin"}
    (tmp_path / "field.json").write_text(json.dumps(spec))
    with pytest.raises(FieldError):
        field_from_json(tmp_path / "field.json")


def test_field_from_json_composite():
    comp = field_from_json({
        "kind": "composite",
        "members": [
            {"kind": "disk_constant", "c": [0.2, 0], "center": [-2, 0], "radius": 0.5},
            {"kind": "disk_constant", "c": [0, 0.2], "center": [2, 0], "radius": 0.5},
        ]})
    assert isinstance(comp, Composite)
    assert comp.evaluate(-2.0) == 0.2


def test_field_from_json_unknown_kind():
    with pytest.raises(FieldError):
        field_from_json({"kind": "mystery"})
