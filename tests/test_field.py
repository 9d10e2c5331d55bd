"""Tests for dilatation field construction, evaluation and serialization."""

import json
import math

import numpy as np
import pytest

from qcmap.field import (Composite, DiskConstant, FieldError, HolderGrid,
                         SectorConstant, field_from_json, read_grid_samples,
                         write_grid_samples)


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
    with pytest.raises(FieldError, match="box"):
        HolderGrid(samples=np.zeros((4, 4)), bbox=(-1, -1, 1, np.nan),
                   epsilon=0.5, holder_c=1.0)


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


def test_composite_evaluate_raises_where_members_overlap():
    # the members overlap in a wedge 1e-4 rad wide, which the 96x96
    # disjointness sampler misses; evaluating there must not add them up
    spec = {"kind": "composite", "members": [
        {"kind": "sector_constant", "c": [0.6, 0], "theta0": 1.0,
         "beta": beta, "radius": 1.0} for beta in (0.0, 0.9999)]}
    comp = field_from_json(spec)
    assert comp.evaluate(0.5 * np.exp(0.5j)) == 0.6
    with pytest.raises(FieldError, match="overlap"):
        comp.evaluate(0.5 * np.exp(0.99995j))
    with pytest.raises(FieldError, match="overlap"):
        comp.evaluate(np.array([0.5j, 0.5 * np.exp(0.99995j)]))


def test_composite_support_radius():
    comp = Composite((DiskConstant(c=0.1, center=3.0, radius=0.5),
                      DiskConstant(c=0.2, center=-1.0, radius=0.25)))
    assert comp.support_radius() == 3.5


def test_grid_binary_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    samples = (rng.uniform(-0.4, 0.4, (17, 23))
               + 1j * rng.uniform(-0.4, 0.4, (17, 23)))
    signed_zeros = np.array([[complex(-0.0, 1), complex(1, -0.0)],
                             [complex(-0.0, -0.0), 0.5]])
    path, again = tmp_path / "mu.bin", tmp_path / "again.bin"
    for grid in (samples, signed_zeros):
        write_grid_samples(path, grid)
        back = read_grid_samples(path)
        assert back.tobytes() == grid.tobytes()
        write_grid_samples(again, back)
        assert again.read_bytes() == path.read_bytes()


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


@pytest.mark.parametrize("spec,key", [
    ({"kind": "disk_constant", "c": [0.5, 0], "radus": 2}, "radus"),
    ({"kind": "sector_constant", "c": [0.5, 0], "theta0": 1.0, "betta": 0.1},
     "betta"),
    ({"kind": "composite", "members": [
        {"kind": "disk_constant", "c": [0.5, 0], "centre": [1, 0]}]}, "centre"),
], ids=["disk", "sector", "composite-member"])
def test_field_from_json_rejects_unknown_keys(spec, key):
    with pytest.raises(FieldError, match=key):
        field_from_json(spec)


def test_composite_member_paths_are_relative_to_the_spec(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "m1.json").write_text(json.dumps(
        {"kind": "disk_constant", "c": [0.2, 0], "center": [-2, 0], "radius": 0.5}))
    (sub / "comp.json").write_text(json.dumps({"kind": "composite", "members": [
        "m1.json",
        {"kind": "disk_constant", "c": [0, 0.2], "center": [2, 0], "radius": 0.5}]}))
    for cwd in (tmp_path, sub):
        monkeypatch.chdir(cwd)
        comp = field_from_json(sub / "comp.json")
        assert comp.evaluate(-2.0) == 0.2 and comp.evaluate(2.0) == 0.2j
    monkeypatch.chdir(tmp_path)
    assert field_from_json("sub/comp.json").evaluate(-2.0) == 0.2


def test_field_from_json_reads_a_string_as_a_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError):
        field_from_json('{"kind": "disk_constant", "c": [0.5, 0]}')


def test_field_from_json_names_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "field.json"
    path.write_text("{not json")
    with pytest.raises(FieldError, match="field.json"):
        field_from_json(path)


def test_composite_members_must_be_a_list():
    with pytest.raises(FieldError, match="list"):
        field_from_json({"kind": "composite", "members": "m1.json"})


@pytest.mark.parametrize("files", [
    {"self.json": ["self.json"]},
    {"self.json": ["other.json"], "other.json": ["self.json"]},
], ids=["direct", "two-files"])
def test_composite_that_includes_itself_names_the_file(tmp_path, files):
    for name, members in files.items():
        (tmp_path / name).write_text(json.dumps(
            {"kind": "composite", "members": members}))
    with pytest.raises(FieldError, match="self.json includes itself"):
        field_from_json(tmp_path / "self.json")


def test_deeply_nested_composite_files_load(tmp_path):
    depth = 40
    (tmp_path / f"{depth}.json").write_text(json.dumps(
        {"kind": "disk_constant", "c": [0.2, 0], "center": [-2, 0],
         "radius": 0.5}))
    for k in range(depth):
        (tmp_path / f"{k}.json").write_text(json.dumps(
            {"kind": "composite", "members": [f"{k + 1}.json"]}))
    assert field_from_json(tmp_path / "0.json").evaluate(-2.0) == 0.2
    # a file named by two siblings is read twice, not taken for a cycle
    (tmp_path / "twice.json").write_text(json.dumps(
        {"kind": "composite", "members": ["1.json", "1.json"]}))
    with pytest.raises(FieldError, match="overlapping supports"):
        field_from_json(tmp_path / "twice.json")


_GRID_4X4 = {"kind": "holder_grid", "bbox": [-1, -1, 1, 1], "n": [4, 4],
             "epsilon": 0.5, "holder_c": 1.0, "data_file": "mu.bin"}


@pytest.mark.parametrize("spec", [
    {"kind": "disk_constant", "c": ["0.5", "0"]},
    {"kind": "disk_constant", "c": [0.5, 0], "center": [0, "1"]},
    {"kind": "disk_constant", "c": [0.5, 0], "radius": True},
    {"kind": "sector_constant", "c": [0.5, 0], "theta0": "1.0"},
    {"kind": "sector_constant", "c": [0.5, 0], "theta0": 1.0, "beta": False},
    {"kind": "sector_constant", "c": [0.5, 0], "theta0": 1.0, "radius": "2"},
    {**_GRID_4X4, "bbox": [-1, -1, 1, "1"]},
    {**_GRID_4X4, "epsilon": "0.5"},
    {**_GRID_4X4, "holder_c": True},
    {**_GRID_4X4, "n": [4.9, "4"]},
    {**_GRID_4X4, "n": [4, 4.0]},
], ids=["c-str", "center-str", "radius-true", "theta0-str", "beta-false",
        "sector-radius-str", "bbox-str", "epsilon-str", "holder_c-true",
        "n-float-and-str", "n-float"])
def test_field_from_json_rejects_a_value_of_the_wrong_type(tmp_path, spec):
    write_grid_samples(tmp_path / "mu.bin", np.zeros((4, 4), dtype=complex))
    assert isinstance(field_from_json(_GRID_4X4, tmp_path), HolderGrid)
    with pytest.raises(FieldError, match="number|integer"):
        field_from_json(spec, tmp_path)
