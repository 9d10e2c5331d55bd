"""The shared contracts of qcmap._arrays: pointwise shapes, the file writer,
the grid codec and the input rules."""

import errno
import json
import math
import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcmap import closed_maps, extension, field, solver
from qcmap.cli import main
from qcmap.field import (Composite, DiskConstant, FieldError, HolderGrid,
                         SectorConstant, read_grid_samples, write_grid_samples)
from qcmap.modulus import (AnnulusSpec, BoundingAnnuli, certify_bilipschitz,
                           default_eta, modulus_gap_bounds)
from qcmap.solver import GridMap


def _fields():
    rng = np.random.default_rng(3)
    grid = HolderGrid(samples=0.3 * rng.random((5, 6)) * np.exp(1j * rng.random((5, 6))),
                      bbox=(-0.8, -0.7, 0.6, 0.9), epsilon=1.0, holder_c=1.0)
    return [DiskConstant(c=0.5, radius=0.5),
            SectorConstant(c=0.3j, theta0=2.0, radius=0.6),
            grid,
            Composite((DiskConstant(c=0.5, center=-0.5, radius=0.4),
                       DiskConstant(c=0.2j, center=0.5, radius=0.4)))]


def _callables():
    """(id, callable z -> value, is a predicate) for every pointwise evaluator."""
    gm = GridMap(bbox=(-1, -1, 1, 1),
                 values=np.arange(16).reshape(4, 4) * (1 + 0.5j), tail=0.3)
    homeo = extension.CircleHomeo.from_fourier(a=(0.1,), b=(0.05,))
    out = [
        ("eval_fc", lambda z: closed_maps.eval_fc(0.4 + 0.2j, z), False),
        ("eval_fc_inverse",
         lambda z: closed_maps.eval_fc_inverse(0.4 + 0.2j, z), False),
        ("eval_fangle", lambda z: closed_maps.eval_fangle(
            closed_maps.sector_invariants(0.5, math.pi / 2), z), False),
        ("eval_gridmap", lambda z: solver.eval_gridmap(gm, z), False),
        ("extend_F", lambda z: extension.extend_F(homeo, z), False),
        ("mu_F", lambda z: extension.mu_F(homeo, z), False),
    ]
    for f in _fields():
        name = type(f).__name__
        out.append((f"{name}.evaluate", f.evaluate, False))
        out.append((f"{name}.support_contains", f.support_contains, True))
    return out


_CALLABLES = _callables()


@pytest.mark.parametrize("fn,predicate", [c[1:] for c in _CALLABLES],
                         ids=[c[0] for c in _CALLABLES])
def test_pointwise_shape_contract(fn, predicate):
    rng = np.random.default_rng(0)
    Z = (0.1 + 0.8 * rng.random((3, 4))) * np.exp(2j * math.pi * rng.random((3, 4)))
    out = fn(Z)
    assert isinstance(out, np.ndarray) and out.shape == (3, 4)
    flat = fn(Z.ravel())
    assert flat.shape == (12,)
    np.testing.assert_array_equal(out, flat.reshape(3, 4))
    for z, want in zip(Z.ravel(), flat):
        got = fn(np.asarray(z))
        assert type(got) is (bool if predicate else complex)
        assert got == want
    assert type(fn(complex(Z[0, 0]))) is (bool if predicate else complex)


def test_pointwise_keeps_the_callers_warning_location():
    bad = extension.CircleHomeo.from_fourier(a=[0.0, 1.2])
    with pytest.warns(RuntimeWarning) as rec:
        extension.mu_F(bad, 0.95 * np.exp(1j * math.pi / 2))
    assert rec[0].filename == __file__


# -- the QCMAP1 and QCFLD1 codec ------------------------------------------------

_finite = st.floats(-1e6, 1e6, allow_nan=False)
_FUZZ = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def _grids(draw, min_side):
    ny = draw(st.integers(min_side, 4))
    nx = draw(st.integers(min_side, 4))
    parts = draw(st.lists(_finite, min_size=2 * nx * ny, max_size=2 * nx * ny))
    vals = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    return vals.reshape(ny, nx)


def _save_map(path, values, tail):
    GridMap(bbox=(-1.5, -2.0, 1.0, 0.5), values=values, tail=tail).save(path)


def _formats():
    """(name, writer, reader, error) of the two formats."""
    return [("QCMAP1", lambda p, v: _save_map(p, v, 0.25 - 1j), GridMap.load,
             ValueError),
            ("QCFLD1", write_grid_samples, read_grid_samples, FieldError)]


@pytest.mark.parametrize("name,write,read,error", _formats(),
                         ids=[f[0] for f in _formats()])
@_FUZZ
@given(values=_grids(2), extra=st.binary(min_size=1, max_size=24))
def test_codec_round_trip_and_damage(tmp_path, name, write, read, error,
                                     values, extra):
    p = tmp_path / "grid.bin"
    write(p, values)
    good = p.read_bytes()
    got = read(p)
    if isinstance(got, GridMap):
        assert got.bbox == (-1.5, -2.0, 1.0, 0.5) and got.tail == 0.25 - 1j
        got = got.values
    np.testing.assert_array_equal(got, values)
    for cut in range(len(good)):
        p.write_bytes(good[:cut])
        with pytest.raises(error):
            read(p)
    p.write_bytes(good + extra)
    with pytest.raises(error, match="trailing"):
        read(p)


@pytest.mark.parametrize("name,write,read,error", _formats(),
                         ids=[f[0] for f in _formats()])
@_FUZZ
@given(dims=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
       rest=st.binary(max_size=160))
def test_codec_rejects_corrupt_headers(tmp_path, name, write, read, error,
                                       dims, rest):
    """Arbitrary dims and bytes after the magic load or raise ``error``."""
    p = tmp_path / "grid.bin"
    magic = solver.SOLVER_MAGIC if name == "QCMAP1" else field.FIELD_MAGIC
    p.write_bytes(magic + struct.pack("<II", *dims) + rest)
    try:
        read(p)
    except error:
        pass


def test_field_file_rejects_zero_dims(tmp_path):
    p = tmp_path / "mu.bin"
    p.write_bytes(field.FIELD_MAGIC + struct.pack("<II", 0, 3))
    with pytest.raises(FieldError, match="zero"):
        read_grid_samples(p)


# -- the file writer ----------------------------------------------------------

def _run_cli(*argv):
    """Run the CLI; a non-zero exit raises OSError."""
    rc = main([str(a) for a in argv])
    if rc:
        raise OSError(f"qcmap exited with {rc}")


def _cli_solve(dest, work):
    fld = work / "disk.json"
    fld.write_text(json.dumps({"kind": "disk_constant", "c": [0.3, 0.1]}))
    _run_cli("solve", "--field", fld, "--grid-n", 64, "--out", dest)


_GRID = np.full((3, 4), 0.3 - 0.1j)
_WRITERS = {
    "GridMap.save": lambda dest, work: _save_map(dest, _GRID, 0.25),
    "write_grid_samples": lambda dest, work: write_grid_samples(dest, _GRID),
    "solve": _cli_solve,
    "locus": lambda dest, work: _run_cli(
        "locus", "--theta0", 1, "--samples", 4, "--out", dest),
    "render": lambda dest, work: _run_cli(
        "render", "--map", "builtin:identity", "--window=-1,-1,1,1",
        "--px", 16, "--out", dest),
    "json": lambda dest, work: _run_cli(
        "allowable", "--theta0", 1, "--c", "0.3,0", "--json", dest),
}


@pytest.mark.parametrize("write", _WRITERS.values(), ids=_WRITERS.keys())
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, write):
    out = tmp_path / "out"
    out.mkdir()
    dest = out / "artifact"
    dest.write_bytes(b"old")

    def fail(src, dst):
        raise OSError(errno.EIO, "injected rename failure")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        write(dest, tmp_path)
    assert dest.read_bytes() == b"old"
    assert [q.name for q in out.iterdir()] == ["artifact"]


@pytest.mark.parametrize("write", _WRITERS.values(), ids=_WRITERS.keys())
def test_artifacts_get_the_umask_mode(tmp_path, write):
    dest = tmp_path / "artifact"
    old = os.umask(0o022)
    try:
        write(dest, tmp_path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(dest.stat().st_mode) == 0o644


_NAN = float("nan")


class _DiskField:
    """A duck-typed field: ``value`` on the closed unit disk, 0 off it."""

    def __init__(self, value):
        self.value = value

    def support_radius(self):
        return 1.0

    def evaluate(self, z):
        return np.where(np.abs(z) <= 1.0, self.value, 0j)


def _holder(samples=((0, 0), (0, 0)), epsilon=1.0, holder_c=1.0, mask=None):
    return HolderGrid(samples=samples, bbox=(-1, -1, 1, 1), epsilon=epsilon,
                      holder_c=holder_c, mask=mask)


@pytest.mark.parametrize("build", [
    lambda: closed_maps.sector_invariants(complex(_NAN), 1.0),
    lambda: closed_maps.is_allowable_sector(complex(_NAN), 1.0),
    lambda: closed_maps.fangle_map(complex(0.3, _NAN), 1.0),
    lambda: closed_maps.compose_dilatation(0.2, complex(_NAN), 0.0),
    lambda: solver.SolverConfig(grid_n=64, pad_factor=_NAN),
    lambda: solver.SolverConfig(grid_n=64, tol=math.inf),
    lambda: certify_bilipschitz(closed_maps.fc_map(0.9), [0, 1], bound=math.inf),
    lambda: certify_bilipschitz(closed_maps.fc_map(0.9), [0, 1], bound=_NAN),
    lambda: GridMap(bbox=(-1, -1, 1, 1), values=np.zeros((4, 4)),
                    tail=complex(_NAN, 0)),
    lambda: HolderGrid(samples=np.zeros((2, 2)), bbox=(-math.inf, -1, 1, 1),
                       epsilon=1.0, holder_c=1.0),
    *(lambda box=box: HolderGrid(samples=np.zeros((2, 2)), bbox=box,
                                 epsilon=1.0, holder_c=1.0)
      for box in [(_NAN, -1, 1, 1), (-1, -1, 1, math.inf), (-1, -1, 1),
                  (-1, -1, 1, 1, 2), (1, -1, 1, 1), (-1, 2, 1, 1)]),
    # a cell side beyond the support radius: pad_factor > grid_n / 2
    lambda: solver.SolverConfig(grid_n=64, pad_factor=1e16),
    lambda: solver.SolverConfig(grid_n=64, pad_factor=100),
    lambda: solver.SolverConfig(grid_n=64, max_iter=0),
    lambda: default_eta(_NAN),
    lambda: default_eta(math.inf),
    # a field that is not a Beltrami coefficient fails before the first sweep
    lambda: solver.solve_principal(_DiskField(complex(_NAN, 0)),
                                   solver.SolverConfig(grid_n=64)),
    lambda: solver.solve_principal(_DiskField(1.0 + 0j),
                                   solver.SolverConfig(grid_n=64)),
    lambda: DiskConstant(c=0.5, center=complex(math.inf, 0)),
    lambda: DiskConstant(c=0.5, radius=0.0),
    lambda: DiskConstant(c=0.5, radius=math.inf),
    lambda: SectorConstant(c=0.5, theta0=1.0, beta=math.inf),
    lambda: SectorConstant(c=0.5, theta0=1.0, radius=0.0),
    lambda: _holder(samples=np.zeros(4)),
    lambda: _holder(samples=np.zeros((1, 3))),
    lambda: _holder(epsilon=0.0),
    lambda: _holder(epsilon=1.5),
    lambda: _holder(holder_c=-1.0),
    lambda: _holder(holder_c=math.inf),
    lambda: _holder(mask=np.ones((3, 3), dtype=bool)),
    lambda: Composite(()),
    lambda: Composite((SectorConstant(c=0.5, theta0=1.0),
                       SectorConstant(c=0.5, theta0=1.0, beta=3.0))),
    lambda: field.field_from_json([{"kind": "disk_constant", "c": [0.5, 0]}]),
    lambda: modulus_gap_bounds(BoundingAnnuli(0j, 1.0, 1.0, 10.0, 1e6),
                               default_eta(1.0), AnnulusSpec(0j, 1.0, 2.0)),
    lambda: certify_bilipschitz(closed_maps.fc_map(0.5), [], bound=1.0),
    lambda: certify_bilipschitz(closed_maps.fc_map(0.5), [0, 1], bound=1.0,
                                annuli_per_center=0),
    lambda: solver.singular_transform(np.ones(4)),
    lambda: GridMap(bbox=(-1, -1, 1, 1), values=np.zeros(4)),
    lambda: extension.mu_F(extension.CircleHomeo.identity(), 0j),
    lambda: extension.mu_F(extension.CircleHomeo.identity(), 1.0),
], ids=["sector_invariants", "is_allowable_sector", "fangle_map",
        "compose_dilatation", "SolverConfig", "SolverConfig_tol_inf",
        "certify_bound_inf", "certify_bound_nan", "GridMap_tail_nan",
        "HolderGrid_bbox_inf", "HolderGrid_bbox_nan",
        "HolderGrid_bbox_ymax_inf", "HolderGrid_bbox_3_values",
        "HolderGrid_bbox_5_values", "HolderGrid_bbox_xmin_eq_xmax",
        "HolderGrid_bbox_ymin_gt_ymax", "SolverConfig_pad_1e16",
        "SolverConfig_pad_100", "SolverConfig_max_iter_0", "default_eta_nan",
        "default_eta_inf", "solve_nan_field", "solve_unit_field",
        "DiskConstant_center_inf", "DiskConstant_radius_0",
        "DiskConstant_radius_inf", "SectorConstant_beta_inf",
        "SectorConstant_radius_0", "HolderGrid_samples_1d",
        "HolderGrid_samples_1x3", "HolderGrid_epsilon_0",
        "HolderGrid_epsilon_1.5", "HolderGrid_holder_c_negative",
        "HolderGrid_holder_c_inf", "HolderGrid_mask_shape", "Composite_empty",
        "Composite_two_unbounded", "field_spec_not_an_object",
        "modulus_gap_wider_than_C_K", "certify_empty_test_set",
        "certify_no_annuli", "singular_transform_1d", "GridMap_values_1d",
        "mu_F_at_0", "mu_F_at_1"])
def test_nan_inputs_are_rejected_where_they_enter(build):
    with pytest.raises(ValueError):
        build()
