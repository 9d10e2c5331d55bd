"""End-to-end tests of the command-line interface and its file formats."""

import argparse
import json
import math
import struct

import numpy as np
import pytest

from qcmap import cli
from qcmap.cli import main
from qcmap.closed_maps import (DiskMapSpec, allowable_locus, eval_fc,
                               is_allowable_sector)
from qcmap.field import (FIELD_MAGIC, DiskConstant, SectorConstant,
                         write_grid_samples)
from qcmap.solver import GridMap, SolverConfig, grid_coordinates, \
    solve_principal


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip().startswith("{") else None
    return rc, report


def test_allowable_half_plane(capsys):
    rc, rep = run_cli(capsys, "allowable", "--theta0", str(math.pi),
                      "--c", "0.3,0.2")
    assert rc == 0
    assert rep["result"]["allowable"] is True
    lam = rep["result"]["lambda"]
    assert abs(complex(lam[0], lam[1]) - 1.0) < 1e-12
    assert rep["version"]


def test_allowable_sector_negative(capsys):
    rc, rep = run_cli(capsys, "allowable", "--theta0", "1.5707963",
                      "--c", "0.5,0", "--tol", "1e-3")
    assert rc == 0
    assert rep["result"]["allowable"] is False
    assert rep["result"]["lambda"][0] == pytest.approx(0.97033, abs=1e-4)
    assert rep["result"]["lambda"][1] == pytest.approx(-0.16966, abs=1e-4)


def test_allowable_trivial(capsys):
    rc, rep = run_cli(capsys, "allowable", "--theta0", "1.0", "--c", "0,0")
    assert rc == 0
    assert rep["result"]["allowable"] is True


def test_allowable_corner_mode(capsys):
    rc, rep = run_cli(capsys, "allowable", "--c", "0.5,0",
                      "--alpha", "0.5", "--beta", str(math.pi / 4))
    assert rc == 0
    want = is_allowable_sector(-0.5j, math.pi / 2, tol=1e-9)
    assert rep["result"]["allowable"] == want
    assert rep["result"]["mode"] == "corner"


def test_allowable_rejects_big_c(capsys):
    rc, _ = run_cli(capsys, "allowable", "--theta0", "1.0", "--c", "1.2,0")
    assert rc == 2


def test_locus_csv(tmp_path, capsys):
    out = tmp_path / "locus.csv"
    rc, rep = run_cli(capsys, "locus", "--theta0", str(math.pi / 2),
                      "--samples", "128", "--out", str(out))
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) - 1 == rep["result"]["points"] >= 2
    for line in lines[1:]:
        re, im = (float(v) for v in line.split(","))
        assert is_allowable_sector(complex(re, im), math.pi / 2, tol=1e-9)


def test_locus_half_plane_flag(tmp_path, capsys):
    out = tmp_path / "locus.csv"
    rc, rep = run_cli(capsys, "locus", "--theta0", str(math.pi),
                      "--out", str(out))
    assert rc == 0
    assert rep["result"]["whole_disk"] is True
    assert out.read_text().strip() == "re,im"


def test_locus_bad_theta(tmp_path, capsys):
    rc, _ = run_cli(capsys, "locus", "--theta0", "7.0",
                    "--out", str(tmp_path / "x.csv"))
    assert rc == 2


def _write_field(tmp_path, spec, name="field.json"):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return p


def test_solve_zero_field(tmp_path, capsys):
    fld = _write_field(tmp_path, {"kind": "disk_constant", "c": [0, 0],
                                  "center": [0, 0], "radius": 1.0})
    out = tmp_path / "map.qcmap"
    rc, rep = run_cli(capsys, "solve", "--field", str(fld), "--grid-n", "64",
                      "--out", str(out))
    assert rc == 0
    assert rep["result"]["iterations"] == 1
    gm = GridMap.load(out)
    assert gm.tail == 0
    assert rep["result"]["oracle_sup_error"] < 1e-12


def test_solve_disk_reports_oracle_error(tmp_path, capsys):
    fld = _write_field(tmp_path, {"kind": "disk_constant", "c": [0.5, 0],
                                  "center": [0, 0], "radius": 1.0})
    out = tmp_path / "map.qcmap"
    rc, rep = run_cli(capsys, "solve", "--field", str(fld), "--grid-n", "128",
                      "--out", str(out))
    assert rc == 0
    assert rep["result"]["oracle_sup_error"] < 4e-2
    tail = rep["result"]["tail"]
    assert abs(complex(tail[0], tail[1]) - 0.5) < 1e-2


@pytest.mark.parametrize("center, radius, shape", [
    (0j, 1.0, (128, 128)),
    (0.3 - 0.2j, 0.7, (64, 64)),
    (-1.1 + 0.4j, 0.45, (48, 80)),
])
def test_disk_oracle_error_keeps_the_whole_grid_arithmetic(center, radius,
                                                           shape):
    # the oracle evaluates only the rows and columns near the disk; a map
    # equal to the whole-grid oracle on its nodes within two radii, and far
    # from it elsewhere, must read exactly 0, and 1 once its outermost node
    # within two radii moves by 1
    mu = DiskConstant(c=0.4 - 0.3j, center=center, radius=radius)
    bbox = (-2.5, -2.1, 2.2, 2.6)
    _, _, Z = grid_coordinates(bbox, shape)
    w = (Z - mu.center) / mu.radius
    sel = np.abs(w) <= 2.0
    values = np.full(shape, 100.0 + 0j)
    values[sel] = mu.center + mu.radius * eval_fc(DiskMapSpec(mu.c), w[sel])
    assert cli._disk_oracle_error(mu, GridMap(bbox=bbox, values=values)) == 0
    values.flat[np.argmax(np.where(sel, np.abs(w), -1.0))] += 1.0
    assert cli._disk_oracle_error(mu, GridMap(bbox=bbox, values=values)) \
        == pytest.approx(1.0)


def test_solve_reports_phases_at_default_max_iter(tmp_path, capsys):
    # |c| = 0.95 needs 276 sweeps at n=256 to bound the change still to
    # come in Phi by 1e-8, past the old default max_iter of 200
    fld = _write_field(tmp_path, {"kind": "disk_constant", "c": [0.95, 0],
                                  "center": [0, 0], "radius": 1.0})
    rc, rep = run_cli(capsys, "solve", "--field", str(fld), "--grid-n", "256",
                      "--tol", "1e-8", "--out", str(tmp_path / "m.qcmap"))
    assert rc == 0
    res = rep["result"]
    assert res["iterations"] > 200
    assert res["iteration_error_bound"] <= 1e-8
    assert set(res["timings_ms"]) == {"sample", "kernels", "iterate",
                                      "cauchy"}
    assert 0.85 < res["observed_rate"] < 0.95
    assert res["sup_mu"] == pytest.approx(0.95)


def test_solve_reports_iteration_error_bound(tmp_path, capsys):
    # without --tol the solve stops once the bound on Phi is <= 0.01 h
    fld = _write_field(tmp_path, {"kind": "disk_constant", "c": [0.95, 0]})
    rc, rep = run_cli(capsys, "solve", "--field", str(fld), "--grid-n", "256",
                      "--out", str(tmp_path / "m.qcmap"))
    assert rc == 0
    assert rep["config"]["tol"] is None
    res = rep["result"]
    assert res["iterations"] < 200
    assert 0 < res["iteration_error_bound"] <= 0.01 * 8 / 256


def test_solve_round_trip_bit_exact(tmp_path, capsys):
    fld = _write_field(tmp_path, {"kind": "disk_constant", "c": [0.3, 0.1],
                                  "center": [0, 0], "radius": 1.0})
    out = tmp_path / "map.qcmap"
    rc, _ = run_cli(capsys, "solve", "--field", str(fld), "--grid-n", "64",
                    "--out", str(out))
    assert rc == 0
    first = out.read_bytes()
    gm = GridMap.load(out)
    gm.save(out)
    assert out.read_bytes() == first


def test_solve_nonconvergence_exit_code(tmp_path, capsys):
    fld = _write_field(tmp_path, {"kind": "disk_constant", "c": [0.99, 0],
                                  "center": [0, 0], "radius": 1.0})
    rc, rep = run_cli(capsys, "solve", "--field", str(fld), "--grid-n", "64",
                      "--max-iter", "5", "--tol", "1e-10",
                      "--out", str(tmp_path / "m.qcmap"))
    assert rc == 3
    assert rep["result"]["converged"] is False
    assert rep["result"]["residual"] > 0
    assert rep["result"]["iteration_error_bound"] > 0


def test_solve_bad_field_exit_code(tmp_path, capsys):
    fld = _write_field(tmp_path, {"kind": "disk_constant", "c": [1.5, 0]})
    rc, _ = run_cli(capsys, "solve", "--field", str(fld),
                    "--out", str(tmp_path / "m.qcmap"))
    assert rc == 2


_GRID_SPEC = {"kind": "holder_grid", "bbox": [-1, -1, 1, 1], "n": [2, 2],
              "epsilon": 1.0, "holder_c": 0.3, "data_file": "mu.bin"}


@pytest.mark.parametrize("spec,mu_bin", [
    ({"kind": "disk_constant"}, None),
    ({"kind": "disk_constant", "c": ["x", 0]}, None),
    ({"kind": "disk_constant", "c": [0.5, 0], "radius": "big"}, None),
    ({"kind": "composite", "members": 3}, None),
    (_GRID_SPEC, FIELD_MAGIC + b"\x02\x00"),
    (_GRID_SPEC, FIELD_MAGIC + struct.pack("<II", 2, 2) + bytes(16 * 4 + 3)),
    ({"kind": "composite", "members": ["field.json"]}, None),
    ({"kind": "disk_constant", "c": ["0.5", 0]}, None),
    (_GRID_SPEC, FIELD_MAGIC + struct.pack("<II", 2, 2)
     + struct.pack("<8d", math.nan, *[0.0] * 7)),
    ([{"kind": "disk_constant", "c": [0.5, 0]}], None),
], ids=["missing-c", "non-numeric-c", "non-numeric-radius",
        "members-not-a-list", "10-byte-mu-bin", "ragged-mu-bin",
        "composite-includes-itself", "string-c", "nan-mu-bin",
        "spec-not-an-object"])
def test_solve_rejects_malformed_field_with_exit_two(tmp_path, capsys, spec,
                                                     mu_bin):
    if mu_bin is not None:
        (tmp_path / "mu.bin").write_bytes(mu_bin)
    fld = _write_field(tmp_path, spec)
    rc = main(["solve", "--field", str(fld), "--grid-n", "64",
               "--out", str(tmp_path / "m.qcmap")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("pad_factor", ["100", "1e308"])
def test_solve_pad_factor_beyond_half_the_grid_exits_two(tmp_path, capsys,
                                                        pad_factor):
    # past grid_n / 2 a cell side is larger than the support radius
    fld = _write_field(tmp_path, {"kind": "disk_constant", "c": [0.5, 0]})
    out = tmp_path / "m.qcmap"
    rc = main(["solve", "--field", str(fld), "--grid-n", "64",
               "--pad-factor", pad_factor, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: need 2 <= pad_factor <= grid_n / 2 = 32\n"
    assert not out.exists()


def test_solve_of_overlapping_composite_members_exits_two(tmp_path, capsys):
    # two sectors that share a wedge 1e-4 rad wide, which the composite's
    # disjointness sampler misses and the n=256 grid samples
    fld = _write_field(tmp_path, {"kind": "composite", "members": [
        {"kind": "sector_constant", "c": [0.6, 0], "theta0": 1.0,
         "beta": beta, "radius": 1.0} for beta in (0.0, 0.9999)]})
    out = tmp_path / "m.qcmap"
    rc = main(["solve", "--field", str(fld), "--grid-n", "256",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "overlap" in captured.err and captured.err.count("\n") == 1
    assert not out.exists()


def test_solve_of_a_disk_between_the_nodes_reports_no_oracle(tmp_path,
                                                             capsys):
    # no node lies within two radii of this disk's center, so the oracle
    # has nothing to compare; the solve still writes its map and succeeds
    fld = _write_field(tmp_path, {"kind": "disk_constant", "c": [0.5, 0],
                                  "center": [10, 0], "radius": 0.01})
    out = tmp_path / "m.qcmap"
    rc, rep = run_cli(capsys, "solve", "--field", str(fld), "--grid-n", "64",
                      "--out", str(out))
    assert rc == 0 and out.exists()
    assert "oracle_sup_error" not in rep["result"]


def test_unwritable_output_path_exits_two(tmp_path, capsys):
    rc = main(["locus", "--theta0", "1.0", "--samples", "4",
               "--out", str(tmp_path / "missing-dir" / "locus.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_report_path_prints_nothing(tmp_path, capsys):
    # the report is written before it is printed, and the error names the
    # path given, not the temp file beside it
    report = tmp_path / "missing-dir" / "x.json"
    rc = main(["locus", "--theta0", "1", "--samples", "4",
               "--out", str(tmp_path / "l.csv"), "--json", str(report)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert str(report) in captured.err and ".qcmap-tmp-" not in captured.err


def test_solve_report_is_the_gridmap_dict(tmp_path, capsys):
    spec = {"kind": "disk_constant", "c": [0.3, 0.1], "center": [0, 0],
            "radius": 1.0}
    fld = _write_field(tmp_path, spec)
    rc, rep = run_cli(capsys, "solve", "--field", str(fld), "--grid-n", "64",
                      "--out", str(tmp_path / "m.qcmap"))
    assert rc == 0
    lib = solve_principal(DiskConstant(c=0.3 + 0.1j),
                          SolverConfig(grid_n=64)).to_dict()
    res = rep["result"]
    assert set(res) == set(lib) | {"converged", "out", "oracle_sup_error"}
    assert set(res.pop("timings_ms")) == set(lib.pop("timings_ms"))
    assert {k: res[k] for k in lib} == lib
    assert rep["config"] == {"field": str(fld), "grid_n": 64,
                             "pad_factor": 4.0, "tol": None, "max_iter": 1000}


def test_solve_holder_grid_field(tmp_path, capsys):
    n = 64
    xs = np.linspace(-1, 1, n)
    X, Y = np.meshgrid(xs, xs)
    Z = X + 1j * Y
    samples = np.where(np.abs(Z) <= 0.8, 0.3 * np.abs(Z), 0.0).astype(complex)
    write_grid_samples(tmp_path / "mu.bin", samples)
    fld = _write_field(tmp_path, {"kind": "holder_grid", "bbox": [-1, -1, 1, 1],
                                  "n": [n, n], "epsilon": 1.0, "holder_c": 0.3,
                                  "data_file": "mu.bin"})
    rc, rep = run_cli(capsys, "solve", "--field", str(fld), "--grid-n", "128",
                      "--out", str(tmp_path / "m.qcmap"))
    assert rc == 0
    assert rep["result"]["converged"] is True


def test_certify_identity(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc, rep = run_cli(capsys, "certify", "--map", "builtin:identity",
                      "--centers", "grid:3:1.4", "--bound", "1e-9",
                      "--out", str(out))
    assert rc == 0
    assert rep["result"]["verdict"] == "pass"
    assert rep["result"]["sup_gap"] < 1e-10
    disk = json.loads(out.read_text())
    assert disk["result"]["verdict"] == "pass"


def test_certify_fc_passes(capsys):
    rc, rep = run_cli(capsys, "certify", "--map", "builtin:fc:0.5,0",
                      "--centers", "grid:3:1.4",
                      "--bound", str(2 * math.log(3.0) + 0.1),
                      "--annuli", "10")
    assert rc == 0
    assert rep["result"]["verdict"] == "pass"
    assert rep["result"]["lipschitz_min"] >= 0.49
    assert rep["result"]["lipschitz_max"] <= 1.51


def test_certify_fangle_nonallowable_fails(capsys):
    theta0 = math.pi / 2
    rc, rep = run_cli(capsys, "certify", "--map",
                      f"builtin:fangle:0.5,0:{theta0}",
                      "--centers", "0,0;0.5,0.5",
                      "--bound", "0.2", "--annuli", "16",
                      "--r-min", "2e-6", "--r-max", "1.0")
    assert rc == 1
    assert rep["result"]["verdict"] == "fail"
    zero = [g for g in rep["result"]["gaps"] if g["center"] == [0.0, 0.0]]
    zero.sort(key=lambda g: g["modulus"])
    # the modulus gap at the corner grows with the annulus modulus
    assert zero[-1]["gap"] > zero[0]["gap"]
    assert zero[-1]["gap"] > 0.2


def test_certify_map_from_file(tmp_path, capsys):
    fld = _write_field(tmp_path, {"kind": "disk_constant", "c": [0.3, 0],
                                  "center": [0, 0], "radius": 1.0})
    mp = tmp_path / "m.qcmap"
    rc, _ = run_cli(capsys, "solve", "--field", str(fld), "--grid-n", "128",
                    "--out", str(mp))
    assert rc == 0
    rc, rep = run_cli(capsys, "certify", "--map", str(mp),
                      "--centers", "grid:3:1.0", "--bound", "1.0",
                      "--annuli", "8")
    assert rc == 0
    assert rep["result"]["verdict"] == "pass"


def test_certify_solved_map_gap_matches_closed_form(tmp_path, capsys):
    # annuli smaller than a cell measure the bilinear interpolant, not the
    # map: without the resolution floor the gap is 0.053 above fc's
    c = -0.7593549359674384 + 0.5613125776051014j
    mp = tmp_path / "m.qcmap"
    solve_principal(DiskConstant(c=c), SolverConfig(grid_n=256)).save(mp)
    bound = str(2 * math.log((1 + abs(c)) / (1 - abs(c))) + 0.1)
    gaps = []
    for source in (str(mp), f"builtin:fc:{c.real!r},{c.imag!r}"):
        rc, rep = run_cli(capsys, "certify", "--map", source,
                          "--centers", "grid:3:1.4", "--bound", bound)
        assert rc == 0
        gaps.append(rep["result"]["sup_gap"])
    assert abs(gaps[0] - gaps[1]) <= 0.02


def test_certify_reports_the_radii_it_used(tmp_path, capsys):
    # no --r-min: the default is raised to the map's resolution floor, 2h
    mp = tmp_path / "m.qcmap"
    gm = solve_principal(DiskConstant(c=0.5), SolverConfig(grid_n=64))
    gm.save(mp)
    rc, rep = run_cli(capsys, "certify", "--map", str(mp),
                      "--centers", "grid:3:1.4", "--bound", "2.3")
    assert rc == 0
    res = rep["result"]
    assert rep["config"]["r_min"] is None
    assert res["r_min"] == gm.resolution == 0.25
    assert min(g["r1"] for g in res["gaps"]) == pytest.approx(res["r_min"])
    assert max(g["r2"] for g in res["gaps"]) == res["r_max"]


def test_certify_solved_nonallowable_corner_does_not_pass(tmp_path, capsys):
    # criterion 5's annuli reach far below the cell size of this map, where
    # the interpolant is smooth and passed with sup gap 1.93
    mp = tmp_path / "s.qcmap"
    gm = solve_principal(SectorConstant(c=-0.8, theta0=math.pi / 2, radius=1),
                         SolverConfig(grid_n=512, pad_factor=2.0))
    gm.save(mp)
    rc, rep = run_cli(capsys, "certify", "--map", str(mp),
                      "--centers=0,0;0.4,0.3", "--bound", "2.5",
                      "--annuli", "26", "--r-min", "2.26e-6", "--r-max", "1.0")
    assert rc != 0
    assert rep["result"]["verdict"] == "fail"
    assert rep["result"]["unresolved"] > 0


def test_certify_nonfinite_map_exits_one(monkeypatch, capsys):
    def holed(z):
        z = np.asarray(z, dtype=complex)
        return np.where(np.abs(z) < 0.5, np.nan, z)

    monkeypatch.setattr(cli, "_parse_map",
                        lambda source: (holed, {"kind": "holed"}))
    rc, rep = run_cli(capsys, "certify", "--map", "holed",
                      "--centers", "0,0;1,0", "--bound", "1.0")
    assert rc == 1
    assert rep["result"]["verdict"] == "fail"
    assert rep["result"]["nonfinite"] > 0


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token} in the report")


def test_certify_report_is_strict_json(capsys):
    # one center and no test-point pair: the Lipschitz estimates are
    # undefined and must come out as null, not as a bare NaN token
    rc = main(["certify", "--map", "builtin:fc:0.5,0", "--centers", "0,0",
               "--bound", "3", "--r-min", "0.01", "--r-max", "1"])
    rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rc == 0
    assert rep["result"]["verdict"] == "pass"
    assert rep["result"]["lipschitz_pairs"] == 0
    assert rep["result"]["lipschitz_min"] is None
    assert rep["result"]["lipschitz_max"] is None
    assert math.isfinite(rep["result"]["sup_gap"])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_certify_all_infinite_map_report_is_strict_json(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parse_map",
                        lambda source: (lambda z: np.full(np.shape(z), np.inf + 0j),
                                        {"kind": "infinite"}))
    rc = main(["certify", "--map", "infinite", "--centers", "0,0;1,0",
               "--bound", "1.0", "--annuli", "3"])
    rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rc == 1
    assert rep["result"]["verdict"] == "fail"
    assert rep["result"]["sup_gap"] is None


def test_locus_rejects_no_samples(tmp_path, capsys):
    rc, _ = run_cli(capsys, "locus", "--theta0", "1.0", "--samples", "0",
                    "--out", str(tmp_path / "x.csv"))
    assert rc == 2


# a QCMAP1 header: magic, dims, bbox at bytes 16-48, tail 48-64, samples
_BAD_MAPS = {"nan box": (16, math.nan), "unordered box": (16, 5.0),
             "nan tail": (48, math.nan), "inf tail": (56, math.inf),
             "nan sample": (64, math.nan)}


def _damaged_map(path, what):
    GridMap(bbox=(-1, -1, 1, 1), values=np.zeros((4, 4))).save(path)
    offset, value = _BAD_MAPS[what]
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize("what", sorted(_BAD_MAPS))
def test_gridmap_load_names_the_file_of_a_bad_box_or_value(tmp_path, what):
    p = _damaged_map(tmp_path / "bad.qcmap", what)
    with pytest.raises(ValueError, match="(box|finite).* in .*bad.qcmap$"):
        GridMap.load(p)


@pytest.mark.parametrize("what", sorted(_BAD_MAPS))
def test_bad_map_file_is_bad_input_naming_the_path(tmp_path, capsys, what):
    p = _damaged_map(tmp_path / "bad.qcmap", what)
    for argv in (["certify", "--map", str(p), "--centers", "0,0",
                  "--bound", "2.0"],
                 ["render", "--map", str(p), "--window=-1,-1,1,1",
                  "--px", "16", "--out", str(tmp_path / "x.ppm")]):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(p) in err[0]


def test_certify_bad_map_source(capsys):
    rc, _ = run_cli(capsys, "certify", "--map", "builtin:nope",
                    "--centers", "0,0", "--bound", "1.0")
    assert rc == 2


def test_render_deterministic_ppm(tmp_path, capsys):
    out1 = tmp_path / "a.ppm"
    out2 = tmp_path / "b.ppm"
    for out in (out1, out2):
        rc, rep = run_cli(capsys, "render", "--map", "builtin:identity",
                          "--window=-2,-2,2,2", "--px", "128",
                          "--out", str(out))
        assert rc == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"P6\n128 128\n255\n")
    assert len(b1) == len(b"P6\n128 128\n255\n") + 128 * 128 * 3


def test_render_fc_ellipse_axes(tmp_path, capsys):
    # window sized so only the unit-circle image (the 1.5 x 0.5 ellipse) and
    # smaller circles are visible; the red bounding box has axis ratio 3
    out = tmp_path / "fc.ppm"
    rc, _ = run_cli(capsys, "render", "--map", "builtin:fc:0.5,0",
                    "--window=-1.6,-0.6,1.6,0.6", "--px", "320",
                    "--out", str(out))
    assert rc == 0
    raw = out.read_bytes()
    header, rest = raw.split(b"\n255\n", 1)
    w, h = (int(v) for v in header.split(b"\n")[1].split())
    img = np.frombuffer(rest, dtype=np.uint8).reshape(h, w, 3)
    red = ((img[:, :, 0] == 200) & (img[:, :, 1] == 40) & (img[:, :, 2] == 40))
    ys, xs = np.nonzero(red)
    x_extent = (xs.max() - xs.min()) / w * 3.2
    y_extent = (ys.max() - ys.min()) / h * 1.2
    assert x_extent / y_extent == pytest.approx(3.0, abs=0.15)


def test_render_bad_window(tmp_path, capsys):
    for window in ["2,-2,-2,2", "nan,-2,2,2", "-2,-2,inf,2", "-2,-inf,2,2",
                   "-2,-2,2", "-2,-2,2,2,3", "1,-2,1,2", "-2,3,2,2"]:
        rc = main(["render", "--map", "builtin:identity", f"--window={window}",
                   "--out", str(tmp_path / "x.ppm")])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.ppm").exists()
    rc, _ = run_cli(capsys, "render", "--map", "builtin:identity",
                    "--window", "0,0,2,2", "--px", "4",
                    "--out", str(tmp_path / "x.ppm"))
    assert rc == 2


def test_solve_bad_grid_n_exits_two(tmp_path, capsys):
    fld = _write_field(tmp_path, {"kind": "disk_constant", "c": [0.2, 0]})
    rc, _ = run_cli(capsys, "solve", "--field", str(fld), "--grid-n", "100",
                    "--out", str(tmp_path / "m.qcmap"))
    assert rc == 2


def test_certify_bad_radii_exits_two(capsys):
    rc, _ = run_cli(capsys, "certify", "--map", "builtin:identity",
                    "--centers", "0,0", "--bound", "1.0",
                    "--r-min", "2.0", "--r-max", "1.0")
    assert rc == 2


def test_certify_deterministic_given_seed(capsys):
    args = ("certify", "--map", "builtin:fc:0.3,0.1", "--centers", "grid:2:1.0",
            "--bound", "3.0", "--annuli", "6", "--seed", "7")
    _, rep1 = run_cli(capsys, *args)
    _, rep2 = run_cli(capsys, *args)
    assert rep1["result"] == rep2["result"]
    assert rep1["config"]["seed"] == 7


def test_certify_negative_seed_exits_two(capsys):
    # 9 centers draw no Lipschitz subsample, and the seed is still checked
    rc = main(["certify", "--map", "builtin:fc:0.5,0", "--centers", "grid:3:1.4",
               "--bound", "3", "--seed", "-1"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: seed must be non-negative, got -1\n"


def test_allowable_json_side_file(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc, rep = run_cli(capsys, "allowable", "--theta0", "1.0", "--c", "0.1,0",
                      "--json", str(out))
    assert rc == 0
    assert json.loads(out.read_text())["result"] == rep["result"]


def test_render_fangle_includes_sector_rays(tmp_path, capsys):
    out = tmp_path / "sector.ppm"
    rc, rep = run_cli(capsys, "render", "--map",
                      f"builtin:fangle:0.5,0:{math.pi / 2}",
                      "--window=-2,-2,2,2", "--px", "128", "--out", str(out))
    assert rc == 0
    assert rep["result"]["points_drawn"]["ray"] > 0
    assert out.read_bytes().startswith(b"P6\n")


def test_certify_all_skipped_exits_one(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc, _ = run_cli(capsys, "certify", "--map", "builtin:fc:0.5,0",
                    "--centers", "0,0", "--bound", "1.0", "--annuli", "2",
                    "--r-min", "0.5", "--r-max", "1.0", "--out", str(out))
    assert rc == 1
    assert json.loads(out.read_text())["result"]["verdict"] == "fail"


def test_solve_unbounded_sector_exits_two(tmp_path, capsys):
    fld = _write_field(tmp_path, {"kind": "sector_constant", "c": [0.3, 0],
                                  "theta0": 1.0})
    rc, _ = run_cli(capsys, "solve", "--field", str(fld),
                    "--out", str(tmp_path / "m.qcmap"))
    assert rc == 2


def test_fangle_ray_renders_as_log_spiral(capsys):
    # the rendered image of the positive real axis satisfies: log|w| is a
    # linear function of the (lifted) argument of w
    from qcmap.closed_maps import fangle_map, sector_invariants
    s = sector_invariants(0.5, math.pi / 2)
    f = fangle_map(0.5, math.pi / 2)
    r = np.exp(np.linspace(math.log(1e-3), math.log(3.0), 200))
    w = f(r + 0j)
    logmod = np.log(np.abs(w))
    arg_lift = np.unwrap(np.angle(w))
    coef = np.polyfit(arg_lift, logmod, 1)
    resid = logmod - np.polyval(coef, arg_lift)
    assert np.abs(resid).max() < 1e-9
    # slope of the spiral: log|w| = (Re lam / Im lam) * arg(w) along the axis
    assert coef[0] == pytest.approx(s.lam.real / s.lam.imag, rel=1e-9)


@pytest.mark.parametrize("argv", [
    ["allowable", "--theta0", "1.5", "--c", "nan,0"],
    ["allowable", "--c", "0.3,0", "--alpha", "0.5", "--beta", "nan"],
    ["render", "--map", "builtin:fangle:nan,0:1.5", "--window=-2,-2,2,2"],
    ["certify", "--map", "builtin:fc:abc", "--centers", "0,0;1,0",
     "--bound", "1"],
    ["certify", "--map", "builtin:identity", "--centers", "0,0;x,1",
     "--bound", "1"],
    ["certify", "--map", "builtin:identity", "--centers", "0,0;nan,0",
     "--bound", "1", "--r-min", "0.01", "--r-max", "1"],
    ["certify", "--map", "builtin:identity", "--centers", "0,0;1,0",
     "--bound", "inf"],
    ["solve", "--field", "{tmp}/field.json", "--grid-n", "64",
     "--pad-factor", "nan"],
    ["allowable", "--theta0", "1", "--alpha", "0.5", "--c", "0.3,0"],
    ["allowable", "--theta0", "1", "--beta", "0.7", "--c", "0.3,0"],
    ["allowable", "--c", "0.3,0"],
    ["certify", "--map", "builtin:identity", "--centers", "grid:3",
     "--bound", "1"],
    ["certify", "--map", "builtin:identity", "--centers", "grid:0:1",
     "--bound", "1"],
    ["certify", "--map", "builtin:identity", "--centers", ";", "--bound", "1"],
    ["certify", "--map", "builtin:fangle:0.5,0", "--centers", "0,0;1,0",
     "--bound", "1"],
    ["certify", "--map", "builtin:nope", "--centers", "0,0;1,0",
     "--bound", "1"],
    ["allowable", "--theta0", "1", "--c", "1,2,3"],
], ids=["c", "beta", "fangle_c", "fc_c", "center", "nan_center", "bound",
        "pad_factor", "theta0-and-alpha", "beta-without-alpha", "no-mode",
        "grid-no-width", "grid-zero", "no-centers", "fangle-no-theta0",
        "unknown-builtin", "c-three-parts"])
def test_nonfinite_or_malformed_number_exits_two(tmp_path, capsys, argv):
    _write_field(tmp_path, {"kind": "disk_constant", "c": [0.5, 0]})
    argv = [a.format(tmp=tmp_path) for a in argv]
    if argv[0] in ("render", "solve"):
        argv = argv + ["--out", str(tmp_path / "out")]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects an option's value
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_solve_missing_field_file_names_it(tmp_path, capsys):
    missing = tmp_path / "missing_field"
    rc = main(["solve", "--field", str(missing), "--grid-n", "64",
               "--out", str(tmp_path / "m.qcmap")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert str(missing) in captured.err


# -- the report encoder and the parser tree -----------------------------------


def _null_pass(obj):
    """The reference null pass: a copy of ``obj`` with every non-finite float
    replaced by None, which ``json.dumps(allow_nan=False)`` then accepts."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _null_pass(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_pass(v) for v in obj]
    return obj


def _reference_text(obj):
    return json.dumps(_null_pass(obj), sort_keys=True, indent=2,
                      allow_nan=False)


_NOT_SEPARATED = ["certify", "--map", "builtin:fc:0.5,0", "--centers", "0,0",
                  "--bound", "1.0", "--annuli", "2", "--r-min", "0.5",
                  "--r-max", "1.0"]

_EVERY_REPORT = {
    "solve": (0, ["solve", "--field", "{tmp}/disk.json", "--grid-n", "64",
                  "--out", "{tmp}/m.qcmap", "--json", "{tmp}/r.json"]),
    "solve-not-converged": (3, ["solve", "--field", "{tmp}/hd.json",
                                "--grid-n", "64", "--max-iter", "1",
                                "--out", "{tmp}/m.qcmap",
                                "--json", "{tmp}/r.json"]),
    "certify-qcmap": (0, ["certify", "--map", "{tmp}/disk.qcmap",
                          "--centers", "grid:2:1", "--bound", "3",
                          "--annuli", "4", "--out", "{tmp}/r.json"]),
    "certify-fc": (0, ["certify", "--map", "builtin:fc:0.5,0.2",
                       "--centers", "grid:3:1.4", "--bound", "2.3",
                       "--out", "{tmp}/r.json"]),
    "certify-fangle": (0, ["certify", "--map", "builtin:fangle:0.4,0.3:1.2",
                           "--centers", "0,0;1,0", "--bound", "2.3",
                           "--annuli", "4", "--out", "{tmp}/r.json"]),
    "certify-not-separated": (1, _NOT_SEPARATED + ["--out", "{tmp}/r.json"]),
    "certify-no-pairs": (0, ["certify", "--map", "builtin:fc:0.5,0",
                             "--centers", "0,0", "--bound", "3",
                             "--r-min", "0.01", "--r-max", "1",
                             "--out", "{tmp}/r.json"]),
    "locus": (0, ["locus", "--theta0", "1.6", "--out", "{tmp}/l.csv",
                  "--json", "{tmp}/r.json"]),
    "locus-whole-disk": (0, ["locus", "--theta0", str(math.pi),
                             "--out", "{tmp}/l.csv",
                             "--json", "{tmp}/r.json"]),
    "render": (0, ["render", "--map", "builtin:fangle:0.4,0.3:1.2",
                   "--window=-2,-2,2,2", "--px", "32",
                   "--out", "{tmp}/r.ppm", "--json", "{tmp}/r.json"]),
    "allowable-sector": (0, ["allowable", "--theta0", "1", "--c", "0.3,0.2",
                             "--json", "{tmp}/r.json"]),
    "allowable-corner": (0, ["allowable", "--alpha", "0.5", "--beta", "0.2",
                             "--c", "0.3,0.2", "--json", "{tmp}/r.json"]),
}


@pytest.mark.parametrize("name", list(_EVERY_REPORT))
def test_report_bytes_equal_the_null_pass_and_json_dumps(name, tmp_path,
                                                          capsys,
                                                          monkeypatch):
    want_rc, argv = _EVERY_REPORT[name]
    _write_field(tmp_path, {"kind": "disk_constant", "c": [0.5, 0.1]},
                 "disk.json")
    _write_field(tmp_path, {"kind": "disk_constant", "c": [0.95, 0]},
                 "hd.json")
    if name == "certify-qcmap":
        assert main(["solve", "--field", str(tmp_path / "disk.json"),
                     "--grid-n", "64",
                     "--out", str(tmp_path / "disk.qcmap")]) == 0
        capsys.readouterr()
    reports = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit",
                        lambda *a, **k: reports.append(emit(*a, **k)))
    assert main([a.format(tmp=tmp_path) for a in argv]) == want_rc
    [report] = reports
    want = _reference_text(report) + "\n"
    assert capsys.readouterr().out == want
    assert (tmp_path / "r.json").read_text() == want
    timings = json.loads(want)["timings_ms"]
    assert set(timings) == {"import", "parse"}
    assert all(math.isfinite(v) and v >= 0 for v in timings.values())


def test_report_encoder_matches_json_dumps_on_edge_values():
    report = {"nan": math.nan, "inf": [math.inf, -math.inf],
              "zero": -0.0, "tiny": 5e-324, "huge": 1e308,
              "flags": [True, 1, False, 0, None],
              "empty": {"d": {}, "l": [], "t": ()},
              "tuple": (1.5, (2, [math.nan])),
              "np": [np.float64(0.1), np.float64(math.nan)],
              "text": 'caf\u00e9 "quoted"\nline', "caf\u00e9": 3,
              "nested": [[{"b": 1, "a": [{}]}]], "big": 10 ** 30}
    assert cli._json_text(report) == _reference_text(report)
    for scalar in (math.nan, "x", 7, 2.5, None, True, [], {}):
        assert cli._json_text(scalar) == _reference_text(scalar)
    for bad in (np.int64(1), np.bool_(True), {"a": {1, 2}}, object()):
        with pytest.raises(TypeError):
            json.dumps(bad)
        with pytest.raises(TypeError):
            cli._json_text(bad)


def test_second_main_call_builds_no_parser(monkeypatch, capsys):
    argv = ["allowable", "--theta0", "1", "--c", "0.3"]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == 0
    assert built == []


def _stdout_of(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_each_build_parser_call_gets_its_own_parser(capsys):
    first = cli.build_parser()
    first.parse_args = lambda argv=None: "patched"
    second = cli.build_parser()
    assert second is not first
    args = second.parse_args(["locus", "--theta0", "1", "--out", "x.csv"])
    assert args.theta0 == 1.0 and args.samples == 256
    fresh = cli._parser_tree.__wrapped__()
    assert second.format_help() == fresh.format_help()
    for argv in (["--version"], ["--help"], *(
            [cmd, "--help"]
            for cmd in ("allowable", "locus", "solve", "certify", "render"))):
        assert _stdout_of(cli.build_parser(), argv, capsys) \
            == _stdout_of(fresh, argv, capsys)


def _old_locus_csv(theta0, samples):
    """The CSV as formatted from the locus's numpy scalars."""
    lines = ["re,im"]
    for p in allowable_locus(theta0, samples=samples).points:
        lines.append(f"{p.real:.17g},{p.imag:.17g}")
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("theta0, samples", [
    (0.3, 256), (math.pi / 2, 256), (1.6, 256), (5.5, 256), (0.3, 1),
    (math.pi, 256)])
def test_locus_csv_bytes_equal_the_numpy_scalar_formatting(tmp_path, capsys,
                                                           theta0, samples):
    out = tmp_path / "l.csv"
    rc = main(["locus", "--theta0", repr(theta0), "--samples", str(samples),
               "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert out.read_bytes() == _old_locus_csv(theta0, samples)
