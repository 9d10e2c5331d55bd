"""End-to-end tests of the command-line interface and its file formats."""

import json
import math

import numpy as np
import pytest

from qcmap import cli
from qcmap.cli import main
from qcmap.closed_maps import is_allowable_sector
from qcmap.field import write_grid_samples
from qcmap.solver import GridMap


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


def test_solve_reports_phases_at_default_max_iter(tmp_path, capsys):
    # |c| = 0.95 needs 231 sweeps at n=256, past the old default of 200
    fld = _write_field(tmp_path, {"kind": "disk_constant", "c": [0.95, 0],
                                  "center": [0, 0], "radius": 1.0})
    rc, rep = run_cli(capsys, "solve", "--field", str(fld), "--grid-n", "256",
                      "--out", str(tmp_path / "m.qcmap"))
    assert rc == 0
    res = rep["result"]
    assert res["iterations"] > 200
    assert set(res["timings_ms"]) == {"sample", "iterate", "cauchy"}
    assert 0.85 < res["observed_rate"] < 0.95
    assert res["sup_mu"] == pytest.approx(0.95)


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


def test_solve_bad_field_exit_code(tmp_path, capsys):
    fld = _write_field(tmp_path, {"kind": "disk_constant", "c": [1.5, 0]})
    rc, _ = run_cli(capsys, "solve", "--field", str(fld),
                    "--out", str(tmp_path / "m.qcmap"))
    assert rc == 2


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
    rc, _ = run_cli(capsys, "render", "--map", "builtin:identity",
                    "--window", "2,-2,-2,2", "--out", str(tmp_path / "x.ppm"))
    assert rc == 2
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
