"""Command-line interface: allowability, locus, solving, certification, rendering.

Every command prints a JSON run report to stdout and optionally writes its
artifact (CSV locus, binary grid map, JSON certificate, PPM image) through an
atomic temp-and-rename. Exit codes: 0 success or certification pass, 1
certification fail, 2 bad input, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .closed_maps import (DiskMapSpec, allowable_locus, eval_fc, fangle_map,
                          fc_map, identity_map, sector_invariants,
                          unrotate_corner)
from .field import DiskConstant, FieldError, field_from_json
from .modulus import NotSeparatedError, certify_bilipschitz
from .solver import ConvergenceError, GridMap, SolverConfig, SupportError, \
    grid_coordinates, solve_principal


def _parse_complex(text):
    try:
        parts = text.split(",")
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _parse_map(source):
    """Map source: builtin:identity | builtin:fc:re,im | builtin:fangle:re,im:theta0 | path.qcmap."""
    if source.startswith("builtin:"):
        rest = source[len("builtin:"):]
        if rest == "identity":
            return identity_map, {"kind": "identity"}
        if rest.startswith("fc:"):
            c = _parse_complex(rest[len("fc:"):])
            return fc_map(c), {"kind": "fc", "c": [c.real, c.imag]}
        if rest.startswith("fangle:"):
            body = rest[len("fangle:"):]
            try:
                c_text, theta_text = body.rsplit(":", 1)
            except ValueError:
                raise ValueError(f"expected builtin:fangle:re,im:theta0, got {source!r}")
            c = _parse_complex(c_text)
            theta0 = float(theta_text)
            return fangle_map(c, theta0), {"kind": "fangle",
                                           "c": [c.real, c.imag],
                                           "theta0": theta0}
        raise ValueError(f"unknown builtin map {source!r}")
    gm = GridMap.load(source)
    return gm, {"kind": "gridmap", "path": source, "shape": list(gm.shape)}


def _parse_centers(spec):
    if spec.startswith("grid:"):
        try:
            _, n_text, hw_text = spec.split(":")
            n = int(n_text)
            hw = float(hw_text)
        except ValueError:
            raise ValueError(f"expected grid:<n>:<halfwidth>, got {spec!r}")
        if n < 1 or hw <= 0:
            raise ValueError("grid centers need n >= 1 and halfwidth > 0")
        xs = np.linspace(-hw, hw, n) if n > 1 else np.array([0.0])
        X, Y = np.meshgrid(xs, xs)
        return (X + 1j * Y).ravel()
    pts = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if chunk:
            pts.append(_parse_complex(chunk))
    if not pts:
        raise ValueError(f"no centers in {spec!r}")
    return np.asarray(pts, dtype=complex)


def _atomic_write_bytes(path, payload):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".qcmap-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite_or_null(obj):
    """Copy of a report with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _emit(command, config, result, t0, out_path=None):
    """Print the run report as strict JSON: non-finite numbers become null."""
    report = {"command": command,
              "config": config,
              "result": result,
              "wall_time_ms": int((time.perf_counter() - t0) * 1000),
              "version": __version__}
    text = json.dumps(_finite_or_null(report), sort_keys=True, indent=2,
                      allow_nan=False)
    print(text)
    if out_path:
        _atomic_write_bytes(out_path, (text + "\n").encode())
    return report


def _cmd_allowable(args):
    t0 = time.perf_counter()
    c = args.c
    try:
        if args.alpha is not None:
            beta = args.beta or 0.0
            c_eff, theta0 = unrotate_corner(c, args.alpha, beta)
            mode = "corner"
        else:
            c_eff, theta0, beta, mode = c, args.theta0, None, "sector"
        spec = sector_invariants(c_eff, theta0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdict = abs(spec.lam.real - 1.0) <= args.tol
    result = {"mode": mode,
              "theta0": theta0,
              "c": [c.real, c.imag],
              "c_effective": [complex(c_eff).real, complex(c_eff).imag],
              "beta": beta,
              "R": spec.R,
              "theta1": spec.theta1,
              "lambda": [spec.lam.real, spec.lam.imag],
              "allowable": bool(verdict),
              "tol": args.tol}
    _emit("allowable", {"tol": args.tol}, result, t0, args.json)
    return 0


def _cmd_locus(args):
    t0 = time.perf_counter()
    try:
        locus = allowable_locus(args.theta0, samples=args.samples)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = ["re,im"]
    for p in locus.points:
        lines.append(f"{p.real:.17g},{p.imag:.17g}")
    _atomic_write_bytes(args.out, ("\n".join(lines) + "\n").encode())
    result = {"theta0": args.theta0,
              "samples": args.samples,
              "points": len(locus.points),
              "whole_disk": locus.whole_disk,
              "out": args.out}
    _emit("locus", {"samples": args.samples}, result, t0, args.json)
    return 0


def _cmd_solve(args):
    t0 = time.perf_counter()
    try:
        mu = field_from_json(args.field)
    except (FieldError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: bad field spec: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = SolverConfig(grid_n=args.grid_n, pad_factor=args.pad_factor,
                           tol=args.tol, max_iter=args.max_iter)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        gm = solve_principal(mu, cfg)
    except SupportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        result = {"converged": False, "residual": exc.residual,
                  "iterations": exc.iterations}
        _emit("solve", _solver_config_dict(cfg, args.field), result, t0, args.json)
        return 3
    gm.save(args.out)
    result = {"converged": True,
              "iterations": gm.iterations,
              "residual": gm.final_residual,
              "tail": [gm.tail.real, gm.tail.imag],
              "bbox": list(gm.bbox),
              "out": args.out,
              "timings_ms": gm.timings_ms,
              "observed_rate": gm.observed_rate,
              "sup_mu": gm.sup_mu}
    oracle = _disk_oracle_error(mu, gm)
    if oracle is not None:
        result["oracle_sup_error"] = oracle
    _emit("solve", _solver_config_dict(cfg, args.field), result, t0, args.json)
    return 0


def _solver_config_dict(cfg, field_path):
    return {"field": str(field_path), "grid_n": cfg.grid_n,
            "pad_factor": cfg.pad_factor, "tol": cfg.tol,
            "max_iter": cfg.max_iter}


def _disk_oracle_error(mu, gm):
    """Sup error against the closed-form disk solution, when it applies."""
    if not isinstance(mu, DiskConstant):
        return None
    spec = DiskMapSpec(mu.c)
    _, _, Z = grid_coordinates(gm.bbox, gm.values.shape)
    w = (Z - mu.center) / mu.radius
    sel = np.abs(w) <= 2.0
    exact = mu.center + mu.radius * eval_fc(spec, w[sel])
    return float(np.abs(gm.values[sel] - exact).max())


def _cmd_certify(args):
    t0 = time.perf_counter()
    try:
        f, meta = _parse_map(args.map)
        centers = _parse_centers(args.centers)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = {"map": meta, "centers": args.centers, "bound": args.bound,
              "annuli": args.annuli, "circle_samples": args.circle_samples,
              "r_min": args.r_min, "r_max": args.r_max, "seed": args.seed}
    try:
        report = certify_bilipschitz(
            f, centers, bound=args.bound, annuli_per_center=args.annuli,
            circle_samples=args.circle_samples, r_min=args.r_min,
            r_max=args.r_max, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotSeparatedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit("certify", config, {"verdict": "fail", "reason": str(exc)},
              t0, args.out)
        return 1
    _emit("certify", config, report.to_dict(), t0, args.out)
    return 0 if report.verdict else 1


def _curves_for_map(meta, window):
    """Reference curves: cartesian grid, circles, and boundary rays."""
    xmin, ymin, xmax, ymax = window
    diag = math.hypot(xmax - xmin, ymax - ymin)
    n = 4096
    curves = []
    step = max(xmax - xmin, ymax - ymin) / 8.0
    k0 = math.floor(xmin / step)
    k1 = math.ceil(xmax / step)
    ts = np.linspace(ymin, ymax, n)
    for k in range(k0, k1 + 1):
        curves.append(("grid", k * step + 1j * ts))
    k0 = math.floor(ymin / step)
    k1 = math.ceil(ymax / step)
    ts = np.linspace(xmin, xmax, n)
    for k in range(k0, k1 + 1):
        curves.append(("grid", ts + 1j * k * step))
    ring = np.exp(2j * math.pi * np.arange(n) / n)
    for r in (0.25, 0.5, 1.0, 2.0):
        if r <= diag:
            curves.append(("circle", r * ring))
    rays = [0.0]
    if meta.get("kind") == "fangle":
        rays.append(meta["theta0"])
    radii = np.exp(np.linspace(math.log(1e-3), math.log(diag), n))
    for ang in rays:
        curves.append(("ray", radii * np.exp(1j * ang)))
    return curves


_CURVE_COLORS = {"grid": (70, 130, 180), "circle": (200, 40, 40),
                 "ray": (30, 140, 60)}


def _cmd_render(args):
    t0 = time.perf_counter()
    try:
        f, meta = _parse_map(args.map)
        window = tuple(float(v) for v in args.window.split(","))
        if len(window) != 4 or window[0] >= window[2] or window[1] >= window[3]:
            raise ValueError(f"bad window {args.window!r}")
        if args.px < 16:
            raise ValueError(f"need --px >= 16, got {args.px}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    xmin, ymin, xmax, ymax = window
    width = args.px
    height = max(1, int(round(width * (ymax - ymin) / (xmax - xmin))))
    img = np.full((height, width, 3), 255, dtype=np.uint8)
    drawn = {}
    for kind, pts in _curves_for_map(meta, window):
        w = np.asarray(f(pts))
        px = np.floor((w.real - xmin) / (xmax - xmin) * width).astype(int)
        py = np.floor((ymax - w.imag) / (ymax - ymin) * height).astype(int)
        keep = (px >= 0) & (px < width) & (py >= 0) & (py < height)
        img[py[keep], px[keep]] = _CURVE_COLORS[kind]
        drawn[kind] = drawn.get(kind, 0) + int(keep.sum())
    header = f"P6\n{width} {height}\n255\n".encode()
    _atomic_write_bytes(args.out, header + img.tobytes())
    result = {"out": args.out, "width": width, "height": height,
              "points_drawn": drawn}
    _emit("render", {"map": meta, "window": list(window), "px": args.px},
          result, t0, args.json)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="qcmap",
                                description="quasiconformal map toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("allowable", help="sector/corner allowability of c")
    pa.add_argument("--theta0", type=float, default=None,
                    help="sector opening in radians")
    pa.add_argument("--c", type=_parse_complex, required=True)
    pa.add_argument("--alpha", type=float, default=None,
                    help="corner opening as a multiple of pi (corner mode)")
    pa.add_argument("--beta", type=float, default=None,
                    help="corner rotation in radians (corner mode)")
    pa.add_argument("--tol", type=float, default=1e-9)
    pa.add_argument("--json", default=None, help="also write the report here")
    pa.set_defaults(func=_cmd_allowable)

    pl = sub.add_parser("locus", help="sample the allowable locus to CSV")
    pl.add_argument("--theta0", type=float, required=True)
    pl.add_argument("--samples", type=int, default=256,
                    help="points along the arc of the locus")
    pl.add_argument("--out", required=True)
    pl.add_argument("--json", default=None)
    pl.set_defaults(func=_cmd_locus)

    ps = sub.add_parser("solve", help="solve the Beltrami equation on a grid")
    ps.add_argument("--field", required=True, help="field spec JSON path")
    ps.add_argument("--grid-n", type=int, default=512)
    ps.add_argument("--pad-factor", type=float, default=4.0)
    ps.add_argument("--tol", type=float, default=1e-8)
    ps.add_argument("--max-iter", type=int, default=1000)
    ps.add_argument("--out", required=True, help="output .qcmap path")
    ps.add_argument("--json", default=None)
    ps.set_defaults(func=_cmd_solve)

    pc = sub.add_parser("certify", help="modulus-gap bi-Lipschitz certification")
    pc.add_argument("--map", required=True,
                    help="builtin:identity | builtin:fc:re,im | "
                         "builtin:fangle:re,im:theta0 | path.qcmap")
    pc.add_argument("--centers", required=True,
                    help="grid:<n>:<halfwidth> or 're,im;re,im;...'")
    pc.add_argument("--bound", type=float, required=True)
    pc.add_argument("--annuli", type=int, default=20)
    pc.add_argument("--circle-samples", type=int, default=1024)
    pc.add_argument("--r-min", type=float, default=None)
    pc.add_argument("--r-max", type=float, default=None)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", default=None, help="write the JSON report here")
    pc.set_defaults(func=_cmd_certify)

    pr = sub.add_parser("render", help="render reference curves under a map")
    pr.add_argument("--map", required=True)
    pr.add_argument("--window", required=True, help="xmin,ymin,xmax,ymax")
    pr.add_argument("--px", type=int, default=512)
    pr.add_argument("--out", required=True, help="output .ppm path")
    pr.add_argument("--json", default=None)
    pr.set_defaults(func=_cmd_render)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "allowable" and args.alpha is None and args.theta0 is None:
        parser.error("allowable needs --theta0 (sector mode) or --alpha (corner mode)")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
