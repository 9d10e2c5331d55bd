"""Command-line interface: allowability, locus, solving, certification, rendering.

Every command prints a JSON run report to stdout and optionally writes its
artifact (CSV locus, binary grid map, JSON certificate, PPM image) through
the atomic temp-and-rename of ``_arrays.write_file``. Exit codes: 0 success
or certification pass, 1 certification fail, 2 bad input, 3 numeric
non-convergence.

Each ``_cmd_*`` function returns its exit code, config and result, and
``main`` writes the one run report of every command through ``_emit``.
The argparse tree is built once per process; ``build_parser`` hands each
caller its own shallow copy of it. A report is written in one pass by
``_json_text``, in the bytes of ``json.dumps(report, sort_keys=True,
indent=2)`` with every non-finite number written as ``null``.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__, _import_ms
from ._arrays import box, cell_centers, unit_circle, write_file
from .closed_maps import (DiskMapSpec, allowable_locus, eval_fc, fangle_map,
                          fc_map, identity_map, is_allowable_sector,
                          sector_invariants, unrotate_corner)
from .modulus import NotSeparatedError, certify_bilipschitz
from .solver import ConvergenceError, GridMap, SolverConfig, solve_principal


def _finite(text):
    """The float ``text`` spells; ValueError unless it is a finite number."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ValueError(f"expected a finite number, got {text!r}")


def _parse_complex(text):
    """'re' or 're,im' as a complex of finite parts; ValueError otherwise."""
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError(f"expected 're' or 're,im', got {text!r}")
    return complex(*map(_finite, parts))


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
            theta0 = _finite(theta_text)
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
            hw = _finite(hw_text)
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


_ENCODE_STR = json.encoder.encode_basestring_ascii


def _json_text(obj, indent="\n"):
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it,
    with every non-finite float written as null.

    ``indent`` is the newline and the spaces that precede ``obj``'s closing
    bracket. Dict keys must be strings; whatever ``json.dumps`` cannot
    encode raises TypeError. Floats, most of a report, are tested first:
    no float is also a str or an int.
    """
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return _ENCODE_STR(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_ENCODE_STR(k) + ": " + _json_text(obj[k], inner)
                 for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


def _emit(args, config, result, t0):
    """Write the run report of ``args.cmd`` to ``args.json``, then print it,
    as strict JSON: non-finite numbers become null. A failed write prints
    nothing."""
    report = {"command": args.cmd,
              "config": config,
              "result": result,
              "timings_ms": {"import": _import_ms, "parse": args.parse_ms},
              "wall_time_ms": int((time.perf_counter() - t0) * 1000),
              "version": __version__}
    text = _json_text(report)
    if args.json:
        write_file(args.json, text.encode(), b"\n")
    print(text)
    return report


def _cmd_allowable(args):
    c = args.c
    if args.alpha is not None:
        beta = args.beta or 0.0
        c_eff, theta0 = unrotate_corner(c, args.alpha, beta)
        mode = "corner"
    elif args.beta is not None:
        raise ValueError("--beta needs --alpha (corner mode)")
    else:
        c_eff, theta0, beta, mode = c, args.theta0, None, "sector"
    spec = sector_invariants(c_eff, theta0)
    result = {"mode": mode,
              "theta0": theta0,
              "c": [c.real, c.imag],
              "c_effective": [complex(c_eff).real, complex(c_eff).imag],
              "beta": beta,
              "R": spec.R,
              "theta1": spec.theta1,
              "lambda": [spec.lam.real, spec.lam.imag],
              "allowable": is_allowable_sector(c_eff, theta0, args.tol),
              "tol": args.tol}
    return 0, {"tol": args.tol}, result


def _cmd_locus(args):
    locus = allowable_locus(args.theta0, samples=args.samples)
    lines = ["re,im"]
    for p in locus.points.tolist():
        lines.append(f"{p.real:.17g},{p.imag:.17g}")
    write_file(args.out, ("\n".join(lines) + "\n").encode())
    result = {"theta0": args.theta0,
              "samples": args.samples,
              "points": len(locus.points),
              "whole_disk": locus.whole_disk,
              "out": args.out}
    return 0, {"samples": args.samples}, result


def _cmd_solve(args):
    from .field import field_from_json

    mu = field_from_json(args.field)
    cfg = SolverConfig(grid_n=args.grid_n, pad_factor=args.pad_factor,
                       tol=args.tol, max_iter=args.max_iter)
    config = {"field": str(args.field), **dataclasses.asdict(cfg)}
    try:
        gm = solve_principal(mu, cfg)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3, config, {"converged": False, "residual": exc.residual,
                           "iterations": exc.iterations,
                           "iteration_error_bound": exc.error_bound}
    oracle = _disk_oracle_error(mu, gm)
    gm.save(args.out)
    result = {"converged": True, "out": args.out, **gm.to_dict()}
    if oracle is not None:
        result["oracle_sup_error"] = oracle
    return 0, config, result


def _disk_oracle_error(mu, gm):
    """Sup error against the closed-form disk solution, when it applies.

    The sup is over the nodes within two radii of the disk's center, found
    on the rows and columns that reach that far, not on the whole grid;
    None without such a node (a disk much smaller than a cell).
    """
    from .field import DiskConstant

    if not isinstance(mu, DiskConstant):
        return None
    xmin, ymin, xmax, ymax = gm.bbox
    ny, nx = gm.values.shape
    xs = cell_centers(xmin, xmax, nx)
    ys = cell_centers(ymin, ymax, ny)
    # the margin keeps every node whose rounded |w| is at most 2
    reach = 2.0 * mu.radius * (1.0 + 1e-9)
    cols = np.flatnonzero(np.abs(xs - mu.center.real) <= reach)
    rows = np.flatnonzero(np.abs(ys - mu.center.imag) <= reach)
    w = (xs[None, cols] + 1j * ys[rows, None] - mu.center) / mu.radius
    sel = np.abs(w) <= 2.0
    if not sel.any():
        return None
    exact = mu.center + mu.radius * eval_fc(DiskMapSpec(mu.c), w[sel])
    return float(np.abs(gm.values[np.ix_(rows, cols)][sel] - exact).max())


def _cmd_certify(args):
    f, meta = _parse_map(args.map)
    # the floor is read here: a wrapper around f would hide it from the library
    resolution = getattr(f, "resolution", 0.0)
    centers = _parse_centers(args.centers)
    config = {"map": meta, "centers": args.centers, "bound": args.bound,
              "annuli": args.annuli, "circle_samples": args.circle_samples,
              "r_min": args.r_min, "r_max": args.r_max, "seed": args.seed}
    try:
        report = certify_bilipschitz(
            f, centers, bound=args.bound, annuli_per_center=args.annuli,
            circle_samples=args.circle_samples, r_min=args.r_min,
            r_max=args.r_max, seed=args.seed, resolution=resolution)
    except NotSeparatedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, config, {"verdict": "fail", "reason": str(exc)}
    return (0 if report.verdict else 1), config, report.to_dict()


def _curves_for_map(meta, window):
    """Reference curves: cartesian grid, circles, and boundary rays."""
    xmin, ymin, xmax, ymax = window
    diag = math.hypot(xmax - xmin, ymax - ymin)
    n = 4096
    curves = []
    step = max(xmax - xmin, ymax - ymin) / 8.0
    xs, ys = np.linspace(xmin, xmax, n), np.linspace(ymin, ymax, n)
    for k in range(math.floor(xmin / step), math.ceil(xmax / step) + 1):
        curves.append(("grid", k * step + 1j * ys))
    for k in range(math.floor(ymin / step), math.ceil(ymax / step) + 1):
        curves.append(("grid", xs + 1j * k * step))
    ring = unit_circle(n)
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
    f, meta = _parse_map(args.map)
    window = box([_finite(v) for v in args.window.split(",")])
    if args.px < 16:
        raise ValueError(f"need --px >= 16, got {args.px}")
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
    write_file(args.out, header, img)
    result = {"out": args.out, "width": width, "height": height,
              "points_drawn": drawn}
    return 0, {"map": meta, "window": list(window), "px": args.px}, result


@functools.cache
def _parser_tree():
    p = argparse.ArgumentParser(prog="qcmap",
                                description="quasiconformal map toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("allowable", help="sector/corner allowability of c")
    mode = pa.add_mutually_exclusive_group(required=True)
    mode.add_argument("--theta0", type=_finite, default=None,
                      help="sector opening in radians (sector mode)")
    mode.add_argument("--alpha", type=_finite, default=None,
                      help="corner opening as a multiple of pi (corner mode)")
    pa.add_argument("--c", type=_parse_complex, required=True)
    pa.add_argument("--beta", type=_finite, default=None,
                    help="corner rotation in radians (corner mode, needs --alpha)")
    pa.add_argument("--tol", type=_finite, default=1e-9)
    pa.add_argument("--json", default=None, help="also write the report here")
    pa.set_defaults(func=_cmd_allowable)

    pl = sub.add_parser("locus", help="sample the allowable locus to CSV")
    pl.add_argument("--theta0", type=_finite, required=True)
    pl.add_argument("--samples", type=int, default=256,
                    help="points along the arc of the locus")
    pl.add_argument("--out", required=True)
    pl.add_argument("--json", default=None)
    pl.set_defaults(func=_cmd_locus)

    ps = sub.add_parser("solve", help="solve the Beltrami equation on a grid")
    ps.add_argument("--field", required=True, help="field spec JSON path")
    ps.add_argument("--grid-n", type=int, default=SolverConfig.grid_n)
    ps.add_argument("--pad-factor", type=_finite, default=SolverConfig.pad_factor,
                    help="box half-width in support radii, 2 to grid_n / 2")
    ps.add_argument("--tol", type=_finite, default=SolverConfig.tol,
                    help="stop when the bound on the change still to come "
                         "in Phi is <= tol, in map units (default: 0.01*h, "
                         "h the cell side)")
    ps.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    ps.add_argument("--out", required=True, help="output .qcmap path")
    ps.add_argument("--json", default=None)
    ps.set_defaults(func=_cmd_solve)

    pc = sub.add_parser("certify", help="modulus-gap bi-Lipschitz certification")
    pc.add_argument("--map", required=True,
                    help="builtin:identity | builtin:fc:re,im | "
                         "builtin:fangle:re,im:theta0 | path.qcmap")
    pc.add_argument("--centers", required=True,
                    help="grid:<n>:<halfwidth> or 're,im;re,im;...'")
    pc.add_argument("--bound", type=_finite, required=True)
    pc.add_argument("--annuli", type=int, default=20)
    pc.add_argument("--circle-samples", type=int, default=1024)
    pc.add_argument("--r-min", type=_finite, default=None)
    pc.add_argument("--r-max", type=_finite, default=None)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", dest="json", metavar="OUT", default=None,
                    help="write the JSON report here")
    pc.set_defaults(func=_cmd_certify)

    pr = sub.add_parser("render", help="render reference curves under a map")
    pr.add_argument("--map", required=True)
    pr.add_argument("--window", required=True, help="xmin,ymin,xmax,ymax")
    pr.add_argument("--px", type=int, default=512)
    pr.add_argument("--out", required=True, help="output .ppm path")
    pr.add_argument("--json", default=None)
    pr.set_defaults(func=_cmd_render)
    return p


def build_parser():
    """The CLI's argument parser: a shallow copy of the tree built once per
    process, so that an attribute set on one result is not seen by the next
    (``parse_args`` changes no parser in the tree). Its actions and
    sub-parsers are shared: adding an argument changes every later copy."""
    return copy.copy(_parser_tree())


def main(argv=None):
    t0 = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    args.parse_ms = (time.perf_counter() - t0) * 1000
    # malformed fields, files and values all raise ValueError (FieldError and
    # SupportError among them); unreadable or unwritable paths raise OSError
    t0 = time.perf_counter()
    try:
        code, config, result = args.func(args)
        _emit(args, config, result, t0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
