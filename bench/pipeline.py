"""Workload inputs, the six-step pipeline and its correctness checks.

Everything here is shared by the cold CLI workload (each step a fresh
``python -m qcmap.cli`` process) and the warm session workloads (step 1 a
library ``solve_principal`` call, steps 2-6 in-process ``qcmap.cli.main``
calls). The checks use closed forms and a ``.qcmap`` reader written out here
from the documented formats, not the program's own evaluators, so a change to
the program cannot make its own outputs look right.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

TWO_PI = 2.0 * math.pi
_HERE = os.path.dirname(os.path.abspath(__file__))

# Fixed per-op acceptance bounds. The seed's oracle errors are 3e-3..8e-3 at
# n=512 for |c| <= 0.6, and 1.5e-2..3e-2 at n=256 for |c| <= 0.95.
ORACLE_BOUND = {512: 0.02, 256: 0.06}
GAP_ERR_BOUND = 0.05
LOCUS_TOL = 1e-9

# Criterion 5 of tests/test_acceptance.py: a non-allowable spiral must fail.
FANGLE_C = 0.5
FANGLE_THETA0 = math.pi / 2
FANGLE_ARGS = ["--centers=0,0;0.4,0.3", "--bound", "0.2", "--annuli", "26",
               "--r-min", repr(math.exp(-13.0)), "--r-max", "1.0"]
FANGLE_BOUND = 0.2

LOCUS_SAMPLES = 256
LOCUS_THETA0 = math.pi / 2
LOCUS_JITTER = 0.05
RENDER_PX = 512
RENDER_WINDOW = "--window=-2,-2,2,2"
CERTIFY_GRID = (3, 1.4)
# Accuracy depends only on the inputs, so it is taken over the first
# ACCURACY_OPS ops of a kind, and a run goes on past its seconds until it
# has them: a run's value then does not depend on how many ops the
# machine's speed let it finish.
ACCURACY_OPS = 6

# Irrational steps for the Kronecker sequences that spread each input
# dimension evenly over its range in every prefix of a run. The seed shifts
# each sequence by up to SEED_SHIFT of its period: inputs differ between
# seeds, while every run covers the ranges in the same way, so a run's
# medians depend little on which seed it got.
_STEPS = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)]
SEED_SHIFT = 0.05
(C_ABS, C_ARG, RADIUS, CENTER_ABS, CENTER_ARG, THETA0, LOCUS,
 SECTOR_C_ABS, SECTOR_C_ARG) = range(9)


class Inputs:
    """Seeded input stream; ``u(dim, i)`` is quasi-uniform in [0, 1)."""

    def __init__(self, seed):
        self._off = SEED_SHIFT * np.random.default_rng(seed).random(len(_STEPS))

    def u(self, dim, i):
        return float((self._off[dim] + (i + 1) * _STEPS[dim]) % 1.0)

    def c(self, lo, hi, i, dims=(C_ABS, C_ARG)):
        """A dilatation with |c| in [lo, hi) and any phase."""
        return (lo + (hi - lo) * self.u(dims[0], i)) * cmath.exp(
            2j * math.pi * self.u(dims[1], i))

    def locus_theta0(self, i):
        return LOCUS_THETA0 + LOCUS_JITTER * (2.0 * self.u(LOCUS, i) - 1.0)


def disk_spec(c, center=0j, radius=1.0):
    return {"kind": "disk_constant", "c": [c.real, c.imag],
            "center": [center.real, center.imag], "radius": radius}


def sector_spec(c, theta0, radius=1.0):
    return {"kind": "sector_constant", "c": [c.real, c.imag],
            "theta0": theta0, "beta": 0.0, "radius": radius}


def moderate_field(inp, i):
    center = 0.5 * math.sqrt(inp.u(CENTER_ABS, i)) * cmath.exp(
        2j * math.pi * inp.u(CENTER_ARG, i))
    return disk_spec(inp.c(0.3, 0.6, i), center, 0.5 + inp.u(RADIUS, i))


def high_dilatation_field(inp, i):
    """Disks and truncated sectors alternate, each on its own sequence."""
    j = i // 2
    if i % 2 == 0:
        return disk_spec(inp.c(0.85, 0.95, j))
    theta0 = math.pi / 4 + 1.25 * math.pi * inp.u(THETA0, j)
    return sector_spec(inp.c(0.8, 0.9, j, (SECTOR_C_ABS, SECTOR_C_ARG)),
                       theta0)


def cli_field(inp, i):
    return disk_spec(inp.c(0.3, 0.6, i))


# -- machine speed ------------------------------------------------------------
#
# The sandbox's speed drifts by 30-40% between identical runs, and CPU time
# drifts as much as wall time. Probes taken next to every op track it: fixed
# numpy and interpreter kernels in the session's own process around the op,
# or, for an op that starts a process, in a fresh process started just
# before it, whose start-up is probed too. The three drift apart (start-up
# and compute correlate about 0.4), so compute is weighted per op kind and
# start-up is handled apart. The typical spread of a time between runs
# falls from 10-40% unscaled to 2-12%.

_CAL_RNG = np.random.default_rng(12345)
_CAL_ARRAY = (_CAL_RNG.standard_normal((512, 512))
              + 1j * _CAL_RNG.standard_normal((512, 512)))
# Typical probe times on a quiet 2-core Intel Xeon sandbox (numpy 2.4.6);
# they only set the scale of the reported times.
NUMPY_REF_S = 0.012
PYTHON_REF_S = 0.009
START_REF_S = 0.14
# Share of each op's compute time spent in numpy kernels rather than in the
# interpreter, estimated from the seed's profile: solves are FFTs and array
# arithmetic, the locus tracer is scalar Python, certify and render evaluate
# maps on arrays from Python loops. "setup" is a session's import plus
# warm-up solve.
NUMPY_SHARE = {"solve": 1.0, "certify_map": 0.7, "certify_fc": 0.7,
               "certify_fangle": 0.7, "locus": 0.0, "render": 0.7,
               "setup": 0.8}


def calibrate():
    """Time two fixed kernels: a complex FFT round trip with array arithmetic
    on 4 MB arrays, the working set of a solver sweep at n=512, which does
    not fit in a core's cache; and interpreted scalar arithmetic. Returns
    (numpy_s, python_s)."""
    t0 = time.perf_counter()
    np.fft.ifft2(np.fft.fft2(_CAL_ARRAY) * _CAL_ARRAY)
    t1 = time.perf_counter()
    acc = 0j
    for k in range(40000):
        acc += cmath.exp(1j * k * 1e-3) / (1.0 + k)
    return t1 - t0, time.perf_counter() - t1


def fresh_probe():
    """Start a Python process that imports numpy and runs ``calibrate``.

    Returns (compute probes, start-up time): the probes of a fresh process,
    as every CLI op is one, and the wall time of the rest of that process.
    """
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pipeline; "
            "print(*pipeline.calibrate())")
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code, _HERE], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    wall = time.perf_counter() - t0
    probes = [float(v) for v in out.split()]
    return probes, wall - sum(probes)


def at_ref_speed(kind, wall_s, probes, start_s=0.0):
    """Wall time rescaled to the reference speed of the probes.

    The compute probes are weighted by the op kind's numpy share. For an op
    that starts a process, the bare start measured next to it is replaced by
    its reference time and only the rest, the program's own import and
    work, is rescaled.
    """
    share = NUMPY_SHARE[kind]
    slowdown = (share * probes[0] / NUMPY_REF_S
                + (1.0 - share) * probes[1] / PYTHON_REF_S)
    return (START_REF_S if start_s else 0.0) + (wall_s - start_s) / slowdown


# -- closed forms and readers used by the checks ------------------------------

def disk_map(c, z):
    """Principal solution for constant c on the unit disk."""
    z = np.asarray(z, dtype=complex)
    far = np.abs(z) > 1.0
    return np.where(far, z + c / np.where(far, z, 1.0), z + c * np.conj(z))


def sector_lambda(c, theta0):
    """The sewing factor lambda(c, theta0); the locus is Re lambda = 1."""
    w = (np.exp(1j * theta0) + c * np.exp(-1j * theta0)) / (1.0 + c)
    theta1 = float(np.angle(w)) % TWO_PI
    return TWO_PI * 1j / (math.log(abs(w)) + 1j * (TWO_PI + theta1 - theta0))


def read_qcmap(path):
    """(bbox, values) from a QCMAP1 file."""
    raw = open(path, "rb").read()
    if raw[:8] != b"QCMAP1\x00\x00":
        raise ValueError(f"bad magic in {path}")
    nx, ny = np.frombuffer(raw, "<u4", 2, 8)
    bbox = tuple(float(v) for v in np.frombuffer(raw, "<f8", 4, 16))
    vals = np.frombuffer(raw, "<f8", 2 * int(nx) * int(ny), 64)
    vals = vals.reshape(int(ny), int(nx), 2)
    return bbox, vals[..., 0] + 1j * vals[..., 1]


def oracle_error(spec, bbox, values):
    """Sup error against the closed form on |z - center| <= 2 radius."""
    ny, nx = values.shape
    xmin, ymin, xmax, ymax = bbox
    xs = xmin + (np.arange(nx) + 0.5) * (xmax - xmin) / nx
    ys = ymin + (np.arange(ny) + 0.5) * (ymax - ymin) / ny
    Z = xs[None, :] + 1j * ys[:, None]
    c = complex(*spec["c"])
    center = complex(*spec["center"])
    radius = spec["radius"]
    w = (Z - center) / radius
    sel = np.abs(w) <= 2.0
    exact = center + radius * disk_map(c, w[sel])
    return float(np.abs(values[sel] - exact).max())


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- the pipeline steps ---------------------------------------------------------

def _fmt(c):
    return f"{float(c.real)!r},{float(c.imag)!r}"


def certify_centers(spec):
    """The 3x3 grid of criterion 4, scaled to the disk of the field."""
    n, hw = CERTIFY_GRID
    xs = np.linspace(-hw, hw, n)
    center = complex(*spec["center"])
    pts = [center + spec["radius"] * complex(x, y) for y in xs for x in xs]
    return "--centers=" + ";".join(_fmt(p) for p in pts)


def fc_bound(c):
    """2 log K + 0.1, the pass bound of criterion 4."""
    k = (1 + abs(c)) / (1 - abs(c))
    return 2.0 * math.log(k) + 0.1


def steps(spec, theta0, paths):
    """The (kind, argv) CLI steps of one iteration, after its solve.

    Certifying the solved map needs the closed form as reference, so sector
    fields skip those two steps.
    """
    out = []
    if spec["kind"] == "disk_constant":
        c = complex(*spec["c"])
        bound = repr(fc_bound(c))
        n, hw = CERTIFY_GRID
        out.append(("certify_map", ["certify", "--map", paths["map"],
                                    certify_centers(spec), "--bound", bound]))
        out.append(("certify_fc", ["certify", "--map", f"builtin:fc:{_fmt(c)}",
                                   f"--centers=grid:{n}:{hw}", "--bound", bound]))
    out.append(("certify_fangle",
                ["certify", "--map",
                 f"builtin:fangle:{_fmt(complex(FANGLE_C))}:{FANGLE_THETA0!r}"]
                + FANGLE_ARGS))
    out.append(("locus", ["locus", "--theta0", repr(theta0), "--samples",
                          str(LOCUS_SAMPLES), "--out", paths["locus"]]))
    out.append(("render", ["render", "--map", paths["map"], RENDER_WINDOW,
                           "--px", str(RENDER_PX), "--out", paths["ppm"]]))
    return out


def solve_argv(paths, grid_n, max_iter):
    return ["solve", "--field", paths["field"], "--grid-n", str(grid_n),
            "--max-iter", str(max_iter), "--out", paths["map"]]


def check_step(kind, rc, stdout, spec, theta0, paths, grid_n, state):
    """Check one CLI step's exit code and outputs; return its accuracy numbers.

    ``state`` carries values between the steps of one iteration (the sup gap
    of the solved map, needed by the fc reference step).
    """
    expected_rc = 1 if kind == "certify_fangle" else 0
    require(rc == expected_rc, f"{kind}: exit code {rc}, expected {expected_rc}")
    result = json.loads(stdout)["result"]
    if kind == "solve":
        require(result["converged"], "solve did not converge")
        return check_solved(spec, *read_qcmap(paths["map"]), grid_n)
    if kind in ("certify_map", "certify_fc", "certify_fangle"):
        gap = result["sup_gap"]
        require(math.isfinite(gap), f"{kind}: non-finite sup gap")
        if kind == "certify_fangle":
            require(result["verdict"] == "fail" and gap > FANGLE_BOUND,
                    f"fangle certificate passed with sup gap {gap}")
            return {}
        require(result["verdict"] == "pass", f"{kind}: verdict fail, gap {gap}")
        if kind == "certify_map":
            state["map_gap"] = gap
            return {}
        require(gap <= fc_bound(complex(*spec["c"])), "fc gap above its bound")
        err = abs(state.pop("map_gap") - gap)
        require(err <= GAP_ERR_BOUND, f"certificate gap error {err}")
        return {"gap_err": err}
    if kind == "locus":
        rows = open(paths["locus"]).read().split()[1:]
        pts = np.array([complex(*map(float, r.split(","))) for r in rows])
        require(pts.size == result["points"] and pts.size > 0,
                "locus CSV does not match its report")
        worst = max(abs(sector_lambda(c, theta0).real - 1.0) for c in pts)
        require(worst <= LOCUS_TOL, f"locus point off the locus by {worst}")
        return {"max_abs_c": float(np.abs(pts).max())}
    if kind == "render":
        header = f"P6\n{RENDER_PX} {RENDER_PX}\n255\n".encode()
        raw = open(paths["ppm"], "rb").read()
        require(raw.startswith(header)
                and len(raw) == len(header) + 3 * RENDER_PX ** 2,
                "malformed PPM")
        require(sum(result["points_drawn"].values()) > 10000,
                "render drew almost nothing")
        return {}
    raise ValueError(kind)


def check_solved(spec, bbox, values, grid_n):
    """Check a solved map's samples; return its oracle error for a disk."""
    require(values.shape == (grid_n, grid_n), f"grid shape {values.shape}")
    require(bool(np.all(np.isfinite(values))), "non-finite map samples")
    if spec["kind"] != "disk_constant":
        return {}
    err = oracle_error(spec, bbox, values)
    require(err <= ORACLE_BOUND[grid_n], f"oracle error {err:.3e}")
    return {"oracle_err": err}


def closed_loop(iteration, seconds, trace, set_traced, spawns=False,
                min_iters=1):
    """Run ops one after another until ``seconds`` have passed.

    ``iteration(i)`` yields the (kind, call, check) ops of iteration i;
    ``call(op_id)`` runs the op and returns its wall time, ``check()``
    verifies its outputs and returns its accuracy numbers. A failed op is
    recorded, not fatal; after a failed solve the rest of its iteration is
    skipped because it needs the solved map. At least ``min_iters``
    iterations run, and with tracing on, iterations alternate in pairs
    between untraced and traced, at least four in all, so one run gives both
    sides of the tracing overhead. Speed probes are taken around each op in
    this process, or, when ``spawns`` says that each op starts a process,
    just before it in a fresh process.
    """
    min_iters = max(min_iters, 4 if trace else 1)
    deadline = time.perf_counter() + seconds
    ops = []
    i = 0
    while True:
        traced = bool(trace) and (i // 2) % 2 == 1
        set_traced(traced)
        for kind, call, check in iteration(i):
            if i >= min_iters and time.perf_counter() > deadline:
                set_traced(False)
                return ops
            op = {"id": len(ops), "iteration": i, "kind": kind,
                  "traced": traced, "ok": False}
            ops.append(op)
            try:
                if spawns:
                    op["probes"], op["start_s"] = fresh_probe()
                    op["wall_s"] = call(op["id"])
                else:
                    before = calibrate()
                    op["start_s"] = 0.0
                    op["wall_s"] = call(op["id"])
                    op["probes"] = [(a + b) / 2
                                    for a, b in zip(before, calibrate())]
                op["acc"] = check()
                op["ok"] = True
            except Exception as exc:  # counted in ``failed``
                op["error"] = f"{type(exc).__name__}: {exc}"
                if kind == "solve":
                    break
        i += 1
