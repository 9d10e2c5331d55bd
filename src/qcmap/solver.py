"""Grid solver for the principal solution of compactly supported Beltrami data.

The normalized solution is Phi = z + P where P is the Cauchy transform of
h = dbar Phi, and h solves the fixed point h = mu * S h + mu with S the plane
singular integral sending dbar-potentials to d-potentials. S is a Fourier
multiplier of modulus one, so the Neumann iteration contracts in L2 at rate
sup |mu|. Each sweep costs two n-by-n FFTs and a multiply by the cached
multiplier; the rest of the sweep touches only the support of mu.

The final Cauchy step is done as a free-space convolution with the exactly
integrated per-cell kernel on a zero-padded grid rather than with the
periodic spectral inverse: periodization of the 1/z kernel leaves an
antilinear artifact of size ~ |total h| * |z| / box area, which would
dominate the oracle error budget, while the cell kernel reproduces the decay
P -> 0 at infinity and the 1/z far-field tail automatically. It costs two
2n-by-2n FFTs once the kernel FFT is cached.

Two bounded caches live for the life of the process. The S multiplier is
kept per (grid shape, spacing), up to 4 entries of n^2 complex values (4 MB
at n=512). The FFT of the Cauchy kernel is kept per (padded shape, cell
aspect ratio) in unit cell width, so every spacing of one grid size shares
it, up to 2 entries of 4 n^2 complex values (16 MB at n=512, 64 MB at
n=1024). Building one costs a log per corner of the half-integer lattice
and one FFT.
"""

from __future__ import annotations

import functools
import math
import struct
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .field import support_radius

SOLVER_MAGIC = b"QCMAP1\x00\x00"


class ConvergenceError(RuntimeError):
    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SupportError(ValueError):
    """Field support incompatible with the requested grid."""


@dataclass(frozen=True)
class SolverConfig:
    grid_n: int = 512
    pad_factor: float = 4.0
    tol: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self):
        n = self.grid_n
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError(f"grid_n must be a power of two >= 64, got {n}")
        if self.pad_factor < 2.0:
            raise ValueError("pad_factor must be >= 2")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def grid_coordinates(bbox, n):
    """Cell-centered coordinates (xs, ys, Z) of an (ny, nx) grid over bbox."""
    xmin, ymin, xmax, ymax = bbox
    ny, nx = n
    hx = (xmax - xmin) / nx
    hy = (ymax - ymin) / ny
    xs = xmin + (np.arange(nx) + 0.5) * hx
    ys = ymin + (np.arange(ny) + 0.5) * hy
    X, Y = np.meshgrid(xs, ys)
    return xs, ys, X + 1j * Y


@functools.lru_cache(maxsize=4)
def _s_multiplier(ny, nx, dx, dy):
    """conj(xi) / xi on the FFT frequency grid, zero at the origin; read-only."""
    kx = 2.0 * math.pi * np.fft.fftfreq(nx, d=dx)
    ky = 2.0 * math.pi * np.fft.fftfreq(ny, d=dy)
    KX, KY = np.meshgrid(kx, ky)
    zeta = KX + 1j * KY
    mult = np.zeros_like(zeta)
    nzero = zeta != 0
    mult[nzero] = np.conj(zeta[nzero]) / zeta[nzero]
    mult.flags.writeable = False
    return mult


def singular_transform(g, spacing=(1.0, 1.0)):
    """Apply the plane singular integral with multiplier conj(xi) / xi.

    This is the two-dimensional Hilbert-type transform taking dbar h to d h:
    forward FFT, multiply by conj(xi)/xi with the zero frequency set to 0,
    inverse FFT. The multiplier is unimodular away from the origin, so grid
    L2 norms of mean-zero inputs are preserved. Accuracy degrades when the
    input support reaches the grid boundary; inputs with more than 1% of
    their energy in the outer eighth of the grid trigger a warning.
    """
    g = np.asarray(g, dtype=complex)
    if g.ndim != 2:
        raise ValueError("expected a 2D complex array")
    ny, nx = g.shape
    dx, dy = spacing
    bx = max(1, nx // 8)
    by = max(1, ny // 8)
    energy = np.square(g.real) + np.square(g.imag)
    total = float(energy.sum())
    if total > 0:
        inner = float(energy[by:ny - by, bx:nx - bx].sum())
        if total - inner > 0.01 * total:
            warnings.warn("more than 1% of input energy near the grid boundary; "
                          "the transform is contaminated by periodization",
                          RuntimeWarning, stacklevel=2)
    spec = np.fft.fft2(g)
    spec *= _s_multiplier(ny, nx, dx, dy)
    return np.fft.ifft2(spec)


@functools.lru_cache(maxsize=2)
def _kernel_hat(my, mx, aspect):
    """FFT of the exactly integrated Cauchy kernel of a 1-by-aspect cell.

    Entry [ky, kx] (in FFT order) of the kernel is (1/pi) times the integral
    of dA(v) / (u - v) over the cell centered at 0, evaluated at the offset
    u = kx + i aspect ky, for -mx/2 <= kx < mx/2 and -my/2 <= ky < my/2. The
    closed form is the four-corner difference of G(s) = s (log s - 1), and
    every cell corner lies on one half-integer lattice, so G is evaluated
    once per lattice point. The principal branch needs a correction on the
    row ky = 0: there the vertical antiderivative path crosses the negative
    real cut for source columns right of the evaluation point. The result
    is read-only.
    """
    ny, nx = my // 2, mx // 2
    a = np.arange(mx + 1) - (nx + 0.5)
    b = aspect * (np.arange(my + 1) - (ny + 0.5))
    G = a[None, :] + 1j * b[:, None]
    G *= np.log(G) - 1.0
    K = G[:-1, 1:] - G[:-1, :-1]
    K -= G[1:, 1:]
    K += G[1:, :-1]
    del G
    K *= 1j
    kx = np.arange(-nx, mx - nx)
    K[ny] += -2.0 * math.pi * (0.5 - np.clip(kx, -0.5, 0.5))
    K /= math.pi
    K = np.fft.ifftshift(K)
    khat = np.fft.fft2(K)
    del K
    khat.flags.writeable = False
    return khat


def cauchy_transform(g, spacing):
    """Free-space Cauchy transform of grid data: solves dbar P = g, P -> 0.

    Treats g as constant per cell and convolves with the exactly integrated
    Cauchy kernel of one cell via zero-padded FFTs, so there is no
    periodization error and the 1/z tail is reproduced to the accuracy of the
    piecewise-constant density. The kernel of a dx-by-dy cell is dx times the
    kernel of a 1-by-(dy/dx) cell at offsets scaled by 1/dx (the log dx terms
    cancel in the four-corner sum), so its FFT is cached per grid shape and
    aspect ratio.
    """
    g = np.asarray(g, dtype=complex)
    ny, nx = g.shape
    dx, dy = spacing
    gp = np.zeros((2 * ny, 2 * nx), dtype=complex)
    gp[:ny, :nx] = g
    spec = np.fft.fft2(gp)
    spec *= _kernel_hat(2 * ny, 2 * nx, dy / dx)
    spec *= dx
    return np.fft.ifft2(spec)[:ny, :nx]


@dataclass(eq=False)
class GridMap:
    """Sampled plane map with an identity-plus-tail continuation off the grid.

    ``values[iy, ix]`` are samples on the cell-centered grid over ``bbox``
    with rows ordered by increasing imaginary part. Outside the box the map
    is evaluated as z + tail / (z - box center). Instances are immutable in
    use and callable like any other plane map.
    """

    bbox: tuple
    values: np.ndarray
    tail: complex = 0j
    off_grid_rule: str = "identity-plus-tail"
    iterations: int = 0
    final_residual: float = 0.0
    residual_history: tuple = ()
    timings_ms: dict = field(default_factory=dict)
    observed_rate: float = None
    sup_mu: float = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 2:
            raise ValueError("values must be 2D")
        if min(self.values.shape) < 2:
            raise ValueError(f"need at least 2x2 samples, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("map samples must be finite")
        self.bbox = tuple(float(v) for v in self.bbox)
        if len(self.bbox) != 4 or not all(map(math.isfinite, self.bbox)):
            raise ValueError(f"bbox must be 4 finite numbers, got {self.bbox}")
        xmin, ymin, xmax, ymax = self.bbox
        if not (xmin < xmax and ymin < ymax):
            raise ValueError(f"bbox must have xmin < xmax and ymin < ymax, "
                             f"got {self.bbox}")

    @property
    def shape(self):
        return self.values.shape

    def grid(self):
        return grid_coordinates(self.bbox, self.values.shape)

    def __call__(self, z):
        return eval_gridmap(self, z)

    def save(self, path):
        ny, nx = self.values.shape
        inter = np.empty((ny, nx, 2), dtype="<f8")
        inter[..., 0] = self.values.real
        inter[..., 1] = self.values.imag
        with open(path, "wb") as fh:
            fh.write(SOLVER_MAGIC)
            fh.write(struct.pack("<II", nx, ny))
            fh.write(struct.pack("<4d", *self.bbox))
            fh.write(struct.pack("<2d", self.tail.real, self.tail.imag))
            fh.write(inter.tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != SOLVER_MAGIC:
                raise ValueError(f"bad magic {magic!r} in {path}")
            header = fh.read(56)
            if len(header) != 56:
                raise ValueError(f"truncated header in map file {path}")
            nx, ny = struct.unpack_from("<II", header)
            bbox = struct.unpack_from("<4d", header, 8)
            tre, tim = struct.unpack_from("<2d", header, 40)
            payload = fh.read()
        if nx == 0 or ny == 0:
            raise ValueError(f"zero grid dimensions {nx}x{ny} in map file {path}")
        size = 16 * nx * ny
        if len(payload) < size:
            raise ValueError(f"truncated map file {path}")
        if len(payload) > size:
            raise ValueError(f"{len(payload) - size} trailing bytes in map file {path}")
        raw = np.frombuffer(payload, dtype="<f8").reshape(ny, nx, 2)
        return cls(bbox=bbox, values=raw[..., 0] + 1j * raw[..., 1],
                   tail=complex(tre, tim))


def eval_gridmap(gm: GridMap, z):
    """Bilinear interpolation inside the box, z + tail/(z - center) outside."""
    zz = np.asarray(z, dtype=complex)
    scalar = zz.ndim == 0
    zz = np.atleast_1d(zz).ravel()
    xmin, ymin, xmax, ymax = gm.bbox
    ny, nx = gm.values.shape
    hx = (xmax - xmin) / nx
    hy = (ymax - ymin) / ny
    out = np.empty(zz.shape, dtype=complex)

    inside = ((zz.real >= xmin) & (zz.real <= xmax)
              & (zz.imag >= ymin) & (zz.imag <= ymax))
    zi = zz[inside]
    if zi.size:
        # cell indices are clipped but the weights are not: in the half-cell
        # band between the outermost sample row and the box edge this
        # extrapolates linearly, keeping the identity part of the map exact
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
    zo = zz[~inside]
    if zo.size:
        zc = complex(0.5 * (xmin + xmax), 0.5 * (ymin + ymax))
        d = zo - zc
        d = np.where(d == 0, 1.0, d)
        out[~inside] = zo + gm.tail / d
    if scalar:
        return complex(out[0])
    return out.reshape(np.asarray(z).shape)


def _sample_mu(mu, bbox, n, supersample=3):
    """Cell-averaged field samples; averaging keeps sup |mu| < 1."""
    xs, ys, Z = grid_coordinates(bbox, n)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    offs = (np.arange(supersample) + 0.5) / supersample - 0.5
    acc = np.zeros(Z.shape, dtype=complex)
    for oy in offs:
        for ox in offs:
            acc += mu.evaluate(Z + ox * hx + 1j * oy * hy)
    return acc / supersample**2


def solve_principal(mu, cfg: SolverConfig = None) -> GridMap:
    """Compute the principal solution Phi = z + O(1/z) for a compact field.

    The grid box is sized to pad_factor times the support radius, dbar Phi is
    obtained by iterating h <- mu * S h + mu to sup-norm tolerance, and Phi is
    assembled as z plus the free-space Cauchy transform of h. The far-field
    tail coefficient is the discrete total integral of h over pi. Raises
    ConvergenceError if max_iter sweeps do not reach tol (the error carries
    the last residual) and SupportError for unbounded supports.

    Every iterate vanishes off the support of the sampled field, so the
    iteration keeps h only on the support cells; each sweep scatters it into
    the grid for one singular transform and gathers the result back. The
    result records the time of each phase, the observed contraction rate
    (geometric mean of successive residual ratios; None after one sweep or
    a zero first residual) and sup |mu| over the grid, its theoretical bound.
    """
    cfg = cfg or SolverConfig()
    rad = support_radius(mu)
    if not math.isfinite(rad) or rad <= 0:
        raise SupportError(
            f"field support radius {rad} is not usable; truncate the field")
    t0 = time.perf_counter()
    L = cfg.pad_factor * rad
    bbox = (-L, -L, L, L)
    n = (cfg.grid_n, cfg.grid_n)
    xs, ys, Z = grid_coordinates(bbox, n)
    h = 2 * L / cfg.grid_n
    mu_grid = _sample_mu(mu, bbox, n)
    sel = np.flatnonzero(mu_grid)
    m = mu_grid.ravel()[sel]
    del mu_grid
    t1 = time.perf_counter()

    # supports are confined to the central 1/pad_factor by construction, so
    # no iterate reaches the band singular_transform warns about
    grid = np.zeros(n, dtype=complex)
    flat = grid.ravel()
    x = m
    residual = math.inf
    iterations = 0
    history = []
    for iterations in range(1, cfg.max_iter + 1):
        flat[sel] = x
        nxt = m * singular_transform(grid, spacing=(h, h)).ravel()[sel] + m
        residual = float(np.abs(nxt - x).max(initial=0.0))
        history.append(residual)
        x = nxt
        if residual <= cfg.tol:
            break
    else:
        raise ConvergenceError(
            f"no convergence after {cfg.max_iter} iterations, "
            f"residual {residual:.3e}",
            residual=residual, iterations=cfg.max_iter)
    flat[sel] = x
    t2 = time.perf_counter()

    P = cauchy_transform(grid, spacing=(h, h))
    tail = complex(grid.sum() * h * h / math.pi)
    t3 = time.perf_counter()
    rate = None
    if len(history) > 1 and history[0] > 0:
        rate = (history[-1] / history[0]) ** (1.0 / (len(history) - 1))
    return GridMap(bbox=bbox, values=Z + P, tail=tail,
                   iterations=iterations, final_residual=residual,
                   residual_history=tuple(history),
                   timings_ms={"sample": 1e3 * (t1 - t0),
                               "iterate": 1e3 * (t2 - t1),
                               "cauchy": 1e3 * (t3 - t2)},
                   observed_rate=rate,
                   sup_mu=float(np.abs(m).max(initial=0.0)))


def finite_difference_mu(gm: GridMap):
    """Central-difference Beltrami coefficient dbar Phi / d Phi per node.

    Boundary nodes and nodes where |d Phi| < 1e-8 cannot be differenced
    reliably and are returned as NaN; comparisons should mask them out along
    with a few cells around jump curves of the input field.
    """
    xmin, ymin, xmax, ymax = gm.bbox
    ny, nx = gm.values.shape
    hx = (xmax - xmin) / nx
    hy = (ymax - ymin) / ny
    v = gm.values
    out = np.full(v.shape, np.nan + 0j, dtype=complex)
    dvx = (v[1:-1, 2:] - v[1:-1, :-2]) / (2.0 * hx)
    dvy = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2.0 * hy)
    dz = 0.5 * (dvx - 1j * dvy)
    dzbar = 0.5 * (dvx + 1j * dvy)
    ok = np.abs(dz) > 1e-8
    inner = np.full(dz.shape, np.nan + 0j, dtype=complex)
    np.divide(dzbar, dz, out=inner, where=ok)
    out[1:-1, 1:-1] = inner
    return out
