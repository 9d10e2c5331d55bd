"""Grid solver for the principal solution of compactly supported Beltrami data.

The normalized solution is Phi = z + P where P is the Cauchy transform of
h = dbar Phi, and h solves the fixed point h = mu * S h + mu with S the plane
singular integral sending dbar-potentials to d-potentials. S is a Fourier
multiplier of modulus one, so the Neumann iteration contracts in L2 at rate
sup |mu|. The field is sampled only on the window of cells that meet the
support square, and h iterated only on the box of rows and columns where
those samples are nonzero (the whole window for a centered disk, 32 by 32
of its 64 by 64 cells for a quarter sector at n=256). Each sweep applies
the n-by-n periodic S to that box as a cyclic convolution on an my-by-mx
grid, the smallest 5-smooth size of at least 2 b - 1 per axis of b cells
(at most 128 at n=256 and 256 at n=512 with pad_factor 4; 135-240 for
the off-center disks of radius 0.5-1 and center within 0.5 at n=512): a
forward FFT whose first pass runs on the box's rows only, a multiply by
the cached kernel FFT, and an inverse FFT pruned to the box's lines, each
1-D pass along contiguous lines of a spectrum kept in [x, y] layout.

The iteration stops when the map has converged, not the density: once a
bound on the change still to come in Phi is at most tol (solve_principal).

The final Cauchy step is done as a free-space convolution with the exactly
integrated per-cell kernel on a zero-padded grid rather than with the
periodic spectral inverse: periodization of the 1/z kernel leaves an
antilinear artifact of size ~ |total h| * |z| / box area, which would
dominate the oracle error budget, while the cell kernel reproduces the decay
P -> 0 at infinity and the 1/z far-field tail automatically. It is the same
convolution as a sweep's, on the window with the swept box written back
into it, and with the kernel placed to shift the result by the window's
offset in the grid, so it maps h on the window to P on the grid (M = 320
at n=256, 640 at n=512 with pad_factor 4). No n-by-n coordinate grid is
built: a warm solve's tracemalloc peak is 3.0, 12.0 and 48.0 MiB at
n=256, 512 and 1024.

The cells are square, and every kernel is taken on a unit cell:
conj(xi)/xi is scale-invariant, and the Cauchy kernel of a cell is its
side times that of a unit one, so every cell side of one grid shares
them. Bounded caches live for the life of the process, each entry
read-only, complex and in the [x, y] layout of the FFTs:
  - the Cauchy kernel FFT per (FFT grid shape, shift), up to 2 entries:
    1.6 MB at n=256, 6.6 MB at n=512 and 26 MB at n=1024 (pad_factor 4),
    built from a real log and atan2 per corner of one quadrant of the
    half-integer lattice, mirrored into the other three, and one FFT;
  - the spatial torus S kernel per period, for the last 2 periods, at the
    offsets the solve's window can reach: ifft2 of the multiplier read on
    the window's cyclic grid, 128^2 values (260 KB) at n=256 and 256^2
    (1.0 MB) at n=512 with pad_factor 4, built once per period from one
    n-by-n inverse FFT pass and one pass per column kept;
  - the S kernel FFT per (box FFT shape, period), up to 2 entries, each
    a slice of the torus kernel and one FFT at the box's size, so a new
    box never rebuilds the multiplier and never evicts the Cauchy entry.
    A solve drops its box's entry when its sweeps are done: entries of a
    size each field picks, kept across solves, split the heap's free space
    and raised the benchmark's peak RSS by 5 MB at n=512.
Between solves at n=512 they hold 7.6 MB, 6.6 of it the Cauchy entry,
and a solve adds at most 1.0 MB. The first solve on a grid builds the
Cauchy entry and the torus S: in a fresh process its kernels phase takes
about 9, 28 and 111 ms at n=256, 512 and 1024 (2 cores, medians of 11).
kappa, the Cauchy step's l2 gain in the stop bound, is computed once with
the Cauchy entry and kept in it.
"""

from __future__ import annotations

import functools
import math
import struct
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._arrays import box, cell_centers, count, pointwise, read_grid, write_grid

SOLVER_MAGIC = b"QCMAP1\x00\x00"


class ConvergenceError(RuntimeError):
    def __init__(self, message, residual=None, iterations=None,
                 error_bound=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.error_bound = error_bound


class SupportError(ValueError):
    """Field support incompatible with the requested grid."""


@dataclass(frozen=True)
class SolverConfig:
    """Grid and stop rule of solve_principal.

    The grid has grid_n square cells per side, a power of two >= 64, on a
    box pad_factor times the field's support radius, with 2 <= pad_factor
    <= grid_n / 2: beyond, a cell side exceeds that radius. tol is in map
    units: the solve stops at the first sweep whose iteration_error_bound,
    a bound on the change still to come in Phi, is at most tol (None: 0.01
    of a cell side). After max_iter sweeps without that it raises
    ConvergenceError.
    """

    grid_n: int = 512
    pad_factor: float = 4.0
    tol: float = None
    max_iter: int = 1000

    def __post_init__(self):
        n = count(self.grid_n, "grid_n")
        object.__setattr__(self, "grid_n", n)
        object.__setattr__(self, "max_iter", count(self.max_iter, "max_iter"))
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError(f"grid_n must be a power of two >= 64, got {n}")
        if not 2.0 <= self.pad_factor <= n / 2:
            raise ValueError(f"need 2 <= pad_factor <= grid_n / 2 = {n // 2}")
        if self.tol is not None and not 0 < self.tol < math.inf:
            raise ValueError("tol must be None or positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def grid_coordinates(bbox, n):
    """Cell-centered coordinates (xs, ys, Z) of an (ny, nx) grid over bbox."""
    xmin, ymin, xmax, ymax = bbox
    ny, nx = n
    xs = cell_centers(xmin, xmax, nx)
    ys = cell_centers(ymin, ymax, ny)
    X, Y = np.meshgrid(xs, ys)
    return xs, ys, X + 1j * Y


def _next_5_smooth(n):
    """Smallest integer >= n with no prime factor above 5 (a fast FFT size)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _warn_if_periodized(g, ny, nx):
    """Warn when more than 1% of the energy of g lies in the outer eighth.

    g is placed at the center of its ny-by-nx period. A window that stays
    inside the inner band has no energy in the outer eighth, so nothing is
    summed for it.
    """
    wy, wx = g.shape
    by = max(1, ny // 8)
    bx = max(1, nx // 8)
    oy = (ny - wy) // 2
    ox = (nx - wx) // 2
    y0, y1 = max(0, by - oy), min(wy, ny - by - oy)
    x0, x1 = max(0, bx - ox), min(wx, nx - bx - ox)
    if (y0, y1, x0, x1) == (0, wy, 0, wx):
        return
    energy = np.square(g.real) + np.square(g.imag)
    total = float(energy.sum())
    if total > 0:
        inner = float(energy[y0:y1, x0:x1].sum())
        if total - inner > 0.01 * total:
            warnings.warn("more than 1% of input energy near the grid boundary; "
                          "the transform is contaminated by periodization",
                          RuntimeWarning, stacklevel=3)


def _fft_t(g, my, mx):
    """fft2(g, s=(my, mx)).T bit for bit, every pass on contiguous lines.

    Like fft2, a pass along x (on g's rows only), then along y, here on a
    transposed copy; the first pass's output is freed before the second.
    """
    return np.fft.fft(np.fft.fft(g, n=mx, axis=1).T.copy(), n=my, axis=1)


def _convolve(g, khat_t, ny, nx):
    """The ny-by-nx corner of the cyclic convolution of g with a kernel.

    khat_t is the kernel's FFT on the my-by-mx cyclic grid, transposed as
    _fft_t gives it, and g sits at the grid's origin. The inverse runs
    along y on all mx lines in place, then along x on a transposed copy of
    the ny lines kept, keeping nx of each.
    """
    spec = _fft_t(g, *khat_t.shape[::-1])
    spec *= khat_t
    np.fft.ifft(spec, axis=1, out=spec)
    out = spec[:, :ny].T.copy()
    return np.fft.ifft(out, axis=1, out=out)[:, :nx]


def _s_kernel(my, mx, period):
    """Torus S kernel at the offsets -(m // 2) ... m - m // 2 - 1 per axis.

    The kernel is ifft2 of conj(xi) / xi with the zero frequency set to 0 on
    the ``period`` torus, read at those offsets mod the period; on square
    cells conj(xi) / xi does not depend on the cell side. Like ifft2, a pass
    along x, then along y (on a transposed copy of the columns read), so it
    is ifft2's value bit for bit.
    """
    ny, nx = period
    zeta = np.fft.fftfreq(nx)[None, :] + 1j * np.fft.fftfreq(ny)[:, None]
    mult = np.divide(np.conj(zeta), zeta, out=np.zeros_like(zeta),
                     where=zeta != 0)
    cols = np.arange(-(mx // 2), mx - mx // 2) % nx
    rows = np.arange(-(my // 2), my - my // 2) % ny
    lines = np.fft.ifft(mult, axis=1, out=mult).T[cols]
    return np.fft.ifft(lines, axis=1, out=lines)[:, rows].T


def _cauchy_kernel(my, mx):
    """Exactly integrated Cauchy kernel of a unit square cell.

    Entry [ky + my // 2, kx + mx // 2] is (1/pi) times the integral of
    dA(v) / (u - v) over the cell centered at 0, evaluated at the offset
    u = kx + i ky, for -(m // 2) <= k < m - m // 2 per axis. The
    closed form is the four-corner difference of G(s) = s (log s - 1), and
    every cell corner lies on one half-integer lattice, so G is evaluated
    once per lattice point, in real arithmetic: for s = a + i b, log s - 1
    = (log(a^2 + b^2) / 2 - 1) + i atan2(b, a), the principal branch. That
    branch needs a correction on the row ky = 0: there the vertical
    antiderivative path crosses the negative real cut for source columns
    right of the evaluation point: on the quadrant, half the cell kx = 0.

    The cell is symmetric about both axes, so K(conj u) = conj K(u) and
    K(-u) = -K(u): the closed form is taken only on the quadrant of offsets
    0 <= k <= m // 2, from the corners -1/2 ... m // 2 + 1/2, and mirrored
    into the other three quadrants.
    """
    ny, nx = my // 2, mx // 2
    a = np.arange(nx + 2) - 0.5
    b = (np.arange(ny + 2) - 0.5)[:, None]
    log_r = np.log(np.square(a) + np.square(b))
    log_r *= 0.5
    log_r -= 1.0
    arg = np.arctan2(b, a)
    G = np.empty(log_r.shape, dtype=complex)
    G.real = a * log_r - b * arg
    G.imag = a * arg + b * log_r
    del log_r, arg
    Q = G[:-1, 1:] - G[:-1, :-1]
    Q -= G[1:, 1:]
    Q += G[1:, :-1]
    del G
    Q *= 1j
    Q[0, 0] -= math.pi
    Q /= math.pi
    # Q[jy, jx] = K(jx + i jy); rows and columns of K below its center hold
    # the offsets -ny ... -1 and -nx ... -1, read from Q backwards
    py, px = my - ny, mx - nx
    K = np.empty((my, mx), dtype=complex)
    K[ny:, nx:] = Q[:py, :px]
    np.conjugate(Q[ny:0:-1, :px], out=K[:ny, nx:])
    np.conjugate(Q[:py, nx:0:-1], out=K[ny:, :nx])
    np.negative(K[ny:, :nx], out=K[ny:, :nx])
    np.negative(Q[ny:0:-1, nx:0:-1], out=K[:ny, :nx])
    return K


def _placed_hat(K, shift=0):
    """FFT of a kernel K on its own my-by-mx cyclic grid; read-only.

    K holds the kernel at the offsets -(m // 2) ... m - m // 2 - 1 per
    axis; it is placed so that offset d sits at index (d + shift) mod m. The
    FFT is kept mx-by-my, in the [x, y] layout of _fft_t; multiplied into
    the FFT of data placed at the grid's origin (_convolve), it convolves
    the data with the kernel and moves the result ``shift`` cells along
    each axis.
    """
    my, mx = K.shape
    K = np.roll(K, (shift - my // 2, shift - mx // 2), axis=(0, 1))
    khat = _fft_t(K, my, mx)
    del K
    khat.flags.writeable = False
    return khat


@functools.lru_cache(maxsize=2)
def _cauchy_hat(my, mx, shift=0):
    """(_placed_hat, l2 norm) of the unit-cell Cauchy kernel on an my-by-mx
    grid; the norm, ||K_hat||_F / sqrt(my mx) by Parseval, is the Cauchy
    step's gain per cell side (kappa / s in solve_principal)."""
    khat = _placed_hat(_cauchy_kernel(my, mx), shift)
    return khat, math.sqrt(np.vdot(khat, khat).real / khat.size)


_S_TORUS = {}


def _s_torus(my, mx, period):
    """The torus S kernel of ``period``, read-only, reaching an my-by-mx grid.

    One spatial kernel is kept per period, for the last two periods asked
    for, at the widest offsets asked for so far (those of _s_kernel's
    widest grid): a request beyond them builds it again, wider. Every value
    is ifft2's, whatever the width, so a slice of it is _s_kernel's value
    bit for bit.
    """
    K = _S_TORUS.pop(period, None)
    if K is None or K.shape[0] < my or K.shape[1] < mx:
        if K is not None:
            my, mx = max(my, K.shape[0]), max(mx, K.shape[1])
        K = _s_kernel(my, mx, period)
        K.flags.writeable = False
    _S_TORUS[period] = K
    if len(_S_TORUS) > 2:
        del _S_TORUS[next(iter(_S_TORUS))]
    return K


@functools.lru_cache(maxsize=2)
def _s_hat(my, mx, period):
    """_placed_hat of the torus S of ``period`` on an my-by-mx cyclic grid.

    The kernel is the central my-by-mx slice of the period's _s_torus, so
    no call after the first on a period builds its multiplier again.
    """
    T = _s_torus(my, mx, period)
    y0 = T.shape[0] // 2 - my // 2
    x0 = T.shape[1] // 2 - mx // 2
    return _placed_hat(T[y0:y0 + my, x0:x0 + mx])


def _s_size(b, p):
    """Cyclic grid size of S along an axis of b window cells, period p."""
    return min(p, _next_5_smooth(2 * b - 1))


def singular_transform(g, period=None):
    """Apply the plane singular integral with multiplier conj(xi) / xi.

    This is the two-dimensional Hilbert-type transform taking dbar h to d h:
    forward FFT, multiply by conj(xi)/xi with the zero frequency set to 0,
    inverse FFT of only the lines read back (see _convolve). The multiplier
    is unimodular off the origin, so grid L2 norms of mean-zero inputs are
    kept. Accuracy degrades when the input support reaches the grid
    boundary; inputs with more than 1% of their energy in the outer eighth
    of the grid trigger a warning.

    With ``period`` = (ny, nx), g is a window of an ny-by-nx grid that is
    zero outside it, and the result is the ny-by-nx transform read back on
    the window. Its output and input offsets lie within the window size, so
    the torus kernel read onto a cyclic grid of the smallest 5-smooth size
    of at least 2 b - 1 cells per axis (b the window size), or of the
    period if that is smaller, applies it exactly: at most 128 at n=256
    and 256 at n=512 for the solver's windows with pad_factor 4. The
    periodization warning treats the window as centered in its period.
    """
    g = np.asarray(g, dtype=complex)
    if g.ndim != 2 or g.size == 0:
        raise ValueError(f"expected a nonempty 2D complex array, got {g.shape}")
    wy, wx = g.shape
    ny, nx = g.shape if period is None else period
    if wy > ny or wx > nx:
        raise ValueError(f"window {g.shape} exceeds its period {(ny, nx)}")
    _warn_if_periodized(g, ny, nx)
    khat_t = _s_hat(_s_size(wy, ny), _s_size(wx, nx), (ny, nx))
    return _convolve(g, khat_t, wy, wx)


def cauchy_transform(g, h, border=0):
    """Free-space Cauchy transform of grid data: solves dbar P = g, P -> 0.

    Treats g as constant per square cell of side h and convolves with the
    exactly integrated Cauchy kernel of one cell on a zero-padded cyclic
    grid (see _convolve), so there is no periodization error and the 1/z
    tail is reproduced to the accuracy of the piecewise-constant density.
    The kernel of a cell of side h is h times the kernel of a unit cell at
    offsets scaled by 1/h (the log h terms cancel in the four-corner sum),
    so its FFT is cached per FFT shape and h scales the input. P is
    returned on g's grid grown by ``border`` zero cells per side; no offset
    wraps around the cyclic grid of the smallest 5-smooth size of at least
    2 (size + border) cells per axis (2n for n = 2^k).
    """
    g = np.asarray(g, dtype=complex)
    if g.ndim != 2 or g.size == 0:
        raise ValueError(f"expected a nonempty 2D complex array, got {g.shape}")
    wy, wx = g.shape
    khat_t, _ = _cauchy_hat(*(_cauchy_size(m, border) for m in g.shape),
                            shift=border)
    return _convolve(g * h, khat_t, wy + 2 * border, wx + 2 * border)


def _cauchy_size(m, border):
    """Cyclic grid size of the Cauchy step along an axis of m cells."""
    return _next_5_smooth(2 * (m + border))


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
    iterations: int = 0
    final_residual: float = 0.0
    residual_history: tuple = ()
    timings_ms: dict = field(default_factory=dict)
    observed_rate: float = None
    sup_mu: float = None
    iteration_error_bound: float = None
    sweep_cells: tuple = None

    def __post_init__(self):
        # contiguous, so eval_gridmap gathers from a flat view of it
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        if self.values.ndim != 2:
            raise ValueError("values must be 2D")
        if min(self.values.shape) < 2:
            raise ValueError(f"need at least 2x2 samples, got {self.values.shape}")
        if not (np.all(np.isfinite(self.values)) and np.isfinite(self.tail)):
            raise ValueError("map samples and tail must be finite")
        self.bbox = box(self.bbox)

    @property
    def shape(self):
        return self.values.shape

    @property
    def resolution(self):
        """Twice the larger cell side: the smallest radius at which the
        bilinear interpolant stands for the map rather than its grid."""
        xmin, ymin, xmax, ymax = self.bbox
        ny, nx = self.values.shape
        return 2.0 * max((xmax - xmin) / nx, (ymax - ymin) / ny)

    def __call__(self, z):
        return eval_gridmap(self, z)

    def to_dict(self):
        """The solve report: convergence, tail, box, phase times and rates."""
        return {"iterations": self.iterations,
                "residual": self.final_residual,
                "tail": [self.tail.real, self.tail.imag],
                "bbox": list(self.bbox),
                "timings_ms": self.timings_ms,
                "observed_rate": self.observed_rate,
                "sup_mu": self.sup_mu,
                "iteration_error_bound": self.iteration_error_bound,
                "sweep_cells": (None if self.sweep_cells is None
                                else list(self.sweep_cells))}

    def save(self, path):
        """Write a QCMAP1 file: extra header bbox and tail, six float64."""
        write_grid(path, SOLVER_MAGIC, self.values,
                   struct.pack("<6d", *self.bbox, self.tail.real, self.tail.imag))

    @classmethod
    def load(cls, path):
        """The map of a QCMAP1 file; ValueError naming ``path`` for a
        malformed one, a bad header box or non-finite samples or tail."""
        values, header = read_grid(path, SOLVER_MAGIC, header_size=48)
        *bbox, tre, tim = struct.unpack("<6d", header)
        try:
            return cls(bbox=bbox, values=values, tail=complex(tre, tim))
        except ValueError as exc:
            raise ValueError(f"{exc} in {path}") from None


@pointwise
def eval_gridmap(gm: GridMap, z):
    """Bilinear interpolation inside the box, z + tail/(z - center) outside."""
    xmin, ymin, xmax, ymax = gm.bbox
    ny, nx = gm.values.shape
    hx = (xmax - xmin) / nx
    hy = (ymax - ymin) / ny

    def bilinear(zi):
        # cell indices are clipped but the weights are not: in the half-cell
        # band between the outermost sample row and the box edge this
        # extrapolates linearly, keeping the identity part of the map exact
        fx = (zi.real - xmin) / hx - 0.5
        fy = (zi.imag - ymin) / hy - 0.5
        ix = np.floor(fx)
        iy = np.floor(fy)
        np.minimum(np.maximum(ix, 0, out=ix), nx - 2, out=ix)
        np.minimum(np.maximum(iy, 0, out=iy), ny - 2, out=iy)
        tx = fx - ix
        ty = fy - iy
        sx = 1 - tx
        sy = 1 - ty
        k = (iy * nx + ix).astype(np.intp)
        v = gm.values.ravel()
        return (sx * sy * v[k] + tx * sy * v[k + 1]
                + sx * ty * v[k + nx] + tx * ty * v[k + nx + 1])

    def tail(zo):
        zc = complex(0.5 * (xmin + xmax), 0.5 * (ymin + ymax))
        return zo + gm.tail / (zo - zc)

    inside = ((z.real >= xmin) & (z.real <= xmax)
              & (z.imag >= ymin) & (z.imag <= ymax))
    n_in = np.count_nonzero(inside)
    if n_in == z.size:
        return bilinear(z)
    if n_in == 0:
        return tail(z)
    out = np.empty(z.shape, dtype=complex)
    out[inside] = bilinear(z[inside])
    outside = ~inside
    out[outside] = tail(z[outside])
    return out


def _sample_mu(mu, Z, h):
    """Cell averages of 3-by-3 field samples; averaging keeps sup |mu| < 1.

    Z holds the centers of square cells of side h.
    """
    offs = (np.arange(3) + 0.5) / 3 - 0.5
    acc = np.zeros(Z.shape, dtype=complex)
    for oy in offs:
        for ox in offs:
            acc += mu.evaluate(Z + ox * h + 1j * oy * h)
    return acc / 9


def _support_window(grid_n, pad_factor):
    """The slice of rows, and of columns, of the cells that meet (-r, r)^2.

    The box of solve_principal is [-L, L]^2 with L = pad_factor * r, so in
    cell widths the square starts s = grid_n (pad_factor - 1) /
    (2 pad_factor) cells in from each edge; the window depends only on the
    grid. A cell before floor(s) ends at or before s, and its supersampling
    points lie at least a sixth of a cell width inside it (far more than
    the rounding of s), so outside the square, where a field supported in
    |z| <= r samples to zero. Where s is an integer (pad_factor 4 and 2)
    the window is the cells inside the square: 64 at n=256 and 128 at
    n=512 with pad_factor 4.
    """
    first = math.floor(grid_n * (pad_factor - 1) / (2 * pad_factor))
    return slice(first, grid_n - first)


def solve_principal(mu, cfg: SolverConfig = None) -> GridMap:
    """Compute the principal solution Phi = z + O(1/z) for a compact field.

    The grid box is sized to pad_factor times the support radius, dbar Phi is
    obtained by iterating h <- mu * S h + mu until it stops (below), and Phi
    is assembled as z plus the free-space Cauchy transform of h. The
    far-field tail coefficient is the discrete total integral of h over pi.
    Raises ConvergenceError if max_iter sweeps do not stop (the error carries
    the last residual and error bound), SupportError for unbounded supports
    and ValueError, before the first sweep, unless the sampled sup |mu| is
    finite and < 1.

    Each sweep bounds the change still to come in Phi. The torus S is
    unimodular and 0 at the zero frequency, and restricting it to the
    swept box does not raise its norm, so the sweep map contracts in l2 at
    k = sup |mu| on the grid and
    ||h_inf - h_j||_2 <= k / (1 - k) ||h_j - h_j-1||_2.
    With s the cell side, each value of P is s times the inner product of h
    with part of the unit-cell Cauchy kernel, so by Cauchy-Schwarz and
    Parseval it moves by at most kappa ||dh||_2, kappa = s ||K_hat||_F / M
    for the cached M-by-M kernel FFT: 0.059 at n=256 and 0.031 at n=512
    with pad_factor 4, and at least 1.6 s. The map's
    ``iteration_error_bound``, kappa k / (1 - k) ||h_j - h_j-1||_2 of the
    last sweep, thus bounds the change of Phi at the nodes, and through
    eval_gridmap:
      - inside the box the interpolant is a convex combination of nodes,
        except in the half-cell band at the box edge, where it extrapolates
        with weights of absolute sum at most 4 from nodes about
        (pad_factor - 1) r from the support; 4 times the l2 norm of their
        kernel rows stays below 0.9 kappa / s for pad_factor >= 2;
      - outside the box the tail term moves by s^2 / pi times the sum of dh
        over z - center, at most s^2 b / (pi L) ||dh||_2 on a b-by-b
        window: 0.16 s ||dh||_2 at pad_factor 4, 0.34 s ||dh||_2 at most.
    The iteration stops at the first sweep whose bound is at most ``tol``,
    or 0.01 s with ``tol`` None (the default).

    Every iterate vanishes off the support of the sampled field, which lies
    in the window of cells meeting the open square (-r, r)^2 (r the support
    radius), so the field is sampled and the Cauchy transform of h taken
    only on that window; the transform returns P on the whole grid. h is
    iterated only on the box of rows and columns where the samples are
    nonzero (the window for an all-zero field), whose [rows, cols] the
    result records as ``sweep_cells``; the iterates, and so the stop, are
    the window's up to round-off, and a box equal to the window sweeps it
    bit for bit as the window. The result records the time of each phase
    (``kernels`` is the build or fetch of the kernels before the first
    sweep: the box's S entry every solve, the Cauchy kernel and the torus S
    once per grid), the observed contraction rate (geometric mean of
    successive residual ratios; None after one sweep or a zero first
    residual) and sup |mu| over the grid, its theoretical bound.
    """
    cfg = cfg or SolverConfig()
    rad = mu.support_radius()
    if not math.isfinite(rad) or rad <= 0:
        raise SupportError(
            f"field support radius {rad} is not usable; truncate the field")
    t0 = time.perf_counter()
    L = cfg.pad_factor * rad
    n = cfg.grid_n
    h = 2 * L / n
    xs = cell_centers(-L, L, n)
    w = _support_window(n, cfg.pad_factor)
    # the step of xs itself, which can differ from h in the last bit
    mu_win = _sample_mu(mu, xs[None, w] + 1j * xs[w, None], xs[1] - xs[0])
    t1 = time.perf_counter()

    # every iterate vanishes where the samples do, so the loop sweeps only
    # the box of rows and columns where they are nonzero; an all-zero field
    # sweeps the whole window
    rows = np.flatnonzero(mu_win.any(axis=1))
    cols = np.flatnonzero(mu_win.any(axis=0))
    box = np.s_[:, :]
    if rows.size:
        box = np.s_[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    mu_box = np.ascontiguousarray(mu_win[box])
    k = float(np.abs(mu_box).max(initial=0.0))
    if not k < 1.0:
        raise ValueError(f"sampled sup |mu| is {k}, must be finite and < 1")
    # the kernels, before the first sweep: the Cauchy step's (with its l2
    # gain) and the torus S, built once per grid, and the box's S entry,
    # sliced from a torus that reaches the whole window so that every box
    # of this grid shares it
    b = w.stop - w.start
    M = _cauchy_size(b, w.start)
    kappa = h * _cauchy_hat(M, M, shift=w.start)[1]
    reach = _s_size(b, n)
    _s_torus(reach, reach, (n, n))
    _s_hat(*(_s_size(m, n) for m in mu_box.shape), (n, n))
    t2 = time.perf_counter()

    # a step d bounds the change still to come in Phi by gain * ||d||_2
    gain = kappa * k / (1.0 - k)
    target = 0.01 * h if cfg.tol is None else cfg.tol
    # supports are confined to the central 1/pad_factor by construction, so
    # no iterate reaches the band singular_transform warns about
    x = mu_box
    history = []
    for iterations in range(1, cfg.max_iter + 1):
        nxt = mu_box * singular_transform(x, period=(n, n)) + mu_box
        d = nxt - x
        residual = float(np.abs(d).max(initial=0.0))
        bound = gain * math.sqrt(np.vdot(d, d).real)
        history.append(residual)
        x = nxt
        if bound <= target:
            break
    else:
        raise ConvergenceError(
            f"no convergence after {cfg.max_iter} iterations, "
            f"residual {residual:.3e}, error bound {bound:.3e}",
            residual=residual, iterations=cfg.max_iter, error_bound=bound)
    t3 = time.perf_counter()
    # a box's kernel FFT does not outlive its solve: kept across solves,
    # entries of a size each field picks split the heap's free space
    _s_hat.cache_clear()

    h_win = np.zeros_like(mu_win)
    h_win[box] = x
    del x, nxt, d
    # + copies P out of the taller FFT buffer, so the map does not pin it
    P = cauchy_transform(h_win, h, border=w.start) + xs[None, :]
    P += 1j * xs[:, None]
    tail = complex(h_win.sum() * h * h / math.pi)
    t4 = time.perf_counter()
    rate = None
    if len(history) > 1 and history[0] > 0:
        rate = (history[-1] / history[0]) ** (1.0 / (len(history) - 1))
    return GridMap(bbox=(-L, -L, L, L), values=P, tail=tail,
                   iterations=iterations, final_residual=residual,
                   residual_history=tuple(history),
                   timings_ms={"sample": 1e3 * (t1 - t0),
                               "kernels": 1e3 * (t2 - t1),
                               "iterate": 1e3 * (t3 - t2),
                               "cauchy": 1e3 * (t4 - t3)},
                   observed_rate=rate, sup_mu=k, iteration_error_bound=bound,
                   sweep_cells=mu_box.shape)


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
    np.divide(dzbar, dz, out=out[1:-1, 1:-1], where=ok)
    return out
