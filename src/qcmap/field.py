"""Dilatation fields: declarative Beltrami coefficients with Holder metadata.

A dilatation field assigns a complex coefficient mu(z) with sup norm < 1 to
every point of the plane, vanishing outside a prescribed support. Four kinds
are provided: a constant on a disk, a constant on a (possibly truncated)
sector, a sampled grid with bilinear interpolation and a support mask, and a
composite of fields with pairwise disjoint supports.

All fields are immutable after construction and safe to evaluate concurrently.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

FIELD_MAGIC = b"QCFLD1\x00\x00"

_TWO_PI = 2.0 * math.pi


class FieldError(ValueError):
    """Invalid dilatation field specification."""


def _check_finite_complex(value, name):
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise FieldError(f"{name} must be finite, got {value!r}")
    return value


def _shaped(fn, z):
    """Apply an array evaluator, preserving scalar in / scalar out."""
    zz = np.asarray(z, dtype=complex)
    out = fn(np.atleast_1d(zz))
    if zz.ndim == 0:
        return complex(out[0])
    return out.reshape(zz.shape)


@dataclass(frozen=True)
class DiskConstant:
    """mu = c on the closed disk |z - center| <= radius, zero elsewhere."""

    c: complex
    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "c", _check_finite_complex(self.c, "c"))
        object.__setattr__(self, "center", _check_finite_complex(self.center, "center"))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise FieldError(f"radius must be positive and finite, got {self.radius}")
        if abs(self.c) >= 1.0:
            raise FieldError(f"|c| must be < 1, got |c| = {abs(self.c)}")

    @property
    def sup_norm(self):
        return abs(self.c)

    def bounding_box(self):
        cx, cy = self.center.real, self.center.imag
        r = self.radius
        return (cx - r, cy - r, cx + r, cy + r)

    def support_radius(self):
        return abs(self.center) + self.radius

    def support_contains(self, z):
        zz = np.asarray(z, dtype=complex)
        return np.abs(zz - self.center) <= self.radius

    def evaluate(self, z):
        def _eval(zz):
            return np.where(np.abs(zz - self.center) <= self.radius, self.c, 0.0)

        return _shaped(_eval, z)


@dataclass(frozen=True)
class SectorConstant:
    """mu = c on the sector of opening theta0 with vertex 0, zero elsewhere.

    The sector is { z != 0 : arg(z e^{-i beta}) in [0, theta0) }, i.e. the
    standard sector rotated by ``beta``. A finite ``radius`` truncates the
    support to the disk |z| <= radius, which is required before the field can
    be fed to the grid solver (the untruncated sector is not compact).
    """

    c: complex
    theta0: float
    beta: float = 0.0
    radius: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "c", _check_finite_complex(self.c, "c"))
        if abs(self.c) >= 1.0:
            raise FieldError(f"|c| must be < 1, got |c| = {abs(self.c)}")
        if not (0.0 < self.theta0 < _TWO_PI):
            raise FieldError(f"theta0 must lie in (0, 2*pi), got {self.theta0}")
        if not math.isfinite(self.beta):
            raise FieldError("beta must be finite")
        if not self.radius > 0:
            raise FieldError("radius must be positive")

    @property
    def sup_norm(self):
        return abs(self.c)

    def bounding_box(self):
        r = self.radius
        return (-r, -r, r, r)

    def support_radius(self):
        return self.radius

    def support_contains(self, z):
        zz = np.asarray(z, dtype=complex)
        ang = np.angle(zz * np.exp(-1j * self.beta)) % _TWO_PI
        inside = (ang < self.theta0) & (zz != 0)
        if math.isfinite(self.radius):
            inside &= np.abs(zz) <= self.radius
        return inside

    def evaluate(self, z):
        def _eval(zz):
            return np.where(self.support_contains(zz), self.c, 0.0)

        return _shaped(_eval, z)


@dataclass(frozen=True, eq=False)
class HolderGrid:
    """Sampled field on a rectangle, bilinear inside the support mask.

    Samples live on the node-centered grid of shape (ny, nx) over ``bbox``
    (xmin, ymin, xmax, ymax); row iy corresponds to increasing imaginary part.
    Evaluation clamps the bilinear weights to masked nodes, so every value is
    a convex combination of stored samples and the sup norm bound survives
    interpolation. Points outside the box, or in cells with no masked corner,
    evaluate to zero.

    ``epsilon`` and ``holder_c`` are user-declared Holder metadata that
    :func:`holder_check` verifies by sampling; they are never inferred.
    """

    samples: np.ndarray
    bbox: tuple
    epsilon: float
    holder_c: float
    mask: np.ndarray = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 2 or samples.shape[0] < 2 or samples.shape[1] < 2:
            raise FieldError("samples must be a 2D array, at least 2x2")
        if not np.all(np.isfinite(samples)):
            raise FieldError("samples must be finite")
        object.__setattr__(self, "samples", samples)
        xmin, ymin, xmax, ymax = (float(v) for v in self.bbox)
        if not (xmin < xmax and ymin < ymax):
            raise FieldError(f"degenerate bbox {self.bbox}")
        object.__setattr__(self, "bbox", (xmin, ymin, xmax, ymax))
        if not (0.0 < self.epsilon <= 1.0):
            raise FieldError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not (self.holder_c >= 0 and math.isfinite(self.holder_c)):
            raise FieldError("holder_c must be finite and >= 0")
        mask = self.mask
        if mask is None:
            mask = np.ones(samples.shape, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != samples.shape:
                raise FieldError("mask shape must match samples shape")
        object.__setattr__(self, "mask", mask)
        if mask.any():
            sup = float(np.abs(samples[mask]).max())
        else:
            sup = 0.0
        if sup >= 1.0:
            raise FieldError(f"sup |mu| over masked samples is {sup}, must be < 1")
        object.__setattr__(self, "_sup", sup)

    @property
    def sup_norm(self):
        return self._sup

    def bounding_box(self):
        return self.bbox

    def support_radius(self):
        xmin, ymin, xmax, ymax = self.bbox
        corners = [complex(xmin, ymin), complex(xmin, ymax),
                   complex(xmax, ymin), complex(xmax, ymax)]
        return max(abs(c) for c in corners)

    def node_coordinates(self):
        xmin, ymin, xmax, ymax = self.bbox
        ny, nx = self.samples.shape
        return np.linspace(xmin, xmax, nx), np.linspace(ymin, ymax, ny)

    def _interp(self, zz):
        xmin, ymin, xmax, ymax = self.bbox
        ny, nx = self.samples.shape
        dx = (xmax - xmin) / (nx - 1)
        dy = (ymax - ymin) / (ny - 1)
        x = zz.real
        y = zz.imag
        in_box = (x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax)
        fx = np.clip((x - xmin) / dx, 0.0, nx - 1.0)
        fy = np.clip((y - ymin) / dy, 0.0, ny - 1.0)
        ix = np.minimum(fx.astype(int), nx - 2)
        iy = np.minimum(fy.astype(int), ny - 2)
        tx = fx - ix
        ty = fy - iy
        val = np.zeros(zz.shape, dtype=complex)
        wsum = np.zeros(zz.shape, dtype=float)
        for (ox, oy, w) in (
            (0, 0, (1 - tx) * (1 - ty)),
            (1, 0, tx * (1 - ty)),
            (0, 1, (1 - tx) * ty),
            (1, 1, tx * ty),
        ):
            m = self.mask[iy + oy, ix + ox]
            wm = np.where(m, w, 0.0)
            val += wm * self.samples[iy + oy, ix + ox]
            wsum += wm
        ok = in_box & (wsum > 0)
        out = np.zeros(zz.shape, dtype=complex)
        np.divide(val, wsum, out=out, where=ok)
        out[~ok] = 0.0
        return out, ok

    def support_contains(self, z):
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        _, ok = self._interp(zz)
        if np.asarray(z).ndim == 0:
            return bool(ok[0])
        return ok.reshape(np.asarray(z).shape)

    def evaluate(self, z):
        def _eval(zz):
            out, _ = self._interp(zz)
            return out

        return _shaped(_eval, z)


@dataclass(frozen=True)
class Composite:
    """Union of fields with pairwise disjoint supports."""

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise FieldError("composite needs at least one member")
        object.__setattr__(self, "members", members)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if _supports_overlap(members[i], members[j]):
                    raise FieldError(
                        f"members {i} and {j} have overlapping supports")

    @property
    def sup_norm(self):
        return max(m.sup_norm for m in self.members)

    def bounding_box(self):
        boxes = [m.bounding_box() for m in self.members]
        return (min(b[0] for b in boxes), min(b[1] for b in boxes),
                max(b[2] for b in boxes), max(b[3] for b in boxes))

    def support_radius(self):
        return max(m.support_radius() for m in self.members)

    def support_contains(self, z):
        zz = np.asarray(z, dtype=complex)
        inside = np.zeros(np.atleast_1d(zz).shape, dtype=bool)
        for m in self.members:
            inside |= np.atleast_1d(m.support_contains(zz))
        if zz.ndim == 0:
            return bool(inside[0])
        return inside.reshape(zz.shape)

    def evaluate(self, z):
        def _eval(zz):
            out = np.zeros(zz.shape, dtype=complex)
            for m in self.members:
                out = out + m.evaluate(zz)
            return out

        return _shaped(_eval, z)


def _supports_overlap(a, b, grid=96):
    """Sampled disjointness test on the intersection of bounding boxes."""
    ax0, ay0, ax1, ay1 = a.bounding_box()
    bx0, by0, bx1, by1 = b.bounding_box()
    x0, x1 = max(ax0, bx0), min(ax1, bx1)
    y0, y1 = max(ay0, by0), min(ay1, by1)
    if x0 >= x1 or y0 >= y1:
        return False
    if not (math.isfinite(x0) and math.isfinite(x1)
            and math.isfinite(y0) and math.isfinite(y1)):
        raise FieldError("cannot test disjointness of two unbounded supports")
    xs = np.linspace(x0, x1, grid)
    ys = np.linspace(y0, y1, grid)
    X, Y = np.meshgrid(xs, ys)
    Z = X + 1j * Y
    return bool(np.any(np.atleast_1d(a.support_contains(Z))
                       & np.atleast_1d(b.support_contains(Z))))


@dataclass(frozen=True)
class HolderReport:
    max_violation: float
    pairs: int


def holder_check(field, pair_count=1000, seed=0):
    """Spot-check declared Holder metadata on sampled node pairs.

    Draws ``pair_count`` random pairs of masked grid nodes and reports the
    maximum of |mu(x) - mu(y)| - C |x - y|^epsilon. A value <= 0 means the
    samples are consistent with the declared constant and exponent.
    """
    grids = _holder_members(field)
    rng = np.random.default_rng(seed)
    worst = -math.inf
    total = 0
    for g in grids:
        iy, ix = np.nonzero(g.mask)
        if len(ix) < 2:
            continue
        n = max(1, pair_count // len(grids))
        ia = rng.integers(0, len(ix), size=n)
        ib = rng.integers(0, len(ix), size=n)
        keep = ia != ib
        ia, ib = ia[keep], ib[keep]
        xs, ys = g.node_coordinates()
        za = xs[ix[ia]] + 1j * ys[iy[ia]]
        zb = xs[ix[ib]] + 1j * ys[iy[ib]]
        va = g.samples[iy[ia], ix[ia]]
        vb = g.samples[iy[ib], ix[ib]]
        viol = np.abs(va - vb) - g.holder_c * np.abs(za - zb) ** g.epsilon
        if viol.size:
            worst = max(worst, float(viol.max()))
            total += viol.size
    if total == 0:
        raise FieldError("no sampled pairs available for the Holder check")
    return HolderReport(max_violation=worst, pairs=total)


def _holder_members(field):
    if isinstance(field, HolderGrid):
        return [field]
    if isinstance(field, Composite):
        grids = [m for m in field.members if isinstance(m, HolderGrid)]
        if len(grids) != len(field.members):
            raise FieldError("holder_check needs HolderGrid members only")
        return grids
    raise FieldError("holder_check needs a HolderGrid or a composite of them")


# ---------------------------------------------------------------------------
# serialization

def write_grid_samples(path, samples):
    """Write complex grid samples in the QCFLD1 binary layout.

    Little endian: 8-byte magic, two uint32 dims (nx, ny), then row-major
    float64 (re, im) pairs with rows ordered by increasing imaginary part.
    """
    samples = np.asarray(samples, dtype=complex)
    ny, nx = samples.shape
    inter = np.empty((ny, nx, 2), dtype="<f8")
    inter[..., 0] = samples.real
    inter[..., 1] = samples.imag
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<II", nx, ny))
        fh.write(inter.tobytes())


def read_grid_samples(path):
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != FIELD_MAGIC:
            raise FieldError(f"bad magic {magic!r} in {path}")
        nx, ny = struct.unpack("<II", fh.read(8))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    if raw.size != 2 * nx * ny:
        raise FieldError(f"truncated grid file {path}")
    raw = raw.reshape(ny, nx, 2)
    samples = raw[..., 0] + 1j * raw[..., 1]
    if not np.all(np.isfinite(raw)):
        raise FieldError(f"non-finite samples in {path}")
    return samples


def _pair(obj, name):
    try:
        re, im = obj
    except (TypeError, ValueError):
        raise FieldError(f"{name} must be a [re, im] pair, got {obj!r}")
    return complex(float(re), float(im))


def field_from_json(spec, base_dir=None):
    """Build a field from its JSON description (dict, JSON text, or path)."""
    if isinstance(spec, (str, Path)):
        p = Path(spec)
        if p.suffix == ".json" or p.exists():
            base_dir = p.parent
            spec = json.loads(p.read_text())
        else:
            spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise FieldError("field spec must be a JSON object")
    kind = spec.get("kind")
    if kind == "disk_constant":
        return DiskConstant(c=_pair(spec["c"], "c"),
                            center=_pair(spec.get("center", [0, 0]), "center"),
                            radius=float(spec.get("radius", 1.0)))
    if kind == "sector_constant":
        return SectorConstant(c=_pair(spec["c"], "c"),
                              theta0=float(spec["theta0"]),
                              beta=float(spec.get("beta", 0.0)),
                              radius=float(spec.get("radius", math.inf)))
    if kind == "holder_grid":
        data_file = Path(spec["data_file"])
        if base_dir is not None and not data_file.is_absolute():
            data_file = Path(base_dir) / data_file
        samples = read_grid_samples(data_file)
        nx, ny = (int(v) for v in spec["n"])
        if samples.shape != (ny, nx):
            raise FieldError(
                f"dims in {data_file} are {samples.shape[::-1]}, JSON says {(nx, ny)}")
        xmin, ymin, xmax, ymax = (float(v) for v in spec["bbox"])
        return HolderGrid(samples=samples, bbox=(xmin, ymin, xmax, ymax),
                          epsilon=float(spec["epsilon"]),
                          holder_c=float(spec["holder_c"]))
    if kind == "composite":
        return Composite(tuple(field_from_json(m, base_dir)
                               for m in spec["members"]))
    raise FieldError(f"unknown field kind {kind!r}")
