"""Dilatation fields: declarative Beltrami coefficients with Holder metadata.

A dilatation field assigns a complex coefficient mu(z) with sup norm < 1 to
every point of the plane, vanishing outside a prescribed support. Four kinds
are provided: a constant on a disk, a constant on a (possibly truncated)
sector, a sampled grid with bilinear interpolation and a support mask, and a
composite of fields with pairwise disjoint supports.

All fields are immutable after construction and safe to evaluate concurrently.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._arrays import (box, coefficient, count, opening, pointwise, read_grid,
                      write_grid)

FIELD_MAGIC = b"QCFLD1\x00\x00"


class FieldError(ValueError):
    """Invalid dilatation field specification."""


@dataclass(frozen=True)
class DiskConstant:
    """mu = c on the closed disk |z - center| <= radius, zero elsewhere."""

    c: complex
    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "c", coefficient(self.c, FieldError))
        object.__setattr__(self, "center", complex(self.center))
        if not cmath.isfinite(self.center):
            raise FieldError(f"center must be finite, got {self.center!r}")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise FieldError(f"radius must be positive and finite, got {self.radius}")

    @property
    def sup_norm(self):
        return abs(self.c)

    def bounding_box(self):
        cx, cy = self.center.real, self.center.imag
        r = self.radius
        return (cx - r, cy - r, cx + r, cy + r)

    def support_radius(self):
        return abs(self.center) + self.radius

    @pointwise
    def support_contains(self, z):
        return np.abs(z - self.center) <= self.radius

    @pointwise
    def evaluate(self, z):
        return np.where(self.support_contains(z), self.c, 0.0)


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
        object.__setattr__(self, "c", coefficient(self.c, FieldError))
        object.__setattr__(self, "theta0", opening(self.theta0, FieldError))
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

    @pointwise
    def support_contains(self, z):
        ang = np.angle(z * np.exp(-1j * self.beta)) % math.tau
        return (ang < self.theta0) & (z != 0) & (np.abs(z) <= self.radius)

    @pointwise
    def evaluate(self, z):
        return np.where(self.support_contains(z), self.c, 0.0)


@dataclass(frozen=True, eq=False)
class HolderGrid:
    """Sampled field on a rectangle, bilinear inside the support mask.

    Samples live on the node-centered grid of shape (ny, nx) over ``bbox``
    (xmin, ymin, xmax, ymax); row iy corresponds to increasing imaginary part.
    Evaluation clamps the bilinear weights to masked nodes, so every value is
    a convex combination of stored samples and the sup norm bound survives
    interpolation. Points outside the box, or in cells with no masked corner,
    evaluate to zero.

    ``epsilon`` and ``holder_c`` are declared Holder metadata: validated on
    entry and kept in the JSON spec, but neither verified nor inferred.
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
        object.__setattr__(self, "bbox", box(self.bbox, FieldError))
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
        sup = float(np.abs(samples[mask]).max(initial=0.0))
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
        return out, ok

    @pointwise
    def support_contains(self, z):
        return self._interp(z)[1]

    @pointwise
    def evaluate(self, z):
        return self._interp(z)[0]


@dataclass(frozen=True)
class Composite:
    """Union of fields with pairwise disjoint supports; evaluate raises
    FieldError at a point that two members' supports both contain."""

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

    @pointwise
    def support_contains(self, z):
        inside = np.zeros(z.shape, dtype=bool)
        for m in self.members:
            inside |= m.support_contains(z)
        return inside

    @pointwise
    def evaluate(self, z):
        inside = [m.support_contains(z) for m in self.members]
        if np.any(np.count_nonzero(inside, axis=0) > 1):
            raise FieldError("composite members' supports overlap at a point")
        out = np.zeros(z.shape, dtype=complex)
        for m in self.members:
            out = out + m.evaluate(z)
        return out


def _supports_overlap(a, b):
    """Sampled disjointness test on a 96x96 grid over the bounding boxes' overlap."""
    ax0, ay0, ax1, ay1 = a.bounding_box()
    bx0, by0, bx1, by1 = b.bounding_box()
    x0, x1 = max(ax0, bx0), min(ax1, bx1)
    y0, y1 = max(ay0, by0), min(ay1, by1)
    if x0 >= x1 or y0 >= y1:
        return False
    if not (math.isfinite(x0) and math.isfinite(x1)
            and math.isfinite(y0) and math.isfinite(y1)):
        raise FieldError("cannot test disjointness of two unbounded supports")
    xs = np.linspace(x0, x1, 96)
    ys = np.linspace(y0, y1, 96)
    X, Y = np.meshgrid(xs, ys)
    Z = X + 1j * Y
    return bool(np.any(a.support_contains(Z) & b.support_contains(Z)))


# ---------------------------------------------------------------------------
# serialization

def write_grid_samples(path, samples):
    """Write complex grid samples (ny, nx) as a QCFLD1 file.

    The layout is the shared grid layout of ``qcmap._arrays`` with no extra
    header: 8-byte magic, two uint32 dims (nx, ny), then row-major
    little-endian complex128 with rows ordered by increasing imaginary part.
    """
    write_grid(path, FIELD_MAGIC, samples)


def read_grid_samples(path):
    """Samples of a QCFLD1 file; FieldError for a malformed or non-finite one."""
    samples, _ = read_grid(path, FIELD_MAGIC, error=FieldError)
    if not np.all(np.isfinite(samples)):
        raise FieldError(f"non-finite samples in {path}")
    return samples


def _number(value):
    """``value`` as a float; TypeError unless it is a number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _pair(obj):
    re, im = obj
    return complex(_number(re), _number(im))


def field_from_json(spec, base_dir=None):
    """Build a field from a spec dict, or from the path of a JSON spec file.

    Relative paths in a spec (``data_file``, composite members) are read
    against ``base_dir``, for a spec file its directory. A missing key, a key
    the kind does not read, a bad value, a malformed file or a composite that
    includes its own spec file raises FieldError.
    """
    return _load(spec, base_dir, ())


def _load(spec, base_dir, chain):
    """``field_from_json``; ``chain`` holds the spec files being read, resolved."""
    if isinstance(spec, (str, Path)):
        path = Path(base_dir or ".", spec)  # an absolute spec ignores base_dir
        base_dir = path.parent
        here = path.resolve()
        if here in chain:
            raise FieldError(f"{path} includes itself as a composite member")
        chain += (here,)
        try:
            spec = json.loads(path.read_text())
        except ValueError as exc:  # not JSON, or not UTF-8
            raise FieldError(f"{path} is not a JSON file: {exc}") from None
    if not isinstance(spec, dict):
        raise FieldError("field spec must be a JSON object")
    try:
        return _field_from_dict(dict(spec), base_dir, chain)
    except FieldError:
        raise
    except KeyError as exc:
        raise FieldError(f"field spec is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FieldError(f"bad {spec.get('kind')!r} field spec: {exc}") from None


def _field_from_dict(spec, base_dir, chain):
    """The field of ``spec``, whose keys are popped as they are read."""
    kind = spec.pop("kind", None)
    if kind == "disk_constant":
        field = DiskConstant(c=_pair(spec.pop("c")),
                             center=_pair(spec.pop("center", [0, 0])),
                             radius=_number(spec.pop("radius", 1.0)))
    elif kind == "sector_constant":
        field = SectorConstant(c=_pair(spec.pop("c")),
                               theta0=_number(spec.pop("theta0")),
                               beta=_number(spec.pop("beta", 0.0)),
                               radius=_number(spec.pop("radius", math.inf)))
    elif kind == "holder_grid":
        data_file = Path(base_dir or ".", spec.pop("data_file"))
        samples = read_grid_samples(data_file)
        nx, ny = (count(v, "n") for v in spec.pop("n"))
        if samples.shape != (ny, nx):
            raise FieldError(
                f"dims in {data_file} are {samples.shape[::-1]}, JSON says {(nx, ny)}")
        field = HolderGrid(samples=samples,
                           bbox=[_number(v) for v in spec.pop("bbox")],
                           epsilon=_number(spec.pop("epsilon")),
                           holder_c=_number(spec.pop("holder_c")))
    elif kind == "composite":
        members = spec.pop("members")
        if not isinstance(members, (list, tuple)):
            raise FieldError("composite members must be a list")
        field = Composite(tuple(_load(m, base_dir, chain) for m in members))
    else:
        raise FieldError(f"unknown field kind {kind!r}")
    if spec:
        raise FieldError(f"{kind!r} field spec has unknown keys {sorted(spec)}")
    return field
