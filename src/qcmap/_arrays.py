"""Shared edge rules: the pointwise evaluator contract, the grid codec and
the checks on a Beltrami coefficient and a sector opening.

``pointwise`` gives every evaluator ``fn(obj, z, ...)`` one shape contract:
the body sees a 1-D complex array, a scalar input returns a Python scalar
and an array input returns an array of its shape.

The QCMAP1 map files and QCFLD1 field sample files share one layout, little
endian: an 8-byte magic, two uint32 dims (nx, ny), a fixed-size extra header
(empty for fields), then row-major float64 (re, im) pairs with rows ordered
by increasing imaginary part.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np


def pointwise(fn):
    """Wrap ``fn(obj, z, ...)``, written for a 1-D complex ``z``, for any shape."""
    @functools.wraps(fn)
    def wrapper(obj, z, *args, **kwargs):
        zz = np.asarray(z, dtype=complex)
        out = fn(obj, zz.ravel(), *args, **kwargs)
        if zz.ndim == 0:
            return out.item()
        return out.reshape(zz.shape)

    return wrapper


def coefficient(c, error=ValueError):
    """``c`` as a complex; raises ``error`` unless |c| < 1, so also for NaN or inf."""
    c = complex(c)
    if not abs(c) < 1.0:
        raise error(f"need |c| < 1, got c = {c!r}")
    return c


def opening(theta0, error=ValueError):
    """``theta0`` as a float; raises ``error`` unless it lies in (0, 2*pi)."""
    theta0 = float(theta0)
    if not 0.0 < theta0 < 2.0 * math.pi:
        raise error(f"theta0 must lie in (0, 2*pi), got {theta0}")
    return theta0


def write_grid(path, magic, values, header=b""):
    """Write complex ``values`` (ny, nx) after ``magic``, dims and ``header``."""
    values = np.asarray(values, dtype=complex)
    ny, nx = values.shape
    inter = np.empty((ny, nx, 2), dtype="<f8")
    inter[..., 0] = values.real
    inter[..., 1] = values.imag
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", nx, ny))
        fh.write(header)
        fh.write(inter.tobytes())


def read_grid(path, magic, header_size=0, error=ValueError):
    """(values, header) from a file written by ``write_grid``.

    Raises ``error`` for a wrong magic, a short header, zero dims, a short
    payload or trailing bytes.
    """
    with open(path, "rb") as fh:
        got = fh.read(len(magic))
        if got != magic:
            raise error(f"bad magic {got!r} in {path}")
        head = fh.read(8 + header_size)
        payload = fh.read()
    if len(head) != 8 + header_size:
        raise error(f"truncated header in {path}")
    nx, ny = struct.unpack_from("<II", head)
    if nx == 0 or ny == 0:
        raise error(f"zero grid dimensions {nx}x{ny} in {path}")
    size = 16 * nx * ny
    if len(payload) < size:
        raise error(f"truncated grid file {path}")
    if len(payload) > size:
        raise error(f"{len(payload) - size} trailing bytes in {path}")
    raw = np.frombuffer(payload, dtype="<f8").reshape(ny, nx, 2)
    return raw[..., 0] + 1j * raw[..., 1], head[8:]
