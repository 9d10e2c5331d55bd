"""Shared edge rules: the pointwise evaluator contract, the file writer, the
grid codec, grid cell centers, the sampled unit circle and the checks on a
box, a Beltrami coefficient, a sector opening and a count.

``pointwise`` gives every evaluator ``fn(obj, z, ...)`` one shape contract:
the body sees a 1-D complex array, a scalar input returns a Python scalar
and an array input returns an array of its shape.

``write_file`` is the one way the package writes a file: every artifact
(``.qcmap``, QCFLD1, CSV, JSON, PPM) goes through a temp file beside the
destination and a rename, with the mode ``open(path, "wb")`` would give.

The QCMAP1 map files and QCFLD1 field sample files share one layout, little
endian: an 8-byte magic, two uint32 dims (nx, ny), a fixed-size extra header
(empty for fields), then the samples as row-major complex128, byte for byte
float64 (re, im) pairs, with rows ordered by increasing imaginary part. The
payload goes to and from the sample array with no per-value arithmetic, so
a load keeps every bit.
"""

from __future__ import annotations

import functools
import math
import operator
import os
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


def cell_centers(lo, hi, n):
    """Centers of the n equal cells of [lo, hi], one grid axis's nodes."""
    return lo + (np.arange(n) + 0.5) * ((hi - lo) / n)


@functools.lru_cache(maxsize=4)
def unit_circle(samples):
    """``samples`` equally spaced points of the unit circle from 1, read-only."""
    ring = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False))
    ring.flags.writeable = False
    return ring


def box(values, error=ValueError):
    """``values`` as a tuple (xmin, ymin, xmax, ymax) of floats; raises
    ``error`` unless they are 4 finite numbers with xmin < xmax and ymin < ymax."""
    values = tuple(map(float, values))
    if not (len(values) == 4 and all(map(math.isfinite, values))
            and values[0] < values[2] and values[1] < values[3]):
        raise error("a box must be 4 finite numbers xmin, ymin, xmax, ymax "
                    f"with xmin < xmax and ymin < ymax, got {values}")
    return values


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


def count(n, name):
    """``n`` as an int; raises ValueError unless it is an integer (operator.index)."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None


def write_file(path, *chunks):
    """Write the bytes-like ``chunks`` to ``path`` through a temp file beside
    it and a rename. The file gets mode 0o666 less the umask; on failure the
    temp file is removed and the OSError names ``path``."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".qcmap-tmp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            with open(fd, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def write_grid(path, magic, values, header=b""):
    """Write complex ``values`` (ny, nx) after ``magic``, dims and ``header``."""
    values = np.ascontiguousarray(values, "<c16")
    ny, nx = values.shape
    write_file(path, magic, struct.pack("<II", nx, ny), header, values)


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
        if len(head) != 8 + header_size:
            raise error(f"truncated header in {path}")
        nx, ny = struct.unpack_from("<II", head)
        if nx == 0 or ny == 0:
            raise error(f"zero grid dimensions {nx}x{ny} in {path}")
        size = 16 * nx * ny
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < size:
            raise error(f"truncated grid file {path}")
        if left > size:
            raise error(f"{left - size} trailing bytes in {path}")
        values = np.empty((ny, nx), "<c16")
        if fh.readinto(values) != size:
            raise error(f"truncated grid file {path}")
    return values, head[8:]
