"""Numerical quasiconformal mapping toolkit.

Closed-form bi-Lipschitz Beltrami solutions on disks and sectors, a spectral
grid solver for the principal solution of compactly supported dilatations,
and a modulus-gap certifier for bi-Lipschitz behavior.

``closed_maps``, ``modulus`` and ``solver`` are imported with the package;
``extension``, ``lehto`` and ``field`` on the first access to one of their
names (``qcmap.DiskConstant``, ``from qcmap import lehto_integral``) or to the
submodule itself, so a process pays only for the modules it uses.
"""

import time as _time

_import_start = _time.perf_counter()

__version__ = "0.1.0"

import importlib as _importlib

from .closed_maps import (AmbiguousInverseError, DiskMapSpec, LocusResult,
                          SectorMapSpec, allowable_for_corner, allowable_locus,
                          compose_dilatation, eval_fangle, eval_fc,
                          eval_fc_inverse, fangle_map, fc_map, identity_map,
                          is_allowable_sector, sector_invariants)
from .modulus import (AnnulusGapRecord, AnnulusSpec, BoundingAnnuli,
                      CertificateReport, NotSeparatedError,
                      QuasisymmetryBound, bounding_annuli, certify_bilipschitz,
                      default_eta, modulus, modulus_gap_bounds)
from .solver import (ConvergenceError, GridMap, SolverConfig, SupportError,
                     cauchy_transform, eval_gridmap, finite_difference_mu,
                     grid_coordinates, singular_transform, solve_principal)

# name -> the submodule that defines it; those submodules load on first access
_LAZY = {name: module for module, names in (
    ("extension", ("CircleHomeo", "extend_F", "mu_F")),
    ("field", ("Composite", "DiskConstant", "FieldError", "HolderGrid",
               "SectorConstant", "field_from_json", "read_grid_samples",
               "write_grid_samples")),
    ("lehto", ("LehtoEstimate", "lehto_integral")),
) for name in names}
_SUBMODULES = set(_LAZY.values())


def __getattr__(name):
    """A lazily imported name or submodule (PEP 562), bound here once read."""
    if name in _SUBMODULES:
        return _importlib.import_module("." + name, __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _importlib.import_module("." + _LAZY[name], __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_SUBMODULES})


__all__ = [
    "AmbiguousInverseError", "AnnulusGapRecord", "AnnulusSpec",
    "BoundingAnnuli", "CertificateReport", "CircleHomeo", "Composite",
    "ConvergenceError", "DiskConstant", "DiskMapSpec", "FieldError", "GridMap",
    "HolderGrid", "LehtoEstimate", "LocusResult", "NotSeparatedError",
    "QuasisymmetryBound", "SectorConstant", "SectorMapSpec", "SolverConfig",
    "SupportError", "allowable_for_corner", "allowable_locus",
    "bounding_annuli", "cauchy_transform", "certify_bilipschitz",
    "compose_dilatation", "default_eta", "eval_fangle", "eval_fc",
    "eval_fc_inverse", "eval_gridmap", "extend_F", "fangle_map", "fc_map",
    "field_from_json", "finite_difference_mu", "grid_coordinates",
    "identity_map", "is_allowable_sector", "lehto_integral", "modulus",
    "modulus_gap_bounds", "mu_F", "read_grid_samples", "sector_invariants",
    "singular_transform", "solve_principal", "write_grid_samples",
]

# the time the eager part of this package took to import, numpy included;
# the CLI reports it
_import_ms = (_time.perf_counter() - _import_start) * 1000
