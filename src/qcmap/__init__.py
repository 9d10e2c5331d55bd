"""Numerical quasiconformal mapping toolkit.

Closed-form bi-Lipschitz Beltrami solutions on disks and sectors, a spectral
grid solver for the principal solution of compactly supported dilatations,
and a modulus-gap certifier for bi-Lipschitz behavior.
"""

__version__ = "0.1.0"

from .closed_maps import (AmbiguousInverseError, DiskMapSpec, LocusResult,
                          SectorMapSpec, allowable_for_corner, allowable_locus,
                          compose_dilatation, eval_fangle, eval_fc,
                          eval_fc_inverse, fangle_map, fc_map, identity_map,
                          is_allowable_sector, sector_invariants)
from .extension import (CircleHomeo, ExtensionReport, extend_F, mu_F,
                        validate_extension)
from .field import (Composite, DiskConstant, FieldError, HolderGrid,
                    HolderReport, SectorConstant, field_from_json,
                    holder_check, read_grid_samples, write_grid_samples)
from .lehto import LehtoCheck, LehtoEstimate, lehto_check, lehto_integral
from .modulus import (AnnulusGapRecord, AnnulusSpec, BoundingAnnuli,
                      CertificateReport, NotSeparatedError,
                      QuasisymmetryBound, bounding_annuli, certify_bilipschitz,
                      decompose_modulus_gap, default_eta, modulus,
                      modulus_gap_bounds)
from .solver import (ConvergenceError, GridMap, SolverConfig, SupportError,
                     cauchy_transform, eval_gridmap, finite_difference_mu,
                     grid_coordinates, singular_transform, solve_principal)

__all__ = [
    "AmbiguousInverseError", "AnnulusGapRecord", "AnnulusSpec",
    "BoundingAnnuli", "CertificateReport", "CircleHomeo", "Composite",
    "ConvergenceError", "DiskConstant", "DiskMapSpec", "ExtensionReport",
    "FieldError", "GridMap", "HolderGrid", "HolderReport", "LehtoCheck",
    "LehtoEstimate", "LocusResult", "NotSeparatedError", "QuasisymmetryBound",
    "SectorConstant", "SectorMapSpec", "SolverConfig", "SupportError",
    "allowable_for_corner", "allowable_locus", "bounding_annuli",
    "cauchy_transform", "certify_bilipschitz", "compose_dilatation",
    "decompose_modulus_gap", "default_eta", "eval_fangle", "eval_fc",
    "eval_fc_inverse", "eval_gridmap", "extend_F", "fangle_map",
    "fc_map", "field_from_json", "finite_difference_mu",
    "grid_coordinates", "holder_check", "identity_map", "is_allowable_sector",
    "lehto_check", "lehto_integral", "modulus", "modulus_gap_bounds", "mu_F",
    "read_grid_samples", "sector_invariants", "singular_transform",
    "solve_principal", "validate_extension",
    "write_grid_samples",
]
