"""Slepian spatial-spectral concentration on the three-dimensional ball."""

from .eigen import (EigenResult, HarmonicCoeffs, angular_shannon, rotate_eigenfunction,
                    shannon_fb, shannon_fl, solve_fb, solve_fl)
from .kernels import (C_kernel, E_matrix, FourierBesselBand,
                      FourierLaguerreBand, G_mask_matrix, G_matrix,
                      fb_k_weights, kernel_fb_fixed_order)
from .regions import (AngularMask, AzimuthallySymmetric, BallPoint,
                      ProductMask, ProductSymmetric, RegionUnion, contains,
                      contains_points, full_ball, solid_angle, volume)
from .specfun import QuadratureRule, gauss_legendre_rule
from .transforms import (SpatialGrid, analysis_fl, analysis_grid,
                         quality_measure, region_energy_grid, slepian_coeffs,
                         space_limit, synthesis_fb, synthesis_fl, synthesis_fl_grid,
                         synthesis_separable, truncate_reconstruct)

__all__ = [
    "AngularMask", "AzimuthallySymmetric", "BallPoint", "C_kernel",
    "E_matrix", "EigenResult", "FourierBesselBand", "FourierLaguerreBand",
    "G_mask_matrix", "G_matrix", "HarmonicCoeffs",
    "ProductMask", "ProductSymmetric", "QuadratureRule", "RegionUnion",
    "SpatialGrid", "analysis_fl", "analysis_grid", "angular_shannon",
    "contains", "contains_points", "fb_k_weights", "full_ball",
    "gauss_legendre_rule", "kernel_fb_fixed_order",
    "quality_measure", "region_energy_grid", "rotate_eigenfunction",
    "shannon_fb", "shannon_fl", "slepian_coeffs", "solid_angle", "solve_fb",
    "solve_fl", "space_limit", "synthesis_fb", "synthesis_fl",
    "synthesis_fl_grid", "synthesis_separable", "truncate_reconstruct",
    "volume",
]

__version__ = "0.1.0"
