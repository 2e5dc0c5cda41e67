"""Toolkit for minimal surfaces in simply isotropic 3-space.

The ambient space is R^3 with the degenerate inner product dx^2 + dy^2.
Surfaces with vanishing mean curvature relative to the transversal
direction (0, 0, 1) admit a Weierstrass-type integral representation by
pairs of holomorphic functions; this package generates them, analyses
their (relative) curvature, locates singular points, reconstructs graphs
from prescribed second fundamental forms and verifies the correspondence
with spacelike flat zero mean curvature surfaces in Minkowski 4-space.
"""

from .expr import parse_expr, eval_expr, differentiate, to_source
from .geometry import (
    Vec021,
    Rect,
    SurfacePatch,
    FundamentalForms,
    deg_inner,
    fundamental_forms,
    mean_curvature,
    relative_gauss_curvature,
)
from .weierstrass import WeierstrassData, surface_from_data
from .singularities import singular_report, find_zeros
from .reconstruct import PrescribedForms, codazzi_check, surface_from_forms
from .minkowski import (
    Vec4M,
    lorentz_inner,
    iota_embed,
    iota_lift,
    mean_curvature_vector,
    verify_flat_zmc,
)
from .catalog import get as catalog_get

__version__ = "0.1.0"

__all__ = [
    "parse_expr",
    "eval_expr",
    "differentiate",
    "to_source",
    "Vec021",
    "Rect",
    "SurfacePatch",
    "FundamentalForms",
    "deg_inner",
    "fundamental_forms",
    "mean_curvature",
    "relative_gauss_curvature",
    "WeierstrassData",
    "surface_from_data",
    "singular_report",
    "find_zeros",
    "PrescribedForms",
    "codazzi_check",
    "surface_from_forms",
    "Vec4M",
    "lorentz_inner",
    "iota_embed",
    "iota_lift",
    "mean_curvature_vector",
    "verify_flat_zmc",
    "catalog_get",
    "__version__",
]
