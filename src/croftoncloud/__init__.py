"""Equidistributed point clouds on surfaces via kinematic line sampling.

Generate area-uniform point clouds on implicit, parametric, and
triangulated surfaces; estimate areas and surface integrals from line
intersection statistics; verify equidistribution; estimate normals.
"""

__version__ = "0.1.0"

from .crofton import CroftonEstimate, estimate_area, estimate_double_integral, estimate_surface_integral
from .geometry import kinematic_mass
from .normals import NeighborIndex, normal_cloud
from .rng import (
    BoxDomain,
    Pseudo,
    ScalarSource,
    VanDerCorput,
    VanDerCorputRearranged,
    sample_ball,
    sample_box,
    sample_sphere,
    unit_ball_volume,
)
from .samplers import (
    PointCloud,
    cloud_axis_aligned,
    cloud_implicit,
    cloud_parametric,
    cloud_triangulated,
)
from .stats import (
    RegionTest,
    curse_benchmark,
    density_variation,
    ktuple_test,
    region_test,
)
from .surfaces import (
    CATALOG,
    ImplicitSurface,
    ParametricSurface,
    TriangulatedSurface,
    triangle_area,
    triangulate_parametric,
)

__all__ = [
    "__version__",
    "BoxDomain",
    "CATALOG",
    "CroftonEstimate",
    "ImplicitSurface",
    "NeighborIndex",
    "ParametricSurface",
    "PointCloud",
    "Pseudo",
    "RegionTest",
    "ScalarSource",
    "TriangulatedSurface",
    "VanDerCorput",
    "VanDerCorputRearranged",
    "cloud_axis_aligned",
    "cloud_implicit",
    "cloud_parametric",
    "cloud_triangulated",
    "curse_benchmark",
    "density_variation",
    "estimate_area",
    "estimate_double_integral",
    "estimate_surface_integral",
    "kinematic_mass",
    "ktuple_test",
    "normal_cloud",
    "region_test",
    "sample_ball",
    "sample_box",
    "sample_sphere",
    "triangle_area",
    "triangulate_parametric",
    "unit_ball_volume",
]
