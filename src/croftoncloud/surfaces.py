"""The three surface representations and their geometry.

* :class:`ImplicitSurface` -- a level set ``field = 0`` clipped to the ball
  of ``clip_radius`` (unbounded level sets have infinite area, so clouds and
  estimates always refer to the clipped piece), with an optional bounding
  box that confines the chord scan.
* :class:`ParametricSurface` -- a chart over a rectangle, plus the grid
  resolution used to triangulate it.
* :class:`TriangulatedSurface` -- a plain list of triangles with cached
  per-triangle tables: the cumulative areas that drive area-weighted
  sampling, the normals, and the edge table and bounding-volume hierarchy
  that line intersection reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .expr import compile_field
from .geometry import _cross, _unit
from .rng import BoxDomain

__all__ = [
    "ImplicitSurface",
    "ParametricSurface",
    "TriangulatedSurface",
    "triangle_area",
    "triangle_normal",
    "triangulate_parametric",
    "CATALOG",
    "CatalogEntry",
    "sphere_implicit",
    "sphere_chart",
    "torus_implicit",
    "torus_chart",
    "ellipsoid_implicit",
    "ellipsoid_chart",
    "plane_implicit",
    "plane_patch_chart",
    "tetrahedron_mesh",
    "corner_pyramid_mesh",
    "corner_pyramid_implicit",
]

# central-difference step, scaled by (1 + |x|) to balance truncation and
# cancellation at double precision
FD_STEP = 1e-5

#: triangles per leaf of a mesh's bounding-volume hierarchy; on a 10,000-triangle
#: torus, 4 gives 40 candidate pairs per line against 88 at 8, for 20% more slab tests
BVH_LEAF = 4
# leaf boxes grow by this times (1 + max |coordinate|): far more than a hit the
# line kernel's inclusive edges accept can lie outside its triangle
_BVH_PAD = 1e-8


@dataclass
class ImplicitSurface:
    """Level set of ``field`` restricted to the ball of radius ``clip_radius``.

    ``field`` must be vectorized: it maps an ``(..., 3)`` array of points to
    an ``(...)`` array of values.  The chord scan calls it on ``(rows,
    nodes, 3)`` tiles of at most ``samplers.SCAN_TILE`` points whose last
    axis may be strided, and refinement on ``(m, 3)`` points, one row per
    bracket still being refined; the field must not write into its
    argument.
    ``gradient``, when supplied, maps ``(..., 3)`` to ``(..., 3)``, as the
    ``gradient`` of an :func:`expr.compile_field` field does (every catalog
    surface passes its own); central differences serve only fields without one.

    ``bounds``, when supplied, is an axis-aligned box ``(lo, hi)`` of two
    3-vectors, kept as float tuples, that must contain the whole level set
    inside the clip ball; None is read as the infinite box.  The chord scan
    evaluates only the scan cells of each line that meet the box, plus one
    on each side, or, for a field with a ``line_polynomial``, those its
    Bernstein bounds leave, with no box read (only the catalog torus and
    pyramid carry one), and finds the same hits, bit for bit, as on every cell.
    Nothing checks the contract: a box that is too small drops the hits
    outside it silently.
    """

    field: Callable[[np.ndarray], np.ndarray]
    clip_radius: float
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""
    bounds: Optional[tuple] = None

    def __post_init__(self):
        if not 0.0 < self.clip_radius < np.inf:
            raise ValueError(f"clip radius must be positive and finite, got {self.clip_radius}")
        if self.bounds is not None:
            try:
                lo, hi = (np.asarray(corner, dtype=np.float64) for corner in self.bounds)
            except (TypeError, ValueError):
                raise ValueError(f"bounds must be a pair (lo, hi) of 3-vectors, got {self.bounds!r}") from None
            if lo.shape != (3,) or hi.shape != (3,) or not (np.isfinite(lo).all() and np.isfinite(hi).all()):
                raise ValueError(f"bounds must be two finite 3-vectors, got {self.bounds!r}")
            if (lo > hi).any():
                raise ValueError(f"bounds need lo <= hi on every axis, got lo = {lo}, hi = {hi}")
            self.bounds = (tuple(lo.tolist()), tuple(hi.tolist()))

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if self.gradient is not None:
            return np.asarray(self.gradient(pts), dtype=np.float64)
        h = FD_STEP * (1.0 + np.linalg.norm(pts, axis=-1))
        grad = np.empty_like(pts)
        for axis in range(3):
            step = np.zeros_like(pts)
            step[..., axis] = h
            grad[..., axis] = (self.field(pts + step) - self.field(pts - step)) / (2.0 * h)
        return grad


@dataclass(frozen=True)
class ParametricSurface:
    """Chart ``(u, v) -> R^3`` over a rectangle, with its grid resolution.

    The chart must accept equal-shape arrays ``u, v`` and return an
    ``(..., 3)`` array.  ``u_res`` and ``v_res`` count grid points per axis
    (so there are ``u_res - 1`` by ``v_res - 1`` cells).  Frozen, so its
    cached :attr:`triangulation` stays valid.

    ``partials``, when supplied, maps the same ``u, v`` to the pair
    ``(du, dv)`` of the chart's partial derivatives, each an ``(..., 3)``
    array; a chart cloud's normal is du x dv, normalised.  It is optional:
    without it the partials are central differences of the chart, at a
    step of 1e-6 of the domain's width per axis.
    """

    chart: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain: BoxDomain
    u_res: int
    v_res: int
    name: str = ""
    partials: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None

    def __post_init__(self):
        if self.domain.dim != 2:
            raise ValueError("parameter domain must be two-dimensional")
        if self.u_res < 2 or self.v_res < 2:
            raise ValueError("grid resolutions must be at least 2")

    @cached_property
    def triangulation(self) -> tuple:
        """``(mesh, parameter_triangles)`` of :func:`triangulate_parametric`, built on first use."""
        return _triangulate_grid(self)


class TriangulatedSurface:
    """Ordered triangle list with per-triangle tables built on first use.

    The areas, cumulative areas, unit normals, edge table the line kernel
    reads, bounding radius and bounding-volume hierarchy are cached
    properties (``functools.cached_property``); ``triangles`` must not
    change after any of them is built.  Degenerate (zero-area) triangles are
    kept; they occupy zero-width intervals of the cumulative table and are
    never selected.
    """

    def __init__(self, triangles, name: str = ""):
        tris = np.asarray(triangles, dtype=np.float64)
        if tris.ndim != 3 or tris.shape[1:] != (3, 3):
            raise ValueError(f"expected (n, 3, 3) triangle array, got {tris.shape}")
        self.triangles = tris
        self.name = name

    def __len__(self) -> int:
        return len(self.triangles)

    @cached_property
    def areas(self) -> np.ndarray:
        return triangle_area(self.triangles)

    @cached_property
    def cumulative_areas(self) -> np.ndarray:
        cum = np.cumsum(self.areas)
        if not cum.size or cum[-1] <= 0.0:
            raise ValueError("surface has zero total area")
        return cum

    @property
    def total_area(self) -> float:
        return float(self.cumulative_areas[-1])

    @cached_property
    def normals(self) -> np.ndarray:
        """:func:`triangle_normal` of every triangle."""
        return triangle_normal(self.triangles)

    @cached_property
    def edge_table(self) -> np.ndarray:
        """Rows ``(v0, v1 - v0, v2 - v0)`` per triangle, shape ``(n, 3, 3)``."""
        v0 = self.triangles[:, 0]
        return np.stack([v0, self.triangles[:, 1] - v0, self.triangles[:, 2] - v0], axis=1)

    @cached_property
    def bvh(self) -> tuple:
        """``(lo, hi, leaves)`` of :func:`_build_bvh`."""
        return _build_bvh(self.triangles)

    @cached_property
    def _radius(self) -> float:
        return float(np.linalg.norm(self.triangles.reshape(-1, 3), axis=1).max())

    def bounding_radius(self) -> float:
        """Largest vertex distance from the origin."""
        return self._radius


def _build_bvh(tris: np.ndarray) -> tuple:
    """Bounding-volume hierarchy ``(lo, hi, leaves)`` over the triangles ``(n, 3, 3)``, n >= 1.

    Triangles are sorted by the Morton code of their centroids (10 bits per
    axis) and cut into leaves of BVH_LEAF: row j of ``leaves`` holds leaf j's
    triangle ids, -1 filling the last leaf.  The box corners ``lo``/``hi``
    form an implicit complete binary tree in heap order over ``size`` leaves,
    the power of two at or above the leaf count: node 1 is the root, node i
    has children 2i and 2i + 1, leaf j is node size + j, and row 0 is unused.
    A parent box is the min/max of its children's.  Leaf boxes are padded by
    the absolute margin ``_BVH_PAD * (1 + max |coordinate|)``; the padding
    leaves past the last real one are empty boxes, lo = +inf and hi = -inf.
    """
    n = len(tris)
    cent = tris.mean(axis=1)
    span = np.ptp(cent, axis=0)
    # a non-finite vertex gives arbitrary cells and nan boxes, which no slab test rules out
    with np.errstate(invalid="ignore"):
        cells = ((cent - cent.min(axis=0)) / np.where(span > 0.0, span, 1.0) * 1023).astype(np.int64)
    code = np.zeros(n, dtype=np.int64)
    for bit in range(10):
        code |= (((cells >> bit) & 1) << (3 * bit + np.arange(3))).sum(axis=1)
    order = np.argsort(code, kind="stable")
    n_leaves = -(-n // BVH_LEAF)
    leaves = np.full(n_leaves * BVH_LEAF, -1, dtype=np.intp)
    leaves[:n] = order
    size = 1 << (n_leaves - 1).bit_length()
    lo, hi = np.full((2 * size, 3), np.inf), np.full((2 * size, 3), -np.inf)
    pad = _BVH_PAD * (1.0 + np.abs(tris).max())
    starts = np.arange(0, n, BVH_LEAF)
    lo[size : size + n_leaves] = np.minimum.reduceat(tris.min(axis=1)[order], starts) - pad
    hi[size : size + n_leaves] = np.maximum.reduceat(tris.max(axis=1)[order], starts) + pad
    level = size // 2
    while level:
        lo[level : 2 * level] = np.minimum(lo[2 * level : 4 * level : 2], lo[2 * level + 1 : 4 * level : 2])
        hi[level : 2 * level] = np.maximum(hi[2 * level : 4 * level : 2], hi[2 * level + 1 : 4 * level : 2])
        level //= 2
    return lo, hi, leaves.reshape(n_leaves, BVH_LEAF)


def triangle_area(tri) -> np.ndarray | float:
    """Half the cross-product magnitude of two edges; batched over (..., 3, 3)."""
    t = np.asarray(tri, dtype=np.float64)
    cross = _cross(t[..., 1, :] - t[..., 0, :], t[..., 2, :] - t[..., 1, :])
    area = 0.5 * np.linalg.norm(cross, axis=-1)
    return float(area) if t.ndim == 2 else area


def triangle_normal(tri) -> np.ndarray:
    """Unit normal oriented by vertex order; nan for degenerate triangles."""
    t = np.asarray(tri, dtype=np.float64)
    return _unit(_cross(t[..., 1, :] - t[..., 0, :], t[..., 2, :] - t[..., 1, :]))


def triangulate_parametric(surface: ParametricSurface):
    """Split each grid cell along a diagonal and map the corners by the chart.

    Returns ``(mesh, parameter_triangles)`` where ``parameter_triangles`` has
    shape ``(n, 3, 2)`` and row i holds the (u, v) vertices whose chart
    images are the vertices of mesh triangle i.  Every mesh vertex is the
    chart image of a grid point, so it lies exactly on the surface.  This is
    the surface's cached :attr:`ParametricSurface.triangulation`, built on
    first use like the mesh's BVH; read-only.
    """
    return surface.triangulation


def _triangulate_grid(surface: ParametricSurface):
    (u0, v0), (u1, v1) = surface.domain.lows, surface.domain.highs
    us = np.linspace(u0, u1, surface.u_res)
    vs = np.linspace(v0, v1, surface.v_res)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    grid = np.asarray(surface.chart(uu, vv), dtype=np.float64)
    if grid.shape != (surface.u_res, surface.v_res, 3):
        raise ValueError(f"chart returned shape {grid.shape}, expected {(surface.u_res, surface.v_res, 3)}")
    if not np.isfinite(grid).all():
        i, j = np.argwhere(~np.isfinite(grid).all(axis=-1))[0]
        raise ValueError(f"chart is not finite at grid point (u, v) = ({us[i]}, {vs[j]})")

    # flat index k of each cell's (i, j) corner; per cell the upper triangle
    # (g_ij, g_i+1,j+1, g_i,j+1), then the lower (g_ij, g_i+1,j, g_i+1,j+1)
    v = surface.v_res
    k = np.arange((surface.u_res - 1) * v).reshape(-1, v)[:, :-1].ravel()
    corners = k[:, None] + np.array([0, v + 1, 1, 0, v, v + 1])
    tris = grid.reshape(-1, 3)[corners].reshape(-1, 3, 3)
    params = np.stack([uu, vv], axis=-1).reshape(-1, 2)[corners].reshape(-1, 3, 2)
    tris.flags.writeable = params.flags.writeable = False
    return TriangulatedSurface(tris, name=surface.name or "parametric"), params


# ---------------------------------------------------------------------------
# built-in catalog

_num = np.format_float_positional  # constants enter the expressions positionally: the grammar refuses "1e-05"


def _centred_box(half_widths) -> tuple:
    """``bounds`` of the box [-h, h] per axis, padded like the BVH's leaf boxes (relative 1e-9)."""
    h = np.abs(np.asarray(half_widths, dtype=np.float64))
    pad = 1e-9 * (1.0 + h.max())
    return -h - pad, h + pad


def sphere_implicit(radius: float = 1.0, clip: float = 2.0) -> ImplicitSurface:
    field = compile_field(f"x^2+y^2+z^2-{_num(radius * radius)}")
    return ImplicitSurface(field, clip, gradient=field.gradient, name="sphere")


def sphere_chart(radius: float = 1.0, u_res: int = 128, v_res: int = 256) -> ParametricSurface:
    """Latitude/longitude chart of the full sphere; longitude runs clockwise seen from +z, so du x dv points out."""

    def chart(u, v):
        return np.stack(
            [radius * np.cos(u) * np.cos(v), -radius * np.cos(u) * np.sin(v), radius * np.sin(u)],
            axis=-1,
        )

    def partials(u, v):
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        du = np.stack([-radius * su * cv, radius * su * sv, radius * cu], axis=-1)
        dv = np.stack([-radius * cu * sv, -radius * cu * cv, np.zeros_like(cu)], axis=-1)
        return du, dv

    dom = BoxDomain((-np.pi / 2.0, 0.0), (np.pi / 2.0, 2.0 * np.pi))
    return ParametricSurface(chart, dom, u_res, v_res, name="sphere", partials=partials)


def torus_implicit(ring_radius: float = 2.0, tube_radius: float = 0.5, clip: float = 3.0) -> ImplicitSurface:
    """The square-root form, not the quartic: a ring thinner than its tube then has no inner sheet."""
    field = compile_field(f"(sqrt(x^2+y^2)-{_num(ring_radius)})^2+z^2-{_num(tube_radius**2)}")
    outer = abs(ring_radius) + abs(tube_radius)
    return ImplicitSurface(field, clip, gradient=field.gradient, name="torus", bounds=_centred_box([outer, outer, tube_radius]))


def torus_chart(
    ring_radius: float = 2.0, tube_radius: float = 0.5, u_res: int = 128, v_res: int = 256
) -> ParametricSurface:
    """u runs around the tube, v clockwise around the ring seen from +z, so du x dv points out."""

    def chart(u, v):
        w = ring_radius + tube_radius * np.cos(u)
        return np.stack([w * np.cos(v), -w * np.sin(v), tube_radius * np.sin(u) * np.ones_like(v)], axis=-1)

    def partials(u, v):
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        w = ring_radius + tube_radius * cu
        du = np.stack([-tube_radius * su * cv, tube_radius * su * sv, tube_radius * cu], axis=-1)
        dv = np.stack([-w * sv, -w * cv, np.zeros_like(w)], axis=-1)
        return du, dv

    dom = BoxDomain((0.0, 0.0), (2.0 * np.pi, 2.0 * np.pi))
    return ParametricSurface(chart, dom, u_res, v_res, name="torus", partials=partials)


def ellipsoid_implicit(a: float = 1.5, b: float = 1.0, c: float = 0.5, clip: float = 2.0) -> ImplicitSurface:
    field = compile_field(f"(x/{_num(a)})^2+(y/{_num(b)})^2+(z/{_num(c)})^2-1")
    return ImplicitSurface(field, clip, gradient=field.gradient, name="ellipsoid")


def ellipsoid_chart(
    a: float = 1.5, b: float = 1.0, c: float = 0.5, u_res: int = 128, v_res: int = 128
) -> ParametricSurface:
    """u is the longitude, clockwise seen from +z, and v the colatitude, so du x dv points out."""

    def chart(u, v):
        return np.stack([a * np.cos(u) * np.sin(v), -b * np.sin(u) * np.sin(v), c * np.cos(v) * np.ones_like(u)], axis=-1)

    def partials(u, v):
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        du = np.stack([-a * su * sv, -b * cu * sv, np.zeros_like(cu)], axis=-1)
        dv = np.stack([a * cu * cv, -b * su * cv, -c * sv], axis=-1)
        return du, dv

    dom = BoxDomain((0.0, 0.0), (2.0 * np.pi, np.pi))
    return ParametricSurface(chart, dom, u_res, v_res, name="ellipsoid", partials=partials)


def plane_implicit(clip: float = 2.0) -> ImplicitSurface:
    """The plane z = 0; clipped to the ball it is a disk of area pi * clip^2."""
    field = compile_field("z")
    return ImplicitSurface(field, clip, gradient=field.gradient, name="plane")


def plane_patch_chart(side: float = 1.0, u_res: int = 2, v_res: int = 2) -> ParametricSurface:
    """Flat square patch of area side^2 centered at the origin in z = 0."""

    def chart(u, v):
        return np.stack([u, v, np.zeros_like(u)], axis=-1)

    def partials(u, v):
        one, zero = np.ones_like(u), np.zeros_like(u)
        return np.stack([one, zero, zero], axis=-1), np.stack([zero, one, zero], axis=-1)

    h = side / 2.0
    return ParametricSurface(chart, BoxDomain((-h, -h), (h, h)), u_res, v_res, name="plane", partials=partials)


def tetrahedron_mesh() -> TriangulatedSurface:
    """Regular tetrahedron inscribed in the cube [-1, 1]^3; area 8 sqrt(3)."""
    a, b, c, d = (
        np.array([1.0, 1.0, 1.0]),
        np.array([1.0, -1.0, -1.0]),
        np.array([-1.0, 1.0, -1.0]),
        np.array([-1.0, -1.0, 1.0]),
    )
    return TriangulatedSurface([[a, b, c], [a, c, d], [a, d, b], [b, d, c]], name="tetrahedron")


def corner_pyramid_mesh() -> TriangulatedSurface:
    """Faces of the simplex with vertices at the origin and the three axes.

    Three coordinate faces of area 1/2 and one slant face of area sqrt(3)/2;
    the classic fixture for exposing direction-dependent sampling density.
    """
    o = np.zeros(3)
    e1, e2, e3 = np.eye(3)
    return TriangulatedSurface([[o, e1, e2], [o, e2, e3], [o, e3, e1], [e1, e2, e3]], name="pyramid")


def corner_pyramid_implicit(clip: float = 2.0) -> ImplicitSurface:
    """Boundary of {x, y, z >= 0, x + y + z <= 1} as a max-of-planes level set.

    Piecewise smooth; lines through edges form a null set, so scan-based
    intersection works unchanged.  Its compiled gradient is the normal of the
    plane attaining the max: central differences serve only fields without one.
    """
    field = compile_field("max(max(-x,-y),max(-z,x+y+z-1))")
    # the box [0, 1]^3, padded as the centred boxes are
    lo, hi = _centred_box([0.5] * 3)
    return ImplicitSurface(field, clip, gradient=field.gradient, name="pyramid", bounds=(lo + 0.5, hi + 0.5))


@dataclass(frozen=True)
class CatalogEntry:
    """Builders for the forms a named surface supports (None if unsupported).

    The implicit builder's ``clip`` defaults to the surface's own ball.
    """

    implicit: Optional[Callable[..., ImplicitSurface]]
    chart: Optional[Callable[..., ParametricSurface]]
    mesh: Optional[Callable[[], TriangulatedSurface]]


CATALOG: dict[str, CatalogEntry] = {
    "sphere": CatalogEntry(sphere_implicit, sphere_chart, None),
    "torus": CatalogEntry(torus_implicit, torus_chart, None),
    "ellipsoid": CatalogEntry(ellipsoid_implicit, ellipsoid_chart, None),
    "plane": CatalogEntry(plane_implicit, plane_patch_chart, None),
    "tetrahedron": CatalogEntry(None, None, tetrahedron_mesh),
    "pyramid": CatalogEntry(corner_pyramid_implicit, None, corner_pyramid_mesh),
}
