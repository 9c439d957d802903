"""Point-cloud generation for the three surface types.

Implicit surfaces: draw kinematic-measure lines, restrict each to the chord
inside the clip ball, scan the chord for sign changes of the field, refine
each bracket by bisection, and append the hits in increasing parameter
order.  Because the expected number of hits a line makes with any
region is proportional to that region's area, the appended sequence is
equidistributed on the surface.

Triangulated surfaces: pick a triangle through the cumulative-area table,
then place a point by rejection-sampled barycentric coordinates.

Parametric surfaces: same selection over the grid triangulation, but the
simplex point is pushed through the chart applied to the parameter-space
triangle, so outputs lie exactly on the surface rather than on the
piecewise-linear proxy (the selection weights still come from the proxy, a
bias that shrinks like the squared grid step).

The axis-aligned sampler reproduces the legacy approach (lines parallel to
coordinate axes); its clouds have local density proportional to
|n_x| + |n_y| + |n_z|, varying by a factor sqrt(3) across orientations, and
is kept as a fixture for density diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry, rng
from .geometry import OrientedLine
from .rng import ScalarSource
from .surfaces import (
    ImplicitSurface,
    ParametricSurface,
    TriangulatedSurface,
    triangle_normal,
    triangulate_parametric,
)

__all__ = [
    "ImplicitSamplerConfig",
    "PointCloud",
    "intersect_line_implicit",
    "cloud_implicit",
    "cloud_axis_aligned",
    "cloud_triangulated",
    "cloud_parametric",
    "find_interval",
    "SurfaceNotFound",
]

#: lines per chunk of the implicit clouds and estimators; part of the seeded configuration
DEFAULT_LINE_CHUNK = 8192
#: lines a cloud draws without a single hit before raising SurfaceNotFound
MAX_EMPTY_LINES = 200_000
#: bisection rounds per bracket, a cap reached only if root_tol is below the chord's rounding
MAX_REFINE = 200


class SurfaceNotFound(RuntimeError):
    """No line in the budget met the surface inside the clip ball."""


@dataclass(frozen=True)
class ImplicitSamplerConfig:
    """Chord scan and root refinement knobs.

    ``scan_steps`` equal subintervals per chord; a surface feature thinner
    than chord/scan_steps can be missed.  ``root_tol`` bounds the absolute
    parameter error of each refined hit.
    """

    scan_steps: int = 256
    root_tol: float = 1e-10

    def __post_init__(self):
        if self.scan_steps < 2:
            raise ValueError("scan_steps must be at least 2")
        if self.root_tol <= 0.0:
            raise ValueError("root_tol must be positive")


@dataclass
class PointCloud:
    """Cloud points plus provenance, stored as parallel arrays.

    ``line_index``/``line_t`` are set by the line samplers (index of the
    generating line and the hit parameter), ``triangle_index`` by the
    triangle samplers.  ``per_line_counts[j]`` is the number of hits line j
    contributed, so ``per_line_counts.sum() == len(cloud)``.
    """

    positions: np.ndarray
    normals: Optional[np.ndarray] = None
    line_index: Optional[np.ndarray] = None
    line_t: Optional[np.ndarray] = None
    triangle_index: Optional[np.ndarray] = None
    lines_used: int = 0
    per_line_counts: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def mean_hits_per_line(self) -> float:
        if not self.lines_used:
            return 0.0
        return len(self) / self.lines_used


def _chord_half_lengths(feet: np.ndarray, clip: float) -> np.ndarray:
    inside = clip * clip - (feet * feet).sum(axis=1)
    return np.sqrt(np.maximum(inside, 0.0))


def _field_on_grid(surface: ImplicitSurface, dirs, feet, t_grid):
    pts = feet[:, None, :] + t_grid[:, :, None] * dirs[:, None, :]
    values = np.asarray(surface.field(pts), dtype=np.float64)
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise FloatingPointError(f"field not finite at t = {t_grid[i, j]} along scanned line {i}")
    return values


def _refine_bisection(surface, dirs, feet, t_lo, t_hi, g_lo, cfg):
    width = t_hi - t_lo
    for _ in range(MAX_REFINE):
        if not (width > 2.0 * cfg.root_tol).any():
            break
        t_mid = 0.5 * (t_lo + t_hi)
        g_mid = np.asarray(surface.field(feet + t_mid[:, None] * dirs))
        low_side = g_lo * g_mid > 0.0
        t_lo = np.where(low_side, t_mid, t_lo)
        g_lo = np.where(low_side, g_mid, g_lo)
        t_hi = np.where(low_side, t_hi, t_mid)
        width = t_hi - t_lo
    return 0.5 * (t_lo + t_hi)


def _scan_lines(surface: ImplicitSurface, dirs, feet, cfg: ImplicitSamplerConfig, want_points: bool):
    """Count (and optionally locate) transverse hits for a batch of lines.

    Returns ``(counts, line_ids, ts, boundary_hits)``: per-line hit counts,
    flat hit arrays in (line, t) order when ``want_points`` is true, and the
    number of hits falling in the first or last scan subinterval (a cheap
    proxy for hits at the clip boundary).  Brackets are strict sign changes;
    an exact zero at an interior grid node counts once when its neighbors
    straddle zero, and tangential touches are dropped.
    """
    m = len(dirs)
    counts = np.zeros(m, dtype=np.int64)
    half = _chord_half_lengths(feet, surface.clip_radius)
    live = half > 0.0
    if not live.any():
        empty = np.empty(0)
        return counts, empty.astype(np.int64), empty, 0
    dirs_l, feet_l, half_l = dirs[live], feet[live], half[live]
    steps = np.linspace(-1.0, 1.0, cfg.scan_steps + 1)
    t_grid = half_l[:, None] * steps[None, :]
    g = _field_on_grid(surface, dirs_l, feet_l, t_grid)

    bracket = g[:, :-1] * g[:, 1:] < 0.0
    zero_nodes = g[:, 1:-1] == 0.0
    if zero_nodes.any():
        crossing = g[:, :-2] * g[:, 2:] < 0.0
        zero_nodes &= crossing
    else:
        zero_nodes = None

    row, col = np.nonzero(bracket)
    live_ids = np.nonzero(live)[0]
    counts_live = bracket.sum(axis=1)
    if zero_nodes is not None:
        counts_live = counts_live + zero_nodes.sum(axis=1)
    counts[live_ids] = counts_live
    boundary = int(((col == 0) | (col == cfg.scan_steps - 1)).sum())
    if not want_points:
        return counts, None, None, boundary

    if len(row):
        t_lo, t_hi = t_grid[row, col], t_grid[row, col + 1]
        ts = _refine_bisection(surface, dirs_l[row], feet_l[row], t_lo, t_hi, g[row, col], cfg)
    else:
        ts = np.empty(0)
    line_ids = live_ids[row]
    if zero_nodes is not None:
        zrow, zcol = np.nonzero(zero_nodes)
        line_ids = np.concatenate([line_ids, live_ids[zrow]])
        ts = np.concatenate([ts, t_grid[zrow, zcol + 1]])
    order = np.lexsort((ts, line_ids))
    return counts, line_ids[order], ts[order], boundary


def intersect_line_implicit(surface: ImplicitSurface, line: OrientedLine, config: ImplicitSamplerConfig | None = None):
    """Transverse intersections of one line with the clipped level set.

    Returns ``(ts, points)`` sorted by increasing parameter; both empty when
    the line misses the clip ball or the surface.
    """
    cfg = config or ImplicitSamplerConfig()
    dirs = line.direction[None, :]
    feet = line.foot[None, :]
    _, _, ts, _ = _scan_lines(surface, dirs, feet, cfg, want_points=True)
    points = feet[0] + ts[:, None] * dirs[0]
    return ts, points


def _unit_normals(surface: ImplicitSurface, points: np.ndarray) -> np.ndarray:
    if not len(points):
        return np.empty((0, 3))
    grads = surface.gradient_at(points)
    norms = np.linalg.norm(grads, axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        return grads / np.where(norms > 0.0, norms, np.nan)


def _implicit_hits(surface: ImplicitSurface, cfg: ImplicitSamplerConfig):
    """The line-hits function of an implicit surface: its chord scan."""

    def hits(dirs, feet, want_points):
        return _scan_lines(surface, dirs, feet, cfg, want_points)

    return hits


def _line_hits(src: ScalarSource, draw, hits, next_count, want_points: bool = True):
    """Draw lines in chunks, intersect them with a surface, and collect the hits.

    ``draw(src, count)`` gives ``(dirs, feet)``; ``hits(dirs, feet,
    want_points)`` gives ``(counts, line_ids, ts, boundary_hits)`` as
    :func:`_scan_lines` does.  The stop rule ``next_count(lines_done,
    hits_done)`` returns the size of the next chunk, 0 to stop.  Returns
    ``(counts, line_ids, ts, points)`` over all lines drawn, with line ids
    counted from the first chunk; the last three are None unless
    *want_points*.  Warns when any hit lies at the clip boundary.
    """
    counts_parts, id_parts, t_parts, pt_parts = [], [], [], []
    lines_done = hits_done = boundary = 0
    while count := next_count(lines_done, hits_done):
        dirs, feet = draw(src, count)
        counts, line_ids, ts, nb = hits(dirs, feet, want_points)
        boundary += nb
        if want_points:
            id_parts.append(line_ids + lines_done)
            t_parts.append(ts)
            pt_parts.append(feet[line_ids] + ts[:, None] * dirs[line_ids])
        counts_parts.append(counts)
        lines_done += count
        hits_done += int(counts.sum())
    if boundary:
        warnings.warn("clip radius may truncate surface", stacklevel=4)
    counts = np.concatenate(counts_parts)
    if not want_points:
        return counts, None, None, None
    return counts, np.concatenate(id_parts), np.concatenate(t_parts), np.concatenate(pt_parts)


def _cloud_from_lines(
    surface: ImplicitSurface, src: ScalarSource, n_points: int, cfg: ImplicitSamplerConfig, draw
) -> PointCloud:
    if n_points < 1:
        raise ValueError("target point count must be at least 1")

    def next_count(lines_done, hits_done):
        if hits_done >= n_points:
            return 0
        if hits_done == 0 and lines_done >= MAX_EMPTY_LINES:
            raise SurfaceNotFound(
                f"no intersections after {lines_done} lines; surface not found in ball "
                f"of radius {surface.clip_radius}"
            )
        return DEFAULT_LINE_CHUNK

    counts, line_ids, ts, positions = _line_hits(src, draw, _implicit_hits(surface, cfg), next_count)
    # keep whole lines up to and including the one reaching the target
    lines_used = int(np.searchsorted(np.cumsum(counts), n_points)) + 1
    keep = line_ids < lines_used
    positions = positions[keep]
    return PointCloud(
        positions=positions,
        normals=_unit_normals(surface, positions),
        line_index=line_ids[keep],
        line_t=ts[keep],
        lines_used=lines_used,
        per_line_counts=counts[:lines_used],
    )


def cloud_implicit(
    surface: ImplicitSurface,
    src: ScalarSource,
    n_points: int,
    config: ImplicitSamplerConfig | None = None,
) -> PointCloud:
    """Equidistributed cloud of at least *n_points* points on the level set.

    Lines are drawn from the kinematic measure in chunks of
    :data:`DEFAULT_LINE_CHUNK`; generation stops at the end
    of the line that reaches the target, so the cloud may exceed it by the
    final line's hit count.  Warns when hits fall at the clip sphere, where
    the clip ball may cut the surface.
    """

    def draw(s, count):
        return geometry.sample_line_batch(s, 3, surface.clip_radius, count)

    return _cloud_from_lines(surface, src, n_points, config or ImplicitSamplerConfig(), draw)


def cloud_axis_aligned(
    surface: ImplicitSurface,
    src: ScalarSource,
    n_points: int,
    config: ImplicitSamplerConfig | None = None,
) -> PointCloud:
    """Legacy sampler: directions drawn from the six signed coordinate axes.

    Kept for comparison; its clouds carry the sqrt(3) density variation
    across surface orientations and fail density audits by design.
    """

    def draw(s, count):
        picks = np.minimum((s.take(count) * 6.0).astype(np.int64), 5)
        axes = picks >> 1
        signs = np.where(picks & 1, -1.0, 1.0)
        dirs = np.zeros((count, 3))
        dirs[np.arange(count), axes] = signs
        disk = rng.sample_ball(s, 2, size=count) * surface.clip_radius
        feet = np.zeros((count, 3))
        feet[np.arange(count), (axes + 1) % 3] = disk[:, 0]
        feet[np.arange(count), (axes + 2) % 3] = disk[:, 1]
        return dirs, feet

    return _cloud_from_lines(surface, src, n_points, config or ImplicitSamplerConfig(), draw)


def find_interval(cumulative, x: float) -> int:
    """Smallest index j with ``x < cumulative[j]`` by bisection.

    *cumulative* must be increasing with positive first entry (prefix sums
    of positive weights); ``x`` must satisfy ``0 <= x < cumulative[-1]``.
    """
    if x < 0.0 or x >= cumulative[-1]:
        raise ValueError(f"x = {x} outside [0, {cumulative[-1]})")
    return int(np.searchsorted(np.asarray(cumulative), x, side="right"))


_CLAMP = 1.0 - 2.0**-52


def _select_triangles(src: ScalarSource, cumulative: np.ndarray, count: int) -> np.ndarray:
    xs = src.take(count) * cumulative[-1] * _CLAMP
    return np.searchsorted(cumulative, xs, side="right")


def _simplex_points(src: ScalarSource, count: int):
    """(u, v) uniform on the standard 2-simplex by pairwise rejection."""
    u = np.empty(count)
    v = np.empty(count)
    pending = np.arange(count)
    while pending.size:
        pairs = src.take(2 * len(pending)).reshape(-1, 2)
        ok = pairs.sum(axis=1) <= 1.0
        u[pending[ok]] = pairs[ok, 0]
        v[pending[ok]] = pairs[ok, 1]
        pending = pending[~ok]
    return u, v


def cloud_triangulated(surface: TriangulatedSurface, src: ScalarSource, n_points: int) -> PointCloud:
    """Cloud of exactly *n_points* area-weighted points on the triangle list.

    Point i scales scalar i to the cumulative-area table to pick its
    triangle; barycentric coordinates are then drawn by simplex rejection
    (redraw rounds for rejected pairs).  Normals are the flat per-triangle
    normals oriented by vertex order.
    """
    if n_points < 1:
        raise ValueError("target point count must be at least 1")
    cum = surface.cumulative_areas
    chosen = _select_triangles(src, cum, n_points)
    u, v = _simplex_points(src, n_points)
    tris = surface.triangles[chosen]
    pts = u[:, None] * tris[:, 0] + v[:, None] * tris[:, 1] + (1.0 - u - v)[:, None] * tris[:, 2]
    return PointCloud(positions=pts, normals=triangle_normal(tris), triangle_index=chosen)


def _chart_normals(surface: ParametricSurface, pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
    hu = 1e-6 * (surface.domain.highs[0] - surface.domain.lows[0])
    hv = 1e-6 * (surface.domain.highs[1] - surface.domain.lows[1])
    du = (np.asarray(surface.chart(pu + hu, pv)) - np.asarray(surface.chart(pu - hu, pv))) / (2 * hu)
    dv = (np.asarray(surface.chart(pu, pv + hv)) - np.asarray(surface.chart(pu, pv - hv))) / (2 * hv)
    cross = np.cross(du, dv)
    norms = np.linalg.norm(cross, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):
        return cross / np.where(norms > 0.0, norms, np.nan)


def cloud_parametric(surface: ParametricSurface, src: ScalarSource, n_points: int) -> PointCloud:
    """On-surface cloud: triangle weights from the grid proxy, points from the chart.

    The sampled simplex point is formed in parameter space (barycentric
    combination of the parameter triangle) and mapped by the chart, so every
    output satisfies the surface equation exactly.
    """
    if n_points < 1:
        raise ValueError("target point count must be at least 1")
    mesh, params = triangulate_parametric(surface)
    chosen = _select_triangles(src, mesh.cumulative_areas, n_points)
    u, v = _simplex_points(src, n_points)
    ptri = params[chosen]
    pu = u * ptri[:, 0, 0] + v * ptri[:, 1, 0] + (1.0 - u - v) * ptri[:, 2, 0]
    pv = u * ptri[:, 0, 1] + v * ptri[:, 1, 1] + (1.0 - u - v) * ptri[:, 2, 1]
    pts = np.asarray(surface.chart(pu, pv), dtype=np.float64)
    return PointCloud(
        positions=pts,
        normals=_chart_normals(surface, pu, pv),
        triangle_index=chosen,
    )
