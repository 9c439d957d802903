"""Monte Carlo area and surface-integral estimators from line statistics.

The area of a compact hypersurface equals 1/(2 kappa_(n-1)) times the
integral over all oriented lines of the intersection count; more generally,
summing a function over each line's intersection points and integrating over
lines recovers (up to the same constant) the surface integral of the
function, and with independent k-tuples of lines, k-fold integrals over the
surface product.

We sample the probability measure on lines meeting the clip ball instead of
the infinite kinematic measure; since lines missing the ball contribute
nothing, multiplying sampled means by the total kinematic mass of that set
converts between the two.  For n = 3 the combined normalization is
``2 pi r^2 * mean(statistic)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry, samplers
from .rng import ScalarSource, unit_ball_volume
from .surfaces import ImplicitSurface, ParametricSurface, TriangulatedSurface, triangulate_parametric

__all__ = ["CroftonEstimate", "estimate_area", "estimate_surface_integral", "estimate_double_integral"]

#: hits on consecutive triangles closer than this in t count once (shared edges)
EDGE_DEDUP_TOL = 1e-9

_MESH_EPS = 1e-10


@dataclass
class CroftonEstimate:
    """A line-sampling estimate with its Monte Carlo error bar.

    ``value = normalization * mean(per-line statistic)``;
    ``standard_error`` is the sample standard deviation of the per-line
    statistic over sqrt(lines), scaled by the same normalization.
    ``hit_histogram[k]`` counts lines with exactly k intersections.
    """

    value: float
    standard_error: float
    lines_used: int
    hit_histogram: dict = field(default_factory=dict)

    @property
    def mean_hits(self) -> float:
        total = sum(self.hit_histogram.values())
        if not total:
            return 0.0
        return sum(k * c for k, c in self.hit_histogram.items()) / total


def _normalization(n: int, clip: float) -> float:
    return geometry.kinematic_mass(n, clip) / (2.0 * unit_ball_volume(n - 1))


def _pair_hits(edge_table: np.ndarray, dirs, feet, clip: float, line_ids: np.ndarray, tri_ids: np.ndarray):
    """Moller-Trumbore on the (line, triangle) pairs ``(line_ids[i], tri_ids[i])``.

    *edge_table* is a mesh's ``TriangulatedSurface.edge_table``.  Returns
    ``(counts, line_ids, ts, boundary_hits, tri_ids)``: the first four like
    :func:`samplers._scan_lines`, with hits sorted by (line, t), then the
    triangle of each hit.  Edges are inclusive, hits beyond radius *clip* are
    dropped, and hits of one line closer than EDGE_DEDUP_TOL in t (shared
    edges) count once.  ``boundary_hits`` counts hits at radius
    ``clip * (1 - 1e-9)`` or beyond.
    """
    # np.take gathers these rows about 3x faster than fancy indexing
    rows, d = np.take(edge_table, tri_ids, axis=0), np.take(dirs, line_ids, axis=0)
    v0, e1, e2 = rows[:, 0], rows[:, 1], rows[:, 2]
    h = geometry._cross(d, e2)
    a = np.einsum("pk,pk->p", e1, h)
    # degenerate triangles and parallel lines give inf/nan here; the mask drops them
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / a
        s = np.take(feet, line_ids, axis=0) - v0
        u = inv * np.einsum("pk,pk->p", s, h)
        q = geometry._cross(s, e1)
        v = inv * np.einsum("pk,pk->p", d, q)
        t = inv * np.einsum("pk,pk->p", e2, q)
        hit = (
            (np.abs(a) > 1e-14)
            & (u >= -_MESH_EPS)
            & (v >= -_MESH_EPS)
            & (u + v <= 1.0 + _MESH_EPS)
            & np.isfinite(t)
        )
    line_ids, ts, tri_ids = line_ids[hit], t[hit], tri_ids[hit]
    radii = np.linalg.norm(feet[line_ids] + ts[:, None] * dirs[line_ids], axis=1)
    order = np.lexsort((ts, line_ids))
    order = order[radii[order] <= clip]
    line_ids, ts, radii, tri_ids = line_ids[order], ts[order], radii[order], tri_ids[order]
    if len(ts) > 1:
        dup = (line_ids[1:] == line_ids[:-1]) & (np.abs(ts[1:] - ts[:-1]) < EDGE_DEDUP_TOL)
        keep = np.concatenate([[True], ~dup])
        line_ids, ts, radii, tri_ids = line_ids[keep], ts[keep], radii[keep], tri_ids[keep]
    counts = np.bincount(line_ids, minlength=len(dirs))
    return counts, line_ids, ts, int((radii >= clip * (1.0 - 1e-9)).sum()), tri_ids


def _bvh_pairs(bvh, dirs: np.ndarray, feet: np.ndarray, half: np.ndarray):
    """``(line_ids, tri_ids)`` pairing each line with the triangles of every leaf box its chord meets.

    Line i's chord is t in [-half[i], half[i]].  The walk goes level by level
    over (line, node) frontier arrays, with the slab test of
    :func:`geometry.slab_chord`.
    """
    lo, hi, leaves = bvh
    size = len(lo) // 2
    neg = np.signbit(dirs)
    with np.errstate(divide="ignore"):
        inv = 1.0 / dirs
    lines, nodes = np.arange(len(dirs)), np.ones(len(dirs), dtype=np.intp)
    while len(nodes):
        # np.take gathers these rows about 3x faster than fancy indexing
        boxes = [np.take(corner, nodes, axis=0) for corner in (lo, hi)]
        rays = [np.take(table, lines, axis=0) for table in (neg, inv, feet)]
        enter, leave = geometry.slab_chord(*boxes, *rays, half[lines])
        keep = enter <= leave
        lines, nodes = lines[keep], nodes[keep]
        if not len(nodes) or nodes[0] >= size:
            break
        lines, nodes = np.repeat(lines, 2), (2 * nodes[:, None] + np.arange(2)).ravel()
    tri_ids = leaves[nodes - size].ravel()
    line_ids = np.repeat(lines, leaves.shape[1])
    return line_ids[tri_ids >= 0], tri_ids[tri_ids >= 0]


def _mesh_hits(mesh: TriangulatedSurface, dirs: np.ndarray, feet: np.ndarray, clip: float):
    """Hits of lines in foot form on *mesh* inside the ball of radius *clip*, as :func:`_pair_hits` gives them.

    The mesh's BVH (:func:`surfaces._build_bvh`, built on first use) rules
    out every (line, triangle) pair whose leaf box the line's chord misses;
    the exact test runs on the remaining candidate pairs only, and drops the
    hits beyond the clip sphere.
    """
    half = samplers._chord_half_lengths(feet, clip)
    return _pair_hits(mesh.edge_table, dirs, feet, clip, *_bvh_pairs(mesh.bvh, dirs, feet, half))


def _resolve(surface, clip_radius):
    """``(hits, clip, chunk, normals)``: the one map from *surface* to its line statistics.

    ``hits(dirs, feet, want_points)`` gives what :func:`_pair_hits` gives,
    ``tri_ids`` None for an implicit surface; lines are drawn in the ball of
    radius *clip*, *chunk* at a time; ``normals(points, tri_ids)`` gives the
    unit normals at hits.  Implicit surfaces are scanned, with gradient
    normals.  Meshes, and charts through their grid triangulation (built
    once per chart), go through :func:`_mesh_hits`, with the hit triangle's
    normal; chunks of at most 2M / triangles lines bound the candidate pair
    arrays near 2M entries in the worst case, where every triangle is a
    candidate of every line, and of at most DEFAULT_LINE_CHUNK lines keep a
    cloud on a small mesh from drawing far past its target.  Chunk sizes
    bound work and memory only; seeded output ignores them.
    """
    # written so that nan fails too, and before any warning about the clip
    if clip_radius is not None and not 0.0 < clip_radius < np.inf:
        raise ValueError(f"clip radius must be positive and finite, got {clip_radius}")
    if isinstance(surface, ImplicitSurface):
        # the scan runs over chords of the surface's own clip ball, so an explicit clip replaces it
        surface = surface if clip_radius is None else replace(surface, clip_radius=float(clip_radius))

        def hits(dirs, feet, want_points):
            return (*samplers._scan_lines(surface, dirs, feet, want_points), None)

        def normals(points, tri_ids):
            return samplers._unit_normals(surface, points)

        return hits, surface.clip_radius, samplers.DEFAULT_LINE_CHUNK, normals
    mesh = triangulate_parametric(surface)[0] if isinstance(surface, ParametricSurface) else surface
    radius = mesh.bounding_radius()
    clip = radius * (1.0 + 1e-6) if clip_radius is None else float(clip_radius)
    if radius > clip:
        warnings.warn("clip radius may truncate surface", stacklevel=4)

    def hits(dirs, feet, want_points):
        return _mesh_hits(mesh, dirs, feet, clip)

    def normals(points, tri_ids):
        return mesh.normals[tri_ids]

    return hits, clip, max(1, min(samplers.DEFAULT_LINE_CHUNK, 2_000_000 // len(mesh))), normals


def _gather(surface, src, lines, clip_radius, want_points):
    """``(clip, counts, line_ids, points)`` for *lines* kinematic lines; see samplers._line_hits."""
    if lines < 1:
        raise ValueError(f"need at least one line, got {lines}")
    hits, clip, chunk, _ = _resolve(surface, clip_radius)
    counts, ids, _, pts, _ = samplers._line_hits(src, clip, hits, lambda done, _: min(chunk, lines - done), want_points)
    return clip, counts, ids, pts


def _integrand(fn, *points: np.ndarray) -> np.ndarray:
    """``fn(*points)`` as float64; raises FloatingPointError naming the first point where it is not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = np.asarray(fn(*points), dtype=np.float64)
    if not np.isfinite(values).all():
        i = np.flatnonzero(~np.isfinite(values))[0]
        at = " and ".join(str(tuple(p[i].tolist())) for p in points)
        raise FloatingPointError(f"integrand not finite at (x, y, z) = {at}: {values[i]}")
    return values


def _finish(stat: np.ndarray, norm: float, counts: np.ndarray) -> CroftonEstimate:
    m = len(stat)
    mean = float(stat.mean())
    se = float(stat.std(ddof=1) / np.sqrt(m)) if m > 1 else float("inf")
    hist = {int(k): int(c) for k, c in enumerate(np.bincount(counts)) if c}
    return CroftonEstimate(
        value=norm * mean,
        standard_error=norm * se,
        lines_used=m,
        hit_histogram=hist,
    )


def estimate_area(surface, src: ScalarSource, lines: int, clip_radius: float | None = None) -> CroftonEstimate:
    """Surface area from mean line-intersection counts.

    The surface must lie inside the clip ball (the implicit kind carries its
    own; meshes and charts default to their bounding radius).  Implicit
    surfaces count scan-bracket sign changes; meshes use exact line-triangle
    tests on the candidate pairs their BVH leaves; charts go through their
    grid triangulation.
    """
    clip, counts, _, _ = _gather(surface, src, lines, clip_radius, want_points=False)
    return _finish(counts.astype(np.float64), _normalization(3, clip), counts)


def estimate_surface_integral(
    surface, fn, src: ScalarSource, lines: int, clip_radius: float | None = None
) -> CroftonEstimate:
    """Estimate of the surface integral of *fn* (vectorized ``(m, 3) -> (m,)``).

    Per line, *fn* is summed over the intersection points; with fn == 1 this
    reduces to the area estimator.  Raises FloatingPointError where *fn* is
    not finite.
    """
    clip, counts, ids, pts = _gather(surface, src, lines, clip_radius, want_points=True)
    values = _integrand(fn, pts) if len(pts) else np.empty(0)
    sums = np.bincount(ids, weights=values, minlength=lines)
    return _finish(sums, _normalization(3, clip), counts)


def estimate_double_integral(
    surface, fn2, src: ScalarSource, line_pairs: int, clip_radius: float | None = None
) -> CroftonEstimate:
    """Estimate of the double integral of *fn2* over the surface squared.

    Draws 2 * line_pairs lines; pair j is lines (2j, 2j+1).  For each pair
    the statistic sums ``fn2(p, q)`` over all intersection combinations
    (p from the first line, q from the second); *fn2* must be vectorized
    ``(m, 3), (m, 3) -> (m,)`` and finite (else FloatingPointError).
    Normalization is the square of the single-integral constant.
    """
    clip, counts, ids, pts = _gather(surface, src, 2 * line_pairs, clip_radius, want_points=True)

    pair_stat = np.zeros(line_pairs)
    if (counts[0::2] * counts[1::2]).any():
        # hits come in (line, t) order, so pair j's are line 2j's block, then line 2j + 1's: repeat
        # every a-hit by its pair's b-count and pair it with that block of b-hits, a-major
        a = np.flatnonzero(ids % 2 == 0)
        reps = counts[ids[a] + 1]
        ends = np.cumsum(reps)
        idx_a = np.repeat(a, reps)
        idx_b = np.arange(ends[-1]) + np.repeat(np.cumsum(counts)[ids[a]] - ends + reps, reps)
        vals = _integrand(fn2, pts[idx_a], pts[idx_b])
        pair_stat = np.bincount(ids[idx_a] // 2, weights=vals, minlength=line_pairs)
    return _finish(pair_stat, _normalization(3, clip) ** 2, counts)
