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
from .rng import ScalarSource
from .samplers import ImplicitSamplerConfig
from .surfaces import ImplicitSurface, ParametricSurface, triangulate_parametric

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
    from .rng import unit_ball_volume

    return geometry.kinematic_mass(n, clip) / (2.0 * unit_ball_volume(n - 1))


def _mesh_hits(triangles: np.ndarray, dirs: np.ndarray, feet: np.ndarray, clip: float):
    """Line/triangle intersections with inclusive edges, deduplicated in t.

    Returns ``(counts, line_ids, ts, boundary_hits)`` like
    :func:`samplers._scan_lines`, with hits sorted by (line, t); hits on
    shared edges of consecutive triangles closer than EDGE_DEDUP_TOL in t
    are merged.  ``boundary_hits`` counts hits at radius *clip* or beyond.
    """
    m = len(dirs)
    v0 = triangles[:, 0]
    e1 = triangles[:, 1] - v0
    e2 = triangles[:, 2] - v0
    h = np.cross(dirs[:, None, :], e2[None, :, :])
    a = np.einsum("tk,ltk->lt", e1, h)
    # degenerate triangles and parallel lines give inf/nan here; the mask drops them
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / a
        s = feet[:, None, :] - v0[None, :, :]
        u = inv * np.einsum("ltk,ltk->lt", s, h)
        q = np.cross(s, e1[None, :, :])
        v = inv * np.einsum("lk,ltk->lt", dirs, q)
        t = inv * np.einsum("tk,ltk->lt", e2, q)
        hit = (
            (np.abs(a) > 1e-14)
            & (u >= -_MESH_EPS)
            & (v >= -_MESH_EPS)
            & (u + v <= 1.0 + _MESH_EPS)
            & np.isfinite(t)
        )
    line_ids, tri_ids = np.nonzero(hit)
    ts = t[line_ids, tri_ids]
    order = np.lexsort((ts, line_ids))
    line_ids, ts = line_ids[order], ts[order]
    if len(ts) > 1:
        dup = (line_ids[1:] == line_ids[:-1]) & (np.abs(ts[1:] - ts[:-1]) < EDGE_DEDUP_TOL)
        keep = np.concatenate([[True], ~dup])
        line_ids, ts = line_ids[keep], ts[keep]
    counts = np.bincount(line_ids, minlength=m)
    radii = np.linalg.norm(feet[line_ids] + ts[:, None] * dirs[line_ids], axis=1)
    boundary = int((radii >= clip * (1.0 - 1e-9)).sum())
    return counts, line_ids, ts, boundary


def _resolve(surface, clip_radius, config):
    """``(hits, clip, chunk)`` for *surface*: line-hits function, clip radius, lines per chunk.

    Implicit surfaces are scanned; meshes, and charts through their grid
    triangulation, are intersected triangle by triangle, in chunks that keep
    the line-triangle pair arrays near 2M entries.
    """
    if isinstance(surface, ImplicitSurface):
        # the scan runs over chords of the surface's own clip ball, so an explicit clip replaces it
        surface = surface if clip_radius is None else replace(surface, clip_radius=float(clip_radius))
        hits = samplers._implicit_hits(surface, config or ImplicitSamplerConfig())
        return hits, surface.clip_radius, samplers.DEFAULT_LINE_CHUNK
    mesh = triangulate_parametric(surface)[0] if isinstance(surface, ParametricSurface) else surface
    radius = mesh.bounding_radius()
    clip = radius * (1.0 + 1e-6) if clip_radius is None else float(clip_radius)
    if radius > clip:
        warnings.warn("clip radius may truncate surface", stacklevel=4)

    def hits(dirs, feet, want_points):
        return _mesh_hits(mesh.triangles, dirs, feet, clip)

    return hits, clip, max(1, int(2_000_000 // max(len(mesh), 1)))


def _gather(surface, src, lines, clip_radius, config, want_points):
    """``(clip, counts, line_ids, points)`` for *lines* kinematic lines; see samplers._line_hits."""
    hits, clip, chunk = _resolve(surface, clip_radius, config)

    def draw(s, count):
        return geometry.sample_line_batch(s, 3, clip, count)

    counts, ids, _, pts = samplers._line_hits(src, draw, hits, lambda done, _: min(chunk, lines - done), want_points)
    return clip, counts, ids, pts


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


def estimate_area(
    surface,
    src: ScalarSource,
    lines: int,
    clip_radius: float | None = None,
    config: ImplicitSamplerConfig | None = None,
) -> CroftonEstimate:
    """Surface area from mean line-intersection counts.

    The surface must lie inside the clip ball (the implicit kind carries its
    own; meshes and charts default to their bounding radius).  Implicit
    surfaces count scan-bracket sign changes; meshes use exact line-triangle
    tests; charts go through their grid triangulation.
    """
    if lines < 1:
        raise ValueError("need at least one line")
    clip, counts, _, _ = _gather(surface, src, lines, clip_radius, config, want_points=False)
    return _finish(counts.astype(np.float64), _normalization(3, clip), counts)


def estimate_surface_integral(
    surface,
    fn,
    src: ScalarSource,
    lines: int,
    clip_radius: float | None = None,
    config: ImplicitSamplerConfig | None = None,
) -> CroftonEstimate:
    """Estimate of the surface integral of *fn* (vectorized ``(m, 3) -> (m,)``).

    Per line, *fn* is summed over the intersection points; with fn == 1 this
    reduces to the area estimator.
    """
    if lines < 1:
        raise ValueError("need at least one line")
    clip, counts, ids, pts = _gather(surface, src, lines, clip_radius, config, want_points=True)
    values = np.asarray(fn(pts), dtype=np.float64) if len(pts) else np.empty(0)
    sums = np.bincount(ids, weights=values, minlength=lines)
    return _finish(sums, _normalization(3, clip), counts)


def estimate_double_integral(
    surface,
    fn2,
    src: ScalarSource,
    line_pairs: int,
    clip_radius: float | None = None,
    config: ImplicitSamplerConfig | None = None,
) -> CroftonEstimate:
    """Estimate of the double integral of *fn2* over the surface squared.

    Draws 2 * line_pairs lines; pair j is lines (2j, 2j+1).  For each pair
    the statistic sums ``fn2(p, q)`` over all intersection combinations
    (p from the first line, q from the second); *fn2* must be vectorized
    ``(m, 3), (m, 3) -> (m,)``.  Normalization is the square of the
    single-integral constant.
    """
    if line_pairs < 1:
        raise ValueError("need at least one line pair")
    clip, counts, ids, pts = _gather(surface, src, 2 * line_pairs, clip_radius, config, want_points=True)

    pair_stat = np.zeros(line_pairs)
    if len(pts):
        pair_of_line = ids // 2
        first = ids % 2 == 0
        # hits of each pair member, grouped by pair
        order_a = np.argsort(pair_of_line[first], kind="stable")
        order_b = np.argsort(pair_of_line[~first], kind="stable")
        pts_a, pair_a = pts[first][order_a], pair_of_line[first][order_a]
        pts_b, pair_b = pts[~first][order_b], pair_of_line[~first][order_b]
        cnt_a = np.bincount(pair_a, minlength=line_pairs)
        cnt_b = np.bincount(pair_b, minlength=line_pairs)
        if (cnt_a * cnt_b).any():
            # cross product of hits within each pair: repeat every a-hit by
            # its pair's b-count and pair it with that block of b-hits
            off_b = np.concatenate([[0], np.cumsum(cnt_b)])
            lengths = cnt_b[pair_a]
            idx_a = np.repeat(np.arange(len(pts_a)), lengths)
            ends = np.cumsum(lengths)
            within = np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)
            idx_b = np.repeat(off_b[pair_a], lengths) + within
            pair_id = np.repeat(pair_a, lengths)
            vals = np.asarray(fn2(pts_a[idx_a], pts_b[idx_b]), dtype=np.float64)
            pair_stat = np.bincount(pair_id, weights=vals, minlength=line_pairs)
    return _finish(pair_stat, _normalization(3, clip) ** 2, counts)
