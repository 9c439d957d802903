"""Checks of workload outputs against closed forms computed here, apart from the program.

Every function returns a list of failure messages; an empty list means the
output passed.  Statistical checks accept an estimate within ``Z_LIMIT``
standard errors of the exact value; under the normal approximation a
correct program fails one such check with probability 5.7e-7.
"""

from __future__ import annotations

import math

import numpy as np

# the catalog torus: ring radius R, tube radius r, clip radius of its implicit form
RING = 2.0
TUBE = 0.5
CLIP = 3.0
TORUS_AREA = 4.0 * math.pi**2 * RING * TUBE
TORUS_Z2 = 2.0 * math.pi**2 * RING * TUBE**3
# share of the torus area with x^2 + y^2 > R^2 (the outer half of the tube)
OUTER_SHARE = 0.5 + TUBE / (math.pi * RING)

Z_LIMIT = 5.0
# |f| on the implicit cloud: hits are refined to 1e-10 in the line parameter
# and |df/dt| <= 2 r on the torus, so 1e-8 leaves a wide margin
IMPLICIT_RESIDUAL = 1e-8
# chart points are exact images of the chart, so only rounding remains
CHART_RESIDUAL = 1e-12
PARALLEL = 1e-9
IN_TRIANGLE = 1e-9
# estimated cloud normals: at least NORMAL_SHARE of the queries within NORMAL_DEGREES
NORMAL_DEGREES = 10.0
NORMAL_SHARE = 0.95


def torus_residual(points: np.ndarray) -> np.ndarray:
    s = np.hypot(points[:, 0], points[:, 1])
    return (s - RING) ** 2 + points[:, 2] ** 2 - TUBE**2


def torus_normal(points: np.ndarray) -> np.ndarray:
    s = np.hypot(points[:, 0], points[:, 1])
    offset = points.copy()
    offset[:, :2] -= RING * points[:, :2] / s[:, None]
    return offset / np.linalg.norm(offset, axis=1, keepdims=True)


def within_se(label: str, value: float, se: float, truth: float) -> list[str]:
    if se > 0.0 and abs(value - truth) <= Z_LIMIT * se:
        return []
    return [f"{label}: {value:.6g} +- {se:.3g} is not within {Z_LIMIT:g} SE of {truth:.6g}"]


def same_bits(label: str, written, read) -> list[str]:
    a = np.ascontiguousarray(written, dtype=np.float64)
    b = np.ascontiguousarray(read, dtype=np.float64)
    if a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64)):
        return []
    return [f"{label}: data read back differs from the data written"]


def round_trip(label: str, positions, normals, back) -> list[str]:
    read_positions, read_normals, _ = back
    problems = same_bits(f"{label} positions", positions, read_positions)
    if read_normals is None:
        return problems + [f"{label}: normals were not read back"]
    return problems + same_bits(f"{label} normals", normals, read_normals)


def no_warnings(caught: list[str]) -> list[str]:
    return [f"warning raised: {message}" for message in caught]


def even_hits(label: str, histogram: dict) -> list[str]:
    odd = sorted(k for k, c in histogram.items() if k % 2 and c)
    return [f"{label}: lines with an odd hit count {odd} on a closed surface"] if odd else []


def on_torus(label: str, points: np.ndarray, tol: float) -> list[str]:
    residual = np.abs(torus_residual(points))
    if np.isfinite(residual).all() and residual.max() <= tol:
        return []
    return [f"{label}: torus equation residual {np.nanmax(residual):.3g} exceeds {tol:g}"]


def clustered_share(label: str, inside: np.ndarray, line_index: np.ndarray, lines: int, truth: float) -> list[str]:
    """Share of hits in a region, with its error bar from whole lines.

    Hits of one line are not independent, so the binomial variance is
    replaced by the ratio-estimator variance over lines (the cluster unit).
    """
    in_line = np.bincount(line_index, weights=inside.astype(np.float64), minlength=lines)
    per_line = np.bincount(line_index, minlength=lines).astype(np.float64)
    share = in_line.sum() / per_line.sum()
    resid = in_line - share * per_line
    se = math.sqrt(lines / (lines - 1) * (resid**2).sum()) / per_line.sum()
    return within_se(label, share, se, truth)


def implicit_cloud(cloud, back, target: int) -> list[str]:
    """Cloud on the catalog torus, its Crofton area and its binary PLY round trip."""
    pts, counts, lines = cloud.positions, cloud.per_line_counts, cloud.lines_used
    problems = []
    if len(pts) < target or counts.sum() != len(pts) or len(counts) != lines:
        problems.append(f"cloud of {len(pts)} points from {lines} lines does not match its line counts")
        return problems
    problems += on_torus("implicit cloud", pts, IMPLICIT_RESIDUAL)
    if not (np.linalg.norm(pts, axis=1) <= CLIP).all():
        problems.append("implicit cloud: points outside the clip ball")
    cosine = np.abs((cloud.normals * torus_normal(pts)).sum(axis=1))
    if not (cosine >= 1.0 - PARALLEL).all():
        problems.append(f"implicit cloud: normal off the torus normal, min |cos| = {np.nanmin(cosine):.12f}")
    norm = 2.0 * math.pi * CLIP**2
    problems += within_se(
        "hits per line x 2 pi clip^2", norm * counts.mean(), norm * counts.std(ddof=1) / math.sqrt(lines), TORUS_AREA
    )
    if not np.array_equal(np.bincount(cloud.line_index, minlength=lines), counts):
        problems.append("implicit cloud: line_index disagrees with per_line_counts")
        return problems
    problems += clustered_share("share with z > 0", pts[:, 2] > 0.0, cloud.line_index, lines, 0.5)
    outer = np.hypot(pts[:, 0], pts[:, 1]) > RING
    problems += clustered_share("share of the outer half", outer, cloud.line_index, lines, OUTER_SHARE)
    problems += round_trip("binary PLY", pts, cloud.normals, back)
    return problems


def estimates(label: str, area, z2, lines: int, area_truth: float, z2_truth: float) -> list[str]:
    """Area and integral of z^2 on a closed surface."""
    problems = []
    for est in (area, z2):
        if est.lines_used != lines:
            problems.append(f"{label}: estimate used {est.lines_used} lines, asked for {lines}")
        problems += even_hits(label, est.hit_histogram)
    problems += within_se(f"{label} area", area.value, area.standard_error, area_truth)
    problems += within_se(f"{label} integral of z^2", z2.value, z2.standard_error, z2_truth)
    return problems


def mesh_area_and_z2(triangles: np.ndarray) -> tuple[float, float]:
    """Exact area and integral of z^2 over a triangle list.

    The edge-midpoint rule, area/3 times the sum over the three edge
    midpoints, integrates quadratics exactly on a flat triangle.
    """
    a, b, c = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    mids = ((a + b) / 2.0, (b + c) / 2.0, (c + a) / 2.0)
    z2 = areas / 3.0 * sum(m[:, 2] ** 2 for m in mids)
    return float(areas.sum()), float(z2.sum())


def in_triangles(label: str, points: np.ndarray, triangles: np.ndarray) -> list[str]:
    """Each point is a convex combination of its triangle's vertices."""
    v0 = triangles[:, 0]
    e1, e2 = triangles[:, 1] - v0, triangles[:, 2] - v0
    d = points - v0
    g11, g12, g22 = (e1 * e1).sum(1), (e1 * e2).sum(1), (e2 * e2).sum(1)
    r1, r2 = (d * e1).sum(1), (d * e2).sum(1)
    det = g11 * g22 - g12 * g12
    a = (g22 * r1 - g12 * r2) / det
    b = (g11 * r2 - g12 * r1) / det
    off_plane = np.linalg.norm(d - a[:, None] * e1 - b[:, None] * e2, axis=1)
    ok = (a >= -IN_TRIANGLE) & (b >= -IN_TRIANGLE) & (a + b <= 1.0 + IN_TRIANGLE) & (off_plane <= IN_TRIANGLE)
    if ok.all():
        return []
    return [f"{label}: {int((~ok).sum())} of {len(points)} points lie outside their triangles"]


def cloud_normals(label: str, points: np.ndarray, estimated: np.ndarray) -> list[str]:
    """Estimated normals against the closed-form torus normal, up to sign."""
    cosine = np.clip(np.abs((estimated * torus_normal(points)).sum(axis=1)), 0.0, 1.0)
    share = float((np.degrees(np.arccos(cosine)) <= NORMAL_DEGREES).mean())
    if share >= NORMAL_SHARE:
        return []
    return [f"{label}: {share:.1%} of normals within {NORMAL_DEGREES:g} degrees, need {NORMAL_SHARE:.0%}"]
