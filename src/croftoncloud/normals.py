"""Surface normals: analytic per surface type, or estimated from a bare cloud.

For an implicit surface the normal is the normalized gradient.  For a cloud
with no known surface, the normal at a point is recovered by averaging
sign-aligned cross products ``(q - p) x (r - p)`` over pseudo-randomly
chosen pairs of near neighbors; neighbor lookup goes through a k-d tree.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .rng import Pseudo
from .surfaces import GRADIENT_FLOOR, ImplicitSurface

__all__ = ["NeighborIndex", "k_nearest_bruteforce", "normal_implicit", "normal_cloud", "tangent_frame"]


class NeighborIndex:
    """k-d tree (scipy's cKDTree) over a fixed point set.

    Queries break distance ties by index, with distances computed as in
    :func:`k_nearest_bruteforce`, so results match a brute-force scan
    exactly.
    """

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected (n, 3) points, got {pts.shape}")
        self.points = pts
        self._tree = cKDTree(pts)

    def k_nearest(self, query: np.ndarray, k: int, exclude: int | None = None) -> np.ndarray:
        """Indices of the k nearest stored points to *query*, nearest first.

        *exclude* removes one stored index (typically the query's own).
        Returns fewer than k indices only when the cloud is too small.
        """
        query = np.asarray(query, dtype=np.float64)
        reach = min(k + (exclude is not None), len(self.points))
        if reach < 1:
            return np.empty(0, dtype=np.int64)
        dist, _ = self._tree.query(query, k=[reach])
        # every point tied with the reach-th within rounding, so the final
        # order is decided by the brute-force distances and indices alone
        cand = np.array(self._tree.query_ball_point(query, dist[0] * (1.0 + 1e-9)), dtype=np.int64)
        if exclude is not None:
            cand = cand[cand != exclude]
        d2 = ((self.points[cand] - query) ** 2).sum(axis=1)
        return cand[np.lexsort((cand, d2))[:k]]


def k_nearest_bruteforce(points: np.ndarray, query_index: int, k: int) -> np.ndarray:
    """All-pairs oracle with the same (distance, index) ordering."""
    pts = np.asarray(points, dtype=np.float64)
    d2 = ((pts - pts[query_index]) ** 2).sum(axis=1)
    idx = np.arange(len(pts))
    keep = idx != query_index
    order = np.lexsort((idx[keep], d2[keep]))
    return idx[keep][order[:k]]


def normal_implicit(surface: ImplicitSurface, point: np.ndarray) -> np.ndarray:
    """Normalized field gradient at a surface point."""
    grad = np.asarray(surface.gradient_at(np.asarray(point, dtype=np.float64)))
    norm = float(np.linalg.norm(grad))
    if norm < GRADIENT_FLOOR:
        raise ValueError(f"critical point: |grad| = {norm:.3e}")
    return grad / norm


def _pair_choices(k: int, pairs: int, seed: int) -> list[tuple[int, int]]:
    """Distinct unordered neighbor pairs, pseudo-random but repeatable per query."""
    all_pairs = k * (k - 1) // 2
    if pairs >= all_pairs:
        return [(i, j) for i in range(k) for j in range(i + 1, k)]
    src = Pseudo(seed)
    chosen: dict[tuple[int, int], None] = {}  # distinct pairs in stream order
    while len(chosen) < pairs:
        draws = np.minimum((src.take(2 * pairs) * k).astype(np.int64), k - 1).reshape(-1, 2)
        draws = np.sort(draws[draws[:, 0] != draws[:, 1]], axis=1)
        chosen.update(dict.fromkeys(map(tuple, draws.tolist())))
    return sorted(list(chosen)[:pairs])


def normal_cloud(
    points: np.ndarray,
    index: int,
    k: int = 12,
    pairs: int = 8,
    neighbor_index: NeighborIndex | None = None,
) -> np.ndarray:
    """Estimated unit normal at cloud point *index* from neighbor cross products.

    Finds the k nearest neighbors, forms *pairs* pseudo-randomly chosen
    distinct neighbor pairs (q, r), orients each cross product
    (q - p) x (r - p) to agree with the first nonzero one, and returns the
    normalized average.  The sign is only locally consistent: no global
    outward orientation is attempted.
    """
    pts = np.asarray(points, dtype=np.float64)
    if k < 2:
        raise ValueError("need at least two neighbors")
    if len(pts) < k + 1:
        raise ValueError(f"cloud of {len(pts)} points cannot supply {k} neighbors")
    nbr = neighbor_index or NeighborIndex(pts)
    p = pts[index]
    neighbors = pts[nbr.k_nearest(p, k, exclude=index)]
    offsets = neighbors - p
    scale = float(np.linalg.norm(offsets, axis=1).max()) ** 2
    i, j = np.array(_pair_choices(len(neighbors), pairs, seed=index), dtype=np.int64).reshape(-1, 2).T
    cross = np.cross(offsets[i], offsets[j])
    cross = cross[np.linalg.norm(cross, axis=1) > 1e-12 * scale]
    if not len(cross):
        raise ValueError("degenerate neighborhood: all cross products vanish")
    # every term then has a positive component along cross[0], so the sum cannot vanish
    cross[cross @ cross[0] < 0.0] *= -1.0
    total = np.add.reduce(cross, axis=0)
    return total / np.linalg.norm(total)


def tangent_frame(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (e1, e2) spanning the plane orthogonal to unit *normal*.

    Seeds Gram-Schmidt with the two coordinate axes least aligned with the
    normal (deterministic in the input).
    """
    nu = np.asarray(normal, dtype=np.float64)
    if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
        raise ValueError("normal must be a unit vector")
    axes = np.argsort(np.abs(nu), kind="stable")[:2]
    frame = []
    for axis in axes:
        e = np.zeros(3)
        e[axis] = 1.0
        w = e - (e @ nu) * nu
        for b in frame:
            w -= (w @ b) * b
        w /= np.linalg.norm(w)
        frame.append(w)
    return frame[0], frame[1]
