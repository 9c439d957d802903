"""Surface normals estimated from a bare cloud.

For a cloud with no known surface, the normal at a point is recovered by
averaging sign-aligned cross products ``(q - p) x (r - p)`` over
pseudo-randomly chosen pairs of near neighbors; neighbor lookup goes
through a k-d tree.  ``scipy.spatial`` is imported by the first
``NeighborIndex``, so importing the package does not load it.
"""

from __future__ import annotations

import numpy as np

from .geometry import _cross
from .rng import Pseudo

__all__ = ["NeighborIndex", "normal_cloud"]


class NeighborIndex:
    """k-d tree (scipy's cKDTree) over a fixed point set.

    Queries break distance ties by index, with the squared distances of a
    brute-force scan, so results match one exactly (the all-pairs oracle is
    ``k_nearest_bruteforce`` in ``tests/test_normals.py``).
    """

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected (n, 3) points, got {pts.shape}")
        from scipy.spatial import cKDTree

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
    cross = _cross(offsets[i], offsets[j])
    cross = cross[np.linalg.norm(cross, axis=1) > 1e-12 * scale]
    if not len(cross):
        raise ValueError("degenerate neighborhood: all cross products vanish")
    # every term then has a positive component along cross[0], so the sum cannot vanish
    cross[cross @ cross[0] < 0.0] *= -1.0
    total = np.add.reduce(cross, axis=0)
    return total / np.linalg.norm(total)
