import math

import numpy as np
import pytest

from croftoncloud.normals import NeighborIndex, normal_cloud
from croftoncloud.rng import Pseudo, sample_sphere
from croftoncloud.samplers import _unit_normals, cloud_implicit
from croftoncloud.surfaces import ImplicitSurface, plane_implicit, sphere_implicit, torus_implicit


def k_nearest_bruteforce(points: np.ndarray, query_index: int, k: int) -> np.ndarray:
    """All-pairs oracle with NeighborIndex's (distance, index) ordering."""
    pts = np.asarray(points, dtype=np.float64)
    d2 = ((pts - pts[query_index]) ** 2).sum(axis=1)
    idx = np.arange(len(pts))
    keep = idx != query_index
    order = np.lexsort((idx[keep], d2[keep]))
    return idx[keep][order[:k]]


class TestNormalImplicit:
    """Implicit-surface normals: the batch path, normalized field gradients of an (m, 3) array."""

    def test_sphere(self):
        points = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.6, 0.0, 0.8]])
        assert np.allclose(_unit_normals(sphere_implicit(), points), points)

    def test_plane(self):
        nu = _unit_normals(plane_implicit(), np.array([[0.3, -0.2, 0.0], [-1.0, 0.5, 0.0]]))
        assert np.allclose(nu, [[0.0, 0.0, 1.0]] * 2)

    def test_torus_outer_equator(self):
        # at (R + rho, 0, 0) the surface normal points radially outward
        nu = _unit_normals(torus_implicit(2.0, 0.5), np.array([[2.5, 0.0, 0.0], [0.0, -2.5, 0.0]]))
        assert np.allclose(nu, [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], atol=1e-12)

    def test_finite_difference_path_close_to_analytic(self):
        analytic = torus_implicit(2.0, 0.5)
        numeric = ImplicitSurface(analytic.field, analytic.clip_radius)
        points = np.array([[2.5, 0.0, 0.0], [0.0, 1.5, 0.0], [2.0, 0.0, 0.5], [1.2, 1.2, 0.3]])
        cos = np.abs((_unit_normals(analytic, points) * _unit_normals(numeric, points)).sum(axis=1))
        assert np.arccos(np.minimum(cos, 1.0)).max() < 1e-6

    def test_critical_point_raises(self):
        # the central difference at the cone's apex is exactly 0
        cone = ImplicitSurface(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 - x[..., 2] ** 2, 2.0)
        with pytest.raises(FloatingPointError, match=r"no unit normal at \[0.0, 0.0, 0.0\]"):
            _unit_normals(cone, np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_gradient_that_is_not_finite_raises(self, bad):
        def gradient(x):
            grad = 2.0 * x
            grad[1, 0] = bad
            return grad

        sphere = ImplicitSurface(sphere_implicit().field, 2.0, gradient=gradient)
        with pytest.raises(FloatingPointError, match=r"no unit normal at \[0.0, 0.6, 0.8\]"):
            _unit_normals(sphere, np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]))

    def test_cloud_with_zero_gradient_raises(self):
        sphere = sphere_implicit()
        flat = ImplicitSurface(sphere.field, 2.0, gradient=lambda x: np.zeros_like(x))
        with pytest.raises(FloatingPointError):
            cloud_implicit(flat, Pseudo(1), 10)


class TestNeighborIndex:
    def test_matches_bruteforce_random_cloud(self):
        points = sample_sphere(Pseudo(1), 3, size=1500)
        index = NeighborIndex(points)
        for i in range(0, 1500, 97):
            hash_result = index.k_nearest(points[i], 10, exclude=i)
            brute = k_nearest_bruteforce(points, i, 10)
            assert hash_result.tolist() == brute.tolist()

    def test_matches_bruteforce_grid_with_ties(self):
        # integer grid: many exact distance ties, index order must agree
        g = np.arange(8)
        points = np.stack(np.meshgrid(g, g, [0.0], indexing="ij"), axis=-1).reshape(-1, 3).astype(float)
        index = NeighborIndex(points)
        for i in (0, 13, 37, 63):
            assert index.k_nearest(points[i], 6, exclude=i).tolist() == k_nearest_bruteforce(points, i, 6).tolist()

    def test_planar_cloud_cell_size_fallback(self):
        points = np.random.default_rng(3).random((500, 3))
        points[:, 2] = 0.25
        index = NeighborIndex(points)
        got = index.k_nearest(points[7], 4, exclude=7)
        assert got.tolist() == k_nearest_bruteforce(points, 7, 4).tolist()

    def test_small_cloud_returns_what_exists(self):
        points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        index = NeighborIndex(points)
        assert len(index.k_nearest(points[0], 5, exclude=0)) == 2


class TestNormalCloud:
    def test_planar_cloud_recovers_plane_normal(self):
        gen = np.random.default_rng(5)
        points = np.zeros((400, 3))
        points[:, :2] = gen.random((400, 2))
        nu = normal_cloud(points, 17, k=12, pairs=8)
        assert abs(abs(nu[2]) - 1.0) < 1e-9
        angle = math.acos(min(1.0, abs(float(nu @ np.array([0.0, 0.0, 1.0])))))
        assert angle < 1e-6

    def test_three_point_cloud_gives_triangle_normal(self):
        points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        nu = normal_cloud(points, 0, k=2, pairs=1)
        assert np.allclose(np.abs(nu), [0.0, 0.0, 1.0], atol=1e-12)

    def test_sphere_subset_accuracy(self):
        points = sample_sphere(Pseudo(6), 3, size=20_000)
        index = NeighborIndex(points)
        bad = 0
        queries = range(0, 20_000, 40)
        for i in queries:
            nu = normal_cloud(points, i, k=12, pairs=8, neighbor_index=index)
            cos = abs(float(nu @ points[i]))
            if math.degrees(math.acos(min(1.0, cos))) >= 5.0:
                bad += 1
        assert bad / len(list(queries)) < 0.01

    def test_sign_consistency_within_query(self):
        points = sample_sphere(Pseudo(7), 3, size=500)
        nu = normal_cloud(points, 3, k=8, pairs=6)
        assert abs(np.linalg.norm(nu) - 1.0) < 1e-12

    def test_collinear_neighborhood_raises(self):
        points = np.zeros((10, 3))
        points[:, 0] = np.arange(10.0)
        with pytest.raises(ValueError, match="degenerate neighborhood"):
            normal_cloud(points, 5, k=4, pairs=4)

    def test_deterministic_per_query(self):
        points = sample_sphere(Pseudo(8), 3, size=300)
        assert np.array_equal(normal_cloud(points, 11), normal_cloud(points, 11))

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            normal_cloud(np.zeros((3, 3)), 0, k=12)

    @pytest.mark.parametrize("k, pairs", [(12, 8), (6, 14), (4, 5), (20, 3)])
    def test_matches_pairwise_loop(self, k, pairs):
        # reference: scalar draws one pair at a time, one cross product at a time
        points = sample_sphere(Pseudo(9), 3, size=2000)
        index = NeighborIndex(points)
        for query in range(0, 2000, 50):
            src, chosen = Pseudo(query), set()
            if pairs >= k * (k - 1) // 2:
                chosen = {(i, j) for i in range(k) for j in range(i + 1, k)}
            while len(chosen) < pairs:
                i, j = (min(int(src.take(1)[0] * k), k - 1) for _ in range(2))
                if i != j:
                    chosen.add((min(i, j), max(i, j)))
            p = points[query]
            neighbors = points[index.k_nearest(p, k, exclude=query)]
            scale = float(np.linalg.norm(neighbors - p, axis=1).max()) ** 2
            total, reference = np.zeros(3), None
            for i, j in sorted(chosen):
                cross = np.cross(neighbors[i] - p, neighbors[j] - p)
                if np.linalg.norm(cross) > 1e-12 * scale:
                    reference = cross if reference is None else reference
                    total += cross if cross @ reference >= 0.0 else -cross
            got = normal_cloud(points, query, k=k, pairs=pairs, neighbor_index=index)
            assert got.tobytes() == (total / np.linalg.norm(total)).tobytes()
