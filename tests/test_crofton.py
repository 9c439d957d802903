import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from croftoncloud.crofton import estimate_area, estimate_double_integral, estimate_surface_integral
from croftoncloud.rng import Pseudo, unit_ball_volume
from croftoncloud.surfaces import (
    ImplicitSurface,
    TriangulatedSurface,
    plane_implicit,
    plane_patch_chart,
    sphere_chart,
    sphere_implicit,
    tetrahedron_mesh,
    torus_implicit,
    triangulate_parametric,
)

SPHERE_AREA = 4.0 * math.pi


def shifted_sphere(center, clip=2.0):
    c = np.asarray(center, dtype=np.float64)

    def f(x):
        return ((x - c) ** 2).sum(axis=-1) - 1.0

    return ImplicitSurface(f, clip, gradient=lambda x: 2.0 * (x - c))


class TestEstimateArea:
    def test_sphere(self):
        est = estimate_area(sphere_implicit(clip=2.0), Pseudo(1), 200_000)
        assert abs(est.value - SPHERE_AREA) < 3.0 * est.standard_error
        assert est.standard_error < 0.01 * SPHERE_AREA

    def test_plane_disk(self):
        # the z = 0 plane clipped to the ball is a disk of area pi r^2; the
        # plane extends past every clip ball, so the truncation advisory fires
        with pytest.warns(UserWarning, match="truncate"):
            est = estimate_area(plane_implicit(clip=2.0), Pseudo(2), 100_000)
        assert abs(est.value - math.pi * 4.0) < 3.0 * est.standard_error

    def test_triangulated_plane_patch(self):
        mesh, _ = triangulate_parametric(plane_patch_chart(side=1.0))
        est = estimate_area(mesh, Pseudo(3), 100_000, clip_radius=1.0)
        assert abs(est.value - 1.0) < 3.0 * est.standard_error

    def test_tetrahedron_mesh(self):
        est = estimate_area(tetrahedron_mesh(), Pseudo(4), 100_000, clip_radius=2.0)
        truth = 8.0 * math.sqrt(3.0)
        assert abs(est.value - truth) < 3.0 * est.standard_error

    def test_parametric_goes_through_triangulation(self):
        est = estimate_area(plane_patch_chart(side=1.0), Pseudo(5), 50_000, clip_radius=1.0)
        assert abs(est.value - 1.0) < 3.0 * est.standard_error

    def test_empty_surface(self):
        empty = ImplicitSurface(lambda x: np.ones(x.shape[:-1]), 1.0)
        est = estimate_area(empty, Pseudo(6), 5000)
        assert est.value == 0.0
        assert est.hit_histogram == {0: 5000}

    def test_histogram_accounts_every_line(self):
        est = estimate_area(sphere_implicit(clip=2.0), Pseudo(7), 20_000)
        assert sum(est.hit_histogram.values()) == est.lines_used == 20_000
        mean = sum(k * c for k, c in est.hit_histogram.items()) / est.lines_used
        assert est.mean_hits == pytest.approx(mean)
        norm = 2.0 * math.pi * 4.0
        assert est.value == pytest.approx(norm * mean, rel=1e-12)

    def test_translation_invariance(self):
        est = estimate_area(shifted_sphere([0.4, -0.2, 0.3]), Pseudo(8), 200_000)
        assert abs(est.value - SPHERE_AREA) < 3.0 * est.standard_error

    def test_standard_error_scales_like_inverse_sqrt(self):
        small = estimate_area(sphere_implicit(clip=2.0), Pseudo(9), 10_000)
        large = estimate_area(sphere_implicit(clip=2.0), Pseudo(10), 160_000)
        ratio = small.standard_error / large.standard_error
        assert 4.0 * 0.7 < ratio < 4.0 * 1.3

    def test_truncation_warning(self):
        # off-center unit sphere reaching radius 1.5 in a clip ball of 1.2
        with pytest.warns(UserWarning, match="truncate"):
            estimate_area(shifted_sphere([0.5, 0.0, 0.0], clip=1.2), Pseudo(11), 2000)

    def test_explicit_clip_cuts_implicit_surface(self):
        # the plane clipped to the unit ball is the unit disk, whatever the surface's own clip
        with pytest.warns(UserWarning, match="truncate"):
            est = estimate_area(plane_implicit(clip=2.0), Pseudo(3), 50_000, clip_radius=1.0)
        assert abs(est.value - math.pi) < 3.0 * est.standard_error

    def test_explicit_clip_inside_sphere_sees_nothing(self):
        est = estimate_area(sphere_implicit(clip=2.0), Pseudo(1), 20_000, clip_radius=0.5)
        assert est.hit_histogram == {0: 20_000}
        assert est.value == 0.0

    def test_calibration_over_seeds(self):
        surface = sphere_implicit(clip=2.0)
        covered = 0
        for seed in range(100):
            est = estimate_area(surface, Pseudo(3000 + seed), 5000)
            covered += abs(est.value - SPHERE_AREA) < 3.0 * est.standard_error
        assert covered >= 95


class TestSurfaceIntegral:
    def test_constant_one_reduces_to_area(self):
        surface = sphere_implicit(clip=2.0)
        area = estimate_area(surface, Pseudo(20), 30_000)
        integral = estimate_surface_integral(
            surface, lambda p: np.ones(len(p)), Pseudo(20), 30_000
        )
        assert integral.value == area.value
        assert integral.standard_error == area.standard_error

    def test_z_squared_on_sphere(self):
        est = estimate_surface_integral(
            sphere_implicit(clip=2.0), lambda p: p[:, 2] ** 2, Pseudo(21), 200_000
        )
        assert abs(est.value - SPHERE_AREA / 3.0) < 3.0 * est.standard_error

    def test_odd_function_vanishes(self):
        est = estimate_surface_integral(
            sphere_implicit(clip=2.0), lambda p: p[:, 2], Pseudo(22), 100_000
        )
        assert abs(est.value) < 3.0 * est.standard_error

    def test_on_mesh(self):
        mesh = tetrahedron_mesh()
        est = estimate_surface_integral(mesh, lambda p: np.ones(len(p)), Pseudo(23), 50_000, clip_radius=2.0)
        assert abs(est.value - mesh.total_area) < 3.0 * est.standard_error


class TestDoubleIntegral:
    def test_constant_gives_area_squared(self):
        est = estimate_double_integral(
            sphere_implicit(clip=2.0), lambda p, q: np.ones(len(p)), Pseudo(30), 100_000
        )
        assert abs(est.value - SPHERE_AREA**2) < 3.0 * est.standard_error

    def test_inner_product_vanishes(self):
        est = estimate_double_integral(
            sphere_implicit(clip=2.0), lambda p, q: (p * q).sum(axis=1), Pseudo(31), 50_000
        )
        assert abs(est.value) < 3.0 * est.standard_error

    def test_product_function_factorizes(self):
        est = estimate_double_integral(
            sphere_implicit(clip=2.0),
            lambda p, q: p[:, 2] ** 2 * q[:, 2] ** 2,
            Pseudo(32),
            150_000,
        )
        truth = (SPHERE_AREA / 3.0) ** 2
        assert abs(est.value - truth) < 3.0 * est.standard_error


class TestMeshIntersections:
    def test_shared_edge_counted_once(self):
        mesh, _ = triangulate_parametric(plane_patch_chart(side=1.0))
        # the two triangles share the diagonal from (-.5,-.5) to (.5,.5);
        # a vertical line through a diagonal point crosses both, one hit
        from croftoncloud.crofton import _mesh_hits

        dirs = np.array([[0.0, 0.0, 1.0]])
        feet = np.array([[0.1, 0.1, 0.0]])
        counts, _, ts, _ = _mesh_hits(mesh.triangles, dirs, feet, 1.0)
        assert counts.tolist() == [1]
        assert abs(ts[0]) < 1e-12

    def test_interior_hit_counted_once_per_triangle(self):
        mesh, _ = triangulate_parametric(plane_patch_chart(side=1.0))
        from croftoncloud.crofton import _mesh_hits

        dirs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        feet = np.array([[0.3, -0.2, 0.0], [-0.3, 0.2, 0.0]])
        counts, _, _, _ = _mesh_hits(mesh.triangles, dirs, feet, 1.0)
        assert counts.tolist() == [1, 1]

    def test_oblique_against_plane_formula(self):
        mesh, _ = triangulate_parametric(plane_patch_chart(side=1.0))
        from croftoncloud.crofton import _mesh_hits

        d = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        q = np.array([0.2, -0.1, 0.0])
        foot = q - (q @ d) * d
        counts, _, ts, _ = _mesh_hits(mesh.triangles, d[None], foot[None], 1.0)
        assert counts.tolist() == [1]
        assert np.allclose(foot + ts[0] * d, q, atol=1e-12)

    def test_degenerate_triangles_leak_no_warnings(self):
        # the sphere chart's pole rows triangulate to zero-area triangles
        mesh, _ = triangulate_parametric(sphere_chart())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_area(mesh, Pseudo(4), 500)
        assert est.lines_used == 500


class TestDirectionalJacobianConstant:
    def test_absolute_cosine_integral_over_sphere(self):
        # integral over the unit sphere of |cos(angle to a fixed axis)|
        # equals twice the unit disk area; quadrature oracle in the polar angle
        value, err = quad(lambda t: abs(math.cos(t)) * 2.0 * math.pi * math.sin(t), 0.0, math.pi)
        assert err < 1e-9
        assert value == pytest.approx(2.0 * unit_ball_volume(2), rel=1e-10)
