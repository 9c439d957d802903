import dataclasses
import math

import numpy as np
import pytest

from croftoncloud import surfaces
from croftoncloud.rng import BoxDomain
from croftoncloud.samplers import cloud_triangulated
from croftoncloud.surfaces import (
    ImplicitSurface,
    ParametricSurface,
    TriangulatedSurface,
    corner_pyramid_implicit,
    corner_pyramid_mesh,
    plane_patch_chart,
    sphere_chart,
    sphere_implicit,
    tetrahedron_mesh,
    torus_implicit,
    triangle_area,
    triangle_normal,
    triangulate_parametric,
)

from conftest import ScriptedSource


class TestTriangleArea:
    def test_unit_right_triangle(self):
        assert triangle_area([(0, 0, 0), (1, 0, 0), (0, 1, 0)]) == 0.5

    def test_collinear_is_degenerate(self):
        assert triangle_area([(0, 0, 0), (1, 1, 1), (2, 2, 2)]) == 0.0

    def test_skew_triangle(self):
        # cross of (1,0,0) and (0,1,1) has norm sqrt(2)
        assert triangle_area([(0, 0, 0), (1, 0, 0), (1, 1, 1)]) == pytest.approx(
            0.5 * math.sqrt(2.0), rel=1e-15
        )

    def test_vertex_rotation_exact(self):
        tri = np.array([(0.3, 0.1, 0.0), (1.2, -0.4, 0.5), (0.0, 1.0, 2.0)])
        rotated = tri[[1, 2, 0]]
        assert triangle_area(tri) == triangle_area(rotated)

    def test_rigid_motion_invariance(self):
        tri = np.array([(0.3, 0.1, 0.0), (1.2, -0.4, 0.5), (0.0, 1.0, 2.0)])
        theta = 0.7
        rot = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0.0],
                [math.sin(theta), math.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        moved = tri @ rot.T + np.array([5.0, -2.0, 3.0])
        assert triangle_area(moved) == pytest.approx(triangle_area(tri), rel=1e-12)

    def test_batched(self):
        tris = np.array(
            [
                [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                [(0, 0, 0), (2, 0, 0), (0, 2, 0)],
            ],
            dtype=float,
        )
        assert triangle_area(tris).tolist() == [0.5, 2.0]


class TestBarycentric:
    """The barycentric combination of cloud_triangulated, fed scripted (u, v) pairs."""

    TRI = np.array([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])

    def points(self, scalars, count=1):
        # scalars: one triangle pick per point, then the (u, v) pairs
        return cloud_triangulated(TriangulatedSurface([self.TRI]), ScriptedSource(scalars), count).positions

    def test_vertices(self):
        assert self.points([0.0, 0.0, 1.0, 0.0, 0.0, 0.0], count=2).tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]

    def test_centroid(self):
        assert np.allclose(self.points([0.0, 1 / 3, 1 / 3]), [[1 / 3, 1 / 3, 1 / 3]])

    def test_outside_simplex_folded(self):
        # (0.7, 0.7) lies above the diagonal and folds to (0.3, 0.3)
        assert np.allclose(self.points([0.0, 0.7, 0.7]), [[0.3, 0.3, 0.4]])


class TestTriangulateParametric:
    def test_minimal_grid_count(self):
        mesh, params = triangulate_parametric(plane_patch_chart(u_res=2, v_res=2))
        assert len(mesh) == 2
        assert params.shape == (2, 3, 2)

    @pytest.mark.parametrize("res", [2, 5, 17])
    def test_planar_area_exact(self, res):
        mesh, _ = triangulate_parametric(plane_patch_chart(side=1.0, u_res=res, v_res=res))
        assert len(mesh) == 2 * (res - 1) ** 2
        assert mesh.total_area == pytest.approx(1.0, abs=1e-12)

    def test_sphere_area_converges_from_below(self):
        mesh, _ = triangulate_parametric(sphere_chart(u_res=512, v_res=512))
        area = mesh.total_area
        assert area < 4.0 * math.pi
        assert abs(area - 4.0 * math.pi) / (4.0 * math.pi) < 1e-3

    def test_vertices_lie_on_chart_exactly(self):
        surface = sphere_chart(u_res=7, v_res=9)
        mesh, params = triangulate_parametric(surface)
        images = surface.chart(params[..., 0], params[..., 1])
        assert np.array_equal(mesh.triangles, images)

    def test_cumulative_invariants(self):
        mesh, _ = triangulate_parametric(sphere_chart(u_res=16, v_res=16))
        cum = mesh.cumulative_areas
        assert (np.diff(cum) >= 0.0).all()
        assert cum[-1] == pytest.approx(mesh.areas.sum(), rel=1e-12)

    def test_triangle_tables_built_once(self):
        # the sphere chart's pole triangles have zero area, so nan normals
        mesh, _ = triangulate_parametric(sphere_chart(u_res=7, v_res=9))
        tris = mesh.triangles
        assert mesh.normals is mesh.normals and mesh.edge_table is mesh.edge_table
        assert mesh.normals.tobytes() == triangle_normal(tris).tobytes()
        edges = np.stack([tris[:, 0], tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]], axis=1)
        assert mesh.edge_table.tobytes() == edges.tobytes()
        assert mesh.bounding_radius() == float(np.linalg.norm(tris.reshape(-1, 3), axis=1).max())

    def test_cached_on_the_frozen_surface(self):
        surface = sphere_chart(u_res=7, v_res=9)
        mesh, params = triangulate_parametric(surface)
        assert triangulate_parametric(surface)[0] is mesh
        assert not params.flags.writeable and not mesh.triangles.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            surface.u_res = 8
        finer, _ = triangulate_parametric(dataclasses.replace(surface, u_res=8))
        assert len(finer) == 2 * 7 * 8 and len(mesh) == 2 * 6 * 8

    def test_nonfinite_chart_reports_grid_point(self):
        def bad_chart(u, v):
            with np.errstate(divide="ignore"):
                out = np.stack([u, v, 1.0 / (u - 0.5)], axis=-1)
            return out

        surface = ParametricSurface(bad_chart, BoxDomain((0.0, 0.0), (1.0, 1.0)), 3, 3)
        with pytest.raises(ValueError, match="grid point"):
            triangulate_parametric(surface)


class TestBVH:
    @pytest.mark.parametrize("n", [1, 3, 7, 8, 9, 17, 1001])
    def test_layout(self, n):
        tris = np.random.default_rng(n).uniform(-2.0, 2.0, (n, 3, 3))
        lo, hi, leaves = surfaces._build_bvh(tris)
        size, n_leaves = len(lo) // 2, -(-n // surfaces.BVH_LEAF)
        assert leaves.shape == (n_leaves, surfaces.BVH_LEAF)
        assert size >= n_leaves > size // 2 or size == n_leaves == 1
        # every triangle sits in exactly one leaf, strictly inside its padded box
        ids = leaves.ravel()
        assert sorted(ids[ids >= 0]) == list(range(n)) and (ids[n:] == -1).all()
        box = size + np.arange(n) // surfaces.BVH_LEAF
        assert (tris[ids[:n]].min(axis=1) > lo[box]).all() and (tris[ids[:n]].max(axis=1) < hi[box]).all()
        # parents are the min/max of their children, padding leaves are empty
        inner = np.arange(1, size)
        assert np.array_equal(lo[inner], np.minimum(lo[2 * inner], lo[2 * inner + 1]))
        assert np.array_equal(hi[inner], np.maximum(hi[2 * inner], hi[2 * inner + 1]))
        assert np.isposinf(lo[size + n_leaves :]).all() and np.isneginf(hi[size + n_leaves :]).all()

    def test_morton_order_keeps_leaves_local(self):
        # shuffled sphere triangles: in input order a leaf would span the
        # whole sphere; sorted by Morton code it spans a few grid cells
        mesh, _ = triangulate_parametric(sphere_chart(u_res=33, v_res=65))
        tris = mesh.triangles[np.random.default_rng(0).permutation(len(mesh))]
        lo, hi, leaves = surfaces._build_bvh(tris)
        size = len(lo) // 2
        extent = (hi[size : size + len(leaves)] - lo[size : size + len(leaves)]).max(axis=1)
        assert np.median(extent) < 0.5


def _sphere_field(x):
    return (x * x).sum(axis=-1) - 1.0


class TestImplicitBounds:
    @pytest.mark.parametrize(
        "bounds, match",
        [
            (5.0, "pair"),
            (([0.0, 0.0, 0.0],), "pair"),
            (([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]), "pair"),
            (("lo", "hi"), "pair"),
            (([0.0, 0.0], [1.0, 1.0]), "3-vectors"),
            (([0.0, 0.0, 0.0], [[1.0, 1.0, 1.0]]), "3-vectors"),
            (([0.0, 0.0, np.nan], [1.0, 1.0, 1.0]), "finite"),
            (([0.0, 0.0, 0.0], [1.0, np.inf, 1.0]), "finite"),
            (([0.0, 2.0, 0.0], [1.0, 1.0, 1.0]), "lo <= hi"),
        ],
        ids=["scalar", "one-corner", "three-corners", "strings", "2-vectors", "2d-corner", "nan", "inf", "lo-above-hi"],
    )
    def test_rejected(self, bounds, match):
        with pytest.raises(ValueError, match=match):
            ImplicitSurface(_sphere_field, 2.0, bounds=bounds)

    def test_kept_as_float_tuples(self):
        s = ImplicitSurface(_sphere_field, 2.0, bounds=(np.array([-1, -1, -1]), [1, 1, 1]))
        assert s.bounds == ((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
        assert all(type(x) is float for corner in s.bounds for x in corner)
        assert dataclasses.replace(s, clip_radius=3.0).bounds == s.bounds
        assert dataclasses.replace(s) == s

    def test_a_flat_box_is_allowed(self):
        assert ImplicitSurface(_sphere_field, 2.0, bounds=([0.0] * 3, [0.0] * 3)).bounds is not None

    @pytest.mark.parametrize("name, half_widths", [("torus", [2.5, 2.5, 0.5])])
    def test_catalog_boxes_are_exact_and_padded(self, name, half_widths):
        lo, hi = map(np.array, surfaces.CATALOG[name].implicit().bounds)
        pad = hi - np.array(half_widths)
        assert np.array_equal(lo, -hi)
        assert (pad > 0.0).all() and (pad < 1e-8).all()

    def test_pyramid_box_is_the_padded_unit_cube(self):
        lo, hi = map(np.array, surfaces.CATALOG["pyramid"].implicit().bounds)
        assert (lo < 0.0).all() and (lo > -1e-8).all() and (hi > 1.0).all() and (hi < 1.0 + 1e-8).all()

    @pytest.mark.parametrize("name", ["sphere", "ellipsoid"])
    def test_polynomial_catalog_fields_have_no_box(self, name):
        # the scan takes a polynomial field's cells from its Bernstein bounds and never reads a box
        surface = surfaces.CATALOG[name].implicit()
        assert surface.bounds is None and hasattr(surface.field, "line_polynomial")

    def test_plane_has_no_box(self):
        # a box for the plane would depend on the clip, which crofton._resolve swaps with dataclasses.replace
        assert surfaces.CATALOG["plane"].implicit().bounds is None


class TestCatalog:
    def test_sphere_field_and_gradient(self):
        s = sphere_implicit()
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert s.field(pts).tolist() == [0.0, 3.0]
        assert s.gradient_at(pts).tolist() == [[2.0, 0.0, 0.0], [0.0, 4.0, 0.0]]

    def test_finite_difference_gradient_close(self):
        s = ImplicitSurface(lambda x: (x**2).sum(axis=-1) - 1.0, 2.0)
        grad = s.gradient_at(np.array([[0.6, 0.0, 0.8]]))
        assert np.allclose(grad, [[1.2, 0.0, 1.6]], atol=1e-9)

    def test_torus_surface_points(self):
        t = torus_implicit(2.0, 0.5)
        on = np.array([[2.5, 0.0, 0.0], [0.0, 1.5, 0.0], [2.0, 0.0, 0.5]])
        assert np.allclose(t.field(on), 0.0, atol=1e-14)
        grad = t.gradient(on)
        assert np.allclose(grad[0], [1.0, 0.0, 0.0])

    def test_pyramid_field_signs(self):
        p = corner_pyramid_implicit()
        inside = np.array([[0.2, 0.2, 0.2]])
        outside = np.array([[1.0, 1.0, 1.0], [-0.1, 0.2, 0.2]])
        assert p.field(inside)[0] < 0.0
        assert (p.field(outside) > 0.0).all()

    def test_pyramid_mesh_areas(self):
        mesh = corner_pyramid_mesh()
        areas = sorted(mesh.areas)
        assert areas[:3] == pytest.approx([0.5, 0.5, 0.5])
        assert areas[3] == pytest.approx(math.sqrt(3.0) / 2.0)

    def test_tetrahedron_area(self):
        assert tetrahedron_mesh().total_area == pytest.approx(8.0 * math.sqrt(3.0), rel=1e-12)

    def test_catalog_entries_build(self):
        for name, entry in surfaces.CATALOG.items():
            if entry.implicit is not None:
                assert entry.implicit(clip=1.25).clip_radius == 1.25
            if entry.chart is not None:
                entry.chart(u_res=4, v_res=4)
            if entry.mesh is not None:
                assert len(entry.mesh()) > 0

    @pytest.mark.parametrize("name", [name for name, entry in surfaces.CATALOG.items() if entry.chart is not None])
    def test_partials_are_the_charts_derivatives(self, name):
        # central differences of the chart's own map, whose error is near 1e-10 of the chart's scale
        chart = surfaces.CATALOG[name].chart()
        assert chart.partials is not None
        (u0, v0), (u1, v1) = chart.domain.lows, chart.domain.highs
        rng = np.random.default_rng(22)
        u, v = u0 + (u1 - u0) * rng.random(1000), v0 + (v1 - v0) * rng.random(1000)
        du, dv = chart.partials(u, v)
        for got, step in ((du, (1e-6 * (u1 - u0), 0.0)), (dv, (0.0, 1e-6 * (v1 - v0)))):
            h = max(step)
            ahead, behind = chart.chart(u + step[0], v + step[1]), chart.chart(u - step[0], v - step[1])
            assert got.shape == (1000, 3)
            np.testing.assert_allclose(got, (ahead - behind) / (2 * h), rtol=1e-7, atol=1e-7 * np.abs(got).max())

    def test_degenerate_triangles_kept_with_zero_weight(self):
        mesh = TriangulatedSurface(
            [
                [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                [(0, 0, 0), (1, 1, 1), (2, 2, 2)],
            ]
        )
        assert len(mesh) == 2
        assert mesh.total_area == pytest.approx(0.5)

    def test_triangle_normal_orientation(self):
        n = triangle_normal(np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0)], dtype=float))
        assert n.tolist() == [0.0, 0.0, 1.0]
        flipped = triangle_normal(np.array([(0, 0, 0), (0, 1, 0), (1, 0, 0)], dtype=float))
        assert flipped.tolist() == [0.0, 0.0, -1.0]
