import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croftoncloud import samplers
from croftoncloud.geometry import make_line
from croftoncloud.rng import Pseudo
from croftoncloud.samplers import (
    ImplicitSamplerConfig,
    SurfaceNotFound,
    cloud_axis_aligned,
    cloud_implicit,
    cloud_parametric,
    cloud_triangulated,
    find_interval,
    intersect_line_implicit,
)
from croftoncloud.surfaces import (
    CATALOG,
    ImplicitSurface,
    TriangulatedSurface,
    plane_implicit,
    plane_patch_chart,
    sphere_chart,
    sphere_implicit,
    tetrahedron_mesh,
    triangulate_parametric,
)

from conftest import binomial_sigma


class TestIntersectLineImplicit:
    def test_sphere_chord(self):
        line = make_line([0.0, 0.0, 1.0], [0.5, 0.0, 0.0])
        ts, pts = intersect_line_implicit(sphere_implicit(), line)
        root = math.sqrt(0.75)
        assert len(ts) == 2
        assert abs(ts[0] + root) < 1e-9 and abs(ts[1] - root) < 1e-9
        assert np.allclose(pts[:, 0], 0.5)

    def test_miss_outside_foot_disk(self):
        line = make_line([0.0, 0.0, 1.0], [2.0, 0.0, 0.0])
        ts, pts = intersect_line_implicit(sphere_implicit(), line)
        assert len(ts) == 0 and pts.shape == (0, 3)

    def test_plane_single_hit_at_exact_grid_zero(self):
        # symmetric chord grid lands a node exactly on t = 0
        line = make_line([0.0, 0.0, 1.0], [0.3, 0.4, 0.0])
        ts, pts = intersect_line_implicit(plane_implicit(), line)
        assert len(ts) == 1
        assert ts[0] == 0.0
        assert np.allclose(pts[0], [0.3, 0.4, 0.0])

    def test_line_inside_surface_dropped(self):
        # a line lying in the plane meets it non-transversally: no hits
        line = make_line([1.0, 0.0, 0.0], [0.0, 0.5, 0.0])
        ts, _ = intersect_line_implicit(plane_implicit(), line)
        assert len(ts) == 0

    def test_tangential_touch_dropped(self):
        # line tangent to the unit sphere: field touches zero without crossing
        line = make_line([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
        ts, _ = intersect_line_implicit(sphere_implicit(clip=2.0), line)
        assert len(ts) == 0

    def test_root_tolerance_honored(self):
        cfg = ImplicitSamplerConfig(root_tol=1e-12)
        line = make_line([0.0, 0.0, 1.0], [0.5, 0.0, 0.0])
        ts, _ = intersect_line_implicit(sphere_implicit(), line, cfg)
        assert abs(ts[1] - math.sqrt(0.75)) < 1e-11

    def test_nonfinite_field_raises(self):
        def bad(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / x[..., 2]

        line = make_line([0.0, 0.0, 1.0], [0.1, 0.0, 0.0])
        with pytest.raises(FloatingPointError, match="t ="):
            intersect_line_implicit(ImplicitSurface(bad, 1.0), line)


class TestFindInterval:
    CUM = [1.0, 3.0, 6.0]

    def test_examples(self):
        assert find_interval(self.CUM, 2.5) == 1
        assert find_interval(self.CUM, 0.0) == 0
        assert find_interval(self.CUM, 5.999) == 2

    def test_boundary_is_included_in_next(self):
        assert find_interval(self.CUM, 1.0) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            find_interval(self.CUM, -0.1)
        with pytest.raises(ValueError):
            find_interval(self.CUM, 6.0)

    def test_numpy_input(self):
        assert find_interval(np.array(self.CUM), 2.5) == 1

    @given(
        st.lists(st.floats(0.01, 10.0), min_size=1, max_size=60),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan(self, weights, frac):
        cum = np.cumsum(weights)
        x = frac * cum[-1]
        expected = next(j for j, c in enumerate(cum) if x < c)
        assert find_interval(cum, x) == expected


@pytest.fixture(scope="module")
def sphere_cloud_100k():
    return cloud_implicit(sphere_implicit(clip=2.0), Pseudo(42), 100_000)


class TestCloudImplicit:
    def test_sphere_octants(self, sphere_cloud_100k):
        cloud = sphere_cloud_100k
        n = len(cloud)
        assert n >= 100_000
        pts = cloud.positions
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    count = int(((sx * pts[:, 0] > 0) & (sy * pts[:, 1] > 0) & (sz * pts[:, 2] > 0)).sum())
                    assert abs(count - n / 8) < 3.0 * binomial_sigma(n, 0.125)

    def test_mean_hits_per_line(self, sphere_cloud_100k):
        assert abs(sphere_cloud_100k.mean_hits_per_line - 0.5) < 0.01

    def test_on_surface_residual(self):
        surface = sphere_implicit(clip=2.0)
        cloud = cloud_implicit(surface, Pseudo(44), 5000)
        assert np.abs(surface.field(cloud.positions)).max() < 1e-6

    def test_normals_are_unit_outward_gradients(self):
        surface = sphere_implicit(clip=2.0)
        cloud = cloud_implicit(surface, Pseudo(45), 2000)
        radial = cloud.positions / np.linalg.norm(cloud.positions, axis=1, keepdims=True)
        assert np.abs(np.linalg.norm(cloud.normals, axis=1) - 1.0).max() < 1e-10
        assert np.abs(cloud.normals - radial).max() < 1e-6

    def test_per_line_bookkeeping(self):
        cloud = cloud_implicit(sphere_implicit(clip=2.0), Pseudo(46), 1000)
        assert cloud.per_line_counts.sum() == len(cloud)
        assert cloud.lines_used == len(cloud.per_line_counts)
        # hits appended in line order, ascending t within a line
        assert (np.diff(cloud.line_index) >= 0).all()
        same = np.diff(cloud.line_index) == 0
        assert (np.diff(cloud.line_t)[same] > 0).all()

    def test_determinism(self):
        a = cloud_implicit(sphere_implicit(clip=2.0), Pseudo(47), 2000)
        b = cloud_implicit(sphere_implicit(clip=2.0), Pseudo(47), 2000)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.line_index, b.line_index)

    def test_empty_surface_errors_after_budget(self, monkeypatch):
        monkeypatch.setattr(samplers, "DEFAULT_LINE_CHUNK", 512)
        monkeypatch.setattr(samplers, "MAX_EMPTY_LINES", 1000)
        empty = ImplicitSurface(lambda x: np.ones(x.shape[:-1]), 1.0)
        with pytest.raises(SurfaceNotFound, match="after 1024 lines"):
            cloud_implicit(empty, Pseudo(48), 10)

    def test_plane_warns_of_truncation(self):
        # the plane extends past every clip ball, so hits reach its boundary
        with pytest.warns(UserWarning, match="truncate"):
            cloud_implicit(plane_implicit(), Pseudo(49), 2000)

    @pytest.mark.parametrize("name", ["sphere", "torus"])
    def test_catalog_defaults_fit_their_clip_ball(self, name):
        # about 65,000 lines at 0.5 (sphere) and 0.7 (torus) hits per line
        target = {"sphere": 32_000, "torus": 45_000}[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud = cloud_implicit(CATALOG[name].implicit(), Pseudo(43), target)
        assert cloud.lines_used > 60_000

    def test_pair_coordinate_factorization(self, sphere_cloud_100k):
        # consecutive-point coordinate products factorize on the sphere
        pts = sphere_cloud_100k.positions
        for a in range(3):
            for b in range(3):
                prod = pts[:-1, a] * pts[1:, b]
                se = prod.std() / math.sqrt(len(prod))
                assert abs(prod.mean()) < 3.0 * se + 1e-12


class TestCloudTriangulated:
    def test_two_triangle_weighting(self):
        mesh = TriangulatedSurface(
            [
                [(0, 0, 0), (1, 0, 0), (0, 2, 0)],  # area 1
                [(5, 0, 0), (8, 0, 0), (5, 2, 0)],  # area 3
            ]
        )
        n = 1_000_000
        cloud = cloud_triangulated(mesh, Pseudo(50), n)
        hits_large = int((cloud.triangle_index == 1).sum())
        assert abs(hits_large - 0.75 * n) < 3.0 * binomial_sigma(n, 0.75)

    def test_single_triangle_barycentric_containment(self):
        tri = np.array([(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 2.0, 0.0)])
        cloud = cloud_triangulated(TriangulatedSurface([tri]), Pseudo(51), 20_000)
        u = cloud.positions[:, 0] / 2.0
        v = cloud.positions[:, 1] / 2.0
        assert (u >= 0).all() and (v >= 0).all() and (u + v <= 1.0 + 1e-12).all()

    def test_tetrahedron_face_counts(self):
        mesh = tetrahedron_mesh()
        n = 400_000
        cloud = cloud_triangulated(mesh, Pseudo(52), n)
        fractions = mesh.areas / mesh.total_area
        for face in range(4):
            count = int((cloud.triangle_index == face).sum())
            assert abs(count - n * fractions[face]) < 3.0 * binomial_sigma(n, fractions[face])

    def test_normals_match_faces(self):
        mesh = tetrahedron_mesh()
        cloud = cloud_triangulated(mesh, Pseudo(53), 1000)
        from croftoncloud.surfaces import triangle_normal

        expected = triangle_normal(mesh.triangles)[cloud.triangle_index]
        assert np.array_equal(cloud.normals, expected)

    def test_zero_area_surface_rejected(self):
        degenerate = TriangulatedSurface([[(0, 0, 0), (1, 1, 1), (2, 2, 2)]])
        with pytest.raises(ValueError):
            cloud_triangulated(degenerate, Pseudo(54), 10)

    def test_determinism(self):
        mesh = tetrahedron_mesh()
        a = cloud_triangulated(mesh, Pseudo(55), 5000)
        b = cloud_triangulated(mesh, Pseudo(55), 5000)
        assert np.array_equal(a.positions, b.positions)


class TestCloudParametric:
    def test_plane_patch_matches_triangulated_bitwise(self):
        surface = plane_patch_chart(side=1.0, u_res=4, v_res=4)
        mesh, _ = triangulate_parametric(surface)
        a = cloud_parametric(surface, Pseudo(60), 20_000)
        b = cloud_triangulated(mesh, Pseudo(60), 20_000)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.triangle_index, b.triangle_index)

    def test_sphere_points_exactly_on_surface(self):
        surface = sphere_chart(u_res=64, v_res=64)
        cloud = cloud_parametric(surface, Pseudo(61), 50_000)
        radii = np.linalg.norm(cloud.positions, axis=1)
        assert np.abs(radii - 1.0).max() < 1e-12

    def test_sphere_cap_fraction(self):
        surface = sphere_chart(u_res=256, v_res=256)
        n = 100_000
        cloud = cloud_parametric(surface, Pseudo(62), n)
        count = int((cloud.positions[:, 2] > 0.5).sum())
        # proxy-weight bias is O(res^-2), far below the binomial band
        assert abs(count - 0.25 * n) < 3.0 * binomial_sigma(n, 0.25)

    def test_normals_radial_on_sphere(self):
        surface = sphere_chart(u_res=64, v_res=64)
        cloud = cloud_parametric(surface, Pseudo(63), 2000)
        radial = cloud.positions
        align = np.abs((cloud.normals * radial).sum(axis=1))
        assert align.min() > 1.0 - 1e-6


class TestCloudAxisAligned:
    def test_directions_are_signed_axes(self):
        surface = sphere_implicit(clip=2.0)
        cloud = cloud_axis_aligned(surface, Pseudo(70), 20_000)
        assert len(cloud) >= 20_000
        assert np.abs(surface.field(cloud.positions)).max() < 1e-6

    def test_plane_face_uniform(self):
        # on the z = 0 disk only the e3 family hits transversally; the hit
        # density over the disk stays uniform (quadrant counts binomial)
        surface = plane_implicit(clip=2.0)
        cloud = cloud_axis_aligned(surface, Pseudo(71), 40_000)
        pts = cloud.positions
        n = len(cloud)
        for sx in (1, -1):
            for sy in (1, -1):
                count = int(((sx * pts[:, 0] > 0) & (sy * pts[:, 1] > 0)).sum())
                assert abs(count - n / 4) < 3.0 * binomial_sigma(n, 0.25)

    def test_determinism(self):
        surface = sphere_implicit(clip=2.0)
        a = cloud_axis_aligned(surface, Pseudo(72), 3000)
        b = cloud_axis_aligned(surface, Pseudo(72), 3000)
        assert np.array_equal(a.positions, b.positions)
