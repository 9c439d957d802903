import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from croftoncloud import crofton, surfaces
from croftoncloud.crofton import (
    _bvh_pairs,
    _mesh_hits,
    _pair_hits,
    estimate_area,
    estimate_double_integral,
    estimate_surface_integral,
)
from croftoncloud.geometry import sample_line_batch
from croftoncloud.rng import Pseudo, unit_ball_volume
from croftoncloud.samplers import _chord_half_lengths, cloud_parametric, cloud_triangulated
from croftoncloud.surfaces import (
    ImplicitSurface,
    TriangulatedSurface,
    plane_implicit,
    plane_patch_chart,
    sphere_chart,
    sphere_implicit,
    tetrahedron_mesh,
    torus_chart,
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

    def test_explicit_clip_cuts_mesh(self):
        # the torus chart (R = 2, r = 0.5) inside the ball of radius 2 is the
        # inner band cos v <= -1/8 of the tube; one call warns once
        truth = math.pi * (4.0 * math.acos(0.125) - math.sqrt(63.0) / 8.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = estimate_area(torus_chart(), Pseudo(1), 5000, clip_radius=2.0)
        assert [str(w.message) for w in caught] == ["clip radius may truncate surface"]
        assert abs(est.value - truth) < 3.0 * est.standard_error

    def test_explicit_clip_inside_sphere_chart_sees_nothing(self):
        mesh, _ = triangulate_parametric(sphere_chart())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = estimate_area(mesh, Pseudo(1), 5000, clip_radius=0.5)
        assert [str(w.message) for w in caught] == ["clip radius may truncate surface"]
        assert est.hit_histogram == {0: 5000}
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

    def test_nonfinite_integrand_names_its_point(self):
        # x^0.5 is nan on the sphere's x < 0 half; the error names the first such hit, and no warning leaks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=r"integrand not finite at \(x, y, z\) = \(-.*: nan$"):
                estimate_surface_integral(sphere_implicit(clip=2.0), lambda p: p[:, 0] ** 0.5, Pseudo(24), 1000)


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

    def test_nonfinite_integrand_names_both_points(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=r"integrand not finite at .*\) and \(.*: inf"):
                estimate_double_integral(sphere_implicit(clip=2.0), lambda p, q: 1.0 / (p - p)[:, 0], Pseudo(33), 1000)


def _double_integral_oracle(surface, fn2, seed, line_pairs):
    """``(estimate, counts)``: the double integral by a naive loop over each pair's hits, on the estimator's lines."""
    hits, clip, _, _ = crofton._resolve(surface, None)
    dirs, feet = sample_line_batch(Pseudo(seed), 3, clip, 2 * line_pairs)
    counts, line_ids, ts, _, _ = hits(dirs, feet, True)
    points = feet[line_ids] + ts[:, None] * dirs[line_ids]
    stat = np.zeros(line_pairs)
    for j in range(line_pairs):
        total = 0.0
        for p in points[line_ids == 2 * j]:
            for q in points[line_ids == 2 * j + 1]:
                total += fn2(p[None], q[None])[0]
        stat[j] = total
    return crofton._finish(stat, crofton._normalization(3, clip) ** 2, counts), counts


class TestDoubleIntegralOracle:
    # products and sums only, so one point pair gives the same bits alone as in a batch
    @staticmethod
    def fn2(p, q):
        return p[:, 0] * q[:, 1] - p[:, 2] * q[:, 2] + 1.0

    @pytest.mark.parametrize(
        "make, seed, pairs",
        [(sphere_implicit, 7, 2000), (tetrahedron_mesh, 8, 2000), (lambda: sphere_implicit(0.5, 2.0), 14, 1)]
        + [(lambda: sphere_implicit(0.5, 2.0), 18, 1)],
        ids=["sphere", "tetrahedron", "first-line-only", "second-line-only"],
    )
    def test_matches_naive_pair_loop(self, make, seed, pairs):
        want, counts = _double_integral_oracle(make(), self.fn2, seed, pairs)
        calls = []

        def fn2(p, q):
            calls.append(len(p))
            return self.fn2(p, q)

        got = estimate_double_integral(make(), fn2, Pseudo(seed), pairs)
        assert got.value.hex() == want.value.hex()
        assert got.standard_error.hex() == want.standard_error.hex()
        assert got.hit_histogram == want.hit_histogram
        both = counts[0::2] * counts[1::2]
        if pairs == 1:
            # one line of the pair hits and the other misses: the integrand is never called
            assert counts.sum() > 0 and not both.any() and calls == [] and got.value == 0.0
        else:
            # a closed convex surface: every line hits twice or not at all; one call takes every combination
            assert set(counts.tolist()) == {0, 2} and both.any() and calls == [int(both.sum())]


class TestMeshIntersections:
    def test_shared_edge_counted_once(self):
        mesh, _ = triangulate_parametric(plane_patch_chart(side=1.0))
        # the two triangles share the diagonal from (-.5,-.5) to (.5,.5);
        # a vertical line through a diagonal point crosses both, one hit
        dirs = np.array([[0.0, 0.0, 1.0]])
        feet = np.array([[0.1, 0.1, 0.0]])
        counts, _, ts, _, _ = _mesh_hits(mesh, dirs, feet, 1.0)
        assert counts.tolist() == [1]
        assert abs(ts[0]) < 1e-12

    def test_interior_hit_counted_once_per_triangle(self):
        mesh, _ = triangulate_parametric(plane_patch_chart(side=1.0))
        dirs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        feet = np.array([[0.3, -0.2, 0.0], [-0.3, 0.2, 0.0]])
        counts, _, _, _, _ = _mesh_hits(mesh, dirs, feet, 1.0)
        assert counts.tolist() == [1, 1]

    def test_oblique_against_plane_formula(self):
        mesh, _ = triangulate_parametric(plane_patch_chart(side=1.0))
        d = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        q = np.array([0.2, -0.1, 0.0])
        foot = q - (q @ d) * d
        counts, _, ts, _, _ = _mesh_hits(mesh, d[None], foot[None], 1.0)
        assert counts.tolist() == [1]
        assert np.allclose(foot + ts[0] * d, q, atol=1e-12)

    def test_degenerate_triangles_leak_no_warnings(self):
        # the sphere chart's pole rows triangulate to zero-area triangles
        mesh, _ = triangulate_parametric(sphere_chart())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_area(mesh, Pseudo(4), 500)
        assert est.lines_used == 500


def _soup(n):
    """n random triangles in the cube [-1, 1]^3, one of them degenerate when n > 1."""
    tris = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 3, 3))
    if n > 1:
        tris[-1, 2] = tris[-1, 1]
    return TriangulatedSurface(tris, name=f"soup-{n}")


def _probe_lines(mesh, seed, count):
    """Random lines and lines that stress the BVH walk, all in foot form.

    Besides *count* random lines: lines in random directions through mesh
    vertices and edge midpoints (the EDGE_DEDUP_TOL path); axis-parallel
    lines through vertices; and axis-parallel lines whose foot lies on a
    face of a leaf box that the line runs along (0 * inf in the slab test).
    Negative axis directions carry -0.0 components.
    """
    clip = mesh.bounding_radius() * (1.0 + 1e-6)
    rand_dirs, rand_feet = sample_line_batch(Pseudo(seed), 3, clip, count)
    rng = np.random.default_rng(seed)
    tris = mesh.triangles
    pick, corner = rng.integers(len(tris), size=count), rng.integers(3, size=count)
    vertices = tris[pick, corner]
    midpoints = 0.5 * (tris[pick, corner] + tris[pick, (corner + 1) % 3])
    axis = rng.integers(3, size=count)
    axis_dirs = np.eye(3)[axis] * rng.choice([-1.0, 1.0], size=(count, 1))
    lo, hi, leaves = mesh.bvh
    leaf = len(lo) // 2 + rng.integers(len(leaves), size=count)
    # the foot: 0 along the line, on the lo or hi face across it, mid-box on the third axis
    rows = np.arange(count)
    across, third = (axis + 1) % 3, (axis + 2) % 3
    face_feet = np.zeros((count, 3))
    face_feet[rows, across] = np.where(rng.integers(2, size=count) == 1, hi[leaf, across], lo[leaf, across])
    face_feet[rows, third] = 0.5 * (lo[leaf, third] + hi[leaf, third])
    unit = sample_line_batch(Pseudo(seed + 1), 3, 1.0, 2 * count)[0]
    points = np.concatenate([vertices, midpoints, vertices])
    dirs = np.concatenate([unit, axis_dirs])
    feet = points - (points * dirs).sum(axis=1, keepdims=True) * dirs
    return np.concatenate([rand_dirs, dirs, axis_dirs]), np.concatenate([rand_feet, feet, face_feet])


def _assert_matches_full_product(mesh, dirs, feet, clip):
    """The BVH path equals the pair kernel fed every (line, triangle) pair, bit for bit."""
    hits = 0
    block = max(1, 200_000 // len(mesh))
    for start in range(0, len(dirs), block):
        d, f = dirs[start : start + block], feet[start : start + block]
        line_ids, tri_ids = np.divmod(np.arange(len(d) * len(mesh)), len(mesh))
        counts, ids, ts, boundary, _ = _mesh_hits(mesh, d, f, clip)
        want_counts, want_ids, want_ts, want_boundary, _ = _pair_hits(mesh.edge_table, d, f, clip, line_ids, tri_ids)
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(ids, want_ids)
        assert ts.tobytes() == want_ts.tobytes()
        assert boundary == want_boundary
        hits += len(ts)
    return hits


# (mesh factory, probe line count): each call builds a fresh mesh, whose BVH is not built yet
_ORACLE_MESHES = {
    "torus": (lambda: triangulate_parametric(torus_chart(u_res=51, v_res=101))[0], 100),
    "plane": (lambda: triangulate_parametric(plane_patch_chart(side=1.0, u_res=21, v_res=21))[0], 200),
    "soup-1": (lambda: _soup(1), 300),
    "soup-3": (lambda: _soup(3), 300),
    "soup-7": (lambda: _soup(7), 300),
    "soup-1001": (lambda: _soup(1001), 200),
}


class TestBVHOracle:
    @pytest.mark.parametrize("shrink", [1.0 + 1e-6, 0.6])
    @pytest.mark.parametrize("make, lines", list(_ORACLE_MESHES.values()), ids=list(_ORACLE_MESHES))
    def test_matches_full_product(self, make, lines, shrink):
        mesh = make()
        dirs, feet = _probe_lines(mesh, len(mesh), lines)
        assert _assert_matches_full_product(mesh, dirs, feet, shrink * mesh.bounding_radius()) > 0

    @pytest.mark.parametrize("leaf", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("name", ["torus", "plane", "soup-7", "soup-1001"])
    def test_leaf_size_changes_no_bit(self, name, leaf, monkeypatch):
        # the leaf size only trades slab tests for pair tests; the hits stay the full product's
        monkeypatch.setattr(surfaces, "BVH_LEAF", leaf)
        make, lines = _ORACLE_MESHES[name]
        mesh = make()
        dirs, feet = _probe_lines(mesh, len(mesh), lines // 4)
        assert mesh.bvh[2].shape[1] == leaf
        assert _assert_matches_full_product(mesh, dirs, feet, mesh.bounding_radius() * (1.0 + 1e-6)) > 0

    def test_sphere_chart_matches_full_product(self):
        # zero-area pole triangles; any numpy warning fails
        mesh, _ = triangulate_parametric(sphere_chart())
        dirs, feet = _probe_lines(mesh, 5, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _assert_matches_full_product(mesh, dirs, feet, mesh.bounding_radius() * (1.0 + 1e-6)) > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex(self, bad):
        # malformed input: the triangle with the bad vertex never hits, and nothing warns
        tris = tetrahedron_mesh().triangles.copy()
        tris[0, 0, 0] = bad
        dirs, feet = sample_line_batch(Pseudo(9), 3, 2.0, 300)
        assert _assert_matches_full_product(TriangulatedSurface(tris), dirs, feet, 2.0) > 0

    def test_padding_leaves_never_pass(self):
        # 126 leaves in a 128-leaf tree: a padding leaf passing the slab test
        # would index past the leaf table, so the walk would raise
        mesh = _soup(1001)
        lo, _, leaves = mesh.bvh
        assert len(leaves) < len(lo) // 2
        dirs, feet = _probe_lines(mesh, 17, 400)
        line_ids, tri_ids = _bvh_pairs(mesh.bvh, dirs, feet, _chord_half_lengths(feet, 2.0))
        assert len(line_ids) == len(tri_ids) > 0
        assert (tri_ids >= 0).all()

    def test_line_on_a_box_face_stays_a_candidate(self):
        # a line along axis k with its foot on the lo or hi face across axis j
        # gives 0 * inf = nan on axis j; that axis must not rule the box out
        mesh, _ = triangulate_parametric(torus_chart(u_res=21, v_res=41))
        lo, hi, leaves = mesh.bvh
        size = len(lo) // 2
        for leaf in range(0, len(leaves), 7):
            box = size + leaf
            for k in range(3):
                j, i = (k + 1) % 3, (k + 2) % 3
                for face in (lo[box, j], hi[box, j]):
                    for sign in (1.0, -1.0):
                        foot = np.zeros(3)
                        foot[j], foot[i] = face, 0.5 * (lo[box, i] + hi[box, i])
                        dirs = sign * np.eye(3)[k][None]
                        _, tri_ids = _bvh_pairs(mesh.bvh, dirs, foot[None], np.array([np.inf]))
                        assert set(leaves[leaf][leaves[leaf] >= 0]) <= set(tri_ids)

    def test_walk_tests_few_pairs(self):
        # a work count, not a time: on the benchmark's 10,000-triangle torus mesh
        # these lines meet 40 candidate triangles each at 4-triangle leaves (88 at 8)
        mesh, _ = triangulate_parametric(torus_chart(u_res=51, v_res=101))
        clip = mesh.bounding_radius() * (1.0 + 1e-6)
        dirs, feet = sample_line_batch(Pseudo(3), 3, clip, 400)
        line_ids, _ = _bvh_pairs(mesh.bvh, dirs, feet, _chord_half_lengths(feet, clip))
        assert len(line_ids) <= 48 * 400


class TestBVHBuild:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = surfaces._build_bvh

        def counting(tris):
            calls.append(len(tris))
            return build(tris)

        monkeypatch.setattr(surfaces, "_build_bvh", counting)
        return calls

    def test_samplers_never_build(self, builds):
        chart = torus_chart(u_res=21, v_res=41)
        mesh, _ = triangulate_parametric(chart)
        assert mesh.total_area > 0.0
        cloud_triangulated(mesh, Pseudo(1), 2000)
        cloud_parametric(chart, Pseudo(2), 2000)
        assert builds == []

    def test_one_build_per_mesh(self, builds):
        # 2,000,000 // 10,000 = 200 lines per chunk, so every call spans several chunks
        mesh, _ = triangulate_parametric(torus_chart(u_res=51, v_res=101))
        estimate_area(mesh, Pseudo(1), 500)
        estimate_area(mesh, Pseudo(2), 500)
        estimate_surface_integral(mesh, lambda p: p[:, 2] ** 2, Pseudo(3), 500)
        estimate_double_integral(mesh, lambda p, q: np.ones(len(p)), Pseudo(4), 250)
        assert builds == [10_000]
        assert mesh.bvh is mesh.bvh

    def test_one_triangulation_per_chart(self, builds, monkeypatch):
        grids = []
        triangulate = surfaces._triangulate_grid

        def counting(surface):
            grids.append(surface.name)
            return triangulate(surface)

        monkeypatch.setattr(surfaces, "_triangulate_grid", counting)
        chart = torus_chart(u_res=21, v_res=41)
        cloud_parametric(chart, Pseudo(1), 2000)
        estimate_area(chart, Pseudo(2), 500)
        estimate_surface_integral(chart, lambda p: p[:, 2] ** 2, Pseudo(3), 500)
        assert grids == ["torus"] and builds == [1600]


class TestDirectionalJacobianConstant:
    def test_absolute_cosine_integral_over_sphere(self):
        # integral over the unit sphere of |cos(angle to a fixed axis)|
        # equals twice the unit disk area; quadrature oracle in the polar angle
        value, err = quad(lambda t: abs(math.cos(t)) * 2.0 * math.pi * math.sin(t), 0.0, math.pi)
        assert err < 1e-9
        assert value == pytest.approx(2.0 * unit_ball_volume(2), rel=1e-10)
