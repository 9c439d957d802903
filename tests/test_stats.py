import math
import warnings

import numpy as np
import pytest

from croftoncloud.rng import Pseudo, VanDerCorput, VanDerCorputRearranged
from croftoncloud.samplers import cloud_implicit, cloud_triangulated
from croftoncloud.stats import (
    DENSITY_RATIO_GATE,
    DensityResult,
    RegionTest,
    catalog_audit,
    catalog_suite,
    curse_benchmark,
    density_variation,
    ktuple_test,
    loglog_slope,
    mesh_cumulative_scalar,
    mesh_face_region_tests,
    mesh_nearest_face,
    midpoint_rule,
    region_test,
    sphere_region_tests,
    torus_region_tests,
)
from croftoncloud.surfaces import (
    TriangulatedSurface,
    corner_pyramid_mesh,
    sphere_implicit,
    tetrahedron_mesh,
    torus_implicit,
)


def brute_star_discrepancy(values):
    """O(N^2) oracle: scan the empirical CDF against t at every jump."""
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    worst = 0.0
    for t in x:
        below = np.count_nonzero(x < t) / n
        at_or_below = np.count_nonzero(x <= t) / n
        worst = max(worst, abs(below - t), abs(at_or_below - t))
    return worst


class TestRegionTest:
    def test_uniform_source_passes(self):
        values = Pseudo(1).take(1_000_000)
        tests = [RegionTest("low half", lambda v: v < 0.5, 0.5)]
        (result,) = region_test(values, tests)
        assert result.passed
        assert abs(result.z) < 3.0

    def test_constant_sequence_fails(self):
        values = np.full(10_000, 0.3)
        (result,) = region_test(values, [RegionTest("low half", lambda v: v < 0.5, 0.5)])
        assert not result.passed
        assert result.z > 50.0

    def test_van_der_corput_dyadic_counts_exact(self):
        # each dyadic interval receives an exactly proportional share at N = 2^k
        values = VanDerCorput(2).take(2**12)
        tests = [
            RegionTest("half", lambda v: v < 0.5, 0.5),
            RegionTest("quarter", lambda v: (v >= 0.25) & (v < 0.5), 0.25),
            RegionTest("eighth", lambda v: v >= 0.875, 0.125),
        ]
        for result in region_test(values, tests):
            assert abs(result.count - result.total * result.fraction) <= 1.0
            assert abs(result.z) < 0.05

    def test_degenerate_fraction_rejected(self):
        with pytest.raises(ValueError):
            RegionTest("all", lambda v: v < 2.0, 1.0)

    def test_report_formats(self):
        values = Pseudo(2).take(1000)
        (result,) = region_test(values, [RegionTest("half", lambda v: v < 0.5, 0.5)])
        assert "half" in result.line()
        assert result.record()["test"] == "region"


class TestKTupleTest:
    def test_pseudo_pairs_pass(self):
        result = ktuple_test(Pseudo(3).take(1_000_000), k=2, grid=8)
        assert result.passed
        assert result.windows == 999_999

    def test_duplicated_stream_fails(self):
        base = Pseudo(4).take(100_000)
        doubled = np.repeat(base, 2)  # x_{2i} = x_{2i+1}: diagonal mass
        result = ktuple_test(doubled, k=2, grid=8)
        assert not result.passed
        assert result.statistic > 10.0 * result.threshold

    def test_van_der_corput_singletons_pass(self):
        result = ktuple_test(VanDerCorput(2).take(2**16), k=1, grid=16)
        assert result.passed

    def test_budget_enforced(self):
        with pytest.raises(ValueError, match="cell budget"):
            ktuple_test(Pseudo(1).take(100), k=8, grid=8)

    def test_range_validated(self):
        with pytest.raises(ValueError):
            ktuple_test(np.array([0.5, 1.0]), k=1, grid=4)

    def test_nonfinite_values_refused(self):
        # nan passes a min/max range test; it must be refused before the cast to grid digits, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"values must lie in \[0, 1\)"):
                ktuple_test(np.array([0.25, np.nan, 0.75]), k=1, grid=4)


class TestStarDiscrepancy:
    def test_single_point(self):
        assert brute_star_discrepancy(np.array([0.5])) == 0.5

    def test_van_der_corput_low_discrepancy(self):
        for m in (6, 8, 10, 12):
            n = 2**m
            d = brute_star_discrepancy(VanDerCorput(2).take(n))
            assert d <= (m + 2) / n

    def test_rearranged_fails_uniformity(self):
        values = VanDerCorputRearranged().take(2**14)
        worst = max(brute_star_discrepancy(values[:n]) for n in (96, 384, 1536, 6144, 2**14))
        assert worst > 0.05


class TestDensityVariation:
    def test_uniform_labels_near_one(self):
        gen = np.random.default_rng(0)
        labels = gen.integers(0, 4, size=400_000)
        result = density_variation(labels, np.ones(4))
        assert result.ratio < 1.02
        assert result.ratio_stderr < 0.01

    def test_respects_bin_areas(self):
        # twice the count on twice the area is the same density
        labels = np.concatenate([np.zeros(20_000, int), np.ones(40_000, int)])
        result = density_variation(labels, np.array([1.0, 2.0]))
        assert result.ratio == pytest.approx(1.0, abs=0.05)

    def test_empty_bin_raises(self):
        with pytest.raises(ValueError, match="more points"):
            density_variation(np.zeros(100, int), np.ones(2))

    def test_bootstrap_deterministic(self):
        labels = np.random.default_rng(1).integers(0, 3, size=30_000)
        a = density_variation(labels, np.ones(3), seed=7)
        b = density_variation(labels, np.ones(3), seed=7)
        assert a.ratio == b.ratio and a.ratio_stderr == b.ratio_stderr


class TestDensityGate:
    @staticmethod
    def result(ratio, stderr):
        return DensityResult(ratio, stderr, np.array([1.0, ratio]), np.array([10, 20]))

    @pytest.mark.parametrize(
        "ratio, stderr, passed",
        [
            (DENSITY_RATIO_GATE, 0.0, True),
            (math.nextafter(DENSITY_RATIO_GATE, 2.0), 0.0, False),
            (1.25, 0.0625, True),  # 1.25 - 3 * 0.0625 = 1.0625: large, but not solidly so
            (1.25, 0.03125, False),  # 1.25 - 3 * 0.03125 = 1.15625
        ],
    )
    def test_passes_up_to_the_gate(self, ratio, stderr, passed):
        result = self.result(ratio, stderr)
        assert result.passed is passed
        assert result.line().endswith("  [pass]" if passed else "  [FAIL]")
        assert "passed" not in result.record()


def _sphere_labels_oracle(points):
    # one point at a time: the nearest of the six axis and eight diagonal directions, if within cosine 0.95
    s = 1.0 / math.sqrt(3.0)
    centers = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    centers += [(a * s, b * s, c * s) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    labels = []
    for x, y, z in points.tolist():
        norm = math.sqrt(x * x + y * y + z * z)
        cosines = [(x * cx + y * cy + z * cz) / norm for cx, cy, cz in centers]
        best = max(range(len(centers)), key=lambda i: cosines[i])
        labels.append(best if cosines[best] > 0.95 else -1)
    return labels


def _torus_labels_oracle(points):
    # one point at a time: the eighth of the ring angle, counted from +x towards +y
    labels = []
    for x, y, _ in points.tolist():
        turn = (math.atan2(y, x) / (2.0 * math.pi)) % 1.0
        labels.append(min(int(turn * 8), 7))
    return labels


class TestCatalogSuite:
    def test_sphere_caps_match_a_per_point_oracle(self):
        points = cloud_implicit(sphere_implicit(), Pseudo(21), 4_000).positions
        s = 1.0 / math.sqrt(3.0)
        centres = np.array([[0.0, 0.0, -1.0], [s, -s, s], [-s, -s, -s], [0.4, 0.0, 0.9]])
        points = np.vstack([points, centres])
        tests, scalar, labels, areas = catalog_suite("sphere", points)
        assert labels.tolist() == _sphere_labels_oracle(points)
        assert labels[-4:].tolist() == [5, 8, 13, -1]
        assert set(labels.tolist()) == set(range(-1, 14))
        assert areas.tolist() == [1.0] * 14
        assert [t.name for t in tests] == [t.name for t in sphere_region_tests()]
        assert np.array_equal(scalar, (points[:, 2] + 1.0) / 2.0)

    def test_a_sphere_point_at_the_origin_is_unbinned_without_a_warning(self):
        points = cloud_implicit(sphere_implicit(), Pseudo(27), 5_000).positions
        points[0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, labels, _ = catalog_suite("sphere", points)
        assert labels[0] == -1
        assert labels[1:].tolist() == _sphere_labels_oracle(points[1:])

    def test_torus_sectors_match_a_per_point_oracle(self):
        points = cloud_implicit(torus_implicit(), Pseudo(22), 4_000).positions
        # the seam of the ring angle: just below and at zero, and both signs of zero on either side
        seam = np.array(
            [[2.5, -1e-300, 0.0], [2.5, -5e-324, 0.1], [2.5, -0.0, 0.0], [2.5, 0.0, 0.0], [-2.5, 0.0, 0.0], [-2.5, -0.0, 0.0]]
        )
        points = np.vstack([points, seam])
        _, scalar, labels, areas = catalog_suite("torus", points)
        assert labels.tolist() == _torus_labels_oracle(points)
        assert labels[-6:].tolist() == [7, 0, 0, 0, 4, 4]  # atan2 of the subnormal underflows to -0.0
        assert set(labels.tolist()) == set(range(8)) and areas.tolist() == [1.0] * 8
        assert scalar.max() < 1.0

    def test_a_mesh_is_binned_by_its_faces(self):
        mesh = tetrahedron_mesh()
        points = cloud_triangulated(mesh, Pseudo(23), 500).positions
        _, _, labels, areas = catalog_suite("tetrahedron", points)
        assert np.array_equal(labels, mesh_nearest_face(mesh, points)) and np.array_equal(areas, mesh.areas)

    def test_unknown_surface(self):
        with pytest.raises(ValueError, match="no audit suite for surface 'plane'; supported: sphere, torus"):
            catalog_suite("plane", np.ones((10, 3)))


class TestCatalogAudit:
    def test_outcomes_in_order(self):
        points = cloud_triangulated(tetrahedron_mesh(), Pseudo(24), 20_000).positions
        outcomes = catalog_audit("tetrahedron", points)
        assert [record["test"] for _, record, _ in outcomes] == ["region"] * 4 + ["ktuple", "density"]
        assert all(passed for _, _, passed in outcomes)
        assert all(line.endswith("  [pass]") for line, _, _ in outcomes)

    def test_too_few_points_per_bin_skip_the_density_test(self):
        # 14 caps that hold about a third of the points: 100 expected per cap needs about 4,200 points
        points = cloud_implicit(sphere_implicit(), Pseudo(25), 2_000).positions
        line = "density: skipped (fewer than 100 expected points per bin; generate more points)"
        assert catalog_audit("sphere", points)[-1] == (line, None, True)

    def test_an_empty_bin_fails(self):
        points = cloud_implicit(sphere_implicit(), Pseudo(26), 20_000).positions
        line, record, passed = catalog_audit("sphere", points[points[:, 2] > -0.5])[-1]
        assert line.startswith("density: FAIL (empty density bins") and record is None and not passed


class TestCurseBenchmark:
    @staticmethod
    def integrand(pts):
        return np.cos(pts).prod(axis=-1)

    def test_constant_integrand_exact(self):
        rows = curse_benchmark(lambda p: np.full(len(p), 2.5), 3, 2.5, budgets=(100, 1000), n_seeds=4)
        assert all(row.error < 1e-12 for row in rows)

    def test_midpoint_second_order(self):
        truth = math.sin(1.0) ** 6
        err4 = abs(midpoint_rule(self.integrand, 6, 4) - truth)
        err8 = abs(midpoint_rule(self.integrand, 6, 8) - truth)
        assert err4 / err8 == pytest.approx(4.0, rel=0.05)

    def test_mc_unbiased(self):
        from croftoncloud.stats import monte_carlo_prefix_estimates

        truth = math.sin(1.0) ** 2
        signed = np.array(
            [monte_carlo_prefix_estimates(self.integrand, 2, [4096], Pseudo(seed))[0] - truth for seed in range(64)]
        )
        se = signed.std(ddof=1) / math.sqrt(len(signed))
        assert abs(signed.mean()) < 3.0 * se

    def test_mc_error_scaling_short(self):
        truth = math.sin(1.0) ** 4
        rows = curse_benchmark(self.integrand, 4, truth, budgets=(100, 1000, 10_000, 100_000), n_seeds=16)
        slope = loglog_slope([(r.evaluations, r.error) for r in rows if r.method == "mc"])
        assert -0.75 < slope < -0.25

    def test_riemann_budget_rounding(self):
        rows = curse_benchmark(self.integrand, 3, math.sin(1.0) ** 3, budgets=(100,), n_seeds=2)
        (row,) = [r for r in rows if r.method == "riemann"]
        assert row.evaluations == 4**3  # largest k with k^3 <= 100

    def test_table_formats(self):
        rows = curse_benchmark(self.integrand, 2, math.sin(1.0) ** 2, budgets=(100,), n_seeds=2)
        assert [row.method for row in rows] == ["mc", "riemann"]
        assert rows[0].record()["method"] == "mc"

    @pytest.mark.parametrize("budgets, seeds", [((), 2), ((0, 100), 2), ((100,), 0)], ids=["empty", "zero", "no-seeds"])
    def test_bad_input_is_refused(self, budgets, seeds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="need budgets of at least 1 and at least one seed"):
                curse_benchmark(self.integrand, 2, 0.0, budgets=budgets, n_seeds=seeds)


class TestSurfaceSuites:
    def test_sphere_suite_fractions_sum(self):
        tests = sphere_region_tests()
        octants = [t for t in tests if t.name.startswith("octant")]
        assert len(octants) == 8
        assert sum(t.fraction for t in octants) == pytest.approx(1.0)

    def test_torus_outer_fraction(self):
        tests = torus_region_tests(2.0, 0.5)
        outer = next(t for t in tests if "outer" in t.name)
        assert outer.fraction == pytest.approx(0.5 + 0.5 / (2.0 * math.pi), rel=1e-12)

    def test_mesh_scalar_uniform(self):
        mesh = tetrahedron_mesh()
        cloud = cloud_triangulated(mesh, Pseudo(8), 200_000)
        scalar = mesh_cumulative_scalar(cloud.positions, cloud.triangle_index, mesh)
        assert scalar.min() >= 0.0 and scalar.max() < 1.0
        result = ktuple_test(scalar, k=1, grid=16)
        assert result.passed, result.statistic

    def test_mesh_face_regions_cover(self):
        tests = mesh_face_region_tests(tetrahedron_mesh())
        assert len(tests) == 4
        assert sum(t.fraction for t in tests) == pytest.approx(1.0)

    @pytest.mark.parametrize("build", [tetrahedron_mesh, corner_pyramid_mesh])
    def test_nearest_face_is_the_sampled_triangle(self, build):
        mesh = build()
        cloud = cloud_triangulated(mesh, Pseudo(12), 5_000)
        assert np.array_equal(mesh_nearest_face(mesh, cloud.positions), cloud.triangle_index)

    def test_degenerate_triangle_is_never_nearest(self):
        # its nan normal once made argmin pick it for every point
        mesh = TriangulatedSurface([[(0, 0, 0), (1, 1, 1), (2, 2, 2)], [(0, 0, 0), (1, 0, 0), (0, 1, 0)]])
        cloud = cloud_triangulated(mesh, Pseudo(14), 50)
        assert (cloud.triangle_index == 1).all()
        assert (mesh_nearest_face(mesh, cloud.positions) == 1).all()

    def test_face_regions_use_the_nearest_face(self):
        mesh = corner_pyramid_mesh()
        points = cloud_triangulated(mesh, Pseudo(13), 1_000).positions
        labels = mesh_nearest_face(mesh, points)
        tests = mesh_face_region_tests(mesh)
        assert [test.name for test in tests] == [f"face {i}" for i in range(4)]
        for i, test in enumerate(tests):
            assert np.array_equal(test.indicator(points), labels == i)
