import math
import warnings

import numpy as np
import pytest

from croftoncloud.rng import Pseudo, VanDerCorput, VanDerCorputRearranged
from croftoncloud.samplers import cloud_triangulated
from croftoncloud.stats import (
    RegionTest,
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
from croftoncloud.surfaces import TriangulatedSurface, corner_pyramid_mesh, tetrahedron_mesh


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
