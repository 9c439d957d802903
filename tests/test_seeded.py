"""Pinned seeded output, and its independence from chunk sizes.

A change that alters what a seed draws fails here until the pins are
updated on purpose.  Integers are pinned exactly.  Floats are pinned to
1e-12, not hashed, because log, cos and sin may differ in the last bit from
one CPU to another.
"""

import numpy as np
import pytest

from croftoncloud import samplers
from croftoncloud.crofton import estimate_area, estimate_surface_integral
from croftoncloud.geometry import sample_line_batch
from croftoncloud.rng import Pseudo, standard_normals
from croftoncloud.samplers import cloud_implicit, cloud_triangulated
from croftoncloud.surfaces import ImplicitSurface, torus_chart, torus_implicit, triangulate_parametric


@pytest.fixture(scope="module")
def torus_mesh():
    # the benchmark's 10,000-triangle torus mesh
    return triangulate_parametric(torus_chart(u_res=51, v_res=101))[0]


class TestPinnedIntegers:
    def test_implicit_torus_area_histogram(self):
        assert estimate_area(torus_implicit(), Pseudo(1), 2000).hit_histogram == {0: 1333, 2: 636, 4: 31}

    def test_torus_mesh_area_histogram(self, torus_mesh):
        assert estimate_area(torus_mesh, Pseudo(2), 400).hit_histogram == {0: 208, 2: 181, 4: 11}

    def test_cloud_implicit_lines_used(self):
        cloud = cloud_implicit(torus_implicit(), Pseudo(3), 2000)
        assert (cloud.lines_used, len(cloud)) == (2817, 2000)

    def test_cloud_triangulated_triangle_index(self, torus_mesh):
        chosen = cloud_triangulated(torus_mesh, Pseudo(4), 10).triangle_index
        assert chosen.tolist() == [4102, 9130, 8853, 4890, 3647, 6124, 9361, 4324, 1497, 5498]


class TestPinnedFloats:
    def test_first_lines(self):
        dirs, feet = sample_line_batch(Pseudo(5), 3, 2.0, 2)
        expected_dirs = [
            [0.010222391356908514, -0.7051664477815884, 0.7089681118626157],
            [-0.6901789577943517, 0.3437724635954935, -0.6367680107318424],
        ]
        expected_feet = [
            [-1.4467663954626744, 0.9536350557721658, 0.9693819024521605],
            [0.5328437785886226, -0.7496939448594961, -0.9822756287986292],
        ]
        np.testing.assert_allclose(dirs, expected_dirs, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(feet, expected_feet, rtol=0.0, atol=1e-12)

    def test_first_normals(self):
        expected = [-0.7325897739453221, 0.25693778552813296, 1.8901652393937498, 1.4764394453326888]
        np.testing.assert_allclose(standard_normals(Pseudo(6), 4), expected, rtol=0.0, atol=1e-12)

    def test_unbounded_torus_line_t(self):
        # the torus without a bounding box: every chord is scanned over the whole clip ball
        t = torus_implicit()
        cloud = cloud_implicit(ImplicitSurface(t.field, 3.0, gradient=t.gradient), Pseudo(3), 2000)
        expected = [1.3582358326096808, 2.2407177343836873, 0.16914580601585538, 1.0260849660635423, -1.3774907500828653]
        np.testing.assert_allclose(cloud.line_t[:5], expected, rtol=0.0, atol=1e-12)


def _twice(monkeypatch, run):
    """``run()`` at the default line chunk, then with 1,000-line chunks."""
    first = run()
    monkeypatch.setattr(samplers, "DEFAULT_LINE_CHUNK", 1000)
    return first, run()


class TestChunkIndependence:
    """Chunk sizes bound memory; seeded output must not depend on them."""

    def test_estimate_area(self, monkeypatch):
        a, b = _twice(monkeypatch, lambda: estimate_area(torus_implicit(), Pseudo(7), 3000))
        assert (a.value, a.standard_error, a.hit_histogram) == (b.value, b.standard_error, b.hit_histogram)

    def test_estimate_surface_integral(self, monkeypatch):
        a, b = _twice(
            monkeypatch, lambda: estimate_surface_integral(torus_implicit(), lambda p: p[:, 2] ** 2, Pseudo(8), 3000)
        )
        assert (a.value, a.standard_error, a.hit_histogram) == (b.value, b.standard_error, b.hit_histogram)

    def test_cloud_implicit(self, monkeypatch):
        a, b = _twice(monkeypatch, lambda: cloud_implicit(torus_implicit(), Pseudo(9), 3000))
        assert a.lines_used == b.lines_used > 1000
        for name in ("positions", "normals", "line_index", "line_t", "per_line_counts"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
