"""Pinned seeded output, and its independence from chunk and scan tile sizes.

A change that alters what a seed draws fails here until the pins are
updated on purpose.  Integers are pinned exactly.  Floats are pinned to
1e-12, not hashed, because log, cos and sin may differ in the last bit from
one CPU to another.
"""

from dataclasses import replace

import numpy as np
import pytest

from croftoncloud import rng, samplers
from croftoncloud.crofton import estimate_area, estimate_surface_integral
from croftoncloud.expr import compile_field
from croftoncloud.geometry import sample_line_batch
from croftoncloud.rng import Pseudo
from croftoncloud.samplers import cloud_implicit, cloud_triangulated
from croftoncloud.surfaces import (
    ImplicitSurface,
    corner_pyramid_implicit,
    plane_implicit,
    sphere_implicit,
    torus_chart,
    torus_implicit,
    triangulate_parametric,
)

from conftest import TORUS_EXPR


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
        # the Box-Muller normals under sample_sphere and sample_line_batch: scalars 2k, 2k + 1 give normals 2k, 2k + 1
        normals = rng._gaussian_pairs(Pseudo(6).take(4).reshape(2, 2)).ravel()
        np.testing.assert_allclose(normals, expected, rtol=0.0, atol=1e-12)

    def test_unbounded_torus_line_t(self):
        # the torus without a bounding box: every chord is scanned over the whole clip ball; Illinois refinement
        # moved these by at most 1.3e-10 from bisection's, within 2 ROOT_TOL
        t = torus_implicit()
        cloud = cloud_implicit(ImplicitSurface(t.field, 3.0, gradient=t.gradient), Pseudo(3), 2000)
        expected = [1.3582358325107207, 2.2407177345062435, 0.16914580593660086, 1.0260849660583462, -1.3774907501202986]
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


def _sum_of_squares(p):
    # reduces over the last axis, which the scan passes strided
    return (p * p).sum(axis=-1) - 1.0


TILED_SURFACES = {
    "sphere": sphere_implicit,
    "torus": torus_implicit,
    "torus-unboxed": lambda: replace(torus_implicit(), bounds=None),
    "torus-expr": lambda: ImplicitSurface(compile_field(TORUS_EXPR), 3.0),
    "pyramid": corner_pyramid_implicit,
    "sum-of-squares": lambda: ImplicitSurface(_sum_of_squares, 2.0),
}
#: one row per tile, and one tile holding a whole chunk, every row widened to the widest run
TILES = {"row": 1, "group": samplers.DEFAULT_LINE_CHUNK * (samplers.SCAN_STEPS + 1)}


def _scans(surface, dirs, feet):
    return [samplers._scan_lines(surface, dirs, feet, want_points) for want_points in (False, True)]


def _assert_same_scans(a, b):
    for (counts, ids, ts, boundary), (counts_b, ids_b, ts_b, boundary_b) in zip(a, b):
        assert np.array_equal(counts, counts_b) and boundary == boundary_b
        assert (ids is None and ids_b is None) or (np.array_equal(ids, ids_b) and ts.tobytes() == ts_b.tobytes())


def _tiled(monkeypatch, tile, run):
    """``run()`` at the default tile, then with SCAN_TILE set to *tile*."""
    first = run()
    monkeypatch.setattr(samplers, "SCAN_TILE", tile)
    return first, run()


class TestTileIndependence:
    """Tiles bound the scan's memory; every count, bracket, t and hit must be bit-identical whatever their size."""

    @pytest.mark.parametrize("tile", TILES.values(), ids=TILES.keys())
    @pytest.mark.parametrize("name", TILED_SURFACES)
    def test_scan_lines(self, monkeypatch, name, tile):
        surface = TILED_SURFACES[name]()
        dirs, feet = sample_line_batch(Pseudo(14), 3, surface.clip_radius, 1500)
        a, b = _tiled(monkeypatch, tile, lambda: _scans(surface, dirs, feet))
        assert a[0][0].sum() > 100
        _assert_same_scans(a, b)

    @pytest.mark.parametrize("tile", TILES.values(), ids=TILES.keys())
    @pytest.mark.parametrize("name", TILED_SURFACES)
    def test_cloud_and_estimates(self, monkeypatch, name, tile):
        surface = TILED_SURFACES[name]()

        def run():
            cloud = cloud_implicit(surface, Pseudo(15), 1000)
            area = estimate_area(surface, Pseudo(16), 1500)
            z2 = estimate_surface_integral(surface, lambda p: p[:, 2] ** 2, Pseudo(17), 1500)
            return cloud, [(e.value, e.standard_error, e.hit_histogram) for e in (area, z2)]

        (a, a_est), (b, b_est) = _tiled(monkeypatch, tile, run)
        assert a.lines_used == b.lines_used and a_est == b_est
        for field in ("positions", "normals", "line_index", "line_t", "per_line_counts"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field

    @pytest.mark.parametrize("tile", TILES.values(), ids=TILES.keys())
    def test_plane_exact_zero_node(self, monkeypatch, tile):
        # the line of the exact-grid-zero test first, then lines that cross the plane between nodes
        surface = plane_implicit()
        dirs, feet = sample_line_batch(Pseudo(18), 3, surface.clip_radius, 200)
        dirs, feet = np.vstack([[0.0, 0.0, 1.0], dirs]), np.vstack([[0.3, 0.4, 0.0], feet])
        a, b = _tiled(monkeypatch, tile, lambda: _scans(surface, dirs, feet))
        counts, ids, ts, _ = a[1]
        assert counts[0] == 1 and ids[0] == 0 and ts[0] == 0.0
        _assert_same_scans(a, b)

    @pytest.mark.parametrize("tile, rows", [(1, 1), (samplers.SCAN_STEPS + 1, 1), (10 * (samplers.SCAN_STEPS + 1), 10)])
    def test_tile_rows(self, monkeypatch, tile, rows):
        # a tile holds whole rows, at least one, and at most SCAN_TILE nodes
        monkeypatch.setattr(samplers, "SCAN_TILE", tile)
        shapes = []
        field_on_grid = samplers._field_on_grid

        def recorded(surface, dirs, feet, t_grid):
            shapes.append(t_grid.shape)
            return field_on_grid(surface, dirs, feet, t_grid)

        monkeypatch.setattr(samplers, "_field_on_grid", recorded)
        surface = TILED_SURFACES["torus-unboxed"]()
        dirs, feet = sample_line_batch(Pseudo(19), 3, surface.clip_radius, 25)
        samplers._scan_lines(surface, dirs, feet, want_points=False)
        assert [r for r, _ in shapes] == [rows] * (25 // rows) + ([25 % rows] if 25 % rows else [])
        assert {n for _, n in shapes} == {samplers.SCAN_STEPS + 1}

    @pytest.mark.parametrize("tile", [1000, samplers.SCAN_TILE])
    @pytest.mark.parametrize("name", ["sphere", "torus", "pyramid"])
    def test_boxed_tiles_hold_runs_of_ball_nodes(self, monkeypatch, name, tile):
        # a boxed tile holds at most SCAN_TILE nodes or one row, and each row is a run of its ball chord's nodes
        monkeypatch.setattr(samplers, "SCAN_TILE", tile)
        grids = []
        field_on_grid = samplers._field_on_grid

        def recorded(surface, dirs, feet, t_grid):
            grids.append((feet, t_grid))
            return field_on_grid(surface, dirs, feet, t_grid)

        monkeypatch.setattr(samplers, "_field_on_grid", recorded)
        surface = TILED_SURFACES[name]()
        if name == "sphere":  # the compiled sphere's polynomial picks its cells; behind a plain callable a box does
            field = surface.field
            surface = replace(surface, field=lambda p: field(p), bounds=([-1.0 - 1e-8] * 3, [1.0 + 1e-8] * 3))
        assert surface.bounds is not None
        dirs, feet = sample_line_batch(Pseudo(23), 3, surface.clip_radius, 1500)
        samplers._scan_lines(surface, dirs, feet, want_points=False)
        nodes = np.linspace(-1.0, 1.0, samplers.SCAN_STEPS + 1)
        widths = set()
        for tile_feet, t_grid in grids:
            rows, width = t_grid.shape
            assert rows * width <= tile or rows == 1
            widths.add(width)
            half = samplers._chord_half_lengths(tile_feet, surface.clip_radius)
            first = np.rint((t_grid[:, 0] / half + 1.0) * samplers.SCAN_STEPS / 2).astype(int)
            assert ((first >= 0) & (first + width <= len(nodes))).all()
            runs = np.lib.stride_tricks.sliding_window_view(nodes, width)[first]
            assert t_grid.tobytes() == (half[:, None] * runs).tobytes()
        assert len(widths) > 1

    def test_last_axis_reduction_sees_the_same_values_as_on_a_contiguous_copy(self):
        tiles = []

        def field(p):
            tiles.append(p)
            return _sum_of_squares(p)

        surface = ImplicitSurface(field, 2.0)
        dirs, feet = sample_line_batch(Pseudo(20), 3, surface.clip_radius, 500)
        samplers._scan_lines(surface, dirs, feet, want_points=False)
        grids = [p for p in tiles if p.ndim == 3]
        assert grids and all(p.strides[-1] != p.itemsize for p in grids)
        for p in grids:
            assert _sum_of_squares(p).tobytes() == _sum_of_squares(np.ascontiguousarray(p)).tobytes()
