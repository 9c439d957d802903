import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from croftoncloud import samplers
from croftoncloud.crofton import estimate_area, estimate_surface_integral
from croftoncloud.expr import compile_field
from croftoncloud.geometry import sample_line_batch
from croftoncloud.rng import Pseudo
from croftoncloud.samplers import (
    SurfaceNotFound,
    cloud_axis_aligned,
    cloud_implicit,
    cloud_parametric,
    cloud_triangulated,
)
from croftoncloud.surfaces import (
    CATALOG,
    ImplicitSurface,
    TriangulatedSurface,
    corner_pyramid_mesh,
    plane_implicit,
    plane_patch_chart,
    sphere_chart,
    sphere_implicit,
    tetrahedron_mesh,
    torus_chart,
    torus_implicit,
    triangulate_parametric,
)

from conftest import TORUS_EXPR, ScriptedSource, binomial_sigma, plain


IMPLICIT = [name for name, entry in CATALOG.items() if entry.implicit]


def _one_line(surface, direction, through):
    """Hits of the single line with unit *direction* through *through*: ``(ts, points)``."""
    d = np.array([direction], dtype=np.float64)
    q = np.array([through], dtype=np.float64)
    feet = q - (q * d).sum(axis=1, keepdims=True) * d
    counts, ids, ts, _ = samplers._scan_lines(surface, d, feet, want_points=True)
    assert counts.tolist() == [len(ts)] and not ids.any()
    return ts, feet[0] + ts[:, None] * d[0]


class TestIntersectLineImplicit:
    """One line against an implicit surface: _scan_lines on 1-row arrays."""

    def test_sphere_chord(self):
        ts, pts = _one_line(sphere_implicit(), [0.0, 0.0, 1.0], [0.5, 0.0, 0.0])
        root = math.sqrt(0.75)
        assert len(ts) == 2
        assert abs(ts[0] + root) < 1e-9 and abs(ts[1] - root) < 1e-9
        assert np.allclose(pts[:, 0], 0.5)

    def test_miss_outside_foot_disk(self):
        ts, pts = _one_line(sphere_implicit(), [0.0, 0.0, 1.0], [2.0, 0.0, 0.0])
        assert len(ts) == 0 and pts.shape == (0, 3)

    def test_plane_single_hit_at_exact_grid_zero(self):
        # symmetric chord grid lands a node exactly on t = 0
        ts, pts = _one_line(plane_implicit(), [0.0, 0.0, 1.0], [0.3, 0.4, 0.0])
        assert len(ts) == 1
        assert ts[0] == 0.0
        assert np.allclose(pts[0], [0.3, 0.4, 0.0])

    def test_exact_zero_beside_the_last_node_is_no_boundary_hit(self):
        # the zero-width bracket of an interior zero in the ball's last cell is not a hit at the clip sphere, whether
        # the scan reads boundary hits off its last column (count only) or off its brackets' cells (located)
        dirs, feet = np.array([[0.0, 0.0, 1.0]]), np.array([[0.3, 0.4, 0.0]])
        level = np.linspace(-1.0, 1.0, samplers.SCAN_STEPS + 1)[-2] * samplers._chord_half_lengths(feet, 2.0)[0]
        surface = ImplicitSurface(lambda p: p[..., 2] - level, 2.0)
        for want_points in (False, True):
            counts, _, ts, boundary = samplers._scan_lines(surface, dirs, feet, want_points)
            assert counts.tolist() == [1] and boundary == 0
        assert ts.tolist() == [level]

    def test_line_inside_surface_dropped(self):
        # a line lying in the plane meets it non-transversally: no hits
        ts, _ = _one_line(plane_implicit(), [1.0, 0.0, 0.0], [0.0, 0.5, 0.0])
        assert len(ts) == 0

    def test_tangential_touch_dropped(self):
        # line tangent to the unit sphere: field touches zero without crossing
        ts, _ = _one_line(sphere_implicit(clip=2.0), [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
        assert len(ts) == 0

    def test_root_tolerance_honored(self, monkeypatch):
        monkeypatch.setattr(samplers, "ROOT_TOL", 1e-12)
        ts, _ = _one_line(sphere_implicit(), [0.0, 0.0, 1.0], [0.5, 0.0, 0.0])
        assert abs(ts[1] - math.sqrt(0.75)) < 1e-11

    def test_bracket_refined_alone_or_in_a_batch(self):
        # a narrow bracket stops on its own width, whatever the wider brackets beside it need
        surface = sphere_implicit()
        dirs, feet = np.tile([1.0, 0.0, 0.0], (2, 1)), np.array([[0.0, 0.1, 0.0], [0.0, 0.2, 0.0]])
        t_lo, t_hi = np.array([0.99, 0.9]), np.array([1.0, 1.0])
        g_lo, g_hi = (surface.field(feet + t[:, None] * dirs) for t in (t_lo, t_hi))
        both = samplers._refine_bisection(surface, dirs, feet, t_lo, t_hi, g_lo, g_hi)
        alone = samplers._refine_bisection(surface, dirs[:1], feet[:1], t_lo[:1], t_hi[:1], g_lo[:1], g_hi[:1])
        assert both[0] == alone[0] and abs(alone[0] - math.sqrt(0.99)) < 1e-10

    def test_nonfinite_field_raises(self):
        def bad(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / x[..., 2]

        with pytest.raises(FloatingPointError, match="t ="):
            _one_line(ImplicitSurface(bad, 1.0), [0.0, 0.0, 1.0], [0.1, 0.0, 0.0])


def _scan_in_chunks(surface, dirs, feet, chunk=4096):
    """``_scan_lines`` with points over 4096-line chunks, line ids counted from the first chunk."""
    parts = [
        samplers._scan_lines(surface, dirs[i : i + chunk], feet[i : i + chunk], want_points=True)
        for i in range(0, len(dirs), chunk)
    ]
    counts = np.concatenate([p[0] for p in parts])
    ids = np.concatenate([p[1] + k * chunk for k, p in enumerate(parts)])
    return counts, ids, np.concatenate([p[2] for p in parts]), sum(p[3] for p in parts)


#: boxes holding the catalog sphere and ellipsoid, padded by 1e-8: their compiled fields pick their cells from their
#: polynomials and carry no box, so the box tests scan them behind a plain callable and one of these boxes
BOXES = {"sphere": np.ones(3), "ellipsoid": np.array([1.5, 1.0, 0.5])}


def _boxed(name, **kwargs):
    """The catalog surface *name*, built with *kwargs*, as the box path scans it.

    A field with a ``line_polynomial`` (the sphere's and ellipsoid's own, the
    torus's quartic multiple) picks its cells from it, so it goes behind a
    plain callable, with one of BOXES or the surface's own box.
    """
    surface = CATALOG[name].implicit(**kwargs)
    if not hasattr(surface.field, "line_polynomial"):
        return surface
    bounds = (-BOXES[name] - 1e-8, BOXES[name] + 1e-8) if name in BOXES else surface.bounds
    return plain(surface, bounds=bounds)


def _assert_same_as_the_ball_scan(surface, dirs, feet):
    boxed = samplers._scan_lines(surface, dirs, feet, want_points=True)
    ball = samplers._scan_lines(replace(surface, bounds=None), dirs, feet, want_points=True)
    assert np.array_equal(boxed[0], ball[0]) and np.array_equal(boxed[1], ball[1])
    assert boxed[2].tobytes() == ball[2].tobytes() and boxed[3] == ball[3]
    return boxed


class TestBoxedScan:
    """A bounding box only picks which of the ball scan's nodes are evaluated; it must change no output bit."""

    @pytest.mark.parametrize("name", ["sphere", "torus", "ellipsoid"])
    def test_box_changes_no_hit_count(self, name):
        surface = _boxed(name)
        dirs, feet = sample_line_batch(Pseudo(9), 3, surface.clip_radius, 20_000)
        counts, ids, ts, _ = _scan_in_chunks(surface, dirs, feet)
        ball_counts, _, ball_ts, _ = _scan_in_chunks(replace(surface, bounds=None), dirs, feet)
        assert counts.sum() > 5000
        assert np.array_equal(counts, ball_counts)
        assert ts.tobytes() == ball_ts.tobytes()
        pts = feet[ids] + ts[:, None] * dirs[ids]
        lo, hi = map(np.array, surface.bounds)
        assert ((pts >= lo) & (pts <= hi)).all()

    @pytest.mark.parametrize(
        "name, clip",
        [
            ("sphere", None),
            ("sphere", 1.2),
            ("torus", None),
            ("torus", 2.2),
            ("ellipsoid", None),
            ("ellipsoid", 1.2),
            ("pyramid", None),
            ("pyramid", 0.8),
        ],
    )
    def test_same_bits_as_the_ball_scan(self, name, clip):
        # each smaller clip cuts the box; it cuts the surface too, with hits in the ball scan's end cells, except on
        # the sphere, which a ball about its centre cannot cut
        surface = _boxed(name) if clip is None else _boxed(name, clip=clip)
        assert surface.bounds is not None
        dirs, feet = sample_line_batch(Pseudo(22), 3, surface.clip_radius, 8192)
        counts, _, _, boundary = _assert_same_as_the_ball_scan(surface, dirs, feet)
        assert counts.sum() > 500 and (boundary > 0) == (clip is not None and name != "sphere")

    def test_close_crossings_the_ball_grid_splits(self):
        # line 8137 crosses at t = -1.55097 and -1.54338, with a ball grid node between them
        surface = _boxed("torus", clip=2.2)
        dirs, feet = sample_line_batch(Pseudo(2), 3, surface.clip_radius, 8192)
        counts, ids, ts, _ = _assert_same_as_the_ball_scan(surface, dirs, feet)
        assert counts[8137] == 2
        np.testing.assert_allclose(ts[ids == 8137], [-1.55097, -1.54338], rtol=0.0, atol=1e-5)

    def test_hits_on_grid_nodes(self):
        # the z axis meets the unit sphere at t = -1 and 1, ball grid nodes 64 and 192 of the clip-2 chord
        surface = _boxed("sphere")
        dirs, feet = np.array([[0.0, 0.0, 1.0]]), np.zeros((1, 3))
        counts, _, ts, _ = _assert_same_as_the_ball_scan(surface, dirs, feet)
        assert counts.tolist() == [2] and ts.tolist() == [-1.0, 1.0]

    def test_lines_missing_the_box_are_not_evaluated(self):
        evaluated = []

        def field(x):
            evaluated.append(x.reshape(-1, 3).copy())
            return (x * x).sum(axis=-1) - 1.0

        surface = ImplicitSurface(field, 3.0, bounds=(-np.ones(3), np.ones(3)))
        # both lines run along z; the first passes beside the box, the second through the unit sphere
        dirs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        feet = np.array([[1.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        counts, ids, ts, boundary = samplers._scan_lines(surface, dirs, feet, want_points=True)
        assert counts.tolist() == [0, 2] and ids.tolist() == [1, 1] and boundary == 0
        np.testing.assert_allclose(ts, [-math.sqrt(0.75), math.sqrt(0.75)], rtol=0.0, atol=1e-9)
        assert (np.concatenate(evaluated)[:, 0] == 0.5).all()


def test_polynomial_runs_cost_few_field_points_per_hit(monkeypatch):
    # a polynomial run is its candidate cells alone, so the count-only scan of the expression torus evaluates under 4
    # field points per hit; a one-cell margin on each side of every run took 5.2
    points = []
    field_on_grid = samplers._field_on_grid

    def recorded(surface, dirs, feet, t_grid):
        points.append(t_grid.size)
        return field_on_grid(surface, dirs, feet, t_grid)

    monkeypatch.setattr(samplers, "_field_on_grid", recorded)
    surface = ImplicitSurface(compile_field(TORUS_EXPR), 3.0)
    dirs, feet = sample_line_batch(Pseudo(2901), 3, surface.clip_radius, 8192)
    counts = samplers._scan_lines(surface, dirs, feet, want_points=False)[0]
    assert counts.sum() > 5000 and sum(points) < 4 * counts.sum()


class TestTruncationWarning:
    """Only hits in the ball scan's end cells warn, with or without a box."""

    def test_bounded_torus_at_its_default_clip_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud_implicit(_boxed("torus"), Pseudo(11), 10_000)

    def test_clip_cutting_the_ring_warns_once(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cloud_implicit(torus_implicit(clip=2.2), Pseudo(12), 10_000)
        assert [str(w.message) for w in caught] == ["clip radius may truncate surface"]

    @pytest.mark.parametrize("want_points", [False, True])
    def test_same_boundary_hits_as_the_ball_scan(self, want_points):
        surface = _boxed("torus", clip=2.2)
        dirs, feet = sample_line_batch(Pseudo(13), 3, surface.clip_radius, 8192)
        boxed = samplers._scan_lines(surface, dirs, feet, want_points)[3]
        ball = samplers._scan_lines(replace(surface, bounds=None), dirs, feet, want_points)[3]
        assert boxed == ball > 20


class TestPoles:
    """A field that changes sign through infinity has a pole there, not a crossing; locating a hit drops it."""

    def test_plane_beside_a_pole(self):
        # 1/x - 1 = 0 is the plane x = 1, a disk of radius sqrt(3) in the clip ball; the sign also changes at x = 0
        surface = ImplicitSurface(compile_field("1/x - 1"), 2.0)
        with pytest.warns(UserWarning, match="truncate"):
            cloud = cloud_implicit(surface, Pseudo(0), 2000)
            est = estimate_surface_integral(surface, lambda p: np.ones(len(p)), Pseudo(0), 20_000)
        assert np.abs(cloud.positions[:, 0] - 1.0).max() < 1e-9
        assert cloud.per_line_counts.sum() == len(cloud) >= 2000
        assert abs(est.value - 3.0 * math.pi) < 3.0 * est.standard_error

    @pytest.mark.parametrize("name", [*IMPLICIT, *(f"{name}-unboxed" for name in IMPLICIT), "torus-expr"])
    def test_located_counts_are_the_count_only_counts(self, monkeypatch, name):
        # no catalog surface has a pole, so locating drops no bracket; a count-only scan reads its boundary hits off
        # the tile's end columns, a located one off its brackets' cells, and the plane's hits reach both end cells
        if name == "torus-expr":
            surface = ImplicitSurface(compile_field(TORUS_EXPR), 3.0)
        else:
            surface = CATALOG[name.removesuffix("-unboxed")].implicit()
            if name.endswith("-unboxed"):  # every ball cell: no box, and no polynomial behind a plain callable
                surface = plain(surface, bounds=None)
        dirs, feet = sample_line_batch(Pseudo(23), 3, surface.clip_radius, 8192)
        # then one tile per row, on fewer lines
        for tile, lines in ((samplers.SCAN_TILE, 8192), (1, 2048)):
            monkeypatch.setattr(samplers, "SCAN_TILE", tile)
            counts, _, _, boundary = samplers._scan_lines(surface, dirs[:lines], feet[:lines], want_points=False)
            located, _, ts, located_boundary = samplers._scan_lines(surface, dirs[:lines], feet[:lines], want_points=True)
            assert np.array_equal(counts, located) and boundary == located_boundary
            assert located.sum() == len(ts) > lines // 16
            assert (boundary > 0) == name.startswith("plane")


def _sum_of_squares(points):
    return (points * points).sum(axis=-1) - 1.0


def _height(points):
    return points[..., 2]


class TestScaledFields:
    """Sides come from the field's signs, never from products of its values, which underflow or overflow."""

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    @pytest.mark.parametrize("field", [_sum_of_squares, _height], ids=["sphere", "plane"])
    def test_scan_is_the_unscaled_scan(self, field, scale):
        plain, scaled = ImplicitSurface(field, 2.0), ImplicitSurface(lambda p: scale * field(p), 2.0)
        dirs, feet = sample_line_batch(Pseudo(1), 3, 2.0, 4000)
        for want_points in (False, True):
            counts, ids, ts, boundary = samplers._scan_lines(plain, dirs, feet, want_points)
            got_counts, got_ids, got_ts, got_boundary = samplers._scan_lines(scaled, dirs, feet, want_points)
            assert np.array_equal(got_counts, counts) and got_boundary == boundary
        assert np.array_equal(got_ids, ids) and np.abs(got_ts - ts).max() <= 2.0 * samplers.ROOT_TOL
        assert len(ts) > 1000 and (boundary > 0) == (field is _height)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_estimate_and_cloud(self, scale):
        plain, scaled = ImplicitSurface(_sum_of_squares, 2.0), ImplicitSurface(lambda p: scale * _sum_of_squares(p), 2.0)
        area, scaled_area = (estimate_area(surface, Pseudo(1), 4000) for surface in (plain, scaled))
        assert (scaled_area.value, scaled_area.hit_histogram) == (area.value, area.hit_histogram)
        # the finite-difference gradients of the scaled field have squares that underflow or overflow
        cloud, scaled_cloud = (cloud_implicit(surface, Pseudo(1), 1000) for surface in (plain, scaled))
        assert np.array_equal(scaled_cloud.line_index, cloud.line_index)
        assert np.abs(scaled_cloud.normals - cloud.normals).max() < 1e-6


class TestRefinement:
    """Illinois steps: each refined t is within ROOT_TOL of a sign change or an exact zero, in few field points."""

    @pytest.mark.parametrize("name", [*IMPLICIT, "torus-expr", "waves"])
    def test_sign_change_within_root_tol(self, name):
        if name in CATALOG:
            surface = CATALOG[name].implicit()
        else:
            text = TORUS_EXPR if name == "torus-expr" else "sin(4*x)*cos(3*y)+z^2-0.3"
            surface = ImplicitSurface(compile_field(text), 3.0 if name == "torus-expr" else 2.0)
        dirs, feet = sample_line_batch(Pseudo(24), 3, surface.clip_radius, 4096)
        _, ids, ts, _ = samplers._scan_lines(surface, dirs, feet, want_points=True)
        below, at, above = (
            surface.field(feet[ids] + (ts + step * samplers.ROOT_TOL)[:, None] * dirs[ids]) for step in (-1.0, 0.0, 1.0)
        )
        assert len(ts) > 200
        assert ((at == 0.0) | (below == 0.0) | (above == 0.0) | ((below < 0.0) != (above < 0.0))).all()

    def test_field_points_against_bisection(self, monkeypatch):
        # bisection took 27 rounds on each of this chunk's 5,824 brackets: 157,248 field points; Illinois steps take
        # 8 rounds here, 57 without the ROOT_TOL margin inside the bracket and 14 without halving a staying end
        surface, calls = torus_implicit(), []
        counted = replace(surface, field=lambda p: calls.append(p.size // 3) or surface.field(p))
        refine, spent = samplers._refine_bisection, []

        def recorded(*args):
            calls.clear()
            ts = refine(*args)
            spent.append(list(calls))
            return ts

        monkeypatch.setattr(samplers, "_refine_bisection", recorded)
        dirs, feet = sample_line_batch(Pseudo(0), 3, surface.clip_radius, 8192)
        _, _, ts, _ = samplers._scan_lines(counted, dirs, feet, want_points=True)
        assert len(ts) == 5824 and sum(spent[0]) <= 0.3 * 157_248 and len(spent[0]) <= 10


class TestScanMemory:
    def test_ball_scan_peak_is_bounded_by_the_tile_not_the_chunk(self):
        # the expression torus has no box: one 8,192-line chunk is 8192 x 257 scan nodes, 50 MB of points at once
        surface = ImplicitSurface(compile_field(TORUS_EXPR), 3.0)
        tracemalloc.start()
        try:
            estimate_area(surface, Pseudo(21), 8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def _select(cumulative, scalars):
    return samplers._select_triangles(ScriptedSource(scalars), np.asarray(cumulative), len(scalars)).tolist()


def _first_scalar_reaching(x, total):
    """The smallest scalar that _select_triangles scales to x or above."""
    u = x / total
    while u > 0.0 and u * total * samplers._CLAMP >= x:
        u = np.nextafter(u, 0.0)
    while u * total * samplers._CLAMP < x:
        u = np.nextafter(u, 1.0)
    return u


def _scalar_at(x, total):
    """The smallest scalar that _select_triangles scales to exactly *x*."""
    u = x / total
    while u * total * samplers._CLAMP < x:
        u = np.nextafter(u, 1.0)
    assert u * total * samplers._CLAMP == x
    return u


class TestFindInterval:
    """Triangle selection: the smallest j with ``x < cumulative[j]``."""

    CUM = [1.0, 3.0, 6.0]

    def test_examples(self):
        assert _select(self.CUM, [2.5 / 6.0, 0.0, 5.999 / 6.0]) == [1, 0, 2]

    def test_boundary_is_included_in_next(self):
        assert _select(self.CUM, [_scalar_at(1.0, 6.0), _scalar_at(3.0, 6.0)]) == [1, 2]

    def test_out_of_range(self):
        # the largest scalar below 1 still selects inside the table
        assert _select(self.CUM, [np.nextafter(1.0, 0.0)]) == [2]

    @given(
        st.lists(st.floats(0.01, 10.0), min_size=1, max_size=60),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan(self, weights, frac):
        cum = np.cumsum(weights)
        x = frac * cum[-1] * samplers._CLAMP
        expected = next(j for j, c in enumerate(cum) if x < c)
        assert _select(cum, [frac]) == [expected]

    @given(
        st.lists(st.sampled_from([0.0, 0.0, 1.0]) | st.floats(0.01, 10.0), min_size=1, max_size=80),
        st.integers(0, 79),
        st.booleans(),
        st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
    )
    @example([2.5], 0, False, [])
    @example([1.0] * 30, 0, True, [])
    @example([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 3.0, 0.0], 7, True, [0.5])
    @settings(max_examples=300, deadline=None)
    def test_guide_table_is_the_binary_search(self, weights, heavy, crowd, fracs):
        # zero-weight runs (degenerate triangles), one weight 1e6 times the rest (every small entry crowded into
        # a few buckets), and scalars whose x falls just below each cumulative value and at it (about nine in ten
        # land exactly on it) or just above
        w = np.array(weights)
        if crowd:
            w[heavy % len(w)] = 1e6 * max(w.sum(), 1.0)
        assume(w.sum() > 0.0)
        cum = np.cumsum(w)
        scalars = [*fracs, 0.0, np.nextafter(1.0, 0.0)]
        for c in np.unique(cum[cum < cum[-1]]):
            first = _first_scalar_reaching(c, cum[-1])
            scalars += [first, np.nextafter(first, 0.0)]
        picks = _select(cum, scalars)
        xs = np.array(scalars) * cum[-1] * samplers._CLAMP
        assert picks == np.searchsorted(cum, xs, side="right").tolist()
        assert (w[picks] > 0.0).all()

    def test_chart_table_picks_are_the_binary_search(self):
        cum = triangulate_parametric(torus_chart())[0].cumulative_areas
        assert len(cum) == 64_770
        picks = samplers._select_triangles(Pseudo(22), cum, 200_000)
        xs = Pseudo(22).take(200_000) * cum[-1] * samplers._CLAMP
        assert np.array_equal(picks, np.searchsorted(cum, xs, side="right"))


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

    @pytest.mark.parametrize("name", ["sphere", "torus", "ellipsoid", "plane"])
    def test_partials_give_the_central_difference_cloud(self, name):
        chart = CATALOG[name].chart(u_res=33, v_res=65)
        a = cloud_parametric(chart, Pseudo(64), 5000)
        b = cloud_parametric(replace(chart, partials=None), Pseudo(64), 5000)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.triangle_index, b.triangle_index)
        np.testing.assert_allclose(a.normals, b.normals, rtol=0.0, atol=1e-9)

    def test_normals_radial_on_sphere(self):
        surface = sphere_chart(u_res=64, v_res=64)
        cloud = cloud_parametric(surface, Pseudo(63), 2000)
        radial = cloud.positions
        align = np.abs((cloud.normals * radial).sum(axis=1))
        assert align.min() > 1.0 - 1e-6


class TestChartOrientation:
    """Every sampler's normals on a catalog chart point the way its implicit form's gradient does: out of a closed one."""

    @pytest.mark.parametrize("name", ["sphere", "torus", "ellipsoid", "plane"])
    def test_normals_follow_the_implicit_gradient(self, name):
        chart, implicit = CATALOG[name].chart(), CATALOG[name].implicit()
        mesh, _ = triangulate_parametric(chart)
        for sample, surface in [(cloud_parametric, chart), (cloud_triangulated, mesh), (cloud_implicit, mesh)]:
            cloud = sample(surface, Pseudo(1), 2000)
            assert ((cloud.normals * implicit.gradient_at(cloud.positions)).sum(axis=1) > 0.0).all(), sample.__name__


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


# one of each surface form; the chart is the benchmark's 10,000-triangle torus
_FORMS = {
    "implicit-torus": torus_implicit,
    "tetrahedron": tetrahedron_mesh,
    "torus-chart": lambda: torus_chart(u_res=51, v_res=101),
}


def _mesh_of(surface):
    return surface if isinstance(surface, TriangulatedSurface) else triangulate_parametric(surface)[0]


class TestOneLinePipeline:
    """Line clouds and estimators read every surface form through one resolver."""

    @pytest.mark.parametrize("name", list(_FORMS))
    def test_cloud_counts_are_the_estimators(self, name):
        surface = _FORMS[name]()
        cloud = cloud_implicit(surface, Pseudo(60), 3000)
        histogram = {k: int(c) for k, c in enumerate(np.bincount(cloud.per_line_counts)) if c}
        assert histogram == estimate_area(surface, Pseudo(60), cloud.lines_used).hit_histogram

    @pytest.mark.parametrize("name", ["tetrahedron", "torus-chart"])
    def test_mesh_normals_are_the_hit_triangles(self, name):
        surface = _FORMS[name]()
        mesh = _mesh_of(surface)
        cloud = cloud_implicit(surface, Pseudo(61), 2000)
        assert cloud.triangle_index.shape == (len(cloud),)
        assert np.array_equal(cloud.normals, mesh.normals[cloud.triangle_index])
        # each point lies in its triangle's plane
        v0 = mesh.triangles[cloud.triangle_index, 0]
        assert np.abs(((cloud.positions - v0) * cloud.normals).sum(axis=1)).max() < 1e-12

    @pytest.mark.parametrize("make", [tetrahedron_mesh, corner_pyramid_mesh], ids=["tetrahedron", "pyramid"])
    def test_face_shares_follow_face_areas(self, make):
        # fixed seed; 4 faces at 3 SE each, so a uniform cloud fails at most about 1.1% of seeds (union bound)
        mesh = make()
        cloud = cloud_implicit(mesh, Pseudo(62), 40_000)
        lines = cloud.lines_used
        per_line = np.bincount(cloud.line_index, minlength=lines).astype(np.float64)
        for face, truth in enumerate(mesh.areas / mesh.total_area):
            # hits of one line are not independent: the ratio-estimator variance over whole lines
            on_face = np.bincount(cloud.line_index, weights=cloud.triangle_index == face, minlength=lines)
            share = on_face.sum() / per_line.sum()
            se = math.sqrt(lines / (lines - 1) * ((on_face - share * per_line) ** 2).sum()) / per_line.sum()
            assert abs(share - truth) < 3.0 * se, (face, share, truth, se)

    def test_axis_aligned_takes_a_mesh(self):
        mesh = tetrahedron_mesh()
        cloud = cloud_axis_aligned(mesh, Pseudo(63), 2000)
        assert len(cloud) >= 2000
        assert np.array_equal(cloud.normals, mesh.normals[cloud.triangle_index])
        # consecutive hits of one line differ along a single coordinate axis
        same = np.diff(cloud.line_index) == 0
        steps = np.diff(cloud.positions, axis=0)[same]
        assert same.any() and ((np.abs(steps) > 1e-12).sum(axis=1) == 1).all()
