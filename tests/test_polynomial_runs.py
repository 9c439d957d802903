"""Polynomial fields pick their scan cells from Bernstein bounds, and the scan's output keeps every bit.

A compiled polynomial field carries ``line_polynomial``, and the catalog
torus's square-root field carries the one of its quartic multiple; wrapping
the field in a plain callable strips it, so the same process also runs the
scan on every cell of each chord (or of the box).  Both must give the same
counts, line ids, ``ts`` bytes and boundary hits.
"""

import numpy as np
import pytest

from croftoncloud import samplers
from croftoncloud.crofton import estimate_area, estimate_surface_integral
from croftoncloud.expr import compile_field
from croftoncloud.geometry import sample_line_batch
from croftoncloud.rng import Pseudo
from croftoncloud.samplers import SurfaceNotFound, cloud_axis_aligned, cloud_implicit
from croftoncloud.surfaces import ImplicitSurface, ellipsoid_implicit, plane_implicit, sphere_implicit, torus_implicit

from conftest import TORUS_EXPR, plain

#: (surface, seed of its 8,192 lines), seeds fixed before the first run
POLYNOMIAL_SURFACES = {
    "sphere": (sphere_implicit, 2801),
    "ellipsoid": (ellipsoid_implicit, 2802),
    "plane": (plane_implicit, 2803),
    "torus-expr": (lambda: ImplicitSurface(compile_field(TORUS_EXPR), 3.0), 2804),
    "cubic": (lambda: ImplicitSurface(compile_field("x^3+y^3+z^3-x*y*z-0.5"), 2.0), 2805),
    "sextic": (lambda: ImplicitSurface(compile_field("(x^2+y^2-1)^3-x^2*y^3+z^2-0.1"), 2.0), 2806),
}


def _assert_same_bits(surface, dirs, feet):
    assert hasattr(surface.field, "line_polynomial")
    for want_points in (False, True):
        counts, ids, ts, boundary = samplers._scan_lines(surface, dirs, feet, want_points)
        counts_b, ids_b, ts_b, boundary_b = samplers._scan_lines(plain(surface), dirs, feet, want_points)
        assert counts.tobytes() == counts_b.tobytes() and boundary == boundary_b
        if want_points:
            assert ids.tobytes() == ids_b.tobytes() and ts.tobytes() == ts_b.tobytes()
    return counts


@pytest.mark.parametrize("name", POLYNOMIAL_SURFACES)
def test_same_bits_as_the_scan_of_every_cell(name):
    build, seed = POLYNOMIAL_SURFACES[name]
    surface = build()
    dirs, feet = sample_line_batch(Pseudo(seed), 3, surface.clip_radius, 8192)
    assert _assert_same_bits(surface, dirs, feet).sum() > 1000


def _tangent_lines(radius, angles, vertical):
    """Lines through ``radius (cos a, sin a, 0)``: along z, or tangent to that circle in the plane z = 0."""
    feet = radius * np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=1)
    if vertical:
        return np.tile([0.0, 0.0, 1.0], (len(angles), 1)), feet
    return np.stack([-np.sin(angles), np.cos(angles), np.zeros_like(angles)], axis=1), feet


def test_same_bits_on_near_tangent_lines_of_the_sphere():
    # feet at |p| = 1 - 1e-9, 1 and 1 + 1e-9 from the centre of the unit sphere: two roots 4.5e-5 apart, a touch, a miss
    rng = np.random.default_rng(28)
    dirs = rng.normal(size=(600, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    normal = np.cross(dirs, rng.normal(size=(600, 3)))
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    feet = normal * np.repeat([1.0 - 1e-9, 1.0, 1.0 + 1e-9], 200)[:, None]
    _assert_same_bits(sphere_implicit(), dirs, feet)


@pytest.mark.parametrize("vertical", [False, True], ids=["in-plane", "vertical"])
def test_same_bits_on_lines_tangent_to_the_torus_equators(vertical):
    # the quartic torus (R = 2, r = 0.5) has its inner equator at radius 1.5 and its outer one at 2.5
    surface = ImplicitSurface(compile_field(TORUS_EXPR), 3.0)
    angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    parts = [_tangent_lines(radius * scale, angles, vertical) for radius in (1.5, 2.5) for scale in (1 - 1e-9, 1, 1 + 1e-9)]
    dirs, feet = (np.concatenate(part) for part in zip(*parts))
    _assert_same_bits(surface, dirs, feet)


def test_same_bits_on_the_plane_exact_zero_node_line():
    # the line of the scan's exact-zero test: z = 0 falls on the middle ball node
    surface = plane_implicit()
    dirs, feet = sample_line_batch(Pseudo(18), 3, surface.clip_radius, 200)
    dirs, feet = np.vstack([[0.0, 0.0, 1.0], dirs]), np.vstack([[0.3, 0.4, 0.0], feet])
    counts = _assert_same_bits(surface, dirs, feet)
    _, ids, ts, _ = samplers._scan_lines(surface, dirs, feet, want_points=True)
    assert counts[0] == 1 and ids[0] == 0 and ts[0] == 0.0


@pytest.mark.parametrize("tile", [1000, samplers.SCAN_TILE])
@pytest.mark.parametrize(
    "name", ["sphere", "torus-expr", "sextic", "catalog-default", "catalog-thin-ring", "catalog-horn"]
)
def test_polynomial_tiles_hold_runs_of_ball_nodes(monkeypatch, name, tile):
    # each row is a run of its ball chord's nodes, a line's runs share no cell, and they hold every full-scan bracket;
    # a catalog torus's runs come from its quartic multiple, its candidate cells from its square-root field
    monkeypatch.setattr(samplers, "SCAN_TILE", tile)
    grids = []
    field_on_grid = samplers._field_on_grid

    def recorded(surface, dirs, feet, t_grid):
        grids.append((feet, t_grid))
        return field_on_grid(surface, dirs, feet, t_grid)

    monkeypatch.setattr(samplers, "_field_on_grid", recorded)
    if name.startswith("catalog-"):
        surface = _catalog_torus(name.removeprefix("catalog-"))
    else:
        surface = POLYNOMIAL_SURFACES[name][0]()
    dirs, feet = sample_line_batch(Pseudo(23), 3, surface.clip_radius, 1500)
    samplers._scan_lines(surface, dirs, feet, want_points=False)
    nodes = np.linspace(-1.0, 1.0, samplers.SCAN_STEPS + 1)
    for tile_feet, t_grid in grids:
        rows, width = t_grid.shape
        assert rows * width <= tile or rows == 1
        half = samplers._chord_half_lengths(tile_feet, surface.clip_radius)
        first = np.rint((t_grid[:, 0] / half + 1.0) * samplers.SCAN_STEPS / 2).astype(int)
        assert ((first >= 0) & (first + width <= len(nodes))).all()
        runs = np.lib.stride_tricks.sliding_window_view(nodes, width)[first]
        assert t_grid.tobytes() == (half[:, None] * runs).tobytes()

    ids, half, first, width = samplers._scan_runs(surface, dirs, feet)
    assert len(ids) > len(np.unique(ids))  # some line has several runs
    order = np.lexsort((first, ids))
    ids, first, width = ids[order], first[order], width[order]
    same_line = ids[1:] == ids[:-1]
    assert (first[1:][same_line] >= (first + width)[:-1][same_line]).all()
    covered = np.zeros((len(dirs), samplers.SCAN_STEPS), dtype=bool)
    for line, start, cells in zip(ids, first, width):
        covered[line, start : start + cells] = True
    # every cell of the full ball grid whose nodes differ in sign or hold a zero
    full = samplers._chord_half_lengths(feet, surface.clip_radius)[:, None] * nodes
    g = surface.field(feet[:, None, :] + full[:, :, None] * dirs[:, None, :])
    neg, zero = g < 0.0, g == 0.0
    candidate = (neg[:, :-1] != neg[:, 1:]) | zero[:, :-1] | zero[:, 1:]
    assert candidate.sum() > 100 and not (candidate & ~covered).any()


#: catalog tori (R, r, clip): the default; a ring thinner than its tube and the horn torus, where the quartic's second
#: factor adds an inner sheet (candidate cells, never hits); a negative ring, whose square-root form has no zero while
#: its quartic is the ring-2 torus's; and the default at the 1e-5 and 1e5 scales of tests/test_catalog_fields.py
CATALOG_TORI = {
    "default": (2.0, 0.5, 3.0),
    "thin-ring": (0.5, 1.0, 3.0),
    "horn": (1.0, 1.0, 3.0),
    "negative-ring": (-2.0, 0.5, 3.0),
    "small": (2e-5, 5e-6, 3e-5),
    "large": (2e5, 5e4, 3e5),
}


def _catalog_torus(name):
    ring, tube, clip = CATALOG_TORI[name]
    return torus_implicit(ring, tube, clip=clip)


def _cloud_bits(sampler, surface, seed):
    """Every array of a 2,000-point cloud of *surface*, as bytes, or the SurfaceNotFound message when it has none."""
    try:
        cloud = sampler(surface, Pseudo(seed), 2000)
    except SurfaceNotFound as err:
        return str(err)
    names = ("positions", "normals", "line_index", "line_t", "per_line_counts")
    return cloud.lines_used, [getattr(cloud, name).tobytes() for name in names]


@pytest.mark.parametrize("name", CATALOG_TORI)
def test_catalog_torus_keeps_its_bits_without_its_quartic(monkeypatch, name):
    # the quartic multiple only picks cells: scans, clouds and estimates are those of the square-root field alone
    monkeypatch.setattr(samplers, "MAX_EMPTY_LINES", 20_000)  # the negative ring has no surface to find
    surface = _catalog_torus(name)
    dirs, feet = sample_line_batch(Pseudo(3101), 3, surface.clip_radius, 8192)
    assert (_assert_same_bits(surface, dirs, feet).sum() > 1000) == (name != "negative-ring")
    for sampler, seed in ((cloud_implicit, 3102), (cloud_axis_aligned, 3103)):
        assert _cloud_bits(sampler, surface, seed) == _cloud_bits(sampler, plain(surface), seed)
    for estimate in (
        lambda s: estimate_area(s, Pseudo(3104), 4000),
        lambda s: estimate_surface_integral(s, lambda p: p[:, 2] ** 2, Pseudo(3105), 4000),
    ):
        a, b = estimate(surface), estimate(plain(surface))
        assert (a.value, a.standard_error, a.hit_histogram) == (b.value, b.standard_error, b.hit_histogram)


def _torus_lines(ring, tube):
    """Lines tangent to a torus's equators and top and bottom circles, at radii scaled by 1 - 1e-9, 1 and 1 + 1e-9.

    In the plane z = 0 and along z at the inner and outer equators (radii
    ||R| - r| and |R| + r); across the top and bottom circles (radius |R|,
    z = r and -r) and along z at that radius; and the z axis itself.
    """
    angles = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    radii = (abs(abs(ring) - tube), abs(ring) + tube)
    parts = [(np.array([[0.0, 0.0, 1.0]]), np.zeros((1, 3)))]
    for scale in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
        for radius in radii:
            parts += [_tangent_lines(radius * scale, angles, vertical) for vertical in (False, True)]
        parts.append(_tangent_lines(abs(ring) * scale, angles, True))
        for height in (tube, -tube):
            dirs, feet = _tangent_lines(abs(ring), angles, False)
            parts.append((dirs, feet + [0.0, 0.0, height * scale]))
    return (np.concatenate(part) for part in zip(*parts))


@pytest.mark.parametrize("name", CATALOG_TORI)
def test_catalog_torus_keeps_its_bits_on_tangent_lines(name):
    ring, tube, _ = CATALOG_TORI[name]
    surface = _catalog_torus(name)
    dirs, feet = _torus_lines(ring, tube)
    assert (_assert_same_bits(surface, dirs, feet).sum() > 100) == (name != "negative-ring")


def _scan_points_and_hits(monkeypatch, surface, seed):
    """Field points and hits of the count-only scan of 8,192 lines of *surface* drawn from ``Pseudo(seed)``."""
    points = []
    field_on_grid = samplers._field_on_grid

    def recorded(surface, dirs, feet, t_grid):
        points.append(t_grid.size)
        return field_on_grid(surface, dirs, feet, t_grid)

    monkeypatch.setattr(samplers, "_field_on_grid", recorded)
    dirs, feet = sample_line_batch(Pseudo(seed), 3, surface.clip_radius, 8192)
    return sum(points), samplers._scan_lines(surface, dirs, feet, want_points=False)[0].sum()


def test_catalog_torus_costs_few_field_points_per_hit(monkeypatch):
    # its quartic multiple picks the cells, so the count-only scan evaluates under 4 field points per hit (2.00 at
    # this seed, 2.97 while a tile widened every row to its widest run); its box alone took 73.2
    points, hits = _scan_points_and_hits(monkeypatch, torus_implicit(), 2901)
    assert hits > 5000 and points < 4 * hits


def test_each_row_scans_its_own_run_only(monkeypatch):
    # a tile holds rows of one run width: a one-cell run costs 2 nodes, not the 3 of a neighbouring two-cell run
    # (2.00 field points per hit at this seed; 2.97 while a tile widened every row to its first, widest run)
    points, hits = _scan_points_and_hits(monkeypatch, ImplicitSurface(compile_field(TORUS_EXPR), 3.0), 2901)
    assert hits > 5000 and points < 2.2 * hits


@pytest.mark.parametrize("name", ["catalog-torus", "torus-expr", "sphere"])
@pytest.mark.parametrize("lines", sorted({0, 1, 4095, 4096, 4097, 8192} | {samplers._HALVING_BLOCK + k for k in (-1, 0, 1)}))
def test_blocked_halving_gives_the_runs_of_one_block(monkeypatch, name, lines):
    # the halving levels run over blocks of lines; runs come out in line order, exactly as from one block of all lines
    surface = _catalog_torus("default") if name == "catalog-torus" else POLYNOMIAL_SURFACES[name][0]()
    dirs, feet = sample_line_batch(Pseudo(3201), 3, surface.clip_radius, 9000)
    half = samplers._chord_half_lengths(feet, surface.clip_radius)
    inside = np.flatnonzero(half > 0.0)[:lines]
    assert len(inside) == lines
    args = (surface.field.line_polynomial, dirs[inside], feet[inside], half[inside])
    blocked = samplers._polynomial_runs(*args)
    monkeypatch.setattr(samplers, "_HALVING_BLOCK", 10**9)
    whole = samplers._polynomial_runs(*args)
    assert [part.tobytes() for part in blocked] == [part.tobytes() for part in whole]
    assert lines < 100 or len(blocked[0]) > lines // 4  # runs to compare: most lines meet each surface
