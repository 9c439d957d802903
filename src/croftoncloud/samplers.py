"""Point-cloud generation for the three surface types.

Line clouds, on any of the three: draw kinematic-measure lines, intersect
each with the surface, and append the hits in increasing parameter order.
Because the expected number of hits a line makes with any region is
proportional to that region's area, the appended sequence is equidistributed
on the surface.  The clouds read a surface through ``crofton._resolve``, as
the estimators do, so a cloud and an estimate are one line statistic.  An
implicit surface's chord inside the clip ball is scanned into one list of
brackets, each refined by safeguarded Illinois steps, and a located bracket
that turns out to be a pole is dropped; a mesh, or a chart through its grid
triangulation, is cut by exact line-triangle tests.

Triangle clouds make one area-weighted draw: pick a triangle through the
cumulative-area table, fold a point into the simplex, and take its
barycentric combination of a per-triangle corner table.  A pick starts
from a guide table (Chen & Asau 1974) of one bucket per table entry, so it
costs O(1) expected steps rather than a binary search, and it returns the
binary search's index bit for bit.  A chart's normals come from its
analytic ``partials`` when it has them.  A triangulated
surface passes its own triangles.  A parametric surface passes the
parameter triangles of its grid triangulation and maps the point by the
chart, so outputs lie exactly on the surface rather than on the
piecewise-linear proxy (the selection weights still come from the proxy, a
bias that shrinks like the squared grid step).

The scan has no knobs: :data:`SCAN_STEPS` equal cells per ball chord and
:data:`ROOT_TOL` on each refined hit.  A polynomial that vanishes wherever
the field does, on each line (the field's ``line_polynomial``: a compiled
polynomial's own, or the catalog torus's quartic multiple; Bernstein
bounds, :func:`_polynomial_runs`), else the bounding box, else nothing,
only picks which of those cells a line evaluates (:func:`_scan_runs`);
every node is a ball scan node and every value the field's, so neither
changes an output bit.  Lines are scanned widest run first, in tiles of
whole rows of one width and at most :data:`SCAN_TILE` nodes, so the scan's
memory does not grow with the line count.  A feature thinner than one cell
(a short chord through an edge or a vertex) can show no sign change and be
missed; a certified scan that finds such chords is the fix the roadmap
holds (item 1), not a finer user-set step count.  A bracket is read from
the signs of the field at the nodes, never from products of its values,
so a field scaled by 1e-200 or 1e200 has the hits of the unscaled one; a
scan that only counts stops at the counts, and reads its boundary hits off
the first and last columns of each tile.

The axis-aligned sampler reproduces the legacy approach (lines parallel to
coordinate axes); its clouds have local density proportional to
|n_x| + |n_y| + |n_z|, varying by a factor sqrt(3) across orientations, and
is kept as a fixture for density diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from . import geometry, rng
from .rng import ScalarSource
from .surfaces import (
    ImplicitSurface,
    ParametricSurface,
    TriangulatedSurface,
    triangulate_parametric,
)

__all__ = [
    "PointCloud",
    "cloud_implicit",
    "cloud_axis_aligned",
    "cloud_triangulated",
    "cloud_parametric",
    "SurfaceNotFound",
]

#: lines per chunk of the line clouds and estimators (a mesh's chunk may be smaller); seeded output does not depend
#: on it.  A scan tile holds at most SCAN_TILE nodes, and the polynomial runs hold the chunk's coefficients plus the
#: pieces of at most _HALVING_BLOCK lines
DEFAULT_LINE_CHUNK = 8192
#: lines whose Bernstein pieces _polynomial_runs halves together; seeded output does not depend on it
_HALVING_BLOCK = DEFAULT_LINE_CHUNK // 4
#: lines a cloud draws without a single hit before raising SurfaceNotFound
MAX_EMPTY_LINES = 200_000
#: equal scan cells per ball chord, a power of two; Bernstein bounds or a bounding box only pick which of them are
#: evaluated, and a feature thinner than one cell can show no sign change and be missed
SCAN_STEPS = 256
#: scan nodes per tile, at most (a tile holds at least one row): lines are scanned a tile of whole rows at a time, so
#: the grid and its field values stay in cache; seeded output does not depend on it
SCAN_TILE = 1 << 14
#: absolute parameter error of each refined hit: a bracket is refined until it is at most 2 ROOT_TOL wide
ROOT_TOL = 1e-10
#: Illinois rounds per bracket, a cap reached only if ROOT_TOL is below the chord's rounding; a bracket of the catalog
#: torus takes about 5 on average, where bisection took 27
MAX_REFINE = 200


class SurfaceNotFound(RuntimeError):
    """No line in the budget met the surface inside the clip ball."""


@dataclass
class PointCloud:
    """Cloud points plus provenance, stored as parallel arrays.

    ``line_index``/``line_t`` are set by the line samplers (index of the
    generating line and the hit parameter), ``triangle_index`` by the
    triangle samplers.  ``per_line_counts[j]`` is the number of hits line j
    contributed, so ``per_line_counts.sum() == len(cloud)``.
    """

    positions: np.ndarray
    normals: Optional[np.ndarray] = None
    line_index: Optional[np.ndarray] = None
    line_t: Optional[np.ndarray] = None
    triangle_index: Optional[np.ndarray] = None
    lines_used: int = 0
    per_line_counts: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def mean_hits_per_line(self) -> float:
        if not self.lines_used:
            return 0.0
        return len(self) / self.lines_used


def _chord_half_lengths(feet: np.ndarray, clip: float) -> np.ndarray:
    inside = clip * clip - (feet * feet).sum(axis=1)
    return np.sqrt(np.maximum(inside, 0.0))


def _field_on_grid(surface: ImplicitSurface, dirs, feet, t_grid):
    # built axis by axis, so each coordinate pts[..., k] is one contiguous block
    pts = t_grid * dirs.T[:, :, None]
    pts += feet.T[:, :, None]
    pts = pts.transpose(1, 2, 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = np.asarray(surface.field(pts), dtype=np.float64)
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise FloatingPointError(f"field not finite at (x, y, z) = {tuple(pts[i, j].tolist())}, t = {t_grid[i, j]}")
    return values


def _illinois_step(surface, state, width, dirs, feet):
    """One round of :func:`_refine_bisection` on the brackets of *state*, in place.

    *dirs* and *feet* are the brackets' own lines; *dirs* is overwritten.
    """
    lo, hi, f_lo, f_hi, _, _, width_3, moved, lo_negative = state
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = lo + width * (f_lo / (f_lo - f_hi))
    secant = (lo <= t) & (t <= hi) & (width <= 0.5 * width_3)
    t = np.clip(np.where(secant, t, 0.5 * (lo + hi)), lo + ROOT_TOL, hi - ROOT_TOL)
    points = dirs
    points *= t[:, None]
    points += feet
    g = np.asarray(surface.field(points), dtype=np.float64)
    low_side, zero = (g < 0.0) == lo_negative, g == 0.0
    side = np.where(low_side, -1.0, 1.0)
    again = side == moved
    # an exact zero closes its bracket on itself
    state[0] = np.where(low_side | zero, t, lo)
    state[1] = np.where(low_side & ~zero, hi, t)
    state[2] = np.where(low_side, g, np.where(again, 0.5 * f_lo, f_lo))
    state[3] = np.where(low_side, np.where(again, 0.5 * f_hi, f_hi), g)
    state[5:7] = state[4:6]
    state[4], state[7] = width, side


# named for the bisection it replaced: perfbench/layertrace.py traces the refinement layer under this name
def _refine_bisection(surface, dirs, feet, t_lo, t_hi, g_lo, g_hi):
    """The sign change in each bracket ``[t_lo, t_hi]`` (field values *g_lo*, *g_hi* of opposite signs), to ROOT_TOL.

    Safeguarded Illinois steps (Dowell & Jarratt, BIT 1971): the secant
    point of the bracket's ends, where the value of an end that stays for a
    second step in a row is halved, so that both ends close in.  A step
    takes the midpoint instead when the secant point is outside the bracket
    (or nan), or when the bracket has not halved over the last three
    rounds; and every step lies at least ROOT_TOL inside the bracket, so
    one that lands within ROOT_TOL of a root closes the bracket past it.
    Sides are read from the field's sign, never from a product of values,
    which can underflow.  A bracket stops once it is at most 2 ROOT_TOL
    wide and returns its midpoint (an exact zero, when it met one), so its
    rounds never depend on the other brackets of its batch, and each round
    evaluates the field only at the brackets still live.  The float state
    of the live brackets is one block, compacted by one ``take`` when some
    stop, and each step (:func:`_illinois_step`) updates it in place, so no
    two copies of it outlive a round.  The arguments are not written to.
    """
    ts = np.empty_like(t_lo)
    live = np.arange(len(t_lo))
    # one row each: the ends, their field values, the widths one, two and three rounds back, the end the last step
    # moved (-1 low, 1 high, 0 none yet) and the low end's sign (1 negative); a one-sided secant step, a second one
    # and the Illinois step halve a bracket in three rounds, so a check after two would put a midpoint before every
    # Illinois step (6.2 field points per torus bracket, against 5.0)
    state = np.vstack((t_lo, t_hi, g_lo, g_hi, *np.full((3, len(live)), np.inf), np.zeros(len(live)), g_lo < 0.0))
    for _ in range(MAX_REFINE):
        width = state[1] - state[0]
        done = width <= 2.0 * ROOT_TOL
        if done.any():
            ts[live[done]] = 0.5 * (state[0, done] + state[1, done])
            keep = np.flatnonzero(~done)
            live, width, state = live[keep], width[keep], state.take(keep, axis=1)
        if not len(live):
            break
        _illinois_step(surface, state, width, dirs.take(live, axis=0), feet.take(live, axis=0))
    # brackets still live after MAX_REFINE rounds (ROOT_TOL below the rounding of t) take their midpoints
    ts[live] = 0.5 * (state[0] + state[1])
    return ts


def _polynomial_runs(line_polynomial, dirs, feet, half):
    """Runs ``(lines, first, width)`` of the ball cells that may hold a bracket of a field, from a polynomial q.

    q, the field's ``line_polynomial``, vanishes wherever the field does: it
    is the field itself when that is a polynomial, or a multiple q = f g of
    the field f, with g continuous.  De Casteljau halves each chord's
    Bernstein form of q on [-half, half] down to the SCAN_STEPS cells and
    drops a piece once its coefficients all clear the guard with one sign,
    which the field then has at every scan node in it, its end nodes
    included.  A run is a maximal stretch of a line's adjacent candidate
    cells, with no margin: a dropped cell holds no bracket, and a zero node
    leaves both of its cells as candidates.  One ``line_polynomial`` pass
    gives every line's coefficients; the halving runs over blocks of at most
    _HALVING_BLOCK lines, in line order, so its pieces do not grow with it.

    The guard, for q's degree D and K ``rounds``, u = 2^-53, the majorant m
    (q's program on |feet|, |dirs| and |constants|, differences read as
    sums) and M = 3^D m(half): rounding moves q at the nodes (their t, points
    and evaluation) by (3D + K) u M, the Bernstein form by K(D + 1) u M from
    the coefficients (a step sums up to D + 1 products), by (2D + 7) u M from
    the scaling, basis change and division by the guard, and by 8D u M in 8
    halvings.  2u (K + 12)(D + 2) M covers it all, underflow aside, and
    leaves (K(D + 2) + 11D + 41) u M unspent: (6K + 85) u M at D = 4.

    On a multiple, a dropped piece has q of one sign, with that margin, on
    its chord and on the rounded nodes near it, so neither f nor g has a
    zero there: f has one sign at every node, and |f| >= |q| / |g|.  The
    computed f keeps that sign where f's own rounding e_f times |g| stays
    below q's margin; q's evaluation at the nodes, K u M above, is never
    run.  On the catalog torus (ring R, tube r), with rho = sqrt(x^2 + y^2),
    f's majorant F = (rho + |R|)^2 + z^2 + r^2 bounds |g| too, and
    e_f <= 9u F to first order: the rounded rho is off by 2u rho, its
    difference with R by 3u (rho + |R|), its square by 7u (rho + |R|)^2,
    and z^2, the sum and the difference add u z^2 + 2u F.  Also
    F^2 <= 2 ((|p|^2 + R^2 + r^2)^2 + 4R^2 rho^2), which m bounds on the
    chord because r^2 is subtracted from a line term, not folded into a
    constant.  So e_f |g| <= 18u m, and the rounding of the printed R^2
    moves q by at most 2u m more (4R^2 is exactly four times it): 20u m,
    below u M / 4 at D = 4, well inside the unspent K u M (K = 7).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        power_form = line_polynomial(dirs, feet)
        n = len(power_form) - 1
        j = np.arange(n + 1)
        binomial = np.array([[comb(a, b) for b in j] for a in j], dtype=np.float64)
        # on [-1, 1]: b = B S e, B[i, j] = C(i, j) / C(n, j), S[j, k] = C(k, j) 2^j (-1)^(k - j); (|B| |S|)[i, k] <= 3^k
        to_bernstein = (binomial / binomial[-1]) @ (binomial.T * 2.0 ** j[:, None] * (-1.0) ** (j - j[:, None]))
        powers = half ** j[:, None]
        majorant = (line_polynomial(dirs, feet, majorant=True) * powers).sum(axis=0)
        guard = majorant * (2.0**-52 * (line_polynomial.rounds + 12) * (n + 2) * 3.0**n)
        # in units of the guard; a line whose guard is 0 or whose form is not finite keeps every cell
        bern = to_bernstein @ (power_form * powers) / guard
    bern[:, ~np.isfinite(bern).all(axis=0)] = 0.0
    left = binomial / 2.0 ** j[:, None]  # the exact de Casteljau weights of the left half; the right half's mirror them
    halves = np.vstack((left, left[::-1, ::-1]))
    blocks = [np.empty(0, dtype=np.intp)]  # one empty entry, so the concatenation below holds on no lines
    for start in range(0, len(half), _HALVING_BLOCK):
        pieces = bern[:, start : start + _HALVING_BLOCK]
        keys = np.arange(start, start + pieces.shape[1]) * SCAN_STEPS  # a piece's line * SCAN_STEPS + first cell
        for level in range(SCAN_STEPS.bit_length()):
            keep = np.flatnonzero((pieces.min(axis=0) <= 1.0) & (pieces.max(axis=0) >= -1.0))
            keys = keys[keep]
            if 1 << level == SCAN_STEPS:
                break
            pieces = (halves @ pieces.take(keep, axis=1)).reshape(2, n + 1, -1).transpose(1, 0, 2).reshape(n + 1, -1)
            keys = np.concatenate((keys, keys + (SCAN_STEPS >> level + 1)))
        blocks.append(np.sort(keys))
    lines, cells = np.divmod(np.concatenate(blocks), SCAN_STEPS)
    start = np.ones(len(lines) + 1, dtype=bool)  # start[i]: candidate i starts a run, and candidate i - 1 ends one
    start[1:-1] = (lines[1:] != lines[:-1]) | (cells[1:] - cells[:-1] > 1)
    first = cells[start[:-1]]
    return lines[start[:-1]], first, cells[start[1:]] + 1 - first


def _scan_runs(surface: ImplicitSurface, dirs, feet):
    """The ball scan's runs of nodes: ``(ids, half, first, width)``, widest run first.

    Line ``ids[i]`` scans nodes ``first[i] .. first[i] + width[i]`` of the
    ball grid ``half[i] * linspace(-1, 1, SCAN_STEPS + 1)``, *half* its ball
    chord's half-length.  A field's ``line_polynomial``, a polynomial that
    vanishes wherever the field does (its own, or the catalog torus's quartic
    multiple), gives the runs (:func:`_polynomial_runs`, some lines several),
    else the box (the pyramid's, or any plain callable's; None is the
    infinite box): every cell meeting its part of the chord plus one on each
    side (the others hold no bracket), in whole 16-cell steps: few tile widths.
    """
    half = _chord_half_lengths(feet, surface.clip_radius)
    if hasattr(surface.field, "line_polynomial"):
        ids = np.flatnonzero(half > 0.0)
        lines, first, width = _polynomial_runs(surface.field.line_polynomial, dirs[ids], feet[ids], half[ids])
        ids = ids[lines]
    else:
        lo, hi = surface.bounds or ((-np.inf,) * 3, (np.inf,) * 3)
        with np.errstate(divide="ignore"):
            inv = 1.0 / dirs
        t0, t1 = geometry.slab_chord(lo, hi, np.signbit(dirs), inv, feet, half)
        ids = np.nonzero(t0 < t1)[0]
        scale = 0.5 * SCAN_STEPS / half[ids]
        first = np.maximum(np.floor((t0[ids] + half[ids]) * scale).astype(np.intp) - 1, 0)
        last = np.floor((t1[ids] + half[ids]) * scale).astype(np.intp) + 2
        width = np.minimum((last - first + 15) & -16, SCAN_STEPS)
        first = np.minimum(first, SCAN_STEPS - width)
    half = half[ids]
    order = np.argsort(-width, kind="stable")
    return ids[order], half[order], first[order], width[order]


def _scan_lines(surface: ImplicitSurface, dirs, feet, want_points: bool):
    """Count (and optionally locate) transverse hits for a batch of lines.

    Returns ``(counts, line_ids, ts, boundary_hits)``: per-line hit counts,
    flat hit arrays in (line, t) order when ``want_points`` is true, and the
    number of hits falling in the first or last cell of the ball scan (a
    cheap proxy for hits at the clip boundary).  A bracket is a strict sign
    change across a cell, or the zero-width bracket of an exact zero at an
    interior node between opposite signs (never a boundary hit); tangential
    touches are dropped.  Locating hits drops poles from every output: the
    brackets with |field| at the refined point above |field| at both ends.
    Every node is a ball scan node, so a bounding box changes no output bit.
    A tile holds rows of one run width, so a row evaluates its run's nodes only.
    """
    counts = np.zeros(len(dirs), dtype=np.int64)
    scan_ids, scan_half, scan_first, scan_width = _scan_runs(surface, dirs, feet)
    nodes = np.linspace(-1.0, 1.0, SCAN_STEPS + 1)
    # one empty entry, so the concatenation below holds when no line is scanned
    brackets = [tuple(np.empty(0, dtype) for dtype in (np.intp, float, float, float, float, np.intp))]
    width_stop = np.searchsorted(-scan_width, -scan_width, side="right")  # rows widest first: where each width ends
    start, width, boundary = 0, -1, 0
    while start < len(scan_ids):
        if scan_width[start] != width:
            width = int(scan_width[start])
            runs = np.lib.stride_tricks.sliding_window_view(nodes, width + 1)
        tile = slice(start, min(start + max(1, SCAN_TILE // (width + 1)), width_stop[start]))
        start = tile.stop
        ids, first = scan_ids[tile], scan_first[tile]
        # scaled in place, so a tile allocates one grid-sized array here, not two
        t_grid = runs[first]
        t_grid *= scan_half[tile, None]
        g = _field_on_grid(surface, dirs[ids], feet[ids], t_grid)

        # sign masks, not products of values: a product of two tiny values underflows to 0 and hides its sign change
        neg, zero = g < 0.0, g == 0.0
        bracket = neg[:, :-1] != neg[:, 1:]
        if zero.any():
            # a zero node changes no sign, but an interior one between opposite signs brackets the cell to its right
            bracket &= ~(zero[:, :-1] | zero[:, 1:])
            bracket[:, 1:] |= zero[:, 1:-1] & (neg[:, :-2] != neg[:, 2:]) & ~(zero[:, :-2] | zero[:, 2:])
        cells = np.flatnonzero(bracket)
        row = cells // width
        np.add.at(counts, ids, np.bincount(row, minlength=len(ids)))
        if not want_points:
            # a hit in the ball's first cell, or a strict one in its last (not an interior zero's bracket)
            boundary += np.count_nonzero(bracket[:, 0] & (first == 0))
            boundary += np.count_nonzero(bracket[:, -1] & (first + width == SCAN_STEPS) & (g[:, -2] != 0.0))
            continue
        # the flat index of each bracket's low node in the tile's rows of width + 1 nodes
        node = cells + row
        g_flat, t_flat = g.reshape(-1), t_grid.reshape(-1)
        g_lo = g_flat[node]
        # a zero node's bracket ends where it starts
        end = node + (g_lo != 0.0)
        brackets.append((ids[row], t_flat[node], t_flat[end], g_lo, g_flat[end], first[row] + cells - row * width))

    if not want_points:
        return counts, None, None, int(boundary)
    line_ids, t_lo, t_hi, g_lo, g_hi, cells = (np.concatenate(part) for part in zip(*brackets))
    ts = t_lo
    if len(ts):
        ts = _refine_bisection(surface, dirs[line_ids], feet[line_ids], t_lo, t_hi, g_lo, g_hi)
        # a pole: the field changes sign through infinity, so it grows toward the refined point
        pole = abs(surface.field(feet[line_ids] + ts[:, None] * dirs[line_ids])) > np.maximum(abs(g_lo), abs(g_hi))
        np.subtract.at(counts, line_ids[pole], 1)
        line_ids, ts, g_lo, cells = (part[~pole] for part in (line_ids, ts, g_lo, cells))
    boundary = int(np.count_nonzero(((cells == 0) | (cells == SCAN_STEPS - 1)) & (g_lo != 0.0)))
    order = np.lexsort((ts, line_ids))
    return counts, line_ids[order], ts[order], boundary


def _unit_normals(surface: ImplicitSurface, points: np.ndarray) -> np.ndarray:
    """Normalized field gradients at *points* ``(m, 3)``; raises FloatingPointError where one is 0 or not finite."""
    if not len(points):
        return np.empty((0, 3))
    grads = surface.gradient_at(points)
    normals = geometry._unit(grads)
    if np.isnan(normals[:, 0]).any():  # a gradient with no direction gives a row of nan
        i = int(np.argmax(np.isnan(normals[:, 0])))
        raise FloatingPointError(f"no unit normal at {points[i].tolist()}: gradient {grads[i].tolist()}")
    return normals


def _kinematic_lines(src: ScalarSource, clip: float, count: int):
    """*count* lines of the kinematic measure through the ball of radius *clip*: ``(dirs, feet)``."""
    return geometry.sample_line_batch(src, 3, clip, count)


def _axis_aligned_lines(src: ScalarSource, clip: float, count: int):
    """*count* lines along the six signed coordinate axes, feet uniform on the disk of radius *clip*."""
    # line j reads scalars 4j .. 4j + 3: its signed axis, then its disk point
    xi = src.take(4 * count).reshape(count, 4)
    picks = np.minimum((xi[:, 0] * 6.0).astype(np.int64), 5)
    axes = picks >> 1
    signs = np.where(picks & 1, -1.0, 1.0)
    dirs = np.zeros((count, 3))
    dirs[np.arange(count), axes] = signs
    disk = rng._ball_points(xi[:, 1:], 2) * clip
    feet = np.zeros((count, 3))
    feet[np.arange(count), (axes + 1) % 3] = disk[:, 0]
    feet[np.arange(count), (axes + 2) % 3] = disk[:, 1]
    return dirs, feet


def _line_hits(src: ScalarSource, clip: float, hits, next_count, want_points: bool = True, draw=_kinematic_lines):
    """Draw lines in chunks, intersect them with a surface, and collect the hits.

    ``draw(src, clip, count)`` gives ``(dirs, feet)``; ``hits(dirs, feet,
    want_points)`` gives ``(counts, line_ids, ts, boundary_hits, tri_ids)``
    as the hits of ``crofton._resolve`` do.  The stop rule
    ``next_count(lines_done, hits_done)`` returns the size of the next
    chunk, 0 to stop.  Returns ``(counts, line_ids, ts, points, tri_ids)``
    over all lines drawn, hits in line order, with line ids counted from the first chunk; the
    last four are None unless *want_points*, and ``tri_ids`` is None for an
    implicit surface.  Warns when any hit lies at the clip boundary.
    """
    counts_parts, id_parts, t_parts, pt_parts, tri_parts = [], [], [], [], []
    lines_done = hits_done = boundary = 0
    while count := next_count(lines_done, hits_done):
        dirs, feet = draw(src, clip, count)
        counts, line_ids, ts, nb, tri_ids = hits(dirs, feet, want_points)
        boundary += nb
        if want_points:
            id_parts.append(line_ids + lines_done)
            t_parts.append(ts)
            pt_parts.append(feet[line_ids] + ts[:, None] * dirs[line_ids])
            tri_parts.append(tri_ids)
        counts_parts.append(counts)
        lines_done += count
        hits_done += int(counts.sum())
    if boundary:
        warnings.warn("clip radius may truncate surface", stacklevel=4)
    counts = np.concatenate(counts_parts)
    if not want_points:
        return counts, None, None, None, None
    tri_ids = None if tri_parts[0] is None else np.concatenate(tri_parts)
    return counts, np.concatenate(id_parts), np.concatenate(t_parts), np.concatenate(pt_parts), tri_ids


def _cloud_from_lines(surface, src: ScalarSource, n_points: int, draw) -> PointCloud:
    # crofton imports this module, and its resolver is the one map from a surface to its hits
    from . import crofton

    if n_points < 1:
        raise ValueError("target point count must be at least 1")
    hits, clip, chunk, normals = crofton._resolve(surface, None)

    def next_count(lines_done, hits_done):
        if hits_done >= n_points:
            return 0
        if hits_done == 0 and lines_done >= MAX_EMPTY_LINES:
            raise SurfaceNotFound(
                f"no intersections after {lines_done} lines; surface not found in ball of radius {clip}"
            )
        return chunk

    counts, line_ids, ts, positions, tri_ids = _line_hits(src, clip, hits, next_count, draw=draw)
    # keep whole lines up to and including the one reaching the target: hits come in line order, so a prefix
    lines_used = int(np.searchsorted(np.cumsum(counts), n_points)) + 1
    kept = int(counts[:lines_used].sum())
    positions = positions[:kept]
    tri_ids = None if tri_ids is None else tri_ids[:kept]
    return PointCloud(
        positions=positions,
        normals=normals(positions, tri_ids),
        line_index=line_ids[:kept],
        line_t=ts[:kept],
        triangle_index=tri_ids,
        lines_used=lines_used,
        per_line_counts=counts[:lines_used],
    )


def cloud_implicit(surface, src: ScalarSource, n_points: int) -> PointCloud:
    """Equidistributed cloud of at least *n_points* points on any surface, from kinematic lines.

    The surface is read as the estimators read it: an implicit surface in
    its clip ball, with unit gradient normals; a mesh, or a chart through its
    grid triangulation, in its bounding ball, with the hit triangle's normal
    and index.  Lines are drawn in chunks, line j the same whatever the
    chunk size; generation stops at the end of the line that reaches the
    target, so the cloud may exceed it by the final line's hit count.  Warns
    when hits fall at the clip sphere, where the clip ball may cut the
    surface.
    """
    return _cloud_from_lines(surface, src, n_points, _kinematic_lines)


def cloud_axis_aligned(surface, src: ScalarSource, n_points: int) -> PointCloud:
    """Legacy sampler: directions drawn from the six signed coordinate axes.

    Takes every surface form, as :func:`cloud_implicit` does.  Kept for
    comparison; its clouds carry the sqrt(3) density variation across
    surface orientations and fail density audits by design.
    """
    return _cloud_from_lines(surface, src, n_points, _axis_aligned_lines)


_CLAMP = 1.0 - 2.0**-52


#: forward steps a pick may take from its guide-table entry before the rest go to a binary search
_GUIDE_STEPS = 4


def _select_triangles(src: ScalarSource, cumulative: np.ndarray, count: int) -> np.ndarray:
    """Smallest j with ``x < cumulative[j]`` for each of *count* x uniform in [0, cumulative[-1]).

    The indices of ``np.searchsorted(cumulative, xs, side="right")``, found
    through a guide table (Chen & Asau 1974): the m table entries get m
    buckets, and ``guide[b]`` is the first entry whose own bucket is at
    least b.  Buckets come from one monotone map, so an x in bucket b
    never selects below ``guide[b]`` and a pick only walks forward.  The
    first :data:`_GUIDE_STEPS` steps are vectorised passes over the picks
    still short of their entry; the few left over (many entries crowded
    into one bucket) take the binary search.
    """
    total, m = cumulative[-1], len(cumulative)
    xs = src.take(count) * total * _CLAMP

    def bucket(x):
        return np.minimum((x / total * m).astype(np.intp), m - 1)

    picks = np.searchsorted(bucket(cumulative), np.arange(m))[bucket(xs)]
    short = np.flatnonzero(cumulative[picks] <= xs)
    for _ in range(_GUIDE_STEPS):
        if not short.size:
            return picks
        picks[short] += 1
        short = short[cumulative[picks[short]] <= xs[short]]
    picks[short] = np.searchsorted(cumulative, xs[short], side="right")
    return picks


def _area_weighted(src: ScalarSource, mesh: TriangulatedSurface, corners: np.ndarray, count: int):
    """``(chosen, points)``: *count* area-weighted triangles of *mesh* and a uniform point in each.

    Point i scales scalar i to the cumulative-area table to pick its
    triangle; scalars count + 2i and count + 2i + 1 give (u, v) on the
    2-simplex, pairs above u + v = 1 folded to (1 - u, 1 - v).  The point
    combines the triangle's row of *corners* ``(n, 3, d)`` by (u, v, 1 - u - v).
    """
    if count < 1:
        raise ValueError("target point count must be at least 1")
    chosen = _select_triangles(src, mesh.cumulative_areas, count)
    u, v = src.take(2 * count).reshape(count, 2).T
    above = u + v > 1.0
    u, v = np.where(above, 1.0 - u, u), np.where(above, 1.0 - v, v)
    # (u a + v b) + w c in place, one corner's rows gathered at a time: the bits of the one-expression form
    points = corners[:, 0].take(chosen, axis=0)
    points *= u[:, None]
    for k, weight in ((1, v), (2, 1.0 - u - v)):
        term = corners[:, k].take(chosen, axis=0)
        term *= weight[:, None]
        points += term
    return chosen, points


def cloud_triangulated(surface: TriangulatedSurface, src: ScalarSource, n_points: int) -> PointCloud:
    """Cloud of exactly *n_points* area-weighted points on the triangle list.

    Points are drawn by :func:`_area_weighted` on the triangles
    themselves.  Normals are the mesh's cached flat per-triangle normals,
    oriented by vertex order.
    """
    chosen, pts = _area_weighted(src, surface, surface.triangles, n_points)
    return PointCloud(positions=pts, normals=surface.normals[chosen], triangle_index=chosen)


def _chart_normals(surface: ParametricSurface, pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """Unit du x dv from the chart's own partials, else central differences; nan where the cross is 0 or not finite."""
    if surface.partials is not None:
        du, dv = map(np.asarray, surface.partials(pu, pv))
    else:
        hu = 1e-6 * (surface.domain.highs[0] - surface.domain.lows[0])
        hv = 1e-6 * (surface.domain.highs[1] - surface.domain.lows[1])
        du = (np.asarray(surface.chart(pu + hu, pv)) - np.asarray(surface.chart(pu - hu, pv))) / (2 * hu)
        dv = (np.asarray(surface.chart(pu, pv + hv)) - np.asarray(surface.chart(pu, pv - hv))) / (2 * hv)
    return geometry._unit(geometry._cross(du, dv))


def cloud_parametric(surface: ParametricSurface, src: ScalarSource, n_points: int) -> PointCloud:
    """On-surface cloud: triangle weights from the grid proxy, points from the chart.

    The sampled simplex point is formed in parameter space (barycentric
    combination of the parameter triangle) and mapped by the chart, so every
    output satisfies the surface equation exactly.  Normals are the chart's
    unit du x dv, from its ``partials`` when it has them.

    Triangles are weighted by the area of the flat grid proxy, not of the
    surface patch they map to, so a coarse grid biases the cloud.  On the
    torus chart (R = 2, r = 0.5) the expected share of points farther than
    R from the axis falls short of its exact 0.5796 by 0.0049 at
    ``u_res = v_res = 8``, 0.00089 at 16, 0.00021 at 32 and 0.000015 at the
    default 128 x 256: 14, 2.6, 0.6 and 0.04 standard errors of a
    2,000,000-point cloud.
    """
    mesh, params = triangulate_parametric(surface)
    chosen, uv = _area_weighted(src, mesh, params, n_points)
    # contiguous parameter arrays, as the chart and its partials read them
    pu, pv = np.ascontiguousarray(uv.T)
    pts = np.asarray(surface.chart(pu, pv), dtype=np.float64)
    return PointCloud(
        positions=pts,
        normals=_chart_normals(surface, pu, pv),
        triangle_index=chosen,
    )
