"""Equidistribution test engine and the quadrature complexity benchmark.

The counting tests quantify how closely an empirical sequence tracks a
target measure: region tests compare hit frequencies of fixed regions
against their analytic measure fractions (z-scores under the binomial
null), and k-tuple tests bin overlapping windows ``(x_n, ..., x_(n+k-1))``
into a grid of product boxes and apply a chi-square gate (``scipy.special``,
imported only there, gives its percentile; the package imports no scipy).

``density_variation`` audits a surface cloud for orientation-dependent
density (the defect of axis-aligned line sampling), and ``curse_benchmark``
tabulates midpoint-rule versus Monte Carlo integration error as a function
of evaluation budget.

``catalog_suite`` picks each catalog surface's audit, and ``catalog_audit``
runs it; every result applies its own gate, so the CLI only reports.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rng import BoxDomain, Pseudo, ScalarSource, sample_box
from .surfaces import CATALOG

__all__ = [
    "RegionTest",
    "RegionResult",
    "region_test",
    "KTupleResult",
    "ktuple_test",
    "DensityResult",
    "density_variation",
    "BenchRow",
    "curse_benchmark",
    "loglog_slope",
    "sphere_region_tests",
    "torus_region_tests",
    "mesh_face_region_tests",
    "mesh_nearest_face",
    "sphere_unit_scalar",
    "torus_angle_scalar",
    "mesh_cumulative_scalar",
    "catalog_suite",
    "catalog_audit",
]

Z_THRESHOLD = 3.0
KTUPLE_PERCENTILE = 0.999
MAX_KTUPLE_CELLS = 1_000_000
DENSITY_RATIO_GATE = 1.15  # a ratio fails only when large and statistically solid: ratio - 3 SE above this
DENSITY_MIN_EXPECTED = 100  # fewer expected points in the smallest density bin skip the density test


@dataclass(frozen=True)
class RegionTest:
    """A region with membership indicator and analytic measure fraction."""

    name: str
    indicator: Callable[[np.ndarray], np.ndarray]
    fraction: float

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(f"region fraction must lie strictly in (0, 1), got {self.fraction}")


@dataclass(frozen=True)
class RegionResult:
    name: str
    count: int
    total: int
    fraction: float
    z: float

    @property
    def passed(self) -> bool:
        return abs(self.z) < Z_THRESHOLD

    def record(self) -> dict:
        return {"test": "region", **asdict(self), "passed": self.passed}

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"region {self.name:<24} count {self.count:>8}/{self.total} "
            f"expected fraction {self.fraction:.6f}  z = {self.z:+.3f}  [{status}]"
        )


def region_test(samples: np.ndarray, tests: Sequence[RegionTest]) -> list[RegionResult]:
    """Binomial z-scores of region counts against their analytic fractions.

    *samples* may be scalars in [0, 1) or points (any trailing shape the
    indicators accept); a result passes when |z| < 3.
    """
    samples = np.asarray(samples)
    n = len(samples)
    results = []
    for test in tests:
        count = int(np.count_nonzero(np.asarray(test.indicator(samples), dtype=bool)))
        p = test.fraction
        z = (count - n * p) / np.sqrt(n * p * (1.0 - p))
        results.append(RegionResult(test.name, count, n, p, float(z)))
    return results


@dataclass(frozen=True)
class KTupleResult:
    k: int
    grid: int
    windows: int
    statistic: float
    dof: int
    threshold: float

    @property
    def passed(self) -> bool:
        return self.statistic < self.threshold

    def record(self) -> dict:
        return {"test": "ktuple", **asdict(self), "passed": self.passed}

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"ktuple k={self.k} grid={self.grid}  chi2 = {self.statistic:.2f} "
            f"(99.9% of chi2({self.dof}) = {self.threshold:.2f})  [{status}]"
        )


def ktuple_test(values: np.ndarray, k: int, grid: int) -> KTupleResult:
    """Chi-square over the grid^k boxes hit by overlapping k-windows.

    Windows advance with stride one: ``(x_1..x_k), (x_2..x_(k+1)), ...``
    exactly as in the k-fold equidistribution definition.  The pass gate is
    the 99.9th percentile of chi-square with grid^k - 1 degrees of freedom.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cells = grid**k
    if cells > MAX_KTUPLE_CELLS:
        raise ValueError(f"grid^k = {cells} exceeds the {MAX_KTUPLE_CELLS} cell budget")
    values = np.asarray(values, dtype=np.float64)
    # written so that nan fails too
    if not ((values >= 0.0) & (values < 1.0)).all():
        raise ValueError("values must lie in [0, 1)")
    if len(values) < k:
        raise ValueError("sequence shorter than the window")
    digits = np.minimum((values * grid).astype(np.int64), grid - 1)
    windows = sliding_window_view(digits, k)
    weights = grid ** np.arange(k - 1, -1, -1, dtype=np.int64)
    codes = windows @ weights
    counts = np.bincount(codes, minlength=cells)
    expected = len(codes) / cells
    statistic = float(((counts - expected) ** 2 / expected).sum())
    dof = cells - 1
    from scipy.special import chdtri  # chi2.ppf(KTUPLE_PERCENTILE, dof) bit for bit, without scipy.stats

    threshold = float(chdtri(dof, 1.0 - KTUPLE_PERCENTILE))
    return KTupleResult(k, grid, len(codes), statistic, dof, threshold)


@dataclass
class DensityResult:
    ratio: float
    ratio_stderr: float
    densities: np.ndarray
    counts: np.ndarray

    @property
    def passed(self) -> bool:
        return self.ratio - 3.0 * self.ratio_stderr <= DENSITY_RATIO_GATE

    def record(self) -> dict:
        return {
            "test": "density",
            "ratio": self.ratio,
            "ratio_stderr": self.ratio_stderr,
            "densities": self.densities.tolist(),
            "counts": self.counts.tolist(),
        }

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"density max/min ratio = {self.ratio:.4f} +- {self.ratio_stderr:.4f} "
            f"over {len(self.densities)} bins  [{status}]"
        )


def density_variation(
    labels: np.ndarray,
    bin_areas: np.ndarray,
    n_bootstrap: int = 200,
    seed: int = 0,
) -> DensityResult:
    """Max/min local density over bins, with a bootstrap standard error.

    *labels* assigns each cloud point a bin index (negative = unbinned,
    dropped); *bin_areas* holds each bin's surface area.  Local density is
    count/area.  The bootstrap resamples the bin assignment multinomially.
    """
    labels = np.asarray(labels)
    areas = np.asarray(bin_areas, dtype=np.float64)
    labels = labels[labels >= 0]
    counts = np.bincount(labels, minlength=len(areas))
    if (counts == 0).any():
        raise ValueError("empty density bins; generate more points or coarsen the bins")
    densities = counts / areas
    ratio = float(densities.max() / densities.min())
    gen = np.random.default_rng(seed)
    total = int(counts.sum())
    boot = gen.multinomial(total, counts / total, size=n_bootstrap) / areas
    with np.errstate(divide="ignore"):
        ratios = boot.max(axis=1) / np.where(boot.min(axis=1) > 0, boot.min(axis=1), np.inf)
    return DensityResult(ratio, float(ratios.std(ddof=1)), densities, counts)


# ---------------------------------------------------------------------------
# quadrature complexity benchmark


@dataclass(frozen=True)
class BenchRow:
    method: str
    evaluations: int
    error: float

    def record(self) -> dict:
        return asdict(self)


def midpoint_rule(fn, n_dims: int, cells_per_axis: int) -> float:
    """Midpoint quadrature of *fn* over the unit cube on a k^n grid."""
    mids = (np.arange(cells_per_axis) + 0.5) / cells_per_axis
    grids = np.meshgrid(*([mids] * n_dims), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return float(np.asarray(fn(pts)).mean())


def monte_carlo_prefix_estimates(fn, n_dims: int, budgets: Sequence[int], src: ScalarSource) -> np.ndarray:
    """Sample-mean estimates at each budget, reusing one stream's prefix."""
    budgets = sorted(int(b) for b in budgets)
    pts = sample_box(src, BoxDomain.cube(n_dims, 0.0, 1.0), size=budgets[-1])
    csum = np.cumsum(np.asarray(fn(pts), dtype=np.float64))
    return np.array([csum[b - 1] / b for b in budgets])


def curse_benchmark(
    fn,
    n_dims: int,
    truth: float,
    budgets: Sequence[int] = (100, 1_000, 10_000, 100_000, 1_000_000),
    n_seeds: int = 32,
    base_seed: int = 1000,
) -> list[BenchRow]:
    """Error-versus-budget rows for Monte Carlo, then midpoint quadrature.

    *fn* is a vectorized integrand on the unit cube with known integral
    *truth* (benchmark fixtures only).  The ``"mc"`` rows report, per budget
    in increasing order, the RMS error over *n_seeds* independent streams;
    the ``"riemann"`` rows use the largest axis resolution whose grid fits
    the budget.  Raises ValueError without budgets, for a budget below 1 or
    for fewer than one seed.
    """
    budgets = sorted(int(b) for b in budgets)
    if not budgets or budgets[0] < 1 or n_seeds < 1:
        raise ValueError(f"need budgets of at least 1 and at least one seed, got budgets {budgets} and {n_seeds} seeds")
    errs = np.empty((n_seeds, len(budgets)))
    for i in range(n_seeds):
        est = monte_carlo_prefix_estimates(fn, n_dims, budgets, Pseudo(base_seed + i))
        errs[i] = est - truth
    rms = np.sqrt((errs**2).mean(axis=0))
    rows = [BenchRow("mc", budget, float(err)) for budget, err in zip(budgets, rms)]
    for budget in budgets:
        k = int(budget ** (1.0 / n_dims) + 1e-9)
        estimate = midpoint_rule(fn, n_dims, k)
        rows.append(BenchRow("riemann", k**n_dims, abs(estimate - truth)))
    return rows


def loglog_slope(pairs: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); zero y's are dropped."""
    xs = np.array([x for x, y in pairs if y > 0.0])
    ys = np.array([y for x, y in pairs if y > 0.0])
    if len(xs) < 2:
        raise ValueError("need at least two positive points for a slope")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# ---------------------------------------------------------------------------
# standard audits for the built-in surfaces


def sphere_region_tests(radius: float = 1.0) -> list[RegionTest]:
    """Octants, the z > r/2 cap, and the |z| < r/2 band on a sphere."""
    tests = []
    for sx, sy, sz in product((1, -1), repeat=3):
        name = f"octant{'+' if sx > 0 else '-'}{'+' if sy > 0 else '-'}{'+' if sz > 0 else '-'}"

        def ind(pts, sx=sx, sy=sy, sz=sz):
            return (sx * pts[:, 0] > 0) & (sy * pts[:, 1] > 0) & (sz * pts[:, 2] > 0)

        tests.append(RegionTest(name, ind, 0.125))
    # spherical cap z > h has area fraction (1 - h/r) / 2
    tests.append(RegionTest("cap z>r/2", lambda p: p[:, 2] > radius / 2.0, 0.25))
    tests.append(RegionTest("band |z|<r/2", lambda p: np.abs(p[:, 2]) < radius / 2.0, 0.5))
    return tests


def torus_region_tests(ring_radius: float = 2.0, tube_radius: float = 0.5) -> list[RegionTest]:
    """Ring-angle quadrants, a half-space, and the outer tube half."""
    tests = [
        RegionTest("half y>0", lambda p: p[:, 1] > 0, 0.5),
        RegionTest("upper z>0", lambda p: p[:, 2] > 0, 0.5),
    ]
    for q in range(4):
        lo, hi = q * np.pi / 2.0 - np.pi, (q + 1) * np.pi / 2.0 - np.pi

        def ind(pts, lo=lo, hi=hi):
            ang = np.arctan2(pts[:, 1], pts[:, 0])
            return (ang >= lo) & (ang < hi)

        tests.append(RegionTest(f"ring quadrant {q}", ind, 0.25))
    # outer half (radial distance beyond the ring) carries the fraction
    # 1/2 + tube/(pi * ring) of the area
    outer = 0.5 + tube_radius / (np.pi * ring_radius)

    def outer_ind(pts):
        return np.hypot(pts[:, 0], pts[:, 1]) > ring_radius

    tests.append(RegionTest("outer tube half", outer_ind, float(outer)))
    return tests


def mesh_nearest_face(mesh, points: np.ndarray) -> np.ndarray:
    """Index of the triangle whose plane lies nearest each point: a mesh cloud point's face.

    A degenerate triangle has no plane (its normal is nan) and is never nearest.
    """
    normals = mesh.normals
    offsets = np.einsum("ij,ij->i", normals, mesh.triangles[:, 0])
    dists = np.abs(points @ normals.T - offsets[None, :])
    return np.argmin(np.where(np.isnan(dists), np.inf, dists), axis=1)


def mesh_face_region_tests(mesh, min_fraction: float = 0.01) -> list[RegionTest]:
    """One region per triangle (nearest-plane membership), skipping slivers."""
    areas = mesh.areas
    has_plane = np.isfinite(mesh.normals).all(axis=1)
    tests = []
    for i, frac in enumerate(areas / areas.sum()):
        if frac < min_fraction or not has_plane[i]:
            continue

        def ind(pts, i=i):
            return mesh_nearest_face(mesh, pts) == i

        tests.append(RegionTest(f"face {i}", ind, float(frac)))
    return tests


def sphere_unit_scalar(points: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """(z + r) / 2r: uniform on [0, 1) for area-uniform sphere points."""
    u = (points[:, 2] + radius) / (2.0 * radius)
    return np.clip(u, 0.0, np.nextafter(1.0, 0.0))


def torus_angle_scalar(points: np.ndarray) -> np.ndarray:
    """Ring angle over 2 pi: uniform on [0, 1) by rotational symmetry."""
    u = (np.arctan2(points[:, 1], points[:, 0]) / (2.0 * np.pi)) % 1.0
    return np.clip(u, 0.0, np.nextafter(1.0, 0.0))


def mesh_cumulative_scalar(positions: np.ndarray, triangle_index: np.ndarray, mesh) -> np.ndarray:
    """Cumulative-area position of each mesh cloud point: uniform on [0, 1).

    Uses the triangle assignment plus the within-triangle probability
    transform of the third barycentric weight, so any area-uniform mesh
    cloud maps to a uniform scalar sequence.
    """
    positions = np.asarray(positions, dtype=np.float64)
    triangle_index = np.asarray(triangle_index)
    tris = mesh.triangles[triangle_index]
    # solve for barycentric weights in the triangle's plane
    d1 = tris[:, 0] - tris[:, 2]
    d2 = tris[:, 1] - tris[:, 2]
    rhs = positions - tris[:, 2]
    a11 = np.einsum("ij,ij->i", d1, d1)
    a12 = np.einsum("ij,ij->i", d1, d2)
    a22 = np.einsum("ij,ij->i", d2, d2)
    b1 = np.einsum("ij,ij->i", rhs, d1)
    b2 = np.einsum("ij,ij->i", rhs, d2)
    det = a11 * a22 - a12 * a12
    u = (b1 * a22 - b2 * a12) / det
    v = (b2 * a11 - b1 * a12) / det
    w = np.clip(1.0 - u - v, 0.0, 1.0)
    inner = 1.0 - (1.0 - w) ** 2  # CDF of the third weight under area measure
    cum = mesh.cumulative_areas
    starts = cum[triangle_index] - mesh.areas[triangle_index]
    scalar = (starts + mesh.areas[triangle_index] * inner) / cum[-1]
    return np.clip(scalar, 0.0, np.nextafter(1.0, 0.0))


def catalog_suite(name: str, positions: np.ndarray):
    """``(region tests, k-tuple scalar, density labels, bin areas)`` of the audit of catalog surface *name*.

    Density bins: the sphere's 14 equal caps about the axis and diagonal directions, which expose the
    axis-aligned density defect (-1 outside them and at the origin); the torus's 8 ring sectors; a mesh's faces.
    """
    if name == "sphere":
        centers = np.vstack([np.eye(3), -np.eye(3), np.array(list(product((1.0, -1.0), repeat=3))) / np.sqrt(3.0)])
        dots = positions @ centers.T  # cosine > 0.95 without dividing, so the origin is in no cap
        labels = np.where(dots.max(axis=1) > 0.95 * np.linalg.norm(positions, axis=1), dots.argmax(axis=1), -1)
        return sphere_region_tests(), sphere_unit_scalar(positions), labels, np.ones(len(centers))
    if name == "torus":
        scalar = torus_angle_scalar(positions)
        return torus_region_tests(), scalar, np.minimum((scalar * 8).astype(int), 7), np.ones(8)
    entry = CATALOG.get(name)
    if entry is not None and entry.mesh is not None:
        mesh = entry.mesh()
        labels = mesh_nearest_face(mesh, positions)
        return mesh_face_region_tests(mesh), mesh_cumulative_scalar(positions, labels, mesh), labels, mesh.areas
    raise ValueError(f"no audit suite for surface {name!r}; supported: sphere, torus, mesh catalog entries")


def catalog_audit(name: str, positions: np.ndarray) -> list[tuple]:
    """``(line, record or None, passed)`` of each region test, the k=2 k-tuple test and the density test.

    The density test has no record when skipped (it passes: its smallest bin expects fewer than
    ``DENSITY_MIN_EXPECTED`` of the binned points) or when a bin is empty (it fails).
    """
    tests, scalar, labels, areas = catalog_suite(name, positions)
    results = [*region_test(positions, tests), ktuple_test(scalar, k=2, grid=8)]
    outcomes = [(r.line(), r.record(), r.passed) for r in results]
    if int((labels >= 0).sum()) * (areas / areas.sum()).min() < DENSITY_MIN_EXPECTED:
        skipped = f"density: skipped (fewer than {DENSITY_MIN_EXPECTED} expected points per bin; generate more points)"
        return outcomes + [(skipped, None, True)]
    try:
        density = density_variation(labels, areas)
    except ValueError as err:
        return outcomes + [(f"density: FAIL ({err})", None, False)]
    return outcomes + [(density.line(), density.record(), density.passed)]
