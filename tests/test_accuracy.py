"""Accuracy matrix: catalog surfaces and estimators against closed forms that share no code with the estimators.

Each row runs at the fixed seeds SEEDS, chosen before any row was run, and
passes when the estimate lies within TOLERANCE_SE standard errors of the
closed value.  With 100,000 lines per run the estimate is close to normal,
so one run fails falsely with probability P(|Z| > 4) = 6.3e-5.  Rows share
their seeds (the same seed draws the same lines for every surface), so the
runs are not independent, but the union bound holds regardless: at most
24 x 6.3e-5 = 1.5e-3 for the whole matrix (eight area rows and four rows
of the integral of z^2, at two seeds each).  The quartic torus, sphere,
ellipsoid and plane rows run the scan whose cells come from the field's
polynomial on each line.  The mesh rows run the line-triangle kernel, each
against its own triangles, summed here with numpy: a chart's triangulation
falls short of its smooth surface's area.

The implicit pyramid's row is left out: its scan is biased today (z about
-3.5 over 400,000 lines), and it joins the table with the certified scan
that removes the bias, not re-seeded or shrunk to hide it.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import ellipeinc, ellipkinc

from croftoncloud.crofton import estimate_area, estimate_surface_integral
from croftoncloud.expr import compile_field
from croftoncloud.rng import Pseudo
from croftoncloud.surfaces import (
    ImplicitSurface,
    ellipsoid_implicit,
    plane_implicit,
    plane_patch_chart,
    sphere_implicit,
    tetrahedron_mesh,
    torus_chart,
    torus_implicit,
    triangulate_parametric,
)

from conftest import TORUS_EXPR

SEEDS = (1101, 1102)
LINES = 100_000
TOLERANCE_SE = 4.0


def ellipsoid_area(a: float, b: float, c: float) -> float:
    """Legendre's form of the area of the ellipsoid with semi-axes a > b > c."""
    phi = math.acos(c / a)
    m = (a * a * (b * b - c * c)) / (b * b * (a * a - c * c))
    s = math.sin(phi)
    return 2.0 * math.pi * (c * c + a * b / s * (ellipeinc(phi, m) * s * s + ellipkinc(phi, m) * (1.0 - s * s)))


def triangle_areas(triangles):
    """The area of each triangle of an ``(n, 3, 3)`` array."""
    a, b, c = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def triangles_z2(triangles):
    """The exact integral of z^2 over the triangles: A / 6 (z1^2 + z2^2 + z3^2 + z1 z2 + z2 z3 + z3 z1) on each."""
    z1, z2, z3 = triangles[:, :, 2].T
    return float((triangle_areas(triangles) / 6.0 * (z1 * z1 + z2 * z2 + z3 * z3 + z1 * z2 + z2 * z3 + z3 * z1)).sum())


#: the benchmark's torus (R = 2, r = 0.5) as a quartic expression
TORUS_QUARTIC = ImplicitSurface(compile_field(TORUS_EXPR), 3.0, name="torus quartic")
TETRAHEDRON = tetrahedron_mesh()
#: the torus chart's grid triangulation at 33 x 65 nodes: 4,096 triangles
TORUS_MESH = triangulate_parametric(torus_chart(u_res=33, v_res=65))[0]
#: the estimators read a chart through its grid triangulation, so its row is against that triangulation's area
PLANE_PATCH = plane_patch_chart()

#: (row name, surface, closed-form area); the plane is the disk it cuts from its clip ball
ROWS = [
    ("sphere implicit", sphere_implicit(radius=1.0), 4.0 * math.pi),
    ("torus implicit", torus_implicit(ring_radius=2.0, tube_radius=0.5), 4.0 * math.pi**2 * 2.0 * 0.5),
    ("torus quartic implicit", TORUS_QUARTIC, 4.0 * math.pi**2 * 2.0 * 0.5),
    ("ellipsoid implicit", ellipsoid_implicit(a=1.5, b=1.0, c=0.5), ellipsoid_area(1.5, 1.0, 0.5)),
    ("plane implicit", plane_implicit(clip=2.0), math.pi * 2.0**2),
    ("tetrahedron mesh", TETRAHEDRON, float(triangle_areas(TETRAHEDRON.triangles).sum())),
    ("torus chart mesh", TORUS_MESH, float(triangle_areas(TORUS_MESH.triangles).sum())),
    ("plane patch chart", PLANE_PATCH, float(triangle_areas(triangulate_parametric(PLANE_PATCH)[0].triangles).sum())),
]


def test_triangle_closed_forms():
    assert len(TORUS_MESH) == 4096
    assert abs(triangle_areas(TETRAHEDRON.triangles).sum() - 8.0 * math.sqrt(3.0)) < 1e-12
    # the unit square z = 1 split in two: area 1 and integral of z^2 equal to 1
    square = np.array([[[0, 0, 1], [1, 0, 1], [1, 1, 1]], [[0, 0, 1], [1, 1, 1], [0, 1, 1]]], dtype=np.float64)
    assert triangle_areas(square).sum() == 1.0 and abs(triangles_z2(square) - 1.0) < 1e-15


def test_ellipsoid_closed_form():
    assert abs(ellipsoid_area(1.5, 1.0, 0.5) - 12.2205) < 1e-4
    # a sphere is the limit of ellipsoids
    assert abs(ellipsoid_area(1.0 + 1e-9, 1.0, 1.0 - 1e-9) - 4.0 * math.pi) < 1e-6


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,surface,area", ROWS, ids=[row[0] for row in ROWS])
def test_area_within_tolerance(name, surface, area, seed):
    with warnings.catch_warnings():
        if name.startswith("plane"):  # the plane reaches past every clip ball, so its truncation advisory is expected
            warnings.filterwarnings("ignore", "clip radius may truncate surface", UserWarning)
        est = estimate_area(surface, Pseudo(seed), LINES)
    assert abs(est.value - area) < TOLERANCE_SE * est.standard_error, (name, est.value, est.standard_error)


#: (row name, surface, closed-form integral of z^2 over it): 4 pi / 3 on the unit sphere, 2 pi^2 R r^3 on the torus
Z2_ROWS = [
    ("sphere implicit", sphere_implicit(radius=1.0), 4.0 * math.pi / 3.0),
    ("torus quartic implicit", TORUS_QUARTIC, 2.0 * math.pi**2 * 2.0 * 0.5**3),
    ("tetrahedron mesh", TETRAHEDRON, triangles_z2(TETRAHEDRON.triangles)),
    ("torus chart mesh", TORUS_MESH, triangles_z2(TORUS_MESH.triangles)),
]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,surface,integral", Z2_ROWS, ids=[row[0] for row in Z2_ROWS])
def test_z2_integral_within_tolerance(name, surface, integral, seed):
    est = estimate_surface_integral(surface, lambda p: p[:, 2] ** 2, Pseudo(seed), LINES)
    assert abs(est.value - integral) < TOLERANCE_SE * est.standard_error, (name, est.value, est.standard_error)
