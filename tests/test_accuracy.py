"""Accuracy matrix: catalog surfaces and estimators against closed forms that share no code with the estimators.

Each row runs at the fixed seeds SEEDS, chosen before any row was run, and
passes when the estimate lies within TOLERANCE_SE standard errors of the
closed value.  With 100,000 lines per run the estimate is close to normal,
so one run fails falsely with probability P(|Z| > 4) = 6.3e-5.  Rows share
their seeds (the same seed draws the same lines for every surface), so the
runs are not independent, but the union bound holds regardless: at most
8 x 6.3e-5 = 5.1e-4 for the whole matrix.

The implicit pyramid's row is left out: its scan is biased today (z about
-3.5 over 400,000 lines), and it joins the table with the certified scan
that removes the bias, not re-seeded or shrunk to hide it.
"""

import math
import warnings

import pytest
from scipy.special import ellipeinc, ellipkinc

from croftoncloud.crofton import estimate_area
from croftoncloud.rng import Pseudo
from croftoncloud.surfaces import ellipsoid_implicit, plane_implicit, sphere_implicit, torus_implicit

SEEDS = (1101, 1102)
LINES = 100_000
TOLERANCE_SE = 4.0


def ellipsoid_area(a: float, b: float, c: float) -> float:
    """Legendre's form of the area of the ellipsoid with semi-axes a > b > c."""
    phi = math.acos(c / a)
    m = (a * a * (b * b - c * c)) / (b * b * (a * a - c * c))
    s = math.sin(phi)
    return 2.0 * math.pi * (c * c + a * b / s * (ellipeinc(phi, m) * s * s + ellipkinc(phi, m) * (1.0 - s * s)))


#: (row name, surface, closed-form area); the plane is the disk it cuts from its clip ball
ROWS = [
    ("sphere implicit", sphere_implicit(radius=1.0), 4.0 * math.pi),
    ("torus implicit", torus_implicit(ring_radius=2.0, tube_radius=0.5), 4.0 * math.pi**2 * 2.0 * 0.5),
    ("ellipsoid implicit", ellipsoid_implicit(a=1.5, b=1.0, c=0.5), ellipsoid_area(1.5, 1.0, 0.5)),
    ("plane implicit", plane_implicit(clip=2.0), math.pi * 2.0**2),
]


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
