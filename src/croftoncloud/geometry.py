"""Kinematic line sampling.

A batch of oriented lines is a pair of ``(count, n)`` arrays: unit
directions ``v`` and feet ``p``, the points of the lines nearest the origin
(so ``p`` is orthogonal to ``v`` and ``t -> t v + p`` is the arc-length
parameterization).  Lines meeting the origin-centered ball of radius r are
exactly those with ``|p| < r``; sampling ``v`` uniformly on the sphere and
``p`` uniformly in the radius-r disk of the hyperplane orthogonal to ``v``
draws lines from the (normalized) kinematic measure on that set, the unique
line measure invariant under rotations and translations.
"""

from __future__ import annotations

import math

import numpy as np

from . import rng
from .rng import ScalarSource

__all__ = [
    "sample_line_batch",
    "kinematic_mass",
    "unit_sphere_area",
]

# squared-sum threshold below which direction + e_n counts as zero: the
# reflection that takes e_n to the direction is then undefined
ANTIPODAL_TOL = 1e-16


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def kinematic_mass(n: int, r: float) -> float:
    """Total kinematic measure of the oriented lines meeting the r-ball.

    Equals area(S^(n-1)) * kappa_(n-1) * r^(n-1): directions integrate over
    the sphere, feet over a radius-r ball of the (n-1)-dimensional
    orthocomplement.  Dividing sampled line statistics by this mass converts
    between the sampling probability measure and the kinematic measure.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if r <= 0.0:
        raise ValueError(f"clip radius must be positive, got {r}")
    return unit_sphere_area(n) * rng.unit_ball_volume(n - 1) * r ** (n - 1)


def _fill_feet(src: ScalarSource, dirs: np.ndarray, r: float) -> np.ndarray:
    """Feet uniform in the radius-r ball orthogonal to each direction.

    Samples the standard (n-1)-ball in the hyperplane x_n = 0 and maps it
    with the rotation R taking e_n to the direction v while fixing the
    orthocomplement of both.  R is the composition of the reflections in
    s = e_n + v and in v:

        R = I + 2 v e_n^T - (2 / <s, s>) s s^T.

    Because ball points d have zero last component, e_n^T d = 0 and R d
    collapses to d - (2 <s, d> / <s, s>) s.  R is undefined for v = -e_n
    (<s, s> = 0); such directions are redrawn.
    """
    count, n = dirs.shape
    feet = np.empty((count, n))
    pending = np.arange(count)
    while pending.size:
        v = dirs[pending]
        disk = rng.sample_ball(src, n - 1, size=len(pending)) * r
        s = v.copy()
        s[:, -1] += 1.0
        s_dot_s = (s * s).sum(axis=1)
        ok = s_dot_s > ANTIPODAL_TOL
        d = np.zeros((len(pending), n))
        d[:, :-1] = disk
        coeff = 2.0 * (s[:, :-1] * disk).sum(axis=1) / np.where(ok, s_dot_s, 1.0)
        feet[pending[ok]] = (d - coeff[:, None] * s)[ok]
        if ok.all():
            break
        # direction antipodal to e_n: resample those directions and retry
        bad = pending[~ok]
        dirs[bad] = rng.sample_sphere(src, n, size=len(bad))
        pending = bad
    return feet


def sample_line_batch(src: ScalarSource, n: int, r: float, count: int):
    """Draw *count* kinematic-measure lines; returns (directions, feet)."""
    if r <= 0.0:
        raise ValueError(f"clip radius must be positive, got {r}")
    dirs = rng.sample_sphere(src, n, size=count)
    return dirs, _fill_feet(src, dirs, r)

