"""Oriented lines, the two-reflection rotation, and kinematic line sampling.

An oriented line is stored canonically as a unit direction ``v`` plus its
foot ``p``, the point of the line nearest the origin (so ``p`` is orthogonal
to ``v`` and ``t -> t v + p`` is the arc-length parameterization).  Lines
meeting the origin-centered ball of radius r are exactly those with
``|p| < r``; sampling ``v`` uniformly on the sphere and ``p`` uniformly in
the radius-r disk of the hyperplane orthogonal to ``v`` draws lines from the
(normalized) kinematic measure on that set, the unique line measure
invariant under rotations and translations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .rng import ScalarSource

__all__ = [
    "OrientedLine",
    "make_line",
    "rotation_from_to",
    "sample_line",
    "sample_line_batch",
    "kinematic_mass",
    "unit_sphere_area",
    "AntipodalError",
]

UNIT_TOL = 1e-12
# squared-sum threshold below which u_initial + u_final counts as zero,
# matching the published rotation routine's TOL
ANTIPODAL_TOL = 1e-16


class AntipodalError(ValueError):
    """Rotation request for an antipodal pair; the rotation is not unique."""


@dataclass(frozen=True)
class OrientedLine:
    """Canonical (direction, foot) pair; ``point_at(t) = t*direction + foot``."""

    direction: np.ndarray
    foot: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.direction, dtype=np.float64)
        p = np.asarray(self.foot, dtype=np.float64)
        object.__setattr__(self, "direction", v)
        object.__setattr__(self, "foot", p)
        _require_unit(v)
        tol = 1e-10 * (1.0 + np.linalg.norm(p))
        if abs(float(v @ p)) > tol:
            raise ValueError("foot must be orthogonal to direction")

    @property
    def dim(self) -> int:
        return self.direction.shape[0]

    def point_at(self, t):
        t = np.asarray(t, dtype=np.float64)
        return t[..., None] * self.direction + self.foot


def _require_unit(v: np.ndarray) -> None:
    if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
        raise ValueError(f"expected a unit vector, |v| = {np.linalg.norm(v)!r}")


def make_line(direction, through) -> OrientedLine:
    """Line with unit *direction* through the point *through*, canonicalized.

    The foot is the projection of *through* onto the orthogonal complement of
    the direction; a *through* already orthogonal to the direction is
    returned unchanged up to that projection arithmetic.
    """
    v = np.asarray(direction, dtype=np.float64)
    q = np.asarray(through, dtype=np.float64)
    _require_unit(v)
    return OrientedLine(v, q - (q @ v) * v)


def rotation_from_to(u_initial, u_final) -> np.ndarray:
    """Rotation R with R u_initial = u_final fixing their orthocomplement.

    Closed form: R = I + 2 u_final u_initial^T - (2/<s,s>) s s^T where
    s = u_initial + u_final; the composition of the reflections in s and in
    u_final.  Raises :class:`AntipodalError` when u_final is (numerically)
    -u_initial, for which no unique such rotation exists.

    The inputs are renormalized and the matrix is formed in np.longdouble
    (extended precision where the platform has it): near antipodal pairs
    the s s^T term divides by a tiny <s,s>, which would otherwise amplify
    the inputs' rounding from unit length.
    """
    ui = np.asarray(u_initial, dtype=np.float64)
    uf = np.asarray(u_final, dtype=np.float64)
    _require_unit(ui)
    _require_unit(uf)
    ui = ui.astype(np.longdouble)
    uf = uf.astype(np.longdouble)
    ui /= np.sqrt(ui @ ui)
    uf /= np.sqrt(uf @ uf)
    s = ui + uf
    s_dot_s = s @ s
    if s_dot_s <= ANTIPODAL_TOL:
        raise AntipodalError("antipodal pair, rotation not unique")
    rot = np.eye(len(ui), dtype=np.longdouble) + 2 * np.outer(uf, ui) - (2 / s_dot_s) * np.outer(s, s)
    return rot.astype(np.float64)


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
    with the rotation taking e_n to the direction.  Because ball points have
    zero last component, the rotation collapses to
    d - (2 <s, d> / <s, s>) s with s = direction + e_n.
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


def sample_line(src: ScalarSource, n: int, r: float) -> OrientedLine:
    """Single line from the kinematic measure on lines meeting the r-ball."""
    dirs, feet = sample_line_batch(src, n, r, 1)
    return OrientedLine(dirs[0], feet[0])
