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


def _cross(a, b):
    """``np.cross(a, b)`` of ``(..., 3)`` arrays, bit for bit: numpy's products and differences, without its copies."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _unit(v: np.ndarray) -> np.ndarray:
    """Each row of *v* ``(..., 3)`` over its norm; a row with no direction (norm 0 or not finite) becomes nan.

    A row whose squares under- or overflow (a vector scaled by 1e-200 or 1e200) is divided by its largest
    component first; every other row keeps the bits of ``v / norm``.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
    ok = np.isfinite(norms) & (norms > 0.0)
    if not ok.all():
        scale = np.abs(v).max(axis=-1, keepdims=True)
        v = v / np.where(ok, 1.0, np.where(np.isfinite(scale) & (scale > 0.0), scale, np.nan))
        norms = np.where(ok, norms, np.linalg.norm(v, axis=-1, keepdims=True))
    return v / norms


def slab_chord(lo, hi, neg, inv, feet, half):
    """``(enter, leave)``: the part of each chord t in [-half, half] inside its box [lo, hi].

    The slab test for lines of R^3 in foot form: *neg* holds the sign bits
    and *inv* the reciprocals of the directions, *lo* and *hi* one box or
    one box per line.  The chord meets the closed box when
    ``enter <= leave``.  Each axis's entry plane is chosen by the sign bit
    of the direction, so an empty box (lo = +inf, hi = -inf) is entered at
    t = +inf and never passes.  A direction component of 0 gives
    inv = ±inf, so that axis admits all t or none; with the foot on that
    face, 0 * inf = nan, which fmax/fmin ignore, so the face counts as
    inside.
    """
    with np.errstate(invalid="ignore"):
        enter = (np.where(neg, hi, lo) - feet) * inv
        leave = (np.where(neg, lo, hi) - feet) * inv
    enter = np.fmax(np.fmax(np.fmax(enter[:, 0], enter[:, 1]), enter[:, 2]), -half)
    leave = np.fmin(np.fmin(np.fmin(leave[:, 0], leave[:, 1]), leave[:, 2]), half)
    return enter, leave


def _reflect_feet(dirs: np.ndarray, disk: np.ndarray) -> np.ndarray:
    """Feet ``(count, n)`` orthogonal to *dirs*, from (n-1)-ball points *disk*; see :func:`sample_line_batch`."""
    s = dirs.copy()
    s[:, -1] += np.where(dirs[:, -1] < 0.0, -1.0, 1.0)
    d = np.zeros_like(dirs)
    d[:, :-1] = disk
    coeff = 2.0 * (s[:, :-1] * disk).sum(axis=1) / (s * s).sum(axis=1)
    return d - coeff[:, None] * s


def sample_line_batch(src: ScalarSource, n: int, r: float, count: int):
    """Draw *count* kinematic-measure lines; returns (directions, feet).

    Line j reads scalars (2n + 1) j .. (2n + 1) j + 2n alone, whatever
    *count* is: n + n % 2 give its direction v as in rng.sample_sphere, the
    rest a point d of the radius-r (n-1)-ball as in rng.sample_ball, placed
    in x_n = 0.  The foot d - (2 <s, d> / <s, s>) s is d reflected in
    s = v + sign(v_n) e_n (sign(0) = +1).  That reflection swaps v and
    -sign(v_n) e_n, so it maps the hyperplane orthogonal to e_n onto the one
    orthogonal to v and keeps |foot| = |d|; <s, s> >= 2 keeps full
    precision for every direction.
    """
    if r <= 0.0:
        raise ValueError(f"clip radius must be positive, got {r}")
    xi = src.take(count * (2 * n + 1)).reshape(count, 2 * n + 1)
    dirs = rng._sphere_points(xi[:, : n + n % 2], n)
    return dirs, _reflect_feet(dirs, rng._ball_points(xi[:, n + n % 2 :], n - 1) * r)
