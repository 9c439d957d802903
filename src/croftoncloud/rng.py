"""Deterministic scalar sources and combinators for equidistributed sampling.

Every sampler in this package draws from a :class:`ScalarSource`, a stateful
stream of values in ``[0, 1)``.  Three kinds are provided:

* :class:`Pseudo` -- a 64-bit counter-mix generator (splitmix64), bit-exact
  reproducible from its seed, period 2**64, 53 significant bits per draw.
* :class:`VanDerCorput` -- the radix-reflection low-discrepancy sequence.
* :class:`VanDerCorputRearranged` -- the "obvious" increasing rearrangement of
  the binary van der Corput sequence, kept as a known-bad fixture: it is not
  equidistributed.

On top of the raw streams sit the standard combinators: affine box sampling
and the unit ball and sphere samplers, built on Box-Muller normals.  Each
point of a batch draw (``size=k``) reads its own fixed block of scalars, so
point i depends on the source state and i alone, never on the batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScalarSource",
    "Pseudo",
    "VanDerCorput",
    "VanDerCorputRearranged",
    "BoxDomain",
    "sample_box",
    "sample_ball",
    "sample_sphere",
    "unit_ball_volume",
]

# splitmix64 constants: golden-ratio increment and two xor-shift-multiply rounds
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


class ScalarSource:
    """Base class for deterministic streams of scalars in [0, 1).

    :meth:`take` keeps the one count of values drawn and asks the source
    for the next values j (from 1, an int64 array) as ``_at(j)``.
    """

    _drawn = 0

    def take(self, count: int) -> np.ndarray:
        """Return the next *count* values as a float64 array."""
        j = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.int64)
        self._drawn += int(count)
        return self._at(j)

    def _at(self, j: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Pseudo(ScalarSource):
    """splitmix64 stream: state j maps to mix(seed + j * golden).

    The counter form makes batched draws a single vectorized pass while
    remaining bit-identical to repeated scalar stepping.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    def __repr__(self):
        return f"Pseudo(seed={self.seed})"

    def _at(self, j: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            z = np.uint64(self.seed) + j.astype(np.uint64) * _GOLDEN
            z = (z ^ (z >> np.uint64(30))) * _MIX_1
            z = (z ^ (z >> np.uint64(27))) * _MIX_2
            z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


class VanDerCorput(ScalarSource):
    """Radix-reflection sequence: reverse the base-b digits of 1, 2, 3, ...

    Radix 2 gives the classic low-discrepancy sequence
    1/2, 1/4, 3/4, 1/8, 5/8, 3/8, 7/8, ...
    """

    def __init__(self, radix: int = 2):
        if radix < 2:
            raise ValueError(f"radix must be >= 2, got {radix}")
        self.radix = int(radix)

    def __repr__(self):
        return f"VanDerCorput(radix={self.radix})"

    def _at(self, n: np.ndarray) -> np.ndarray:
        out = np.zeros(len(n), dtype=np.float64)
        denom = 1.0
        while n.any():
            denom *= self.radix
            n, digit = np.divmod(n, self.radix)
            out += digit / denom
        return out


class VanDerCorputRearranged(ScalarSource):
    """Binary van der Corput terms rearranged within each denominator block.

    Emits 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, 1/16, 3/16, ... (odd numerators
    in increasing order).  Looks tidier than the radix reflection but is not
    equidistributed: every block front-loads [0, 1/2).  Negative fixture only.
    """

    radix = 2

    def __repr__(self):
        return "VanDerCorputRearranged()"

    def _at(self, j: np.ndarray) -> np.ndarray:
        # block b holds indices 2**(b-1) .. 2**b - 1; frexp is exact here
        block = np.frexp(j.astype(np.float64))[1].astype(np.int64)
        offset = j - np.left_shift(np.int64(1), block - 1)
        return (2.0 * offset + 1.0) / (2.0**block)


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned product of half-open intervals [low_i, high_i)."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self):
        lows = tuple(float(v) for v in self.lows)
        highs = tuple(float(v) for v in self.highs)
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)
        if len(lows) != len(highs) or not lows:
            raise ValueError("lows and highs must be nonempty and equal length")
        for lo, hi in zip(lows, highs):
            if not lo < hi:
                raise ValueError(f"degenerate interval [{lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.lows)

    @classmethod
    def cube(cls, n: int, low: float = -1.0, high: float = 1.0) -> "BoxDomain":
        return cls((low,) * n, (high,) * n)


def sample_box(src: ScalarSource, dom: BoxDomain, size: int | None = None) -> np.ndarray:
    """Affine image of the next scalars: point i uses scalars i*n .. i*n+n-1.

    Returns shape ``(dom.dim,)`` for ``size=None``, else ``(size, dom.dim)``.
    """
    count = 1 if size is None else int(size)
    n = dom.dim
    xi = src.take(count * n).reshape(count, n)
    lows = np.asarray(dom.lows)
    pts = lows + (np.asarray(dom.highs) - lows) * xi
    return pts[0] if size is None else pts


def _open_unit(u: np.ndarray) -> np.ndarray:
    """Scalars clamped into (0, 1) for logarithms and radii, with room for a unit vector's rounding below 1."""
    return np.clip(u, 2.0**-54, 1.0 - 2.0**-45)


def _gaussian_pairs(xi: np.ndarray) -> np.ndarray:
    """Box-Muller: columns 2k, 2k + 1 of *xi* (count, even width) give two independent standard normals."""
    radius = np.sqrt(-2.0 * np.log(_open_unit(xi[:, 0::2])))
    angle = 2.0 * np.pi * xi[:, 1::2]
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1).reshape(xi.shape)


def _sphere_points(xi: np.ndarray, n: int) -> np.ndarray:
    """Rows of *xi* (count, n + n % 2) as uniform unit vectors of R^n: n normals, normalized (never 0)."""
    z = _gaussian_pairs(xi)[:, :n]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _ball_points(xi: np.ndarray, n: int) -> np.ndarray:
    """Rows of *xi* (count, n + n % 2 + 1) as points of the open punctured unit n-ball, radius u**(1/n) last."""
    return _sphere_points(xi[:, :-1], n) * _open_unit(xi[:, -1:] ** (1.0 / n))


def sample_ball(src: ScalarSource, n: int, size: int | None = None) -> np.ndarray:
    """Uniform point(s) of the open punctured unit n-ball.

    Point i reads scalars i*w .. i*w + w - 1, w = n + n % 2 + 1: a unit
    vector as :func:`sample_sphere` draws it, then its radius.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    count = 1 if size is None else int(size)
    width = n + n % 2 + 1
    pts = _ball_points(src.take(count * width).reshape(count, width), n)
    return pts[0] if size is None else pts


def sample_sphere(src: ScalarSource, n: int, size: int | None = None) -> np.ndarray:
    """Uniform unit vector(s) on the (n-1)-sphere.

    Point i reads scalars i*w .. i*w + w - 1, w = n + n % 2, and normalizes
    the first n of the standard normals they give (rotation invariant, so
    uniform on the sphere at any dimension).
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    count = 1 if size is None else int(size)
    width = n + n % 2
    pts = _sphere_points(src.take(count * width).reshape(count, width), n)
    return pts[0] if size is None else pts


def unit_ball_volume(n: int) -> float:
    """Volume kappa_n of the unit n-ball: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
