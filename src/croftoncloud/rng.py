"""Deterministic scalar sources and combinators for equidistributed sampling.

Every sampler in this package draws from a :class:`ScalarSource`, a stateful
stream of values in ``[0, 1)``.  Three kinds are provided:

* :class:`Pseudo` -- a 64-bit counter-mix generator (splitmix64), bit-exact
  reproducible from its seed, period 2**64, 53 significant bits per draw.
* :class:`VanDerCorput` -- the radix-reflection low-discrepancy sequence.
* :class:`VanDerCorputRearranged` -- the "obvious" increasing rearrangement of
  the binary van der Corput sequence, kept as a known-bad fixture: it is not
  equidistributed.

On top of the raw streams sit the standard combinators: affine box sampling,
rejection, weighted unions, and the unit ball / sphere / normal samplers.
Batch draws (``size=k``) consume the stream in documented round order;
given the same source state they are fully deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScalarSource",
    "Pseudo",
    "VanDerCorput",
    "VanDerCorputRearranged",
    "BoxDomain",
    "sample_box",
    "sample_rejection",
    "sample_union",
    "sample_ball",
    "sample_sphere",
    "sample_normal_pair",
    "standard_normals",
    "unit_ball_volume",
    "RejectionCapExceeded",
]

# splitmix64 constants: golden-ratio increment and two xor-shift-multiply rounds
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)

#: Default cap on attempts per rejection-sampled point.
DEFAULT_REJECTION_CAP = 10_000

#: Dimension at and above which ball/sphere sampling switches from cube
#: rejection to the Gaussian route (cube acceptance decays like kappa_n/2^n).
GAUSSIAN_CUTOFF = 5


class RejectionCapExceeded(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget."""


class ScalarSource:
    """Base class for deterministic streams of scalars in [0, 1)."""

    def take(self, count: int) -> np.ndarray:
        """Return the next *count* values as a float64 array."""
        raise NotImplementedError

    def next_unit(self) -> float:
        """Return the next value in [0, 1)."""
        return float(self.take(1)[0])


class Pseudo(ScalarSource):
    """splitmix64 stream: state j maps to mix(seed + j * golden).

    The counter form makes batched draws a single vectorized pass while
    remaining bit-identical to repeated scalar stepping.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._drawn = 0

    def __repr__(self):
        return f"Pseudo(seed={self.seed})"

    def take(self, count: int) -> np.ndarray:
        idx = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.uint64)
        self._drawn += int(count)
        with np.errstate(over="ignore"):
            z = np.uint64(self.seed) + idx * _GOLDEN
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
        self._drawn = 0

    def __repr__(self):
        return f"VanDerCorput(radix={self.radix})"

    def take(self, count: int) -> np.ndarray:
        n = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.int64)
        self._drawn += int(count)
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

    def __init__(self):
        self._drawn = 0

    def __repr__(self):
        return "VanDerCorputRearranged()"

    def take(self, count: int) -> np.ndarray:
        j = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.int64)
        self._drawn += int(count)
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


def sample_rejection(
    src: ScalarSource,
    dom: BoxDomain,
    accept,
    max_attempts: int = DEFAULT_REJECTION_CAP,
    size: int | None = None,
):
    """Keep box samples for which *accept* is true.

    *accept* must be vectorized: it maps an ``(m, n)`` array of candidate
    points to a boolean ``(m,)`` mask.  Rejected slots are redrawn in rounds
    (n scalars each) until filled.  Returns ``(points, rejections)`` where
    *rejections* counts all discarded candidates.

    Raises :class:`RejectionCapExceeded` once any slot has burned
    *max_attempts* candidates, which guards accept regions of measure zero.
    """
    count = 1 if size is None else int(size)
    out = np.empty((count, dom.dim))
    pending = np.arange(count)
    rejections = 0
    attempts = 0
    while pending.size:
        attempts += 1
        if attempts > max_attempts:
            raise RejectionCapExceeded(
                f"no acceptance after {max_attempts} attempts; "
                "accept region may have measure zero"
            )
        cand = sample_box(src, dom, size=len(pending))
        ok = np.asarray(accept(cand), dtype=bool)
        out[pending[ok]] = cand[ok]
        rejections += int((~ok).sum())
        pending = pending[~ok]
    return (out[0], rejections) if size is None else (out, rejections)


def sample_union(src: ScalarSource, parts):
    """Delegate to one of *parts* = [(weight, sampler), ...].

    Part l is chosen when weight * xi falls in the l-th subinterval of the
    cumulative weight partition; the chosen sampler is called with *src*.
    """
    cums = []
    total = 0.0
    for weight, _ in parts:
        if weight < 0.0:
            raise ValueError("weights must be nonnegative")
        total += float(weight)
        cums.append(total)
    if total <= 0.0:
        raise ValueError("at least one weight must be positive")
    target = src.next_unit() * total
    index = min(bisect_right(cums, target), len(parts) - 1)
    return parts[index][1](src)


def _ball_accept(points):
    sq = (points * points).sum(axis=-1)
    return (sq < 1.0) & (sq > 0.0)


def sample_ball(src: ScalarSource, n: int, size: int | None = None) -> np.ndarray:
    """Uniform point(s) of the open punctured unit n-ball.

    Cube rejection below :data:`GAUSSIAN_CUTOFF`; above, a sphere point
    scaled by u**(1/n) (the radial inverse CDF).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    count = 1 if size is None else int(size)
    if n < GAUSSIAN_CUTOFF:
        pts, _ = sample_rejection(src, BoxDomain.cube(n), _ball_accept, size=count)
    else:
        sphere = sample_sphere(src, n, size=count)
        u = src.take(count)
        pts = sphere * (u ** (1.0 / n))[:, None]
    return pts[0] if size is None else pts


def sample_sphere(src: ScalarSource, n: int, size: int | None = None) -> np.ndarray:
    """Uniform unit vector(s) on the (n-1)-sphere.

    Low dimension: normalized ball rejection.  n >= GAUSSIAN_CUTOFF:
    normalized vector of independent standard normal deviates (rotation
    invariant, so uniform on the sphere at any dimension).
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    count = 1 if size is None else int(size)
    if n < GAUSSIAN_CUTOFF:
        pts, _ = sample_rejection(src, BoxDomain.cube(n), _ball_accept, size=count)
    else:
        pts = standard_normals(src, count * n).reshape(count, n)
        # renormalize near-zero rows by redrawing; probability ~ 0
        while True:
            norms = np.linalg.norm(pts, axis=1)
            bad = norms < 1e-12
            if not bad.any():
                break
            pts[bad] = standard_normals(src, int(bad.sum()) * n).reshape(-1, n)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts[0] if size is None else pts


def sample_normal_pair(src: ScalarSource) -> tuple[float, float]:
    """Two independent standard normal deviates via the polar method.

    Draw (u, v) uniform in the square, accept inside the punctured unit
    disk, then scale by sqrt(-2 ln s / s) with s = u^2 + v^2.
    """
    for _ in range(DEFAULT_REJECTION_CAP):
        u = 2.0 * src.next_unit() - 1.0
        v = 2.0 * src.next_unit() - 1.0
        s = u * u + v * v
        if 0.0 < s < 1.0:
            factor = math.sqrt(-2.0 * math.log(s) / s)
            return u * factor, v * factor
    raise RejectionCapExceeded("polar method failed to accept")


def standard_normals(src: ScalarSource, count: int) -> np.ndarray:
    """Batched polar-method normals; pairs are kept in acceptance order."""
    chunks: list[np.ndarray] = []
    have = 0
    while have < count:
        pairs_needed = (count - have + 1) // 2
        # acceptance ratio is pi/4; 1.2x headroom keeps round count small
        m = int(pairs_needed / 0.78) + 8
        uv = 2.0 * src.take(2 * m).reshape(m, 2) - 1.0
        s = (uv * uv).sum(axis=1)
        ok = (s > 0.0) & (s < 1.0)
        uv, s = uv[ok], s[ok]
        factor = np.sqrt(-2.0 * np.log(s) / s)
        z = (uv * factor[:, None]).reshape(-1)
        chunks.append(z)
        have += len(z)
    return np.concatenate(chunks)[:count]


def unit_ball_volume(n: int) -> float:
    """Volume kappa_n of the unit n-ball: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
