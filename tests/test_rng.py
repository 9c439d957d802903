import math
from fractions import Fraction

import numpy as np
import pytest

from croftoncloud import rng
from croftoncloud.rng import (
    BoxDomain,
    Pseudo,
    VanDerCorput,
    VanDerCorputRearranged,
    sample_ball,
    sample_box,
    sample_sphere,
    unit_ball_volume,
)

from conftest import ScriptedSource, binomial_sigma

# first fifteen binary van der Corput values
VDC_GOLDEN = [
    Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 8), Fraction(5, 8),
    Fraction(3, 8), Fraction(7, 8), Fraction(1, 16), Fraction(9, 16), Fraction(5, 16),
    Fraction(13, 16), Fraction(3, 16), Fraction(11, 16), Fraction(7, 16), Fraction(15, 16),
]


class TestScalarSources:
    def test_van_der_corput_first_draws(self):
        src = VanDerCorput(2)
        assert src.take(4).tolist() == [0.5, 0.25, 0.75, 0.125]
        assert src.take(3).tolist() == [5 / 8, 3 / 8, 7 / 8]

    def test_van_der_corput_golden_vector(self):
        values = VanDerCorput(2).take(15)
        assert [Fraction(v).limit_denominator(16) for v in values] == VDC_GOLDEN
        assert all(float(f) == v for f, v in zip(VDC_GOLDEN, values))

    def test_van_der_corput_radix_three(self):
        src = VanDerCorput(3)
        assert src.take(4).tolist() == [1 / 3, 2 / 3, 1 / 9, 1 / 3 + 1 / 9]

    def test_bad_radix(self):
        with pytest.raises(ValueError):
            VanDerCorput(1)

    def test_rearranged_blocks(self):
        values = VanDerCorputRearranged().take(15)
        expected = [1 / 2, 1 / 4, 3 / 4] + [k / 8 for k in (1, 3, 5, 7)] + [k / 16 for k in (1, 3, 5, 7, 9, 11, 13, 15)]
        assert values.tolist() == expected

    def test_pseudo_same_seed_identical(self):
        a = Pseudo(12345).take(1_000_000)
        b = Pseudo(12345).take(1_000_000)
        assert np.array_equal(a, b)

    def test_pseudo_different_seeds_differ(self):
        assert not np.array_equal(Pseudo(1).take(100), Pseudo(2).take(100))

    def test_take_matches_next_unit(self):
        for make in (lambda: Pseudo(9), lambda: VanDerCorput(2), VanDerCorputRearranged):
            batch, src = make().take(64), make()
            single = np.concatenate([src.take(1) for _ in range(64)])
            assert np.array_equal(batch, single)

    def test_pseudo_range_and_precision(self):
        values = Pseudo(0).take(10_000)
        assert values.min() >= 0.0 and values.max() < 1.0
        # values are k / 2^53; spacing resolves 53 bits
        assert np.all(values * 2.0**53 == np.round(values * 2.0**53))

    @pytest.mark.parametrize("make", [lambda: Pseudo(77), lambda: VanDerCorput(2)])
    def test_dyadic_equidistribution(self, make):
        n = 2**14
        values = make().take(n)
        for lo, hi in [(0.0, 0.5), (0.25, 0.5), (0.5, 0.625), (0.875, 1.0)]:
            frac = np.count_nonzero((values >= lo) & (values < hi)) / n
            assert abs(frac - (hi - lo)) < 0.02

    def test_rearranged_is_not_equidistributed(self):
        # brute force over every prefix length up to 2^14 for the interval [0, 1/2)
        n = 2**14
        values = VanDerCorputRearranged().take(n)
        below = np.cumsum(values < 0.5)
        deviation = np.abs(below / np.arange(1, n + 1) - 0.5)
        assert deviation.max() > 0.05


class TestBoxSampling:
    def test_identity_scaling(self):
        dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
        assert sample_box(ScriptedSource([0.25, 0.75]), dom).tolist() == [0.25, 0.75]

    def test_midpoint(self):
        dom = BoxDomain.cube(3)
        assert sample_box(ScriptedSource([0.5] * 3), dom).tolist() == [0.0, 0.0, 0.0]

    def test_affine_map(self):
        dom = BoxDomain((2.0,), (4.0,))
        assert sample_box(ScriptedSource([0.25]), dom).tolist() == [2.5]

    def test_batch_consumes_row_major(self):
        dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
        pts = sample_box(ScriptedSource([0.1, 0.2, 0.3, 0.4]), dom, size=2)
        assert pts.tolist() == [[0.1, 0.2], [0.3, 0.4]]

    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            BoxDomain((0.0,), (0.0,))


class TestBallAndSphere:
    def test_ball_inside(self):
        points = sample_ball(Pseudo(31), 3, size=10_000)
        norms = np.linalg.norm(points, axis=1)
        assert norms.max() < 1.0 and norms.min() > 0.0

    def test_ball_radial_mean_3d(self):
        # E|x| = integral of r * 3 r^2 dr = 3/4
        norms = np.linalg.norm(sample_ball(Pseudo(32), 3, size=1_000_000), axis=1)
        assert abs(norms.mean() - 0.75) < 0.002

    def test_ball_radial_cdf_10d(self):
        n = 200_000
        norms = np.linalg.norm(sample_ball(Pseudo(33), 10, size=n), axis=1)
        p = 0.9**10
        assert abs(int((norms < 0.9).sum()) - n * p) < 3.0 * binomial_sigma(n, p)

    def test_sphere_unit_norm(self):
        for dim in (2, 3, 5, 10):
            points = sample_sphere(Pseudo(34), dim, size=5000)
            assert np.abs(np.linalg.norm(points, axis=1) - 1.0).max() < 1e-12

    def test_sphere_hemisphere_balance(self):
        n = 1_000_000
        points = sample_sphere(Pseudo(35), 3, size=n)
        assert abs(int((points[:, 2] > 0).sum()) - n / 2) < 3.0 * binomial_sigma(n, 0.5)

    def test_sphere_cap_fraction(self):
        # cap z > 1/2 covers (1 - 1/2) / 2 of the sphere
        n = 1_000_000
        points = sample_sphere(Pseudo(36), 3, size=n)
        assert abs(int((points[:, 2] > 0.5).sum()) - n * 0.25) < 3.0 * binomial_sigma(n, 0.25)

    def test_sphere_rotation_invariance(self):
        n = 200_000
        points = sample_sphere(Pseudo(37), 3, size=n)
        rotations = [
            np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1.0]]),
            np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0.0]]),
            np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0.0]]),
        ]
        for rot in rotations:
            rotated = points @ rot.T
            count = int((rotated[:, 2] > 0.5).sum())
            assert abs(count - n * 0.25) < 3.0 * binomial_sigma(n, 0.25)

    def test_high_dim_sphere_cap(self):
        # hemisphere balance through the Gaussian route
        n = 200_000
        points = sample_sphere(Pseudo(38), 6, size=n)
        assert abs(int((points[:, 0] > 0).sum()) - n / 2) < 3.0 * binomial_sigma(n, 0.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    @pytest.mark.parametrize("scalar", [0.0, 1.0 - 2.0**-53])
    def test_extreme_scalar_blocks(self, n, scalar):
        # a ball point reads n + n % 2 + 1 scalars; all of them at either end of [0, 1)
        points = sample_ball(ScriptedSource([scalar] * (n + n % 2 + 1) * 2), n, size=2)
        norms = np.linalg.norm(points, axis=1)
        assert np.isfinite(points).all() and (norms > 0.0).all() and (norms < 1.0).all()
        if n > 1:
            unit = sample_sphere(ScriptedSource([scalar] * (n + n % 2)), n)
            assert abs(np.linalg.norm(unit) - 1.0) < 1e-15

    @pytest.mark.parametrize("draw", [lambda s, k: sample_sphere(s, 3, size=k), lambda s, k: sample_ball(s, 5, size=k)])
    def test_point_i_does_not_depend_on_batch_split(self, draw):
        src = Pseudo(39)
        parts = [draw(src, k) for k in (1, 99, 900)]
        assert np.array_equal(draw(Pseudo(39), 1000), np.concatenate(parts))

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            sample_sphere(Pseudo(1), 1)
        with pytest.raises(ValueError):
            sample_ball(Pseudo(1), 0)


def _normals(src, count):
    """*count* (even) Box-Muller normals through rng._gaussian_pairs: normals 2k, 2k + 1 read scalars 2k, 2k + 1."""
    return rng._gaussian_pairs(src.take(count).reshape(-1, 2)).ravel()


class TestNormals:
    def test_pair_is_two_values(self):
        z = _normals(Pseudo(41), 2)
        assert z.shape == (2,) and z.dtype == np.float64

    def test_moments(self):
        z = _normals(Pseudo(42), 1_000_000)
        assert abs(z.mean()) < 0.004
        assert abs(z.var() - 1.0) < 0.005

    def test_central_mass(self):
        n = 1_000_000
        z = _normals(Pseudo(43), n)
        p = 0.9500042097035593  # Phi(1.96) - Phi(-1.96)
        assert abs(int((np.abs(z) < 1.96).sum()) - n * p) < 3.0 * binomial_sigma(n, p)

    def test_box_muller_pair(self):
        # (u, w) gives sqrt(-2 ln u) (cos 2 pi w, sin 2 pi w)
        z = _normals(ScriptedSource([0.25, 0.25, 0.5, 0.0]), 4)
        radius = math.sqrt(-2.0 * math.log(0.25))
        assert np.allclose(z, [0.0, radius, math.sqrt(-2.0 * math.log(0.5)), 0.0], atol=1e-15)

    @pytest.mark.parametrize("scalar", [0.0, 1.0 - 2.0**-53])
    def test_extreme_scalars_finite(self, scalar):
        z = _normals(ScriptedSource([scalar] * 4), 4)
        assert np.isfinite(z).all() and (np.abs(z[::2]) > 0.0).all()

    def test_even_split_matches_one_call(self):
        src = Pseudo(45)
        parts = [_normals(src, k) for k in (2, 998, 9000)]
        assert np.array_equal(_normals(Pseudo(45), 10_000), np.concatenate(parts))

    def test_pair_stream_deterministic(self):
        assert _normals(Pseudo(44), 2).tolist() == _normals(Pseudo(44), 2).tolist()


class TestBallVolume:
    def test_known_values(self):
        assert unit_ball_volume(0) == 1.0
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)

    def test_negative_dimension(self):
        with pytest.raises(ValueError):
            unit_ball_volume(-1)
