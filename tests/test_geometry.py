import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croftoncloud.geometry import (
    _cross,
    _reflect_feet,
    _unit,
    kinematic_mass,
    sample_line_batch,
    unit_sphere_area,
)
from croftoncloud.rng import Pseudo, sample_ball
from croftoncloud.surfaces import sphere_chart, triangle_area, triangle_normal, triangulate_parametric

from conftest import ScriptedSource, binomial_sigma


def unit_vectors(dim=3):
    return (
        st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(lambda v: v / np.linalg.norm(v))
    )


def _disk(seed, count, r):
    """Points of the radius-r disk, drawn from Pseudo(seed)."""
    return sample_ball(Pseudo(seed), 2, size=count) * r


def _in_plane(disk):
    return np.hstack([disk, np.zeros((len(disk), 1))])


class TestReflection:
    """_reflect_feet: disk points of the plane z = 0 reflected into the plane orthogonal to each direction."""

    def test_identity_when_equal(self):
        dirs = np.tile([0.0, 0.0, 1.0], (50, 1))
        disk = _disk(1, 50, 1.5)
        assert np.array_equal(_reflect_feet(dirs, disk), _in_plane(disk))

    def test_e3_to_e1_closed_form(self):
        # for v_3 >= 0 the reflection agrees with the rotation taking e_3 to v
        dirs = np.tile([1.0, 0.0, 0.0], (50, 1))
        rot = np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0.0]])
        disk = _disk(2, 50, 1.5)
        assert np.array_equal(_reflect_feet(dirs, disk), _in_plane(disk) @ rot.T)

    @given(unit_vectors(), st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_contract_on_random_pairs(self, v, seed):
        disk = _disk(seed, 1, 1.0)
        foot = _reflect_feet(v[None], disk)[0]
        assert abs(foot @ v) <= 1e-14
        assert abs(np.linalg.norm(foot) - np.linalg.norm(disk)) <= 1e-15

    @pytest.mark.parametrize("angle", [1e-4, 2e-6, 1e-7, 0.0])
    def test_near_antipodal_directions(self, angle):
        # s = v - e_3 has <s, s> >= 2, so directions near -e_3 keep full precision
        azimuth = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
        dirs = np.stack(
            [np.sin(angle) * np.cos(azimuth), np.sin(angle) * np.sin(azimuth), -np.cos(angle) * np.ones(200)], axis=1
        )
        disk = _disk(3, 200, 2.0)
        feet = _reflect_feet(dirs, disk)
        assert np.abs((feet * dirs).sum(axis=1)).max() <= 1e-14 * 2.0
        assert np.abs(np.linalg.norm(feet, axis=1) - np.linalg.norm(disk, axis=1)).max() <= 1e-15 * 2.0


class TestCross:
    """``_cross`` gives the bytes of ``np.cross``, shape included."""

    @staticmethod
    def assert_same_bytes(a, b):
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = _cross(a, b), np.cross(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_rows(self, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.normal(size=(1000, 3)) * 10.0 ** rng.uniform(-8, 8, (1000, 3)) for _ in range(2))
        self.assert_same_bytes(a, b)

    @pytest.mark.parametrize(
        "shape_a, shape_b", [((3,), (3,)), ((3,), (7, 3)), ((4, 1, 3), (5, 3)), ((2, 6, 3), (2, 6, 3))]
    )
    def test_broadcast_shapes(self, shape_a, shape_b):
        rng = np.random.default_rng(len(shape_a) + 3 * len(shape_b))
        self.assert_same_bytes(rng.normal(size=shape_a), rng.normal(size=shape_b))

    def test_signed_zeros_infinities_and_nan(self):
        values = np.array([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan])
        vectors = np.stack(np.meshgrid(values, values, values, indexing="ij"), axis=-1).reshape(-1, 3)
        # every ordered pair of the 343 vectors
        self.assert_same_bytes(vectors[:, None], vectors[None, :])


class TestKinematicMass:
    def test_three_dimensional_values(self):
        assert kinematic_mass(3, 1.0) == pytest.approx(4.0 * math.pi**2, rel=1e-14)
        assert kinematic_mass(3, 2.0) == pytest.approx(16.0 * math.pi**2, rel=1e-14)

    def test_planar_value(self):
        assert kinematic_mass(2, 1.0) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_sphere_areas(self):
        assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            kinematic_mass(1, 1.0)
        with pytest.raises(ValueError):
            kinematic_mass(3, 0.0)


class TestLineSampling:
    def test_contract(self):
        dirs, feet = sample_line_batch(Pseudo(3), 3, 2.0, 20_000)
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-12
        assert np.linalg.norm(feet, axis=1).max() < 2.0
        dots = np.abs((dirs * feet).sum(axis=1))
        assert (dots <= 1e-10 * (1.0 + np.linalg.norm(feet, axis=1))).all()

    def test_single_line(self):
        dirs, feet = sample_line_batch(Pseudo(4), 3, 2.0, 1)
        assert dirs.shape == feet.shape == (1, 3)
        assert np.linalg.norm(feet[0]) < 2.0

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            sample_line_batch(Pseudo(1), 3, 0.0, 1)

    def test_foot_disk_area_fraction(self):
        n = 1_000_000
        _, feet = sample_line_batch(Pseudo(5), 3, 2.0, n)
        inner = int((np.linalg.norm(feet, axis=1) < 1.0).sum())
        assert abs(inner - n * 0.25) < 3.0 * binomial_sigma(n, 0.25)

    def test_translation_invariance(self):
        # lines hitting a small ball anywhere inside the clip ball do so with
        # probability (rho / r)^2
        n = 400_000
        r, rho = 2.0, 0.5
        dirs, feet = sample_line_batch(Pseudo(6), 3, r, n)
        p = (rho / r) ** 2
        for center in ([0.0, 0.0, 0.0], [1.0, 0.0, 0.5], [-0.6, 0.9, -0.4]):
            c = np.array(center)
            assert np.linalg.norm(c) + rho < r
            offset = c - feet
            perp = offset - (offset * dirs).sum(axis=1, keepdims=True) * dirs
            hits = int((np.linalg.norm(perp, axis=1) < rho).sum())
            assert abs(hits - n * p) < 3.0 * binomial_sigma(n, p)

    def test_euclidean_invariance_under_rotations(self):
        n = 200_000
        dirs, feet = sample_line_batch(Pseudo(7), 3, 2.0, n)
        rotations = [
            np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1.0]]),
            np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0.0]]),
            np.array([[-1, 0, 0], [0, 0, 1], [0, 1, 0.0]]),
        ]
        for rot in rotations:
            rdirs = dirs @ rot.T
            cap = int((rdirs[:, 2] > 0.5).sum())
            assert abs(cap - n * 0.25) < 3.0 * binomial_sigma(n, 0.25)
            rfeet = feet @ rot.T
            inner = int((np.linalg.norm(rfeet, axis=1) < 1.0).sum())
            assert abs(inner - n * 0.25) < 3.0 * binomial_sigma(n, 0.25)

    def test_foot_matches_explicit_rotation(self):
        # the collapsed formula equals applying the full reflection matrix
        # H = I - (2 / <s, s>) s s^T, s = v + sign(v_3) e_3, which takes -sign(v_3) e_3 to v;
        # for v_3 >= 0, H agrees on the plane z = 0 with the rotation taking e_3 to v
        dirs, feet = sample_line_batch(Pseudo(8), 3, 1.5, 200)
        e3 = np.array([0.0, 0.0, 1.0])
        assert (dirs[:, 2] < 0.0).any() and (dirs[:, 2] > 0.0).any()
        for v, p in zip(dirs, feet):
            sign = 1.0 if v[2] >= 0.0 else -1.0
            s = v + sign * e3
            h = np.eye(3) - (2.0 / (s @ s)) * np.outer(s, s)
            assert np.linalg.norm(h @ (-sign * e3) - v) < 1e-12
            disk = h @ p
            assert abs(disk[2]) < 1e-12
            assert np.linalg.norm(h @ disk - p) < 1e-12
            if sign > 0.0:
                rot = np.eye(3) + 2.0 * np.outer(v, e3) - (2.0 / (s @ s)) * np.outer(s, s)
                assert np.linalg.norm(rot @ disk - p) < 1e-12

    def test_general_dimension_contract(self):
        dirs, feet = sample_line_batch(Pseudo(9), 4, 1.0, 500)
        assert np.abs((dirs * feet).sum(axis=1)).max() < 1e-10 * 2.0
        assert np.linalg.norm(feet, axis=1).max() < 1.0
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_line_j_does_not_depend_on_batch_split(self, n):
        whole = sample_line_batch(Pseudo(20 + n), n, 1.5, 10_000)
        src = Pseudo(20 + n)
        parts = [sample_line_batch(src, n, 1.5, count) for count in (1, 999, 9_000)]
        for k in range(2):
            assert np.array_equal(whole[k], np.concatenate([part[k] for part in parts]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("scalar", [0.0, 1.0 - 2.0**-53])
    def test_extreme_scalar_blocks(self, n, scalar):
        # every scalar of every line's block at either end of [0, 1)
        r = 1.5
        dirs, feet = sample_line_batch(ScriptedSource([scalar] * (2 * n + 1) * 3), n, r, 3)
        assert np.isfinite(dirs).all() and np.isfinite(feet).all()
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-15
        radii = np.linalg.norm(feet, axis=1)
        assert (radii > 0.0).all() and (radii < r).all()
        assert np.abs((dirs * feet).sum(axis=1)).max() < 1e-14 * r

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_feet_in_general_dimension(self, n):
        # feet orthogonal to directions, inside the r-ball, and uniform in
        # the (n-1)-ball: P(|p| < r/2) = 2^-(n-1)
        count, r = 20_000, 1.5
        dirs, feet = sample_line_batch(Pseudo(10 + n), n, r, count)
        assert np.abs((dirs * feet).sum(axis=1)).max() < 1e-12 * r
        radii = np.linalg.norm(feet, axis=1)
        assert radii.max() < r
        p = 2.0 ** -(n - 1)
        inner = int((radii < r / 2).sum())
        assert abs(inner - count * p) < 3.0 * binomial_sigma(count, p)


class TestUnit:
    """One rule turns a vector into a unit normal: gradients, chart partials' cross products and triangle normals."""

    def test_rows_without_a_direction_are_nan(self):
        v = np.array([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0], [np.nan, 1.0, 0.0], [1e-200, 2e-200, 0.0], [3.0, 0.0, -4.0]])
        got = _unit(v)
        assert np.isnan(got[:3]).all()
        assert np.allclose(got[3], [1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0), 0.0], rtol=1e-15, atol=0.0)
        assert got[4].tolist() == [0.6, 0.0, -0.8]
        assert _unit(v[4]).tolist() == [0.6, 0.0, -0.8] and _unit(np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("scale", [1e-155, 1e100])
    def test_tiny_and_huge_triangles_get_their_unit_normal(self, scale):
        # the squares of the cross product underflow or overflow, so it is divided by its largest component first
        tri = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]) * scale
        assert triangle_normal(tri).tolist() == [0.0, 0.0, 1.0]
        assert triangle_normal(tri[::-1]).tolist() == [0.0, 0.0, -1.0]
        if scale < 1.0:
            # its area is 0 too, so a cloud never picks it
            assert triangle_area(tri) == 0.0

    def test_degenerate_and_pole_triangles_keep_their_nan_bytes(self):
        mesh, _ = triangulate_parametric(sphere_chart())
        tris = np.concatenate([mesh.triangles, [[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)]]])
        # the division it replaced
        cross = _cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 1])
        norm = np.linalg.norm(cross, axis=-1, keepdims=True)
        with np.errstate(invalid="ignore"):
            want = cross / np.where(norm > 0.0, norm, np.nan)
        got = triangle_normal(tris)
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[-1]).all() and np.isnan(got[:-1]).all(axis=1).sum() > 0
