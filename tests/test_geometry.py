import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from croftoncloud.geometry import (
    AntipodalError,
    OrientedLine,
    kinematic_mass,
    make_line,
    rotation_from_to,
    sample_line,
    sample_line_batch,
    unit_sphere_area,
)
from croftoncloud.rng import Pseudo

from conftest import binomial_sigma


def unit_vectors(dim=3):
    return (
        st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(lambda v: v / np.linalg.norm(v))
    )


class TestMakeLine:
    def test_drops_direction_component(self):
        line = make_line([0.0, 0.0, 1.0], [1.0, 2.0, 5.0])
        assert line.foot.tolist() == [1.0, 2.0, 0.0]

    def test_axis_point_maps_to_origin(self):
        line = make_line([1.0, 0.0, 0.0], [3.5, 0.0, 0.0])
        assert line.foot.tolist() == [0.0, 0.0, 0.0]

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            make_line([0.0, 0.0, 2.0], [0.0, 0.0, 0.0])

    @given(unit_vectors(), st.lists(st.floats(-10, 10), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_foot_is_orthogonal(self, v, q):
        line = make_line(v, np.array(q))
        assert abs(float(line.foot @ line.direction)) <= 1e-10 * (1.0 + np.linalg.norm(line.foot))

    @given(unit_vectors())
    @settings(max_examples=100, deadline=None)
    def test_idempotent_on_orthogonal_feet(self, v):
        q = np.array([0.7, -0.3, 1.1])
        p = q - (q @ v) * v
        p -= (p @ v) * v  # fully orthogonal foot, not just up to cancellation
        again = make_line(v, p).foot
        assert np.linalg.norm(again - p) <= 1e-15 * max(np.linalg.norm(p), 1e-300)

    def test_point_at(self):
        line = OrientedLine(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
        assert line.point_at(2.0).tolist() == [1.0, 0.0, 2.0]
        assert line.point_at(np.array([0.0, 1.0])).shape == (2, 3)


class TestRotation:
    def test_identity_when_equal(self):
        assert np.allclose(rotation_from_to([0, 0, 1.0], [0, 0, 1.0]), np.eye(3), atol=1e-15)

    def test_e3_to_e1_closed_form(self):
        rot = rotation_from_to([0, 0, 1.0], [1.0, 0, 0])
        assert np.allclose(rot, [[0, 0, 1], [0, 1, 0], [-1, 0, 0]], atol=1e-15)
        assert np.allclose(rot @ [0, 0, 1.0], [1, 0, 0], atol=1e-15)
        assert np.allclose(rot @ [0, 1.0, 0], [0, 1, 0], atol=1e-15)

    def test_antipodal_raises(self):
        with pytest.raises(AntipodalError):
            rotation_from_to([0, 0, 1.0], [0, 0, -1.0])

    @given(unit_vectors(), unit_vectors())
    # near-antipodal pair, unit only to rounding, once drawn by the search
    @example(np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 2e-6]) / np.linalg.norm([-1.0, 0.0, 2e-6]))
    @settings(max_examples=300, deadline=None)
    def test_contract_on_random_pairs(self, ui, uf):
        if float((ui + uf) @ (ui + uf)) <= 1e-12:
            return
        rot = rotation_from_to(ui, uf)
        assert np.linalg.norm(rot @ ui - uf) < 1e-12
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12

    @given(unit_vectors(), unit_vectors())
    @settings(max_examples=100, deadline=None)
    def test_swap_gives_transpose(self, ui, uf):
        if float((ui + uf) @ (ui + uf)) <= 1e-12:
            return
        assert np.abs(rotation_from_to(ui, uf) - rotation_from_to(uf, ui).T).max() < 1e-12


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
        line = sample_line(Pseudo(4), 3, 2.0)
        assert isinstance(line, OrientedLine)
        assert np.linalg.norm(line.foot) < 2.0

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            sample_line(Pseudo(1), 3, 0.0)

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
        # the collapsed transvection formula equals applying the full matrix
        dirs, feet = sample_line_batch(Pseudo(8), 3, 1.5, 200)
        for v, p in zip(dirs, feet):
            rot = rotation_from_to([0.0, 0.0, 1.0], v)
            back = rot.T @ p
            assert abs(back[2]) < 1e-9
            assert np.linalg.norm(rot @ back - p) < 1e-12

    def test_general_dimension_contract(self):
        dirs, feet = sample_line_batch(Pseudo(9), 4, 1.0, 500)
        assert np.abs((dirs * feet).sum(axis=1)).max() < 1e-10 * 2.0
        assert np.linalg.norm(feet, axis=1).max() < 1.0
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-12

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
