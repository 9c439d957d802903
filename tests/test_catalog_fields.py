"""The catalog's expression fields against the hand-written numpy fields and gradients they replaced."""

import numpy as np
import pytest

from croftoncloud.rng import Pseudo
from croftoncloud.samplers import cloud_axis_aligned
from croftoncloud.surfaces import (
    CATALOG,
    FD_STEP,
    corner_pyramid_implicit,
    ellipsoid_implicit,
    plane_implicit,
    sphere_implicit,
    torus_implicit,
)


def _sphere(radius=1.0):
    r2 = radius * radius

    def f(x):
        return x[..., 0] ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2 - r2

    return f, lambda x: 2.0 * x


def _torus(ring_radius=2.0, tube_radius=0.5):
    def f(x):
        s = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)
        return (s - ring_radius) ** 2 + x[..., 2] ** 2 - tube_radius**2

    def grad(x):
        s = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)
        factor = 2.0 * (s - ring_radius) / np.where(s > 0.0, s, np.inf)
        return np.stack([factor * x[..., 0], factor * x[..., 1], 2.0 * x[..., 2]], axis=-1)

    return f, grad


def _ellipsoid(a=1.5, b=1.0, c=0.5):
    def f(x):
        return (x[..., 0] / a) ** 2 + (x[..., 1] / b) ** 2 + (x[..., 2] / c) ** 2 - 1.0

    def grad(x):
        return np.stack([2.0 * x[..., 0] / a**2, 2.0 * x[..., 1] / b**2, 2.0 * x[..., 2] / c**2], axis=-1)

    return f, grad


def _plane():
    def grad(x):
        g = np.zeros_like(x)
        g[..., 2] = 1.0
        return g

    return (lambda x: x[..., 2]), grad


#: the pyramid's four planes, as rows (normal, offset): the value of plane k at x is normal . x + offset
_PYRAMID_PLANES = np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 1.0, 1.0]])


def _pyramid():
    def f(x):
        return np.maximum.reduce([-x[..., 0], -x[..., 1], -x[..., 2], x[..., 0] + x[..., 1] + x[..., 2] - 1.0])

    def grad(x):
        # the normal of the plane that attains the max, the first of a tie
        planes = np.stack([-x[..., 0], -x[..., 1], -x[..., 2], x[..., 0] + x[..., 1] + x[..., 2] - 1.0], axis=-1)
        return _PYRAMID_PLANES[np.argmax(planes, axis=-1)]

    return f, grad


#: (builder, reference, parameters, size of the surface): the defaults, tiny, huge and negative radii
CASES = [
    (builder, reference, params, scale)
    for builder, reference, default in [
        (sphere_implicit, _sphere, (1.0,)),
        (torus_implicit, _torus, (2.0, 0.5)),
        (ellipsoid_implicit, _ellipsoid, (1.5, 1.0, 0.5)),
    ]
    for params, scale in [
        ((), 1.0),
        (tuple(1e-5 * v for v in default), 1e-5),
        (tuple(1e5 * v for v in default), 1e5),
        (tuple(-v if k % 2 == 0 else v for k, v in enumerate(default)), 1.0),
    ]
] + [(plane_implicit, _plane, (), 1.0), (corner_pyramid_implicit, _pyramid, (), 1.0)]


def _points(scale):
    """Seeded scan-like tiles around a surface of size *scale*: strided ``(63, 257, 3)``, then ``(m, 3)`` and one point."""
    rng = np.random.default_rng(41)
    tile = np.moveaxis(rng.normal(size=(3, 63, 257)), 0, -1) * (2.0 * scale)
    rows = rng.normal(size=(500, 3)) * (2.0 * scale)
    return [tile, rows, rows[7]]


@pytest.mark.parametrize("builder,reference,params,scale", CASES, ids=[f"{c[0].__name__}{c[2]}" for c in CASES])
def test_field_keeps_its_bits_and_gradient_its_value(builder, reference, params, scale):
    surface = builder(*params)
    field, gradient = reference(*params)
    for points in _points(scale):
        got = np.asarray(surface.field(points))
        assert got.shape == points.shape[:-1] and got.tobytes() == np.asarray(field(points)).tobytes()
        got, want = surface.gradient_at(points), gradient(points)
        assert got.shape == points.shape
        assert (np.linalg.norm(got - want, axis=-1) <= 1e-15 * np.linalg.norm(want, axis=-1)).all()


def test_torus_thinner_ring_than_tube_on_its_axis():
    # the surface meets its axis at a cone point, where the square root's partial is taken as 0, as the old gradient had it
    points = np.array([[0.0, 0.0, 0.4], [0.0, 0.0, -0.4], [-0.0, 0.0, 0.0]])
    field, gradient = _torus(0.3, 0.5)
    surface = torus_implicit(0.3, 0.5)
    assert surface.field(points).tobytes() == field(points).tobytes()
    assert surface.gradient_at(points).tolist() == gradient(points).tolist()


def test_every_catalog_implicit_surface_carries_its_gradient():
    # so no catalog cloud takes its normals from central differences
    for name, entry in CATALOG.items():
        if entry.implicit is not None:
            assert entry.implicit().gradient is not None, name


def test_pyramid_hits_beside_an_edge_get_their_face_normal():
    # two hits of this cloud lie 5.1e-6 from an edge, inside the central-difference step, which blended two faces
    cloud = cloud_axis_aligned(corner_pyramid_implicit(), Pseudo(1), 3000)
    x = cloud.positions
    planes = np.stack([-x[:, 0], -x[:, 1], -x[:, 2], x.sum(axis=1) - 1.0], axis=-1)
    top = np.sort(planes, axis=1)
    assert np.count_nonzero(top[:, -1] - top[:, -2] < FD_STEP) >= 2
    faces = _PYRAMID_PLANES / np.linalg.norm(_PYRAMID_PLANES, axis=1, keepdims=True)
    assert (cloud.normals == faces[np.argmax(planes, axis=1)]).all()
