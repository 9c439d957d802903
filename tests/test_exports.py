"""Every exported name and every benchmark hook resolves, and the public API is pinned.

A deletion or rename must not leave a stale ``__all__`` entry, nor turn a
layer of the benchmark's outside-in trace into "not measured".  Adding or
removing a public name takes a deliberate edit of ``PUBLIC``, as a knob
takes one in ``tests/test_knobs.py``.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import croftoncloud

MODULES = sorted(f"croftoncloud.{info.name}" for info in pkgutil.iter_modules(croftoncloud.__path__))
LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"

PUBLIC = [
    "BoxDomain", "CATALOG", "CroftonEstimate", "ImplicitSurface", "NeighborIndex", "ParametricSurface",
    "PointCloud", "Pseudo", "RegionTest", "ScalarSource", "TriangulatedSurface", "VanDerCorput",
    "VanDerCorputRearranged", "__version__", "cloud_axis_aligned", "cloud_implicit", "cloud_parametric",
    "cloud_triangulated", "curse_benchmark", "density_variation", "estimate_area", "estimate_double_integral",
    "estimate_surface_integral", "kinematic_mass", "ktuple_test", "normal_cloud", "region_test", "sample_ball",
    "sample_box", "sample_sphere", "triangle_area", "triangulate_parametric", "unit_ball_volume", "validate",
]


def _layertrace():
    spec = importlib.util.spec_from_file_location("_layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["croftoncloud"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes {missing}"


def test_package_exports_its_modules_names():
    # the package re-exports names, never defines them: each must come from a module's __all__
    public = {attr for name in MODULES for attr in getattr(importlib.import_module(name), "__all__", [])}
    stray = [attr for attr in croftoncloud.__all__ if attr != "__version__" and attr not in public]
    assert not stray, f"croftoncloud.__all__ names {stray} that no module exports"


def test_public_api_is_pinned():
    assert sorted(croftoncloud.__all__) == PUBLIC


def test_benchmark_trace_targets_resolve():
    layertrace = _layertrace()
    missing = []
    for owner, attr, *_ in layertrace.TARGETS:
        obj = layertrace._resolve(owner)
        if obj is None or not hasattr(obj, attr):
            missing.append(f"{owner}.{attr}")
    assert not missing, f"perfbench/layertrace.py targets no longer exist: {missing}"
