"""Every exported name and every benchmark hook resolves, and the public API is pinned.

A deletion or rename must not leave a stale ``__all__`` entry, nor turn a
layer of the benchmark's outside-in trace into "not measured".  Adding or
removing a public name takes a deliberate edit of ``PUBLIC``, as a knob
takes one in ``tests/test_knobs.py``.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import croftoncloud
from croftoncloud import samplers

MODULES = sorted(f"croftoncloud.{info.name}" for info in pkgutil.iter_modules(croftoncloud.__path__))
LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"

PUBLIC = [
    "BoxDomain", "CATALOG", "CroftonEstimate", "ImplicitSurface", "NeighborIndex", "ParametricSurface",
    "PointCloud", "Pseudo", "RegionTest", "ScalarSource", "TriangulatedSurface", "VanDerCorput",
    "VanDerCorputRearranged", "__version__", "cloud_axis_aligned", "cloud_implicit", "cloud_parametric",
    "cloud_triangulated", "curse_benchmark", "density_variation", "estimate_area", "estimate_double_integral",
    "estimate_surface_integral", "kinematic_mass", "ktuple_test", "normal_cloud", "region_test", "sample_ball",
    "sample_box", "sample_sphere", "triangle_area", "triangulate_parametric", "unit_ball_volume",
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


def _scipy_modules_after(code):
    """The scipy modules a fresh interpreter holds after running *code*, which imports the package under test."""
    src = str(Path(croftoncloud.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    script = f"import sys\n{code}\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(ast.literal_eval(done.stdout.strip().splitlines()[-1]))


def test_importing_the_package_loads_no_scipy():
    # the line paths need only numpy; scipy is imported where a run uses it
    assert _scipy_modules_after(f"import {', '.join(['croftoncloud'] + MODULES)}") == set()


def test_scipy_is_imported_where_it_is_used():
    loaded = _scipy_modules_after("from croftoncloud import stats\nstats.ktuple_test([0.1, 0.6, 0.3], 1, 4)")
    assert "scipy.special" in loaded and "scipy.stats" not in loaded and "scipy.spatial" not in loaded
    loaded = _scipy_modules_after("import numpy as np, croftoncloud\ncroftoncloud.NeighborIndex(np.eye(3))")
    assert "scipy.spatial" in loaded and "scipy.stats" not in loaded


def test_benchmark_trace_targets_resolve():
    layertrace = _layertrace()
    missing = []
    for owner, attr, *_ in layertrace.TARGETS:
        obj = layertrace._resolve(owner)
        if obj is None or not hasattr(obj, attr):
            missing.append(f"{owner}.{attr}")
    assert not missing, f"perfbench/layertrace.py targets no longer exist: {missing}"


def test_benchmark_trace_hooks_record_their_counts():
    # the hooks wrap private names by call and return shape, so a changed shape fails here, not in the benchmark
    layertrace = _layertrace()
    tracer = layertrace.Tracer()
    assert not tracer.not_measured
    torus = croftoncloud.CATALOG["torus"].implicit()
    boxed = replace(torus, field=tracer.field("surfaces.field", torus.field))
    ball = replace(boxed, bounds=None)
    with tracer.patched(0):
        cloud = croftoncloud.cloud_implicit(boxed, croftoncloud.Pseudo(1), 500)
    with tracer.patched(1):
        area = croftoncloud.estimate_area(ball, croftoncloud.Pseudo(2), 1000)
    # a Crofton cloud on a mesh drives _mesh_hits, in chunks of 2,000,000 // 10,000 triangles = 200 lines
    mesh = croftoncloud.triangulate_parametric(croftoncloud.CATALOG["torus"].chart(u_res=51, v_res=101))[0]
    with tracer.patched(2):
        mesh_cloud = croftoncloud.cloud_implicit(mesh, croftoncloud.Pseudo(3), 500)
    assert {span[0] for span in tracer.spans} >= {"samplers.scan", "samplers.grid_field", "samplers.refine"}

    traced = tracer.values(0, wall=1.0)
    assert traced["samplers.scan_lines"] == traced["geometry.lines"] == samplers.DEFAULT_LINE_CHUNK
    assert traced["samplers.scan_hits"] >= len(cloud) and traced["samplers.grid_field_s"] > 0.0
    assert traced["samplers.refine_brackets"] >= len(cloud) and traced["samplers.refine_rounds"] > 1.0
    # the box leaves most of each ball chord unevaluated
    assert 0 < traced["surfaces.field_points.scan"] < 0.5 * samplers.DEFAULT_LINE_CHUNK * (samplers.SCAN_STEPS + 1)

    traced = tracer.values(1, wall=1.0)
    assert traced["samplers.scan_lines"] == traced["geometry.lines"] == 1000
    assert traced["samplers.scan_hits"] == sum(k * n for k, n in area.hit_histogram.items()) > 0
    assert traced["samplers.refine_brackets"] == 0
    assert traced["surfaces.field_points.scan"] == 1000 * (samplers.SCAN_STEPS + 1)

    traced = tracer.values(2, wall=1.0)
    drawn = -(-mesh_cloud.lines_used // 200) * 200
    assert traced["crofton.mesh_lines"] == traced["geometry.lines"] == drawn
    assert traced["crofton.mesh_hits"] >= len(mesh_cloud) and traced["samplers.scan_lines"] == 0
