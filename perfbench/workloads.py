"""The four workloads: seeded inputs, one timed pass, and the checks of its outputs.

Each workload calls the program only through ``croftoncloud.__all__``, the
expression compiler and the ``cloudio``/``meshio`` readers and writers.
``setup`` builds the inputs and warms up; ``run`` is one timed pass;
``check`` compares a pass's outputs with closed forms in ``checks``;
``traced`` returns the state with the field callables the benchmark built
wrapped by a tracer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import croftoncloud as cc
from croftoncloud import cloudio, expr, meshio

import checks

# the catalog torus (R = 2, r = 0.5) as a quartic: (|p|^2 + R^2 - r^2)^2 - 4 R^2 (x^2 + y^2)
TORUS_EXPR = "(x^2+y^2+z^2+3.75)^2-16*(x^2+y^2)"
Z2_EXPR = "z^2"
# torus chart grid for the mesh: 2 * 50 * 100 = 10,000 triangles
MESH_RES = (51, 101)


def stream(key: tuple, tag: str) -> cc.Pseudo:
    """Independent stream for each (key, tag); the same arguments give the same stream.

    A key is ``(seed, pass number)`` or ``(seed, "warm-up")``.
    """
    digest = hashlib.blake2b(repr((key, tag)).encode(), digest_size=8).digest()
    return cc.Pseudo(int.from_bytes(digest, "little"))


def write_off(path: str, triangles: np.ndarray) -> None:
    """OFF file of a triangle list with shared vertices; repr round-trips each double."""
    verts, faces = np.unique(triangles.reshape(-1, 3), axis=0, return_inverse=True)
    faces = faces.reshape(-1, 3)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"OFF\n{len(verts)} {len(faces)} 0\n")
        fh.writelines(f"{x!r} {y!r} {z!r}\n" for x, y, z in verts.tolist())
        fh.writelines(f"3 {a} {b} {c}\n" for a, b, c in faces.tolist())


def torus_mesh(res) -> np.ndarray:
    mesh, _ = cc.triangulate_parametric(cc.CATALOG["torus"].chart(u_res=res[0], v_res=res[1]))
    return mesh.triangles


@dataclass
class Pass:
    """One pass: wall time, work delivered, estimates, and outputs kept for the checks.

    Each estimate is ``(name, seconds, samples, value, standard_error)``.
    """

    seconds: float
    points: int
    lines: int
    estimates: list
    out: dict
    warnings: list = field(default_factory=list)


@contextmanager
def caught_warnings():
    """Record every warning raised inside the block."""
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        yield log


def _messages(log) -> list[str]:
    return [str(w.message) for w in log]


def _mean_se(values: np.ndarray):
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


class ImplicitCloud:
    """cloud_implicit on the catalog torus, then a binary PLY write and read."""

    name = "implicit_cloud"
    ops = 3

    def __init__(self, tiny: bool = False):
        # 42,600 points need about 61,400 lines: the middle of the eighth
        # 8192-line chunk, so every seed scans exactly eight chunks
        self.points = 600 if tiny else 42_600

    def setup(self, seed: int, tmp: str):
        state = SimpleNamespace(surface=cc.CATALOG["torus"].implicit(), path=os.path.join(tmp, "cloud.ply"))
        self.run(state, (seed, "warm-up"), points=500)
        return state

    def run(self, state, key: tuple, points=None) -> Pass:
        points = points or self.points
        with caught_warnings() as caught:
            t0 = time.perf_counter()
            cloud = cc.cloud_implicit(state.surface, stream(key, "lines"), points)
            t1 = time.perf_counter()
            cloudio.write_ply(state.path, cloud.positions, cloud.normals, binary=True)
            back = cloudio.read_ply(state.path)
            t2 = time.perf_counter()
        area = ("area", t1 - t0, cloud.lines_used) + _mean_se(cloud.per_line_counts.astype(np.float64))
        return Pass(t2 - t0, len(cloud), cloud.lines_used, [area], {"cloud": cloud, "back": back}, _messages(caught))

    def check(self, state, p: Pass) -> list[str]:
        return checks.no_warnings(p.warnings) + checks.implicit_cloud(p.out["cloud"], p.out["back"], self.points)

    def traced(self, state, tracer):
        surface = state.surface
        wrapped = dataclasses.replace(
            surface,
            field=tracer.field("surfaces.field", surface.field),
            gradient=tracer.field("surfaces.field", surface.gradient),
        )
        return SimpleNamespace(**{**vars(state), "surface": wrapped})


class _Estimates:
    """Area and integral of z^2 by line sampling, each from its own stream."""

    ops = 2

    def run(self, state, key: tuple, lines=None) -> Pass:
        lines = lines or self.lines
        src_area, src_z2 = stream(key, "area"), stream(key, "z2")
        with caught_warnings() as caught:
            t0 = time.perf_counter()
            area = cc.estimate_area(state.surface, src_area, lines)
            t1 = time.perf_counter()
            z2 = cc.estimate_surface_integral(state.surface, state.integrand, src_z2, lines)
            t2 = time.perf_counter()
        hits = sum(k * c for est in (area, z2) for k, c in est.hit_histogram.items())
        found = [("area", t1 - t0, lines, area.value, area.standard_error), ("z2", t2 - t1, lines, z2.value, z2.standard_error)]
        return Pass(t2 - t0, hits, 2 * lines, found, {"area": area, "z2": z2, "lines": lines}, _messages(caught))


class ImplicitEstimate(_Estimates):
    """Estimators on the torus given as an expression string compiled by expr."""

    name = "implicit_estimate"

    def __init__(self, tiny: bool = False):
        # whole 8192-line chunks of the estimators' scan
        self.lines = 2000 if tiny else 3 * 8192

    def setup(self, seed: int, tmp: str):
        field_fn = expr.compile_field(TORUS_EXPR)
        state = SimpleNamespace(
            surface=cc.ImplicitSurface(field_fn, checks.CLIP, name="torus-expr"),
            integrand=expr.compile_field(Z2_EXPR),
        )
        self.run(state, (seed, "warm-up"), lines=500)
        return state

    def check(self, state, p: Pass) -> list[str]:
        return checks.no_warnings(p.warnings) + checks.estimates(
            "implicit torus", p.out["area"], p.out["z2"], p.out["lines"], checks.TORUS_AREA, checks.TORUS_Z2
        )

    def traced(self, state, tracer):
        surface = dataclasses.replace(state.surface, field=tracer.field("expr.eval", state.surface.field))
        return SimpleNamespace(surface=surface, integrand=tracer.field("expr.eval", state.integrand))


def _z2(points: np.ndarray) -> np.ndarray:
    return points[:, 2] ** 2


class MeshEstimate(_Estimates):
    """Estimators on a closed torus chart mesh written to OFF and read back by meshio."""

    name = "mesh_estimate"

    def __init__(self, tiny: bool = False):
        self.res = (11, 21) if tiny else MESH_RES
        # two whole chunks: the estimators take 2,000,000 // triangles lines per chunk
        self.lines = 200 if tiny else 400

    def setup(self, seed: int, tmp: str):
        written = torus_mesh(self.res)
        path = os.path.join(tmp, "torus.off")
        write_off(path, written)
        mesh = meshio.read_off(path)
        state = SimpleNamespace(surface=mesh, integrand=_z2, written=written)
        state.truth = checks.mesh_area_and_z2(mesh.triangles)
        self.run(state, (seed, "warm-up"), lines=20)
        return state

    def check(self, state, p: Pass) -> list[str]:
        area_truth, z2_truth = state.truth
        problems = checks.same_bits("OFF mesh", state.written, state.surface.triangles)
        problems += checks.no_warnings(p.warnings)
        return problems + checks.estimates("torus mesh", p.out["area"], p.out["z2"], p.out["lines"], area_truth, z2_truth)

    def traced(self, state, tracer):
        return state


class ChartFiles:
    """Chart and mesh clouds, normals estimated from a cloud, and XYZ / ASCII PLY files."""

    name = "chart_files"

    def __init__(self, tiny: bool = False):
        self.res = (11, 21) if tiny else MESH_RES
        self.points = 20_000 if tiny else 200_000  # per cloud
        # at 20,000 points 99.8% of the estimated normals fall within 10 degrees
        self.indexed = 20_000  # points given to NeighborIndex
        self.queries = 20 if tiny else 400  # normal_cloud calls
        self.rows = 200 if tiny else 10_000  # rows per file
        self.ops = 8 + self.queries

    def setup(self, seed: int, tmp: str):
        off = os.path.join(tmp, "torus.off")
        write_off(off, torus_mesh(self.res))
        state = SimpleNamespace(
            chart=cc.CATALOG["torus"].chart(),
            off=off,
            xyz=os.path.join(tmp, "cloud.xyz"),
            ply=os.path.join(tmp, "cloud_ascii.ply"),
        )
        self.run(state, (seed, "warm-up"), scale=20)
        return state

    def run(self, state, key: tuple, scale=1) -> Pass:
        n, k, q, rows = self.points // scale, self.indexed // scale, max(self.queries // scale, 1), self.rows // scale
        with caught_warnings() as caught:
            t0 = time.perf_counter()
            mesh = meshio.read_off(state.off)
            t1 = time.perf_counter()
            chart_cloud = cc.cloud_parametric(state.chart, stream(key, "chart"), n)
            t2 = time.perf_counter()
            mesh_cloud = cc.cloud_triangulated(mesh, stream(key, "mesh"), n)
            t3 = time.perf_counter()
            sub = chart_cloud.positions[:k]
            index = cc.NeighborIndex(sub)
            normals = np.array([cc.normal_cloud(sub, i, neighbor_index=index) for i in range(q)])
            pos, nrm = chart_cloud.positions[:rows], chart_cloud.normals[:rows]
            cloudio.write_xyz(state.xyz, pos, nrm)
            xyz = cloudio.read_xyz(state.xyz)
            cloudio.write_ply(state.ply, pos, nrm)
            ply = cloudio.read_ply(state.ply)
            t4 = time.perf_counter()
        found = [
            ("chart z2", t2 - t1, n) + _mean_se(chart_cloud.positions[:, 2] ** 2),
            ("mesh z2", t3 - t2, n) + _mean_se(mesh_cloud.positions[:, 2] ** 2),
        ]
        out = {
            "mesh": mesh,
            "chart_cloud": chart_cloud,
            "mesh_cloud": mesh_cloud,
            "queried": sub[:q],
            "normals": normals,
            "rows": (pos, nrm),
            "xyz": xyz,
            "ply": ply,
        }
        return Pass(t4 - t0, 2 * n, 0, found, out, _messages(caught))

    def check(self, state, p: Pass) -> list[str]:
        out = p.out
        mesh_cloud = out["mesh_cloud"]
        problems = checks.no_warnings(p.warnings)
        problems += checks.on_torus("chart cloud", out["chart_cloud"].positions, checks.CHART_RESIDUAL)
        problems += checks.in_triangles(
            "mesh cloud", mesh_cloud.positions, out["mesh"].triangles[mesh_cloud.triangle_index]
        )
        problems += checks.cloud_normals("normal_cloud", out["queried"], out["normals"])
        problems += checks.round_trip("XYZ", *out["rows"], out["xyz"])
        problems += checks.round_trip("ASCII PLY", *out["rows"], out["ply"])
        return problems

    def traced(self, state, tracer):
        return state


WORKLOADS = {w.name: w for w in (ImplicitCloud, ImplicitEstimate, MeshEstimate, ChartFiles)}
