"""Outside-in layer trace of croftoncloud, run from the benchmark process.

``Tracer.patched`` replaces the program's layer-boundary functions (module
and class attributes) with wrappers for the duration of one pass; ``field``
wraps the field callables the benchmark builds.  Every call records a span
``[name, start, end, parent, pass id, counts]`` in memory.  ``values`` turns
the spans of one pass into the per-layer metrics: each ``*_s`` metric is a
self time, the span time minus the time of its child spans, and counts are
read from the wrapped calls' arguments and results.

A target that no longer exists (a private name renamed by a refactor) is
reported in ``not_measured`` and its metrics are left out; the untraced
passes never touch these names.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

FORMATS = ("xyz", "ply_ascii", "ply_binary")
FIELD_SPANS = ("surfaces.field", "expr.eval")
# field points are attributed to the nearest enclosing span among these
FIELD_USERS = {"samplers.scan": "scan", "samplers.refine": "refine", "samplers.normals": "normals"}


def _ply_kind(path) -> str:
    with open(path, "rb") as fh:
        return "ply_binary" if b"binary" in fh.read(64) else "ply_ascii"


def _write_kind(args, kwargs) -> str:
    binary = kwargs.get("binary", args[4] if len(args) > 4 else False)
    return f"cloudio.{'ply_binary' if binary else 'ply_ascii'}.write"


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _points(args, kwargs, result) -> dict:
    return {"points": len(result)}


# (owner, attribute, span name or name(args, kwargs), counts(args, kwargs, result) or None)
TARGETS = [
    ("croftoncloud.geometry", "sample_line_batch", "geometry.draw", lambda a, k, r: {"lines": len(r[0])}),
    ("croftoncloud.samplers", "_scan_lines", "samplers.scan", lambda a, k, r: {"lines": len(r[0]), "hits": int(r[0].sum())}),
    ("croftoncloud.samplers", "_field_on_grid", "samplers.grid_field", None),
    ("croftoncloud.samplers", "_refine_bisection", "samplers.refine", lambda a, k, r: {"brackets": len(r)}),
    ("croftoncloud.samplers", "_unit_normals", "samplers.normals", None),
    ("croftoncloud.samplers", "cloud_parametric", "samplers.tri", _points),
    ("croftoncloud.samplers", "cloud_triangulated", "samplers.tri", _points),
    ("croftoncloud.samplers", "triangulate_parametric", "surfaces.triangulate", None),
    ("croftoncloud.surfaces", "triangulate_parametric", "surfaces.triangulate", None),
    (
        "croftoncloud.crofton",
        "_mesh_hits",
        "crofton.mesh",
        lambda a, k, r: {"lines": len(r[0]), "hits": len(r[2]), "pairs": len(a[0]) * len(r[0])},
    ),
    ("croftoncloud.crofton", "estimate_area", "crofton.estimate", None),
    ("croftoncloud.crofton", "estimate_surface_integral", "crofton.estimate", None),
    ("croftoncloud.normals.NeighborIndex", "__init__", "normals.index", lambda a, k, r: {"points": len(a[1])}),
    ("croftoncloud.normals", "normal_cloud", "normals.query", lambda a, k, r: {"queries": 1}),
    ("croftoncloud.cloudio", "write_xyz", "cloudio.xyz.write", _file_bytes),
    ("croftoncloud.cloudio", "read_xyz", "cloudio.xyz.read", _file_bytes),
    ("croftoncloud.cloudio", "write_ply", _write_kind, _file_bytes),
    ("croftoncloud.cloudio", "read_ply", lambda a, k: f"cloudio.{_ply_kind(a[0])}.read", _file_bytes),
    ("croftoncloud.meshio", "read_off", "meshio.read", lambda a, k, r: {"triangles": len(r)}),
]

# per-layer metrics: name -> (unit, better, span whose absence leaves it unmeasured)
METRICS = {
    "geometry.draw_s": ("s", "lower", "geometry.draw"),
    "geometry.lines": ("lines", "lower", "geometry.draw"),
    "samplers.scan_s": ("s", "lower", "samplers.scan"),
    "samplers.grid_field_s": ("s", "lower", "samplers.grid_field"),
    "samplers.scan_lines": ("lines", "lower", "samplers.scan"),
    "samplers.scan_hits": ("hits", "higher", "samplers.scan"),
    "surfaces.field_s": ("s", "lower", None),
    "surfaces.field_points": ("points", "lower", "samplers.scan"),
    "surfaces.field_points.scan": ("points", "lower", "samplers.scan"),
    "surfaces.field_points.refine": ("points", "lower", "samplers.refine"),
    "surfaces.field_points.normals": ("points", "lower", "samplers.normals"),
    "surfaces.field_points_per_hit": ("points/hit", "lower", "samplers.scan"),
    "expr.eval_s": ("s", "lower", None),
    "expr.points": ("points", "lower", None),
    "samplers.refine_s": ("s", "lower", "samplers.refine"),
    "samplers.refine_brackets": ("brackets", "lower", "samplers.refine"),
    "samplers.refine_rounds": ("calls/call", "lower", "samplers.refine"),
    "samplers.normals_s": ("s", "lower", "samplers.normals"),
    "crofton.mesh_s": ("s", "lower", "crofton.mesh"),
    "crofton.mesh_lines": ("lines", "lower", "crofton.mesh"),
    "crofton.mesh_hits": ("hits", "higher", "crofton.mesh"),
    "crofton.mesh_pair_rate": ("pairs/s", "higher", "crofton.mesh"),
    "crofton.estimate_s": ("s", "lower", "crofton.estimate"),
    "samplers.tri_s": ("s", "lower", "samplers.tri"),
    "samplers.tri_points": ("points", "higher", "samplers.tri"),
    "surfaces.triangulate_s": ("s", "lower", "surfaces.triangulate"),
    "normals.index_s": ("s", "lower", "normals.index"),
    "normals.query_s": ("s", "lower", "normals.query"),
    "normals.queries": ("queries", "higher", "normals.query"),
    **{
        f"cloudio.{fmt}.{key}": (unit, better, f"cloudio.{fmt}.{op}")
        for fmt in FORMATS
        for key, unit, better, op in (
            ("write_s", "s", "lower", "write"),
            ("read_s", "s", "lower", "read"),
            ("bytes", "bytes", "lower", "write"),
            ("write_mb_per_s", "MB/s", "higher", "write"),
            ("read_mb_per_s", "MB/s", "higher", "read"),
        )
    },
    "meshio.read_s": ("s", "lower", "meshio.read"),
    "meshio.triangles": ("triangles", "higher", "meshio.read"),
    "unattributed_s": ("s", "lower", None),
    "trace_overhead_s": ("s", "lower", None),
}


def _resolve(dotted: str):
    """The module or class named by *dotted*, or None when it no longer exists."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.pass_id = None
        found = {name for owner, attr, name, _ in TARGETS if isinstance(name, str) and hasattr(_resolve(owner), attr)}
        wanted = {name for _, _, name, _ in TARGETS if isinstance(name, str)}
        self.not_measured = sorted(wanted - found)

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(spans)
            spans.append([label, time.perf_counter(), None, stack[-1] if stack else None, self.pass_id, {}])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                spans[idx][5] = counts(args, kwargs, result)
            return result

        return traced

    def field(self, name: str, fn):
        """Wrap a field callable ``(..., 3) -> (...)`` the benchmark built."""
        return self.wrap(name, fn, lambda a, k, r: {"points": a[0].size // 3})

    @contextmanager
    def patched(self, pass_id):
        """Install the wrappers for one pass, then restore the originals."""
        self.pass_id = pass_id
        saved, wrapped = [], {}
        # the package re-exports public functions, so patch those names too
        package = importlib.import_module("croftoncloud")
        for owner_name, attr, name, counts in TARGETS:
            owner = _resolve(owner_name)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = self.wrap(name, original, counts)
            for target in (owner, package):
                if getattr(target, attr, None) is original:
                    saved.append((target, attr, original))
                    setattr(target, attr, wrapped[id(original)])
        try:
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)
            self.pass_id = None

    def values(self, pass_id, wall: float) -> dict:
        """Per-layer metrics of one pass whose wall time was *wall*."""
        spans = self.spans
        ids = [i for i, s in enumerate(spans) if s[4] == pass_id]
        dur = {i: spans[i][2] - spans[i][1] for i in ids}
        child = defaultdict(float)
        for i in ids:
            if spans[i][3] is not None:
                child[spans[i][3]] += dur[i]
        own = defaultdict(float)
        n = defaultdict(float)
        calls = defaultdict(int)
        top = 0.0
        for i in ids:
            name, _, _, parent, _, counts = spans[i]
            own[name] += dur[i] - child[i]
            calls[name] += 1
            for key, value in counts.items():
                n[f"{name}.{key}"] += value
            if parent is None:
                top += dur[i]
            if name in FIELD_SPANS:
                user = self._field_user(i)
                if user:
                    n[f"field.{user}"] += counts["points"]
                if parent is not None and spans[parent][0] == "samplers.refine":
                    n["refine.field_calls"] += 1

        field_points = n["field.scan"] + n["field.refine"] + n["field.normals"]
        hits = n["samplers.scan.hits"]
        v = {
            "geometry.draw_s": own["geometry.draw"],
            "geometry.lines": n["geometry.draw.lines"],
            "samplers.scan_s": own["samplers.scan"],
            "samplers.grid_field_s": own["samplers.grid_field"],
            "samplers.scan_lines": n["samplers.scan.lines"],
            "samplers.scan_hits": hits,
            "surfaces.field_s": own["surfaces.field"],
            "surfaces.field_points": field_points,
            "surfaces.field_points.scan": n["field.scan"],
            "surfaces.field_points.refine": n["field.refine"],
            "surfaces.field_points.normals": n["field.normals"],
            "surfaces.field_points_per_hit": field_points / hits if hits else 0.0,
            "expr.eval_s": own["expr.eval"],
            "expr.points": n["expr.eval.points"],
            "samplers.refine_s": own["samplers.refine"],
            "samplers.refine_brackets": n["samplers.refine.brackets"],
            "samplers.refine_rounds": n["refine.field_calls"] / calls["samplers.refine"] if calls["samplers.refine"] else 0.0,
            "samplers.normals_s": own["samplers.normals"],
            "crofton.mesh_s": own["crofton.mesh"],
            "crofton.mesh_lines": n["crofton.mesh.lines"],
            "crofton.mesh_hits": n["crofton.mesh.hits"],
            "crofton.mesh_pair_rate": n["crofton.mesh.pairs"] / own["crofton.mesh"] if own["crofton.mesh"] else 0.0,
            "crofton.estimate_s": own["crofton.estimate"],
            "samplers.tri_s": own["samplers.tri"],
            "samplers.tri_points": n["samplers.tri.points"],
            "surfaces.triangulate_s": own["surfaces.triangulate"],
            "normals.index_s": own["normals.index"],
            "normals.query_s": own["normals.query"],
            "normals.queries": n["normals.query.queries"],
            "meshio.read_s": own["meshio.read"],
            "meshio.triangles": n["meshio.read.triangles"],
            "unattributed_s": wall - top,
        }
        for fmt in FORMATS:
            base = f"cloudio.{fmt}"
            write_s, read_s = own[f"{base}.write"], own[f"{base}.read"]
            v[f"{base}.write_s"] = write_s
            v[f"{base}.read_s"] = read_s
            v[f"{base}.bytes"] = n[f"{base}.write.bytes"]
            v[f"{base}.write_mb_per_s"] = n[f"{base}.write.bytes"] / 1e6 / write_s if write_s else 0.0
            v[f"{base}.read_mb_per_s"] = n[f"{base}.read.bytes"] / 1e6 / read_s if read_s else 0.0
        return v

    def _field_user(self, i: int):
        parent = self.spans[i][3]
        while parent is not None:
            user = FIELD_USERS.get(self.spans[parent][0])
            if user:
                return user
            parent = self.spans[parent][3]
        return None

    def unmeasured_metrics(self) -> set:
        return {name for name, (_, _, span) in METRICS.items() if span in self.not_measured}
