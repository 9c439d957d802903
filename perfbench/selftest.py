#!/usr/bin/env python3
"""Fast self-test of the benchmark (about twenty seconds).

    python3 perfbench/selftest.py

1. Every workload runs one tiny pass and passes its checks.
2. Every check is fed a deliberately corrupted output (a cloud shifted off
   the surface, a hit count made odd, a file with one digit changed, ...)
   and must report it, so that no check is vacuous.
3. A tracer whose target name is missing reports that layer as not measured
   and still completes a traced pass.
4. ``run.py --workload all --tiny`` prints every metric named in
   BENCHMARK.json, traced and untraced, and exits 0.
5. ``run.py`` in a directory holding only BENCHMARK.json and perfbench/
   exits with a non-zero code and prints no result.

Exits 0 when every step passes.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from croftoncloud import cloudio, meshio  # noqa: E402

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, problems: list[str], needle: str | None) -> None:
    """*needle* None: the output must pass; otherwise a problem must mention it."""
    if needle is None:
        ok = not problems
    else:
        ok = any(needle in p for p in problems)
    print(f"{'ok  ' if ok else 'FAIL'} {label}" + ("" if ok else f": {problems[:3]}"))
    if not ok:
        FAILURES.append(label)


def one_digit_changed(path: str, row: int | None = None) -> None:
    """Change the last digit of the first number on *row*: by default the first data row of a cloud file."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if row is None:
        row = lines.index("end_header\n") + 1 if lines[0] == "ply\n" else 0
    first = lines[row].split()[0]
    lines[row] = lines[row].replace(first, first[:-1] + ("1" if first[-1] != "1" else "2"), 1)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def corrupted(p, mutate):
    bad = copy.deepcopy(p)
    mutate(bad)
    return bad


def implicit_cloud(tmp):
    wl = workloads.ImplicitCloud(tiny=True)
    state = wl.setup(0, tmp)
    p = wl.run(state, (0, 0))
    expect("implicit_cloud passes", wl.check(state, p), None)

    def shift(q):
        q.out["cloud"].positions[:, 2] += 1e-3

    def outside(q):
        q.out["cloud"].positions[0] = [3.1, 0.0, 0.0]

    def turn_normal(q):
        q.out["cloud"].normals[0] = q.out["cloud"].normals[0][[1, 2, 0]]

    def empty_lines(q):
        cloud = q.out["cloud"]
        cloud.per_line_counts = np.concatenate([cloud.per_line_counts, np.zeros(cloud.lines_used, dtype=np.int64)])
        cloud.lines_used *= 2

    def mirror(q):
        q.out["cloud"].positions[:, 2] = np.abs(q.out["cloud"].positions[:, 2])

    def outward(q):
        pts = q.out["cloud"].positions
        s = np.hypot(pts[:, 0], pts[:, 1])
        scale = np.where(s < checks.RING, (2 * checks.RING - s) / s, 1.0)
        pts[:, :2] *= scale[:, None]

    def flip_bit(q):
        q.out["back"][0][0, 0] = np.nextafter(q.out["back"][0][0, 0], np.inf)

    for label, mutate, needle in (
        ("cloud shifted off the torus", shift, "torus equation"),
        ("point outside the clip ball", outside, "clip ball"),
        ("normal turned", turn_normal, "normal off"),
        ("empty lines added", empty_lines, "hits per line"),
        ("lower half mirrored up", mirror, "z > 0"),
        ("inner half moved out", outward, "outer half"),
        ("binary PLY value changed in its last bit", flip_bit, "binary PLY"),
    ):
        expect(f"implicit_cloud rejects: {label}", wl.check(state, corrupted(p, mutate)), needle)


def estimates(wl, tmp):
    state = wl.setup(0, tmp)
    p = wl.run(state, (0, 0))
    expect(f"{wl.name} passes", wl.check(state, p), None)

    def area_off(q):
        q.out["area"].value *= 3.0

    def z2_off(q):
        q.out["z2"].value *= 3.0

    def odd(q):
        hist = q.out["area"].hit_histogram
        hist[2] -= 1
        hist[3] = hist.get(3, 0) + 1

    def warned(q):
        q.warnings = ["clip radius may truncate surface"]

    for label, mutate, needle in (
        ("area off", area_off, "area"),
        ("integral off", z2_off, "integral of z^2"),
        ("a hit count made odd", odd, "odd hit count"),
        ("a warning", warned, "warning raised"),
    ):
        expect(f"{wl.name} rejects: {label}", wl.check(state, corrupted(p, mutate)), needle)
    return state, p


def mesh_estimate(tmp):
    wl = workloads.MeshEstimate(tiny=True)
    state, p = estimates(wl, tmp)
    path = os.path.join(tmp, "torus.off")
    one_digit_changed(path, row=2)  # the first vertex, after the OFF and count lines
    bad = copy.copy(state)
    bad.surface = meshio.read_off(path)
    expect("mesh_estimate rejects: OFF file with one digit changed", wl.check(bad, p), "OFF mesh")


def chart_files(tmp):
    wl = workloads.ChartFiles(tiny=True)
    state = wl.setup(0, tmp)
    p = wl.run(state, (0, 0))
    expect("chart_files passes", wl.check(state, p), None)

    def lift(q):
        q.out["chart_cloud"].positions[:, 2] += 1e-6

    def off_triangle(q):
        q.out["mesh_cloud"].positions[0] += 1e-3 * q.out["mesh_cloud"].normals[0]

    def tangent_normals(q):
        n = q.out["normals"]
        q.out["normals"] = np.cross(n, checks.torus_normal(q.out["queried"]))

    for label, mutate, needle in (
        ("chart cloud lifted off the torus", lift, "chart cloud"),
        ("mesh point off its triangle", off_triangle, "outside their triangles"),
        ("normals turned into the tangent plane", tangent_normals, "normal_cloud"),
    ):
        expect(f"chart_files rejects: {label}", wl.check(state, corrupted(p, mutate)), needle)

    for key, path, reader, needle in (
        ("xyz", state.xyz, cloudio.read_xyz, "XYZ"),
        ("ply", state.ply, cloudio.read_ply, "ASCII PLY"),
    ):
        one_digit_changed(path)
        bad = corrupted(p, lambda q: q.out.__setitem__(key, reader(path)))
        expect(f"chart_files rejects: {needle} file with one digit changed", wl.check(state, bad), needle)


def missing_target(tmp):
    saved = layertrace.TARGETS
    layertrace.TARGETS = [
        (owner, "_no_such_scan" if attr == "_scan_lines" else attr, name, counts) for owner, attr, name, counts in saved
    ]
    try:
        tracer = layertrace.Tracer()
        wl = workloads.ImplicitCloud(tiny=True)
        state = wl.setup(0, tmp)
        with tracer.patched(0):
            p = wl.run(wl.traced(state, tracer), (0, 0))
        values = tracer.values(0, p.seconds)
    finally:
        layertrace.TARGETS = saved
    ok = tracer.not_measured == ["samplers.scan"] and "samplers.scan_s" in tracer.unmeasured_metrics()
    expect("missing target reported as not measured", [] if ok else [str(tracer.not_measured)], None)
    expect("traced pass completes without the target", [] if values["samplers.grid_field_s"] > 0 else ["no spans"], None)


def command(tmp):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    expect("BENCHMARK.json end_to_end matches run.py", [] if e2e == run.E2E_UNITS else [str(e2e)], None)
    mine = {name: spec[:2] for name, spec in layertrace.METRICS.items()}
    expect("BENCHMARK.json per_layer matches layertrace.py", [] if layers == mine else [str(set(layers) ^ set(mine))], None)

    for trace, names in ((0, e2e), (1, layers)):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny", "--seconds", "0.2", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        problems = [f"exit {proc.returncode}"] if proc.returncode else []
        if not problems:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {f"{w}.{n}" for w in run.WORKLOADS for n in names}
            if set(result["metrics"]) != want or not result["correct"] or result["failed"]:
                problems.append(f"metrics {sorted(set(result['metrics']) ^ want)} correct {result['correct']}")
        expect(f"run.py --workload all --tiny --trace {trace}", problems, None)

    bare = Path(tmp) / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, *bench["command"][1:], "--workload", "implicit_cloud", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180)
    printed = proc.stdout.strip().splitlines()
    expect("run.py without the program exits non-zero", [] if proc.returncode and not printed else [proc.stdout], None)


def main() -> int:
    tmp = ROOT / ".perfbench_tmp" / f"selftest-{os.getpid()}"
    try:
        for step in (implicit_cloud, lambda t: estimates(workloads.ImplicitEstimate(tiny=True), t), mesh_estimate):
            (tmp / "w").mkdir(parents=True, exist_ok=True)
            step(str(tmp / "w"))
        chart_files(str(tmp / "w"))
        missing_target(str(tmp / "w"))
        command(str(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
