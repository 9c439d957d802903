"""Command-line front end.

Subcommands: ``generate`` (write a point cloud file), ``area`` and
``integrate`` (line-sampling estimates), ``audit`` (equidistribution checks
on an existing cloud), ``bench`` (quadrature complexity table).

Surfaces are specified by catalog name (sphere, torus, ellipsoid, plane,
tetrahedron, pyramid), by a field expression in x, y, z (the zero level set
is used), or by a mesh path (.off / .stl).  Exit codes: 0 ok, 1 usage or
input error, 2 numeric failure, 3 audit failure.

The default clip (--r) is the surface's own ball: a catalog surface's, 2 for
an expression, and a mesh's bounding radius, so a catalog mesh and the same
mesh read from a file clip alike.  The line samplers (crofton,
axis-aligned) take every surface the estimators take: its implicit form,
else its mesh (a chart's grid triangulation).  ``generate`` has one --r
rule: --r clips only an implicit surface, so a surface that resolves to a
mesh or a chart refuses it.  Likewise --res sets only a chart's grid, so
every subcommand refuses it for a surface not read through its chart.

``generate`` draws from the one stream of --seed, so a file depends on the
seed and the configuration only.

``audit`` only prints each result, writes its record and sets the exit code:
each surface's suite and every pass/fail gate live in ``stats.catalog_audit``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, cloudio, crofton, expr, meshio, samplers, stats, surfaces
from .rng import Pseudo
from .samplers import PointCloud, SurfaceNotFound

USAGE_ERROR = 1
NUMERIC_ERROR = 2
AUDIT_FAILURE = 3

_NUMERIC_ERRORS = (SurfaceNotFound, FloatingPointError, np.linalg.LinAlgError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


#: the forms the line samplers and the estimators accept, the exact one first (a catalog chart is also a mesh)
_LINE_FORMS = ("implicit", "mesh")
#: each cloud sampler: its cloud function and the surface forms it consumes, in order of preference
_SAMPLERS = {
    "crofton": (samplers.cloud_implicit, _LINE_FORMS),
    "triangulated": (samplers.cloud_triangulated, ("mesh",)),
    "parametric": (samplers.cloud_parametric, ("chart",)),
    "axis-aligned": (samplers.cloud_axis_aligned, _LINE_FORMS),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="croftoncloud", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_surface_options(p, need_sampler=False):
        p.add_argument("--surface", required=True, help="catalog name, field expression, or mesh path")
        p.add_argument(
            "--r",
            type=float,
            default=None,
            help="clip radius (default: own ball; mesh: bounding radius; generate: implicit surfaces only)",
        )
        p.add_argument("--seed", type=int, default=0, help="stream seed (default 0)")
        p.add_argument(
            "--res",
            type=int,
            default=None,
            help="grid points per axis of a chart's triangulation (default: the chart's own, 128 x 256 on the torus); "
            "the parametric sampler weights triangles by the flat grid's area, a bias that shrinks with the grid step: "
            "the torus's outer-tube share falls short by 14 standard errors of a 2M-point cloud at 8, 2.6 at 16, "
            "0.6 at 32 and 0.04 at the default",
        )
        if need_sampler:
            p.add_argument(
                "--sampler",
                choices=list(_SAMPLERS),
                default="crofton",
                help="cloud generator (default crofton; crofton and axis-aligned take every surface)",
            )

    gen = sub.add_parser("generate", help="generate a point cloud file")
    add_surface_options(gen, need_sampler=True)
    gen.add_argument("--n", type=int, required=True, help="target point count")
    gen.add_argument("-o", "--output", required=True, help="output path (.xyz or .ply)")
    gen.add_argument(
        "--format",
        choices=["auto", "xyz", "ply", "ply-binary"],
        default="auto",
        help="output format (default: by extension, ascii ply)",
    )

    area = sub.add_parser("area", help="Monte Carlo area estimate")
    add_surface_options(area)
    area.add_argument("--m", type=int, required=True, help="number of sampled lines")

    integ = sub.add_parser("integrate", help="Monte Carlo surface integral")
    add_surface_options(integ)
    integ.add_argument("--m", type=int, required=True, help="number of sampled lines")
    integ.add_argument("--f", required=True, help="integrand expression in x, y, z")

    audit = sub.add_parser("audit", help="equidistribution audit of a cloud file")
    audit.add_argument("--cloud", required=True, help="cloud file path (.xyz or .ply)")
    audit.add_argument("--surface", default=None, help="catalog surface the cloud should cover")
    audit.add_argument("--records", default=None, help="write line-delimited JSON records here")

    bench = sub.add_parser("bench", help="quadrature complexity benchmark")
    bench.add_argument("--dims", type=int, default=6, help="cube dimension (default 6)")
    bench.add_argument(
        "--budgets",
        default="100,1000,10000,100000,1000000",
        help="comma-separated evaluation budgets",
    )
    bench.add_argument("--seeds", type=int, default=32, help="independent streams per budget (default 32)")
    bench.add_argument("--records", default=None, help="write line-delimited JSON records here")
    return parser


def _resolve_surface(spec: str, clip: float | None, res: int | None, forms: tuple):
    """Build the surface object for *spec* in the first of *forms* it supports.

    forms: an ordered subset of ('implicit', 'mesh', 'chart').  Catalog
    entries support the forms they define, and a chart also gives a mesh
    through its grid triangulation; expressions are implicit; paths are
    meshes.  Blanks at either end of *spec* are dropped, as ``generate``
    drops them from the spec it stores in a cloud's metadata.
    """
    spec = spec.strip()
    entry = surfaces.CATALOG.get(spec)
    charted = ()  # the forms built from a chart, which alone take --res
    if entry is not None:
        clip_kw = {} if clip is None else {"clip": clip}
        res_kw = {} if res is None else {"u_res": res, "v_res": res}
        chart = entry.chart and (lambda: entry.chart(**res_kw))
        builders = {
            "implicit": entry.implicit and (lambda: entry.implicit(**clip_kw)),
            "mesh": entry.mesh or (chart and (lambda: surfaces.triangulate_parametric(chart())[0])),
            "chart": chart,
        }
        charted = ("chart",) if entry.mesh else ("chart", "mesh")
    elif spec.lower().endswith((".off", ".stl")):
        if not os.path.exists(spec):
            raise UsageError(f"mesh file not found: {spec}")
        builders = {"mesh": lambda: meshio.load_mesh(spec)}
    else:
        try:
            field = expr.compile_field(spec)
        except expr.ExpressionError as err:
            raise UsageError(
                f"surface spec {spec!r} is neither a catalog name, a mesh path, nor a valid expression: {err}"
            )
        clip = 2.0 if clip is None else clip
        builders = {"implicit": lambda: surfaces.ImplicitSurface(field, clip, gradient=field.gradient, name=spec)}
    for form in forms:
        if builders.get(form):
            if res is not None and form not in charted:
                kind = "an implicit surface" if form == "implicit" else "a mesh"
                raise UsageError(
                    f"--res sets only a chart's grid; {spec!r} is read here as {kind}, not through a chart, so it takes no --res"
                )
            return builders[form]()
    usable = ", ".join(
        f"--sampler {name}" for name, (_, accepted) in _SAMPLERS.items() if any(builders.get(f) for f in accepted)
    )
    raise UsageError(f"surface {spec!r} has no {' or '.join(forms)} form; it works with {usable}")


def _generate_cloud(args) -> PointCloud:
    sample, forms = _SAMPLERS[args.sampler]
    surface = _resolve_surface(args.surface, args.r, args.res, forms)
    if args.r is not None and not isinstance(surface, surfaces.ImplicitSurface):
        kind = "chart" if isinstance(surface, surfaces.ParametricSurface) else "mesh"
        clippers = " and ".join(f"--sampler {name}" for name, (_, accepted) in _SAMPLERS.items() if "implicit" in accepted)
        raise UsageError(
            f"--r clips only an implicit surface (with {clippers}); "
            f"--sampler {args.sampler} reads {args.surface!r} as a {kind}, so it takes no --r"
        )
    return sample(surface, Pseudo(args.seed), args.n)


def cmd_generate(args) -> int:
    started = time.perf_counter()
    cloud = _generate_cloud(args)
    elapsed = time.perf_counter() - started
    meta = {
        "generator": f"croftoncloud {__version__}",
        "surface": args.surface.strip(),  # cloud metadata refuses blanks at either end of a value
        "sampler": args.sampler,
        "seed": args.seed,
        "n": args.n,
    }
    if args.r is not None:
        meta["r"] = args.r
    if args.res is not None:
        meta["res"] = args.res
    cloudio.write_cloud(args.output, cloud.positions, cloud.normals, meta, fmt=args.format)
    print(f"points   {len(cloud)}")
    if cloud.lines_used:
        print(f"lines    {cloud.lines_used}")
        print(f"hits/line {cloud.mean_hits_per_line:.4f}")
    print(f"elapsed  {elapsed:.2f} s")
    print(f"wrote    {args.output}")
    return 0


def _print_estimate(label: str, estimate: crofton.CroftonEstimate) -> None:
    print(f"{label}  {estimate.value:.6f} +- {estimate.standard_error:.6f}")
    print(f"lines     {estimate.lines_used}")
    print(f"mean hits {estimate.mean_hits:.4f}")
    hist = " ".join(f"{k}:{c}" for k, c in sorted(estimate.hit_histogram.items()))
    print(f"hits histogram  {hist}")


def cmd_area(args) -> int:
    surface = _resolve_surface(args.surface, args.r, args.res, _LINE_FORMS)
    estimate = crofton.estimate_area(surface, Pseudo(args.seed), args.m, clip_radius=args.r)
    _print_estimate("area", estimate)
    return 0


def cmd_integrate(args) -> int:
    surface = _resolve_surface(args.surface, args.r, args.res, _LINE_FORMS)
    try:
        integrand = expr.compile_field(args.f)
    except expr.ExpressionError as err:
        raise UsageError(f"bad integrand: {err}")
    estimate = crofton.estimate_surface_integral(surface, integrand, Pseudo(args.seed), args.m, clip_radius=args.r)
    _print_estimate("integral", estimate)
    return 0


def cmd_audit(args) -> int:
    positions, normals, meta = cloudio.read_cloud(args.cloud)
    records: list[dict] = []
    lines: list[str] = []
    failed = False
    lines.append(f"cloud {args.cloud}: {len(positions)} points, meta {meta or '{}'}")
    if not len(positions):
        print("\n".join(lines))
        print("audit: FAIL (empty cloud)")
        return AUDIT_FAILURE
    finite = bool(np.isfinite(positions).all())
    lines.append(f"finite coordinates: {'pass' if finite else 'FAIL'}")
    failed |= not finite
    if normals is not None:
        unit = bool(np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-6))
        lines.append(f"unit normals: {'pass' if unit else 'FAIL'}")
        failed |= not unit
    if args.surface is not None and not finite:
        lines.append("surface tests: skipped (non-finite coordinates)")
    elif args.surface is not None:
        for line, record, passed in stats.catalog_audit(args.surface, positions):
            lines.append(line)
            records += [record] if record else []
            failed |= not passed
    print("\n".join(lines))
    if args.records:
        with open(args.records, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
    print(f"audit: {'FAIL' if failed else 'pass'}")
    return AUDIT_FAILURE if failed else 0


def cmd_bench(args) -> int:
    budgets = [int(b) for b in args.budgets.split(",") if b]
    if len(set(budgets)) < 2:
        raise UsageError(f"--budgets needs at least two distinct budgets to fit the error slope, got {args.budgets!r}")

    def integrand(pts):
        return np.cos(pts).prod(axis=-1)

    truth = float(np.sin(1.0) ** args.dims)
    rows = stats.curse_benchmark(integrand, args.dims, truth, budgets=budgets, n_seeds=args.seeds)
    print(f"integrand prod(cos(x_i)) on the {args.dims}-cube, integral {truth:.6f}")
    print(f"{'method':<10} {'evals':>10} {'error':>14}")
    for row in rows:
        print(f"{row.method:<10} {row.evaluations:>10} {row.error:>14.6e}")
    slope = stats.loglog_slope([(row.evaluations, row.error) for row in rows if row.method == "mc"])
    print(f"mc log-error slope: {slope:.3f} (dimension-free -1/2 expected)")
    if args.records:
        with open(args.records, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row.record()) + "\n")
            fh.write(json.dumps({"mc_slope": slope}) + "\n")
    return 0


_HANDLERS = {
    "generate": cmd_generate,
    "area": cmd_area,
    "integrate": cmd_integrate,
    "audit": cmd_audit,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return _HANDLERS[args.command](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except _NUMERIC_ERRORS as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
