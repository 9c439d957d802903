#!/usr/bin/env python3
"""Benchmark of croftoncloud on four seeded workloads.

    python3 perfbench/run.py --workload implicit_cloud --seed 0 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own process.  A run sets up its workload five times (``setup_s`` is the
median), then repeats whole timed passes until ``--seconds`` have passed and
checks every pass's outputs against closed forms.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes on the same inputs and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a copy of the full
result, with every pass and (traced) every span, goes to ``.perfbench_out/``.

The program is imported from ``src/`` of the checkout that holds this file;
without it the run exits with code 2.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layertrace

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("implicit_cloud", "implicit_estimate", "mesh_estimate", "chart_files")
SETUPS = 5
# one process, numeric libraries single-threaded; the sharded CLI path is not used
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
E2E_UNITS = {"run_s": "s", "setup_s": "s", "points_per_s": "points/s", "time_to_1pct_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed part (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


def time_to_1pct(passes) -> list[float]:
    """Per pass: the sum over its estimates of seconds x (relative SE / 0.01)^2.

    The relative variance of one sample (line or point) is pooled over all
    passes of the run, so each pass's figure is its own time per sample
    times the samples a 1% error needs.
    """
    names = [e[0] for e in passes[0].estimates]
    rel_var = {}
    for j, name in enumerate(names):
        ests = [p.estimates[j] for p in passes]
        mean = statistics.fmean(e[3] for e in ests)
        rel_var[name] = statistics.fmean(e[4] ** 2 * e[2] for e in ests) / mean**2
    return [sum(e[1] * rel_var[e[0]] / e[2] / 1e-4 for e in p.estimates) for p in passes]


class Run:
    def __init__(self, workload, seed: int, seconds: float, tmp: str):
        self.wl, self.seed, self.seconds, self.tmp = workload, seed, seconds, tmp
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def setup(self):
        start = time.perf_counter()
        state = self.wl.setup(self.seed, self.tmp)
        return state, time.perf_counter() - start

    def one_pass(self, state, number: int):
        """A checked pass, or None when it raised (all its operations count as failed)."""
        self.attempted += self.wl.ops
        try:
            p = self.wl.run(state, (self.seed, number))
        except Exception:
            traceback.print_exc()
            self.failed += self.wl.ops
            return None
        self.problems += [f"pass {number}: {msg}" for msg in self.wl.check(state, p)]
        p.out = None  # checked outputs are dropped, so memory does not grow with the pass count
        return p

    def plain(self):
        setup_times = []
        for _ in range(SETUPS):
            state, seconds = self.setup()
            setup_times.append(seconds)
        passes = []
        start = time.perf_counter()
        number = 0
        while number == 0 or time.perf_counter() - start < self.seconds:
            p = self.one_pass(state, number)
            if p is not None:
                passes.append(p)
            number += 1
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "run_s": _median([p.seconds for p in passes]),
            "setup_s": _median(setup_times),
            "points_per_s": _median([p.points / p.seconds for p in passes]),
            "time_to_1pct_s": _median(time_to_1pct(passes)) if passes else 0.0,
            "peak_rss_mb": rss_kib * 1024 / 1e6,
        }
        extra = {"passes": len(passes), "setup_times": setup_times}
        if passes and passes[0].lines:
            extra["lines_per_s"] = _median([p.lines / p.seconds for p in passes])
        extra["per_pass"] = [{"seconds": p.seconds, "points": p.points, "lines": p.lines, "estimates": p.estimates} for p in passes]
        return metrics, extra

    def traced(self):
        state, _ = self.setup()
        tracer = layertrace.Tracer()
        with tracer.patched("setup"):
            _, setup_wall = self.setup()
        per_pass, overhead = [], []
        start = time.perf_counter()
        number = 0
        while number == 0 or time.perf_counter() - start < self.seconds:
            plain = self.one_pass(state, number)
            with tracer.patched(number):
                traced = self.one_pass(self.wl.traced(state, tracer), number)
            if plain is not None and traced is not None:
                per_pass.append(tracer.values(number, traced.seconds))
                overhead.append(traced.seconds - plain.seconds)
            number += 1
        setup_values = tracer.values("setup", setup_wall)
        metrics = {}
        for name in layertrace.METRICS:
            if name == "trace_overhead_s":
                metrics[name] = _median(overhead)
                continue
            values = [v[name] for v in per_pass]
            # a layer that runs only in set-up (meshio on mesh_estimate) is timed there
            metrics[name] = _median(values) if any(values) or name == "unattributed_s" else setup_values[name]
        for name in tracer.unmeasured_metrics():
            metrics.pop(name)
        extra = {"passes": len(per_pass), "not_measured": tracer.not_measured, "spans": tracer.spans}
        return metrics, extra


def run_one(args) -> int:
    if not (ROOT / "src" / "croftoncloud" / "__init__.py").is_file():
        print(f"error: no croftoncloud sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CROFTONCLOUD_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workloads.WORKLOADS[args.workload](tiny=args.tiny), args.seed, args.seconds, str(tmp))
        metrics, extra = run.traced() if args.trace else run.plain()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = {name: spec[0] for name, spec in layertrace.METRICS.items()} if args.trace else E2E_UNITS
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {extra['passes']}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]}")
    if "lines_per_s" in extra:
        print(f"  {'lines_per_s':36s} {extra['lines_per_s']:>16.6g} lines/s")
    if extra.get("not_measured"):
        print(f"  not measured (target missing): {', '.join(extra['not_measured'])}")
    print(f"  attempted {run.attempted}  failed {run.failed}  check failures {len(run.problems)}")
    for problem in run.problems[:20]:
        print(f"  CHECK FAILED {problem}")

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, problems=run.problems, **extra)
    with open(out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=float)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so no workload's memory peak enters another's."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
