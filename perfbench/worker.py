"""Run one workload in this process, whose BLAS run.py pinned to one thread.

Prints one JSON record as the last line of stdout.  Usage (from the
root of a checkout, with src/ on PYTHONPATH):

    python3 perfbench/worker.py --workload courteous --seed 3 \
        --seconds 30 --trace 0 --workdir .bench_runs/courteous-s3-t0
    python3 perfbench/worker.py --make-reference courteous --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def os_thread_count() -> int | None:
    """Threads of this process per /proc, or None where that is absent."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def pinned_environment(seed: int | None) -> dict:
    """Check the one-thread pin once BLAS is loaded; return the record."""
    unset = {v: os.environ.get(v) for v in PIN_VARS
             if os.environ.get(v) != "1"}
    if unset:
        raise SystemExit(f"BLAS thread variables not pinned to 1: {unset}")
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads the BLAS the program uses)
    import scipy.optimize  # noqa: F401
    threads = os_thread_count()
    if threads is not None and threads != 1:
        raise SystemExit(f"{threads} threads after loading BLAS: the "
                         "one-thread pin did not take effect")
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": nproc,
           "threads_after_blas_load": threads}
    env.update({v: os.environ[v] for v in PIN_VARS})
    env["seed"] = seed
    return env


def run_pass(wl, items, outdir: Path, scratch: Path, references: dict,
             tracer=None, run_prefix: str = ""):
    """Every item once; returns (pass wall time, [OpResult])."""
    results = []
    start = perf_counter()
    for position, item in enumerate(items):
        shutil.rmtree(outdir, ignore_errors=True)
        if tracer is not None:
            tracer.run_id = f"{run_prefix}:{position}"
        results.append(wl.run(item, outdir, references, scratch))
    return perf_counter() - start, results


def summarize(ops: list) -> dict:
    """Timed end-to-end metrics over a set of ops: per step and per op."""
    wall = sum(op.wall_s for op in ops)
    steps = sum(op.steps for op in ops)
    return {"step_ms": 1000.0 * wall / steps if steps else 0.0,
            "solve_s": wall / len(ops)}


def deterministic_figures(first_pass: list) -> dict:
    """Figures that do not depend on timing, from one pass of the items."""
    plan_steps = sum(op.plan_steps for op in first_pass)
    fits = sum(op.fits for op in first_pass)
    devs = [op.gap_dev_m for op in first_pass]
    return {
        "plan_fail_ratio": (sum(op.plan_failed for op in first_pass)
                            / plan_steps) if plan_steps else None,
        "fit_fail_ratio": (sum(op.fits_failed for op in first_pass) / fits)
        if fits else None,
        "gap_dev_m": max(devs) if plan_steps and None not in devs else None,
    }


def measure(args, wl, items, workdir: Path) -> dict:
    import workloads

    references = workloads.load_references(wl.name)
    outdir = workdir / "out"
    scratch = workdir / "roundtrip"
    scratch.mkdir(parents=True, exist_ok=True)
    untraced, traced = [], []
    tracer = None
    started = perf_counter()
    if args.trace:
        import layers
        from tracer import Tracer, installed
        tracer = Tracer()
    while True:
        untraced.append(run_pass(wl, items, outdir, scratch, references))
        if tracer is not None:
            with installed(tracer, layers.BINDINGS):
                traced.append(run_pass(
                    wl, items, outdir, scratch, references, tracer,
                    f"{wl.name}:{args.seed}:{len(traced)}"))
        rounds = len(untraced)
        elapsed = perf_counter() - started
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    shutil.rmtree(outdir, ignore_errors=True)

    all_passes = untraced + traced
    ops = [op for _, pass_ops in all_passes for op in pass_ops]
    problems = sorted({f"{op.label}: {p}" for op in ops for p in op.problems})
    first = untraced[0][1]
    for _, pass_ops in all_passes[1:]:
        for a, b in zip(first, pass_ops):
            if a.digest != b.digest:
                problems.append(f"{a.label}: outputs differ between passes"
                                " (traced or repeated)")
    record = {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.problems),
        "passes": len(untraced),
        "pass_walls_s": {"untraced": [w for w, _ in untraced],
                         "traced": [w for w, _ in traced]},
        "problems": problems,
        "ops": [{"label": op.label, "wall_s": op.wall_s, "steps": op.steps,
                 "gap_dev_m": op.gap_dev_m, "plan_failed": op.plan_failed,
                 "fit_iters": op.fit_iters}
                for _, pass_ops in untraced for op in pass_ops],
        "figures": deterministic_figures(first),
    }
    untraced_ops = [op for _, pass_ops in untraced for op in pass_ops]
    record["metrics"] = summarize(untraced_ops)
    if tracer is not None:
        traced_wall = sum(w for w, _ in traced)
        untraced_wall = sum(w for w, _ in untraced)
        per_layer = layers.layer_metrics(tracer, len(traced), traced_wall,
                                         untraced_wall)
        fig = record["figures"]
        episodes = fig["plan_fail_ratio"] is not None
        per_layer["controller.plan.fail_ratio"] = fig["plan_fail_ratio"] or 0.0
        per_layer["driver_model.fit.fail_ratio"] = fig["fit_fail_ratio"] or 0.0
        if fig["gap_dev_m"] is not None or not episodes:
            # left out, not zeroed, when a reference is missing
            per_layer["simulation.gap_dev_m"] = fig["gap_dev_m"] or 0.0
        record["per_layer"] = {k: {"value": v,
                                   "unit": layers.PER_LAYER_UNITS[k]}
                               for k, v in per_layer.items()}
        record["spans"] = len(tracer)
        tracer.write(workdir / "spans.csv.gz")
    record["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--make-reference", dest="make_reference")
    args = parser.parse_args(argv)

    environment = pinned_environment(
        None if args.make_reference else args.seed)
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if args.make_reference:
        doc = workloads.make_reference(args.make_reference, workdir,
                                       environment)
        path = workloads.reference_path(args.make_reference)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n",
                        encoding="utf-8")
        print(json.dumps({"wrote": str(path)}))
        return 0

    wl = workloads.WORKLOADS[args.workload]
    items = wl.items(args.seed, workdir)
    record = measure(args, wl, items, workdir)
    record["environment"] = environment
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
