"""svosim benchmark: one workload per call, BLAS pinned to one thread.

    python3 perfbench/run.py --workload courteous --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --make-references

Run from the root of a checkout.  The workload runs in a fresh child
process with OPENBLAS/OMP/MKL_NUM_THREADS=1 and src/ on PYTHONPATH;
set-up time is measured in further fresh processes, one at a time.
Human-readable lines come first; the last line of stdout is the JSON
result.  The full record of every run goes to .bench_runs/.  Exit
status: 0 when every output check passed, 1 when one failed or the
worker did not finish, 2 on a usage error or when src/ is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("courteous", "egoistic", "irl-fit")
REFERENCE_WORKLOADS = ("courteous", "egoistic")
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUNS_DIR = ".bench_runs"
SETUP_SAMPLES = 7
DEADLINE_S = 170.0          # the whole call must end within 180 s
SETUP_PROBE_TIMEOUT_S = 20.0

END_TO_END_UNITS = {"setup_s": "s", "step_ms": "ms", "solve_s": "s",
                    "peak_rss_mb": "MB"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in PIN_VARS})
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, env: dict, cwd: Path, timeout: float):
    """Run one child to completion; returns (exit code, stdout, stderr)."""
    try:
        proc = subprocess.run([sys.executable] + argv, env=env, cwd=cwd,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        return None, exc.stdout or "", f"timed out after {timeout:.0f} s"
    return proc.returncode, proc.stdout, proc.stderr


def last_json(text: str):
    lines = [ln for ln in (text or "").splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def measure_setup(workload: str, workdir: Path, env: dict, root: Path,
                  deadline: float) -> list:
    """Set-up time of SETUP_SAMPLES fresh processes, run one at a time."""
    probe_args = [str(BENCH_DIR / "setup_probe.py")]
    if workload != "irl-fit":
        profiles = sorted(workdir.glob(f"{workload}_lead_*.csv"))
        probe_args.append(str(profiles[0]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        left = min(SETUP_PROBE_TIMEOUT_S, deadline - monotonic())
        code, out, err = run_child(probe_args, env, root, left)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
        samples.append(float(out.strip().splitlines()[-1]))
    return samples


def describe(workload: str, record: dict) -> list:
    """Human-readable lines: every metric by name with its unit."""
    env = record["environment"]
    fig = record["figures"]
    m = record["metrics"]
    lines = [f"perfbench {workload} seed={env['seed']} "
             f"trace={record['trace']}: {record['passes']} pass(es), "
             f"{record['attempted']} ops, {record['failed']} failed",
             "environment: " + ", ".join(f"{k}={v}" for k, v in env.items()
                                         if k != "seed")]
    fit = workload == "irl-fit"
    dev = None if fit else fig["gap_dev_m"]
    rows = [
        ("setup_s", m.get("setup_s"), "s",
         "median of fresh-process import svosim + build_setup"
         if "setup_s" in m else "measured only with --trace 0"),
        ("step_ms", m["step_ms"], "ms",
         "wall time per control step simulated"
         + (" (driver re-plan steps of the fit)" if fit else "")),
        ("fit_s", m["solve_s"] if fit else None, "s",
         "demonstrations to converged weights, tol=0.05" if fit
         else "no fit in this workload"),
        ("fail_ratio",
         fig["fit_fail_ratio"] if fit else fig["plan_fail_ratio"], "",
         "fits not converged" if fit
         else "plan steps not converged or inner-infeasible"),
        ("gap_dev_m", dev, "m",
         "no episodes in this workload" if fit
         else "max |gap - tight reference gap|, AV and hv0 rows"
         if dev is not None else "missing: no stored reference"),
        ("peak_rss_mb", record["peak_rss_mb"], "MB", "ru_maxrss of worker"),
        ("solve_s", m["solve_s"], "s", "wall time of one operation"),
    ]
    for name, value, unit, note in rows:
        text = f"{value:>12.6g} {unit:<3}" if value is not None \
            else f"{'n/a':>12}    "
        lines.append(f"  {name:<12} {text} {note}")
    for key, metric in sorted(record.get("per_layer", {}).items()):
        lines.append(f"  {key:<42} {metric['value']:>12.6g} {metric['unit']}")
    for problem in record["problems"]:
        lines.append(f"CHECK FAILED: {problem}")
    return lines


def make_references(root: Path, env: dict) -> int:
    """Tight-tolerance reference traces, at most nproc workers at a time."""
    jobs = list(REFERENCE_WORKLOADS)
    width = max(1, min(len(jobs), os.cpu_count() or 1))
    failed = 0
    while jobs:
        batch, jobs = jobs[:width], jobs[width:]
        procs = [subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"),
             "--make-reference", name,
             "--workdir", str(root / RUNS_DIR / f"reference-{name}")],
            env=env, cwd=root) for name in batch]
        for name, proc in zip(batch, procs):
            if proc.wait() != 0:
                print(f"reference {name} failed", file=sys.stderr)
                failed += 1
    return 1 if failed else 0


def main(argv=None) -> int:
    started = monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-references", action="store_true",
                        dest="make_references")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "svosim" / "__init__.py").is_file():
        print(f"error: no src/svosim under {root}; run from the root of a "
              "svosim checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    if args.make_references:
        return make_references(root, env)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = root / RUNS_DIR / tag
    deadline = started + DEADLINE_S
    code, out, err = run_child(
        [str(BENCH_DIR / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--workdir", str(workdir)],
        env, root, deadline - monotonic())
    record = last_json(out)
    if code != 0 or record is None:
        print(f"error: worker exited {code}: {err.strip()[-2000:]}",
              file=sys.stderr)
        return 1
    record["trace"] = args.trace
    if not args.trace:
        try:
            samples = measure_setup(args.workload, workdir, env, root,
                                    deadline)
        except (RuntimeError, ValueError, IndexError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        record["setup_samples_s"] = samples
        record["metrics"]["setup_s"] = statistics.median(samples)

    (root / RUNS_DIR).mkdir(exist_ok=True)
    record_path = root / RUNS_DIR / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n",
                           encoding="utf-8")
    if args.trace:
        metrics = record["per_layer"]
    else:
        metrics = {"setup_s": record["metrics"]["setup_s"],
                   "step_ms": record["metrics"]["step_ms"],
                   "solve_s": record["metrics"]["solve_s"],
                   "peak_rss_mb": record["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}
    correct = not record["problems"]
    for line in describe(args.workload, record):
        print(line)
    print(f"record: {record_path.relative_to(root)}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
