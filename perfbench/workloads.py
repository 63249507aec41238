"""Workload operations, their output checks and the stored references.

The program under test is always called through a module attribute
(`cli_io.cli_main`, `driver_model.fit_weights_maxent`, ...), so the
traced run's wrappers see those calls.  Names imported directly into
this module are the benchmark's own checking tools; the tracer never
replaces them.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import svosim.cli_io as cli_io
import svosim.driver_model as driver_model
from svosim.cli_io import ExperimentConfig, build_setup, export_results
from svosim.controller import OuterSettings, SvoConfig
from svosim.driver_model import DriverWeights, HumanConstraints
from svosim.errors import FitDivergenceError
from svosim.simulation import compute_metrics, run_episode

import inputs

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
REFERENCE_COMMAND = "python3 perfbench/run.py --make-references"
VIOLATION_TOL = 1e-4     # worst state-constraint violation, as test_09

# the irl-fit configuration of test_05
FIT_W_TRUE = DriverWeights(w=(0.1, 1.0, 0.5, 0.3), tau_headway=1.5,
                           min_gap=5.0)
FIT_W0 = DriverWeights(w=(1.0, 1.0, 1.0, 1.0), tau_headway=1.0, min_gap=5.0)
FIT_HC = HumanConstraints(v_min=0.0, v_max=25.0, d_min=5.0)
FIT_V_LIMIT = 25.0
FIT_TOL = 0.05
FIT_LEARN_RATE = 0.25
FIT_MAX_ITERS = 120
FIT_HORIZON = 12
FIT_DEMO_COUNT = 2
FIT_DEMO_STEPS = 80


@dataclass
class OpResult:
    """One timed operation and what its output checks found."""

    label: str
    wall_s: float          # the timed call: the CLI command, or the fit
    steps: int             # control steps simulated inside wall_s
    plan_steps: int = 0
    plan_failed: int = 0   # steps not converged or inner-infeasible
    fits: int = 0
    fits_failed: int = 0
    fit_iters: int = 0
    gap_dev_m: float | None = None   # None: no stored reference
    digest: str = ""       # hash of the outputs, for determinism checks
    problems: list = field(default_factory=list)


def write_profile_csv(path: Path, speeds: np.ndarray, dt: float) -> str:
    """Write a `t,speed_mps` lead profile; returns the file's sha256."""
    lines = ["t,speed_mps"] + [f"{i * dt!r},{float(v)!r}"
                               for i, v in enumerate(speeds)]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def state_violation(trace, setup) -> float:
    """Worst state/control bound violation of the AV and hv0 rows."""
    cons = setup.cons
    av_g, av_v, av_a = trace.gaps[0], trace.speeds[0], trace.accels[0]
    hv_g, hv_v = trace.gaps[1], trace.speeds[1]
    excess = [cons.d_min - av_g, av_g - cons.d_max,
              cons.v_min - av_v, av_v - cons.v_max,
              cons.a_min - av_a, av_a - cons.a_max,
              cons.u_min - trace.controls[0], trace.controls[0] - cons.u_max,
              setup.weights.min_gap - hv_g,
              cons.v_min - hv_v, hv_v - cons.v_max]
    return max(float(np.max(e, initial=0.0)) for e in excess)


def check_trace(trace, setup, n_steps: int) -> list:
    """Output checks every episode must pass; returns the failures."""
    problems = []
    if len(trace) != n_steps or trace.gaps.shape[0] != 5:
        return [f"trace has {trace.gaps.shape[0]} vehicles x {len(trace)} "
                f"steps, expected 5 x {n_steps}"]
    if not all(np.all(np.isfinite(a)) for a in
               (trace.gaps, trace.speeds, trace.accels, trace.controls)):
        problems.append("non-finite state in trace")
    worst = state_violation(trace, setup)
    if not worst <= VIOLATION_TOL:
        problems.append(f"state violation {worst:.3e} > {VIOLATION_TOL}")
    min_fleet = float(np.min(trace.gaps[2:]))
    if not min_fleet > 0.0:
        problems.append(f"fleet gap closed to {min_fleet:.3f} m")
    return problems


def round_trip_problem(trace_path: Path, trace, scratch: Path) -> str | None:
    """Re-export a loaded trace and compare it byte for byte."""
    redo, _ = export_results(trace, compute_metrics(trace), scratch)
    if redo.read_bytes() != trace_path.read_bytes():
        return f"{trace_path.name} does not round-trip through load_trace_csv"
    return None


# ---------------------------------------------------------------------------
# References


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_references(workload: str) -> dict:
    """{library index: entry} of a workload's stored references, or {}."""
    path = reference_path(workload)
    if not path.is_file():
        return {}
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {int(e["index"]): e for e in doc["entries"]}


def gap_deviation(trace, ref_entry: dict | None, profile_sha: str):
    """Largest |gap - reference gap| over the AV and hv0 rows, or None."""
    if ref_entry is None or ref_entry["profile_sha256"] != profile_sha:
        return None
    for level in ref_entry["levels"]:
        if abs(level["phi"] - trace.phi) <= 1e-12:
            return float(max(
                np.max(np.abs(trace.gaps[0] - np.asarray(level["av_gap"]))),
                np.max(np.abs(trace.gaps[1] - np.asarray(level["hv0_gap"])))))
    return None


# ---------------------------------------------------------------------------
# Episode workloads: one CLI command on one seeded lead profile


@dataclass(frozen=True)
class EpisodeItem:
    index: int
    csv: Path
    profile_sha: str
    setup: object      # the program's own setup, for the output checks
    n_steps: int


@dataclass(frozen=True)
class EpisodeWorkload:
    name: str
    command: str       # svosim subcommand
    phi_arg: str       # --phi as typed on the command line
    phis: tuple        # the same levels in radians

    def items(self, seed: int, workdir: Path) -> list:
        out = []
        for k in inputs.pick_entries(seed, self.name):
            speeds = inputs.library_profile(self.name, k)
            csv = workdir / f"{self.name}_lead_{k:02d}.csv"
            sha = write_profile_csv(csv, speeds, inputs.DT)
            setup = build_setup(ExperimentConfig(scenario=str(csv)))
            out.append(EpisodeItem(k, csv, sha, setup, len(speeds)))
        return out

    def run(self, item: EpisodeItem, outdir: Path, references: dict,
            scratch: Path) -> OpResult:
        argv = [self.command, "--scenario", str(item.csv),
                "--phi", self.phi_arg, "--outdir", str(outdir)]
        log = io.StringIO()
        start = perf_counter()
        with redirect_stdout(log), redirect_stderr(log):
            rc = cli_io.cli_main(argv)
        wall = perf_counter() - start
        res = OpResult(label=f"{self.name}[{item.index}]", wall_s=wall,
                       steps=item.n_steps * len(self.phis))
        res.plan_steps = res.steps
        if rc != 0:
            res.problems.append(f"svosim {self.command} exited {rc}: "
                                f"{log.getvalue().strip()[-300:]}")
        digest = hashlib.sha256()
        devs = []
        for phi, trace_path, error in self._outputs(outdir):
            if error is not None:
                res.problems.append(f"phi={phi:.6f} episode raised: {error}")
                res.plan_failed += item.n_steps
                continue
            trace = cli_io.load_trace_csv(trace_path)
            digest.update(trace_path.read_bytes())
            res.plan_failed += int(np.sum(~(trace.converged
                                            & trace.inner_feasible)))
            res.problems.extend(f"phi={phi:.6f}: {p}" for p in
                                check_trace(trace, item.setup, item.n_steps))
            problem = round_trip_problem(trace_path, trace, scratch)
            if problem:
                res.problems.append(problem)
            devs.append(gap_deviation(trace, references.get(item.index),
                                      item.profile_sha))
        if len(devs) != len(self.phis) and not res.problems:
            res.problems.append(f"expected {len(self.phis)} episodes, "
                                f"found {len(devs)}")
        if devs and all(d is not None for d in devs):
            res.gap_dev_m = max(devs)
        res.digest = digest.hexdigest()
        return res

    def _outputs(self, outdir: Path):
        """(phi, trace.csv path, error) for every level the command ran."""
        if self.command == "run":
            path = outdir / "trace.csv"
            yield (self.phis[0], path,
                   None if path.is_file() else "no trace.csv written")
            return
        summary = outdir / "sweep.json"
        if not summary.is_file():
            return
        for level in json.loads(summary.read_text())["levels"]:
            if "error" in level:
                yield level["phi"], None, level["error"]
            else:
                yield level["phi"], outdir / level["dir"] / "trace.csv", None


# ---------------------------------------------------------------------------
# IRL fit: demonstrations from a seed, then the MaxEnt fit as in test_05


@dataclass(frozen=True)
class FitWorkload:
    name: str = "irl-fit"

    def items(self, seed: int, workdir: Path) -> list:
        return inputs.pick_entries(seed, self.name)

    def run(self, demo_seed: int, outdir: Path, references: dict,
            scratch: Path) -> OpResult:
        setup = cli_io.build_setup(ExperimentConfig())
        demos = cli_io.synthesize_demonstrations(
            FIT_W_TRUE, FIT_HC, setup.disc, FIT_V_LIMIT,
            count=FIT_DEMO_COUNT, seed=demo_seed,
            duration_steps=FIT_DEMO_STEPS, n_steps=FIT_HORIZON)
        per_eval = sum(len(d) - 1 for d in demos)
        res = OpResult(label=f"irl-fit[{demo_seed}]", wall_s=0.0, steps=0,
                       fits=1)
        start = perf_counter()
        try:
            fit = driver_model.fit_weights_maxent(
                demos, FIT_W0, learn_rate=FIT_LEARN_RATE,
                max_iters=FIT_MAX_ITERS, tol=FIT_TOL, hc=FIT_HC,
                disc=setup.disc, v_limit=FIT_V_LIMIT, n_steps=FIT_HORIZON)
        except FitDivergenceError as exc:
            res.wall_s = perf_counter() - start
            res.fits_failed = 1
            res.steps = (exc.iteration + 1) * per_eval
            res.problems.append(f"fit diverged: {exc}")
            return res
        res.wall_s = perf_counter() - start
        # one model rollout of every demonstration per loop pass; the
        # converged pass evaluates without updating the weights
        res.fit_iters = fit.iterations
        res.steps = (fit.iterations + int(fit.converged)) * per_eval
        worst = float(np.max(fit.mismatch))
        if not fit.converged:
            res.fits_failed = 1
            res.problems.append(f"fit did not converge in {FIT_MAX_ITERS} "
                                f"iterations (mismatch {worst:.4f})")
        elif not worst <= FIT_TOL:
            res.fits_failed = 1
            res.problems.append(f"fit mismatch {worst:.4f} > {FIT_TOL}")
        res.digest = hashlib.sha256(
            repr((fit.weights.w, fit.weights.tau_headway,
                  fit.iterations)).encode()).hexdigest()
        return res


WORKLOADS = {
    "courteous": EpisodeWorkload("courteous", "sweep", "pi/12,pi/4",
                                 (math.pi / 12, math.pi / 4)),
    "egoistic": EpisodeWorkload("egoistic", "run", "0", (0.0,)),
    "irl-fit": FitWorkload(),
}


# ---------------------------------------------------------------------------
# Reference mode


def make_reference(name: str, workdir: Path, environment: dict) -> dict:
    """Tight-tolerance episodes for every library entry of a workload.

    Runs run_episode with the default OuterSettings() (300 iterations,
    ftol=1e-12) on the same inputs the CLI builds, applies the same
    output checks and stores the AV and hv0 gap rows.
    """
    wl = WORKLOADS[name]
    settings = OuterSettings()
    entries = []
    for k in range(inputs.LIBRARY[name]):
        speeds = inputs.library_profile(name, k)
        csv = workdir / f"{name}_lead_{k:02d}.csv"
        sha = write_profile_csv(csv, speeds, inputs.DT)
        setup = build_setup(ExperimentConfig(scenario=str(csv)))
        levels = []
        for phi in wl.phis:
            trace = run_episode(setup.scenario, SvoConfig(phi),
                                setup.weights, setup.cons, setup.ego,
                                setup.idm, setup.disc,
                                plan_settings=settings)
            problems = check_trace(trace, setup, len(speeds))
            if problems:
                raise RuntimeError(f"reference {name}[{k}] phi={phi}: "
                                   f"{problems}")
            levels.append({"phi": phi,
                           "converged_share": float(np.mean(trace.converged)),
                           "av_gap": [float(g) for g in trace.gaps[0]],
                           "hv0_gap": [float(g) for g in trace.gaps[1]]})
        entries.append({"index": k, "profile_sha256": sha, "levels": levels})
        csv.unlink()
    return {"workload": name, "made_by": REFERENCE_COMMAND,
            "outer_settings": {"max_iters": settings.max_iters,
                               "ftol": settings.ftol},
            "environment": environment, "entries": entries}
