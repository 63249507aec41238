"""The traced bindings of each layer and the per-layer metrics they give.

Layers are named by module.  Every name is wrapped in each module that
calls it, because `from .x import f` gives each importing module its
own binding.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from tracer import Binding

SLSQP_ITERATION_CAP = 9    # scipy SLSQP exit status "iteration limit"


def _solver_result(res) -> dict:
    return {"nit": int(res.nit), "status": int(res.status)}


def _response(resp) -> dict:
    return {"feasible": bool(resp.feasible)}


def _files_written(paths) -> dict:
    return {"bytes": sum(Path(p).stat().st_size for p in paths)}


def _fit(result) -> dict:
    return {"iterations": int(result.iterations),
            "converged": bool(result.converged)}


BINDINGS = (
    # cli_io
    Binding("svosim.cli_io", "build_setup", "cli_io.build_setup"),
    Binding("svosim.cli_io", "export_results", "cli_io.export_results",
            _files_written),
    Binding("svosim.cli_io", "load_trace_csv", "cli_io.load_trace_csv"),
    # simulation
    Binding("svosim.cli_io", "sweep_svo", "simulation.sweep_svo"),
    Binding("svosim.cli_io", "run_episode", "simulation.run_episode"),
    Binding("svosim.simulation", "run_episode", "simulation.run_episode"),
    Binding("svosim.cli_io", "compute_metrics", "simulation.compute_metrics"),
    Binding("svosim.simulation", "compute_metrics",
            "simulation.compute_metrics"),
    # controller
    Binding("svosim.simulation", "plan", "controller.plan"),
    Binding("svosim.controller", "minimize", "controller.slsqp",
            _solver_result),
    # driver_model
    Binding("svosim.controller", "respond_to_leader", "driver_model.respond",
            _response),
    Binding("svosim.driver_model", "respond_to_leader",
            "driver_model.respond", _response),
    Binding("svosim.cli_io", "respond_to_leader", "driver_model.respond",
            _response),
    Binding("svosim.controller", "response_speed_sensitivity",
            "driver_model.sensitivity"),
    Binding("svosim.simulation", "best_response",
            "driver_model.best_response"),
    Binding("svosim.driver_model", "minimize", "driver_model.lbfgs_fallback"),
    Binding("svosim.driver_model", "fit_weights_maxent", "driver_model.fit",
            _fit),
    Binding("svosim.cli_io", "fit_weights_maxent", "driver_model.fit", _fit),
    Binding("svosim.cli_io", "synthesize_demonstrations",
            "driver_model.synthesize"),
    # dynamics
    Binding("svosim.controller", "build_horizon_maps",
            "dynamics.build_horizon_maps"),
    Binding("svosim.driver_model", "build_horizon_maps",
            "dynamics.build_horizon_maps"),
    Binding("svosim.simulation", "step", "dynamics.step"),
    Binding("svosim.driver_model", "step", "dynamics.step"),
    Binding("svosim.cli_io", "step", "dynamics.step"),
    # traffic_flow
    Binding("svosim.simulation", "step_fleet", "traffic_flow.step_fleet"),
)

# name, unit; every traced run reports all of them (0 where a layer is
# not exercised by the workload)
PER_LAYER_UNITS = {
    "cli_io.build_setup.ms": "ms",
    "cli_io.export_results.ms": "ms",
    "cli_io.export_results.bytes": "bytes",
    "cli_io.load_trace_csv.ms": "ms",
    "simulation.sweep_svo.ms": "ms",
    "simulation.run_episode.self_ms": "ms",
    "simulation.compute_metrics.ms": "ms",
    "simulation.gap_dev_m": "m",
    "controller.plan.calls": "count",
    "controller.plan.ms_p50": "ms",
    "controller.plan.ms_p95": "ms",
    "controller.plan.self_ms": "ms",
    "controller.plan.fail_ratio": "ratio",
    "controller.slsqp.calls_per_plan": "count",
    "controller.slsqp.nit_mean": "count",
    "controller.slsqp.cap_ratio": "ratio",
    "controller.slsqp.self_ms": "ms",
    "driver_model.respond.calls_per_plan": "count",
    "driver_model.respond.ms_mean": "ms",
    "driver_model.respond.busy_share": "ratio",
    "driver_model.respond.infeasible_ratio": "ratio",
    "driver_model.sensitivity.calls_per_plan": "count",
    "driver_model.sensitivity.ms_mean": "ms",
    "driver_model.sensitivity.busy_share": "ratio",
    "driver_model.best_response.ms_per_step": "ms",
    "driver_model.lbfgs_fallback.calls": "count",
    "driver_model.lbfgs_fallback.ms": "ms",
    "driver_model.fit.iters": "count",
    "driver_model.fit.ms_per_iter": "ms",
    "driver_model.fit.fail_ratio": "ratio",
    "driver_model.synthesize.ms": "ms",
    "dynamics.build_horizon_maps.calls": "count",
    "dynamics.build_horizon_maps.ms": "ms",
    "dynamics.step.ms": "ms",
    "traffic_flow.step_fleet.ms": "ms",
    "trace_overhead": "ratio",
}


def layer_metrics(tracer, n_passes: int, traced_wall: float,
                  untraced_wall: float) -> dict:
    """Per-layer metrics from the spans of n_passes traced passes.

    `.ms` is the mean duration of one call, `.self_ms` the mean self
    time of one call, `.calls` a count per pass, `busy_share` the
    layer's summed time over the traced wall time.
    """
    names = np.array(tracer.names, dtype=object)
    dur = np.array(tracer.ends) - np.array(tracer.starts)
    own = np.array(tracer.self_times())
    parents = tracer.parents
    idx = {name: np.flatnonzero(names == name) for name in set(tracer.names)}
    empty = np.array([], dtype=int)

    def spans(name):
        return idx.get(name, empty)

    def mean_ms(values):
        return 1000.0 * float(np.mean(values)) if len(values) else 0.0

    def attr(name, key):
        return [tracer.attrs[i][key] for i in spans(name)]

    def under_plan(i):
        while i >= 0:
            if names[i] == "controller.plan":
                return True
            i = parents[i]
        return False

    plans = spans("controller.plan")
    n_plan = len(plans)
    per_plan = (lambda count: count / n_plan) if n_plan else (lambda c: 0.0)
    slsqp = spans("controller.slsqp")
    status = attr("controller.slsqp", "status")
    responds = spans("driver_model.respond")
    feasible = attr("driver_model.respond", "feasible")
    sens = spans("driver_model.sensitivity")
    fallback = spans("driver_model.lbfgs_fallback")
    fits = spans("driver_model.fit")
    fit_iters = attr("driver_model.fit", "iterations")
    fit_passes = sum(it + int(conv) for it, conv in
                     zip(fit_iters, attr("driver_model.fit", "converged")))
    maps = spans("dynamics.build_horizon_maps")
    exports = attr("cli_io.export_results", "bytes")
    plan_ms = 1000.0 * dur[plans]

    return {
        "cli_io.build_setup.ms": mean_ms(dur[spans("cli_io.build_setup")]),
        "cli_io.export_results.ms":
            mean_ms(dur[spans("cli_io.export_results")]),
        "cli_io.export_results.bytes":
            float(np.mean(exports)) if exports else 0.0,
        "cli_io.load_trace_csv.ms":
            mean_ms(dur[spans("cli_io.load_trace_csv")]),
        "simulation.sweep_svo.ms": mean_ms(dur[spans("simulation.sweep_svo")]),
        "simulation.run_episode.self_ms":
            mean_ms(own[spans("simulation.run_episode")]),
        "simulation.compute_metrics.ms":
            mean_ms(dur[spans("simulation.compute_metrics")]),
        "controller.plan.calls": n_plan / n_passes,
        "controller.plan.ms_p50":
            float(np.percentile(plan_ms, 50)) if n_plan else 0.0,
        "controller.plan.ms_p95":
            float(np.percentile(plan_ms, 95)) if n_plan else 0.0,
        "controller.plan.self_ms": mean_ms(own[plans]),
        "controller.slsqp.calls_per_plan": per_plan(len(slsqp)),
        "controller.slsqp.nit_mean":
            float(np.mean(attr("controller.slsqp", "nit"))) if status
            else 0.0,
        "controller.slsqp.cap_ratio":
            status.count(SLSQP_ITERATION_CAP) / len(status) if status
            else 0.0,
        "controller.slsqp.self_ms": mean_ms(own[slsqp]),
        "driver_model.respond.calls_per_plan":
            per_plan(sum(1 for i in responds if under_plan(i))),
        "driver_model.respond.ms_mean": mean_ms(dur[responds]),
        "driver_model.respond.busy_share":
            float(np.sum(dur[responds])) / traced_wall,
        "driver_model.respond.infeasible_ratio":
            feasible.count(False) / len(feasible) if feasible else 0.0,
        "driver_model.sensitivity.calls_per_plan": per_plan(len(sens)),
        "driver_model.sensitivity.ms_mean": mean_ms(dur[sens]),
        "driver_model.sensitivity.busy_share":
            float(np.sum(dur[sens])) / traced_wall,
        "driver_model.best_response.ms_per_step":
            mean_ms(dur[spans("driver_model.best_response")]),
        "driver_model.lbfgs_fallback.calls": len(fallback) / n_passes,
        "driver_model.lbfgs_fallback.ms": mean_ms(dur[fallback]),
        "driver_model.fit.iters":
            float(np.mean(fit_iters)) if fit_iters else 0.0,
        "driver_model.fit.ms_per_iter":
            1000.0 * float(np.sum(dur[fits])) / fit_passes if fit_passes
            else 0.0,
        "driver_model.synthesize.ms":
            mean_ms(dur[spans("driver_model.synthesize")]),
        "dynamics.build_horizon_maps.calls": len(maps) / n_passes,
        "dynamics.build_horizon_maps.ms": mean_ms(dur[maps]),
        "dynamics.step.ms": mean_ms(dur[spans("dynamics.step")]),
        "traffic_flow.step_fleet.ms":
            mean_ms(dur[spans("traffic_flow.step_fleet")]),
        "trace_overhead": traced_wall / untraced_wall - 1.0,
    }
