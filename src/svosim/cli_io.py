"""Experiment configuration, dataset ingestion, CLI, and result export.

Everything that touches the filesystem or the command line lives here:
flat key-value config files, lead-profile CSVs, NGSIM trajectory
extraction, demonstration synthesis, and the trace/metrics exporters
whose output downstream plotting consumes.  Exported files are
byte-stable for identical inputs; floats are written with repr so a
re-parse recovers them exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import defaults
from .controller import AvConstraints, EgoisticParams, SvoConfig
# respond_to_leader and step stay imported: perfbench/layers.py traces them
from .driver_model import (Demonstration, DriverWeights, FEATURE_NAMES,
                           HumanConstraints, _uneven_dt, fit_weights_maxent,
                           load_demonstration_csv, replan_rollout,
                           respond_to_leader, save_demonstration_csv)
from .dynamics import (DiscreteDynamics, LongitudinalState, build_continuous,
                       discretize_zoh, step)
from .errors import (CollisionError, FitDivergenceError,
                     InvalidParameterError, SimulationError, TraceParseError)
from .simulation import (EpisodeTrace, Scenario, TrafficMetrics,
                         VEHICLE_LABELS, build_scenario, compute_metrics,
                         run_episode, scenario_constraints, scenario_idm,
                         sweep_svo, synthetic_pv_profile)
from .traffic_flow import IdmParams

ARTIFACT_VERSION = "0.1.0"
SWEEP_LEVELS = (0.0, math.pi / 12, math.pi / 6, math.pi / 4)
FT_TO_M = 0.3048
SYNTHETIC_SCENARIO = "synthetic-default"

PV_PROFILE_HEADER = ["t", "speed_mps"]
# trace.csv columns in file order -> (EpisodeTrace field, kind).  Rows run
# step-major, keyed by the "index" and "label" columns; a "vehicle" column
# holds a per-vehicle field, and "step", "count" and "flag" columns
# repeat a per-step float, integer or 0/1 boolean on each vehicle row of
# the step.
TRACE_COLUMNS = {
    "step": (None, "index"),
    "t": ("t", "step"),
    "vehicle": (None, "label"),
    "pv_speed_mps": ("pv_speeds", "step"),
    "gap_m": ("gaps", "vehicle"),
    "speed_mps": ("speeds", "vehicle"),
    "accel_mps2": ("accels", "vehicle"),
    "control_mps2": ("controls", "vehicle"),
    "cost_egoistic": ("cost_egoistic", "step"),
    "cost_courtesy": ("cost_courtesy", "step"),
    "cost_total": ("cost_total", "step"),
    "converged": ("converged", "flag"),
    "inner_feasible": ("inner_feasible", "flag"),
    "outer_iters": ("outer_iters", "count"),
    "outer_status": ("outer_status", "count"),
}
_INT_KINDS = ("flag", "count")
_TRACE_MAGIC = "# svosim trace 2"

# published I-80 column layout; indices into a whitespace- or
# comma-delimited row
_NGSIM_COL_VEHICLE = 0
_NGSIM_COL_FRAME = 1
_NGSIM_COL_TIME_MS = 3
_NGSIM_COL_LOCAL_Y = 5
_NGSIM_COL_SPEED = 11
_NGSIM_MIN_COLUMNS = 12
_NGSIM_FRAME_S = 0.1
_SMOOTH_WINDOW_S = 0.5


def parse_phi(text: str) -> float:
    """Angle in radians; accepts decimals and the forms pi, pi/N."""
    s = text.strip().lower()
    if s == "pi":
        return math.pi
    if s.startswith("pi/"):
        try:
            return math.pi / float(s[3:])
        except (ValueError, ZeroDivisionError):
            raise InvalidParameterError(f"cannot parse angle {text!r}")
    try:
        return float(s)
    except ValueError:
        raise InvalidParameterError(f"cannot parse angle {text!r}")


def parse_phi_list(text: str) -> tuple:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise InvalidParameterError(f"empty angle list {text!r}")
    return tuple(parse_phi(p) for p in parts)


def _parse_bool(text: str) -> bool:
    s = text.strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise InvalidParameterError(f"cannot parse boolean {text!r}")


def _parse_weights(text: str) -> tuple:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 4:
        raise InvalidParameterError(
            f"weights need exactly 4 comma-separated values, got {text!r}")
    return tuple(float(p) for p in parts)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on, merged from defaults, file, and flags.

    scenario names the lead-profile source: the shipped synthetic name,
    a PV profile CSV path, or an NGSIM dataset path (the latter needs
    ngsim_vehicle).  The remaining fields override the packaged
    parameter table.
    """

    scenario: str = SYNTHETIC_SCENARIO
    ngsim_vehicle: int | None = None
    smooth_ngsim: bool = False
    dt: float = defaults.STEP_S
    phi_levels: tuple = SWEEP_LEVELS
    weights: tuple = defaults.DEFAULT_WEIGHTS
    weights_file: str | None = None
    tau_headway: float = defaults.HUMAN_TIME_HEADWAY_S
    min_gap: float = defaults.MIN_GAP_M
    max_gap: float = defaults.MAX_GAP_M
    av_time_headway: float = defaults.AV_TIME_HEADWAY_S
    actuation_lag: float = defaults.ACTUATION_LAG_S
    speed_limit: float = defaults.DEFAULT_SPEED_LIMIT
    horizon_steps: int = defaults.HORIZON_STEPS
    outdir: str = "results"
    seed: int = 0

    def __post_init__(self):
        if not self.dt > 0:
            raise InvalidParameterError(f"dt must be positive, got {self.dt}")
        for phi in self.phi_levels:
            SvoConfig(float(phi))
        if len(self.weights) != 4 or any(w < 0 for w in self.weights):
            raise InvalidParameterError(
                f"weights must be 4 nonnegative values, got {self.weights}")
        for name in ("tau_headway", "min_gap", "av_time_headway",
                     "actuation_lag", "speed_limit"):
            if not getattr(self, name) > 0:
                raise InvalidParameterError(
                    f"{name} must be positive, got {getattr(self, name)}")
        if not self.max_gap > self.min_gap:
            raise InvalidParameterError(
                f"need min_gap < max_gap, got {self.min_gap}, {self.max_gap}")
        if self.horizon_steps < 1:
            raise InvalidParameterError(
                f"horizon_steps must be at least 1, got {self.horizon_steps}")
        if self.scenario != SYNTHETIC_SCENARIO \
                and not Path(self.scenario).is_file():
            raise InvalidParameterError(
                f"scenario file not found: {self.scenario}")
        if self.weights_file is not None \
                and not Path(self.weights_file).is_file():
            raise InvalidParameterError(
                f"weights file not found: {self.weights_file}")

    def echo_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


_CONFIG_CASTERS = {
    "scenario": str,
    "ngsim_vehicle": int,
    "smooth_ngsim": _parse_bool,
    "dt": float,
    "phi": parse_phi_list,
    "weights": _parse_weights,
    "weights_file": str,
    "tau_headway": float,
    "min_gap": float,
    "max_gap": float,
    "av_time_headway": float,
    "actuation_lag": float,
    "speed_limit": float,
    "horizon_steps": int,
    "outdir": str,
    "seed": int,
}
_KEY_TO_FIELD = {"phi": "phi_levels"}


def parse_config_file(path) -> dict:
    """Flat `key = value` lines, # comments; returns {key: value string}."""
    entries = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise InvalidParameterError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise InvalidParameterError(
                f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _CONFIG_CASTERS:
            raise InvalidParameterError(
                f"{path}:{lineno}: unknown config key {key!r}")
        entries[key] = value
    return entries


def build_config(file_vals: dict | None, flag_vals: dict) -> ExperimentConfig:
    """Merge defaults <- config file <- command-line flags.

    flag_vals holds already-typed values keyed like the config file;
    None entries mean the flag was not given.
    """
    merged = {}
    for key, text in (file_vals or {}).items():
        merged[key] = _CONFIG_CASTERS[key](text)
    for key, value in flag_vals.items():
        if value is not None:
            merged[key] = value
    if "weights" in merged and merged.get("weights_file") is not None:
        raise InvalidParameterError(
            "inline weights and a weights file are conflicting sources; "
            "give one")
    kwargs = {_KEY_TO_FIELD.get(k, k): v for k, v in merged.items()}
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# Lead-profile sources


@dataclass(frozen=True)
class LoadedProfile:
    """A validated lead-speed trace and its sampling interval."""

    speeds: np.ndarray
    dt: float
    clamped_negative: int


def load_pv_profile_csv(path) -> LoadedProfile:
    """Load a `t,speed_mps` CSV with a uniform time grid.

    Negative speeds are clamped to zero and counted; a non-uniform step
    (beyond 1e-6 s), a short file, or an unparseable row is an error
    naming the offending line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise TraceParseError(f"cannot read {path}: {exc}")
    if not rows:
        raise TraceParseError(f"{path}: empty file", line=1)
    header = [h.strip() for h in rows[0]]
    if header != PV_PROFILE_HEADER:
        raise TraceParseError(
            f"{path}: expected header {','.join(PV_PROFILE_HEADER)}, "
            f"got {','.join(header)}", line=1)
    times, speeds, linenos = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise TraceParseError(f"{path}: expected 2 fields", line=lineno)
        try:
            t, v = float(row[0]), float(row[1])
        except ValueError:
            raise TraceParseError(
                f"{path}: unparseable number in {row}", line=lineno)
        if not (math.isfinite(t) and math.isfinite(v)):
            raise TraceParseError(f"{path}: non-finite value", line=lineno)
        times.append(t)
        speeds.append(v)
        linenos.append(lineno)
    if len(times) < 2:
        raise TraceParseError(
            f"{path}: need at least two data rows", line=len(rows))
    dt = times[1] - times[0]
    if not dt > 0:
        raise TraceParseError(f"{path}: time must increase",
                              line=linenos[1])
    uneven = _uneven_dt(np.asarray(times))
    if uneven:
        raise TraceParseError(f"{path}: {uneven[1]}", line=linenos[uneven[0]])
    arr = np.asarray(speeds, dtype=float)
    clamped = int(np.sum(arr < 0))
    return LoadedProfile(speeds=np.maximum(arr, 0.0), dt=float(dt),
                         clamped_negative=clamped)


def save_pv_profile_csv(path, speeds, dt: float) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PV_PROFILE_HEADER)
        for i, v in enumerate(np.asarray(speeds, dtype=float)):
            writer.writerow([repr(i * dt), repr(float(v))])


@dataclass(frozen=True)
class NgsimRecord:
    """One cleaned dataset row; lengths already converted to meters."""

    vehicle_id: int
    frame: int
    t_ms: int
    local_y_m: float
    speed_mps: float


@dataclass(frozen=True)
class NgsimExtract:
    vehicle_id: int
    speeds: np.ndarray
    dt: float
    skipped_rows: int
    duplicate_frames: int
    filled_frames: int
    clamped_negative: int


def _moving_average(x: np.ndarray, window: int) -> np.ndarray:
    if window <= 1:
        return x
    left = window // 2
    padded = np.concatenate([np.full(left, x[0]), x,
                             np.full(window - 1 - left, x[-1])])
    return np.convolve(padded, np.full(window, 1.0 / window), mode="valid")


def extract_ngsim_vehicle(dataset_path, vehicle_id: int,
                          dt: float = defaults.STEP_S,
                          smooth: bool = False) -> NgsimExtract:
    """Extract one vehicle's speed trace from an NGSIM trajectory file.

    Accepts the published I-80 column layout, comma- or whitespace-
    delimited, feet units.  Speeds are converted to m/s exactly once,
    missing frames are filled by linear interpolation, the 10 Hz frame
    clock is resampled to dt, and an optional centered moving average
    (0.5 s window) smooths the result.

    Raises:
        InvalidParameterError: the vehicle id is absent (the message
            lists available ids) or no usable rows exist.
    """
    try:
        lines = Path(dataset_path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise InvalidParameterError(f"cannot read {dataset_path}: {exc}")
    records = []
    available = set()
    skipped = 0
    for i, raw in enumerate(lines):
        parts = raw.replace(",", " ").split()
        if not parts:
            continue
        try:
            vid = int(float(parts[_NGSIM_COL_VEHICLE]))
        except (ValueError, IndexError):
            # one header line is expected; anything else is a bad row
            if i > 0:
                skipped += 1
            continue
        if len(parts) < _NGSIM_MIN_COLUMNS:
            skipped += 1
            continue
        try:
            rec = NgsimRecord(
                vehicle_id=vid,
                frame=int(float(parts[_NGSIM_COL_FRAME])),
                t_ms=int(float(parts[_NGSIM_COL_TIME_MS])),
                local_y_m=float(parts[_NGSIM_COL_LOCAL_Y]) * FT_TO_M,
                speed_mps=float(parts[_NGSIM_COL_SPEED]) * FT_TO_M)
        except ValueError:
            skipped += 1
            continue
        available.add(vid)
        if vid == vehicle_id:
            records.append(rec)
    if not records:
        ids = sorted(available)
        shown = ", ".join(str(v) for v in ids[:25])
        if len(ids) > 25:
            shown += ", ..."
        raise InvalidParameterError(
            f"vehicle id {vehicle_id} not in {dataset_path}; "
            f"available: {shown or 'none'}")

    records.sort(key=lambda r: r.frame)
    frames = []
    speeds = []
    dups = 0
    for rec in records:
        if frames and rec.frame == frames[-1]:
            dups += 1
            continue
        frames.append(rec.frame)
        speeds.append(rec.speed_mps)
    frames = np.asarray(frames, dtype=float)
    speeds = np.asarray(speeds, dtype=float)
    full = np.arange(frames[0], frames[-1] + 1)
    filled = int(len(full) - len(frames))
    on_frames = np.interp(full, frames, speeds)
    if abs(dt - _NGSIM_FRAME_S) > 1e-12:
        t_frames = (full - full[0]) * _NGSIM_FRAME_S
        t_out = np.arange(0.0, t_frames[-1] + 1e-9, dt)
        trace = np.interp(t_out, t_frames, on_frames)
    else:
        trace = on_frames
    clamped = int(np.sum(trace < 0))
    trace = np.maximum(trace, 0.0)
    if smooth:
        trace = _moving_average(trace,
                                max(1, int(round(_SMOOTH_WINDOW_S / dt))))
    return NgsimExtract(vehicle_id=vehicle_id, speeds=trace, dt=dt,
                        skipped_rows=skipped, duplicate_frames=dups,
                        filled_frames=filled, clamped_negative=clamped)


# ---------------------------------------------------------------------------
# Fitted-weights files


def save_weights_file(path, w: DriverWeights) -> None:
    lines = ["# svosim fitted driver weights"]
    for name, value in zip(FEATURE_NAMES, w.w):
        lines.append(f"w_{name} = {repr(float(value))}")
    lines.append(f"tau_headway = {repr(float(w.tau_headway))}")
    lines.append(f"min_gap = {repr(float(w.min_gap))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_weights_file(path) -> DriverWeights:
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise InvalidParameterError(f"cannot read weights {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise InvalidParameterError(
                f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in text.split("=", 1))
        try:
            values[key] = float(value)
        except ValueError:
            raise InvalidParameterError(
                f"{path}:{lineno}: unparseable number {value!r}")
    try:
        w = tuple(values[f"w_{name}"] for name in FEATURE_NAMES)
        tau = values["tau_headway"]
        min_gap = values["min_gap"]
    except KeyError as exc:
        raise InvalidParameterError(f"{path}: missing key {exc}")
    return DriverWeights(w=w, tau_headway=tau, min_gap=min_gap)


# ---------------------------------------------------------------------------
# Result export


def export_results(trace: EpisodeTrace, metrics: TrafficMetrics, outdir,
                   config_echo: dict | None = None) -> tuple:
    """Write trace.csv and metrics.json under outdir; returns both paths.

    trace.csv holds one row per step per vehicle; per-step planner
    diagnostics repeat on each vehicle row of the step.  metrics.json
    echoes the configuration so plots need no side channel.  Output is
    byte-stable for identical inputs.
    """
    if len(trace) == 0:
        raise InvalidParameterError("refusing to export an empty trace")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.csv"
    metrics_path = out / "metrics.json"

    lines = [_TRACE_MAGIC,
             f"# dt = {float(trace.dt)!r}",
             f"# v_limit = {float(trace.v_limit)!r}",
             f"# phi = {float(trace.phi)!r}",
             f"# label = {trace.label}",
             ",".join(TRACE_COLUMNS)]
    n, n_veh = len(trace), trace.gaps.shape[0]
    columns = []
    for name, kind in TRACE_COLUMNS.values():
        if kind == "label":
            cells = VEHICLE_LABELS[:n_veh] * n
        elif kind == "vehicle":
            cells = map(repr, getattr(trace, name).astype(float).T
                        .ravel().tolist())
        else:
            values = np.arange(n) if kind == "index" else \
                getattr(trace, name).astype(int if kind in _INT_KINDS
                                            else float)
            # format each step once, then repeat it on its vehicle rows
            cells = chain.from_iterable(
                zip(*[list(map(repr, values.tolist()))] * n_veh))
        columns.append(cells)
    lines.extend(map(",".join, zip(*columns)))
    trace_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    pairs = []
    for idx, label in enumerate(metrics.pair_labels):
        pairs.append({"pair": label,
                      "avg_gap": metrics.avg_gap[idx],
                      "avg_headway": metrics.avg_headway[idx],
                      "headway_excluded": metrics.headway_excluded[idx]})
    doc = {"artifact_version": ARTIFACT_VERSION,
           "label": trace.label,
           "phi": trace.phi,
           "pairs": pairs,
           "traffic": {"avg_gap": metrics.traffic_avg_gap,
                       "avg_headway": metrics.traffic_avg_headway},
           "headway_speed_floor": metrics.headway_speed_floor,
           "config": config_echo or {}}
    metrics_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    return trace_path, metrics_path


def load_trace_csv(path) -> EpisodeTrace:
    """Parse a trace.csv back into the identical in-memory trace."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise TraceParseError(f"cannot read {path}: {exc}")
    if not lines or lines[0] != _TRACE_MAGIC:
        raise TraceParseError(f"{path}: not a svosim trace file", line=1)
    meta = {}
    body_start = None
    for i, line in enumerate(lines[1:], start=1):
        if line.startswith("# "):
            key, sep, value = line[2:].partition("=")
            if not sep:
                raise TraceParseError(f"{path}: metadata line without '='",
                                      line=i + 1)
            meta[key.strip()] = value.strip()
        else:
            body_start = i
            break
    try:
        scalars = {key: float(meta[key]) for key in ("dt", "v_limit", "phi")}
    except KeyError as exc:
        raise TraceParseError(f"{path}: missing metadata {exc}") from None
    except ValueError as exc:
        raise TraceParseError(f"{path}: bad metadata: {exc}") from None
    if body_start is None or lines[body_start] != ",".join(TRACE_COLUMNS):
        raise TraceParseError(f"{path}: missing column header",
                              line=(body_start or 1) + 1)
    rows = [line.split(",") for line in lines[body_start + 1:] if line]
    if not rows:
        raise TraceParseError(f"{path}: no data rows", line=body_start + 2)
    for lineno, r in enumerate(rows, start=body_start + 2):
        if len(r) != len(TRACE_COLUMNS):
            raise TraceParseError(f"{path}: bad row {r!r}", line=lineno)
    cells = dict(zip(TRACE_COLUMNS, zip(*rows)))
    n_veh = len(set(cells["vehicle"]))
    n = len(rows) // n_veh
    if cells["vehicle"] != VEHICLE_LABELS[:n_veh] * n or cells["step"] \
            != tuple(str(i) for i in range(n) for _ in range(n_veh)):
        raise TraceParseError(f"{path}: ragged or out-of-order vehicle rows")
    arrays = {}
    for column, (name, kind) in TRACE_COLUMNS.items():
        if name is None:
            continue
        # per-step values are read off each step's first vehicle row
        stride = 1 if kind == "vehicle" else n_veh
        col = cells[column]
        if any(col[k::stride] != col[::stride] for k in range(1, stride)):
            raise TraceParseError(
                f"{path}: {column} differs between the rows of a step")
        try:
            values = np.array(list(map(int if kind in _INT_KINDS
                                       else float, col[::stride])))
        except ValueError as exc:
            raise TraceParseError(f"{path}: bad {column}: {exc}") from None
        if kind == "vehicle":
            values = values.reshape(n, n_veh).T.copy()
        arrays[name] = values != 0 if kind == "flag" else values
    return EpisodeTrace(**arrays, **scalars, label=meta.get("label", ""))


# ---------------------------------------------------------------------------
# Demonstration synthesis


def synthesize_demonstrations(w: DriverWeights, hc: HumanConstraints,
                              disc: DiscreteDynamics, v_limit: float,
                              count: int, seed: int,
                              duration_steps: int = 80,
                              n_steps: int = 12) -> list:
    """Closed-loop driver rollouts over randomized lead profiles.

    Each demonstration drives the modeled driver (with the given
    weights) behind a hold-ramp-hold leader whose speeds, ramp length,
    and initial gap offset are drawn from the seeded generator.
    """
    if count < 1:
        raise InvalidParameterError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    demos = []
    for _ in range(count):
        v_a = float(rng.uniform(10.0, 20.0))
        v_b = float(np.clip(v_a + rng.uniform(-6.0, 6.0), 5.0,
                            v_limit - 2.0))
        hold = int(rng.integers(15, 25))
        ramp = int(rng.integers(20, 30))
        tail = max(duration_steps - hold - ramp, 10)
        profile = np.concatenate([np.full(hold, v_a),
                                  np.linspace(v_a, v_b, ramp),
                                  np.full(tail, v_b)])
        gap0 = w.min_gap + w.tau_headway * v_a + float(rng.uniform(-2.0, 4.0))
        x = LongitudinalState(max(gap0, w.min_gap + 1.0), v_a, 0.0)
        states, ctrl = replan_rollout(x, profile, len(profile), w, hc, disc,
                                      n_steps, v_limit)
        gaps, spds, accs = states[:, :-1]
        demos.append(Demonstration(t=np.arange(len(profile)) * disc.dt,
                                   gaps=gaps, speeds=spds, accels=accs,
                                   leader_speeds=profile, controls=ctrl))
    return demos


# ---------------------------------------------------------------------------
# Experiment assembly


@dataclass(frozen=True)
class ExperimentSetup:
    scenario: Scenario
    cons: AvConstraints
    ego: EgoisticParams
    idm: IdmParams
    disc: DiscreteDynamics
    weights: DriverWeights
    notes: tuple


def _driver_weights(config: ExperimentConfig) -> DriverWeights:
    """The config's driver weights: its weights file, else its fields."""
    if config.weights_file is not None:
        return load_weights_file(config.weights_file)
    return DriverWeights(w=config.weights, tau_headway=config.tau_headway,
                         min_gap=config.min_gap)


def build_setup(config: ExperimentConfig) -> ExperimentSetup:
    """Resolve the config into ready-to-run experiment objects."""
    weights = _driver_weights(config)
    notes = [] if config.weights_file is None \
        else [f"weights from {config.weights_file}"]
    dt = config.dt
    if config.scenario == SYNTHETIC_SCENARIO:
        pv = synthetic_pv_profile(dt)
        label = SYNTHETIC_SCENARIO
    elif config.ngsim_vehicle is not None:
        ext = extract_ngsim_vehicle(config.scenario, config.ngsim_vehicle,
                                    dt=dt, smooth=config.smooth_ngsim)
        pv = ext.speeds
        label = f"ngsim-vehicle-{config.ngsim_vehicle}"
        notes.append(f"ngsim rows skipped={ext.skipped_rows} "
                     f"duplicates={ext.duplicate_frames} "
                     f"filled={ext.filled_frames} "
                     f"clamped={ext.clamped_negative}")
    else:
        loaded = load_pv_profile_csv(config.scenario)
        if abs(loaded.dt - dt) > 1e-9:
            notes.append(f"dt {loaded.dt} taken from {config.scenario}")
            dt = loaded.dt
        pv = loaded.speeds
        label = Path(config.scenario).stem
        if loaded.clamped_negative:
            notes.append(
                f"clamped {loaded.clamped_negative} negative speeds")

    ego = EgoisticParams(min_gap=config.min_gap,
                         time_headway=config.av_time_headway)
    scn = build_scenario(pv, dt, config.speed_limit, ego, weights, label)
    cons = replace(scenario_constraints(scn), d_min=config.min_gap,
                   d_max=config.max_gap)
    disc = discretize_zoh(build_continuous(config.actuation_lag), dt)
    return ExperimentSetup(scenario=scn, cons=cons, ego=ego,
                           idm=scenario_idm(scn), disc=disc, weights=weights,
                           notes=tuple(notes))


def _log_config(config: ExperimentConfig, extra: dict | None = None) -> None:
    echo = config.echo_dict()
    echo.update(extra or {})
    for key in sorted(echo):
        print(f"config: {key} = {echo[key]}")


def _phi_dirname(phi: float) -> str:
    return f"phi_{phi:.6f}"


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_run(config: ExperimentConfig, phi: float) -> int:
    setup = build_setup(config)
    _log_config(config, {"phi": phi})
    for note in setup.notes:
        print(f"note: {note}")
    trace = run_episode(setup.scenario, SvoConfig(phi), setup.weights,
                        setup.cons, setup.ego, setup.idm, setup.disc,
                        n_steps=config.horizon_steps)
    metrics = compute_metrics(trace)
    echo = config.echo_dict()
    echo["phi"] = phi
    trace_path, metrics_path = export_results(trace, metrics, config.outdir,
                                              echo)
    print(f"wrote {trace_path}")
    print(f"wrote {metrics_path}")
    hw = metrics.avg_headway[1]
    print(f"hv0: avg gap {metrics.avg_gap[1]:.3f} m, avg headway "
          + (f"{hw:.3f} s" if hw is not None else "undefined"))
    return 0


def _cmd_sweep(config: ExperimentConfig) -> int:
    setup = build_setup(config)
    _log_config(config)
    for note in setup.notes:
        print(f"note: {note}")
    entries = sweep_svo(setup.scenario, config.phi_levels, setup.weights,
                        setup.cons, setup.ego, setup.idm, setup.disc,
                        n_steps=config.horizon_steps)
    summary = []
    failed = 0
    for entry in entries:
        tag = _phi_dirname(entry.phi)
        if entry.error is not None:
            failed += 1
            print(f"{tag}: FAILED {entry.error}")
            summary.append({"phi": entry.phi, "error": entry.error})
            continue
        echo = config.echo_dict()
        echo["phi"] = entry.phi
        subdir = Path(config.outdir) / tag
        export_results(entry.trace, entry.metrics, subdir, echo)
        m = entry.metrics
        print(f"{tag}: traffic avg gap {m.traffic_avg_gap:.3f} m, "
              f"hv0 avg gap {m.avg_gap[1]:.3f} m")
        summary.append({"phi": entry.phi,
                        "traffic_avg_gap": m.traffic_avg_gap,
                        "traffic_avg_headway": m.traffic_avg_headway,
                        "hv0_avg_gap": m.avg_gap[1],
                        "hv0_avg_headway": m.avg_headway[1],
                        "dir": tag})
    doc = {"artifact_version": ARTIFACT_VERSION,
           "config": config.echo_dict(), "levels": summary}
    out = Path(config.outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out / 'sweep.json'}")
    return 1 if failed == len(entries) else 0


def _cmd_fit(config: ExperimentConfig, demo_paths, w0, learn_rate: float,
             iters: int, tol: float, n_steps: int) -> int:
    demos = [load_demonstration_csv(p) for p in demo_paths]
    _log_config(config, {"demos": list(map(str, demo_paths)),
                         "fit_iters": iters, "fit_learn_rate": learn_rate,
                         "fit_tol": tol, "fit_horizon": n_steps})
    hc = HumanConstraints(v_min=defaults.SPEED_MIN,
                          v_max=config.speed_limit,
                          d_min=config.min_gap)
    disc = discretize_zoh(build_continuous(config.actuation_lag), config.dt)
    start = DriverWeights(w=w0, tau_headway=1.0, min_gap=config.min_gap)
    result = fit_weights_maxent(demos, start, learn_rate, iters, tol,
                                hc=hc, disc=disc,
                                v_limit=config.speed_limit, n_steps=n_steps)
    out = Path(config.outdir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "fitted_weights.txt"
    save_weights_file(path, result.weights)
    for i, name in enumerate(FEATURE_NAMES):
        print(f"{name}: w={result.weights.w[i]:.6f} "
              f"demo={result.demo_features[i]:.4f} "
              f"model={result.model_features[i]:.4f} "
              f"mismatch={result.mismatch[i]:.4f}")
    print(f"tau_headway: {result.weights.tau_headway:.4f}")
    print(f"converged: {result.converged} after {result.iterations} "
          f"iterations")
    print(f"wrote {path}")
    return 0


def _cmd_extract_ngsim(config: ExperimentConfig, dataset, vehicle: int) -> int:
    ext = extract_ngsim_vehicle(dataset, vehicle, dt=config.dt,
                                smooth=config.smooth_ngsim)
    _log_config(config, {"dataset": str(dataset), "vehicle": vehicle})
    out = Path(config.outdir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"pv_vehicle_{vehicle}.csv"
    save_pv_profile_csv(path, ext.speeds, ext.dt)
    print(f"rows skipped: {ext.skipped_rows}, duplicate frames: "
          f"{ext.duplicate_frames}, interpolated frames: "
          f"{ext.filled_frames}, clamped speeds: {ext.clamped_negative}")
    print(f"wrote {path} ({len(ext.speeds)} samples at dt={ext.dt})")
    return 0


def _cmd_gen_demos(config: ExperimentConfig, count: int) -> int:
    _log_config(config, {"count": count})
    weights = _driver_weights(config)
    hc = HumanConstraints(v_min=defaults.SPEED_MIN,
                          v_max=config.speed_limit, d_min=weights.min_gap)
    disc = discretize_zoh(build_continuous(config.actuation_lag), config.dt)
    demos = synthesize_demonstrations(weights, hc, disc, config.speed_limit,
                                      count, config.seed)
    out = Path(config.outdir)
    out.mkdir(parents=True, exist_ok=True)
    for k, demo in enumerate(demos):
        path = out / f"demo_{k:02d}.csv"
        save_demonstration_csv(path, demo)
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--scenario",
                   help="synthetic-default, a PV profile CSV, or an NGSIM "
                        "dataset path")
    p.add_argument("--ngsim-vehicle", type=int, dest="ngsim_vehicle")
    p.add_argument("--smooth-ngsim", action="store_const", const=True,
                   default=None, dest="smooth_ngsim")
    p.add_argument("--dt", type=float)
    p.add_argument("--weights", type=_parse_weights,
                   help="4 comma-separated driver feature weights")
    p.add_argument("--weights-file", dest="weights_file")
    p.add_argument("--tau-headway", type=float, dest="tau_headway")
    p.add_argument("--speed-limit", type=float, dest="speed_limit")
    p.add_argument("--outdir")
    p.add_argument("--seed", type=int)


def _flag_values(args: argparse.Namespace) -> dict:
    keys = ("scenario", "ngsim_vehicle", "smooth_ngsim", "dt", "weights",
            "weights_file", "tau_headway", "speed_limit", "outdir", "seed")
    return {k: getattr(args, k, None) for k in keys}


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="svosim",
        description="Mixed-traffic episodes with a courtesy-aware planner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one closed-loop episode")
    _add_shared_flags(p_run)
    p_run.add_argument("--phi", type=parse_phi, default=0.0,
                       help="orientation angle, e.g. 0, pi/6 (default 0)")

    p_sweep = sub.add_parser("sweep", help="one episode per orientation level")
    _add_shared_flags(p_sweep)
    p_sweep.add_argument("--phi", type=parse_phi_list, default=None,
                         help="comma-separated levels, e.g. 0,pi/12,pi/6")

    p_fit = sub.add_parser("fit", help="fit driver weights to demonstrations")
    _add_shared_flags(p_fit)
    p_fit.add_argument("--demos", nargs="+", required=True)
    p_fit.add_argument("--w0", type=_parse_weights,
                       default=(1.0, 1.0, 1.0, 1.0))
    p_fit.add_argument("--learn-rate", type=float, default=0.2)
    p_fit.add_argument("--iters", type=int, default=150)
    p_fit.add_argument("--tol", type=float, default=0.05)
    p_fit.add_argument("--horizon", type=int, default=12)

    p_ext = sub.add_parser("extract-ngsim",
                           help="extract a vehicle's speed trace")
    _add_shared_flags(p_ext)
    p_ext.add_argument("--dataset", required=True)
    p_ext.add_argument("--vehicle", type=int, required=True)

    p_gen = sub.add_parser("gen-demos",
                           help="synthesize driver demonstrations")
    _add_shared_flags(p_gen)
    p_gen.add_argument("--count", type=int, default=2)

    args = parser.parse_args(argv)
    try:
        file_vals = parse_config_file(args.config) if args.config else None
        flags = _flag_values(args)
        if args.command == "sweep" and args.phi is not None:
            flags["phi"] = tuple(args.phi)
        config = build_config(file_vals, flags)
        if args.command == "run":
            return _cmd_run(config, args.phi)
        if args.command == "sweep":
            return _cmd_sweep(config)
        if args.command == "fit":
            return _cmd_fit(config, args.demos, args.w0, args.learn_rate,
                            args.iters, args.tol, args.horizon)
        if args.command == "extract-ngsim":
            return _cmd_extract_ngsim(config, args.dataset, args.vehicle)
        if args.command == "gen-demos":
            return _cmd_gen_demos(config, args.count)
        raise InvalidParameterError(f"unknown command {args.command}")
    except (InvalidParameterError, TraceParseError, SimulationError,
            CollisionError, FitDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
