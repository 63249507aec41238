"""Closed-loop mixed-traffic episodes and the altruism-level sweep.

One episode advances a five-vehicle chain behind an exogenous lead
speed profile: the automated vehicle re-plans every step and applies
the first planned control; the modeled driver behind it applies the
first control of its best response to the committed plan (the refined
response the planner already solved, unless the driver runs other
weights than the planner anticipates); three fleet vehicles follow
under the intelligent-driver model.  Metrics summarize each follower
pair's average gap and average time headway.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import defaults
from .controller import (AvConstraints, EgoisticParams, OuterSettings,
                         PlanResult, SvoConfig, plan)
from .driver_model import DriverWeights, HumanConstraints, best_response
from .dynamics import DiscreteDynamics, LongitudinalState, step
from .errors import CollisionError, InvalidParameterError, SimulationError
from .traffic_flow import IdmParams, equilibrium_gap, step_fleet

VEHICLE_LABELS = ("av", "hv0", "hv1", "hv2", "hv3")
FLEET_SIZE = 3

# warm-started replanning tolerates an early stop: next to the tight
# default the closed-loop states move by under 0.1 m / 0.05 m/s.  The
# iteration cap bounds a step's cost and is no convergence test: about
# 89% of courteous (phi > 0) plans end at it, and about 15% at phi = 0
EPISODE_PLAN_SETTINGS = OuterSettings(max_iters=60, ftol=1e-9)

# anchor points (seconds, m/s) of the shipped synthetic lead profile:
# cruise, brake, low cruise, accelerate, cruise out, kept short and
# transient-heavy because steady cruising washes the courtesy effect
# out of episode-average metrics
_PROFILE_ANCHORS_T = (0.0, 6.0, 18.0, 42.0, 54.0, 66.0)
_PROFILE_ANCHORS_V = (18.0, 18.0, 6.0, 6.0, 22.0, 22.0)


@dataclass(frozen=True)
class Scenario:
    """Exogenous lead speed profile plus the chain's initial states."""

    pv_speeds: np.ndarray
    dt: float
    v_limit: float
    x_av: LongitudinalState
    x_hv0: LongitudinalState
    fleet: tuple
    label: str = ""

    def __post_init__(self):
        trace = np.asarray(self.pv_speeds, dtype=float)
        if trace.ndim != 1 or len(trace) == 0:
            raise InvalidParameterError("lead speed profile is empty")
        if not np.all(np.isfinite(trace)) or np.any(trace < 0):
            raise InvalidParameterError(
                "lead speeds must be finite and nonnegative")
        if not self.dt > 0:
            raise InvalidParameterError(f"dt must be positive, got {self.dt}")
        if not self.v_limit > 0:
            raise InvalidParameterError(
                f"speed limit must be positive, got {self.v_limit}")
        object.__setattr__(self, "pv_speeds", trace)
        object.__setattr__(self, "fleet", tuple(self.fleet))

    @property
    def n_steps(self) -> int:
        return len(self.pv_speeds)

    @property
    def duration(self) -> float:
        return len(self.pv_speeds) * self.dt


@dataclass(frozen=True)
class EpisodeTrace:
    """Per-step record of one closed-loop episode.

    Row order of the per-vehicle arrays follows VEHICLE_LABELS; column
    i holds the state at instant i and the action applied over the
    following interval.  The control row of the fleet vehicles repeats
    their model acceleration (their action is not separately commanded).
    """

    t: np.ndarray
    pv_speeds: np.ndarray
    gaps: np.ndarray
    speeds: np.ndarray
    accels: np.ndarray
    controls: np.ndarray
    cost_egoistic: np.ndarray
    cost_courtesy: np.ndarray
    cost_total: np.ndarray
    converged: np.ndarray
    inner_feasible: np.ndarray
    dt: float
    v_limit: float
    phi: float
    label: str

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class TrafficMetrics:
    """Per-pair and traffic-wide averages of gap and time headway.

    Entries follow VEHICLE_LABELS (each vehicle paired with its
    predecessor).  A pair whose every sample fell below the headway
    speed floor reports None for its average headway; the traffic-wide
    headway averages the defined pairs only.
    """

    pair_labels: tuple
    avg_gap: tuple
    avg_headway: tuple
    headway_excluded: tuple
    traffic_avg_gap: float
    traffic_avg_headway: float | None
    headway_speed_floor: float


@dataclass(frozen=True)
class SweepEntry:
    phi: float
    trace: EpisodeTrace | None
    metrics: TrafficMetrics | None
    error: str | None


def synthetic_pv_profile(dt: float = defaults.STEP_S) -> np.ndarray:
    """Shipped 66 s lead profile: cruise, brake, low cruise, accelerate, cruise."""
    t = np.arange(0.0, _PROFILE_ANCHORS_T[-1], dt)
    return np.interp(t, _PROFILE_ANCHORS_T, _PROFILE_ANCHORS_V)


def scenario_constraints(scn: Scenario) -> AvConstraints:
    """Default box constraints with the speed ceiling from the profile."""
    return AvConstraints(d_min=defaults.MIN_GAP_M, d_max=defaults.MAX_GAP_M,
                         v_min=defaults.SPEED_MIN,
                         v_max=float(np.max(scn.pv_speeds)),
                         u_min=defaults.CONTROL_MIN,
                         u_max=defaults.CONTROL_MAX,
                         a_min=defaults.ACCEL_MIN,
                         a_max=defaults.ACCEL_MAX)


def scenario_idm(scn: Scenario) -> IdmParams:
    """Default fleet parameters with the desired speed from the profile."""
    return IdmParams(max_accel=defaults.IDM_MAX_ACCEL,
                     comfort_decel=defaults.IDM_COMFORT_DECEL,
                     min_spacing=defaults.IDM_MIN_SPACING,
                     time_gap=defaults.IDM_TIME_GAP_S,
                     exponent=defaults.IDM_EXPONENT,
                     desired_speed=float(np.max(scn.pv_speeds)))


def build_scenario(pv_speeds, dt: float, v_limit: float,
                   ego: EgoisticParams, w_h: DriverWeights,
                   label: str = "") -> Scenario:
    """Scenario over a lead profile with every vehicle at its equilibrium.

    The automated vehicle starts at its headway-policy gap, the modeled
    driver at the gap that zeroes its cost features, and the
    FLEET_SIZE fleet vehicles at the equilibrium gap of scenario_idm,
    all at the profile's initial speed.
    """
    v0 = float(pv_speeds[0])
    scn = Scenario(
        pv_speeds=pv_speeds, dt=dt, v_limit=v_limit,
        x_av=LongitudinalState(ego.min_gap + ego.time_headway * v0, v0, 0.0),
        x_hv0=LongitudinalState(w_h.min_gap + w_h.tau_headway * v0, v0, 0.0),
        fleet=(), label=label)
    x_fleet = LongitudinalState(equilibrium_gap(v0, scenario_idm(scn)), v0,
                                0.0)
    return replace(scn, fleet=(x_fleet,) * FLEET_SIZE)


def default_scenario(dt: float = defaults.STEP_S) -> Scenario:
    """Shipped synthetic profile at the default parameters."""
    return build_scenario(
        synthetic_pv_profile(dt), dt, defaults.DEFAULT_SPEED_LIMIT,
        EgoisticParams(defaults.MIN_GAP_M, defaults.AV_TIME_HEADWAY_S),
        DriverWeights(defaults.DEFAULT_WEIGHTS,
                      defaults.HUMAN_TIME_HEADWAY_S, defaults.MIN_GAP_M),
        label="synthetic-default")


def _shift(u_seq: np.ndarray) -> np.ndarray:
    """Warm start for the next step: drop the first control, hold the last."""
    return np.append(u_seq[1:], u_seq[-1])


def run_episode(scn: Scenario, svo: SvoConfig, w_h: DriverWeights,
                cons: AvConstraints, ego: EgoisticParams, idm: IdmParams,
                disc: DiscreteDynamics,
                n_steps: int = defaults.HORIZON_STEPS,
                plant_weights: DriverWeights | None = None,
                plan_settings: OuterSettings = EPISODE_PLAN_SETTINGS
                ) -> EpisodeTrace:
    """Run one closed-loop episode over the scenario's lead profile.

    Each step: the automated vehicle re-plans against the remaining
    lead preview and applies its first control; the modeled driver
    applies the first control of its best response to the committed
    plan, which is the planner's refined response (PlanResult.
    hv0_controls); the fleet follows its integrator.  The plan and the
    planner's driver response are warm-started with their previous
    solutions shifted by one step.

    plant_weights lets the simulated driver run a different weight
    profile than the one the planner anticipates (model-mismatch
    experiments); they coincide by default.  Under a mismatch the
    driver's response is solved separately each step with
    plant_weights, warm-started from its own previous response.

    Raises:
        CollisionError: a following gap closed to zero or below.
        SimulationError: a state became non-finite.
    """
    if abs(disc.dt - scn.dt) > 1e-12:
        raise InvalidParameterError(
            f"dynamics step {disc.dt} differs from scenario dt {scn.dt}")
    mismatch = plant_weights is not None and plant_weights != w_h
    if mismatch:
        hc = HumanConstraints(v_min=cons.v_min, v_max=cons.v_max,
                              d_min=plant_weights.min_gap)
    n = scn.n_steps
    n_vehicles = 2 + len(scn.fleet)
    gaps = np.zeros((n_vehicles, n))
    speeds = np.zeros((n_vehicles, n))
    accels = np.zeros((n_vehicles, n))
    controls = np.zeros((n_vehicles, n))
    ce = np.zeros(n)
    cc = np.zeros(n)
    ct = np.zeros(n)
    conv = np.zeros(n, dtype=bool)
    feas = np.zeros(n, dtype=bool)

    x_av = scn.x_av
    x_h = scn.x_hv0
    fleet = list(scn.fleet)
    warm_plan = None
    warm_resp = None
    warm_plant = None
    for i in range(n):
        preview = scn.pv_speeds[i:]
        res: PlanResult = plan(x_av, x_h, preview, w_h, svo, cons, ego,
                               scn.v_limit, disc, warm_start=warm_plan,
                               n_steps=n_steps, settings=plan_settings,
                               response_warm_start=warm_resp)
        u_h_seq = res.hv0_controls
        if mismatch:
            u_h_seq = best_response(x_av, x_h, res.u_seq, preview,
                                    plant_weights, hc, disc, scn.v_limit,
                                    warm_start=warm_plant).controls
            warm_plant = _shift(u_h_seq)
        u_av = float(res.u_seq[0])
        u_h = float(u_h_seq[0])

        for row, x in enumerate([x_av, x_h] + fleet):
            gaps[row, i] = x.gap
            speeds[row, i] = x.speed
            accels[row, i] = x.accel
        controls[0, i] = u_av
        controls[1, i] = u_h
        ce[i] = res.cost_egoistic
        cc[i] = res.cost_courtesy
        ct[i] = res.cost_total
        conv[i] = res.converged
        feas[i] = res.inner_feasible

        av_speed_pre = x_av.speed
        hv0_speed_pre = x_h.speed
        x_av = step(disc, x_av, u_av, float(scn.pv_speeds[i]))
        x_h = step(disc, x_h, u_h, av_speed_pre)
        fleet = step_fleet(fleet, hv0_speed_pre, x_h.speed, idm, scn.dt,
                           step_index=i)
        for row, x in enumerate(fleet, start=2):
            controls[row, i] = x.accel
        states = [x_av, x_h] + fleet
        if not all(np.isfinite(x.as_array()).all() for x in states):
            raise SimulationError(
                f"non-finite state after step {i}", step=i)
        if x_av.gap <= 0.0 or x_h.gap <= 0.0:
            which = "av" if x_av.gap <= 0.0 else "hv0"
            raise SimulationError(
                f"{which} gap closed to {min(x_av.gap, x_h.gap):.3f} m "
                f"at step {i}", step=i)
        warm_plan = _shift(res.u_seq)
        warm_resp = _shift(res.hv0_controls)

    return EpisodeTrace(t=np.arange(n) * scn.dt, pv_speeds=scn.pv_speeds,
                        gaps=gaps, speeds=speeds, accels=accels,
                        controls=controls, cost_egoistic=ce,
                        cost_courtesy=cc, cost_total=ct, converged=conv,
                        inner_feasible=feas, dt=scn.dt,
                        v_limit=scn.v_limit, phi=svo.phi, label=scn.label)


def compute_metrics(trace: EpisodeTrace,
                    v_floor: float = defaults.HEADWAY_SPEED_FLOOR
                    ) -> TrafficMetrics:
    """Average gap and time headway per follower pair and traffic-wide.

    Gap averages use every sample.  Headway (gap over own speed)
    averages skip samples at or below the speed floor, where the ratio
    degenerates; skipped counts are reported per pair.
    """
    if len(trace) == 0:
        raise InvalidParameterError("empty trace")
    n_vehicles = trace.gaps.shape[0]
    labels = VEHICLE_LABELS[:n_vehicles]
    avg_gap = []
    avg_headway = []
    excluded = []
    for row in range(n_vehicles):
        g = trace.gaps[row]
        v = trace.speeds[row]
        avg_gap.append(float(np.mean(g)))
        moving = v > v_floor
        excluded.append(int(np.sum(~moving)))
        if np.any(moving):
            avg_headway.append(float(np.mean(g[moving] / v[moving])))
        else:
            avg_headway.append(None)
    defined = [h for h in avg_headway if h is not None]
    return TrafficMetrics(
        pair_labels=tuple(labels), avg_gap=tuple(avg_gap),
        avg_headway=tuple(avg_headway), headway_excluded=tuple(excluded),
        traffic_avg_gap=float(np.mean(avg_gap)),
        traffic_avg_headway=float(np.mean(defined)) if defined else None,
        headway_speed_floor=v_floor)


def sweep_svo(scn: Scenario, levels, w_h: DriverWeights,
              cons: AvConstraints, ego: EgoisticParams, idm: IdmParams,
              disc: DiscreteDynamics,
              n_steps: int = defaults.HORIZON_STEPS,
              plant_weights: DriverWeights | None = None,
              plan_settings: OuterSettings = EPISODE_PLAN_SETTINGS
              ) -> tuple:
    """One independent episode per altruism level, identical scenario.

    Episodes share no state, so results are independent of execution
    order.  A level whose episode fails is reported with the error
    message in its entry; the sweep continues.
    """
    configs = [SvoConfig(float(phi)) for phi in levels]
    entries = []
    for svo in configs:
        try:
            trace = run_episode(scn, svo, w_h, cons, ego, idm, disc,
                                n_steps=n_steps,
                                plant_weights=plant_weights,
                                plan_settings=plan_settings)
            entries.append(SweepEntry(phi=svo.phi, trace=trace,
                                      metrics=compute_metrics(trace),
                                      error=None))
        except (SimulationError, CollisionError) as exc:
            entries.append(SweepEntry(phi=svo.phi, trace=None, metrics=None,
                                      error=f"{type(exc).__name__}: {exc}"))
    return tuple(entries)
