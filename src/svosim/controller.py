"""Socially weighted bi-level planner for the automated vehicle.

The AV blends two horizon costs with its social-value-orientation angle
phi: an egoistic constant-time-headway tracking term toward the vehicle
it follows, and a courtesy term, the trailing driver's squared shortfall
from the speed limit, evaluated on that driver's best response to the
candidate AV plan.  phi = 0 recovers a plain single-level egoistic NMPC;
phi = pi/4 weighs both equally.

The bi-level solve is nested: a sequential-quadratic outer iteration
over the AV control sequence (state constraints are affine in the
controls and enter the subproblems directly) evaluates the courtesy term
by solving the driver best response for every candidate, warm-started
from the previous inner solution; its gradient contribution is the
adjoint of the best-response stationarity condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import defaults
from .driver_model import (BestResponse, DriverWeights, HumanConstraints,
                           respond_to_leader, response_speed_sensitivity)
from .dynamics import (DiscreteDynamics, LongitudinalState,
                       build_horizon_maps, hold_last)
from .errors import InvalidParameterError

_SQP_FTOL = 1e-12
_OUTER_MAX_ITERS = 300
_FEASIBILITY_TOL = 1e-6
_LINESEARCH_STALLED = 8


@dataclass(frozen=True)
class OuterSettings:
    """Termination knobs for the outer control iteration.

    The defaults run the iteration to tight stationarity, right for a
    one-shot plan.  Receding-horizon callers replan from a shifted
    warm start every step and can stop far earlier without moving the
    closed-loop trajectory; see run_episode.
    """

    max_iters: int = _OUTER_MAX_ITERS
    ftol: float = _SQP_FTOL

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidParameterError(
                f"max_iters must be at least 1, got {self.max_iters}")
        if not self.ftol > 0:
            raise InvalidParameterError(
                f"ftol must be positive, got {self.ftol}")


@dataclass(frozen=True)
class SvoConfig:
    """Social-value-orientation angle, radians in [0, pi/4]."""

    phi: float

    def __post_init__(self):
        if not (0.0 <= self.phi <= math.pi / 4):
            raise InvalidParameterError(
                f"svo angle must lie in [0, pi/4], got {self.phi}")


@dataclass(frozen=True)
class EgoisticParams:
    """Constant-time-headway target: d_target = min_gap + speed * time_headway."""

    min_gap: float
    time_headway: float

    def __post_init__(self):
        if not self.min_gap > 0:
            raise InvalidParameterError(
                f"min_gap must be positive, got {self.min_gap}")
        if not self.time_headway > 0:
            raise InvalidParameterError(
                f"time_headway must be positive, got {self.time_headway}")


@dataclass(frozen=True)
class AvConstraints:
    d_min: float
    d_max: float
    v_min: float
    v_max: float
    u_min: float
    u_max: float
    a_min: float
    a_max: float

    def __post_init__(self):
        for lo, hi in (("d_min", "d_max"), ("v_min", "v_max"),
                       ("u_min", "u_max"), ("a_min", "a_max")):
            if not getattr(self, lo) < getattr(self, hi):
                raise InvalidParameterError(
                    f"need {lo} < {hi}, got {getattr(self, lo)} "
                    f"and {getattr(self, hi)}")


@dataclass(frozen=True)
class PredictedTrajectory:
    """Predicted states over the horizon, one sample per step."""

    gaps: np.ndarray
    speeds: np.ndarray
    accels: np.ndarray


@dataclass(frozen=True)
class PlanResult:
    """One plan, with the trailing driver's refined response to it.

    hv0_controls is the control sequence of that response, the one
    hv0_traj predicts.
    """

    u_seq: np.ndarray
    av_traj: PredictedTrajectory
    hv0_traj: PredictedTrajectory
    hv0_controls: np.ndarray
    cost_egoistic: float
    cost_courtesy: float
    cost_total: float
    converged: bool
    inner_feasible: bool


def svo_weights(phi: float):
    """Egoistic/courtesy cost weights (cos phi, sin phi).

    Raises:
        InvalidParameterError: phi outside [0, pi/4].
    """
    if not (0.0 <= phi <= math.pi / 4):
        raise InvalidParameterError(
            f"svo angle must lie in [0, pi/4], got {phi}")
    return math.cos(phi), math.sin(phi)


def egoistic_cost(av_traj: PredictedTrajectory, p: EgoisticParams) -> float:
    """Sum of squared gap errors from the constant-time-headway target."""
    target = p.min_gap + p.time_headway * av_traj.speeds
    err = target - av_traj.gaps
    return float(err @ err)


def courtesy_cost(hv0_traj: PredictedTrajectory, v_limit: float) -> float:
    """Sum of the trailing driver's squared shortfalls from the limit."""
    err = v_limit - hv0_traj.speeds
    return float(err @ err)


class _OuterProblem:
    """Composite objective in the AV control sequence.

    The predicted gap/speed/accel sequences are affine in the controls,
    so the state constraints enter the solver as linear inequalities
    with a constant jacobian.
    """

    def __init__(self, x_av: LongitudinalState, x_h: LongitudinalState,
                 pv: np.ndarray, w_h: DriverWeights, hc: HumanConstraints,
                 cons: AvConstraints, ego: EgoisticParams, v_limit: float,
                 disc: DiscreteDynamics, n_steps: int, w_e: float,
                 w_c: float):
        self.maps = build_horizon_maps(disc, n_steps)
        self.x_av = x_av
        self.x_h = x_h
        self.w_h = w_h
        self.hc = hc
        self.cons = cons
        self.v_limit = v_limit
        self.disc = disc
        self.n = n_steps
        self.w_e = w_e
        self.w_c = w_c
        self.g0, self.v0, self.a0 = self.maps.free_response(x_av, pv)
        # gap error from target is affine in the controls
        self.err_map = ego.time_headway * self.maps.speed_u - self.maps.gap_u
        self.err0 = ego.min_gap + ego.time_headway * self.v0 - self.g0
        m = self.maps
        self.cons_jac = np.vstack([m.gap_u, -m.gap_u, m.speed_u, -m.speed_u,
                                   m.accel_u, -m.accel_u])
        self.cons_off = np.concatenate([
            self.g0 - cons.d_min, cons.d_max - self.g0,
            self.v0 - cons.v_min, cons.v_max - self.v0,
            self.a0 - cons.a_min, cons.a_max - self.a0])
        self.inner_warm: np.ndarray | None = None

    def av_rollout(self, u: np.ndarray):
        m = self.maps
        return (m.gap_u @ u + self.g0, m.speed_u @ u + self.v0,
                m.accel_u @ u + self.a0)

    def respond(self, u: np.ndarray, warm, refine: bool = False
                ) -> tuple[np.ndarray, BestResponse]:
        """The leader speed profile of plan u and the driver's response."""
        leader = np.concatenate([[self.x_av.speed],
                                 self.maps.speed_u @ u + self.v0])
        return leader, respond_to_leader(self.x_h, leader, self.w_h, self.hc,
                                         self.disc, self.n, self.v_limit,
                                         warm_start=warm, refine=refine,
                                         eps=defaults.SMOOTH_EPS_SHARP)

    def constraint_values(self, u: np.ndarray):
        return self.cons_jac @ u + self.cons_off

    def max_violation(self, u: np.ndarray) -> float:
        return float(np.max(-self.constraint_values(u), initial=0.0))

    def value_and_grad(self, u: np.ndarray):
        err = self.err_map @ u + self.err0
        total = self.w_e * float(err @ err)
        grad = 2.0 * self.w_e * (self.err_map.T @ err)
        if self.w_c > 0.0:
            leader, base = self.respond(u, self.inner_warm)
            self.inner_warm = base.controls
            total += self.w_c * float(np.sum((self.v_limit
                                              - base.speeds) ** 2))
            # the courtesy term reaches the controls only through the AV
            # speed profile the driver responds to
            lead_grad = response_speed_sensitivity(
                self.x_h, leader, base.controls, self.w_h, self.hc,
                self.disc, self.n, self.v_limit,
                -2.0 * (self.v_limit - base.speeds),
                eps=defaults.SMOOTH_EPS_SHARP)
            grad = grad + self.w_c * (self.maps.speed_u.T @ lead_grad[1:])
        return total, grad


def _solve_outer(prob: _OuterProblem, u0: np.ndarray, cons: AvConstraints,
                 settings: OuterSettings):
    bounds = [(cons.u_min, cons.u_max)] * prob.n
    constraints = [{"type": "ineq", "fun": prob.constraint_values,
                    "jac": lambda u: prob.cons_jac}]
    options = {"maxiter": settings.max_iters, "ftol": settings.ftol}
    res = minimize(prob.value_and_grad, u0, jac=True, method="SLSQP",
                   bounds=bounds, constraints=constraints, options=options)
    u = np.clip(res.x, cons.u_min, cons.u_max)
    viol = prob.max_violation(u)
    if viol > _FEASIBILITY_TOL and np.any(u0):
        res2 = minimize(prob.value_and_grad, np.zeros(prob.n), jac=True,
                        method="SLSQP", bounds=bounds,
                        constraints=constraints, options=options)
        u2 = np.clip(res2.x, cons.u_min, cons.u_max)
        if prob.max_violation(u2) < viol:
            res, u = res2, u2
            viol = prob.max_violation(u)
    # a stalled line search at a feasible iterate is stationarity within
    # the accuracy of the courtesy gradient
    converged = bool(res.success) or (res.status == _LINESEARCH_STALLED
                                      and viol <= _FEASIBILITY_TOL)
    return u, converged


def plan(x_av: LongitudinalState, x_h: LongitudinalState, pv_preview,
         w_h: DriverWeights, svo: SvoConfig, cons: AvConstraints,
         ego: EgoisticParams, v_limit: float, disc: DiscreteDynamics,
         warm_start=None, n_steps: int = defaults.HORIZON_STEPS,
         human_constraints: HumanConstraints | None = None,
         settings: OuterSettings | None = None,
         response_warm_start=None) -> PlanResult:
    """Plan the AV control sequence for one receding-horizon step.

    Args:
        x_av: AV state relative to the vehicle it follows.
        x_h: trailing driver state relative to the AV.
        pv_preview: speed preview of the followed vehicle, hold-last
            extended to the horizon.
        warm_start: previous control sequence (already shifted) or None.
        human_constraints: the trailing driver's constraint set; derived
            from cons and w_h (shared speed window, driver min gap) when
            omitted.
        response_warm_start: the driver's previous response controls
            (already shifted) or None; the first inner solve and the
            final refined response start from it.

    Only the first control is meant to be applied; replan each step.
    The caller receives flags instead of exceptions: converged reports
    the outer iteration, inner_feasible the last best-response solve.
    """
    w_e, w_c = svo_weights(svo.phi)
    hc = human_constraints if human_constraints is not None else \
        HumanConstraints(v_min=cons.v_min, v_max=cons.v_max,
                         d_min=w_h.min_gap)
    pv = hold_last(pv_preview, n_steps)
    u0 = np.zeros(n_steps) if warm_start is None else \
        np.clip(np.asarray(warm_start, dtype=float), cons.u_min, cons.u_max)

    prob = _OuterProblem(x_av, x_h, pv, w_h, hc, cons, ego, v_limit, disc,
                         n_steps, w_e, w_c)
    if response_warm_start is not None:
        prob.inner_warm = np.asarray(response_warm_start, dtype=float)
    u, converged = _solve_outer(prob, u0, cons,
                                settings if settings is not None
                                else OuterSettings())

    g, v, a = prob.av_rollout(u)
    av_traj = PredictedTrajectory(gaps=g, speeds=v, accels=a)
    _, resp = prob.respond(u, prob.inner_warm, refine=True)
    hv0_traj = PredictedTrajectory(gaps=resp.gaps, speeds=resp.speeds,
                                   accels=resp.accels)
    ce = egoistic_cost(av_traj, ego)
    cc = courtesy_cost(hv0_traj, v_limit)
    return PlanResult(u_seq=u, av_traj=av_traj, hv0_traj=hv0_traj,
                      hv0_controls=resp.controls, cost_egoistic=ce,
                      cost_courtesy=cc, cost_total=w_e * ce + w_c * cc,
                      converged=converged, inner_feasible=resp.feasible)


def egoistic_plan(x_av: LongitudinalState, pv_preview, cons: AvConstraints,
                  ego: EgoisticParams, disc: DiscreteDynamics,
                  warm_start=None, n_steps: int = defaults.HORIZON_STEPS,
                  settings: OuterSettings | None = None):
    """Single-level constant-time-headway NMPC, no trailing-driver model.

    Reference planner for the phi = 0 endpoint; returns
    (u_seq, av_traj, cost, converged).
    """
    pv = hold_last(pv_preview, n_steps)
    u0 = np.zeros(n_steps) if warm_start is None else \
        np.clip(np.asarray(warm_start, dtype=float), cons.u_min, cons.u_max)
    dummy_w = DriverWeights(w=(0, 0, 0, 0), tau_headway=1.0,
                            min_gap=ego.min_gap)
    dummy_hc = HumanConstraints(v_min=cons.v_min, v_max=cons.v_max,
                                d_min=ego.min_gap)
    prob = _OuterProblem(x_av, LongitudinalState(0, 0, 0), pv, dummy_w,
                         dummy_hc, cons, ego, 0.0, disc, n_steps,
                         w_e=1.0, w_c=0.0)
    u, converged = _solve_outer(prob, u0, cons,
                                settings if settings is not None
                                else OuterSettings())
    g, v, a = prob.av_rollout(u)
    traj = PredictedTrajectory(gaps=g, speeds=v, accels=a)
    return u, traj, egoistic_cost(traj, ego), converged
