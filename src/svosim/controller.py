"""Socially weighted bi-level planner for the automated vehicle.

The AV blends two horizon costs with its social-value-orientation angle
phi: an egoistic constant-time-headway tracking term toward the vehicle
it follows, and a courtesy term, the trailing driver's squared shortfall
from the speed limit, evaluated on that driver's best response to the
candidate AV plan.  phi = 0 recovers a plain single-level egoistic NMPC;
phi = pi/4 weighs both equally.

The predicted AV states are affine in the controls, so at phi = 0 the
plan is one strictly convex QP (the gap-error map is invertible), solved
exactly by the dual active-set kernel in qp.  For phi > 0 the bi-level
solve is nested: a sequential-quadratic (SLSQP) outer iteration over the
AV control sequence (state constraints enter the subproblems directly)
evaluates the courtesy term by solving the driver best response for
every candidate, warm-started from the previous inner solution; its
gradient contribution is the adjoint of the best-response stationarity
condition.

SLSQP runs in scaled controls z, u = T z, with T = L^-T for the Cholesky
factor L of the egoistic Hessian 2 w_e err_map' err_map (plus a small
shift): that Hessian has a condition number near 1e8, and in z it is
close to the identity SLSQP starts its quasi-Newton matrix from.  The
control box then becomes general rows, so SLSQP is passed only the state
rows some control in the box can violate; the rest hold everywhere in
the box and leave the feasible set unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import minimize

from . import defaults, qp
from .driver_model import (BestResponse, DriverWeights, HumanConstraints,
                           respond_to_leader, response_speed_sensitivity)
from .dynamics import (DiscreteDynamics, HorizonMaps, LongitudinalState,
                       build_horizon_maps, hold_last)
from .errors import InvalidParameterError, QpInfeasibleError

_SQP_FTOL = 1e-12
_OUTER_MAX_ITERS = 300
_FEASIBILITY_TOL = 1e-6
_LINESEARCH_STALLED = 8
_INCOMPATIBLE = 4    # SLSQP's "inequality constraints incompatible"
# shift of the scaling Hessian, relative to its mean diagonal
_SCALE_SHIFT = 1e-4


@dataclass(frozen=True)
class OuterSettings:
    """Termination knobs for the outer SLSQP iteration (phi > 0).

    The defaults run the iteration to tight stationarity, right for a
    one-shot plan.  Receding-horizon callers replan from a shifted
    warm start every step and can stop far earlier without moving the
    closed-loop trajectory; see run_episode.  The phi = 0 plan is an
    exact QP solve and ignores them.
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
    hv0_traj predicts.  outer_iters and outer_status are the iteration
    count and exit status of the outer solve the plan came from.  For
    phi > 0 that is SLSQP (status 9: the iteration cap); at phi = 0 it
    is the active-set QP, status 0 (solved) or 4 (the constraints admit
    no plan; u_seq is then the solver's last iterate clipped to the
    control box, and converged is False).
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
    outer_iters: int
    outer_status: int


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


_BLOCKS_CACHE: dict = {}


class _AvBlocks(NamedTuple):
    """Constant data of the AV's problem for one (maps, time headway).

    err_map takes the controls to the gap errors from the headway target,
    cons_jac to the state-bound rows.  egoistic is the factored phi = 0
    QP: Hessian 2 err_map' err_map, rows cons_jac then the control box
    (+I, -I).  scale is L^-T and scale_inv L' for the Cholesky factor L
    of that Hessian plus _SCALE_SHIFT times its mean diagonal; at weight
    w_e the outer solve's scaling is scale / sqrt(w_e).
    """

    err_map: np.ndarray
    cons_jac: np.ndarray
    egoistic: qp.QpFactor
    scale: np.ndarray
    scale_inv: np.ndarray


def _av_blocks(maps: HorizonMaps, time_headway: float) -> _AvBlocks:
    """Build (and cache) the constant blocks for one horizon and headway."""
    key = (maps.key, time_headway)
    hit = _BLOCKS_CACHE.get(key)
    if hit is not None:
        return hit
    err_map = time_headway * maps.speed_u - maps.gap_u
    cons_jac = np.vstack([maps.gap_u, -maps.gap_u, maps.speed_u,
                          -maps.speed_u, maps.accel_u, -maps.accel_u])
    eye = np.eye(maps.n_steps)
    hess = 2.0 * (err_map.T @ err_map)
    egoistic = qp.factor(hess, np.vstack([cons_jac, eye, -eye]))
    chol = np.linalg.cholesky(
        hess + _SCALE_SHIFT * np.trace(hess) / maps.n_steps * eye)
    scale = solve_triangular(chol, eye, lower=True).T
    if len(_BLOCKS_CACHE) > 16:
        _BLOCKS_CACHE.clear()
    blocks = _BLOCKS_CACHE[key] = _AvBlocks(err_map, cons_jac, egoistic,
                                            scale, chol.T)
    return blocks


class _AvProblem:
    """The AV's side of a plan: rollout, state constraints, egoistic term.

    The predicted gap/speed/accel sequences are affine in the controls,
    so the state constraints are linear inequalities with a constant
    jacobian.
    """

    def __init__(self, x_av: LongitudinalState, pv: np.ndarray,
                 cons: AvConstraints, ego: EgoisticParams,
                 disc: DiscreteDynamics, n_steps: int):
        self.maps = build_horizon_maps(disc, n_steps)
        self.blocks = _av_blocks(self.maps, ego.time_headway)
        self.x_av = x_av
        self.cons = cons
        self.n = n_steps
        self.g0, self.v0, self.a0 = self.maps.free_response(x_av, pv)
        # gap error from target is affine in the controls
        self.err_map = self.blocks.err_map
        self.err0 = ego.min_gap + ego.time_headway * self.v0 - self.g0
        self.cons_jac = self.blocks.cons_jac
        self.cons_off = np.concatenate([
            self.g0 - cons.d_min, cons.d_max - self.g0,
            self.v0 - cons.v_min, cons.v_max - self.v0,
            self.a0 - cons.a_min, cons.a_max - self.a0])

    def av_rollout(self, u: np.ndarray):
        m = self.maps
        return (m.gap_u @ u + self.g0, m.speed_u @ u + self.v0,
                m.accel_u @ u + self.a0)

    def constraint_values(self, u: np.ndarray):
        return self.cons_jac @ u + self.cons_off

    def max_violation(self, u: np.ndarray) -> float:
        return float(np.max(-self.constraint_values(u), initial=0.0))

    def violable_rows(self) -> np.ndarray:
        """Mask of the state rows some control in the box can violate.

        A row is dropped when its minimum over the box, taken coordinate
        by coordinate, is still nonnegative.
        """
        jac, cons = self.cons_jac, self.cons
        box_min = np.minimum(jac * cons.u_min, jac * cons.u_max).sum(axis=1)
        return self.cons_off + box_min < 0.0


class _OuterProblem(_AvProblem):
    """Composite objective in the AV control sequence."""

    def __init__(self, x_av: LongitudinalState, x_h: LongitudinalState,
                 pv: np.ndarray, w_h: DriverWeights, hc: HumanConstraints,
                 cons: AvConstraints, ego: EgoisticParams, v_limit: float,
                 disc: DiscreteDynamics, n_steps: int, w_e: float,
                 w_c: float):
        super().__init__(x_av, pv, cons, ego, disc, n_steps)
        self.x_h = x_h
        self.w_h = w_h
        self.hc = hc
        self.v_limit = v_limit
        self.disc = disc
        self.w_e = w_e
        self.w_c = w_c
        self.inner_warm: np.ndarray | None = None

    def respond(self, u: np.ndarray, warm, refine: bool = False
                ) -> tuple[np.ndarray, BestResponse]:
        """The leader speed profile of plan u and the driver's response."""
        leader = np.concatenate([[self.x_av.speed],
                                 self.maps.speed_u @ u + self.v0])
        return leader, respond_to_leader(self.x_h, leader, self.w_h, self.hc,
                                         self.disc, self.n, self.v_limit,
                                         warm_start=warm, refine=refine)

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
                -2.0 * (self.v_limit - base.speeds))
            grad = grad + self.w_c * (self.maps.speed_u.T @ lead_grad[1:])
        return total, grad


def _solve_egoistic(prob: _AvProblem):
    """(u, converged, iterations, status) of the phi = 0 QP.

    The egoistic weight only scales the objective, so the minimiser of
    |err_map u + err0|^2 under the state and control bounds is the plan.
    """
    cons = prob.cons
    d = np.concatenate([-prob.cons_off, np.full(prob.n, cons.u_min),
                        np.full(prob.n, -cons.u_max)])
    try:
        res = qp.solve(prob.blocks.egoistic,
                       2.0 * (prob.err_map.T @ prob.err0), d)
    except QpInfeasibleError as exc:
        return (np.clip(exc.u, cons.u_min, cons.u_max), False,
                exc.iterations, _INCOMPATIBLE)
    return res.u, True, res.iterations, 0


def _solve_outer(prob: _OuterProblem, u0: np.ndarray, cons: AvConstraints,
                 settings: OuterSettings):
    """(u, converged, iterations, status) of one outer solve from u0.

    phi = 0 is the exact QP, which needs no start; phi > 0 runs SLSQP in
    the scaled controls z = T^-1 u (module docstring).  Its inequality
    rows are the violable state rows times T, then the box as T z >= u_min
    and -T z >= -u_max.  The answer is clipped to the box, and its
    violation and the convergence flag are judged on every state row.
    """
    if prob.w_c == 0.0:
        return _solve_egoistic(prob)
    root = math.sqrt(prob.w_e)
    scale = prob.blocks.scale / root
    keep = prob.violable_rows()
    rows = np.vstack([prob.cons_jac[keep] @ scale, scale, -scale])
    offs = np.concatenate([prob.cons_off[keep], np.full(prob.n, -cons.u_min),
                           np.full(prob.n, cons.u_max)])

    def value_and_grad(z):
        total, grad = prob.value_and_grad(scale @ z)
        return total, scale.T @ grad

    constraints = [{"type": "ineq", "fun": lambda z: rows @ z + offs,
                    "jac": lambda z: rows}]
    options = {"maxiter": settings.max_iters, "ftol": settings.ftol}
    res = minimize(value_and_grad, root * (prob.blocks.scale_inv @ u0),
                   jac=True, method="SLSQP", constraints=constraints,
                   options=options)
    u = np.clip(scale @ res.x, cons.u_min, cons.u_max)
    viol = prob.max_violation(u)
    # a stalled line search at a feasible iterate is stationarity within
    # the accuracy of the courtesy gradient
    converged = bool(res.success) or (res.status == _LINESEARCH_STALLED
                                      and viol <= _FEASIBILITY_TOL)
    return u, converged, int(res.nit), int(res.status)


def _sequence(name: str, seq, n_steps: int) -> np.ndarray | None:
    """seq as a float array of n_steps entries (None passes through)."""
    if seq is None:
        return None
    arr = np.asarray(seq, dtype=float)
    if arr.shape != (n_steps,):
        raise InvalidParameterError(
            f"{name} must hold {n_steps} controls, got shape {arr.shape}")
    return arr


def plan(x_av: LongitudinalState, x_h: LongitudinalState, pv_preview,
         w_h: DriverWeights, svo: SvoConfig, cons: AvConstraints,
         ego: EgoisticParams, v_limit: float, disc: DiscreteDynamics,
         warm_start=None, n_steps: int = defaults.HORIZON_STEPS,
         settings: OuterSettings | None = None,
         response_warm_start=None) -> PlanResult:
    """Plan the AV control sequence for one receding-horizon step.

    Args:
        x_av: AV state relative to the vehicle it follows.
        x_h: trailing driver state relative to the AV.
        pv_preview: speed preview of the followed vehicle, hold-last
            extended to the horizon.
        warm_start: previous control sequence (already shifted) or None;
            the exact phi = 0 QP needs none and ignores it.
        response_warm_start: the driver's previous response controls
            (already shifted) or None; the first inner solve and the
            final refined response start from it.

    The trailing driver is held to the AV's speed window (cons) and to
    its own minimum gap (w_h.min_gap).  Only the first control is meant
    to be applied; replan each step.  The caller receives flags instead
    of exceptions: converged reports the outer iteration, inner_feasible
    the last best-response solve.

    Raises:
        InvalidParameterError: a warm start that is not n_steps long.
    """
    w_e, w_c = svo_weights(svo.phi)
    hc = HumanConstraints(v_min=cons.v_min, v_max=cons.v_max,
                          d_min=w_h.min_gap)
    pv = hold_last(pv_preview, n_steps)
    warm_start = _sequence("warm_start", warm_start, n_steps)
    u0 = np.zeros(n_steps) if warm_start is None else \
        np.clip(warm_start, cons.u_min, cons.u_max)

    prob = _OuterProblem(x_av, x_h, pv, w_h, hc, cons, ego, v_limit, disc,
                         n_steps, w_e, w_c)
    prob.inner_warm = _sequence("response_warm_start", response_warm_start,
                                n_steps)
    u, converged, nit, status = _solve_outer(
        prob, u0, cons, settings if settings is not None else OuterSettings())

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
                      converged=converged, inner_feasible=resp.feasible,
                      outer_iters=nit, outer_status=status)


def egoistic_plan(x_av: LongitudinalState, pv_preview, cons: AvConstraints,
                  ego: EgoisticParams, disc: DiscreteDynamics,
                  n_steps: int = defaults.HORIZON_STEPS):
    """Single-level constant-time-headway plan, no trailing-driver model.

    Reference planner for the phi = 0 endpoint, the exact QP that plan
    solves at phi = 0; returns (u_seq, av_traj, cost, converged).
    """
    prob = _AvProblem(x_av, hold_last(pv_preview, n_steps), cons, ego, disc,
                      n_steps)
    u, converged, _, _ = _solve_egoistic(prob)
    g, v, a = prob.av_rollout(u)
    traj = PredictedTrajectory(gaps=g, speeds=v, accels=a)
    return u, traj, egoistic_cost(traj, ego), converged
