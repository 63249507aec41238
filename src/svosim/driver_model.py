"""Interactive human-driver model: feature cost, best response, weight fit.

The modeled driver (HV0) follows the automated vehicle and plans by
minimizing a linear combination of four penalty features over the
horizon: squared acceleration, squared shortfall from the speed limit,
squared speed difference to its leader, and absolute offset from its
desired following distance d_D = v tau_H + d_s.  The best response is a
single-shooting solve over the control sequence; gap and speed-bound
constraints enter as quadratic penalties.

Weights can be fitted offline to demonstrations by matching feature
expectations (deterministic MaxEnt approximation): the gradient is the
gap between features accumulated by re-planned model rollouts and the
demonstrations' own feature sums.  The module touches no files;
demonstration and weights files are read and written by cli_io.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dposv
# minimize stays imported: perfbench/layers.py traces it
from scipy.optimize import minimize

from . import defaults
from .dynamics import (DiscreteDynamics, HorizonMaps, LongitudinalState,
                       build_horizon_maps, cached_build, hold_last, step)
from .errors import FitDivergenceError, InvalidParameterError

FEATURE_NAMES = ("accel_sq", "speed_deficit_sq", "rel_speed_sq", "gap_offset")

_NEWTON_MAX_ITERS = 200
_NEWTON_GRAD_TOL = 1e-9
_FEASIBILITY_TOL = 1e-6
_ESCALATION_FACTOR = 32.0
# three rounds reach weight ~3e8; a follower held against its minimum
# gap equilibrates at incursion ~ cost slope / penalty weight, which
# needs that much to land beyond the 1e-6 feasibility tolerance
_MAX_ESCALATIONS = 3
# fit_weights_maxent stops with FitDivergenceError beyond this weight
_WEIGHT_CAP = 1e3


@dataclass(frozen=True)
class FeatureVector:
    """Per-stage driver cost features; all components are >= 0."""

    accel_sq: float
    speed_deficit_sq: float
    rel_speed_sq: float
    gap_offset: float

    def as_array(self) -> np.ndarray:
        return np.array([self.accel_sq, self.speed_deficit_sq,
                         self.rel_speed_sq, self.gap_offset])


@dataclass(frozen=True)
class DriverWeights:
    """Feature weights plus the headway parameters that shape f_rd.

    Attributes:
        w: weight per feature, all finite and >= 0.
        tau_headway: observed minimum time headway [s], > 0.
        min_gap: standstill clearance [m], > 0.
    """

    w: tuple
    tau_headway: float
    min_gap: float

    def __post_init__(self):
        arr = np.asarray(self.w, dtype=float)
        if arr.shape != (4,):
            raise InvalidParameterError(f"expected 4 weights, got {self.w!r}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise InvalidParameterError(
                f"weights must be finite and >= 0, got {self.w!r}")
        if not self.tau_headway > 0:
            raise InvalidParameterError(
                f"tau_headway must be positive, got {self.tau_headway}")
        if not self.min_gap > 0:
            raise InvalidParameterError(
                f"min_gap must be positive, got {self.min_gap}")
        object.__setattr__(self, "w", tuple(float(v) for v in arr))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.w, dtype=float)


@dataclass(frozen=True)
class HumanConstraints:
    """State constraints for the modeled driver (no control bounds)."""

    v_min: float
    v_max: float
    d_min: float

    def __post_init__(self):
        if not (0.0 <= self.v_min < self.v_max):
            raise InvalidParameterError(
                f"need 0 <= v_min < v_max, got [{self.v_min}, {self.v_max}]")
        if not self.d_min > 0:
            raise InvalidParameterError(
                f"d_min must be positive, got {self.d_min}")


def _uneven_dt(t: np.ndarray) -> tuple[int, str] | None:
    """The first sample whose time step differs from the first step by
    more than 1e-6 s, with a message naming it; None if dt is uniform."""
    steps = np.diff(t)
    bad = np.flatnonzero(np.abs(steps - steps[:1]) > 1e-6)
    if not bad.size:
        return None
    k = int(bad[0])
    return k + 1, (f"non-uniform dt at sample {k + 1}: {steps[k]:.8f} s vs "
                   f"{steps[0]:.8f} s")


@dataclass(frozen=True)
class Demonstration:
    """Recorded human car-following segment at fixed dt."""

    t: np.ndarray
    gaps: np.ndarray
    speeds: np.ndarray
    accels: np.ndarray
    leader_speeds: np.ndarray
    controls: np.ndarray

    def __post_init__(self):
        n = len(self.t)
        if n == 0:
            raise InvalidParameterError("demonstration is empty")
        for name in ("gaps", "speeds", "accels", "leader_speeds", "controls"):
            if len(getattr(self, name)) != n:
                raise InvalidParameterError(
                    f"demonstration column {name} has mismatched length")
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidParameterError(
                    f"demonstration column {name} has non-finite entries")
        uneven = _uneven_dt(self.t)
        if uneven:
            raise InvalidParameterError(uneven[1])

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0]) if len(self.t) > 1 else 0.0

    def __len__(self) -> int:
        return len(self.t)

    def state(self, i: int) -> LongitudinalState:
        return LongitudinalState(float(self.gaps[i]), float(self.speeds[i]),
                                 float(self.accels[i]))


def features(x_h: LongitudinalState, v_leader: float, v_limit: float,
             tau_headway: float, min_gap: float) -> FeatureVector:
    """Stage features of the driver cost at one state.

    Args:
        x_h: driver state; gap is measured to its leader.
        v_leader: leader (AV) speed at the same instant.
        v_limit: speed limit.
    """
    desired_gap = x_h.speed * tau_headway + min_gap
    return FeatureVector(
        accel_sq=x_h.accel ** 2,
        speed_deficit_sq=(v_limit - x_h.speed) ** 2,
        rel_speed_sq=(v_leader - x_h.speed) ** 2,
        gap_offset=abs(desired_gap - x_h.gap),
    )


def human_stage_cost(fv: FeatureVector, weights: DriverWeights) -> float:
    """Weighted stage cost, the dot product of weights and features."""
    return float(weights.as_array() @ fv.as_array())


@dataclass(frozen=True)
class BestResponse:
    """Solution of one driver best-response problem.

    cost is the true (unsmoothed, unpenalized) feature cost along the
    response; max_violation the worst state-constraint violation.
    problem is the solved objective, which response_speed_sensitivity
    differentiates.
    """

    controls: np.ndarray
    gaps: np.ndarray
    speeds: np.ndarray
    accels: np.ndarray
    cost: float
    feasible: bool
    max_violation: float
    problem: _ResponseProblem | None = field(default=None, repr=False,
                                             compare=False)


_BLOCKS_CACHE: dict = {}


class _DriverBlocks(NamedTuple):
    """Constant data of the response problem for one (maps, weights).

    Each map stacks four row blocks: the gap, speed, accel and
    gap-offset (tau v - g) sequences at steps 1..N, so the stacked state
    is y = M u + P v_lead + X x0 (+ min_gap on the offset block).
    """

    M: np.ndarray
    P: np.ndarray
    X: np.ndarray
    H_q: np.ndarray   # Hessian of the quadratic terms, 1e-10 I included


def _driver_blocks(maps: HorizonMaps, weights: DriverWeights) -> _DriverBlocks:
    """Build (and cache) the constant blocks for one horizon and weights."""
    return cached_build(_BLOCKS_CACHE, (maps.key, weights),
                        lambda: _build_driver_blocks(maps, weights))


def _build_driver_blocks(maps: HorizonMaps,
                         weights: DriverWeights) -> _DriverBlocks:
    tau = weights.tau_headway
    M, P, X = (np.vstack([g, v, a, tau * v - g]) for g, v, a in (
        (maps.gap_u, maps.speed_u, maps.accel_u),
        (maps.gap_p, maps.speed_p, maps.accel_p),
        (maps.gap_x, maps.speed_x, maps.accel_x)))
    w_a, w_ds, w_rs, _ = weights.w
    H_q = (2.0 * w_a * (maps.accel_u.T @ maps.accel_u)
           + 2.0 * (w_ds + w_rs) * (maps.speed_u.T @ maps.speed_u)
           + 1e-10 * np.eye(maps.n_steps))
    return _DriverBlocks(M, P, X, H_q)


def _spd_solve(H: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve H x = b by one LAPACK Cholesky call (dposv).

    Raises:
        np.linalg.LinAlgError: H is not numerically positive definite.
    """
    _, x, info = dposv(H, b)
    if info != 0:
        raise np.linalg.LinAlgError(f"dposv failed with info {info}")
    return x


class _ResponseProblem:
    """Smoothed, penalized single-shooting objective in the control vector.

    Every cost term is separable in the stacked state (_DriverBlocks),
    so the gradient is one product with M^T and the Hessian the constant
    quadratic block plus the gap-offset and active penalty rows.
    """

    def __init__(self, maps: HorizonMaps, x0: LongitudinalState,
                 leader_speeds: np.ndarray, weights: DriverWeights,
                 hc: HumanConstraints, v_limit: float, penalty: float):
        n = maps.n_steps
        if len(leader_speeds) != n + 1:
            raise InvalidParameterError(
                f"need {n + 1} leader-speed samples, got {len(leader_speeds)}")
        self.n = n
        self.qp = _driver_blocks(maps, weights)
        # bounds of the gap and speed rows
        self.lo = np.array([[hc.d_min], [hc.v_min]])
        self.hi = np.array([[np.inf], [hc.v_max]])
        self.v_limit = v_limit
        self.penalty = penalty
        self.eps = defaults.SMOOTH_EPS
        self.lead_at = leader_speeds[1:]        # aligned with states 1..N
        # leader samples 0..N-1 are held over [k, k+1)
        self.y0 = self.qp.P @ leader_speeds[:n] + self.qp.X @ x0.as_array()
        self.y0[3 * n:] += weights.min_gap
        self.w_a, self.w_ds, self.w_rs, self.w_rd = weights.w

    def traj(self, u: np.ndarray):
        """Gap, speed, accel and desired-gap offset rows at steps 1..N."""
        return (self.qp.M @ u + self.y0).reshape(4, self.n)

    def violation(self, Y: np.ndarray):
        """Signed bound violation of the gap and speed rows of traj()."""
        return (np.maximum(Y[:2] - self.hi, 0.0)
                - np.maximum(self.lo - Y[:2], 0.0))

    def value_grad(self, u: np.ndarray):
        Y = self.traj(u)
        _, v, a, off = Y
        smooth = np.sqrt(off * off + self.eps * self.eps)
        viol = self.violation(Y)
        d_lim, d_rel = self.v_limit - v, self.lead_at - v
        f = (self.w_a * (a @ a) + self.w_ds * (d_lim @ d_lim)
             + self.w_rs * (d_rel @ d_rel) + self.w_rd * smooth.sum()
             + self.penalty * np.vdot(viol, viol))
        df_dy = np.empty_like(Y)
        df_dy[:2] = 2.0 * self.penalty * viol
        df_dy[1] -= 2.0 * (self.w_ds * d_lim + self.w_rs * d_rel)
        df_dy[2] = 2.0 * self.w_a * a
        df_dy[3] = self.w_rd * off / smooth
        return f, self.qp.M.T @ df_dy.ravel()

    def curvature(self, u: np.ndarray, majorize: bool = False):
        """Gap-offset curvature weights and active penalty rows at u.

        majorize=True gives the weights of the reweighted-least-squares
        upper bound instead: each smoothed-abs gap term is replaced with
        the quadratic that touches it at u and majorizes it everywhere;
        the resulting step stays well scaled when an iterate is far from
        the term's kink, where the true curvature collapses.
        """
        Y = self.traj(u)
        sq = Y[3] * Y[3] + self.eps * self.eps
        curve = (1.0 / np.sqrt(sq) if majorize
                 else self.eps * self.eps / (sq * np.sqrt(sq)))
        return self.w_rd * curve, self.violation(Y).ravel() != 0.0

    def hessian(self, gap_curve: np.ndarray, active: np.ndarray):
        omega = self.qp.M[3 * self.n:]
        H = self.qp.H_q + (omega.T * gap_curve) @ omega
        rows = self.qp.M[:2 * self.n][active]
        if len(rows):
            H += 2.0 * self.penalty * (rows.T @ rows)
        return H

    def leader_sensitivity(self, u: np.ndarray, speed_grad: np.ndarray):
        """Adjoint gradient in the leader speed samples at a solved response.

        For a scalar whose gradient in the response speed samples is
        speed_grad, returns its total gradient in the n + 1 leader speed
        samples, accounting for the response controls shifting with the
        leader through the stationarity of this objective.  Valid only
        at a minimizer of this problem.
        """
        n, (M, P, _, _) = self.n, self.qp
        gap_curve, active = self.curvature(u)
        y = _spd_solve(self.hessian(gap_curve, active),
                       M[n:2 * n].T @ speed_grad)
        # diagonal curvature of the cost in the stacked state
        state_curve = np.concatenate([2.0 * self.penalty * active,
                                      np.full(n, 2.0 * self.w_a), gap_curve])
        state_curve[n:2 * n] += 2.0 * (self.w_ds + self.w_rs)
        my = M @ y
        out = np.zeros(n + 1)
        # the first n samples drive the response states directly
        out[:n] = P[n:2 * n].T @ speed_grad - P.T @ (state_curve * my)
        # samples 1..n also enter the relative-speed feature
        out[1:] += 2.0 * self.w_rs * my[n:2 * n]
        return out

    def true_cost(self, u: np.ndarray) -> float:
        _, v, a, off = self.traj(u)
        d_lim, d_rel = self.v_limit - v, self.lead_at - v
        return float(self.w_a * (a @ a) + self.w_ds * (d_lim @ d_lim)
                     + self.w_rs * (d_rel @ d_rel)
                     + self.w_rd * np.abs(off).sum())

    def max_violation(self, u: np.ndarray) -> float:
        return float(np.abs(self.violation(self.traj(u))).max())


def _newton_minimize(prob: _ResponseProblem, u0: np.ndarray) -> np.ndarray:
    """Damped Newton with a reweighted-least-squares fallback direction.

    The full Newton step overshoots badly when an iterate sits far from
    a gap-term kink relative to the smoothing width (the true curvature
    there scales like eps^2), so a rejected step falls back to the
    majorizer step instead of backtracking along the bad direction.
    Stops at gradient 1e-9, when neither step descends, or when the
    descent falls below the rounding floor of f.  That point is the
    optimum: L-BFGS-B restarted from it gains nothing measurable
    (tests/test_driver_model.py).
    """
    u = u0.copy()
    f, grad = prob.value_grad(u)
    for _ in range(_NEWTON_MAX_ITERS):
        if np.max(np.abs(grad)) <= _NEWTON_GRAD_TOL:
            return u
        f_before = f
        moved = False
        try:
            direction = _spd_solve(prob.hessian(*prob.curvature(u)), -grad)
        except np.linalg.LinAlgError:
            direction = None
        if direction is not None:
            slope = grad @ direction
            if slope < 0:
                cand = u + direction
                f_new, grad_new = prob.value_grad(cand)
                if f_new <= f + 1e-4 * slope:
                    u, f, grad = cand, f_new, grad_new
                    moved = True
        if not moved:
            try:
                direction = _spd_solve(
                    prob.hessian(*prob.curvature(u, majorize=True)), -grad)
            except np.linalg.LinAlgError:
                direction = -grad
            slope = grad @ direction
            if slope > -1e-16:
                return u
            t = 1.0
            while t > 1e-12:
                cand = u + t * direction
                f_new, grad_new = prob.value_grad(cand)
                if f_new <= f + 1e-4 * t * slope:
                    u, f, grad = cand, f_new, grad_new
                    moved = True
                    break
                t *= 0.5
        if not moved:
            break
        # descent below the rounding floor of f means the remaining
        # gradient cannot be realized as measurable progress
        if f_before - f <= 1e-15 * max(1.0, abs(f)):
            break
    return u


def respond_to_leader(x0: LongitudinalState, leader_speeds,
                      weights: DriverWeights, hc: HumanConstraints,
                      disc: DiscreteDynamics, n_steps: int,
                      v_limit: float,
                      warm_start: np.ndarray | None = None,
                      refine: bool = True) -> BestResponse:
    """Best response of the driver to a known leader speed trajectory.

    Args:
        leader_speeds: n_steps + 1 samples, leader speed at the current
            instant and after each of the n_steps intervals.
        warm_start: previous control sequence to refine; zeros otherwise.
        refine: escalate the constraint penalty until the response
            meets the feasibility tolerance.  Keep it on for returned
            responses; callers that difference the solution map at the
            configured penalty turn it off.

    The gap-offset |.| is smoothed with the single half-width
    defaults.SMOOTH_EPS.  When refining, the constraint penalty starts
    at the configured weight and is escalated (x32, at most three times)
    whenever the solved trajectory still violates a state constraint
    beyond 1e-6; a violation that survives escalation marks the response
    infeasible (best effort, no abort).
    """
    maps = build_horizon_maps(disc, n_steps)
    leader_speeds = np.asarray(leader_speeds, dtype=float)
    u = (np.zeros(n_steps) if warm_start is None
         else np.asarray(warm_start, dtype=float).copy())
    prob = _ResponseProblem(maps, x0, leader_speeds, weights, hc,
                            v_limit, defaults.PENALTY_WEIGHT)
    u = _newton_minimize(prob, u)
    if refine:
        escalations = 0
        while (prob.max_violation(u) > _FEASIBILITY_TOL
               and escalations < _MAX_ESCALATIONS):
            prob.penalty *= _ESCALATION_FACTOR
            escalations += 1
            u = _newton_minimize(prob, u)
    gaps, speeds, accels, _ = prob.traj(u)
    viol = prob.max_violation(u)
    return BestResponse(controls=u, gaps=gaps, speeds=speeds, accels=accels,
                        cost=prob.true_cost(u),
                        feasible=bool(viol <= _FEASIBILITY_TOL),
                        max_violation=viol, problem=prob)


def response_speed_sensitivity(resp: BestResponse, speed_grad) -> np.ndarray:
    """Leader-speed gradient of a scalar of the response speeds.

    resp is a response respond_to_leader(refine=False) returned; the
    result accounts for the response shifting with the leader profile
    through that solve's stationarity.  speed_grad is the scalar's
    gradient in the response speed samples; the result has one entry per
    leader speed sample (n_steps + 1).
    """
    return resp.problem.leader_sensitivity(
        resp.controls, np.asarray(speed_grad, dtype=float))


def best_response(x_av: LongitudinalState, x_human: LongitudinalState,
                  u_av_seq, pv_preview, weights: DriverWeights,
                  hc: HumanConstraints, disc: DiscreteDynamics,
                  v_limit: float,
                  warm_start: np.ndarray | None = None) -> BestResponse:
    """Driver best response to a committed AV control plan.

    The AV trajectory implied by u_av_seq against the lead-vehicle
    preview is rolled out first; the driver then optimizes against the
    resulting AV speed profile.  Deterministic; infeasible instances
    come back flagged rather than raising.

    Args:
        x_av: AV state (gap to the lead vehicle, speed, accel).
        x_human: driver state (gap to the AV, speed, accel).
        u_av_seq: AV control sequence, one entry per horizon step.
        pv_preview: lead-vehicle speed preview, extended by holding the
            last sample if shorter than the horizon.
    """
    u_av_seq = np.asarray(u_av_seq, dtype=float)
    n = len(u_av_seq)
    maps = build_horizon_maps(disc, n)
    pv = hold_last(pv_preview, n)
    _, av_speeds, _ = maps.rollout(x_av, u_av_seq, pv)
    leader_speeds = np.concatenate([[x_av.speed], av_speeds])
    return respond_to_leader(x_human, leader_speeds, weights, hc, disc, n,
                             v_limit, warm_start=warm_start)


def replan_rollout(x0: LongitudinalState, leader_speeds, n_applied: int,
                   weights: DriverWeights, hc: HumanConstraints,
                   disc: DiscreteDynamics, n_steps: int,
                   v_limit: float) -> tuple:
    """Receding-horizon driver rollout behind a known leader profile.

    Step i solves the best response to leader_speeds[i:] (held at its
    last sample), warm-started from the previous response shifted by
    one step, and applies its first control while the leader holds
    leader_speeds[i].  Returns the gap, speed and accel rows of the
    n_applied + 1 visited states (x0 first) and the applied controls.
    """
    xs, controls, warm = [x0], [], None
    for i in range(n_applied):
        preview = hold_last(leader_speeds[i:], n_steps + 1)
        resp = respond_to_leader(xs[-1], preview, weights, hc, disc,
                                 n_steps, v_limit, warm_start=warm)
        warm = np.append(resp.controls[1:], resp.controls[-1])
        controls.append(float(resp.controls[0]))
        xs.append(step(disc, xs[-1], controls[-1], float(leader_speeds[i])))
    return np.array([x.as_array() for x in xs]).T, np.array(controls)


# ---------------------------------------------------------------------------
# Weight fitting


@dataclass(frozen=True)
class FitResult:
    weights: DriverWeights
    iterations: int
    converged: bool
    demo_features: np.ndarray
    model_features: np.ndarray
    mismatch: np.ndarray


def estimate_tau_headway(demos) -> float:
    """Observed minimum time headway over all moving samples (> 1 m/s)."""
    best = np.inf
    for demo in demos:
        moving = demo.speeds > 1.0
        if np.any(moving):
            best = min(best, float(np.min(demo.gaps[moving]
                                          / demo.speeds[moving])))
    if not np.isfinite(best):
        raise InvalidParameterError(
            "no demonstration sample moves faster than 1 m/s; "
            "cannot estimate a time headway")
    if best <= 0:
        raise InvalidParameterError(
            f"estimated time headway {best:.4f} s is not positive")
    return best


def _feature_sum(gaps, speeds, accels, leader_speeds, v_limit: float,
                 weights: DriverWeights) -> np.ndarray:
    """Stage features (as features()) summed over a sampled trajectory."""
    desired_gap = speeds * weights.tau_headway + weights.min_gap
    return np.stack([accels ** 2, (v_limit - speeds) ** 2,
                     (leader_speeds - speeds) ** 2,
                     np.abs(desired_gap - gaps)]).sum(axis=1)


def fit_weights_maxent(demos, w0: DriverWeights, learn_rate: float = 0.2,
                       max_iters: int = 150, tol: float = 0.05, *,
                       hc: HumanConstraints, disc: DiscreteDynamics,
                       v_limit: float,
                       n_steps: int = defaults.HORIZON_STEPS,
                       tau_override: float | None = None) -> FitResult:
    """Fit driver weights by feature-expectation matching.

    Projected gradient ascent on the demonstration likelihood under the
    deterministic max-entropy approximation: ascent direction is the
    model-minus-demo feature expectation, each component normalized by
    the empirical feature scale so a single learn rate serves features
    of different units.  Weights are clipped to >= 0 after each update.

    The time headway parameter is estimated once from the demos (minimum
    gap/speed over samples moving faster than 1 m/s) unless tau_override
    pins it.

    Raises:
        InvalidParameterError: a demonstration's dt differs from disc.dt.
        FitDivergenceError: a weight exceeded 1e3 (_WEIGHT_CAP).
    """
    if not demos:
        raise InvalidParameterError("need at least one demonstration")
    for demo in demos:
        if len(demo) > 1 and abs(demo.dt - disc.dt) > 1e-9:
            raise InvalidParameterError(
                f"dynamics step {disc.dt} differs from demonstration dt "
                f"{demo.dt}")
    tau = float(tau_override) if tau_override is not None \
        else estimate_tau_headway(demos)
    current = DriverWeights(w=w0.w, tau_headway=tau, min_gap=w0.min_gap)
    demo_feats = np.mean([_feature_sum(d.gaps, d.speeds, d.accels,
                                       d.leader_speeds, v_limit, current)
                          for d in demos], axis=0)
    scale = np.maximum(np.abs(demo_feats), 1e-8)

    model_feats = np.zeros(4)
    mismatch = np.full(4, np.inf)
    converged = False
    iterations = 0
    for it in range(max_iters):
        # features along a receding-horizon re-plan of each demonstration
        replans = [replan_rollout(d.state(0), d.leader_speeds, len(d) - 1,
                                  current, hc, disc, n_steps, v_limit)[0]
                   for d in demos]
        model_feats = np.mean([_feature_sum(*states, d.leader_speeds, v_limit,
                                            current)
                               for states, d in zip(replans, demos)], axis=0)
        mismatch = np.abs(model_feats - demo_feats) / scale
        if np.max(mismatch) <= tol:
            converged = True
            break
        grad = (model_feats - demo_feats) / scale
        new_w = np.maximum(0.0, current.as_array() + learn_rate * grad)
        if np.any(new_w > _WEIGHT_CAP):
            raise FitDivergenceError(
                f"weight fitting diverged at iteration {it}: {new_w}",
                iteration=it, weights=new_w, mismatch=mismatch)
        current = DriverWeights(w=tuple(new_w), tau_headway=tau,
                                min_gap=current.min_gap)
        iterations = it + 1
    return FitResult(weights=current, iterations=iterations,
                     converged=converged, demo_features=demo_feats,
                     model_features=model_feats, mismatch=mismatch)
