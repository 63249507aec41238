"""Third-order longitudinal car-following dynamics with actuation lag.

A follower is described relative to its immediate predecessor by

    x = (gap, speed, accel)

    d(gap)/dt   = v_prec - speed
    d(speed)/dt = accel
    d(accel)/dt = (u - accel) / rho

where u is the commanded acceleration and rho the first-order actuation
lag.  The commanded input and the predecessor speed are held constant
over one sample interval, so the discrete model is the exact zero-order
hold of the continuous one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import InvalidParameterError


@dataclass(frozen=True)
class LongitudinalState:
    """Follower state: gap to predecessor [m], speed [m/s], accel [m/s^2]."""

    gap: float
    speed: float
    accel: float

    def as_array(self) -> np.ndarray:
        return np.array([self.gap, self.speed, self.accel], dtype=float)

    @staticmethod
    def from_array(x) -> "LongitudinalState":
        return LongitudinalState(float(x[0]), float(x[1]), float(x[2]))


@dataclass(frozen=True)
class ContinuousDynamics:
    """Continuous-time model dx/dt = A x + B u + D v_prec."""

    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    rho: float


@dataclass(frozen=True)
class DiscreteDynamics:
    """Exact ZOH discretization x+ = Ad x + Bd u + Dd v_prec."""

    Ad: np.ndarray
    Bd: np.ndarray
    Dd: np.ndarray
    dt: float


def build_continuous(rho: float) -> ContinuousDynamics:
    """Build the continuous model for a given actuation lag.

    Args:
        rho: actuation lag in seconds, must be positive.
    """
    if not rho > 0.0:
        raise InvalidParameterError(f"actuation lag must be positive, got {rho}")
    A = np.array([[0.0, -1.0, 0.0],
                  [0.0, 0.0, 1.0],
                  [0.0, 0.0, -1.0 / rho]])
    B = np.array([0.0, 0.0, 1.0 / rho])
    D = np.array([1.0, 0.0, 0.0])
    return ContinuousDynamics(A=A, B=B, D=D, rho=float(rho))


def discretize_zoh(cont: ContinuousDynamics, dt: float) -> DiscreteDynamics:
    """Discretize by zero-order hold on (u, v_prec) over one step.

    Uses the augmented-matrix exponential: stacking [A, [B D]; 0, 0] and
    exponentiating yields Ad in the state block and the held-input
    responses in the input columns.
    """
    if not dt > 0.0:
        raise InvalidParameterError(f"step length must be positive, got {dt}")
    n = cont.A.shape[0]
    aug = np.zeros((n + 2, n + 2))
    aug[:n, :n] = cont.A
    aug[:n, n] = cont.B
    aug[:n, n + 1] = cont.D
    phi = expm(aug * dt)
    return DiscreteDynamics(Ad=phi[:n, :n].copy(),
                            Bd=phi[:n, n].copy(),
                            Dd=phi[:n, n + 1].copy(),
                            dt=float(dt))


def step(disc: DiscreteDynamics, x: LongitudinalState, u: float,
         v_prec: float) -> LongitudinalState:
    """Propagate one follower by one sample interval.

    Args:
        disc: discrete model.
        x: current state.
        u: commanded acceleration, held over the interval.
        v_prec: predecessor speed, held over the interval.
    """
    nxt = disc.Ad @ x.as_array() + disc.Bd * u + disc.Dd * v_prec
    return LongitudinalState.from_array(nxt)


# ---------------------------------------------------------------------------
# Horizon response maps.
#
# Over an N-step horizon the predicted trajectory is affine in the control
# sequence, the predecessor-speed sequence, and the initial state:
#
#   comp = G_comp @ u + P_comp @ v_prec_seq + F_comp @ x0
#
# one (N x N) or (N x 3) matrix per state component, rows j = 1..N being
# the states *after* each control.  The planners evaluate costs, gradients
# and Hessians through these constant matrices instead of re-rolling the
# recursion.


@dataclass(frozen=True)
class HorizonMaps:
    n_steps: int
    dt: float
    gap_u: np.ndarray
    speed_u: np.ndarray
    accel_u: np.ndarray
    gap_p: np.ndarray
    speed_p: np.ndarray
    accel_p: np.ndarray
    gap_x: np.ndarray
    speed_x: np.ndarray
    accel_x: np.ndarray
    # the build_horizon_maps cache key: identifies the maps by value
    key: tuple = field(repr=False)

    def free_response(self, x0: LongitudinalState, v_prec_seq: np.ndarray):
        """Trajectory pieces independent of the control sequence."""
        x = x0.as_array()
        g0 = self.gap_p @ v_prec_seq + self.gap_x @ x
        v0 = self.speed_p @ v_prec_seq + self.speed_x @ x
        a0 = self.accel_p @ v_prec_seq + self.accel_x @ x
        return g0, v0, a0

    def rollout(self, x0: LongitudinalState, u_seq: np.ndarray,
                v_prec_seq: np.ndarray):
        """Predicted (gap, speed, accel) arrays at steps 1..N."""
        g0, v0, a0 = self.free_response(x0, v_prec_seq)
        return (self.gap_u @ u_seq + g0,
                self.speed_u @ u_seq + v0,
                self.accel_u @ u_seq + a0)


def hold_last(seq, length: int) -> np.ndarray:
    """Extend a preview sequence to `length` samples by holding the last.

    Raises:
        InvalidParameterError: the sequence is empty.
    """
    arr = np.asarray(seq, dtype=float)
    if arr.size == 0:
        raise InvalidParameterError("cannot extend an empty preview")
    if arr.size >= length:
        return arr[:length]
    return np.concatenate([arr, np.full(length - arr.size, arr[-1])])


_MAPS_CACHE: dict = {}


def build_horizon_maps(disc: DiscreteDynamics, n_steps: int) -> HorizonMaps:
    """Assemble (and cache) the affine horizon response for a model."""
    if n_steps < 1:
        raise InvalidParameterError(f"horizon must be >= 1 step, got {n_steps}")
    key = (disc.Ad.tobytes(), disc.Bd.tobytes(), disc.Dd.tobytes(),
           disc.dt, n_steps)
    hit = _MAPS_CACHE.get(key)
    if hit is not None:
        return hit

    n = n_steps
    pow_b = np.empty((n, 3))
    pow_d = np.empty((n, 3))
    pow_a = np.empty((n, 3, 3))
    pow_b[0] = disc.Bd
    pow_d[0] = disc.Dd
    pow_a[0] = disc.Ad
    for k in range(1, n):
        pow_b[k] = disc.Ad @ pow_b[k - 1]
        pow_d[k] = disc.Ad @ pow_d[k - 1]
        pow_a[k] = disc.Ad @ pow_a[k - 1]

    g_u = np.zeros((n, n)); g_p = np.zeros((n, n)); g_x = np.empty((n, 3))
    v_u = np.zeros((n, n)); v_p = np.zeros((n, n)); v_x = np.empty((n, 3))
    a_u = np.zeros((n, n)); a_p = np.zeros((n, n)); a_x = np.empty((n, 3))
    for j in range(1, n + 1):
        for i in range(j):
            g_u[j - 1, i] = pow_b[j - 1 - i][0]
            v_u[j - 1, i] = pow_b[j - 1 - i][1]
            a_u[j - 1, i] = pow_b[j - 1 - i][2]
            g_p[j - 1, i] = pow_d[j - 1 - i][0]
            v_p[j - 1, i] = pow_d[j - 1 - i][1]
            a_p[j - 1, i] = pow_d[j - 1 - i][2]
        g_x[j - 1] = pow_a[j - 1][0]
        v_x[j - 1] = pow_a[j - 1][1]
        a_x[j - 1] = pow_a[j - 1][2]

    maps = HorizonMaps(n_steps=n, dt=disc.dt,
                       gap_u=g_u, speed_u=v_u, accel_u=a_u,
                       gap_p=g_p, speed_p=v_p, accel_p=a_p,
                       gap_x=g_x, speed_x=v_x, accel_x=a_x, key=key)
    if len(_MAPS_CACHE) > 16:
        _MAPS_CACHE.clear()
    _MAPS_CACHE[key] = maps
    return maps
