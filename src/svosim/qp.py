"""Dense strictly convex QP by the Goldfarb-Idnani dual active-set method.

Solves

    min  1/2 u' H u + g' u   subject to   C u >= d

for a positive definite H (Goldfarb & Idnani, Math. Programming 27,
1983).  With H = L L' and the scaled variable v = L' u the objective
becomes 1/2 |v + L^-1 g|^2 and the rows B v >= d, B = C L^-T, so the
factor (L^-T, B) is all the method needs; callers that solve many
problems with the same H and C build it once and vary only g and d.

The iteration starts from the unconstrained minimiser, which is dual
feasible, and adds the most violated row.  Each step moves the primal
point along the part of that row orthogonal to the active rows and
shifts the multipliers: a full step makes the row active, a partial
step stops where an active multiplier reaches zero and drops that row.
The active rows stay linearly independent, the multipliers nonnegative,
and the first primal feasible point is the minimiser.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InvalidParameterError, QpInfeasibleError

# a row is violated below -_FEAS_TOL * (1 + |d|)
_FEAS_TOL = 1e-10
# a row whose part orthogonal to the active rows is below this share of
# its norm depends on them
_DEP_TOL = 1e-10
# a dependent row that no multiplier shift can satisfy, violated by less
# than _DEGEN_TOL * (1 + |d|), sits on a degenerate vertex: rounding in
# the active rows, not infeasibility
_DEGEN_TOL = 1e-7


class QpFactor(NamedTuple):
    """The constant part of a QP: J = L^-T with H = L L', and B = C J."""

    J: np.ndarray
    B: np.ndarray


class QpResult(NamedTuple):
    """Minimiser, active rows, their multipliers and the step count.

    At the solution H u + g = C[active]' multipliers.
    """

    u: np.ndarray
    active: np.ndarray
    multipliers: np.ndarray
    iterations: int


def factor(H, C) -> QpFactor:
    """Factor the Hessian and scale the constraint rows.

    Raises:
        InvalidParameterError: H is not positive definite.
    """
    H = np.asarray(H, dtype=float)
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise InvalidParameterError("QP Hessian is not positive definite") \
            from None
    J = solve_triangular(L, np.eye(len(H)), lower=True).T
    return QpFactor(J=J, B=np.asarray(C, dtype=float) @ J)


def solve(f: QpFactor, g, d) -> QpResult:
    """Minimise over the rows of a factored QP for one (g, d).

    Raises:
        QpInfeasibleError: the rows admit no feasible point; carries the
            last (infeasible) iterate.
    """
    J, B = f
    d = np.asarray(d, dtype=float)
    tol = _FEAS_TOL * (1.0 + np.abs(d))
    max_iters = 2 * (len(d) + len(J))
    v = -(J.T @ np.asarray(g, dtype=float))
    active: list = []
    met: list = []      # degenerate rows taken as met until the next step
    lam = np.empty(0)
    it = 0
    while True:
        s = B @ v - d
        viol = s + tol
        viol[active] = 0.0
        viol[met] = 0.0
        if not viol.size or viol.min() >= 0.0:
            return QpResult(u=J @ v, active=np.array(active, dtype=int),
                            multipliers=lam, iterations=it)
        p = int(np.argmin(viol))
        s_p, lam_p, b_p = s[p], 0.0, B[p]
        while True:
            it += 1
            if it > max_iters:
                raise QpInfeasibleError(
                    f"no feasible point within {max_iters} active-set "
                    "iterations", u=J @ v, iterations=it - 1)
            # step direction z in v and its multiplier change r: the
            # part of b_p orthogonal to the active rows, and the rest
            if active:
                Q, R = np.linalg.qr(B[active].T)
                w = Q.T @ b_p
                z = b_p - Q @ w
                r = solve_triangular(R, w)
            else:
                z, r = b_p, lam
            zz = float(z @ z)
            full = zz > _DEP_TOL ** 2 * float(b_p @ b_p)
            t_full = -s_p / zz if full else np.inf
            t_part, k = np.inf, -1
            drops = np.flatnonzero(r > 0.0)
            if drops.size:
                ratios = lam[drops] / r[drops]
                k = int(drops[np.argmin(ratios)])
                t_part = float(np.min(ratios))
            t = min(t_full, t_part)
            if not np.isfinite(t):
                if lam_p == 0.0 and s_p >= -_DEGEN_TOL * (1.0 + abs(d[p])):
                    met.append(p)
                    break
                raise QpInfeasibleError(
                    f"constraint row {p} is incompatible with the active "
                    "rows", u=J @ v, iterations=it)
            met.clear()
            lam = lam - t * r
            lam_p += t
            if full:
                v = v + t * z
                s_p += t * zz
            if t_full <= t_part:
                active.append(p)
                lam = np.append(lam, lam_p)
                break
            del active[k]
            lam = np.delete(lam, k)


def solve_qp(H, g, C, d) -> QpResult:
    """Factor and solve one QP; see solve."""
    return solve(factor(H, C), g, d)
