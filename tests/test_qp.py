import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svosim import qp
from svosim.errors import InvalidParameterError, QpInfeasibleError

# tolerances of the KKT checks, relative to the problem's scale
STATIONARITY_TOL = 1e-9
FEASIBILITY_TOL = 1e-9
COMPLEMENTARITY_TOL = 1e-9


def kkt_residuals(H, g, C, d, res):
    """(stationarity, worst violation, min multiplier, complementarity)."""
    H, g, C, d = (np.asarray(a, dtype=float) for a in (H, g, C, d))
    C_a = C[res.active] if len(C) else np.zeros((0, len(g)))
    lam = res.multipliers
    grad = H @ res.u + g
    scale = 1.0 + np.linalg.norm(grad) + np.linalg.norm(g) \
        + np.linalg.norm(H @ res.u)
    stationarity = np.linalg.norm(grad - C_a.T @ lam) / scale
    slack = C @ res.u - d
    violation = float(np.max(-slack / (1.0 + np.abs(d)), initial=0.0))
    comp = float(np.max(np.abs(lam * slack[res.active])
                        / (1.0 + np.abs(d[res.active])), initial=0.0)) \
        if len(lam) else 0.0
    return stationarity, violation, float(np.min(lam, initial=0.0)), comp


def assert_kkt(H, g, C, d, res):
    stat, viol, lam_min, comp = kkt_residuals(H, g, C, d, res)
    assert stat <= STATIONARITY_TOL
    assert viol <= FEASIBILITY_TOL
    assert lam_min >= 0.0
    assert comp <= COMPLEMENTARITY_TOL * (1.0 + np.max(res.multipliers,
                                                       initial=0.0))


def test_unconstrained_minimiser():
    H = np.array([[4.0, 1.0], [1.0, 3.0]])
    g = np.array([1.0, -2.0])
    res = qp.solve_qp(H, g, np.zeros((0, 2)), np.zeros(0))
    assert np.allclose(res.u, np.linalg.solve(H, -g), rtol=0, atol=1e-14)
    assert res.iterations == 0 and res.active.size == 0
    # rows that the minimiser already satisfies change nothing
    slack = qp.solve_qp(H, g, np.eye(2), np.full(2, -10.0))
    assert np.array_equal(slack.u, res.u) and slack.iterations == 0


def test_box_only_matches_clipped_minimiser():
    h = np.array([2.0, 0.5, 1.0, 4.0])
    g = np.array([-8.0, 1.0, 0.3, 6.0])
    lo, hi = -1.0, 1.5
    eye = np.eye(4)
    C = np.vstack([eye, -eye])
    d = np.concatenate([np.full(4, lo), np.full(4, -hi)])
    res = qp.solve_qp(np.diag(h), g, C, d)
    # a diagonal Hessian separates: each coordinate clips on its own
    assert np.allclose(res.u, np.clip(-g / h, lo, hi), rtol=0, atol=1e-12)
    assert sorted(res.active) == [1, 3, 4]
    # the multiplier of a bound is the gradient pushing against it
    lam = dict(zip(res.active, res.multipliers))
    for i in (1, 3):
        assert np.isclose(lam[i], h[i] * lo + g[i], rtol=0, atol=1e-12)
    assert np.isclose(lam[4], -(h[0] * hi + g[0]), rtol=0, atol=1e-12)
    assert_kkt(np.diag(h), g, C, d, res)


def test_duplicate_and_dependent_rows():
    # unconstrained minimiser (2, 2); u1 <= 1 twice, u2 <= 1, and their
    # sum u1 + u2 <= 2, which depends on the two bounds
    H = np.eye(2)
    g = np.array([-2.0, -2.0])
    C = np.array([[-1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]])
    d = np.array([-1.0, -1.0, -1.0, -2.0])
    res = qp.solve_qp(H, g, C, d)
    assert np.allclose(res.u, [1.0, 1.0], rtol=0, atol=1e-12)
    # the active rows stay linearly independent
    assert np.linalg.matrix_rank(C[res.active]) == len(res.active)
    assert_kkt(H, g, C, d, res)
    # the sum row alone, most violated first, then the bounds: the sum
    # row is dropped again
    C2 = np.array([[-3.0, -3.0], [-1.0, 0.0], [0.0, -1.0]])
    d2 = np.array([-6.0, -1.0, -1.0])
    res2 = qp.solve_qp(H, g, C2, d2)
    assert np.allclose(res2.u, [1.0, 1.0], rtol=0, atol=1e-12)
    assert np.linalg.matrix_rank(C2[res2.active]) == len(res2.active)
    assert_kkt(H, g, C2, d2, res2)


def test_incompatible_rows_raise():
    H = np.eye(2)
    g = np.zeros(2)
    # u1 >= 1 and u1 <= 0
    C = np.array([[1.0, 0.0], [-1.0, 0.0]])
    d = np.array([1.0, 0.0])
    with pytest.raises(QpInfeasibleError) as err:
        qp.solve_qp(H, g, C, d)
    assert np.all(np.isfinite(err.value.u))
    assert err.value.iterations >= 1


def test_rounding_level_conflict_is_degenerate_not_infeasible():
    # u1 <= 1 binds first; u1 >= 1 + gap then conflicts with it.  A gap
    # at rounding level is a degenerate vertex, a larger one infeasible
    H = np.eye(2)
    g = np.array([-2.0, 0.0])
    C = np.array([[-1.0, 0.0], [1.0, 0.0]])
    res = qp.solve_qp(H, g, C, np.array([-1.0, 1.0 + 5e-9]))
    assert np.array_equal(res.u, [1.0, 0.0])
    assert list(res.active) == [0]
    with pytest.raises(QpInfeasibleError) as err:
        qp.solve_qp(H, g, C, np.array([-1.0, 1.0 + 1e-3]))
    assert np.allclose(err.value.u, [1.0, 0.0], rtol=0, atol=1e-15)


def test_indefinite_hessian_rejected():
    with pytest.raises(InvalidParameterError):
        qp.factor(np.diag([1.0, -1.0]), np.eye(2))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10),
       m=st.integers(0, 40), slack_share=st.floats(0.0, 1.0))
def test_random_feasible_qps_satisfy_kkt(seed, n, m, slack_share):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    H = A @ A.T + 0.1 * np.eye(n)
    g = rng.normal(scale=10.0, size=n)
    C = rng.normal(size=(m, n))
    # rows tight at a known point x0, some loosened: feasible by
    # construction, with many rows meeting in degenerate vertices
    x0 = rng.normal(size=n)
    loose = rng.random(m) < slack_share
    d = C @ x0 - loose * rng.uniform(0.0, 2.0, size=m)
    res = qp.solve_qp(H, g, C, d)
    assert_kkt(H, g, C, d, res)
    # the constrained minimiser is no worse than the feasible point x0
    cost = 0.5 * res.u @ H @ res.u + g @ res.u
    assert cost <= 0.5 * x0 @ H @ x0 + g @ x0 + 1e-9 * (1.0 + abs(cost))
