import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from svosim import controller as ctl
from svosim import driver_model as dm
from svosim import dynamics
from svosim.errors import InvalidParameterError
from svosim.simulation import EPISODE_PLAN_SETTINGS

DISC = dynamics.discretize_zoh(dynamics.build_continuous(0.45), 0.1)
CONS = ctl.AvConstraints(d_min=5.0, d_max=45.0, v_min=0.0, v_max=25.0,
                         u_min=-4.0, u_max=4.0, a_min=-3.0, a_max=3.0)
EGO = ctl.EgoisticParams(min_gap=5.0, time_headway=1.2)
WH = dm.DriverWeights(w=(0.1, 0.5, 0.5, 1.0), tau_headway=1.5, min_gap=5.0)
HC = dm.HumanConstraints(v_min=0.0, v_max=25.0, d_min=5.0)
V_LIMIT = 25.0
SWEEP = (0.0, math.pi / 12, math.pi / 6, math.pi / 4)

TRANSIENT = (dynamics.LongitudinalState(20.0, 21.0, 0.0),
             dynamics.LongitudinalState(28.0, 19.5, 0.3),
             np.linspace(20.0, 14.0, 30))
BRAKE = (dynamics.LongitudinalState(29.0, 20.0, 0.0),
         dynamics.LongitudinalState(35.0, 20.0, 0.0),
         np.concatenate([np.full(10, 20.0), np.full(20, 12.0)]))
ACCEL = (dynamics.LongitudinalState(25.0, 16.0, 0.0),
         dynamics.LongitudinalState(26.0, 17.0, -0.2),
         np.linspace(16.0, 23.0, 30))


def av_rollout(x_av, u_seq, pv):
    maps = dynamics.build_horizon_maps(DISC, len(u_seq))
    return maps.rollout(x_av, np.asarray(u_seq, dtype=float),
                        dynamics.hold_last(pv, len(u_seq)))


def av_feasible(x_av, u_seq, pv, tol=1e-9):
    u = np.asarray(u_seq, dtype=float)
    if np.min(u) < CONS.u_min - tol or np.max(u) > CONS.u_max + tol:
        return False
    g, v, a = av_rollout(x_av, u, pv)
    return (np.min(g) >= CONS.d_min - tol and np.max(g) <= CONS.d_max + tol
            and np.min(v) >= CONS.v_min - tol
            and np.max(v) <= CONS.v_max + tol
            and np.min(a) >= CONS.a_min - tol
            and np.max(a) <= CONS.a_max + tol)


def bilevel_cost(x_av, x_h, u_seq, pv, phi, warm=None):
    """Reference evaluation through the public best-response path."""
    w_e, w_c = ctl.svo_weights(phi)
    g, v, _ = av_rollout(x_av, u_seq, pv)
    resp = dm.best_response(x_av, x_h, u_seq, pv, WH, HC, DISC, V_LIMIT,
                            warm_start=warm)
    ce = float(np.sum((EGO.min_gap + EGO.time_headway * v - g) ** 2))
    cc = float(np.sum((V_LIMIT - resp.speeds) ** 2))
    return w_e * ce + w_c * cc


def test_svo_config_validates_range():
    ctl.SvoConfig(0.0)
    ctl.SvoConfig(math.pi / 4)
    with pytest.raises(InvalidParameterError):
        ctl.SvoConfig(-0.01)
    with pytest.raises(InvalidParameterError):
        ctl.SvoConfig(math.pi / 4 + 0.01)
    with pytest.raises(InvalidParameterError):
        ctl.svo_weights(1.0)


def test_svo_weights_examples():
    assert ctl.svo_weights(0.0) == (1.0, 0.0)
    w_e, w_c = ctl.svo_weights(math.pi / 4)
    assert math.isclose(w_e, math.sqrt(2) / 2, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(w_c, math.sqrt(2) / 2, rel_tol=0, abs_tol=1e-12)
    w_e, w_c = ctl.svo_weights(math.pi / 6)
    assert math.isclose(w_e, math.sqrt(3) / 2, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(w_c, 0.5, rel_tol=0, abs_tol=1e-12)
    for phi in SWEEP:
        w_e, w_c = ctl.svo_weights(phi)
        assert math.isclose(w_e * w_e + w_c * w_c, 1.0, rel_tol=0,
                            abs_tol=1e-12)


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        ctl.EgoisticParams(min_gap=0.0, time_headway=1.2)
    with pytest.raises(InvalidParameterError):
        ctl.EgoisticParams(min_gap=5.0, time_headway=-1.0)
    with pytest.raises(InvalidParameterError):
        ctl.AvConstraints(d_min=5.0, d_max=5.0, v_min=0.0, v_max=25.0,
                          u_min=-4.0, u_max=4.0, a_min=-3.0, a_max=3.0)
    with pytest.raises(InvalidParameterError):
        ctl.AvConstraints(d_min=5.0, d_max=45.0, v_min=0.0, v_max=25.0,
                          u_min=4.0, u_max=-4.0, a_min=-3.0, a_max=3.0)


def test_egoistic_cost_examples():
    tracking = ctl.PredictedTrajectory(
        gaps=EGO.min_gap + EGO.time_headway * np.array([10.0, 20.0]),
        speeds=np.array([10.0, 20.0]), accels=np.zeros(2))
    assert ctl.egoistic_cost(tracking, EGO) == 0.0
    one = ctl.PredictedTrajectory(gaps=np.array([29.0]),
                                  speeds=np.array([20.0]),
                                  accels=np.zeros(1))
    assert ctl.egoistic_cost(one, EGO) == 0.0
    short = ctl.PredictedTrajectory(gaps=np.array([12.0]),
                                    speeds=np.array([10.0]),
                                    accels=np.zeros(1))
    assert math.isclose(ctl.egoistic_cost(short, EGO), 25.0, rel_tol=0,
                        abs_tol=1e-12)


def test_courtesy_cost_examples():
    at_limit = ctl.PredictedTrajectory(gaps=np.full(3, 30.0),
                                       speeds=np.full(3, V_LIMIT),
                                       accels=np.zeros(3))
    assert ctl.courtesy_cost(at_limit, V_LIMIT) == 0.0
    below = ctl.PredictedTrajectory(gaps=np.full(2, 30.0),
                                    speeds=np.array([20.0, 22.0]),
                                    accels=np.zeros(2))
    assert math.isclose(ctl.courtesy_cost(below, 25.0), 34.0, rel_tol=0,
                        abs_tol=1e-12)
    assert math.isclose(ctl.courtesy_cost(below, 0.0), 884.0, rel_tol=0,
                        abs_tol=1e-12)


def test_steady_platoon_holds_for_all_levels():
    v = 22.0
    x_av = dynamics.LongitudinalState(EGO.min_gap + EGO.time_headway * v,
                                      v, 0.0)
    x_h = dynamics.LongitudinalState(WH.min_gap + WH.tau_headway * v, v, 0.0)
    cons = ctl.AvConstraints(d_min=5.0, d_max=45.0, v_min=0.0, v_max=v,
                             u_min=-4.0, u_max=4.0, a_min=-3.0, a_max=3.0)
    for phi in SWEEP:
        res = ctl.plan(x_av, x_h, np.full(30, v), WH, ctl.SvoConfig(phi),
                       cons, EGO, v, DISC)
        assert res.converged and res.inner_feasible
        assert np.max(np.abs(res.u_seq)) < 1e-6
        assert res.cost_total < 1e-9


def test_phi_zero_matches_single_level_reference():
    x_av, x_h, pv = TRANSIENT
    res = ctl.plan(x_av, x_h, pv, WH, ctl.SvoConfig(0.0), CONS, EGO,
                   V_LIMIT, DISC)
    u_ref, traj_ref, cost_ref, conv_ref = ctl.egoistic_plan(x_av, pv, CONS,
                                                            EGO, DISC)
    assert conv_ref and res.converged
    assert np.max(np.abs(res.u_seq - u_ref)) <= 1e-6
    assert abs(res.cost_egoistic - cost_ref) <= 1e-6


def test_phi_zero_ignores_follower_entirely():
    x_av, x_h, pv = TRANSIENT
    res_a = ctl.plan(x_av, x_h, pv, WH, ctl.SvoConfig(0.0), CONS, EGO,
                     V_LIMIT, DISC)
    other_w = dm.DriverWeights(w=(1.0, 0.1, 2.0, 0.5), tau_headway=2.0,
                               min_gap=6.0)
    other_h = dynamics.LongitudinalState(12.0, 10.0, -1.0)
    res_b = ctl.plan(x_av, other_h, pv, other_w, ctl.SvoConfig(0.0), CONS,
                     EGO, 30.0, DISC)
    assert np.array_equal(res_a.u_seq, res_b.u_seq)


def test_cost_total_is_svo_weighted_sum():
    x_av, x_h, pv = TRANSIENT
    for phi in SWEEP:
        res = ctl.plan(x_av, x_h, pv, WH, ctl.SvoConfig(phi), CONS, EGO,
                       V_LIMIT, DISC)
        w_e, w_c = ctl.svo_weights(phi)
        assert res.converged
        assert math.isclose(res.cost_egoistic,
                            ctl.egoistic_cost(res.av_traj, EGO),
                            rel_tol=0, abs_tol=1e-9)
        assert math.isclose(res.cost_courtesy,
                            ctl.courtesy_cost(res.hv0_traj, V_LIMIT),
                            rel_tol=0, abs_tol=1e-9)
        assert math.isclose(res.cost_total,
                            w_e * res.cost_egoistic + w_c * res.cost_courtesy,
                            rel_tol=0, abs_tol=1e-9)


def test_sweep_trades_egoistic_for_courtesy():
    x_av, x_h, pv = TRANSIENT
    results = [ctl.plan(x_av, x_h, pv, WH, ctl.SvoConfig(phi), CONS, EGO,
                        V_LIMIT, DISC) for phi in SWEEP]
    for prev, cur in zip(results, results[1:]):
        assert cur.cost_courtesy <= prev.cost_courtesy + 1e-6
        assert cur.cost_egoistic >= prev.cost_egoistic - 1e-6
    assert results[-1].cost_courtesy < results[0].cost_courtesy - 1.0


def test_bilevel_beats_grid_enumeration_oracle():
    # oracle: 3-point control grid for both vehicles over two steps,
    # follower picked by its own cost, leader by the blended cost
    x_av = dynamics.LongitudinalState(26.0, 20.0, 0.0)
    x_h = dynamics.LongitudinalState(30.0, 19.0, 0.0)
    pv = np.full(2, 20.0)

    def human_rollout(u_seq, leader):
        x = x_h
        out = []
        for k, u in enumerate(u_seq):
            x = dynamics.step(DISC, x, float(u), float(leader[k]))
            out.append(x)
        return out

    for phi in (math.pi / 6, math.pi / 4):
        w_e, w_c = ctl.svo_weights(phi)
        best = np.inf
        for ur in itertools.product((-2.0, 0.0, 2.0), repeat=2):
            if not av_feasible(x_av, ur, pv, tol=0.0):
                continue
            g, v, _ = av_rollout(x_av, ur, pv)
            leader = np.concatenate([[x_av.speed], v])
            best_h, best_u = np.inf, None
            for uh in itertools.product((-2.0, 0.0, 2.0), repeat=2):
                states = human_rollout(uh, leader)
                if not all(s.gap >= HC.d_min
                           and HC.v_min <= s.speed <= HC.v_max
                           for s in states):
                    continue
                cost_h = sum(dm.human_stage_cost(
                    dm.features(s, float(leader[k + 1]), V_LIMIT,
                                WH.tau_headway, WH.min_gap), WH)
                    for k, s in enumerate(states))
                if cost_h < best_h:
                    best_h, best_u = cost_h, uh
            responded = human_rollout(best_u, leader)
            ce = float(np.sum((EGO.min_gap + EGO.time_headway * v - g) ** 2))
            cc = sum((V_LIMIT - s.speed) ** 2 for s in responded)
            best = min(best, w_e * ce + w_c * cc)
        res = ctl.plan(x_av, x_h, pv, WH, ctl.SvoConfig(phi), CONS, EGO,
                       V_LIMIT, DISC, n_steps=2)
        assert res.converged
        assert res.cost_total <= best + 1e-6


def test_predicted_av_trajectory_respects_constraints():
    for x_av, x_h, pv in (TRANSIENT, BRAKE, ACCEL):
        res = ctl.plan(x_av, x_h, pv, WH, ctl.SvoConfig(math.pi / 4), CONS,
                       EGO, V_LIMIT, DISC)
        assert res.converged and res.inner_feasible
        assert np.min(res.u_seq) >= CONS.u_min - 1e-9
        assert np.max(res.u_seq) <= CONS.u_max + 1e-9
        t = res.av_traj
        assert np.min(t.gaps) >= CONS.d_min - 1e-6
        assert np.max(t.gaps) <= CONS.d_max + 1e-6
        assert np.min(t.speeds) >= CONS.v_min - 1e-6
        assert np.max(t.speeds) <= CONS.v_max + 1e-6
        assert np.min(t.accels) >= CONS.a_min - 1e-6
        assert np.max(t.accels) <= CONS.a_max + 1e-6


def test_plan_local_optimality_certificate():
    cases = [(TRANSIENT, math.pi / 4), (BRAKE, math.pi / 6),
             (ACCEL, math.pi / 4)]
    for (x_av, x_h, pv), phi in cases:
        res = ctl.plan(x_av, x_h, pv, WH, ctl.SvoConfig(phi), CONS, EGO,
                       V_LIMIT, DISC)
        warm = dm.best_response(x_av, x_h, res.u_seq, pv, WH, HC, DISC,
                                V_LIMIT).controls
        base = bilevel_cost(x_av, x_h, res.u_seq, pv, phi, warm=warm)
        for j in range(len(res.u_seq)):
            for delta in (1e-3, -1e-3):
                u = res.u_seq.copy()
                u[j] += delta
                if not av_feasible(x_av, u, pv):
                    continue
                pert = bilevel_cost(x_av, x_h, u, pv, phi, warm=warm)
                assert pert >= base - 1e-6


def test_plan_deterministic_and_warm_start_consistent():
    x_av, x_h, pv = TRANSIENT
    svo = ctl.SvoConfig(math.pi / 6)
    a = ctl.plan(x_av, x_h, pv, WH, svo, CONS, EGO, V_LIMIT, DISC)
    b = ctl.plan(x_av, x_h, pv, WH, svo, CONS, EGO, V_LIMIT, DISC)
    assert np.array_equal(a.u_seq, b.u_seq)
    assert a.cost_total == b.cost_total
    shifted = np.append(a.u_seq[1:], a.u_seq[-1])
    warm = ctl.plan(x_av, x_h, pv, WH, svo, CONS, EGO, V_LIMIT, DISC,
                    warm_start=shifted)
    assert warm.converged
    assert abs(warm.cost_total - a.cost_total) <= 1e-6 * max(1.0,
                                                             a.cost_total)


def test_response_warm_start_leaves_phi_zero_plan():
    for x_av, x_h, pv in (TRANSIENT, BRAKE, ACCEL):
        args = (x_av, x_h, pv, WH, ctl.SvoConfig(0.0), CONS, EGO, V_LIMIT,
                DISC)
        cold = ctl.plan(*args)
        shifted = np.append(cold.hv0_controls[1:], cold.hv0_controls[-1])
        warm = ctl.plan(*args, response_warm_start=shifted)
        assert np.array_equal(warm.u_seq, cold.u_seq)
        for name in ("gaps", "speeds", "accels"):
            assert np.max(np.abs(getattr(warm.hv0_traj, name)
                                 - getattr(cold.hv0_traj, name))) <= 1e-6


def test_infeasible_follower_flagged_not_raised():
    x_av, _, pv = TRANSIENT
    x_h = dynamics.LongitudinalState(3.0, 20.0, 0.0)
    res = ctl.plan(x_av, x_h, pv, WH, ctl.SvoConfig(math.pi / 4), CONS, EGO,
                   V_LIMIT, DISC)
    assert not res.inner_feasible
    assert np.all(np.isfinite(res.u_seq))
    assert np.all(np.isfinite(res.hv0_traj.speeds))


def test_leader_speed_gradient_matches_finite_differences():
    x_h = dynamics.LongitudinalState(22.0, 17.0, 0.1)
    n = 20
    leader = np.linspace(18.0, 15.0, n + 1)
    resp = dm.respond_to_leader(x_h, leader, WH, HC, DISC, n, V_LIMIT,
                                refine=False)
    speed_grad = -2.0 * (V_LIMIT - resp.speeds)
    grad = dm.response_speed_sensitivity(x_h, leader, resp.controls, WH, HC,
                                         DISC, n, V_LIMIT, speed_grad)

    def courtesy(ls):
        r = dm.respond_to_leader(x_h, ls, WH, HC, DISC, n, V_LIMIT,
                                 warm_start=resp.controls, refine=False)
        return float(np.sum((V_LIMIT - r.speeds) ** 2))

    delta = 1e-4
    for j in range(0, n + 1, 4):
        plus = leader.copy()
        plus[j] += delta
        minus = leader.copy()
        minus[j] -= delta
        fd = (courtesy(plus) - courtesy(minus)) / (2 * delta)
        assert abs(fd - grad[j]) <= 1e-5 * max(1.0, abs(fd))


def tight_egoistic_reference(x_av, pv):
    """Egoistic cost of a tight SLSQP solve at OuterSettings()."""
    maps = dynamics.build_horizon_maps(DISC, len(pv))
    g0, v0, a0 = maps.free_response(x_av, dynamics.hold_last(pv, len(pv)))
    err_map = EGO.time_headway * maps.speed_u - maps.gap_u
    err0 = EGO.min_gap + EGO.time_headway * v0 - g0
    rows = np.vstack([maps.gap_u, -maps.gap_u, maps.speed_u, -maps.speed_u,
                      maps.accel_u, -maps.accel_u])
    off = np.concatenate([g0 - CONS.d_min, CONS.d_max - g0,
                          v0 - CONS.v_min, CONS.v_max - v0,
                          a0 - CONS.a_min, CONS.a_max - a0])

    def cost(u):
        err = err_map @ u + err0
        return float(err @ err), 2.0 * (err_map.T @ err)

    tight = ctl.OuterSettings()
    res = minimize(cost, np.zeros(len(pv)), jac=True, method="SLSQP",
                   bounds=[(CONS.u_min, CONS.u_max)] * len(pv),
                   constraints=[{"type": "ineq",
                                 "fun": lambda u: rows @ u + off,
                                 "jac": lambda u: rows}],
                   options={"maxiter": tight.max_iters, "ftol": tight.ftol})
    return res.fun


def test_phi_zero_plan_is_exact_qp_minimum():
    for x_av, x_h, pv in (TRANSIENT, BRAKE, ACCEL):
        res = ctl.plan(x_av, x_h, pv, WH, ctl.SvoConfig(0.0), CONS, EGO,
                       V_LIMIT, DISC)
        assert res.converged and res.outer_status == 0
        assert av_feasible(x_av, res.u_seq, pv, tol=1e-8)
        assert res.cost_egoistic <= tight_egoistic_reference(x_av, pv) + 1e-9


def test_phi_zero_infeasible_plan_flagged_not_raised():
    # 6 m behind a stopped vehicle at 20 m/s: no control keeps d_min
    x_av = dynamics.LongitudinalState(6.0, 20.0, 0.0)
    x_h = dynamics.LongitudinalState(35.0, 20.0, 0.0)
    res = ctl.plan(x_av, x_h, np.zeros(30), WH, ctl.SvoConfig(0.0), CONS,
                   EGO, V_LIMIT, DISC)
    assert not res.converged
    assert res.outer_status == 4
    assert np.all(np.isfinite(res.u_seq))
    assert np.min(res.u_seq) >= CONS.u_min and np.max(res.u_seq) <= CONS.u_max


@pytest.mark.parametrize("phi", (0.0, math.pi / 4))
@pytest.mark.parametrize("keyword", ("warm_start", "response_warm_start"))
def test_plan_rejects_warm_start_of_wrong_length(phi, keyword):
    x_av, x_h, pv = TRANSIENT
    for n in (29, 31):
        with pytest.raises(InvalidParameterError):
            ctl.plan(x_av, x_h, pv, WH, ctl.SvoConfig(phi), CONS, EGO,
                     V_LIMIT, DISC, **{keyword: np.zeros(n)})


@settings(max_examples=60, deadline=None)
@given(gap=st.floats(CONS.d_min, CONS.d_max),
       speed=st.floats(CONS.v_min, CONS.v_max),
       accel=st.floats(CONS.a_min, CONS.a_max),
       preview=st.lists(st.floats(0.0, 25.0), min_size=1, max_size=30),
       seed=st.integers(0, 2**32 - 1))
def test_row_screen_drops_only_rows_the_box_cannot_violate(gap, speed, accel,
                                                          preview, seed):
    prob = ctl._AvProblem(dynamics.LongitudinalState(gap, speed, accel),
                          dynamics.hold_last(np.array(preview), 30), CONS,
                          EGO, DISC, 30)
    dropped = ~prob.violable_rows()
    # a linear row is smallest over the box at the vertex that takes each
    # control to the bound against the sign of its coefficient
    jac = prob.cons_jac[dropped]
    vertex = np.where(jac > 0.0, CONS.u_min, CONS.u_max)
    assert np.all(np.sum(jac * vertex, axis=1)
                  + prob.cons_off[dropped] >= 0.0)
    rng = np.random.default_rng(seed)
    u = rng.uniform(CONS.u_min, CONS.u_max, size=(200, 30))
    u[:20] = rng.choice([CONS.u_min, CONS.u_max], size=(20, 30))
    values = u @ jac.T + prob.cons_off[dropped]
    assert np.all(values >= -1e-9)


@pytest.mark.parametrize("phi", SWEEP[1:])
@pytest.mark.parametrize("case", (TRANSIENT, BRAKE, ACCEL))
def test_row_screen_keeps_the_tight_plan(case, phi, monkeypatch):
    x_av, x_h, pv = case
    args = (x_av, x_h, pv, WH, ctl.SvoConfig(phi), CONS, EGO, V_LIMIT, DISC)
    screened = ctl.plan(*args)
    monkeypatch.setattr(ctl._AvProblem, "violable_rows",
                        lambda self: np.ones(len(self.cons_off), bool))
    full = ctl.plan(*args)
    assert abs(screened.cost_total - full.cost_total) <= \
        1e-6 * full.cost_total


@pytest.mark.parametrize("phi", SWEEP[1:])
@pytest.mark.parametrize("case", (TRANSIENT, BRAKE, ACCEL))
def test_cold_plan_converges_within_episode_cap(case, phi):
    x_av, x_h, pv = case
    res = ctl.plan(x_av, x_h, pv, WH, ctl.SvoConfig(phi), CONS, EGO, V_LIMIT,
                   DISC, settings=EPISODE_PLAN_SETTINGS)
    assert res.outer_status == 0
    assert res.converged
