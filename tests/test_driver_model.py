import itertools
import math

import numpy as np
import pytest

from svosim import driver_model as dm
from svosim import dynamics
from svosim.errors import (FitDivergenceError, InvalidParameterError,
                           TraceParseError)

DISC = dynamics.discretize_zoh(dynamics.build_continuous(0.45), 0.1)


def weights(w=(0.1, 0.5, 0.5, 1.0), tau=1.5, ds=5.0):
    return dm.DriverWeights(w=w, tau_headway=tau, min_gap=ds)


def constraints(v_min=0.0, v_max=30.0, d_min=2.0):
    return dm.HumanConstraints(v_min=v_min, v_max=v_max, d_min=d_min)


def rollout_true_cost(x0, u_seq, leader_speeds, w, v_limit, disc=DISC):
    """Independent cost evaluation: plain step() recursion plus features()."""
    x = x0
    total = 0.0
    for k, u in enumerate(u_seq):
        x = dynamics.step(disc, x, float(u), float(leader_speeds[k]))
        fv = dm.features(x, float(leader_speeds[k + 1]), v_limit,
                         w.tau_headway, w.min_gap)
        total += dm.human_stage_cost(fv, w)
    return total


def rollout_states(x0, u_seq, leader_speeds, disc=DISC):
    xs = []
    x = x0
    for k, u in enumerate(u_seq):
        x = dynamics.step(disc, x, float(u), float(leader_speeds[k]))
        xs.append(x)
    return xs


def test_features_examples():
    w = weights()
    x = dynamics.LongitudinalState(gap=20 * 1.5 + 5, speed=20.0, accel=0.0)
    fv = dm.features(x, v_leader=20.0, v_limit=20.0, tau_headway=1.5,
                     min_gap=5.0)
    assert fv.as_array().tolist() == [0.0, 0.0, 0.0, 0.0]

    x = dynamics.LongitudinalState(gap=15 * 1.5 + 5, speed=15.0, accel=0.0)
    fv = dm.features(x, v_leader=15.0, v_limit=20.0, tau_headway=1.5,
                     min_gap=5.0)
    assert fv.speed_deficit_sq == 25.0
    assert fv.accel_sq == 0.0 and fv.rel_speed_sq == 0.0
    assert fv.gap_offset == 0.0

    x = dynamics.LongitudinalState(gap=18.0, speed=10.0, accel=0.0)
    fv = dm.features(x, v_leader=10.0, v_limit=10.0, tau_headway=1.5,
                     min_gap=5.0)
    assert math.isclose(fv.gap_offset, 2.0, rel_tol=0, abs_tol=1e-12)


def test_features_nonnegative_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = dynamics.LongitudinalState(*rng.uniform([-10, 0, -4], [60, 30, 4]))
        fv = dm.features(x, rng.uniform(0, 30), rng.uniform(0, 30),
                         rng.uniform(0.5, 3), rng.uniform(1, 8))
        assert np.all(fv.as_array() >= 0)


def test_feature_sum_matches_features_loop():
    demo = make_demo(T=60)
    w = weights(tau=1.0)    # the gap offset changes sign along the demo
    ref = sum(dm.features(demo.state(i), float(demo.leader_speeds[i]), 25.0,
                          w.tau_headway, w.min_gap).as_array()
              for i in range(len(demo)))
    # nonnegative float64 terms: only the summation order differs
    np.testing.assert_allclose(
        dm._feature_sum(demo.gaps, demo.speeds, demo.accels,
                        demo.leader_speeds, 25.0, w), ref, rtol=1e-12)


def test_stage_cost_examples():
    zero = dm.FeatureVector(0, 0, 0, 0)
    assert dm.human_stage_cost(zero, weights(w=(1, 1, 1, 1))) == 0.0
    fv = dm.FeatureVector(1, 2, 3, 4)
    assert dm.human_stage_cost(fv, weights(w=(1, 1, 1, 1))) == 10.0
    assert dm.human_stage_cost(fv, weights(w=(0, 0, 0, 0))) == 0.0


def test_weight_validation():
    with pytest.raises(InvalidParameterError):
        weights(w=(0.1, -0.5, 0.5, 1.0))
    with pytest.raises(InvalidParameterError):
        weights(w=(0.1, 0.5, 0.5))
    with pytest.raises(InvalidParameterError):
        weights(tau=0.0)
    with pytest.raises(InvalidParameterError):
        dm.HumanConstraints(v_min=5.0, v_max=5.0, d_min=2.0)
    with pytest.raises(InvalidParameterError):
        dm.HumanConstraints(v_min=-1.0, v_max=5.0, d_min=2.0)


def test_best_response_pure_comfort_holds_zero():
    w = weights(w=(1.0, 0.0, 0.0, 0.0))
    x_av = dynamics.LongitudinalState(gap=30.0, speed=15.0, accel=0.0)
    x_h = dynamics.LongitudinalState(gap=30.0, speed=15.0, accel=0.0)
    resp = dm.best_response(x_av, x_h, np.zeros(10), [15.0], w,
                            constraints(), DISC, v_limit=25.0)
    assert np.max(np.abs(resp.controls)) < 1e-9
    assert resp.cost < 1e-12
    assert resp.feasible


def test_best_response_steady_state_fixed_point():
    w = weights()
    v = 20.0
    x_av = dynamics.LongitudinalState(gap=29.0, speed=v, accel=0.0)
    x_h = dynamics.LongitudinalState(gap=v * 1.5 + 5.0, speed=v, accel=0.0)
    resp = dm.best_response(x_av, x_h, np.zeros(15), [v], w,
                            constraints(v_max=25.0), DISC, v_limit=v)
    assert np.max(np.abs(resp.controls)) < 1e-6
    assert resp.cost < 1e-9
    assert np.max(np.abs(resp.speeds - v)) < 1e-6


def test_best_response_solution_consistent_with_plain_rollout():
    w = weights()
    x_h = dynamics.LongitudinalState(gap=20.0, speed=18.0, accel=0.3)
    leader = np.linspace(19.0, 16.0, 13)
    resp = dm.respond_to_leader(x_h, leader, w, constraints(), DISC, 12,
                                v_limit=25.0)
    assert math.isclose(resp.cost,
                        rollout_true_cost(x_h, resp.controls, leader, w, 25.0),
                        rel_tol=0, abs_tol=1e-9)
    states = rollout_states(x_h, resp.controls, leader)
    assert np.max(np.abs(resp.gaps - [s.gap for s in states])) < 1e-9
    assert np.max(np.abs(resp.speeds - [s.speed for s in states])) < 1e-9
    assert np.max(np.abs(resp.accels - [s.accel for s in states])) < 1e-9


def test_best_response_beats_grid_oracle():
    # solver searches the continuum; the oracle enumerates 5^3 sequences
    w = weights()
    hc = constraints()
    x_h = dynamics.LongitudinalState(gap=22.0, speed=17.0, accel=0.0)
    leader = np.array([19.0, 18.8, 18.6, 18.4])
    best = np.inf
    for cand in itertools.product((-2.0, -1.0, 0.0, 1.0, 2.0), repeat=3):
        states = rollout_states(x_h, cand, leader)
        ok = all(s.gap >= hc.d_min and hc.v_min <= s.speed <= hc.v_max
                 for s in states)
        if ok:
            best = min(best, rollout_true_cost(x_h, cand, leader, w, 25.0))
    resp = dm.respond_to_leader(x_h, leader, w, hc, DISC, 3, v_limit=25.0)
    assert resp.cost <= best + 1e-6


def test_best_response_local_optimality_certificate():
    w = weights()
    hc = constraints()
    cases = [
        (dynamics.LongitudinalState(25.0, 18.0, 0.0),
         np.linspace(20.0, 14.0, 13)),
        (dynamics.LongitudinalState(40.0, 12.0, -0.5),
         np.linspace(13.0, 19.0, 13)),
        (dynamics.LongitudinalState(15.0, 21.0, 0.4),
         np.full(13, 21.0)),
    ]
    for x_h, leader in cases:
        resp = dm.respond_to_leader(x_h, leader, w, hc, DISC, 12,
                                    v_limit=25.0)
        base = resp.cost
        for j in range(12):
            for eps in (1e-3, -1e-3):
                u = resp.controls.copy()
                u[j] += eps
                states = rollout_states(x_h, u, leader)
                if not all(s.gap >= hc.d_min
                           and hc.v_min <= s.speed <= hc.v_max
                           for s in states):
                    continue
                pert = rollout_true_cost(x_h, u, leader, w, 25.0)
                assert pert >= base - 1e-6


def test_best_response_respects_binding_speed_ceiling():
    # the speed limit and the leader both pull above v_max
    w = weights()
    hc = constraints(v_max=20.0)
    x_h = dynamics.LongitudinalState(gap=40.0, speed=19.5, accel=0.0)
    leader = np.full(21, 22.0)
    resp = dm.respond_to_leader(x_h, leader, w, hc, DISC, 20, v_limit=25.0)
    assert resp.feasible
    assert np.max(resp.speeds) <= 20.0 + 1e-6
    assert np.min(resp.gaps) >= hc.d_min - 1e-6


def test_best_response_infeasible_flagged_not_raised():
    w = weights()
    hc = constraints(d_min=5.0)
    x_h = dynamics.LongitudinalState(gap=3.0, speed=5.0, accel=0.0)
    leader = np.zeros(11)
    resp = dm.respond_to_leader(x_h, leader, w, hc, DISC, 10, v_limit=25.0)
    assert not resp.feasible
    assert resp.max_violation > 1e-3
    assert np.all(np.isfinite(resp.controls))


def test_best_response_deterministic_and_warm_start_consistent():
    w = weights()
    x_h = dynamics.LongitudinalState(gap=20.0, speed=18.0, accel=0.3)
    leader = np.linspace(19.0, 15.0, 16)
    a = dm.respond_to_leader(x_h, leader, w, constraints(), DISC, 15,
                             v_limit=25.0)
    b = dm.respond_to_leader(x_h, leader, w, constraints(), DISC, 15,
                             v_limit=25.0)
    assert np.array_equal(a.controls, b.controls)
    warm = dm.respond_to_leader(x_h, leader, w, constraints(), DISC, 15,
                                v_limit=25.0, warm_start=a.controls + 0.05)
    assert np.max(np.abs(warm.controls - a.controls)) < 1e-5
    assert abs(warm.cost - a.cost) < 1e-8


def test_best_response_scale_covariance():
    # positively scaling all weights leaves the planned motion unchanged
    w1 = weights(w=(0.1, 0.5, 0.5, 1.0))
    w2 = weights(w=(0.3, 1.5, 1.5, 3.0))
    x_h = dynamics.LongitudinalState(gap=26.0, speed=16.0, accel=0.1)
    leader = np.linspace(17.0, 14.0, 13)
    r1 = dm.respond_to_leader(x_h, leader, w1, constraints(), DISC, 12,
                              v_limit=25.0)
    r2 = dm.respond_to_leader(x_h, leader, w2, constraints(), DISC, 12,
                              v_limit=25.0)
    assert r1.feasible and r2.feasible
    assert np.max(np.abs(r1.controls - r2.controls)) < 1e-5
    assert math.isclose(r2.cost, 3.0 * r1.cost, rel_tol=1e-6)


def direct_response_terms(maps, x0, leader, w, hc, v_limit, penalty, eps, u):
    """Value, gradient, Hessians and adjoint of the response problem,
    term by term from the per-component horizon maps."""
    G, V, A = maps.gap_u, maps.speed_u, maps.accel_u
    w_a, w_ds, w_rs, w_rd = w.w
    tau = w.tau_headway
    g0, v0, a0 = maps.free_response(x0, leader[:-1])
    g, v, a = G @ u + g0, V @ u + v0, A @ u + a0
    off = tau * v + w.min_gap - g
    smooth = np.sqrt(off ** 2 + eps ** 2)
    viol_d = np.maximum(0.0, hc.d_min - g)
    viol_lo = np.maximum(0.0, hc.v_min - v)
    viol_hi = np.maximum(0.0, v - hc.v_max)
    f = (w_a * np.sum(a ** 2) + w_ds * np.sum((v_limit - v) ** 2)
         + w_rs * np.sum((leader[1:] - v) ** 2) + w_rd * np.sum(smooth)
         + penalty * np.sum(viol_d ** 2 + viol_lo ** 2 + viol_hi ** 2))
    df_dv = (-2 * w_ds * (v_limit - v) - 2 * w_rs * (leader[1:] - v)
             + w_rd * tau * off / smooth + 2 * penalty * (viol_hi - viol_lo))
    df_dg = -w_rd * off / smooth - 2 * penalty * viol_d
    grad = A.T @ (2 * w_a * a) + V.T @ df_dv + G.T @ df_dg
    dv = 2 * (w_ds + w_rs) + 2 * penalty * ((v < hc.v_min) | (v > hc.v_max))
    dg = 2 * penalty * (g < hc.d_min)
    omega = tau * V - G

    def hessian(gap_curve):
        return (2 * w_a * A.T @ A + V.T @ np.diag(dv) @ V
                + G.T @ np.diag(dg) @ G
                + omega.T @ np.diag(w_rd * gap_curve) @ omega
                + 1e-10 * np.eye(len(u)))

    newton = hessian(eps ** 2 / smooth ** 3)
    majorizer = hessian(1.0 / smooth)
    speed_grad = -2.0 * (v_limit - v)
    y = np.linalg.solve(newton, V.T @ speed_grad)
    cross = (maps.accel_p.T @ (2 * w_a * (A @ y))
             + maps.speed_p.T @ (dv * (V @ y))
             + maps.gap_p.T @ (dg * (G @ y))
             + (tau * maps.speed_p - maps.gap_p).T
             @ (w_rd * eps ** 2 / smooth ** 3 * (omega @ y)))
    sens = np.zeros(len(u) + 1)
    sens[:-1] = maps.speed_p.T @ speed_grad - cross
    sens[1:] += 2 * w_rs * (V @ y)
    return f, grad, newton, majorizer, speed_grad, sens


def test_response_kernel_matches_direct_formulas():
    # the cached blocks are keyed by horizon and weights: weight sets that
    # differ in w or only in the headway, on two horizons rebuilt in the
    # other order after the horizon-map cache is dropped, must each
    # reproduce the term-by-term formulas
    w_set = (weights(), weights(tau=1.1, ds=3.0),
             weights(w=(0.4, 0.2, 0.9, 2.5), tau=1.1, ds=3.0))
    x0 = dynamics.LongitudinalState(gap=28.0, speed=19.5, accel=0.3)
    hcs = {"inactive": constraints(v_min=0.0, v_max=40.0, d_min=1.0),
           "active": constraints(v_min=19.2, v_max=19.8, d_min=27.5)}

    def close(got, want):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale

    penalty, eps = dm.defaults.PENALTY_WEIGHT, dm.defaults.SMOOTH_EPS
    for horizons in ((30, 12), (12, 30)):
        dynamics._MAPS_CACHE.clear()
        for n in horizons:
            rng = np.random.default_rng(n)
            maps = dynamics.build_horizon_maps(DISC, n)
            leader = 19.5 + np.cumsum(rng.normal(0.0, 0.3, n + 1))
            u = rng.normal(0.0, 1.5, n)
            for w, (label, hc) in itertools.product(w_set, hcs.items()):
                prob = dm._ResponseProblem(maps, x0, leader, w, hc, 25.0,
                                           penalty, eps=eps)
                assert (prob.max_violation(u) > 0) == (label == "active")
                f, grad, newton, majorizer, speed_grad, sens = \
                    direct_response_terms(maps, x0, leader, w, hc, 25.0,
                                          penalty, eps, u)
                got_f, got_grad = prob.value_grad(u)
                close(np.array([got_f]), np.array([f]))
                close(got_grad, grad)
                close(prob.hessian(*prob.curvature(u)), newton)
                close(prob.hessian(*prob.curvature(u, majorize=True)),
                      majorizer)
                close(prob.leader_sensitivity(u, speed_grad), sens)


def test_spd_solve_matches_lu_and_rejects_indefinite():
    rng = np.random.default_rng(11)
    root = rng.normal(size=(30, 30))
    spd = root @ root.T + 30.0 * np.eye(30)
    b = rng.normal(size=30)
    want = np.linalg.solve(spd, b)
    got = dm._spd_solve(spd, b)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    indefinite = spd - 2.0 * np.linalg.eigvalsh(spd)[-1] * np.eye(30) / 3.0
    assert np.min(np.linalg.eigvalsh(indefinite)) < 0
    with pytest.raises(np.linalg.LinAlgError):
        dm._spd_solve(indefinite, b)


def make_demo(T=40, dt=0.1, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(T) * dt
    return dm.Demonstration(
        t=t,
        gaps=20 + 3 * np.sin(t) + rng.normal(0, 0.1, T),
        speeds=15 + np.cos(t / 2),
        accels=rng.normal(0, 0.3, T),
        leader_speeds=15 + np.cos(t / 2 + 0.3),
        controls=rng.normal(0, 0.3, T),
    )


def test_demo_validation():
    with pytest.raises(InvalidParameterError):
        dm.Demonstration(t=np.array([]), gaps=np.array([]),
                         speeds=np.array([]), accels=np.array([]),
                         leader_speeds=np.array([]), controls=np.array([]))
    with pytest.raises(InvalidParameterError):
        dm.Demonstration(t=np.array([0.0, 0.1, 0.3]), gaps=np.zeros(3) + 20,
                         speeds=np.zeros(3), accels=np.zeros(3),
                         leader_speeds=np.zeros(3), controls=np.zeros(3))


def test_demo_csv_round_trip(tmp_path):
    demo = make_demo()
    path = tmp_path / "demo.csv"
    dm.save_demonstration_csv(path, demo)
    back = dm.load_demonstration_csv(path)
    for name in ("t", "gaps", "speeds", "accels", "leader_speeds",
                 "controls"):
        assert np.array_equal(getattr(demo, name), getattr(back, name))


def test_demo_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text("time,gap,speed,accel,leader,control\n0,1,2,3,4,5\n")
    with pytest.raises(TraceParseError):
        dm.load_demonstration_csv(path)


def test_demo_csv_rejects_non_uniform_dt(tmp_path):
    path = tmp_path / "demo.csv"
    header = ",".join(dm.DEMO_HEADER)
    path.write_text(f"{header}\n0.0,20,15,0,15,0\n0.1,20,15,0,15,0\n"
                    "0.25,20,15,0,15,0\n")
    with pytest.raises(TraceParseError) as err:
        dm.load_demonstration_csv(path)
    assert "non-uniform" in str(err.value)
    assert err.value.line == 4


def test_demo_csv_non_uniform_dt_line_counts_blank_lines(tmp_path):
    path = tmp_path / "demo.csv"
    header = ",".join(dm.DEMO_HEADER)
    path.write_text(f"{header}\n0.0,20,15,0,15,0\n\n0.1,20,15,0,15,0\n"
                    "0.25,20,15,0,15,0\n")
    with pytest.raises(TraceParseError) as err:
        dm.load_demonstration_csv(path)
    assert err.value.line == 5


def test_demo_csv_rejects_malformed_number(tmp_path):
    path = tmp_path / "demo.csv"
    header = ",".join(dm.DEMO_HEADER)
    path.write_text(f"{header}\n0.0,20,fifteen,0,15,0\n")
    with pytest.raises(TraceParseError) as err:
        dm.load_demonstration_csv(path)
    assert err.value.line == 2


def test_estimate_tau_headway():
    t = np.arange(4) * 0.1
    demo = dm.Demonstration(t=t, gaps=np.array([30.0, 24.0, 20.0, 0.5]),
                            speeds=np.array([15.0, 16.0, 0.5, 0.9]),
                            accels=np.zeros(4), leader_speeds=np.full(4, 15.0),
                            controls=np.zeros(4))
    # slow samples (<= 1 m/s) are excluded, so the min is 24/16
    assert math.isclose(dm.estimate_tau_headway([demo]), 1.5,
                        rel_tol=0, abs_tol=1e-12)
    crawl = dm.Demonstration(t=t[:2], gaps=np.array([5.0, 5.0]),
                             speeds=np.array([0.2, 0.1]), accels=np.zeros(2),
                             leader_speeds=np.zeros(2), controls=np.zeros(2))
    with pytest.raises(InvalidParameterError):
        dm.estimate_tau_headway([crawl])


def test_fit_zero_iters_returns_initial_weights():
    demo = make_demo()
    w0 = weights()
    out = dm.fit_weights_maxent([demo], w0, 0.2, 0, 0.05,
                                hc=constraints(), disc=DISC, v_limit=25.0,
                                n_steps=10, tau_override=1.5)
    assert out.weights.w == w0.w
    assert out.iterations == 0
    assert not out.converged
    # demonstrations recorded at another step than the dynamics'
    with pytest.raises(InvalidParameterError, match="differs"):
        dm.fit_weights_maxent([make_demo(dt=0.05)], w0, 0.2, 0, 0.05,
                              hc=constraints(), disc=DISC, v_limit=25.0,
                              n_steps=10, tau_override=1.5)


def test_fit_degenerate_fixed_point_terminates_at_w0():
    v = 20.0
    demo = dm.Demonstration(t=np.array([0.0]),
                            gaps=np.array([v * 1.5 + 5.0]),
                            speeds=np.array([v]), accels=np.array([0.0]),
                            leader_speeds=np.array([v]),
                            controls=np.array([0.0]))
    w0 = weights(w=(0.4, 0.2, 0.9, 0.1))
    out = dm.fit_weights_maxent([demo], w0, 0.2, 50, 0.05,
                                hc=constraints(v_max=25.0), disc=DISC,
                                v_limit=v, n_steps=8, tau_override=1.5)
    assert out.converged
    assert out.iterations == 0
    assert out.weights.w == w0.w


def test_fit_divergence_guard():
    demo = make_demo()
    with pytest.raises(FitDivergenceError) as err:
        dm.fit_weights_maxent([demo], weights(w=(1, 1, 1, 1)), 1e12, 10, 1e-9,
                              hc=constraints(), disc=DISC, v_limit=25.0,
                              n_steps=8, tau_override=1.5)
    assert err.value.iteration == 0


def synth_demo_from_model(w_true, leader_profile, x0, T, n_steps=12,
                          v_limit=25.0, hc=None):
    hc = hc or constraints()
    x = x0
    t = np.arange(T) * DISC.dt
    gaps, speeds, accels, controls = [], [], [], []
    warm = None
    for i in range(T):
        gaps.append(x.gap); speeds.append(x.speed); accels.append(x.accel)
        preview = dynamics.hold_last(leader_profile[i:], n_steps + 1)
        resp = dm.respond_to_leader(x, preview, w_true, hc, DISC, n_steps,
                                    v_limit, warm_start=warm)
        u0 = float(resp.controls[0])
        warm = np.append(resp.controls[1:], resp.controls[-1])
        controls.append(u0)
        x = dynamics.step(DISC, x, u0, float(leader_profile[i]))
    return dm.Demonstration(t=t, gaps=np.array(gaps), speeds=np.array(speeds),
                            accels=np.array(accels),
                            leader_speeds=leader_profile[:T],
                            controls=np.array(controls))


def test_replan_rollout_matches_reference_loop():
    w = weights(w=(0.1, 1.0, 0.5, 0.3))
    profile = np.concatenate([np.full(10, 18.0), np.linspace(18, 12, 15),
                              np.full(15, 12.0)])
    x0 = dynamics.LongitudinalState(30.0, 18.0, 0.0)
    ref = synth_demo_from_model(w, profile, x0, len(profile))
    states, controls = dm.replan_rollout(x0, profile, len(profile), w,
                                         constraints(), DISC, 12, 25.0)
    assert np.array_equal(controls, ref.controls)
    assert np.array_equal(states[:, :-1],
                          np.vstack([ref.gaps, ref.speeds, ref.accels]))
    last = dynamics.step(DISC, ref.state(len(ref) - 1), controls[-1],
                         profile[-1])
    assert np.array_equal(states[:, -1], last.as_array())


def test_fit_round_trip_matches_feature_sums():
    w_true = weights(w=(0.1, 1.0, 0.5, 0.3))
    profile_a = np.concatenate([np.full(20, 18.0), np.linspace(18, 12, 25),
                                np.full(35, 12.0)])
    profile_b = np.concatenate([np.full(20, 14.0), np.linspace(14, 20, 30),
                                np.full(30, 20.0)])
    demos = [
        synth_demo_from_model(w_true, profile_a,
                              dynamics.LongitudinalState(35.0, 18.0, 0.0), 80),
        synth_demo_from_model(w_true, profile_b,
                              dynamics.LongitudinalState(20.0, 14.0, 0.0), 80),
    ]
    out = dm.fit_weights_maxent(demos, weights(w=(1.0, 1.0, 1.0, 1.0)),
                                0.25, 120, 0.05, hc=constraints(), disc=DISC,
                                v_limit=25.0, n_steps=12)
    assert out.converged
    scale = np.maximum(np.abs(out.demo_features), 1e-8)
    rel = np.abs(out.model_features - out.demo_features) / scale
    assert np.all(rel <= 0.05)
