import math
from dataclasses import fields, replace

import numpy as np
import pytest

from svosim import simulation
from svosim.cli_io import ExperimentConfig, build_setup
from svosim.controller import (AvConstraints, EgoisticParams, SvoConfig,
                               plan)
from svosim.driver_model import DriverWeights, HumanConstraints, best_response
from svosim.dynamics import LongitudinalState, build_continuous, \
    discretize_zoh, step
from svosim.errors import InvalidParameterError, SimulationError
from svosim.simulation import (EpisodeTrace, Scenario, compute_metrics,
                               default_scenario, run_episode,
                               scenario_constraints, scenario_idm, sweep_svo,
                               synthetic_pv_profile)
from svosim.traffic_flow import IdmParams, equilibrium_gap, step_fleet

DISC = discretize_zoh(build_continuous(0.45), 0.1)
EGO = EgoisticParams(min_gap=5.0, time_headway=1.2)
WH = DriverWeights(w=(0.1, 0.5, 0.5, 1.0), tau_headway=1.5, min_gap=5.0)


def make_scenario(pv, v_limit=25.0, v0=None):
    pv = np.asarray(pv, dtype=float)
    if v0 is None:
        v0 = float(pv[0])
    idm = IdmParams(max_accel=2.0, comfort_decel=2.0, min_spacing=3.0,
                    time_gap=1.0, exponent=4.0,
                    desired_speed=float(np.max(pv)) + 2.0)
    gap_eq = equilibrium_gap(v0, idm)
    scn = Scenario(pv_speeds=pv, dt=0.1, v_limit=v_limit,
                   x_av=LongitudinalState(5.0 + 1.2 * v0, v0, 0.0),
                   x_hv0=LongitudinalState(5.0 + 1.5 * v0, v0, 0.0),
                   fleet=tuple(LongitudinalState(gap_eq, v0, 0.0)
                               for _ in range(3)),
                   label="test")
    return scn, idm


@pytest.fixture(scope="module")
def braking_run():
    """One 100-step episode over the start of the shipped profile."""
    scn, idm = make_scenario(synthetic_pv_profile()[:100])
    cons = scenario_constraints(scn)
    trace = run_episode(scn, SvoConfig(math.pi / 6), WH, cons, EGO, idm, DISC)
    return scn, idm, cons, trace


def test_profile_shape():
    pv = synthetic_pv_profile()
    assert len(pv) == 660
    assert pv[0] == 18.0
    assert np.min(pv) == 6.0 and np.max(pv) == 22.0
    # plateaus of the piecewise-linear profile
    assert np.all(pv[:60] == 18.0)
    assert np.all(pv[180:420] == 6.0)
    assert np.all(pv[540:] == 22.0)


def test_default_scenario_consistent():
    scn = default_scenario()
    assert scn.n_steps == 660
    assert scn.x_av.gap == pytest.approx(5.0 + 1.2 * 18.0)
    assert scn.x_hv0.gap == pytest.approx(5.0 + 1.5 * 18.0)
    assert len(scn.fleet) == 3
    assert scenario_constraints(scn).v_max == 22.0
    assert scenario_idm(scn).desired_speed == 22.0
    # the CLI's default config builds the same experiment
    setup = build_setup(ExperimentConfig())
    for f in fields(Scenario):
        ours, theirs = getattr(setup.scenario, f.name), getattr(scn, f.name)
        assert np.array_equal(ours, theirs) if f.name == "pv_speeds" \
            else ours == theirs, f.name
    assert setup.cons == scenario_constraints(scn)
    assert setup.idm == scenario_idm(scn)


def test_scenario_validation():
    ok = np.full(10, 15.0)
    state = LongitudinalState(20.0, 15.0, 0.0)
    fleet = (state,) * 3
    with pytest.raises(InvalidParameterError):
        Scenario(np.array([]), 0.1, 25.0, state, state, fleet)
    with pytest.raises(InvalidParameterError):
        Scenario(np.array([10.0, -1.0]), 0.1, 25.0, state, state, fleet)
    with pytest.raises(InvalidParameterError):
        Scenario(np.array([10.0, np.nan]), 0.1, 25.0, state, state, fleet)
    with pytest.raises(InvalidParameterError):
        Scenario(ok, 0.0, 25.0, state, state, fleet)
    with pytest.raises(InvalidParameterError):
        Scenario(ok, 0.1, -5.0, state, state, fleet)


def test_episode_rejects_mismatched_dt():
    scn, idm = make_scenario(np.full(10, 15.0))
    wrong = discretize_zoh(build_continuous(0.45), 0.05)
    with pytest.raises(InvalidParameterError):
        run_episode(scn, SvoConfig(0.0), WH, scenario_constraints(scn), EGO,
                    idm, wrong)


@pytest.mark.parametrize("vehicle", ["x_av", "x_hv0"])
def test_episode_rejects_start_below_min_gap(vehicle, pools, monkeypatch):
    # the first plan would be infeasible by construction
    scn, idm = make_scenario(np.full(10, 15.0))
    scn = replace(scn, **{vehicle: LongitudinalState(4.0, 15.0, 0.0)})
    cons = scenario_constraints(scn)

    def no_plan(*args, **kwargs):
        raise AssertionError("planned a step")

    monkeypatch.setattr(simulation, "plan", no_plan)
    with pytest.raises(InvalidParameterError, match="below"):
        run_episode(scn, SvoConfig(0.0), WH, cons, EGO, idm, DISC)
    with pytest.raises(InvalidParameterError, match="below"):
        sweep_svo(scn, (0.0, math.pi / 4), WH, cons, EGO, idm, DISC)
    assert pools == []


def test_stacked_equilibrium_holds():
    # with the speed limit equal to the traffic speed every term of
    # every objective is zero at the initial state, so all five
    # vehicles should hold speed for the whole episode at any phi
    v = 20.0
    scn, idm = make_scenario(np.full(100, v), v_limit=v)
    cons = scenario_constraints(scn)
    trace = run_episode(scn, SvoConfig(math.pi / 4), WH, cons, EGO, idm, DISC)
    assert np.max(np.abs(trace.speeds - v)) < 1e-3
    drift = np.abs(trace.gaps - trace.gaps[:, :1])
    assert np.max(drift) < 1e-2
    assert np.max(np.abs(trace.controls[0])) < 1e-3
    assert bool(trace.inner_feasible.all())


def test_trace_replays_through_dynamics(braking_run):
    scn, idm, cons, tr = braking_run
    n = len(tr)
    for i in range(n - 1):
        av = LongitudinalState(tr.gaps[0, i], tr.speeds[0, i],
                               tr.accels[0, i])
        nxt = step(DISC, av, float(tr.controls[0, i]),
                   float(tr.pv_speeds[i]))
        assert abs(nxt.gap - tr.gaps[0, i + 1]) < 1e-10
        assert abs(nxt.speed - tr.speeds[0, i + 1]) < 1e-10
        assert abs(nxt.accel - tr.accels[0, i + 1]) < 1e-10
        hv = LongitudinalState(tr.gaps[1, i], tr.speeds[1, i],
                               tr.accels[1, i])
        nxt = step(DISC, hv, float(tr.controls[1, i]),
                   float(tr.speeds[0, i]))
        assert abs(nxt.gap - tr.gaps[1, i + 1]) < 1e-10
        assert abs(nxt.speed - tr.speeds[1, i + 1]) < 1e-10


def test_fleet_rows_replay_through_idm(braking_run):
    scn, idm, cons, tr = braking_run
    for i in range(len(tr) - 1):
        fleet = [LongitudinalState(tr.gaps[r, i], tr.speeds[r, i],
                                   tr.accels[r, i]) for r in (2, 3, 4)]
        out = step_fleet(fleet, float(tr.speeds[1, i]),
                         float(tr.speeds[1, i + 1]), idm, scn.dt)
        for r, s in zip((2, 3, 4), out):
            assert abs(s.gap - tr.gaps[r, i + 1]) < 1e-10
            assert abs(s.speed - tr.speeds[r, i + 1]) < 1e-10
            assert abs(s.accel - tr.controls[r, i]) < 1e-10


def test_realized_states_respect_constraints(braking_run):
    scn, idm, cons, tr = braking_run
    assert np.min(tr.gaps[0]) >= cons.d_min - 1e-4
    assert np.max(tr.gaps[0]) <= cons.d_max + 1e-4
    assert np.min(tr.speeds[0]) >= cons.v_min - 1e-4
    assert np.max(tr.speeds[0]) <= cons.v_max + 1e-4
    assert np.min(tr.accels[0]) >= cons.a_min - 1e-4
    assert np.max(tr.accels[0]) <= cons.a_max + 1e-4
    assert np.min(tr.controls[0]) >= cons.u_min - 1e-12
    assert np.max(tr.controls[0]) <= cons.u_max + 1e-12
    assert np.min(tr.gaps[1]) >= WH.min_gap - 1e-4
    assert np.min(tr.gaps) > 0.0


def test_episode_deterministic(braking_run):
    scn, idm, cons, tr = braking_run
    again = run_episode(scn, SvoConfig(math.pi / 6), WH, cons, EGO, idm, DISC)
    assert np.array_equal(tr.gaps, again.gaps)
    assert np.array_equal(tr.speeds, again.speeds)
    assert np.array_equal(tr.controls, again.controls)
    assert np.array_equal(tr.cost_total, again.cost_total)
    assert np.array_equal(tr.converged, again.converged)


@pytest.fixture(scope="module")
def egoistic_run():
    """One 60-step phi = 0 episode over the braking part of the profile."""
    scn, idm = make_scenario(synthetic_pv_profile()[50:110])
    cons = scenario_constraints(scn)
    trace = run_episode(scn, SvoConfig(0.0), WH, cons, EGO, idm, DISC)
    return scn, idm, cons, trace


def _separate_plant_solve_loop(scn, idm, cons):
    """Closed loop that plans cold and solves the plant's response apart."""
    hc = HumanConstraints(v_min=cons.v_min, v_max=cons.v_max,
                          d_min=WH.min_gap)
    x_av, x_h, fleet = scn.x_av, scn.x_hv0, list(scn.fleet)
    gaps = np.zeros((5, scn.n_steps))
    controls = np.zeros((2, scn.n_steps))
    warm_plan = warm_resp = None
    for i in range(scn.n_steps):
        preview = scn.pv_speeds[i:]
        res = plan(x_av, x_h, preview, WH, SvoConfig(0.0), cons, EGO,
                   scn.v_limit, DISC, warm_start=warm_plan,
                   settings=simulation.EPISODE_PLAN_SETTINGS)
        resp = best_response(x_av, x_h, res.u_seq, preview, WH, hc, DISC,
                             scn.v_limit, warm_start=warm_resp)
        gaps[:, i] = [x.gap for x in [x_av, x_h] + fleet]
        controls[:, i] = res.u_seq[0], resp.controls[0]
        av_speed, hv0_speed = x_av.speed, x_h.speed
        x_av = step(DISC, x_av, controls[0, i], float(scn.pv_speeds[i]))
        x_h = step(DISC, x_h, controls[1, i], av_speed)
        fleet = step_fleet(fleet, hv0_speed, x_h.speed, idm, scn.dt)
        warm_plan = np.append(res.u_seq[1:], res.u_seq[-1])
        warm_resp = np.append(resp.controls[1:], resp.controls[-1])
    return gaps, controls


def test_episode_applies_planner_response(egoistic_run):
    # the plant applies the planner's warm-started refined response in
    # place of a second solve; the phi = 0 AV plan never reads it, and
    # the two responses solve the same problem
    scn, idm, cons, tr = egoistic_run
    gaps, controls = _separate_plant_solve_loop(scn, idm, cons)
    assert np.array_equal(tr.gaps[0], gaps[0])
    assert np.array_equal(tr.controls[0], controls[0])
    assert np.max(np.abs(tr.gaps[1:] - gaps[1:])) <= 1e-6


def _recorded_episode(monkeypatch, scn, idm, cons, plant_weights):
    """An episode at phi = 0, with the first predicted driver control of
    every plan it made."""
    planned = []

    def recording_plan(*args, **kwargs):
        planned.append(plan(*args, **kwargs))
        return planned[-1]

    monkeypatch.setattr(simulation, "plan", recording_plan)
    tr = run_episode(scn, SvoConfig(0.0), WH, cons, EGO, idm, DISC,
                     plant_weights=plant_weights)
    return tr, planned


def test_plant_weights_equal_to_planner_weights_is_default(egoistic_run,
                                                           monkeypatch):
    scn, idm, cons, tr = egoistic_run
    same, planned = _recorded_episode(monkeypatch, scn, idm, cons, WH)
    for name in ("gaps", "speeds", "accels", "controls", "cost_total",
                 "inner_feasible"):
        assert np.array_equal(getattr(tr, name), getattr(same, name)), name
    # no second driver solve: the plant applies the planner's response
    assert np.array_equal(same.controls[1],
                          [res.hv0_controls[0] for res in planned])


def test_mismatched_plant_solves_its_own_response(monkeypatch):
    scn, idm = make_scenario(synthetic_pv_profile()[50:70])
    cons = scenario_constraints(scn)
    other = DriverWeights(w=(1.0, 0.1, 2.0, 0.5), tau_headway=2.0,
                          min_gap=6.0)
    tr, planned = _recorded_episode(monkeypatch, scn, idm, cons, other)
    predicted = np.array([res.hv0_controls[0] for res in planned])
    assert np.all(np.abs(tr.controls[1] - predicted) > 1e-6)
    hc = HumanConstraints(v_min=cons.v_min, v_max=cons.v_max,
                          d_min=other.min_gap)
    first = best_response(scn.x_av, scn.x_hv0, planned[0].u_seq,
                          scn.pv_speeds, other, hc, DISC, scn.v_limit)
    assert tr.controls[1, 0] == first.controls[0]


@pytest.fixture
def pools(monkeypatch):
    """Sizes of the worker pools sweep_svo starts, on a host of 2 CPUs."""
    import concurrent.futures
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(simulation, "_available_cpus", lambda: 2)
    return sizes


def _assert_entries_equal(a, b):
    assert (a.phi, a.error, a.metrics) == (b.phi, b.error, b.metrics)
    for f in fields(EpisodeTrace):
        x, y = getattr(a.trace, f.name), getattr(b.trace, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def test_sweep_matches_separate_episodes(pools):
    scn, idm = make_scenario(synthetic_pv_profile()[:30])
    cons = scenario_constraints(scn)
    levels = (0.0, math.pi / 4)
    entries = sweep_svo(scn, levels, WH, cons, EGO, idm, DISC)
    assert pools == [2]
    assert len(entries) == len(levels)
    for phi, entry in zip(levels, entries):
        trace = run_episode(scn, SvoConfig(phi), WH, cons, EGO, idm, DISC)
        _assert_entries_equal(entry, simulation.SweepEntry(
            phi=phi, trace=trace, metrics=compute_metrics(trace), error=None))


def test_sweep_single_cpu_runs_in_process(pools, monkeypatch):
    scn, idm = make_scenario(synthetic_pv_profile()[:30])
    cons = scenario_constraints(scn)
    levels = (math.pi / 12, 0.0)
    pooled = sweep_svo(scn, levels, WH, cons, EGO, idm, DISC)
    monkeypatch.setattr(simulation, "_available_cpus", lambda: 1)
    serial = sweep_svo(scn, levels, WH, cons, EGO, idm, DISC)
    assert pools == [2]
    for a, b in zip(pooled, serial, strict=True):
        _assert_entries_equal(a, b)


def test_sweep_levels_independent_of_order(pools):
    scn, idm = make_scenario(synthetic_pv_profile()[:50])
    cons = scenario_constraints(scn)
    fwd = sweep_svo(scn, (0.0, math.pi / 4), WH, cons, EGO, idm, DISC)
    rev = sweep_svo(scn, (math.pi / 4, 0.0), WH, cons, EGO, idm, DISC)
    assert pools == [2, 2]
    assert [e.phi for e in fwd] == [0.0, math.pi / 4]
    assert [e.phi for e in rev] == [math.pi / 4, 0.0]
    for a in fwd:
        _assert_entries_equal(a, next(e for e in rev if e.phi == a.phi))


def test_sweep_validates_levels_before_running(pools):
    scn, idm = make_scenario(np.full(10, 15.0))
    with pytest.raises(InvalidParameterError):
        sweep_svo(scn, (0.0, 1.0), WH, scenario_constraints(scn), EGO, idm,
                  DISC)
    assert pools == []


def test_sweep_records_episode_failures(pools):
    # lead stops instantly in front of a tight gap; no feasible braking
    # exists and every level's episode ends in a failed state
    pv = np.zeros(40)
    idm = IdmParams(max_accel=2.0, comfort_decel=2.0, min_spacing=3.0,
                    time_gap=1.0, exponent=4.0, desired_speed=20.0)
    scn = Scenario(pv_speeds=pv, dt=0.1, v_limit=25.0,
                   x_av=LongitudinalState(6.0, 20.0, 0.0),
                   x_hv0=LongitudinalState(35.0, 20.0, 0.0),
                   fleet=tuple(LongitudinalState(23.0, 20.0, 0.0)
                               for _ in range(3)),
                   label="wall")
    cons = AvConstraints(d_min=5.0, d_max=45.0, v_min=0.0, v_max=20.0,
                         u_min=-4.0, u_max=4.0, a_min=-3.0, a_max=3.0)
    entries = sweep_svo(scn, (0.0, math.pi / 4), WH, cons, EGO, idm, DISC)
    assert pools == [2]
    for e in entries:
        assert e.trace is None and e.metrics is None
        assert "gap" in e.error


def test_episode_failure_raises_directly():
    pv = np.zeros(40)
    idm = IdmParams(max_accel=2.0, comfort_decel=2.0, min_spacing=3.0,
                    time_gap=1.0, exponent=4.0, desired_speed=20.0)
    scn = Scenario(pv_speeds=pv, dt=0.1, v_limit=25.0,
                   x_av=LongitudinalState(6.0, 20.0, 0.0),
                   x_hv0=LongitudinalState(35.0, 20.0, 0.0),
                   fleet=tuple(LongitudinalState(23.0, 20.0, 0.0)
                               for _ in range(3)),
                   label="wall")
    cons = AvConstraints(d_min=5.0, d_max=45.0, v_min=0.0, v_max=20.0,
                         u_min=-4.0, u_max=4.0, a_min=-3.0, a_max=3.0)
    with pytest.raises(SimulationError) as err:
        run_episode(scn, SvoConfig(0.0), WH, cons, EGO, idm, DISC)
    assert err.value.step is not None


def _tiny_trace(gaps, speeds):
    gaps = np.asarray(gaps, dtype=float)
    speeds = np.asarray(speeds, dtype=float)
    n_veh, n = gaps.shape
    zeros = np.zeros_like(gaps)
    return EpisodeTrace(t=np.arange(n) * 0.1, pv_speeds=np.full(n, 10.0),
                        gaps=gaps, speeds=speeds, accels=zeros,
                        controls=zeros, cost_egoistic=np.zeros(n),
                        cost_courtesy=np.zeros(n), cost_total=np.zeros(n),
                        converged=np.ones(n, dtype=bool),
                        inner_feasible=np.ones(n, dtype=bool),
                        outer_iters=np.zeros(n, dtype=int),
                        outer_status=np.zeros(n, dtype=int),
                        dt=0.1, v_limit=25.0, phi=0.0, label="tiny")


def test_metrics_hand_computed():
    tr = _tiny_trace(gaps=[[20.0, 30.0], [10.0, 20.0]],
                     speeds=[[10.0, 10.0], [0.0, 10.0]])
    m = compute_metrics(tr)
    assert m.pair_labels == ("av", "hv0")
    assert m.avg_gap == (25.0, 15.0)
    # stopped sample is excluded from headway but kept in the gap mean
    assert m.avg_headway[0] == pytest.approx(2.5)
    assert m.avg_headway[1] == pytest.approx(2.0)
    assert m.headway_excluded == (0, 1)
    assert m.traffic_avg_gap == pytest.approx(20.0)
    assert m.traffic_avg_headway == pytest.approx(2.25)


def test_metrics_all_samples_below_floor():
    tr = _tiny_trace(gaps=[[12.0, 14.0]], speeds=[[0.0, 0.5]])
    m = compute_metrics(tr)
    # the floor comparison is strict, 0.5 m/s itself is excluded
    assert m.avg_headway == (None,)
    assert m.headway_excluded == (2,)
    assert m.traffic_avg_headway is None
    assert m.traffic_avg_gap == pytest.approx(13.0)


def test_metrics_bounds(braking_run):
    scn, idm, cons, tr = braking_run
    m = compute_metrics(tr)
    for row in range(5):
        assert tr.gaps[row].min() <= m.avg_gap[row] <= tr.gaps[row].max()
        moving = tr.speeds[row] > m.headway_speed_floor
        ratios = tr.gaps[row][moving] / tr.speeds[row][moving]
        assert ratios.min() <= m.avg_headway[row] <= ratios.max()


def test_metrics_empty_trace_rejected():
    tr = _tiny_trace(gaps=[[20.0]], speeds=[[10.0]])
    empty = EpisodeTrace(t=np.array([]), pv_speeds=np.array([]),
                         gaps=tr.gaps[:, :0], speeds=tr.speeds[:, :0],
                         accels=tr.accels[:, :0], controls=tr.controls[:, :0],
                         cost_egoistic=np.array([]),
                         cost_courtesy=np.array([]),
                         cost_total=np.array([]),
                         converged=np.array([], dtype=bool),
                         inner_feasible=np.array([], dtype=bool),
                         outer_iters=np.array([], dtype=int),
                         outer_status=np.array([], dtype=int),
                         dt=0.1, v_limit=25.0, phi=0.0, label="")
    with pytest.raises(InvalidParameterError):
        compute_metrics(empty)
