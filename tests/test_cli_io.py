import json
import math
from pathlib import Path

import numpy as np
import pytest

from svosim import cli_io, defaults
from svosim.cli_io import (ExperimentConfig, build_config, build_setup,
                           cli_main, extract_ngsim_vehicle, load_pv_profile_csv,
                           load_trace_csv, load_weights_file, parse_config_file,
                           parse_phi, save_pv_profile_csv, save_weights_file,
                           synthesize_demonstrations)
from svosim.driver_model import DriverWeights, FEATURE_NAMES
from svosim.errors import InvalidParameterError, TraceParseError
from svosim.simulation import EpisodeTrace


# ---------------------------------------------------------------------------
# Shared fixtures: a steady lead profile run with the speed limit at the
# traffic speed sits on the stacked equilibrium, so the CLI episodes it
# backs are fast and boring by construction.


@pytest.fixture(scope="module")
def steady_profile_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("profiles") / "steady.csv"
    save_pv_profile_csv(path, np.full(25, 20.0), 0.1)
    return path


@pytest.fixture(scope="module")
def run_outdir(tmp_path_factory, steady_profile_csv):
    out = tmp_path_factory.mktemp("run_out")
    rc = cli_main(["run", "--scenario", str(steady_profile_csv),
                   "--phi", "pi/6", "--speed-limit", "20",
                   "--outdir", str(out)])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# Angle and config parsing


def test_parse_phi_forms():
    assert parse_phi("0") == 0.0
    assert parse_phi("0.25") == 0.25
    assert parse_phi("pi") == pytest.approx(math.pi)
    assert parse_phi("pi/12") == pytest.approx(math.pi / 12)
    assert parse_phi(" PI/4 ") == pytest.approx(math.pi / 4)
    with pytest.raises(InvalidParameterError):
        parse_phi("pi/zero")
    with pytest.raises(InvalidParameterError):
        parse_phi("twelve")


def test_config_defaults():
    config = build_config(None, {})
    assert config == ExperimentConfig()
    assert config.dt == defaults.STEP_S
    assert config.weights == defaults.DEFAULT_WEIGHTS
    assert config.phi_levels == cli_io.SWEEP_LEVELS


def test_config_echo_covers_every_field():
    echo = ExperimentConfig().echo_dict()
    from dataclasses import fields
    assert set(echo) == {f.name for f in fields(ExperimentConfig)}


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment settings\n"
        "phi = 0,pi/12,pi/6   # sweep levels\n"
        "weights = 0.2, 0.4, 0.6, 0.8\n"
        "dt = 0.05\n"
        "seed = 7\n"
        "smooth_ngsim = true\n")
    config = build_config(parse_config_file(path), {"seed": 11})
    assert config.phi_levels == pytest.approx((0.0, math.pi / 12,
                                               math.pi / 6))
    assert config.weights == (0.2, 0.4, 0.6, 0.8)
    assert config.dt == 0.05
    assert config.seed == 11
    assert config.smooth_ngsim is True


def test_config_unknown_key_names_line(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("dt = 0.1\nwat = 3\n")
    with pytest.raises(InvalidParameterError, match="2.*wat|wat.*2"):
        parse_config_file(path)


def test_config_conflicting_weight_sources(tmp_path):
    wfile = tmp_path / "w.txt"
    save_weights_file(wfile, DriverWeights((1, 1, 1, 1), 1.0, 5.0))
    with pytest.raises(InvalidParameterError, match="conflict"):
        build_config(None, {"weights": (1.0, 1.0, 1.0, 1.0),
                            "weights_file": str(wfile)})


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(dt=0.0)
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(phi_levels=(0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(scenario="/no/such/file.csv")
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(weights=(1.0, 1.0, 1.0))
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(min_gap=10.0, max_gap=8.0)


# ---------------------------------------------------------------------------
# Lead-profile CSV


def test_pv_two_rows(tmp_path):
    path = tmp_path / "pv.csv"
    path.write_text("t,speed_mps\n0,20\n0.1,20\n")
    loaded = load_pv_profile_csv(path)
    assert loaded.speeds.tolist() == [20.0, 20.0]
    assert loaded.dt == pytest.approx(0.1)
    assert loaded.clamped_negative == 0


def test_pv_negative_speed_clamped(tmp_path):
    path = tmp_path / "pv.csv"
    path.write_text("t,speed_mps\n0,5\n0.1,-0.001\n0.2,5\n")
    loaded = load_pv_profile_csv(path)
    assert loaded.speeds[1] == 0.0
    assert loaded.clamped_negative == 1


def test_pv_nonuniform_step_names_line(tmp_path):
    path = tmp_path / "pv.csv"
    path.write_text("t,speed_mps\n0,5\n0.1,5\n0.3,5\n0.4,5\n")
    with pytest.raises(TraceParseError) as info:
        load_pv_profile_csv(path)
    assert info.value.line == 4


def test_pv_structural_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("time,v\n0,5\n0.1,5\n")
    with pytest.raises(TraceParseError):
        load_pv_profile_csv(bad_header)
    short = tmp_path / "b.csv"
    short.write_text("t,speed_mps\n0,5\n")
    with pytest.raises(TraceParseError):
        load_pv_profile_csv(short)
    garbage = tmp_path / "c.csv"
    garbage.write_text("t,speed_mps\n0,5\n0.1,fast\n")
    with pytest.raises(TraceParseError) as info:
        load_pv_profile_csv(garbage)
    assert info.value.line == 3


def test_pv_save_load_roundtrip(tmp_path):
    path = tmp_path / "pv.csv"
    speeds = np.array([18.0, 17.31, 0.0, 21.456789012345])
    save_pv_profile_csv(path, speeds, 0.1)
    loaded = load_pv_profile_csv(path)
    assert np.array_equal(loaded.speeds, speeds)
    assert loaded.dt == 0.1


# ---------------------------------------------------------------------------
# NGSIM extraction.  Fixture rows follow the published column layout
# (id, frame, total frames, global time ms, local x/y, global x/y,
# length, width, class, speed ft/s, accel), feet units.


def _ngsim_row(vid, frame, v_fts):
    return (f"{vid},{frame},100,{1113433135300 + frame * 100},"
            f"6.5,{frame * 5.0:.2f},6042842.1,2133117.8,14.3,6.4,2,"
            f"{v_fts},0.0")


def _write_ngsim(path, rows, header=True):
    lines = ["Vehicle_ID,Frame_ID,Total_Frames,Global_Time,Local_X,"
             "Local_Y,Global_X,Global_Y,v_Length,v_Width,v_Class,"
             "v_Vel,v_Acc"] if header else []
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n")


def test_ngsim_feet_converted_once(tmp_path):
    path = tmp_path / "ngsim.csv"
    _write_ngsim(path, [_ngsim_row(70, f, 33.0) for f in range(1, 6)])
    ext = extract_ngsim_vehicle(path, 70)
    assert ext.speeds == pytest.approx(np.full(5, 10.0584), abs=1e-12)
    assert ext.dt == 0.1
    assert ext.skipped_rows == 0


def test_ngsim_missing_frame_interpolated(tmp_path):
    path = tmp_path / "ngsim.csv"
    rows = [_ngsim_row(17, f, v) for f, v in
            [(10, 30.0), (11, 30.0), (13, 34.0), (14, 34.0)]]
    _write_ngsim(path, rows)
    ext = extract_ngsim_vehicle(path, 17)
    assert ext.filled_frames == 1
    assert len(ext.speeds) == 5
    assert ext.speeds[2] == pytest.approx(32.0 * 0.3048, abs=1e-12)


def test_ngsim_absent_id_lists_available(tmp_path):
    path = tmp_path / "ngsim.csv"
    _write_ngsim(path, [_ngsim_row(25, 1, 30.0), _ngsim_row(182, 1, 30.0),
                        _ngsim_row(25, 2, 30.0), _ngsim_row(182, 2, 30.0)])
    with pytest.raises(InvalidParameterError) as info:
        extract_ngsim_vehicle(path, 291)
    message = str(info.value)
    assert "291" in message and "25" in message and "182" in message


def test_ngsim_corrupt_rows_skipped_and_counted(tmp_path):
    path = tmp_path / "ngsim.csv"
    rows = [_ngsim_row(70, f, 33.0) for f in range(1, 5)]
    rows.insert(2, "70,not-a-frame,xx")
    rows.append("totally broken line")
    _write_ngsim(path, rows)
    ext = extract_ngsim_vehicle(path, 70)
    assert ext.skipped_rows == 2
    assert len(ext.speeds) == 4


def test_ngsim_duplicate_frames_dropped(tmp_path):
    path = tmp_path / "ngsim.csv"
    rows = [_ngsim_row(70, 1, 30.0), _ngsim_row(70, 2, 31.0),
            _ngsim_row(70, 2, 99.0), _ngsim_row(70, 3, 32.0)]
    _write_ngsim(path, rows)
    ext = extract_ngsim_vehicle(path, 70)
    assert ext.duplicate_frames == 1
    assert ext.speeds[1] == pytest.approx(31.0 * 0.3048)


def test_ngsim_resample_and_smooth(tmp_path):
    path = tmp_path / "ngsim.csv"
    _write_ngsim(path, [_ngsim_row(70, f, 30.0) for f in range(1, 22)])
    half = extract_ngsim_vehicle(path, 70, dt=0.2)
    assert len(half.speeds) == 11
    assert half.speeds == pytest.approx(np.full(11, 30.0 * 0.3048))
    smoothed = extract_ngsim_vehicle(path, 70, smooth=True)
    # a constant trace passes through the moving average untouched
    assert smoothed.speeds == pytest.approx(np.full(21, 30.0 * 0.3048))


def test_ngsim_whitespace_delimited(tmp_path):
    path = tmp_path / "ngsim.txt"
    rows = [_ngsim_row(70, f, 33.0).replace(",", " ")
            for f in range(1, 4)]
    _write_ngsim(path, rows, header=False)
    ext = extract_ngsim_vehicle(path, 70)
    assert ext.speeds == pytest.approx(np.full(3, 10.0584), abs=1e-12)


# ---------------------------------------------------------------------------
# Fitted-weights files


def test_weights_file_roundtrip(tmp_path):
    path = tmp_path / "w.txt"
    w = DriverWeights((0.123456789012345, 0.5, 0.75, 1.25), 1.37, 5.0)
    save_weights_file(path, w)
    back = load_weights_file(path)
    assert back.w == w.w
    assert back.tau_headway == w.tau_headway
    assert back.min_gap == w.min_gap


def test_weights_file_missing_key(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("w_accel_sq = 1.0\ntau_headway = 1.0\nmin_gap = 5.0\n")
    with pytest.raises(InvalidParameterError, match="missing"):
        load_weights_file(path)


# ---------------------------------------------------------------------------
# Export and round trip


def test_export_roundtrip_recovers_trace_exactly(steady_profile_csv,
                                                 tmp_path):
    from svosim.controller import SvoConfig
    from svosim.simulation import compute_metrics, run_episode
    setup = build_setup(ExperimentConfig(scenario=str(steady_profile_csv),
                                         speed_limit=20.0))
    trace = run_episode(setup.scenario, SvoConfig(math.pi / 6),
                        setup.weights, setup.cons, setup.ego, setup.idm,
                        setup.disc)
    cli_io.export_results(trace, compute_metrics(trace), tmp_path)
    back = load_trace_csv(tmp_path / "trace.csv")
    for name in ("t", "pv_speeds", "gaps", "speeds", "accels", "controls",
                 "cost_egoistic", "cost_courtesy", "cost_total",
                 "converged", "inner_feasible"):
        assert np.array_equal(getattr(trace, name), getattr(back, name)), name
    assert back.dt == trace.dt
    assert back.v_limit == trace.v_limit
    assert back.phi == trace.phi
    assert back.label == trace.label


def test_run_output_parses(run_outdir):
    trace = load_trace_csv(run_outdir / "trace.csv")
    assert trace.dt == 0.1
    assert trace.v_limit == 20.0
    assert trace.phi == pytest.approx(math.pi / 6)
    assert len(trace) == 25


def test_run_export_byte_stable(steady_profile_csv, run_outdir, tmp_path):
    rc = cli_main(["run", "--scenario", str(steady_profile_csv),
                   "--phi", "pi/6", "--speed-limit", "20",
                   "--outdir", str(tmp_path)])
    assert rc == 0
    first = (run_outdir / "trace.csv").read_bytes()
    second = (tmp_path / "trace.csv").read_bytes()
    assert first == second
    m1 = json.loads((run_outdir / "metrics.json").read_text())
    m2 = json.loads((tmp_path / "metrics.json").read_text())
    m1["config"].pop("outdir")
    m2["config"].pop("outdir")
    assert m1 == m2


def test_metrics_json_echoes_config(run_outdir):
    doc = json.loads((run_outdir / "metrics.json").read_text())
    assert doc["artifact_version"] == cli_io.ARTIFACT_VERSION
    assert doc["phi"] == pytest.approx(math.pi / 6)
    from dataclasses import fields
    assert set(doc["config"]) >= {f.name for f in fields(ExperimentConfig)}
    assert doc["config"]["speed_limit"] == 20.0
    pair_names = [p["pair"] for p in doc["pairs"]]
    assert pair_names == ["av", "hv0", "hv1", "hv2", "hv3"]
    assert doc["traffic"]["avg_gap"] > 0


def test_export_rejects_empty_trace(tmp_path):
    empty = EpisodeTrace(
        t=np.zeros(0), pv_speeds=np.zeros(0), gaps=np.zeros((5, 0)),
        speeds=np.zeros((5, 0)), accels=np.zeros((5, 0)),
        controls=np.zeros((5, 0)), cost_egoistic=np.zeros(0),
        cost_courtesy=np.zeros(0), cost_total=np.zeros(0),
        converged=np.zeros(0, dtype=bool),
        inner_feasible=np.zeros(0, dtype=bool), dt=0.1, v_limit=25.0,
        phi=0.0, label="empty")
    with pytest.raises(InvalidParameterError):
        cli_io.export_results(empty, None, tmp_path)


def test_trace_parser_rejects_tampering(run_outdir, tmp_path):
    lines = (run_outdir / "trace.csv").read_text().splitlines()
    no_magic = tmp_path / "a.csv"
    no_magic.write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(TraceParseError):
        load_trace_csv(no_magic)
    ragged = tmp_path / "b.csv"
    ragged.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(TraceParseError):
        load_trace_csv(ragged)


@pytest.mark.parametrize("dt_line, message", [
    (None, "missing metadata"),
    ("# dt 0.1", "without '='"),
    ("# dt = fast", "bad metadata"),
], ids=["missing", "no-equals", "non-numeric"])
def test_trace_parser_rejects_bad_metadata(run_outdir, tmp_path, dt_line,
                                           message):
    lines = (run_outdir / "trace.csv").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("# dt "))
    lines[at:at + 1] = [] if dt_line is None else [dt_line]
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError, match=message):
        load_trace_csv(path)


# ---------------------------------------------------------------------------
# Demonstration synthesis and the fit subcommand


def test_synthesized_demos_deterministic():
    from svosim.driver_model import HumanConstraints
    from svosim.dynamics import build_continuous, discretize_zoh
    w = DriverWeights(defaults.DEFAULT_WEIGHTS,
                      defaults.HUMAN_TIME_HEADWAY_S, defaults.MIN_GAP_M)
    hc = HumanConstraints(0.0, 25.0, 5.0)
    disc = discretize_zoh(build_continuous(defaults.ACTUATION_LAG_S), 0.1)
    a = synthesize_demonstrations(w, hc, disc, 25.0, 2, seed=5,
                                  duration_steps=30)
    b = synthesize_demonstrations(w, hc, disc, 25.0, 2, seed=5,
                                  duration_steps=30)
    c = synthesize_demonstrations(w, hc, disc, 25.0, 2, seed=6,
                                  duration_steps=30)
    assert np.array_equal(a[0].controls, b[0].controls)
    assert np.array_equal(a[1].speeds, b[1].speeds)
    assert not np.array_equal(a[0].leader_speeds, c[0].leader_speeds)
    for demo in a:
        assert np.all(demo.gaps >= 5.0 - 1e-9)
        assert np.all(np.isfinite(demo.controls))


def test_cli_gen_demos_then_fit_zero_iters(tmp_path, capsys):
    from svosim.driver_model import (HumanConstraints,
                                     load_demonstration_csv,
                                     save_demonstration_csv)
    from svosim.dynamics import build_continuous, discretize_zoh
    demo_dir = tmp_path / "demos"
    rc = cli_main(["gen-demos", "--count", "1", "--seed", "3",
                   "--outdir", str(demo_dir)])
    assert rc == 0
    demo_path = demo_dir / "demo_00.csv"
    assert demo_path.is_file()
    fit_dir = tmp_path / "fit"
    rc = cli_main(["fit", "--demos", str(demo_path), "--iters", "0",
                   "--w0", "1,1,1,1", "--outdir", str(fit_dir)])
    assert rc == 0
    fitted = load_weights_file(fit_dir / "fitted_weights.txt")
    assert fitted.w == (1.0, 1.0, 1.0, 1.0)
    assert fitted.tau_headway > 0

    # gen-demos drives the weights a weights file names, min_gap included
    w = DriverWeights((0.3, 1.0, 0.2, 0.6), 1.2, 4.0)
    wfile = tmp_path / "w.txt"
    save_weights_file(wfile, w)
    rc = cli_main(["gen-demos", "--count", "1", "--seed", "3",
                   "--weights-file", str(wfile),
                   "--outdir", str(tmp_path / "wdemos")])
    assert rc == 0
    ours = load_demonstration_csv(tmp_path / "wdemos" / "demo_00.csv")
    disc = discretize_zoh(build_continuous(defaults.ACTUATION_LAG_S), 0.1)
    [expected] = synthesize_demonstrations(
        w, HumanConstraints(0.0, 25.0, 4.0), disc, 25.0, 1, seed=3)
    for name in ("t", "gaps", "speeds", "accels", "leader_speeds",
                 "controls"):
        assert np.array_equal(getattr(ours, name), getattr(expected, name))
    assert not np.array_equal(ours.gaps,
                              load_demonstration_csv(demo_path).gaps)

    # fit refuses demonstrations recorded at another step than --dt
    slow = load_demonstration_csv(demo_path)
    slow_path = tmp_path / "slow.csv"
    save_demonstration_csv(slow_path, type(slow)(
        t=slow.t / 2, gaps=slow.gaps, speeds=slow.speeds, accels=slow.accels,
        leader_speeds=slow.leader_speeds, controls=slow.controls))
    capsys.readouterr()
    rc = cli_main(["fit", "--demos", str(slow_path), "--iters", "0",
                   "--outdir", str(fit_dir)])
    assert rc == 1
    assert "differs from demonstration dt 0.05" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_sweep_on_steady_profile(steady_profile_csv, tmp_path):
    rc = cli_main(["sweep", "--scenario", str(steady_profile_csv),
                   "--phi", "0,pi/4", "--speed-limit", "20",
                   "--outdir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert [lvl["phi"] for lvl in doc["levels"]] == \
        pytest.approx([0.0, math.pi / 4])
    for lvl in doc["levels"]:
        assert "error" not in lvl
        sub = tmp_path / lvl["dir"]
        assert (sub / "trace.csv").is_file()
        assert (sub / "metrics.json").is_file()
    # the stacked equilibrium holds at both ends of the orientation range
    gaps = [lvl["hv0_avg_gap"] for lvl in doc["levels"]]
    assert gaps[0] == pytest.approx(gaps[1], abs=1e-2)


def test_cli_usage_errors(steady_profile_csv, tmp_path):
    with pytest.raises(SystemExit) as info:
        cli_main(["run", "--no-such-flag"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli_main([])
    assert info.value.code == 2
    wfile = tmp_path / "w.txt"
    save_weights_file(wfile, DriverWeights((1, 1, 1, 1), 1.0, 5.0))
    rc = cli_main(["run", "--scenario", str(steady_profile_csv),
                   "--weights", "1,1,1,1", "--weights-file", str(wfile),
                   "--outdir", str(tmp_path)])
    assert rc == 1


def test_cli_missing_scenario_file_fails_cleanly(tmp_path, capsys):
    rc = cli_main(["run", "--scenario", "/no/such/profile.csv",
                   "--outdir", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_build_setup_takes_dt_from_profile(tmp_path):
    path = tmp_path / "pv.csv"
    save_pv_profile_csv(path, np.full(10, 15.0), 0.05)
    setup = build_setup(ExperimentConfig(scenario=str(path)))
    assert setup.scenario.dt == pytest.approx(0.05)
    assert setup.disc.dt == pytest.approx(0.05)
    assert setup.scenario.x_av.gap == pytest.approx(5.0 + 1.2 * 15.0)
    assert setup.scenario.x_hv0.gap == pytest.approx(5.0 + 1.5 * 15.0)


def test_build_setup_weights_file(tmp_path):
    wfile = tmp_path / "w.txt"
    save_weights_file(wfile, DriverWeights((0.2, 0.3, 0.4, 0.5), 1.1, 5.0))
    setup = build_setup(ExperimentConfig(weights_file=str(wfile)))
    assert setup.weights.w == (0.2, 0.3, 0.4, 0.5)
    assert setup.weights.tau_headway == 1.1
