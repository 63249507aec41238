"""Self-tests of the benchmark's tracer.

    python3 -m pytest perfbench/tests
"""

import importlib
import io
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Binding, Tracer, installed  # noqa: E402


def test_self_time_is_duration_minus_child_covered_time():
    tr = Tracer()
    root = tr.add("root", 0.0, 10.0)
    a = tr.add("a", 1.0, 3.0, parent=root)
    tr.add("a.inner", 1.5, 2.5, parent=a)
    tr.add("b", 2.0, 5.0, parent=root)      # overlaps a: [1, 5] covered
    tr.add("c", 6.0, 7.0, parent=root)
    tr.add("d", 9.0, 12.0, parent=root)     # only [9, 10] lies inside root
    tr.add("lone", 20.0, 21.5)
    own = tr.self_times()
    assert own[root] == pytest.approx(10.0 - (4.0 + 1.0 + 1.0))
    assert own[a] == pytest.approx(2.0 - 1.0)
    assert own[-1] == pytest.approx(1.5)


def _toy_module(name):
    mod = types.ModuleType(name)
    exec("def leaf(x):\n    return x + 1\n"
         "def outer(x):\n    return leaf(x) * leaf(x)\n", mod.__dict__)
    sys.modules[name] = mod
    return mod


def test_wrapped_calls_nest_and_bindings_are_restored():
    mod = _toy_module("perfbench_toy")
    originals = (mod.leaf, mod.outer)
    bindings = [Binding("perfbench_toy", "outer", "toy.outer"),
                Binding("perfbench_toy", "leaf", "toy.leaf",
                        lambda r: {"value": r})]
    tr = Tracer()
    with installed(tr, bindings):
        tr.run_id = "run-1"
        assert mod.outer(2) == 9
    assert (mod.leaf, mod.outer) == originals
    assert tr.names == ["toy.outer", "toy.leaf", "toy.leaf"]
    assert tr.parents == [-1, 0, 0]
    assert tr.runs == ["run-1"] * 3
    assert tr.attrs[1] == {"value": 3}
    assert all(e >= s for s, e in zip(tr.starts, tr.ends))
    with pytest.raises(ZeroDivisionError):
        with installed(tr, bindings):
            mod.outer(2) / 0
    assert (mod.leaf, mod.outer) == originals


def test_every_program_binding_exists_and_is_restored():
    before = {}
    for b in layers.BINDINGS:
        before[(b.module, b.attr)] = getattr(
            importlib.import_module(b.module), b.attr)
    tr = Tracer()
    with installed(tr, layers.BINDINGS):
        for b in layers.BINDINGS:
            now = getattr(importlib.import_module(b.module), b.attr)
            assert now is not before[(b.module, b.attr)]
    for (module, attr), original in before.items():
        assert getattr(importlib.import_module(module), attr) is original


def _short_profile(tmp_path, n_steps=25):
    speeds = inputs.library_profile("courteous", 0)[:n_steps]
    csv = tmp_path / "lead.csv"
    workloads.write_profile_csv(csv, speeds, inputs.DT)
    return csv


def _run_cli(csv, outdir):
    import svosim.cli_io as cli_io
    with redirect_stdout(io.StringIO()):
        rc = cli_io.cli_main(["run", "--scenario", str(csv), "--phi",
                              "pi/12", "--outdir", str(outdir)])
    assert rc == 0
    return (outdir / "trace.csv").read_bytes()


def test_tracing_leaves_trace_csv_byte_identical(tmp_path):
    csv = _short_profile(tmp_path)
    plain = _run_cli(csv, tmp_path / "plain")
    tr = Tracer()
    with installed(tr, layers.BINDINGS):
        traced = _run_cli(csv, tmp_path / "traced")
    assert traced == plain
    assert "driver_model.respond" in tr.names


def test_layer_metrics_cover_every_declared_metric(tmp_path):
    csv = _short_profile(tmp_path, n_steps=10)
    tr = Tracer()
    with installed(tr, layers.BINDINGS):
        _run_cli(csv, tmp_path / "out")
    got = layers.layer_metrics(tr, 1, traced_wall=1.0, untraced_wall=1.0)
    # the worker adds the three figures that come from the outputs
    added = {"controller.plan.fail_ratio", "driver_model.fit.fail_ratio",
             "simulation.gap_dev_m"}
    assert set(got) | added == set(layers.PER_LAYER_UNITS)
    assert got["controller.plan.calls"] == 10
    assert got["driver_model.respond.calls_per_plan"] > 1
