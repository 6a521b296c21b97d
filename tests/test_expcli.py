import contextlib
import functools
import io
import json
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randdd import expcli, fidelity, oracle, pulsegen, riccati
from randdd.expcli import (
    CONFIG_KEYS,
    ExperimentSpec,
    build_bundle,
    fmt,
    main,
    parse_cli,
    parse_config_file,
    run_experiment,
)
from randdd.errors import BlowUpError, ValidationError
from randdd.model import PulseParams, SimConfig, SystemParams


def run_cli(argv):
    return main(argv)


def test_fmt_significant_digits():
    assert fmt(1.0 / 3.0) == "0.333333333333"
    assert fmt(1.41458227841) == "1.41458227841"
    assert fmt(True) == "true"
    assert fmt(None) == ""
    assert fmt(42) == "42"


def test_parse_cli_round_trip():
    spec, workers = parse_cli(["sweep", "--param", "phi", "--seed", "42", "--out", "results/"])
    assert spec.name == "sweep-phi"
    assert spec.overrides["sim.master_seed"] == 42
    assert str(spec.output_dir) == "results"
    assert workers == "auto"


def test_parse_cli_oracle_defaults():
    spec, _ = parse_cli(["oracle-check"])
    assert spec.name == "oracle-check"
    assert spec.overrides == {}


def test_usage_error_negative_step(capsys):
    assert run_cli(["run", "--step", "-1"]) == 2
    assert "positive" in capsys.readouterr().err


def test_usage_error_unknown_flag():
    assert run_cli(["run", "--bogus"]) == 2


def test_usage_error_unknown_set_key(capsys):
    assert run_cli(["run", "--set", "system.bogus=1"]) == 2
    assert "unknown-config-key" in capsys.readouterr().err


def test_validation_error_exit_code(capsys):
    # overlap constraint violated at validation time -> exit 3
    code = run_cli(["run", "--no-control", "--set", "pulses.d_tau=0.013", "--tmax", "1",
                    "--out", "/tmp/randdd-doomed"])
    assert code == 3
    assert "pulse-overlap-possible" in capsys.readouterr().err


def test_threads_flag_rejects_garbage():
    assert run_cli(["run", "--threads", "zero"]) == 2


def test_experiment_spec_rejects_unknown_name():
    with pytest.raises(ValidationError):
        ExperimentSpec("sweep-bogus")
    with pytest.raises(ValidationError) as err:
        ExperimentSpec("run-curve", {"bogus.key": 1})
    assert err.value.code == "unknown-config-key"


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
        # comment line
        system.gamma = 0.5
        pulses.d_tau = 0.004   # trailing comment
        sim.ensemble_n = 17
        """
    )
    raw = parse_config_file(cfg)
    assert raw == {"system.gamma": "0.5", "pulses.d_tau": "0.004", "sim.ensemble_n": "17"}
    spec, _ = parse_cli(["validate", "--config", str(cfg)])
    bundle = build_bundle(spec.overrides)
    assert bundle.system.gamma == 0.5
    assert bundle.sim.ensemble_n == 17


def test_build_bundle_maps_and_revalidates_overrides():
    bundle = build_bundle({"system.gamma": 0.5, "sim.t_max": 4.0})
    assert bundle.system.gamma == 0.5 and bundle.sim.t_max == 4.0
    with pytest.raises(ValidationError) as err:
        build_bundle({"system.bogus": 1.0})
    assert err.value.code == "unknown-config-key"
    with pytest.raises(ValidationError) as err:
        build_bundle({"pulses.d_tau": 0.019})
    assert err.value.code == "pulse-overlap-possible"


# the documented key list, written out: CONFIG_KEYS is derived from the
# model dataclasses and must stay exactly this
DOCUMENTED_KEYS = {
    "system.omega": float,
    "system.Gamma": float,
    "system.gamma": float,
    "pulses.tau": float,
    "pulses.delta": float,
    "pulses.phi": float,
    "pulses.d_tau": float,
    "pulses.d_delta": float,
    "pulses.d_phi": float,
    "sim.t_max": float,
    "sim.step": float,
    "sim.grid_dt": float,
    "sim.ensemble_n": int,
    "sim.master_seed": int,
    "sim.threshold": float,
    "sim.integrator": str,
}


def test_config_keys_are_the_documented_schema():
    assert CONFIG_KEYS == DOCUMENTED_KEYS


def test_build_bundle_defaults():
    bundle = build_bundle({})
    assert bundle.system == SystemParams(1, 1, 0.2)
    assert bundle.pulses == PulseParams(0.02, 0.008, 0.2)
    assert bundle.sim == SimConfig() == SimConfig(30.0, 1e-4, 0.01, 200, 12345, 0.95, "exact")
    assert bundle.init is None


def test_snapshot_has_every_config_key():
    snap = expcli._snapshot(build_bundle({"pulses.d_phi": 0.05}))
    assert snap.keys() == CONFIG_KEYS.keys()
    assert snap["pulses.d_phi"] == 0.05 and snap["system.gamma"] == 0.2


def test_cli_overrides_beat_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.master_seed = 1\n")
    spec, _ = parse_cli(["run", "--config", str(cfg), "--seed", "9"])
    assert spec.overrides["sim.master_seed"] == 9


def test_validate_subcommand(tmp_path, capsys):
    assert run_cli(["validate", "--set", "system.gamma=0.4"]) == 0
    out = capsys.readouterr().out
    assert "configuration valid" in out and "system.gamma = 0.4" in out


def test_one_parser_serves_calls_with_independent_overrides(capsys):
    # the parser is built once per process; one call's --set list never
    # reaches the next call
    assert expcli.build_parser() is expcli.build_parser()
    assert run_cli(["validate", "--set", "system.gamma=0.4", "--set", "pulses.phi=0.3"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["validate"]) == 0
    second = capsys.readouterr().out
    assert "system.gamma = 0.4" in first and "pulses.phi = 0.3" in first
    assert "system.gamma = 0.2" in second and "pulses.phi = 0.2" in second
    assert parse_cli(["validate"])[0].overrides == {}
    assert parse_cli(["run", "--set", "sim.t_max=2"])[0].overrides == {"sim.t_max": 2.0}
    assert parse_cli(["run"])[0].overrides == {}


def test_baseline_experiment_rows(tmp_path):
    spec = ExperimentSpec("baseline-nocontrol", {}, tmp_path, {"gammas": [0.2, 0.9]})
    files = run_experiment(spec)
    csv_path = tmp_path / "baseline_nocontrol.csv"
    assert csv_path in files
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "label,gamma,d_over_x,T,crossed,ci_low,ci_high"
    rows = [ln.split(",") for ln in lines[1:]]
    assert float(rows[0][3]) == pytest.approx(1.42, abs=0.02)
    assert float(rows[1][3]) == pytest.approx(0.65, abs=0.02)
    assert rows[0][4] == "true" and rows[0][5] == ""


def test_run_experiment_writes_manifest_and_plot(tmp_path):
    spec = ExperimentSpec(
        "run-curve",
        {"sim.t_max": 1.0, "sim.ensemble_n": 4, "system.gamma": 0.5,
         "pulses.d_tau": 0.002},
        tmp_path,
        {"control": "random"},
    )
    files = run_experiment(spec)
    names = {p.name for p in files}
    assert {"curve.csv", "manifest.json", "plot.py"} <= names
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["experiment"] == "run-curve"
    assert manifest["params"]["sim.ensemble_n"] == 4
    assert "curve.csv" in manifest["files"]
    assert len(manifest["files"]["curve.csv"]) == 64  # sha256 hex


def test_rerun_is_byte_identical(tmp_path):
    overrides = {"sim.t_max": 2.0, "sim.ensemble_n": 6, "system.gamma": 0.5,
                 "pulses.d_tau": 0.004, "pulses.d_delta": 0.002}
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    run_experiment(ExperimentSpec("run-curve", overrides, a_dir, {"control": "random"}))
    run_experiment(ExperimentSpec("run-curve", overrides, b_dir, {"control": "random"}))
    assert (a_dir / "curve.csv").read_bytes() == (b_dir / "curve.csv").read_bytes()
    ma = json.loads((a_dir / "manifest.json").read_text())
    mb = json.loads((b_dir / "manifest.json").read_text())
    assert ma["files"] == mb["files"]
    ma.pop("wall_clock_s"), mb.pop("wall_clock_s")
    assert ma == mb


def test_replay_reproduces_regular_curve(tmp_path):
    out1 = tmp_path / "reg"
    assert run_cli(["run", "--regular", "--tmax", "1", "--set", "system.gamma=0.5",
                    "--save-schedule", "--dump-traj", "--out", str(out1)]) == 0
    assert (out1 / "trajectory.csv").exists()
    out2 = tmp_path / "replay"
    assert run_cli(["run", "--replay", str(out1 / "schedule.csv"), "--tmax", "1",
                    "--set", "system.gamma=0.5", "--out", str(out2)]) == 0
    assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()


def test_run_at_the_double_root_agrees_with_rk4(tmp_path):
    # gamma = 2 Gamma and every pulse field at -omega: the exact propagator's
    # two roots coincide on the pulses, and no numpy warning is raised
    argv = ["run", "--regular", "--set", "system.Gamma=0.2", "--set", "system.gamma=0.4",
            "--set", "pulses.phi=-0.008", "--tmax", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([*argv, "--out", str(tmp_path / "exact")]) == 0
        assert run_cli([*argv, "--set", "sim.integrator=rk4", "--out", str(tmp_path / "rk4")]) == 0
    exact, rk4 = (np.loadtxt(tmp_path / name / "curve.csv", delimiter=",", skiprows=1) for name in ("exact", "rk4"))
    assert np.array_equal(exact[:, 0], rk4[:, 0])
    assert np.max(np.abs(exact[:, 1] - rk4[:, 1])) < 1e-9


def test_threshold_regular_control(tmp_path):
    assert run_cli(["threshold", "--regular", "--gammas", "0.9", "--tmax", "14",
                    "--grid-dt", "0.02", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "threshold_regular.csv").read_text().splitlines()[1:]
    label, gamma, _, T, crossed, *_ = rows[0].split(",")
    assert label == "regular" and float(gamma) == 0.9 and crossed == "true"
    assert float(T) > 5.0  # controlled survival far beyond the 0.65 baseline


def test_threshold_random_with_both_t_modes(tmp_path):
    common = ["threshold", "--random", "--gammas", "0.9", "--tmax", "14",
              "--grid-dt", "0.02", "--ensemble", "20",
              "--set", "pulses.d_tau=0.004", "--set", "pulses.d_delta=0.004"]
    out_a, out_b = tmp_path / "curveT", tmp_path / "crossT"
    assert run_cli(common + ["--out", str(out_a)]) == 0
    assert run_cli(common + ["--t-mode", "mean-crossings", "--out", str(out_b)]) == 0
    row_a = (out_a / "threshold_random.csv").read_text().splitlines()[1].split(",")
    row_b = (out_b / "threshold_random.csv").read_text().splitlines()[1].split(",")
    t_a, t_b = float(row_a[3]), float(row_b[3])
    assert row_a[5] != "" and row_a[6] != ""  # bootstrap interval present
    assert t_a > 0 and t_b > 0
    assert abs(t_a - t_b) / t_a < 0.2  # two definitions agree to leading order


def test_curves_mu_family(tmp_path):
    spec = ExperimentSpec(
        "curves-mu",
        {"sim.t_max": 2.0, "sim.ensemble_n": 5, "sim.grid_dt": 0.02},
        tmp_path,
        {},
    )
    files = run_experiment(spec)
    mu_files = [p for p in files if p.name.startswith("curves_mu_")]
    assert len(mu_files) == 9
    first = mu_files[0].read_text().splitlines()
    assert first[0] == "t,fidelity,stderr"
    assert first[1].startswith("0,1,")


def test_curves_delta_family_handles_wide_pulses(tmp_path):
    spec = ExperimentSpec(
        "curves-delta",
        {"sim.t_max": 1.0, "sim.ensemble_n": 4, "sim.grid_dt": 0.02},
        tmp_path,
        {},
    )
    with pytest.warns(UserWarning, match="pulse-overlap-possible"):
        files = run_experiment(spec)
    names = {p.name for p in files}
    assert "curves_delta_r0.75_random.csv" in names
    assert "curves_delta_r0.3_regular.csv" in names


def test_oracle_check_cli(tmp_path):
    assert run_cli(["oracle-check", "--step", "0.0002", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    for key in ("max_nocontrol_dev", "max_pop_dev", "max_cohmod_dev", "max_cohphase_dev"):
        assert report[key] < 1e-6


@pytest.mark.parametrize("setting,code", [
    ("pulses.phi=nan", "pulse-param-not-finite"),
    ("pulses.tau=inf", "pulse-param-not-finite"),
    ("sim.t_max=inf", "sim-param-not-finite"),
    ("system.gamma=inf", "system-param-not-finite"),
])
def test_non_finite_settings_exit_3(tmp_path, capsys, setting, code):
    assert run_cli(["run", "--regular", "--set", setting, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert code in err and "Traceback" not in err


def test_replay_missing_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert run_cli(["run", "--replay", str(missing), "--tmax", "1", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "nope.csv" in err and "Traceback" not in err


def test_config_missing_or_binary_file_exits_2(tmp_path, capsys):
    assert run_cli(["validate", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "nope.cfg" in capsys.readouterr().err
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe\x00bad\n")
    assert run_cli(["validate", "--config", str(binary)]) == 2
    assert "bad-config-value" in capsys.readouterr().err


@pytest.mark.parametrize("rows,code", [
    ("0,0.0,0.008\n", "schedule-file-malformed"),
    ("0,0.0,0.008,0.2\n1,0.005,0.008,0.2\n", "schedule-pulse-overlap"),
])
def test_replay_bad_schedule_exits_3(tmp_path, capsys, rows, code):
    path = tmp_path / "schedule.csv"
    path.write_text("# horizon=1.0\nindex,start,width,area\n" + rows)
    assert run_cli(["run", "--replay", str(path), "--tmax", "1", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert code in err and "Traceback" not in err


@pytest.mark.parametrize("control", [[], ["--regular"]], ids=["random", "regular"])
@pytest.mark.parametrize("mu2", ["2", "-0.5", "nan"])
def test_invalid_mu2_exits_3(tmp_path, capsys, mu2, control):
    argv = ["run", *control, "--mu2", mu2, "--tmax", "1", "--ensemble", "2",
            "--set", "pulses.d_tau=0.004", "--out", str(tmp_path)]
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    assert "state-not-normalizable" in err and "Traceback" not in err
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["run", "--dump-traj", "--set", "pulses.d_tau=0.004"], "--dump-traj"),
    (["threshold", "--regular", "--t-mode", "mean-crossings"], "--t-mode"),
    (["threshold", "--no-control", "--t-mode", "mean-crossings"], "--t-mode"),
], ids=["dump-traj-random", "t-mode-regular", "t-mode-nocontrol"])
def test_flag_ignored_by_control_exits_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["sweep", "--param", "tau"], ["threshold", "--random"]],
                         ids=["sweep", "threshold"])
@pytest.mark.parametrize("gammas", ["", ","], ids=["empty", "comma"])
def test_empty_gamma_list_exits_2(tmp_path, capsys, command, gammas):
    # an empty list must not fall back to the default gammas
    out = tmp_path / "out"
    assert run_cli([*command, "--gammas", gammas, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--gammas" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("setting, code", [
    ("system.omega=0", "omega-not-positive"),
    ("pulses.d_phi=-0.1", "deviation-negative"),
    ("sim.integrator=euler", "integrator-unknown"),
], ids=["system", "pulses", "sim"])
def test_set_violation_exits_3(tmp_path, capsys, setting, code):
    out = tmp_path / "out"
    assert run_cli(["run", "--regular", "--set", setting, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert code in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["--tmax", "1e12"], "grid-too-large"),
    (["--set", "pulses.tau=1e-9", "--set", "pulses.delta=1e-10"], "pulse-count-too-large"),
    (["--ensemble", "100000", "--tmax", "2000", "--set", "pulses.d_tau=0.004"], "ensemble-too-large"),
    (["--set", "sim.integrator=rk4", "--step", "1e-12"], "step-count-too-large"),
], ids=["grid", "pulses", "ensemble-cells", "rk4-steps"])
def test_oversized_run_fails_validation(tmp_path, capsys, monkeypatch, argv, code):
    # the size checks must fire before any grid, schedule, ensemble or
    # integration exists, and before the output directory is created
    def never(*args, **kwargs):
        raise AssertionError("allocated before validation")

    monkeypatch.setattr(SimConfig, "output_grid", never)
    for name in ("ensemble_functionals", "generate_random", "generate_regular", "integrate_with"):
        monkeypatch.setattr(expcli, name, never)
    out = tmp_path / "out"
    assert run_cli(["run", *argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert code in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["threshold", "--random", "--set", "pulses.phi=1e306", "--gammas", "0.5", "--ensemble", "2"],
    ["run", "--set", "system.omega=1e308", "--set", "system.gamma=1e308", "--tmax", "1", "--ensemble", "2"],
    ["run", "--regular", "--set", "pulses.phi=1e8", "--tmax", "1"],  # 3.3e9 phase pieces
], ids=["area-overflows", "rate-overflows", "pieces"])
def test_huge_fields_exit_3_before_any_table(tmp_path, capsys, monkeypatch, argv):
    # the exact table's segment bound fails validation before a lane group is
    # sized or a table built; reaching either fails at once, allocating nothing
    def never(*args, **kwargs):
        raise AssertionError("reached past validation")

    for module, name in ((pulsegen, "breakpoint_table"), (riccati, "breakpoint_table"),
                         (fidelity, "EnsembleRun"), (expcli, "EnsembleRun")):
        monkeypatch.setattr(module, name, never)
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("validation error: segment-count-too-large")
    assert not out.exists()


def test_deviation_free_run_validates_at_any_ensemble_size(tmp_path):
    # the point stacks one row, so 10000 x 3001 cells are never allocated
    for n in ("10000", "6000"):
        assert run_cli(["run", "--ensemble", n, "--out", str(tmp_path / n)]) == 0
    assert (tmp_path / "10000" / "curve.csv").read_bytes() == (tmp_path / "6000" / "curve.csv").read_bytes()


@pytest.mark.parametrize("control", ["--no-control", "--regular"])
def test_a_single_trajectory_run_ignores_the_ensemble_size(tmp_path, control):
    # the point integrates one trajectory and stacks no ensemble, so an
    # ensemble_n whose stack would pass the cell limit does not fail it
    argv = ["run", control, "--set", "pulses.d_tau=0.004"]
    assert run_cli([*argv, "--ensemble", "10000", "--out", str(tmp_path / "big")]) == 0
    assert run_cli([*argv, "--out", str(tmp_path / "default")]) == 0
    assert (tmp_path / "big" / "curve.csv").read_bytes() == (tmp_path / "default" / "curve.csv").read_bytes()


def test_grid_finer_than_merge_tolerance_exits_3(tmp_path, capsys):
    # grid times 2e-13 apart would share breakpoints inside the 1e-12 merge tolerance
    out = tmp_path / "out"
    argv = ["run", "--regular", "--tmax", "1e-9", "--grid-dt", "2e-13", "--step", "2e-13", "--ensemble", "1"]
    assert run_cli([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "grid-dt-below-merge-tolerance" in err and "Traceback" not in err
    assert not out.exists()


def _one_usage_error(err: str, flag: str) -> bool:
    """stderr of a usage error: argparse's usage block, if any, then one
    error line that names flag, and no traceback."""
    *usage, last = err.splitlines()
    return (flag in last and "error:" in last and "Traceback" not in err
            and all(line.startswith(("usage:", " ")) for line in usage))


@pytest.mark.parametrize("grid", ["0:0.5:1e-9", "0:1e300:1e-300", "0:inf:1", "0:nan:0.1", "0:1:0.0005",
                                  "1:2", "0:1:0", "1:0:0.1"])
def test_sweep_grid_is_bounded_before_allocation(tmp_path, capsys, monkeypatch, grid):
    def never(*args, **kwargs):
        raise AssertionError("allocated before the bound")

    monkeypatch.setattr(np, "arange", never)
    out = tmp_path / "out"
    assert run_cli(["sweep", "--param", "phi", "--grid", grid, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--grid" in err and "Traceback" not in err
    assert _one_usage_error(err, "--grid")
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["run", "--ensemble", "0"], "--ensemble"),
    (["run", "--seed", "-1"], "--seed"),
    (["run", "--seed", str(2**64)], "--seed"),
    (["run", "--threads", "0"], "--threads"),
    (["threshold", "--random", "--gammas", "0.2,x"], "--gammas"),
    (["run", "--set", "sim.t_max"], "--set"),
], ids=["ensemble-0", "seed-negative", "seed-2^64", "threads-0", "gammas-not-a-number", "set-without-value"])
def test_a_bad_flag_value_exits_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", str(out)]) == 2
    assert _one_usage_error(capsys.readouterr().err, flag)
    assert not out.exists()


def test_sweep_grid_at_the_bound_parses():
    spec, _ = parse_cli(["sweep", "--param", "tau", "--grid", f"0:{expcli.MAX_SWEEP_RATIOS - 1}:1"])
    assert len(spec.options["grid"]) == expcli.MAX_SWEEP_RATIOS


def test_oracle_check_rejects_ignored_overrides(tmp_path, capsys):
    # oracle-check runs fixed configurations: only --step and --seed reach it
    out = tmp_path / "oracle"
    argv = ["oracle-check", "--tmax", "5", "--ensemble", "7", "--set", "system.gamma=0.9", "--out", str(out)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in ("--tmax", "--ensemble", "system.gamma")) and "Traceback" not in err
    assert not out.exists()


# one valid value per config key, unlike its default
OVERRIDES = {"system.omega": "1.1", "system.Gamma": "1.2", "system.gamma": "0.7",
             "pulses.tau": "0.025", "pulses.delta": "0.009", "pulses.phi": "0.25",
             "pulses.d_tau": "0.001", "pulses.d_delta": "0.001", "pulses.d_phi": "0.01",
             "sim.t_max": "2.5", "sim.step": "2e-4", "sim.grid_dt": "0.025", "sim.ensemble_n": "3",
             "sim.master_seed": "7", "sim.threshold": "0.9", "sim.integrator": "rk4"}
EXPERIMENT_ARGV = {
    **{f"sweep-{x}": ["sweep", "--param", x] for x in expcli.SWEEP_GRIDS},
    **{f"curves-{f}": ["curves", "--family", f] for f in expcli.CURVE_FAMILIES},
    "baseline": ["threshold", "--no-control"],
    "threshold-regular": ["threshold", "--regular"],
    "threshold-random": ["threshold", "--random"],
    "run-random": ["run"],
    "run-regular": ["run", "--regular"],
    "oracle-check": ["oracle-check"],
    "validate": ["validate"],
}
# the keys each experiment sets itself (the others: none)
FIXED_KEYS = {
    "sweep-phi": {"system.gamma", "pulses.d_phi"},
    "sweep-tau": {"system.gamma", "pulses.d_tau"},
    "sweep-delta": {"system.gamma", "pulses.d_delta"},
    "baseline": {"system.gamma"},
    "threshold-regular": {"system.gamma"},
    "threshold-random": {"system.gamma"},
    "curves-delta": {"pulses.delta", "pulses.d_tau", "pulses.d_delta"},
    "curves-deltatau": {"pulses.d_tau", "pulses.d_delta"},
    "oracle-check": set(CONFIG_KEYS) - {"sim.step", "sim.master_seed"},
}


@pytest.mark.parametrize("label", sorted(EXPERIMENT_ARGV))
def test_every_override_reaches_every_point_or_exits_2(capsys, label):
    # an override the experiment would replace is a usage error, never a silent no-op
    assert OVERRIDES.keys() == CONFIG_KEYS.keys()
    rejected = set()
    for key, value in OVERRIDES.items():
        try:
            spec, _ = parse_cli([*EXPERIMENT_ARGV[label], "--set", f"{key}={value}"])
        except SystemExit as exc:
            assert exc.code == 2 and key in capsys.readouterr().err
            rejected.add(key)
            continue
        want = CONFIG_KEYS[key](value)
        assert spec.overrides == {key: want}
        for point in expcli.expand(spec):
            assert point.overrides_with(spec.overrides)[key] == want
    assert rejected == FIXED_KEYS.get(label, set())


@pytest.mark.parametrize("argv, name", [
    (["threshold", "--regular", "--gammas", "0.5", "--set", "system.gamma=0.9"], "system.gamma"),
    (["curves", "--family", "delta", "--set", "pulses.delta=0.001"], "pulses.delta"),
    (["sweep", "--param", "tau", "--gammas", "0.9", "--set", "pulses.d_tau=0.01"], "pulses.d_tau"),
], ids=["threshold", "curves", "sweep"])
def test_override_of_a_fixed_key_exits_2(tmp_path, capsys, argv, name):
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not out.exists()


def test_a_curves_family_is_one_table_row(tmp_path, monkeypatch):
    # the experiment name, the --family choice and the points follow from the row
    monkeypatch.setitem(expcli.CURVE_FAMILIES, "extra", ({"d_delta": 0.1}, [
        ("curves_extra_regular", "regular", {}, False, (None, 0.5)),
        ("curves_extra_random", "random", {"d_tau": 0.1}, False, (None,)),
    ]))
    expcli.build_parser.cache_clear()
    try:
        out = tmp_path / "out"
        argv = ["curves", "--family", "extra", "--tmax", "1", "--grid-dt", "0.02", "--ensemble", "3"]
        assert run_cli([*argv, "--out", str(out)]) == 0
        assert run_cli([*argv, "--set", "pulses.d_tau=0.001", "--out", str(tmp_path / "fixed")]) == 2
        spec, _ = parse_cli(argv)
    finally:
        expcli.build_parser.cache_clear()
    assert sorted(p.name for p in out.glob("*.csv")) == [
        "curves_extra_random.csv", "curves_extra_regular.csv", "curves_extra_regular_0.5.csv"]
    assert json.loads((out / "manifest.json").read_text())["experiment"] == "curves-extra"
    random_point = build_bundle(expcli.expand(spec)[1].overrides_with(spec.overrides)).pulses
    assert (random_point.d_tau, random_point.d_delta) == (0.1 * PulseParams.tau, 0.1 * PulseParams.tau)


@pytest.mark.parametrize("argv, boots", [
    (["threshold", "--random"], 0),
    (["threshold", "--random", "--t-mode", "mean-crossings"], 0),
    (["sweep", "--param", "tau", "--grid", "0:0.5:0.5"], 2),
], ids=["threshold-mean-curve", "threshold-mean-crossings", "sweep"])
def test_deviation_free_rows_are_not_bootstrapped(tmp_path, monkeypatch, argv, boots):
    # every sample of a deviation-free point is the regular train: its interval is T
    calls = []
    full = expcli.bootstrap_threshold_ci

    def spy(*args, **kwargs):
        calls.append(args)
        return full(*args, **kwargs)

    monkeypatch.setattr(expcli, "bootstrap_threshold_ci", spy)
    common = ["--gammas", "0.5,0.9", "--tmax", "6", "--grid-dt", "0.02", "--ensemble", "6",
              "--seed", "777", "--set", "sim.threshold=0.995"]
    assert run_cli([*argv, *common, "--out", str(tmp_path)]) == 0
    assert len(calls) == boots  # the sweep's ratio 0.5 rows still bootstrap
    (table,) = tmp_path.glob("*.csv")
    rows = [line.split(",") for line in table.read_text().splitlines()[1:]]
    free = [row for row in rows if row[2] == "0"]
    assert len(free) == 2 and all(row[5] == row[3] == row[6] != "" for row in free)


def test_an_invalid_base_configuration_does_not_fail_valid_points(tmp_path):
    # the manifest's params are the base configuration under each point's
    # defaults; only the points' own bundles are validated
    sweep = ["sweep", "--param", "tau", "--gammas", "0.9", "--grid", "0:0:1", "--ensemble", "4"]
    with contextlib.redirect_stdout(io.StringIO()):
        # the points run at grid_dt 0.002 and 0.02, not the library's 0.01
        assert main(["threshold", "--no-control", "--tmax", "0.005", "--out", str(tmp_path / "nc")]) == 0
        assert main([*sweep, "--step", "0.015", "--out", str(tmp_path / "step")]) == 0
        assert main([*sweep, "--out", str(tmp_path / "default")]) == 0
    params = json.loads((tmp_path / "step" / "manifest.json").read_text())["params"]
    assert (params["sim.step"], params["sim.grid_dt"]) == (0.015, SimConfig.grid_dt)
    # the exact integrator does not read step
    assert (tmp_path / "step" / "sweep_tau.csv").read_bytes() == (tmp_path / "default" / "sweep_tau.csv").read_bytes()


def test_oracle_check_step_bound_runs_nothing(tmp_path, capsys, monkeypatch, pool_spy):
    def never(*args, **kwargs):
        raise AssertionError("integrated before validation")

    monkeypatch.setattr(oracle, "integrate", never)
    monkeypatch.setattr(expcli, "usable_cpus", lambda: 8)
    out = tmp_path / "oracle"
    assert run_cli(["oracle-check", "--step", "1e-9", "--out", str(out)]) == 3
    assert "step-count-too-large" in capsys.readouterr().err
    assert not out.exists()
    assert pool_spy == []


UNTIL_RUNS = [
    (["sweep", "--param", "tau", "--gammas", "0.9", "--grid", "0:0.5:0.5", "--tmax", "2"], 0.95),
    (["threshold", "--random", "--gammas", "0.9", "--tmax", "2", "--set", "sim.threshold=0.99",
      "--set", "pulses.d_tau=0.004"], 0.99),
    (["threshold", "--random", "--t-mode", "mean-crossings", "--gammas", "0.9", "--tmax", "2",
      "--set", "pulses.d_tau=0.004"], 0.95),
    (["curves", "--family", "mu", "--tmax", "1"], None),
    (["curves", "--family", "deltatau", "--tmax", "1"], None),
    (["run", "--mu2", "0.3", "--tmax", "1", "--set", "pulses.d_tau=0.004"], None),
    (["run", "--tmax", "1", "--set", "pulses.d_tau=0.004"], None),
    (["threshold", "--random", "--gammas", "0.9", "--tmax", "2", "--step", "1e-3", "--set", "sim.integrator=rk4",
      "--set", "pulses.d_tau=0.004"], 0.95),
]


@pytest.mark.parametrize("argv,until", UNTIL_RUNS)
def test_only_t_row_points_stop_early(tmp_path, monkeypatch, argv, until):
    # points that write curves need every column; T rows only those up to C
    seen = []
    full = expcli.ensemble_functionals

    def spy(*args, **kw):
        seen.append(kw.get("until"))
        return full(*args, **kw)

    monkeypatch.setattr(expcli, "ensemble_functionals", spy)
    assert run_cli([*argv, "--ensemble", "3", "--grid-dt", "0.02", "--out", str(tmp_path)]) == 0
    assert seen and set(seen) == {until}


FUZZ_VALUES = ("nan", "inf", "-inf", "-0.0", "0", "1e-300", "1e300", "abc")


@pytest.mark.filterwarnings("ignore:d_phi")
@given(sets=st.lists(st.tuples(st.sampled_from(sorted(CONFIG_KEYS)), st.sampled_from(FUZZ_VALUES)),
                     min_size=1, max_size=2, unique_by=lambda kv: kv[0]))
@settings(max_examples=4 * len(CONFIG_KEYS) * len(FUZZ_VALUES), deadline=None)
def test_validate_fuzz_every_key_exits_cleanly(sets):
    # validate runs nothing; every bad value, alone or with a second one (the
    # ratio overflow needed two keys), must map to a documented exit code
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["validate", *(arg for key, value in sets for arg in ("--set", f"{key}={value}"))])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("cpus,pools", [(3, [3]), (1, []), (None, [])])
def test_threads_are_capped_at_the_cpu_count(tmp_path, monkeypatch, cpus, pools):
    # a fork pool starts all its processes at the first map: --threads 100000
    # must not ask for 100000 of them; the manifest still records the request.
    # Without an affinity call the CPU helper reads os.cpu_count (None: 1).
    sizes, tasks = [], []

    class SerialPool:
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            tasks.append(args)
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(expcli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.delattr(expcli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(expcli.os, "cpu_count", lambda: cpus)
    assert expcli.usable_cpus() == (cpus or 1)
    # 100 samples are four lane groups, more than the 3 CPUs
    argv = ["sweep", "--param", "tau", "--gammas", "0.9", "--grid", "0:0.5:0.5", "--tmax", "2",
            "--ensemble", "100", "--grid-dt", "0.02"]
    assert run_cli([*argv, "--threads", "100000", "--out", str(tmp_path / "many")]) == 0
    assert sizes == pools and bool(tasks) == bool(pools)
    manifest = json.loads((tmp_path / "many" / "manifest.json").read_text())
    assert manifest["settings"]["workers"] == 100000
    assert run_cli([*argv, "--threads", "1", "--out", str(tmp_path / "one")]) == 0
    assert (tmp_path / "many" / "sweep_tau.csv").read_bytes() == (tmp_path / "one" / "sweep_tau.csv").read_bytes()


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(expcli.os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    monkeypatch.setattr(expcli.os, "cpu_count", lambda: 64)
    assert expcli.usable_cpus() == 2


class PoolSpy(expcli.ProcessPoolExecutor):
    """A real process pool that records each one created, its size, each
    callable submitted to it and whether its shutdown cancelled the tasks
    not yet started."""

    pools: list = []
    sizes: list = []
    submits: list = []
    cancels: list = []

    def __init__(self, max_workers, **kwargs):
        PoolSpy.pools.append(self)
        PoolSpy.sizes.append(max_workers)
        super().__init__(max_workers=max_workers, **kwargs)

    def submit(self, fn, /, *args, **kwargs):
        PoolSpy.submits.append(fn)
        return super().submit(fn, *args, **kwargs)

    def shutdown(self, wait=True, *, cancel_futures=False):
        PoolSpy.cancels.append(cancel_futures)
        super().shutdown(wait, cancel_futures=cancel_futures)


@pytest.fixture
def pool_spy(monkeypatch):
    monkeypatch.setattr(PoolSpy, "pools", [])
    monkeypatch.setattr(PoolSpy, "sizes", [])
    monkeypatch.setattr(PoolSpy, "submits", [])
    monkeypatch.setattr(PoolSpy, "cancels", [])
    monkeypatch.setattr(expcli, "ProcessPoolExecutor", PoolSpy)
    return PoolSpy.sizes


def test_default_starts_no_pool_without_two_lane_groups(tmp_path, monkeypatch, pool_spy):
    # plenty of CPUs, so only the work decides
    monkeypatch.setattr(expcli, "usable_cpus", lambda: 8)
    small = ["--tmax", "3", "--seed", "7"]
    calls = {
        "threshold-regular": ["threshold", "--regular", "--gammas", "0.9", *small],
        "threshold-nocontrol": ["threshold", "--no-control", "--gammas", "0.9", *small],
        "run-regular": ["run", "--regular", "--save-schedule", *small],
        "sweep-6": ["sweep", "--param", "tau", "--gammas", "0.9", "--grid", "0:0.5:0.5", "--ensemble", "6",
                    *small],
    }
    for name, argv in calls.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(tmp_path / name)]) == 0, name
    replay = ["run", "--replay", str(tmp_path / "run-regular" / "schedule.csv"), *small]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*replay, "--out", str(tmp_path / "replay")]) == 0
    assert pool_spy == []
    assert json.loads((tmp_path / "sweep-6" / "manifest.json").read_text())["settings"]["workers"] == "auto"


def test_default_pool_is_sized_by_cpus_and_lane_groups(tmp_path, pool_spy):
    argv = ["sweep", "--param", "tau", "--gammas", "0.9", "--grid", "0:0.5:0.5", "--tmax", "4",
            "--ensemble", "40", "--grid-dt", "0.02", "--set", "sim.threshold=0.995"]
    # ratio 0.5: d_tau = 0.01
    sim = SimConfig(t_max=4.0, grid_dt=0.02, ensemble_n=40)
    groups = len(riccati.lane_groups(40, SystemParams(gamma=0.9), PulseParams(d_tau=0.01), sim))
    assert groups == 2
    blobs = []
    for threads in ([], ["--threads", "1"], ["--threads", "2"]):
        out = tmp_path / "-".join(["t", *threads[1:]])
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, *threads, "--out", str(out)]) == 0
        blobs.append((out / "sweep_tau.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    want = min(expcli.usable_cpus(), groups)
    assert pool_spy == [size for size in (want, min(2, want)) if size > 1]


def test_worker_determinism_across_lane_groups(tmp_path, monkeypatch, pool_spy):
    # criterion 12's 32 samples are one lane group, which no pool runs; here
    # 8-lane groups give 5 groups to spread over 1, 2 and 4 workers
    monkeypatch.setattr(riccati, "MAX_LANES", 8)
    argv = ["run", "--set", "system.gamma=0.3", "--set", "pulses.d_tau=0.004", "--set", "pulses.d_delta=0.004",
            "--tmax", "5", "--ensemble", "40", "--grid-dt", "0.02"]
    blobs = {}
    for workers in (1, 2, 4):
        out = tmp_path / f"w{workers}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--threads", str(workers), "--out", str(out)]) == 0
        blobs[workers] = (out / "curve.csv").read_bytes()
    assert blobs[1] == blobs[2] == blobs[4]
    cpus = expcli.usable_cpus()
    assert pool_spy == [min(w, cpus) for w in (2, 4) if min(w, cpus) > 1]


LOOK_AHEAD_RUNS = {
    # regular points run in this process between the four two-group random ones
    "curves-delta": ["curves", "--family", "delta", "--ensemble", "40", "--tmax", "5"],
    # per gamma a deviation-free ratio-0 point, then two two-group points that stop early
    "sweep-tau": ["sweep", "--param", "tau", "--gammas", "0.5,0.9", "--grid", "0:0.5:0.25", "--ensemble", "40",
                  "--tmax", "4", "--set", "sim.threshold=0.995"],
}


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_every_start_method_is_byte_identical(tmp_path, monkeypatch, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    monkeypatch.setattr(expcli, "START_METHOD", method)
    monkeypatch.setattr(expcli, "usable_cpus", lambda: 2)
    # 40 samples at gamma 0.9 are two lane groups per random point
    argv = ["sweep", "--param", "tau", "--gammas", "0.9", "--grid", "0:0.5:0.25", "--ensemble", "40"]
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--threads", threads, "--out", str(out)]) == 0
        settings = json.loads((out / "manifest.json").read_text())["settings"]
        runs[threads] = (out / "sweep_tau.csv").read_bytes(), settings.get("start_method")
    assert runs["2"] == (runs["1"][0], method) and runs["1"][1] is None


@pytest.mark.filterwarnings("ignore:pulse-overlap-possible")
@pytest.mark.parametrize("name", sorted(LOOK_AHEAD_RUNS))
def test_look_ahead_is_byte_identical_at_any_thread_count(tmp_path, pool_spy, name):
    # later points' lane groups are submitted while earlier points are
    # integrated, reduced and written here; every CSV keeps its bytes
    csvs, methods = {}, {}
    for threads in (["--threads", "1"], ["--threads", "2"], []):
        out = tmp_path / "-".join(["t", *threads[1:]])
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*LOOK_AHEAD_RUNS[name], *threads, "--out", str(out)]) == 0
        csvs[out.name] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        methods[out.name] = json.loads((out / "manifest.json").read_text())["settings"].get("start_method")
    assert len(csvs["t-1"]) == (8 if name == "curves-delta" else 1)
    assert csvs["t-1"] == csvs["t-2"] == csvs["t"]
    pool = "fork" if sys.platform == "linux" else multiprocessing.get_start_method()
    assert methods == {"t-1": None, "t-2": pool if min(2, expcli.usable_cpus()) > 1 else None,
                       "t": pool if expcli.usable_cpus() > 1 else None}
    assert pool_spy == [n for n in (min(2, expcli.usable_cpus()), min(8, expcli.usable_cpus())) if n > 1]


@pytest.mark.filterwarnings("ignore:pulse-overlap-possible")
def test_blowup_at_a_later_point_exits_4_as_in_one_process(tmp_path, monkeypatch, capsys, pool_spy):
    # the peak |Q| of the random points grows with delta (r0.5 ~0.02786,
    # r0.75 ~0.02789); the bound fails the r0.5 point first, which a pool
    # finishes while the r0.75 point, submitted ahead, may still be queued
    monkeypatch.setattr(riccati, "DEFAULT_BLOWUP", 0.02785)
    seen = {}
    for threads in (["--threads", "1"], []):
        out = tmp_path / "-".join(["t", *threads[1:]])
        assert run_cli([*LOOK_AHEAD_RUNS["curves-delta"], *threads, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        seen[out.name] = err, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert seen["t-1"] == seen["t"]
    err, files = seen["t"]
    assert "ensemble sample" in err and "master_seed 12345" in err
    assert sorted(files) == [f"curves_delta_r{r}_{kind}.csv" for r in ("0.3", "0.4") for kind in ("random", "regular")
                             ] + ["curves_delta_r0.5_regular.csv"]
    assert PoolSpy.cancels == [True] * len(pool_spy)


class InProcessPool:
    """A pool that starts no process: a task runs in this process when its
    result is read. Records each pool's size, the level of every task
    submitted, and the most tasks submitted and not yet read."""

    sizes: list = []
    levels: list = []
    outstanding = peak = 0
    _processes: dict = {}  # none to terminate when a run fails (expcli._pool)

    def __init__(self, max_workers, **kwargs):
        InProcessPool.sizes.append(max_workers)

    def submit(self, fn, *args):
        InProcessPool.levels.append(args[-1])  # _fill_group(system, pulses, sim, ks, level)
        InProcessPool.outstanding += 1
        InProcessPool.peak = max(InProcessPool.peak, InProcessPool.outstanding)
        return _InProcessTask(fn, args)

    def shutdown(self, cancel_futures=False):
        pass


class _InProcessTask:
    def __init__(self, fn, args):
        self.fn, self.args = fn, args

    def result(self):
        InProcessPool.outstanding -= 1
        return self.fn(*self.args)


@pytest.fixture
def in_process_pool(monkeypatch):
    monkeypatch.setattr(expcli, "usable_cpus", lambda: 8)
    for name, value in (("sizes", []), ("levels", []), ("outstanding", 0), ("peak", 0)):
        monkeypatch.setattr(InProcessPool, name, value)
    monkeypatch.setattr(expcli, "ProcessPoolExecutor", InProcessPool)
    return InProcessPool


@pytest.mark.parametrize("argv,until", UNTIL_RUNS)
def test_pool_points_start_with_their_until(tmp_path, monkeypatch, in_process_pool, argv, until):
    # at 40 samples every random point has two lane groups, so it starts on the pool
    init, start, seen = fidelity.EnsembleRun.__init__, fidelity.EnsembleRun.start, []

    def init_spy(self, system, pulses, sim, until=None):
        self.spied_until = until
        init(self, system, pulses, sim, until)

    def start_spy(self, executor=None):
        if executor is not None:
            seen.append((self.pool_tasks, self.spied_until))
        return start(self, executor)

    monkeypatch.setattr(fidelity.EnsembleRun, "__init__", init_spy)
    monkeypatch.setattr(fidelity.EnsembleRun, "start", start_spy)
    assert run_cli([*argv, "--ensemble", "40", "--grid-dt", "0.02", "--out", str(tmp_path)]) == 0
    assert seen and set(seen) == {(2, until)}
    assert len(in_process_pool.levels) == 2 * len(seen)
    assert {level is None for level in in_process_pool.levels} == {until is None}


def test_look_ahead_budget_and_pool_size_with_a_fake_pool(tmp_path, monkeypatch, in_process_pool):
    # ten two-group points on 8 CPUs: the pool is min(8, 20 tasks) and at
    # most 2 x 8 tasks are submitted and not yet read. With no stop margin
    # some groups run again, in this process: the pool gets first passes only
    monkeypatch.setattr(fidelity, "STOP_MARGIN", 0.0)
    reruns = []
    fill = fidelity._fill_group

    def spy(system, pulses, sim, ks, level=None):
        if level is None:
            reruns.append(ks.start)
        return fill(system, pulses, sim, ks, level)

    monkeypatch.setattr(fidelity, "_fill_group", spy)
    argv = ["sweep", "--param", "tau", "--gammas", "0.9", "--grid", "0:0.5:0.05", "--tmax", "2",
            "--ensemble", "40", "--grid-dt", "0.02", "--set", "sim.threshold=0.995"]
    assert run_cli([*argv, "--out", str(tmp_path / "fake")]) == 0
    assert in_process_pool.sizes == [8] and in_process_pool.outstanding == 0
    assert 8 < in_process_pool.peak <= 2 * 8
    assert len(in_process_pool.levels) == 20 and None not in in_process_pool.levels and reruns
    assert run_cli([*argv, "--threads", "1", "--out", str(tmp_path / "one")]) == 0
    assert (tmp_path / "fake" / "sweep_tau.csv").read_bytes() == (tmp_path / "one" / "sweep_tau.csv").read_bytes()


T_HEADER = "label,gamma,d_over_x,T,crossed,ci_low,ci_high\n"
NEVER_CROSS = {
    # a grid of two columns, 0 and t_max 0.02, that no group crosses
    "zero-row-heads": (["sweep", "--param", "tau", "--gammas", "0.9", "--tmax", "0.02", "--grid-dt", "0.02",
                        "--grid", "0:0.5:0.5", "--ensemble", "40"], "sweep_tau.csv",
                       T_HEADER + "sweep-tau,0.9,0,0.02,false,0.02,0.02\nsweep-tau,0.9,0.5,0.02,false,0.02,0.02\n"),
    # a deviation-free lane that never crosses theta before t_max
    "uncrossed-lane": (["threshold", "--random", "--tmax", "40", "--gammas", "0.2"], "threshold_random.csv",
                       T_HEADER + "random,0.2,0,40,false,40,40\n"),
}


@pytest.mark.parametrize("pool", ["threads1", "in-process-pool"])
@pytest.mark.parametrize("case", sorted(NEVER_CROSS))
def test_groups_that_run_out_of_their_heads_run_once_more_whole(tmp_path, monkeypatch, request, case, pool):
    # a point that never crosses theta: every group, in this process or on
    # the pool, runs once on whole tables and fills the grid, so none runs
    # again. A second run of one group fails at once
    argv, name, csv = NEVER_CROSS[case]
    if pool == "threads1":
        argv = [*argv, "--threads", "1"]
    else:
        request.getfixturevalue("in_process_pool")
    runs = set()
    fill = fidelity._fill_group

    def spy(system, pulses, sim, ks, level=None):
        if (system, pulses, ks.start) in runs:
            raise AssertionError(f"group {ks} of {pulses} ran again")
        runs.add((system, pulses, ks.start))
        return fill(system, pulses, sim, ks, level)

    monkeypatch.setattr(fidelity, "_fill_group", spy)
    assert run_cli([*argv, "--out", str(tmp_path)]) == 0
    assert (tmp_path / name).read_text() == csv
    assert len(runs) == {"zero-row-heads": 3, "uncrossed-lane": 1}[case]


def test_sigterm_shuts_the_pool_and_exits_143(tmp_path, monkeypatch, capsys, pool_spy):
    # SIGTERM while a pool point finishes unwinds the run through the pool's
    # shutdown, so no worker outlives it; the workers keep the default SIGTERM
    monkeypatch.setattr(expcli, "usable_cpus", lambda: 2)
    finish, handlers = fidelity.EnsembleRun.finish, []

    def finish_then_sigterm(self):
        handlers.append(PoolSpy.pools[-1].submit(signal.getsignal, signal.SIGTERM).result(timeout=60))
        signal.raise_signal(signal.SIGTERM)
        return finish(self)

    def previous(signum, frame):
        raise AssertionError("SIGTERM reached the handler main replaces")

    monkeypatch.setattr(fidelity.EnsembleRun, "finish", finish_then_sigterm)
    original = signal.signal(signal.SIGTERM, previous)
    try:
        code = run_cli(["run", "--set", "pulses.d_tau=0.004", "--tmax", "2", "--ensemble", "40",
                        "--grid-dt", "0.02", "--out", str(tmp_path)])
        restored = signal.getsignal(signal.SIGTERM)
    finally:
        signal.signal(signal.SIGTERM, original)
    assert code == 143 and restored is previous
    err = capsys.readouterr().err
    assert err == "terminated by SIGTERM\n"
    assert handlers == [signal.SIG_DFL]
    assert pool_spy == [2] and PoolSpy.cancels == [True]
    assert multiprocessing.active_children() == []


def _touch_and_sleep(path):
    """A pool task that marks its start, then outlasts the SIGTERM test's 5 s bound."""
    open(path, "w").close()
    time.sleep(15)


def test_sigterm_ends_a_running_pool_task(tmp_path, monkeypatch, capsys, pool_spy):
    # a task a worker is running cannot be cancelled: SIGTERM terminates the
    # pool's workers rather than waiting for it
    monkeypatch.setattr(expcli, "usable_cpus", lambda: 2)
    finish, started, sent = fidelity.EnsembleRun.finish, tmp_path / "started", []

    def finish_then_sigterm(self):
        factors = finish(self)  # the point's groups are collected; the workers are idle
        task = PoolSpy.pools[-1].submit(_touch_and_sleep, str(started))
        deadline = time.monotonic() + 30
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert started.exists() and task.running()
        sent.append(time.monotonic())
        signal.raise_signal(signal.SIGTERM)
        return factors

    monkeypatch.setattr(fidelity.EnsembleRun, "finish", finish_then_sigterm)
    code = run_cli(["run", "--set", "pulses.d_tau=0.004", "--tmax", "2", "--ensemble", "40",
                    "--grid-dt", "0.02", "--out", str(tmp_path / "out")])
    assert code == 143 and time.monotonic() - sent[0] < 5
    assert capsys.readouterr().err == "terminated by SIGTERM\n"
    assert pool_spy == [2] and PoolSpy.cancels == [True]
    assert multiprocessing.active_children() == []


def _children(pid):
    """The pids of the child processes of pid, from /proc."""
    children = set()
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as f:
            children.update(map(int, f.read().split()))
    return children


def _alive(pid):
    """Whether pid names a process that has not ended (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _ignored_signals(pid):
    """The signals pid ignores, from the SigIgn mask in /proc."""
    with open(f"/proc/{pid}/status") as f:
        mask = int(next(line for line in f if line.startswith("SigIgn:")).split()[1], 16)
    return {signum for signum in range(1, 65) if mask >> (signum - 1) & 1}


@pytest.mark.skipif(not sys.platform.startswith("linux") or expcli.usable_cpus() < 2,
                    reason="reads the workers from /proc; a pool needs two CPUs")
def test_ctrl_c_exits_130_with_one_line_and_no_worker_left(tmp_path):
    # Ctrl-C sends SIGINT to the whole process group: the workers ignore it
    # and the main process ends them, then reports it in one line
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(expcli.__file__))}
    proc = subprocess.Popen([sys.executable, "-m", "randdd", "sweep", "--param", "tau", "--gammas", "0.2",
                             "--out", str(tmp_path / "out")],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while not _children(proc.pid) and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)  # a pool starts its workers together, and each sets its signals first
        workers = _children(proc.pid)
        assert workers and proc.poll() is None
        assert all(signal.SIGINT in _ignored_signals(pid) for pid in workers)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    deadline = time.monotonic() + 10
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert proc.returncode == 130
    assert err == "interrupted by SIGINT\n" and out == ""
    assert not any(map(_alive, workers))


def _half_send_and_sleep(fd, path):
    """A pool task that writes the head of a 1 MiB result message to the
    result pipe, as a worker ended mid-send leaves it, then marks its start
    and sleeps until it is terminated."""
    os.write(fd, struct.pack("!i", 1 << 20) + b"partial")
    open(path, "w").close()
    time.sleep(60)


def test_a_failing_run_ends_while_a_result_is_half_sent(tmp_path, monkeypatch):
    # a worker terminated while sending its result leaves part of a message
    # in the result pipe; the failing run's pool shutdown must not wait for
    # the rest (the task writes to the pipe it inherits, so the pool forks)
    monkeypatch.setattr(expcli, "START_METHOD", "fork")
    started, pools, outcome = tmp_path / "started", [], []

    def failing_run():
        try:
            with expcli._pool(2, {}) as executor:
                pools.append(executor)
                executor.submit(_half_send_and_sleep, executor._result_queue._writer.fileno(), str(started))
                deadline = time.monotonic() + 30
                while not started.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise RuntimeError("the run failed")
        except RuntimeError as exc:
            outcome.append(str(exc))

    thread = threading.Thread(target=failing_run, daemon=True)
    t0 = time.monotonic()
    thread.start()
    thread.join(30)
    stalled = thread.is_alive()
    if stalled:  # free the pool's manager thread, so this test fails rather than hangs
        pools[0]._result_queue._writer.close()
        thread.join()
    assert not stalled and time.monotonic() - t0 < 10
    assert started.exists() and outcome == ["the run failed"]
    assert multiprocessing.active_children() == []


NOCONTROL_DEV = oracle._nocontrol_dev


def _nocontrol_dev_noting_pid(path, *args):
    """oracle._nocontrol_dev that first appends the pid running it to path;
    a pool can run it too."""
    with open(path, "a") as f:
        f.write(f"{os.getpid()}\n")
    return NOCONTROL_DEV(*args)


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_oracle_check_pool_is_one_worker_and_byte_identical(tmp_path, monkeypatch, pool_spy, cpus):
    # the pulsed check runs on a one-worker pool whenever two processes are
    # allowed, and the longer no-control check in this process; the report
    # keeps its bytes either way
    monkeypatch.setattr(expcli, "usable_cpus", lambda: cpus)
    pids = tmp_path / "pids"
    monkeypatch.setattr(oracle, "_nocontrol_dev", functools.partial(_nocontrol_dev_noting_pid, str(pids)))
    reports, methods = {}, {}
    for threads in (["--threads", "1"], ["--threads", "2"], []):
        out = tmp_path / "-".join(["t", *threads[1:]])
        assert run_cli(["oracle-check", "--step", "1e-3", *threads, "--out", str(out)]) == 0
        reports[out.name] = (out / "oracle_report.json").read_bytes()
        methods[out.name] = json.loads((out / "manifest.json").read_text())["settings"].get("start_method")
    assert reports["t-1"] == reports["t-2"] == reports["t"]
    pool = "fork" if sys.platform == "linux" else multiprocessing.get_start_method()
    started = pool if cpus > 1 else None
    assert methods == {"t-1": None, "t-2": started, "t": started}
    assert pool_spy == ([1, 1] if cpus > 1 else [])
    assert PoolSpy.submits == [oracle._pulsed_devs] * len(pool_spy)
    assert pids.read_text().split() == [str(os.getpid())] * 3
    assert PoolSpy.cancels == [True] * len(pool_spy)
    assert multiprocessing.active_children() == []


def test_oracle_check_failure_reports_the_serial_error(tmp_path, monkeypatch, capsys, pool_spy):
    # both RK4 runs leave the bound at their first step; the serial order
    # reports the no-control run's error, raised here while the pool holds
    # the pulsed run's
    monkeypatch.setattr(riccati, "DEFAULT_BLOWUP", 1e-5)
    monkeypatch.setattr(expcli, "usable_cpus", lambda: 2)
    (sys_nc, sim_nc), _ = oracle.oracle_configs(1e-3)
    with pytest.raises(BlowUpError) as nocontrol:
        oracle._nocontrol_dev(sys_nc, sim_nc)
    errs = {}
    for threads in (["--threads", "1"], []):
        out = tmp_path / "-".join(["t", *threads[1:]])
        assert run_cli(["oracle-check", "--step", "1e-3", *threads, "--out", str(out)]) == 4
        errs[out.name] = capsys.readouterr().err
        assert not out.exists()
    assert errs["t-1"] == errs["t"] == f"numerical error: {nocontrol.value}\n"
    assert pool_spy == [1] and PoolSpy.cancels == [True]


def test_oracle_check_sigterm_shuts_the_pool_and_exits_143(tmp_path, monkeypatch, capsys, pool_spy):
    # SIGTERM while the no-control check runs here unwinds through the
    # pool's shutdown while the worker holds the pulsed check
    monkeypatch.setattr(expcli, "usable_cpus", lambda: 2)
    nocontrol, handlers = oracle._nocontrol_dev, []

    def nocontrol_then_sigterm(*args):
        handlers.append(PoolSpy.pools[-1].submit(signal.getsignal, signal.SIGTERM).result(timeout=60))
        signal.raise_signal(signal.SIGTERM)
        return nocontrol(*args)

    monkeypatch.setattr(oracle, "_nocontrol_dev", nocontrol_then_sigterm)
    code = run_cli(["oracle-check", "--step", "1e-3", "--out", str(tmp_path / "oracle")])
    assert code == 143
    assert capsys.readouterr().err == "terminated by SIGTERM\n"
    assert handlers == [signal.SIG_DFL]
    assert pool_spy == [1] and PoolSpy.cancels == [True]
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "oracle").exists()
