import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randdd import expcli, oracle
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
from randdd.errors import ValidationError
from randdd.model import SimConfig


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
    assert workers == 1


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


def test_cli_overrides_beat_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.master_seed = 1\n")
    spec, _ = parse_cli(["run", "--config", str(cfg), "--seed", "9"])
    assert spec.overrides["sim.master_seed"] == 9


def test_validate_subcommand(tmp_path, capsys):
    assert run_cli(["validate", "--set", "system.gamma=0.4"]) == 0
    out = capsys.readouterr().out
    assert "configuration valid" in out and "system.gamma = 0.4" in out


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


@pytest.mark.parametrize("argv, code", [
    (["--tmax", "1e12"], "grid-too-large"),
    (["--set", "pulses.tau=1e-9", "--set", "pulses.delta=1e-10"], "pulse-count-too-large"),
    (["--ensemble", "100000", "--tmax", "2000"], "ensemble-too-large"),
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


def test_oracle_check_rejects_ignored_overrides(tmp_path, capsys):
    # oracle-check runs fixed configurations: only --step and --seed reach it
    out = tmp_path / "oracle"
    argv = ["oracle-check", "--tmax", "5", "--ensemble", "7", "--set", "system.gamma=0.9", "--out", str(out)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in ("--tmax", "--ensemble", "system.gamma")) and "Traceback" not in err
    assert not out.exists()


def test_oracle_check_step_bound_runs_nothing(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("integrated before validation")

    monkeypatch.setattr(oracle, "integrate", never)
    out = tmp_path / "oracle"
    assert run_cli(["oracle-check", "--step", "1e-9", "--out", str(out)]) == 3
    assert "step-count-too-large" in capsys.readouterr().err
    assert not out.exists()


FUZZ_VALUES = ("nan", "inf", "-inf", "-0.0", "0", "1e-300", "1e300", "abc")


@pytest.mark.filterwarnings("ignore:d_phi")
@given(key=st.sampled_from(sorted(CONFIG_KEYS)), value=st.sampled_from(FUZZ_VALUES))
@settings(max_examples=4 * len(CONFIG_KEYS) * len(FUZZ_VALUES), deadline=None)
def test_validate_fuzz_every_key_exits_cleanly(key, value):
    # validate runs nothing; every bad value must map to a documented exit code
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["validate", "--set", f"{key}={value}"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
