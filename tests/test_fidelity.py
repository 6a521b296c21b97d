import numpy as np
import pytest

from randdd.errors import CURVE_BELOW_THRESHOLD, ValidationError
from randdd.fidelity import (
    EnsembleFactors,
    FidelityCurve,
    bootstrap_threshold_ci,
    ensemble_functionals,
    ensemble_mean,
    fidelity_avg,
    fidelity_pure,
    mean_crossing_time,
    threshold_time,
)
from randdd.model import InitialState, PulseParams, SimConfig, SystemParams
from randdd.oracle import closed_form_barQ
from randdd import riccati
from randdd.errors import BlowUpError
from randdd.pulsegen import RandomStream, empty_schedule, generate_random
from randdd.riccati import QTrajectory, integrate_exact, lane_groups


@pytest.fixture(scope="module")
def nocontrol_traj():
    sys_p = SystemParams(gamma=0.2)
    sim = SimConfig(t_max=3.0, step=1e-4, grid_dt=0.01, ensemble_n=1)
    return integrate_exact(empty_schedule(3.0), sys_p, sim)


def test_fidelity_starts_at_unity(nocontrol_traj):
    for init in (InitialState(1.0, 0.0), InitialState(0.6, 0.8), InitialState(0.0, 1.0)):
        assert fidelity_pure(nocontrol_traj, init).values[0] == pytest.approx(1.0, abs=1e-12)
    assert fidelity_avg(nocontrol_traj).values[0] == pytest.approx(1.0, abs=1e-12)


def test_ground_state_is_decoherence_free(nocontrol_traj):
    curve = fidelity_pure(nocontrol_traj, InitialState(0.0, 1.0))
    np.testing.assert_allclose(curve.values, 1.0, atol=1e-12)


def test_excited_state_reduces_to_population_term(nocontrol_traj):
    sys_p = SystemParams(gamma=0.2)
    curve = fidelity_pure(nocontrol_traj, InitialState(1.0, 0.0))
    ref = np.abs(closed_form_barQ(sys_p, nocontrol_traj.grid)) ** 2
    assert np.max(np.abs(curve.values - ref)) < 1e-8


def test_average_value_at_known_crossing(nocontrol_traj):
    # gamma = 0.2: the state-averaged fidelity passes 0.95 at t = 1.42
    i = int(round(1.42 / 0.01))
    assert nocontrol_traj.grid[i] == pytest.approx(1.42, abs=1e-12)
    assert fidelity_avg(nocontrol_traj).values[i] == pytest.approx(0.95, abs=1e-3)


def test_avg_is_affine_combination(nocontrol_traj):
    # F_avg = 1/2 + e2/6 + Re(e1)/3 must equal the uniform-moment combination
    e2 = nocontrol_traj.decay_factor()
    e1 = np.real(nocontrol_traj.coherence_factor())
    expected = 0.5 + e2 / 6.0 + e1 / 3.0
    np.testing.assert_allclose(fidelity_avg(nocontrol_traj).values, expected, atol=1e-15)


def test_frame_term_uses_complex_j(nocontrol_traj):
    # shifting Im J changes the coherence term (and only that term)
    init = InitialState(0.6, 0.8)
    base = fidelity_pure(nocontrol_traj, init).values
    shifted = QTrajectory(
        nocontrol_traj.grid, nocontrol_traj.q, nocontrol_traj.j + 1j * 0.4 * nocontrol_traj.grid
    )
    moved = fidelity_pure(shifted, init).values
    assert np.max(np.abs(moved[1:] - base[1:])) > 1e-3
    # population-only state is insensitive to the phase of J
    pop_only = fidelity_pure(shifted, InitialState(1.0, 0.0)).values
    np.testing.assert_allclose(
        pop_only, fidelity_pure(nocontrol_traj, InitialState(1.0, 0.0)).values, atol=1e-14
    )


# --- threshold crossing -----------------------------------------------------

def test_threshold_baseline_times():
    for gamma, expected in ((0.2, 1.42), (0.5, 0.87), (0.9, 0.65)):
        sim = SimConfig(t_max=3.0, step=1e-4, grid_dt=0.002, ensemble_n=1)
        traj = integrate_exact(empty_schedule(3.0), SystemParams(gamma=gamma), sim)
        res = threshold_time(fidelity_avg(traj), 0.95)
        assert res.crossed
        assert res.time == pytest.approx(expected, abs=0.02)
        assert res.bracket[0] <= res.time <= res.bracket[1]


def test_threshold_no_crossing():
    curve = FidelityCurve(np.linspace(0, 1, 11), np.ones(11))
    res = threshold_time(curve, 0.9)
    assert not res.crossed and res.time == 1.0


def test_threshold_requires_start_above():
    curve = FidelityCurve(np.linspace(0, 1, 11), np.full(11, 0.5))
    with pytest.raises(ValidationError) as err:
        threshold_time(curve, 0.9)
    assert err.value.code == CURVE_BELOW_THRESHOLD


def test_threshold_linear_interpolation_exact():
    grid = np.linspace(0.0, 2.0, 21)
    vals = 1.0 - 0.3 * grid
    res = threshold_time(FidelityCurve(grid, vals), 0.76)
    assert res.time == pytest.approx(0.8, rel=1e-12)


def test_threshold_grid_resolution_robustness():
    sys_p = SystemParams(gamma=0.5)
    times = {}
    for dt in (0.004, 0.002):
        sim = SimConfig(t_max=2.0, step=1e-4, grid_dt=dt, ensemble_n=1)
        traj = integrate_exact(empty_schedule(2.0), sys_p, sim)
        times[dt] = threshold_time(fidelity_avg(traj), 0.95).time
    assert abs(times[0.004] - times[0.002]) < 0.004


# --- ensembles ---------------------------------------------------------------

SYS3 = SystemParams(gamma=0.3)
RAND_PULSES = PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_delta=0.004)


def test_ensemble_degenerate_equals_regular():
    from randdd.pulsegen import generate_regular
    from randdd.riccati import integrate_exact as ie

    pulses = PulseParams(0.02, 0.008, 0.2)
    sim = SimConfig(t_max=2.0, grid_dt=0.01, ensemble_n=1)
    curve = ensemble_mean(SYS3, pulses, sim)
    traj = ie(generate_regular(pulses, 2.0), SYS3, sim)
    np.testing.assert_array_equal(curve.values, fidelity_avg(traj).values)
    # a larger degenerate ensemble replicates the same sample (zero spread)
    sim5 = SimConfig(t_max=2.0, grid_dt=0.01, ensemble_n=5)
    curve5 = ensemble_mean(SYS3, pulses, sim5)
    np.testing.assert_array_equal(curve5.values, curve.values)
    np.testing.assert_array_equal(curve5.stderr, 0.0)


def test_ensemble_worker_determinism():
    sim = SimConfig(t_max=2.0, grid_dt=0.02, ensemble_n=12, master_seed=77)
    serial = ensemble_mean(SYS3, RAND_PULSES, sim, workers=1)
    parallel = ensemble_mean(SYS3, RAND_PULSES, sim, workers=2)
    np.testing.assert_array_equal(serial.values, parallel.values)
    np.testing.assert_array_equal(serial.stderr, parallel.stderr)


def test_ensemble_seed_sensitivity():
    sim_a = SimConfig(t_max=1.0, grid_dt=0.02, ensemble_n=8, master_seed=1)
    sim_b = SimConfig(t_max=1.0, grid_dt=0.02, ensemble_n=8, master_seed=2)
    a = ensemble_mean(SYS3, RAND_PULSES, sim_a)
    b = ensemble_mean(SYS3, RAND_PULSES, sim_b)
    assert np.max(np.abs(a.values - b.values)) > 0


def test_ensemble_bounds_and_start():
    sim = SimConfig(t_max=3.0, grid_dt=0.02, ensemble_n=30)
    curve = ensemble_mean(SYS3, RAND_PULSES, sim)
    assert curve.values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(curve.values <= 1.0 + 1e-9)
    assert np.all(curve.values >= -1e-9)


def test_stderr_scales_inverse_sqrt_n():
    sys_p = SystemParams(gamma=0.5)
    pulses = PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_delta=0.004)
    means = {}
    for n in (50, 200, 800):
        sim = SimConfig(t_max=5.0, grid_dt=0.05, ensemble_n=n, master_seed=5)
        se = ensemble_mean(sys_p, pulses, sim).stderr
        means[n] = np.mean(se[1:])
    r1 = means[50] / means[200]
    r2 = means[200] / means[800]
    assert 2.0 * 0.8 < r1 < 2.0 * 1.2
    assert 2.0 * 0.8 < r2 < 2.0 * 1.2


def test_mean_crossing_time_agrees_for_degenerate_ensemble():
    pulses = PulseParams(0.02, 0.008, 0.2)
    sys_p = SystemParams(gamma=0.9)
    sim = SimConfig(t_max=20.0, grid_dt=0.02, ensemble_n=4)
    factors = ensemble_functionals(sys_p, pulses, sim)
    t_curve = threshold_time(factors.mean_curve(), 0.95).time
    t_mean = mean_crossing_time(factors, 0.95)
    assert t_mean == pytest.approx(t_curve, rel=1e-12)


def test_mean_crossing_time_is_mean_of_per_sample_thresholds():
    grid = np.linspace(0.0, 4.0, 81)
    rates = np.array([[0.1], [0.3], [0.02], [0.5]])  # the 0.02 row never reaches 0.95
    factors = EnsembleFactors(grid, np.exp(-rates * grid), np.exp(-rates * grid), {})
    per_sample = [threshold_time(FidelityCurve(grid, row), 0.95) for row in factors.sample_curves()]
    assert [r.crossed for r in per_sample] == [True, True, False, True]
    assert mean_crossing_time(factors, 0.95) == np.mean([r.time for r in per_sample])


def test_bootstrap_ci_brackets_estimate():
    sys_p = SystemParams(gamma=0.9)
    sim = SimConfig(t_max=20.0, grid_dt=0.02, ensemble_n=60, master_seed=3)
    factors = ensemble_functionals(sys_p, RAND_PULSES, sim)
    t_hat = threshold_time(factors.mean_curve(), 0.95).time
    stream = RandomStream.for_bootstrap(3, 0)
    lo, hi = bootstrap_threshold_ci(factors, 0.95, stream, n_boot=100)
    assert lo <= t_hat <= hi
    assert (lo, hi) == bootstrap_threshold_ci(factors, 0.95, stream, n_boot=100)


def test_ensemble_blowup_tagged_with_sample_and_seed():
    # omega ~ 0 with strong coupling makes exp(-J) cross zero: a genuine
    # finite-time pole of the Riccati representation, caught by the RK4 guard
    sys_pole = SystemParams(omega=1e-9, Gamma=100.0, gamma=0.5)
    pulses = PulseParams(0.02, 0.008, 1e-5, d_phi=1e-6)  # control too weak to lift the pole
    sim = SimConfig(t_max=1.0, grid_dt=0.01, ensemble_n=2, master_seed=42, integrator="rk4")
    with pytest.raises(BlowUpError) as err:
        ensemble_functionals(sys_pole, pulses, sim)
    assert err.value.sample_index == 0
    assert err.value.master_seed == 42
    assert "master_seed 42" in str(err.value)


def test_exact_ensemble_blowup_matches_per_sample_path(monkeypatch):
    # a bound between the samples' peak |Q| makes several lanes of one group
    # fail; the error is the one the samples integrated in k order give, not
    # the one the lanes hit first in their short windows
    sim = SimConfig(t_max=2.0, grid_dt=0.02, ensemble_n=6, master_seed=42)
    schedules = [generate_random(RAND_PULSES, sim.t_max, RandomStream.for_schedule(42, k)) for k in range(6)]

    def peak(schedule):  # max |Q| over every breakpoint, as the check sees it
        monkeypatch.setattr(riccati, "DEFAULT_BLOWUP", 0.0)
        with pytest.raises(BlowUpError) as err:
            integrate_exact(schedule, SYS3, sim)
        return err.value.magnitude

    peaks = [peak(s) for s in schedules]
    bound = peaks[0]  # the group's first lane stays within it
    assert sum(p > bound for p in peaks) >= 2
    monkeypatch.setattr(riccati, "DEFAULT_BLOWUP", bound)
    monkeypatch.setattr(riccati, "WINDOW_ELEMS", 6 * 8)
    k = next(k for k, s in enumerate(schedules) if peaks[k] > bound)
    with pytest.raises(BlowUpError) as per_sample:
        integrate_exact(schedules[k], SYS3, sim, sample_index=k)
    want = (per_sample.value.t, per_sample.value.magnitude, k, 42)
    e2, e1 = np.empty((6, sim.grid_size())), np.empty((6, sim.grid_size()))
    with pytest.raises(BlowUpError) as in_lanes:
        riccati.exact_factors(iter(schedules), SYS3, sim, e2, e1, list(range(6)))
    assert (in_lanes.value.t, in_lanes.value.magnitude) != want[:2]
    with pytest.raises(BlowUpError) as err:
        ensemble_functionals(SYS3, RAND_PULSES, sim)
    assert (err.value.t, err.value.magnitude, err.value.sample_index, err.value.master_seed) == want


def test_ensemble_workers_agree_on_uneven_lane_groups():
    sim = SimConfig(t_max=1.0, grid_dt=0.02, ensemble_n=33, master_seed=8)
    assert [len(g) for g in lane_groups(33, SYS3, RAND_PULSES, sim)] == [17, 16]
    serial = ensemble_functionals(SYS3, RAND_PULSES, sim, workers=1)
    parallel = ensemble_functionals(SYS3, RAND_PULSES, sim, workers=2)
    assert np.array_equal(serial.e2, parallel.e2) and np.array_equal(serial.e1, parallel.e1)


def test_curve_csv_schema(tmp_path, nocontrol_traj):
    curve = fidelity_avg(nocontrol_traj)
    path = tmp_path / "curve.csv"
    curve.save(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,fidelity,stderr"
    assert lines[1] == "0,1,0"
