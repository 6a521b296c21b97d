import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from randdd.errors import CURVE_BELOW_THRESHOLD, ValidationError
from randdd.fidelity import (
    EnsembleFactors,
    FidelityCurve,
    bootstrap_threshold_ci,
    ensemble_functionals,
    fidelity_avg,
    fidelity_pure,
    mean_crossing_time,
    threshold_time,
)
from randdd.model import InitialState, PulseParams, SimConfig, SystemParams
from randdd.oracle import closed_form_barQ
from randdd import fidelity, riccati
from randdd.errors import BlowUpError
from randdd.pulsegen import RandomStream, empty_schedule, generate_random, generate_regular
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
    shift = 1j * 0.4 * nocontrol_traj.grid
    shifted = QTrajectory(
        nocontrol_traj.grid, nocontrol_traj.q, nocontrol_traj.j + shift, nocontrol_traj.u * np.exp(-shift)
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
    curve = ensemble_functionals(SYS3, pulses, sim).mean_curve()
    traj = ie(generate_regular(pulses, 2.0), SYS3, sim)
    np.testing.assert_array_equal(curve.values, fidelity_avg(traj).values)
    # a larger deviation-free ensemble is the same one sample (zero spread)
    sim5 = SimConfig(t_max=2.0, grid_dt=0.01, ensemble_n=5)
    factors5 = ensemble_functionals(SYS3, pulses, sim5)
    assert factors5.n == 1
    curve5 = factors5.mean_curve()
    np.testing.assert_array_equal(curve5.values, curve.values)
    np.testing.assert_array_equal(curve5.stderr, 0.0)


def test_ensemble_worker_determinism():
    sim = SimConfig(t_max=2.0, grid_dt=0.02, ensemble_n=12, master_seed=77)
    serial = ensemble_functionals(SYS3, RAND_PULSES, sim).mean_curve()
    with ProcessPoolExecutor(2) as pool:
        parallel = ensemble_functionals(SYS3, RAND_PULSES, sim, executor=pool).mean_curve()
    np.testing.assert_array_equal(serial.values, parallel.values)
    np.testing.assert_array_equal(serial.stderr, parallel.stderr)


def test_ensemble_seed_sensitivity():
    sim_a = SimConfig(t_max=1.0, grid_dt=0.02, ensemble_n=8, master_seed=1)
    sim_b = SimConfig(t_max=1.0, grid_dt=0.02, ensemble_n=8, master_seed=2)
    a = ensemble_functionals(SYS3, RAND_PULSES, sim_a).mean_curve()
    b = ensemble_functionals(SYS3, RAND_PULSES, sim_b).mean_curve()
    assert np.max(np.abs(a.values - b.values)) > 0


def test_ensemble_bounds_and_start():
    sim = SimConfig(t_max=3.0, grid_dt=0.02, ensemble_n=30)
    curve = ensemble_functionals(SYS3, RAND_PULSES, sim).mean_curve()
    assert curve.values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(curve.values <= 1.0 + 1e-9)
    assert np.all(curve.values >= -1e-9)


def test_stderr_scales_inverse_sqrt_n():
    sys_p = SystemParams(gamma=0.5)
    pulses = PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_delta=0.004)
    means = {}
    for n in (50, 200, 800):
        sim = SimConfig(t_max=5.0, grid_dt=0.05, ensemble_n=n, master_seed=5)
        se = ensemble_functionals(sys_p, pulses, sim).mean_curve().stderr
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
    assert t_mean == t_curve


def test_mean_crossing_time_is_mean_of_per_sample_thresholds():
    grid = np.linspace(0.0, 4.0, 81)
    rates = np.array([[0.1], [0.3], [0.02], [0.5]])  # the 0.02 row never reaches 0.95
    factors = EnsembleFactors(grid, np.exp(-rates * grid), np.exp(-rates * grid))
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


def test_rk4_ensemble_reads_the_patched_blowup_bound(monkeypatch):
    # rk4 reads riccati.DEFAULT_BLOWUP at call time, as the exact kernel does
    sim = SimConfig(t_max=0.5, step=1e-3, grid_dt=0.02, ensemble_n=3, master_seed=42, integrator="rk4")
    monkeypatch.setattr(riccati, "DEFAULT_BLOWUP", 1e-4)
    with pytest.raises(BlowUpError) as err:
        ensemble_functionals(SYS3, RAND_PULSES, sim)
    assert (err.value.sample_index, err.value.master_seed) == (0, 42)
    assert err.value.magnitude > 1e-4 and "sample 0) (master_seed 42)" in str(err.value)


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
        integrate_exact(schedules[k], SYS3, sim)
    want = (per_sample.value.t, per_sample.value.magnitude, k, sim.master_seed)
    e2, e1 = np.empty((6, sim.grid_size())), np.empty((6, sim.grid_size()))
    with pytest.raises(BlowUpError) as in_lanes:
        riccati.exact_factors(schedules, SYS3, sim, e2, e1)
    assert (in_lanes.value.t, in_lanes.value.magnitude) != want[:2]
    with pytest.raises(BlowUpError) as err:
        ensemble_functionals(SYS3, RAND_PULSES, sim)
    assert (err.value.t, err.value.magnitude, err.value.sample_index, err.value.master_seed) == want


def test_ensemble_workers_agree_on_uneven_lane_groups():
    sim = SimConfig(t_max=1.0, grid_dt=0.02, ensemble_n=33, master_seed=8)
    assert [len(g) for g in lane_groups(33, SYS3, RAND_PULSES, sim)] == [17, 16]
    serial = ensemble_functionals(SYS3, RAND_PULSES, sim)
    with ProcessPoolExecutor(2) as pool:
        parallel = ensemble_functionals(SYS3, RAND_PULSES, sim, executor=pool)
    assert np.array_equal(serial.e2, parallel.e2) and np.array_equal(serial.e1, parallel.e1)


def test_curve_csv_schema(tmp_path, nocontrol_traj):
    curve = fidelity_avg(nocontrol_traj)
    path = tmp_path / "curve.csv"
    curve.save(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,fidelity,stderr"
    assert lines[1] == "0,1,0"


# --- early stop of threshold-only ensembles ------------------------------------

SYS9 = SystemParams(gamma=0.9)
UNTIL_THETA = 0.99  # every sample is below it from about t = 2.84 of 4


def _t_outputs(factors, theta):
    """Everything a T row is made of: T, crossed, bracket, CI, mean-crossings T."""
    res = threshold_time(factors.mean_curve(), theta)
    ci = bootstrap_threshold_ci(factors, theta, RandomStream.for_bootstrap(9, 1), n_boot=50)
    return res.time, res.crossed, res.bracket, ci, mean_crossing_time(factors, theta)


def _until_matches_full(sim, theta=UNTIL_THETA, executor=None):
    full = ensemble_functionals(SYS9, RAND_PULSES, sim)
    cut = ensemble_functionals(SYS9, RAND_PULSES, sim, until=theta, executor=executor)
    assert _t_outputs(cut, theta) == _t_outputs(full, theta)
    m = len(cut.grid)
    assert cut.e2.shape == cut.e1.shape == (sim.ensemble_n, m)
    assert np.isfinite(cut.e2).all() and np.isfinite(cut.e1).all()
    assert np.array_equal(cut.grid, full.grid[:m])
    assert np.array_equal(cut.e2, full.e2[:, :m]) and np.array_equal(cut.e1, full.e1[:, :m])
    return cut, full


def _decided(full, theta):
    """The first column at which every sample of the full run is below theta."""
    below = (full.sample_curves() < theta).all(axis=0)
    return int(np.argmax(below)) if below.any() else None


def test_kernel_stop_ends_in_the_window_after_its_column(monkeypatch):
    # 6 lanes in windows of 8 steps: a window fills at most 9 columns of a lane
    monkeypatch.setattr(riccati, "WINDOW_ELEMS", 6 * 8)
    sim = SimConfig(t_max=4.0, grid_dt=0.02, ensemble_n=6, master_seed=5)
    width = sim.grid_size()
    schedules = [generate_random(RAND_PULSES, sim.t_max, RandomStream.for_schedule(5, k)) for k in range(6)]
    e2, e1 = np.empty((6, width)), np.empty((6, width))
    assert riccati.exact_factors(schedules, SYS9, sim, e2, e1) == width
    # the hook sees each window's filled count and ends the run in the window where it turns true
    for at in (1, 40, width - 3, width + 1):
        counts = []

        def stop(filled):
            counts.append(filled)
            return filled >= at

        a2, a1 = np.empty_like(e2), np.empty_like(e1)
        filled = riccati.exact_factors(schedules, SYS9, sim, a2, a1, stop)
        assert np.all(np.diff(counts) >= 0) and counts[-1] == filled
        assert all(c < at for c in counts[:-1]) and (filled >= at or filled == width)
        assert np.array_equal(a2[:, :filled], e2[:, :filled]) and np.array_equal(a1[:, :filled], e1[:, :filled])
    # fidelity's rule: STOP_MARGIN of the grid (extra columns) past the first all-below column from min_col on
    every = fidelity._all_below(UNTIL_THETA, e2, e1)
    c = int(np.argmax(every))
    for min_col, extra in ((1, 0), (1, 5), (c + 20, 0), (c + 20, 7)):
        monkeypatch.setattr(fidelity, "STOP_MARGIN", (extra + 0.5) / width)
        a2, a1 = fidelity._fill_group(SYS9, RAND_PULSES, sim, range(6), UNTIL_THETA, min_col)
        filled = a2.shape[1]
        assert a1.shape == (6, filled)
        first = min_col + int(np.argmax(every[min_col:]))
        assert first + extra < filled <= first + extra + 9 < len(every)
        assert np.array_equal(a2[:, :filled], e2[:, :filled]) and np.array_equal(a1[:, :filled], e1[:, :filled])


def _fixpoint_column(below):
    """The decided column by the fixpoint that _decided_column replaced: (C, []) once
    C is known, else (lo, short) with no C before lo and groups short of lo."""
    lo = 1
    while True:
        nxt = []
        for m in below:
            hits = np.flatnonzero(m[lo:])
            nxt.append(lo + int(hits[0]) if len(hits) else max(len(m), lo))
        if max(nxt) == lo:
            return lo, [g for g, m in enumerate(below) if not (lo < len(m) and m[lo])]
        lo = max(nxt)


def test_decided_column_matches_the_fixpoint():
    # groups short of the grid's end are the ones that run again; a group
    # that filled the whole grid never does
    rng = np.random.default_rng(2024)
    width = 12
    seen = set()
    for _ in range(5000):
        lengths = [width if rng.random() < 0.3 else int(rng.integers(0, width)) for _ in range(rng.integers(1, 5))]
        p = rng.random()
        below = [rng.random(f) < p for f in lengths]
        col, short = fidelity._decided_column(below, width)
        ref_col, ref_short = _fixpoint_column(below)
        assert (col, short) == (ref_col, [g for g in ref_short if len(below[g]) < width])
        seen.add((col == width, bool(short), width in lengths))
    assert len(seen) >= 6  # with and without C, short groups and full-grid groups


@pytest.mark.parametrize("n,max_lanes,sizes", [(6, 2, [2, 2, 2]), (33, 32, [17, 16]), (1, 32, [1])])
def test_until_cuts_at_the_decided_column_inside_a_window(monkeypatch, n, max_lanes, sizes):
    monkeypatch.setattr(riccati, "MAX_LANES", max_lanes)
    monkeypatch.setattr(riccati, "WINDOW_ELEMS", 6 * n)  # windows of a few steps end anywhere
    sim = SimConfig(t_max=4.0, grid_dt=0.02, ensemble_n=n, master_seed=5)
    assert [len(g) for g in lane_groups(n, SYS9, RAND_PULSES, sim)] == sizes
    cut, full = _until_matches_full(sim)
    assert len(cut.grid) == _decided(full, UNTIL_THETA) + 1 < len(full.grid)


def test_until_reruns_a_group_that_stopped_short(monkeypatch):
    # with no margin, a group that decides before the others stops short of C
    monkeypatch.setattr(riccati, "MAX_LANES", 2)
    monkeypatch.setattr(riccati, "WINDOW_ELEMS", 8)
    monkeypatch.setattr(fidelity, "STOP_MARGIN", 0.0)
    runs = []
    fill = fidelity._fill_group

    def spy(system, pulses, sim, ks, level=None, min_col=1):
        runs.append((ks.start, min_col))
        return fill(system, pulses, sim, ks, level, min_col)

    monkeypatch.setattr(fidelity, "_fill_group", spy)
    sim = SimConfig(t_max=4.0, grid_dt=0.02, ensemble_n=6, master_seed=5)
    cut = ensemble_functionals(SYS9, RAND_PULSES, sim, until=UNTIL_THETA)
    reruns = [r for r in runs if r[1] != 1]
    assert len(runs) == 3 + len(reruns) and reruns
    assert all(min_col < len(cut.grid) for _, min_col in reruns)
    _until_matches_full(sim)


_FILL_GROUP = fidelity._fill_group


def _fill_group_task(*args):
    """The group function as a pool task: pickle sends a function by its
    module and name, and a test's spy (fidelity._fill_group in this
    process) is a local function."""
    return _FILL_GROUP(*args)


class _CountingPool:
    """A process pool that counts the group tasks submitted to it and runs
    each as _fill_group_task."""

    def __init__(self, pool):
        self.pool, self.tasks = pool, 0

    def submit(self, fn, *args):
        assert fn is fidelity._fill_group
        self.tasks += 1
        return self.pool.submit(_fill_group_task, *args)


@pytest.mark.parametrize("margin", [fidelity.STOP_MARGIN, 0.0])
def test_until_serial_and_pool_agree(monkeypatch, margin):
    # forked workers inherit the small windows; with no margin some groups run
    # again, and only in this process: the pool takes first passes only
    monkeypatch.setattr(fidelity, "STOP_MARGIN", margin)
    monkeypatch.setattr(riccati, "MAX_LANES", 4)
    monkeypatch.setattr(riccati, "WINDOW_ELEMS", 16)
    sim = SimConfig(t_max=4.0, grid_dt=0.02, ensemble_n=33, master_seed=8)
    groups = len(lane_groups(33, SYS9, RAND_PULSES, sim))
    serial = ensemble_functionals(SYS9, RAND_PULSES, sim, until=UNTIL_THETA)
    reruns = []
    fill = fidelity._fill_group

    def spy(system, pulses, sim, ks, level=None, min_col=1):
        if min_col > 1:
            reruns.append(ks.start)  # in this process; the pool runs _fill_group_task
        return fill(system, pulses, sim, ks, level, min_col)

    monkeypatch.setattr(fidelity, "_fill_group", spy)
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
        counting = _CountingPool(pool)
        parallel, full = _until_matches_full(sim, executor=counting)
    assert counting.tasks == groups
    assert reruns or margin > 0.0
    assert np.array_equal(serial.grid, parallel.grid)
    assert np.array_equal(serial.e2, parallel.e2) and np.array_equal(serial.e1, parallel.e1)
    assert len(serial.grid) == _decided(full, UNTIL_THETA) + 1


def test_until_never_reached_keeps_the_whole_grid():
    theta = 0.9
    sim = SimConfig(t_max=4.0, grid_dt=0.02, ensemble_n=6, master_seed=5)
    cut, full = _until_matches_full(sim, theta)
    assert len(cut.grid) == len(full.grid)
    assert _t_outputs(cut, theta)[1] is False


def test_until_stops_a_degenerate_ensemble_at_the_decided_column():
    # a deviation-free point is one sample, one lane group: it stops at C like any group
    sim = SimConfig(t_max=4.0, grid_dt=0.02, ensemble_n=4)
    regular = PulseParams(0.02, 0.008, 0.2)
    full = ensemble_functionals(SYS9, regular, sim)
    cut = ensemble_functionals(SYS9, regular, sim, until=UNTIL_THETA)
    m = _decided(full, UNTIL_THETA) + 1
    assert len(cut.grid) == m < sim.grid_size()
    assert cut.e2.shape == cut.e1.shape == (1, m)
    assert np.array_equal(cut.grid, full.grid[:m])
    assert np.array_equal(cut.e2, full.e2[:, :m]) and np.array_equal(cut.e1, full.e1[:, :m])
    assert _t_outputs(cut, UNTIL_THETA) == _t_outputs(full, UNTIL_THETA)
    # the row is the regular train's one trajectory
    traj = integrate_exact(generate_regular(regular, sim.t_max), SYS9, sim)
    assert np.array_equal(full.e2, [traj.decay_factor()])
    assert np.array_equal(full.e1, [np.real(traj.coherence_factor())])


@pytest.mark.parametrize("until", [None, UNTIL_THETA], ids=["whole-grid", "until"])
def test_a_deviation_free_point_is_one_row_at_any_ensemble_size(until):
    sim = SimConfig(t_max=4.0, grid_dt=0.02, ensemble_n=200)
    factors = ensemble_functionals(SYS9, PulseParams(0.02, 0.008, 0.2), sim, until=until)
    assert factors.n == 1
    assert factors.e2.nbytes == factors.e1.nbytes == 8 * len(factors.grid)
    curve = factors.mean_curve()
    assert np.array_equal(curve.values, factors.sample_curves()[0]) and not curve.stderr.any()


@pytest.mark.parametrize("until", [None, 0.997], ids=["whole-grid", "until"])
def test_an_rk4_ensemble_completes_and_matches_the_exact_one(until):
    # an rk4 group integrates its samples one at a time over the whole grid
    # and returns that block; with until the point is cut at the same C
    sim = SimConfig(t_max=1.0, step=1e-3, grid_dt=0.01, ensemble_n=4, master_seed=7)
    pulses = PulseParams(d_tau=0.01, d_delta=0.004)
    exact = ensemble_functionals(SYS9, pulses, sim, until=until)
    rk4 = ensemble_functionals(SYS9, pulses, replace(sim, integrator="rk4"), until=until)
    m = sim.grid_size() if until is None else _decided(exact, until) + 1
    assert np.array_equal(rk4.grid, exact.grid) and len(exact.grid) == m
    if until is not None:
        assert m < sim.grid_size()  # the point is cut at C
    assert rk4.e2.shape == rk4.e1.shape == exact.e2.shape == (4, m)
    assert np.abs(rk4.e2 - exact.e2).max() < 1e-9 and np.abs(rk4.e1 - exact.e1).max() < 1e-9


@pytest.mark.parametrize("n,table_bytes", [(1, riccati.LANE_TABLE_BYTES), (3, 1)], ids=["n1", "one-lane-groups"])
def test_a_lone_lane_stops_early_in_the_exact_kernel(monkeypatch, n, table_bytes):
    # a group of one lane runs windows of the exact kernel and stops past its
    # column like any group; no sample is integrated on its own
    monkeypatch.setattr(riccati, "LANE_TABLE_BYTES", table_bytes)
    monkeypatch.setattr(riccati, "WINDOW_ELEMS", 8)
    sim = SimConfig(t_max=4.0, grid_dt=0.02, ensemble_n=n, master_seed=5)
    assert [len(g) for g in lane_groups(n, SYS9, RAND_PULSES, sim)] == [1] * n
    fills = []
    fill = fidelity._fill_group

    def spy(system, pulses, sim, ks, level=None, min_col=1):
        e2, e1 = fill(system, pulses, sim, ks, level, min_col)
        fills.append((level, e2.shape[1]))
        return e2, e1

    def single(*args, **kwargs):
        raise AssertionError("a sample was integrated on its own")

    monkeypatch.setattr(fidelity, "_fill_group", spy)
    monkeypatch.setattr(fidelity, "integrate_with", single)
    cut, full = _until_matches_full(sim)
    assert len(cut.grid) == _decided(full, UNTIL_THETA) + 1 < len(full.grid)
    stopped = [filled for level, filled in fills if level is not None]
    assert len(stopped) >= n and max(stopped) < len(full.grid)


@pytest.mark.parametrize("case", ["stops", "extends", "falls-back"])
def test_each_train_is_generated_once_per_group(monkeypatch, case):
    # each run of a group generates each sample's train once, to t_max, and
    # builds its lane tables from them once, whole: a group that stops, one that never
    # crosses (the uncrossed tau sweep point) and fills the grid in that one
    # run, and one whose lanes fail a check and run one by one on those trains
    monkeypatch.setattr(riccati, "WINDOW_ELEMS", 6 * 8)
    system, pulses, level = SYS9, RAND_PULSES, UNTIL_THETA
    sim = SimConfig(t_max=4.0, grid_dt=0.02, ensemble_n=6, master_seed=5)
    if case == "extends":
        system, pulses, level = SystemParams(gamma=0.2), PulseParams(d_tau=0.01), sim.threshold
        sim = SimConfig(t_max=40.0, grid_dt=0.02, ensemble_n=6, master_seed=5)
    if case == "falls-back":
        monkeypatch.setattr(riccati, "DEFAULT_BLOWUP", 1e-4)
    made, tables, integrated = {}, [], []
    generate, lane_tables, integrate_with = fidelity.generate_random, riccati._LaneTables, fidelity.integrate_with

    def generate_spy(params, horizon, stream):
        assert horizon == sim.t_max and stream.stream_index not in made
        made[stream.stream_index] = generate(params, horizon, stream)
        return made[stream.stream_index]

    def tables_spy(schedules, system, sim):
        tables.append([next(k for k in made if made[k] is s) for s in schedules])
        return lane_tables(schedules, system, sim)

    def integrate_spy(schedule, system, sim):
        integrated.append(next(k for k in made if made[k] is schedule))
        return integrate_with(schedule, system, sim)

    monkeypatch.setattr(fidelity, "generate_random", generate_spy)
    monkeypatch.setattr(riccati, "_LaneTables", tables_spy)
    monkeypatch.setattr(fidelity, "integrate_with", integrate_spy)
    ks = range(6)
    if case == "falls-back":
        with pytest.raises(BlowUpError) as err:
            fidelity._fill_group(system, pulses, sim, ks, level)
        # the one-by-one run builds sample 0's one-lane table from its train
        assert err.value.sample_index == 0 and integrated == [0] and tables == [list(ks), [0]]
    else:
        e2, e1 = fidelity._fill_group(system, pulses, sim, ks, level)
        filled = e2.shape[1]
        assert not integrated and tables == [list(ks)]
    assert sorted(made) == list(ks)
    if case == "stops":
        assert filled < sim.grid_size()
    if case == "extends":  # no column is below level: the one run fills the grid
        assert filled == sim.grid_size()
        assert not fidelity._all_below(level, e2, e1).any()


# --- bootstrap resample means from the first possible bracket on ----------------

def _bootstrap_whole_grid(factors, theta, stream, n_boot):
    """bootstrap_threshold_ci before it windowed its means: every mean over the whole grid."""
    curves = factors.sample_curves()
    n = curves.shape[0]
    idx = stream.generator().integers(0, n, size=(n_boot, n))
    ts = np.empty(n_boot)
    for b in range(n_boot):
        ts[b] = fidelity._first_crossing(factors.grid, curves[idx[b]].mean(axis=0), theta).time
    alpha = 0.5 * (1.0 - 0.95)
    return float(np.quantile(ts, alpha)), float(np.quantile(ts, 1.0 - alpha))


@pytest.mark.parametrize("gamma,ratio,n,seed", [(0.9, 0.1, 7, 1), (0.9, 1.0, 60, 777), (0.5, 0.5, 60, 12345)])
def test_bootstrap_window_matches_the_whole_grid_on_ensembles(gamma, ratio, n, seed):
    sim = SimConfig(t_max=8.0, grid_dt=0.02, ensemble_n=n, master_seed=seed)
    pulses = PulseParams(0.02, 0.008, 0.2, d_tau=ratio * 0.02)
    full = ensemble_functionals(SystemParams(gamma=gamma), pulses, sim)
    for theta in (0.9, 0.97, 0.99, 0.999):
        cut = ensemble_functionals(SystemParams(gamma=gamma), pulses, sim, until=theta)
        for factors in (full, cut):
            stream = RandomStream.for_bootstrap(seed, 2)
            assert (bootstrap_threshold_ci(factors, theta, stream, 200)
                    == _bootstrap_whole_grid(factors, theta, stream, 200))


def test_bootstrap_window_keeps_an_early_dip_that_recovers():
    # sample 2 dips below theta at columns 6-9 and recovers: resamples heavy
    # in it cross there, the others at the common decay near column 60
    grid = np.linspace(0.0, 4.0, 81)
    theta, n = 0.95, 7
    curves = 1.0 - 0.08 * grid / 4.0 * np.linspace(0.9, 1.1, n)[:, None]
    for depth in (0.5, 0.9, theta * (1.0 + 2.0 * n * np.finfo(float).eps)):
        dipped = curves.copy()
        dipped[2, 6:10] = depth
        dipped[5, 3] = theta  # at theta exactly: below theta (1 + 2 n eps), not below theta
        # F_avg = 0.5 + e2 / 6 with e1 = 0
        factors = EnsembleFactors(grid, 6.0 * (dipped - 0.5), np.zeros_like(dipped))
        for b in range(4):
            stream = RandomStream.for_bootstrap(11, b)
            ci = bootstrap_threshold_ci(factors, theta, stream, 100)
            assert ci == _bootstrap_whole_grid(factors, theta, stream, 100)
        assert (ci[0] < grid[10]) == (depth == 0.5)  # one draw of a 0.5 dip pulls the mean below theta
    # no sample ever below theta: no bracket, every draw at the grid end
    factors = EnsembleFactors(grid, 6.0 * (curves - 0.5), np.zeros_like(curves))
    stream = RandomStream.for_bootstrap(11, 0)
    assert bootstrap_threshold_ci(factors, 0.9, stream, 50) == (4.0, 4.0) == _bootstrap_whole_grid(factors, 0.9, stream, 50)


def test_bootstrap_window_sees_a_mean_rounded_below_theta():
    # every sample is exactly theta at column 5, yet the float mean of 7 of them
    # is 0.9699999999999999: each resample crosses there, and the window must
    # start before it although no sample is below theta
    grid = np.linspace(0.0, 4.0, 81)
    theta, n = 0.97, 7
    assert np.full((n, 2), theta).mean(axis=0)[0] < theta
    curves = 1.0 - 0.08 * grid / 4.0 * np.linspace(0.9, 1.1, n)[:, None]
    e2 = 6.0 * (curves - 0.5)
    e2[:, 5] = 6.0 * (theta - 0.5)
    factors = EnsembleFactors(grid, e2, np.zeros_like(e2))
    assert (factors.sample_curves()[:, 5] == theta).all()
    stream = RandomStream.for_bootstrap(11, 0)
    ci = bootstrap_threshold_ci(factors, theta, stream, 50)
    assert ci == _bootstrap_whole_grid(factors, theta, stream, 50)
    assert grid[4] < ci[0] <= ci[1] <= grid[5]


def test_a_lone_lane_group_never_reaches_the_pool():
    class NoMap:
        def submit(self, fn, *args):
            raise AssertionError("a lone group was sent to the pool")

        map = submit

    sim = SimConfig(t_max=4.0, grid_dt=0.02, ensemble_n=6, master_seed=5)
    assert len(lane_groups(6, SYS9, RAND_PULSES, sim)) == 1
    for until in (None, UNTIL_THETA):
        alone = ensemble_functionals(SYS9, RAND_PULSES, sim, until=until)
        given = ensemble_functionals(SYS9, RAND_PULSES, sim, until=until, executor=NoMap())
        assert np.array_equal(alone.e2, given.e2) and np.array_equal(alone.e1, given.e1)
