import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randdd import riccati
from randdd.errors import BlowUpError, DegenerateDiscriminantError, ValidationError
from randdd.model import PulseParams, SimConfig, SystemParams
from randdd.oracle import closed_form_barQ
from randdd.pulsegen import RandomStream, empty_schedule, generate_random, generate_regular
from randdd.riccati import (
    _breakpoints,
    _propagate,
    exact_factors,
    integrate,
    integrate_exact,
    markov_fixed_point,
    q_derivative,
)


def test_derivative_at_origin(system02):
    assert q_derivative(0.0, 0.0, system02) == pytest.approx(0.05 * 2, abs=1e-15)  # Gamma*gamma/2


def test_derivative_plain_arithmetic():
    sys_p = SystemParams(gamma=20.0)
    val = q_derivative(0.5, 0.0, sys_p)
    assert val == pytest.approx(10.0 + (-20.0 + 1.0j) * 0.5 + 0.25)


def test_fixed_point_is_stationary():
    for gamma in (0.2, 0.5, 20.0):
        sys_p = SystemParams(gamma=gamma)
        q_star = markov_fixed_point(sys_p)
        assert abs(q_derivative(q_star, 0.0, sys_p)) < 1e-12


def test_fixed_point_markov_limit():
    q_star = markov_fixed_point(SystemParams(gamma=1e6))
    assert abs(q_star - 0.5) < 2e-6  # -> Gamma/2


def test_fixed_point_positive_decay():
    assert markov_fixed_point(SystemParams(gamma=0.5)).real > 0


def test_fixed_point_degenerate_guard():
    # unreachable for omega > 0; forced here with an unvalidated omega = 0
    with pytest.raises(DegenerateDiscriminantError):
        markov_fixed_point(SystemParams(omega=0.0, Gamma=1.0, gamma=2.0))


def test_derivative_matches_closed_form_slope(system02):
    # Q(t) = -u'/u from the no-control roots; dQ/dt by a 4th-order stencil
    # must match the analytic right-hand side
    from randdd.oracle import ClosedFormNoControl

    cf = ClosedFormNoControl.from_system(system02)
    l1, l2 = cf.lambda1, cf.lambda2

    def q_of(t):
        u = (l2 * np.exp(l1 * t) - l1 * np.exp(l2 * t)) / (l2 - l1)
        up = l1 * l2 * (np.exp(l1 * t) - np.exp(l2 * t)) / (l2 - l1)
        return -up / u

    h = 1e-3
    for t in (0.3, 1.0, 2.7):
        dq_numeric = (
            8.0 * (q_of(t + h) - q_of(t - h)) - (q_of(t + 2 * h) - q_of(t - 2 * h))
        ) / (12.0 * h)
        assert abs(q_derivative(q_of(t), 0.0, system02) - dq_numeric) < 1e-9


def test_boundary_condition(system02):
    sim = SimConfig(t_max=1.0, step=1e-3, grid_dt=0.1, ensemble_n=1)
    for integrator in (integrate, integrate_exact):
        traj = integrator(empty_schedule(1.0), system02, sim)
        assert traj.q[0] == 0.0 and traj.j[0] == 0.0
        assert traj.grid[0] == 0.0


def test_rk4_matches_closed_form_no_control(system02):
    sim = SimConfig(t_max=5.0, step=2e-4, grid_dt=0.05, ensemble_n=1)
    traj = integrate(empty_schedule(5.0), system02, sim)
    ref = closed_form_barQ(system02, traj.grid)
    assert np.max(np.abs(np.exp(-traj.j) - ref)) < 1e-9


def test_exact_matches_rk4_with_pulses():
    sys_p = SystemParams(gamma=0.3)
    sched = generate_regular(PulseParams(0.02, 0.008, 0.2), 1.0)
    sim = SimConfig(t_max=1.0, step=1e-4, grid_dt=0.01, ensemble_n=1)
    a = integrate(sched, sys_p, sim)
    b = integrate_exact(sched, sys_p, sim)
    assert np.max(np.abs(a.q - b.q)) < 1e-9
    assert np.max(np.abs(a.j - b.j)) < 1e-9


def test_exact_matches_rk4_random_schedule():
    sys_p = SystemParams(gamma=0.5)
    params = PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_delta=0.004, d_phi=0.1)
    sched = generate_random(params, 1.0, RandomStream.for_schedule(3, 1))
    sim = SimConfig(t_max=1.0, step=1e-4, grid_dt=0.01, ensemble_n=1)
    a = integrate(sched, sys_p, sim)
    b = integrate_exact(sched, sys_p, sim)
    assert np.max(np.abs(np.exp(-a.j) - np.exp(-b.j))) < 1e-9


def test_markov_settling():
    # gamma = 20: Re Q settles onto the stationary root, which sits 2.34%
    # above Gamma/2 (the Gamma/2 asymptote is only reached as gamma -> inf)
    sys_p = SystemParams(gamma=20.0)
    sim = SimConfig(t_max=3.0, step=1e-4, grid_dt=0.05, ensemble_n=1)
    traj = integrate_exact(empty_schedule(3.0), sys_p, sim)
    q_star = markov_fixed_point(sys_p)
    assert abs(traj.q[-1].real - q_star.real) / q_star.real < 1e-3
    assert abs(traj.q[-1].real - 0.5) / 0.5 < 0.03


def test_segment_alignment_bit_identity():
    # dyadic parameters so the step divides every segment exactly in binary
    # arithmetic; requesting mid-segment samples must not change a single bit
    pulses = PulseParams(tau=0.03125, delta=0.0078125, phi=0.2)
    sys_p = SystemParams(gamma=0.3)
    sched = generate_regular(pulses, 0.125)
    step = 2.0**-13
    fine = integrate(sched, sys_p, SimConfig(t_max=0.125, step=step, grid_dt=2.0**-7, ensemble_n=1))
    coarse = integrate(sched, sys_p, SimConfig(t_max=0.125, step=step, grid_dt=2.0**-5, ensemble_n=1))
    sel = np.isin(fine.grid, coarse.grid)
    assert np.array_equal(fine.q[sel], coarse.q)
    assert np.array_equal(fine.j[sel], coarse.j)


def test_blowup_guard(system02):
    sim = SimConfig(t_max=1.0, step=1e-3, grid_dt=0.1, ensemble_n=1)
    with pytest.raises(BlowUpError) as err:
        integrate(empty_schedule(1.0), system02, sim, blowup=1e-4, sample_index=7)
    assert err.value.sample_index == 7
    assert err.value.t > 0


def test_horizon_precondition(system02):
    sim = SimConfig(t_max=2.0, step=1e-3, grid_dt=0.1, ensemble_n=1)
    with pytest.raises(ValidationError):
        integrate(empty_schedule(1.0), system02, sim)


def test_j_consistency_against_quadrature(system02):
    # J(t2) - J(t1) equals the independent quadrature of the sampled Q
    sim = SimConfig(t_max=4.0, step=1e-4, grid_dt=0.004, ensemble_n=1)
    traj = integrate_exact(empty_schedule(4.0), system02, sim)
    i1, i2 = 250, 900
    # composite Simpson needs an even interval count
    sl = slice(i1, i2 + 1)
    q = traj.q[sl]
    n = len(q) - 1
    h = sim.grid_dt
    simpson = h / 3.0 * (q[0] + q[-1] + 4.0 * q[1:-1:2].sum() + 2.0 * q[2:-1:2].sum())
    assert abs((traj.j[i2] - traj.j[i1]) - simpson) < 1e-10


@given(
    gamma=st.floats(0.05, 5.0),
    Gamma=st.floats(0.1, 3.0),
    ratio=st.floats(0.2, 0.6),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=15)
def test_contractivity(gamma, Gamma, ratio, seed):
    # |exp(-J)| <= 1 for every physical parameter set and schedule
    sys_p = SystemParams(Gamma=Gamma, gamma=gamma)
    params = PulseParams(0.02, ratio * 0.02, 0.2, d_tau=0.004, d_delta=0.002, d_phi=0.05)
    sched = generate_random(params, 3.0, RandomStream(seed, 0))
    sim = SimConfig(t_max=3.0, step=1e-3, grid_dt=0.05, ensemble_n=1)
    traj = integrate_exact(sched, sys_p, sim)
    assert np.max(np.abs(np.exp(-traj.j))) <= 1.0 + 1e-9


def test_trajectory_dump(tmp_path, system02):
    sim = SimConfig(t_max=0.5, step=1e-3, grid_dt=0.1, ensemble_n=1)
    traj = integrate_exact(empty_schedule(0.5), system02, sim)
    path = tmp_path / "traj.csv"
    traj.save(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,re_q,im_q,re_j,im_j"
    assert len(lines) == len(traj.grid) + 1
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.0 and float(cells[1]) == 0.0


# --- lane-batched exact kernel -----------------------------------------------

LANE_CASES = {
    # (system, pulses, check on the lane schedules and tables)
    "ragged": (SystemParams(gamma=0.2), PulseParams(0.02, 0.008, 0.2, d_tau=0.006, d_phi=0.1), None),
    "subdivided": (SystemParams(gamma=0.3), PulseParams(0.5, 0.2, 60.0, d_tau=0.1, d_delta=0.05), "subdivided"),
    "clamped": (SystemParams(gamma=0.5), PulseParams(0.02, 0.014, 0.2, d_tau=0.004, d_delta=0.004), "clamped"),
    "width-only": (SystemParams(gamma=0.9), PulseParams(0.02, 0.008, 0.2, d_delta=0.004), None),
}


@pytest.mark.parametrize("width", [1, 7, 64, None], ids=["w1", "w7", "w64", "default"])
@pytest.mark.parametrize("case", sorted(LANE_CASES))
def test_lanes_are_bitwise_one_lane_runs(monkeypatch, case, width):
    # width 1 puts a window edge on every breakpoint, grid points and pulse
    # edges alike; 7 and 64 put them at mixed positions and span many windows
    system, pulses, extra = LANE_CASES[case]
    sim = SimConfig(t_max=3.0, grid_dt=0.01, ensemble_n=5)
    n = sim.ensemble_n
    schedules = [generate_random(pulses, sim.t_max, RandomStream.for_schedule(11, k)) for k in range(n)]
    singles = [integrate_exact(s, system, sim) for s in schedules]
    tables = [_breakpoints(s, system, sim, subdivide=True) for s in schedules]
    if pulses.d_tau:
        assert len({len(t[1]) for t in tables}) > 1  # ragged lane lengths
    if extra == "subdivided":
        assert all(len(t[1]) > len(_breakpoints(s, system, sim)[1]) for s, t in zip(schedules, tables))
    if extra == "clamped":
        assert any(np.any(s.ends[:-1] == s.starts[1:]) for s in schedules)
    if width is not None:
        monkeypatch.setattr(riccati, "WINDOW_ELEMS", width * n)
        edges = tables[0][1][::width]
        assert np.isin(edges, sim.output_grid()).any() and np.isin(edges, schedules[0].starts).any()

    g = sim.grid_size()
    q, j = np.empty((n, g), dtype=complex), np.empty((n, g), dtype=complex)
    _propagate([t[1] for t in tables], [t[2] for t in tables], np.array([t[3] for t in tables]),
               system, (q, j), list(range(n)))
    e2, e1 = np.empty((n, g)), np.empty((n, g))
    exact_factors(iter(schedules), system, sim, e2, e1, list(range(n)))
    for k, traj in enumerate(singles):
        assert np.array_equal(q[k], traj.q) and np.array_equal(j[k], traj.j)
        assert np.array_equal(e2[k], traj.decay_factor())
        assert np.array_equal(e1[k], np.real(traj.coherence_factor()))


def test_lane_blowup_names_a_failing_lane(monkeypatch):
    system = SystemParams(gamma=0.3)
    pulses = PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_delta=0.004)
    sim = SimConfig(t_max=2.0, grid_dt=0.02, ensemble_n=4)
    schedules = [generate_random(pulses, sim.t_max, RandomStream.for_schedule(3, k)) for k in range(4)]
    peaks = [np.max(np.abs(integrate_exact(s, system, sim).q)) for s in schedules]
    monkeypatch.setattr(riccati, "DEFAULT_BLOWUP", float(np.median(peaks)))
    e2, e1 = np.empty((4, sim.grid_size())), np.empty((4, sim.grid_size()))
    with pytest.raises(BlowUpError) as err:
        exact_factors(iter(schedules), system, sim, e2, e1, [10, 11, 12, 13])
    assert peaks[err.value.sample_index - 10] > riccati.DEFAULT_BLOWUP
