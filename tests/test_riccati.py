import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randdd import riccati
from randdd.errors import BlowUpError, ValidationError
from randdd.fidelity import ensemble_functionals
from randdd.model import PulseParams, SimConfig, SystemParams
from randdd.oracle import closed_form_barQ
from randdd.pulsegen import RandomStream, empty_schedule, generate_random, generate_regular
from randdd.riccati import (
    _breakpoints,
    _LaneTables,
    _propagate,
    exact_factors,
    integrate,
    integrate_exact,
)


def riccati_rhs(q, c, system):
    """dQ/dt of the module docstring at field value c, written out here."""
    return 0.5 * system.Gamma * system.gamma + (-system.gamma + 1j * (system.omega + c)) * q + q * q


def stationary_root(system):
    """The c = 0 stationary root (g - sqrt(g^2 - 2 Gamma gamma))/2, g = gamma - i omega."""
    g = system.gamma - 1j * system.omega
    return 0.5 * (g - np.sqrt(g * g - 2.0 * system.Gamma * system.gamma))


def test_fixed_point_is_stationary():
    # uncontrolled Q settles onto the smaller-real-part stationary root, a
    # positive decay rate that zeroes the right-hand side
    sim = SimConfig(t_max=150.0, step=1e-4, grid_dt=1.0, ensemble_n=1)
    for gamma in (0.2, 0.5, 20.0):
        sys_p = SystemParams(gamma=gamma)
        q_end = integrate_exact(empty_schedule(150.0), sys_p, sim).q[-1]
        assert abs(q_end - stationary_root(sys_p)) < 1e-9
        assert abs(riccati_rhs(q_end, 0.0, sys_p)) < 1e-9
        assert q_end.real > 0


def test_fixed_point_markov_limit():
    # gamma = 1e6: the memoryless limit, Q -> Gamma/2 within ~1/gamma
    sim = SimConfig(t_max=0.01, step=1e-4, grid_dt=1e-3, ensemble_n=1)
    traj = integrate_exact(empty_schedule(0.01), SystemParams(gamma=1e6), sim)
    assert np.max(np.abs(traj.q[1:] - 0.5)) < 2e-6


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
        assert abs(riccati_rhs(q_of(t), 0.0, system02) - dq_numeric) < 1e-9


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
    q_star = stationary_root(sys_p)
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


def textbook_rk4(schedule, system, sim):
    """integrate's edge-aligned RK4 with its real constants as Python floats:
    (q, j, u) on the output grid."""
    grid, pts, cs, gi = _breakpoints(schedule, sim)
    k0 = 0.5 * system.Gamma * system.gamma
    q = j = 0j
    qs, js = [q], [j]
    for seg in range(len(pts) - 1):
        lin = -system.gamma + 1j * system.omega + 1j * float(cs[seg])
        length = float(pts[seg + 1]) - float(pts[seg])
        n = riccati._steps_for(length, sim.step)
        h = length / n
        for _ in range(n):
            k1 = k0 + lin * q + q * q
            q2 = q + 0.5 * h * k1
            k2 = k0 + lin * q2 + q2 * q2
            q3 = q + 0.5 * h * k2
            k3 = k0 + lin * q3 + q3 * q3
            q4 = q + h * k3
            k4 = k0 + lin * q4 + q4 * q4
            j = j + h / 6.0 * (q + 2.0 * (q2 + q3) + q4)
            q = q + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        qs.append(q)
        js.append(j)
    q, j = np.array(qs)[gi], np.array(js)[gi]
    return q, j, np.exp(-j)


@pytest.mark.parametrize("case", ["empty", "regular", "clamped"])
def test_rk4_is_bitwise_the_textbook_loop(case):
    # integrate holds its real constants as complex: the same bits as floats
    system = SystemParams(gamma=0.5)
    sim = SimConfig(t_max=1.0, step=1e-3, grid_dt=0.01, ensemble_n=1)
    if case == "empty":
        schedule = empty_schedule(sim.t_max)
    elif case == "regular":
        schedule = generate_regular(PulseParams(0.02, 0.008, 0.2), sim.t_max)
    else:
        pulses = LANE_CASES["clamped"][1]
        schedule = generate_random(pulses, sim.t_max, RandomStream.for_schedule(11, 0))
        assert np.any(schedule.ends[:-1] == schedule.starts[1:])
    traj = integrate(schedule, system, sim)
    for got, want in zip((traj.q, traj.j, traj.u), textbook_rk4(schedule, system, sim)):
        assert np.array_equal(got, want)


def test_blowup_guard(system02, monkeypatch):
    sim = SimConfig(t_max=1.0, step=1e-3, grid_dt=0.1, ensemble_n=1)
    monkeypatch.setattr(riccati, "DEFAULT_BLOWUP", 1e-4)
    with pytest.raises(BlowUpError) as err:
        integrate(empty_schedule(1.0), system02, sim)
    assert err.value.t > 0


@pytest.mark.parametrize("eps", [0.0, 1e-14, 1e-12, 1e-10, 1e-6])
def test_exact_matches_rk4_at_the_double_root(eps):
    # gamma = 2 Gamma and pulse field c = -omega (1 + eps): the characteristic
    # roots meet at eps = 0 and are about sqrt(0.8 eps) apart near it; RK4
    # itself is within 1e-13 of the exact values here
    system = SystemParams(Gamma=0.2, gamma=0.4)
    sim = SimConfig(t_max=3.0, grid_dt=0.01, ensemble_n=1)
    schedule = generate_regular(PulseParams(0.02, 0.008, -0.008 * (1.0 + eps)), sim.t_max)
    assert np.all(np.abs(schedule.strengths + system.omega) <= 2.0 * eps + 1e-15)
    exact, rk4 = integrate_exact(schedule, system, sim), integrate(schedule, system, sim)
    assert np.max(np.abs(np.exp(-exact.j) - np.exp(-rk4.j))) < 1e-12
    assert np.max(np.abs(exact.q - rk4.q)) < 1e-12


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
    # pulse fields within 1.25e-7 of -omega at gamma = 2 Gamma: root gaps below NEAR_ROOT
    "near-root": (SystemParams(Gamma=0.2, gamma=0.4), PulseParams(0.02, 0.008, -0.008, d_tau=0.006, d_phi=1e-9),
                  "near-root"),
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
    packed = _LaneTables(schedules, system, sim)
    # a lane's table ends at its first row holding its last breakpoint
    rows = (packed.pts < packed.pts[-1]).sum(axis=0)
    if pulses.d_tau:
        assert len(set(rows)) > 1  # ragged lane lengths
    if extra == "subdivided":
        assert all(r + 1 > len(_breakpoints(s, sim)[1]) for s, r in zip(schedules, rows))
    if extra == "clamped":
        assert any(np.any(s.ends[:-1] == s.starts[1:]) for s in schedules)
    if extra == "near-root":
        assert all(np.abs(s.strengths + system.omega).max() < 1.25e-7 for s in schedules)
    if width is not None:
        monkeypatch.setattr(riccati, "WINDOW_ELEMS", width * n)
        edges = packed.pts[:rows[0] + 1:width, 0]
        assert np.isin(edges, sim.output_grid()).any() and np.isin(edges, schedules[0].starts).any()

    g = sim.grid_size()
    q, j, u = np.empty((3, n, g), dtype=complex)
    _propagate(packed, system, (q, j, u))
    # a stop that never holds runs the whole tables
    e2, e1 = np.empty((n, g)), np.empty((n, g))
    exact_factors(schedules, system, sim, e2, e1)
    s2, s1 = np.empty((n, g)), np.empty((n, g))
    assert exact_factors(schedules, system, sim, s2, s1, stop=lambda filled: False) == g
    for k, traj in enumerate(singles):
        assert np.array_equal(q[k], traj.q) and np.array_equal(j[k], traj.j) and np.array_equal(u[k], traj.u)
        for a2, a1 in ((e2, e1), (s2, s1)):
            assert np.array_equal(a2[k], traj.decay_factor())
            assert np.array_equal(a1[k], np.real(traj.coherence_factor()))


FACTOR_CASES = {
    # (system, pulses, check on the schedules and tables); all three deviations but near the root,
    # where a width deviation would move the field off -omega
    "all-three": (SystemParams(gamma=0.2), PulseParams(0.02, 0.008, 0.2, d_tau=0.006, d_delta=0.002, d_phi=0.1),
                  None),
    "clamped": (SystemParams(gamma=0.5), PulseParams(0.02, 0.014, 0.2, d_tau=0.004, d_delta=0.004, d_phi=0.1),
                "clamped"),
    "subdivided": (SystemParams(gamma=0.3), PulseParams(0.5, 0.2, 60.0, d_tau=0.1, d_delta=0.05, d_phi=5.0),
                   "subdivided"),
    "near-root": LANE_CASES["near-root"],
}


@pytest.mark.parametrize("case", sorted(FACTOR_CASES))
def test_factors_from_u_match_those_from_j(case):
    # exact_factors reads e2 = |u|^2 and e1 = Re u at the grid rows; J, from
    # integrate_exact's log and unwrapped phase, gives them back through exp
    system, pulses, extra = FACTOR_CASES[case]
    sim = SimConfig(t_max=3.0, grid_dt=0.01, ensemble_n=4)
    n, g = sim.ensemble_n, sim.grid_size()
    schedules = [generate_random(pulses, sim.t_max, RandomStream.for_schedule(11, k)) for k in range(n)]
    if extra == "clamped":
        assert any(np.any(s.ends[:-1] == s.starts[1:]) for s in schedules)
    if extra == "subdivided":
        packed = _LaneTables(schedules, system, sim)
        rows = (packed.pts < packed.pts[-1]).sum(axis=0)
        assert all(r + 1 > len(_breakpoints(s, sim)[1]) for s, r in zip(schedules, rows))
    if extra == "near-root":
        assert all(np.abs(s.strengths + system.omega).max() < 1.25e-7 for s in schedules)
    e2, e1 = np.empty((n, g)), np.empty((n, g))
    exact_factors(schedules, system, sim, e2, e1)
    for k, schedule in enumerate(schedules):
        j = integrate_exact(schedule, system, sim).j
        np.testing.assert_allclose(e2[k], np.exp(-2.0 * j.real), rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(e1[k], np.exp(-j).real, rtol=1e-13, atol=0.0)


WINDOW_TRAINS = {
    # (system, pulses, regular train)
    "regular": (SystemParams(gamma=0.2), PulseParams(0.02, 0.008, 0.2), True),
    "random": (SystemParams(gamma=0.2), PulseParams(0.02, 0.008, 0.2, d_tau=0.006, d_phi=0.1), False),
    "clamped": LANE_CASES["clamped"][:2] + (False,),
    "subdivided": LANE_CASES["subdivided"][:2] + (False,),
}


@pytest.mark.parametrize("width", [1, 7, 64, 10**7], ids=["w1", "w7", "w64", "whole-table"])
@pytest.mark.parametrize("case", sorted(WINDOW_TRAINS))
def test_one_lane_windows_are_bitwise_the_default(monkeypatch, case, width):
    # a lone trajectory runs windows too, carrying (u, u') and the unwrap over;
    # the tables span more than one default window, and 10**7 is one window
    system, pulses, regular = WINDOW_TRAINS[case]
    sim = SimConfig(t_max=28.0, grid_dt=0.01, ensemble_n=1)
    schedule = (generate_regular(pulses, sim.t_max) if regular
                else generate_random(pulses, sim.t_max, RandomStream.for_schedule(11, 0)))
    assert len(_LaneTables([schedule], system, sim).pts) > riccati.WINDOW_ELEMS + 1
    default = integrate_exact(schedule, system, sim)
    monkeypatch.setattr(riccati, "WINDOW_ELEMS", width)
    traj = integrate_exact(schedule, system, sim)
    assert np.array_equal(traj.q, default.q) and np.array_equal(traj.j, default.j)


def test_one_lane_blowup_is_its_first_failing_window(monkeypatch):
    # a lone trajectory fails as a lane does: at the peak |Q| of the first
    # window that leaves the bound, not at the peak of its whole table
    system = SystemParams(gamma=0.3)
    pulses = PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_delta=0.004)
    sim = SimConfig(t_max=2.0, grid_dt=0.02, ensemble_n=1, master_seed=3)
    schedule = generate_random(pulses, sim.t_max, RandomStream.for_schedule(3, 0))
    tables = _LaneTables([schedule], system, sim)
    pts = tables.pts[:, 0]
    tables.gi = np.arange(len(pts))[None]  # Q at every breakpoint
    q, j, u = np.empty((3, 1, len(pts)), dtype=complex)
    _propagate(tables, system, (q, j, u))
    aq = np.abs(q[0])
    bound, width = 0.75 * aq.max(), 8
    # window w0 holds breakpoints w0 .. w0 + width, the first one carried over
    w0 = next(w0 for w0 in range(0, len(pts), width) if aq[w0:w0 + width + 1].max() > bound)
    k = w0 + int(np.argmax(aq[w0:w0 + width + 1]))
    assert aq[k] < aq.max()
    monkeypatch.setattr(riccati, "DEFAULT_BLOWUP", bound)
    monkeypatch.setattr(riccati, "WINDOW_ELEMS", width)
    with pytest.raises(BlowUpError) as err:
        integrate_exact(schedule, system, sim)
    assert (err.value.t, err.value.magnitude) == (pts[k], aq[k])
    with pytest.raises(BlowUpError) as in_ensemble:
        ensemble_functionals(system, pulses, sim)
    assert (in_ensemble.value.t, in_ensemble.value.magnitude, in_ensemble.value.sample_index,
            in_ensemble.value.master_seed) == (pts[k], aq[k], 0, 3)
    # one window over the whole table names the peak
    monkeypatch.setattr(riccati, "WINDOW_ELEMS", 10**7)
    with pytest.raises(BlowUpError) as whole:
        integrate_exact(schedule, system, sim)
    assert (whole.value.t, whole.value.magnitude) == (pts[int(np.argmax(aq))], aq.max())


def test_lane_blowup_names_a_failing_lane(monkeypatch):
    # the kernel's error carries a failing lane's time and |Q|, and no sample:
    # fidelity._fill_group is what names the sample and the seed
    system = SystemParams(gamma=0.3)
    pulses = PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_delta=0.004)
    sim = SimConfig(t_max=2.0, grid_dt=0.02, ensemble_n=4)
    schedules = [generate_random(pulses, sim.t_max, RandomStream.for_schedule(3, k)) for k in range(4)]
    peaks = [np.max(np.abs(integrate_exact(s, system, sim).q)) for s in schedules]
    monkeypatch.setattr(riccati, "DEFAULT_BLOWUP", float(np.median(peaks)))
    e2, e1 = np.empty((4, sim.grid_size())), np.empty((4, sim.grid_size()))
    with pytest.raises(BlowUpError) as err:
        exact_factors(schedules, system, sim, e2, e1)
    assert err.value.sample_index is None and err.value.master_seed is None
    assert err.value.magnitude > riccati.DEFAULT_BLOWUP


def test_a_lane_whose_u_vanishes_fails_at_that_time(monkeypatch):
    # propagators of lane 1 are zero from segment row 37 on, so its u is 0
    # at breakpoint row 38, in the fifth window of 8 steps; the sink's |u|
    # check names that time and an inf |Q| before anything divides by u
    system = SystemParams(gamma=0.3)
    pulses = PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_delta=0.004)
    sim = SimConfig(t_max=1.0, grid_dt=0.02, ensemble_n=3)
    schedules = [generate_random(pulses, sim.t_max, RandomStream.for_schedule(3, k)) for k in range(3)]
    pts = _LaneTables(schedules, system, sim).pts
    lane, row = 1, 37
    segment_propagators, seen = riccati._segment_propagators, [0]

    def zero_from_row(cs, lengths, system):
        m = segment_propagators(cs, lengths, system)
        m[max(row - seen[0], 0):, :, lane] = 0.0
        seen[0] += len(cs)
        return m

    monkeypatch.setattr(riccati, "_segment_propagators", zero_from_row)
    monkeypatch.setattr(riccati, "WINDOW_ELEMS", 3 * 8)
    e2, e1 = np.empty((3, sim.grid_size())), np.empty((3, sim.grid_size()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as err:
            exact_factors(schedules, system, sim, e2, e1)
    assert (err.value.t, err.value.magnitude) == (pts[row + 1, lane], float("inf"))
    assert pts[row + 1, lane] < pts[-1, lane]
