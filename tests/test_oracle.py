import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randdd.errors import HORIZON_SHORT, IntegrationQualityError, ValidationError
from randdd.fidelity import fidelity_avg
from randdd.model import InitialState, PulseParams, SimConfig, SystemParams
from randdd.oracle import (
    ClosedFormNoControl,
    closed_form_barQ,
    compare_frames,
    haar_mc_average,
    pseudomode_evolve,
    run_oracle_check,
)
from randdd.pulsegen import RandomStream, empty_schedule, generate_random, generate_regular
from randdd.riccati import _breakpoints, _steps_for, integrate, integrate_exact


@given(gamma=st.floats(0.05, 30.0), Gamma=st.floats(0.05, 30.0), omega=st.floats(0.1, 5.0))
def test_vieta_identities(gamma, Gamma, omega):
    sys_p = SystemParams(omega=omega, Gamma=Gamma, gamma=gamma)
    cf = ClosedFormNoControl.from_system(sys_p)
    gt = gamma - 1j * omega
    scale = max(1.0, abs(gt))
    assert abs(cf.lambda1 + cf.lambda2 + gt) < 1e-12 * scale
    assert abs(cf.lambda1 * cf.lambda2 - 0.5 * Gamma * gamma) < 1e-12 * max(1.0, 0.5 * Gamma * gamma)


def test_barq_initial_condition():
    for gamma in (0.1, 0.9, 20.0):
        assert closed_form_barQ(SystemParams(gamma=gamma), 0.0) == pytest.approx(1.0, abs=1e-14)


def test_barq_reproduces_survival_threshold(system02):
    # the state-averaged fidelity built from barQ hits 0.95 near t = 1.42
    t = np.array([1.42])
    u = closed_form_barQ(system02, t)
    fm = 0.5 + np.abs(u) ** 2 / 6.0 + np.real(u) / 3.0
    assert fm[0] == pytest.approx(0.950, abs=1e-3)


def test_barq_matches_rk4(system02):
    sim = SimConfig(t_max=10.0, step=1e-4, grid_dt=0.1, ensemble_n=1)
    traj = integrate(empty_schedule(10.0), system02, sim)
    dev = np.abs(np.exp(-traj.j) - closed_form_barQ(system02, traj.grid))
    assert dev.max() < 1e-8


def test_degenerate_root_formula():
    cf = ClosedFormNoControl(lambda1=-0.5 + 0j, lambda2=-0.5 + 0j)
    t = np.linspace(0, 2, 5)
    np.testing.assert_allclose(cf.barQ(t), (1 + 0.5 * t) * np.exp(-0.5 * t), rtol=1e-12)


# --- uniform pure-state Monte Carlo ------------------------------------------

def test_haar_mc_matches_analytic_average():
    sys_p = SystemParams(gamma=0.3)
    sched = generate_regular(PulseParams(0.02, 0.008, 0.2), 4.0)
    sim = SimConfig(t_max=4.0, step=1e-4, grid_dt=0.2, ensemble_n=1)
    traj = integrate_exact(sched, sys_p, sim)
    mc = haar_mc_average(traj, 20_000, RandomStream.for_state_sampling(17))
    analytic = fidelity_avg(traj)
    diff = np.abs(mc.values - analytic.values)
    assert np.all(diff[1:] <= 3.5 * mc.stderr[1:])
    assert diff[0] == 0.0  # both exactly 1 at t = 0


def test_haar_mc_deterministic():
    sys_p = SystemParams(gamma=0.5)
    sim = SimConfig(t_max=1.0, step=1e-3, grid_dt=0.25, ensemble_n=1)
    traj = integrate_exact(empty_schedule(1.0), sys_p, sim)
    a = haar_mc_average(traj, 1000, RandomStream.for_state_sampling(5))
    b = haar_mc_average(traj, 1000, RandomStream.for_state_sampling(5))
    np.testing.assert_array_equal(a.values, b.values)


# --- damped-mode master equation ---------------------------------------------

PULSES = PulseParams(0.02, 0.008, 0.2)


def test_pseudomode_initial_state():
    init = InitialState.from_population(0.6, rel_phase=0.3)
    sim = SimConfig(t_max=0.1, step=1e-3, grid_dt=0.05, ensemble_n=1)
    pm = pseudomode_evolve(empty_schedule(0.1), SystemParams(gamma=0.3), init, sim)
    rho0 = pm.rhos[0]
    psi = np.array([init.mu, 0.0, init.nu, 0.0])
    np.testing.assert_allclose(rho0, np.outer(psi, psi.conj()), atol=1e-14)
    assert np.trace(rho0) == pytest.approx(1.0, abs=1e-14)


def test_pseudomode_population_matches_closed_form(system02):
    init = InitialState.from_population(0.7)
    sim = SimConfig(t_max=2.0, step=1e-4, grid_dt=0.05, ensemble_n=1)
    pm = pseudomode_evolve(empty_schedule(2.0), system02, init, sim)
    ref = init.mu2 * np.abs(closed_form_barQ(system02, pm.grid)) ** 2
    assert np.max(np.abs(pm.qubit_population() - ref)) < 1e-6


def test_pseudomode_matches_pipeline_with_pulses():
    system = SystemParams(gamma=0.3)
    init = InitialState.from_population(0.6, rel_phase=0.3)
    sim = SimConfig(t_max=1.0, step=1e-4, grid_dt=0.02, ensemble_n=1, integrator="rk4")
    sched = generate_regular(PULSES, 1.0)
    traj = integrate(sched, system, sim)
    pm = pseudomode_evolve(sched, system, init, sim)
    pop_ref = init.mu2 * traj.decay_factor()
    coh_ref = init.mu * np.conj(init.nu) * traj.coherence_factor()
    assert np.max(np.abs(pm.qubit_population() - pop_ref)) < 1e-6
    report = compare_frames(traj.grid, coh_ref, pm.qubit_coherence(), sched, system)
    assert report["max_cohmod_dev"] < 1e-6
    assert report["max_cohphase_dev"] < 1e-6


def test_pseudomode_rejects_short_schedule():
    # samples past the schedule horizon would have no breakpoints to land on
    sim = SimConfig(t_max=2.0, step=1e-3, grid_dt=0.05, ensemble_n=1)
    with pytest.raises(ValidationError) as err:
        pseudomode_evolve(generate_regular(PULSES, 1.0), SystemParams(gamma=0.3),
                          InitialState.from_population(0.5), sim)
    assert err.value.code == HORIZON_SHORT


def test_pseudomode_truncation_is_exact():
    # results must be independent of the mode cutoff (total excitation <= 1)
    system = SystemParams(gamma=0.4)
    init = InitialState.from_population(0.5)
    sim = SimConfig(t_max=0.5, step=2e-4, grid_dt=0.05, ensemble_n=1)
    sched = generate_regular(PULSES, 0.5)
    a = pseudomode_evolve(sched, system, init, sim, n_max=1)
    b = pseudomode_evolve(sched, system, init, sim, n_max=2)
    assert np.max(np.abs(a.qubit_population() - b.qubit_population())) < 1e-12
    assert np.max(np.abs(a.qubit_coherence() - b.qubit_coherence())) < 1e-12


def test_pseudomode_trace_preserved():
    system = SystemParams(gamma=0.3)
    sim = SimConfig(t_max=2.0, step=1e-4, grid_dt=0.1, ensemble_n=1)
    pm = pseudomode_evolve(generate_regular(PULSES, 2.0), system, InitialState(1.0, 0.0), sim)
    traces = np.trace(pm.rhos, axis1=1, axis2=2)
    assert np.max(np.abs(traces - 1.0)) < 1e-9


def test_pseudomode_markov_decay_rate():
    # gamma = 20: the excited population decays nearly memorylessly at Gamma
    system = SystemParams(gamma=20.0)
    init = InitialState(1.0, 0.0)
    sim = SimConfig(t_max=3.0, step=1e-4, grid_dt=0.05, ensemble_n=1)
    pm = pseudomode_evolve(empty_schedule(3.0), system, init, sim)
    sel = pm.grid >= 5.0 / system.gamma
    rate = -np.polyfit(pm.grid[sel], np.log(pm.qubit_population()[sel]), 1)[0]
    assert rate == pytest.approx(system.Gamma, rel=0.05)


def test_closed_system_keeps_unit_coherence():
    # Gamma = 0 (built directly; validation requires Gamma > 0): no bath, both
    # methods keep |rho_10| at its initial value
    system = SystemParams(omega=1.0, Gamma=0.0, gamma=0.3)
    init = InitialState.from_population(0.5)
    sim = SimConfig(t_max=1.0, step=1e-3, grid_dt=0.1, ensemble_n=1)
    sched = generate_regular(PULSES, 1.0)
    pm = pseudomode_evolve(sched, system, init, sim)
    np.testing.assert_allclose(np.abs(pm.qubit_coherence()), 0.5, atol=1e-9)
    traj = integrate_exact(sched, system, sim)
    np.testing.assert_allclose(np.abs(traj.coherence_factor()), 1.0, atol=1e-9)


def _stepwise_pseudomode(schedule, system, init, sim, n_max):
    """The k1..k4 RK4 loop on rho that the per-segment transfer matrix replaced."""
    M = n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, M)), 1).astype(complex)
    sz = np.kron(np.diag([1.0, -1.0]), np.eye(M)).astype(complex)
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    lam = np.sqrt(0.5 * system.Gamma * system.gamma)
    kappa = 2.0 * system.gamma
    coupling = lam * (np.kron(sm, a.conj().T) + np.kron(sm.conj().T, a))
    jump = np.kron(np.eye(2), a)
    jump_dag = jump.conj().T
    n_op = jump_dag @ jump
    psi = np.zeros(2 * M, dtype=complex)
    psi[0], psi[M] = init.mu, init.nu
    rho = np.outer(psi, psi.conj())
    grid, pts, cs, gi = _breakpoints(schedule, sim)
    at_pts = [rho]
    for seg in range(len(pts) - 1):
        n_steps = _steps_for(pts[seg + 1] - pts[seg], sim.step)
        h = (pts[seg + 1] - pts[seg]) / n_steps
        G = -1j * (0.5 * (system.omega + cs[seg]) * sz + coupling) - 0.5 * kappa * n_op
        Gd = G.conj().T

        def rhs(r):
            return G @ r + r @ Gd + kappa * (jump @ r @ jump_dag)

        for _ in range(n_steps):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * h * k1)
            k3 = rhs(rho + 0.5 * h * k2)
            k4 = rhs(rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        at_pts.append(rho)
    return np.array(at_pts)[gi]


@pytest.mark.parametrize("case", ["regular-n1", "regular-n2", "random"])
def test_transfer_matrix_matches_stepwise_rk4(case):
    system = SystemParams(gamma=0.3)
    init = InitialState.from_population(0.6, rel_phase=0.3)
    sim = SimConfig(t_max=0.3, step=1e-4, grid_dt=0.01, ensemble_n=1, master_seed=7)
    n_max = 2 if case == "regular-n2" else 1
    if case == "random":
        pulses = PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_delta=0.002, d_phi=0.1)
        sched = generate_random(pulses, sim.t_max, RandomStream.for_schedule(sim.master_seed, 0))
    else:
        sched = generate_regular(PULSES, sim.t_max)
    pm = pseudomode_evolve(sched, system, init, sim, n_max=n_max)
    ref = _stepwise_pseudomode(sched, system, init, sim, n_max)
    assert np.max(np.abs(pm.rhos - ref)) <= 1e-13


def test_pseudomode_quality_guard_fires_on_unstable_step():
    system = SystemParams(gamma=20.0)
    sim = SimConfig(t_max=2.0, step=0.5, grid_dt=0.5, ensemble_n=1)
    with pytest.raises(IntegrationQualityError):
        pseudomode_evolve(empty_schedule(2.0), system, InitialState(1.0, 0.0), sim)


def test_oracle_report_closure():
    report = run_oracle_check(step=2e-4)
    for key in ("max_nocontrol_dev", "max_pop_dev", "max_cohmod_dev", "max_cohphase_dev"):
        assert report[key] < 1e-6, key
    assert report["seeds"]["master_seed"] == 12345
