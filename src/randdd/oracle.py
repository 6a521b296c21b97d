"""Independent verification paths for the main pipeline.

Three cross-checks, each computing the same physics by a different route:

* closed-form no-control solution: with c = 0,
  u(t) = exp(-int_0^t Q ds) solves u'' + g~ u' + (Gamma gamma / 2) u = 0
  with g~ = gamma - i omega, u(0) = 1, u'(0) = 0 (forced by Q(0) = 0),
  so u = (l2 e^{l1 t} - l1 e^{l2 t}) / (l2 - l1) for the two roots of
  l^2 + g~ l + Gamma gamma / 2 = 0.

* damped-mode (pseudomode) master equation: one auxiliary bosonic mode at
  zero frequency, coupling lam = sqrt(Gamma gamma / 2), mode damping
  kappa = 2 gamma, reproduces the exponential bath correlation
  lam^2 e^{-(kappa/2)|t-s|} exactly, control field included. The total
  excitation number is conserved by the Hamiltonian and only lowered by
  the jump operator, so truncating the mode at one excitation is exact
  for a single initially unexcited mode; n_max stays configurable so that
  argument is itself testable.

* uniform pure-state Monte Carlo: samples (mu, nu) from two complex
  Gaussians (normalized), averaging the pure-state fidelity directly;
  checks the analytic state average, which uses E[m] = 1/2, E[m^2] = 1/3.

The pipeline's coherence lives in the frame co-rotating with the driven
qubit; compare_frames applies the de-rotation phase exp(+i int (omega + c))
to the lab-frame mode solution before comparing.
"""
from __future__ import annotations

import cmath
import math
from concurrent.futures import Executor, Future
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IntegrationQualityError
from .fidelity import FidelityCurve
from .model import InitialState, PulseParams, SimConfig, SystemParams, validate
from .pulsegen import (
    PulseSchedule,
    RandomStream,
    control_integral,
    empty_schedule,
    generate_regular,
)
from .riccati import QTrajectory, _breakpoints, _steps_for, integrate


@dataclass(frozen=True)
class ClosedFormNoControl:
    """Characteristic roots of the no-control linear equation."""

    lambda1: complex
    lambda2: complex

    @staticmethod
    def from_system(system: SystemParams) -> "ClosedFormNoControl":
        gt = system.gamma - 1j * system.omega
        s = cmath.sqrt(gt * gt - 2.0 * system.Gamma * system.gamma)
        return ClosedFormNoControl(0.5 * (-gt + s), 0.5 * (-gt - s))

    def barQ(self, t):
        """u(t) = exp(-int_0^t Q ds) with no control; vectorizes over t."""
        l1, l2 = self.lambda1, self.lambda2
        t = np.asarray(t, dtype=float)
        if abs(l1 - l2) <= 1e-12 * max(1.0, abs(l1)):
            lam = 0.5 * (l1 + l2)
            out = (1.0 - lam * t) * np.exp(lam * t)
        else:
            out = (l2 * np.exp(l1 * t) - l1 * np.exp(l2 * t)) / (l2 - l1)
        return complex(out) if out.ndim == 0 else out


def closed_form_barQ(system: SystemParams, t):
    return ClosedFormNoControl.from_system(system).barQ(t)


# ---------------------------------------------------------------------------
# uniform pure-state Monte Carlo

def haar_mc_average(traj: QTrajectory, n_states: int, stream: RandomStream) -> FidelityCurve:
    """Monte Carlo state average of the pure fidelity along one trajectory.

    States are drawn by normalizing two complex Gaussians; the fidelity is
    quadratic in m = |mu|^2, so the pointwise mean and standard error come
    from the sample moments of m.
    """
    rng = stream.generator()
    x = rng.standard_normal((n_states, 4))
    top = x[:, 0] ** 2 + x[:, 1] ** 2
    m = top / (top + x[:, 2] ** 2 + x[:, 3] ** 2)

    e2 = traj.decay_factor()
    e1 = np.real(traj.coherence_factor())
    # F = 1 + b*m + c*m^2 pointwise in t
    b = -1.0 - e2 + 2.0 * e1
    c = 2.0 * e2 - 2.0 * e1
    m1 = m.mean()
    m2 = (m**2).mean()
    mean = 1.0 + b * m1 + c * m2
    # Var(F) = b^2 Var(m) + c^2 Var(m^2) + 2 b c Cov(m, m^2)
    v_m = m.var(ddof=1)
    v_m2 = (m**2).var(ddof=1)
    cov = ((m - m1) * (m**2 - m2)).sum() / (n_states - 1)
    var = b * b * v_m + c * c * v_m2 + 2.0 * b * c * cov
    se = np.sqrt(np.maximum(var, 0.0) / n_states)
    return FidelityCurve(traj.grid, mean, se)


# ---------------------------------------------------------------------------
# damped auxiliary-mode master equation

@dataclass(frozen=True)
class PseudomodeResult:
    """Density matrices on the output grid, qubit (x) truncated mode."""

    grid: np.ndarray
    rhos: np.ndarray        # shape (len(grid), d, d), d = 2*(n_max+1)
    n_max: int

    def qubit_population(self) -> np.ndarray:
        """Excited-level population rho_11(t)."""
        M = self.n_max + 1
        return np.real(np.trace(self.rhos[:, :M, :M], axis1=1, axis2=2))

    def qubit_coherence(self) -> np.ndarray:
        """Lab-frame coherence <1|rho|0>(t) (mode traced out)."""
        M = self.n_max + 1
        return np.trace(self.rhos[:, :M, M:], axis1=1, axis2=2)


def _mode_operators(n_max: int):
    M = n_max + 1
    a = np.zeros((M, M), dtype=complex)
    for n in range(1, M):
        a[n - 1, n] = math.sqrt(n)
    return a


# Largest drift of trace and hermiticity, and negative eigenvalue, of an output rho
TRACE_TOL, HERM_TOL, EIG_TOL = 1e-9, 1e-10, 1e-9


def pseudomode_evolve(
    schedule: PulseSchedule,
    system: SystemParams,
    init: InitialState,
    sim: SimConfig,
    *,
    n_max: int = 1,
) -> PseudomodeResult:
    """Edge-aligned fixed-step RK4 for the qubit + damped-mode master equation.

    H(t) = (omega + c(t))/2 sz + lam (sm a+ + sp a), dissipator kappa D[a],
    lam = sqrt(Gamma gamma / 2), kappa = 2 gamma. Basis order: qubit excited
    block first, mode number within a block. Trace, hermiticity, and
    positivity are checked at every output sample.

    The equation is linear in rho and c is constant on each segment, so one
    RK4 step of size h is exactly vec(rho) <- P(hL) vec(rho) with L the
    segment's Liouvillian and P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24. Each
    step adds inc @ vec with inc = P(hL) - 1 in Horner form; forming P
    itself would round every step through the identity.
    """
    init = init.normalized()
    M = n_max + 1
    d = 2 * M
    a = _mode_operators(n_max)
    eye_m = np.eye(M)
    sz = np.kron(np.diag([1.0, -1.0]), eye_m).astype(complex)
    sm = np.zeros((2, 2), dtype=complex)
    sm[1, 0] = 1.0  # lowers |1> to |0>
    sp = sm.conj().T
    lam = math.sqrt(0.5 * system.Gamma * system.gamma)
    kappa = 2.0 * system.gamma
    coupling = lam * (np.kron(sm, a.conj().T) + np.kron(sp, a))
    jump = np.kron(np.eye(2), a)
    jump_dag = jump.conj().T
    n_op = jump_dag @ jump

    psi = np.zeros(d, dtype=complex)
    psi[0 * M + 0] = init.mu
    psi[1 * M + 0] = init.nu
    rho = np.outer(psi, psi.conj())

    grid, pts, cs, gi = _breakpoints(schedule, sim)
    want = {}
    for out_i, bp in enumerate(gi):
        want.setdefault(int(bp), []).append(out_i)

    rhos = np.empty((len(grid), d, d), dtype=complex)

    def record(bp_index: int, rho_now: np.ndarray, t_now: float):
        for out_i in want.get(bp_index, ()):
            tr = np.trace(rho_now)
            if abs(tr - 1.0) > TRACE_TOL:
                raise IntegrationQualityError(f"trace drift {abs(tr - 1.0):.2e} at t = {t_now:.6g}")
            asym = np.max(np.abs(rho_now - rho_now.conj().T))
            if asym > HERM_TOL:
                raise IntegrationQualityError(f"hermiticity drift {asym:.2e} at t = {t_now:.6g}")
            evals = np.linalg.eigvalsh(0.5 * (rho_now + rho_now.conj().T))
            if evals.min() < -EIG_TOL:
                raise IntegrationQualityError(f"negative eigenvalue {evals.min():.2e} at t = {t_now:.6g}")
            rhos[out_i] = rho_now

    # L vec(rho) = vec(G rho + rho G~ + kappa a rho a~), G = -iH - (kappa/2) n,
    # in row-major vec where vec(A X B) = (A kron B^T) vec(X)
    eye_d = np.eye(d)
    eye_l = np.eye(d * d)
    jump_part = kappa * np.kron(jump, jump_dag.T)

    # a regular train repeats a few (field, step) pairs over its segments
    @lru_cache(maxsize=64)
    def increment(c: float, h: float) -> np.ndarray:
        G = -1j * (0.5 * (system.omega + c) * sz + coupling) - 0.5 * kappa * n_op
        hL = h * (np.kron(G, eye_d) + np.kron(eye_d, G.conj()) + jump_part)
        return hL @ (eye_l + hL @ (eye_l / 2.0 + hL @ (eye_l / 6.0 + hL / 24.0)))

    vec = rho.reshape(-1)
    record(0, rho, 0.0)
    for seg in range(len(pts) - 1):
        h_full = pts[seg + 1] - pts[seg]
        n_steps = _steps_for(h_full, sim.step)
        inc = increment(cs[seg], h_full / n_steps)
        for _ in range(n_steps):
            vec = vec + inc @ vec
        record(seg + 1, vec.reshape(d, d), float(pts[seg + 1]))
    return PseudomodeResult(grid, rhos, n_max)


def compare_frames(
    grid: np.ndarray,
    qsd_rho10: np.ndarray,
    pm_rho10: np.ndarray,
    schedule: PulseSchedule,
    system: SystemParams,
) -> dict:
    """Reconcile the co-rotating pipeline coherence with the lab-frame mode
    solution; deviations are data, not errors.

    Returns max deviation of |rho10| (frame independent) and of the
    de-rotated complex coherence.
    """
    theta = system.omega * grid + control_integral(schedule, grid)
    derotated = pm_rho10 * np.exp(1j * theta)
    return {
        "max_cohmod_dev": float(np.max(np.abs(np.abs(pm_rho10) - np.abs(qsd_rho10)))),
        "max_cohphase_dev": float(np.max(np.abs(derotated - qsd_rho10))),
    }


def oracle_configs(step: float = SimConfig.step, seed: int = SimConfig.master_seed):
    """The report's two fixed configurations, validated: (system, sim) of
    the no-control check and (system, pulses, sim, init) of the pulsed one."""
    sys_nc = SystemParams(omega=1.0, Gamma=1.0, gamma=0.2)
    sim_nc = SimConfig(t_max=10.0, step=step, grid_dt=0.01, ensemble_n=1, master_seed=seed, integrator="rk4")
    system = SystemParams(omega=1.0, Gamma=1.0, gamma=0.3)
    pulses = PulseParams(tau=0.02, delta=0.008, phi=0.2)
    sim = SimConfig(t_max=3.0, step=step, grid_dt=0.01, ensemble_n=1, master_seed=seed, integrator="rk4")
    init = InitialState.from_population(0.6, rel_phase=0.3)
    sys_nc.check()
    sim_nc.check()
    validate(system, pulses, sim, init)
    return (sys_nc, sim_nc), (system, pulses, sim, init)


def _nocontrol_dev(system: SystemParams, sim: SimConfig) -> float:
    """Largest |exp(-J) - closed form| of the RK4 run without control."""
    traj = integrate(empty_schedule(sim.t_max), system, sim)
    return float(np.max(np.abs(np.exp(-traj.j) - closed_form_barQ(system, traj.grid))))


def run_oracle_check(
    *,
    step: float = SimConfig.step,
    seed: int = SimConfig.master_seed,
    executor: Executor | None = None,
) -> dict:
    """Full cross-method closure report (all deviations should be < 1e-6).

    1. no control, gamma = 0.2: RK4 exp(-J) vs closed form on [0, 10];
    2. regular control on, gamma = 0.3, area 0.2, quasi-period 0.02,
       width 0.008: mode-oracle populations and coherences vs the
       Riccati/fidelity pipeline on [0, 3].

    Both configurations are validated before either runs. With an
    executor, check 1 runs on it while check 2 runs here; an error in
    check 2 waits for check 1, so a failing run reports the error the
    serial order would.
    """
    (sys_nc, sim_nc), (system, pulses, sim, init) = oracle_configs(step, seed)
    if executor is None:
        nocontrol = Future()
        nocontrol.set_result(_nocontrol_dev(sys_nc, sim_nc))
    else:
        nocontrol = executor.submit(_nocontrol_dev, sys_nc, sim_nc)
    try:
        schedule = generate_regular(pulses, sim.t_max)
        traj = integrate(schedule, system, sim)
        pm = pseudomode_evolve(schedule, system, init, sim)
    except Exception:
        nocontrol.result()
        raise
    pop_pipeline = init.mu2 * traj.decay_factor()
    coh_pipeline = init.mu * np.conj(init.nu) * traj.coherence_factor()
    return {
        "max_nocontrol_dev": nocontrol.result(),
        "max_pop_dev": float(np.max(np.abs(pm.qubit_population() - pop_pipeline))),
        **compare_frames(traj.grid, coh_pipeline, pm.qubit_coherence(), schedule, system),
        "params": {
            "nocontrol": {"gamma": sys_nc.gamma, "t_max": sim_nc.t_max, "step": sim_nc.step},
            "pulsed": {"gamma": system.gamma, "tau": pulses.tau, "delta": pulses.delta, "phi": pulses.phi,
                       "t_max": sim.t_max, "step": sim.step, "mu2": init.mu2},
        },
        "seeds": {"master_seed": seed},
    }
