"""Domain types, unit conventions, and configuration validation.

Everything runs in natural units where the qubit level splitting sets the
clock: omega = 1 and all times are omega*t. The bath is an exponentially
correlated (Ornstein-Uhlenbeck) bosonic environment,

    M[z_t z_s*] = (Gamma * gamma / 2) * exp(-gamma * |t - s|),

so 1/gamma is the memory time and gamma -> infinity is the memoryless
(Markov) limit with fixed integrated weight Gamma.

All types here are immutable value objects after validation; they can be
shared freely between worker processes.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import ValidationError


def _require_finite(obj, names: tuple[str, ...], code: str) -> None:
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValidationError(code, f"{name} = {value}")


@dataclass(frozen=True)
class SystemParams:
    """Qubit and bath constants, in omega = 1 units.

    omega: level splitting (unit-setting, keep at 1 unless you know why).
    Gamma: system-bath coupling strength.
    gamma: bath memory rate; 1/gamma is proportional to the memory time.
    """

    omega: float = 1.0
    Gamma: float = 1.0
    gamma: float = 0.2

    def check(self) -> "SystemParams":
        _require_finite(self, ("omega", "Gamma", "gamma"), errors.SYSTEM_NOT_FINITE)
        if not (self.omega > 0):
            raise ValidationError(errors.OMEGA_NOT_POSITIVE, f"omega = {self.omega}")
        if not (self.Gamma > 0):
            raise ValidationError(errors.GAMMA_COUPLING_NOT_POSITIVE, f"Gamma = {self.Gamma}")
        if not (self.gamma > 0):
            raise ValidationError(errors.GAMMA_MEMORY_NOT_POSITIVE, f"gamma = {self.gamma}")
        return self


@dataclass(frozen=True)
class InitialState:
    """Pure qubit state mu|1> + nu|0> (|1> is the excited level)."""

    mu: complex = 1.0 + 0.0j
    nu: complex = 0.0 + 0.0j

    @property
    def mu2(self) -> float:
        """Excited-level population |mu|^2."""
        return abs(self.mu) ** 2

    def normalized(self) -> "InitialState":
        n = math.hypot(abs(self.mu), abs(self.nu))  # no overflow for huge finite amplitudes
        if n == 0.0 or not math.isfinite(n):
            raise ValidationError(errors.STATE_NOT_NORMALIZABLE, f"|psi| = {n}")
        if abs(n - 1.0) <= 1e-12:
            return self
        return InitialState(self.mu / n, self.nu / n)

    @staticmethod
    def from_population(mu2: float, rel_phase: float = 0.0) -> "InitialState":
        """State with excited population mu2 and ground amplitude phase rel_phase."""
        if not 0.0 <= mu2 <= 1.0:
            raise ValidationError(errors.STATE_NOT_NORMALIZABLE, f"mu2 = {mu2}")
        return InitialState(math.sqrt(mu2), math.sqrt(1.0 - mu2) * complex(math.cos(rel_phase), math.sin(rel_phase)))


@dataclass(frozen=True)
class PulseParams:
    """Mean rectangular-pulse parameters and their deviation scales.

    tau:   mean quasi-period (start-to-start interval)
    delta: mean pulse width
    phi:   mean pulse area (instantaneous strength is area/width)
    d_tau, d_delta, d_phi: half-widths of the Uniform(-1, 1) fluctuations
    applied per pulse to the corresponding parameter.
    """

    tau: float = 0.02
    delta: float = 0.008
    phi: float = 0.2
    d_tau: float = 0.0
    d_delta: float = 0.0
    d_phi: float = 0.0

    @property
    def is_regular(self) -> bool:
        """No deviations (-0.0 counts as zero): every train is the regular one."""
        return self.d_tau == 0.0 and self.d_delta == 0.0 and self.d_phi == 0.0

    def check(self, allow_overlap: bool = False) -> "PulseParams":
        _require_finite(self, ("tau", "delta", "phi", "d_tau", "d_delta", "d_phi"),
                        errors.PULSE_PARAM_NOT_FINITE)
        if not (self.tau > 0):
            raise ValidationError(errors.TAU_NOT_POSITIVE, f"tau = {self.tau}")
        if not (self.delta > 0):
            raise ValidationError(errors.DELTA_NOT_POSITIVE, f"delta = {self.delta}")
        for name in ("d_tau", "d_delta", "d_phi"):
            if getattr(self, name) < 0:
                raise ValidationError(errors.DEVIATION_NEGATIVE, f"{name} = {getattr(self, name)}")
        if not (self.d_delta < self.delta):
            raise ValidationError(
                errors.WIDTH_CAN_VANISH,
                f"d_delta = {self.d_delta} must stay below delta = {self.delta}",
            )
        if not (self.d_tau < self.tau):
            raise ValidationError(
                errors.GAP_CAN_VANISH,
                f"d_tau = {self.d_tau} must stay below tau = {self.tau}",
            )
        if not (self.delta + self.d_delta < self.tau - self.d_tau):
            msg = (
                f"delta + d_delta = {self.delta + self.d_delta} must stay below "
                f"tau - d_tau = {self.tau - self.d_tau}; realized pulses could overlap"
            )
            if allow_overlap:
                warnings.warn(
                    f"{errors.PULSE_OVERLAP_POSSIBLE}: {msg}; realized widths will be "
                    "clamped to the realized gap",
                    stacklevel=2,
                )
            else:
                raise ValidationError(errors.PULSE_OVERLAP_POSSIBLE, msg)
        if self.d_phi > abs(self.phi):
            warnings.warn(
                f"d_phi = {self.d_phi} exceeds |phi| = {abs(self.phi)}; "
                "realized pulse areas can be negative",
                stacklevel=2,
            )
        return self


_INTEGRATORS = ("exact", "rk4")

# Relative tolerance for comparing times assembled from sums of products of inputs.
REL_TOL = 1e-12
PIECE_RAD = 1.5  # exp(-J)'s phase per piece of the exact kernel's tables, well below pi


def merge_tol(t: float) -> float:
    """Times closer than this on a horizon t are merged into one breakpoint."""
    return REL_TOL * max(1.0, t)


def phase_pieces(system: SystemParams, lengths, c):
    """Pieces of at most ~PIECE_RAD of exp(-J)'s phase over lengths at field c,
    from the rate bound omega + |c| + gamma + sqrt(2 Gamma gamma)."""
    rate = system.omega + abs(c) + system.gamma + math.sqrt(2.0 * system.Gamma * system.gamma)
    return lengths * rate / PIECE_RAD


# size limits checked before anything is allocated or run; the largest
# default runs use ~9e3 samples, ~4.5e3 pulses, 1e5 RK4 steps and ~3e4
# table segments per trajectory (~3.5e7 at the grid and pulse limits), and stack
# ~1e6 factor cells (samples x grid points) a point: fidelity.EnsembleRun checks
# those, and joining its groups' blocks holds up to 1.5 times them
MAX_GRID_POINTS = 10**7
MAX_PULSES = 10**7
MAX_RK4_STEPS = 10**7
MAX_TABLE_SEGMENTS = 5 * 10**7
MAX_ENSEMBLE_CELLS = 2 * 10**7


@dataclass(frozen=True)
class SimConfig:
    """Integration horizon, resolution, and ensemble bookkeeping."""

    t_max: float = 30.0
    step: float = 1e-4
    grid_dt: float = 0.01
    ensemble_n: int = 200
    master_seed: int = 12345
    threshold: float = 0.95
    integrator: str = "exact"  # "exact" (per-segment closed form) or "rk4"

    def check(self) -> "SimConfig":
        _require_finite(self, ("t_max", "step", "grid_dt", "ensemble_n", "threshold"), errors.SIM_NOT_FINITE)
        if not (self.t_max > 0):
            raise ValidationError(errors.TMAX_NOT_POSITIVE, f"t_max = {self.t_max}")
        if not (self.step > 0):
            raise ValidationError(errors.STEP_NOT_POSITIVE, f"step = {self.step}")
        if not (self.grid_dt > 0):
            raise ValidationError(errors.GRID_DT_NOT_POSITIVE, f"grid_dt = {self.grid_dt}")
        if not (self.step <= self.grid_dt <= self.t_max):
            raise ValidationError(
                errors.STEP_ORDERING,
                f"need step <= grid_dt <= t_max, got {self.step}, {self.grid_dt}, {self.t_max}",
            )
        if int(self.ensemble_n) != self.ensemble_n or self.ensemble_n < 1:
            raise ValidationError(errors.ENSEMBLE_TOO_SMALL, f"ensemble_n = {self.ensemble_n}")
        if not (0 <= self.master_seed < 2**64) or int(self.master_seed) != self.master_seed:
            raise ValidationError(errors.SEED_OUT_OF_RANGE, f"master_seed = {self.master_seed}")
        if not (0.0 < self.threshold < 1.0):
            raise ValidationError(errors.THRESHOLD_OUT_OF_RANGE, f"threshold = {self.threshold}")
        if self.integrator not in _INTEGRATORS:
            raise ValidationError(errors.INTEGRATOR_UNKNOWN, f"integrator = {self.integrator!r}")
        # the ratio test keeps a huge t_max / grid_dt from reaching int()
        if self.t_max / self.grid_dt >= MAX_GRID_POINTS or self.grid_size() > MAX_GRID_POINTS:
            raise ValidationError(
                errors.GRID_TOO_LARGE,
                f"t_max / grid_dt = {self.t_max / self.grid_dt:.6g}, limit {MAX_GRID_POINTS} output samples",
            )
        if not self.grid_dt > 2.0 * merge_tol(self.t_max):  # closer output times would share breakpoints
            raise ValidationError(errors.GRID_DT_BELOW_MERGE, f"grid_dt = {self.grid_dt} must exceed "
                                  f"twice the breakpoint merge tolerance {merge_tol(self.t_max)}")
        # RK4 takes at least ceil(t_max / step) steps; the exact integrator ignores step
        if self.integrator == "rk4" and self.t_max / self.step > MAX_RK4_STEPS:
            raise ValidationError(
                errors.STEPS_TOO_MANY,
                f"t_max / step = {self.t_max / self.step:.6g} RK4 steps, limit {MAX_RK4_STEPS}",
            )
        return self

    def _grid_intervals(self) -> int:
        return int(math.floor(self.t_max / self.grid_dt * (1 + REL_TOL)))

    def grid_size(self) -> int:
        """len(output_grid()), counted without building it."""
        n = self._grid_intervals()
        return n + 1 + (n * self.grid_dt < self.t_max * (1 - REL_TOL))

    def output_grid(self) -> np.ndarray:
        """Canonical output times: multiples of grid_dt plus the horizon, that is the
        grid_size() multiples from 0 with the last cut to t_max."""
        return np.minimum(np.arange(self.grid_size(), dtype=float) * self.grid_dt, self.t_max)


# the configuration schema: key "section.field" for every field of these
SECTIONS = {"system": SystemParams, "pulses": PulseParams, "sim": SimConfig}


@dataclass(frozen=True)
class ValidatedBundle:
    system: SystemParams
    pulses: PulseParams
    sim: SimConfig
    init: InitialState | None = None


def validate(
    system: SystemParams,
    pulses: PulseParams,
    sim: SimConfig,
    init: InitialState | None = None,
    *,
    allow_overlap: bool = False,
) -> ValidatedBundle:
    """Check every type invariant and return the bundle.

    Raises ValidationError with a distinct code per violated invariant.
    The initial state, when supplied, is normalized. With
    allow_overlap=True the pulse non-overlap constraint is downgraded to
    a warning; schedule generation then clamps oversized widths.
    """
    system.check()
    pulses.check(allow_overlap=allow_overlap)
    sim.check()
    if sim.t_max / pulses.tau > MAX_PULSES:  # ceil(t_max / tau) pulses
        raise ValidationError(
            errors.PULSES_TOO_MANY, f"t_max / tau = {sim.t_max / pulses.tau:.6g} pulses, limit {MAX_PULSES}"
        )
    # a train's exact table, which lane_groups sizes for either integrator: the grid, two
    # edges a pulse, 0, t_max and the phase pieces, at most one more per interval; a
    # pulse adds at most |phi| + d_phi to length * |c|. inf fails.
    pulse_count = sim.t_max / (pulses.tau - pulses.d_tau) + 1
    segments = (sim.grid_size() + 2 * pulse_count + 2 + phase_pieces(system, sim.t_max, 0.0)
                + pulse_count * (abs(pulses.phi) + pulses.d_phi) / PIECE_RAD)
    if not segments <= MAX_TABLE_SEGMENTS:
        raise ValidationError(errors.SEGMENTS_TOO_MANY, f"exact table of up to {segments:.6g} segments, "
                                                        f"limit {MAX_TABLE_SEGMENTS}")
    if init is not None:
        init = init.normalized()
    return ValidatedBundle(system, pulses, sim, init)
