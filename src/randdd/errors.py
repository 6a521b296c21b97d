"""Exception types shared across the package.

Validation failures carry a short machine-readable ``code`` so callers
(and the CLI exit-code mapping) can distinguish individual invariant
violations without parsing messages.
"""
from __future__ import annotations


class ValidationError(ValueError):
    """A configuration or parameter invariant is violated."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class NumericalError(RuntimeError):
    """Base class for runtime numerical failures."""


class BlowUpError(NumericalError):
    """The Riccati solution left the configured magnitude bound.

    Signals a diverging solution for the given parameters (or a bug);
    the physical solutions in the supported parameter ranges stay O(1).
    """

    def __init__(self, t: float, magnitude: float, sample_index: int | None = None,
                 master_seed: int | None = None):
        where = f" (ensemble sample {sample_index})" if sample_index is not None else ""
        seed = f" (master_seed {master_seed})" if master_seed is not None else ""
        super().__init__(f"|Q| = {magnitude:.3e} at t = {t:.6g}{where}{seed}")
        self.t = t
        self.magnitude = magnitude
        self.sample_index = sample_index
        self.master_seed = master_seed

    def __reduce__(self):  # keeps the typed fields across process pools
        return (BlowUpError, (self.t, self.magnitude, self.sample_index, self.master_seed))


class IntegrationQualityError(NumericalError):
    """A conserved quantity (trace, positivity, contractivity) drifted
    beyond tolerance during integration."""


# Violation codes raised in model: the section checks, InitialState and validate
SYSTEM_NOT_FINITE = "system-param-not-finite"
PULSE_PARAM_NOT_FINITE = "pulse-param-not-finite"
SIM_NOT_FINITE = "sim-param-not-finite"
OMEGA_NOT_POSITIVE = "omega-not-positive"
GAMMA_COUPLING_NOT_POSITIVE = "coupling-not-positive"
GAMMA_MEMORY_NOT_POSITIVE = "memory-rate-not-positive"
STATE_NOT_NORMALIZABLE = "state-not-normalizable"
TAU_NOT_POSITIVE = "tau-not-positive"
DELTA_NOT_POSITIVE = "delta-not-positive"
DEVIATION_NEGATIVE = "deviation-negative"
PULSE_OVERLAP_POSSIBLE = "pulse-overlap-possible"
WIDTH_CAN_VANISH = "width-can-vanish"
GAP_CAN_VANISH = "gap-can-vanish"
TMAX_NOT_POSITIVE = "tmax-not-positive"
STEP_NOT_POSITIVE = "step-not-positive"
GRID_DT_NOT_POSITIVE = "grid-dt-not-positive"
STEP_ORDERING = "step-ordering"
ENSEMBLE_TOO_SMALL = "ensemble-too-small"
SEED_OUT_OF_RANGE = "seed-out-of-range"
THRESHOLD_OUT_OF_RANGE = "threshold-out-of-range"
INTEGRATOR_UNKNOWN = "integrator-unknown"
GRID_TOO_LARGE = "grid-too-large"
GRID_DT_BELOW_MERGE = "grid-dt-below-merge-tolerance"
PULSES_TOO_MANY = "pulse-count-too-large"
ENSEMBLE_TOO_LARGE = "ensemble-too-large"
STEPS_TOO_MANY = "step-count-too-large"
SEGMENTS_TOO_MANY = "segment-count-too-large"

# Violation codes raised by pulsegen.PulseSchedule.check and load_schedule
SCHEDULE_PULSE_DEGENERATE = "schedule-pulse-degenerate"
SCHEDULE_PULSE_OVERLAP = "schedule-pulse-overlap"
SCHEDULE_PULSE_OUTSIDE = "schedule-pulse-outside-horizon"
SCHEDULE_MALFORMED = "schedule-file-malformed"
SCHEDULE_HORIZON_INVALID = "schedule-horizon-invalid"

# Violation code raised by riccati._breakpoints
HORIZON_SHORT = "horizon-short"

# Violation code raised by fidelity.threshold_time
CURVE_BELOW_THRESHOLD = "curve-starts-below-threshold"

# Violation codes raised by expcli for config keys, config values and experiment names
UNKNOWN_KEY = "unknown-config-key"
BAD_VALUE = "bad-config-value"
