"""randdd: randomized dynamical-decoupling control of a dissipative qubit.

The reduced dynamics of one qubit coupled to an exponentially correlated
bosonic environment collapses to a single complex Riccati equation for a
dissipation coefficient Q(t); rectangular pulse trains, regular or with
per-pulse parameter fluctuations, enter as a piecewise-constant energy
shift. Fidelity curves, survival-time thresholds, and the fluctuation
parameter sweeps all derive from exp(-int Q).
"""

__version__ = "0.1.0"

from .errors import (
    BlowUpError,
    IntegrationQualityError,
    NumericalError,
    ValidationError,
)
from .model import (
    InitialState,
    PulseParams,
    SimConfig,
    SystemParams,
    ValidatedBundle,
    validate,
)
from .pulsegen import (
    Pulse,
    PulseSchedule,
    RandomStream,
    control_integral,
    empty_schedule,
    generate_random,
    generate_regular,
    load_schedule,
    save_schedule,
)
from .riccati import (
    QTrajectory,
    integrate,
    integrate_exact,
    integrate_with,
)
from .fidelity import (
    EnsembleFactors,
    FidelityCurve,
    ThresholdResult,
    bootstrap_threshold_ci,
    ensemble_functionals,
    fidelity_avg,
    fidelity_pure,
    mean_crossing_time,
    threshold_time,
)
from .oracle import (
    ClosedFormNoControl,
    PseudomodeResult,
    closed_form_barQ,
    compare_frames,
    haar_mc_average,
    pseudomode_evolve,
    run_oracle_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
