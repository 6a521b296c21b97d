import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randdd import errors, model
from randdd.errors import (
    ENSEMBLE_TOO_LARGE,
    GRID_DT_BELOW_MERGE,
    GRID_TOO_LARGE,
    PULSE_OVERLAP_POSSIBLE,
    PULSES_TOO_MANY,
    PULSE_PARAM_NOT_FINITE,
    SEGMENTS_TOO_MANY,
    SIM_NOT_FINITE,
    STATE_NOT_NORMALIZABLE,
    SYSTEM_NOT_FINITE,
    STEP_ORDERING,
    THRESHOLD_OUT_OF_RANGE,
    WIDTH_CAN_VANISH,
    ValidationError,
)
from randdd.fidelity import EnsembleRun
from randdd.model import (
    MAX_TABLE_SEGMENTS,
    PIECE_RAD,
    InitialState,
    PulseParams,
    SimConfig,
    SystemParams,
    merge_tol,
    phase_pieces,
    validate,
)
from randdd.pulsegen import RandomStream, generate_random
from randdd.riccati import _LaneTables, lane_groups


def test_validate_accepts_figure_parameters():
    # tau=0.02, delta=0.4*tau, 20% deviations: 0.012 < 0.016
    pulses = PulseParams(tau=0.02, delta=0.008, phi=0.2, d_tau=0.004, d_delta=0.004)
    bundle = validate(SystemParams(), pulses, SimConfig())
    assert bundle.pulses == pulses


def test_validate_rejects_possible_overlap_at_boundary():
    pulses = PulseParams(tau=0.02, delta=0.008, phi=0.2, d_tau=0.012, d_delta=0.0)
    with pytest.raises(ValidationError) as err:
        validate(SystemParams(), pulses, SimConfig())
    assert err.value.code == PULSE_OVERLAP_POSSIBLE


def test_validate_zero_deviation_regular_case():
    pulses = PulseParams(tau=0.02, delta=0.008, phi=0.2)
    assert validate(SystemParams(), pulses, SimConfig()).pulses.d_tau == 0.0


def test_validate_allow_overlap_downgrades_to_warning():
    pulses = PulseParams(tau=0.02, delta=0.015, phi=0.2, d_tau=0.004, d_delta=0.004)
    with pytest.warns(UserWarning, match=PULSE_OVERLAP_POSSIBLE):
        validate(SystemParams(), pulses, SimConfig(), allow_overlap=True)


def test_validate_needs_pulses_and_sim():
    # a missing argument is a TypeError, also under python -O
    with pytest.raises(TypeError):
        validate(SystemParams())


def test_width_can_vanish_guard():
    with pytest.raises(ValidationError) as err:
        validate(SystemParams(), PulseParams(tau=0.1, delta=0.01, phi=0.2, d_delta=0.01), SimConfig())
    assert err.value.code == WIDTH_CAN_VANISH


def test_negative_area_emits_warning():
    pulses = PulseParams(tau=0.02, delta=0.008, phi=0.1, d_phi=0.11)
    with pytest.warns(UserWarning, match="negative"):
        validate(SystemParams(), pulses, SimConfig())


@pytest.mark.parametrize(
    "sim,code",
    [
        (SimConfig(step=0.1, grid_dt=0.01), STEP_ORDERING),
        (SimConfig(threshold=1.0), THRESHOLD_OUT_OF_RANGE),
        (SimConfig(threshold=0.0), THRESHOLD_OUT_OF_RANGE),
    ],
)
def test_sim_config_invariants(sim, code, standard_pulses):
    with pytest.raises(ValidationError) as err:
        validate(SystemParams(), standard_pulses, sim)
    assert err.value.code == code


@pytest.mark.parametrize("section, field, value, code", [
    ("system", "omega", 0.0, errors.OMEGA_NOT_POSITIVE),
    ("system", "Gamma", -1.0, errors.GAMMA_COUPLING_NOT_POSITIVE),
    ("system", "gamma", 0.0, errors.GAMMA_MEMORY_NOT_POSITIVE),
    ("pulses", "tau", -0.02, errors.TAU_NOT_POSITIVE),
    ("pulses", "delta", 0.0, errors.DELTA_NOT_POSITIVE),
    ("pulses", "d_phi", -0.1, errors.DEVIATION_NEGATIVE),
    ("pulses", "d_tau", 0.02, errors.GAP_CAN_VANISH),
    ("sim", "t_max", 0.0, errors.TMAX_NOT_POSITIVE),
    ("sim", "step", -1e-4, errors.STEP_NOT_POSITIVE),
    ("sim", "grid_dt", 0.0, errors.GRID_DT_NOT_POSITIVE),
    ("sim", "ensemble_n", 0, errors.ENSEMBLE_TOO_SMALL),
    ("sim", "master_seed", 2**64, errors.SEED_OUT_OF_RANGE),
    ("sim", "integrator", "euler", errors.INTEGRATOR_UNKNOWN),
])
def test_each_violation_has_its_code(section, field, value, code):
    # one violating value in an otherwise default configuration
    args = {"system": SystemParams(), "pulses": PulseParams(), "sim": SimConfig()}
    args[section] = replace(args[section], **{field: value})
    with pytest.raises(ValidationError) as err:
        validate(args["system"], args["pulses"], args["sim"])
    assert err.value.code == code


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(bad, standard_pulses):
    cases = [
        (SystemParams(gamma=bad), standard_pulses, SimConfig(), SYSTEM_NOT_FINITE),
        (SystemParams(), PulseParams(tau=0.02, delta=0.008, phi=bad), SimConfig(), PULSE_PARAM_NOT_FINITE),
        (SystemParams(), PulseParams(tau=bad, delta=0.008, phi=0.2), SimConfig(), PULSE_PARAM_NOT_FINITE),
        (SystemParams(), standard_pulses, SimConfig(t_max=bad), SIM_NOT_FINITE),
        (SystemParams(), standard_pulses, SimConfig(grid_dt=bad), SIM_NOT_FINITE),
    ]
    for system, pulses, sim, code in cases:
        with pytest.raises(ValidationError) as err:
            validate(system, pulses, sim)
        assert err.value.code == code


@pytest.mark.parametrize("t_max, grid_dt", [(1.0, 0.01), (1.005, 0.01), (90.0, 0.02), (3.0, 0.002),
                                             (0.3, 0.1), (1.0, 1.0), (2.5, 1.0)])
def test_grid_size_counts_output_grid(t_max, grid_dt):
    sim = SimConfig(t_max=t_max, step=1e-4, grid_dt=grid_dt)
    assert sim.grid_size() == len(sim.output_grid())


def test_grid_dt_must_exceed_twice_the_merge_tolerance():
    # the tolerance is model.merge_tol(t_max), the breakpoints' merge rule: 1e-12 for t_max <= 1
    assert merge_tol(1e-9) == 1e-12
    SimConfig(t_max=1e-9, step=1e-13, grid_dt=np.nextafter(2e-12, 1.0)).check()
    for grid_dt in (2e-12, 1e-12, 2e-13):
        with pytest.raises(ValidationError) as err:
            SimConfig(t_max=1e-9, step=1e-13, grid_dt=grid_dt).check()
        assert err.value.code == GRID_DT_BELOW_MERGE


def test_size_limits_are_inclusive():
    # exactly at each limit passes, one past it fails; nothing is allocated
    few = PulseParams(tau=10.0, delta=1.0, phi=0.2, d_tau=1.0)  # random: ensemble_n samples
    many = PulseParams(tau=1.0, delta=0.5, phi=0.2)
    validate(SystemParams(), few, SimConfig(t_max=9_999_999.0, grid_dt=1.0, ensemble_n=2))
    validate(SystemParams(), many, SimConfig(t_max=10_000_000.0, grid_dt=10.0, ensemble_n=1))
    cases = [
        (few, SimConfig(t_max=10_000_000.0, grid_dt=1.0, ensemble_n=1), GRID_TOO_LARGE),
        (many, SimConfig(t_max=10_000_001.0, grid_dt=10.0, ensemble_n=1), PULSES_TOO_MANY),
    ]
    for pulses, sim, code in cases:
        with pytest.raises(ValidationError) as err:
            validate(SystemParams(), pulses, sim)
        assert err.value.code == code
    # the ensemble limit is EnsembleRun's, where a point's sample count is decided
    EnsembleRun(SystemParams(), few, SimConfig(t_max=9_999_999.0, grid_dt=1.0, ensemble_n=2))
    over = SimConfig(t_max=9_999_999.0, grid_dt=1.0, ensemble_n=3)
    validate(SystemParams(), few, over)
    with pytest.raises(ValidationError) as err:
        EnsembleRun(SystemParams(), few, over)
    assert err.value.code == ENSEMBLE_TOO_LARGE


def test_table_segment_limit_is_inclusive():
    # t_max 1, 101 grid points and pulses counted as t_max / tau + 1 = 2: the bound is
    # 107 + phase_pieces(t_max, c = 0) + 2 |phi| / PIECE_RAD, one segment below or above the limit
    system, sim = SystemParams(), SimConfig(t_max=1.0, grid_dt=0.01, ensemble_n=1)
    for extra, passes in ((-1.0, True), (1.0, False)):
        phi = (MAX_TABLE_SEGMENTS + extra - 107 - phase_pieces(system, sim.t_max, 0.0)) * PIECE_RAD / 2
        pulses = PulseParams(tau=1.0, delta=0.5, phi=phi)
        if passes:
            validate(system, pulses, sim)
            assert lane_groups(3, system, pulses, sim) == [range(0, 1), range(1, 2), range(2, 3)]
        else:
            with pytest.raises(ValidationError) as err:
                validate(system, pulses, sim)
            assert err.value.code == SEGMENTS_TOO_MANY


@pytest.mark.filterwarnings("ignore")  # d_phi past |phi| and clamped widths warn
@settings(max_examples=max(200, settings.default.max_examples))  # thorough: the profile's count
@given(tau=st.floats(0.05, 1.0), share=st.floats(0.05, 0.95), d_delta=st.floats(0.0, 0.99),
       phi=st.floats(-100.0, 100.0), d_phi=st.floats(0.0, 2.0), d_tau=st.floats(0.0, 0.95),
       omega=st.floats(1e-3, 300.0), Gamma=st.floats(1e-3, 1e4), gamma=st.floats(1e-3, 10.0),
       t_max=st.floats(0.05, 5.0), grid_points=st.integers(1, 200), seed=st.integers(0, 2**32))
def test_table_segment_bound_holds_for_validated_trains(tau, share, d_delta, phi, d_phi, d_tau, omega,
                                                        Gamma, gamma, t_max, grid_points, seed):
    # strong, sign-flipping areas (d_phi up to 2 |phi|), gaps down to 0.05 tau and
    # widths clamped to the gap: a train's table has at most validate's bound of rows
    system = SystemParams(omega, Gamma, gamma)
    pulses = PulseParams(tau=tau, delta=share * tau, phi=phi, d_tau=d_tau * tau,
                         d_delta=d_delta * share * tau, d_phi=d_phi * abs(phi))
    sim = SimConfig(t_max=t_max, step=1e-4, grid_dt=t_max / grid_points, ensemble_n=1, master_seed=seed)
    validate(system, pulses, sim, allow_overlap=True)
    schedule = generate_random(pulses, t_max, RandomStream.for_schedule(seed, 0))
    rows = len(_LaneTables([schedule], system, sim).cs)
    # the bound is at least rows exactly when a limit just below rows fails it
    with patch.object(model, "MAX_TABLE_SEGMENTS", math.nextafter(rows, 0.0)):
        with pytest.raises(ValidationError) as err:
            validate(system, pulses, sim, allow_overlap=True)
    assert err.value.code == SEGMENTS_TOO_MANY


SCALES = st.floats(1e-300, 1e308) | st.sampled_from([1e-12, 1e-6, 1.0, 1e6, 1e12, 1e300, 1e308])


@pytest.mark.filterwarnings("ignore:d_phi")
@settings(max_examples=300)  # few draws pass validation, and a draw costs ~1 ms
@given(omega=SCALES, Gamma=SCALES, gamma=SCALES, per_tau=st.floats(1e-6, 10.0), phi=SCALES,
       share=st.floats(0.0, 0.9), t_max=SCALES, dt=st.floats(1e-6, 1.0))
def test_lane_groups_size_every_validated_configuration(omega, Gamma, gamma, per_tau, phi, share, t_max, dt):
    # every term of lane_groups' table estimate is finite once validate passes
    system, tau = SystemParams(omega, Gamma, gamma), per_tau * t_max
    pulses = PulseParams(tau=tau, delta=0.4 * tau, phi=phi, d_tau=share * 0.5 * tau, d_phi=share * phi)
    sim = SimConfig(t_max=t_max, step=dt * t_max, grid_dt=dt * t_max, ensemble_n=40)
    try:
        validate(system, pulses, sim)
    except ValidationError:
        return
    groups = lane_groups(sim.ensemble_n, system, pulses, sim)
    assert [k for g in groups for k in g] == list(range(sim.ensemble_n))


def test_ensemble_limit_counts_the_samples_a_point_stacks():
    # a deviation-free point is one sample, one row of the grid, at any ensemble_n
    sim = SimConfig(ensemble_n=10_000)  # 10000 x 3001 cells for a random point
    assert EnsembleRun(SystemParams(), PulseParams(), sim).n == 1
    with pytest.raises(ValidationError) as err:
        EnsembleRun(SystemParams(), PulseParams(d_tau=0.004), sim)
    assert err.value.code == ENSEMBLE_TOO_LARGE


def test_initial_state_normalization():
    bundle = validate(
        SystemParams(), PulseParams(0.02, 0.008, 0.2), SimConfig(), InitialState(3.0, 4.0)
    )
    assert math.isclose(abs(bundle.init.mu) ** 2 + abs(bundle.init.nu) ** 2, 1.0, abs_tol=1e-12)
    assert math.isclose(bundle.init.mu2, 9.0 / 25.0, rel_tol=1e-12)


@pytest.mark.parametrize("mu,nu", [
    (math.nan, 0.0), (1.0, complex(0.0, math.inf)), (complex(math.nan, 1.0), 1.0),
    (-math.inf, math.inf), (math.inf, math.nan),
])
def test_non_finite_initial_state_is_not_normalizable(mu, nu):
    # normalization is the state's finiteness check: a non-finite norm fails it
    with pytest.raises(ValidationError) as err:
        validate(SystemParams(), PulseParams(0.02, 0.008, 0.2), SimConfig(), InitialState(mu, nu))
    assert err.value.code == STATE_NOT_NORMALIZABLE
    for mu2 in (math.nan, math.inf):
        with pytest.raises(ValidationError) as err:
            InitialState.from_population(mu2)
        assert err.value.code == STATE_NOT_NORMALIZABLE


def test_huge_or_tiny_finite_amplitudes_normalize():
    for mu, nu in ((1e200, 1e200), (1e-200, 0.0), (1e308, 1e308)):
        state = InitialState(mu, nu).normalized()
        assert math.isclose(state.mu2 + abs(state.nu) ** 2, 1.0, rel_tol=1e-12)


def test_from_population():
    s = InitialState.from_population(0.3, rel_phase=0.7)
    assert math.isclose(s.mu2, 0.3, rel_tol=1e-12)
    assert math.isclose(abs(s.nu) ** 2, 0.7, rel_tol=1e-12)
