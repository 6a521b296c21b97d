import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randdd.errors import (
    SCHEDULE_HORIZON_INVALID,
    SCHEDULE_MALFORMED,
    SCHEDULE_PULSE_DEGENERATE,
    SCHEDULE_PULSE_OUTSIDE,
    SCHEDULE_PULSE_OVERLAP,
    ValidationError,
)
from randdd.model import REL_TOL, PulseParams, merge_tol
from randdd.pulsegen import (
    _BLOCK_MARGIN,
    PulseSchedule,
    RandomStream,
    breakpoint_table,
    control_integral,
    empty_schedule,
    generate_random,
    generate_regular,
    load_schedule,
    save_schedule,
    segment_table,
)


def test_regular_five_pulses(standard_pulses):
    s = generate_regular(standard_pulses, 0.1)
    assert [p.start for p in s.pulses] == [0.0, 0.02, 0.04, 0.06, 0.08]
    assert all(p.width == 0.008 and p.area == 0.2 for p in s.pulses)
    assert s.strengths.tolist() == pytest.approx([25.0] * 5)


def test_regular_empty_horizon(standard_pulses):
    assert len(generate_regular(standard_pulses, 0.0)) == 0


def test_regular_boundary_count(standard_pulses):
    s = generate_regular(standard_pulses, 0.021)
    assert [p.start for p in s.pulses] == [0.0, 0.02]


def test_regular_truncates_final_pulse(standard_pulses):
    s = generate_regular(standard_pulses, 0.045)
    last = s.pulses[-1]
    assert last.start == pytest.approx(0.04)
    assert last.width == pytest.approx(0.005)
    assert last.area == pytest.approx(0.2 * 0.005 / 0.008)
    assert s.strengths[-1] == pytest.approx(25.0)  # prorating keeps the strength


def test_segment_edges_regular(standard_pulses):
    s = generate_regular(standard_pulses, 0.05)
    pts, c = segment_table(s)
    np.testing.assert_allclose(pts, [0.0, 0.008, 0.02, 0.028, 0.04, 0.048, 0.05], atol=1e-15)
    np.testing.assert_allclose(c, [25.0, 0.0, 25.0, 0.0, 25.0, 0.0], rtol=1e-12)


def test_segment_edges_empty():
    pts, c = segment_table(empty_schedule(1.0))
    np.testing.assert_array_equal(pts, [0.0, 1.0])
    np.testing.assert_array_equal(c, [0.0])


def test_segment_edges_of_pulses_overlapping_within_tolerance():
    # check lets a pulse start up to the merge tolerance before the previous
    # one ends, so the edges are not in pulse order: start 1 before end 0
    tol = merge_tol(1.0)
    s = PulseSchedule([0.25, 0.5 - 0.5 * tol], [0.25, 0.25], [0.5, -1.0], 1.0).check()
    pts, c = segment_table(s, np.linspace(0.0, 1.0, 5))
    np.testing.assert_array_equal(pts, [0.0, 0.25, 0.5 - 0.5 * tol, 0.75 - 0.5 * tol, 1.0])
    np.testing.assert_array_equal(c, [0.0, *s.strengths, 0.0])


def test_random_determinism(standard_pulses):
    params = PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_delta=0.004, d_phi=0.1)
    a = generate_random(params, 2.0, RandomStream.for_schedule(99, 3))
    b = generate_random(params, 2.0, RandomStream.for_schedule(99, 3))
    assert a == b
    c = generate_random(params, 2.0, RandomStream.for_schedule(99, 4))
    assert a != c


def test_random_zero_deviation_matches_regular(standard_pulses):
    out = generate_random(standard_pulses, 0.5, RandomStream.for_schedule(1, 0))
    assert out == generate_regular(standard_pulses, 0.5)


@pytest.mark.parametrize("devs", [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (-0.0, -0.0, -0.0),
                                  (0.004, 0.0, 0.0), (0.0, 1e-300, 0.0), (-0.0, 0.0, 0.05)])
def test_is_regular_iff_every_deviation_is_zero(devs):
    params = PulseParams(0.02, 0.008, 0.2, *devs)
    assert params.is_regular == all(d == 0.0 for d in devs)
    if params.is_regular:
        out = generate_random(params, 0.5, RandomStream.for_schedule(1, 0))
        reg = generate_regular(params, 0.5)
        assert out.horizon == reg.horizon
        for a, b in zip((out.starts, out.widths, out.areas), (reg.starts, reg.widths, reg.areas)):
            assert a.tobytes() == b.tobytes()


def test_random_gap_mean_converges():
    # law of large numbers on the start-to-start gaps: Var(U(-1,1)*D) = D^2/3
    params = PulseParams(0.02, 0.008, 0.2, d_tau=0.004)
    scheds = [generate_random(params, 60.0, RandomStream.for_schedule(7, k)) for k in range(4)]
    gaps = np.concatenate([np.diff(s.starts) for s in scheds])
    assert gaps.size >= 10_000
    se = params.d_tau / math.sqrt(3.0 * gaps.size)
    assert abs(gaps.mean() - params.tau) < 4.0 * se


def test_random_width_area_means():
    params = PulseParams(0.02, 0.008, 0.2, d_delta=0.003, d_phi=0.15)
    scheds = [generate_random(params, 60.0, RandomStream.for_schedule(11, k)) for k in range(4)]
    widths = np.concatenate([s.widths for s in scheds])
    areas = np.concatenate([s.areas for s in scheds])
    n = widths.size
    assert abs(widths.mean() - params.delta) < 4.0 * params.d_delta / math.sqrt(3 * n)
    assert abs(areas.mean() - params.phi) < 4.0 * params.d_phi / math.sqrt(3 * n)


valid_params = st.builds(
    PulseParams,
    tau=st.just(0.02),
    delta=st.floats(0.004, 0.012),
    phi=st.floats(-0.5, 0.5),
    d_tau=st.floats(0.0, 0.003),
    d_delta=st.floats(0.0, 0.003),
    d_phi=st.floats(0.0, 0.3),
).filter(lambda p: p.delta + p.d_delta < p.tau - p.d_tau and p.d_delta < p.delta)


@given(params=valid_params, seed=st.integers(0, 2**32), k=st.integers(0, 2**20))
def test_random_schedule_invariants(params, seed, k):
    s = generate_random(params, 1.0, RandomStream(seed, k))
    s.check()
    starts = [p.start for p in s.pulses]
    gaps = np.diff(starts)
    if len(gaps):
        assert gaps.min() >= params.tau - params.d_tau - 1e-12
    # no overlap, and widths within the advertised band
    for a, b in zip(s.pulses, s.pulses[1:]):
        assert a.end <= b.start + 1e-12
    full = [p for p in s.pulses[:-1]]  # last may be horizon-truncated
    if full:
        assert max(p.width for p in full) <= params.delta + params.d_delta + 1e-12
    edges, _ = segment_table(s)
    assert np.all(np.diff(edges) > 0)


# widths may reach past the next start and are clamped to the gap
overlapping_params = st.builds(
    PulseParams,
    tau=st.just(0.02),
    delta=st.floats(0.012, 0.019),
    phi=st.floats(-0.5, 0.5),
    d_tau=st.floats(0.001, 0.006),
    d_delta=st.floats(0.0, 0.004),
    d_phi=st.floats(0.0, 0.3),
)


@given(params=st.one_of(valid_params, overlapping_params, st.just(PulseParams(0.02, 0.008, 0.2))),
       seed=st.integers(0, 2**32), short=st.floats(0.001, 1.0), longer=st.floats(0.0, 2.0))
def test_a_shorter_horizon_is_the_start_of_the_train(params, seed, short, longer):
    # up to its last pulse, which the horizon may cut, a train to a shorter
    # horizon is the start of the longer one
    stream = RandomStream(seed, 3)
    a, b = generate_random(params, short, stream), generate_random(params, short + longer, stream)
    m = len(a) - 1
    assert np.array_equal(a.starts, b.starts[:m + 1])
    assert np.array_equal(a.widths[:m], b.widths[:m]) and np.array_equal(a.areas[:m], b.areas[:m])


@given(params=valid_params, seed=st.integers(0, 2**32))
@settings(max_examples=20)
def test_field_integral_equals_area(params, seed):
    # the integrators' field: sum of c * dt over a pulse's intervals is its area, 0 off pulses
    s = generate_random(params, 0.5, RandomStream(seed, 0))
    pts, c, _ = breakpoint_table(s, np.empty(0))
    dt = np.diff(pts)
    mids = pts[:-1] + 0.5 * dt
    owner = np.searchsorted(s.starts, mids, side="right") - 1
    on = (owner >= 0) & (mids < s.ends[owner])
    assert np.all(c[~on] == 0.0)
    got = np.bincount(owner[on], c[on] * dt[on], len(s))
    assert got.tolist() == pytest.approx(s.areas.tolist(), rel=1e-12, abs=1e-15)


def test_control_integral_piecewise_exact(standard_pulses):
    s = generate_regular(standard_pulses, 0.1)
    # after k complete pulses the integral is k * phi
    assert control_integral(s, 0.0) == 0.0
    assert control_integral(s, 0.008) == pytest.approx(0.2, rel=1e-12)
    assert control_integral(s, 0.02) == pytest.approx(0.2, rel=1e-12)
    assert control_integral(s, 0.024) == pytest.approx(0.2 + 25.0 * 0.004, rel=1e-12)
    np.testing.assert_allclose(
        control_integral(s, np.array([0.004, 0.1])), [25.0 * 0.004, 1.0], rtol=1e-12
    )


def test_clamped_generation_when_overlap_possible():
    # constraint violated on purpose: widths are clamped to the realized gap
    params = PulseParams(0.02, 0.015, 0.2, d_tau=0.004, d_delta=0.004)
    s = generate_random(params, 2.0, RandomStream.for_schedule(5, 0))
    s.check()
    for a, b in zip(s.pulses, s.pulses[1:]):
        assert a.end <= b.start + 1e-15
    # strength preserved by prorating: area/width stays at the drawn strength
    assert np.isfinite(s.strengths).all()


def test_schedule_roundtrip(tmp_path, standard_pulses):
    params = PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_delta=0.002, d_phi=0.05)
    s = generate_random(params, 1.0, RandomStream.for_schedule(21, 2))
    path = tmp_path / "sched.csv"
    save_schedule(s, path)
    loaded = load_schedule(path)
    assert loaded == s


def test_load_schedule_horizon_override(tmp_path, standard_pulses):
    s = generate_regular(standard_pulses, 0.1)
    path = tmp_path / "sched.csv"
    save_schedule(s, path)
    assert load_schedule(path, horizon=0.2).horizon == 0.2


@pytest.mark.parametrize("horizon", ["inf", "nan", "-1"])
def test_load_schedule_rejects_a_horizon_header_that_is_not_finite_and_non_negative(tmp_path, horizon):
    # an inf horizon's merge tolerance is inf: every breakpoint would merge
    # into t = 0, and both integrators would return J = 0 at every grid time
    path = tmp_path / "sched.csv"
    path.write_text(f"# horizon={horizon}\nindex,start,width,area\n0,0.0,0.008,0.2\n")
    with pytest.raises(ValidationError) as err:
        load_schedule(path)
    assert err.value.code == SCHEDULE_HORIZON_INVALID
    assert load_schedule(path, horizon=0.2).horizon == 0.2  # a --replay passes t_max


# ---------------------------------------------------------------------------
# array schedules against the per-pulse reference loop

def loop_generate_regular(params, horizon):
    """Per-pulse reference for generate_regular."""
    starts, widths, areas = [], [], []
    tol = REL_TOL * max(1.0, horizon)
    i = 0
    while i * params.tau < horizon - tol:
        start, width, area = i * params.tau, params.delta, params.phi
        if start + width > horizon:
            frac = (horizon - start) / width
            width, area = horizon - start, area * frac
        starts.append(start)
        widths.append(width)
        areas.append(area)
        i += 1
    return np.array(starts), np.array(widths), np.array(areas)


@pytest.mark.parametrize("tau", [0.02, 0.03, 0.007])
@pytest.mark.parametrize("horizon", [0.0, 0.021, 0.045, 1.0, 3.3, 20.0, 90.0])
def test_array_regular_matches_per_pulse_loop(tau, horizon):
    params = PulseParams(tau, 0.006, 0.2)
    s = generate_regular(params, horizon)
    starts, widths, areas = loop_generate_regular(params, horizon)
    assert np.array_equal(s.starts, starts)
    assert np.array_equal(s.widths, widths)
    assert np.array_equal(s.areas, areas)


def loop_generate_random(params, horizon, stream):
    """Per-pulse reference for generate_random: one triple per pulse, running start."""
    rng = stream.generator()
    starts, widths, areas = [], [], []
    tol = REL_TOL * max(1.0, horizon)
    start = 0.0
    while start < horizon - tol:
        u, v, w = rng.uniform(-1.0, 1.0, 3)
        gap = float(params.tau + params.d_tau * u)
        width = float(params.delta + params.d_delta * v)
        area = float(params.phi + params.d_phi * w)
        limit = min(gap, horizon - start)
        if width > limit:
            area *= limit / width
            width = limit
        starts.append(start)
        widths.append(width)
        areas.append(area)
        start += gap
    return np.array(starts), np.array(widths), np.array(areas)


def _first_block(params, horizon):
    return math.ceil((horizon - REL_TOL * max(1.0, horizon)) / params.tau) + _BLOCK_MARGIN


@pytest.mark.parametrize("params,horizon", [
    (PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_delta=0.003, d_phi=0.15), 3.7),   # mixed
    (PulseParams(0.02, 0.015, 0.2, d_tau=0.004, d_delta=0.004), 3.0),              # clamped widths
    (PulseParams(0.02, 0.0008, 0.2, d_tau=0.95 * 0.02, d_phi=0.05), 20.0),         # several blocks
])
def test_array_generator_matches_per_pulse_loop(params, horizon):
    clamped = blocks = 0
    for k in range(20):
        stream = RandomStream.for_schedule(2024, k)
        s = generate_random(params, horizon, stream)
        starts, widths, areas = loop_generate_random(params, horizon, stream)
        assert np.array_equal(s.starts, starts)
        assert np.array_equal(s.widths, widths)
        assert np.array_equal(s.areas, areas)
        clamped += int(np.sum(s.ends[:-1] >= s.starts[1:]))
        blocks += len(s) > _first_block(params, horizon)
    if params.delta + params.d_delta >= params.tau - params.d_tau:
        assert clamped > 0
    if params.d_tau == 0.95 * params.tau:
        assert blocks > 0  # some streams ran past the first draw block


def test_pulses_view_matches_arrays():
    params = PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_delta=0.002, d_phi=0.05)
    s = generate_random(params, 1.0, RandomStream.for_schedule(3, 1))
    assert len(s.pulses) == len(s) > 0
    assert [p.start for p in s.pulses] == s.starts.tolist()
    assert [p.width for p in s.pulses] == s.widths.tolist()
    assert [p.area for p in s.pulses] == s.areas.tolist()
    assert [p.end for p in s.pulses] == s.ends.tolist()
    assert s.pulses is s.pulses  # built once


def test_schedule_arrays_are_read_only():
    starts = np.array([0.0, 0.5])
    s = PulseSchedule(starts, [0.1, 0.1], [0.2, 0.2], 1.0)
    for a in (s.starts, s.widths, s.areas):
        with pytest.raises(ValueError):
            a[0] = 9.0
    starts[0] = 0.25  # the schedule holds its own copy
    assert s.starts[0] == 0.0
    with pytest.raises(ValueError):
        PulseSchedule([0.0, 0.5], [0.1], [0.2, 0.2], 1.0)


def test_schedule_equality():
    params = PulseParams(0.02, 0.008, 0.2, d_tau=0.004)
    a = generate_random(params, 1.0, RandomStream.for_schedule(8, 0))
    assert a == generate_random(params, 1.0, RandomStream.for_schedule(8, 0))
    assert a != generate_random(params, 1.0, RandomStream.for_schedule(8, 1))
    assert a != PulseSchedule(a.starts, a.widths, a.areas, 2.0)
    assert a != "schedule"
    assert empty_schedule(1.0) == empty_schedule(1.0)


@pytest.mark.parametrize("starts,widths,areas,code", [
    ([0.0, 0.5], [0.1, 0.0], [0.2, 0.2], SCHEDULE_PULSE_DEGENERATE),
    ([0.0, 0.5], [0.1, 0.1], [0.2, np.inf], SCHEDULE_PULSE_DEGENERATE),
    ([0.0, 0.05], [0.1, 0.1], [0.2, 0.2], SCHEDULE_PULSE_OVERLAP),
    ([0.0, 0.95], [0.1, 0.1], [0.2, 0.2], SCHEDULE_PULSE_OUTSIDE),
    ([-0.1, 0.5], [0.1, 0.1], [0.2, 0.2], SCHEDULE_PULSE_OUTSIDE),
    ([np.nan, 0.5], [0.1, 0.1], [0.2, 0.2], SCHEDULE_PULSE_OUTSIDE),
])
def test_check_reports_first_bad_pulse(starts, widths, areas, code):
    with pytest.raises(ValidationError) as err:
        PulseSchedule(starts, widths, areas, 1.0).check()
    assert err.value.code == code
    # the message names the pulse as its record's repr does
    pulses = PulseSchedule(starts, widths, areas, 1.0).pulses
    assert str(err.value) in {f"{code}: pulse {i} {pulse} on [0, 1.0]" for i, pulse in enumerate(pulses)}


@pytest.mark.parametrize("body", [
    "index,start,width,area\n0,0.0,0.008\n",
    "index,start,width,area\n0,0.0,0.008,0.2,1\n",
    "index,start,width,area\n0,zero,0.008,0.2\n",
    "# horizon=one\n",
])
def test_load_schedule_rejects_malformed_rows(tmp_path, body):
    path = tmp_path / "sched.csv"
    path.write_text(body)
    with pytest.raises(ValidationError) as err:
        load_schedule(path, horizon=1.0)
    assert err.value.code == SCHEDULE_MALFORMED
