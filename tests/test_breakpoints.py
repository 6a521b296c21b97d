"""The one-merge breakpoint builder against the sort-and-search reference.

pulsegen.breakpoint_table merges the output times into the collapsed edge
list by position, reads each time's breakpoint index off its merge
position and splits intervals with np.repeat. The reference below is the
earlier construction: two sort-and-collapse passes, a search of the merged
table for every grid time with a nearest-neighbour repair, and a Python
loop over the segments for the split. Both must give the same pts, c and
grid indices, bit for bit.
"""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from randdd.model import PulseParams, SimConfig, SystemParams
from randdd.pulsegen import (
    _REL_TOL,
    PulseSchedule,
    RandomStream,
    breakpoint_table,
    empty_schedule,
    generate_random,
    generate_regular,
    merge_tol,
    segment_table,
)
from randdd.riccati import _breakpoints


def ref_merge_times(times, tol):
    t = np.sort(np.asarray(times, dtype=float))
    return t[np.append(True, np.diff(t) > tol)] if len(t) else t


def ref_segment_table(schedule, extra_times=()):
    h = schedule.horizon
    tol = _REL_TOL * max(1.0, h)
    starts, ends = schedule.starts, schedule.ends
    edges = ref_merge_times(np.concatenate([[0.0, h], starts, ends[ends < h]]), tol)
    pts = ref_merge_times(np.concatenate([edges, np.asarray(extra_times, dtype=float)]), tol)
    pts = pts[(pts >= -tol) & (pts <= h * (1 + _REL_TOL))]
    mids = 0.5 * (pts[:-1] + pts[1:])
    c = np.zeros(len(mids))
    if len(schedule):
        idx = np.searchsorted(starts, mids, side="right") - 1
        on = (idx >= 0) & (mids < ends[idx])
        c[on] = schedule.strengths[idx[on]]
    return pts, c


def ref_breakpoints(schedule, system, sim, subdivide=False):
    grid = sim.output_grid()
    pts, c = ref_segment_table(schedule, extra_times=grid)
    tol = 1e-12 * max(1.0, sim.t_max)
    cut = np.searchsorted(pts, sim.t_max + tol)
    pts, c = pts[:cut], c[: cut - 1]
    if subdivide:
        rate = system.omega + np.abs(c) + system.gamma + math.sqrt(2.0 * system.Gamma * system.gamma)
        lengths = np.diff(pts)
        nsub = np.maximum(1, np.ceil(lengths * rate / 1.5 - 1e-12).astype(int))
        if np.any(nsub > 1):
            new_pts, new_c = [np.array([pts[0]])], []
            for a, b, ci, ni in zip(pts[:-1], pts[1:], c, nsub):
                inner = a + (b - a) * np.arange(1, ni + 1) / ni
                inner[-1] = b
                new_pts.append(inner)
                new_c.append(np.full(ni, ci))
            pts, c = np.concatenate(new_pts), np.concatenate(new_c)
    gi = np.clip(np.searchsorted(pts, grid), 0, len(pts) - 1)
    left_closer = (gi > 0) & (np.abs(pts[np.maximum(gi - 1, 0)] - grid) < np.abs(pts[gi] - grid))
    gi[left_closer] -= 1
    if np.any(np.abs(pts[gi] - grid) > tol):
        raise AssertionError("grid point missing from breakpoints")
    return grid, pts, c, gi


def assert_same_tables(schedule, system, sim):
    for subdivide in (False, True):
        got = _breakpoints(schedule, system, sim, subdivide=subdivide)
        want = ref_breakpoints(schedule, system, sim, subdivide=subdivide)
        for name, a, b in zip(("grid", "pts", "c", "gi"), got, want):
            assert np.array_equal(a, b), (name, subdivide)
    grid = sim.output_grid()
    for extra in ((), grid):
        assert all(map(np.array_equal, segment_table(schedule, extra), ref_segment_table(schedule, extra)))


SYS = SystemParams(gamma=0.2)


def random_trains(params, t_max, n=20, seed=2024):
    return [generate_random(params, t_max, RandomStream.for_schedule(seed, k)) for k in range(n)]


@pytest.mark.parametrize("tau", [0.02, 0.03, 0.007])
@pytest.mark.parametrize("grid_dt", [0.01, 0.02, 0.05])
def test_regular_trains_match_reference(tau, grid_dt):
    # grid_dt = tau puts every pulse start (and 0) on a grid time
    sim = SimConfig(t_max=3.3, grid_dt=grid_dt, ensemble_n=1)
    assert_same_tables(generate_regular(PulseParams(tau, 0.006, 0.2), sim.t_max), SYS, sim)


@pytest.mark.parametrize("params", [
    PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_delta=0.003, d_phi=0.15),   # mixed
    PulseParams(0.02, 0.008, 0.2, d_tau=0.005),                              # the sweep-tau train
    PulseParams(0.02, 0.015, 0.2, d_tau=0.004, d_delta=0.004),               # clamped widths
    PulseParams(0.02, 0.008, 20.0, d_tau=0.005),                             # area 20, subdivided
    PulseParams(0.5, 0.2, 60.0, d_tau=0.1, d_delta=0.05),                    # long subdivided pulses
], ids=["mixed", "tau", "clamped", "area20", "long"])
def test_random_streams_match_reference(params):
    sim = SimConfig(t_max=3.7, grid_dt=0.02, ensemble_n=1)
    schedules = random_trains(params, sim.t_max)
    if params.delta + params.d_delta >= params.tau - params.d_tau:
        assert any(np.any(s.ends[:-1] == s.starts[1:]) for s in schedules)  # clamped
    for schedule in schedules:
        assert_same_tables(schedule, SYS, sim)


# the interval length that is one phase piece at c = 0 under SYS
ONE_PIECE = 1.5 / (1.0 + 0.2 + math.sqrt(0.4))


@pytest.mark.parametrize("scale", [1.0, 1.0 + 5e-13, 1.0 + 2e-12, 1.5, 2.0, 2.5])
def test_piece_counts_at_the_split_boundaries(scale):
    # grid intervals of scale x one piece: the longest interval has one piece,
    # one within the 1e-12 slack, just over one, or two or three
    sim = SimConfig(t_max=7 * scale * ONE_PIECE, grid_dt=scale * ONE_PIECE, ensemble_n=1)
    weak = PulseParams(3 * sim.grid_dt, sim.grid_dt / 4, 0.05)
    for schedule in (empty_schedule(sim.t_max), generate_regular(weak, sim.t_max)):
        assert_same_tables(schedule, SYS, sim)


def test_split_pieces_end_on_their_breakpoints():
    # short strong pulses off the grid lattice: a + (b - a) * n / n != b for
    # some pieces, so the last piece must be set to b as the loop did
    sim = SimConfig(t_max=1.3, grid_dt=0.07, ensemble_n=1)
    params = PulseParams(0.05, 0.02, 40.0, d_tau=0.02, d_delta=0.01, d_phi=20.0)
    for schedule in random_trains(params, sim.t_max, n=10, seed=0):
        assert_same_tables(schedule, SYS, sim)


def test_area20_long_train_subdivides_like_reference():
    sim = SimConfig(t_max=90.0, grid_dt=0.02, ensemble_n=1)
    schedule = generate_random(PulseParams(0.02, 0.008, 20.0, d_tau=0.005), sim.t_max,
                               RandomStream.for_schedule(12345, 0))
    _, pts, _, _ = _breakpoints(schedule, SYS, sim, subdivide=True)
    assert len(pts) > 5 * len(_breakpoints(schedule, SYS, sim)[1])
    assert_same_tables(schedule, SYS, sim)


def test_empty_schedule_matches_reference():
    for sim in (SimConfig(t_max=3.0, grid_dt=0.01, ensemble_n=1),
                SimConfig(t_max=30.0, grid_dt=0.7, ensemble_n=1)):  # subdivided, grid ends off the lattice
        assert_same_tables(empty_schedule(sim.t_max), SYS, sim)


def test_pulse_at_zero_and_edges_on_grid_times():
    sim = SimConfig(t_max=2.0, grid_dt=0.25, ensemble_n=1)
    schedule = PulseSchedule([0.0, 0.5, 1.25], [0.25, 0.3, 0.75], [2.0, -1.0, 40.0], 2.0).check()
    grid = sim.output_grid()
    assert np.isin([0.0, 0.25, 0.5, 1.25, 2.0], grid).all()
    assert_same_tables(schedule, SYS, sim)
    _, pts, _, gi = _breakpoints(schedule, SYS, sim)
    assert np.array_equal(pts[gi], grid)


def test_edges_within_tolerance_of_grid_times():
    # pulse edges a fraction of the merge tolerance off grid times; one grid
    # time sits between two edges 1.5 tolerances apart, so all three merge
    sim = SimConfig(t_max=2.0, grid_dt=0.25, ensemble_n=1)
    tol = merge_tol(sim.t_max)
    starts = np.array([0.25 + 0.4 * tol, 0.75 - 0.6 * tol, 1.0 + 0.7 * tol])
    ends = np.array([0.5 - 0.3 * tol, 1.0 - 0.8 * tol, 1.5 + 0.2 * tol])
    schedule = PulseSchedule(starts, ends - starts, [0.3, 0.4, 0.5], 2.0).check()
    assert_same_tables(schedule, SYS, sim)
    _, pts, c, gi = _breakpoints(schedule, SYS, sim)
    assert 1.0 + 0.7 * tol not in pts  # the chained edge is merged away
    assert np.all(np.abs(pts[gi] - sim.output_grid()) <= tol)


@pytest.mark.parametrize("offsets", [(-0.5, 0.5), (0.9, -0.9), (-0.3, 0.4, 0.8), (1.5, -1.5, 2.5)])
def test_extra_times_within_tolerance_of_an_edge(offsets):
    params = PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_phi=0.1)
    schedule = generate_random(params, 1.0, RandomStream.for_schedule(5, 1))
    tol = merge_tol(schedule.horizon)
    edges = np.concatenate([schedule.starts, schedule.ends])[::3]
    extra = np.concatenate([edges + o * tol for o in offsets])
    for times in (extra, extra[::-1], np.concatenate([extra, extra[:5]])):  # unsorted, repeated
        assert all(map(np.array_equal, segment_table(schedule, times), ref_segment_table(schedule, times)))


def test_unsorted_extra_times_and_out_of_range():
    schedule = generate_regular(PulseParams(0.02, 0.008, 0.2), 0.3)
    rng = np.random.default_rng(3)
    extra = np.concatenate([rng.uniform(-0.1, 0.4, 50), [0.0, 0.3, -1e-13, 0.3 + 1e-13, 0.3 + 1e-9]])
    rng.shuffle(extra)
    assert all(map(np.array_equal, segment_table(schedule, extra), ref_segment_table(schedule, extra)))
    assert all(map(np.array_equal, segment_table(schedule, list(extra)), ref_segment_table(schedule, extra)))


@pytest.mark.parametrize("horizon", [3.3 * (1 + 1e-13), 3.7, 5.0])
def test_tmax_below_horizon(horizon):
    sim = SimConfig(t_max=3.3, grid_dt=0.02, ensemble_n=1)
    for params in (PulseParams(0.02, 0.008, 0.2, d_tau=0.004, d_delta=0.003),
                   PulseParams(0.5, 0.2, 60.0, d_tau=0.1, d_delta=0.05)):
        for schedule in random_trains(params, horizon, n=5):
            assert_same_tables(schedule, SYS, sim)
            assert _breakpoints(schedule, SYS, sim)[1][-1] <= sim.t_max + merge_tol(sim.t_max)


@given(seed=st.integers(0, 2**32), t_max=st.floats(0.05, 4.0), grid_dt=st.floats(0.003, 0.5),
       phi=st.floats(-80.0, 80.0), n_extra=st.integers(0, 40))
def test_random_configurations_match_reference(seed, t_max, grid_dt, phi, n_extra):
    sim = SimConfig(t_max=t_max, grid_dt=min(grid_dt, t_max), ensemble_n=1)
    schedule = generate_random(PulseParams(0.05, 0.02, phi, d_tau=0.02, d_delta=0.01, d_phi=abs(phi) / 2),
                               t_max, RandomStream(seed, 0))
    assert_same_tables(schedule, SYS, sim)
    rng = np.random.default_rng(seed)
    tol = merge_tol(t_max)
    edges = np.concatenate([[0.0, t_max], schedule.starts, schedule.ends])
    extra = rng.choice(edges, n_extra) + rng.uniform(-2.0, 2.0, n_extra) * tol
    assert all(map(np.array_equal, segment_table(schedule, extra), ref_segment_table(schedule, extra)))


def test_builder_indices_are_clusters_of_the_times():
    schedule = generate_random(PulseParams(0.5, 0.2, 60.0, d_tau=0.1), 3.0, RandomStream.for_schedule(1, 0))
    times = np.linspace(0.0, 3.0, 31)
    pts, c, idx = breakpoint_table(schedule, times)
    assert np.array_equal(pts[idx], times)
    pts_s, c_s, idx_s = breakpoint_table(schedule, times, pieces=lambda lengths, c: lengths * 40.0)
    assert len(pts_s) > len(pts) and np.array_equal(pts_s[idx_s], times)
    assert np.array_equal(np.unique(c_s), np.unique(c))
