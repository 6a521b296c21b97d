"""Rectangular pulse trains, regular and randomized, and the control field.

A schedule is an ordered, non-overlapping train of rectangular pulses on
[0, horizon], held as three read-only float64 arrays: starts, widths and
areas. The control field is

    c(t) = area_i / width_i   for t in [start_i, start_i + width_i),
    c(t) = 0                  otherwise (half-open "on" intervals),

so each pulse contributes its area exactly. Randomized trains draw one
Uniform(-1, 1) triple per pulse, in the fixed order (gap, width, area):

    start_{i+1} = start_i + (tau + d_tau * u_i)
    width_i     = delta + d_delta * v_i
    area_i      = phi + d_phi * w_i

The triples come from a Philox 4x64 counter-based generator keyed by
(master_seed, stream_index), so every (seed, stream) pair reproduces the
same schedule on any platform and distinct streams are independent.
Pulses that would cross the horizon, or (when validation was relaxed)
the next pulse's start, are truncated with the area prorated so the
instantaneous strength is preserved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import errors
from .model import PulseParams

# Relative tolerance for comparing times assembled from sums of products of inputs.
_REL_TOL = 1e-12

# Triples drawn per block beyond the mean-gap count of the pulses left.
_BLOCK_MARGIN = 16

# stream_index lanes; keeps schedule, bootstrap, and state-sampling draws
# on provably disjoint Philox keys for one master seed.
SCHEDULE_LANE = 0
BOOTSTRAP_LANE = 1
HAAR_LANE = 2
_LANE_STRIDE = 2**48


@dataclass(frozen=True)
class RandomStream:
    """Deterministic variate source: (master_seed, stream_index) -> stream.

    Backed by numpy's Philox 4x64 counter-based bit generator with
    key = [master_seed, stream_index]; the mapping from key to bit
    stream is fixed by numpy across platforms and versions.
    """

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=np.array([self.master_seed, self.stream_index], dtype=np.uint64))
        )

    @staticmethod
    def for_schedule(master_seed: int, sample_index: int) -> "RandomStream":
        return RandomStream(master_seed, SCHEDULE_LANE * _LANE_STRIDE + sample_index)

    @staticmethod
    def for_bootstrap(master_seed: int, point_index: int = 0) -> "RandomStream":
        return RandomStream(master_seed, BOOTSTRAP_LANE * _LANE_STRIDE + point_index)

    @staticmethod
    def for_state_sampling(master_seed: int) -> "RandomStream":
        return RandomStream(master_seed, HAAR_LANE * _LANE_STRIDE)


@dataclass(frozen=True)
class Pulse:
    start: float
    width: float
    area: float

    @property
    def end(self) -> float:
        return self.start + self.width


@dataclass(frozen=True, eq=False)
class PulseSchedule:
    """Pulse i is [starts[i], starts[i] + widths[i]) carrying areas[i]."""

    starts: np.ndarray
    widths: np.ndarray
    areas: np.ndarray
    horizon: float

    def __post_init__(self):
        for name in ("starts", "widths", "areas"):  # private read-only copies
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
            getattr(self, name).setflags(write=False)
        if not (self.starts.ndim == 1 and self.starts.shape == self.widths.shape == self.areas.shape):
            raise ValueError("starts, widths and areas must be 1-d arrays of one length")

    def __len__(self) -> int:
        return len(self.starts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PulseSchedule):
            return NotImplemented
        return self.horizon == other.horizon and all(map(
            np.array_equal, (self.starts, self.widths, self.areas), (other.starts, other.widths, other.areas)))

    @property
    def ends(self) -> np.ndarray:
        return self.starts + self.widths

    @property
    def strengths(self) -> np.ndarray:
        return self.areas / self.widths

    @cached_property
    def pulses(self) -> tuple[Pulse, ...]:
        """The pulses as records, built on first use (for inspection, not hot paths)."""
        return tuple(map(Pulse, self.starts.tolist(), self.widths.tolist(), self.areas.tolist()))

    def check(self) -> "PulseSchedule":
        """Raise ValidationError at a horizon that is not finite and >= 0, or at a
        degenerate, overlapping or out-of-range pulse; returns self."""
        if not 0.0 <= self.horizon < math.inf:  # an inf horizon's merge tolerance swallows the table
            raise errors.ValidationError(errors.SCHEDULE_HORIZON_INVALID, f"horizon {self.horizon}")
        with np.errstate(divide="ignore", invalid="ignore"):
            degenerate = ~((self.widths > 0) & np.isfinite(self.strengths))
        overlap = np.append(False, self.starts[1:] < self.ends[:-1] - _REL_TOL * max(1.0, self.horizon))
        outside = ~(self.starts >= 0.0) | (self.ends > self.horizon * (1 + _REL_TOL) + 1e-300)
        for code, bad in ((errors.SCHEDULE_PULSE_DEGENERATE, degenerate),
                          (errors.SCHEDULE_PULSE_OVERLAP, overlap), (errors.SCHEDULE_PULSE_OUTSIDE, outside)):
            if bad.any():
                i = int(np.argmax(bad))
                start, width, area = (float(x[i]) for x in (self.starts, self.widths, self.areas))
                raise errors.ValidationError(code, f"pulse {i} Pulse({start=}, {width=}, {area=}) on [0, {self.horizon}]")
        return self


def generate_regular(params: PulseParams, horizon: float) -> PulseSchedule:
    """Evenly spaced train: starts i*tau, width delta, area phi."""
    cut = horizon - _REL_TOL * max(1.0, horizon)
    starts = np.arange(math.ceil(cut / params.tau) + 2) * params.tau
    starts = starts[: np.searchsorted(starts, cut)]
    widths = np.full(len(starts), params.delta, dtype=float)
    areas = np.full(len(starts), params.phi, dtype=float)
    over = starts + params.delta > horizon  # truncate, keep strength
    widths[over] = horizon - starts[over]
    areas[over] = params.phi * (widths[over] / params.delta)
    return PulseSchedule(starts, widths, areas, horizon).check()


def generate_random(params: PulseParams, horizon: float, stream: RandomStream) -> PulseSchedule:
    """Randomized train per the per-pulse (gap, width, area) draws.

    With all deviation scales zero the output is bit-for-bit the regular
    schedule. A width that would reach past the next start (possible only
    when validation was relaxed) or past the horizon is clamped with its
    area prorated. Up to the last pulse, a train to a shorter horizon is
    the start of this one.
    """
    if params.is_regular:
        return generate_regular(params, horizon)
    rng = stream.generator()
    cut = horizon - _REL_TOL * max(1.0, horizon)
    # pulse i uses triple i: draw blocks until the start after the last drawn
    # pulse reaches the horizon (cumsum adds in order, as a running start would)
    draws, starts = np.empty((0, 3)), np.zeros(1)
    while starts[-1] < cut:
        n = math.ceil((cut - starts[-1]) / params.tau) + _BLOCK_MARGIN
        draws = np.concatenate([draws, rng.uniform(-1.0, 1.0, (n, 3))])
        starts = np.concatenate([[0.0], np.cumsum(params.tau + params.d_tau * draws[:, 0])])
    n = np.searchsorted(starts, cut)
    starts, gaps = starts[:n], params.tau + params.d_tau * draws[:n, 0]
    widths = params.delta + params.d_delta * draws[:n, 1]
    areas = params.phi + params.d_phi * draws[:n, 2]
    limit = np.minimum(gaps, horizon - starts)
    over = widths > limit
    areas[over] *= limit[over] / widths[over]
    widths[over] = limit[over]
    return PulseSchedule(starts, widths, areas, horizon).check()


def control_integral(schedule: PulseSchedule, t) -> np.ndarray | float:
    """Exact running integral of c(s) over [0, t]; vectorizes over t.

    Piecewise linear: full areas of finished pulses plus the prorated
    area of a pulse in progress.
    """
    tq = np.atleast_1d(np.asarray(t, dtype=float))
    starts, ends, areas = schedule.starts, schedule.ends, schedule.areas
    cum = np.concatenate([[0.0], np.cumsum(areas)])
    idx = np.searchsorted(starts, tq, side="right")  # pulses started by time t
    out = cum[idx]
    if len(schedule):
        last = np.clip(idx - 1, 0, None)
        inside = (idx > 0) & (tq < ends[last])
        li = last[inside]
        out[inside] -= areas[li] * (ends[li] - tq[inside]) / (ends[li] - starts[li])
    return out if np.ndim(t) else float(out[0])


def merge_tol(t: float) -> float:
    """Times closer than this on a horizon t are merged into one breakpoint."""
    return _REL_TOL * max(1.0, t)


def breakpoint_table(schedule: PulseSchedule, times: np.ndarray, t_max: float | None = None,
                     pieces=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breakpoints, the constant c on each interval, and the breakpoint index of each time.

    The breakpoints are 0, the horizon and every on/off edge of c(t), merged
    with the ascending times so integrators land on them. In the sorted union
    a time within merge_tol(horizon) of its predecessor joins its cluster,
    which keeps its first time; times[k]'s index is its cluster's breakpoint.
    With t_max, breakpoints from t_max + merge_tol(t_max) on are cut.
    pieces(lengths, c) gives the equal pieces each interval is split into; it
    must not decrease as a length or |c| grows.
    """
    h = schedule.horizon
    tol = merge_tol(h)
    # the edges in pulse order, start i, end i, start i + 1, ..., each with
    # the c that follows it (an end at or past the horizon is the horizon's)
    n = len(schedule)
    x, follow = np.empty(2 * n), np.zeros(2 * n)
    x[0::2], x[1::2], follow[0::2] = schedule.starts, schedule.ends, schedule.strengths
    inside = np.ones(2 * n, dtype=bool)
    inside[1::2] = schedule.ends < h
    edges = np.concatenate([[0.0], x[inside], [h]])
    follow = np.concatenate([[0.0], follow[inside], [0.0]])
    step, held = np.diff(edges), edges
    if (step < 0.0).any():
        # a pulse starts (within the tolerance) before the previous one ends:
        # no edge order to read, every interval's c is looked up below
        edges = np.sort(edges)
        step, held = np.diff(edges), np.full(len(edges), np.inf)
    # a cluster of edges keeps its first; the c after it, that of its last
    # edge, holds from reach on
    last = np.append(step > tol, True)
    after, reach = follow[last], held[last]
    edges = edges[np.append(True, step > tol)]
    # merge the times in by position: a time goes after the edges <= it
    at = np.searchsorted(edges, times, side="right") + np.arange(len(times))
    is_time = np.zeros(len(edges) + len(times), dtype=bool)
    is_time[at] = True
    merged = np.empty(len(is_time))
    merged[at], merged[~is_time] = times, edges
    keep = np.append(True, np.diff(merged) > tol)
    pts = merged[keep]
    lo = np.searchsorted(pts, -tol)
    hi = np.searchsorted(pts, h * (1 + _REL_TOL), side="right")
    if t_max is not None:
        hi = min(hi, np.searchsorted(pts, t_max + merge_tol(t_max)))
    pts = pts[lo:hi]
    idx = (np.cumsum(keep) - 1 - lo)[at]
    # interval j's c is the c at its midpoint: the c after the last edge
    # cluster merged into breakpoint j, unless that cluster reaches past the
    # midpoint (edges chained within the tolerance); those are looked up
    mids = 0.5 * (pts[:-1] + pts[1:])
    k = (np.cumsum(~is_time) - 1)[np.append(keep[1:], True)][lo:lo + len(mids)]
    c, look = after[k], reach[k] > mids
    if n and look.any():
        m = mids[look]
        i = np.searchsorted(schedule.starts, m, side="right") - 1
        c[look] = np.where((i >= 0) & (m < schedule.ends[i]), schedule.strengths[i], 0.0)
    if pieces is None:
        return pts, c, idx
    lengths = np.diff(pts)
    # rounding is monotone: no interval has more pieces than the longest one at the largest |c|
    if not len(c) or np.ceil(pieces(lengths.max(), np.abs(c).max()) - 1e-12) <= 1:
        return pts, c, idx
    nsub = np.maximum(1, np.ceil(pieces(lengths, c) - 1e-12).astype(int))
    if not (nsub > 1).any():
        return pts, c, idx
    # piece k of n on [a, b] ends at a + (b - a) * k / n, the last one at b
    first = np.append(0, np.cumsum(nsub))
    k = np.arange(1, first[-1] + 1) - np.repeat(first[:-1], nsub)
    inner = np.repeat(pts[:-1], nsub) + np.repeat(lengths, nsub) * k / np.repeat(nsub, nsub)
    inner[first[1:] - 1] = pts[1:]
    return np.append(pts[:1], inner), np.repeat(c, nsub), first[idx]


def segment_table(schedule: PulseSchedule, extra_times: Sequence[float] | np.ndarray = ()) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints covering [0, horizon] and the constant c on each interval,
    merged with extra_times in any order (see breakpoint_table)."""
    pts, c, _ = breakpoint_table(schedule, np.sort(np.asarray(extra_times, dtype=float)))
    return pts, c


# ---------------------------------------------------------------------------
# CSV serialization (inspection and replay)

def save_schedule(schedule: PulseSchedule, path) -> None:
    rows = zip(schedule.starts.tolist(), schedule.widths.tolist(), schedule.areas.tolist())
    with open(path, "w", newline="\n") as f:
        f.write(f"# horizon={float(schedule.horizon)!r}\nindex,start,width,area\n")
        f.writelines(f"{i},{s!r},{w!r},{a!r}\n" for i, (s, w, a) in enumerate(rows))


def load_schedule(path, horizon: float | None = None) -> PulseSchedule:
    """Load a schedule written by save_schedule (replayable in place of generation).

    Malformed rows and schedules that fail check raise ValidationError.
    """
    rows, file_horizon = [], None
    with open(path, errors="replace") as f:  # undecodable bytes fail as a malformed row
        for ln, line in enumerate(f, 1):
            line = line.strip()
            key, _, val = line.lstrip("# ").partition("=")
            try:
                if line.startswith("#") and key.strip() == "horizon":
                    file_horizon = float(val)
                elif line and not line.startswith(("#", "index,")):
                    _, start, width, area = line.split(",")
                    rows.append((float(start), float(width), float(area)))
            except ValueError as exc:
                raise errors.ValidationError(errors.SCHEDULE_MALFORMED, f"{path}:{ln}: {line!r}: {exc}") from exc
    h = horizon if horizon is not None else file_horizon
    if h is None:
        raise errors.ValidationError(errors.SCHEDULE_MALFORMED, f"{path}: no horizon header and none supplied")
    table = np.array(rows, dtype=float).reshape(-1, 3)
    return PulseSchedule(table[:, 0], table[:, 1], table[:, 2], h).check()


def empty_schedule(horizon: float) -> PulseSchedule:
    """No control: c(t) = 0 on [0, horizon]."""
    return PulseSchedule(np.empty(0), np.empty(0), np.empty(0), horizon)
