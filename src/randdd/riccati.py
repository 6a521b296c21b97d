"""Integration of the dissipation coefficient Q(t) and its running integral.

Q(t) solves the scalar Riccati equation

    dQ/dt = Gamma*gamma/2 + (-gamma + i*omega + i*c(t)) * Q + Q^2,   Q(0) = 0,

with c(t) the piecewise-constant control field. Everything downstream
only needs J(t) = int_0^t Q ds through u = exp(-J): the factors are
exp(-2 Re J) = |u|^2 and Re exp(-J) = Re u.

Two integrators share one trajectory contract:

* integrate      - classical fixed-step RK4, restarted at every edge of
                   c(t) so no step straddles a discontinuity; the step
                   divides each segment evenly and never exceeds
                   sim.step. This is the reference path.
* integrate_exact - per-segment closed form. On a segment with constant
                   c, u = exp(-J) satisfies the linear equation
                   u'' + (gamma - i*(omega + c)) u' + (Gamma*gamma/2) u = 0,
                   so (u, u') advances by an exact 2x2 propagator built
                   from the two characteristic roots. Orders of magnitude
                   faster for long ensemble runs; agrees with RK4 to
                   integrator tolerance. It is the one-lane call of an
                   exact kernel that ensembles run over lane groups of
                   schedules (exact_factors), bitwise per lane, which
                   reads the factors from u with no J at all.

Output samples land exactly on integration nodes: the output grid is
merged into the breakpoint set, never interpolated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import BlowUpError, ValidationError, HORIZON_SHORT
from .model import PulseParams, SimConfig, SystemParams
from .pulsegen import PulseSchedule, breakpoint_table

DEFAULT_BLOWUP = 1e6


@dataclass(frozen=True)
class QTrajectory:
    """Q, J and u = exp(-J) on the output grid (grid[0] = 0, where u = 1);
    the factors read u as the exact kernel's factor sink does."""

    grid: np.ndarray
    q: np.ndarray
    j: np.ndarray
    u: np.ndarray

    def decay_factor(self) -> np.ndarray:
        """exp(-2 Re J) = |u|^2: the population damping envelope."""
        return _abs2(self.u)

    def coherence_factor(self) -> np.ndarray:
        """exp(-J) = u: the (co-rotating frame) coherence envelope."""
        return self.u

    def save(self, path) -> None:
        with open(path, "w", newline="\n") as f:
            f.write("t,re_q,im_q,re_j,im_j\n")
            f.writelines(map("{!r},{!r},{!r},{!r},{!r}\n".format, self.grid.tolist(), self.q.real.tolist(),
                             self.q.imag.tolist(), self.j.real.tolist(), self.j.imag.tolist()))


def _abs2(u: np.ndarray) -> np.ndarray:
    """|u|^2 in correctly rounded float64 steps: the same bits at any layout."""
    return u.real * u.real + u.imag * u.imag


def _steps_for(length: float, step: float) -> int:
    """Smallest n with length/n <= step, robust to last-ulp ratios."""
    return max(1, int(math.ceil(length / step * (1.0 - 1e-12))))


def _phase_pieces(system: SystemParams, lengths, c):
    """Pieces of at most ~1.5 rad of exp(-J)'s phase over lengths at field c,
    from the rate bound omega + |c| + gamma + sqrt(2 Gamma gamma)."""
    rate = system.omega + np.abs(c) + system.gamma + math.sqrt(2.0 * system.Gamma * system.gamma)
    return lengths * rate / 1.5


def _breakpoints(schedule: PulseSchedule, sim: SimConfig, pieces=None, grid: np.ndarray | None = None):
    """Output grid, segment table cut at t_max, and each grid time's breakpoint index:
    every table of RK4, the exact kernel and the pseudomode oracle.

    pieces splits intervals as in pulsegen.breakpoint_table (the exact
    kernel passes _phase_pieces). grid, if given, is sim.output_grid().
    """
    if schedule.horizon < sim.t_max * (1.0 - 1e-12):
        raise ValidationError(HORIZON_SHORT, f"schedule horizon {schedule.horizon} < t_max {sim.t_max}")
    grid = sim.output_grid() if grid is None else grid
    return (grid, *breakpoint_table(schedule, grid, sim.t_max, pieces))


def integrate(schedule: PulseSchedule, system: SystemParams, sim: SimConfig) -> QTrajectory:
    """Fixed-step RK4 for (Q, J), edge-aligned, sampled on the output grid.

    The loop runs on Python floats and complexes: numpy scalars give the
    same bits through the same textbook formulas, at twice the cost per op.
    """
    grid, pts, cs, gi = _breakpoints(schedule, sim)
    pts, cs = pts.tolist(), cs.tolist()
    k0 = 0.5 * system.Gamma * system.gamma
    base = -system.gamma + 1j * system.omega

    q = 0.0 + 0.0j
    j = 0.0 + 0.0j
    qs = np.empty(len(pts), dtype=complex)
    js = np.empty(len(pts), dtype=complex)
    qs[0] = q
    js[0] = j
    for seg in range(len(pts) - 1):
        lin = base + 1j * cs[seg]
        length = pts[seg + 1] - pts[seg]
        n = _steps_for(length, sim.step)
        h = length / n
        h2 = 0.5 * h
        h6 = h / 6.0
        for i in range(n):
            k1 = k0 + lin * q + q * q
            q2 = q + h2 * k1
            k2 = k0 + lin * q2 + q2 * q2
            q3 = q + h2 * k2
            k3 = k0 + lin * q3 + q3 * q3
            q4 = q + h * k3
            k4 = k0 + lin * q4 + q4 * q4
            j = j + h6 * (q + 2.0 * (q2 + q3) + q4)
            q = q + h6 * (k1 + 2.0 * (k2 + k3) + k4)
            aq = abs(q)
            if not aq <= DEFAULT_BLOWUP:
                raise BlowUpError(pts[seg] + (i + 1) * h, aq)
        qs[seg + 1] = q
        js[seg + 1] = j
    return QTrajectory(grid, qs[gi], js[gi], np.exp(-js[gi]))


# Root gap |l1 - l2| below which a segment's propagator is not divided by it. It is at least
# sqrt(2 gamma omega) for fields c >= 0 (every default run), since Im (l1 - l2)^2 = -2 gamma (omega + c).
NEAR_ROOT = 1e-3


def _segment_propagators(cs: np.ndarray, lengths: np.ndarray, system: SystemParams) -> np.ndarray:
    """Exact 2x2 propagators for (u, u') across constant-c segments, vectorized.

    Roots l1, l2 of l^2 + (gamma - i(omega+c)) l + Gamma*gamma/2 = 0;
    u(s) = (l1 e^{l2 s} - l2 e^{l1 s})/(l1 - l2) * u0 + (e^{l1 s} - e^{l2 s})/(l1 - l2) * u0'.
    Returns one (step, 4, lane) buffer of m00, m10, m01, m11: entry term * 2 + out
    is what u (term 0) or u' (term 1) adds to the new u (out 0) or u' (out 1).

    The roots meet at c = -omega, gamma = 2 Gamma, and near there the divides
    by d = l1 - l2 lose digits. So a segment with |d| < NEAR_ROOT takes the
    same propagator through entire functions: sigma = (l1 + l2)/2, x = d s/2,
    E = e^{sigma s}, S = s sinh(x)/x (s at x = 0); m00 = E(cosh x - sigma S),
    m01 = E S, m10 = -l1 l2 E S, m11 = E(cosh x + sigma S). Both forms are
    elementwise, so a lane stays bitwise its one-lane run.
    """
    gt = system.gamma - 1j * (system.omega + cs)
    disc = gt * gt - 2.0 * system.Gamma * system.gamma
    s = np.sqrt(disc)
    l1 = 0.5 * (-gt + s)
    l2 = 0.5 * (-gt - s)
    d = l1 - l2
    near = np.abs(d) < NEAR_ROOT
    if near.any():
        d = np.where(near, 1.0, d)  # the generic values there are overwritten below
    e1 = np.exp(l1 * lengths)
    e2 = np.exp(l2 * lengths)
    m = np.empty((len(cs), 4, *np.shape(cs)[1:]), dtype=complex)
    np.divide(l1 * e2 - l2 * e1, d, out=m[:, 0])
    np.divide(l1 * l2 * (e2 - e1), d, out=m[:, 1])
    np.divide(e1 - e2, d, out=m[:, 2])
    np.divide(l1 * e1 - l2 * e2, d, out=m[:, 3])
    if near.any():
        h, sigma = lengths[near], -0.5 * gt[near]  # l1 + l2 = -gt and l1 l2 = Gamma gamma/2
        x = 0.5 * s[near] * h  # sqrt(disc) is d before rounding
        big_s = np.where(x == 0, h, h * np.sinh(x) / np.where(x == 0, 1.0, x))
        e, ch = np.exp(sigma * h), np.cosh(x)
        m[:, 0][near] = e * (ch - sigma * big_s)
        m[:, 1][near] = -0.5 * system.Gamma * system.gamma * e * big_s
        m[:, 2][near] = e * big_s
        m[:, 3][near] = e * (ch + sigma * big_s)
    return m


# Lane groups: at most MAX_LANES schedules advance together, and no more than
# fit LANE_TABLE_BYTES of segment tables (16 B per segment and lane). A window
# holds WINDOW_ELEMS lane-steps, so its temporaries stay small next to the tables.
MAX_LANES = 32
LANE_TABLE_BYTES = 8 << 20
WINDOW_ELEMS = 1 << 12


def lane_groups(n: int, system: SystemParams, pulses: PulseParams, sim: SimConfig) -> list[range]:
    """Samples 0..n-1 cut into balanced lane groups under the table budget.

    A train's table holds about the grid points, two edges per pulse and
    the phase subdivisions at the mean field |phi|/tau.
    """
    segments = (sim.grid_size() + 2 * math.ceil(sim.t_max / pulses.tau)
                + math.ceil(_phase_pieces(system, sim.t_max, pulses.phi / pulses.tau)))
    lanes = max(1, min(MAX_LANES, LANE_TABLE_BYTES // (16 * segments)))
    size = -(-n // -(-n // lanes))
    return [range(k, min(k + size, n)) for k in range(0, n, size)]


class _LaneTables:
    """The window source: the subdivided segment tables of a lane group's
    schedules on [0, t_max], packed as (row, lane) arrays.

    Row r of pts holds every lane's breakpoint r and row r of cs the field
    on the interval after it, so a window is a slice. A lane past its last
    breakpoint repeats it with field 0, so it takes zero-length, field-free
    steps. gi[l, k] is the row of lane l's grid time k on grid.
    """

    def __init__(self, schedules: list, system: SystemParams, sim: SimConfig):
        self.grid = sim.output_grid()
        pieces = partial(_phase_pieces, system)
        tables = [_breakpoints(s, sim, pieces, self.grid)[1:] for s in schedules]
        self.gi = np.array([gi for _, _, gi in tables])
        rows = max(len(c) for _, c, _ in tables)
        self.pts = np.empty((rows + 1, len(tables)))
        self.cs = np.zeros((rows, len(tables)))
        for l, (p, c, _) in enumerate(tables):
            self.pts[:len(p), l] = p
            self.pts[len(p):, l] = p[-1]
            self.cs[:len(c), l] = c

    def window(self, w0: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Fields and lengths of rows w0 .. w0 + n - 1, as (step, lane)."""
        return self.cs[w0:w0 + n], self.pts[w0 + 1:w0 + n + 1] - self.pts[w0:w0 + n]

    def time(self, lane: int, row: int) -> float:
        return float(self.pts[row, lane])


class _ScalarSteps:
    """CPython's complex recurrence u, v = a00*u + a01*v, a10*u + a11*v from
    (u, v) = (1, 0), for one lane (propagators of one lane). The last (u, v)
    carries over to the next window."""

    def __init__(self):
        self.u, self.v = 1.0 + 0.0j, 0.0 + 0.0j

    def __call__(self, ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u, v = self.u, self.v
        us, vs = [u], [v]
        for a00, a10, a01, a11 in zip(*ms[:, :, 0].T.tolist()):
            u, v = a00 * u + a01 * v, a10 * u + a11 * v
            us.append(u)
            vs.append(v)
        self.u, self.v = u, v
        return np.array(us)[:, None], np.array(vs)[:, None]


class _LaneSteps:
    """The same recurrence for several lanes, four float64 ufunc calls per step.

    A state row is (u/v, re/im, lane). Each step gathers the operands
    (part, term, out, re/im, lane) from it, multiplies them by the step's
    coefficient row (part 0: Re a; part 1: -Im a for the re output, +Im a
    for the im output), adds the two parts and adds the two terms into the
    next row. That is CPython's (ar*xr - ai*xi, ar*xi + ai*xr) followed by
    the u term plus the v term, rounded the same way, so each lane is
    bitwise its one-lane run; numpy's complex multiply is not. The last row
    carries over to the next window.
    """

    def __init__(self, lanes: int, width: int):
        p, t, _, r, l = np.indices((2, 2, 2, 2, lanes))
        self.index = ((2 * t + (r ^ p)) * lanes + l).ravel()
        self.ops = np.empty(16 * lanes)
        self.parts = np.empty(8 * lanes)
        self.state = np.zeros((width + 1, 2, 2, lanes))
        self.state[0, 0, 0] = 1.0
        self.rows = list(self.state.reshape(width + 1, -1))

    def __call__(self, ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, _, lanes = ms.shape  # (step, term * 2 + out, lane)
        coef = np.empty((n, 2, 4, 2, lanes))
        coef[:, 0, :, 0] = ms.real
        coef[:, 0, :, 1] = ms.real
        np.negative(ms.imag, out=coef[:, 1, :, 0])
        coef[:, 1, :, 1] = ms.imag
        index, ops, parts = self.index, self.ops, self.parts
        op_lo, op_hi = ops[:8 * lanes], ops[8 * lanes:]
        part_lo, part_hi = parts[:4 * lanes], parts[4 * lanes:]
        for x, a, y in zip(self.rows, coef.reshape(n, -1), self.rows[1:n + 1]):
            x.take(index, None, ops, "wrap")  # index is in range by construction
            np.multiply(ops, a, ops)
            np.add(op_lo, op_hi, parts)
            np.add(part_lo, part_hi, y)
        st = self.state[:n + 1]
        us = np.empty((n + 1, lanes), dtype=complex)
        vs = np.empty((n + 1, lanes), dtype=complex)
        us.real, us.imag = st[:, 0, 0], st[:, 0, 1]
        vs.real, vs.imag = st[:, 1, 0], st[:, 1, 1]
        self.state[0] = st[n]
        return us, vs


class _Sink:
    """The window sink: checks a window's states and writes the lanes' grid
    samples to the rows of out, as (Q, J, u) or, with factors, as
    (exp(-2 Re J), Re exp(-J)) = (|u|^2, Re u), read straight from u.

    Only the J path unwraps the phase of u, as one running sum: each
    window's cumsum of wrapped increments is seeded with the phase carried
    over (0 at the start, where u = 1); J = -(log|u| + i phase) is taken at
    the grid rows. A failed check raises BlowUpError with the time and |Q|
    of the first failing lane of the window, and no sample.
    """

    def __init__(self, out: tuple, factors: bool):
        self.out, self.factors = out, factors
        self.lane_ids = np.arange(len(out[0]))
        self.phase = np.zeros(len(out[0]))

    def __call__(self, tables: _LaneTables, w0: int, us: np.ndarray, vs: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray) -> None:
        """States us, vs of rows w0 .. w0 + n; lane l's grid samples lo[l]:hi[l] lie among them."""
        mag = np.abs(us)
        bad = ~(mag > 0.0)
        if bad.any():
            l = int(np.argmax(bad.any(axis=0)))
            raise BlowUpError(tables.time(l, w0 + int(np.argmax(bad[:, l]))), float("inf"))
        q = -vs / us
        aq = np.abs(q)
        bad = ~(np.max(aq, axis=0) <= DEFAULT_BLOWUP)  # a non-finite Q has an inf or nan |Q|
        if bad.any():
            l = int(np.argmax(bad))
            raise BlowUpError(tables.time(l, w0 + int(np.argmax(aq[:, l]))), float(np.max(aq[:, l])))

        cnt = hi - lo
        lane = np.repeat(self.lane_ids, cnt)
        col = np.arange(cnt.sum()) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
        row = tables.gi[lane, col] - w0
        out, u = self.out, us[row, lane]
        if self.factors:
            out[0][lane, col] = _abs2(u)
            out[1][lane, col] = u.real
            return
        dph = np.diff(np.angle(us), axis=0)
        dph -= 2.0 * np.pi * np.round(dph / (2.0 * np.pi))
        phase = np.cumsum(np.concatenate([self.phase[None], dph]), axis=0)
        self.phase = phase[-1]
        out[0][lane, col] = q[row, lane]
        out[1][lane, col] = -(np.log(mag[row, lane]) + 1j * phase[row, lane])
        out[2][lane, col] = u


def _propagate(tables: _LaneTables, system: SystemParams, out: tuple, factors: bool = False,
               stop: Callable[[int], bool] | None = None) -> int:
    """Advance (u, u') of every lane through its segment table, window by window.

    The source, tables, gives each window's fields and lengths; the lanes
    run windows of WINDOW_ELEMS lane-steps: one lane the scalar recurrence,
    more lanes _LaneSteps, each carrying its last (u, u') over; the sink
    (_Sink) checks them and writes lane l's grid samples to row l of out:
    of (Q, J, u), or of (e2, e1) with factors. Every stage is elementwise
    or runs along the steps of each lane, so each lane is bitwise its
    one-lane run.

    After each window stop, if given, is called with the number of columns
    every lane has filled; once it returns true the run ends there. Returns
    the number of columns every lane has filled: all of them, or fewer once
    stop has ended the run. The kernel knows schedules, not samples: its
    BlowUpError carries a time and |Q| only.
    """
    lanes = tables.pts.shape[1]
    width = max(1, WINDOW_ELEMS // lanes)
    steps = _ScalarSteps() if lanes == 1 else _LaneSteps(lanes, width)
    sink = _Sink(out, factors)
    rows = len(tables.cs)
    starts = range(0, rows, width)
    # lane l's grid samples pos[l, w]:pos[l, w + 1] sit in the states of window w
    ends = [-1] + [min(w0 + width, rows) for w0 in starts]
    pos = np.array([np.searchsorted(g, ends, side="right") for g in tables.gi])
    filled = pos.min(axis=0).tolist()
    for w, w0 in enumerate(starts):
        us, vs = steps(_segment_propagators(*tables.window(w0, ends[w + 1] - w0), system))
        sink(tables, w0, us, vs, pos[:, w], pos[:, w + 1])
        if stop is not None and stop(filled[w + 1]):
            return filled[w + 1]
    return filled[-1]


def integrate_exact(schedule: PulseSchedule, system: SystemParams, sim: SimConfig) -> QTrajectory:
    """Per-segment closed-form propagation of (u, u') with u = exp(-J).

    Q = -u'/u and J = -log u with the phase unwrapped by continuity over
    breakpoints (segments are subdivided so the per-piece phase advance
    stays well below pi), and the sink's u. The one-lane call of the exact
    kernel; a BlowUpError names its time and |Q|, not a sample.
    """
    tables = _LaneTables([schedule], system, sim)
    q, j, u = np.empty((3, 1, len(tables.grid)), dtype=complex)
    _propagate(tables, system, (q, j, u))
    return QTrajectory(tables.grid, q[0], j[0], u[0])


def exact_factors(schedules: list, system: SystemParams, sim: SimConfig, e2: np.ndarray, e1: np.ndarray,
                  stop: Callable[[int], bool] | None = None) -> int:
    """Write exp(-2 Re J) = |u|^2 and Re exp(-J) = Re u of each schedule into the rows of e2 and e1.

    All lanes advance together as lanes of the exact kernel, on whole
    tables, bitwise as integrate_exact would give the schedules one by one,
    with stop as in _propagate. Returns the number of filled columns: all
    of them, or fewer once stop has ended the run. A BlowUpError is that of
    the first failing lane of a window and names no sample; the caller
    knows which sample each row is.
    """
    return _propagate(_LaneTables(schedules, system, sim), system, (e2, e1), factors=True, stop=stop)


def integrate_with(schedule: PulseSchedule, system: SystemParams, sim: SimConfig) -> QTrajectory:
    """Dispatch on sim.integrator. A BlowUpError names no sample: an
    ensemble's caller (fidelity) puts its sample and seed on it."""
    return (integrate if sim.integrator == "rk4" else integrate_exact)(schedule, system, sim)
