"""Integration of the dissipation coefficient Q(t) and its running integral.

Q(t) solves the scalar Riccati equation

    dQ/dt = Gamma*gamma/2 + (-gamma + i*omega + i*c(t)) * Q + Q^2,   Q(0) = 0,

with c(t) the piecewise-constant control field. Everything downstream
only needs J(t) = int_0^t Q ds through exp(-J) and exp(-2 Re J), so J is
carried as extra state (J' = Q) rather than recovered by quadrature.

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
                   schedules (exact_factors), bitwise per lane.

Output samples land exactly on integration nodes: the output grid is
merged into the breakpoint set, never interpolated.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BlowUpError, DegenerateDiscriminantError, ValidationError, HORIZON_SHORT
from .model import PulseParams, SimConfig, SystemParams
from .pulsegen import PulseSchedule, segment_table

DEFAULT_BLOWUP = 1e6


class QState(NamedTuple):
    q: complex
    j: complex


@dataclass(frozen=True)
class QTrajectory:
    """Q and J sampled on the output grid (grid[0] = 0, states (0, 0) there)."""

    grid: np.ndarray
    q: np.ndarray
    j: np.ndarray

    def state(self, i: int) -> QState:
        return QState(complex(self.q[i]), complex(self.j[i]))

    def decay_factor(self) -> np.ndarray:
        """exp(-2 Re J): the population damping envelope."""
        return np.exp(-2.0 * np.real(self.j))

    def coherence_factor(self) -> np.ndarray:
        """exp(-J): the (co-rotating frame) coherence envelope."""
        return np.exp(-self.j)

    def save(self, path) -> None:
        with open(path, "w", newline="\n") as f:
            f.write("t,re_q,im_q,re_j,im_j\n")
            for t, q, j in zip(self.grid, self.q, self.j):
                f.write(
                    f"{float(t)!r},{float(q.real)!r},{float(q.imag)!r},"
                    f"{float(j.real)!r},{float(j.imag)!r}\n"
                )


def q_derivative(q: complex, c: float, system: SystemParams) -> complex:
    """Right-hand side of the Riccati equation at field value c."""
    return (
        0.5 * system.Gamma * system.gamma
        + (-system.gamma + 1j * (system.omega + c)) * q
        + q * q
    )


def markov_fixed_point(system: SystemParams) -> complex:
    """Stationary root of the c = 0 equation on the branch that tends to
    Gamma/2 as gamma grows (the memoryless damping rate)."""
    gt = system.gamma - 1j * system.omega
    disc = gt * gt - 2.0 * system.Gamma * system.gamma
    if abs(disc) <= 1e-14 * max(abs(gt * gt), 2.0 * system.Gamma * system.gamma):
        raise DegenerateDiscriminantError(f"gamma_tilde^2 = 2*Gamma*gamma = {gt * gt}")
    # principal sqrt has Re >= 0, so this is the smaller-real-part root
    return 0.5 * (gt - cmath.sqrt(disc))


def _steps_for(length: float, step: float) -> int:
    """Smallest n with length/n <= step, robust to last-ulp ratios."""
    return max(1, int(math.ceil(length / step * (1.0 - 1e-12))))


def _breakpoints(schedule: PulseSchedule, system: SystemParams, sim: SimConfig,
                 subdivide: bool = False):
    """Segment table cut at t_max, plus the output-grid sample positions.

    With subdivide=True long segments are split so that the phase of
    exp(-J) advances less than ~1.5 rad per piece (keeps the closed-form
    path's phase unwrapping unambiguous).
    """
    if schedule.horizon < sim.t_max * (1.0 - 1e-12):
        raise ValidationError(
            HORIZON_SHORT, f"schedule horizon {schedule.horizon} < t_max {sim.t_max}"
        )
    grid = sim.output_grid()
    pts, c = segment_table(schedule, extra_times=grid)
    tol = 1e-12 * max(1.0, sim.t_max)
    cut = np.searchsorted(pts, sim.t_max + tol)
    pts, c = pts[:cut], c[: cut - 1]

    if subdivide:
        rate = system.omega + np.abs(c) + system.gamma + math.sqrt(2.0 * system.Gamma * system.gamma)
        lengths = np.diff(pts)
        nsub = np.maximum(1, np.ceil(lengths * rate / 1.5 - 1e-12).astype(int))
        if np.any(nsub > 1):
            new_pts = [np.array([pts[0]])]
            new_c = []
            for a, b, ci, ni in zip(pts[:-1], pts[1:], c, nsub):
                inner = a + (b - a) * np.arange(1, ni + 1) / ni
                inner[-1] = b
                new_pts.append(inner)
                new_c.append(np.full(ni, ci))
            pts = np.concatenate(new_pts)
            c = np.concatenate(new_c)

    # map each grid time to its breakpoint index
    gi = np.searchsorted(pts, grid)
    gi = np.clip(gi, 0, len(pts) - 1)
    left_closer = (gi > 0) & (np.abs(pts[np.maximum(gi - 1, 0)] - grid) < np.abs(pts[gi] - grid))
    gi[left_closer] -= 1
    if np.any(np.abs(pts[gi] - grid) > tol):
        worst = int(np.argmax(np.abs(pts[gi] - grid)))
        raise AssertionError(f"grid point {grid[worst]} missing from breakpoints")
    return grid, pts, c, gi


def integrate(
    schedule: PulseSchedule,
    system: SystemParams,
    sim: SimConfig,
    *,
    blowup: float = DEFAULT_BLOWUP,
    sample_index: int | None = None,
) -> QTrajectory:
    """Fixed-step RK4 for (Q, J), edge-aligned, sampled on the output grid."""
    grid, pts, cs, gi = _breakpoints(schedule, system, sim)
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
            if not aq <= blowup:
                raise BlowUpError(pts[seg] + (i + 1) * h, aq, sample_index)
        qs[seg + 1] = q
        js[seg + 1] = j
    return QTrajectory(grid, qs[gi], js[gi])


def _segment_propagators(cs: np.ndarray, lengths: np.ndarray, system: SystemParams):
    """Exact 2x2 propagators for (u, u') across constant-c segments, vectorized.

    Roots l1, l2 of l^2 + (gamma - i(omega+c)) l + Gamma*gamma/2 = 0;
    u(s) = (l1 e^{l2 s} - l2 e^{l1 s})/(l1 - l2) * u0 + (e^{l1 s} - e^{l2 s})/(l1 - l2) * u0'.
    """
    gt = system.gamma - 1j * (system.omega + cs)
    disc = gt * gt - 2.0 * system.Gamma * system.gamma
    s = np.sqrt(disc.astype(complex))
    l1 = 0.5 * (-gt + s)
    l2 = 0.5 * (-gt - s)
    d = l1 - l2
    # the validated parameter space keeps |d| away from 0 (omega > 0 gives
    # Im(disc) = -2*gamma*(omega+c) != 0 except at c = -omega); nudge any
    # near-degenerate segment off the double root instead of branching
    tiny = np.abs(d) < 1e-12
    if np.any(tiny):
        l1 = np.where(tiny, l1 + 5e-13, l1)
        l2 = np.where(tiny, l2 - 5e-13, l2)
        d = l1 - l2
    e1 = np.exp(l1 * lengths)
    e2 = np.exp(l2 * lengths)
    m00 = (l1 * e2 - l2 * e1) / d
    m01 = (e1 - e2) / d
    m10 = l1 * l2 * (e2 - e1) / d
    m11 = (l1 * e1 - l2 * e2) / d
    return m00, m01, m10, m11


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
    rate = (system.omega + abs(pulses.phi) / pulses.tau + system.gamma
            + math.sqrt(2.0 * system.Gamma * system.gamma))
    segments = sim.grid_size() + 2 * math.ceil(sim.t_max / pulses.tau) + math.ceil(sim.t_max * rate / 1.5)
    lanes = max(1, min(MAX_LANES, LANE_TABLE_BYTES // (16 * segments)))
    size = -(-n // -(-n // lanes))
    return [range(k, min(k + size, n)) for k in range(0, n, size)]


def _scalar_steps(m00, m01, m10, m11) -> tuple[np.ndarray, np.ndarray]:
    """CPython's complex recurrence u, v = a00*u + a01*v, a10*u + a11*v from
    (u, v) = (1, 0), for one lane (propagator columns of width 1)."""
    a00, a01, a10, a11 = (m[:, 0].tolist() for m in (m00, m01, m10, m11))
    n = len(a00)
    us = np.empty((n + 1, 1), dtype=complex)
    vs = np.empty((n + 1, 1), dtype=complex)
    u, v = 1.0 + 0.0j, 0.0 + 0.0j
    us[0, 0], vs[0, 0] = u, v
    for k in range(n):
        u, v = a00[k] * u + a01[k] * v, a10[k] * u + a11[k] * v
        us[k + 1, 0] = u
        vs[k + 1, 0] = v
    return us, vs


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

    def __call__(self, m00, m01, m10, m11) -> tuple[np.ndarray, np.ndarray]:
        n, lanes = m00.shape
        ms = np.stack([m00, m10, m01, m11], axis=1)  # (step, term * 2 + out, lane)
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


def _propagate(pts: list, cs: list, gi: np.ndarray, system: SystemParams, out: tuple,
               samples: list, factors: bool = False) -> None:
    """Advance (u, u') of every lane through its segment table, window by window.

    Lane l has breakpoints pts[l], fields cs[l] and output-grid breakpoint
    indices gi[l]; its grid samples go to row l of out, as (Q, J) or, with
    factors, as (exp(-2 Re J), Re exp(-J)). One lane runs the scalar
    recurrence over its whole table as one window; more lanes run
    _LaneSteps over windows of WINDOW_ELEMS lane-steps. Every other stage
    is elementwise or runs along the steps of each lane (the phase unwrap
    carries its running sum from window to window), so each lane is
    bitwise its one-lane run. A failed check raises BlowUpError for the
    first failing lane of the window.
    """
    lanes = len(pts)
    n_seg = max(len(c) for c in cs)
    width = n_seg if lanes == 1 else max(1, WINDOW_ELEMS // lanes)
    steps = _scalar_steps if lanes == 1 else _LaneSteps(lanes, width)
    starts = range(0, n_seg, width)
    # lane l's grid samples pos[l, w]:pos[l, w + 1] sit in the states of window w
    ends = [-1] + [min(w0 + width, n_seg) for w0 in starts]
    pos = np.array([np.searchsorted(g, ends, side="right") for g in gi])
    lane_ids = np.arange(lanes)
    for w, w0 in enumerate(starts):
        n = min(width, n_seg - w0)
        # a lane past its last segment takes zero-length, field-free steps
        lengths = np.zeros((n, lanes))
        fields = np.zeros((n, lanes))
        for l in range(lanes):
            k = max(0, min(n, len(cs[l]) - w0))
            np.subtract(pts[l][w0 + 1:w0 + k + 1], pts[l][w0:w0 + k], out=lengths[:k, l])
            fields[:k, l] = cs[l][w0:w0 + k]
        us, vs = steps(*_segment_propagators(fields, lengths, system))

        mag = np.abs(us)
        bad = ~(mag > 0.0)
        if bad.any():
            l = int(np.argmax(bad.any(axis=0)))
            t_bad = pts[l][min(w0 + int(np.argmax(bad[:, l])), len(pts[l]) - 1)]
            raise BlowUpError(float(t_bad), float("inf"), samples[l])
        # continuous phase of u: phase[k] = ph[0] + cumsum(dph)[k - 1] over the whole table
        ph = np.angle(us)
        dph = np.diff(ph, axis=0)
        dph -= 2.0 * np.pi * np.round(dph / (2.0 * np.pi))
        phase = np.empty_like(ph)
        if w == 0:
            ph0 = phase[0] = ph[0].copy()
        else:
            phase[0] = ph0 + cum
            dph[0] += cum
        cum_dph = np.cumsum(dph, axis=0)
        cum = cum_dph[-1]
        phase[1:] = ph0 + cum_dph
        j = -(np.log(mag) + 1j * phase)
        q = -vs / us
        aq = np.abs(q)
        bad = ~np.all(np.isfinite(q), axis=0) | (np.max(aq, axis=0) > DEFAULT_BLOWUP)
        if bad.any():
            l = int(np.argmax(bad))
            t_bad = pts[l][min(w0 + int(np.argmax(aq[:, l])), len(pts[l]) - 1)]
            raise BlowUpError(float(t_bad), float(np.max(aq[:, l])), samples[l])

        cnt = pos[:, w + 1] - pos[:, w]
        lane = np.repeat(lane_ids, cnt)
        col = np.arange(cnt.sum()) + np.repeat(pos[:, w] - np.cumsum(cnt) + cnt, cnt)
        row = gi[lane, col] - w0
        j_grid = j[row, lane]
        if factors:
            out[0][lane, col] = np.exp(-2.0 * np.real(j_grid))
            out[1][lane, col] = np.real(np.exp(-j_grid))
        else:
            out[0][lane, col] = q[row, lane]
            out[1][lane, col] = j_grid


def integrate_exact(
    schedule: PulseSchedule,
    system: SystemParams,
    sim: SimConfig,
    *,
    sample_index: int | None = None,
) -> QTrajectory:
    """Per-segment closed-form propagation of (u, u') with u = exp(-J).

    Q = -u'/u and J = -log u with the phase unwrapped by continuity over
    breakpoints (segments are subdivided so the per-piece phase advance
    stays well below pi). The one-lane call of the exact kernel.
    """
    grid, pts, cs, gi = _breakpoints(schedule, system, sim, subdivide=True)
    q = np.empty((1, len(grid)), dtype=complex)
    j = np.empty_like(q)
    _propagate([pts], [cs], gi[None], system, (q, j), [sample_index])
    return QTrajectory(grid, q[0], j[0])


def exact_factors(schedules, system: SystemParams, sim: SimConfig, e2: np.ndarray, e1: np.ndarray,
                  samples: list) -> None:
    """Write exp(-2 Re J) and Re exp(-J) of each schedule into the rows of e2 and e1.

    All schedules advance together as lanes of the exact kernel, bitwise as
    integrate_exact would give them one by one. schedules may be an iterator:
    each one is cut into its segment table and then dropped.
    """
    pts, cs = [], []
    gi = np.empty(e2.shape, dtype=np.intp)
    for l, schedule in enumerate(schedules):
        _, p, c, gi[l] = _breakpoints(schedule, system, sim, subdivide=True)
        pts.append(p)
        cs.append(c)
    _propagate(pts, cs, gi, system, (e2, e1), samples, factors=True)


def integrate_with(
    schedule: PulseSchedule, system: SystemParams, sim: SimConfig, **kw
) -> QTrajectory:
    """Dispatch on sim.integrator."""
    if sim.integrator == "rk4":
        return integrate(schedule, system, sim, **kw)
    return integrate_exact(schedule, system, sim, **kw)
