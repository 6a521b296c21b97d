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
                   integrator tolerance.

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
from .model import SimConfig, SystemParams
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
    stays well below pi).
    """
    grid, pts, cs, gi = _breakpoints(schedule, system, sim, subdivide=True)
    lengths = np.diff(pts)
    m00, m01, m10, m11 = _segment_propagators(cs, lengths, system)

    n = len(pts)
    us = np.empty(n, dtype=complex)
    vs = np.empty(n, dtype=complex)
    u = 1.0 + 0.0j
    v = 0.0 + 0.0j
    us[0] = u
    vs[0] = v
    a00 = m00.tolist()
    a01 = m01.tolist()
    a10 = m10.tolist()
    a11 = m11.tolist()
    for k in range(n - 1):
        u, v = a00[k] * u + a01[k] * v, a10[k] * u + a11[k] * v
        us[k + 1] = u
        vs[k + 1] = v

    mag = np.abs(us)
    if not np.all(mag > 0.0):
        t_bad = pts[int(np.argmin(mag > 0.0))]
        raise BlowUpError(float(t_bad), float("inf"), sample_index)
    # continuous phase of u across breakpoints
    ph = np.angle(us)
    dph = np.diff(ph)
    dph -= 2.0 * np.pi * np.round(dph / (2.0 * np.pi))
    phase = np.concatenate([[ph[0]], ph[0] + np.cumsum(dph)])
    j = -(np.log(mag) + 1j * phase)
    q = -vs / us
    if not np.all(np.isfinite(q)) or np.max(np.abs(q)) > DEFAULT_BLOWUP:
        t_bad = pts[int(np.argmax(np.abs(q)))]
        raise BlowUpError(float(t_bad), float(np.max(np.abs(q))), sample_index)
    return QTrajectory(grid, q[gi], j[gi])


def integrate_with(
    schedule: PulseSchedule, system: SystemParams, sim: SimConfig, **kw
) -> QTrajectory:
    """Dispatch on sim.integrator."""
    if sim.integrator == "rk4":
        return integrate(schedule, system, sim, **kw)
    return integrate_exact(schedule, system, sim, **kw)
