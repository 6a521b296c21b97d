"""Fidelity curves, schedule-randomness ensembles, and threshold times.

For the dissipative qubit the survival probability of mu|1> + nu|0> is

    F(t) = 1 - m - (m - 2 m^2) e2(t) + 2 m (1 - m) e1(t),       m = |mu|^2,

with e2 = exp(-2 int Re Q) and e1 = Re exp(-int Q); averaging m uniformly
over pure states (E[m] = 1/2, E[m^2] = 1/3) gives

    F_avg(t) = 1/2 + e2(t)/6 + e1(t)/3.

Both are affine in (e2, e1), so ensembles store those two factor rows per
random schedule and any initial state's curve is a cheap recombination.
Ensemble reduction is performed in ascending sample order, independent of
worker scheduling, so results are reproducible at the byte level.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import BlowUpError, ValidationError
from .model import InitialState, PulseParams, SimConfig, SystemParams
from .pulsegen import RandomStream, generate_random
from .riccati import QTrajectory, exact_factors, integrate_with, lane_groups


@dataclass(frozen=True)
class FidelityCurve:
    grid: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None

    def save(self, path) -> None:
        se = self.stderr if self.stderr is not None else np.zeros_like(self.values)
        with open(path, "w", newline="\n") as f:
            f.write("t,fidelity,stderr\n")
            f.writelines(map("{:.12g},{:.12g},{:.12g}\n".format,
                             self.grid.tolist(), self.values.tolist(), se.tolist()))


@dataclass(frozen=True)
class ThresholdResult:
    time: float
    threshold: float
    bracket: tuple[float, float]
    crossed: bool


def _combine(e2: np.ndarray, e1: np.ndarray, mu2: float | None) -> np.ndarray:
    if mu2 is None:
        return 0.5 + e2 / 6.0 + e1 / 3.0
    m = mu2
    return 1.0 - m - (m - 2.0 * m * m) * e2 + 2.0 * m * (1.0 - m) * e1


def fidelity_pure(traj: QTrajectory, init: InitialState) -> FidelityCurve:
    """Survival probability of the given pure state along one trajectory."""
    m = init.normalized().mu2
    e2 = traj.decay_factor()
    e1 = np.real(traj.coherence_factor())
    return FidelityCurve(traj.grid, _combine(e2, e1, m))


def fidelity_avg(traj: QTrajectory) -> FidelityCurve:
    """Fidelity averaged uniformly over all initial pure states."""
    e2 = traj.decay_factor()
    e1 = np.real(traj.coherence_factor())
    return FidelityCurve(traj.grid, _combine(e2, e1, None))


# ---------------------------------------------------------------------------
# ensembles over schedule randomness

@dataclass(frozen=True)
class EnsembleFactors:
    """Per-sample damping factors: rows are samples, columns grid times."""

    grid: np.ndarray
    e2: np.ndarray   # exp(-2 Re J), shape (n, len(grid))
    e1: np.ndarray   # Re exp(-J),   shape (n, len(grid))
    meta: dict | None = None  # unread: benchmark/workloads.py's replay still passes it

    @property
    def n(self) -> int:
        return self.e2.shape[0]

    def mean_curve(self, mu2: float | None = None) -> FidelityCurve:
        vals = _combine(self.e2, self.e1, mu2)
        if self.n == 1:
            mean = vals[0].copy()
            se = np.zeros_like(mean)
        else:
            mean = vals.mean(axis=0)
            se = vals.std(axis=0, ddof=1) / math.sqrt(self.n)
        return FidelityCurve(self.grid, mean, se)

    def sample_curves(self, mu2: float | None = None) -> np.ndarray:
        return _combine(self.e2, self.e1, mu2)


# A group runs this share of the grid past its own first all-below column.
# At N 60 and 200 (gamma 0.2, 0.5 and 0.9; tau, phi and delta deviations)
# the column all groups share lay at most 1.3% of the grid past any
# group's own, and a group that stops short has to run again.
STOP_MARGIN = 0.02


def _all_below(level: float, e2: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """Columns at which every row's state-averaged fidelity is below level."""
    return (_combine(e2, e1, None) < level).all(axis=0)


def _fill_group(system, pulses, sim, ks: range, e2: np.ndarray, e1: np.ndarray,
                level: float | None = None, min_col: int = 1) -> int:
    """Factor rows of samples ks into e2 and e1 (one row per sample); returns
    the number of filled columns.

    Each sample's train is generated once, to t_max. An exact group
    advances as lanes of one kernel call on whole tables; with a level, the
    call ends STOP_MARGIN of the grid past the first column from min_col on
    where every lane's state-averaged fidelity is below it. rk4, or a group
    in which any lane failed a check, runs the same trains one at a time in
    k order over the whole grid, so a BlowUpError names the first failing
    sample and the seed.
    """
    schedules = [generate_random(pulses, sim.t_max, RandomStream.for_schedule(sim.master_seed, k)) for k in ks]

    stop = None
    if level is not None:
        extra, seen, first = int(STOP_MARGIN * e2.shape[1]), min_col, None

        def stop(filled: int) -> bool:
            nonlocal seen, first
            if first is None and filled > seen:
                cols = np.flatnonzero(_all_below(level, e2[:, seen:filled], e1[:, seen:filled]))
                first = seen + int(cols[0]) if len(cols) else None
                seen = filled
            return first is not None and filled > first + extra

    if sim.integrator == "exact":
        try:
            return exact_factors(schedules, system, sim, e2, e1, list(ks), stop)
        except BlowUpError:
            pass
    for row, (k, schedule) in enumerate(zip(ks, schedules)):
        try:
            traj = integrate_with(schedule, system, sim, sample_index=k)
        except BlowUpError as exc:
            raise BlowUpError(exc.t, exc.magnitude, k, sim.master_seed) from exc
        e2[row] = traj.decay_factor()
        e1[row] = np.real(traj.coherence_factor())
    return e2.shape[1]


def _group_factors(args) -> tuple[np.ndarray, np.ndarray]:
    system, pulses, sim, ks, level, min_col = args
    e2 = np.empty((len(ks), sim.grid_size()))
    e1 = np.empty_like(e2)
    filled = _fill_group(system, pulses, sim, ks, e2, e1, level, min_col)
    return e2[:, :filled], e1[:, :filled]


def _decided_column(below: list[np.ndarray], width: int) -> tuple[int, list[int]]:
    """C, the first column from 1 on where every group's lanes are all below
    (width if none), and the groups that have filled neither C nor the grid.

    below[g] marks those columns among group g's filled ones; a column it has
    not reached may still be C.
    """
    every = np.arange(width) > 0
    for m in below:
        every[:len(m)] &= m
    col = int(np.argmax(every)) if every.any() else width
    return col, [g for g, m in enumerate(below) if len(m) <= col and len(m) < width]


# a point's factor rows, samples times grid points, checked before they are
# allocated; the largest default runs stack ~1e6
MAX_ENSEMBLE_CELLS = 2 * 10**7


class EnsembleRun:
    """One point's ensemble: start submits its first pass to a pool, finish
    collects or runs it, re-runs the groups that stopped short of C (all on
    whole tables) and stacks. n, its sample count, is 1 for a deviation-free
    point, else ensemble_n; n times the grid points above MAX_ENSEMBLE_CELLS
    is a ValidationError. pool_tasks, the first-pass tasks it hands a pool,
    is its lane groups when there are two or more, else 0 (a lone group
    runs in this process).
    """

    def __init__(self, system: SystemParams, pulses: PulseParams, sim: SimConfig, until: float | None = None):
        self.system, self.pulses, self.sim = system, pulses, sim
        self.n = n = 1 if pulses.is_regular else sim.ensemble_n
        cells = n * sim.grid_size()  # checked before anything is allocated
        if cells > MAX_ENSEMBLE_CELLS:
            raise ValidationError(errors.ENSEMBLE_TOO_LARGE,
                                  f"ensemble_n x output samples = {cells}, limit {MAX_ENSEMBLE_CELLS}")
        # Rounded addition and division are monotone, and each rounding is within a
        # factor (1 +- eps), so a float mean of n values each <= b is at most
        # b (1 + eps)^n and one of n values each >= a is at least a (1 - eps)^n
        # (n - 1 additions and a division). So a mean of n values below
        # theta (1 - 2 n eps) stays below theta, and one of n values at or above
        # theta (1 + 2 n eps) stays at or above theta (bootstrap_threshold_ci).
        self.level = None if until is None else until * (1.0 - 2.0 * n * np.finfo(float).eps)
        self.groups = lane_groups(n, system, pulses, sim)
        self.pool_tasks = len(self.groups) if len(self.groups) > 1 else 0
        self.futures: list = []

    def start(self, executor: ProcessPoolExecutor | None = None) -> EnsembleRun:
        """Submit the first pass, one task per lane group, to executor when
        one is given and the point has pool tasks."""
        if executor is not None and self.pool_tasks:
            self.futures = [executor.submit(_group_factors, (self.system, self.pulses, self.sim, ks, self.level, 1))
                            for ks in self.groups]
        return self

    def finish(self) -> EnsembleFactors:
        """Collect or run the first pass in group order, run the groups that
        stopped short of C again here, and stack the factors (see
        ensemble_functionals)."""
        system, pulses, sim, level = self.system, self.pulses, self.sim, self.level
        grid = sim.output_grid()
        e2 = np.empty((self.n, len(grid)))
        e1 = np.empty_like(e2)
        filled, short, col = [0] * len(self.groups), range(len(self.groups)), 1
        while short:  # every group (min_col 1), then the groups that stopped short of C
            for g in short:
                ks = self.groups[g]
                if self.futures:  # the first pass, from the pool
                    a, b = self.futures.pop(0).result()  # a Future keeps its result alive
                    filled[g] = a.shape[1]
                    e2[ks.start:ks.stop, :filled[g]], e1[ks.start:ks.stop, :filled[g]] = a, b
                    del a, b
                else:
                    filled[g] = _fill_group(system, pulses, sim, ks, e2[ks.start:ks.stop], e1[ks.start:ks.stop],
                                            level, col)
            if level is None:
                col = len(grid)
                break
            below = [_all_below(level, e2[ks.start:ks.stop, :f], e1[ks.start:ks.stop, :f])
                     for ks, f in zip(self.groups, filled)]
            col, short = _decided_column(below, len(grid))
        return EnsembleFactors(grid[:col + 1], e2[:, :col + 1], e1[:, :col + 1])


def ensemble_functionals(
    system: SystemParams,
    pulses: PulseParams,
    sim: SimConfig,
    *,
    executor: ProcessPoolExecutor | None = None,
    until: float | None = None,
) -> EnsembleFactors:
    """Integrate one trajectory per sample stream and stack the factors.

    Sample k uses schedule stream (master_seed, k); the stack is ordered by
    k regardless of how many workers ran. Samples run in lane groups
    (riccati.lane_groups); a pool takes the first pass of whole groups when
    there are two or more, and a lone group runs in this process. A
    deviation-free configuration is one sample (any sample is the regular
    train). This is EnsembleRun(...).start(executor).finish(); a caller may
    start several points before finishing the first.

    With until = theta the factors end at the first grid column C at which
    every sample's state-averaged fidelity is below theta (with room for
    the rounding of a mean of n samples). The mean curve, every bootstrap
    resample mean and every sample then cross theta first at or before C,
    so their threshold times are those of the whole grid. Each group runs
    on whole tables to STOP_MARGIN of the grid past its own first such
    column. A group that stopped before C is run again in this process
    from the start with min_col = C, which gives the same bits; columns no
    group has reached may still be C. Without such a C each group runs once.
    """
    return EnsembleRun(system, pulses, sim, until).start(executor).finish()


# ---------------------------------------------------------------------------
# threshold crossing

def threshold_time(curve: FidelityCurve, theta: float) -> ThresholdResult:
    """First grid bracket with values straddling theta, linearly interpolated.

    Damped oscillations may re-cross later; the first passage defines the
    survival time. Returns crossed=False with time at the grid end if the
    curve never drops below theta.
    """
    v = np.asarray(curve.values)
    if not v[0] > theta:
        raise ValidationError(
            errors.CURVE_BELOW_THRESHOLD, f"values[0] = {v[0]} <= theta = {theta}"
        )
    return _first_crossing(np.asarray(curve.grid), v, theta)


def _first_crossing(g: np.ndarray, v: np.ndarray, theta: float) -> ThresholdResult:
    hits = np.nonzero((v[:-1] >= theta) & (v[1:] < theta))[0]
    if len(hits) == 0:
        return ThresholdResult(float(g[-1]), theta, (float(g[-1]), float(g[-1])), False)
    i = int(hits[0])
    frac = (v[i] - theta) / (v[i] - v[i + 1])
    t = g[i] + frac * (g[i + 1] - g[i])
    return ThresholdResult(float(t), theta, (float(g[i]), float(g[i + 1])), True)


def mean_crossing_time(factors: EnsembleFactors, theta: float) -> float:
    """Mean of per-sample first-crossing times of F_avg (sensitivity alternative
    to crossing the mean curve; samples that never cross count at the horizon)."""
    curves = factors.sample_curves()
    return float(np.mean([_first_crossing(factors.grid, row, theta).time for row in curves]))


def bootstrap_threshold_ci(
    factors: EnsembleFactors,
    theta: float,
    stream: RandomStream,
    n_boot: int,
) -> tuple[float, float]:
    """95% percentile bootstrap CI for the state-averaged mean-curve crossing time.

    Resamples whole sample curves with replacement; horizon-censored
    draws enter at the grid end, so the interval is conservative there.
    """
    curves = factors.sample_curves()
    n = curves.shape[0]
    rng = stream.generator()
    idx = rng.integers(0, n, size=(n_boot, n))
    # before j0, the first column where some sample is below theta (1 + 2 n eps),
    # every resample mean is at or above theta (see the level in
    # ensemble_functionals), so no bracket starts before j0 - 1; each column's
    # mean is the same sum however many columns are taken
    dips = (curves < theta * (1.0 + 2.0 * n * np.finfo(float).eps)).any(axis=0)
    j = max((int(np.argmax(dips)) if dips.any() else len(factors.grid)) - 1, 0)
    curves, grid = curves[:, j:], factors.grid[j:]
    ts = np.empty(n_boot)
    for b in range(n_boot):
        mean = curves[idx[b]].mean(axis=0)
        ts[b] = _first_crossing(grid, mean, theta).time
    alpha = 0.5 * (1.0 - 0.95)
    return float(np.quantile(ts, alpha)), float(np.quantile(ts, 1.0 - alpha))
