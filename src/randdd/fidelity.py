"""Fidelity curves, schedule-randomness ensembles, and threshold times.

For the dissipative qubit the survival probability of mu|1> + nu|0> is

    F(t) = 1 - m - (m - 2 m^2) e2(t) + 2 m (1 - m) e1(t),       m = |mu|^2,

with e2 = exp(-2 int Re Q) = |u|^2 and e1 = Re exp(-int Q) = Re u, read
from u = exp(-J); averaging m uniformly over pure states (E[m] = 1/2,
E[m^2] = 1/3) gives

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
from .model import MAX_ENSEMBLE_CELLS, InitialState, PulseParams, SimConfig, SystemParams
from .pulsegen import RandomStream, generate_random
from .riccati import QTrajectory, exact_factors, integrate_with, lane_groups


CELL_FORMAT = "%.12g"  # every number cell of the CSVs


@dataclass(frozen=True)
class FidelityCurve:
    grid: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None

    def save(self, path) -> None:
        se = self.stderr if self.stderr is not None else np.zeros_like(self.values)
        with open(path, "w", newline="\n") as f:
            f.write("t,fidelity,stderr\n")
            f.writelines(map(f"{CELL_FORMAT},{CELL_FORMAT},{CELL_FORMAT}\n".__mod__,
                             zip(self.grid.tolist(), self.values.tolist(), se.tolist())))


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
    e2: np.ndarray   # exp(-2 Re J) = |u|^2, shape (n, len(grid))
    e1: np.ndarray   # Re exp(-J) = Re u,   shape (n, len(grid))
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

    def sample_curves(self) -> np.ndarray:
        """Each sample's state-averaged fidelity, one row per sample."""
        return _combine(self.e2, self.e1, None)


# A group runs this share of the grid past its own first all-below column.
# At N 60 and 200 (gamma 0.2, 0.5 and 0.9; tau, phi and delta deviations)
# the column all groups share lay at most 1.3% of the grid past any
# group's own, and a group that stops short has to run again.
STOP_MARGIN = 0.02


def _all_below(level: float, e2: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """Columns at which every row's state-averaged fidelity is below level."""
    return (_combine(e2, e1, None) < level).all(axis=0)


def _fill_group(system, pulses, sim, ks: range, level: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The factor block (e2, e1) of samples ks, one row per sample, cut to
    the columns filled.

    Each sample's train is generated once, to t_max. An exact group
    advances as lanes of one kernel call on whole tables, over the whole
    grid or, with a level, to STOP_MARGIN of the grid past the first column
    from 1 on where every lane's state-averaged fidelity is below it. rk4,
    or a group in which any lane failed a check, runs the same trains one
    at a time in k order over the whole grid. The kernel's BlowUpError names no sample;
    this is the one place that puts one on it: the first failing sample,
    with the seed. A pool runs this as its task and sends the block back.
    """
    schedules = [generate_random(pulses, sim.t_max, RandomStream.for_schedule(sim.master_seed, k)) for k in ks]
    e2 = np.empty((len(ks), sim.grid_size()))
    e1 = np.empty_like(e2)

    stop = None
    if level is not None:
        extra, seen, first = int(STOP_MARGIN * e2.shape[1]), 1, None

        def stop(filled: int) -> bool:
            nonlocal seen, first
            if first is None and filled > seen:
                cols = np.flatnonzero(_all_below(level, e2[:, seen:filled], e1[:, seen:filled]))
                first = seen + int(cols[0]) if len(cols) else None
                seen = filled
            return first is not None and filled > first + extra

    if sim.integrator == "exact":
        try:
            filled = exact_factors(schedules, system, sim, e2, e1, stop)
            return e2[:, :filled], e1[:, :filled]
        except BlowUpError:
            pass
    for row, (k, schedule) in enumerate(zip(ks, schedules)):
        try:
            traj = integrate_with(schedule, system, sim)
        except BlowUpError as exc:
            raise BlowUpError(exc.t, exc.magnitude, k, sim.master_seed) from exc
        e2[row] = traj.decay_factor()
        e1[row] = np.real(traj.coherence_factor())
    return e2, e1


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


def _mean_margin(n: int) -> float:
    """2 n eps, the room for rounding in a float mean of n values. Rounded addition and
    division are monotone and within a factor (1 +- eps), so with n - 1 additions and a
    division a mean of values <= b is at most b (1 + eps)^n, one of values >= a at least
    a (1 - eps)^n: values below theta (1 - 2 n eps) average below theta (EnsembleRun's
    level), values at or above theta (1 + 2 n eps) at or above it (bootstrap_threshold_ci)."""
    return 2.0 * n * np.finfo(float).eps


class EnsembleRun:
    """One point's ensemble: start submits its first pass to a pool, finish
    collects or runs it, runs the groups that stopped short of C once more
    over the whole grid and joins the groups' blocks. A group's block is
    what _fill_group returns for it, from a pool task or a run in this
    process alike; a re-run replaces it. n, its sample count, is 1 for a
    deviation-free point, else ensemble_n; n times the grid points above
    MAX_ENSEMBLE_CELLS is a ValidationError. pool_tasks, the first-pass
    tasks it hands a pool, is its lane groups when there are two or more,
    else 0 (a lone group runs in this process).
    """

    def __init__(self, system: SystemParams, pulses: PulseParams, sim: SimConfig, until: float | None = None):
        self.system, self.pulses, self.sim = system, pulses, sim
        self.n = n = 1 if pulses.is_regular else sim.ensemble_n
        cells = n * sim.grid_size()  # checked before anything is allocated
        if cells > MAX_ENSEMBLE_CELLS:
            raise ValidationError(errors.ENSEMBLE_TOO_LARGE,
                                  f"ensemble_n x output samples = {cells}, limit {MAX_ENSEMBLE_CELLS}")
        self.level = None if until is None else until * (1.0 - _mean_margin(n))
        self.groups = lane_groups(n, system, pulses, sim)
        self.pool_tasks = len(self.groups) if len(self.groups) > 1 else 0
        self.futures: list = []

    def start(self, executor: ProcessPoolExecutor | None = None) -> EnsembleRun:
        """Submit the first pass, one task per lane group, to executor when
        one is given and the point has pool tasks."""
        if executor is not None and self.pool_tasks:
            self.futures = [executor.submit(_fill_group, self.system, self.pulses, self.sim, ks, self.level)
                            for ks in self.groups]
        return self

    def finish(self) -> EnsembleFactors:
        """Take the first pass (the pool's blocks or runs here, in group
        order), run each group short of C here once more with no level, over
        the whole grid, and join the blocks cut at C (see ensemble_functionals)."""
        system, pulses, sim, level = self.system, self.pulses, self.sim, self.level
        grid = sim.output_grid()
        blocks = ([f.result() for f in self.futures] if self.futures
                  else [_fill_group(system, pulses, sim, ks, level) for ks in self.groups])
        self.futures = []  # each Future would keep its result alive
        col = len(grid)
        while level is not None:
            col, short = _decided_column([_all_below(level, e2, e1) for e2, e1 in blocks], len(grid))
            if not short:
                break
            for g in short:  # a whole-grid block is never short: a group runs at most twice
                blocks[g] = _fill_group(system, pulses, sim, self.groups[g])
        cut = slice(col + 1)
        e2 = np.concatenate([e2[:, cut] for e2, _ in blocks])
        blocks = [e1 for _, e1 in blocks]  # frees the e2 blocks before the e1 rows are joined
        return EnsembleFactors(grid[cut], e2, np.concatenate([e1[:, cut] for e1 in blocks]))


def ensemble_functionals(
    system: SystemParams,
    pulses: PulseParams,
    sim: SimConfig,
    *,
    until: float | None = None,
) -> EnsembleFactors:
    """Integrate one trajectory per sample stream and stack the factors.

    Sample k uses schedule stream (master_seed, k); the stack is ordered by
    k. Samples run in lane groups (riccati.lane_groups), each returning its
    factor block (_fill_group), joined once in group order, all in this
    process. A deviation-free configuration is one sample (any sample is
    the regular train). A caller with a pool uses
    EnsembleRun(...).start(pool).finish(), and may start several points
    before finishing the first.

    With until = theta the factors end at the first grid column C at which
    every sample's state-averaged fidelity is below theta (with room for
    the rounding of a mean of n samples). The mean curve, every bootstrap
    resample mean and every sample then cross theta first at or before C,
    so their threshold times are those of the whole grid. Each group runs
    on whole tables to STOP_MARGIN of the grid past its own first such
    column. A group that stopped before C runs again, once, in this process
    over the whole grid, which gives the same bits; columns no group has
    reached may still be C. Without such a C each group runs once.
    """
    return EnsembleRun(system, pulses, sim, until).start().finish()


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
    # every resample mean is at or above theta (see _mean_margin), so no
    # bracket starts before j0 - 1; each column's mean is the same sum however
    # many columns are taken
    dips = (curves < theta * (1.0 + _mean_margin(n))).any(axis=0)
    j = max((int(np.argmax(dips)) if dips.any() else len(factors.grid)) - 1, 0)
    curves, grid = curves[:, j:], factors.grid[j:]
    ts = np.empty(n_boot)
    for b in range(n_boot):
        mean = curves[idx[b]].mean(axis=0)
        ts[b] = _first_crossing(grid, mean, theta).time
    alpha = 0.5 * (1.0 - 0.95)
    return float(np.quantile(ts, alpha)), float(np.quantile(ts, 1.0 - alpha))
