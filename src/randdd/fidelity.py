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
from typing import Optional

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
    stderr: Optional[np.ndarray] = None
    meta: dict = None

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
    return FidelityCurve(traj.grid, _combine(e2, e1, m), None, {"kind": "pure", "mu2": m})


def fidelity_avg(traj: QTrajectory) -> FidelityCurve:
    """Fidelity averaged uniformly over all initial pure states."""
    e2 = traj.decay_factor()
    e1 = np.real(traj.coherence_factor())
    return FidelityCurve(traj.grid, _combine(e2, e1, None), None, {"kind": "state-averaged"})


# ---------------------------------------------------------------------------
# ensembles over schedule randomness

@dataclass(frozen=True)
class EnsembleFactors:
    """Per-sample damping factors: rows are samples, columns grid times."""

    grid: np.ndarray
    e2: np.ndarray   # exp(-2 Re J), shape (n, len(grid))
    e1: np.ndarray   # Re exp(-J),   shape (n, len(grid))
    meta: dict

    @property
    def n(self) -> int:
        return self.e2.shape[0]

    def mean_curve(self, mu2: float | None = None) -> FidelityCurve:
        vals = _combine(self.e2, self.e1, mu2)
        if self.n == 1 or self.meta.get("degenerate"):
            mean = vals[0].copy()
            se = np.zeros_like(mean)
        else:
            mean = vals.mean(axis=0)
            se = vals.std(axis=0, ddof=1) / math.sqrt(self.n)
        meta = dict(self.meta)
        meta["kind"] = "state-averaged" if mu2 is None else "pure"
        if mu2 is not None:
            meta["mu2"] = mu2
        return FidelityCurve(self.grid, mean, se, meta)

    def sample_curves(self, mu2: float | None = None) -> np.ndarray:
        return _combine(self.e2, self.e1, mu2)


def _fill_group(system, pulses, sim, ks: range, e2: np.ndarray, e1: np.ndarray) -> None:
    """Factor rows of samples ks into e2 and e1 (one row per sample).

    An exact group advances as lanes of one kernel call. rk4, a lone sample,
    or a group in which any lane failed a check runs one sample at a time in
    k order, so a BlowUpError names the first failing sample and the seed.
    """
    def schedules():
        return (generate_random(pulses, sim.t_max, RandomStream.for_schedule(sim.master_seed, k)) for k in ks)

    if sim.integrator == "exact" and len(ks) > 1:
        try:
            exact_factors(schedules(), system, sim, e2, e1, list(ks))
            return
        except BlowUpError:
            pass
    for row, (k, schedule) in enumerate(zip(ks, schedules())):
        try:
            traj = integrate_with(schedule, system, sim, sample_index=k)
        except BlowUpError as exc:
            raise BlowUpError(exc.t, exc.magnitude, k, sim.master_seed) from exc
        e2[row] = traj.decay_factor()
        e1[row] = np.real(traj.coherence_factor())


def _group_factors(args) -> tuple[np.ndarray, np.ndarray]:
    system, pulses, sim, ks = args
    e2 = np.empty((len(ks), sim.grid_size()))
    e1 = np.empty_like(e2)
    _fill_group(system, pulses, sim, ks, e2, e1)
    return e2, e1


def ensemble_functionals(
    system: SystemParams,
    pulses: PulseParams,
    sim: SimConfig,
    *,
    workers: int = 1,
    executor: ProcessPoolExecutor | None = None,
) -> EnsembleFactors:
    """Integrate one trajectory per sample stream and stack the factors.

    Sample k uses schedule stream (master_seed, k); the stack is ordered by
    k regardless of how many workers ran. Samples run in lane groups
    (riccati.lane_groups); a pool maps whole groups. A deviation-free
    configuration is integrated once and replicated (every sample would be
    identical).
    """
    grid = sim.output_grid()
    n = sim.ensemble_n
    meta = {
        "ensemble_n": n,
        "master_seed": sim.master_seed,
        "integrator": sim.integrator,
    }
    degenerate = pulses.d_tau == 0.0 and pulses.d_delta == 0.0 and pulses.d_phi == 0.0
    if not degenerate and executor is None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return ensemble_functionals(system, pulses, sim, executor=pool)
    e2 = np.empty((n, len(grid)))
    e1 = np.empty_like(e2)
    if degenerate:
        _fill_group(system, pulses, sim, range(1), e2[:1], e1[:1])
        e2[1:] = e2[0]
        e1[1:] = e1[0]
        return EnsembleFactors(grid, e2, e1, {**meta, "degenerate": True})
    groups = lane_groups(n, system, pulses, sim)
    if executor is not None:
        tasks = [(system, pulses, sim, ks) for ks in groups]
        for ks, (a, b) in zip(groups, executor.map(_group_factors, tasks)):
            e2[ks.start:ks.stop] = a
            e1[ks.start:ks.stop] = b
    else:
        for ks in groups:
            _fill_group(system, pulses, sim, ks, e2[ks.start:ks.stop], e1[ks.start:ks.stop])
    return EnsembleFactors(grid, e2, e1, meta)


def ensemble_mean(
    system: SystemParams,
    pulses: PulseParams,
    sim: SimConfig,
    *,
    mu2: float | None = None,
    workers: int = 1,
    executor: ProcessPoolExecutor | None = None,
) -> FidelityCurve:
    """Pointwise mean (and standard error) of the per-sample fidelity."""
    factors = ensemble_functionals(system, pulses, sim, workers=workers, executor=executor)
    return factors.mean_curve(mu2)


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


def mean_crossing_time(factors: EnsembleFactors, theta: float, mu2: float | None = None) -> float:
    """Mean of per-sample first-crossing times (sensitivity alternative to
    crossing the mean curve; samples that never cross count at the horizon)."""
    curves = factors.sample_curves(mu2)
    return float(np.mean([_first_crossing(factors.grid, row, theta).time for row in curves]))


def bootstrap_threshold_ci(
    factors: EnsembleFactors,
    theta: float,
    stream: RandomStream,
    n_boot: int = 200,
    mu2: float | None = None,
    level: float = 0.95,
) -> tuple[float, float]:
    """Percentile bootstrap CI for the mean-curve crossing time.

    Resamples whole sample curves with replacement; horizon-censored
    draws enter at the grid end, so the interval is conservative there.
    """
    curves = factors.sample_curves(mu2)
    n = curves.shape[0]
    rng = stream.generator()
    idx = rng.integers(0, n, size=(n_boot, n))
    ts = np.empty(n_boot)
    for b in range(n_boot):
        mean = curves[idx[b]].mean(axis=0)
        ts[b] = _first_crossing(factors.grid, mean, theta).time
    alpha = 0.5 * (1.0 - level)
    return float(np.quantile(ts, alpha)), float(np.quantile(ts, 1.0 - alpha))
