"""The benchmark's workloads: CLI calls, output checks and traced replays.

Each workload is a fixed list of `randdd` CLI calls. The benchmark seed
only becomes the calls' `--seed` (the master seed of every random
stream), so the amount of work does not depend on it. The replay of a
workload rebuilds the same points from the package's public functions,
with a span around each call into a layer; its values must equal the
CSV values the CLI wrote.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from randdd.errors import BlowUpError
from randdd.expcli import N_BOOT, fmt
from randdd.fidelity import (
    EnsembleFactors,
    bootstrap_threshold_ci,
    fidelity_avg,
    threshold_time,
)
from randdd.model import InitialState, PulseParams, SimConfig, SystemParams, validate
from randdd.oracle import closed_form_barQ, compare_frames, pseudomode_evolve
from randdd.pulsegen import (
    RandomStream,
    empty_schedule,
    generate_random,
    generate_regular,
    load_schedule,
    save_schedule,
    segment_table,
)
from randdd.riccati import integrate, integrate_exact

from tracing import Tracer

DEFAULT_SEED = 12345
TAU = 0.02          # default mean quasi-period of expcli.build_bundle
THRESHOLD = 0.95    # default sim.threshold

SWEEP_GAMMAS = (0.2, 0.9)
SWEEP_RATIOS = (0.0, 0.25, 0.5)
SWEEP_N = 60
CURVES_N = 40
CURVES_GAMMA = 0.3
CURVE_MU2S = tuple(float(m) for m in np.round(np.arange(0.1, 0.9 + 1e-9, 0.1), 10))
DELTA_RATIOS = (0.3, 0.4, 0.5, 0.75)
DELTATAU_COMBOS = ((0.2, 0.0), (0.0, 0.2), (0.2, 0.2))
THRESHOLD_GAMMAS = (0.2, 0.5, 0.9)
ORACLE_STEP = 1e-4


def master_seed(seed: int) -> int:
    return seed % 2**64


def sweep_tmax(gamma: float) -> float:
    """The CLI's sweep and threshold horizon for one gamma."""
    return round(18.0 / gamma, 6)


# ---------------------------------------------------------------------------
# CLI calls

def _sweep_calls(seed: int, out: Path):
    argv = ["sweep", "--param", "tau", "--gammas", ",".join(map(str, SWEEP_GAMMAS)),
            "--grid", "0:0.5:0.25", "--ensemble", str(SWEEP_N),
            "--seed", str(master_seed(seed)), "--out", str(out / "sweep")]
    return [("sweep", argv)]


def _curves_calls(seed: int, out: Path):
    return [(f"curves-{family}",
             ["curves", "--family", family, "--ensemble", str(CURVES_N),
              "--seed", str(master_seed(seed)), "--out", str(out / f"curves-{family}")])
            for family in ("deltatau", "mu", "delta")]


def _single_calls(seed: int, out: Path):
    s = ["--seed", str(master_seed(seed))]
    return [
        ("oracle", ["oracle-check", *s, "--out", str(out / "oracle")]),
        ("nocontrol", ["threshold", "--no-control", *s, "--out", str(out / "nocontrol")]),
        ("regular", ["threshold", "--regular", *s, "--out", str(out / "regular")]),
        ("run", ["run", "--regular", "--tmax", "90", "--dump-traj", "--save-schedule", *s,
                 "--out", str(out / "run")]),
        ("replay", ["run", "--replay", str(out / "run" / "schedule.csv"), "--tmax", "90", *s,
                    "--out", str(out / "replay")]),
    ]


# ---------------------------------------------------------------------------
# replay helpers: one span per call into a layer

def _bundle(tr: Tracer, point: str, *, gamma: float, delta: float = 0.008, d_tau: float = 0.0,
            d_delta: float = 0.0, allow_overlap: bool = False, init=None, **sim):
    with tr.span("model.validate", point):
        return validate(SystemParams(1.0, 1.0, gamma), PulseParams(TAU, delta, 0.2, d_tau, d_delta),
                        SimConfig(**sim), init, allow_overlap=allow_overlap)


def _cut_points(schedule, sim: SimConfig) -> np.ndarray:
    """Breakpoints on [0, t_max], cut as the integrators cut them."""
    pts, _ = segment_table(schedule, extra_times=sim.output_grid())
    return pts[pts <= sim.t_max + 1e-12 * max(1.0, sim.t_max)]


def _steps(pts: np.ndarray, step: float) -> int:
    """Fixed-step count of the edge-aligned RK4 loops over these breakpoints."""
    return int(np.maximum(1, np.ceil(np.diff(pts) / step * (1.0 - 1e-12))).sum())


def _generate(tr: Tracer, point: str, fn, *args):
    with tr.span("pulsegen.generate", point):
        schedule = fn(*args)
    p = schedule.pulses
    tr.count("pulsegen.pulses", len(p))
    # a width cut to the realized gap ends exactly where the next pulse starts
    tr.count("pulsegen.clamped_widths", sum(1 for a, b in zip(p, p[1:]) if a.end >= b.start))
    return schedule


def _trajectory(tr: Tracer, point: str, schedule, system, sim, *, rk4: bool = False):
    with tr.span("pulsegen.segment_table", point):
        pts = _cut_points(schedule, sim)
    tr.count("pulsegen.segments", len(pts) - 1)
    tr.count("riccati.trajectories")
    try:
        if rk4:
            tr.count("riccati.rk4_steps", _steps(pts, sim.step))
            with tr.span("riccati.rk4", point):
                return integrate(schedule, system, sim)
        with tr.span("riccati.exact", point):
            return integrate_exact(schedule, system, sim)
    except BlowUpError:
        tr.count("riccati.blowups")
        raise


def _single_curve(tr: Tracer, point: str, schedule, b):
    traj = _trajectory(tr, point, schedule, b.system, b.sim, rk4=b.sim.integrator == "rk4")
    with tr.span("fidelity.reduce", point):
        curve = fidelity_avg(traj)
        res = threshold_time(curve, THRESHOLD)
    tr.count("fidelity.points")
    return curve, res


def _ensemble(tr: Tracer, point: str, b) -> EnsembleFactors:
    """The factor stacks of fidelity.ensemble_functionals, sample by sample."""
    system, pulses, sim = b.system, b.pulses, b.sim
    degenerate = pulses.d_tau == 0.0 and pulses.d_delta == 0.0 and pulses.d_phi == 0.0
    rows = []
    for k in range(1 if degenerate else sim.ensemble_n):
        pk = f"{point}/k{k}"
        schedule = _generate(tr, pk, generate_random, pulses, sim.t_max,
                             RandomStream.for_schedule(sim.master_seed, k))
        traj = _trajectory(tr, pk, schedule, system, sim, rk4=sim.integrator == "rk4")
        with tr.span("fidelity.reduce", pk):
            rows.append((traj.decay_factor(), np.real(traj.coherence_factor())))
    with tr.span("fidelity.reduce", point):
        e2 = np.vstack([r[0] for r in rows])
        e1 = np.vstack([r[1] for r in rows])
        if degenerate:
            e2 = np.tile(e2[0], (sim.ensemble_n, 1))
            e1 = np.tile(e1[0], (sim.ensemble_n, 1))
    tr.peak("fidelity.factor_bytes", e2.nbytes + e1.nbytes)
    return EnsembleFactors(sim.output_grid(), e2, e1, {"degenerate": degenerate})


def _mean_curve(tr: Tracer, point: str, factors: EnsembleFactors, mu2=None):
    with tr.span("fidelity.reduce", point):
        curve = factors.mean_curve(mu2)
        res = threshold_time(curve, THRESHOLD)
    tr.count("fidelity.points")
    return curve, res


def _bootstrap(tr: Tracer, point: str, factors, master: int, index: int):
    with tr.span("fidelity.bootstrap", point):
        return bootstrap_threshold_ci(factors, THRESHOLD, RandomStream.for_bootstrap(master, index), N_BOOT)


def _row(*cells) -> list[str]:
    return [c if isinstance(c, str) else fmt(c) for c in cells]


def _curve_rows(curve) -> list[list[str]]:
    se = curve.stderr if curve.stderr is not None else np.zeros_like(curve.values)
    return [[f"{t:.12g}", f"{v:.12g}", f"{s:.12g}"] for t, v, s in zip(curve.grid, curve.values, se)]


# ---------------------------------------------------------------------------
# replays: {output path relative to the pass directory: expected data rows}

def _replay_sweep(tr: Tracer, seed: int, work: Path) -> dict:
    rows = []
    master = master_seed(seed)
    for gi, gamma in enumerate(SWEEP_GAMMAS):
        for ri, ratio in enumerate(SWEEP_RATIOS):
            point = f"g{gamma}/r{ratio}"
            b = _bundle(tr, point, gamma=gamma, d_tau=ratio * abs(TAU), t_max=sweep_tmax(gamma),
                        grid_dt=0.02, ensemble_n=SWEEP_N, master_seed=master)
            factors = _ensemble(tr, point, b)
            _, res = _mean_curve(tr, point, factors)
            lo = hi = res.time
            if b.pulses.d_tau:
                lo, hi = _bootstrap(tr, point, factors, master, gi * 10_000 + ri)
            rows.append(_row("sweep-tau", gamma, ratio, res.time, res.crossed, lo, hi))
    return {"sweep/sweep_tau.csv": rows}


def _replay_curves(tr: Tracer, seed: int, work: Path) -> dict:
    out = {}
    common = dict(gamma=CURVES_GAMMA, ensemble_n=CURVES_N, master_seed=master_seed(seed))

    b = _bundle(tr, "deltatau/regular", **common)
    curve, _ = _single_curve(tr, "deltatau/regular", _generate(
        tr, "deltatau/regular", generate_regular, b.pulses, b.sim.t_max), b)
    out["curves-deltatau/curves_deltatau_regular.csv"] = _curve_rows(curve)
    for dd, dt in DELTATAU_COMBOS:
        point = f"deltatau/dd{dd}_dt{dt}"
        b = _bundle(tr, point, d_delta=dd * TAU, d_tau=dt * TAU, **common)
        curve, _ = _mean_curve(tr, point, _ensemble(tr, point, b))
        out[f"curves-deltatau/curves_deltatau_dd{dd}_dt{dt}.csv"] = _curve_rows(curve)

    b = _bundle(tr, "mu", d_delta=0.2 * TAU, d_tau=0.2 * TAU, **common)
    factors = _ensemble(tr, "mu", b)
    for m2 in CURVE_MU2S:
        curve, _ = _mean_curve(tr, f"mu/{m2}", factors, m2)
        out[f"curves-mu/curves_mu_{m2}.csv"] = _curve_rows(curve)

    for ratio in DELTA_RATIOS:
        point = f"delta/r{ratio}"
        b = _bundle(tr, f"{point}/regular", delta=ratio * TAU, **common)
        curve, _ = _single_curve(tr, f"{point}/regular", _generate(
            tr, f"{point}/regular", generate_regular, b.pulses, b.sim.t_max), b)
        out[f"curves-delta/curves_delta_r{ratio}_regular.csv"] = _curve_rows(curve)
        b = _bundle(tr, f"{point}/random", delta=ratio * TAU, d_delta=0.2 * TAU, d_tau=0.2 * TAU,
                    allow_overlap=True, **common)
        curve, _ = _mean_curve(tr, f"{point}/random", _ensemble(tr, f"{point}/random", b))
        out[f"curves-delta/curves_delta_r{ratio}_random.csv"] = _curve_rows(curve)
    return out


def _replay_oracle(tr: Tracer, seed: int) -> dict:
    """oracle.run_oracle_check, step by step."""
    master = master_seed(seed)
    nc = _bundle(tr, "oracle/nocontrol", gamma=0.2, t_max=10.0, step=ORACLE_STEP, grid_dt=0.01,
                 ensemble_n=1, master_seed=master)
    traj = _trajectory(tr, "oracle/nocontrol", empty_schedule(10.0), nc.system, nc.sim, rk4=True)
    report = {"max_nocontrol_dev": float(np.max(np.abs(np.exp(-traj.j) - closed_form_barQ(nc.system, traj.grid))))}

    init = InitialState.from_population(0.6, rel_phase=0.3)
    b = _bundle(tr, "oracle/pulsed", gamma=0.3, init=init, t_max=3.0, step=ORACLE_STEP, grid_dt=0.01,
                ensemble_n=1, master_seed=master, integrator="rk4")
    schedule = _generate(tr, "oracle/pulsed", generate_regular, b.pulses, b.sim.t_max)
    traj = _trajectory(tr, "oracle/pulsed", schedule, b.system, b.sim, rk4=True)
    tr.count("oracle.pseudomode_steps", _steps(_cut_points(schedule, b.sim), b.sim.step))
    with tr.span("oracle.pseudomode", "oracle/pulsed"):
        pm = pseudomode_evolve(schedule, b.system, init, b.sim)
    report["max_pop_dev"] = float(np.max(np.abs(pm.qubit_population() - init.mu2 * traj.decay_factor())))
    coh = init.mu * np.conj(init.nu) * traj.coherence_factor()
    report.update(compare_frames(traj.grid, coh, pm.qubit_coherence(), schedule, b.system))
    return report


def _replay_single(tr: Tracer, seed: int, work: Path) -> dict:
    master = master_seed(seed)
    out = {"oracle/oracle_report.json": _replay_oracle(tr, seed)}

    rows = []
    for gamma in THRESHOLD_GAMMAS:
        point = f"nocontrol/g{gamma}"
        b = _bundle(tr, point, gamma=gamma, t_max=3.0, grid_dt=0.002, master_seed=master)
        _, res = _single_curve(tr, point, empty_schedule(b.sim.t_max), b)
        rows.append(_row("nocontrol", gamma, 0.0, res.time, res.crossed, None, None))
    out["nocontrol/baseline_nocontrol.csv"] = rows

    rows = []
    for gamma in THRESHOLD_GAMMAS:
        point = f"regular/g{gamma}"
        b = _bundle(tr, point, gamma=gamma, t_max=sweep_tmax(gamma), master_seed=master)
        schedule = _generate(tr, point, generate_regular, b.pulses, b.sim.t_max)
        _, res = _single_curve(tr, point, schedule, b)
        rows.append(_row("regular", gamma, 0.0, res.time, res.crossed, None, None))
    out["regular/threshold_regular.csv"] = rows

    b = _bundle(tr, "run", gamma=0.2, t_max=90.0, master_seed=master)
    schedule = _generate(tr, "run", generate_regular, b.pulses, b.sim.t_max)
    curve, _ = _single_curve(tr, "run", schedule, b)
    out["run/curve.csv"] = _curve_rows(curve)

    path = work / "schedule.csv"
    with tr.span("pulsegen.io", "replay"):
        save_schedule(schedule, path)
        loaded = load_schedule(path, horizon=b.sim.t_max)
    tr.count("pulsegen.io_bytes", 2 * path.stat().st_size)  # written, then read back
    curve, _ = _single_curve(tr, "replay", loaded, b)
    out["replay/curve.csv"] = _curve_rows(curve)
    return out


# ---------------------------------------------------------------------------
# output checks

REL_TOL = 1e-9
ABS_TOL = 1e-12
ORACLE_BOUND = 1e-6


def _close_lines(got: str, want: str) -> bool:
    a, b = got.split(","), want.split(",")
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            if not math.isclose(float(x), float(y), rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return False
        except ValueError:
            return False
    return True


def regular_sweep_times() -> dict[float, float]:
    """T of the deviation-free train at each sweep gamma, from the public
    functions; the ratio-0 sweep rows must reproduce it for any seed."""
    out = {}
    for gamma in SWEEP_GAMMAS:
        system = SystemParams(1.0, 1.0, gamma)
        sim = SimConfig(t_max=sweep_tmax(gamma), grid_dt=0.02)
        traj = integrate_exact(generate_regular(PulseParams(TAU, 0.008, 0.2), sim.t_max), system, sim)
        out[gamma] = threshold_time(fidelity_avg(traj), THRESHOLD).time
    return out


@dataclass(frozen=True)
class Checker:
    """Checks one pass's files against the reference and the invariants.

    Every file is compared with the reference recorded at DEFAULT_SEED
    when the seed is the default or the file does not depend on the seed;
    the invariants hold for every seed.
    """

    reference: dict      # {relative path: recorded entry}
    full: bool           # the seed is DEFAULT_SEED
    regular_t: dict      # gamma -> T of the regular train

    def problems(self, out: Path, label: str) -> list[str]:
        found = {p.relative_to(out).as_posix() for p in (out / label).glob("*")
                 if p.suffix in (".csv", ".json") and p.name != "manifest.json"}
        wanted = {rel for rel in self.reference if rel.split("/", 1)[0] == label}
        errs = [f"{rel}: missing" for rel in sorted(wanted - found)]
        errs += [f"{rel}: not in the reference" for rel in sorted(found - wanted)]
        for rel in sorted(wanted & found):
            errs += [f"{rel}: {e}" for e in self._file(out / rel, self.reference[rel])]
        return errs

    def _file(self, path: Path, entry: dict) -> list[str]:
        if path.suffix == ".json":
            report = json.loads(path.read_text())
            return [f"{k} = {v} not below {ORACLE_BOUND}" for k, v in report.items()
                    if k.startswith("max_") and not v < ORACLE_BOUND]
        lines = path.read_text().splitlines()
        errs = []
        if self.full or entry["seed_independent"]:
            if len(lines) != entry["lines"]:
                errs.append(f"{len(lines)} lines, reference has {entry['lines']}")
            for i, want in entry["sample"].items():
                i = int(i)
                if i >= len(lines) or not _close_lines(lines[i], want):
                    errs.append(f"line {i} differs from the reference")
        header = lines[0] if lines else ""
        if header == "t,fidelity,stderr":
            f = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
            if not math.isclose(f[0], 1.0, abs_tol=ABS_TOL):
                errs.append(f"curve starts at {f[0]}, not 1")
            if not (np.all(np.isfinite(f)) and np.all((f >= 0.0) & (f <= 1.0 + ABS_TOL))):
                errs.append("fidelity outside [0, 1]")
        elif header.startswith("label,gamma,d_over_x,T"):
            for ln in lines[1:]:
                label, gamma, ratio, t, _, lo, hi = ln.split(",")
                if lo and hi and not float(lo) <= float(hi):
                    errs.append(f"ci_low > ci_high in {ln!r}")
                if label.startswith("sweep") and float(ratio) == 0.0:
                    want = self.regular_t[float(gamma)]
                    if not math.isclose(float(t), want, rel_tol=REL_TOL):
                        errs.append(f"ratio-0 T {t} != regular-train T {want!r}")
        return errs


def sample_entry(path: Path, seed_independent: bool, rows: int = 64) -> dict:
    """Reference entry: sha256, line count and about `rows` sampled lines."""
    data = path.read_bytes()
    lines = data.decode().splitlines()
    stride = max(1, math.ceil(len(lines) / rows))
    keep = sorted(set(range(0, len(lines), stride)) | {len(lines) - 1})
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "lines": len(lines),
        "sample": {str(i): lines[i] for i in keep},
        "seed_independent": seed_independent,
    }


# ---------------------------------------------------------------------------
# the workload table

@dataclass(frozen=True)
class Workload:
    name: str
    calls: Callable            # (seed, out) -> [(label, argv)]
    trajectories: int          # trajectories one pass integrates
    replay: Callable           # (tracer, seed, work dir) -> expected rows
    seed_independent: Callable  # relative path -> bool


# a deviation-free point integrates one trajectory, every other point N
SWEEP_TRAJ = len(SWEEP_GAMMAS) * (1 + (len(SWEEP_RATIOS) - 1) * SWEEP_N)
CURVES_TRAJ = (1 + len(DELTATAU_COMBOS) * CURVES_N) + CURVES_N + len(DELTA_RATIOS) * (1 + CURVES_N)
# oracle: 2 RK4 runs; threshold: 3 + 3; run --regular and run --replay: 1 + 1
SINGLE_TRAJ = 2 + 2 * len(THRESHOLD_GAMMAS) + 2

# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("sweep-long", _sweep_calls, SWEEP_TRAJ, _replay_sweep, lambda rel: False),
    Workload("curves-dense", _curves_calls, CURVES_TRAJ, _replay_curves,
             lambda rel: rel.endswith("_regular.csv")),
    Workload("single-trajectory", _single_calls, SINGLE_TRAJ, _replay_single, lambda rel: True),
)}
