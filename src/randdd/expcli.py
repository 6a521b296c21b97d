"""Command-line front end and experiment harness.

Subcommands: validate | run | threshold | sweep | curves | oracle-check.
Every experiment writes schema-stable CSV files (12 significant digits,
LF newlines, locale independent), a JSON run manifest with per-file
checksums, and a generic plotting script. Re-running with the same
configuration reproduces the CSV files byte for byte; --threads changes
wall time only, never values.

Exit codes: 0 success, 2 usage error, 3 validation error, 4 numerical error,
130 interrupted by SIGINT (Ctrl-C), 143 terminated by SIGTERM.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import multiprocessing
import os
import platform
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from . import __version__, errors
from .errors import NumericalError, ValidationError
from .fidelity import (
    CELL_FORMAT,
    EnsembleRun,
    bootstrap_threshold_ci,
    ensemble_functionals,
    fidelity_avg,
    fidelity_pure,
    mean_crossing_time,
    threshold_time,
)
from .model import SECTIONS, InitialState, PulseParams, SimConfig, ValidatedBundle, validate
from .oracle import oracle_configs, run_oracle_check
from .pulsegen import RandomStream, empty_schedule, generate_random, generate_regular, load_schedule, save_schedule
from .riccati import integrate_with

# every "section.field" key of model.SECTIONS, cast by its annotation
CONFIG_KEYS = {f"{section}.{name}": caster for section, cls in SECTIONS.items()
               for name, caster in get_type_hints(cls).items()}

N_BOOT = 200

# the only settings oracle-check reads (--step, --seed)
ORACLE_KEYS = ("sim.step", "sim.master_seed")

# config key set by each common flag, by argparse dest (--grid-dt: grid_dt)
FLAG_KEYS = {"seed": "sim.master_seed", "ensemble": "sim.ensemble_n", "step": "sim.step",
             "grid_dt": "sim.grid_dt", "tmax": "sim.t_max"}
MAX_SWEEP_RATIOS = 1000  # per --grid; the default grids have at most 12

# the pool's start method: fork where it is the tested default (Python 3.14
# makes forkserver the Linux default, which would import numpy and randdd
# again in every worker of a run), else the platform default
START_METHOD = "fork" if sys.platform == "linux" else None


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    overrides: dict = field(default_factory=dict)
    output_dir: Path = Path("results")
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in experiment_names():
            raise ValidationError(errors.UNKNOWN_KEY, f"unknown experiment {self.name!r}")
        for key in self.overrides:
            if key not in CONFIG_KEYS:
                raise ValidationError(errors.UNKNOWN_KEY, key)


def fmt(x) -> str:
    """Fixed 12-significant-digit decimal rendering for CSV cells."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return CELL_FORMAT % float(x)


def parse_config_file(path) -> dict:
    """Flat key = value file; '#' starts a comment."""
    out = {}
    with open(path, errors="replace") as f:  # undecodable bytes fail as a bad line
        for ln, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValidationError(errors.BAD_VALUE, f"{path}:{ln}: expected key = value")
            out[key.strip()] = value.strip()
    return out


def resolve_overrides(raw: dict) -> dict:
    """Type-check raw string overrides against the documented key list."""
    out = {}
    for key, value in raw.items():
        if key not in CONFIG_KEYS:
            raise ValidationError(errors.UNKNOWN_KEY, key)
        caster = CONFIG_KEYS[key]
        try:
            out[key] = caster(value) if not isinstance(value, caster) else value
        except (TypeError, ValueError) as exc:
            raise ValidationError(errors.BAD_VALUE, f"{key} = {value!r}") from exc
    return out


def build_bundle(overrides: dict, *, allow_overlap: bool = False) -> ValidatedBundle:
    """The model.SECTIONS dataclasses, each from its defaults plus its
    overrides, validated."""
    ov = resolve_overrides(overrides)
    fields = {section: {} for section in SECTIONS}
    for key, value in ov.items():
        section, _, name = key.partition(".")
        fields[section][name] = value
    return validate(**{section: cls(**fields[section]) for section, cls in SECTIONS.items()},
                    allow_overlap=allow_overlap)


# ---------------------------------------------------------------------------
# output helpers

def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(fmt(cell) if not isinstance(cell, str) else cell for cell in row) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _numeric_env() -> dict:
    """Python and numpy versions and numpy's highest active x86 dispatch
    level (None off x86): what a run's low bits depend on beside its inputs."""
    level = next((lv for lv in ("X86_V4", "X86_V3", "X86_V2") if __cpu_features__.get(lv)), None)
    return {"python": platform.python_version(), "numpy": np.__version__, "x86_dispatch": level}


def _write_manifest(out_dir: Path, spec: ExperimentSpec, bundle_snapshot: dict,
                    files: list[Path], wall: float) -> Path:
    manifest = {
        "experiment": spec.name,
        "version": __version__,
        "master_seed": bundle_snapshot.get("sim.master_seed"),
        "params": {k: bundle_snapshot[k] for k in sorted(bundle_snapshot)},
        "settings": {k: spec.options[k] for k in sorted(spec.options)},
        "files": {p.name: _sha256(p) for p in sorted(files)},
        "numeric_env": _numeric_env(),
        "wall_clock_s": wall,
    }
    path = out_dir / "manifest.json"
    with open(path, "w", newline="\n") as f:
        json.dump(manifest, f, indent=1, sort_keys=True, default=str)
        f.write("\n")
    return path


def _snapshot(bundle: ValidatedBundle) -> dict:
    return {key: attrgetter(key)(bundle) for key in CONFIG_KEYS}


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Generic plotter for the CSV files in this directory (needs matplotlib).\"\"\"
import csv, glob, os, sys

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    sys.exit("matplotlib not installed; CSV files are plot-ready as-is")

here = os.path.dirname(os.path.abspath(__file__))
curve_files = [p for p in glob.glob(os.path.join(here, "*.csv"))
               if open(p).readline().startswith("t,")]
sweep_files = [p for p in glob.glob(os.path.join(here, "*.csv"))
               if open(p).readline().startswith("label,")]

if curve_files:
    fig, ax = plt.subplots()
    for p in sorted(curve_files):
        rows = list(csv.DictReader(open(p)))
        ax.plot([float(r["t"]) for r in rows], [float(r["fidelity"]) for r in rows],
                label=os.path.basename(p)[:-4], lw=0.8)
    ax.set_xlabel("t (omega t)"); ax.set_ylabel("fidelity"); ax.legend(fontsize=6)
    fig.savefig(os.path.join(here, "curves.png"), dpi=160)
    print("wrote curves.png")

if sweep_files:
    fig, ax = plt.subplots()
    for p in sorted(sweep_files):
        rows = list(csv.DictReader(open(p)))
        gammas = sorted({r["gamma"] for r in rows})
        for g in gammas:
            sel = [r for r in rows if r["gamma"] == g]
            ax.plot([float(r["d_over_x"]) for r in sel], [float(r["T"]) for r in sel],
                    marker="o", ms=2, label=f"{os.path.basename(p)[:-4]} gamma={g}")
    ax.set_xlabel("D_X / X"); ax.set_ylabel("T(threshold)"); ax.legend(fontsize=6)
    fig.savefig(os.path.join(here, "sweeps.png"), dpi=160)
    print("wrote sweeps.png")
"""


def _write_plot_script(out_dir: Path) -> Path:
    path = out_dir / "plot.py"
    with open(path, "w", newline="\n") as f:
        f.write(_PLOT_SCRIPT)
    return path


# ---------------------------------------------------------------------------
# experiments as point lists

# sweep-X: T against the deviation d_X, on these ratios d_X / |X|
SWEEP_GRIDS = {
    "phi": np.round(np.arange(0.0, 1.0 + 1e-9, 0.1), 10),
    "tau": np.round(np.arange(0.0, 0.55 + 1e-9, 0.05), 10),
    "delta": np.round(np.arange(0.0, 0.9 + 1e-9, 0.1), 10),
}
SWEEP_GAMMAS = (0.2, 0.5, 0.9)
ROW_HEADER = "label,gamma,d_over_x,T,crossed,ci_low,ci_high"

# curves-F: the pulse keys family F defaults in units of tau (an override
# wins), then one row per point: file stem, control, the pulse keys the
# point fixes in units of tau, allow_overlap, and the mu2 of its curves
# (None: the state average, written to stem.csv; else to stem_mu2.csv)
CURVE_FAMILIES = {
    "delta": ({}, [(f"curves_delta_r{r}_{control}", control, {"delta": r, **dev}, control == "random", (None,))
                   for r in (0.3, 0.4, 0.5, 0.75)
                   for control, dev in (("regular", {}), ("random", {"d_delta": 0.2, "d_tau": 0.2}))]),
    "deltatau": ({}, [("curves_deltatau_regular", "regular", {}, False, (None,))] + [
        (f"curves_deltatau_dd{dd}_dt{dt}", "random", {"d_delta": dd, "d_tau": dt}, False, (None,))
        for dd, dt in ((0.2, 0.0), (0.0, 0.2), (0.2, 0.2))]),
    "mu": ({"d_delta": 0.2, "d_tau": 0.2},
           [("curves_mu", "random", {}, False, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))]),
}
# beside the table rows: run-curve and threshold-control are ad-hoc single
# runs, and validate only checks the configuration (main prints it)
OTHER_EXPERIMENTS = ("baseline-nocontrol", "oracle-check", "run-curve", "threshold-control", "validate")


def experiment_names() -> tuple[str, ...]:
    """The names ExperimentSpec accepts."""
    return (*(f"sweep-{x}" for x in SWEEP_GRIDS), *(f"curves-{f}" for f in CURVE_FAMILIES), *OTHER_EXPERIMENTS)


def _sweep_tmax(gamma: float) -> float:
    # covers the regular-control survival time (about 10/gamma) with headroom;
    # gamma = 0 is left to fail validation
    return round(18.0 / gamma, 6) if gamma else 0.0


@dataclass(frozen=True)
class Point:
    """One configuration of an experiment and the outputs it feeds.

    Its configuration is the user's overrides between the point's defaults
    and its fixed keys (overrides_with); parse_cli rejects an override of a
    fixed key. control: "none", "regular" or "replay" integrate one
    trajectory; "random" integrates the ensemble. row = (csv name, label,
    gamma, d_over_x) adds a T row to that table; boot is its bootstrap
    stream index. curves lists (file name, mu2) pairs, mu2 None for the
    state average.
    """

    defaults: dict
    fixed: dict
    control: str = "random"
    allow_overlap: bool = False
    row: tuple | None = None
    boot: int = 0
    curves: tuple = ()

    def overrides_with(self, user: dict) -> dict:
        return {**self.defaults, **user, **self.fixed}


def expand(spec: ExperimentSpec) -> list[Point]:
    """The experiment's points, in evaluation and output order (validate
    and oracle-check have none). Builds no bundle: parse_cli reads them."""
    kind, _, variant = spec.name.partition("-")
    opt, ov = spec.options, resolve_overrides(spec.overrides)
    gammas = opt.get("gammas") or SWEEP_GAMMAS
    if kind == "sweep":
        ratios = SWEEP_GRIDS[variant] if opt.get("grid") is None else np.asarray(opt["grid"], dtype=float)
        scale = abs(ov.get(f"pulses.{variant}", getattr(PulseParams, variant)))
        return [Point({"sim.t_max": _sweep_tmax(gamma), "sim.grid_dt": 0.02},
                      {"system.gamma": gamma, f"pulses.d_{variant}": float(ratio) * scale},
                      row=(f"sweep_{variant}.csv", spec.name, gamma, float(ratio)), boot=gi * 10_000 + ri)
                for gi, gamma in enumerate(gammas) for ri, ratio in enumerate(ratios)]
    if kind in ("baseline", "threshold"):
        control = "none" if kind == "baseline" else opt.get("control", "regular")
        if control == "none":
            csv, label, defaults = "baseline_nocontrol.csv", "nocontrol", {"sim.t_max": 3.0, "sim.grid_dt": 0.002}
        else:
            csv, label, defaults = f"threshold_{control}.csv", control, {}
        return [Point({"sim.t_max": _sweep_tmax(gamma), **defaults}, {"system.gamma": gamma}, control,
                      row=(csv, label, gamma, 0.0), boot=gi)
                for gi, gamma in enumerate(gammas)]
    if kind == "run":
        return [Point({}, {}, opt.get("control", "random"), curves=(("curve.csv", opt.get("mu2")),))]
    if kind != "curves":
        return []
    defaults, rows = CURVE_FAMILIES[variant]
    tau = ov.get("pulses.tau", PulseParams.tau)

    def in_tau(multiples: dict) -> dict:
        return {f"pulses.{key}": m * tau for key, m in multiples.items()}

    return [Point({"system.gamma": 0.3, **in_tau(defaults)}, in_tau(fixed), control, allow_overlap,
                  curves=tuple((f"{stem}.csv" if mu2 is None else f"{stem}_{mu2}.csv", mu2) for mu2 in mu2s))
            for stem, control, fixed, allow_overlap, mu2s in rows]


def _point_states(point: Point) -> dict:
    """The point's pure states by mu2 (mu2 outside [0, 1] fails validation)."""
    return {mu2: InitialState.from_population(mu2) for _, mu2 in point.curves if mu2 is not None}


def _until(point: Point, sim: SimConfig) -> float | None:
    """A point that writes only its T row needs the factors up to the column that decides T."""
    return sim.threshold if point.row is not None and not point.curves else None


def evaluate(point: Point, bundle: ValidatedBundle, options: dict, out_dir: Path,
             factors=None) -> tuple[list[Path], tuple | None]:
    """Integrate one point and write its curves (plus trajectory.csv and
    schedule.csv when asked); returns the written files and its T row.
    A random point integrates its ensemble in this process unless its
    factors are given."""
    system, pulses, sim = bundle.system, bundle.pulses, bundle.sim
    states = _point_states(point)
    files: list[Path] = []

    def written(name: str) -> Path:
        files.append(out_dir / name)
        return files[-1]

    if point.control == "random":
        if factors is None:
            factors = ensemble_functionals(system, pulses, sim, until=_until(point, sim))
        curve_of = factors.mean_curve  # reduces with mu2 as given, not the normalized state's
        if options.get("save_schedule"):
            schedule = generate_random(pulses, sim.t_max, RandomStream.for_schedule(sim.master_seed, 0))
    else:
        if point.control == "none":
            schedule = empty_schedule(sim.t_max)
        elif point.control == "regular":
            schedule = generate_regular(pulses, sim.t_max)
        else:
            schedule = load_schedule(options["replay"], horizon=sim.t_max)
        traj = integrate_with(schedule, system, sim)

        def curve_of(mu2=None):
            return fidelity_avg(traj) if mu2 is None else fidelity_pure(traj, states[mu2])

        if options.get("dump_traj"):
            traj.save(written("trajectory.csv"))
    if options.get("save_schedule"):
        save_schedule(schedule, written("schedule.csv"))
    for name, mu2 in point.curves:
        curve_of(mu2).save(written(name))
    if point.row is None:
        return files, None
    if point.control == "random" and options.get("t_mode") == "mean-crossings":
        t_val = mean_crossing_time(factors, sim.threshold)
        crossed = t_val < sim.t_max
    else:
        res = threshold_time(curve_of(), sim.threshold)
        t_val, crossed = res.time, res.crossed
    if point.control != "random":
        ci = (None, None)
    elif factors.n == 1:  # a one-sample ensemble has no spread: its interval is (T, T)
        ci = (t_val, t_val)
    else:
        stream = RandomStream.for_bootstrap(sim.master_seed, point.boot)
        ci = bootstrap_threshold_ci(factors, sim.threshold, stream, N_BOOT)
    return files, (*point.row[1:], t_val, crossed, *ci)


def usable_cpus() -> int:
    """The CPUs this process may run on (the affinity mask where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pool_size(tasks: int, workers: int | str) -> int:
    """Processes the run may use: the request ("auto" is every usable CPU),
    capped at the usable CPUs and at the tasks that can run at once."""
    cpus = usable_cpus()
    return min(cpus if workers == "auto" else workers, cpus, tasks)


def _worker_signals() -> None:
    """Pool worker set-up. A Ctrl-C reaches the whole process group: the
    workers ignore SIGINT and the interrupted main process ends them. They
    keep the default SIGTERM: main's handler is for the main process."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


@contextlib.contextmanager
def _pool(size: int, settings: dict):
    """A process pool of size workers (None for 0); settings records its
    start method. On exit the pool is shut and the tasks not yet started
    are cancelled: a failing run must not wait for work submitted ahead.
    A running task cannot be cancelled, so a failing run first terminates
    this pool's workers and closes this process's end of their result
    pipe: a worker ended while sending its result leaves part of a message
    there, which the pool's manager thread would otherwise wait on forever
    when the shutdown joins it; with no writer left it reads end-of-file
    and marks the pool broken."""
    if not size:
        yield None
        return
    context = multiprocessing.get_context(START_METHOD)
    executor = ProcessPoolExecutor(max_workers=size, mp_context=context, initializer=_worker_signals)
    settings["start_method"] = context.get_start_method()
    try:
        yield executor
    except BaseException:
        # this pool's workers only (ProcessPoolExecutor.terminate_workers is Python 3.14+)
        for process in list(executor._processes.values()):
            process.terminate()
        executor._result_queue._writer.close()
        raise
    finally:
        executor.shutdown(cancel_futures=True)


def run_experiment(spec: ExperimentSpec, *, workers: int | str = "auto") -> list[Path]:
    """Execute one experiment; returns the written files (manifest last).

    The output directory is created only once the run has passed
    validation: every point's bundle, states and ensemble size, or the
    oracle's settings.
    workers is "auto" or a count; the manifest records it as given, and the
    start method of the pool when one started. oracle-check starts a
    one-worker pool for its pulsed check when two processes are allowed.

    Points with pool tasks run their first pass on the pool, submitted
    ahead in point order while fewer than twice the pool size of tasks are
    outstanding, so the workers keep busy while this process integrates the
    other points, re-runs short groups, reduces, bootstraps and writes. Each
    point is still finished and written in point order.
    """
    out_dir = Path(spec.output_dir)
    t0 = time.perf_counter()
    settings = {**spec.options, "workers": workers}
    if spec.name == "oracle-check":
        step = float(spec.overrides.get("sim.step", SimConfig.step))
        seed = int(spec.overrides.get("sim.master_seed", SimConfig.master_seed))
        oracle_configs(step, seed)  # a bad step exits 3 before a pool starts
        # two checks run at once: the pulsed one on the worker, the longer no-control one here
        with _pool(1 if _pool_size(2, workers) > 1 else 0, settings) as executor:
            report = run_oracle_check(step=step, seed=seed, executor=executor)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "oracle_report.json"
        with open(path, "w", newline="\n") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
        files, snapshot = [path], {"sim.master_seed": seed}
    else:
        points = expand(spec)
        bundles = [build_bundle(p.overrides_with(spec.overrides), allow_overlap=p.allow_overlap) for p in points]
        for point in points:
            _point_states(point)
        # params: the library defaults plus the overrides, not validated together (each point's bundle is)
        snapshot = {**_snapshot(build_bundle({})), **resolve_overrides(spec.overrides)}
        runs = {i: EnsembleRun(b.system, b.pulses, b.sim, _until(p, b.sim))
                for i, (p, b) in enumerate(zip(points, bundles)) if p.control == "random"}
        out_dir.mkdir(parents=True, exist_ok=True)
        files, tables = [], {}
        # never more processes than CPUs or tasks: a fork pool starts all of them at once
        procs = _pool_size(sum(run.pool_tasks for run in runs.values()), workers)
        with _pool(procs if procs > 1 else 0, settings) as executor:
            ahead = [i for i, run in runs.items() if run.pool_tasks] if executor is not None else []
            started = {}  # point index -> its EnsembleRun, first pass submitted

            def feed() -> None:
                while ahead and sum(run.pool_tasks for run in started.values()) < 2 * procs:
                    j = ahead.pop(0)
                    started[j] = runs[j].start(executor)

            for i, (point, bundle) in enumerate(zip(points, bundles)):
                feed()
                factors = started.pop(i).finish() if i in started else None
                feed()
                written, row = evaluate(point, bundle, spec.options, out_dir, factors)
                del factors  # else this point's stacks live on beside the next one's
                files += written
                if row is not None:
                    tables.setdefault(point.row[0], []).append(row)
        for name, rows in tables.items():
            _write_csv(out_dir / name, ROW_HEADER, rows)
            files.append(out_dir / name)

    files.append(_write_plot_script(out_dir))
    spec = ExperimentSpec(spec.name, spec.overrides, spec.output_dir, settings)
    manifest = _write_manifest(out_dir, spec, snapshot, files, time.perf_counter() - t0)
    return files + [manifest]


# ---------------------------------------------------------------------------
# argument parsing

def _positive_float(text: str) -> float:
    x = float(text)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"{text!r} must be positive")
    return x


def _count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be at least 1")
    return n


def _seed_value(text: str) -> int:
    s = int(text)
    if not 0 <= s < 2**64:
        raise argparse.ArgumentTypeError(f"{text!r} not a 64-bit unsigned seed")
    return s


def _threads_value(text: str):
    if text == "auto":
        return text
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be at least 1 or 'auto'")
    return n


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="flat key = value configuration file")
    p.add_argument("--seed", type=_seed_value, help="master seed (64-bit unsigned)")
    p.add_argument("--ensemble", type=_count, help="random-schedule samples per point")
    p.add_argument("--step", type=_positive_float, help="maximum integrator step")
    p.add_argument("--grid-dt", type=_positive_float, help="output sampling interval")
    p.add_argument("--tmax", type=_positive_float, help="simulation horizon")
    p.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    p.add_argument("--threads", type=_threads_value, default="auto",
                   help="worker processes (integer or 'auto', the default: every usable CPU), "
                        "at most the CPU count and the lane groups summed over the run's points; "
                        "oracle-check uses one worker when two processes are allowed")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any documented config key (repeatable)")


def _gamma_list(text: str) -> list[float]:
    try:
        gammas = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad gamma list {text!r}") from exc
    if not gammas:  # else `args.gammas or None` would run the default gammas
        raise argparse.ArgumentTypeError(f"gamma list {text!r} names no gamma")
    return gammas


def _grid_spec(text: str) -> list[float]:
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}, expected start:stop:step") from exc
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}")
    if not (stop - start) / step < MAX_SWEEP_RATIOS:
        raise argparse.ArgumentTypeError(f"grid {text!r} asks for more than {MAX_SWEEP_RATIOS} ratios")
    return [float(x) for x in np.round(np.arange(start, stop + 1e-9, step), 10)]


@functools.cache  # one parser per process; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randdd",
        description="Randomized dynamical-decoupling simulator for a dissipative qubit",
    )
    parser.add_argument("--version", action="version", version=f"randdd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate the resolved configuration")
    _add_common(p)

    p = sub.add_parser("run", help="one fidelity curve (random ensemble by default)")
    _add_common(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--no-control", action="store_true", help="no pulses")
    mode.add_argument("--regular", action="store_true", help="deviation-free pulse train")
    mode.add_argument("--replay", type=Path, help="integrate a saved schedule CSV")
    p.add_argument("--mu2", type=float, help="pure-state curve for this excited population")
    p.add_argument("--dump-traj", action="store_true", help="also write trajectory.csv")
    p.add_argument("--save-schedule", action="store_true", help="also write schedule.csv")

    p = sub.add_parser("threshold", help="survival times T(threshold) per gamma")
    _add_common(p)
    p.add_argument("--gammas", type=_gamma_list, help="comma-separated gamma values")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--no-control", action="store_true", help="uncontrolled baseline (default)")
    mode.add_argument("--regular", action="store_true")
    mode.add_argument("--random", action="store_true")
    p.add_argument("--t-mode", choices=("mean-curve", "mean-crossings"), default="mean-curve",
                   help="cross the ensemble-mean curve (default) or average per-sample crossings")

    p = sub.add_parser("sweep", help="T vs fluctuation-scale sweeps")
    _add_common(p)
    p.add_argument("--param", choices=tuple(SWEEP_GRIDS), required=True)
    p.add_argument("--gammas", type=_gamma_list)
    p.add_argument("--grid", type=_grid_spec, help="ratio grid start:stop:step")

    p = sub.add_parser("curves", help="fidelity-curve families")
    _add_common(p)
    p.add_argument("--family", choices=tuple(CURVE_FAMILIES), required=True)

    p = sub.add_parser("oracle-check", help="cross-method closure report")
    _add_common(p)
    return parser


def _collect_overrides(args) -> dict:
    raw: dict = {}
    if args.config:
        raw.update(parse_config_file(args.config))
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValidationError(errors.BAD_VALUE, f"--set expects KEY=VALUE, got {item!r}")
        raw[key.strip()] = value.strip()
    raw.update((key, vars(args)[dest]) for dest, key in FLAG_KEYS.items() if vars(args)[dest] is not None)
    return resolve_overrides(raw)


def parse_cli(argv) -> tuple[ExperimentSpec, int | str]:
    """Turn an argv list into an ExperimentSpec plus a worker count or "auto"."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # flags the chosen control would ignore are usage errors
    if args.command == "run" and args.dump_traj and not (args.no_control or args.regular or args.replay):
        parser.error("--dump-traj needs --no-control, --regular or --replay: "
                     "the random control writes no single trajectory")
    if args.command == "threshold" and args.t_mode != "mean-curve" and not args.random:
        parser.error(f"--t-mode {args.t_mode} needs --random: only an ensemble has per-sample crossings")
    overrides = _collect_overrides(args)
    name, options = args.command, {}
    if name == "run":
        name = "run-curve"
        options = {"control": "none" if args.no_control else "regular" if args.regular
                   else "replay" if args.replay else "random",
                   "replay": str(args.replay) if args.replay else None, "mu2": args.mu2,
                   "dump_traj": args.dump_traj or None, "save_schedule": args.save_schedule or None}
    elif name == "threshold":
        control = "regular" if args.regular else "random" if args.random else None
        name = "threshold-control" if control else "baseline-nocontrol"
        options = {"gammas": args.gammas or None, "control": control,
                   "t_mode": None if args.t_mode == "mean-curve" else args.t_mode}
    elif name == "sweep":
        name, options = f"sweep-{args.param}", {"gammas": args.gammas or None, "grid": args.grid}
    elif name == "curves":
        name = f"curves-{args.family}"
    spec = ExperimentSpec(name, overrides, args.out, {k: v for k, v in options.items() if v is not None})
    # an override of a key the experiment sets itself would be ignored
    fixed = (CONFIG_KEYS.keys() - set(ORACLE_KEYS) if name == "oracle-check"
             else {key for point in expand(spec) for key in point.fixed})
    flags = {key: "--" + dest.replace("_", "-") for dest, key in FLAG_KEYS.items() if vars(args)[dest] is not None}
    ignored = [flags.get(key, key) for key in overrides if key in fixed]
    if ignored:
        parser.error(f"{name} sets {', '.join(ignored)} itself and would ignore the override")
    return spec, args.threads


def main(argv=None) -> int:
    try:
        spec, workers = parse_cli(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:  # argparse usage errors and --help/--version
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    except (ValidationError, OSError) as exc:  # OSError: an unreadable --config
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if spec.name == "validate":
            bundle = build_bundle(spec.overrides)
            print("configuration valid")
            for key, value in sorted(_snapshot(bundle).items()):
                print(f"  {key} = {value}")
            return 0
        # SIGTERM and SIGINT unwind the run, so the pool is shut and its workers end
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
        try:
            files = run_experiment(spec, workers=workers)
        finally:
            signal.signal(signal.SIGTERM, previous)
    except SystemExit as exc:  # from SIGTERM
        print("terminated by SIGTERM", file=sys.stderr)
        return exc.code
    except KeyboardInterrupt:
        print("interrupted by SIGINT", file=sys.stderr)
        return 128 + signal.SIGINT
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # an unreadable --replay file or an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in files:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
