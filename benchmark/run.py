"""End-to-end and per-layer benchmark of the randdd CLI.

    python3 benchmark/run.py --workload sweep-long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy. With --trace 0 the workload's CLI
calls run in this process through `randdd.expcli.main`, pass after pass,
until --seconds have elapsed, and the end-to-end metrics are printed.
With --trace 1 one untraced pass, one pass with spans at expcli's calls
into the other modules, and one replay of the same points through the
public functions of each module are made, and the per-layer metrics are
printed. Every pass checks its outputs. The last line of stdout is the
JSON result; spans go to benchmark/out/trace-<workload>-<seed>.json.

`--record-reference` rewrites benchmark/reference.json from one pass of
every workload at the default seed.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
SETUP_REPEATS = 7
PROBE_LOOPS = 3000
PROBE_COUNT = 1000
PROBE_REF = 2.2e-4    # probe CPU seconds that define the reference speed

# Names randdd.expcli imports from the other modules; the traced CLI
# pass wraps them so each call into a layer is a child span of
# expcli.run_experiment.
EXPCLI_CALLS = (
    "run_experiment", "validate", "ensemble_functionals", "bootstrap_threshold_ci",
    "fidelity_avg", "fidelity_pure", "mean_crossing_time", "threshold_time",
    "run_oracle_check", "generate_random", "generate_regular", "empty_schedule",
    "load_schedule", "save_schedule", "integrate_with",
)

# Spawned once per setup_s sample: interpreter start, `import randdd`, and
# parsing plus validating every CLI call of the workload.
SETUP_PROBE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from randdd import expcli
for argv in json.loads(sys.argv[2]):
    spec, _ = expcli.parse_cli(argv)
    expcli.build_bundle(spec.overrides)
print("ready", flush=True)
"""


def _import_package():
    """Import randdd from ./src; refuse an installed copy."""
    if not (SRC / "randdd" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'randdd'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import randdd

    if Path(randdd.__file__).resolve().parent != (SRC / "randdd").resolve():
        raise SystemExit(f"error: imported randdd from {randdd.__file__}, not from {SRC}")


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "randdd").glob("*.py")))


def _nproc() -> int:
    """Processors this process may run on, as `nproc` counts them."""
    return len(os.sched_getaffinity(0))


def setup_seconds(calls) -> float:
    """Wall time from spawning a fresh interpreter until it reports ready."""
    argvs = json.dumps([argv for _, argv in calls])
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC), argvs],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def run_pass(calls, out: Path, checker) -> tuple[float, dict[str, str]]:
    """All CLI calls of a pass, in order, timed together, then checked.

    Returns the pass wall time and {label: error} for the calls that
    exited non-zero, raised, or failed the output check.
    """
    from randdd import expcli

    errors = {}
    sink = io.StringIO()
    t0 = time.perf_counter()
    for label, argv in calls:
        try:
            with contextlib.redirect_stdout(sink), warnings.catch_warnings():
                warnings.simplefilter("ignore")  # curves-delta clamps widths on purpose
                rc = expcli.main(argv)
        except Exception:  # a raising call is a failed call; keep measuring
            traceback.print_exc()
            rc = "raised"
        if rc != 0:
            errors[label] = f"exit {rc}"
    wall = time.perf_counter() - t0
    if checker is not None:
        for label, _ in calls:
            problems = [] if label in errors else checker.problems(out, label)
            if problems:
                errors[label] = "; ".join(problems)
    for label, e in errors.items():
        print(f"check failed: {label}: {e}", file=sys.stderr)
    return wall, errors


def _data_rows(path: Path) -> list[list[str]]:
    return [ln.split(",") for ln in path.read_text().splitlines()[1:]]


def _replay_errors(expected: dict, out: Path) -> dict[str, str]:
    """{label: error} where the replay's values differ from the CLI's files."""
    errors = {}
    for rel, want in expected.items():
        path = out / rel
        label = rel.split("/", 1)[0]
        if not path.is_file():
            errors[label] = f"{rel}: missing"
        elif path.suffix == ".json":
            got = json.loads(path.read_text())
            if any(got.get(k) != v for k, v in want.items()):
                errors[label] = f"{rel}: replayed deviations differ"
        elif _data_rows(path) != want:
            errors[label] = f"{rel}: replayed values differ"
    return errors


def _probe() -> float:
    """CPU seconds of a fixed pure-Python loop that does not touch randdd."""
    t0 = time.thread_time()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += (i % 7) * 5 - (i % 3)
    return time.thread_time() - t0


def machine_speed() -> float:
    """Reference speed over current speed: PROBE_REF / median probe time.

    Shared hosts change speed by tens of percent within seconds to
    minutes. Each timed interval is multiplied by the mean of the speeds
    measured right before and right after it, so the time metrics read in
    seconds at the reference speed. The probes run while neither the
    benchmark nor the program does other work, so the program's own
    threads and processes cannot slow them.
    """
    return PROBE_REF / statistics.median(_probe() for _ in range(PROBE_COUNT))


def measure(w, seed: int, seconds: float, out: Path, checker) -> tuple[dict, int, int]:
    calls = w.calls(seed, out)
    raw_setup, raw_walls, setup, walls, failed = [], [], [], [], 0
    speed = [machine_speed()]

    def sample_setup():
        raw_setup.append(setup_seconds(calls))
        speed.append(machine_speed())
        setup.append(raw_setup[-1] * 0.5 * (speed[-2] + speed[-1]))

    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        sample_setup()  # set-up samples are spread over the run
        wall, errors = run_pass(calls, out, checker)
        speed.append(machine_speed())
        raw_walls.append(wall)
        walls.append(wall * 0.5 * (speed[-2] + speed[-1]))
        failed += len(errors)
    while len(setup) < SETUP_REPEATS:
        sample_setup()
    print(json.dumps({"workload": w.name, "seed": seed, "raw_wall_s": [round(x, 4) for x in raw_walls],
                      "raw_setup_s": [round(x, 4) for x in raw_setup],
                      "speed": [round(x, 4) for x in speed]}))
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "traj_per_s": (w.trajectories / wall_s, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, len(calls) * len(walls), failed


def _identical_csvs(untraced: Path, traced: Path, reference: dict, full: bool) -> tuple[list[Path], int]:
    """CSVs of the untraced pass, and how many are byte-identical to the
    recorded sha256 or, for a file that depends on another seed than the
    recorded one, to the same file written by the traced pass."""
    csvs = sorted(untraced.glob("*/*.csv"))
    same = 0
    for path in csvs:
        rel = path.relative_to(untraced).as_posix()
        entry = reference.get(rel)
        if full or (entry and entry["seed_independent"]):
            same += bool(entry) and hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]
        else:
            same += path.read_bytes() == (traced / rel).read_bytes()
    return csvs, same


def trace(w, seed: int, out: Path, checker, reference: dict) -> tuple[dict, int, int]:
    from randdd import expcli
    from tracing import Tracer, traced_names

    # (a) untraced pass, the end-to-end baseline of this run
    calls = w.calls(seed, out / "untraced")
    wall_a, errors_a = run_pass(calls, out / "untraced", checker)

    # (b) the same calls, with spans at expcli's calls into the other modules
    cli = Tracer(w.name)
    with traced_names(expcli, EXPCLI_CALLS, cli):
        wall_b, errors_b = run_pass(w.calls(seed, out / "traced"), out / "traced", checker)

    # (c) replay of the same points through each module's public functions
    rep = Tracer(w.name)
    work = out / "replay"
    work.mkdir(parents=True)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # curves-delta clamps widths on purpose
            expected = w.replay(rep, seed, work)
        errors_c = _replay_errors(expected, out / "untraced")
        if rep.counts["riccati.trajectories"] != w.trajectories:
            errors_c = {label: f"replay integrated {rep.counts['riccati.trajectories']} trajectories, "
                               f"not {w.trajectories}" for label, _ in calls}
    except Exception:
        traceback.print_exc()
        errors_c = {label: "replay raised" for label, _ in calls}
    for label, e in errors_c.items():
        print(f"check failed: replay of {label}: {e}", file=sys.stderr)

    csvs, identical = _identical_csvs(out / "untraced", out / "traced", reference, checker.full)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{w.name}-{seed}.json", "w", newline="\n") as f:
        json.dump({"traced_cli": cli.dump(), "replay": rep.dump()}, f)
        f.write("\n")

    ms = {k: 1000.0 * v for k, v in rep.self_seconds().items()}
    c = rep.counts

    def per(name, n):
        return ms.get(name, 0.0) / n if n else 0.0

    def per_call(name):
        return per(name, rep.calls(name))

    metrics = {
        "pulsegen.generate_ms": (per_call("pulsegen.generate"), "ms"),
        "pulsegen.pulses": (c["pulsegen.pulses"], "count"),
        "pulsegen.segment_table_ms": (per_call("pulsegen.segment_table"), "ms"),
        "pulsegen.segments": (c["pulsegen.segments"], "count"),
        "pulsegen.clamped_widths": (c["pulsegen.clamped_widths"], "count"),
        "pulsegen.io_ms": (ms.get("pulsegen.io", 0.0), "ms"),
        "pulsegen.io_bytes": (c["pulsegen.io_bytes"], "bytes"),
        "riccati.exact_ms": (per_call("riccati.exact"), "ms"),
        "riccati.rk4_ms": (per_call("riccati.rk4"), "ms"),
        "riccati.rk4_steps": (c["riccati.rk4_steps"], "count"),
        "riccati.blowups": (c["riccati.blowups"], "count"),
        "riccati.trajectories": (c["riccati.trajectories"], "count"),
        "fidelity.reduce_ms": (per("fidelity.reduce", c["fidelity.points"]), "ms"),
        "fidelity.bootstrap_ms": (per_call("fidelity.bootstrap"), "ms"),
        "fidelity.factor_mb": (rep.peaks["fidelity.factor_bytes"] / 2**20, "MB"),
        "oracle.pseudomode_ms": (per_call("oracle.pseudomode"), "ms"),
        "oracle.pseudomode_steps": (c["oracle.pseudomode_steps"], "count"),
        "model.validate_ms": (per_call("model.validate"), "ms"),
        "expcli.self_ms": (1000.0 * cli.self_seconds().get("expcli.run_experiment", 0.0), "ms"),
        "expcli.csv_files": (len(csvs), "count"),
        "expcli.csv_bytes": (sum(p.stat().st_size for p in csvs), "bytes"),
        "expcli.csv_identical": (identical / len(csvs) if csvs else 0.0, "fraction"),
        "trace.overhead_ms": (1000.0 * (wall_b - wall_a), "ms"),
        "src.lines": (_src_lines(), "count"),
        "host.nproc": (_nproc(), "count"),
    }
    return metrics, 3 * len(calls), len(errors_a) + len(errors_b) + len(errors_c)


def record_reference() -> None:
    """One pass of every distinct workload at the default seed."""
    from workloads import DEFAULT_SEED, WORKLOADS, sample_entry

    ref = {"seed": DEFAULT_SEED, "src_lines": _src_lines(), "files": {}}
    for w in WORKLOADS.values():
        out = OUT / f"record-{os.getpid()}"
        try:
            _, errors = run_pass(w.calls(DEFAULT_SEED, out), out, None)
            if errors:
                raise SystemExit(f"error: {w.name}: {errors}")
            ref["files"][w.name] = {
                rel: sample_entry(p, w.seed_independent(rel))
                for p in sorted(out.glob("*/*"))
                if p.suffix in (".csv", ".json") and p.name != "manifest.json"
                for rel in [p.relative_to(out).as_posix()]
            }
        finally:
            shutil.rmtree(out, ignore_errors=True)
    with open(REFERENCE, "w", newline="\n") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all' for one result line each")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    _import_package()
    import workloads
    from workloads import Checker, regular_sweep_times

    if args.record_reference:
        record_reference()
        return 0
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"--workload must be 'all' or one of {', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if not REFERENCE.is_file():
        raise SystemExit(f"error: no reference outputs at {REFERENCE}")
    references = json.loads(REFERENCE.read_text())["files"]
    regular_t = regular_sweep_times()

    for name in names:
        w = workloads.WORKLOADS[name]
        checker = Checker(references[w.name], seed == workloads.DEFAULT_SEED, regular_t)
        out = OUT / f"{w.name}-{seed}-{os.getpid()}"
        try:
            if args.trace:
                metrics, attempted, failed = trace(w, seed, out, checker, references[w.name])
            else:
                metrics, attempted, failed = measure(w, seed, args.seconds, out, checker)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": value, "unit": unit} for m, (value, unit) in metrics.items()},
        }
        print(json.dumps({"src_lines": _src_lines(), "nproc": _nproc()}))
        print(json.dumps({"workload": name, **result} if len(names) > 1 else result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
