"""Mutation gate: every mutant of src/randdd must fail the tests named for it.

Run from the repository root:

    python tests/mutants.py              # every mutant
    python tests/mutants.py carry row    # the mutants whose name holds a word given

First the union of the chosen mutants' test nodes runs on an unmutated
copy of src/: if any of them fails there, a failure under a mutant would
prove nothing, so the gate stops with ERROR. Then each mutant replaces one
exact snippet of a module in a fresh copy of src/ and runs only its test
nodes against that copy (pytest's pythonpath is pointed at it). The gate
fails when a mutant survives, that is its nodes all pass, or when its
snippet is not found exactly once: a refactor that moves the code must
move the mutant with it. pytest does not collect this file. Exit status 0
when every mutant is killed, else 1.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # a mutant that hangs its tests counts as killed, and says so


class Mutant(NamedTuple):
    name: str
    module: str  # under src/randdd
    snippet: str
    replacement: str
    nodes: tuple[str, ...]


EXPCLI = "tests/test_expcli.py::"
FIDELITY = "tests/test_fidelity.py::"
RICCATI = "tests/test_riccati.py::"

MUTANTS = [
    Mutant("J path: unwrap carry dropped", "riccati.py",
           "        self.phase = phase[-1]\n", "",
           (RICCATI + "test_one_lane_windows_are_bitwise_the_default[random-w64]",
            RICCATI + "test_lanes_are_bitwise_one_lane_runs[ragged-w7]")),
    Mutant("near-root branch off", "riccati.py",
           "NEAR_ROOT = 1e-3\n", "NEAR_ROOT = 0.0\n",
           (RICCATI + "test_exact_matches_rk4_at_the_double_root[0.0]",
            RICCATI + "test_exact_matches_rk4_at_the_double_root[1e-12]")),
    Mutant("numpy complex multiply in the lane step", "riccati.py",
           "        us.real, us.imag = st[:, 0, 0], st[:, 0, 1]\n"
           "        vs.real, vs.imag = st[:, 1, 0], st[:, 1, 1]\n",
           "        us[0] = st[0, 0, 0] + 1j * st[0, 0, 1]\n"
           "        vs[0] = st[0, 1, 0] + 1j * st[0, 1, 1]\n"
           "        for k in range(n):\n"
           "            us[k + 1] = m00[k] * us[k] + m01[k] * vs[k]\n"
           "            vs[k + 1] = m10[k] * us[k] + m11[k] * vs[k]\n"
           "        st[:, 0, 0], st[:, 0, 1], st[:, 1, 0], st[:, 1, 1] = us.real, us.imag, vs.real, vs.imag\n",
           (RICCATI + "test_lanes_are_bitwise_one_lane_runs[ragged-default]",)),
    Mutant("J path: log taken one row early", "riccati.py",
           "        out[1][lane, col] = -(np.log(mag[row, lane]) + 1j * phase[row, lane])\n",
           "        out[1][lane, col] = -(np.log(mag[row - 1, lane]) + 1j * phase[row, lane])\n",
           (RICCATI + "test_lanes_are_bitwise_one_lane_runs[ragged-w7]",
            RICCATI + "test_one_lane_windows_are_bitwise_the_default[random-w64]")),
    Mutant("factor sink: e1 = |u|", "riccati.py",
           "            out[1][lane, col] = u.real\n",
           "            out[1][lane, col] = np.abs(u)\n",
           (RICCATI + "test_factors_from_u_match_those_from_j[all-three]",)),
    Mutant("factor sink: e2 taken from row - 1", "riccati.py",
           "            out[0][lane, col] = _abs2(u)\n",
           "            out[0][lane, col] = _abs2(us[row - 1, lane])\n",
           (RICCATI + "test_factors_from_u_match_those_from_j[all-three]",)),
    Mutant("no one-by-one re-run after a blow-up", "fidelity.py",
           "        except BlowUpError:\n            pass\n",
           "        except BlowUpError:\n            raise\n",
           (FIDELITY + "test_exact_ensemble_blowup_matches_per_sample_path",)),
    Mutant("cut at C instead of C+1", "fidelity.py",
           "        cut = slice(col + 1)\n",
           "        cut = slice(col)\n",
           (FIDELITY + "test_until_cuts_at_the_decided_column_inside_a_window",)),
    Mutant("rk4 group returns its first column only", "fidelity.py",
           "    return e2, e1\n",
           "    return e2[:, :1], e1[:, :1]\n",
           (FIDELITY + "test_an_rk4_ensemble_completes_and_matches_the_exact_one[whole-grid]",)),
    Mutant("a group that filled the grid runs again", "fidelity.py",
           "if len(m) <= col and len(m) < width]", "if len(m) <= col and len(m) <= width]",
           (EXPCLI + "test_groups_that_run_out_of_their_heads_run_once_more_whole[zero-row-heads-threads1]",
            EXPCLI + "test_groups_that_run_out_of_their_heads_run_once_more_whole[uncrossed-lane-in-process-pool]")),
    Mutant("early-stop re-run skipped", "fidelity.py",
           "for e2, e1 in blocks], len(grid))\n",
           "for e2, e1 in blocks], len(grid))[0], []\n",
           (FIDELITY + "test_until_reruns_a_group_that_stopped_short",)),
    Mutant("a re-run keeps the level", "fidelity.py",
           "                blocks[g] = _fill_group(system, pulses, sim, self.groups[g])\n",
           "                blocks[g] = _fill_group(system, pulses, sim, self.groups[g], level)\n",
           (FIDELITY + "test_until_reruns_a_group_that_stopped_short",)),
    Mutant("any lane instead of every lane", "fidelity.py",
           "    return (_combine(e2, e1, None) < level).all(axis=0)\n",
           "    return (_combine(e2, e1, None) < level).any(axis=0)\n",
           (FIDELITY + "test_until_cuts_at_the_decided_column_inside_a_window",)),
    Mutant("last-piece assignment dropped", "pulsegen.py",
           "    inner[first[1:] - 1] = pts[1:]\n", "",
           ("tests/test_breakpoints.py::test_split_pieces_end_on_their_breakpoints",)),
    Mutant("piece-count shortcut loosened", "pulsegen.py",
           "np.abs(c).max()) - 1e-12) <= 1:", "np.abs(c).max()) - 1e-12) <= 2:",
           ("tests/test_breakpoints.py::test_piece_counts_at_the_split_boundaries[1.5]",)),
    Mutant("bootstrap window starts at j0", "fidelity.py",
           "if dips.any() else len(factors.grid)) - 1, 0)",
           "if dips.any() else len(factors.grid)), 0)",
           (FIDELITY + "test_bootstrap_window_keeps_an_early_dip_that_recovers",
            FIDELITY + "test_bootstrap_window_sees_a_mean_rounded_below_theta")),
    Mutant("2n eps room dropped", "fidelity.py",
           "    dips = (curves < theta * (1.0 + 2.0 * n * np.finfo(float).eps)).any(axis=0)\n",
           "    dips = (curves < theta).any(axis=0)\n",
           (FIDELITY + "test_bootstrap_window_sees_a_mean_rounded_below_theta",)),
    Mutant("Horner 1/24 -> 1/25", "oracle.py",
           "hL / 24.0", "hL / 25.0",
           ("tests/test_oracle.py::test_transfer_matrix_matches_stepwise_rk4",)),
    Mutant("no-control check back on the worker", "oracle.py",
           "    max_nocontrol = _nocontrol_dev(sys_nc, sim_nc)\n",
           "    max_nocontrol = (_nocontrol_dev(sys_nc, sim_nc) if executor is None\n"
           "                     else executor.submit(_nocontrol_dev, sys_nc, sim_nc).result())\n",
           (EXPCLI + "test_oracle_check_pool_is_one_worker_and_byte_identical[2]",)),
    Mutant("pulsed result taken before the no-control check", "oracle.py",
           "    max_nocontrol = _nocontrol_dev(sys_nc, sim_nc)\n"
           "    devs = _pulsed_devs(*pulsed) if future is None else future.result()\n",
           "    devs = _pulsed_devs(*pulsed) if future is None else future.result()\n"
           "    max_nocontrol = _nocontrol_dev(sys_nc, sim_nc)\n",
           (EXPCLI + "test_oracle_check_failure_reports_the_serial_error",)),
    Mutant("SIGTERM does not terminate the pool's workers", "expcli.py",
           "            process.terminate()\n",
           "            pass\n",
           (EXPCLI + "test_sigterm_ends_a_running_pool_task",)),
    Mutant("a failing run keeps its end of the result pipe", "expcli.py",
           "        executor._result_queue._writer.close()\n", "",
           (EXPCLI + "test_a_failing_run_ends_while_a_result_is_half_sent",)),
    Mutant("workers keep the default SIGINT", "expcli.py",
           "    signal.signal(signal.SIGINT, signal.SIG_IGN)\n", "",
           (EXPCLI + "test_ctrl_c_exits_130_with_one_line_and_no_worker_left",)),
    Mutant("lane-group cap on the pool dropped", "expcli.py",
           "    return min(cpus if workers == \"auto\" else workers, cpus, tasks)\n",
           "    return min(cpus if workers == \"auto\" else workers, cpus)\n",
           ("tests/test_expcli.py::test_default_starts_no_pool_without_two_lane_groups",)),
    Mutant("lone group mapped to the pool", "fidelity.py",
           "self.pool_tasks = len(self.groups) if len(self.groups) > 1 else 0",
           "self.pool_tasks = len(self.groups)",
           (FIDELITY + "test_a_lone_lane_group_never_reaches_the_pool",)),
    Mutant("scalar carry reset each window", "riccati.py",
           "        self.u, self.v = u, v\n", "",
           (RICCATI + "test_one_lane_windows_are_bitwise_the_default[random-w64]",)),
    Mutant("deviation-free sample count back to N", "fidelity.py",
           "self.n = n = 1 if pulses.is_regular else sim.ensemble_n",
           "self.n = n = sim.ensemble_n",
           (FIDELITY + "test_a_deviation_free_point_is_one_row_at_any_ensemble_size[whole-grid]",)),
    Mutant("len(ks) > 1 gate restored", "fidelity.py",
           "    if sim.integrator == \"exact\":\n",
           "    if sim.integrator == \"exact\" and len(ks) > 1:\n",
           (FIDELITY + "test_a_lone_lane_stops_early_in_the_exact_kernel",)),
    Mutant("curves-delta tau multiple 0.2 -> 0.25", "expcli.py",
           '("random", {"d_delta": 0.2, "d_tau": 0.2})',
           '("random", {"d_delta": 0.25, "d_tau": 0.2})',
           ("tests/test_golden.py::test_outputs_match_golden[curves-delta]",)),
    Mutant("fixed-key check dropped", "expcli.py",
           "    ignored = [flags.get(key, key) for key in overrides if key in fixed]\n",
           "    ignored = []\n",
           (EXPCLI + "test_every_override_reaches_every_point_or_exits_2[threshold-regular]",
            EXPCLI + "test_every_override_reaches_every_point_or_exits_2[curves-delta]")),
    Mutant("one-sample interval rule dropped", "expcli.py",
           "    elif factors.n == 1:  # a one-sample ensemble has no spread: its interval is (T, T)\n"
           "        ci = (t_val, t_val)\n", "",
           (EXPCLI + "test_deviation_free_rows_are_not_bootstrapped[threshold-mean-curve]",
            "tests/test_golden.py::test_outputs_match_golden[threshold-random-ensemble1]")),
    Mutant("base bundle validated again", "expcli.py",
           "        snapshot = {**_snapshot(build_bundle({})), **resolve_overrides(spec.overrides)}\n",
           "        snapshot = _snapshot(build_bundle(spec.overrides))\n",
           (EXPCLI + "test_an_invalid_base_configuration_does_not_fail_valid_points",)),
]


def fresh_src(scratch: Path) -> Path:
    """A clean copy of src/ under scratch."""
    src = scratch / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def run_nodes(src: Path, nodes) -> subprocess.CompletedProcess | None:
    """pytest on nodes against the package in src (None: timed out)."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *nodes]
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def run(mutant: Mutant, scratch: Path) -> str:
    """Apply mutant to a fresh copy of src/ and run its nodes: "killed",
    "killed (timed out)", "SURVIVED" or an error naming what went wrong."""
    path = fresh_src(scratch) / "randdd" / mutant.module
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        return f"ERROR: snippet found {text.count(mutant.snippet)} times in {mutant.module}"
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    proc = run_nodes(path.parent.parent, mutant.nodes)
    if proc is None:
        return "killed (timed out)"
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"


def main(words: list[str]) -> int:
    chosen = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    if not chosen:
        print("no mutant matches", *words)
        return 1
    failed = 0
    with tempfile.TemporaryDirectory(prefix="randdd-mutants-") as tmp:
        nodes = list(dict.fromkeys(node for mutant in chosen for node in mutant.nodes))
        proc = run_nodes(fresh_src(Path(tmp)), nodes)
        if proc is None or proc.returncode != 0:
            tail = "timed out" if proc is None else f"pytest exit {proc.returncode}\n{proc.stdout[-2000:]}"
            print(f"ERROR: the unmutated source fails the mutants' nodes: {tail}")
            return 1
        print(f"{len(nodes)} nodes pass on the unmutated source", flush=True)
        for mutant in chosen:
            t0 = time.perf_counter()
            outcome = run(mutant, Path(tmp))
            failed += not outcome.startswith("killed")
            print(f"{outcome:<20} {time.perf_counter() - t0:5.1f} s  {mutant.name}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
