"""Byte-identity of CLI outputs for every experiment, at small sizes.

Each call below runs at a small size and its output files are compared,
by sha256, against the hashes in `golden_expcli.json`. A manifest is
compared with its `wall_clock_s` value blanked, since that is the only
field that may change between runs, and without its `numeric_env` entry,
which names the host's Python, numpy and dispatch level. Regenerate the
file only for a change that is meant to alter outputs, and say why in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_expcli.json
"""
import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from randdd import expcli
from randdd.expcli import main

GOLDEN = Path(__file__).with_name("golden_expcli.json")

SMALL = ["--ensemble", "6", "--seed", "777"]
RANDOM = ["--set", "pulses.d_tau=0.004", "--set", "pulses.d_delta=0.002"]
EARLY = ["--set", "sim.threshold=0.995"]  # T rows cross inside the short horizons

CALLS = {
    "sweep-phi": ["sweep", "--param", "phi", "--gammas", "0.9", "--grid", "0:0.5:0.5",
                  "--tmax", "4", *SMALL, *EARLY],
    "sweep-delta-threads2": ["sweep", "--param", "delta", "--gammas", "0.5,0.9", "--grid", "0:0.4:0.4",
                             "--tmax", "5", "--threads", "2", *SMALL, *EARLY],
    "threshold-random": ["threshold", "--random", "--gammas", "0.5,0.9", "--tmax", "6",
                         "--grid-dt", "0.02", *SMALL, *RANDOM, *EARLY],
    "threshold-random-crossings": ["threshold", "--random", "--gammas", "0.9", "--tmax", "6",
                                   "--grid-dt", "0.02", "--t-mode", "mean-crossings", *SMALL, *RANDOM,
                                   *EARLY],
    "run-random-mu2-schedule": ["run", "--mu2", "0.3", "--save-schedule", "--tmax", "3", *SMALL, *RANDOM],
    "run-nocontrol-traj": ["run", "--no-control", "--dump-traj", "--tmax", "3", "--seed", "777"],
    "run-regular-mu2-traj": ["run", "--regular", "--mu2", "0.7", "--dump-traj", "--tmax", "3",
                             "--seed", "777"],
    "run-nocontrol-rk4-traj": ["run", "--no-control", "--dump-traj", "--set", "sim.integrator=rk4",
                               "--tmax", "2", "--seed", "777"],
    "run-regular-mu2-rk4-traj": ["run", "--regular", "--mu2", "0.7", "--dump-traj", "--set",
                                 "sim.integrator=rk4", "--tmax", "2", "--seed", "777"],
    "oracle-check-threads1": ["oracle-check", "--step", "1e-3", "--threads", "1"],
    "curves-delta": ["curves", "--family", "delta", "--tmax", "1", "--grid-dt", "0.02", *SMALL],
    "curves-deltatau": ["curves", "--family", "deltatau", "--tmax", "1", "--grid-dt", "0.02", *SMALL],
    "curves-mu": ["curves", "--family", "mu", "--tmax", "1", "--grid-dt", "0.02", *SMALL],
    "threshold-nocontrol": ["threshold", "--no-control", "--gammas", "0.5,0.9", "--tmax", "2",
                            "--seed", "777"],
    "threshold-regular": ["threshold", "--regular", "--gammas", "0.5,0.9", "--tmax", "6",
                          "--grid-dt", "0.02", "--seed", "777", *EARLY],
    "sweep-tau": ["sweep", "--param", "tau", "--gammas", "0.9", "--grid", "0:0.5:0.5",
                  "--tmax", "4", *SMALL, *EARLY],
    # deviation-free random points: every sample is the regular train
    "threshold-random-regular": ["threshold", "--random", "--gammas", "0.5,0.9", "--tmax", "6",
                                 "--grid-dt", "0.02", *SMALL, *EARLY],
    "threshold-random-regular-crossings": ["threshold", "--random", "--gammas", "0.5,0.9", "--tmax", "6",
                                           "--grid-dt", "0.02", "--t-mode", "mean-crossings", *SMALL,
                                           *EARLY],
    "run-random-regular-mu2": ["run", "--mu2", "0.3", "--tmax", "3", *SMALL],
    # one-sample random ensembles: the interval is T, with no bootstrap
    "threshold-random-ensemble1": ["threshold", "--random", "--gammas", "0.5,0.9", "--tmax", "6",
                                   "--grid-dt", "0.02", "--ensemble", "1", "--seed", "777", *RANDOM, *EARLY],
    "threshold-random-ensemble1-crossings": ["threshold", "--random", "--gammas", "0.5,0.9", "--tmax", "6",
                                             "--grid-dt", "0.02", "--t-mode", "mean-crossings", "--ensemble",
                                             "1", "--seed", "777", *RANDOM, *EARLY],
    # the two ends of a group's early stop: a lone deviation-free lane whose
    # last window runs past its stop column, and rows that never cross, so
    # every group runs its whole table once
    "threshold-random-regular-g02": ["threshold", "--random", "--gammas", "0.2", *SMALL],
    "sweep-tau-uncrossed": ["sweep", "--param", "tau", "--gammas", "0.2", "--grid", "0:0.5:0.5",
                            "--tmax", "40", *SMALL],
}
ONE_SAMPLE = ("threshold-random-ensemble1", "threshold-random-ensemble1-crossings")


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        data = re.sub(rb'"wall_clock_s": [^\n]*', b'"wall_clock_s": 0', data)
        data = re.sub(rb' "numeric_env": \{[^}]*\},\n', b"", data)
    return hashlib.sha256(data).hexdigest()


def run_call(argv, out: Path) -> dict:
    assert main([*argv, "--out", str(out)]) == 0
    return {p.name: _digest(p) for p in sorted(out.iterdir())}


def _no_bootstrap(*args, **kwargs):
    raise AssertionError("a one-sample ensemble was bootstrapped")


@pytest.mark.parametrize("label", sorted(CALLS))
def test_outputs_match_golden(tmp_path, monkeypatch, label):
    if label in ONE_SAMPLE:
        monkeypatch.setattr(expcli, "bootstrap_threshold_ci", _no_bootstrap)
    golden = json.loads(GOLDEN.read_text())
    assert run_call(CALLS[label], tmp_path) == golden[label]


if __name__ == "__main__":
    import contextlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        digests = {label: run_call(argv, Path(tmp) / label) for label, argv in sorted(CALLS.items())}
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
