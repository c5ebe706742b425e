"""Print the sha256 of every artifact and stdout of a fixed set of CLI runs
and of a regenerated frozen config table, then the Monte Carlo tau_bar at a
fixed set of seeds.

Each run goes through ``screenlab.cli.main`` inside a temporary directory.
A run that writes to ``--out`` contributes every file it writes except
``run_manifest.json``, which holds timestamps; a run without ``--out``
contributes what it printed.  Lines read ``sha256  run/artifact``, in run
order and then by artifact name.  Then ``scripts/gen_random_configs.py``
regenerates the frozen config table in the same temporary directory, and
its line reads ``sha256  gen-random-configs/random_configs.json``: it equals
the sha256 of the committed ``tests/data/random_configs.json`` exactly when
the package still reproduces that table.  After them, one line per seed of
MC_SEEDS reads ``value standard_error passes  mc-tau-bar/seed-N``, the
``repr`` of each float of ``find_tau_bar(baseline, "mc", m=100_000)``.

Running this at two commits and diffing the output shows whether a change
kept every CLI artifact and the config table byte-identical, and every
Monte Carlo root and standard error bit-identical:

    PYTHONPATH=src python3 scripts/artifact_digests.py > after.txt
    diff before.txt after.txt

The config table takes ~4 s of the few seconds a run needs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "configs", "baseline.json")
IRREGULAR = os.path.join(ROOT, "configs", "irregular.json")
OUT = "{out}"  # replaced by the run's own output directory
MANIFEST = "run_manifest.json"
GENERATOR = os.path.join(ROOT, "scripts", "gen_random_configs.py")

# run name -> argv; simulate-1m is the benchmark's simulate-1m input at seed 1
RUNS = {
    "sweep-baseline": ["sweep", "--config", BASELINE, "--theta-grid=-2:2:21", "--out", OUT],
    "sweep-irregular": ["sweep", "--config", IRREGULAR, "--theta=-1,0,0.5,1.5", "--out", OUT],
    "simulate-1m": ["simulate", "--config", BASELINE, "--m", "1000000", "--tau=0.0",
                    "--seed", "1016164991", "--out", OUT],
    "simulate-irregular": ["simulate", "--config", IRREGULAR, "--m", "20000", "--tau=0.3",
                           "--seed", "5", "--bins", "20", "--out", OUT],
    "scores": ["scores", "--config", BASELINE, "--theta=-1,0,1", "--out", OUT],
    "regret": ["regret", "--config", BASELINE, "--theta", "0.3", "--q", "1",
               "--tau-grid=-0.9:0.9:101", "--out", OUT],
    # tables of more than one CSV chunk (16,384 rows): 40,000 and 16,400 rows
    "regret-long": ["regret", "--config", BASELINE, "--theta", "0.3", "--q", "0",
                    "--tau-grid=-0.9:0.9:20000", "--out", OUT],
    "scores-grid": ["scores", "--config", BASELINE, "--theta-grid=-2:2:41", "--out", OUT],
    "tau-theta0": ["tau", "--config", BASELINE, "--theta", "0.0"],
    "tau-grid-q1": ["tau", "--config", BASELINE, "--theta-grid=-2:2:21", "--q", "1"],
    "classify-irregular": ["classify", "--config", IRREGULAR],
}

# seeds of the Monte Carlo tau_bar lines, each at m = 100_000
MC_SEEDS = (1, 7, 123, 1547)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(work: str) -> list[str]:
    """``sha256  run/artifact`` for every run, in run order."""
    from screenlab import cli

    lines = []
    for name, template in RUNS.items():
        out = os.path.join(work, name)
        argv = [out if arg == OUT else arg for arg in template]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            status = cli.main(argv)
        if status != 0:
            raise SystemExit(f"{name}: screenlab {' '.join(argv)} exited {status}")
        if OUT not in template:
            lines.append(f"{_sha256(printed.getvalue().encode('utf-8'))}  {name}/stdout")
            continue
        for artifact in sorted(os.listdir(out)):
            if artifact != MANIFEST:
                with open(os.path.join(out, artifact), "rb") as fh:
                    lines.append(f"{_sha256(fh.read())}  {name}/{artifact}")
    return lines


def config_table(work: str) -> str:
    """``sha256  gen-random-configs/random_configs.json`` of the table that
    GENERATOR writes, run by this interpreter with this environment."""
    path = os.path.join(work, "random_configs.json")
    done = subprocess.run([sys.executable, GENERATOR, "--out", path],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{GENERATOR} exited {done.returncode}:\n{done.stderr}")
    with open(path, "rb") as fh:
        return f"{_sha256(fh.read())}  gen-random-configs/random_configs.json"


def mc_tau_bars() -> list[str]:
    """``value standard_error passes  mc-tau-bar/seed-N`` for each seed."""
    from screenlab import ModelConfig, find_tau_bar

    config = ModelConfig.from_json_path(BASELINE)
    lines = []
    for seed in MC_SEEDS:
        result = find_tau_bar(config, "mc", m=100_000, seed=seed)
        lines.append(f"{result.value!r} {result.standard_error!r} {result.passes}  "
                     f"mc-tau-bar/seed-{seed}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        for line in digests(work):
            print(line)
        print(config_table(work))
    for line in mc_tau_bars():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
