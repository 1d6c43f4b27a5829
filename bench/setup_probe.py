"""Set-up cost of one blowup-lab invocation: import the CLI (and with it
numpy and every lab module) and write the workload's JSON configs.

    PYTHONPATH=src python3 bench/setup_probe.py <workload> <seed> <config dir>

prints the seconds it took and then the seconds of one calibration kernel
(calibration.py) run right after.  `bench/run.py` calls `timed_setup` once
in its own process and runs this script a few more times in fresh
interpreters.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import calibration
import workloads


def write_configs(invs, config_dir: Path, suffix: str = "", **extra) -> list[Path]:
    paths = []
    for inv in invs:
        path = config_dir / f"{inv.label}{suffix}.json"
        path.write_text(json.dumps({**inv.config, **extra}, indent=1))
        paths.append(path)
    return paths


def timed_setup(invs, config_dir: Path):
    """Import the CLI and write the configs; returns (cli module, config
    paths, seconds).  Only the first call in a process measures an import."""
    t0 = time.perf_counter()
    from blowup_lab import cli

    paths = write_configs(invs, config_dir)
    return cli, paths, time.perf_counter() - t0


if __name__ == "__main__":
    workload, seed, config_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    _, _, seconds = timed_setup(workloads.invocations(workload, seed), config_dir)
    print(repr(seconds), repr(calibration.calibrate()))
