"""Self-test of the benchmark at reduced size, about a minute on 2 cores.

    python3 bench/selftest.py

Run it from the repository root.  It checks that:
- every workload, untraced and traced, prints every metric BENCHMARK.json
  lists, with its unit, in a last line with exactly the four result keys;
- the reduced workloads pass every CHECK (correct, failed = 0);
- a sweep with a too-tight slope_rtol fails its slope-window check, so
  failed_frac > 0 and correct is false: the failure count can fail;
- a moved blow-up time is caught by the seed-0 reference comparison;
- run.py exits non-zero without a result line where src/ is missing.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def run_reduced(workload: str, trace: int, slope_rtol: float = workloads.SLOPE_RTOL):
    """run.main on the reduced inputs; returns (printed lines, result line)."""
    def reduced(name, seed):
        if name == "sweep":
            return workloads.sweep_invocations(workloads.inputs_for(seed), True, slope_rtol)
        return original(name, seed, reduced=True)

    original = workloads.invocations
    run.workloads.invocations = reduced
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace)])
    finally:
        run.workloads.invocations = original
    lines = out.getvalue().splitlines()
    expect(code == 0, f"{workload} trace={trace}: exit 0")
    return lines, json.loads(lines[-1])


def check_metrics(workload: str, trace: int, lines: list[str], result: dict) -> None:
    listed = SPEC["per_layer" if trace else "end_to_end"]
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload} trace={trace}: result keys")
    expect(list(result["metrics"]) == [m["name"] for m in listed],
           f"{workload} trace={trace}: every listed metric reported")
    wrong = [m["name"] for m in listed
             if result["metrics"][m["name"]]["unit"] != m["unit"]
             or not isinstance(result["metrics"][m["name"]]["value"], (int, float))
             or not any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                        for line in lines)]
    expect(not wrong, f"{workload} trace={trace}: every metric printed with its unit "
                      f"{wrong or ''}")


def main() -> int:
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            lines, result = run_reduced(workload, trace)
            check_metrics(workload, trace, lines, result)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} trace={trace}: every CHECK passes")

    lines, result = run_reduced("sweep", 0, slope_rtol=1e-4)
    failed_frac = next(float(line.split()[2]) for line in lines
                       if line.strip().startswith("failed_frac = "))
    expect(result["failed"] > 0 and failed_frac > 0 and not result["correct"]
           and result["metrics"]["pass_frac"]["value"] < 1.0,
           f"too-tight slope_rtol: failed_frac = {failed_frac:.3g} > 0")

    reference = json.loads((run.BENCH_DIR / "reference_seed0.json").read_text())
    moved = copy.deepcopy(reference["sweep"])
    moved["families"]["n2-poly"]["records"][4][1] += 0.01
    expect(run.reference_problems(moved, reference["sweep"]) != [],
           "a blow-up time moved by one step is caught by the reference")
    expect(run.reference_problems(reference["sweep"], reference["sweep"]) == [],
           "the reference matches itself")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed",
                           "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without src/ run.py exits non-zero and prints no result")
    shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
