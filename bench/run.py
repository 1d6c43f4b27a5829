"""blowup-lab benchmark: one workload, run through `blowup_lab.cli.main` in a
closed loop of passes, reported as one JSON line.

    python3 bench/run.py --workload {sweep,critical,modal} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root: it imports the lab from `src/` and writes
configs, artifacts, spans and the full result record under `.bench_out/`.

--trace 0 times untraced passes (the CLI's default sweep worker count)
until the next pass would end after S seconds, and reports the end-to-end
metrics.  Each CLI invocation is followed by a calibration kernel
(calibration.py); the timings are reported in reference seconds, scaled by
that kernel, so that most of the drifting speed of a shared host cancels.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics from the spans; a traced sweep uses `workers: 1`, because
spans of pool workers never reach this process.  The metric names and
units come from BENCHMARK.json; see bench/README.md for what each means.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
`attempted` counts CLI invocations plus CHECK lines, `failed` the non-zero
exits plus failing CHECK lines.  `correct` also needs byte-identical
artifacts across passes, fingerprints consistent with the CSV artifacts,
and, for seed 0, the fingerprints in bench/reference_seed0.json.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import setup_probe
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 4  # fresh interpreters, on top of the in-process set-up
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
             "BLOWUP_LAB_THREADS")
CHECK_RE = re.compile(r"^CHECK (\S+): (PASS|FAIL) \((.*)\)$")
# theoretical lifespan exponents of the sweep families (the paper's law)
THEORY = {1: -2.0 / 3.0, 2: -6.0 / 17.0}


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_invocation(cli, inv, config: Path, out_dir: Path) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([inv.command, "--config", str(config), "--out", str(out_dir)])
    except Exception:
        code = -1
        sink.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    calib = calibration.calibrate()
    checks, files = [], {}
    if out_dir.is_dir():
        summary = out_dir / "summary.txt"
        if summary.is_file():
            for line in summary.read_text().splitlines():
                m = CHECK_RE.match(line)
                if m:
                    checks.append((m.group(1), m.group(2) == "PASS", m.group(3)))
        files = {p.name: _sha256(p) for p in sorted(out_dir.iterdir())}
    nbytes = sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0
    return {"label": inv.label, "wall_s": wall, "calib_s": calib, "code": code,
            "checks": checks,
            "sha256": files, "bytes": nbytes,
            "output": sink.getvalue() if code != 0 else ""}


def run_pass(cli, invs, configs, out: Path, kind: str) -> dict:
    rows = [run_invocation(cli, inv, cfg, out / "artifacts" / inv.label)
            for inv, cfg in zip(invs, configs)]
    return {"kind": kind, "wall_s": sum(r["wall_s"] for r in rows), "invocations": rows}


class Taps:
    """Observes results the CLI does not print in full: the CriticalReport
    of each critical verification, and the peak RSS of sweep pool workers
    (the sum of their VmHWM, read just before the pool shuts down)."""

    def __init__(self, simulator):
        self.simulator = simulator
        self.critical: list = []
        self.pools: list[tuple[int, int]] = []  # (max_workers, summed VmHWM kB)

    @contextlib.contextmanager
    def installed(self):
        sim = self.simulator
        verify, pool_cls = sim.verify_critical_inequalities, sim.ProcessPoolExecutor
        taps = self

        @functools.wraps(verify)  # keeps __module__, so a Tracer still wraps it
        def verify_tap(*args, **kwargs):
            report = verify(*args, **kwargs)
            taps.critical.append(report)
            return report

        class MeasuredPool(pool_cls):
            def shutdown(self, *args, **kwargs):
                pids = list(getattr(self, "_processes", None) or {})
                taps.pools.append((self._max_workers, sum(_vm_hwm_kb(p) for p in pids)))
                super().shutdown(*args, **kwargs)

        sim.verify_critical_inequalities = verify_tap
        sim.ProcessPoolExecutor = MeasuredPool
        try:
            yield self
        finally:
            sim.verify_critical_inequalities = verify
            sim.ProcessPoolExecutor = pool_cls


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ---------------------------------------------------------------------------
# correctness: fingerprints, determinism, reference
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _check_detail(row: dict, name: str) -> str:
    for check, _, detail in row["checks"]:
        if check == name:
            return detail
    return ""


def sweep_fingerprint(invs, last: dict, out: Path, problems: list) -> tuple[dict, float]:
    import numpy as np

    families, margin = {}, math.inf
    for inv, row in zip(invs, last["invocations"]):
        path = out / "artifacts" / inv.label / "records.csv"
        if not path.is_file():
            problems.append(f"{inv.label}: no records.csv")
            continue
        recs = [(float(r[0]), float(r[1]), r[2]) for r in _read_csv(path)]
        eps = np.array([r[0] for r in recs])
        t_blow = np.array([r[1] for r in recs])
        if [r[0] for r in recs] != [float(e) for e in inv.config["eps_list"]]:
            problems.append(f"{inv.label}: records.csv eps differ from the config")
        if any(r[2] == "Survived" for r in recs):
            problems.append(f"{inv.label}: a run survived to the horizon")
        if np.any(np.diff(t_blow[np.argsort(-eps)]) < 0):
            problems.append(f"{inv.label}: a smaller eps blew up sooner")
        slope = float(np.polyfit(np.log(eps), np.log(t_blow), 1)[0])
        theory = THEORY[inv.config["n"]]
        m = re.search(r"slope=(\S+) theory=(\S+)", _check_detail(row, "sweep-fit"))
        if not m or abs(float(m.group(1)) - slope) > 1e-5 * abs(slope):
            problems.append(f"{inv.label}: printed slope disagrees with the refit {slope!r}")
        if not m or abs(float(m.group(2)) - theory) > 1e-5 * abs(theory):
            problems.append(f"{inv.label}: printed theory exponent is not {theory!r}")
        rel_err = abs(slope - theory) / abs(theory)
        margin = min(margin, 1.0 - rel_err / inv.config["slope_rtol"])
        families[inv.label] = {"records": [list(r) for r in recs], "slope": slope,
                               "theory": theory, "slope_rel_err": rel_err}
    return {"families": families}, margin


def critical_fingerprint(invs, last: dict, out: Path, taps: Taps, problems: list):
    inv, row = invs[0], last["invocations"][0]
    if not taps.critical:
        problems.append("critical: no CriticalReport observed")
        return {}, math.nan
    report = taps.critical[-1]  # that of the last pass
    m = re.search(r"checked (\d+) times", _check_detail(row, "critical-bounds"))
    checked = int(m.group(1)) if m else -1
    if checked != report.t_checked.size:
        problems.append(f"critical: printed checked count {checked} != {report.t_checked.size}")
    trace = out / "artifacts" / inv.label / "trace.csv"
    t_end = float(_read_csv(trace)[-1][0]) if trace.is_file() else math.nan
    if not abs(t_end - inv.config["horizon"]) <= 1e-6 * inv.config["horizon"]:
        problems.append(f"critical: the run stopped at t={t_end!r} before the horizon")
    fp = {"checked": checked, "log_ratio_min": report.log_ratio_min, "t_end": t_end}
    return fp, report.log_ratio_min


def modal_fingerprint(invs, last: dict, out: Path, problems: list):
    inv, row = invs[0], last["invocations"][0]
    path = out / "artifacts" / inv.label / "kernel_bounds.csv"
    consts = {r[0]: float(r[-1]) for r in _read_csv(path)} if path.is_file() else {}
    if len(consts) != 4 * len(inv.config["orders"]):
        problems.append(f"modal: expected {4 * len(inv.config['orders'])} kernel constants")
    detail = _check_detail(row, "fundamental-pair-bounds")
    for lam in inv.config["lambdas"]:
        if f"lam={lam:g}:ok" not in detail:
            problems.append(f"modal: lambda={lam:g} not reported ok")
    return {"kernel_constants": consts}, min(consts.values(), default=math.nan)


def determinism_problems(passes: list) -> list[str]:
    problems = []
    first = {r["label"]: r["sha256"] for r in passes[0]["invocations"]}
    for p in passes[1:]:
        for r in p["invocations"]:
            if r["sha256"] != first[r["label"]]:
                problems.append(f"{r['label']}: artifacts differ between passes ({p['kind']})")
    return problems


def reference_problems(fp: dict, ref: dict, rtol: float = 1e-9) -> list[str]:
    """Strings and counts must match exactly, floats to rtol: a reordered
    sum may move the last bits of a derived value, while a moved blow-up
    time moves by a whole time step."""
    problems = []

    def walk(a, b, where):
        if isinstance(b, dict):
            if not isinstance(a, dict) or set(a) != set(b):
                problems.append(f"{where}: keys differ from the reference")
                return
            for k in b:
                walk(a[k], b[k], f"{where}.{k}")
        elif isinstance(b, list):
            if not isinstance(a, list) or len(a) != len(b):
                problems.append(f"{where}: length differs from the reference")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{where}[{i}]")
        elif isinstance(b, float):
            if not abs(a - b) <= rtol * abs(b):
                problems.append(f"{where}: {a!r} != reference {b!r}")
        elif a != b:
            problems.append(f"{where}: {a!r} != reference {b!r}")

    walk({k: v for k, v in fp.items() if k != "csv_sha256"}, ref, "fingerprint")
    return problems


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------


def layer_metrics(tr: tracing.Tracer, pass_id: int, counts: dict, traced: dict,
                  untraced_walls: list[float], workers: int) -> dict:
    spans = tr.pass_summary(pass_id)

    def calls(name):
        return spans.get(name, [0, 0, 0])[0]

    def secs(name, self_time=False):
        return spans.get(name, [0, 0, 0])[2 if self_time else 1] / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    steps = calls("simulator.step")
    runs = tr.children("simulator.lifespan_sweep", "simulator.run_until_blowup", pass_id)
    runs = [g for g in runs if g]
    m = {
        "simulator.step.calls": steps,
        "simulator.step.s": secs("simulator.step"),
        "simulator.step.active_frac": ratio(counts.get("step.active_frac_sum", 0.0), steps),
        "simulator.functionals.calls": calls("simulator.GridState.functionals"),
        "simulator.functionals.s": secs("simulator.GridState.functionals"),
        "simulator.sup_norm.s": secs("simulator.GridState.sup_norm"),
        "simulator.init.s": secs("simulator.init_state"),
        "simulator.sweep.imbalance": max((max(g) / statistics.mean(g) for g in runs),
                                         default=0.0),
        "simulator.sweep.fanout_eff": ratio(sum(map(sum, runs)) / 1e9,
                                            workers * sum(untraced_walls)) if runs else 0.0,
        "simulator.snapshots.bytes": counts.get("snapshots.bytes", 0.0),
        "simulator.verify_identities.s": secs("simulator.verify_identities"),
        "simulator.verify_critical_inequalities.self_s":
            secs("simulator.verify_critical_inequalities", self_time=True),
        "simulator.verify_critical_inequalities.kernel_evals":
            counts.get("critical.kernel_evals", 0.0),
        "auxiliary.KernelQuadrature.calls": calls("auxiliary.KernelQuadrature.__init__"),
        "auxiliary.KernelQuadrature.s": secs("auxiliary.KernelQuadrature.__init__"),
        "auxiliary.KernelQuadrature.phi_points": counts.get("quadrature.phi_points", 0.0),
        "auxiliary.solve_fundamental_pair.calls": calls("auxiliary.solve_fundamental_pair"),
        "auxiliary.solve_fundamental_pair.steps": counts.get("rk4.steps", 0.0),
        "auxiliary.solve_fundamental_pair.us_per_step":
            1e6 * ratio(secs("auxiliary.solve_fundamental_pair"), counts.get("rk4.steps", 0.0)),
        "auxiliary.solve_fundamental_pair.s": secs("auxiliary.solve_fundamental_pair"),
        "auxiliary.verify_fundamental_bounds.self_s":
            secs("auxiliary.verify_fundamental_bounds", self_time=True),
        "auxiliary.fundamental_identity_v.s": secs("auxiliary.fundamental_identity_v"),
        "auxiliary.fit_kernel_bounds.s": secs("auxiliary.fit_kernel_bounds"),
        "damping.b.calls": counts.get("damping.b.calls", 0.0),
        "cli.main.s": secs("cli.main"),
        "cli.io.s": secs("simulator.write_trace_csv") + secs("simulator.write_records_csv")
        + secs("plotting.emit_plot"),
        "cli.artifacts.bytes": sum(r["bytes"] for r in traced["invocations"]),
    }
    for n in (1, 2, 3):
        m[f"simulator.step.us_per_node.n{n}"] = 1e-3 * ratio(
            counts.get(f"step.ns.n{n}", 0.0), counts.get(f"step.nodes.n{n}", 0.0))
    return m


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def git_sha(root: Path):
    """HEAD of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((root / "src" / "blowup_lab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "git_sha": git_sha(root),
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def _median_p90(values: list[float]) -> dict:
    ordered = sorted(values)
    p90 = ordered[min(len(ordered) - 1, math.ceil(0.9 * len(ordered)) - 1)]
    return {"median": statistics.median(values), "p90": p90, "count": len(values)}


def setup_samples(root: Path, workload: str, seed: int, out: Path,
                  first: tuple[float, float]) -> list[tuple[float, float]]:
    """(set-up seconds, calibration seconds) of each set-up."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = [first]
    for i in range(SETUP_PROBES):
        cfg_dir = out / f"probe{i}"
        cfg_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed),
             str(cfg_dir)], env=env, capture_output=True, text=True, timeout=120, check=True)
        setup, calib = proc.stdout.split()[-2:]
        samples.append((float(setup), float(calib)))
    return samples


def run_passes(cli, invs, configs, serial, out: Path, seconds: float, trace: bool,
               taps: Taps, tr: tracing.Tracer) -> tuple[list, list]:
    """The closed loop of passes; returns (passes, per-layer rows of the
    traced passes)."""
    passes, layer_rows = [], []
    t_begin = time.perf_counter()
    if not trace:
        while True:
            passes.append(run_pass(cli, invs, configs, out, "untraced"))
            elapsed = time.perf_counter() - t_begin
            if elapsed + statistics.median(p["wall_s"] for p in passes) > seconds:
                return passes, layer_rows
    # sweep: the parallel pass gives the family walls for fanout_eff, the
    # untraced serial pass the base for trace.overhead_s
    passes.append(run_pass(cli, invs, configs, out, "untraced"))
    if serial is not None:
        passes.append(run_pass(cli, invs, serial, out, "untraced-w1"))
    family_walls = [r["wall_s"] for r in passes[0]["invocations"]]
    workers = max((w for w, _ in taps.pools), default=1)
    while True:
        tr.pass_id += 1
        tracing.install_lab_tracing(tr)
        try:
            traced = run_pass(cli, invs, serial or configs, out, "traced")
        finally:
            tr.remove()
        passes.append(traced)
        layer_rows.append(layer_metrics(tr, tr.pass_id, dict(tr.counts), traced,
                                        family_walls, workers))
        tr.counts.clear()
        elapsed = time.perf_counter() - t_begin
        if serial is not None or elapsed + passes[0]["wall_s"] + traced["wall_s"] > seconds:
            return passes, layer_rows
        passes.append(run_pass(cli, invs, configs, out, "untraced"))


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                  invs: list, reference: dict | None = None) -> tuple[dict, dict]:
    """Returns (result line, full record)."""
    out = root / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "configs").mkdir(parents=True)
    (out / "tmp").mkdir()
    os.environ["TMPDIR"] = str(out / "tmp")

    cli, configs, first_setup = setup_probe.timed_setup(invs, out / "configs")
    first_setup = (first_setup, calibration.calibrate())
    from blowup_lab import simulator

    serial = None
    if workload == "sweep" and trace:
        serial = setup_probe.write_configs(invs, out / "configs", suffix="-w1", workers=1)
    taps, tr = Taps(simulator), tracing.Tracer()
    with taps.installed():
        passes, layer_rows = run_passes(cli, invs, configs, serial, out, seconds, trace,
                                        taps, tr)
    if trace:
        tr.write(out / "trace_spans.csv")

    rows = [r for p in passes for r in p["invocations"]]
    attempted = sum(1 + len(r["checks"]) for r in rows)
    failed = sum((r["code"] != 0) + sum(not ok for _, ok, _ in r["checks"]) for r in rows)
    problems = [f"{r['label']}: exit {r['code']}: {r['output'].strip()[-300:]}"
                for r in rows if r["code"] != 0]
    problems += [f"{r['label']}: CHECK {name} FAIL ({detail})"
                 for r in rows for name, ok, detail in r["checks"] if not ok]
    problems += determinism_problems(passes)
    last = passes[-1]  # the artifacts on disk are the last pass's
    if workload == "sweep":
        fp, margin = sweep_fingerprint(invs, last, out, problems)
    elif workload == "critical":
        fp, margin = critical_fingerprint(invs, last, out, taps, problems)
    else:
        fp, margin = modal_fingerprint(invs, last, out, problems)
    fp["csv_sha256"] = {f"{r['label']}/{name}": digest for r in last["invocations"]
                        for name, digest in r["sha256"].items() if name.endswith(".csv")}
    if reference is not None:
        problems += reference_problems(fp, reference[workload])

    untraced = [p for p in passes if p["kind"] == "untraced"]
    if not trace:
        setup = setup_samples(root, workload, seed, out, first_setup)
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ref = calibration.reference_seconds
        metrics = {
            # per invocation the median over passes, summed over the pass
            "wall_ref_s": sum(statistics.median(ref(r["wall_s"], r["calib_s"])
                                                for p in untraced for r in p["invocations"]
                                                if r["label"] == inv.label)
                              for inv in invs),
            "setup_s": statistics.median(ref(s, c) for s, c in setup),
            "peak_rss_mb": (self_kb + max((kb for _, kb in taps.pools), default=0)) / 1024.0,
            "pass_frac": 1.0 - failed / attempted,
            # non-finite only when artifacts are missing, already a problem
            "check_margin": margin if math.isfinite(margin) else 0.0,
        }
        extra = {"setup_s_samples": setup,
                 "wall_s": _median_p90([p["wall_s"] for p in untraced]),
                 "calib_s": _median_p90([r["calib_s"] for p in untraced
                                         for r in p["invocations"]]),
                 "failed_frac": failed / attempted}
    else:
        # each traced pass against the untraced pass just before it, which
        # ran the same configs; pairing cancels the machine's slow drift
        pairs = [(passes[i - 1]["wall_s"], p["wall_s"]) for i, p in enumerate(passes)
                 if p["kind"] == "traced"]
        metrics = {k: statistics.median(row[k] for row in layer_rows) for k in layer_rows[0]}
        metrics["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
        extra = {"untraced_traced_wall_s": pairs}

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "inputs": [inv.config for inv in invs],
        "environment": environment(root),
        "passes": [{"kind": p["kind"], "wall_s": p["wall_s"],
                    "invocations": {r["label"]: [r["wall_s"], r["calib_s"]]
                                    for r in p["invocations"]}}
                   for p in passes],
        "fingerprints": fp,
        "problems": problems,
        "metrics": metrics,
        **extra,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1, default=str))
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "blowup_lab" / "cli.py").is_file():
        print(f"error: no src/blowup_lab under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(root / "src"))

    reference = None
    if args.seed == 0:
        reference = json.loads((BENCH_DIR / "reference_seed0.json").read_text())
    invs = workloads.invocations(args.workload, args.seed)
    result, record = run_benchmark(root, args.workload, args.seed, args.seconds,
                                   bool(args.trace), invs, reference)
    computed = result["metrics"]
    if set(computed) != {m["name"] for m in listed}:
        print(f"error: computed metrics {sorted(computed)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                         for m in listed}

    for m in listed:
        print(f"{m['name']} = {computed[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        w, c = record["wall_s"], record["calib_s"]
        print(f"  wall_s (unscaled): median {w['median']:.4g} s, p90 {w['p90']:.4g} s, "
              f"{w['count']} passes; calibration kernel: median {c['median']:.4g} s, "
              f"p90 {c['p90']:.4g} s, reference {calibration.REF_CALIB_S:g} s")
        print(f"  failed_frac = {record['failed_frac']:.6g} ratio "
              f"({result['failed']} of {result['attempted']} attempted)")
    for problem in record["problems"]:
        print(f"PROBLEM {problem}")
    print("record " + json.dumps({k: record[k] for k in ("environment", "fingerprints")},
                                 default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
