"""Experiment orchestration CLI.

Usage: blowup-lab <command> --config <file.json> --out <dir>

Commands: classify, iterate, kernels, simulate, sweep, verify.  Each reads
a JSON config (unknown keys rejected), writes CSV/SVG artifacts plus a
human-readable summary with one machine-parsable line per check, and exits
0 iff every asserted check passes (2 on config errors, 1 on a failed check).
All outputs are deterministic: identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from blowup_lab import auxiliary, damping, exponents, iteration, plotting, simulator


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name}: {status} ({self.detail})"


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict) or not cfg:
        raise ConfigError("config must be a non-empty JSON object")
    return cfg


def _check_keys(cfg: dict, allowed: set[str], context: str) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{context} block must be a JSON object, got {cfg!r}")
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


def _convert(cfg: dict, key: str, convert, default=None):
    """cfg[key] (or the default) passed through convert; a value convert
    rejects becomes a config error that names the key."""
    try:
        return convert(cfg.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}")


def _whole(value) -> int:
    """A whole number >= 1; an integral float such as 3.0 is accepted."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"must be a whole number >= 1, got {value!r}")
    return value


def _positive(value) -> float:
    x = float(value)
    if not 0.0 < x < math.inf:
        raise ValueError(f"must be finite and positive, got {value!r}")
    return x


def _pair(value) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"must be a list of two numbers, got {value!r}")
    return float(value[0]), float(value[1])


def _bool(value) -> bool:
    """A JSON true or false; a string such as "false" is rejected."""
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _flags(value) -> tuple[bool, bool]:
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, bool) for v in value)):
        raise ValueError(f"must be a list of two booleans, got {value!r}")
    return value[0], value[1]


def _list_of(convert):
    def parse(value) -> list:
        if not isinstance(value, list) or not value:
            raise ValueError(f"must be a non-empty list, got {value!r}")
        return [convert(v) for v in value]

    return parse


def _exponent(value, name: str):
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{name} must be a number or a fraction string, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    return float(value)


def _params(cfg: dict) -> exponents.SystemParams:
    for key in ("n", "p", "q"):
        if key not in cfg:
            raise ConfigError(f"missing required key {key!r}")
    try:
        return exponents.SystemParams(
            n=_convert(cfg, "n", _whole),
            p=_exponent(cfg["p"], "p"),
            q=_exponent(cfg["q"], "q"),
            R=_convert(cfg, "R", float, 1.0),
            eps=_convert(cfg, "eps", float, 1.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _damping(block) -> damping.DampingProfile:
    if block is None:
        return damping.DampingProfile.zero()
    _check_keys(block, {"kind", "mu", "beta", "csv"}, "damping")
    kind = block.get("kind", "zero")
    try:
        if kind == "zero":
            return damping.DampingProfile.zero()
        if kind == "poly":
            return damping.DampingProfile.polynomial_tail(
                _convert(block, "mu", float, 1.0), _convert(block, "beta", float, 2.0)
            )
        if kind == "tabulated":
            if "csv" not in block:
                raise ConfigError("tabulated damping needs a 'csv' path")
            return damping.DampingProfile.from_csv(block["csv"])
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad damping block: {exc}")
    raise ConfigError(f"unknown damping kind {kind!r}")


def _grid(cfg: dict) -> simulator.GridConfig:
    try:
        return simulator.GridConfig(
            dr=_convert(cfg, "dr", float, 0.02),
            cfl=_convert(cfg, "CFL", float, 0.5),
            horizon=_convert(cfg, "horizon", float, 10.0),
            threshold=_convert(cfg, "threshold", float, 1e10),
            rmax=_convert(cfg, "rmax", float) if "rmax" in cfg else None,
            sample_every=_convert(cfg, "sample_every", int, 1),
            snapshot_every=(
                _convert(cfg, "snapshot_every", int)
                if cfg.get("snapshot_every") is not None else None
            ),
            linear_mode=_convert(cfg, "linear_mode", _bool, False),
            enforce_cone=_convert(cfg, "enforce_cone", _bool, True),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _data(block) -> simulator.InitialData:
    if block is None:
        return simulator.InitialData()
    _check_keys(block, {"u0", "u1", "v0", "v1"}, "data")
    return simulator.InitialData(
        u0_amp=_convert(block, "u0", float, 1.0),
        u1_amp=_convert(block, "u1", float, 0.0),
        v0_amp=_convert(block, "v0", float, 1.0),
        v1_amp=_convert(block, "v1", float, 0.0),
    )


_SIM_KEYS = {
    "n", "p", "q", "R", "eps", "damping", "damping2", "dr", "CFL", "horizon",
    "threshold", "rmax", "data", "sample_every", "snapshot_every",
    "linear_mode", "enforce_cone",
}


def _frac_str(x) -> str:
    return str(x) if isinstance(x, Fraction) else repr(float(x))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_classify(cfg: dict, out: str) -> list[Check]:
    _check_keys(cfg, {"n", "p", "q", "R", "eps", "speeds"}, "classify")
    params = _params(cfg)
    speeds = _convert(cfg, "speeds", _flags, [False, False])
    region = exponents.classify(params)
    rows = [
        ("F(n,p,q)", _frac_str(region.f_values[0])),
        ("F(n,q,p)", _frac_str(region.f_values[1])),
        ("strauss_exponent", repr(exponents.strauss_exponent(params.n))),
        ("region", region.tag.value),
    ]
    if params.n <= 2:
        rows.insert(2, ("G(n,p,q)", _frac_str(exponents.compute_G(params.n, params.p, params.q))))
        rows.insert(3, ("G(n,q,p)", _frac_str(exponents.compute_G(params.n, params.q, params.p))))
    try:
        law = exponents.lifespan_law(params, speeds)
        rows += [("law_form", law.form.value), ("law_exponent", _frac_str(law.exponent)),
                 ("law_note", law.note)]
    except exponents.RegionError:
        rows += [("law_form", "none"), ("law_exponent", ""), ("law_note", "unknown region")]
    plotting.write_csv(os.path.join(out, "classify.csv"), ("quantity", "value"), rows)
    return [Check("classification", True, f"region={region.tag.value}")]


def cmd_iterate(cfg: dict, out: str) -> list[Check]:
    _check_keys(cfg, {"n", "p", "q", "R", "eps", "j_max", "scheme", "constants",
                      "low_dim", "speed_integrals"}, "iterate")
    params = _params(cfg)
    j_max = _convert(cfg, "j_max", _whole, 9)
    scheme = cfg.get("scheme", "subcritical")
    consts_cfg = cfg.get("constants", {}) or {}
    _check_keys(consts_cfg, {"C0", "K0", "C1", "K1", "C", "K", "Ctilde", "m1_0", "m2_0"},
                "constants")
    constants = {key: _convert(consts_cfg, key, _positive) for key in consts_cfg}
    speed = _convert(cfg, "speed_integrals", _pair, [0.0, 0.0])
    low_dim = _convert(cfg, "low_dim", _bool, False)
    trace_path = os.path.join(out, "iterate_trace.csv")
    checks: list[Check] = []

    if scheme == "subcritical":
        consts = iteration.derive_constants(
            params,
            m1_0=constants.get("m1_0", 1.0),
            m2_0=constants.get("m2_0", 1.0),
            C1=constants.get("C1", 1.0),
            K1=constants.get("K1", 1.0),
            C0=constants.get("C0"),
            K0=constants.get("K0"),
        )
        states = iteration.iterate_subcritical(params, consts, j_max, low_dim, speed)
        plotting.write_csv(trace_path, ("j", "a", "b", "alpha", "beta", "logD", "logDelta"),
                           ((st.j, st.a, st.b, st.alpha, st.beta, st.logD, st.logDelta)
                            for st in states))
        base = states[0]
        exact = True
        for st in states:
            cf = iteration.subcritical_closed_form(params, st.j, base)
            same = st.b == cf.b and st.beta == cf.beta
            if st.j % 2 == 1:
                same = same and st.a == cf.a and st.alpha == cf.alpha
            exact = exact and same
        checks.append(Check("closed-form-equality", exact, "exact" if exact else "mismatch"))
        ws_ok = True
        for j in range(3, j_max + 1, 2):
            lhs, rhs = iteration.weighted_sum_identity(params.p, params.q, j)
            ws_ok = ws_ok and lhs == rhs
        if j_max >= 3:
            checks.append(Check("weighted-sum-identity", ws_ok, f"odd j <= {j_max}"))
    elif scheme == "critical":
        consts = iteration.CriticalConstants(
            C=constants.get("C", 1.0),
            K=constants.get("K", 1.0),
            Ctilde=constants.get("Ctilde", 1.0),
        )
        states = iteration.iterate_critical(params, consts, j_max)
        plotting.write_csv(trace_path, ("j", "a", "b", "logC"),
                           ((st.j, st.a, st.b, st.logC) for st in states))
        exact = all(
            (st.a, st.b) == iteration.critical_closed_form(params, st.j) for st in states
        )
        checks.append(Check("closed-form-equality", exact, "exact" if exact else "mismatch"))
        logc0 = states[0].logC
        bound_ok = all(
            st.logC >= iteration.critical_logC_lower_bound(params, consts, logc0, st.j) - 1e-9
            for st in states
        )
        checks.append(Check("logC-lower-bound", bound_ok, f"j <= {j_max}"))
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    return checks


def cmd_kernels(cfg: dict, out: str) -> list[Check]:
    _check_keys(cfg, {"n", "lambda0", "quad_nodes", "orders", "t_max", "t_points",
                      "x_points", "damping", "lambdas", "horizon", "R"}, "kernels")
    n = _convert(cfg, "n", _whole, 3)
    lambda0 = _convert(cfg, "lambda0", _positive, 1.0)
    R = _convert(cfg, "R", _positive, 1.0)
    quad_nodes = _convert(cfg, "quad_nodes", _whole, 64)
    orders = _convert(cfg, "orders", _list_of(lambda r: float(_exponent(r, "order"))), [0.5])
    t_max = _convert(cfg, "t_max", _positive, 50.0)
    t_points = _convert(cfg, "t_points", _whole, 11)
    x_points = _convert(cfg, "x_points", _whole, 9)
    prof = _damping(cfg.get("damping", {"kind": "poly", "mu": 1.0, "beta": 2.0}))
    horizon = _convert(cfg, "horizon", _positive, 10.0)
    lambdas = _convert(cfg, "lambdas", _list_of(_positive), [0.5, 1.0, 2.0])

    t_grid = np.linspace(0.0, t_max, t_points)
    rows = []
    all_positive = True
    for r in orders:
        cfgk = auxiliary.KernelConfig(lambda0=lambda0, R=R, order=r, quad_nodes=quad_nodes)
        fit = auxiliary.fit_kernel_bounds(cfgk, n, t_grid, x_points=x_points)
        all_positive = all_positive and fit.all_positive()
        for item, val in (("A0", fit.a0), ("B0", fit.b0), ("B1", fit.b1), ("B2", fit.b2)):
            rows.append((f"{item}[r={r:g}]", item, fit.grid_spec, val))
    plotting.write_csv(os.path.join(out, "kernel_bounds.csv"),
                       ("item", "constant", "grid", "value"), rows)
    checks = [Check("kernel-bounds-positive", all_positive, f"orders={orders}")]

    ok = True
    details = []
    for lam in lambdas:
        h = min(1e-3, 0.05 / lam)
        grid = np.linspace(0.0, horizon, int(round(horizon / h)) + 1)
        pair = auxiliary.solve_fundamental_pair(prof, lam, 0.0, grid)
        rep = auxiliary.verify_fundamental_bounds(pair, prof, lam, 0.0)
        idv = auxiliary.fundamental_identity_v(prof, lam, 0.0, min(2.0, horizon))
        lam_ok = rep.ok() and abs(idv + 1.0) <= 1e-6
        ok = ok and lam_ok
        details.append(f"lam={lam:g}:{'ok' if lam_ok else 'violated'}")
    checks.append(Check("fundamental-pair-bounds", ok, " ".join(details)))
    return checks


def _run_from_config(cfg: dict):
    params = _params(cfg)
    b1 = _damping(cfg.get("damping"))
    # one shared profile object lets the step evaluate b once for both components
    b2 = _damping(cfg["damping2"]) if "damping2" in cfg else b1
    data = _data(cfg.get("data"))
    grid = _grid(cfg)
    return params, (b1, b2), data, grid


def cmd_simulate(cfg: dict, out: str) -> list[Check]:
    _check_keys(cfg, _SIM_KEYS, "simulate")
    params, profiles, data, grid = _run_from_config(cfg)
    result = simulator.run_until_blowup(params, profiles, data, grid)
    simulator.write_trace_csv(result.trace, os.path.join(out, "trace.csv"))
    simulator.write_records_csv([result.record], os.path.join(out, "run_record.csv"))
    tr = result.trace
    plotting.emit_plot(
        [
            plotting.PlotSeries(tr.t, tr.U, "U(t)", "line"),
            plotting.PlotSeries(tr.t, tr.V, "V(t)", "line"),
        ],
        os.path.join(out, "trace.svg"),
        title="space averages",
        xlabel="t",
        ylabel="integral",
    )
    rec = result.record
    return [Check("run-completed", True, f"detection={rec.detection.value} T={rec.t_blow:g}")]


def cmd_sweep(cfg: dict, out: str) -> list[Check]:
    _check_keys(cfg, _SIM_KEYS | {"eps_list", "slope_rtol", "workers"}, "sweep")
    if "eps_list" not in cfg:
        raise ConfigError("sweep needs eps_list")
    params, profiles, data, grid = _run_from_config(cfg)
    eps_list = _convert(cfg, "eps_list", _list_of(float))
    workers = _convert(cfg, "workers", _whole) if "workers" in cfg else None
    rtol = _convert(cfg, "slope_rtol", _positive) if "slope_rtol" in cfg else None
    try:
        sweep = simulator.lifespan_sweep(params, profiles, data, grid, eps_list, workers)
    except ValueError as exc:
        raise ConfigError(str(exc))
    simulator.write_records_csv(sweep.records, os.path.join(out, "records.csv"))

    usable = [r for r in sweep.records if r.detection is not simulator.Detection.SURVIVED]
    if len(usable) < 2:
        return [Check("sweep-fit", False,
                      f"{len(usable)} blow-up records, 2 needed to fit a slope; "
                      f"excluded={sweep.excluded}")]
    eps = np.array([r.eps for r in usable])
    ts = np.array([r.t_blow for r in usable])
    fit_series, plot_slope = plotting.loglog_fit_series(eps, ts)
    plotting.emit_plot(
        [plotting.PlotSeries(eps, ts, "measured T(eps)"), fit_series],
        os.path.join(out, "sweep.svg"),
        title="lifespan sweep",
        xlabel="eps",
        ylabel="T",
        loglog=True,
    )
    checks = [
        Check(
            "sweep-fit",
            sweep.excluded == 0,
            f"slope={sweep.slope:.6g} theory={sweep.theory_exponent:.6g} "
            f"excluded={sweep.excluded}",
        ),
        Check("plot-refit-consistency", abs(plot_slope - sweep.slope) < 1e-12,
              f"delta={abs(plot_slope - sweep.slope):.3g}"),
    ]
    order = np.argsort(eps)
    mono = bool(np.all(np.diff(ts[order]) <= grid.dt + 1e-12))
    checks.append(Check("lifespans-monotone", mono, "smaller eps never blows up sooner"))
    if rtol is not None:
        checks.append(Check("slope-window", sweep.slope_matches(rtol),
                            f"|{sweep.slope:.4g} - {sweep.theory_exponent:.4g}| "
                            f"<= {rtol:g}|theory|"))
    checks.append(Check("upper-bound-uniform", sweep.upper_bound_holds(),
                        f"C={sweep.c_fit:.6g} spread={sweep.ratio_spread:.4g}"))
    return checks


def cmd_verify(cfg: dict, out: str) -> list[Check]:
    _check_keys(cfg, _SIM_KEYS | {"window", "ode_tol", "critical", "log_window",
                                  "lambda0", "quad_nodes"}, "verify")
    params, profiles, data, grid = _run_from_config(cfg)
    critical = _convert(cfg, "critical", _bool, False)
    if critical and grid.snapshot_every is None:
        raise ConfigError("critical verification needs snapshot_every")
    window = _convert(cfg, "window", _pair) if "window" in cfg else None
    ode_tol = _convert(cfg, "ode_tol", _positive) if "ode_tol" in cfg else None
    log_window = _convert(cfg, "log_window", _pair, [5.0, grid.horizon])
    lambda0 = _convert(cfg, "lambda0", _positive, 1.0)
    quad_nodes = _convert(cfg, "quad_nodes", _whole, 64)

    result = simulator.run_until_blowup(params, profiles, data, grid)
    simulator.write_trace_csv(result.trace, os.path.join(out, "trace.csv"))
    report = simulator.verify_identities(result.trace, profiles, params, window)
    checks = []
    res = max(report.ode_residual_u, report.ode_residual_v)
    if ode_tol is not None:
        checks.append(Check("ode-residual", res <= ode_tol, f"max={res:.3g} tol={ode_tol:g}"))
    else:
        checks.append(Check("ode-residual", True, f"max={res:.3g} (reported)"))
    checks.append(Check("frame-inequalities", report.inequalities_hold(1e-9),
                        f"slacks=({report.iter1_slack_u:.3g},{report.iter1_slack_v:.3g})"))
    checks.append(Check("lower-bound-fits-positive",
                        report.c1_fit > 0 and report.k1_fit > 0,
                        f"C1={report.c1_fit:.4g} K1={report.k1_fit:.4g}"))
    leak = simulator.cone_leakage(result)
    checks.append(Check("cone-containment", leak < 1e-12, f"leakage={leak:.3g}"))
    if critical:
        crit = simulator.verify_critical_inequalities(
            result, params, lambda0=lambda0, quad_nodes=quad_nodes, log_window=log_window
        )
        plotting.write_csv(
            os.path.join(out, "critical_functionals.csv"),
            ("t", "weighted_u", "lower_bound_u", "weighted_v", "lower_bound_v", "log_ratio"),
            zip(crit.t_checked, crit.weighted_u, crit.rhs_u, crit.weighted_v, crit.rhs_v,
                crit.log_ratio),
        )
        checks.append(Check("critical-bounds", crit.bounds_hold(),
                            f"checked {crit.t_checked.size} times"))
        checks.append(Check("log-growth-positive", crit.log_ratio_min > 0,
                            f"min ratio={crit.log_ratio_min:.4g} on {log_window}"))
    return checks


COMMANDS = {
    "classify": cmd_classify,
    "iterate": cmd_iterate,
    "kernels": cmd_kernels,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="blowup-lab", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            checks = COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # validation raised past the config layer (range guards and the like)
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    lines = [c.line() for c in checks]
    with open(os.path.join(args.out, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    failed = [c for c in checks if not c.passed]
    if failed:
        print(f"first failing check: {failed[0].name}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
