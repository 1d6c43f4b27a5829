"""Experiment orchestration CLI.

Usage: blowup-lab <command> --config <file.json> --out <dir>

Commands: classify, iterate, kernels, simulate, sweep, verify.  Each reads
a JSON config against its schema table (unknown keys rejected), writes
CSV/SVG artifacts plus a human-readable summary with one machine-parsable
line per check, and exits 0 iff every asserted check passes (2 on config
errors, 1 on a failed check).  A config is parsed and checked in full before
any work starts, so a config error leaves the output directory empty.
All outputs are deterministic: identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

# What kernels runs; the commands that step or iterate import simulator or
# iteration themselves, so no other command loads the solver or the sweep pool.
from blowup_lab import auxiliary, exponents, plotting
from blowup_lab.damping import DampingProfile


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Check:
    """One summary line; passed=None makes it a NOTE, which claims no PASS and cannot fail."""

    name: str
    passed: bool | None
    detail: str

    def line(self) -> str:
        if self.passed is None:
            return f"NOTE {self.name}: {self.detail}"
        return f"CHECK {self.name}: {'PASS' if self.passed else 'FAIL'} ({self.detail})"


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file not readable: {exc}")
    except ValueError as exc:  # not JSON, or not text
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict) or not cfg:
        raise ConfigError("config must be a non-empty JSON object")
    return cfg


def _parse(cfg, schema: dict, context: str) -> dict:
    """The values of a config block (JSON null reads as {}), in the order of its
    schema table, which maps each key to (converter of its JSON value, default; ...
    marks a required key).  An unknown or missing key, or a value its converter
    rejects, is a config error."""
    cfg = {} if cfg is None else cfg
    if not isinstance(cfg, dict):
        raise ConfigError(f"{context} block must be a JSON object, got {cfg!r}")
    unknown = set(cfg) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    values = {}
    for key, (convert, default) in schema.items():
        if key not in cfg and default is ...:
            raise ConfigError(f"missing required key {key!r}")
        try:
            values[key] = convert(cfg[key]) if key in cfg else default
        except (TypeError, ValueError, OverflowError, OSError) as exc:
            raise ConfigError(f"{key}: {exc}")
    return values


def _json(test, what: str, cast=lambda value: value):
    """Converter of one JSON type: cast(value) if test(value), else a ValueError."""
    def convert(value):
        if not test(value):
            raise ValueError(f"must be {what}, got {value!r}")
        return cast(value)

    return convert


def _is_number(value) -> bool:
    return isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)


def _is_int(value) -> bool:  # an integral float such as 3.0 counts
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


_real = _json(_is_number, "a number", float)
_positive = _json(lambda v: _is_number(v) and 0 < v < math.inf, "finite and positive", float)
_whole = _json(lambda v: _is_int(v) and v >= 1, "a whole number >= 1", int)
_bool = _json(lambda v: isinstance(v, bool), "true or false")
_str = _json(lambda v: isinstance(v, str), "a string")


def _choice(*options):
    return _json(lambda v: v in options, f"one of {list(options)}")


def _list_of(convert, size=None):
    """A non-empty list; one of a fixed size comes back as a tuple."""
    return _json(lambda v: isinstance(v, list) and len(v) > 0 and size in (None, len(v)),
                 f"a list of {size or 'one or more'} values",
                 lambda v: (tuple if size else list)(convert(x) for x in v))


_pair, _flags = _list_of(_real, 2), _list_of(_bool, 2)


#: the default of a row that sets a dataclass field: the field's own, read when
#: the object is built, so the dataclass need not be imported before then
_FIELD = object()


def _build(cls, values):
    """cls from values in its field order; one left at _FIELD takes the field's default."""
    return cls(**{f.name: v for f, v in zip(fields(cls), values) if v is not _FIELD})


def _block(table: dict, context: str):
    """The row of a nested block: its values parsed against table, which
    reads an absent block as {}."""
    return lambda block: _parse(block, table, context), _parse(None, table, context)


def _exponent(value):
    """A number, or a fraction string such as "3/2"; integers and fractions stay exact."""
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"must be a number or a fraction string, got {value!r}")
    x = _real(value)  # raises OverflowError past the float range
    return Fraction(value) if isinstance(value, (int, Fraction)) else x


_DAMPING = {
    "kind": (_choice("zero", "poly", "tabulated"), "zero"),
    "mu": (_real, 1.0),  # DampingProfile's own default is 0.0
    "beta": (_real, DampingProfile.beta),
    "csv": (_str, None),
}


def _damping(block) -> DampingProfile:
    kind, mu, beta, csv = _parse(block, _DAMPING, "damping").values()
    if kind == "tabulated":
        if csv is None:
            raise ValueError("tabulated damping needs a csv path")
        return DampingProfile.from_csv(csv)
    return DampingProfile(kind, mu, beta) if kind == "poly" else DampingProfile.zero()


_DATA = {  # rows in InitialData field order
    "u0": (_real, _FIELD),
    "u1": (_real, _FIELD),
    "v0": (_real, _FIELD),
    "v1": (_real, _FIELD),
}


_SUBCRITICAL_CONSTANTS = {  # rows in derive_constants' parameter order
    "m1_0": (_positive, 1.0),
    "m2_0": (_positive, 1.0),
    "C1": (_positive, 1.0),
    "K1": (_positive, 1.0),
    "C0": (_positive, None),
    "K0": (_positive, None),
}
_CRITICAL_CONSTANTS = {  # rows in CriticalConstants field order
    "C": (_positive, _FIELD),
    "K": (_positive, _FIELD),
    "Ctilde": (_positive, _FIELD),
}
_CONSTANTS = {**_SUBCRITICAL_CONSTANTS, **_CRITICAL_CONSTANTS}


# Each of these row groups builds one object from the rows a schema has of it,
# which follow the parameter order of the constructor (a schema leaves out only
# the last), and the command receives it under the name.  The dataclasses of
# simulator are imported by their builders, when a solver command is prepared.
_PARAMS = {
    "n": (_whole, ...),
    "p": (_exponent, ...),
    "q": (_exponent, ...),
    "R": (_real, _FIELD),
    "eps": (_real, _FIELD),
}
_GRID = {
    "dr": (_real, _FIELD),
    "CFL": (_real, _FIELD),
    "horizon": (_real, _FIELD),
    "threshold": (_real, _FIELD),
    "linear_mode": (_bool, _FIELD),
    "enforce_cone": (_bool, _FIELD),
}
_PROFILES = {
    "damping": (_damping, DampingProfile.zero()),
    "damping2": (_damping, None),
}
_RUN_DATA = {"data": _block(_DATA, "data")}


def _grid(*values):
    from blowup_lab.simulator import GridConfig
    return _build(GridConfig, values)


def _data(values: dict):
    from blowup_lab.simulator import InitialData
    return _build(InitialData, values.values())


_GROUPS = (
    ("params", lambda *values: _build(exponents.SystemParams, values), _PARAMS),
    ("grid", _grid, _GRID),
    ("data", _data, _RUN_DATA),
    # one shared profile object lets the step evaluate b once for both components
    ("profiles", lambda b1, b2: (b1, b1 if b2 is None else b2), _PROFILES),
)

_QUADRATURE = {  # the kernels' lambda quadrature, in kernels and the critical verify
    "lambda0": (_positive, auxiliary.KernelConfig.lambda0),
    "quad_nodes": (_whole, auxiliary.KernelConfig.quad_nodes),
}
_SIMULATION = {**_PARAMS, **_GRID, **_PROFILES, **_RUN_DATA}
_SAMPLING = {"sample_every": (_whole, 1)}  # the trace's cadence, in simulate and verify

SCHEMAS = {
    "classify": {**{key: _PARAMS[key] for key in "npq"}, "speeds": (_flags, (False, False))},
    "iterate": {
        **_PARAMS,
        "j_max": (_whole, 9),
        "scheme": (_choice("subcritical", "critical"), "subcritical"),
        "constants": _block(_CONSTANTS, "constants"),
        "low_dim": (_bool, False),
        "speed_integrals": (_pair, (0.0, 0.0)),
    },
    "kernels": {
        **_QUADRATURE,
        "n": (_whole, 3),
        "R": (_positive, auxiliary.KernelConfig.R),
        "orders": (_list_of(lambda r: float(_exponent(r))), [0.5]),
        "t_max": (_positive, 50.0),
        "t_points": (_whole, 11),
        "x_points": (_whole, 9),
        "damping": (_damping, DampingProfile.polynomial_tail(1.0, 2.0)),
        "lambdas": (_list_of(_positive), [0.5, 1.0, 2.0]),
        "horizon": (_positive, 10.0),
    },
    "simulate": {**_SIMULATION, **_SAMPLING},
    "sweep": {
        **{key: row for key, row in _SIMULATION.items() if key != "eps"},
        "eps_list": (_list_of(_real), ...),
        "slope_rtol": (_positive, 0.25),
        "workers": (_whole, None),
    },
    "verify": {
        **_SIMULATION, **_SAMPLING, **_QUADRATURE,
        "snapshot_every": (lambda v: None if v is None else _whole(v), None),
        "critical": (_bool, False),
        "log_window": (_pair, None),
    },
}


# Preconditions: what else a config decides, checked before any work.  Each
# returns None, or values that replace parsed ones (iterate's constants, verify's window).
def _require_iterate(params, j_max, scheme, constants, low_dim, speed_integrals, **_):
    from blowup_lab import iteration
    # The trace prints every exact exponent, the last frame's the longest.  Past
    # 10**6 frames none fits Python's int-to-str digit limit, so that frame stands in.
    if scheme == "critical":
        consts = _build(iteration.CriticalConstants, (constants[k] for k in _CRITICAL_CONSTANTS))
        last = iteration.critical_closed_form(params, min(j_max, 10**6))  # p >= q
    else:
        consts = iteration.derive_constants(params, *(constants[k] for k in _SUBCRITICAL_CONSTANTS))
        base = iteration.subcritical_base(params, consts, low_dim, speed_integrals)
        last = iteration.subcritical_closed_form(params, min(j_max, 10**6), base)
    try:
        repr(last)
    except ValueError:
        raise ValueError(f"j_max = {j_max} gives exponents past the int-to-str digit limit")
    return {"constants": consts}


def _modal_nodes(lam: float, horizon: float) -> int:
    """Nodes of the kernels' modal RK4 grid at one lambda: step min(1e-3, 0.05/lambda),
    or finer where RK4's relative error over the horizon, about (lambda h)^4 lambda
    horizon / 120, would pass half of IDENTITY_TOL (past lambda = 20 at horizon 10).

    The step count is capped at the budget, so a ratio that overflows to inf still
    gives an int, and one past the budget.
    """
    lam_t = lam * horizon
    steps = max(horizon / min(1e-3, 0.05 / lam),
                lam_t * (lam_t / (60.0 * auxiliary.IDENTITY_TOL)) ** 0.25)
    return max(1, round(min(steps, auxiliary.MAX_NODES))) + 1


#: the bound fits' work budget, in kernel products (README): per order, t_points^2 (t, s)
#: pairs of quad_nodes x (x_points + _NODE_COST) products, the rotation costing _NODE_COST
#: per lambda node, and 2 t_points slice quadratures at _PHI_COST per value of Phi
MAX_FIT_WORK, _NODE_COST, _PHI_COST = 2 ** 34, 2 ** 7, 2 ** 9


def _require_kernels(n, lambda0, R, quad_nodes, orders, t_max, t_points, x_points, lambdas,
                     horizon, **_):
    for r in orders:
        cfg = auxiliary.KernelConfig(lambda0, R, r, quad_nodes)
        phi = auxiliary.check_kernel_config(cfg, n, x_points, R + t_max)  # alike for every r
    pair = quad_nodes * (x_points + _NODE_COST)
    work = len(orders) * t_points * (t_points * pair + 2 * _PHI_COST * phi)
    if not work <= MAX_FIT_WORK:
        raise ValueError(f"the bound fits' work {work:.4g} exceeds the budget of {MAX_FIT_WORK}")
    for lam in lambdas:
        if _modal_nodes(lam, horizon) > auxiliary.MAX_NODES:
            raise ValueError(f"lambda = {lam:g}, horizon = {horizon:g}: the modal grid "
                             f"exceeds the budget of {auxiliary.MAX_NODES} nodes")


def _require_run(params, profiles, data, grid, eps_list=None, critical=False,
                 snapshot_every=None, lambda0=None, quad_nodes=None, log_window=None, **_):
    """simulate, sweep and verify: every run can start; a critical verify's kernels, and its
    log_window [lo, hi], by default [5, horizon], with lo <= min(hi, horizon) > 1.5, so it
    holds times where log(2t/3) > 0: the window that cmd_verify checks."""
    from blowup_lab import simulator
    if eps_list is None:
        simulator.check_run(params, data, grid)
    else:
        simulator.check_sweep(params, data, grid, eps_list)
    if not critical:
        return
    simulator.critical_kernel_configs(params, profiles, grid, snapshot_every, lambda0, quad_nodes)
    log_window = log_window or (5.0, grid.horizon)
    if not log_window[0] <= min(log_window[1], grid.horizon) > 1.5:
        raise ValueError(f"log_window {list(log_window)} holds no checked time: it needs lo <= "
                         f"hi, lo <= horizon {grid.horizon:g}, and hi and the horizon past 1.5")
    return {"log_window": log_window}


_REQUIRE = {
    "iterate": _require_iterate,
    "kernels": _require_kernels,
    **dict.fromkeys(("simulate", "sweep", "verify"), _require_run),
}


def _prepare(command: str, cfg) -> dict:
    """A command's keyword arguments: its config parsed, groups built, preconditions met."""
    values = _parse(cfg, SCHEMAS[command], command)
    try:
        for name, build, table in _GROUPS:  # by row, not by key: kernels has its own n and R
            if rows := [key for key, row in table.items() if SCHEMAS[command].get(key) is row]:
                values[name] = build(*(values.pop(key) for key in rows))
        if command in _REQUIRE:
            values.update(_REQUIRE[command](**values) or {})
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc))
    return values


def _frac_str(x) -> str:
    return str(x) if isinstance(x, Fraction) else repr(float(x))


# Commands: called with the output directory and the prepared values.
def cmd_classify(out: str, params, speeds) -> list[Check]:
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
    return [Check("classification", None, f"region={region.tag.value}")]


def cmd_iterate(out: str, params, j_max, scheme, constants, low_dim,
                speed_integrals) -> list[Check]:
    from blowup_lab import iteration
    if scheme == "subcritical":
        states = iteration.iterate_subcritical(params, constants, j_max, low_dim,
                                               speed_integrals)
        header = ("j", "a", "b", "alpha", "beta", "logD", "logDelta")
        rows = [(st.j, st.a, st.b, st.alpha, st.beta, st.logD, st.logDelta) for st in states]
        exact = all(
            (st.b, st.beta) == (cf.b, cf.beta)
            and (st.j % 2 == 0 or (st.a, st.alpha) == (cf.a, cf.alpha))
            for st in states
            for cf in [iteration.subcritical_closed_form(params, st.j, states[0])]
        )
        more = []
        if j_max >= 3:
            ws_ok = all(lhs == rhs for _, lhs, rhs in
                        iteration.weighted_sum_identities(params.p, params.q, j_max))
            more = [Check("weighted-sum-identity", ws_ok, f"odd j <= {j_max}")]
        claimed = [st for st in states if st.j % 2 == 1 and st.j > constants.j0]
        bound_ok = all(
            st.logD >= lo_d - 1e-9 and st.logDelta >= lo_delta - 1e-9
            for st in claimed
            for lo_d, lo_delta in [iteration.subcritical_logD_lower_bound(params, constants,
                                                                          states[0], st.j)]
        )
        span = f"odd j in (j0, j_max] = ({constants.j0}, {j_max}]"
        more.append(Check("logD-lower-bound", bound_ok, span) if claimed
                    else Check("logD-lower-bound", None, f"no {span}"))
    else:
        states = iteration.iterate_critical(params, constants, j_max)
        header = ("j", "a", "b", "logC")
        rows = [(st.j, st.a, st.b, st.logC) for st in states]
        exact = all((st.a, st.b) == iteration.critical_closed_form(params, st.j) for st in states)
        bound_ok = all(
            st.logC >= iteration.critical_logC_lower_bound(params, constants, states[0].logC,
                                                           st.j) - 1e-9
            for st in states
        )
        more = [Check("logC-lower-bound", bound_ok, f"j <= {j_max}")]
    plotting.write_csv(os.path.join(out, "iterate_trace.csv"), header, rows)
    return [Check("closed-form-equality", exact, "exact" if exact else "mismatch"), *more]


def cmd_kernels(out: str, n, lambda0, R, quad_nodes, orders, t_max, t_points, x_points,
                damping, lambdas, horizon) -> list[Check]:
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
        grid = np.linspace(0.0, horizon, _modal_nodes(lam, horizon))
        pair = auxiliary.solve_fundamental_pair(damping, lam, 0.0, grid)
        rep = auxiliary.verify_fundamental_bounds(pair, damping)
        idv = auxiliary.fundamental_identity_v(damping, lam, min(2.0, horizon))  # item (v)
        lam_ok = rep.ok() and idv <= auxiliary.IDENTITY_TOL
        ok = ok and lam_ok
        details.append(f"lam={lam:g}:{'ok' if lam_ok else 'violated'}")
    checks.append(Check("fundamental-pair-bounds", ok, " ".join(details)))
    return checks


def cmd_simulate(out: str, params, profiles, data, grid, sample_every) -> list[Check]:
    from blowup_lab import simulator
    sampler = simulator.FunctionalSampler()
    result = simulator.run_until_blowup(params, profiles, data, grid, [(sample_every, sampler)])
    tr = sampler.trace()
    simulator.write_trace_csv(tr, os.path.join(out, "trace.csv"))
    simulator.write_records_csv([result.record], grid, os.path.join(out, "run_record.csv"))
    if not (np.isfinite(tr.U).any() or np.isfinite(tr.V).any()):  # e.g. weights past float range
        return [Check("trace-finite", False, "no sample of U or V is finite: nothing to plot")]
    plotting.emit_plot([plotting.PlotSeries(tr.t, tr.U, "U(t)", "line"),
                        plotting.PlotSeries(tr.t, tr.V, "V(t)", "line")],
                       os.path.join(out, "trace.svg"), title="space averages", xlabel="t",
                       ylabel="integral")
    rec = result.record
    return [Check("run-completed", None, f"detection={rec.detection.value} T={rec.t_blow:g}")]


def cmd_sweep(out: str, params, profiles, data, grid, eps_list, slope_rtol,
              workers) -> list[Check]:
    # workers is accepted and unused: a sweep steps its whole ladder in this process
    from blowup_lab import simulator
    records = simulator.lifespan_sweep(params, profiles, data, grid, eps_list)
    simulator.write_records_csv(records, grid, os.path.join(out, "records.csv"))

    # survived runs have no lifespan: they are left out of the fit and counted
    usable = [r for r in records if r.detection is not simulator.Detection.SURVIVED]
    excluded = len(records) - len(usable)
    if len(usable) < 2:
        return [Check("sweep-fit", False,
                      f"{len(usable)} blow-up records, 2 needed to fit a slope; "
                      f"excluded={excluded}")]
    eps = np.array([r.eps for r in usable])
    ts = np.array([r.t_blow for r in usable])
    slope, intercept = simulator.fit_power_law(eps, ts)
    theory = float(exponents.lifespan_law(params, data.speed_flags()).exponent)
    fit_series = plotting.loglog_fit_series(eps, slope, intercept)
    plotting.emit_plot([plotting.PlotSeries(eps, ts, "measured T(eps)"), fit_series],
                       os.path.join(out, "sweep.svg"), title="lifespan sweep", xlabel="eps",
                       ylabel="T", loglog=True)
    mono = bool(np.all(np.diff(ts[np.argsort(eps)]) <= grid.dt + 1e-12))
    return [
        Check("sweep-fit", excluded == 0,
              f"slope={slope:.6g} theory={theory:.6g} excluded={excluded}"),
        Check("lifespans-monotone", mono, "smaller eps never blows up sooner"),
        Check("slope-window", abs(slope - theory) <= slope_rtol * abs(theory),
              f"|{slope:.4g} - {theory:.4g}| <= {slope_rtol:g}|theory|"),
    ]


def cmd_verify(out: str, params, profiles, data, grid, sample_every, snapshot_every, critical,
               log_window, lambda0, quad_nodes) -> list[Check]:
    from blowup_lab import simulator
    sampler = simulator.FunctionalSampler()
    observers = [(sample_every, sampler)]
    if critical:
        stream = simulator.CriticalStream(params, profiles, grid, snapshot_every, lambda0,
                                          quad_nodes)
        observers.append((snapshot_every, stream))
    simulator.run_until_blowup(params, profiles, data, grid, observers)
    trace = sampler.trace()
    simulator.write_trace_csv(trace, os.path.join(out, "trace.csv"))
    report = simulator.verify_identities(trace, profiles, params)
    checks = [
        Check("frame-inequalities", report.inequalities_hold(1e-9),
              f"slacks=({report.iter1_slack_u:.3g},{report.iter1_slack_v:.3g})"),
        Check("lower-bound-fits-positive", report.c1_fit > 0 and report.k1_fit > 0,
              f"C1={report.c1_fit:.4g} K1={report.k1_fit:.4g}"),
    ]
    if critical:
        crit = simulator.verify_critical_inequalities(stream, log_window=log_window)
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

    # a warning becomes one NOTE line per distinct category and message, sorted, so
    # the lines do not depend on which process raised it first; an expected
    # overflow is silenced where it happens
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cfg = _load_config(args.config)
            os.makedirs(args.out, exist_ok=True)
            kwargs = _prepare(args.command, cfg)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        checks = COMMANDS[args.command](args.out, **kwargs)
    notes = sorted({f"{w.category.__name__}: {w.message}" for w in caught})
    checks += [Check("warning", None, note) for note in notes]

    summary = "\n".join(c.line() for c in checks)
    with open(os.path.join(args.out, "summary.txt"), "w") as fh:
        fh.write(summary + "\n")
    print(summary)
    failed = [c for c in checks if c.passed is not None and not c.passed]  # numpy bools too
    if failed:
        print(f"first failing check: {failed[0].name}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
