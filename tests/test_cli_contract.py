"""Property test of the CLI contract: whatever the config, `blowup-lab`
exits 0, exits 1 with a failing CHECK line, or exits 2 with exactly one
`config error: ...` line and an empty output directory; never a traceback.

The strategies come from `cli.SCHEMAS`: every key of every command draws
valid, boundary, wrongly typed and non-finite values, and unknown keys are
drawn too.  Valid draws of the keys that set a run's cost stay small, so each
example runs on a tiny grid; one `verify` in three starts from a critical config
whose horizon passes 1.5, so its checks reach the critical verifier."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from blowup_lab import cli

TABLE = "<tabulated damping csv>"  # replaced by a real file in each example

BASE = {
    "classify": {"n": 2, "p": 2, "q": 2},
    "iterate": {"n": 3, "p": 3, "q": 2, "j_max": 5},
    "kernels": {"n": 3, "orders": [0.5], "t_max": 2.0, "t_points": 2, "x_points": 2,
                "quad_nodes": 8, "lambdas": [1.0], "horizon": 0.5},
    "simulate": {"n": 1, "p": 2, "q": 2, "dr": 0.1, "horizon": 1.0},
    "sweep": {"n": 1, "p": 2, "q": 2, "dr": 0.1, "horizon": 1.0,
              "eps_list": [1.0, 0.8, 0.6, 0.4]},
    "verify": {"n": 2, "p": 2, "q": 2, "dr": 0.1, "horizon": 1.0},
}

WRONG_TYPES = st.sampled_from(["0.5", "false", None, True, [], [1, "x"], {"k": 1}])
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
numbers = st.floats(0.01, 3.0) | st.sampled_from([0, 0.0, -1.0, 2])
pairs = st.lists(st.floats(-1.0, 4.0), min_size=2, max_size=2)
exponents = st.sampled_from([2, 3, "3/2", 1.5, 2.414213562373095, "7/3", "1", 1])
in_block = st.floats(-1.0, 3.0) | NON_FINITE | WRONG_TYPES  # nested values
damping = st.none() | st.fixed_dictionaries(
    {"kind": st.sampled_from(["zero", "poly", "tabulated"])},
    optional={"mu": in_block, "beta": in_block, "csv": st.just(TABLE) | in_block},
)

# valid draws, boundaries included; keys that set a run's cost stay small
BY_KEY = {
    "n": st.integers(1, 4) | st.just(0),
    "p": exponents,
    "q": exponents,
    "dr": st.floats(0.05, 0.5),
    "CFL": st.sampled_from([0.25, 0.5, 0.6]),
    "horizon": st.floats(0.0, 1.5),
    "threshold": st.sampled_from([0.5, 1.0, 10.0, 1e10]),
    "sample_every": st.integers(0, 4),
    "snapshot_every": st.none() | st.integers(0, 4),
    "data": st.none() | st.dictionaries(st.sampled_from(["u0", "u1", "v0", "v1"]), in_block,
                                        max_size=2),
    "damping": damping,
    "damping2": damping,
    "eps_list": st.lists(st.floats(0.05, 1.0), min_size=3, max_size=5),
    "workers": st.integers(0, 2),
    "j_max": st.integers(0, 12),
    "scheme": st.sampled_from(["subcritical", "critical"]),
    "constants": st.none() | st.dictionaries(st.sampled_from(sorted(cli._CONSTANTS)), in_block,
                                             max_size=2),
    "quad_nodes": st.integers(0, 8),
    "orders": st.lists(st.sampled_from([0.5, "2/3", "1/6", 0, -0.5, 200]), max_size=2),
    "t_max": st.floats(0.0, 4.0),
    "t_points": st.integers(0, 3),
    "x_points": st.integers(0, 3),
    # up to past the edge of the identity check's RK4 step, lambda * 1e-4 <= 0.1
    "lambdas": st.lists(st.floats(0.0, 3.0) | st.floats(900.0, 1100.0), max_size=2),
}
BY_CONVERTER = {
    cli._real: numbers,
    cli._positive: st.floats(0.0, 3.0),
    cli._bool: st.booleans(),
    cli._pair: pairs,
    cli._flags: st.lists(st.booleans(), min_size=2, max_size=2),
}


def valid(key, convert):
    return BY_KEY[key] if key in BY_KEY else BY_CONVERTER[convert]


# a critical verify checks log(2t/3) > 0, past t = 1.5: a short horizon past it, a
# snapshot cadence and a coarse grid keep the run cheap
CRITICAL = st.fixed_dictionaries({
    "critical": st.just(True),
    "horizon": st.floats(1.5, 3.0, exclude_min=True),
    "snapshot_every": st.integers(1, 4),
    "dr": st.floats(0.05, 0.2),
    "log_window": st.tuples(st.floats(0.0, 1.5), st.floats(1.5, 9.0)).map(list),
})


@st.composite
def configs(draw):
    command = draw(st.sampled_from(sorted(cli.SCHEMAS)))
    schema = cli.SCHEMAS[command]
    cfg = dict(BASE[command])
    if command == "verify" and draw(st.integers(0, 2)) == 0:
        cfg.update(draw(CRITICAL))
    for key in draw(st.lists(st.sampled_from(sorted(schema)), max_size=3, unique=True)):
        kind = draw(st.sampled_from(["valid", "valid", "valid", "wrong", "non-finite"]))
        cfg[key] = draw({"valid": valid(key, schema[key][0]), "wrong": WRONG_TYPES,
                         "non-finite": NON_FINITE}[kind])
    if draw(st.integers(0, 5)) == 3:  # one example in six has an unknown key
        cfg[draw(st.sampled_from(["zzz", "Dr", "eps2", "kind", "rmax"]))] = 1
    return command, cfg


def test_every_key_has_a_valid_strategy():
    for schema in cli.SCHEMAS.values():
        for key, (convert, _) in schema.items():
            valid(key, convert)  # a KeyError names a key the property test cannot draw


def test_readme_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = set(re.findall(r'^  "(\w+)": +\(', readme, re.M))
    tables = [*cli.SCHEMAS.values(), cli._DAMPING, cli._DATA, cli._CONSTANTS]
    assert listed == {key for table in tables for key in table}


def run(command, cfg):
    """(exit code, stdout, stderr, files left in --out) of one CLI call."""
    with tempfile.TemporaryDirectory() as tmp:
        table = os.path.join(tmp, "b.csv")
        with open(table, "w") as fh:
            fh.write("t,b\n0,1\n1,0.5\n2,0\n")
        text = json.dumps(cfg).replace(json.dumps(TABLE), json.dumps(table))
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            fh.write(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--config", path, "--out", out])
        return code, stdout.getvalue(), stderr.getvalue(), os.listdir(out)


PROBES = [
    ("simulate", {"damping": {"kind": "tabulated", "csv": None}}),
    ("simulate", {"damping": {"kind": "tabulated", "csv": 5}}),
    ("simulate", {"R": 1e400}),
    ("simulate", {"sample_every": 1.5}),
    ("simulate", {"sample_every": "3"}),
    ("simulate", {"sample_every": True}),
    ("verify", {"snapshot_every": 1.5}),
    ("simulate", {"dr": "0.05"}),
    ("simulate", {"eps": math.inf}),
    ("simulate", {"dr": None}),
    ("simulate", {"n": 400}),
    ("kernels", {"n": 400, "orders": [200]}),
    ("simulate", {"enforce_cone": "false"}),
    ("verify", {"n": 1, "horizon": 0.01}),
    ("verify", {"n": 1, "critical": True, "snapshot_every": 5}),
    ("verify", {"critical": True, "snapshot_every": 5,
                "damping": {"kind": "tabulated", "csv": TABLE}}),
    ("iterate", {"j_max": 400}),
    ("classify", {"n": 1e300}),
    ("simulate", {"p": 10**400}),
    ("kernels", {"horizon": 1e-9}),
    ("sweep", {"eps_list": [1.0, 1.0, 1.0, 1.0], "dr": 0.05, "horizon": 40.0}),
]
# kernels runs through the lambda loop, which the drawn examples never reach with a valid
# `lambdas`: (extra keys, exit code, a line of stdout); at horizon 7e-4 < 2 delta neither
# identity has room for its difference in s, so both are NaN
LAMBDA_RUNS = [
    ({"lambdas": [0.5, 2.0]}, 0, "CHECK fundamental-pair-bounds: PASS (lam=0.5:ok lam=2:ok)"),
    ({"lambdas": [0.5], "horizon": 7e-4}, 1,
     "CHECK fundamental-pair-bounds: FAIL (lam=0.5:violated)"),
]
# configs that must run: exit 0, or exit 1 with a failing CHECK line
RUNS = [
    ("kernels", {"orders": [0.5], "t_points": 2, "x_points": 2, "lambdas": [2000],
                 "horizon": 0.01}),
    ("kernels", {"lambdas": [1000.0], "horizon": 0.01}),
    *(("kernels", extra) for extra, _, _ in LAMBDA_RUNS),
    # a log_window that holds checked times only in (1.5, 2]
    ("verify", {"critical": True, "snapshot_every": 5, "horizon": 2.0, "log_window": [1.6, 9.0]}),
    # no log_window: the default [5, horizon] holds checked times
    ("verify", {"critical": True, "snapshot_every": 5, "horizon": 6.0}),
]
# runs past the resource budget (grid nodes, node-steps, the critical verifier's work, the
# modal grid, quadrature nodes, values of Phi): rejected before any allocation
OVER_BUDGET = [
    ("simulate", {"dr": 1e-9}),
    ("simulate", {"R": 1e300}),
    ("simulate", {"CFL": 1e-9, "horizon": 1.0}),
    ("verify", {"critical": True, "horizon": 1000.0, "snapshot_every": 1, "quad_nodes": 128}),
    ("kernels", {"orders": ["1/2"], "lambdas": [1e10], "horizon": 10.0}),
    ("kernels", {"x_points": 1e13}),
    ("kernels", {"quad_nodes": 1e13}),
    ("verify", {"critical": True, "snapshot_every": 5, "quad_nodes": 1e13}),
]

# critical verifies whose log_window can hold no checked time, rejected before the run:
# reversed, past the horizon, ending where log(2t/3) <= 0, and the default [5, horizon]
# at a horizon below 5
NO_CHECKED_TIME = [
    *(("verify", {"critical": True, "snapshot_every": 5, "horizon": 12.0, "log_window": window})
      for window in ([12.0, 5.0], [100.0, 200.0], [1.0, 1.5])),
    ("verify", {"n": 3, "p": 2.414213562373095, "q": 2.414213562373095, "dr": 0.1,
                "horizon": 4.0, "snapshot_every": 10, "critical": True}),
]


def with_base(probes):
    def decorate(test):
        for command, extra in probes:
            test = example(case=(command, {**BASE[command], **extra}))(test)
        return test

    return decorate


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@with_base(PROBES + RUNS + OVER_BUDGET + NO_CHECKED_TIME)
@given(case=configs())
def test_every_config_ends_in_one_of_three_ways(case, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    command, cfg = case
    code, stdout, stderr, left = run(command, cfg)
    if code == 1:
        assert any(line.startswith("CHECK ") and ": FAIL (" in line
                   for line in stdout.splitlines()), stdout
    elif code == 2:
        assert stderr.startswith("config error: ") and stderr.count("\n") == 1, stderr
        assert left == []
    else:
        assert code == 0, (code, stderr)


def test_configs_that_must_run_run():
    for command, extra in RUNS:
        code, _, stderr, _ = run(command, {**BASE[command], **extra})
        assert code in (0, 1) and "Traceback" not in stderr, (command, extra, code, stderr)


def test_kernels_lambda_loop_outcomes():
    for extra, want_code, want_line in LAMBDA_RUNS:
        code, stdout, stderr, _ = run("kernels", {**BASE["kernels"], **extra})
        assert code == want_code and "Traceback" not in stderr, (extra, code, stderr)
        assert want_line in stdout.splitlines(), (extra, stdout)


def test_runs_over_the_resource_budget_are_config_errors():
    for command, extra in OVER_BUDGET:
        code, _, stderr, left = run(command, {**BASE[command], **extra})
        assert code == 2 and left == [], (command, extra, code)
        assert stderr.startswith("config error: ") and "budget" in stderr, stderr
        assert stderr.count("\n") == 1


@pytest.mark.parametrize("command,extra", NO_CHECKED_TIME,
                         ids=["reversed", "past-the-horizon", "ending-at-1.5",
                              "default-past-the-horizon"])
def test_log_windows_without_a_checked_time_are_config_errors(command, extra):
    code, _, stderr, left = run(command, {**BASE[command], **extra})
    assert code == 2 and left == [], (extra, code)
    assert stderr.startswith("config error: log_window ") and stderr.count("\n") == 1, stderr
