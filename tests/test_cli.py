import ast
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from blowup_lab import auxiliary, cli, iteration, simulator
from blowup_lab.cli import ConfigError, _prepare, main
from blowup_lab.plotting import PlotSeries, emit_plot, loglog_fit_series

#: a critical verify whose lambda r passes 710 at t = 730: Phi overflows (ROADMAP item 5)
PHI_OVERFLOW = {"n": 3, "p": 2.414213562373095, "q": 2.414213562373095,
                "damping": {"kind": "poly"}, "dr": 0.5, "horizon": 760.0, "snapshot_every": 40,
                "eps": 1e-3, "threshold": 1e300, "critical": True}

EXPERIMENTS = sorted((Path(__file__).resolve().parents[1] / "experiments").glob("*.json"))


def run_cli(tmp_path, command, cfg, name="cfg"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"out_{name}"
    return main([command, "--config", str(path), "--out", str(out)]), out


def read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigValidation:
    def test_empty_config_exits_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "classify", {})
        assert code == 2

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["classify", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_keys_rejected(self, tmp_path):
        code, _ = run_cli(tmp_path, "classify", {"n": 3, "p": 2, "q": 2, "zzz": 1})
        assert code == 2

    @pytest.mark.parametrize("command", ["simulate", "sweep", "verify"])
    def test_rmax_is_an_unknown_key(self, tmp_path, capsys, command):
        # the grid always reaches past the support cone; there is no rmax to set
        cfg = {"n": 1, "p": 2, "q": 2, "horizon": 2.0, "rmax": 5.0}
        if command == "sweep":
            cfg["eps_list"] = [1.0, 0.8, 0.6, 0.4]
        code, out = run_cli(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == 2 and list(out.iterdir()) == []
        assert err == f"config error: unknown {command} keys: ['rmax']\n"

    @pytest.mark.parametrize("bad", ["1,x", "1;2", "1", "1,2,3"])
    def test_damping_table_row_that_is_not_two_numbers(self, tmp_path, capsys, bad):
        # only the first row may be a header; no other row is skipped
        table = tmp_path / "b.csv"
        table.write_text(f"t,b\n0,1\n{bad}\n2,0\n")
        cfg = {"n": 1, "p": 2, "q": 2, "dr": 0.1, "horizon": 2.0,
               "damping": {"kind": "tabulated", "csv": str(table)}}
        code, out = run_cli(tmp_path, "verify", cfg)
        err = capsys.readouterr().err
        assert code == 2 and list(out.iterdir()) == []
        assert err.startswith("config error: damping: ") and err.count("\n") == 1
        assert "row 3" in err

    def test_invalid_exponent_rejected(self, tmp_path):
        code, _ = run_cli(tmp_path, "classify", {"n": 3, "p": 0.5, "q": 2})
        assert code == 2

    @pytest.mark.parametrize("extra,reason", [
        ({"horizon": math.inf}, "horizon must be finite"),
        ({"snapshot_every": 0}, "snapshot_every must be >= 1"),
        ({"damping": "poly"}, "damping block must be a JSON object"),
        ({"eps": math.inf}, "data size must be finite and positive"),
        ({"n": 400}, "dimension too large: |S^399|"),
        ({"R": 1e400}, "support radius must be finite"),
        ({"data": {"u1": math.nan}}, "data amplitudes must be finite"),
        ({"threshold": 0.5}, "threshold must exceed the initial sup norm"),
        ({"eps": 10, "data": {"u1": 1e308}}, "eps * data amplitudes must be finite"),
        ({"eps_list": [10, 5, 2, 1], "data": {"u1": 1e308}},
         "eps * data amplitudes must be finite"),
    ], ids=["infinite-horizon", "zero-snapshot-cadence", "damping-not-object", "infinite-eps",
            "huge-n", "infinite-R", "nan-data", "threshold-below-data", "overflowing-scaled-data",
            "overflowing-scaled-sweep-data"])
    def test_bad_simulation_value_is_one_line_config_error(self, tmp_path, capsys, extra, reason):
        cfg = {"n": 1, "p": 2, "q": 2, "horizon": 2.0, **extra}
        code, _ = run_cli(tmp_path, "sweep" if "eps_list" in extra else "simulate", cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert reason in err

    @pytest.mark.parametrize("key,value", [
        ("lambdas", [0]),
        ("lambdas", [math.inf]),
        ("lambdas", 1),
        ("horizon", math.inf),
        ("lambdas", [-1]),
        ("x_points", 0),
        ("t_max", math.inf),
        ("n", 2.7),
    ], ids=["zero-lambda", "infinite-lambda", "lambdas-not-list", "infinite-horizon",
            "negative-lambda", "zero-x-points", "infinite-t-max", "fractional-n"])
    def test_bad_kernels_value_names_key(self, tmp_path, capsys, key, value):
        cfg = {"n": 3, "orders": [0.5], "t_max": 4, "t_points": 3, "horizon": 2,
               "lambdas": [1.0], key: value}
        code, out = run_cli(tmp_path, "kernels", cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1
        assert not (out / "kernel_bounds.csv").exists()

    @pytest.mark.parametrize("command,extra,key", [
        ("simulate", {"dr": None}, "dr"),
        ("simulate", {"R": None}, "R"),
        ("simulate", {"n": 2.7}, "n"),
        ("simulate", {"damping": {"kind": "poly", "mu": None}}, "mu"),
        ("simulate", {"data": {"u0": None}}, "u0"),
        ("sweep", {"eps_list": 1}, "eps_list"),
        ("iterate", {"j_max": None}, "j_max"),
        ("iterate", {"constants": {"C0": None}}, "C0"),
        ("classify", {"speeds": 5}, "speeds"),
        ("verify", {"critical": True, "snapshot_every": 10, "lambda0": None}, "lambda0"),
        ("simulate", {"linear_mode": "false"}, "linear_mode"),
        ("simulate", {"enforce_cone": "false"}, "enforce_cone"),
        ("verify", {"critical": "false"}, "critical"),
        ("iterate", {"low_dim": "false"}, "low_dim"),
        ("simulate", {"damping": {"kind": "tabulated", "csv": None}}, "csv"),
        ("simulate", {"damping": {"kind": "tabulated", "csv": 5}}, "csv"),
        ("simulate", {"sample_every": 1.5}, "sample_every"),
        ("simulate", {"sample_every": "3"}, "sample_every"),
        ("simulate", {"sample_every": True}, "sample_every"),
        ("verify", {"snapshot_every": 1.5}, "snapshot_every"),
        ("simulate", {"dr": "0.05"}, "dr"),
    ], ids=["dr-null", "R-null", "fractional-n", "mu-null", "u0-null", "eps-list-not-list",
            "j-max-null", "constant-null", "speeds-not-list",
            "critical-lambda0-null", "linear-mode-string", "enforce-cone-string",
            "critical-string", "low-dim-string", "csv-null", "csv-not-string",
            "fractional-sample-every", "string-sample-every", "bool-sample-every",
            "fractional-snapshot-every", "string-dr"])
    def test_wrong_type_names_key(self, tmp_path, capsys, command, extra, key):
        # iterate and classify take no grid keys
        grid = {"horizon": 2.0} if command in ("simulate", "sweep", "verify") else {}
        cfg = {"n": 1, "p": 2, "q": 2, **grid, **extra}
        code, out = run_cli(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1
        assert not any(out.iterdir())  # rejected before any work

    def test_huge_kernels_dimension_is_one_line_error(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "kernels", {"n": 400, "t_max": 4, "orders": [200]})
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: dimension too large") and err.count("\n") == 1

    def test_fraction_strings_accepted(self, tmp_path):
        code, out = run_cli(tmp_path, "classify", {"n": 2, "p": "3/2", "q": "3/2"})
        assert code == 0
        assert ["G(n,p,q)", "4/3"] in read_csv(out / "classify.csv")


class TestClassify:
    def test_report_contents(self, tmp_path):
        code, out = run_cli(tmp_path, "classify", {"n": 3, "p": 2, "q": 2})
        assert code == 0
        assert ["F(n,p,q)", "1/2"] in read_csv(out / "classify.csv")
        body = (out / "classify.csv").read_text()
        assert "region,SubcriticalBlowup" in body
        assert "law_exponent,-2" in body
        summary = (out / "summary.txt").read_text()
        assert summary == "NOTE classification: region=SubcriticalBlowup\n"  # claims no PASS

    def test_dimension_past_float_formulas_is_config_error(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "classify", {"n": 1e300, "p": 2, "q": 2})
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("config error: dimension too large")
        assert not any(out.iterdir())

    def test_labels_and_notes_with_commas_stay_one_field(self, tmp_path):
        cfg = {"n": 1, "p": "3/2", "q": "3/2", "speeds": [True, True]}
        code, out = run_cli(tmp_path, "classify", cfg)
        assert code == 0
        rows = read_csv(out / "classify.csv")
        assert all(len(row) == 2 for row in rows)
        assert ["law_note", "improved, both speeds"] in rows


class TestWarnings:
    def test_warning_is_a_note(self, tmp_path):
        # lifespan_law warns that speed flags carry no improved estimate at n = 3
        code, out = run_cli(tmp_path, "classify", {"n": 3, "p": 2, "q": 2, "speeds": [True, True]})
        assert code == 0
        assert (out / "summary.txt").read_text() == (
            "NOTE classification: region=SubcriticalBlowup\n"
            "NOTE warning: UserWarning: speed flags carry no improved estimate for "
            "(n, p, q) = (3, 2, 2)\n")

    def test_one_note_per_distinct_warning_sorted(self, tmp_path, monkeypatch):
        classify = cli.COMMANDS["classify"]

        def warning_classify(out, **kwargs):
            for message, category in (("b", UserWarning), ("a", UserWarning),
                                      ("b", RuntimeWarning), ("b", UserWarning)):
                warnings.warn(message, category)
            return classify(out, **kwargs)

        monkeypatch.setitem(cli.COMMANDS, "classify", warning_classify)
        code, out = run_cli(tmp_path, "classify", {"n": 3, "p": 2, "q": 2})
        assert code == 0
        assert (out / "summary.txt").read_text().splitlines()[1:] == [
            "NOTE warning: RuntimeWarning: b", "NOTE warning: UserWarning: a",
            "NOTE warning: UserWarning: b"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, cfg", [
        # Phi overflows in the kernels' fits (n = 3: sinh, n = 4: the polar exp)
        ("kernels", {"n": 3, "lambda0": 1.0, "orders": ["1/2"], "t_max": 800.0, "t_points": 5,
                     "x_points": 3}),
        ("kernels", {"n": 4, "orders": ["1", "2"], "R": 1e300, "t_max": 5, "t_points": 3,
                     "x_points": 3, "lambdas": [1.0], "horizon": 1.0}),
        # the weights r^(n-1) pass the float range
        ("simulate", {"n": 200, "p": 2, "q": 2, "R": 1000.0, "dr": 1.0, "horizon": 2.0}),
        # a run past its blow-up to a non-finite value
        ("simulate", {"n": 1, "p": 2, "q": 2, "dr": 0.05, "horizon": 30.0, "threshold": 1e300}),
        ("verify", PHI_OVERFLOW),
    ], ids=["kernels-n3", "kernels-n4", "weights", "blow-up", "verify-phi"])
    def test_expected_overflow_is_silent(self, tmp_path, capsys, command, cfg):
        # each overflow reads as inf or NaN where it happens, and no warning escapes main
        code, out = run_cli(tmp_path, command, cfg)
        assert code in (0, 1)
        assert "NOTE warning" not in (out / "summary.txt").read_text()
        assert "Warning" not in capsys.readouterr().err


class TestIterate:
    def test_subcritical_exact(self, tmp_path):
        code, out = run_cli(tmp_path, "iterate",
                            {"n": 3, "p": 3, "q": 2, "j_max": 9, "scheme": "subcritical"})
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "CHECK closed-form-equality: PASS" in summary
        assert "CHECK logD-lower-bound: PASS (odd j in (j0, j_max] = (-4, 9])" in summary
        rows = (out / "iterate_trace.csv").read_text().splitlines()
        assert rows[0] == "j,a,b,alpha,beta,logD,logDelta"
        assert rows[1].startswith("1,3,4,2,4")
        assert rows[3].startswith("3,33,32,")

    def test_critical_exact(self, tmp_path):
        code, out = run_cli(tmp_path, "iterate",
                            {"n": 3, "p": 2, "q": 2, "j_max": 10, "scheme": "critical"})
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "CHECK closed-form-equality: PASS" in summary
        assert "CHECK logC-lower-bound: PASS" in summary

    def test_perturbed_summand_fails_weighted_sum_identity(self, tmp_path, monkeypatch):
        exact = iteration.weighted_sum_identities

        def perturbed(p, q, j_max):
            for j, lhs, rhs in exact(p, q, j_max):
                yield j, lhs + (j == 7), rhs  # one summand of the j = 7 sum off by one

        monkeypatch.setattr(iteration, "weighted_sum_identities", perturbed)
        code, out = run_cli(tmp_path, "iterate", {"n": 3, "p": 3, "q": 2, "j_max": 9})
        assert code == 1
        assert "CHECK weighted-sum-identity: FAIL" in (out / "summary.txt").read_text()

    def test_perturbed_frame_fails_logD_lower_bound(self, tmp_path, monkeypatch):
        exact = iteration.subcritical_step

        def perturbed(state, params, consts):
            frame = exact(state, params, consts)
            return replace(frame, logD=frame.logD - 1e6) if frame.j == 5 else frame

        monkeypatch.setattr(iteration, "subcritical_step", perturbed)
        code, out = run_cli(tmp_path, "iterate", {"n": 3, "p": 3, "q": 2, "j_max": 9})
        assert code == 1
        summary = (out / "summary.txt").read_text()
        assert "CHECK closed-form-equality: PASS" in summary
        assert "CHECK logD-lower-bound: FAIL" in summary

    def test_perturbed_exponent_fails_closed_form_equality(self, tmp_path, monkeypatch):
        exact = iteration.subcritical_step

        def perturbed(state, params, consts):
            frame = exact(state, params, consts)
            return replace(frame, b=frame.b + 1) if frame.j == 4 else frame

        monkeypatch.setattr(iteration, "subcritical_step", perturbed)
        code, out = run_cli(tmp_path, "iterate", {"n": 3, "p": 3, "q": 2, "j_max": 9})
        assert code == 1
        assert "CHECK closed-form-equality: FAIL (mismatch)" in (out / "summary.txt").read_text()

    def test_perturbed_amplitude_fails_logC_lower_bound(self, tmp_path, monkeypatch):
        exact = iteration.critical_step

        def perturbed(state, params, consts):
            frame = exact(state, params, consts)
            return replace(frame, logC=frame.logC - 1e6) if frame.j == 3 else frame

        monkeypatch.setattr(iteration, "critical_step", perturbed)
        cfg = {"n": 3, "p": 3, "q": 2, "j_max": 6, "scheme": "critical"}
        code, out = run_cli(tmp_path, "iterate", cfg)
        assert code == 1
        summary = (out / "summary.txt").read_text()
        assert "CHECK closed-form-equality: PASS" in summary
        assert "CHECK logC-lower-bound: FAIL" in summary

    def test_logD_lower_bound_checked_only_past_j0(self, tmp_path):
        # C0 = K0 = 1e9 puts j0 at 11; the bound fails at j = 1 and 3 but is not claimed there
        cfg = {"n": 3, "p": 2, "q": 2, "constants": {"C0": 1e9, "K0": 1e9}}
        code, out = run_cli(tmp_path, "iterate", {**cfg, "j_max": 15}, name="past")
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "CHECK logD-lower-bound: PASS (odd j in (j0, j_max] = (11, 15])" in summary
        code, out = run_cli(tmp_path, "iterate", {**cfg, "j_max": 11}, name="empty")
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "NOTE logD-lower-bound: no odd j in (j0, j_max] = (11, 11]" in summary
        assert "CHECK logD-lower-bound" not in summary

    def test_unknown_scheme(self, tmp_path):
        code, _ = run_cli(tmp_path, "iterate", {"n": 3, "p": 2, "q": 2, "scheme": "bogus"})
        assert code == 2

    def test_amplitudes_past_float_range_still_run(self, tmp_path, capsys):
        for j_max in (700, 1000):  # the bound's gain (pq)^((j-1)/2) overflows at j = 801
            code, out = run_cli(tmp_path, "iterate", {"n": 3, "p": 3, "q": 2, "j_max": j_max},
                                name=f"j{j_max}")
            assert code == 0
            summary = (out / "summary.txt").read_text()
            assert "CHECK closed-form-equality: PASS" in summary
            assert "CHECK logD-lower-bound: PASS" in summary
        assert "Traceback" not in capsys.readouterr().err

    def test_exponents_past_digit_limit_are_config_error(self, tmp_path, capsys):
        p0 = 2.414213562373095
        cfg = {"n": 3, "p": p0, "q": p0, "j_max": 500, "scheme": "critical"}
        code, out = run_cli(tmp_path, "iterate", cfg)
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("config error: j_max = 500")
        assert not any(out.iterdir())


class TestKernels:
    def test_bounds_and_pair(self, tmp_path):
        cfg = {"n": 3, "orders": [0.5], "t_max": 10, "t_points": 4,
               "horizon": 4, "lambdas": [1.0]}
        code, out = run_cli(tmp_path, "kernels", cfg)
        assert code == 0
        body = (out / "kernel_bounds.csv").read_text()
        assert body.startswith("item,constant,grid,value")
        assert "A0[r=0.5],A0" in body

    def test_out_of_range_order_is_config_error(self, tmp_path):
        cfg = {"n": 4, "orders": [0.0], "t_max": 5, "t_points": 3}
        code, _ = run_cli(tmp_path, "kernels", cfg)
        assert code == 2

    def test_horizon_too_short_for_identity_is_a_failed_check(self, tmp_path):
        cfg = {"n": 3, "orders": [0.5], "t_max": 4, "t_points": 2, "x_points": 2,
               "lambdas": [1.0], "horizon": 1e-9}
        code, out = run_cli(tmp_path, "kernels", cfg)
        assert code == 1
        summary = (out / "summary.txt").read_text()
        assert "CHECK fundamental-pair-bounds: FAIL (lam=1:violated)" in summary

    def test_modal_grid_budget_boundary(self):
        # lambda = 1e10 is an OVER_BUDGET case of the contract tests; this pins the edge:
        # the step is 1e-3 up to lambda = 50, so a horizon of 1048 fits 2^20 nodes, 1049 does not
        cfg = {"n": 3, "orders": ["1/2"], "t_points": 2, "x_points": 2, "lambdas": [50.0]}
        assert _prepare("kernels", {**cfg, "horizon": 1048.0})
        with pytest.raises(ConfigError, match="budget"):
            _prepare("kernels", {**cfg, "horizon": 1049.0})
        with pytest.raises(ConfigError, match="budget"):  # the step ratio overflows to inf
            _prepare("kernels", {**cfg, "lambdas": [1e300], "horizon": 1e300})

    def test_quadrature_budgets_boundary(self):
        # quad_nodes 1e13 and x_points 1e13 are OVER_BUDGET cases of the contract tests;
        # these pin the edges: 2^11 Gauss-Legendre nodes, and 2^22 values of Phi per
        # quadrature, quad_nodes x x_points, times the polar nodes for n >= 4 (64 here,
        # at lambda0 (R + t_max) = 5)
        cfg = {"n": 3, "orders": ["1/2"], "t_max": 4.0, "t_points": 2, "x_points": 2}
        assert _prepare("kernels", {**cfg, "quad_nodes": 2048})
        with pytest.raises(ConfigError, match="quadrature nodes exceed the budget"):
            _prepare("kernels", {**cfg, "quad_nodes": 2049})
        for extra, x_max in (({"quad_nodes": 1024}, 4096),
                             ({"n": 4, "orders": [1.5], "quad_nodes": 64}, 1024)):
            assert _prepare("kernels", {**cfg, **extra, "x_points": x_max})
            with pytest.raises(ConfigError, match="kernel values exceed the budget"):
                _prepare("kernels", {**cfg, **extra, "x_points": x_max + 1})

    def test_fit_work_budget_boundary(self):
        # per order, t (t quad_nodes (x_points + 2^7) + 2^10 x_points quad_nodes) kernel
        # products: at one radius and 4 nodes, 2^34 falls between t_points 5766 and 5767
        cfg = {"n": 3, "orders": ["1/2"], "x_points": 1, "quad_nodes": 4}
        assert _prepare("kernels", {**cfg, "t_points": 5766})
        for extra in ({"t_points": 5767}, {"t_points": 5766, "orders": ["1/2", "2/3"]}):
            with pytest.raises(ConfigError, match="work .* exceeds the budget"):
                _prepare("kernels", {**cfg, **extra})

    def test_kernel_overflow_is_a_failed_check(self, tmp_path):
        # cosh(lambda t) overflows past lambda t = 710, the scaled kernels do not: A0 takes
        # in the t = 800 sample, and Phi itself overflows at radius 801, so B2 is NaN
        cfg = {"n": 3, "lambda0": 1.0, "orders": ["1/2"], "t_max": 800.0, "t_points": 5,
               "x_points": 3}
        code, out = run_cli(tmp_path, "kernels", cfg)
        assert code == 1
        assert "CHECK kernel-bounds-positive: FAIL" in (out / "summary.txt").read_text()
        values = {row[1]: float(row[3]) for row in read_csv(out / "kernel_bounds.csv")[1:]}
        assert abs(values["A0"] / 2.3810728033732445 - 1.0) < 1e-13
        assert math.isnan(values["B2"])

    def test_large_lambda_runs(self, tmp_path, capsys):
        # the identity checks' difference step shrinks like 1/lambda, so every lambda
        # within the modal grid budget runs (the contract test's RUNS); at 400 the pair
        # overflows by t = 2, and the overflow is a violated bound, not a traceback
        cfg = {"n": 3, "orders": [0.5], "t_max": 4, "t_points": 2, "x_points": 2,
               "lambdas": [400.0], "horizon": 2.0}
        code, out = run_cli(tmp_path, "kernels", cfg)
        assert code == 1 and "Traceback" not in capsys.readouterr().err
        summary = (out / "summary.txt").read_text()
        assert "CHECK fundamental-pair-bounds: FAIL (lam=400:violated)" in summary

    def test_numpy_false_check_sets_exit_code(self, tmp_path, monkeypatch):
        # the bounds hold, the identity misses: lam_ok is np.False_, not False
        monkeypatch.setattr(auxiliary, "fundamental_identity_v",
                            lambda *args: np.float64(1.0))
        cfg = {"n": 3, "orders": [0.5], "t_max": 4, "t_points": 2, "x_points": 2,
               "lambdas": [1.0], "horizon": 1.0}
        code, out = run_cli(tmp_path, "kernels", cfg)
        assert code == 1
        summary = (out / "summary.txt").read_text()
        assert "CHECK fundamental-pair-bounds: FAIL (lam=1:violated)" in summary

    @pytest.mark.parametrize("n", [3, 4])
    def test_huge_support_radius_is_a_failed_check(self, tmp_path, capsys, n):
        # lambda * r reaches 1e300: Phi overflows to inf, the fits are not finite
        cfg = {"n": n, "orders": ["1", "2"], "R": 1e300, "t_max": 5, "t_points": 3,
               "x_points": 3, "lambdas": [1.0], "horizon": 1.0}
        code, out = run_cli(tmp_path, "kernels", cfg)
        assert code == 1
        assert "CHECK kernel-bounds-positive: FAIL" in (out / "summary.txt").read_text()
        assert "Traceback" not in capsys.readouterr().err


class TestSimulateAndSweep:
    def test_simulate_artifacts(self, tmp_path):
        cfg = {"n": 1, "p": 2, "q": 2, "eps": 1.0, "dr": 0.05, "horizon": 3.0,
               "sample_every": 4}
        code, out = run_cli(tmp_path, "simulate", cfg)
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "trace.svg").exists()
        assert (out / "run_record.csv").exists()
        assert (out / "summary.txt").read_text().startswith("NOTE run-completed: detection=")

    def test_weights_past_float_range_fail_trace_finite(self, tmp_path):
        # r^(n-1) passes the float range inside the support (r ~ 1000, n = 200): every
        # sampled U and V is NaN, and no plot is drawn
        cfg = {"n": 200, "p": 2, "q": 2, "R": 1000.0, "dr": 1.0, "horizon": 2.0}
        code, out = run_cli(tmp_path, "simulate", cfg)
        assert code == 1
        assert (out / "summary.txt").read_text() == (
            "CHECK trace-finite: FAIL (no sample of U or V is finite: nothing to plot)\n")
        assert (out / "trace.csv").exists() and not (out / "trace.svg").exists()

    def test_node_step_budget_boundary(self):
        # (CFL 1e-9, horizon 1) is an OVER_BUDGET case of the contract tests; this pins the
        # edge: dt = 0.01, so horizon H takes 100 H steps over 50 H + 76 nodes, and 2^30
        # node-steps fall between H = 462 and 463
        cfg = {"n": 1, "p": 2, "q": 2, "dr": 0.02}
        assert _prepare("simulate", {**cfg, "horizon": 462.0})
        with pytest.raises(ConfigError, match="node-steps exceed the budget"):
            _prepare("simulate", {**cfg, "horizon": 463.0})
        with pytest.raises(ConfigError, match="node-steps exceed the budget"):
            _prepare("sweep", {**cfg, "horizon": 463.0, "eps_list": [1.0, 0.5, 0.25, 0.125]})

    def test_critical_kernel_budget_boundary(self):
        # 2048 quadrature nodes over the grid's (horizon + 2) / dr + 1 radii pass 2^22
        # values of Phi between horizon 202 and 203 at dr = 0.1
        cfg = {"n": 2, "p": 2, "q": 2, "dr": 0.1, "critical": True, "snapshot_every": 10,
               "quad_nodes": 2048}
        assert _prepare("verify", {**cfg, "horizon": 202.0})
        with pytest.raises(ConfigError, match="kernel values exceed the budget"):
            _prepare("verify", {**cfg, "horizon": 203.0})

    def test_critical_stream_budget_boundary(self, tmp_path, capsys, monkeypatch):
        # (horizon 1000, snapshot_every 1, quad_nodes 128) is an OVER_BUDGET case of the
        # contract tests; this pins the edge at 2^34 products: two distinct quadratures
        # (p != q) of 2048 nodes over 2048 radii, 2048 snapshots; one snapshot more (the
        # same extent with one more step) is past it
        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(simulator, "run_until_blowup", reached)
        cfg = {"n": 3, "p": 2, "q": 3, "dr": 0.5, "critical": True, "snapshot_every": 1,
               "quad_nodes": 2048}
        assert _prepare("verify", {**cfg, "horizon": 511.75, "R": 506.75})
        code, out = run_cli(tmp_path, "verify", {**cfg, "horizon": 512.0, "R": 506.5})
        err = capsys.readouterr().err
        assert code == 2 and not any(out.iterdir())
        assert err.count("\n") == 1
        assert err.startswith("config error: the critical verifier's work 1.719e+10 exceeds "
                              "the budget of 17179869184")

    def test_one_damping_block_gives_one_shared_profile(self):
        cfg = {"n": 1, "p": 2, "q": 2, "damping": {"kind": "poly"}}
        b1, b2 = _prepare("simulate", cfg)["profiles"]
        assert b2 is b1  # lets the step evaluate b once for both components
        b1, b2 = _prepare("simulate", {**cfg, "damping2": {"kind": "poly"}})["profiles"]
        assert b2 is not b1 and b2 == b1

    def test_sweep_and_reproducibility(self, tmp_path):
        cfg = {"n": 1, "p": 2, "q": 2, "dr": 0.05, "horizon": 40.0,
               "eps_list": [1.0, 0.7, 0.5, 0.35], "workers": 1, "slope_rtol": 0.25}
        code1, out1 = run_cli(tmp_path, "sweep", cfg, name="s1")
        code2, out2 = run_cli(tmp_path, "sweep", cfg, name="s2")
        assert code1 == 0 and code2 == 0
        for fname in ("records.csv", "sweep.svg", "summary.txt"):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()
        summary = (out1 / "summary.txt").read_text()
        assert "CHECK slope-window: PASS" in summary
        assert "CHECK lifespans-monotone: PASS" in summary

    def test_smaller_eps_blowing_up_sooner_fails_monotone(self, tmp_path, monkeypatch):
        # a doctored sweep: the run at eps 0.5 reports half its lifespan, which puts it
        # below the lifespan at eps 0.7
        real = simulator.run_until_blowup

        def doctored(params, *args):
            res = real(params, *args)
            if params.eps == 0.5:
                res.record = replace(res.record, t_blow=0.5 * res.record.t_blow)
            return res

        monkeypatch.setattr(simulator, "run_until_blowup", doctored)
        cfg = {"n": 1, "p": 2, "q": 2, "dr": 0.05, "horizon": 40.0,
               "eps_list": [1.0, 0.7, 0.5, 0.35], "workers": 1}
        code, out = run_cli(tmp_path, "sweep", cfg)
        summary = (out / "summary.txt").read_text()
        assert code == 1
        assert "CHECK sweep-fit: PASS" in summary
        assert "CHECK lifespans-monotone: FAIL (smaller eps never blows up sooner)" in summary

    def test_worker_count_does_not_change_results(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = {"n": 1, "p": 2, "q": 2, "dr": 0.05, "horizon": 30.0,
               "eps_list": [1.0, 0.7, 0.5, 0.35]}
        code1, out1 = run_cli(tmp_path, "sweep", {**cfg, "workers": 1}, name="w1")
        code2, out2 = run_cli(tmp_path, "sweep", {**cfg, "workers": 2}, name="w2")
        assert code1 == 0 and code2 == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_all_survived_sweep_is_a_failed_check(self, tmp_path):
        cfg = {"n": 1, "p": 2, "q": 2, "horizon": 2, "eps_list": [0.01, 0.02, 0.03, 0.04],
               "workers": 1}
        code, out = run_cli(tmp_path, "sweep", cfg)
        assert code == 1
        rows = (out / "records.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["Survived"] * 4
        assert "CHECK sweep-fit: FAIL" in (out / "summary.txt").read_text()

    def test_slope_off_the_window_is_a_failed_check(self, tmp_path):
        # the n = 1 slope on this short ladder is -0.706 against -2/3: outside 0.1%
        cfg = {"n": 1, "p": 2, "q": 2, "dr": 0.1, "horizon": 40.0,
               "eps_list": [1.0, 0.7, 0.5, 0.35], "slope_rtol": 0.001, "workers": 1}
        code, out = run_cli(tmp_path, "sweep", cfg)
        assert code == 1
        assert "CHECK slope-window: FAIL" in (out / "summary.txt").read_text()

    def test_unresolved_lifespans_fail_the_default_slope_window(self, tmp_path):
        # every eps crosses the threshold on the first step (all Tblow one dt), so the
        # fit reads a rounding-noise slope (-3.1e-16 here) against -2/3; slope_rtol is
        # unset and takes 0.25
        cfg = {"n": 1, "p": 2, "q": 2, "eps_list": [1, 0.5, 0.25, 0.125],
               "data": {"u1": 1e307}, "dr": 0.1, "horizon": 2, "workers": 1}
        code, out = run_cli(tmp_path, "sweep", cfg)
        assert code == 1
        summary = (out / "summary.txt").read_text()
        assert "CHECK sweep-fit: PASS" in summary
        line = next(line for line in summary.splitlines() if "slope-window" in line)
        assert line.startswith("CHECK slope-window: FAIL (|")
        assert line.endswith(" - -0.6667| <= 0.25|theory|)")

    def test_sweep_needs_eps_list(self, tmp_path):
        code, _ = run_cli(tmp_path, "sweep", {"n": 1, "p": 2, "q": 2})
        assert code == 2


class TestVerifyCommand:
    def test_verify_passes(self, tmp_path):
        cfg = {"n": 2, "p": "3/2", "q": "3/2", "dr": 0.04, "horizon": 6.0}
        code, out = run_cli(tmp_path, "verify", cfg)
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "CHECK frame-inequalities: PASS" in summary
        assert "CHECK cone-containment: PASS" in summary

    def test_cone_off_fails_cone_containment(self, tmp_path):
        # the check's only failing input: with the cone on, every node past the cone
        # is zeroed, so the leakage is 0 by construction
        cfg = {"n": 3, "p": 3, "q": 3, "dr": 0.05, "horizon": 4.0, "enforce_cone": False}
        code, out = run_cli(tmp_path, "verify", cfg)
        assert code == 1
        summary = (out / "summary.txt").read_text()
        assert "CHECK cone-containment: FAIL (leakage=1.62e-05)" in summary

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: Phi overflows past lambda r = 710, "
                                           "so the critical functionals are NaN from t = 730")
    def test_critical_functionals_finite_past_phi_overflow(self, tmp_path):
        code, out = run_cli(tmp_path, "verify", PHI_OVERFLOW)
        assert code == 1  # the linear run at eps 1e-3 fails frame-inequalities
        header, *rows = read_csv(out / "critical_functionals.csv")
        last = dict(zip(header, rows[-1]))
        assert float(last["t"]) == 760.0 and math.isfinite(float(last["log_ratio"]))

    def test_zero_data_is_a_failed_lower_bound_fit(self, tmp_path):
        # zero data stay zero, so the lower-bound constants fit to 0
        cfg = {"n": 2, "p": 2, "q": 2, "dr": 0.1, "horizon": 2.0, "data": {"u0": 0, "v0": 0}}
        code, out = run_cli(tmp_path, "verify", cfg)
        assert code == 1
        summary = (out / "summary.txt").read_text()
        assert "CHECK lower-bound-fits-positive: FAIL (C1=0 K1=0)" in summary

    @pytest.mark.parametrize("data,slacks", [({"u0": -1}, "(-0.632,0.623)"),
                                             ({"v0": -1}, "(0.623,-0.635)")], ids=["u", "v"])
    def test_negative_data_fail_frame_inequalities(self, tmp_path, data, slacks):
        # a negative bump makes its own component's integral negative: the slack of
        # that component, and only that one, goes below zero
        cfg = {"n": 2, "p": 2, "q": 3, "dr": 0.1, "horizon": 2.0, "data": data}
        code, out = run_cli(tmp_path, "verify", cfg)
        assert code == 1
        summary = (out / "summary.txt").read_text()
        assert f"CHECK frame-inequalities: FAIL (slacks={slacks})" in summary

    def test_short_trace_is_a_failed_check(self, tmp_path):
        code, out = run_cli(tmp_path, "verify", {"n": 1, "p": 2, "q": 2, "horizon": 0.01})
        assert code == 1
        assert "CHECK trace-samples: FAIL (trace too short" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("extra,reason", [
        ({"n": 1}, "critical-case machinery requires n >= 2"),
        ({"damping": {"kind": "tabulated", "csv": "TABLE"}}, "require C^1 damping"),
        ({"quad_nodes": 2}, "need at least 4 quadrature nodes"),
    ], ids=["one-dimension", "tabulated-damping", "too-few-nodes"])
    def test_critical_preconditions_run_nothing(self, tmp_path, capsys, monkeypatch, extra,
                                                reason):
        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(simulator, "run_until_blowup", reached)
        table = tmp_path / "b.csv"
        table.write_text("t,b\n0,1\n1,0.5\n2,0\n")
        cfg = {"n": 2, "p": 2, "q": 2, "dr": 0.1, "horizon": 2.0, "critical": True,
               "snapshot_every": 10, **extra}
        code, out = run_cli(tmp_path, "verify",
                            json.loads(json.dumps(cfg).replace("TABLE", str(table))))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1 and reason in err
        assert not any(out.iterdir())

    def test_critical_needs_snapshots(self, tmp_path):
        cfg = {"n": 3, "p": 2.414213562373095, "q": 2.414213562373095,
               "dr": 0.1, "horizon": 2.0, "critical": True}
        code, _ = run_cli(tmp_path, "verify", cfg)
        assert code == 2

    def test_critical_verify_passes(self, tmp_path, monkeypatch):
        reports = []
        verify = simulator.verify_critical_inequalities
        monkeypatch.setattr(simulator, "verify_critical_inequalities",
                            lambda *a, **k: reports.append(verify(*a, **k)) or reports[-1])
        p0 = 2.414213562373095
        cfg = {"n": 3, "p": p0, "q": p0, "dr": 0.05, "horizon": 8.0,
               "damping": {"kind": "poly", "mu": 1.0, "beta": 2.0},
               "snapshot_every": 20, "sample_every": 20,
               "critical": True, "log_window": [5.0, 8.0]}
        code, out = run_cli(tmp_path, "verify", cfg)
        summary = (out / "summary.txt").read_text()
        assert "CHECK critical-bounds: PASS" in summary
        assert "CHECK log-growth-positive: PASS" in summary
        assert code == 0

        [rep] = reports
        header, *rows = read_csv(out / "critical_functionals.csv")
        assert header == ["t", "weighted_u", "lower_bound_u", "weighted_v", "lower_bound_v",
                          "log_ratio"]
        table = np.array(rows, dtype=float)
        assert table.shape == (rep.t_checked.size, 6)
        for col, field in enumerate((rep.t_checked, rep.weighted_u, rep.rhs_u,
                                     rep.weighted_v, rep.rhs_v, rep.log_ratio)):
            assert np.array_equal(table[:, col], field, equal_nan=True)
        t, log_ratio = table[:, 0], table[:, 5]
        late = t > 1.5
        assert np.all(np.isnan(log_ratio[~late]))
        assert np.all(log_ratio[late] == rep.weighted_u[late] / np.log(2.0 * t[late] / 3.0))
        in_window = (t >= 5.0) & (t <= 8.0)
        assert np.min(log_ratio[in_window]) == rep.log_ratio_min

    def test_critical_verify_mirrors(self, tmp_path):
        # swapping p with q, the u-data with the v-data and damping with damping2
        # must write the same critical table
        base = {"n": 3, "dr": 0.1, "horizon": 4.0, "snapshot_every": 10, "critical": True,
                "log_window": [2.0, 4.0]}
        fast = {"kind": "poly", "mu": 1.0, "beta": 2.0}
        slow = {"kind": "poly", "mu": 0.5, "beta": 3.0}
        cfg = {**base, "p": "7/2", "q": 2, "damping": fast, "damping2": slow,
               "data": {"u0": 1.0, "u1": 0.3, "v0": 0.7, "v1": 0.2}}
        mirror = {**base, "p": 2, "q": "7/2", "damping": slow, "damping2": fast,
                  "data": {"u0": 0.7, "u1": 0.2, "v0": 1.0, "v1": 0.3}}
        code, out = run_cli(tmp_path, "verify", cfg, "pq")
        code_sw, out_sw = run_cli(tmp_path, "verify", mirror, "qp")
        assert code == code_sw == 0
        table = (out / "critical_functionals.csv").read_bytes()
        assert table == (out_sw / "critical_functionals.csv").read_bytes()

    def test_critical_bounds_fail_with_nothing_checked(self, tmp_path):
        # 20 steps against a snapshot every 40: only the t = 0 snapshot exists
        p0 = 2.414213562373095
        cfg = {"n": 3, "p": p0, "q": p0, "dr": 0.1, "horizon": 1.0, "snapshot_every": 40,
               "sample_every": 1, "critical": True}
        code, out = run_cli(tmp_path, "verify", cfg)
        assert code == 1
        assert "CHECK critical-bounds: FAIL (checked 0 times)" in (out / "summary.txt").read_text()

    def test_critical_checks_fail_on_negative_data(self, tmp_path):
        # negative data make both weighted averages fall below their lower bounds
        p0 = 2.414213562373095
        cfg = {"n": 3, "p": p0, "q": p0, "damping": {"kind": "poly", "mu": 1.0, "beta": 2.0},
               "dr": 0.05, "horizon": 12, "snapshot_every": 10, "critical": True,
               "data": {"u0": -1, "v0": -1}}
        code, out = run_cli(tmp_path, "verify", cfg)
        summary = (out / "summary.txt").read_text()
        assert code == 1
        assert "CHECK critical-bounds: FAIL (checked 48 times)" in summary
        assert "CHECK log-growth-positive: FAIL (min ratio=-0.576 on (5.0, 12.0))" in summary


class Reached(Exception):
    """Raised in place of a command's first heavy call."""


class TestExperiments:
    FIRST_HEAVY_CALL = {
        "sweep": (simulator, "lifespan_sweep"),
        "verify": (simulator, "run_until_blowup"),
        "kernels": (auxiliary, "fit_kernel_bounds"),
        "iterate": (iteration, "iterate_subcritical"),
    }

    def test_every_command_has_configs(self):
        assert {path.stem.split("-")[0] for path in EXPERIMENTS} == set(self.FIRST_HEAVY_CALL)

    @pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda path: path.stem)
    def test_config_accepted(self, tmp_path, monkeypatch, path):
        command = path.stem.split("-")[0]

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(*self.FIRST_HEAVY_CALL[command], reached)
        with pytest.raises(Reached):
            main([command, "--config", str(path), "--out", str(tmp_path)])


class TestEveryCheckCanFail:
    """A check that no input can fail passes by construction: every CHECK name in
    cli.py (a Check whose pass argument is not the literal None) needs a failing
    example, the text `<name>: FAIL` in some test module."""

    @staticmethod
    def check_names() -> set[str]:
        tree = ast.parse(Path(cli.__file__).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Check":
                name, passed = node.args[:2]
                assert isinstance(name, ast.Constant), ast.unparse(node)  # a name the scan reads
                if not (isinstance(passed, ast.Constant) and passed.value is None):
                    names.add(name.value)
        return names

    def test_every_check_name_has_a_failing_example(self):
        names = self.check_names()
        tests = "".join(path.read_text() for path in Path(__file__).parent.glob("*.py"))
        assert len(names) == 16, sorted(names)  # the scan reads every name (ROADMAP item 6)
        assert not [name for name in sorted(names) if f"{name}: FAIL" not in tests]


class TestImports:
    """A command loads the lab modules it runs and no others: kernels and classify
    neither the solver with its sweep pool nor the iteration frames."""

    SOLVER = {"blowup_lab.simulator", "concurrent.futures.process"}
    CASES = {  # command: (config, modules it must not load, modules it must load)
        "classify": ({"n": 2, "p": 2, "q": 2}, SOLVER | {"blowup_lab.iteration"}, set()),
        "kernels": ({"n": 3, "orders": [0.5], "t_max": 2.0, "t_points": 2, "x_points": 2,
                     "quad_nodes": 8, "lambdas": [1.0], "horizon": 0.5},
                    SOLVER | {"blowup_lab.iteration"}, {"blowup_lab.auxiliary"}),
        "iterate": ({"n": 3, "p": 3, "q": 2, "j_max": 5}, SOLVER, {"blowup_lab.iteration"}),
        "simulate": ({"n": 1, "p": 2, "q": 2, "dr": 0.1, "horizon": 1.0},
                     {"blowup_lab.iteration"}, SOLVER),
        "sweep": ({"n": 1, "p": 2, "q": 2, "dr": 0.1, "horizon": 20.0, "workers": 1,
                   "eps_list": [1.0, 0.8, 0.6, 0.4]}, {"blowup_lab.iteration"}, SOLVER),
        "verify": ({"n": 2, "p": 2, "q": 2, "dr": 0.1, "horizon": 2.0},
                   {"blowup_lab.iteration"}, SOLVER),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_command_loads_only_what_it_runs(self, tmp_path, command):
        cfg, absent, present = self.CASES[command]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        src = Path(__file__).resolve().parents[1] / "src"
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        script = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
                  "from blowup_lab import cli\n"
                  f"code = cli.main({argv!r})\n"
                  "print(code, *sorted(sys.modules))")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, check=True)
        code, *loaded = proc.stdout.splitlines()[-1].split()
        assert code == "0", proc.stdout + proc.stderr
        assert absent.isdisjoint(loaded), sorted(absent.intersection(loaded))
        assert present | {"blowup_lab.cli"} <= set(loaded)


class TestPlotting:
    def test_two_point_series(self, tmp_path):
        path = tmp_path / "p.svg"
        dropped = emit_plot([PlotSeries(np.array([1.0, 2.0]), np.array([3.0, 4.0]), "seg", "line")],
                            path, xlabel="x", ylabel="y")
        assert dropped == 0
        body = path.read_text()
        assert "<svg" in body and "polyline" in body
        assert ">x<" in body and ">y<" in body

    def test_empty_series_error_no_file(self, tmp_path):
        path = tmp_path / "nope.svg"
        with pytest.raises(ValueError):
            emit_plot([], path)
        with pytest.raises(ValueError):
            emit_plot([PlotSeries(np.array([np.nan]), np.array([1.0]))], path)
        assert not path.exists()

    def test_nonfinite_points_dropped_with_count(self, tmp_path):
        path = tmp_path / "drop.svg"
        series = PlotSeries(np.array([1.0, np.nan, 3.0]), np.array([1.0, 2.0, np.inf]))
        assert emit_plot([series], path) == 2

    def test_byte_identical_output(self, tmp_path):
        series = [PlotSeries(np.linspace(1, 10, 20), np.linspace(1, 10, 20) ** -2.0, "d")]
        emit_plot(series, tmp_path / "a.svg", loglog=True)
        emit_plot(series, tmp_path / "b.svg", loglog=True)
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_refit_matches_polyfit(self):
        # the plot draws the sweep's own fit: no second polyfit
        eps = np.array([1.0, 0.5, 0.25, 0.125])
        ts = 3.0 * eps ** -1.5
        slope, intercept = simulator.fit_power_law(eps, ts)
        fit_series = loglog_fit_series(eps, slope, intercept)
        assert fit_series.kind == "line" and fit_series.label == "fit slope -1.5"
        assert list(fit_series.x) == [0.125, 1.0]
        assert np.allclose(fit_series.y, [3.0 * 0.125 ** -1.5, 3.0], rtol=1e-12)
