"""The premises of the step's operands: numpy gives the same bits for a 0-d float64
operand as for the Python float it holds, and a run's detections, step counts and
CHECK outcomes do not move with numpy's SIMD dispatch targets."""

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from blowup_lab import cli
from blowup_lab.damping import DampingProfile
from blowup_lab.exponents import SystemParams
from blowup_lab.simulator import GridConfig, InitialData, run_until_blowup

ROOT2 = 1.0 + math.sqrt(2.0)
#: signed zeros, subnormals, the smallest normal, infinities, NaN, 1e300 and plain values
VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, math.inf,
          -math.inf, math.nan, 1e300, -1e300, 1e-300, 0.5, 1.0, -1.0, 2.0, 3.7, -2.5]
#: the source exponents, dr^2 and dt^2 of the shipped grids (2 and n - 1 are VALUES), VALUES
SCALARS = [1.5, ROOT2, 3.0, 0.02 ** 2, (0.5 * 0.0125) ** 2, *VALUES]


def operands():
    """VALUES, 203 random values from 1e-300 to 1e300 in size and VALUES again, so that
    the ufuncs' SIMD loops meet each VALUE in their body and in their tail."""
    rng = np.random.default_rng(0)
    wide = rng.standard_normal(203) * 10.0 ** rng.integers(-300, 300, 203)
    return np.concatenate([VALUES, wide, VALUES])


@pytest.mark.parametrize("s", SCALARS, ids=repr)
def test_a_0d_operand_gives_the_python_float_bits(s):
    # on a contiguous array and on a strided one (a component's slots), as either operand
    held = np.array(s)
    with np.errstate(all="ignore"):
        for ufunc, x in itertools.product((np.power, np.multiply, np.divide),
                                          (operands(), operands()[::2])):
            for args, args_0d in (((x, s), (x, held)), ((s, x), (held, x))):
                want, out = ufunc(*args), np.empty_like(x)
                assert ufunc(*args_0d, out) is out
                assert out.tobytes() == want.tobytes(), (ufunc.__name__, args_0d)


def avx512_targets() -> list[str]:
    """numpy's AVX-512 dispatch targets that this process runs: the names
    NPY_DISABLE_CPU_FEATURES takes (X86_V4, AVX512_ICL and AVX512_SPR on numpy 2.4)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__
            if (name.startswith("AVX512") or name == "X86_V4") and umath.__cpu_features__.get(name)]


def dispatch_outcomes() -> dict:
    """The AVX-512 targets this process runs, a short p = 3/2 sweep's detection and
    step count at each eps, and a short critical verify's exit code and CHECK outcomes."""
    poly, grid = DampingProfile.polynomial_tail(1.0, 2.0), GridConfig(dr=0.05, horizon=40.0)
    sweep = []
    for eps in (1.0, 0.5, 0.25, 0.125):
        res = run_until_blowup(SystemParams(2, F(3, 2), F(3, 2), eps=eps), (poly, poly),
                               InitialData(), grid)
        sweep.append([eps, res.record.detection.value, res.state.step_index])
    cfg = {"n": 3, "p": ROOT2, "q": ROOT2, "damping": {"kind": "poly", "mu": 1.0, "beta": 2.0},
           "dr": 0.05, "horizon": 8.0, "snapshot_every": 20, "sample_every": 20,
           "critical": True, "log_window": [5.0, 8.0]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.main(["verify", "--config", path, "--out", os.path.join(tmp, "out")])
    checks = [line.split(" (")[0] for line in stdout.getvalue().splitlines()]
    return {"targets": avx512_targets(), "sweep": sweep, "verify": [code, checks]}


def test_outcomes_do_not_move_without_avx512():
    # np.power takes numpy's own SIMD loop at p = 3/2 on an AVX-512 CPU and libm's pow
    # without it: their last bits differ, the outcomes must not
    targets = avx512_targets()
    if not targets:
        pytest.skip("numpy runs no AVX-512 dispatch target on this CPU")
    here = dispatch_outcomes()
    tests, src = Path(__file__).resolve().parent, Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
           "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    probe = "import json, test_operands; print(json.dumps(test_operands.dispatch_outcomes()))"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         timeout=600, check=True)
    there = json.loads(run.stdout.splitlines()[-1])
    assert here["targets"] == targets and there["targets"] == []
    assert there["sweep"] == here["sweep"] and there["verify"] == here["verify"]
    assert [d for _, d, _ in here["sweep"]] == ["ThresholdCross"] * 4
