"""Workload inputs for the blowup-lab benchmark, generated from a seed.

A workload is a list of CLI invocations; one pass runs them all in order.
Seed 0 gives exactly the documented inputs.  Other seeds perturb the top of
the sweep eps ladder, the critical eps and the modal lambdas, inside ranges
where every CHECK line passes at the commit that defined the benchmark:

- sweep top eps in [0.85, 1.0]: the largest slope error moves 0.1038-0.1064;
- critical eps in [0.98, 1.0]: the run survives to T = 40 and the
  log-growth minimum stays in 0.335-0.346 (0.29 at eps = 0.9 still passes);
- modal lambdas scaled by [0.9, 1.1]: the RK4 step stays 1e-3 (lambda <= 50),
  so the step count, and with it the cost, does not move.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

POLY = {"kind": "poly", "mu": 1.0, "beta": 2.0}
ZERO = {"kind": "zero"}
EPS_LADDER = [1.0, 0.5, 0.25, 0.125, 0.0625]
SLOPE_RTOL = 0.25
# p = q = 1 + sqrt(2), the Strauss exponent of n = 3 (criterion 8)
STRAUSS_3 = 1.0 + math.sqrt(2.0)

# label, n, p = q, damping, horizon: the four criterion-7 families
SWEEP_FAMILIES = [
    ("n1-zero", 1, 2, ZERO, 80.0),
    ("n1-poly", 1, 2, POLY, 100.0),
    ("n2-zero", 2, "3/2", ZERO, 60.0),
    ("n2-poly", 2, "3/2", POLY, 70.0),
]

WORKLOADS = ("sweep", "critical", "modal")


@dataclass(frozen=True)
class Inputs:
    """The seed-dependent values; every other input is fixed."""

    sweep_top_eps: float
    critical_eps: float
    modal_lambdas: tuple[float, ...]


@dataclass(frozen=True)
class Invocation:
    """One `blowup-lab <command> --config <cfg>` call of a pass."""

    label: str
    command: str
    config: dict


def inputs_for(seed: int) -> Inputs:
    """Seed 0 is the documented input set; the draws happen in a fixed
    order, so a seed gives the same values whichever workload runs."""
    if seed == 0:
        return Inputs(1.0, 1.0, (0.5, 1.0, 2.0))
    rng = random.Random(seed)
    top = 1.0 - 0.15 * rng.random()
    crit = 1.0 - 0.02 * rng.random()
    lambdas = tuple(lam * (0.9 + 0.2 * rng.random()) for lam in (0.5, 1.0, 2.0))
    return Inputs(top, crit, lambdas)


def sweep_invocations(inputs: Inputs, reduced: bool = False,
                      slope_rtol: float = SLOPE_RTOL) -> list[Invocation]:
    eps_list = [inputs.sweep_top_eps] + EPS_LADDER[1:]
    out = []
    for label, n, p, damp, horizon in SWEEP_FAMILIES:
        cfg = {
            "n": n, "p": p, "q": p, "damping": damp,
            "dr": 0.05 if reduced else 0.02, "horizon": horizon,
            "eps_list": eps_list, "slope_rtol": slope_rtol,
        }
        out.append(Invocation(label, "sweep", cfg))
    return out


def critical_invocations(inputs: Inputs, reduced: bool = False) -> list[Invocation]:
    horizon = 12.0 if reduced else 40.0
    cfg = {
        "n": 3, "p": STRAUSS_3, "q": STRAUSS_3, "eps": inputs.critical_eps,
        "damping": POLY, "dr": 0.05 if reduced else 0.0125, "horizon": horizon,
        "snapshot_every": 40, "sample_every": 40,
        "critical": True, "log_window": [5.0, horizon],
    }
    return [Invocation("critical", "verify", cfg)]


def modal_invocations(inputs: Inputs, reduced: bool = False) -> list[Invocation]:
    cfg = {
        "n": 3, "orders": ["1/2", "2/3"], "t_max": 50.0,
        "t_points": 4 if reduced else 11, "x_points": 7, "damping": POLY,
        "lambdas": list(inputs.modal_lambdas[-1:] if reduced else inputs.modal_lambdas),
        "horizon": 3.0 if reduced else 10.0,
    }
    return [Invocation("modal", "kernels", cfg)]


def invocations(workload: str, seed: int, reduced: bool = False) -> list[Invocation]:
    inputs = inputs_for(seed)
    if workload == "sweep":
        return sweep_invocations(inputs, reduced)
    if workload == "critical":
        return critical_invocations(inputs, reduced)
    if workload == "modal":
        return modal_invocations(inputs, reduced)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
