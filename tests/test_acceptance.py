"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from blowup_lab import cli
from blowup_lab.auxiliary import (
    KernelConfig,
    fit_kernel_bounds,
    fundamental_identity_v,
    phi_eval,
    solve_fundamental_pair,
    verify_fundamental_bounds,
)
from blowup_lab.damping import DampingProfile
from blowup_lab.exponents import (
    SystemParams,
    classify,
    compute_F,
    lifespan_law,
    strauss_exponent,
)
from blowup_lab.iteration import (
    CriticalConstants,
    critical_closed_form,
    critical_logC_lower_bound,
    derive_constants,
    geometric_weight_limit,
    iterate_critical,
    iterate_subcritical,
    subcritical_closed_form,
    weighted_sum_identities,
)
from blowup_lab.simulator import (
    CriticalStream,
    Detection,
    FunctionalSampler,
    GridConfig,
    InitialData,
    fit_power_law,
    lifespan_sweep,
    run_until_blowup,
    verify_critical_inequalities,
)

ZERO = DampingProfile.zero()
POLY = DampingProfile.polynomial_tail(1.0, 2.0)
BUMPS = InitialData(1.0, 0.0, 1.0, 0.0)


def report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{name}]: {status} ({detail}; {elapsed:.2f}s of {budget:g}s budget)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget:g}s budget: {elapsed:.2f}s"


def rand_exponent(rng: random.Random) -> F:
    return F(rng.randint(101, 600), 100)


def single_equation_quantity(p: F) -> F:
    """(1 + 1/p)/(p - 1), the single-equation analogue of the system curve."""
    return (1 + 1 / p) / (p - 1)


def geometric_weight_partial(p, q, j: int) -> F:
    """The partial sum S_j = sum_{k<=j} k (pq)^(-k), exact for rational p, q."""
    pq = F(p) * F(q)
    return sum(k * pq ** -k for k in range(1, j + 1))


def test_criterion_1_exponent_calculus():
    t0 = time.time()
    rng = random.Random(20250808)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 5)
        p, q = rand_exponent(rng), rand_exponent(rng)
        if rng.random() < 0.1:
            q = p
        # swap symmetry: mirrored arguments give the mirrored formula, and
        # the classification is swap-invariant
        ok &= compute_F(n, q, p) == (q + 2 + F(1) / p) / (p * q - 1) - F(n - 1, 2)
        ok &= classify(SystemParams(n, p, q)).tag is classify(SystemParams(n, q, p)).tag
        # curve dominance against the single-equation quantity of the larger
        # exponent, equality exactly on the diagonal
        lhs = max(compute_F(n, p, q), compute_F(n, q, p)) + F(n - 1, 2)
        rhs = min(single_equation_quantity(p), single_equation_quantity(q))
        ok &= (lhs == rhs) if p == q else (lhs > rhs)
    for n in range(2, 6):
        p0 = strauss_exponent(n)
        ok &= abs(compute_F(n, p0, p0)) < 1e-10
        ok &= abs(compute_F(n, p0 + 0.01, p0 + 0.01)) > 1e-6
        ok &= abs(compute_F(n, p0 - 0.01, p0 - 0.01)) > 1e-6
    report(1, "exponent calculus", ok, "200 random rational pairs, n in 1..5",
           time.time() - t0, 1.0)


def test_criterion_2_subcritical_recursion_exactness():
    t0 = time.time()
    rng = random.Random(7)
    ok = True
    for _ in range(50):
        n = rng.randint(1, 5)
        p, q = rand_exponent(rng), rand_exponent(rng)
        params = SystemParams(n, p, q)
        states = iterate_subcritical(params, derive_constants(params), 21)
        base = states[0]
        for state in states:
            cf = subcritical_closed_form(params, state.j, base)
            ok &= state.b == cf.b and state.beta == cf.beta
            if state.j % 2 == 1:
                ok &= state.a == cf.a and state.alpha == cf.alpha
    for _, lhs, rhs in weighted_sum_identities(F(7, 2), F(9, 5), 21):
        ok &= lhs == rhs
    report(2, "subcritical recursion vs closed form", ok,
           "exact rational equality, odd j<=21 / even j<=20, 50 samples",
           time.time() - t0, 1.0)


def test_criterion_3_critical_recursion_exactness():
    t0 = time.time()
    rng = random.Random(11)
    ok = True
    cases = [(F(3), F(2)), (F(2), F(2)), (F(5, 2), F(5, 2)), (F(4), F(3, 2))]
    for _ in range(20):
        p, q = rand_exponent(rng), rand_exponent(rng)
        cases.append((max(p, q), min(p, q)))
    consts = CriticalConstants(C=0.7, K=1.3, Ctilde=0.2)
    for p, q in cases:
        params = SystemParams(3, p, q, eps=0.8)
        states = iterate_critical(params, consts, 12)
        for state in states:
            ok &= (state.a, state.b) == critical_closed_form(params, state.j)
            bound = critical_logC_lower_bound(params, consts, states[0].logC, state.j)
            ok &= state.logC >= bound - 1e-9 * max(1.0, abs(bound))
    s_exact = geometric_weight_limit(2, 2)
    ok &= abs(geometric_weight_partial(2, 2, 60) - s_exact) < 1e-12
    ok &= abs(float(geometric_weight_limit(F(2), F(2))) - 4.0 / 9.0) < 1e-15
    report(3, "critical recursion vs closed form", ok,
           "exact a_j,b_j at j<=12 both cases, S partials, logC bound",
           time.time() - t0, 1.0)


def test_criterion_4_eigenfunction_and_kernels(sphere_quadrature):
    t0 = time.time()
    ok = True
    h = 1e-3
    rho = np.arange(0.0, 10.0 + h / 2, h)
    for n in (2, 3, 4):
        vals = phi_eval(n, rho)
        lap = np.empty_like(vals)
        lap[1:-1] = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h ** 2
        lap[1:-1] += (n - 1) * (vals[2:] - vals[:-2]) / (2 * h * rho[1:-1])
        lap[0] = n * 2.0 * (vals[1] - vals[0]) / h ** 2
        rel = np.abs(lap[:-1] - vals[:-1]) / vals[:-1]
        ok &= float(np.max(rel)) < 1e-4
    wide = np.linspace(0.0, 45.0, 4501)
    for n in (2, 3):
        rel = np.abs(phi_eval(n, wide) / sphere_quadrature(n, wide) - 1.0)
        ok &= float(np.max(rel)) <= 1e-13
    fits = []
    for n in (2, 3):
        for q in (2, 3):
            r = (n - 1) / 2.0 - 1.0 / q
            cfg = KernelConfig(lambda0=1.0, R=1.0, order=r)
            fit = fit_kernel_bounds(cfg, n, np.linspace(0.0, 50.0, 11), x_points=7)
            fits.append(fit.all_positive())
    ok &= all(fits)
    report(4, "eigenfunction and kernels", ok,
           "Laplacian residual < 1e-4, sphere quadrature 1e-13, bound fits positive",
           time.time() - t0, 30.0)


def test_criterion_5_fundamental_pair():
    t0 = time.time()
    ok = True
    grid = np.arange(0.0, 10.0 + 1e-9, 1e-3)
    pair = solve_fundamental_pair(ZERO, 1.0, 0.0, grid)
    ok &= float(np.max(np.abs(pair.y1 - np.cosh(grid)) / np.cosh(grid))) < 1e-8
    sinh_ref = np.maximum(np.sinh(grid), 1e-300)
    ok &= float(np.max(np.abs(pair.y2 - np.sinh(grid)) / sinh_ref)) < 1e-8
    details = []
    for lam in (0.5, 1.0, 2.0):
        h = min(1e-3, 0.05 / lam)
        tg = np.linspace(0.0, 10.0, int(round(10.0 / h)) + 1)
        p = solve_fundamental_pair(POLY, lam, 0.0, tg)
        rep = verify_fundamental_bounds(p, POLY)
        idv = fundamental_identity_v(POLY, lam, 2.0)
        lam_ok = (rep.slack1_min >= -1e-6 and rep.slack2_min >= -1e-6
                  and rep.identity4_residual <= 1e-6 and idv <= 1e-6)
        details.append(f"lam={lam:g} ok={lam_ok}")
        ok &= lam_ok
    report(5, "fundamental pair", ok, "; ".join(details), time.time() - t0, 10.0)


def test_criterion_6_simulator_correctness(free_wave_error):
    t0 = time.time()
    params = SystemParams(1, F(2), F(2), R=1.0, eps=1.0)
    data = InitialData(1.0, 0.5, 1.0, 0.0)
    sampler = FunctionalSampler()
    lin = run_until_blowup(params, (ZERO, ZERO), data,
                           GridConfig(dr=0.02, horizon=5.0, linear_mode=True,
                                      enforce_cone=False), [(1, sampler)])
    du0 = lin.state.integral(lin.state.ut_init)
    tr = sampler.trace()
    lin_err = float(np.max(np.abs(tr.U - (tr.U[0] + du0 * tr.t))))

    # the window invariant: every slot past the cone window is +0.0, bit for bit
    cone = run_until_blowup(params, (ZERO, ZERO), BUMPS, GridConfig(dr=0.02, horizon=5.0)).state
    contained = cone.m < cone.r.size and not any(
        buf[cone._c * cone.m:].view(np.uint64).any() for buf in (cone._z, cone._z_prev, cone._src))

    # the order of the sup error against the exact n = 1 free wave (d'Alembert)
    coarse, fine = (free_wave_error(1, dr, 0.0) for dr in (0.04, 0.02))
    order = math.log2(coarse / fine)

    ok = lin_err < 1e-6 and contained and order >= 1.8
    report(6, "simulator correctness", ok,
           f"linear err={lin_err:.2e}, +0.0 past the cone={contained}, "
           f"exact-solution order={order:.2f}",
           time.time() - t0, 120.0)


SWEEPS = [
    ("n=1 undamped", SystemParams(1, F(2), F(2)), ZERO, 80.0),
    ("n=1 damped", SystemParams(1, F(2), F(2)), POLY, 100.0),
    ("n=2 undamped", SystemParams(2, F(3, 2), F(3, 2)), ZERO, 60.0),
    ("n=2 damped", SystemParams(2, F(3, 2), F(3, 2)), POLY, 70.0),
]


def test_criterion_7_lifespan_scaling():
    t0 = time.time()
    eps_list = [1.0, 0.5, 0.25, 0.125, 0.0625]
    details = []
    ok = True
    for label, params, prof, horizon in SWEEPS:
        grid = GridConfig(dr=0.02, horizon=horizon)
        records = lifespan_sweep(params, (prof, prof), BUMPS, grid, eps_list)
        # the fit and the window as `sweep` makes them, over the records that blew up
        usable = [r for r in records if r.detection is not Detection.SURVIVED]
        all_blew = len(usable) == len(records)
        ts = [r.t_blow for r in records]
        monotone = ts == sorted(ts)
        slope, _ = fit_power_law(np.array([r.eps for r in usable]),
                                 np.array([r.t_blow for r in usable]))
        theory = float(lifespan_law(params, BUMPS.speed_flags()).exponent)
        in_window = abs(slope - theory) <= 0.25 * abs(theory)
        ok &= all_blew and monotone and in_window
        details.append(f"{label}: slope={slope:.3f} theory={theory:.3f}")
    report(7, "lifespan scaling", ok, "; ".join(details), time.time() - t0, 600.0)


def test_criterion_8_critical_regime_functionals():
    t0 = time.time()
    p0 = strauss_exponent(3)
    params = SystemParams(3, p0, p0, R=1.0, eps=1.0)
    grid = GridConfig(dr=0.0125, horizon=40.0)
    stream = CriticalStream(params, (POLY, POLY), grid, 40)
    res = run_until_blowup(params, (POLY, POLY), BUMPS, grid, [(40, stream)])
    survived = res.record.detection is Detection.SURVIVED
    rep = verify_critical_inequalities(stream, log_window=(5.0, 40.0))
    ok = survived and rep.bounds_hold() and rep.log_ratio_min > 0
    report(8, "critical-regime functionals", ok,
           f"bounds at {rep.t_checked.size} sampled times, "
           f"min U/log(2t/3)={rep.log_ratio_min:.3f}",
           time.time() - t0, 300.0)


def test_criterion_9_reproducibility(tmp_path):
    t0 = time.time()
    sweep_cfg = {"n": 1, "p": 2, "q": 2, "dr": 0.05, "horizon": 30.0,
                 "eps_list": [1.0, 0.7, 0.5, 0.35], "workers": 1}
    sim_cfg = {"n": 2, "p": "3/2", "q": "3/2", "dr": 0.05, "horizon": 3.0,
               "sample_every": 4}
    identical = True
    for name, command, cfg in (("sweep", "sweep", sweep_cfg), ("sim", "simulate", sim_cfg)):
        outs = []
        for rep_i in (1, 2):
            cfg_path = tmp_path / f"{name}{rep_i}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"{name}_out{rep_i}"
            code = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0
            outs.append(out)
        for artifact in sorted(p.name for p in outs[0].iterdir()):
            identical &= (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()
    report(9, "reproducibility", identical, "CSV and SVG artifacts byte-identical",
           time.time() - t0, 120.0)
