"""Every solver oracle can fail: tables of source mutations of the simulator and
of the modal solver in auxiliary, each of which some oracle must kill.

A row is (name, old, new): `old` must occur exactly once in the module's source,
so a refactor that moves the code fails the table loudly instead of testing
nothing.  The mutated source is loaded as a fresh module and held to its
table's oracles (the simulator's from tests/oracles.py); the unmutated source,
loaded the same way, must pass all of them.  A row that no oracle kills is a
finding: add an oracle, do not delete the row."""

import sys
import types
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    critical_stream_run,
    free_wave_error,
    reference_critical_report,
    reference_levels,
    sampled_run,
    step_identity_residual,
)

from blowup_lab import auxiliary, simulator
from blowup_lab.cli import _modal_nodes
from blowup_lab.damping import DampingProfile
from blowup_lab.exponents import SystemParams

SOURCE = Path(simulator.__file__).read_text()
AUX_SOURCE = Path(auxiliary.__file__).read_text()
ZERO = DampingProfile.zero()
POLY = DampingProfile.polynomial_tail(1.0, 2.0)
ROOT2 = 1.0 + 2.0 ** 0.5
SPEEDS = simulator.InitialData(1.0, 0.3, 0.7, -0.2)

MUTANTS = [
    ("drop the (n-1)/(2 dr r) term",
     "np.add(inner, tmp, inner)", "inner"),
    ("n - 1 in place of n at the origin",
     "self._origin = n * 2.0, dr ** 2", "self._origin = (n - 1) * 2.0, dr ** 2"),
    ("the Taylor start without 1/2 dt^2",
     " + 0.5 * dt * dt * (lap_w - b * w_t0 + src_w)", ""),
    ("each component adding its own source",
     "np.add(lap_u, src_v, lap_u)\n        np.add(lap_v, src_u,",
     "np.add(lap_u, src_u, lap_u)\n        np.add(lap_v, src_v,"),
    ("the one-component update without its source",
     "np.add(lap, src, lap)", "pass"),
    ("damping evaluated at the new level's time",
     "state.b1.b(t)\n    b2 = b1 if state._zero or state.b2 is state.b1 else state.b2.b(t)",
     "state.b1.b(t_new)\n    b2 = b1 if state._zero or state.b2 is state.b1 else "
     "state.b2.b(t_new)"),
    ("p and q swapped in _measure",
     "_power(z_abs[0::2], exps[0], src[0:k:2])\n            _power(z_abs[1::2], exps[1],",
     "_power(z_abs[0::2], exps[1], src[0:k:2])\n            _power(z_abs[1::2], exps[0],"),
    ("the critical stream's kick weight 1",
     "kick = 0.5 * (t - self.t[", "kick = 1.0 * (t - self.t["),
    ("the critical stream's one recurrence on two components",
     "if not self.t and fields[1] is fields[0]:", "if not self.t:"),
    ("the level's fields reading u as v on two components",
     "return (u, u, nu, nu) if c == 1 else", "return (u, u, nu, nu) if True else"),
    ("_cumleft as a right-endpoint sum",
     "np.cumsum(y[:-1] * np.diff(t))", "np.cumsum(y[1:] * np.diff(t))"),
    ("drop the tail zeroing",
     "state._z_prev[s * m_new:s * (m_new + 1)] = 0.0", "pass"),
    ("key the plan without the buffer parity",
     "state.step_index % 2", "0"),
    ("the sup norm at the argmin of |z|",
     "z_abs[z_abs.argmax()]", "z_abs[z_abs.argmin()]"),
    # the one-component guard, one condition at a time
    ("the one-component guard without the data condition",
     "self.b2 is self.b1\n                     and self.u_init.tobytes() == self.v_init.tobytes()\n"
     "                     and self.ut_init.tobytes() == self.vt_init.tobytes())",
     "self.b2 is self.b1)"),
    ("the one-component guard without b2 is b1",
     "p == q and self.b2 is self.b1\n", "p == q\n"),
    ("the one-component guard without p == q",
     "symmetric = (p == q and ", "symmetric = ("),
    # the step's operands built once per state, and the undamped shortcut by kind
    ("dr^2 built as 2 dr",
     "(2.0, dr ** 2, n - 1.0,", "(2.0, 2.0 * dr, n - 1.0,"),
    ("dt^2 built as dt",
     "n - 1.0, self.dt * self.dt)", "n - 1.0, self.dt)"),
    ("n - 1 built as n",
     "dr ** 2, n - 1.0, self.dt", "dr ** 2, n + 0.0, self.dt"),
    ("the source exponents built as (p, q)",
     "for e in (q, p))", "for e in (p, q))"),
    ("the step's cone window without its 2 dr buffer",
     "/ state.dr + 2.0) + 1)", "/ state.dr + 1.0) + 1)"),
    ("a pair undamped by the kind of its first profile",
     "self.b1.kind == self.b2.kind == \"zero\"", "self.b1.kind == \"zero\""),
    ("the n = 2 origin cell's weight back to the trapezoid's 0",
     "self.weights[0] = math.pi * dr ** 2 / 4.0", "self.weights[0] = 0.0"),
    # lanes: one level of c B slots a node
    ("the stencil shifted by c instead of c B",
     "z[2 * s:j + s],\n                      z[:j - s]",
     "z[s + c:j + c],\n                      z[s - c:j - c]"),
    ("only lane 0's tail slots zeroed",
     "state._z_prev[s * m_new:s * (m_new + 1)] = 0.0",
     "state._z_prev[s * m_new:s * m_new + state._c] = 0.0"),
    ("compaction that keeps the lane that ended",
     "state.keep_lanes(keep)", "state.keep_lanes(range(len(state.lanes)))"),
]


def load(source: str, module: types.ModuleType = simulator) -> types.ModuleType:
    """source executed as a fresh copy of module; dataclasses look their module up
    while the classes are made, so it is registered until then."""
    name = f"{module.__name__}_under_test"
    fresh = types.ModuleType(name)
    fresh.__file__ = module.__file__
    sys.modules[name] = fresh
    try:
        exec(compile(source, module.__file__, "exec"), fresh.__dict__)
    finally:
        del sys.modules[name]
    return fresh


def windowed_levels(sim):
    # n = 3, p != q, two profile objects and data with speeds: every level on the
    # cone window against the full-grid reference, byte for byte, and +0.0 past it
    params = SystemParams(3, F(3), F(2), R=1.0, eps=0.5)
    profiles, grid = (POLY, replace(POLY)), simulator.GridConfig(dr=0.05, horizon=4.0)
    state = sim.GridState(params, profiles, SPEEDS, grid)
    ref = reference_levels(sim.GridState(params, profiles, SPEEDS, grid))
    for _ in range(120):
        t, u, v = next(ref)
        assert state.t == t
        assert state.u.tobytes() == u.tobytes() and state.v.tobytes() == v.tobytes()
        assert not np.any(state._z[2 * state.m:]) and not np.any(state._src[2 * state.m:])
        sim.step(state)


def guarded_layout(sim):
    # a symmetric run, then runs that each break one condition of the one-component
    # guard (equal data, one shared profile object, p = q), against the two-component
    # reference, byte for byte
    equal, params = simulator.InitialData(1.0, 0.3, 1.0, 0.3), SystemParams(2, F(2), F(2), eps=1.0)
    cases = [(params, (POLY, POLY), equal),
             (params, (POLY, POLY), simulator.InitialData(1.0, 0.3, 0.7, 0.2)),
             (params, (ZERO, POLY), equal), (replace(params, q=F(3)), (POLY, POLY), equal)]
    grid = simulator.GridConfig(dr=0.05, horizon=2.0)
    for params, profiles, data in cases:
        state = sim.GridState(params, profiles, data, grid)
        ref = reference_levels(sim.GridState(params, profiles, data, grid))
        for _ in range(40):
            t, u, v = next(ref)
            assert state.u.tobytes() == u.tobytes() and state.v.tobytes() == v.tobytes()
            sim.step(state)


def step_identity(sim):
    # n = 2 on the full grid, the origin cell weighted: about 1e-15 relative
    params = SystemParams(2, F(3), F(2), R=1.0, eps=0.5)
    grid = simulator.GridConfig(dr=0.025, horizon=2.0, enforce_cone=False)
    assert step_identity_residual(params, (POLY, POLY), SPEEDS, grid, sim=sim) <= 1e-12


def exact_free_waves(sim):
    # d'Alembert at n = 1 with speeds and spherical means at n = 3 (TestExactSolutions)
    assert free_wave_error(1, 0.04, 1.0, sim=sim) <= 2.8 * 0.04 ** 2
    assert free_wave_error(3, 0.04, 0.0, sim=sim) <= 0.4 * 0.04 ** 2


def critical_double_sum(sim):
    # the streamed lower bounds against the direct O(S^2 K) sum
    params = SystemParams(3, ROOT2, ROOT2, R=1.0, eps=1.0)
    grid = simulator.GridConfig(dr=0.1, horizon=4.0)
    res, snapshots, stream = critical_stream_run(params, (POLY, POLY), SPEEDS, grid, 5, 16,
                                                 sim=sim)
    rep = sim.verify_critical_inequalities(stream)
    ref = reference_critical_report(res, snapshots, 16)
    assert np.array_equal(rep.weighted_u, ref["weighted_u"])
    for name in ("rhs_u", "rhs_v"):
        np.testing.assert_allclose(getattr(rep, name), ref[name], rtol=1e-13, atol=0.0)


def frames_on_a_blowup_run(sim):
    # the frame inequalities hold up to the terminal spike of a blow-up run
    params = SystemParams(1, F(2), F(2), R=1.0, eps=1.0)
    grid = simulator.GridConfig(dr=0.04, horizon=20.0)
    res, tr = sampled_run(params, (ZERO, ZERO), simulator.InitialData(), grid, sim=sim)
    assert res.record.detection is sim.Detection.THRESHOLD
    assert sim.verify_identities(tr, (ZERO, ZERO), params).inequalities_hold()


def lane_levels(sim):
    # three lanes stepped as one level against their runs alone, slot for slot at every
    # step, before and after the middle lane is dropped: coupled data with two profiles
    # (c = 2) and symmetric data (c = 1)
    cases = [(SystemParams(2, F(3, 2), F(2), R=1.0, eps=1.0), (POLY, replace(POLY)), SPEEDS),
             (SystemParams(1, F(2), F(2), R=1.0, eps=1.0), (ZERO, ZERO), simulator.InitialData())]
    grid, eps = simulator.GridConfig(dr=0.05, horizon=4.0), [1.0, 0.5, 0.25]
    for params, profiles, data in cases:
        lanes = sim.GridState(params, profiles, data, grid, eps)
        solo = [sim.GridState(replace(params, eps=e), profiles, data, grid) for e in eps]
        for step_index in range(120):
            if step_index == 60:
                lanes.keep_lanes([0, 2])
                del solo[1]
            level = lanes._z.reshape(-1, len(solo), lanes._c)
            for j, state in enumerate(solo):
                assert level[:, j].tobytes() == state._z.reshape(-1, state._c).tobytes()
                sim.step(state)
            sim.step(lanes)


def lane_records(sim):
    # every record of a sweep is that of its run alone, lanes ending in any order:
    # n = 1 (with a repeated eps), 2 and 3, and a coupled pair with two profiles and speeds
    ladders = [
        (SystemParams(1, F(2), F(2), R=1.0, eps=1.0), (ZERO, ZERO), simulator.InitialData(),
         simulator.GridConfig(dr=0.1, horizon=12.0), [1.0, 0.5, 1.0, 0.35, 0.5, 0.25]),
        (SystemParams(2, F(3, 2), F(3, 2), R=1.0, eps=1.0), (POLY, POLY),
         simulator.InitialData(), simulator.GridConfig(dr=0.1, horizon=18.0), [2.0, 1.0, 0.7, 0.5]),
        (SystemParams(3, F(2), F(2), R=1.0, eps=1.0), (ZERO, ZERO), simulator.InitialData(),
         simulator.GridConfig(dr=0.1, horizon=20.0, threshold=1e6), [16.0, 12.0, 8.0, 6.0]),
        (SystemParams(2, F(3, 2), F(2), R=1.0, eps=1.0), (POLY, replace(POLY)),
         simulator.InitialData(1.0, 0.3, 0.7, 0.2), simulator.GridConfig(dr=0.1, horizon=30.0),
         [2.0, 1.0, 0.7, 0.5]),
    ]
    for params, profiles, data, grid, eps in ladders:
        records = sim.lifespan_sweep(params, profiles, data, grid, eps)
        assert records == [sim.run_until_blowup(replace(params, eps=e), profiles, data, grid).record
                           for e in eps]
        assert {rec.detection for rec in records} == {sim.Detection.THRESHOLD,
                                                      sim.Detection.SURVIVED}


def nonfinite_lane(sim):
    # at threshold 1e300 the lane at eps 0.5 overflows first, and its neighbours run
    # on: 0.45 crosses the threshold, 0.4 and 0.3 survive
    params = SystemParams(1, F(3, 2), F(3, 2), R=1.0, eps=1.0)
    grid = simulator.GridConfig(dr=0.1, horizon=10.9, threshold=1e300)
    eps, data = [0.3, 0.5, 0.4, 0.45], simulator.InitialData()
    records = sim.lifespan_sweep(params, (ZERO, ZERO), data, grid, eps)
    assert records == [sim.run_until_blowup(replace(params, eps=e), (ZERO, ZERO), data, grid).record
                       for e in eps]
    assert [rec.detection.value for rec in records] == ["Survived", "NonFinite", "Survived",
                                                        "ThresholdCross"]


ORACLES = [windowed_levels, guarded_layout, step_identity, exact_free_waves, critical_double_sum,
           frames_on_a_blowup_run, lane_levels, lane_records, nonfinite_lane]


AUX_MUTANTS = [
    ("the first short step dropped",
     "float(suffix[j][0, 0] * q[0, 1, i] + suffix[j][0, 1] * (1.0 + q[1, 1, i]))",
     "float(suffix[j][0, 1])"),
    ("the suffix from the node after",
     "nodes = np.searchsorted(t_grid, starts)", "nodes = np.searchsorted(t_grid, starts) + 1"),
    ("the suffix from the node before",
     "nodes = np.searchsorted(t_grid, starts)", "nodes = np.searchsorted(t_grid, starts) - 1"),
    ("delta without its 1/lambda scale",
     "IDENTITY_DELTA * min(1.0, 1.0 / lam)", "IDENTITY_DELTA"),
    ("the short step's b held at its start",
     "(starts, starts + 0.5 * h, ends)", "(starts, starts, starts)"),
]


def kernels_grid(lam, horizon):
    """The kernels command's modal grid at one lambda."""
    return np.linspace(0.0, horizon, _modal_nodes(lam, horizon))


def suffix_nodes(aux):
    # each re-solve's product starts at the first main-grid node at or past its start:
    # node 1 for both (iv) starts on the kernels grid (2 delta <= h), and two nodes on a
    # grid of step delta / 5.  First in the table: a suffix from a node off either end
    # of a grid raises in the other oracles
    starts, solve, delta = [], aux._pair_at_end, auxiliary.IDENTITY_DELTA
    aux._pair_at_end = lambda profile, lam, s, t_grid: starts.append(s) or solve(
        profile, lam, s, t_grid)
    try:
        for grid in (kernels_grid(1.0, 2.0), np.linspace(0.0, 2.0, 20001)):
            starts.clear()
            aux.verify_fundamental_bounds(aux.solve_fundamental_pair(POLY, 1.0, 0.0, grid), POLY)
            assert starts == list(dict.fromkeys(grid[grid >= x][0] for x in (delta, 2 * delta)))
    finally:
        aux._pair_at_end = solve


def modal_identities(aux):
    # (iv) and (v) on the poly profile, where the difference step shrinks like 1/lambda
    # past 1: both about 1e-7 or less at every lambda
    for lam in (0.05, 1.0, 40.0):
        pair = aux.solve_fundamental_pair(POLY, lam, 0.0, kernels_grid(lam, 2.0))
        assert aux.verify_fundamental_bounds(pair, POLY).ok()
        assert aux.fundamental_identity_v(POLY, lam, 2.0) <= auxiliary.IDENTITY_TOL


def modal_kinks(aux):
    # a table whose kinks are nodes of the kernels grid: (iv) reads 2.7e-8 at lambda = 1
    table = DampingProfile.tabulated([0.0, 1.0, 4.0], [1.5, 0.2, 0.6])
    pair = aux.solve_fundamental_pair(table, 1.0, 0.0, kernels_grid(1.0, 10.0))
    assert aux.verify_fundamental_bounds(pair, table).ok()


def modal_check_fails(aux):
    # an undamped pair checked against poly misses (iv) by 1.3e3 at lambda = 1
    pair = aux.solve_fundamental_pair(ZERO, 1.0, 0.0, kernels_grid(1.0, 10.0))
    assert not aux.verify_fundamental_bounds(pair, POLY).ok()


MODAL_ORACLES = [suffix_nodes, modal_identities, modal_kinks, modal_check_fails]


def killed(module, oracles=ORACLES) -> bool:
    for oracle in oracles:
        try:
            oracle(module)
        except AssertionError:
            return True
    return False


def test_the_lab_passes_every_oracle():
    sim = load(SOURCE)
    for oracle in ORACLES:
        oracle(sim)


def test_the_modal_solver_passes_every_oracle():
    aux = load(AUX_SOURCE, auxiliary)
    for oracle in MODAL_ORACLES:
        oracle(aux)


@pytest.mark.parametrize("name,old,new", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_mutant_is_killed(name, old, new):
    assert SOURCE.count(old) == 1, f"{name}: the mutated code moved"
    assert killed(load(SOURCE.replace(old, new))), f"no oracle kills: {name}"


@pytest.mark.parametrize("name,old,new", AUX_MUTANTS, ids=[row[0] for row in AUX_MUTANTS])
def test_modal_mutant_is_killed(name, old, new):
    assert AUX_SOURCE.count(old) == 1, f"{name}: the mutated code moved"
    assert killed(load(AUX_SOURCE.replace(old, new), auxiliary), MODAL_ORACLES), \
        f"no oracle kills: {name}"
