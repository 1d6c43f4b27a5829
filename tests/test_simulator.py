import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from fractions import Fraction as F

import numpy as np
import pytest

from blowup_lab import simulator
from blowup_lab.auxiliary import KernelQuadrature, sinhc
from blowup_lab.damping import DampingProfile
from blowup_lab.exponents import SystemParams, strauss_exponent
from blowup_lab.simulator import (
    CriticalStream,
    Detection,
    FunctionalSampler,
    FunctionalTrace,
    GridConfig,
    InitialData,
    LifespanRecord,
    cone_leakage,
    fit_power_law,
    init_state,
    lifespan_sweep,
    run_until_blowup,
    step,
    verify_critical_inequalities,
    verify_identities,
    write_records_csv,
    write_trace_csv,
)

ZERO = DampingProfile.zero()
BUMPS = InitialData(1.0, 0.0, 1.0, 0.0)


def params1d(eps=1.0, p=F(2), q=F(2)):
    return SystemParams(1, p, q, R=1.0, eps=eps)


def sampled_run(params, profiles, data, grid, *observers):
    """A run with a FunctionalSampler at sample_every, then the given observers:
    the result and the sampled trace."""
    sampler = FunctionalSampler()
    res = run_until_blowup(params, profiles, data, grid, [(grid.sample_every, sampler), *observers])
    return res, sampler.trace()


class TestInit:
    def test_zero_data_zero_state(self):
        state = init_state(params1d(), (ZERO, ZERO), InitialData.zero(), GridConfig(horizon=2.0))
        assert np.all(state.u == 0.0) and np.all(state.v == 0.0)

    def test_one_sided_bump(self):
        data = InitialData(u0_amp=1.0, u1_amp=0.0, v0_amp=0.0, v1_amp=0.0)
        state = init_state(params1d(), (ZERO, ZERO), data, GridConfig(horizon=2.0, linear_mode=True))
        assert state.integral(state.u_init) > 0.0
        assert state.integral(state.v_init) == 0.0

    def test_eps_scaling_is_linear(self):
        s1 = init_state(params1d(eps=1.0), (ZERO, ZERO), BUMPS, GridConfig(horizon=2.0))
        s2 = init_state(params1d(eps=2.0), (ZERO, ZERO), BUMPS, GridConfig(horizon=2.0))
        assert s2.integral(s2.u_init) == 2.0 * s1.integral(s1.u_init)

    def test_cfl_guard(self):
        with pytest.raises(ValueError):
            GridConfig(cfl=0.9)

    @pytest.mark.parametrize("bad", [
        {"dr": math.nan}, {"horizon": math.inf}, {"threshold": math.inf},
        {"dr": math.inf}, {"snapshot_every": 0},
    ])
    def test_nonfinite_lengths_and_zero_cadence_rejected(self, bad):
        with pytest.raises(ValueError):
            GridConfig(**bad)


class TestStep:
    def test_zero_state_stays_zero(self):
        state = init_state(params1d(), (ZERO, ZERO), InitialData.zero(), GridConfig(horizon=1.0))
        for _ in range(50):
            step(state)
        assert np.all(state.u == 0.0) and np.all(state.v == 0.0)

    def test_linear_mode_average_moves_on_a_line(self):
        # without sources U'' = 0: the discrete sum of the Laplacian
        # telescopes, so U follows U(0) + U'(0) t to roundoff
        data = InitialData(1.0, 0.5, 1.0, 0.0)
        grid = GridConfig(dr=0.02, horizon=3.0, linear_mode=True, enforce_cone=False)
        res, tr = sampled_run(params1d(), (ZERO, ZERO), data, grid)
        du0 = res.state.integral(res.state.ut_init)
        err = np.max(np.abs(tr.U - (tr.U[0] + du0 * tr.t)))
        assert err < 1e-6

    def test_cone_containment_enforced(self):
        grid = GridConfig(dr=0.02, horizon=3.0, enforce_cone=True)
        res = run_until_blowup(params1d(), (ZERO, ZERO), BUMPS, grid)
        assert cone_leakage(res) < 1e-12


def reference_levels(state):
    """Yield (t, u, v) at t = 0, dt, 2 dt, ... from a plain full-grid leapfrog:
    every node is updated, then the nodes past r = t + R + 2 dr are zeroed."""
    params, grid, r = state.params, state.grid, state.r
    n, R, dr, dt = params.n, params.R, state.dr, state.dt
    b1, b2 = state.b1, state.b2

    def sources(u, v):
        if grid.linear_mode:
            return np.zeros_like(u), np.zeros_like(v)
        return np.abs(v) ** float(params.p), np.abs(u) ** float(params.q)

    def lap(u):
        out = np.zeros_like(u)
        out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dr ** 2
        if n > 1:
            out[1:-1] += (n - 1) * (u[2:] - u[:-2]) / (2.0 * dr * r[1:-1])
        out[0] = n * 2.0 * (u[1] - u[0]) / dr ** 2
        return out

    def cone(t, u, v):
        start = int(math.floor((t + R) / dr + 2.0)) + 1
        if grid.enforce_cone and start < r.size:
            u[start:] = 0.0
            v[start:] = 0.0

    u_prev, v_prev, ut, vt = state.u_init, state.v_init, state.ut_init, state.vt_init
    yield 0.0, u_prev, v_prev
    su, sv = sources(u_prev, v_prev)
    u = u_prev + dt * ut + 0.5 * dt * dt * (lap(u_prev) - b1.b(0.0) * ut + su)
    v = v_prev + dt * vt + 0.5 * dt * dt * (lap(v_prev) - b2.b(0.0) * vt + sv)
    t = dt
    cone(t, u, v)
    while True:
        yield t, u, v
        with np.errstate(over="ignore", invalid="ignore"):
            su, sv = sources(u, v)
            h1, h2 = 0.5 * b1.b(t) * dt, 0.5 * b2.b(t) * dt
            u_new = (2.0 * u - u_prev + h1 * u_prev + dt * dt * (lap(u) + su)) / (1.0 + h1)
            v_new = (2.0 * v - v_prev + h2 * v_prev + dt * dt * (lap(v) + sv)) / (1.0 + h2)
        u_new[-1] = v_new[-1] = 0.0
        u_prev, u, v_prev, v = u, u_new, v, v_new
        t += dt
        cone(t, u, v)


def reference_record(params, profiles, data, grid):
    """(t_blow, detection) of the full-grid reference, checked every step."""
    state = init_state(params, profiles, data, grid)
    n_steps = int(round(grid.horizon / state.dt))
    for i, (t, u, v) in enumerate(reference_levels(state)):
        sup = float(np.maximum(np.max(np.abs(u)), np.max(np.abs(v))))
        if not math.isfinite(sup):
            return t, Detection.NONFINITE
        if sup > grid.threshold:
            return t, Detection.THRESHOLD
        if i == n_steps:
            return grid.horizon, Detection.SURVIVED


POLY = DampingProfile.polynomial_tail(1.0, 2.0)
ROOT2 = 1.0 + math.sqrt(2.0)


def run_with_snapshots(params, profiles, data, grid, stream=None):
    """A sampled run, its trace, and copies (t, u, v) of its fields at the snapshot
    cadence, collected by an observer that then hands the state on to the critical
    stream, if any."""
    snapshots = []

    def observe(state):
        snapshots.append((state.t, state.u.copy(), state.v.copy()))
        if stream is not None:
            stream(state)

    return (*sampled_run(params, profiles, data, grid, (grid.snapshot_every, observe)),
            snapshots)


def critical_stream_run(params, profiles, data, grid, quad_nodes=64):
    """A run streamed through a CriticalStream: the run, copies of its snapshots and the stream."""
    stream = CriticalStream(params, profiles, grid, quad_nodes=quad_nodes)
    res, _, snapshots = run_with_snapshots(params, profiles, data, grid, stream)
    return res, snapshots, stream


class _CountingDamping:
    """Stand-in damping profile that counts its calls to b."""

    def __init__(self, profile):
        self.profile, self.calls = profile, 0

    def b(self, t):
        self.calls += 1
        return self.profile.b(t)


class TestWindowedStep:
    """The cone-windowed step against the full-grid reference, bit for bit."""

    @staticmethod
    def assert_same_levels(params, profiles, grid, steps, data=BUMPS):
        state = init_state(params, profiles, data, grid)
        ref = reference_levels(init_state(params, profiles, data, grid))
        t, u, v = next(ref)
        for _ in range(steps):
            assert state.t == t
            assert np.array_equal(state.u, u) and np.array_equal(state.v, v)
            step(state)
            t, u, v = next(ref)
        assert state.t == t
        assert np.array_equal(state.u, u) and np.array_equal(state.v, v)
        return state

    @pytest.mark.parametrize("n,p", [(1, F(2)), (2, F(3, 2)), (3, ROOT2)])
    @pytest.mark.parametrize("damping", [ZERO, POLY], ids=["zero", "poly"])
    def test_matches_full_grid(self, n, p, damping):
        params = SystemParams(n, p, p, R=1.0, eps=1.0)
        data = InitialData(1.0, 0.3, 0.5, -0.2)
        state = self.assert_same_levels(params, (damping, damping), GridConfig(dr=0.04, horizon=8.0),
                                        300, data)
        assert state.m < state.r.size

    def test_cone_reaching_rmax(self):
        # the grid ends at rmax = horizon + R + 0.5 = 3.52 (88 dr): the window
        # covers the whole grid after t = 2.44, and the boundary node must stay zero
        grid = GridConfig(dr=0.04, horizon=2.0)
        state = self.assert_same_levels(params1d(eps=0.3), (POLY, POLY), grid, 300)
        assert state.m == state.r.size and state.u[-1] == 0.0 and state.v[-1] == 0.0

    def test_cone_not_enforced(self):
        grid = GridConfig(dr=0.04, horizon=8.0, enforce_cone=False)
        params = SystemParams(2, F(3, 2), F(3, 2), R=1.0, eps=0.5)
        state = self.assert_same_levels(params, (ZERO, POLY), grid, 300)
        assert np.any(state.u[state.r > state.t + 1.0 + 0.08] != 0.0)
        # the window is the whole grid, and the boundary node must stay zero
        assert state.m == state.r.size and state.u[-1] == 0.0 and state.v[-1] == 0.0

    def test_linear_mode(self):
        grid = GridConfig(dr=0.04, horizon=4.0, linear_mode=True)
        self.assert_same_levels(SystemParams(3, F(2), F(3), R=1.0, eps=1.0), (POLY, ZERO), grid, 300)

    @pytest.mark.parametrize("n,p,q,shared", [
        (1, F(2), F(2), False), (1, F(2), F(3), True), (1, F(2), F(3), False),
        (2, F(3, 2), F(3, 2), False), (2, F(3, 2), F(2), True), (2, F(3, 2), F(2), False),
        (3, ROOT2, ROOT2, False), (3, ROOT2, F(2), True), (3, ROOT2, F(2), False),
    ], ids=lambda v: ("shared" if v else "distinct") if isinstance(v, bool) else str(v))
    @pytest.mark.parametrize("damping", [ZERO, POLY], ids=["zero", "poly"])
    def test_profile_objects_and_orders(self, n, p, q, shared, damping):
        # step evaluates a shared profile object once and distinct (equal)
        # objects once each; p != q gives the two sources different powers
        profiles = (damping, damping if shared else replace(damping))
        params = SystemParams(n, p, q, R=1.0, eps=1.0)
        data = InitialData(1.0, 0.3, 0.5, -0.2)
        self.assert_same_levels(params, profiles, GridConfig(dr=0.04, horizon=8.0), 300, data)

    def test_linear_mode_without_cone(self):
        grid = GridConfig(dr=0.04, horizon=4.0, linear_mode=True, enforce_cone=False)
        self.assert_same_levels(SystemParams(2, F(3, 2), F(2), R=1.0, eps=1.0), (POLY, POLY), grid,
                                300)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
    def test_damping_evaluated_once_per_profile_and_step(self, shared):
        first = _CountingDamping(POLY)
        profiles = (first, first) if shared else (first, _CountingDamping(POLY))
        state = init_state(params1d(), profiles, BUMPS, GridConfig(dr=0.1, horizon=2.0))
        plain = init_state(params1d(), (POLY, POLY), BUMPS, GridConfig(dr=0.1, horizon=2.0))
        for _ in range(10):
            step(state)
            step(plain)
        calls = first.calls if shared else first.calls + profiles[1].calls
        assert calls == (10 if shared else 20)
        assert np.array_equal(state.u, plain.u) and np.array_equal(state.v, plain.v)

    def test_sweep_family_matches_full_grid(self):
        params = SystemParams(2, F(3, 2), F(3, 2), R=1.0, eps=1.0)
        grid = GridConfig(dr=0.04, horizon=40.0)
        eps_list = [1.0, 0.5, 0.25, 0.125]
        sweep = lifespan_sweep(params, (POLY, POLY), BUMPS, grid, eps_list, workers=1)
        for rec in sweep.records:
            ref = reference_record(replace(params, eps=rec.eps), (POLY, POLY), BUMPS, grid)
            assert (rec.t_blow, rec.detection) == ref
        assert sweep.excluded == 0

    def test_sampling_and_the_sup_norm_measure_nothing(self, monkeypatch):
        # a level's |z|, sup norm and sources are taken when the level is made;
        # the functionals and the sup norm only read them
        calls = []

        def counting(name):
            original = getattr(np, name)

            def wrapper(x, *args, **kwargs):
                calls.append(name)
                return original(x, *args, **kwargs)
            return wrapper

        state = init_state(params1d(), (ZERO, ZERO), BUMPS, GridConfig(dr=0.1, horizon=2.0))
        for name in ("abs", "power", "square"):
            monkeypatch.setattr(np, name, counting(name))
        for _ in range(5):
            state.functionals()
            state.sup_norm()
            assert calls == []
            step(state)
            assert calls == ["abs", "square"]  # the new level's |z| and sources
            calls.clear()


class TestInterleavedLayout:
    """Both components live in one buffer per time level; readers see views."""

    def test_components_share_one_buffer(self):
        state = init_state(params1d(), (ZERO, POLY), BUMPS, GridConfig(dr=0.1, horizon=2.0))
        # u and v take alternate slots, so no element is shared (np.shares_memory
        # is False) but their memory bounds overlap in one base buffer
        for _ in range(3):
            for u, v in ((state.u, state.v), (state.u_prev, state.v_prev)):
                assert np.may_share_memory(u, v) and u.base is v.base
                assert u.strides == v.strides == (2 * u.itemsize,)
            assert not np.may_share_memory(state.u, state.u_prev)
            step(state)

    def test_one_abs_call_per_level(self, monkeypatch):
        calls = []
        original = np.abs

        def counting_abs(x, *args, **kwargs):
            calls.append(x.size)
            return original(x, *args, **kwargs)

        state = init_state(params1d(), (ZERO, ZERO), BUMPS, GridConfig(dr=0.1, horizon=2.0))
        step(state)
        monkeypatch.setattr(np, "abs", counting_abs)
        windows = []
        for _ in range(5):
            state.sup_norm()  # what run_until_blowup checks at every level
            step(state)
            windows.append(2 * state.m)
        assert calls == windows  # one call over the (u, v) slots of each new window

    def test_observers_see_the_live_state_at_their_own_cadence(self):
        # every observer is called at the multiples of its cadence up to the step the
        # run ends on, with the live state, in the order given
        grid = GridConfig(dr=0.1, horizon=2.0)
        seen = []

        def observer(name):
            return lambda state: seen.append((name, state, state.step_index))

        res = run_until_blowup(params1d(eps=0.3), (ZERO, ZERO), BUMPS, grid,
                               [(4, observer("a")), (6, observer("b")), (1, observer("c"))])
        assert res.record.detection is Detection.SURVIVED and grid.n_steps == 40
        for name, every in (("a", 4), ("b", 6), ("c", 1)):
            steps = [k for who, _, k in seen if who == name]
            assert steps == list(range(0, 41, every))  # steps 0, k, 2k, ..., up to the last
        at_12 = [who for who, _, k in seen if k == 12]
        assert at_12 == ["a", "b", "c"]  # the order given
        assert all(state is res.state for _, state, _ in seen)  # the live state, no copy
        assert res.snapshots == []

    def test_observers_see_the_level_the_run_ends_on(self):
        # a threshold run ends at the first level past the threshold: an observer
        # due there sees it before detection stops the run; no step follows
        grid = GridConfig(dr=0.05, horizon=40.0)
        seen = []
        res = run_until_blowup(params1d(), (ZERO, ZERO), BUMPS, grid,
                               [(1, lambda state: seen.append((state.t, state.sup_norm())))])
        assert res.record.detection is Detection.THRESHOLD
        assert seen[-1] == (res.record.t_blow, res.state.sup_norm())
        assert seen[-1][1] > grid.threshold >= seen[-2][1]
        # observers change nothing in the run itself
        plain = run_until_blowup(params1d(), (ZERO, ZERO), BUMPS, grid)
        assert plain.record == res.record

    @pytest.mark.parametrize("profiles,linear", [((ZERO, POLY), False), ((POLY, POLY), False),
                                                 ((POLY, ZERO), True)],
                             ids=["distinct", "shared", "linear"])
    def test_sampled_functionals_sum_contiguous_components(self, profiles, linear):
        # U, V, Nu and Nv are the trapezoid sums of contiguous arrays, bit for bit
        params = SystemParams(2, F(3), F(2), R=1.0, eps=0.8)
        data = InitialData(1.0, 0.3, 0.5, -0.2)
        grid = GridConfig(dr=0.05, horizon=4.0, linear_mode=linear)
        state = init_state(params, profiles, data, grid)
        p, q = float(params.p), float(params.q)
        for _ in range(50):
            m = state.m
            w = state.weights[:m]
            u, v = np.ascontiguousarray(state.u[:m]), np.ascontiguousarray(state.v[:m])
            if linear:
                nu = nv = 0.0
            else:
                nu = w @ np.ascontiguousarray(np.power(np.abs(u), q))
                nv = w @ np.ascontiguousarray(np.power(np.abs(v), p))
            sup = max(np.max(np.abs(u)), np.max(np.abs(v)))
            assert state.functionals() == (w @ u, w @ v, nu, nv, sup)
            step(state)
        assert state.functionals()[2] != state.functionals()[3] or linear

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p,q", [(F(3), F(2)), (F(5, 2), F(3, 2))], ids=["3-2", "2.5-1.5"])
    @pytest.mark.parametrize("profiles", [(ZERO, ZERO), (POLY, POLY), (ZERO, POLY)],
                             ids=["zero", "poly", "mixed"])
    def test_swapping_u_and_v_swaps_every_output(self, n, p, q, profiles):
        # p <-> q, the u-data <-> the v-data and b1 <-> b2 exchange the components
        # bit for bit: each strided slot reads its own exponent and its partner's source
        data = InitialData(1.0, 0.3, 0.5, -0.2)
        swapped = InitialData(data.v0_amp, data.v1_amp, data.u0_amp, data.u1_amp)
        grid = GridConfig(dr=0.05, horizon=6.0, snapshot_every=40)
        a, tr_a, snaps_a = run_with_snapshots(SystemParams(n, p, q, eps=2.0), profiles, data, grid)
        b, tr_b, snaps_b = run_with_snapshots(SystemParams(n, q, p, eps=2.0), profiles[::-1],
                                              swapped, grid)
        assert (a.record.t_blow, a.record.detection) == (b.record.t_blow, b.record.detection)
        for x, y in ((tr_a.U, tr_b.V), (tr_a.V, tr_b.U), (tr_a.Nu, tr_b.Nv),
                     (tr_a.Nv, tr_b.Nu), (tr_a.sup, tr_b.sup), (tr_a.t, tr_b.t)):
            assert np.array_equal(x, y)
        assert not np.array_equal(tr_a.U, tr_a.V)  # the two components differ
        for (ta, ua, va), (tb, ub, vb) in zip(snaps_a, snaps_b, strict=True):
            assert ta == tb and np.array_equal(ua, vb) and np.array_equal(va, ub)


class TestStepCalls:
    """The numpy calls of a step, the new level's measurement included: one
    contiguous source power when p = q, np.square for an exponent of 2, and a
    fixed budget of array calls."""

    WRAPPED = ("abs", "power", "square", "multiply", "subtract", "add", "divide", "copyto")

    @classmethod
    def calls_per_level(cls, monkeypatch, state, levels=5):
        """[(2m, [(name, size of the first argument, contiguous)])] of each step
        past the Taylor start, with the window m of the level it makes; the run's
        sup norm check before it makes no call."""
        out = []

        def wrap(name):
            original = getattr(np, name)

            def counting(x, *args, **kwargs):
                x_arr = np.asarray(x)
                out[-1][1].append((name, x_arr.size, x_arr.flags.c_contiguous))
                return original(x, *args, **kwargs)
            return counting

        step(state)
        for name in cls.WRAPPED:
            monkeypatch.setattr(np, name, wrap(name))
        for _ in range(levels):
            out.append((None, []))
            state.sup_norm()
            step(state)
            out[-1] = (2 * state.m, out[-1][1])
        monkeypatch.undo()
        return out

    @pytest.mark.parametrize("n,p,q,expect", [
        (1, F(2), F(2), [("square", True)]),
        (2, F(3, 2), F(3, 2), [("power", True)]),
        (3, ROOT2, ROOT2, [("power", True)]),
        (1, F(2), F(3), [("power", False), ("square", False)]),
        (3, ROOT2, F(2), [("square", False), ("power", False)]),
    ])
    def test_source_powers_per_level(self, monkeypatch, n, p, q, expect):
        # p = q: one power over the 2m slots; p != q: |u|^q then |v|^p, each
        # over the m strided slots of its component; np.square for exponent 2
        params = SystemParams(n, p, q, R=1.0, eps=1.0)
        state = init_state(params, (ZERO, ZERO), BUMPS, GridConfig(dr=0.1, horizon=2.0))
        for slots, calls in self.calls_per_level(monkeypatch, state):
            size = slots if len(expect) == 1 else slots // 2
            powers = [call for call in calls if call[0] in ("power", "square")]
            assert powers == [(name, size, contiguous) for name, contiguous in expect]

    def test_each_source_slot_holds_its_own_power(self):
        # |u|^q at the u slots, |v|^p at the v slots, and each component's
        # update adds its partner's: u starts at zero and moves only by |v|^p
        params = SystemParams(2, F(3), F(2), R=1.0, eps=0.8)
        data, grid = InitialData(0.0, 0.0, 1.0, 0.0), GridConfig(dr=0.1, horizon=2.0)
        state = init_state(params, (ZERO, ZERO), data, grid)
        ref = reference_levels(init_state(params, (ZERO, ZERO), data, grid))
        for _ in range(6):
            m, (_, u, v) = state.m, next(ref)
            assert state.u.tobytes() == u.tobytes() and state.v.tobytes() == v.tobytes()
            assert state._src[0:2 * m:2].tobytes() == (np.abs(u[:m]) ** 2.0).tobytes()
            assert state._src[1:2 * m:2].tobytes() == (np.abs(v[:m]) ** 3.0).tobytes()
            step(state)
        assert np.any(state.u != 0.0)

    @pytest.mark.parametrize("n,p,budget", [(1, F(2), (12, 15)), (2, F(3, 2), (15, 18)),
                                            (3, ROOT2, (16, 19))])
    @pytest.mark.parametrize("damping", [ZERO, POLY], ids=["zero", "poly"])
    def test_call_budget_per_step(self, monkeypatch, n, p, budget, damping):
        # array calls of a step with its new level's measurement, for a shared profile
        # and p = q; the sup norm's max() is a method no wrapper sees, so it counts as 1
        params = SystemParams(n, p, p, R=1.0, eps=1.0)
        state = init_state(params, (damping, damping), BUMPS, GridConfig(dr=0.1, horizon=2.0))
        want = budget[damping is POLY]
        for _, calls in self.calls_per_level(monkeypatch, state):
            assert len(calls) + 1 == want, calls


class TestExactSolutions:
    """The solver against closed-form free waves (linear mode, no damping, t = 5):
    second order in dr, with bounds C dr^2 a few percent above the measured sup
    errors, and n = 2 by self-convergence."""

    @pytest.mark.parametrize("n,speed,c", [(1, 0.0, 2.6), (1, 1.0, 2.8), (3, 0.0, 0.4)],
                             ids=["n1", "n1-speed", "n3"])
    def test_second_order_against_the_exact_solution(self, free_wave_error, n, speed, c):
        # measured sup errors at dr 0.04 / 0.02 / 0.01: 3.97e-3 / 9.89e-4 / 2.47e-4 (n = 1),
        # 4.27e-3 / 1.07e-3 / 2.68e-4 (n = 1 with speeds), 6.12e-4 / 1.54e-4 / 3.86e-5 (n = 3)
        errors = []
        for dr in (0.04, 0.02, 0.01):
            errors.append(free_wave_error(n, dr, speed))
            assert errors[-1] <= c * dr ** 2, (dr, errors[-1])
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.8 <= coarse / fine <= 4.2, errors

    def test_second_order_self_convergence_at_n2(self, linear_free_wave):
        # no elementary closed form: u on dr, dr/2 and dr/4 at the coarse nodes;
        # measured differences 1.21e-3 and 3.04e-4, a ratio of 3.98
        data = InitialData(1.0, 0.5, 1.0, 0.0)
        us = [linear_free_wave(2, dr, data).u[::k] for dr, k in ((0.04, 1), (0.02, 2), (0.01, 4))]
        coarse, fine = (float(np.max(np.abs(a - b))) for a, b in zip(us, us[1:]))
        assert coarse <= 1.3e-3 and 3.8 <= coarse / fine <= 4.2, (coarse, fine)


class TestBlowupDetection:
    def test_zero_data_survives(self):
        res = run_until_blowup(params1d(), (ZERO, ZERO), InitialData.zero(), GridConfig(horizon=1.5))
        assert res.record.detection is Detection.SURVIVED
        assert res.record.t_blow == 1.5

    def test_blowup_detected_and_grid_stable(self):
        grid = GridConfig(dr=0.04, horizon=40.0)
        res = run_until_blowup(params1d(), (ZERO, ZERO), BUMPS, grid)
        assert res.record.detection is Detection.THRESHOLD
        fine = run_until_blowup(params1d(), (ZERO, ZERO), BUMPS, replace(grid, dr=0.02))
        assert abs(fine.record.t_blow - res.record.t_blow) / res.record.t_blow < 0.05
        # nonnegative data keeps the space averages positive along the run
        sampled, tr = sampled_run(params1d(), (ZERO, ZERO), BUMPS, grid)
        assert sampled.record == res.record
        assert np.all(tr.U > 0.0) and np.all(tr.V > 0.0)

    def test_threshold_insensitivity(self):
        grid = GridConfig(dr=0.04, horizon=40.0)
        r1 = run_until_blowup(params1d(), (ZERO, ZERO), BUMPS, grid)
        r2 = run_until_blowup(params1d(), (ZERO, ZERO), BUMPS, replace(grid, threshold=2e10))
        assert abs(r2.record.t_blow - r1.record.t_blow) / r1.record.t_blow < 0.02

    def test_threshold_must_exceed_initial_sup(self):
        with pytest.raises(ValueError):
            run_until_blowup(params1d(), (ZERO, ZERO), BUMPS, GridConfig(horizon=1.0, threshold=0.5))

    def test_overflow_in_functionals_raises_no_warning(self):
        # at a threshold of 1e200 the last sampled level has sup ~ 1e248, so
        # |v|^2 overflows in the functionals before the threshold is seen
        grid = GridConfig(dr=0.1, horizon=20.0, threshold=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res, tr = sampled_run(params1d(), (ZERO, ZERO), BUMPS, grid)
        assert res.record.detection is Detection.THRESHOLD
        assert np.isinf(tr.Nv[-1])

    def test_nan_in_second_component_is_nonfinite(self):
        # the sup norm is taken when a level is made: a NaN put into v reaches the
        # next level's sup norm, and a run detects it there
        state = init_state(params1d(), (ZERO, ZERO), BUMPS, GridConfig(horizon=2.0))
        state.v[3] = np.nan
        assert state.sup_norm() == 1.0
        step(state)
        assert math.isnan(state.sup_norm())

    def test_determinism(self):
        grid = GridConfig(dr=0.05, horizon=5.0)
        a, tr_a = sampled_run(params1d(), (ZERO, ZERO), BUMPS, grid)
        b, tr_b = sampled_run(params1d(), (ZERO, ZERO), BUMPS, grid)
        assert np.array_equal(tr_a.U, tr_b.U)
        assert np.array_equal(a.state.u, b.state.u)


class TestFunctionals:
    def test_asymmetric_trace_labels(self):
        # p != q and asymmetric data: Nu must integrate |u|^q and Nv |v|^p
        params = SystemParams(1, F(3), F(2), R=1.0, eps=1.0)
        data = InitialData(u0_amp=1.0, u1_amp=0.0, v0_amp=0.5, v1_amp=0.0)
        grid = GridConfig(dr=0.05, horizon=1.0)
        _, tr = sampled_run(params, (ZERO, ZERO), data, grid)
        state = init_state(params, (ZERO, ZERO), data, grid)
        nu0 = state.integral(np.abs(state.u_init) ** 2.0)
        nv0 = state.integral(np.abs(state.v_init) ** 3.0)
        assert abs(tr.Nu[0] - nu0) < 1e-14
        assert abs(tr.Nv[0] - nv0) < 1e-14
        assert nu0 != nv0

    def test_initial_row_is_the_full_grid_data(self):
        params = SystemParams(2, F(3), F(2), R=1.0, eps=0.7)
        data = InitialData(u0_amp=1.0, u1_amp=0.4, v0_amp=0.5, v1_amp=0.0)
        res, tr = sampled_run(params, (ZERO, POLY), data, GridConfig(dr=0.05, horizon=1.0))
        s, w = res.state, res.state.weights
        row = [getattr(tr, k)[0] for k in ("t", "U", "V", "Nu", "Nv", "sup")]
        assert row[0] == 0.0
        assert row[5] == max(np.max(np.abs(s.u_init)), np.max(np.abs(s.v_init)))
        full = [w @ s.u_init, w @ s.v_init, w @ np.abs(s.u_init) ** 2.0, w @ np.abs(s.v_init) ** 3.0]
        assert np.allclose(row[1:5], full, rtol=1e-14, atol=0.0)


def step_identity_residual(params, profiles, data, grid, sources=("Nv", "Nu")):
    """The largest residual of the scheme's identity for the space averages over
    the levels k >= 1 of a run sampled at every step,

        (1 + h_k) U_(k+1) - 2 U_k + (1 - h_k) U_(k-1) = dt^2 Nv_k,  h_k = b1(t_k) dt / 2,

    relative to |U_k|, and its mirror for V with b2 and Nu; `sources` names the
    trace fields paired with U and V."""
    _, tr = sampled_run(params, profiles, data, grid)
    worst = 0.0
    for F_k, source, prof in zip((tr.U, tr.V), sources, profiles):
        h = 0.5 * prof.b(tr.t[1:-1]) * grid.dt
        res = ((1.0 + h) * F_k[2:] - 2.0 * F_k[1:-1] + (1.0 - h) * F_k[:-2]
               - grid.dt ** 2 * getattr(tr, source)[1:-1])
        worst = max(worst, float(np.max(np.abs(res) / np.abs(F_k[1:-1]))))
    return worst


STEP_IDENTITY_DATA = InitialData(u0_amp=1.0, u1_amp=0.3, v0_amp=0.7, v1_amp=0.2)


class TestStepIdentity:
    """The leapfrog's space averages obey the discrete form of U'' + b1 U' = int |v|^p
    and V'' + b2 V' = int |u|^q exactly: the weighted sum of the discrete Laplacian
    telescopes at n = 1 and 3 while the numerical support, one node per step, stays
    negligible at the grid's end r = horizon + R + 0.5 (at n = 3 the residual reads
    1.2e-15 at horizon 2, 1.6e-13 at horizon 4)."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("damping", [ZERO, POLY], ids=["zero", "poly"])
    def test_exact_on_the_full_grid(self, n, damping):
        # p != q and asymmetric data with speeds: measured 5.5e-16 to 1.2e-15, and
        # 4.3e-5 to 7.1e-5 with the sources swapped, so a pairing error fails
        params = SystemParams(n, F(3), F(2), R=1.0, eps=0.5)
        grid = GridConfig(dr=0.025, horizon=2.0, enforce_cone=False)
        case = (params, (damping, damping), STEP_IDENTITY_DATA, grid)
        assert step_identity_residual(*case) <= 1e-12
        assert step_identity_residual(*case, sources=("Nu", "Nv")) >= 1e-6

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the cone window zeroes the "
                       "scheme's precursor at n = 3; the residual reads 4.9e-7 on (3, 3, 2) at "
                       "dr 0.02 and 2.5e-7 on the critical benchmark's config at dr 0.0125")
    def test_exact_under_the_cone_window_at_n3(self):
        p0 = strauss_exponent(3)
        misses = [
            step_identity_residual(SystemParams(3, F(3), F(2), R=1.0, eps=0.5), (POLY, POLY),
                                   STEP_IDENTITY_DATA, GridConfig(dr=0.02, horizon=3.0)),
            step_identity_residual(SystemParams(3, p0, p0, R=1.0, eps=1.0), (POLY, POLY), BUMPS,
                                   GridConfig(dr=0.0125, horizon=10.0)),
        ]
        assert max(misses) <= 1e-12, misses

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: at n = 2 the trapezoid sum of the "
                       "Laplacian leaves pi (u0 - u1) at the origin; the residual reads 1.9e-6")
    def test_exact_on_the_full_grid_at_n2(self):
        params = SystemParams(2, F(3), F(2), R=1.0, eps=0.5)
        grid = GridConfig(dr=0.025, horizon=2.0, enforce_cone=False)
        assert step_identity_residual(params, (POLY, POLY), STEP_IDENTITY_DATA, grid) <= 1e-12


class TestVerifyIdentities:
    def test_frame_inequalities_on_blowup_run(self):
        grid = GridConfig(dr=0.04, horizon=20.0)
        _, tr = sampled_run(params1d(), (ZERO, ZERO), BUMPS, grid)
        rep = verify_identities(tr, (ZERO, ZERO), params1d())
        assert rep.inequalities_hold()
        assert rep.c1_fit > 0 and rep.k1_fit > 0

    def test_lower_bound_fit_stable_in_eps(self):
        fits = []
        for eps in (0.5, 1.0, 2.0):
            params = SystemParams(2, F(3, 2), F(3, 2), R=1.0, eps=eps)
            _, tr = sampled_run(params, (ZERO, ZERO), BUMPS, GridConfig(dr=0.04, horizon=8.0))
            rep = verify_identities(tr, (ZERO, ZERO), params)
            fits.append(rep.c1_fit)
        mid = sorted(fits)[1]
        assert all(f > 0 for f in fits)
        assert all(abs(f - mid) / mid <= 0.2 for f in fits)

    def test_swap_mirrors_report(self):
        # p != q, eps != 1, n >= 2, two dampings and asymmetric data: the report of the
        # swapped inputs is the report with (slack, fit) of U and V exchanged, so
        # neither component can take the other's exponent, source or damping
        params, swapped = SystemParams(2, F(3), F(2), eps=0.7), SystemParams(2, F(2), F(3), eps=0.7)
        data = InitialData(u0_amp=1.0, u1_amp=0.3, v0_amp=0.5, v1_amp=0.0)
        _, tr = sampled_run(params, (ZERO, POLY), data, GridConfig(dr=0.05, horizon=3.0))
        mirror = FunctionalTrace(t=tr.t, U=tr.V, V=tr.U, Nu=tr.Nv, Nv=tr.Nu, sup=tr.sup)
        rep = verify_identities(tr, (ZERO, POLY), params)
        swap = verify_identities(mirror, (POLY, ZERO), swapped)
        assert (swap.iter1_slack_u, swap.k1_fit) == (rep.iter1_slack_v, rep.c1_fit)
        assert (swap.iter1_slack_v, swap.c1_fit) == (rep.iter1_slack_u, rep.k1_fit)
        assert rep.c1_fit != rep.k1_fit and rep.iter1_slack_u != rep.iter1_slack_v

    def test_short_trace_rejected(self):
        grid = GridConfig(dr=0.1, horizon=0.2)
        _, tr = sampled_run(params1d(), (ZERO, ZERO), BUMPS, grid)
        with pytest.raises(ValueError):
            verify_identities(_truncate(tr, 3), (ZERO, ZERO), params1d())


def _truncate(trace, k):
    return FunctionalTrace(
        t=trace.t[:k], U=trace.U[:k], V=trace.V[:k],
        Nu=trace.Nu[:k], Nv=trace.Nv[:k], sup=trace.sup[:k],
    )


@pytest.fixture(scope="module")
def critical_run():
    p0 = strauss_exponent(3)
    params = SystemParams(3, p0, p0, R=1.0, eps=1.0)
    poly = DampingProfile.polynomial_tail(1.0, 2.0)
    grid = GridConfig(dr=0.025, horizon=12.0, snapshot_every=40)
    return params, *critical_stream_run(params, (poly, poly), BUMPS, grid)


def reference_critical_report(result, snapshots, quad_nodes, linear=False):
    """The critical report's fields by the direct double sum: at every checked t_j
    the data terms, plus the kernel summed against the source of every snapshot
    s_i <= t_j with the trapezoid weights of the prefix s_0..s_j, in O(S^2 K).
    The weighted averages read the field as the stream does: Phi over the cone
    window times the four weighted fields u W, v W, |u|^q W, |v|^p W. A linear
    run has no source."""
    state = result.state
    params, W = state.params, state.weights
    cfgs = simulator.critical_kernel_configs(params, (state.b1, state.b2), state.grid, 1.0,
                                             quad_nodes)
    s_times, u_snaps, v_snaps = (np.array(column) for column in zip(*snapshots))
    d = np.diff(s_times)
    half, mid = 0.5 * d, 0.5 * (d[1:] + d[:-1])
    p, q = float(params.p), float(params.q)

    def weighted_fields(quad, j):
        m = state._window(s_times[j])
        u, v = u_snaps[j], v_snaps[j]
        z = np.stack([u * W, v * W, np.power(np.abs(u), q) * W, np.power(np.abs(v), p) * W],
                     axis=1)
        return quad.phi_mat[:, :m] @ z[:m]

    def component(cfg, col, own, partner, power, init, init_t, profile):
        quad = KernelQuadrature(cfg, params.n, state.r)
        src = quad.phi_mat @ (np.abs(partner) ** power * W).T * (not linear)
        d0, d1 = quad.phi_mat @ (W * init), quad.phi_mat @ (W * init_t)
        lam, l1 = quad.lam, profile.l1
        lhs, rhs = [], []
        for j in range(1, s_times.size):
            tc = s_times[j]
            decay = quad.decay(tc)
            lhs.append(float(decay @ weighted_fields(quad, j)[:, col]))
            data0 = math.exp(-l1) * float((decay * np.cosh(lam * tc)) @ d0)
            data1 = math.exp(-2.0 * l1) * tc * float((decay * sinhc(lam * tc)) @ d1)
            sub = s_times[: j + 1]
            kernel = decay[:, None] * sinhc(np.outer(lam, tc - sub))
            inner = np.einsum("ki,ki->i", kernel, src[:, : j + 1])
            trap_w = np.concatenate((half[:1], mid[: j - 1], half[j - 1 : j]))
            source = math.exp(-2.0 * l1) * float(np.sum(trap_w * (tc - sub) * inner))
            rhs.append(data0 + data1 + source)
        return np.asarray(lhs), np.asarray(rhs)

    u = component(cfgs[0], 0, u_snaps, v_snaps, p, state.u_init, state.ut_init, state.b1)
    v = component(cfgs[1], 1, v_snaps, u_snaps, q, state.v_init, state.vt_init, state.b2)
    (lhs_1, rhs_1), (lhs_2, rhs_2) = (u, v) if p >= q else (v, u)
    t = s_times[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(t > 1.5, lhs_1 / np.log(2.0 * t / 3.0), math.nan)
    return {"t_checked": t, "weighted_u": lhs_1, "weighted_v": lhs_2, "rhs_u": rhs_1,
            "rhs_v": rhs_2, "log_ratio": log_ratio}


def critical_peak_bytes(snapshot_every):
    """The tracemalloc peak of the critical fixture's run plus its verification."""
    p0 = 1.0 + math.sqrt(2.0)
    params = SystemParams(3, p0, p0, R=1.0, eps=1.0)
    poly = DampingProfile.polynomial_tail(1.0, 2.0)
    grid = GridConfig(dr=0.025, horizon=12.0, snapshot_every=snapshot_every)
    tracemalloc.start()
    try:
        stream = CriticalStream(params, (poly, poly), grid)
        run_until_blowup(params, (poly, poly), BUMPS, grid, [(snapshot_every, stream)])
        rep = verify_critical_inequalities(stream, log_window=(5.0, 12.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.bounds_hold() and rep.t_checked.size == 960 // snapshot_every
    return peak


class TestCriticalVerifier:
    def test_bounds_hold(self, critical_run):
        params, res, snapshots, stream = critical_run
        rep = verify_critical_inequalities(stream, log_window=(5.0, 12.0))
        assert rep.bounds_hold()
        assert rep.log_ratio_min > 0

    @pytest.fixture
    def no_run(self, monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(simulator, "init_state", started)

    def test_rejects_low_dimension(self, no_run):
        with pytest.raises(ValueError, match="n >= 2"):
            critical_stream_run(params1d(), (ZERO, ZERO), BUMPS,
                                GridConfig(dr=0.1, horizon=1.0, snapshot_every=5))

    def test_rejects_tabulated_damping(self, no_run):
        ts = np.linspace(0.0, 10.0, 50)
        tab = DampingProfile.tabulated(ts, np.exp(-ts))
        params = SystemParams(2, F(2), F(2), R=1.0, eps=0.1)
        with pytest.raises(ValueError, match="C\\^1 damping"):
            critical_stream_run(params, (tab, tab), BUMPS,
                                GridConfig(dr=0.1, horizon=1.0, snapshot_every=5))

    def test_requires_snapshots(self, no_run):
        params = SystemParams(2, F(2), F(2), R=1.0, eps=0.1)
        with pytest.raises(ValueError, match="snapshot_every"):
            critical_stream_run(params, (ZERO, ZERO), BUMPS, GridConfig(dr=0.1, horizon=1.0))

    def test_peak_memory_does_not_grow_with_snapshots(self):
        # 25 against 193 snapshots: stored copies of u and v would add about 3.7 MB; the
        # first pass fills one-time caches, so it is not measured
        critical_peak_bytes(40)
        assert abs(critical_peak_bytes(5) - critical_peak_bytes(40)) < 0.5 * 2 ** 20

    def test_asymmetric_orders_and_swap(self):
        # exact critical point with p > q (F(3, 7/2, 2) = 0) exercises the two
        # distinct kernel orders; swapping p with q, the u-data with the v-data and
        # the two damping profiles must give the same report, field for field
        slow = DampingProfile.polynomial_tail(0.5, 3.0)
        grid = GridConfig(dr=0.04, horizon=8.0, snapshot_every=15, sample_every=15)
        params = SystemParams(3, F(7, 2), F(2), R=1.0, eps=1.0)
        *_, stream = critical_stream_run(params, (POLY, slow), InitialData(1.0, 0.3, 0.7, 0.2),
                                         grid)
        rep = verify_critical_inequalities(stream, log_window=(5.0, 8.0))
        assert rep.bounds_hold() and rep.log_ratio_min > 0

        params_sw = SystemParams(3, F(2), F(7, 2), R=1.0, eps=1.0)
        *_, stream_sw = critical_stream_run(params_sw, (slow, POLY),
                                            InitialData(0.7, 0.2, 1.0, 0.3), grid)
        rep_sw = verify_critical_inequalities(stream_sw, log_window=(5.0, 8.0))
        assert rep_sw.bounds_hold()
        for f in fields(rep):
            a, b = getattr(rep, f.name), getattr(rep_sw, f.name)
            assert np.array_equal(a, b, equal_nan=True), f.name

    @pytest.mark.parametrize("p,q,builds", [(ROOT2, ROOT2, 1), (F(7, 2), F(2), 2)],
                             ids=["p=q", "p!=q"])
    def test_quadrature_built_once_per_kernel_order(self, monkeypatch, p, q, builds):
        built = []

        class CountingQuadrature(simulator.KernelQuadrature):
            def __init__(self, *args, **kwargs):
                built.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulator, "KernelQuadrature", CountingQuadrature)
        params = SystemParams(3, p, q, R=1.0, eps=1.0)
        *_, stream = critical_stream_run(params, (POLY, POLY), BUMPS,
                                         GridConfig(dr=0.1, horizon=4.0, snapshot_every=10),
                                         quad_nodes=16)
        rep = verify_critical_inequalities(stream, log_window=(2.0, 4.0))
        assert len(built) == builds
        assert rep.t_checked.size > 0

    def test_zero_data_bounds_trivially(self):
        params = SystemParams(2, F(2), F(2), R=1.0, eps=1.0)
        *_, stream = critical_stream_run(params, (ZERO, ZERO), InitialData.zero(),
                                         GridConfig(dr=0.1, horizon=2.0, snapshot_every=5))
        rep = verify_critical_inequalities(stream, log_window=(1.6, 2.0))
        assert np.all(rep.weighted_u == 0.0) and np.all(rep.rhs_u == 0.0)
        assert rep.bounds_hold()

    def test_linear_run_bound_has_no_source(self):
        # the stream reads the run's own sources, which a linear run does not have
        params = SystemParams(3, ROOT2, ROOT2, R=1.0, eps=1.0)
        grid = GridConfig(dr=0.05, horizon=8.0, snapshot_every=20, linear_mode=True)
        res, snapshots, stream = critical_stream_run(params, (POLY, POLY), BUMPS, grid)
        rep = verify_critical_inequalities(stream)
        ref = reference_critical_report(res, snapshots, 64, linear=True)
        assert np.array_equal(rep.weighted_u, ref["weighted_u"])
        np.testing.assert_allclose(rep.rhs_u, ref["rhs_u"], rtol=1e-13, atol=0.0)
        with_source = reference_critical_report(res, snapshots, 64)
        assert np.all(rep.rhs_u < with_source["rhs_u"])

    @pytest.mark.parametrize("case", ["fixture", "asymmetric", "undamped", "long"])
    def test_matches_direct_double_sum(self, critical_run, case):
        # the recurrence against the direct O(S^2 K) sum: the lower bounds to rounding,
        # everything read from the field alone bit for bit
        quad_nodes = 64
        if case == "fixture":
            _, res, snapshots, stream = critical_run
        elif case == "asymmetric":
            slow = DampingProfile.polynomial_tail(0.5, 3.0)
            params = SystemParams(3, F(7, 2), F(2), R=1.0, eps=1.0)
            quad_nodes = 16
            res, snapshots, stream = critical_stream_run(
                params, (POLY, slow), InitialData(1.0, 0.3, 0.7, 0.2),
                GridConfig(dr=0.04, horizon=8.0, snapshot_every=15, sample_every=15), quad_nodes)
        elif case == "undamped":
            params = SystemParams(3, ROOT2, ROOT2, R=1.0, eps=1.0)
            res, snapshots, stream = critical_stream_run(
                params, (ZERO, ZERO), BUMPS, GridConfig(dr=0.05, horizon=8.0, snapshot_every=8))
        else:  # a survived run with 601 snapshots
            params = SystemParams(2, F(3, 2), F(2), R=1.0, eps=0.001)
            quad_nodes = 16
            res, snapshots, stream = critical_stream_run(
                params, (POLY, POLY), BUMPS,
                GridConfig(dr=0.2, horizon=60.0, snapshot_every=1, sample_every=10), quad_nodes)
            assert len(snapshots) == 601
        rep = verify_critical_inequalities(stream)
        ref = reference_critical_report(res, snapshots, quad_nodes)
        assert rep.t_checked.size == len(snapshots) - 1 > 0
        for name in ("t_checked", "weighted_u", "weighted_v", "log_ratio"):
            assert np.array_equal(getattr(rep, name), ref[name], equal_nan=True), name
        for name in ("rhs_u", "rhs_v"):
            assert np.any(ref[name] > 0.0)
            np.testing.assert_allclose(getattr(rep, name), ref[name], rtol=1e-13, atol=0.0)


_real_sweep_one = simulator._sweep_one


@dataclass(frozen=True)
class _PidRecord(LifespanRecord):
    pid: int = 0


def _sweep_one_tagged(job):
    """The real run, tagged with the pid of the process that ran it."""
    rec = _real_sweep_one(job)
    return _PidRecord(rec.eps, rec.t_blow, rec.detection, os.getpid())


def _sweep_one_warning(job):
    """The real run, after a warning that names its eps."""
    warnings.warn(f"run at eps {job[0].eps}", RuntimeWarning)
    return _real_sweep_one(job)


def usable_cpus(monkeypatch, k):
    """Let this process run on k CPUs, so a sweep runs up to k eps at once."""
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(k)),
                        raising=False)


# set per test: the directory the runs mark, the pid of the sweep's own process,
# and which side fails ("here" or "worker"); a fork carries it into the worker
_failing = {}


def _wait_for(cond, what):
    deadline = time.monotonic() + 10.0
    while not cond():
        if time.monotonic() > deadline:
            raise TimeoutError(f"waited 10 s for {what}")
        time.sleep(0.01)


def _sweep_one_failing(job):
    """Marks its eps as started.  A run on the failing side waits until both
    runners have started, then raises; a run on the other side waits for that
    failure, and 1 s more for it to reach the sweep, then returns."""
    eps, d = job[0].eps, _failing["dir"]
    (d / f"start-{eps}").touch()
    here = os.getpid() == _failing["pid"]
    if here == (_failing["side"] == "here"):
        _wait_for(lambda: len(list(d.glob("start-*"))) >= 2, "both runners to start")
        (d / "failed").touch()
        raise RuntimeError(f"run at eps {eps} failed")
    _wait_for((d / "failed").exists, "the other runner to fail")
    time.sleep(1.0)
    return LifespanRecord(eps, 1.0 / eps, Detection.THRESHOLD)


class TestSweep:
    def test_fit_recovers_exact_power_law(self):
        eps = np.array([1.0, 0.5, 0.25, 0.125])
        slope, intercept = fit_power_law(eps, eps ** -2.0)
        assert abs(slope + 2.0) < 1e-12
        assert abs(intercept) < 1e-12

    def test_small_sweep_monotone_and_within_window(self):
        sweep = lifespan_sweep(
            params1d(), (ZERO, ZERO), BUMPS,
            GridConfig(dr=0.04, horizon=60.0),
            [1.0, 0.7, 0.5, 0.35],
            workers=1,
        )
        assert sweep.excluded == 0
        ts = [r.t_blow for r in sweep.records]
        assert ts == sorted(ts)
        assert sweep.slope_matches(0.25)

    def test_sweep_runs_sample_nothing(self, tmp_path, monkeypatch):
        # a sweep keeps only its records: its runs have no observers and integrate
        # no functional, and the records match runs sampled at every step
        grid = GridConfig(dr=0.05, horizon=30.0)
        eps = [1.0, 0.7, 0.5, 0.35]
        sampled = [sampled_run(params1d(eps=e), (ZERO, ZERO), BUMPS, grid)[0].record
                   for e in eps]
        write_records_csv(sampled, grid, tmp_path / "sampled.csv")
        integrated_at = []
        integral = simulator.GridState.integral

        def counting_integral(state, f):
            integrated_at.append(state.step_index)
            return integral(state, f)

        monkeypatch.setattr(simulator.GridState, "integral", counting_integral)
        sweep = lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, grid, eps, workers=1)
        write_records_csv(sweep.records, grid, tmp_path / "records.csv")
        assert integrated_at == []
        assert (tmp_path / "records.csv").read_bytes() == (tmp_path / "sampled.csv").read_bytes()

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, GridConfig(), [1.0, 0.5])
        # repeated eps count once: a fit needs distinct abscissae
        with pytest.raises(ValueError, match="4 distinct eps points, got 2"):
            lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, GridConfig(), [1.0, 0.5, 1.0, 0.5])

    def test_parallel_matches_serial(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        grid = GridConfig(dr=0.05, horizon=30.0)
        eps = [1.0, 0.7, 0.5, 0.35]
        serial = lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, grid, eps, workers=1)
        parallel = lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, grid, eps, workers=2)
        assert [r.t_blow for r in serial.records] == [r.t_blow for r in parallel.records]
        assert serial.slope == parallel.slope

    def test_run_warnings_reach_the_caller_at_any_worker_count(self, monkeypatch):
        # a run in a pool worker warns here as one in this process does
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(simulator, "_sweep_one", _sweep_one_warning)
        grid = GridConfig(dr=0.05, horizon=30.0)
        eps = [0.5, 1.0, 0.35, 0.7]
        for workers in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, grid, eps, workers=workers)
            assert sorted((w.category, str(w.message)) for w in caught) == sorted(
                (RuntimeWarning, f"run at eps {e}") for e in eps)

    def test_two_workers_fork_one_and_run_here(self, tmp_path, monkeypatch):
        # workers=2 is two runs at once: this process and one forked worker;
        # records keep the caller's order and the CSV is that of one worker
        pools = []

        class SpyPool(ProcessPoolExecutor):
            def shutdown(self, *args, **kwargs):
                pools.append((self._max_workers, set(self._processes or {})))
                super().shutdown(*args, **kwargs)

        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(simulator, "ProcessPoolExecutor", SpyPool)
        monkeypatch.setattr(simulator, "_sweep_one", _sweep_one_tagged)
        grid = GridConfig(dr=0.05, horizon=30.0)
        eps = [0.5, 1.0, 0.35, 0.7]
        for workers in (1, 2):
            sweep = lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, grid, eps, workers=workers)
            assert [r.eps for r in sweep.records] == eps
            write_records_csv(sweep.records, grid, tmp_path / f"records{workers}.csv")
        assert (tmp_path / "records1.csv").read_bytes() == (tmp_path / "records2.csv").read_bytes()
        [(max_workers, worker_pids)] = pools
        assert max_workers == 1 and len(worker_pids) == 1
        assert {r.pid for r in sweep.records} == worker_pids | {os.getpid()}
        assert multiprocessing.active_children() == []

    def test_runs_start_smallest_eps_first(self, monkeypatch):
        # threads stand in for the pool's processes; the pool's first run waits
        # until this process starts one, so the two smallest eps start first
        pools, starts = [], []
        started_here = threading.Event()

        class ThreadPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        def fake_run(job):
            eps, here = job[0].eps, threading.current_thread() is threading.main_thread()
            starts.append((eps, here))
            if here:
                started_here.set()
            else:
                assert started_here.wait(10.0)
            return LifespanRecord(eps, 1.0 / eps, Detection.THRESHOLD)

        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(simulator, "ProcessPoolExecutor", ThreadPool)
        monkeypatch.setattr(simulator, "_sweep_one", fake_run)
        eps = [0.5, 1.0, 0.25, 0.7, 0.35, 0.9]
        sweep = lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, GridConfig(), eps, workers=2)
        assert pools == [1]
        assert [r.eps for r in sweep.records] == eps
        assert sorted(e for e, _ in starts) == sorted(eps)
        pool_side = [e for e, here in starts if not here]
        this_side = [e for e, here in starts if here]
        assert pool_side[0] == 0.25 and this_side[0] == 0.35
        assert pool_side == sorted(pool_side) and this_side == sorted(this_side)

    def test_shared_queue_runs_each_eps_once(self, monkeypatch):
        # more runners than CPUs and a short switch interval: a lost pop or a
        # lost record would run an eps twice or leave a record out
        runs = []

        def fake_run(job):
            runs.append(job[0].eps)
            return LifespanRecord(job[0].eps, 1.0, Detection.THRESHOLD)

        usable_cpus(monkeypatch, 8)
        monkeypatch.setattr(simulator, "ProcessPoolExecutor", ThreadPoolExecutor)
        monkeypatch.setattr(simulator, "_sweep_one", fake_run)
        eps = [1.0 - k / 400 for k in range(200)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sweep = lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, GridConfig(), eps, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(runs) == sorted(eps)
        assert [r.eps for r in sweep.records] == eps

    @pytest.mark.parametrize("side", ["here", "worker"])
    def test_failed_run_stops_the_sweep(self, side, tmp_path, monkeypatch):
        # the error surfaces whichever runner raised it, the queued eps never
        # start, and no worker outlives the call
        monkeypatch.setitem(_failing, "dir", tmp_path)
        monkeypatch.setitem(_failing, "pid", os.getpid())
        monkeypatch.setitem(_failing, "side", side)
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(simulator, "_sweep_one", _sweep_one_failing)
        eps = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]
        with pytest.raises(RuntimeError, match="failed"):
            lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, GridConfig(), eps, workers=2)
        assert sorted(f.name for f in tmp_path.glob("start-*")) == ["start-0.5", "start-0.6"]
        assert multiprocessing.active_children() == []

    def test_workers_count_usable_cpus(self, monkeypatch):
        # a CPU-pinned process counts the CPUs it may run on, not the host's
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert simulator.sweep_workers(5) == 2
        assert simulator.sweep_workers(5, requested=4) == 2
        assert simulator.sweep_workers(5, requested=1) == 1
        assert simulator.sweep_workers(1) == 1


class TestPersistence:
    def test_trace_csv_roundtrip(self, tmp_path):
        _, tr = sampled_run(params1d(), (ZERO, ZERO), BUMPS, GridConfig(dr=0.1, horizon=1.0))
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        body = path.read_text().splitlines()
        assert body[0] == "t,U,V,Nu,Nv,supnorm"
        loaded = np.array([float(line.split(",")[1]) for line in body[1:]])
        assert np.array_equal(loaded, tr.U)

    def test_records_csv(self, tmp_path):
        rec = LifespanRecord(0.5, 12.25, Detection.THRESHOLD)
        path = tmp_path / "records.csv"
        write_records_csv([rec], GridConfig(dr=0.02, cfl=0.5, horizon=40.0), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "eps,Tblow,detection,dr,cfl,horizon,threshold"
        assert lines[1].split(",")[2] == "ThresholdCross"
        assert [float(x) for x in lines[1].split(",")[3:]] == [0.02, 0.5, 40.0, 1e10]
