import math
import warnings
from concurrent.futures import Future
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from blowup_lab import simulator
from blowup_lab.damping import DampingProfile
from blowup_lab.exponents import SystemParams
from blowup_lab.simulator import (
    Detection,
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

    def test_rmax_guard(self):
        with pytest.raises(ValueError):
            init_state(params1d(), (ZERO, ZERO), BUMPS, GridConfig(horizon=10.0, rmax=3.0))

    def test_cfl_guard(self):
        with pytest.raises(ValueError):
            GridConfig(cfl=0.9)

    @pytest.mark.parametrize("bad", [
        {"dr": math.nan}, {"horizon": math.inf}, {"threshold": math.inf},
        {"rmax": math.inf}, {"snapshot_every": 0},
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
        res = run_until_blowup(params1d(), (ZERO, ZERO), data, grid)
        tr = res.trace
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
        # rmax = horizon + R + 4 dr: the window covers the whole grid after
        # t = horizon + 2 dr, and the boundary node must stay zero
        grid = GridConfig(dr=0.04, horizon=2.0, rmax=3.16)
        state = self.assert_same_levels(params1d(eps=0.3), (POLY, POLY), grid, 300)
        assert state.m == state.r.size and state.u[-1] == 0.0

    def test_cone_not_enforced(self):
        grid = GridConfig(dr=0.04, horizon=8.0, enforce_cone=False)
        params = SystemParams(2, F(3, 2), F(3, 2), R=1.0, eps=0.5)
        state = self.assert_same_levels(params, (ZERO, POLY), grid, 300)
        assert np.any(state.u[state.r > state.t + 1.0 + 0.08] != 0.0)

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

    def test_sources_computed_once_per_sampled_step(self, monkeypatch):
        calls = []
        original = np.abs

        def counting_abs(x, *args, **kwargs):
            calls.append(x.size)
            return original(x, *args, **kwargs)

        state = init_state(params1d(), (ZERO, ZERO), BUMPS, GridConfig(dr=0.1, horizon=2.0))
        state.functionals()
        monkeypatch.setattr(np, "abs", counting_abs)
        step(state)
        assert calls == []  # the sampled level's sources were reused

    def test_abs_computed_once_per_unsampled_level(self, monkeypatch):
        calls = []
        original = np.abs

        def counting_abs(x, *args, **kwargs):
            calls.append(x.size)
            return original(x, *args, **kwargs)

        state = init_state(params1d(), (ZERO, ZERO), BUMPS, GridConfig(dr=0.1, horizon=2.0))
        step(state)
        monkeypatch.setattr(np, "abs", counting_abs)
        for _ in range(5):
            state.sup_norm()  # what run_until_blowup checks on an unsampled level
            step(state)
        assert 0 < len(calls) <= 2 * 5  # |u| and |v| once per level


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

    def test_one_abs_call_per_unsampled_level(self, monkeypatch):
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
            windows.append(2 * state.m)
            state.sup_norm()  # what run_until_blowup checks on an unsampled level
            step(state)
        assert calls == windows  # one call over the (u, v) slots of each window

    def test_snapshots_are_contiguous_copies(self):
        grid = GridConfig(dr=0.1, horizon=2.0, snapshot_every=4)
        res = run_until_blowup(params1d(eps=0.3), (ZERO, ZERO), BUMPS, grid)
        assert len(res.snapshots) == 11
        for _, u, v in res.snapshots:
            for snap in (u, v):
                assert snap.flags.c_contiguous and snap.flags.owndata
                assert snap.size == res.state.r.size
                assert not np.shares_memory(snap, res.state.u)
                assert not np.shares_memory(snap, res.state.u_prev)
        _, u0, v0 = res.snapshots[0]
        assert np.array_equal(u0, res.state.u_init) and np.array_equal(v0, res.state.v_init)
        _, u_end, v_end = res.snapshots[-1]
        assert np.array_equal(u_end, res.state.u) and np.array_equal(v_end, res.state.v)

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


class TestStepCalls:
    """The numpy calls of an unsampled step: one contiguous source power when
    p = q, np.square for an exponent of 2, and a fixed budget of array calls."""

    WRAPPED = ("abs", "power", "square", "multiply", "subtract", "add", "divide", "copyto")

    @classmethod
    def calls_per_level(cls, monkeypatch, state, levels=5):
        """[(2m, [(name, size of the first argument, contiguous)])] of each
        unsampled level past the Taylor start: its sup norm, then its step."""
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
            out.append((2 * state.m, []))
            state.sup_norm()  # what run_until_blowup checks on an unsampled level
            step(state)
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
            state.functionals()
            assert state._src[0:2 * m:2].tobytes() == (np.abs(u[:m]) ** 2.0).tobytes()
            assert state._src[1:2 * m:2].tobytes() == (np.abs(v[:m]) ** 3.0).tobytes()
            step(state)
        assert np.any(state.u != 0.0)

    @pytest.mark.parametrize("n,p,budget", [(1, F(2), (12, 15)), (2, F(3, 2), (15, 18)),
                                            (3, ROOT2, (16, 19))])
    @pytest.mark.parametrize("damping", [ZERO, POLY], ids=["zero", "poly"])
    def test_call_budget_per_unsampled_step(self, monkeypatch, n, p, budget, damping):
        # array calls of a step and its sup norm, for a shared profile and p = q;
        # the sup norm's max() is a method no wrapper sees, so it counts as 1
        params = SystemParams(n, p, p, R=1.0, eps=1.0)
        state = init_state(params, (damping, damping), BUMPS, GridConfig(dr=0.1, horizon=2.0))
        want = budget[damping is POLY]
        for _, calls in self.calls_per_level(monkeypatch, state):
            assert len(calls) + 1 == want, calls


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
        assert np.all(res.trace.U > 0.0) and np.all(res.trace.V > 0.0)

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
            res = run_until_blowup(params1d(), (ZERO, ZERO), BUMPS, grid)
        assert res.record.detection is Detection.THRESHOLD
        assert np.isinf(res.trace.Nv[-1])

    def test_nan_in_second_component_is_nonfinite(self):
        state = init_state(params1d(), (ZERO, ZERO), BUMPS, GridConfig(horizon=2.0))
        state.v[3] = np.nan
        assert math.isnan(state.sup_norm())

    def test_determinism(self):
        grid = GridConfig(dr=0.05, horizon=5.0)
        a = run_until_blowup(params1d(), (ZERO, ZERO), BUMPS, grid)
        b = run_until_blowup(params1d(), (ZERO, ZERO), BUMPS, grid)
        assert np.array_equal(a.trace.U, b.trace.U)
        assert np.array_equal(a.state.u, b.state.u)


class TestFunctionals:
    def test_asymmetric_trace_labels(self):
        # p != q and asymmetric data: Nu must integrate |u|^q and Nv |v|^p
        params = SystemParams(1, F(3), F(2), R=1.0, eps=1.0)
        data = InitialData(u0_amp=1.0, u1_amp=0.0, v0_amp=0.5, v1_amp=0.0)
        grid = GridConfig(dr=0.05, horizon=1.0)
        res = run_until_blowup(params, (ZERO, ZERO), data, grid)
        state = init_state(params, (ZERO, ZERO), data, grid)
        nu0 = state.integral(np.abs(state.u_init) ** 2.0)
        nv0 = state.integral(np.abs(state.v_init) ** 3.0)
        assert abs(res.trace.Nu[0] - nu0) < 1e-14
        assert abs(res.trace.Nv[0] - nv0) < 1e-14
        assert nu0 != nv0

    def test_initial_row_is_the_full_grid_data(self):
        params = SystemParams(2, F(3), F(2), R=1.0, eps=0.7)
        data = InitialData(u0_amp=1.0, u1_amp=0.4, v0_amp=0.5, v1_amp=0.0)
        res = run_until_blowup(params, (ZERO, POLY), data, GridConfig(dr=0.05, horizon=1.0))
        s, w = res.state, res.state.weights
        row = [getattr(res.trace, k)[0] for k in ("t", "U", "V", "Nu", "Nv", "sup")]
        assert row[0] == 0.0
        assert row[5] == max(np.max(np.abs(s.u_init)), np.max(np.abs(s.v_init)))
        full = [w @ s.u_init, w @ s.v_init, w @ np.abs(s.u_init) ** 2.0, w @ np.abs(s.v_init) ** 3.0]
        assert np.allclose(row[1:5], full, rtol=1e-14, atol=0.0)

    def test_asymmetric_ode_identity(self):
        # the functional ODE pairs U'' with the |v|^p mass and V'' with |u|^q;
        # an asymmetric configuration catches any label swap
        params = SystemParams(1, F(3), F(2), R=1.0, eps=0.5)
        data = InitialData(u0_amp=1.0, u1_amp=0.0, v0_amp=0.2, v1_amp=0.1)
        res = run_until_blowup(params, (ZERO, ZERO), data, GridConfig(dr=0.02, horizon=4.0))
        rep = verify_identities(res.trace, (ZERO, ZERO), params, window=(0.5, 3.5))
        assert rep.ode_residual_u < 5e-4
        assert rep.ode_residual_v < 5e-4


class TestVerifyIdentities:
    def test_linear_mode_residual_is_discretization_noise(self):
        data = InitialData(1.0, 0.5, 1.0, 0.0)
        grid = GridConfig(dr=0.02, horizon=3.0, linear_mode=True, enforce_cone=False)
        res = run_until_blowup(params1d(), (ZERO, ZERO), data, grid)
        rep = verify_identities(res.trace, (ZERO, ZERO), params1d())
        assert rep.ode_residual_u < 1e-6

    def test_frame_inequalities_on_blowup_run(self):
        grid = GridConfig(dr=0.04, horizon=20.0)
        res = run_until_blowup(params1d(), (ZERO, ZERO), BUMPS, grid)
        rep = verify_identities(res.trace, (ZERO, ZERO), params1d())
        assert rep.inequalities_hold()
        assert rep.c1_fit > 0 and rep.k1_fit > 0

    def test_residual_second_order_convergence(self):
        params = SystemParams(2, F(3, 2), F(3, 2), R=1.0, eps=1.0)
        resids = []
        for dr in (0.04, 0.02):
            grid = GridConfig(dr=dr, horizon=6.0)
            res = run_until_blowup(params, (ZERO, ZERO), BUMPS, grid)
            rep = verify_identities(res.trace, (ZERO, ZERO), params, window=(1.0, 5.0))
            resids.append(rep.ode_residual_u)
        order = math.log2(resids[0] / resids[1])
        assert order >= 1.8

    def test_lower_bound_fit_stable_in_eps(self):
        fits = []
        for eps in (0.5, 1.0, 2.0):
            params = SystemParams(2, F(3, 2), F(3, 2), R=1.0, eps=eps)
            res = run_until_blowup(params, (ZERO, ZERO), BUMPS, GridConfig(dr=0.04, horizon=8.0))
            rep = verify_identities(res.trace, (ZERO, ZERO), params)
            fits.append(rep.c1_fit)
        mid = sorted(fits)[1]
        assert all(f > 0 for f in fits)
        assert all(abs(f - mid) / mid <= 0.2 for f in fits)

    def test_short_trace_rejected(self):
        grid = GridConfig(dr=0.1, horizon=0.2)
        res = run_until_blowup(params1d(), (ZERO, ZERO), BUMPS, grid)
        with pytest.raises(ValueError):
            verify_identities(_truncate(res.trace, 3), (ZERO, ZERO), params1d())


def _truncate(trace, k):
    from blowup_lab.simulator import FunctionalTrace

    return FunctionalTrace(
        t=trace.t[:k], U=trace.U[:k], V=trace.V[:k],
        Nu=trace.Nu[:k], Nv=trace.Nv[:k], sup=trace.sup[:k],
    )


@pytest.fixture(scope="module")
def critical_run():
    from blowup_lab.exponents import strauss_exponent

    p0 = strauss_exponent(3)
    params = SystemParams(3, p0, p0, R=1.0, eps=1.0)
    poly = DampingProfile.polynomial_tail(1.0, 2.0)
    grid = GridConfig(dr=0.025, horizon=12.0, snapshot_every=40)
    return params, run_until_blowup(params, (poly, poly), BUMPS, grid)


class TestCriticalVerifier:
    def test_bounds_hold(self, critical_run):
        params, res = critical_run
        rep = verify_critical_inequalities(res, params, log_window=(5.0, 12.0))
        assert rep.bounds_hold()
        assert rep.log_ratio_min > 0

    def test_rejects_low_dimension(self):
        res = run_until_blowup(params1d(), (ZERO, ZERO), BUMPS,
                               GridConfig(dr=0.1, horizon=1.0, snapshot_every=5))
        with pytest.raises(ValueError):
            verify_critical_inequalities(res, params1d())

    def test_rejects_tabulated_damping(self):
        ts = np.linspace(0.0, 10.0, 50)
        tab = DampingProfile.tabulated(ts, np.exp(-ts))
        params = SystemParams(2, F(2), F(2), R=1.0, eps=0.1)
        res = run_until_blowup(params, (tab, tab), BUMPS,
                               GridConfig(dr=0.1, horizon=1.0, snapshot_every=5))
        with pytest.raises(ValueError):
            verify_critical_inequalities(res, params)

    def test_requires_snapshots(self):
        params = SystemParams(2, F(2), F(2), R=1.0, eps=0.1)
        res = run_until_blowup(params, (ZERO, ZERO), BUMPS, GridConfig(dr=0.1, horizon=1.0))
        with pytest.raises(ValueError):
            verify_critical_inequalities(res, params)

    def test_asymmetric_orders_and_swap(self):
        # exact critical point with p > q (F(3, 7/2, 2) = 0) exercises the
        # two distinct kernel orders; feeding the pair swapped must mirror
        poly = DampingProfile.polynomial_tail(1.0, 2.0)
        grid = GridConfig(dr=0.04, horizon=8.0, snapshot_every=15, sample_every=15)
        params = SystemParams(3, F(7, 2), F(2), R=1.0, eps=1.0)
        res = run_until_blowup(params, (poly, poly), BUMPS, grid)
        rep = verify_critical_inequalities(res, params, log_window=(5.0, 8.0))
        assert rep.bounds_hold() and rep.log_ratio_min > 0

        params_sw = SystemParams(3, F(2), F(7, 2), R=1.0, eps=1.0)
        res_sw = run_until_blowup(params_sw, (poly, poly), BUMPS, grid)
        rep_sw = verify_critical_inequalities(res_sw, params_sw, log_window=(5.0, 8.0))
        assert rep_sw.bounds_hold()
        assert np.allclose(rep.weighted_u, rep_sw.weighted_u, rtol=1e-12)

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
        res = run_until_blowup(params, (POLY, POLY), BUMPS,
                               GridConfig(dr=0.1, horizon=4.0, snapshot_every=10))
        rep = verify_critical_inequalities(res, params, quad_nodes=16, log_window=(2.0, 4.0))
        assert len(built) == builds
        assert rep.t_checked.size > 0

    def test_zero_data_bounds_trivially(self):
        params = SystemParams(2, F(2), F(2), R=1.0, eps=1.0)
        res = run_until_blowup(params, (ZERO, ZERO), InitialData.zero(),
                               GridConfig(dr=0.1, horizon=2.0, snapshot_every=5))
        rep = verify_critical_inequalities(res, params, log_window=(1.6, 2.0))
        assert np.all(rep.weighted_u == 0.0) and np.all(rep.rhs_u == 0.0)
        assert rep.bounds_hold()


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
        assert sweep.upper_bound_holds()

    def test_sweep_samples_only_t0(self, tmp_path, monkeypatch):
        # a sweep keeps only its records: the functionals are integrated at
        # t = 0 alone, and the records match runs sampled at every step
        grid = GridConfig(dr=0.05, horizon=30.0)
        eps = [1.0, 0.7, 0.5, 0.35]
        sampled = [run_until_blowup(params1d(eps=e), (ZERO, ZERO), BUMPS, grid).record
                   for e in eps]
        write_records_csv(sampled, tmp_path / "sampled.csv")
        integrated_at = []
        integral = simulator.GridState.integral

        def counting_integral(state, f):
            integrated_at.append(state.step_index)
            return integral(state, f)

        monkeypatch.setattr(simulator.GridState, "integral", counting_integral)
        sweep = lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, grid, eps, workers=1)
        write_records_csv(sweep.records, tmp_path / "records.csv")
        assert integrated_at and set(integrated_at) == {0}
        assert (tmp_path / "records.csv").read_bytes() == (tmp_path / "sampled.csv").read_bytes()

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, GridConfig(), [1.0, 0.5])

    def test_parallel_matches_serial(self):
        grid = GridConfig(dr=0.05, horizon=30.0)
        eps = [1.0, 0.7, 0.5, 0.35]
        serial = lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, grid, eps, workers=1)
        parallel = lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, grid, eps, workers=2)
        assert [r.t_blow for r in serial.records] == [r.t_blow for r in parallel.records]
        assert serial.slope == parallel.slope

    def test_records_keep_caller_order(self, tmp_path):
        grid = GridConfig(dr=0.05, horizon=30.0)
        eps = [0.5, 1.0, 0.35, 0.7]
        for workers in (1, 2):
            sweep = lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, grid, eps, workers=workers)
            assert [r.eps for r in sweep.records] == eps
            write_records_csv(sweep.records, tmp_path / f"records{workers}.csv")
        assert (tmp_path / "records1.csv").read_bytes() == (tmp_path / "records2.csv").read_bytes()

    def test_pool_starts_smallest_eps_first(self, monkeypatch):
        submitted = []

        class InlinePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, job):
                submitted.append(job[0].eps)
                fut = Future()
                fut.set_result(fn(job))
                return fut

        def fake_run(job):
            eps = job[0].eps
            return LifespanRecord(eps, 1.0 / eps, Detection.THRESHOLD)

        monkeypatch.setenv("BLOWUP_LAB_THREADS", "2")
        monkeypatch.setattr(simulator, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(simulator, "_sweep_one", fake_run)
        eps = [0.5, 1.0, 0.25, 0.7]
        sweep = lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, GridConfig(), eps, workers=2)
        assert submitted == [0.25, 0.5, 0.7, 1.0]
        assert [r.eps for r in sweep.records] == eps


class TestPersistence:
    def test_trace_csv_roundtrip(self, tmp_path):
        res = run_until_blowup(params1d(), (ZERO, ZERO), BUMPS, GridConfig(dr=0.1, horizon=1.0))
        path = tmp_path / "trace.csv"
        write_trace_csv(res.trace, path)
        body = path.read_text().splitlines()
        assert body[0] == "t,U,V,Nu,Nv,supnorm"
        loaded = np.array([float(line.split(",")[1]) for line in body[1:]])
        assert np.array_equal(loaded, res.trace.U)

    def test_records_csv(self, tmp_path):
        rec = LifespanRecord(0.5, 12.25, Detection.THRESHOLD,
                             {"dr": 0.02, "cfl": 0.5, "horizon": 40.0, "threshold": 1e10})
        path = tmp_path / "records.csv"
        write_records_csv([rec], path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("eps,Tblow,detection")
        assert lines[1].split(",")[2] == "ThresholdCross"
