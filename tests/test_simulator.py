import math
import multiprocessing
import re
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from fractions import Fraction as F

import numpy as np
import pytest
from oracles import (
    critical_stream_run,
    reference_critical_report,
    reference_levels,
    run_with_snapshots,
    sampled_run,
    step_identity_residual,
)

from blowup_lab import cli, simulator
from blowup_lab.damping import DampingProfile
from blowup_lab.exponents import SystemParams, lifespan_law, strauss_exponent
from blowup_lab.simulator import (
    CriticalStream,
    Detection,
    FunctionalTrace,
    GridConfig,
    InitialData,
    LifespanRecord,
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
        state = init_state(params1d(), (ZERO, ZERO), InitialData(0.0, 0.0, 0.0, 0.0), GridConfig(horizon=2.0))
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
        {"dr": math.nan}, {"horizon": math.inf}, {"threshold": math.inf}, {"dr": math.inf},
    ])
    def test_nonfinite_lengths_rejected(self, bad):
        with pytest.raises(ValueError):
            GridConfig(**bad)


class TestStep:
    def test_zero_state_stays_zero(self):
        state = init_state(params1d(), (ZERO, ZERO), InitialData(0.0, 0.0, 0.0, 0.0), GridConfig(horizon=1.0))
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
        # every slot past the window is +0.0, bit for bit, in both levels and the sources
        grid = GridConfig(dr=0.02, horizon=3.0, enforce_cone=True)
        state = run_until_blowup(params1d(), (ZERO, ZERO), BUMPS, grid).state
        assert state.m < state.r.size
        for buf in (state._z, state._z_prev, state._src):
            assert not buf[state._c * state.m:].view(np.uint64).any()

    def test_negative_amplitudes_leave_plus_zero_past_the_window(self):
        # a negative amplitude times the bump's 0.0 past R would be -0.0, which the
        # step never rewrites past its chunk
        params = SystemParams(2, F(3, 2), F(2), R=1.0, eps=1.0)
        state = init_state(params, (ZERO, ZERO), InitialData(1.0, 0.3, -0.5, -0.2),
                           GridConfig(dr=0.04, horizon=4.0))
        for _ in range(4):
            for buf in (state._z, state._z_prev, state._src):
                assert not buf[state._c * state.m:].view(np.uint64).any(), state.step_index
            step(state)


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
        self.profile, self.kind, self.calls = profile, profile.kind, 0

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

    def test_chunk_cap_at_n3(self):
        # the grid ends at rmax = 9.5 (239 nodes): the stepped extent runs through the
        # chunks 64, 128 and 192 to the cap r.size - 1 = 238, and the window covers
        # the whole grid after t = 8.44; every level matches the reference byte for
        # byte, and both levels and the sources read +0.0 past the window, sign included
        params = SystemParams(3, F(3), F(2), R=1.0, eps=0.3)
        profiles, data = (POLY, replace(POLY)), InitialData(1.0, 0.3, 0.5, -0.2)
        grid = GridConfig(dr=0.04, horizon=8.0)
        state = init_state(params, profiles, data, grid)
        ref = reference_levels(init_state(params, profiles, data, grid))
        extents = []
        for _ in range(500):
            t, u, v = next(ref)
            assert state.t == t
            assert state.u.tobytes() == u.tobytes() and state.v.tobytes() == v.tobytes()
            for buf in (state._z, state._z_prev, state._src):
                past = buf[2 * state.m:]
                assert not np.any(past) and not np.any(np.signbit(past))
            step(state)
            extents.append(state._plans[(state.step_index - 1) % 2].k)
        assert state.r.size == 239 and state.m == state.r.size
        assert sorted(set(extents)) == [64, 128, 192, 238]

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

    def test_a_zero_kind_pair_evaluates_no_damping(self):
        profiles = (_CountingDamping(ZERO), _CountingDamping(ZERO))
        state = init_state(params1d(), profiles, BUMPS, GridConfig(dr=0.1, horizon=2.0))
        for _ in range(10):
            step(state)
        assert profiles[0].calls == profiles[1].calls == 0

    @pytest.mark.parametrize("profiles,c", [
        ((DampingProfile.polynomial_tail(0.0, 2.0),) * 2, 1),
        ((DampingProfile.tabulated([0.0, 0.5], [1.0, 0.25]),) * 2, 1),
        ((DampingProfile.polynomial_tail(0.0, 2.0), DampingProfile.tabulated([0, 0.5], [0, 0])), 2),
    ], ids=["poly-mu-0", "table-past-its-last-node", "two-profiles-coupled"])
    def test_undamped_shortcut_by_value(self, monkeypatch, profiles, c):
        # profiles not of zero kind whose b reads 0.0 take the undamped update (the
        # table past t = 0.5): every level is the reference's, byte for byte, signed
        # zeros included, and a step makes the array calls of a zero-kind pair's step
        q = F(3, 2) if c == 1 else F(2)
        params = SystemParams(2, F(3, 2), q, R=1.0, eps=1.0)
        data = InitialData(1.0, 0.3, 1.0, 0.3) if c == 1 else InitialData(1.0, 0.3, 0.5, -0.2)
        grid = GridConfig(dr=0.04, horizon=4.0)
        state = init_state(params, profiles, data, grid)
        zero = init_state(params, (ZERO, ZERO) if c == 1 else (ZERO, replace(ZERO)), data, grid)
        ref = reference_levels(init_state(params, profiles, data, grid))
        assert state._c == zero._c == c and not state._zero and zero._zero
        for _ in range(200):
            t, u, v = next(ref)
            assert state.u.tobytes() == u.tobytes() and state.v.tobytes() == v.tobytes(), t
            step(state)
            step(zero)
        assert all(prof.b(state.t) == 0.0 for prof in profiles)
        calls = [TestStepCalls.calls_per_level(monkeypatch, s, levels=3) for s in (state, zero)]
        assert calls[0] == calls[1]

    def test_sweep_family_matches_full_grid(self):
        params = SystemParams(2, F(3, 2), F(3, 2), R=1.0, eps=1.0)
        grid = GridConfig(dr=0.04, horizon=40.0)
        eps_list = [1.0, 0.5, 0.25, 0.125]
        records = lifespan_sweep(params, (POLY, POLY), BUMPS, grid, eps_list)
        for rec in records:
            ref = reference_record(replace(params, eps=rec.eps), (POLY, POLY), BUMPS, grid)
            assert (rec.t_blow, rec.detection) == ref
        assert not any(rec.detection is Detection.SURVIVED for rec in records)

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
        assert state._c == 1  # symmetric data: one slot per node
        step(state)
        monkeypatch.setattr(np, "abs", counting_abs)
        windows = []
        for _ in range(5):
            state.sup_norm()  # what run_until_blowup checks at every level
            step(state)
            windows.append(state._c * state.m)
        assert calls == windows  # one call over the slots of each new window

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
        grid = GridConfig(dr=0.05, horizon=6.0)
        a, tr_a, snaps_a = run_with_snapshots(SystemParams(n, p, q, eps=2.0), profiles, data, grid,
                                              40)
        b, tr_b, snaps_b = run_with_snapshots(SystemParams(n, q, p, eps=2.0), profiles[::-1],
                                              swapped, grid, 40)
        assert (a.record.t_blow, a.record.detection) == (b.record.t_blow, b.record.detection)
        for x, y in ((tr_a.U, tr_b.V), (tr_a.V, tr_b.U), (tr_a.Nu, tr_b.Nv),
                     (tr_a.Nv, tr_b.Nu), (tr_a.sup, tr_b.sup), (tr_a.t, tr_b.t)):
            assert np.array_equal(x, y)
        assert not np.array_equal(tr_a.U, tr_a.V)  # the two components differ
        for (ta, ua, va), (tb, ub, vb) in zip(snaps_a, snaps_b, strict=True):
            assert ta == tb and np.array_equal(ua, vb) and np.array_equal(va, ub)


class TestOneComponentLevels:
    """p = q, one shared profile object and byte-equal data: v repeats u bit for
    bit, so a level is one slot per node that u and v both read (c = 1)."""

    SYMMETRIC = InitialData(1.0, 0.3, 1.0, 0.3)

    @pytest.mark.parametrize("n,p", [(1, F(2)), (2, F(3, 2)), (3, ROOT2)])
    @pytest.mark.parametrize("damping", [ZERO, POLY], ids=["zero", "poly"])
    @pytest.mark.parametrize("linear", [False, True], ids=["nonlinear", "linear"])
    def test_matches_the_two_component_reference(self, n, p, damping, linear):
        # every level byte for byte, signed zeros included
        params = SystemParams(n, p, p, R=1.0, eps=1.0)
        grid = GridConfig(dr=0.04, horizon=8.0, linear_mode=linear)
        state = init_state(params, (damping, damping), self.SYMMETRIC, grid)
        ref = reference_levels(init_state(params, (damping, damping), self.SYMMETRIC, grid))
        assert state._c == 1
        for _ in range(300):
            t, u, v = next(ref)
            assert state.t == t
            assert state.u.tobytes() == u.tobytes() and state.v.tobytes() == v.tobytes()
            step(state)
        assert state.m < state.r.size

    def test_u_and_v_are_one_view(self):
        grid = GridConfig(dr=0.1, horizon=2.0)
        state = init_state(params1d(), (POLY, POLY), self.SYMMETRIC, grid)
        for _ in range(3):
            for u, v in ((state.u, state.v), (state.u_prev, state.v_prev)):
                assert u.__array_interface__ == v.__array_interface__
                assert u.base is v.base and u.size == state.r.size
            assert not np.may_share_memory(state.u, state.u_prev)
            step(state)

    @pytest.mark.parametrize("p,q,profiles,data,c", [
        (F(2), F(2), (POLY, POLY), SYMMETRIC, 1),
        (F(2), F(2), (POLY, POLY), InitialData(1.0, 0.3, 1.0, 0.2), 2),
        # +0.0 and -0.0 amplitudes compare equal, but the data are not the same bits
        (F(2), F(2), (ZERO, ZERO), InitialData(1.0, 0.0, 1.0, -0.0), 2),
        (F(2), F(2), (ZERO, ZERO), InitialData(-0.0, 0.3, 0.0, 0.3), 2),
        (F(2), F(2), (POLY, replace(POLY)), SYMMETRIC, 2),
        (F(2), F(2), (ZERO, POLY), SYMMETRIC, 2),
        (F(2), F(3), (POLY, POLY), SYMMETRIC, 2),
    ], ids=["symmetric", "speeds", "signed-zero-speed", "signed-zero-amplitude",
            "equal-profiles", "profiles", "orders"])
    def test_the_guard(self, p, q, profiles, data, c):
        state = init_state(params1d(p=p, q=q), profiles, data, GridConfig(dr=0.1, horizon=2.0))
        assert state._c == c and np.shares_memory(state.u, state.v) == (c == 1)

    def test_fields_are_the_level_on_its_window(self):
        # u, v, |u|^q, |v|^p; on one component v is u and |v|^p is |u|^q, the same objects
        grid = GridConfig(dr=0.1, horizon=2.0)
        for data in (self.SYMMETRIC, InitialData(1.0, 0.3, 0.7, 0.2)):
            state = init_state(params1d(), (POLY, POLY), data, grid)
            step(state)
            u, v, nu, nv = state.fields()
            assert (v is u, nv is nu) == (data is self.SYMMETRIC,) * 2
            m = state.m
            for got, want in ((u, state.u[:m]), (v, state.v[:m]),
                              (nu, np.abs(state.u[:m]) ** 2.0), (nv, np.abs(state.v[:m]) ** 2.0)):
                assert got.tobytes() == want.tobytes()

    def test_fields_of_a_level_of_lanes_raise(self):
        # three lanes' slots read as one run's would mix them in every field and functional
        state = init_state(params1d(), (ZERO, ZERO), BUMPS, GridConfig(dr=0.1, horizon=2.0),
                           [1.0, 0.5, 0.25])
        for read in (state.fields, state.functionals):
            with pytest.raises(ValueError, match="one-lane level, this one has 3"):
                read()

    def test_one_recurrence_on_one_component(self, monkeypatch):
        # u's recurrence serves v: one advance per snapshot after t = 0, and the
        # report reads v's fields from it
        advanced = []
        advance = simulator._Component.advance

        def counting_advance(part, *args):
            advanced.append(part)
            return advance(part, *args)

        monkeypatch.setattr(simulator._Component, "advance", counting_advance)
        params = SystemParams(3, ROOT2, ROOT2, R=1.0, eps=1.0)
        grid = GridConfig(dr=0.1, horizon=2.0)
        stream = CriticalStream(params, (POLY, POLY), grid, 5, quad_nodes=16)
        res = run_until_blowup(params, (POLY, POLY), self.SYMMETRIC, grid, [(5, stream)])
        assert res.record.detection is Detection.SURVIVED and len(stream.t) == 9
        assert len(advanced) == len(stream.t) - 1 and len({id(part) for part in advanced}) == 1
        rep = verify_critical_inequalities(stream)
        assert np.array_equal(rep.weighted_u, rep.weighted_v)
        assert np.array_equal(rep.rhs_u, rep.rhs_v)

    def test_critical_report_equals_the_two_component_one(self):
        # a distinct but equal profile object keeps both components (c = 2) and
        # changes no float: the trace, the record and the report agree bit for bit
        params = SystemParams(3, ROOT2, ROOT2, R=1.0, eps=1.0)
        grid = GridConfig(dr=0.05, horizon=4.0)
        runs = []
        for profiles in ((POLY, POLY), (POLY, replace(POLY))):
            stream = CriticalStream(params, profiles, grid, 10, quad_nodes=16)
            res, tr, _ = run_with_snapshots(params, profiles, self.SYMMETRIC, grid, 10, stream)
            runs.append((res, tr, verify_critical_inequalities(stream, log_window=(2.0, 4.0))))
        (one, tr_one, rep_one), (two, tr_two, rep_two) = runs
        assert (one.state._c, two.state._c) == (1, 2)
        assert one.record == two.record
        for f in fields(tr_one):
            assert getattr(tr_one, f.name).tobytes() == getattr(tr_two, f.name).tobytes(), f.name
        assert rep_one.t_checked.size == 16 and rep_one.bounds_hold()
        for f in fields(rep_one):
            assert np.array_equal(getattr(rep_one, f.name), getattr(rep_two, f.name),
                                  equal_nan=True), f.name


class TestStepCalls:
    """The numpy calls of a step, the new level's measurement included: one
    contiguous source power when p = q, np.square for an exponent of 2, and a
    fixed budget of array calls."""

    WRAPPED = ("abs", "power", "square", "multiply", "subtract", "add", "divide", "copyto")

    @classmethod
    def calls_per_level(cls, monkeypatch, state, levels=5):
        """[(c m, [(name, size of the first argument, contiguous)])] of each step
        past the Taylor start, with the window m of the level it makes and the
        component stride c; the run's sup norm check before it makes no call."""
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
            out[-1] = (state._c * state.m, out[-1][1])
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
        # p = q: one power over the c m slots (m on these symmetric data);
        # p != q: |u|^q then |v|^p, each over the m strided slots of its component;
        # np.square for exponent 2
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

    #: (n, p, (zero, poly)) two-component call budgets of a step
    BUDGETS = [(1, F(2), (12, 15)), (2, F(3, 2), (15, 18)), (3, ROOT2, (16, 19))]

    def assert_budget(self, monkeypatch, n, p, damping, data, c, want):
        # array calls of a step with its new level's measurement, for a shared profile
        # and p = q; the sup norm's argmax() is a method no wrapper sees, so it counts as 1
        params = SystemParams(n, p, p, R=1.0, eps=1.0)
        state = init_state(params, (damping, damping), data, GridConfig(dr=0.1, horizon=2.0))
        assert state._c == c
        for _, calls in self.calls_per_level(monkeypatch, state):
            assert len(calls) + 1 == want, calls

    @pytest.mark.parametrize("n,p,budget", BUDGETS)
    @pytest.mark.parametrize("damping", [ZERO, POLY], ids=["zero", "poly"])
    def test_call_budget_per_step(self, monkeypatch, n, p, budget, damping):
        # symmetric data, one component (c = 1): its sources are one add, not two
        self.assert_budget(monkeypatch, n, p, damping, BUMPS, 1, budget[damping is POLY] - 1)

    @pytest.mark.parametrize("n,p,budget", BUDGETS)
    @pytest.mark.parametrize("damping", [ZERO, POLY], ids=["zero", "poly"])
    def test_two_component_call_budget_per_step(self, monkeypatch, n, p, budget, damping):
        # p = q with unequal data keeps both components (c = 2)
        self.assert_budget(monkeypatch, n, p, damping, InitialData(1.0, 0.0, 0.5, 0.0), 2,
                           budget[damping is POLY])


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
        res = run_until_blowup(params1d(), (ZERO, ZERO), InitialData(0.0, 0.0, 0.0, 0.0), GridConfig(horizon=1.5))
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
        data = InitialData(1.0, 0.0, 0.5, 0.0)  # v in its own slots
        state = init_state(params1d(), (ZERO, ZERO), data, GridConfig(horizon=2.0))
        state.v[3] = np.nan
        assert state.sup_norm() == 1.0
        step(state)
        assert math.isnan(state.sup_norm())

    def test_first_level_past_float_range_is_nonfinite(self):
        # at the largest finite threshold no level can cross it: the sources
        # overflow to +inf, and the run ends on the first level that carries it
        grid = GridConfig(dr=0.1, horizon=40.0, threshold=sys.float_info.max)
        res = run_until_blowup(params1d(eps=5.0), (ZERO, ZERO), BUMPS, grid)
        state = res.state
        k = state._c * state.m
        level, before = state._z[:k], state._z_prev[:k]
        assert res.record.detection is Detection.NONFINITE and res.record.t_blow == state.t
        assert np.any(np.isposinf(level)) and not np.any(np.isnan(level))
        assert np.all(np.isfinite(before))
        assert state.sup_norm() == math.inf

    def test_determinism(self):
        grid = GridConfig(dr=0.05, horizon=5.0)
        a, tr_a = sampled_run(params1d(), (ZERO, ZERO), BUMPS, grid)
        b, tr_b = sampled_run(params1d(), (ZERO, ZERO), BUMPS, grid)
        assert np.array_equal(tr_a.U, tr_b.U)
        assert np.array_equal(a.state.u, b.state.u)


class _FailingDamping(_CountingDamping):
    """Stand-in damping profile whose b raises from its call number `after` on."""

    def __init__(self, profile, after):
        super().__init__(profile)
        self.after = after

    def b(self, t):
        if self.calls == self.after:
            raise RuntimeError("damping failed")
        return super().b(t)


class TestSupNorm:
    """The sup norm is |z| at its argmax, taken when a level is made: the same
    float as the max of |z| over the level's window, NaN first."""

    @pytest.mark.parametrize("slots", [
        {4: 5.0, 10: math.nan},
        {0: math.nan, 4: 5.0},
        {4: -math.inf, 10: 5.0},
        {4: math.inf, 10: -math.nan},
        {},
    ], ids=["nan-after-max", "nan-at-0", "inf", "nan-after-inf", "zeros"])
    def test_equals_the_max_of_abs(self, slots):
        state = init_state(params1d(), (ZERO, ZERO), InitialData(0.0, 0.0, 0.0, 0.0), GridConfig(dr=0.1, horizon=2.0))
        level = state._z[:state._c * state.m]
        assert level.size > 10 and not np.any(level)
        for i, x in slots.items():
            level[i] = x
        with np.errstate(over="ignore", invalid="ignore"):
            state._measure()
        want = float(np.max(np.abs(state._z[:state._c * state.m])))
        assert np.float64(state.sup_norm()).tobytes() == np.float64(want).tobytes()
        assert type(state.sup_norm()) is float

    def test_equals_the_max_of_abs_along_a_run(self):
        # every level of a blow-up run, up to its overflow
        grid = GridConfig(dr=0.1, horizon=40.0, threshold=sys.float_info.max)
        seen = []

        def observe(state):
            want = float(np.max(np.abs(state._z[:state._c * state.m])))
            seen.append(np.float64(state.sup_norm()).tobytes() == np.float64(want).tobytes())
        res = run_until_blowup(params1d(eps=5.0), (POLY, POLY), BUMPS, grid, [(1, observe)])
        assert res.record.detection is Detection.NONFINITE
        assert len(seen) == res.state.step_index + 1 and all(seen)

    @pytest.mark.parametrize("outer", [{}, {"over": "raise", "invalid": "raise"},
                                       {"over": "warn", "divide": "raise"}],
                             ids=["default", "raise", "mixed"])
    def test_step_and_run_restore_the_error_state(self, outer):
        grid = GridConfig(dr=0.1, horizon=3.0)
        with np.errstate(**outer):
            before = np.geterr()
            state = init_state(params1d(), (POLY, POLY), BUMPS, grid)
            step(state)
            assert np.geterr() == before
            run_until_blowup(params1d(), (POLY, POLY), BUMPS, grid)
            assert np.geterr() == before

            def failing(state):
                if state.step_index == 3:
                    raise RuntimeError("observer failed")
            with pytest.raises(RuntimeError, match="observer failed"):
                run_until_blowup(params1d(), (POLY, POLY), BUMPS, grid, [(1, failing)])
            assert np.geterr() == before
            # a raise inside the step itself
            with pytest.raises(RuntimeError, match="damping failed"):
                run_until_blowup(params1d(), (_FailingDamping(POLY, 3),) * 2, BUMPS, grid)
            assert np.geterr() == before

    def test_step_silences_overflow_for_direct_callers(self):
        state = init_state(params1d(), (POLY, POLY), BUMPS, GridConfig(dr=0.1, horizon=2.0))
        state._z[:state._c * state.m] *= 1e200
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(3):
                step(state)
        assert math.isinf(state.sup_norm()) or math.isnan(state.sup_norm())


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


STEP_IDENTITY_DATA = InitialData(u0_amp=1.0, u1_amp=0.3, v0_amp=0.7, v1_amp=0.2)


class TestStepIdentity:
    """The leapfrog's space averages obey the discrete form of U'' + b1 U' = int |v|^p
    and V'' + b2 V' = int |u|^q exactly: the weighted sum of the discrete Laplacian
    telescopes at every n, at n = 2 with the origin cell's weight pi dr^2 / 4, while
    the numerical support, one node per step, stays negligible at the grid's end
    r = horizon + R + 0.5 (at n = 3 the residual reads 1.2e-15 at horizon 2, 1.6e-13
    at horizon 4)."""

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

    def test_exact_on_the_full_grid_at_n2(self, monkeypatch):
        # measured 7.2e-16 with the origin cell's weight, 1.9e-6 with the trapezoid's 0
        # there and 5.5e-5 with the sources swapped
        params = SystemParams(2, F(3), F(2), R=1.0, eps=0.5)
        grid = GridConfig(dr=0.025, horizon=2.0, enforce_cone=False)
        case = (params, (POLY, POLY), STEP_IDENTITY_DATA, grid)
        assert step_identity_residual(*case) <= 1e-12
        assert step_identity_residual(*case, sources=("Nu", "Nv")) >= 1e-6
        init = simulator.GridState.__init__

        def trapezoid_origin(state, *args):
            init(state, *args)
            state.weights[0] = 0.0

        monkeypatch.setattr(simulator.GridState, "__init__", trapezoid_origin)
        assert step_identity_residual(*case) >= 1e-6

    def test_free_wave_keeps_its_integral_at_n2(self):
        # undamped and linear on the full grid, U'' = 0 with U'(0) = 0: measured 1.1e-12
        # up to t = 15 (the trapezoid's 0 at the origin drifted 1.1e-3), on a grid whose
        # end the scheme's precursor has not reached by then
        params = SystemParams(2, F(2), F(2), R=1.0, eps=1.0)
        grid = GridConfig(dr=0.025, horizon=20.0, linear_mode=True, enforce_cone=False)
        _, tr = sampled_run(params, (ZERO, ZERO), BUMPS, grid, sample_every=10)
        U = tr.U[tr.t <= 15.0]
        assert U.size == 121 and np.max(np.abs(U - U[0])) <= 1e-11 * U[0]


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

    def test_one_sample_is_a_trace(self):
        # at t = 0 both double integrals are 0: the slacks are U and V, and each
        # fit is its source over eps^r at the data
        grid = GridConfig(dr=0.1, horizon=0.2)
        _, tr = sampled_run(params1d(eps=0.5), (ZERO, ZERO), BUMPS, grid)
        rep = verify_identities(_truncate(tr, 1), (ZERO, ZERO), params1d(eps=0.5))
        assert (rep.iter1_slack_u, rep.iter1_slack_v) == (tr.U[0], tr.V[0])
        assert (rep.k1_fit, rep.c1_fit) == (tr.Nv[0] / 0.5 ** 2.0, tr.Nu[0] / 0.5 ** 2.0)


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
    grid = GridConfig(dr=0.025, horizon=12.0)
    return params, *critical_stream_run(params, (poly, poly), BUMPS, grid, 40)


def critical_peak_bytes(snapshot_every):
    """The tracemalloc peak of the critical fixture's run plus its verification."""
    p0 = 1.0 + math.sqrt(2.0)
    params = SystemParams(3, p0, p0, R=1.0, eps=1.0)
    poly = DampingProfile.polynomial_tail(1.0, 2.0)
    grid = GridConfig(dr=0.025, horizon=12.0)
    tracemalloc.start()
    try:
        stream = CriticalStream(params, (poly, poly), grid, snapshot_every)
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
            critical_stream_run(params1d(), (ZERO, ZERO), BUMPS, GridConfig(dr=0.1, horizon=1.0), 5)

    def test_rejects_tabulated_damping(self, no_run):
        ts = np.linspace(0.0, 10.0, 50)
        tab = DampingProfile.tabulated(ts, np.exp(-ts))
        params = SystemParams(2, F(2), F(2), R=1.0, eps=0.1)
        with pytest.raises(ValueError, match="C\\^1 damping"):
            critical_stream_run(params, (tab, tab), BUMPS, GridConfig(dr=0.1, horizon=1.0), 5)

    @pytest.mark.parametrize("cadence", [None, 0, -1])
    def test_requires_snapshots(self, cadence):
        params = SystemParams(2, F(2), F(2), R=1.0, eps=0.1)
        grid = GridConfig(dr=0.1, horizon=1.0)
        with pytest.raises(ValueError, match="needs snapshots; set snapshot_every"):
            simulator.critical_kernel_configs(params, (ZERO, ZERO), grid, cadence, 1.0, 64)
        with pytest.raises(ValueError, match="needs snapshots; set snapshot_every"):
            CriticalStream(params, (ZERO, ZERO), grid, cadence)

    def test_the_stream_reads_the_level_through_fields(self, monkeypatch):
        # zero views in place of the level's fields zero every weighted average
        monkeypatch.setattr(simulator.GridState, "fields", lambda state: (np.zeros(state.m),) * 4)
        params = SystemParams(3, ROOT2, ROOT2, R=1.0, eps=1.0)
        *_, stream = critical_stream_run(params, (POLY, POLY), BUMPS,
                                         GridConfig(dr=0.1, horizon=2.0), 5, quad_nodes=16)
        rep = verify_critical_inequalities(stream)
        assert rep.t_checked.size == 8 and not rep.weighted_u.any()

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
        grid = GridConfig(dr=0.04, horizon=8.0)
        params = SystemParams(3, F(7, 2), F(2), R=1.0, eps=1.0)
        *_, stream = critical_stream_run(params, (POLY, slow), InitialData(1.0, 0.3, 0.7, 0.2),
                                         grid, 15, sample_every=15)
        rep = verify_critical_inequalities(stream, log_window=(5.0, 8.0))
        assert rep.bounds_hold() and rep.log_ratio_min > 0

        params_sw = SystemParams(3, F(2), F(7, 2), R=1.0, eps=1.0)
        *_, stream_sw = critical_stream_run(params_sw, (slow, POLY),
                                            InitialData(0.7, 0.2, 1.0, 0.3), grid, 15,
                                            sample_every=15)
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
                                         GridConfig(dr=0.1, horizon=4.0), 10, quad_nodes=16)
        rep = verify_critical_inequalities(stream, log_window=(2.0, 4.0))
        assert len(built) == builds
        assert rep.t_checked.size > 0

    def test_zero_data_bounds_trivially(self):
        params = SystemParams(2, F(2), F(2), R=1.0, eps=1.0)
        *_, stream = critical_stream_run(params, (ZERO, ZERO), InitialData(0.0, 0.0, 0.0, 0.0),
                                         GridConfig(dr=0.1, horizon=2.0), 5)
        rep = verify_critical_inequalities(stream, log_window=(1.6, 2.0))
        assert np.all(rep.weighted_u == 0.0) and np.all(rep.rhs_u == 0.0)
        assert rep.bounds_hold()

    def test_linear_run_bound_has_no_source(self):
        # the stream reads the run's own sources, which a linear run does not have
        params = SystemParams(3, ROOT2, ROOT2, R=1.0, eps=1.0)
        grid = GridConfig(dr=0.05, horizon=8.0, linear_mode=True)
        res, snapshots, stream = critical_stream_run(params, (POLY, POLY), BUMPS, grid, 20)
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
                GridConfig(dr=0.04, horizon=8.0), 15, quad_nodes, sample_every=15)
        elif case == "undamped":
            params = SystemParams(3, ROOT2, ROOT2, R=1.0, eps=1.0)
            res, snapshots, stream = critical_stream_run(
                params, (ZERO, ZERO), BUMPS, GridConfig(dr=0.05, horizon=8.0), 8)
        else:  # a survived run with 601 snapshots
            params = SystemParams(2, F(3, 2), F(2), R=1.0, eps=0.001)
            quad_nodes = 16
            res, snapshots, stream = critical_stream_run(
                params, (POLY, POLY), BUMPS,
                GridConfig(dr=0.2, horizon=60.0), 1, quad_nodes, sample_every=10)
            assert len(snapshots) == 601
        rep = verify_critical_inequalities(stream)
        ref = reference_critical_report(res, snapshots, quad_nodes)
        assert rep.t_checked.size == len(snapshots) - 1 > 0
        for name in ("t_checked", "weighted_u", "weighted_v", "log_ratio"):
            assert np.array_equal(getattr(rep, name), ref[name], equal_nan=True), name
        for name in ("rhs_u", "rhs_v"):
            assert np.any(ref[name] > 0.0)
            np.testing.assert_allclose(getattr(rep, name), ref[name], rtol=1e-13, atol=0.0)


def sweep_slope(records) -> float:
    """The slope cmd_sweep fits: log T against log eps over the records that blew up."""
    usable = [r for r in records if r.detection is not Detection.SURVIVED]
    return fit_power_law(np.array([r.eps for r in usable]), np.array([r.t_blow for r in usable]))[0]


class TestSweep:
    def test_fit_recovers_exact_power_law(self):
        eps = np.array([1.0, 0.5, 0.25, 0.125])
        slope, intercept = fit_power_law(eps, eps ** -2.0)
        assert abs(slope + 2.0) < 1e-12
        assert abs(intercept) < 1e-12

    def test_small_sweep_monotone_and_within_window(self):
        records = lifespan_sweep(
            params1d(), (ZERO, ZERO), BUMPS,
            GridConfig(dr=0.04, horizon=60.0),
            [1.0, 0.7, 0.5, 0.35],
        )
        assert not any(r.detection is Detection.SURVIVED for r in records)
        ts = [r.t_blow for r in records]
        assert ts == sorted(ts)
        theory = float(lifespan_law(params1d(), BUMPS.speed_flags()).exponent)
        assert abs(sweep_slope(records) - theory) <= 0.25 * abs(theory)

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
        records = lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, grid, eps)
        write_records_csv(records, grid, tmp_path / "records.csv")
        assert integrated_at == []
        assert (tmp_path / "records.csv").read_bytes() == (tmp_path / "sampled.csv").read_bytes()

    def test_fit_needs_two_records(self):
        for size in (0, 1):
            with pytest.raises(ValueError, match="at least 2 blow-up records"):
                fit_power_law(np.ones(size), np.ones(size))

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, GridConfig(), [1.0, 0.5])
        # repeated eps count once: a fit needs distinct abscissae
        with pytest.raises(ValueError, match="4 distinct eps points, got 2"):
            lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, GridConfig(), [1.0, 0.5, 1.0, 0.5])

    def test_parallel_matches_serial(self):
        # the eps stepped in parallel as the lanes of one level read the records of
        # their runs one at a time, and so the same fitted slope
        grid = GridConfig(dr=0.05, horizon=30.0)
        eps = [1.0, 0.7, 0.5, 0.35]
        serial = [run_until_blowup(params1d(eps=e), (ZERO, ZERO), BUMPS, grid).record for e in eps]
        parallel = lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, grid, eps)
        assert parallel == serial
        assert sweep_slope(serial) == sweep_slope(parallel)

    def test_run_warnings_reach_the_caller_at_any_worker_count(self, tmp_path, monkeypatch):
        # the config's workers changes nothing: the lanes' steps warn in this process,
        # once a level, and the artifacts are byte-identical
        real_step = simulator.step

        def warning_step(state):
            warnings.warn(f"step at lanes {state.lanes}", RuntimeWarning)
            return real_step(state)

        monkeypatch.setattr(simulator, "step", warning_step)
        grid = GridConfig(dr=0.1, horizon=0.5)
        eps = [0.5, 1.0, 0.35, 0.7]
        for workers in (None, 1, 2):
            (tmp_path / f"w{workers}").mkdir()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cli.cmd_sweep(str(tmp_path / f"w{workers}"), params1d(), (ZERO, ZERO), BUMPS,
                              grid, eps, 0.25, workers)
            assert [str(w.message) for w in caught] == [f"step at lanes {tuple(eps)}"] * 10
        assert len({(tmp_path / f"w{w}" / "records.csv").read_bytes() for w in (None, 1, 2)}) == 1

    def test_failed_run_stops_the_sweep(self, monkeypatch):
        # an error from the level's step is raised here, and no process is left
        def failing_step(state):
            raise RuntimeError(f"step at lanes {state.lanes} failed")

        monkeypatch.setattr(simulator, "step", failing_step)
        eps = [1.0, 0.9, 0.8, 0.7]
        with pytest.raises(RuntimeError, match=re.escape(f"step at lanes {tuple(eps)} failed")):
            lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, GridConfig(), eps)
        assert multiprocessing.active_children() == []

    def test_sweep_runs_every_eps_here_as_lanes(self, monkeypatch):
        # one level holds every eps as a lane, in the caller's order and a repeated eps
        # once per position, and no pool is made; records keep the caller's order
        starts, real_init = [], simulator.init_state

        def spy_init(*args):
            state = real_init(*args)
            starts.append(state.lanes)
            return state

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was made")

        monkeypatch.setattr(simulator, "init_state", spy_init)
        monkeypatch.setattr(simulator, "ProcessPoolExecutor", no_pool)
        grid = GridConfig(dr=0.1, horizon=20.0)
        eps = [0.7, 1.0, 0.5, 0.7, 0.35]
        records = lifespan_sweep(params1d(), (ZERO, ZERO), BUMPS, grid, eps)
        assert starts == [tuple(eps)]
        assert [r.eps for r in records] == eps and records[0] == records[3]
        assert records == [run_until_blowup(params1d(eps=e), (ZERO, ZERO), BUMPS, grid).record
                           for e in eps]


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
