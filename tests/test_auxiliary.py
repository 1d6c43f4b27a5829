import math
import warnings

import numpy as np
import pytest

from blowup_lab import auxiliary
from blowup_lab.auxiliary import (
    KernelConfig,
    KernelQuadrature,
    ball_volume,
    bracket,
    critical_kernel_orders,
    fit_kernel_bounds,
    fundamental_identity_v,
    phi_eval,
    sinhc,
    solve_fundamental_pair,
    sphere_area,
    verify_fundamental_bounds,
)
from blowup_lab.damping import DampingProfile


class TestPhi:
    def test_point_values(self):
        assert phi_eval(1, 0.0) == 2.0
        assert abs(phi_eval(2, 0.0) - 2.0 * math.pi) < 1e-12

    # 0 <= rho <= 45 covers the critical verifier's lambda * r grid
    def test_closed_form_n2(self, sphere_quadrature):
        rho = np.linspace(0.0, 45.0, 4501)
        rel = np.abs(phi_eval(2, rho) / sphere_quadrature(2, rho) - 1.0)
        assert np.max(rel) <= 1e-13

    def test_closed_form_n3(self, sphere_quadrature):
        rho = np.linspace(0.0, 45.0, 4501)
        rel = np.abs(phi_eval(3, rho) / sphere_quadrature(3, rho) - 1.0)
        assert np.max(rel) <= 1e-13

    def test_even_and_positive(self):
        rho = np.linspace(0.0, 8.0, 30)
        for n in (1, 2, 3, 4):
            plus = np.atleast_1d(phi_eval(n, rho))
            minus = np.atleast_1d(phi_eval(n, -rho))
            assert np.allclose(plus, minus, rtol=1e-13)
            assert np.all(plus > 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_infinite_argument(self, n):
        # Phi grows like e^|rho| in every dimension: its value at +-inf is inf,
        # without a warning, and a finite neighbour in the same call stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phi_eval(n, math.inf) == math.inf and phi_eval(n, -math.inf) == math.inf
            vals = phi_eval(n, np.array([1.0, math.inf, -math.inf]))
        assert np.isfinite(vals[0]) and np.all(vals[1:] == math.inf)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_nan_argument(self, n):
        # a NaN gives nan where it stands, without a warning; the other values
        # are those of the same call with the NaN replaced by an argument that
        # leaves the n >= 4 node rule as it is
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = phi_eval(n, np.array([0.0, math.inf, 3.0, math.nan]))
            assert math.isnan(phi_eval(n, math.nan))
        same = phi_eval(n, np.array([0.0, math.inf, 3.0, 0.0]))
        assert math.isnan(vals[3]) and vals[:3].tobytes() == same[:3].tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_is_laplace_eigenfunction(self, n):
        # discrete radial Laplacian residual |(Phi'' + (n-1)Phi'/rho) - Phi| / Phi
        h = 1e-3
        rho = np.arange(0.0, 10.0 + h / 2, h)
        vals = phi_eval(n, rho)
        lap = np.empty_like(vals)
        lap[1:-1] = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h ** 2
        lap[1:-1] += (n - 1) * (vals[2:] - vals[:-2]) / (2 * h * rho[1:-1])
        lap[0] = n * 2.0 * (vals[1] - vals[0]) / h ** 2  # symmetric ghost at the origin
        rel = np.abs(lap[:-1] - vals[:-1]) / vals[:-1]
        assert np.max(rel) < 1e-4


class TestKernels:
    def test_xi_closed_form_at_origin(self):
        cfg = KernelConfig(lambda0=1.0, R=1.0, order=0.0)
        expected = 2.0 * math.pi * (1.0 - math.exp(-1.0))
        assert abs(KernelQuadrature(cfg, 2, [0.0]).xi(0.0)[0] - expected) / expected < 1e-12

    def test_eta_equals_xi_like_integral_at_s_equals_t(self):
        cfg = KernelConfig(lambda0=1.0, R=1.0, order=0.5, quad_nodes=48)
        lam, w = cfg.nodes()
        quad = KernelQuadrature(cfg, 2, [0.7])
        for t in (0.0, 2.0, 7.0):
            direct = float(np.sum(w * np.exp(-lam * (t + 1.0)) * phi_eval(2, lam * 0.7)))
            assert abs(quad.eta(t, t)[0] - direct) < 1e-13 * max(1.0, direct)

    def test_eta_closed_form_origin(self):
        cfg = KernelConfig(lambda0=1.0, R=1.0, order=0.0)
        expected = 2.0 * math.pi * (1.0 - math.exp(-1.0))
        assert abs(KernelQuadrature(cfg, 2, [0.0]).eta(0.0, 0.0)[0] - expected) / expected < 1e-12

    def test_xi_transient_decays_like_inverse_t(self):
        # xi(t, 0) tends to a positive constant; the transient part is the
        # Watson tail ~ Phi(0) / (2(2t+R)) for order zero
        cfg = KernelConfig(lambda0=1.0, R=1.0, order=0.0)
        lam, w = cfg.nodes()
        limit = float(np.sum(w * 0.5 * np.exp(-lam * cfg.R) * phi_eval(2, 0.0 * lam)))
        quad = KernelQuadrature(cfg, 2, [0.0])
        for t in (20.0, 40.0, 80.0):
            transient = quad.xi(t)[0] - limit
            envelope = math.pi / (2.0 * t + cfg.R)
            assert 0.5 < transient / envelope < 2.0

    def test_positive_and_decreasing_in_t(self):
        cfg = KernelConfig(lambda0=1.0, R=1.0, order=0.5)
        ts = np.linspace(0.0, 30.0, 16)
        quad = KernelQuadrature(cfg, 3, [0.5])
        xis = np.array([quad.xi(t)[0] for t in ts])
        etas = np.array([quad.eta(t, 0.0)[0] for t in ts])
        assert np.all(xis > 0) and np.all(etas > 0)
        assert np.all(np.diff(xis) < 0)
        assert np.all(np.diff(etas) < 0)

    def test_series_patch_continuity(self):
        # direct sinh(z)/z against the series patch at the switch point
        for z in (0.99e-4, 1.01e-4):
            assert abs(sinhc(z) - math.sinh(z) / z) < 1e-12

    def test_eta_continuous_across_switch(self):
        cfg = KernelConfig(lambda0=1.0, R=1.0, order=0.0)
        t = 1.0
        quad = KernelQuadrature(cfg, 2, [0.3])
        below = quad.eta(t, t - 0.9e-4)[0]
        above = quad.eta(t, t - 1.1e-4)[0]
        assert abs(below - above) / above < 1e-7

    def test_eta_requires_ordered_times(self):
        cfg = KernelConfig()
        with pytest.raises(ValueError):
            KernelQuadrature(cfg, 2, [0.0]).eta(1.0, 2.0)

    def test_quad_nodes_validation(self):
        with pytest.raises(ValueError):
            KernelConfig(quad_nodes=3)
        with pytest.raises(ValueError):
            KernelConfig(order=-1.0)

    def test_singular_order_substitution(self):
        # r = -1/2 at the origin has the closed form
        # 2 pi int_0^1 e^(-lam) lam^(-1/2) dlam = 2 pi sqrt(pi) erf(1)
        cfg = KernelConfig(lambda0=1.0, R=1.0, order=-0.5, quad_nodes=64)
        ref = 2.0 * math.pi * math.sqrt(math.pi) * math.erf(1.0)
        val = KernelQuadrature(cfg, 2, [0.0]).xi(0.0)[0]
        assert abs(val - ref) / ref < 1e-9


class TestKernelBounds:
    def test_singleton_grid_reduces_to_point_value(self):
        cfg = KernelConfig(lambda0=1.0, R=1.0, order=0.5)
        fit = fit_kernel_bounds(cfg, 3, [0.0], x_points=1)
        assert fit.a0 == KernelQuadrature(cfg, 3, [0.0]).xi(0.0)[0]

    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_all_constants_positive(self, n, q):
        r = (n - 1) / 2.0 - 1.0 / q
        cfg = KernelConfig(lambda0=1.0, R=1.0, order=r)
        fit = fit_kernel_bounds(cfg, n, np.linspace(0.0, 50.0, 6), x_points=5)
        assert fit.all_positive(), fit

    def test_shrinking_lambda0_keeps_a0_positive(self):
        for lam0 in (1.0, 0.5, 0.25):
            cfg = KernelConfig(lambda0=lam0, R=1.0, order=0.5)
            fit = fit_kernel_bounds(cfg, 3, np.linspace(0.0, 10.0, 4), x_points=3)
            assert fit.a0 > 0

    def test_upper_bound_order_restriction(self):
        cfg = KernelConfig(order=-0.5)
        with pytest.raises(ValueError):
            fit_kernel_bounds(cfg, 4, [1.0])

    def test_bracket(self):
        assert bracket(0.0) == 3.0
        assert bracket(-2.0) == 5.0

    def test_orders_for_critical_functionals(self):
        r1, r2 = critical_kernel_orders(3, 2.0, 2.0)
        assert r1 == r2 == 0.5
        r1, r2 = critical_kernel_orders(3, 3.0, 2.0)
        assert r1 == 0.5 and abs(r2 - (1.0 - 1.0 / 3.0 + 0.01)) < 1e-12
        with pytest.raises(ValueError):
            critical_kernel_orders(3, 2.0, 3.0)


class _CountingDamping:
    """Stand-in damping profile that counts its calls to b."""

    def __init__(self, profile):
        self.profile, self.l1, self.calls = profile, profile.l1, 0

    def b(self, t):
        self.calls += 1
        return self.profile.b(t)


def _reference_rk4(profile, lam, t_grid):
    """Classic RK4 on the (n, 2, 2) state [[y1, y2], [y1', y2']], stepping
    with numpy arrays and calling profile.b at every stage."""
    lam2 = lam * lam

    def rhs(t, state):
        y, dy = state
        return np.array([dy, lam2 * y - profile.b(t) * dy])

    out = np.empty((t_grid.size, 2, 2))
    out[0] = np.eye(2)
    state = out[0].copy()
    for i in range(t_grid.size - 1):
        t, h = t_grid[i], t_grid[i + 1] - t_grid[i]
        k1 = rhs(t, state)
        k2 = rhs(t + 0.5 * h, state + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, state + 0.5 * h * k2)
        k4 = rhs(t + h, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = state
    return out


class TestFundamentalPair:
    def test_undamped_matches_hyperbolic_solutions(self):
        grid = np.arange(0.0, 10.0 + 1e-9, 1e-3)
        pair = solve_fundamental_pair(DampingProfile.zero(), 1.0, 0.0, grid)
        rel1 = np.max(np.abs(pair.y1 - np.cosh(grid)) / np.cosh(grid))
        sinh_ref = np.maximum(np.sinh(grid), 1e-300)
        rel2 = np.max(np.abs(pair.y2 - np.sinh(grid)) / sinh_ref)
        assert rel1 < 1e-8 and rel2 < 1e-8

    def test_initial_conditions_exact(self):
        grid = np.linspace(2.0, 4.0, 201)
        pair = solve_fundamental_pair(DampingProfile.polynomial_tail(1.0, 2.0), 1.5, 2.0, grid)
        assert pair.y1[0] == 1.0 and pair.dy1[0] == 0.0
        assert pair.y2[0] == 0.0 and pair.dy2[0] == 1.0

    def test_step_size_guard(self):
        with pytest.raises(ValueError):
            solve_fundamental_pair(DampingProfile.zero(), 5.0, 0.0, np.linspace(0, 1, 11))

    def test_identity_v(self):
        # d/ds y2(t, s) = -1 at s = t: the residual is |d/ds y2 + 1|
        val = fundamental_identity_v(DampingProfile.polynomial_tail(1.0, 2.0), 1.0, 2.0)
        assert val < 1e-6

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_bounds_and_identity_iv(self, lam):
        prof = DampingProfile.polynomial_tail(1.0, 2.0)
        h = min(1e-3, 0.05 / lam)
        grid = np.linspace(0.0, 10.0, int(round(10.0 / h)) + 1)
        pair = solve_fundamental_pair(prof, lam, 0.0, grid)
        report = verify_fundamental_bounds(pair, prof)
        assert report.slack1_min >= -1e-6
        assert report.slack2_min >= -1e-6
        assert report.identity4_residual <= 1e-6
        assert report.ok()

    def test_zero_damping_bounds_tight(self):
        grid = np.arange(0.0, 5.0 + 1e-9, 1e-3)
        pair = solve_fundamental_pair(DampingProfile.zero(), 1.0, 0.0, grid)
        report = verify_fundamental_bounds(pair, DampingProfile.zero())
        # with no damping the envelopes are the exact solutions
        assert abs(report.slack1_min) < 1e-10
        assert abs(report.slack2_min) < 1e-10

    def test_undamped_small_lambda_precision(self):
        # the prefix product keeps the low bits of 1 + O(lambda^2 h^2): 2.3e-15 here, where
        # stepping the state gives 5.9e-15 and a plain product of the step matrices 1.2e-13
        lam, grid = 0.5, np.arange(0.0, 10.0 + 1e-9, 1e-3)
        pair = solve_fundamental_pair(DampingProfile.zero(), lam, 0.0, grid)
        y2 = np.sinh(lam * grid) / lam
        assert np.max(np.abs(pair.y1 / np.cosh(lam * grid) - 1.0)) <= 3e-14
        assert np.max(np.abs(pair.y2[1:] / y2[1:] - 1.0)) <= 3e-14

    @pytest.mark.parametrize("name,rtol", [("zero", 1e-13), ("poly", 1e-13), ("tabulated", 1e-13)])
    def test_matches_numpy_reference_loop(self, name, rtol):
        # the prefix product rounds in another order than stepping the state: at most
        # 3.1e-15 apart here
        rng = np.random.default_rng(7)
        prof = {"zero": DampingProfile.zero(),
                "poly": DampingProfile.polynomial_tail(0.7, 1.3),
                "tabulated": DampingProfile.tabulated(np.linspace(0.0, 6.0, 13),
                                                      rng.uniform(0.0, 2.0, 13))}[name]
        lam, s = 1.7, 2.0
        steps = rng.uniform(0.3, 1.0, 1500) * 2e-3
        grid = s + np.concatenate([[0.0], np.cumsum(steps)])
        pair = solve_fundamental_pair(prof, lam, s, grid)
        ref = _reference_rk4(prof, lam, grid)
        for got, want in ((pair.y1, ref[:, 0, 0]), (pair.dy1, ref[:, 1, 0]),
                          (pair.y2, ref[:, 0, 1]), (pair.dy2, ref[:, 1, 1])):
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("extra", [0, 1, auxiliary._SCAN_BLOCK + 1])
    def test_block_boundaries_match_reference_loop(self, extra):
        # one block of steps, one more step, and two blocks plus one: the product of
        # each block carries into the next
        rng = np.random.default_rng(extra)
        prof = DampingProfile.polynomial_tail(0.7, 1.3)
        steps = rng.uniform(0.3, 1.0, auxiliary._SCAN_BLOCK + extra) * 1e-3
        grid = 1.0 + np.concatenate([[0.0], np.cumsum(steps)])
        pair = solve_fundamental_pair(prof, 1.7, 1.0, grid)
        ref = _reference_rk4(prof, 1.7, grid)
        for got, want in ((pair.y1, ref[:, 0, 0]), (pair.dy1, ref[:, 1, 0]),
                          (pair.y2, ref[:, 0, 1]), (pair.dy2, ref[:, 1, 1])):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name", ["zero", "poly", "tabulated"])
    def test_resolve_integrates_y2_alone(self, name, monkeypatch):
        # every re-solve of y2(t, s) is a call of the public solve, so a wrapper of it
        # sees every RK4 step: 2 per identity (iv), 2 per identity (v)
        prof = {"zero": DampingProfile.zero(),
                "poly": DampingProfile.polynomial_tail(0.7, 1.3),
                "tabulated": DampingProfile.tabulated([0.0, 1.0, 4.0], [1.5, 0.2, 0.6])}[name]
        lam, delta = 1.3, auxiliary.IDENTITY_DELTA * (1.0 / 1.3)  # the step at lambda > 1
        pair = solve_fundamental_pair(prof, lam, 0.0, np.linspace(0.0, 3.0, 3001))
        starts = []
        original = auxiliary.solve_fundamental_pair

        def counting_solve(profile, lam, s, t_grid):
            starts.append(s)
            return original(profile, lam, s, t_grid)

        monkeypatch.setattr(auxiliary, "solve_fundamental_pair", counting_solve)
        verify_fundamental_bounds(pair, prof)
        assert starts == [delta, 2.0 * delta]
        fundamental_identity_v(prof, lam, 2.0)
        assert starts[2:] == [2.0 - delta, 2.0 - 2.0 * delta]
        want = original(prof, lam, 0.5, np.linspace(0.5, 3.0, 2501)).y2[-1]
        assert auxiliary._resolve_y2_at(prof, lam, 0.5, 3.0, 1e-3).tobytes() == want.tobytes()
        for bad_lam, h in ((0.0, 1e-3), (-1.0, 1e-3), (200.0, 1e-3)):
            with pytest.raises(ValueError):
                auxiliary._resolve_y2_at(prof, bad_lam, 0.5, 3.0, h)

    @pytest.mark.parametrize("lam", [5.0, 40.0])
    def test_identities_hold_at_larger_lambda(self, lam):
        # the difference step in s shrinks like 1/lambda; a fixed 5e-4 missed -1 by 2.1e-6
        # at lambda = 5 and by 1.3e-4 at lambda = 40
        prof = DampingProfile.polynomial_tail(1.0, 2.0)
        assert fundamental_identity_v(prof, lam, 2.0) <= 1e-6
        grid = np.linspace(0.0, 2.0, 2001)
        report = verify_fundamental_bounds(solve_fundamental_pair(prof, lam, 0.0, grid), prof)
        assert report.identity4_residual <= 1e-6 and report.ok()

    def test_identity_iv_at_a_later_start(self):
        # the pair from s = 2 checks y1(t, 2) = b(2) y2(t, 2) - d/ds y2(t, 2) at t = 6: 5.0e-8
        # with its own damping, 333 against the undamped re-solves
        poly = DampingProfile.polynomial_tail(1.0, 2.0)
        pair = solve_fundamental_pair(poly, 1.0, 2.0, np.linspace(2.0, 6.0, 4001))
        assert verify_fundamental_bounds(pair, poly).identity4_residual <= auxiliary.IDENTITY_TOL
        zero = verify_fundamental_bounds(pair, DampingProfile.zero())
        assert zero.identity4_residual > auxiliary.IDENTITY_TOL and not zero.ok()

    def test_identity_v_before_its_stencil_fits(self, monkeypatch):
        # at t = 7e-4 < 2 delta the back stencil t - 2 delta < 0 leaves the domain of b:
        # the residual is NaN, as identity (iv) is there, and no re-solve starts below 0
        starts = []
        original = auxiliary.solve_fundamental_pair

        def counting_solve(profile, lam, s, t_grid):
            starts.append(s)
            return original(profile, lam, s, t_grid)

        monkeypatch.setattr(auxiliary, "solve_fundamental_pair", counting_solve)
        assert math.isnan(fundamental_identity_v(DampingProfile.polynomial_tail(1.0, 2.0), 1.0, 7e-4))
        assert all(s >= 0.0 for s in starts)

    def test_overflow_is_a_quiet_violation(self):
        # at lambda = 400 the pair passes float range before t = 2
        prof = DampingProfile.polynomial_tail(1.0, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = solve_fundamental_pair(prof, 400.0, 0.0, np.linspace(0.0, 2.0, 16001))
            report = verify_fundamental_bounds(pair, prof)
            idv = fundamental_identity_v(prof, 400.0, 2.0)
        assert not np.isfinite(pair.y1[-1]) and not report.ok()
        assert idv <= 1e-6

    def test_damping_evaluated_per_solve_not_per_step(self):
        prof = _CountingDamping(DampingProfile.polynomial_tail(1.0, 2.0))
        pair = solve_fundamental_pair(prof, 1.0, 0.0, np.linspace(0.0, 5.0, 2001))
        assert 1 <= prof.calls <= 3
        assert verify_fundamental_bounds(pair, prof).ok()

    def test_small_lambda_envelope_linear_limit(self):
        # sinh(lambda tau)/lambda -> tau as lambda -> 0+, via the series patch
        tau = np.linspace(0.0, 3.0, 7)
        lam = 1e-9
        env = tau * sinhc(lam * tau)
        assert np.allclose(env, tau, rtol=0, atol=1e-15)


def test_geometry_helpers():
    assert abs(sphere_area(0) - 2.0) < 1e-15          # two points
    assert abs(sphere_area(1) - 2 * math.pi) < 1e-14
    assert abs(sphere_area(2) - 4 * math.pi) < 1e-14
    assert abs(ball_volume(3) - 4 * math.pi / 3) < 1e-14


def test_geometry_overflow_names_dimension():
    with pytest.raises(ValueError, match=r"dimension too large: \|S\^399\|"):
        sphere_area(399)
    with pytest.raises(ValueError, match=r"dimension too large: \|B\^400\|"):
        ball_volume(400)
