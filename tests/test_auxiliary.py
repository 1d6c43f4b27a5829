import json
import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from blowup_lab.cli import _modal_nodes
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


def _decimal_ref(z) -> tuple[Decimal, Decimal]:
    """e^(-z) (cosh z, sinh(z)/z) to 60 digits, as ((1 + e^(-2z))/2, (1 - e^(-2z))/(2z))."""
    with localcontext() as ctx:
        ctx.prec = 60
        z = Decimal(z)
        em = (-2 * z).exp()
        return (1 + em) / 2, (1 - em) / (2 * z) if z else Decimal(1)


def _sinhc_ref(z) -> Decimal:
    """sinh(z)/z to 60 digits: its series below 1, the exponentials above."""
    with localcontext() as ctx:
        ctx.prec = 60
        z = Decimal(z)
        if z >= 1:
            return (z.exp() - (-z).exp()) / (2 * z)
        term = total = Decimal(1)
        k = 1
        while term > Decimal(10) ** -70:
            term *= z * z / ((2 * k) * (2 * k + 1))
            total += term
            k += 1
        return total


# The unscaled kernels, w e^(-lambda (t + R)) times cosh(lambda t) or sinh(lambda (t - s)) /
# (lambda (t - s)), and their fits one (t, s) pair at a time with Python's min and max: a
# reference for the scaled, vectorized forms wherever cosh does not overflow (lambda t < 710).


def _ref_sinhc(z):
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z * z / 6.0 + z ** 4 / 120.0, np.sinh(zs) / zs)


def ref_xi(quad, t):
    return (quad.w * np.exp(-quad.lam * (t + quad.cfg.R)) * np.cosh(quad.lam * t)) @ quad.phi_mat


def ref_eta(quad, t, s):
    decay = quad.w * np.exp(-quad.lam * (t + quad.cfg.R))
    return (decay * _ref_sinhc(quad.lam * (t - s))) @ quad.phi_mat


def ref_fit_kernel_bounds(cfg, n, t_grid, x_points):
    """(A0, B0, B1, B2) by the unscaled kernels; NaN for a constant with no sample."""
    r = cfg.order
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))

    def quad(s):
        return KernelQuadrature(cfg, n, np.linspace(0.0, s + cfg.R, x_points))

    quad_R = quad(0.0)
    a0 = min((np.min(ref_xi(quad_R, t)) for t in t_grid), default=math.nan)
    b0 = min((np.min(ref_eta(quad_R, t, 0.0)) * bracket(t) for t in t_grid), default=math.nan)
    b1 = min((np.min(ref_eta(quad_s, t, s) * bracket(t) * bracket(s) ** r)
              for s in t_grid for quad_s in [quad(s)] for t in t_grid if t > s),
             default=math.nan)
    b2 = max((np.max(ref_eta(quad_t, t, t) * bracket(t) ** ((n - 1) / 2.0)
                     * bracket(t - quad_t.radii) ** (r - (n - 3) / 2.0))
              for t in t_grid if t > 0 for quad_t in [quad(t)]), default=math.nan)
    return a0, b0, b1, b2


def _shipped_fits():
    """(n, KernelConfig, t_grid, x_points) of every order of experiments/kernels-*.json."""
    root = Path(__file__).resolve().parents[1] / "experiments"
    for path in sorted(root.glob("kernels-*.json")):
        cfg = json.loads(path.read_text())
        for order in cfg["orders"]:
            kcfg = KernelConfig(lambda0=cfg["lambda0"], order=float(Fraction(order)))
            grid = np.linspace(0.0, cfg["t_max"], cfg["t_points"])
            yield pytest.param(cfg["n"], kcfg, grid, cfg["x_points"], id=f"{path.stem}-r{order}")


FIT_CASES = [
    *_shipped_fits(),
    # the benchmark's modal fit at its reduced size (its full size is kernels-n3-lambda0-1)
    *(pytest.param(3, KernelConfig(order=float(Fraction(r))), np.linspace(0.0, 50.0, 4), 7,
                   id=f"modal-reduced-r{r}") for r in ("1/2", "2/3")),
    # one sample (B1 and B2 have none at t = 0), one sample at t > 0, and two samples
    pytest.param(3, KernelConfig(order=0.5), [0.0], 1, id="t0"),
    pytest.param(3, KernelConfig(order=0.5), [1.0], 1, id="t1"),
    pytest.param(3, KernelConfig(order=0.5), np.linspace(0.0, 50.0, 2), 1, id="t_points2"),
]


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

    def test_scaled_kernels_match_the_unscaled_reference(self):
        cfg = KernelConfig(lambda0=2.0, R=1.0, order=0.5)
        quad = KernelQuadrature(cfg, 3, np.linspace(0.0, 3.0, 5))
        ts = np.linspace(0.0, 50.0, 26)
        rows = [ref_xi(quad, t) for t in ts]
        np.testing.assert_allclose(quad.xi(ts), rows, rtol=1e-13, atol=0.0)
        for s in (0.0, 1.0, 7.3):
            t = ts[ts >= s]
            rows = [ref_eta(quad, tt, s) for tt in t]
            np.testing.assert_allclose(quad.eta(t, s), rows, rtol=1e-13, atol=0.0)

    def test_kernels_finite_past_cosh_overflow(self):
        # cosh(800) is inf and e^(-801) underflows: the unscaled product is NaN
        cfg = KernelConfig(lambda0=1.0, R=1.0, order=0.5)
        lam, w = cfg.nodes()
        quad = KernelQuadrature(cfg, 3, [0.0, 0.5, 1.0])
        xi, eta = quad.xi(800.0), quad.eta(800.0, 0.0)
        assert np.all(np.isfinite(xi) & (xi > 0)) and np.all(np.isfinite(eta) & (eta > 0))
        # e^(-lambda (t + R)) (cosh, sinh)(lambda t) = e^(-lambda R) (1 +- e^(-2 lambda t)) / 2
        half, em = 0.5 * w * np.exp(-lam), np.exp(-1600.0 * lam)
        np.testing.assert_allclose(xi, (half * (1.0 + em)) @ quad.phi_mat, rtol=1e-13)
        np.testing.assert_allclose(eta, (half * (1.0 - em) / (800.0 * lam)) @ quad.phi_mat,
                                   rtol=1e-13)

    def test_rotation_matches_high_precision_reference(self):
        quad = KernelQuadrature(KernelConfig(quad_nodes=16), 3, [0.0])
        hs = np.concatenate([[0.0], np.logspace(-12, np.log10(800.0), 60)])
        ch, shc = quad.rotation(hs)
        assert ch.shape == shc.shape == (hs.size, quad.lam.size)
        assert np.all(ch[0] == 1.0) and np.all(shc[0] == 1.0)
        for i, h in enumerate(hs):
            for k, lam in enumerate(quad.lam):
                ref_ch, ref_shc = _decimal_ref(Decimal(float(h)) * Decimal(float(lam)))
                assert abs(Decimal(float(ch[i, k])) / ref_ch - 1) < Decimal("4.5e-16")
                assert abs(Decimal(float(shc[i, k])) / ref_shc - 1) < Decimal("4.5e-16")

    def test_sinhc_matches_high_precision_reference(self):
        assert sinhc(0.0) == 1.0
        for z in np.concatenate([np.logspace(-300, np.log10(700.0), 120),
                                 np.linspace(1e-5, 2.0, 40)]):
            assert abs(Decimal(sinhc(z)) / _sinhc_ref(z) - 1) < Decimal("4.5e-16")

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


def _phi_tiles(monkeypatch):
    """The argument shapes of every phi_eval call the KernelQuadrature build makes."""
    shapes = []

    def spy(n, rho, rho_max=None):
        shapes.append(np.shape(rho))
        return phi_eval(n, rho, rho_max)

    monkeypatch.setattr(auxiliary, "phi_eval", spy)
    return shapes


def _build_peak(cfg, n, radii):
    """The tracemalloc peak of one KernelQuadrature build, with its Gauss-Legendre
    rules (the lambda rule, and the polar rule for n >= 4) cached first."""
    lam, _ = cfg.nodes()
    if n >= 4:
        auxiliary._leggauss(auxiliary._polar_nodes(lam.max() * np.max(np.abs(radii))))
    tracemalloc.start()
    try:
        quad = KernelQuadrature(cfg, n, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, quad


#: the critical verify's grid (verify-critical-n3.json: dr 0.0125, 3,321 radii)
CRITICAL_RADII = np.arange(3321) * 0.0125


class TestPhiMatrix:
    # (K, radii): 64 rows of 300 radii in tiles of 13 rows, the last of 12; 4 rows of
    # 9,000 radii in tiles of one row and 4,096 radii, the last of 808
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("K, radii", [(64, np.linspace(0.0, 40.0, 300)),
                                          (4, np.linspace(-30.0, 60.0, 9000))])
    def test_closed_forms_bit_for_bit(self, monkeypatch, n, K, radii):
        shapes = _phi_tiles(monkeypatch)
        quad = KernelQuadrature(KernelConfig(quad_nodes=K), n, radii)
        assert len(set(shapes)) == 2 and shapes[-1] != shapes[0]  # a last tile not full
        assert sum(rows * cols for rows, cols in shapes) == quad.phi_mat.size
        assert np.array_equal(quad.phi_mat, phi_eval(n, np.outer(quad.lam, quad.radii)))

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("R", [37, 200, 400])
    def test_polar_quadrature_matches_one_call(self, monkeypatch, n, R):
        # BLAS may round a tile's product in another order than the whole matrix's
        radii = np.linspace(0.0, 50.0, R)
        shapes = _phi_tiles(monkeypatch)
        quad = KernelQuadrature(KernelConfig(quad_nodes=64), n, radii)
        assert len(shapes) > 1
        np.testing.assert_allclose(quad.phi_mat, phi_eval(n, np.outer(quad.lam, quad.radii)),
                                   rtol=1e-15, atol=0.0)

    def test_polar_node_rule_of_the_whole_matrix(self, monkeypatch):
        real, rules = auxiliary._polar_nodes, []

        def spy(rho_max):
            rules.append(rho_max)
            return real(rho_max)

        monkeypatch.setattr(auxiliary, "_polar_nodes", spy)
        radii = np.linspace(-300.0, 100.0, 400)  # the largest |lambda r| has r < 0
        quad = KernelQuadrature(KernelConfig(lambda0=2.0, quad_nodes=64), 4, radii)
        whole = float(np.max(np.abs(np.outer(quad.lam, radii))))
        assert len(rules) > 2 and set(rules) == {whole}
        assert real(whole) > real(quad.lam[0] * 300.0)  # the first tile's own rule is smaller

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("K, radii", [(64, CRITICAL_RADII), (256, np.linspace(0.0, 50.0, 4000))])
    def test_build_peaks_near_its_matrix(self, n, K, radii):
        peak, quad = _build_peak(KernelConfig(quad_nodes=K), n, radii)
        assert peak <= 1.25 * quad.phi_mat.nbytes

    @pytest.mark.parametrize("K, R", [(64, 400), (16, 3000)])
    def test_polar_build_temporaries_bounded_by_one_tile(self, K, R):
        # a one-call build holds K R x nodes values twice (exp of an outer product)
        peak, quad = _build_peak(KernelConfig(quad_nodes=K), 4, np.linspace(0.0, 50.0, R))
        assert peak - quad.phi_mat.nbytes <= 4 * 8 * auxiliary._PHI_BLOCK

    def test_empty_radii(self):
        quad = KernelQuadrature(KernelConfig(quad_nodes=8), 4, np.array([]))
        assert quad.phi_mat.shape == (8, 0)


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

    @pytest.mark.parametrize("n,cfg,t_grid,x_points", FIT_CASES)
    def test_matches_the_unscaled_pairwise_reference(self, n, cfg, t_grid, x_points):
        fit = fit_kernel_bounds(cfg, n, t_grid, x_points=x_points)
        ref = ref_fit_kernel_bounds(cfg, n, t_grid, x_points)
        for got, want in zip((fit.a0, fit.b0, fit.b1, fit.b2), ref):
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert abs(got - want) <= 1e-13 * abs(want), (got, want)

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
        r_u, r_v = critical_kernel_orders(3, 2.0, 3.0)
        assert r_u == 1.0 - 1.0 / 3.0 + 0.01 and r_v == 0.5


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


_PROFILES = {"zero": DampingProfile.zero(),
             "poly": DampingProfile.polynomial_tail(0.7, 1.3),
             "tabulated": DampingProfile.tabulated([0.0, 1.0, 4.0], [1.5, 0.2, 0.6])}


def _record_starts(monkeypatch):
    """The starts s of every last-node product and of every full solve from here on."""
    starts, full_starts = [], []
    for name, record in (("_pair_at_end", starts), ("solve_fundamental_pair", full_starts)):
        def recording(profile, lam, s, t_grid, _solve=getattr(auxiliary, name), _record=record):
            _record.append(s)
            return _solve(profile, lam, s, t_grid)

        monkeypatch.setattr(auxiliary, name, recording)
    return starts, full_starts


def _kernels_grid(lam, horizon):
    """The kernels command's modal grid at one lambda."""
    return np.linspace(0.0, horizon, _modal_nodes(lam, horizon))


def _tabulated_kink_report(lam=1.0, horizon=10.0):
    """The report of a table whose b jumps to 0 past t = 4 and whose kinks are nodes of
    the kernels modal grid."""
    prof = _PROFILES["tabulated"]
    pair = solve_fundamental_pair(prof, lam, 0.0, _kernels_grid(lam, horizon))
    return verify_fundamental_bounds(pair, prof)


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
        # every re-solve of y2(t, s) is one short RK4 step and a last-node product on the
        # main grid's nodes, and none a full solve: (iv) on the kernels grid (2 delta <= h)
        # shares one product from the pair's node 1, and (v) makes at most two on its own
        # grid from t - 2 delta, which its far start needs no short step to reach
        prof = _PROFILES[name]
        lam, delta = 1.3, auxiliary.IDENTITY_DELTA * (1.0 / 1.3)  # the step at lambda > 1
        pair = solve_fundamental_pair(prof, lam, 0.0, np.linspace(0.0, 3.0, 3001))
        starts, full_starts = _record_starts(monkeypatch)
        verify_fundamental_bounds(pair, prof)
        assert starts == [pair.t[1]]
        fundamental_identity_v(prof, lam, 2.0)
        assert len(starts) == 3 and 2.0 - delta <= starts[1] < 2.0 - delta + 1e-4
        assert starts[2] == 2.0 - 2.0 * delta
        assert not full_starts
        # a start on a node takes no step: its y2 is the suffix product's, bit for bit
        want = solve_fundamental_pair(prof, lam, pair.t[500], pair.t[500:]).y2[-1]
        got = auxiliary._y2_at_end(prof, lam, [pair.t[500]], pair.t)
        assert got == [want]
        for bad_lam in (0.0, -1.0, 200.0):  # lambda h = 0.2 > 0.1 at 200
            with pytest.raises(ValueError):
                auxiliary._y2_at_end(prof, bad_lam, [0.5], pair.t)

    def test_fine_grid_starts_take_their_own_products(self, monkeypatch):
        # on steps below delta, s + delta and s + 2 delta reach different nodes: one short
        # step and one product each, from the first node at or past the start
        prof = _PROFILES["tabulated"]
        delta, grid = auxiliary.IDENTITY_DELTA, np.linspace(0.0, 10.0, 100001)
        pair = solve_fundamental_pair(prof, 1.0, 0.0, grid)
        starts, full_starts = _record_starts(monkeypatch)
        report = verify_fundamental_bounds(pair, prof)
        assert starts == [grid[grid >= delta][0], grid[grid >= 2.0 * delta][0]]
        assert starts[0] < starts[1] and not full_starts
        assert report.identity4_residual <= auxiliary.IDENTITY_TOL and report.ok()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(_PROFILES)),
           steps=st.one_of(st.integers(1, auxiliary._SCAN_BLOCK - 1),
                           st.sampled_from([auxiliary._SCAN_BLOCK, auxiliary._SCAN_BLOCK + 1,
                                            2 * auxiliary._SCAN_BLOCK + 1])),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(name="tabulated", steps=1, seed=0)
    @example(name="zero", steps=auxiliary._SCAN_BLOCK, seed=1)
    @example(name="poly", steps=auxiliary._SCAN_BLOCK + 1, seed=2)
    @example(name="tabulated", steps=2 * auxiliary._SCAN_BLOCK + 1, seed=3)
    def test_last_node_product_is_the_solve_bit_for_bit(self, name, steps, seed):
        # the last-node product takes the scan's products at that node in the scan's order
        rng = np.random.default_rng(seed)
        lam, s = rng.uniform(0.05, 3.0), rng.uniform(0.0, 3.0)
        grid = s + np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, steps) * 0.1 / lam)])
        pair = solve_fundamental_pair(_PROFILES[name], lam, s, grid)
        end = auxiliary._pair_at_end(_PROFILES[name], lam, s, grid)
        want = np.array([[pair.y1[-1], pair.y2[-1]], [pair.dy1[-1], pair.dy2[-1]]])
        assert end.tobytes() == want.tobytes()

    @pytest.mark.parametrize("solve", [solve_fundamental_pair, auxiliary._pair_at_end])
    @pytest.mark.parametrize("lam,s,grid", [
        (0.0, 0.0, np.linspace(0.0, 1.0, 101)),            # lambda <= 0
        (-1.0, 0.0, np.linspace(0.0, 1.0, 101)),
        (1.0, 0.0, np.linspace(0.0, 1.0, 5)),              # lambda h = 0.25 > 0.1
        (1.0, 0.0, np.array([0.0, 0.1, 0.1, 0.2])),        # a repeated node
        (1.0, 0.0, np.array([0.0, 0.1, 0.05, 0.2])),       # a decreasing step
        (1.0, 0.0, np.array([0.0])),                       # one node
        (1.0, 0.5, np.linspace(0.0, 1.0, 101)),            # the grid does not start at s
    ])
    def test_both_paths_reject_bad_input(self, solve, lam, s, grid):
        with pytest.raises(ValueError):
            solve(DampingProfile.polynomial_tail(1.0, 2.0), lam, s, grid)

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
        # the residual is NaN, as identity (iv) is there, and nothing is re-solved; at
        # t = 2 delta the stencil fits, and the products start at the first node of the
        # grid from 0 to t at or past t - delta, and at 0
        poly = DampingProfile.polynomial_tail(1.0, 2.0)
        delta = auxiliary.IDENTITY_DELTA
        starts, full_starts = _record_starts(monkeypatch)
        assert math.isnan(fundamental_identity_v(poly, 1.0, 7e-4))
        assert starts == []
        assert fundamental_identity_v(poly, 1.0, 2.0 * delta) <= auxiliary.IDENTITY_TOL
        grid = np.linspace(0.0, 2.0 * delta, 11)
        assert starts == [grid[grid >= delta][0], 0.0]
        assert not full_starts

    def test_tabulated_bounds_hold(self):
        # the pair below: both exponential lower bounds hold on the kernels modal grid
        report = _tabulated_kink_report()
        assert report.slack1_min >= 0.0 and report.slack2_min >= 0.0

    @pytest.mark.parametrize("horizon", [2.0, 10.0])
    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0, 2.0, 5.0, 40.0])
    def test_tabulated_identity_iv_where_the_bounds_hold(self, lam, horizon):
        # the re-solves step on the main grid's nodes, so the table's kinks stay at step
        # ends: at most 4.1e-7 here (2.7e-8 at lambda = 1, horizon 10), where re-solves on
        # grids offset by delta read 1.3e-6 to 0.54 (0.196)
        report = _tabulated_kink_report(lam, horizon)
        assert report.identity4_residual <= auxiliary.IDENTITY_TOL and report.ok()

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_identity_iv_fails_against_another_damping(self, lam):
        # the re-solves share the main grid's nodes but not its pair: an undamped pair
        # checked against poly misses (iv) by 2.8e3, 1.3e3 and 1.2e3
        pair = solve_fundamental_pair(DampingProfile.zero(), lam, 0.0, _kernels_grid(lam, 10.0))
        report = verify_fundamental_bounds(pair, DampingProfile.polynomial_tail(1.0, 2.0))
        assert report.identity4_residual > 1e3 and not report.ok()

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
