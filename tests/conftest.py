import math
from fractions import Fraction

import numpy as np
import pytest

from blowup_lab.auxiliary import sphere_area
from blowup_lab.damping import DampingProfile
from blowup_lab.exponents import SystemParams
from blowup_lab.simulator import GridConfig, InitialData, run_until_blowup


def _sphere_quadrature(n, rho):
    """Phi_n(rho) = |S^(n-2)| int_0^pi e^(rho cos theta) sin^(n-2) theta dtheta
    by Gauss-Legendre quadrature, the node count growing with max |rho|: an
    evaluation independent of the closed forms, for n >= 2."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    x, w = np.polynomial.legendre.leggauss(max(64, int(0.8 * np.max(np.abs(rho))) + 32))
    theta, w = 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w
    weight = w * np.sin(theta) ** (n - 2)
    return sphere_area(n - 2) * (np.exp(np.outer(rho, np.cos(theta))) @ weight)


@pytest.fixture
def sphere_quadrature():
    return _sphere_quadrature


def _bump(x):
    """The built-in data profile at R = 1, (1 - x^2)^4 on |x| < 1, even in x."""
    x = np.abs(x)
    return np.where(x < 1.0, (1.0 - np.minimum(x, 1.0) ** 2) ** 4, 0.0)


def _bump_integral(x):
    """The integral of the bump from 0 to x, odd in x."""
    y = np.clip(x, -1.0, 1.0)
    return y - 4.0 * y ** 3 / 3.0 + 6.0 * y ** 5 / 5.0 - 4.0 * y ** 7 / 7.0 + y ** 9 / 9.0


def _linear_free_wave(n, dr, data, t=5.0):
    """The state at t of an undamped linear run on the whole grid: u and v are
    free waves of their own data."""
    grid = GridConfig(dr=dr, horizon=t, linear_mode=True, enforce_cone=False)
    params = SystemParams(n, Fraction(2), Fraction(2), R=1.0, eps=1.0)
    zero = DampingProfile.zero()
    return run_until_blowup(params, (zero, zero), data, grid).state


def _free_wave_error(n, dr, speed):
    """The sup error at t = 5 of u and v, both with the bump data (1, speed),
    against the closed-form free wave: d'Alembert at n = 1, with the speed's
    integral over [r - t, r + t]; at n = 3 (zero speed) (W(r + t) + W(r - t)) / (2r)
    with W(x) = x u0(|x|), and W'(t) at the origin, which vanishes once t > R."""
    state = _linear_free_wave(n, dr, InitialData(1.0, speed, 1.0, speed))
    r, t = state.r, state.t
    if n == 1:
        exact = (0.5 * (_bump(r + t) + _bump(r - t))
                 + 0.5 * speed * (_bump_integral(r + t) - _bump_integral(r - t)))
    else:
        w = (r + t) * _bump(r + t) + (r - t) * _bump(r - t)
        exact = np.divide(w, 2.0 * r, out=np.zeros_like(r), where=r > 0)
    return float(max(np.max(np.abs(state.u - exact)), np.max(np.abs(state.v - exact))))


@pytest.fixture
def linear_free_wave():
    return _linear_free_wave


@pytest.fixture
def free_wave_error():
    return _free_wave_error
