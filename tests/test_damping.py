import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blowup_lab.damping import (
    DampingProfile,
    NonSummableError,
    multiplier_eval,
    verify_multiplier_ode,
)


def test_zero_profile_is_unit_multiplier():
    z = DampingProfile.zero()
    assert multiplier_eval(z, 0.0) == 1.0
    assert multiplier_eval(z, 123.4) == 1.0
    assert verify_multiplier_ode(z, np.linspace(0, 10, 101)) == 0.0


def test_polynomial_tail_closed_forms():
    prof = DampingProfile.polynomial_tail(2.0, 2.0)
    # int_0^inf 2 (1+t)^-2 dt = 2
    assert abs(prof.l1 - 2.0) < 1e-15
    assert abs(multiplier_eval(prof, 0.0) - math.exp(-2.0)) < 1e-15
    assert abs(multiplier_eval(prof, 1e9) - 1.0) < 1e-8


def test_non_summable_rejected_at_construction():
    with pytest.raises(NonSummableError):
        DampingProfile.polynomial_tail(1.0, 1.0)
    with pytest.raises(NonSummableError):
        DampingProfile.polynomial_tail(1.0, 0.5)


def test_ode_residual_polynomial():
    prof = DampingProfile.polynomial_tail(2.0, 2.0)
    res = verify_multiplier_ode(prof, np.arange(0.0, 50.0, 1e-3))
    assert res < 1e-5


def test_ode_residual_tabulated():
    ts = np.arange(0.0, 50.0001, 0.01)
    prof = DampingProfile.tabulated(ts, (1.0 + ts) ** -1.5)
    res = verify_multiplier_ode(prof, np.arange(0.0, 49.0, 1e-3))
    assert res < 1e-4


def test_tabulated_tail_is_exact_table_integral():
    ts = np.array([0.0, 1.0, 3.0])
    bs = np.array([1.0, 1.0, 0.0])
    prof = DampingProfile.tabulated(ts, bs)
    assert abs(prof.l1 - 2.0) < 1e-15          # 1*1 + trapezoid(1,0)*2
    assert abs(prof.tail(1.0) - 1.0) < 1e-15
    assert prof.tail(3.0) == 0.0
    assert prof.tail(10.0) == 0.0               # zero extrapolation
    assert abs(prof.tail(0.5) - 1.5) < 1e-15


def test_tabulated_validation():
    with pytest.raises(ValueError):
        DampingProfile.tabulated([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        DampingProfile.tabulated([0.0, 1.0], [1.0, -1.0])


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("t,b\n0.0,1.0\n1.0,0.5\n2.0,0.0\n")
    prof = DampingProfile.from_csv(path)
    assert prof.kind == "tabulated"
    assert abs(prof.l1 - 1.0) < 1e-15


def test_grid_validation():
    prof = DampingProfile.polynomial_tail(1.0, 2.0)
    with pytest.raises(ValueError):
        verify_multiplier_ode(prof, [0.0, 1.0])
    with pytest.raises(ValueError):
        verify_multiplier_ode(prof, [0.0, 1.0, 0.5])


@given(
    mu=st.floats(min_value=0.1, max_value=5.0),
    beta=st.floats(min_value=1.1, max_value=4.0),
    t1=st.floats(min_value=0.0, max_value=50.0),
    dt=st.floats(min_value=0.01, max_value=50.0),
)
def test_multiplier_monotone_and_bounded(mu, beta, t1, dt):
    prof = DampingProfile.polynomial_tail(mu, beta)
    m0 = multiplier_eval(prof, 0.0)
    assert m0 == float(np.exp(-prof.l1))  # m(0) = exp(-l1) exactly
    assert math.isclose(m0, math.exp(-prof.l1), rel_tol=1e-15)
    assert multiplier_eval(prof, t1) <= multiplier_eval(prof, t1 + dt)
    assert multiplier_eval(prof, t1) <= 1.0
    assert multiplier_eval(prof, t1) >= m0


@given(mu=st.floats(min_value=0.1, max_value=3.0), beta=st.floats(min_value=1.2, max_value=3.0))
def test_doubling_mu_squares_m0(mu, beta):
    a = DampingProfile.polynomial_tail(mu, beta)
    b = DampingProfile.polynomial_tail(2.0 * mu, beta)
    assert b.tail(0.0) == 2.0 * a.tail(0.0)
    assert abs(multiplier_eval(b, 0.0) - multiplier_eval(a, 0.0) ** 2) < 1e-14
