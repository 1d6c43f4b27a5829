import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blowup_lab.damping import DampingProfile, NonSummableError


def test_zero_profile_is_unit_multiplier():
    z = DampingProfile.zero()
    assert z.l1 == 0.0 and type(z.l1) is float  # m(0) = exp(-l1) = 1


def test_polynomial_tail_closed_forms():
    prof = DampingProfile.polynomial_tail(2.0, 2.0)
    # int_0^inf 2 (1+t)^-2 dt = 2
    assert prof.l1 == 2.0
    assert math.isclose(DampingProfile.polynomial_tail(0.7, 1.3).l1, 7.0 / 3.0, rel_tol=1e-14)


def test_non_summable_rejected_at_construction():
    with pytest.raises(NonSummableError):
        DampingProfile.polynomial_tail(1.0, 1.0)
    with pytest.raises(NonSummableError):
        DampingProfile.polynomial_tail(1.0, 0.5)


def test_tabulated_tail_is_exact_table_integral():
    prof = DampingProfile.tabulated([0.0, 1.0, 3.0], [1.0, 1.0, 0.0])
    assert prof.l1 == 2.0                       # 1*1 + trapezoid(1,0)*2
    ts = np.arange(0.0, 50.0001, 0.01)
    bs = (1.0 + ts) ** -1.5
    seg = 0.5 * (bs[1:] + bs[:-1]) * np.diff(ts)
    # the trapezoids summed from the right end, as the table's tail runs
    assert DampingProfile.tabulated(ts, bs).l1 == float(np.cumsum(seg[::-1])[-1])


def test_tabulated_mass_counts_the_stretch_before_the_first_node():
    # b = bs[0] on [0, ts[0]): 1 * 1 + trapezoid(1, 1) * 1 + trapezoid(1, 0) * 1
    assert DampingProfile.tabulated([1.0, 2.0, 3.0], [1.0, 1.0, 0.0]).l1 == 2.5
    assert DampingProfile.tabulated([0.5, 1.0], [2.0, 2.0]).l1 == 2.0


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
    assert prof.ts.tolist() == [0.0, 1.0, 2.0] and prof.bs.tolist() == [1.0, 0.5, 0.0]
    assert abs(prof.l1 - 1.0) < 1e-15


@given(mu=st.floats(min_value=0.1, max_value=3.0), beta=st.floats(min_value=1.2, max_value=3.0))
def test_doubling_mu_squares_m0(mu, beta):
    # doubling mu doubles l1, so it squares m(0) = exp(-l1)
    a = DampingProfile.polynomial_tail(mu, beta)
    b = DampingProfile.polynomial_tail(2.0 * mu, beta)
    assert a.l1 == mu / (beta - 1.0)
    assert b.l1 == 2.0 * a.l1
    assert abs(math.exp(-b.l1) - math.exp(-a.l1) ** 2) < 1e-14


@pytest.mark.parametrize("prof", [DampingProfile.zero(), DampingProfile.polynomial_tail(1.0, 2.0),
                                  DampingProfile.polynomial_tail(0.7, 1.3),
                                  DampingProfile.polynomial_tail(2, 3)],
                         ids=["zero", "poly", "poly-0.7-1.3", "poly-int"])
@pytest.mark.parametrize("dt", [0.01, 0.00625])
def test_scalar_b_matches_array_b_on_step_times(prof, dt):
    # a step evaluates b on a Python float t, accumulated as t += dt: the
    # scalar path returns a float, bit for bit the 0-d array evaluation
    t = 0.0
    for _ in range(20_000):
        got = prof.b(t)
        assert type(got) is float and got == prof.b(np.asarray(t))
        t += dt
