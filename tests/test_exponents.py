import math
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup_lab.exponents import (
    LawForm,
    RegionError,
    RegionTag,
    SystemParams,
    classify,
    compute_F,
    compute_G,
    lifespan_law,
    single_equation_quantity,
    strauss_exponent,
)

rationals = st.fractions(min_value=F(33, 32), max_value=F(6), max_denominator=64)
dims = st.integers(min_value=1, max_value=5)


class TestComputeF:
    def test_frozen_example(self):
        assert compute_F(3, F(2), F(2)) == F(1, 2)

    @given(p=rationals, q=rationals)
    def test_positive_in_one_dimension(self, p, q):
        # the (n-1)/2 term vanishes, leaving a ratio of positives
        assert compute_F(1, p, q) > 0

    def test_critical_point_n3(self):
        p0 = strauss_exponent(3)
        assert abs(compute_F(3, p0, p0)) < 1e-12

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            compute_F(3, F(1), F(2))
        with pytest.raises(ValueError):
            compute_F(3, F(2), F(1, 2))

    @given(n=dims, p=rationals, q=rationals)
    def test_swap_symmetry(self, n, p, q):
        # swapping the arguments must give exactly the mirrored formula
        assert compute_F(n, q, p) == (q + 2 + F(1) / p) / (p * q - 1) - F(n - 1, 2)
        # the float path agrees with the exact one; the absolute floor covers the
        # rational zeros of F, such as F(3, 7/2, 2) = 0
        exact = float(compute_F(n, p, q))
        assert math.isclose(compute_F(n, float(p), float(q)), exact, rel_tol=1e-12, abs_tol=1e-12)


class TestComputeG:
    def test_frozen_examples(self):
        assert compute_G(2, F(3, 2), F(3, 2)) == F(4, 3)
        assert compute_G(1, F(2), F(2)) == F(-1, 2)

    def test_warns_above_dimension_two(self):
        with pytest.warns(UserWarning):
            compute_G(3, F(2), F(2))

    def test_sign_change_located_by_bisection(self):
        # on the diagonal p = q in n = 2, G = 2(2-p)/(p(p-1)) crosses zero at p = 2
        g = lambda p: float(compute_G(2, p, p))
        lo, hi = 1.5, 3.0
        assert g(lo) > 0 > g(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - 2.0) < 1e-9
        assert compute_G(2, F(2), F(2)) == 0


class TestStrauss:
    def test_values(self):
        assert abs(strauss_exponent(2) - (3 + math.sqrt(17)) / 2) < 1e-14
        assert abs(strauss_exponent(3) - (1 + math.sqrt(2))) < 1e-14

    def test_sentinel_in_one_dimension(self):
        assert strauss_exponent(1) == math.inf

    @pytest.mark.parametrize("n", range(2, 7))
    def test_quadratic_residual(self, n):
        p = strauss_exponent(n)
        assert abs((n - 1) * p * p - (n + 1) * p - 2) < 1e-12


class TestClassify:
    def test_subcritical(self):
        region = classify(SystemParams(3, F(3, 2), F(3, 2)))
        assert region.tag is RegionTag.SUBCRITICAL_BLOWUP
        assert region.f_max == F(7, 3)

    def test_unknown(self):
        assert classify(SystemParams(3, F(4), F(4))).tag is RegionTag.UNKNOWN

    def test_critical_at_strauss_point(self):
        p0 = strauss_exponent(3)
        assert classify(SystemParams(3, p0, p0)).tag is RegionTag.CRITICAL_BLOWUP

    @pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0])
    def test_data_size_must_be_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="data size must be finite and positive"):
            SystemParams(3, F(2), F(2), eps=eps)

    @given(n=dims, p=rationals, q=rationals)
    def test_swap_invariance(self, n, p, q):
        a = classify(SystemParams(n, p, q))
        b = classify(SystemParams(n, q, p))
        assert a.tag is b.tag
        assert max(a.f_values) == max(b.f_values)


class TestLifespanLaw:
    def test_power_law(self):
        law = lifespan_law(SystemParams(3, F(2), F(2)))
        assert law.form is LawForm.POWER
        assert law.exponent == F(-2)

    def test_exponential_law_at_critical_point(self):
        p0 = strauss_exponent(3)
        law = lifespan_law(SystemParams(3, p0, p0))
        assert law.form is LawForm.EXPONENTIAL
        assert abs(law.exponent + p0 * (p0 - 1)) < 1e-12
        # F(3, 7/2, 2) = 0 with p > q: the eps-power is -q(pq - 1) = -12
        law = lifespan_law(SystemParams(3, F(7, 2), F(2)))
        assert law.form is LawForm.EXPONENTIAL and law.exponent == F(-12)

    def test_improved_law_with_speeds(self):
        law = lifespan_law(SystemParams(2, F(3, 2), F(3, 2)), (True, True))
        assert law.form is LawForm.POWER
        assert law.exponent == F(-3, 4)

    def test_vacuous_improvement_falls_back(self):
        # G(1, 2, 2) = -1/2 <= 0: the improved route proves nothing there
        law = lifespan_law(SystemParams(1, F(2), F(2)), (True, True))
        assert law.exponent == F(-2, 3)
        assert law.note == "subcritical"

    def test_unknown_region_raises(self):
        with pytest.raises(RegionError):
            lifespan_law(SystemParams(3, F(4), F(4)))

    def test_speed_notes_follow_the_component(self):
        u = lifespan_law(SystemParams(2, F(3, 2), F(2)), (True, False))
        v = lifespan_law(SystemParams(2, F(2), F(3, 2)), (False, True))
        assert (u.note, v.note) == ("improved, u-speed", "improved, v-speed")
        assert u.exponent == v.exponent == F(-2, 3)  # -1/F(2, 3/2, 2)

    @settings(max_examples=200)
    @given(n=dims, p=rationals, q=rationals, speeds=st.tuples(st.booleans(), st.booleans()))
    @example(n=2, p=F(5, 2), q=F(3, 2), speeds=(False, True))
    def test_swap_mirrors_law(self, n, p, q, speeds):
        # (p, q, speeds) and (q, p, reversed speeds) are one system with its components
        # renamed: the same law, with the u-speed and v-speed notes exchanged
        mirror = {"improved, u-speed": "improved, v-speed",
                  "improved, v-speed": "improved, u-speed"}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # speed flags outside every improvement range
            laws = []
            for params, flags in ((SystemParams(n, p, q), speeds),
                                  (SystemParams(n, q, p), speeds[::-1])):
                try:
                    laws.append(lifespan_law(params, flags))
                except RegionError:
                    laws.append(None)
        law, swapped = laws
        if law is None:
            assert swapped is None
            return
        assert (swapped.form, swapped.exponent) == (law.form, law.exponent)
        assert swapped.note == mirror.get(law.note, law.note)

    def test_flags_outside_improvement_range_warn(self):
        with pytest.warns(UserWarning):
            law = lifespan_law(SystemParams(3, F(2), F(2)), (True, True))
        assert law.exponent == F(-2)  # falls back to the base power law


@settings(max_examples=60)
@given(n=dims, p=rationals, q=rationals)
def test_curve_dominance(n, p, q):
    """The system quantity dominates the single-equation quantity of the
    larger exponent, strictly off the diagonal, with equality exactly at
    p = q.  (For p >= q this reduces to p^2 + p - 1 - pq - q + (p-1)/q + 1/p
    >= 0, which vanishes at p = q and increases in p.)"""
    lhs = max(compute_F(n, p, q), compute_F(n, q, p)) + F(n - 1, 2)
    rhs = min(single_equation_quantity(p), single_equation_quantity(q))
    if p == q:
        assert lhs == rhs
    else:
        assert lhs > rhs


@pytest.mark.parametrize("n", range(2, 7))
def test_diagonal_zero_iff_strauss(n):
    p0 = strauss_exponent(n)
    assert abs(compute_F(n, p0, p0)) < 1e-10
    for shift in (-0.05, 0.05):
        assert abs(compute_F(n, p0 + shift, p0 + shift)) > 1e-4
