import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_lab.exponents import SystemParams
from blowup_lab.iteration import (
    CriticalCase,
    CriticalConstants,
    critical_base,
    critical_closed_form,
    critical_logC_lower_bound,
    critical_step,
    derive_constants,
    geometric_weight_limit,
    iterate_critical,
    iterate_subcritical,
    subcritical_base,
    subcritical_closed_form,
    subcritical_logD_lower_bound,
    subcritical_step,
    weighted_sum_identities,
)

rationals = st.fractions(min_value=F(9, 8), max_value=F(6), max_denominator=8)
dims = st.integers(min_value=1, max_value=5)


def make(n, p, q, eps=1.0):
    return SystemParams(n, p, q, R=1.0, eps=eps)


class TestSubcriticalBase:
    def test_standard_322(self):
        params = make(3, F(2), F(2))
        st0 = subcritical_base(params, derive_constants(params))
        assert (st0.a, st0.b, st0.alpha, st0.beta) == (F(2), F(4), F(2), F(4))

    def test_low_dim_n1_kills_b1(self):
        params = make(1, F(3, 2), F(3, 2))
        st0 = subcritical_base(params, derive_constants(params), low_dim=True,
                               speed_integrals=(1.0, 1.0))
        assert st0.b == 0 and st0.a == F(3, 2)

    def test_low_dim_n2(self):
        params = make(2, F(3, 2), F(3, 2))
        st0 = subcritical_base(params, derive_constants(params), low_dim=True,
                               speed_integrals=(0.5, 0.5))
        assert st0.a == F(3, 2) and st0.b == F(3, 2)

    def test_low_dim_requires_speeds(self):
        params = make(1, F(2), F(2))
        with pytest.raises(ValueError):
            subcritical_base(params, derive_constants(params), low_dim=True)

    def test_low_dim_range_guard(self):
        params = make(3, F(2), F(2))
        with pytest.raises(ValueError):
            subcritical_base(params, derive_constants(params), low_dim=True,
                             speed_integrals=(1.0, 1.0))


class TestSubcriticalRecursion:
    def test_hand_recursion_332(self):
        params = make(3, F(3), F(2))
        states = iterate_subcritical(params, derive_constants(params), 3)
        assert [s.a for s in states] == [F(3), F(12), F(33)]
        assert [s.b for s in states] == [F(4), F(14), F(32)]

    def test_exponents_independent_of_amplitudes(self):
        params = make(3, F(3), F(2), eps=0.1)
        c1 = derive_constants(params)
        c2 = derive_constants(params, C0=7.0, K0=0.3, C1=9.0, K1=0.01)
        s1 = iterate_subcritical(params, c1, 6)
        s2 = iterate_subcritical(params, c2, 6)
        for a, b in zip(s1, s2):
            assert (a.a, a.b, a.alpha, a.beta) == (b.a, b.b, b.alpha, b.beta)

    def test_closed_form_matches_hand_values(self):
        params = make(3, F(3), F(2))
        cf3 = subcritical_closed_form(params, 3)
        assert cf3.a == F(33) and cf3.b == F(32)
        cf2 = subcritical_closed_form(params, 2)
        assert cf2.b == F(14) and cf2.beta == F(10)
        assert cf2.a is None and cf2.alpha is None

    def test_closed_form_at_base_index(self):
        params = make(4, F(5, 2), F(7, 4))
        cf = subcritical_closed_form(params, 1)
        st0 = subcritical_base(params, derive_constants(params))
        assert (cf.a, cf.b, cf.alpha, cf.beta) == (st0.a, st0.b, st0.alpha, st0.beta)

    @settings(max_examples=50, deadline=None)
    @given(n=dims, p=rationals, q=rationals)
    def test_recursion_equals_closed_form(self, n, p, q):
        params = make(n, p, q)
        consts = derive_constants(params)
        states = iterate_subcritical(params, consts, 21)
        base = states[0]
        for state in states:
            cf = subcritical_closed_form(params, state.j, base)
            assert state.b == cf.b and state.beta == cf.beta
            if state.j % 2 == 1:
                assert state.a == cf.a and state.alpha == cf.alpha
            assert state.a >= 0 and state.b >= 0 and state.alpha >= 0 and state.beta >= 0

    def test_b_beta_strictly_increasing(self):
        params = make(2, F(5, 4), F(9, 4))
        states = iterate_subcritical(params, derive_constants(params), 10)
        for prev, cur in zip(states, states[1:]):
            assert cur.b > prev.b and cur.beta > prev.beta


positive = st.floats(min_value=0.05, max_value=20.0)


class TestMirror:
    """Swapping (u, p, m1(0), K1, C0, int v1) with (v, q, m2(0), C1, K0, int u1) maps
    the subcritical scheme to itself: every constant, frame and closed form swaps
    exactly, which a p/q or C0/K0 slip in either component breaks."""

    @settings(max_examples=150, deadline=None)
    @given(n=dims, p=rationals, q=rationals, eps=positive, m=st.tuples(positive, positive),
           ck1=st.tuples(positive, positive), ck0=st.none() | st.tuples(positive, positive),
           speeds=st.tuples(positive, positive), low_dim=st.booleans())
    def test_swap_mirrors_constants_frames_and_closed_forms(self, n, p, q, eps, m, ck1, ck0,
                                                            speeds, low_dim):
        low_dim = low_dim and (n == 1 or (n == 2 and p < 2 and q < 2))
        params, swapped = make(n, p, q, eps), make(n, q, p, eps)
        c0k0 = ck0 or (None, None)
        c = derive_constants(params, *m, *ck1, *c0k0)
        s = derive_constants(swapped, *m[::-1], *ck1[::-1], *c0k0[::-1])
        assert (s.C0, s.C1, s.m1_0, s.B0bar, s.log_Ctilde, s.Spq) == (
            c.K0, c.K1, c.m2_0, c.B0tilde, c.log_Ktilde, c.Spq_tilde)
        assert (s.K0, s.K1, s.m2_0, s.B0tilde, s.log_Ktilde, s.Spq_tilde) == (
            c.C0, c.C1, c.m1_0, c.B0bar, c.log_Ctilde, c.Spq)
        assert s.j0 == c.j0

        frames = iterate_subcritical(params, c, 9, low_dim, speeds)
        mirrored = iterate_subcritical(swapped, s, 9, low_dim, speeds[::-1])
        for f, g in zip(frames, mirrored, strict=True):
            assert (f.j, f.a, f.b, f.logD) == (g.j, g.alpha, g.beta, g.logDelta)
            assert (f.alpha, f.beta, f.logDelta) == (g.a, g.b, g.logD)
            for base_f, base_g in ((frames[0], mirrored[0]), (None, None)):
                cf = subcritical_closed_form(params, f.j, base_f)
                cg = subcritical_closed_form(swapped, f.j, base_g)
                assert (cf.a, cf.b, cf.alpha, cf.beta) == (cg.alpha, cg.beta, cg.a, cg.b)
            if f.j % 2 == 1:
                lo_f = subcritical_logD_lower_bound(params, c, frames[0], f.j)
                lo_g = subcritical_logD_lower_bound(swapped, s, mirrored[0], f.j)
                assert lo_f == lo_g[::-1]


def direct_weighted_sum(p, q, j):
    """The identity's left side summed term by term, every power taken afresh."""
    pq = F(p) * F(q)
    return sum((j + 1 - 2 * k) * pq ** (k - 1) for k in range(1, (j - 1) // 2 + 1))


class TestWeightedSum:
    def test_frozen_examples(self):
        assert list(weighted_sum_identities(F(3), F(2), 6)) == [(3, F(2), F(2)),
                                                                (5, F(16), F(16))]

    def test_range_below_three_rejected(self):
        with pytest.raises(ValueError):
            list(weighted_sum_identities(F(2), F(2), 2))

    @settings(max_examples=60, deadline=None)
    @given(
        p=rationals, q=rationals,
        j=st.integers(min_value=1, max_value=10).map(lambda k: 2 * k + 1),
    )
    def test_exact_identity(self, p, q, j):
        sides = list(weighted_sum_identities(p, q, j))
        assert [row[0] for row in sides] == list(range(3, j + 1, 2))
        for jj, lhs, rhs in sides:
            assert lhs == rhs == direct_weighted_sum(p, q, jj)


class TestLogAmplitudes:
    @pytest.mark.parametrize("n,p,q", [(3, F(2), F(2)), (2, F(3, 2), F(2)), (4, F(3), F(5, 4))])
    def test_recursive_dominates_bound(self, n, p, q):
        params = make(n, p, q)
        consts = derive_constants(params)
        states = iterate_subcritical(params, consts, max(consts.j0, 0) + 6)
        claimed = [s for s in states if s.j % 2 == 1 and s.j > consts.j0]
        assert len(claimed) >= 3
        for state in claimed:
            lo_d, lo_delta = subcritical_logD_lower_bound(params, consts, states[0], state.j)
            assert state.logD >= lo_d and state.logDelta >= lo_delta, state

    def test_flagged_below_j0(self):
        params = make(3, F(2), F(2))
        consts = derive_constants(params, C0=1e9, K0=1e9)  # inflate Ctilde so j0 > 1
        assert consts.j0 > 1
        states = iterate_subcritical(params, consts, consts.j0 + 4)
        lo_d, _ = subcritical_logD_lower_bound(params, consts, states[0], 1)
        assert states[0].logD < lo_d  # not claimed at j = 1 <= j0, and it fails there
        for state in [s for s in states if s.j % 2 == 1 and s.j > consts.j0]:
            lo_d, lo_delta = subcritical_logD_lower_bound(params, consts, states[0], state.j)
            assert state.logD >= lo_d and state.logDelta >= lo_delta

    def test_gain_past_float_range_is_infinite(self):
        params = make(3, F(3), F(2))
        consts = derive_constants(params)
        base = subcritical_base(params, consts)
        lo_d, lo_delta = subcritical_logD_lower_bound(params, consts, base, 801)
        assert lo_d == lo_delta == -math.inf  # log D1 < S here
        with pytest.raises(ValueError):
            subcritical_logD_lower_bound(params, consts, base, 2)

    def test_spq_with_unit_ctilde(self):
        # choosing C0 = B0bar^2 and K0 = B0tilde^2 makes Ctilde = 1, so S
        # collapses to its pure-logarithm first term
        params = make(3, F(2), F(2))
        probe = derive_constants(params)
        consts = derive_constants(params, C0=probe.B0bar ** 2, K0=probe.B0tilde ** 2)
        assert abs(consts.log_Ctilde) < 1e-12
        p, q = 2.0, 2.0
        pq = p * q
        expected = 2 * pq * (p + 1) * math.log(pq) / (pq - 1) ** 2
        assert abs(consts.Spq - expected) < 1e-12

    def test_divergence_engine(self):
        # with log D1 > S the normalized amplitude stays bounded below
        params = make(3, F(2), F(2), eps=1.0)
        consts = derive_constants(params, C1=1e6, K1=1e6)  # push log D1 above S
        states = iterate_subcritical(params, consts, 15)
        base = states[0]
        assert base.logD > consts.Spq
        pq = 4.0
        normalized = [s.logD / pq ** ((s.j - 1) / 2.0) for s in states if s.j % 2 == 1]
        floor = base.logD - consts.Spq
        assert all(v >= floor - 1e-9 for v in normalized)


class TestCritical:
    def test_p_greater_q_hand_recursion(self):
        params = make(3, F(3), F(2))
        states = iterate_critical(params, CriticalConstants(), 2)
        assert states[0].a == 1 and states[0].b == 0
        assert states[1].a == F(7)
        assert states[2].a == F(43)
        assert states[1].b == F(3)            # p(q-1) after one step
        a2, b2 = critical_closed_form(params, 2)
        assert a2 == F(43)

    def test_p_equals_q_hand_recursion(self):
        params = make(3, F(2), F(2))
        states = iterate_critical(params, CriticalConstants(), 3)
        assert states[1].a == F(7) and states[1].b == F(3)
        a3, b3 = critical_closed_form(params, 3)
        assert a3 == F(127) and states[3].a == F(127)

    def test_closed_form_at_zero(self):
        for p, q in ((F(3), F(2)), (F(2), F(2))):
            a0, b0 = critical_closed_form(make(3, p, q), 0)
            assert a0 == 1 and b0 == 0

    def test_p_less_q_rejected(self):
        with pytest.raises(ValueError):
            critical_base(make(3, F(2), F(3)), CriticalConstants())

    def test_case_mismatch_rejected(self):
        st_pq = critical_base(make(3, F(3), F(2)), CriticalConstants())
        with pytest.raises(ValueError):
            critical_step(st_pq, make(3, F(2), F(2)), CriticalConstants())

    @settings(max_examples=40, deadline=None)
    @given(p=rationals, q=rationals)
    def test_recursion_equals_closed_form(self, p, q):
        if p < q:
            p, q = q, p
        params = make(3, p, q)
        states = iterate_critical(params, CriticalConstants(), 12)
        for state in states:
            a, b = critical_closed_form(params, state.j)
            assert state.a == a and state.b == b

    def test_exponents_monotone(self):
        params = make(3, F(5, 2), F(5, 2))
        states = iterate_critical(params, CriticalConstants(), 8)
        for prev, cur in zip(states, states[1:]):
            assert cur.a > prev.a and cur.b >= prev.b

    @pytest.mark.parametrize("p,q", [(F(3), F(2)), (F(2), F(2)), (F(5, 2), F(3, 2))])
    def test_logC_dominates_closed_bound(self, p, q):
        params = make(3, p, q, eps=0.7)
        consts = CriticalConstants(C=0.5, K=2.0, Ctilde=0.1)
        states = iterate_critical(params, consts, 12)
        logc0 = states[0].logC
        for state in states:
            bound = critical_logC_lower_bound(params, consts, logc0, state.j)
            assert state.logC >= bound - 1e-9 * max(1.0, abs(bound))


def geometric_weight_partial(p, q, j: int) -> F:
    """The partial sum S_j = sum_{k<=j} k (pq)^(-k), exact for rational p, q."""
    pq = F(p) * F(q)
    return sum(k * pq ** -k for k in range(1, j + 1))


class TestGeometricWeights:
    def test_frozen_values(self):
        assert abs(geometric_weight_limit(2, 2) - 4.0 / 9.0) < 1e-15
        assert abs(geometric_weight_limit(math.sqrt(2.0), math.sqrt(2.0)) - 2.0) < 1e-12

    def test_partial_sums_below_limit(self):
        # exact rational arithmetic: S_j < S strictly for every finite j
        s_inf = geometric_weight_limit(F(3), F(2))
        partials = [geometric_weight_partial(F(3), F(2), j) for j in range(1, 30)]
        assert all(a < s_inf for a in partials)
        assert all(b > a for a, b in zip(partials, partials[1:]))

    def test_convergence_at_60(self):
        assert abs(geometric_weight_partial(2, 2, 60) - geometric_weight_limit(2, 2)) < 1e-12
