"""Executable iteration schemes behind the blow-up proofs.

Subcritical scheme: lower bounds U >= D_j (1+t)^(-a_j) t^(b_j) (and the
mirrored V bound) whose exponents satisfy coupled affine recursions and
whose amplitudes grow doubly exponentially.  Exponents are kept as exact
rationals; amplitudes live in the log domain (a direct representation of
D_j overflows by j ~ 5).

Critical scheme: the sliced iteration U(t) >= C_j (log<t>)^(-b_j)
(log(t/l_2j))^(a_j) with its own exponent recursions, closed forms and
log-amplitude lower bound.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from blowup_lab.auxiliary import ball_volume
from blowup_lab.exponents import Scalar, SystemParams


def _log(x: Fraction) -> float:
    """log of a positive exact value, also one past the float range."""
    try:
        return math.log(x)
    except OverflowError:
        return math.log(x.numerator) - math.log(x.denominator)


# ---------------------------------------------------------------------------
# subcritical scheme
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubcriticalState:
    """One frame of the subcritical iteration at index j >= 1."""

    j: int
    a: Fraction
    b: Fraction
    alpha: Fraction
    beta: Fraction
    logD: float
    logDelta: float


@dataclass(frozen=True)
class IterationConstants:
    """Frame and envelope constants; everything the scheme needs beyond
    (n, p, q).  C1, K1 are the functional lower-bound constants (empirical
    or configured; 1.0 is the documented fallback for recursion-only work).
    """

    C0: float
    K0: float
    C1: float
    K1: float
    m1_0: float
    m2_0: float
    B0bar: float
    B0tilde: float
    log_Ctilde: float
    log_Ktilde: float
    Spq: float
    Spq_tilde: float
    j0: int


def derive_constants(
    params: SystemParams,
    m1_0: float = 1.0,
    m2_0: float = 1.0,
    C1: float = 1.0,
    K1: float = 1.0,
    C0: float | None = None,
    K0: float | None = None,
) -> IterationConstants:
    """Assemble the constant pack from the frame definitions.

    C0 = m1(0) meas(B_1)^(1-p) R^(-n(p-1)) and K0 mirrored in (q, m2);
    the remaining scalars are derived.  Explicit C0/K0 override the
    definitions (useful for unit-constant recursion tests).
    """
    n, R = params.n, params.R
    p, q = float(params.p), float(params.q)
    pq = p * q
    vol = ball_volume(n)
    log_pq = math.log(pq)

    def amplitude(r, m0, given):
        return m0 * vol ** (1.0 - r) * R ** (-n * (r - 1.0)) if given is None else given

    def envelope(r, s, own, other):
        """(B0, log tilde, S) of the component of exponent r and amplitude own."""
        b_own, b_other = (n + 1 + 2.0 * (x + 1.0) / (pq - 1.0) + 1.0 for x in (r, s))
        log_t = (math.log(own) + r * math.log(other)
                 - 2.0 * math.log(b_own) - 2.0 * r * math.log(b_other))
        return b_own, log_t, 2.0 * pq * (r + 1.0) * log_pq / (pq - 1.0) ** 2 - log_t / (pq - 1.0)

    C0, K0 = amplitude(p, m1_0, C0), amplitude(q, m2_0, K0)
    B0bar, log_Ctilde, Spq = envelope(p, q, C0, K0)
    B0tilde, log_Ktilde, Spq_tilde = envelope(q, p, K0, C0)
    j0 = math.ceil(
        max(log_Ctilde / (p + 1.0), log_Ktilde / (q + 1.0)) / log_pq
        - 2.0 * pq / (pq - 1.0)
        + 1.0
    )

    return IterationConstants(
        C0=C0, K0=K0, C1=C1, K1=K1, m1_0=m1_0, m2_0=m2_0,
        B0bar=B0bar, B0tilde=B0tilde,
        log_Ctilde=log_Ctilde, log_Ktilde=log_Ktilde,
        Spq=Spq, Spq_tilde=Spq_tilde, j0=j0,
    )


def _standard_exponents(n: int, r: Fraction) -> tuple[Fraction, Fraction]:
    """(a1, b1) = ((n-1)r/2, n+1): the standard first frame of the component of exponent r."""
    return Fraction(n - 1) * r / 2, Fraction(n + 1)


def subcritical_base(
    params: SystemParams,
    consts: IterationConstants,
    low_dim: bool = False,
    speed_integrals: tuple[float, float] = (0.0, 0.0),
) -> SubcriticalState:
    """First frame of the iteration.

    Standard route: a1 = (n-1)p/2, b1 = n+1, D1 = m1(0) K1 eps^p / (n(n+1))
    (and mirrored).  Low-dimension route (n = 1, or n = 2 with p, q < 2,
    nontrivial initial speeds): a1 = p, b1 = (n-1)p with amplitudes built
    from the speed integrals.
    """
    n = params.n
    log_eps = math.log(params.eps)
    if low_dim and not (n == 1 or (n == 2 and params.p < 2 and params.q < 2)):
        raise ValueError("low-dimension base case requires n = 1, or n = 2 with p, q < 2")

    def first(r, m0, k1, speed):
        """(a1, b1, log D1) of the component of exponent r fed by the other's speed."""
        if not low_dim:
            return (*_standard_exponents(n, r),
                    math.log(m0 * k1) + float(r) * log_eps - math.log(n * (n + 1)))
        if not speed > 0:
            raise ValueError("low-dimension base case requires positive initial-speed integrals")
        return r, Fraction(n - 1) * r, float(r) * (math.log(speed) + log_eps)

    iu1, iv1 = speed_integrals
    a1, b1, logD = first(Fraction(params.p), consts.m1_0, consts.K1, iv1)
    alpha1, beta1, logDelta = first(Fraction(params.q), consts.m2_0, consts.C1, iu1)
    return SubcriticalState(1, a1, b1, alpha1, beta1, logD, logDelta)


def subcritical_step(
    state: SubcriticalState, params: SystemParams, consts: IterationConstants
) -> SubcriticalState:
    """One frame of the coupled recursion:
    a' = n(p-1) + alpha p,  b' = beta p + 2,
    log D' = log C0 + p log Delta - log((beta p + 1)(beta p + 2)),
    with the mirrored (q, K0) updates for alpha, beta, log Delta."""
    n = params.n

    def advance(r, c0, a, b, logD):
        """The next (a, b, log D) of the component of exponent r, from the other's (a, b, log D)."""
        rb = b * r
        logD_next = math.log(c0) + float(r) * logD - _log((rb + 1) * (rb + 2))
        return n * (r - 1) + a * r, rb + 2, logD_next

    a, b, logD = advance(Fraction(params.p), consts.C0, state.alpha, state.beta, state.logDelta)
    alpha, beta, logDelta = advance(Fraction(params.q), consts.K0, state.a, state.b, state.logD)
    return SubcriticalState(state.j + 1, a, b, alpha, beta, logD, logDelta)


def iterate_subcritical(
    params: SystemParams,
    consts: IterationConstants,
    j_max: int,
    low_dim: bool = False,
    speed_integrals: tuple[float, float] = (0.0, 0.0),
) -> list[SubcriticalState]:
    state = subcritical_base(params, consts, low_dim, speed_integrals)
    states = [state]
    while state.j < j_max:
        state = subcritical_step(state, params, consts)
        states.append(state)
    return states


@dataclass(frozen=True)
class ClosedForm:
    """Closed-form exponents at index j.  The a/alpha representations exist
    only for odd j (the even-j ones are recursion-only by construction);
    they are None at even j."""

    j: int
    a: Fraction | None
    b: Fraction
    alpha: Fraction | None
    beta: Fraction


def subcritical_closed_form(
    params: SystemParams, j: int, base: SubcriticalState | None = None
) -> ClosedForm:
    """Exact closed forms for the exponent sequences.

    Odd j:  a_j = (n + a1)(pq)^((j-1)/2) - n and
            b_j = (b1 + 2(p+1)/(pq-1))(pq)^((j-1)/2) - 2(p+1)/(pq-1);
    even j: b_j, beta_j chain one recursion step off the odd formulas.
    Defaults to the standard base (a1 = (n-1)p/2, b1 = n+1).
    """
    if j < 1:
        raise ValueError(f"index must be >= 1, got {j}")
    n = params.n
    p, q = Fraction(params.p), Fraction(params.q)
    pq = p * q
    if base is None:
        (a1, b1), (alpha1, beta1) = _standard_exponents(n, p), _standard_exponents(n, q)
    else:
        a1, b1, alpha1, beta1 = base.a, base.b, base.alpha, base.beta
    gain = pq ** ((j - 1) // 2)

    def odd(r, a1, b1):
        """(a, b) at the odd index 2((j-1)//2) + 1 of the component of exponent r."""
        c = 2 * (r + 1) / (pq - 1)
        return (n + a1) * gain - n, (b1 + c) * gain - c

    (a, b), (alpha, beta) = odd(p, a1, b1), odd(q, alpha1, beta1)
    if j % 2 == 1:
        return ClosedForm(j=j, a=a, b=b, alpha=alpha, beta=beta)
    return ClosedForm(j=j, a=None, b=beta * p + 2, alpha=None, beta=b * q + 2)


def weighted_sum_identities(p: Scalar, q: Scalar,
                            j_max: int) -> Iterator[tuple[int, Fraction, Fraction]]:
    """Yield (j, lhs, rhs) for every odd 3 <= j <= j_max: both sides of the
    inductive summation formula
    sum_{k=1}^{(j-1)/2} (j+1-2k)(pq)^(k-1)
      = (2 pq ((pq)^((j-1)/2) - 1)/(pq-1) - j + 1) / (pq - 1),
    as exact rationals (they must agree identically).

    The left side is summed, the right side is the closed form.  From j-2 to j
    every coefficient j+1-2k grows by 2 and the term k = (j-1)/2 joins with
    coefficient 2, so the sum grows by twice sum_{k<=(j-1)/2} (pq)^(k-1);
    carrying that geometric sum and the power costs O(1) operations per j."""
    if j_max < 3:
        raise ValueError(f"identity is stated for odd j >= 3, got j_max = {j_max}")
    pq = Fraction(p) * Fraction(q)
    power = Fraction(1)  # (pq)^((j-1)/2 - 1)
    geometric = lhs = Fraction(0)
    for j in range(3, j_max + 1, 2):
        geometric += power
        lhs += 2 * geometric
        power *= pq
        rhs = (2 * pq * (power - 1) / (pq - 1) - j + 1) / (pq - 1)
        yield j, lhs, rhs


def subcritical_logD_lower_bound(
    params: SystemParams, consts: IterationConstants, base: SubcriticalState, j: int
) -> tuple[float, float]:
    """(pq)^((j-1)/2) (log D1 - S) and (pq)^((j-1)/2) (log Delta1 - S~), the
    closed lower bounds on log D_j and log Delta_j at odd j > j0."""
    if j % 2 == 0:
        raise ValueError("the log lower bound is stated for odd j")
    try:
        gain = (float(params.p) * float(params.q)) ** ((j - 1) / 2.0)
    except OverflowError:
        gain = math.inf
    return gain * (base.logD - consts.Spq), gain * (base.logDelta - consts.Spq_tilde)


# ---------------------------------------------------------------------------
# critical scheme (slicing method)
# ---------------------------------------------------------------------------


class CriticalCase(Enum):
    P_GREATER_Q = "PGreaterQ"
    P_EQUALS_Q = "PEqualsQ"


@dataclass(frozen=True)
class CriticalState:
    j: int
    a: Fraction
    b: Fraction
    logC: float
    case: CriticalCase


@dataclass(frozen=True)
class CriticalConstants:
    """Integral-inequality constants C, K and the base amplitude constant
    Ctilde; the theory never pins their numeric values, so they are inputs
    (default 1) and only the structural inequalities are verified."""

    C: float = 1.0
    K: float = 1.0
    Ctilde: float = 1.0


def _critical_case(params: SystemParams) -> CriticalCase:
    if params.p == params.q:
        return CriticalCase.P_EQUALS_Q
    if params.p > params.q:
        return CriticalCase.P_GREATER_Q
    raise ValueError("critical iteration expects p >= q; swap (p, q) and the component roles")


def critical_base(params: SystemParams, consts: CriticalConstants) -> CriticalState:
    """a0 = 1, b0 = 0, C0 = Ctilde eps^(pq) for p > q and Ctilde eps^p at p = q."""
    case = _critical_case(params)
    power = float(params.p) * float(params.q) if case is CriticalCase.P_GREATER_Q else float(params.p)
    logC0 = math.log(consts.Ctilde) + power * math.log(params.eps)
    return CriticalState(j=0, a=Fraction(1), b=Fraction(0), logC=logC0, case=case)


def critical_step(
    state: CriticalState, params: SystemParams, consts: CriticalConstants
) -> CriticalState:
    """One slicing step.

    p > q: a' = a pq + 1, b' = p(q-1) + b pq, and
      C' = 2^(-(2p+1)2j - (3n+8)p - 8) C K^p C_j^(pq) (a pq + 1)^(-1);
    p = q: a' = a pq + p + 1, b' = (pq-1) + b pq, and
      C' = 2^(-(p+1)2j - 7p - 8) C K^p C_j^(pq) (a q + 1)^(-p) (a pq + p + 1)^(-1).
    """
    case = _critical_case(params)
    if case is not state.case:
        raise ValueError(f"state case {state.case} does not match params (p={params.p}, q={params.q})")
    n = params.n
    p, q = Fraction(params.p), Fraction(params.q)
    pq = p * q
    j = state.j
    log2 = math.log(2.0)
    base = math.log(consts.C) + float(p) * math.log(consts.K) + float(p) * float(q) * state.logC
    if case is CriticalCase.P_GREATER_Q:
        a_next = state.a * pq + 1
        b_next = p * (q - 1) + state.b * pq
        logC = base - ((2 * float(p) + 1) * 2 * j + (3 * n + 8) * float(p) + 8) * log2
        logC -= _log(state.a * pq + 1)
    else:
        a_next = state.a * pq + p + 1
        b_next = (pq - 1) + state.b * pq
        logC = base - ((float(p) + 1) * 2 * j + 7 * float(p) + 8) * log2
        logC -= float(p) * _log(state.a * q + 1)
        logC -= _log(state.a * pq + p + 1)
    return CriticalState(j=j + 1, a=a_next, b=b_next, logC=logC, case=case)


def iterate_critical(
    params: SystemParams, consts: CriticalConstants, j_max: int
) -> list[CriticalState]:
    state = critical_base(params, consts)
    states = [state]
    while state.j < j_max:
        state = critical_step(state, params, consts)
        states.append(state)
    return states


def critical_closed_form(params: SystemParams, j: int) -> tuple[Fraction, Fraction]:
    """a_j = A (pq)^j + 1 - A and b_j = B (pq)^j - B with
    A = pq/(pq-1), B = p(q-1)/(pq-1) for p > q and
    A = 1 + (p+1)/(pq-1), B = 1 for p = q."""
    if j < 0:
        raise ValueError(f"index must be >= 0, got {j}")
    case = _critical_case(params)
    p, q = Fraction(params.p), Fraction(params.q)
    pq = p * q
    if case is CriticalCase.P_GREATER_Q:
        A = pq / (pq - 1)
        B = p * (q - 1) / (pq - 1)
    else:
        A = 1 + (p + 1) / (pq - 1)
        B = Fraction(1)
    gain = pq ** j
    return A * gain + 1 - A, B * gain - B


def geometric_weight_limit(p: Scalar, q: Scalar):
    """Limit S of the weight sums S_j = sum_{k<=j} k (pq)^(-k): pq/(pq-1)^2.
    Exact when p, q are rational."""
    exact = isinstance(p, (int, Fraction)) and isinstance(q, (int, Fraction))
    pq = Fraction(p) * Fraction(q) if exact else float(p) * float(q)
    if pq <= 1:
        raise ValueError(f"need pq > 1, got {pq}")
    return pq / (pq - 1) ** 2


def critical_theta_m(params: SystemParams, consts: CriticalConstants) -> tuple[float, float]:
    """(log Theta, log M) of the per-step amplitude bound C_j >= M Theta^(-j) C_{j-1}^(pq)."""
    case = _critical_case(params)
    n = params.n
    p, q = float(params.p), float(params.q)
    pq = p * q
    log2 = math.log(2.0)
    logCK = math.log(consts.C) + p * math.log(consts.K)
    if case is CriticalCase.P_GREATER_Q:
        log_theta = 2.0 * (2.0 * p + 1.0) * log2 + math.log(pq)
        log_m = -((3 * n + 4) * p + 6) * log2 + logCK + math.log((pq - 1.0) / pq)
    else:
        log_theta = 2.0 * (p + 1.0) * log2 + (p + 1.0) * math.log(pq)
        log_m = (
            -(5.0 * p + 6.0) * log2 + logCK
            + (p + 1.0) * math.log(pq - 1.0)
            - math.log(p) - (p + 1.0) * (math.log(q + 1.0) + math.log(pq))
        )
    return log_theta, log_m


def critical_logC_lower_bound(
    params: SystemParams, consts: CriticalConstants, logC0: float, j: int
) -> float:
    """(pq)^j (log C0 - S log Theta + log M/(pq-1)) - log M/(pq-1), the
    closed lower bound the sliced recursion must dominate."""
    p, q = float(params.p), float(params.q)
    pq = p * q
    log_theta, log_m = critical_theta_m(params, consts)
    s_inf = geometric_weight_limit(p, q)
    core = logC0 - s_inf * log_theta + log_m / (pq - 1.0)
    try:
        gain = pq ** j
    except OverflowError:
        gain = math.inf
    return gain * core - log_m / (pq - 1.0)
