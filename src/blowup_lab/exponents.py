"""Exponent calculus for the weakly coupled system: critical-curve
classification and lifespan laws.

All formulas are evaluated exactly (``fractions.Fraction``) whenever the
nonlinearity exponents are rational, so that downstream recurrence checks
can assert equality with zero tolerance.  Irrational inputs fall back to
floats with a 1e-12 classification tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import Union

Scalar = Union[Fraction, float]

#: tolerance for calling max{F, F} zero when inputs are not exact rationals
CRITICAL_TOL = 1e-12


def _is_exact(*values: Scalar) -> bool:
    return all(isinstance(v, Rational) for v in values)


@dataclass(frozen=True)
class SystemParams:
    """The tuple (n, p, q, R, eps) shared by every formula in the lab."""

    n: int
    p: Scalar
    q: Scalar
    R: float = 1.0
    eps: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"spatial dimension must be >= 1, got {self.n}")
        strauss_exponent(self.n)  # n must keep the float formulas in range
        if not (1 < self.p < math.inf and 1 < self.q < math.inf):
            raise ValueError(f"exponents must be finite with p, q > 1, got p={self.p}, q={self.q}")
        if not (self.R > 0 and math.isfinite(self.R)):
            raise ValueError(f"support radius must be finite and positive, got {self.R}")
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise ValueError(f"data size must be finite and positive, got {self.eps}")

    @property
    def exact(self) -> bool:
        return _is_exact(self.p, self.q)


class RegionTag(Enum):
    SUBCRITICAL_BLOWUP = "SubcriticalBlowup"
    CRITICAL_BLOWUP = "CriticalBlowup"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class RegionClass:
    tag: RegionTag
    f_values: tuple[Scalar, Scalar]

    @property
    def f_max(self) -> Scalar:
        return max(self.f_values)


class LawForm(Enum):
    POWER = "PowerLaw"
    EXPONENTIAL = "ExponentialLaw"


@dataclass(frozen=True)
class LifespanLaw:
    """Upper-bound lifespan law: T <= C * eps**exponent (power form) or
    T <= exp(C * eps**exponent) (exponential form).  The constant C is not
    quantified by the theory; only the eps-exponent is exposed."""

    form: LawForm
    exponent: Scalar
    note: str

    def __post_init__(self):
        if not self.exponent < 0:
            raise ValueError(f"lifespan-law exponent must be negative, got {self.exponent}")


def compute_F(n: int, p: Scalar, q: Scalar) -> Scalar:
    """The blow-up exponent  (p + 2 + 1/q)/(pq - 1) - (n - 1)/2.

    Exact when p, q are rational.
    """
    if not (p > 1 and q > 1):
        raise ValueError(f"compute_F requires p, q > 1, got p={p}, q={q}")
    if _is_exact(p, q):
        p, q = Fraction(p), Fraction(q)
        return (p + 2 + Fraction(1) / q) / (p * q - 1) - Fraction(n - 1, 2)
    return (p + 2 + 1.0 / q) / (p * q - 1.0) - (n - 1) / 2.0


def compute_G(n: int, p: Scalar, q: Scalar) -> Scalar:
    """The low-dimension improvement exponent 2(1 + 1/p)/(pq - 1) - n/p + n - 2.

    Only claimed for n in {1, 2}; larger n produces a warning, not an error.
    """
    if not (p > 1 and q > 1):
        raise ValueError(f"compute_G requires p, q > 1, got p={p}, q={q}")
    if n >= 3:
        warnings.warn(f"G(n, p, q) carries no claim for n={n} >= 3", stacklevel=2)
    if _is_exact(p, q):
        p, q = Fraction(p), Fraction(q)
        return 2 * (1 + Fraction(1) / p) / (p * q - 1) - Fraction(n) / p + n - 2
    return 2.0 * (1 + 1.0 / p) / (p * q - 1.0) - n / p + n - 2


def strauss_exponent(n: int) -> float:
    """Positive root of (n-1) p^2 - (n+1) p - 2 = 0 for n >= 2.

    For n = 1 every p > 1 produces blow-up, so the sentinel is +inf.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n == 1:
        return math.inf
    try:
        return ((n + 1) + math.sqrt((n + 1) ** 2 + 8 * (n - 1))) / (2 * (n - 1))
    except OverflowError:
        raise ValueError(f"dimension too large: the Strauss exponent of n={n} is out of "
                         "float range") from None


def classify(params: SystemParams) -> RegionClass:
    """Locate (p, q) relative to the critical curve max{F, F-swapped} = 0."""
    f1 = compute_F(params.n, params.p, params.q)
    f2 = compute_F(params.n, params.q, params.p)
    fmax = max(f1, f2)
    # inexact inputs: the boundary is fattened by CRITICAL_TOL, otherwise the
    # nearest open region wins
    on_curve = fmax == 0 if params.exact else abs(fmax) < CRITICAL_TOL
    if on_curve:
        tag = RegionTag.CRITICAL_BLOWUP
    elif fmax > 0:
        tag = RegionTag.SUBCRITICAL_BLOWUP
    else:
        tag = RegionTag.UNKNOWN
    return RegionClass(tag=tag, f_values=(f1, f2))


class RegionError(ValueError):
    """Raised when an operation is invoked outside its blow-up region."""


def lifespan_law(
    params: SystemParams,
    nontrivial_speeds: tuple[bool, bool] = (False, False),
) -> LifespanLaw:
    """Upper-bound lifespan law for the classified region.

    ``nontrivial_speeds`` marks nonvanishing integrals of the initial
    velocities (int u1 != 0, int v1 != 0), which unlock the low-dimension
    improved estimates.  An improvement applies only if (n, p, q) sits in
    its stated range and the improved exponent quantity is positive;
    otherwise the base power law is returned.
    """
    n, p, q = params.n, params.p, params.q
    region = classify(params)
    if region.tag is RegionTag.UNKNOWN:
        raise RegionError(f"no blow-up law is claimed for (n, p, q) = ({n}, {p}, {q})")

    if region.tag is RegionTag.CRITICAL_BLOWUP:
        if p == q:
            return LifespanLaw(LawForm.EXPONENTIAL, -p * (p - 1), "critical, p = q")
        exponent = -min(q * (p * q - 1), p * (p * q - 1))
        return LifespanLaw(LawForm.EXPONENTIAL, exponent, "critical, p != q")

    u_speed, v_speed = nontrivial_speeds
    # the three improvement ranges are disjoint, so at most one quantity replaces F
    quantity, note = region.f_max, "subcritical"
    in_range = False
    if u_speed and v_speed and (n == 1 or (n == 2 and p < 2 and q < 2)):
        in_range = True
        g = max(compute_G(n, p, q), compute_G(n, q, p))
        if g > 0:
            quantity, note = g, "improved, both speeds"
    for speed, r, s, name in ((u_speed, p, q, "u"), (v_speed, q, p, "v")):
        if speed and n == 2 and r < 2 and s >= 2:
            in_range = True
            g = max(compute_F(n, r, s), compute_G(n, r, s))
            if g > 0:
                quantity, note = g, f"improved, {name}-speed"
    if (u_speed or v_speed) and not in_range:
        warnings.warn(
            f"speed flags carry no improved estimate for (n, p, q) = ({n}, {p}, {q})",
            stacklevel=2,
        )
    return LifespanLaw(LawForm.POWER, -1 / quantity, note)  # exact for a Fraction quantity
