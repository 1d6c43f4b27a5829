"""Scattering-class damping coefficients.

A damping profile is a nonnegative summable b(t).  The lab reads it through
b itself, in the solvers, and through its total mass l1 = int_0^inf b: the
multiplier bounds exp(-l1) <= m(t) = exp(-int_t^inf b) <= 1 turn the damped
functional ODEs into the undamped iteration frame.  Three kinds are
supported: identically zero, the canonical polynomial tail
b(t) = mu (1+t)^(-beta) with beta > 1, and tabulated samples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


class NonSummableError(ValueError):
    """The coefficient is not integrable on [0, inf)."""


@dataclass(frozen=True)
class DampingProfile:
    """Nonnegative coefficient b(t) with a closed-form or tabulated mass.

    kind: "zero" | "poly" | "tabulated"
    poly: b(t) = mu (1+t)^(-beta), l1 = mu / (beta-1)
    tabulated: piecewise-linear interpolant of (ts, bs), bs[0] before the
    first node and zero beyond the last, so l1 is the exact integral.
    """

    kind: str
    mu: float = 0.0
    beta: float = 2.0
    ts: np.ndarray | None = field(default=None, repr=False)
    bs: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "zero":
            return
        if self.kind == "poly":
            if not 0 <= self.mu < math.inf:
                raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
            if not self.beta > 1:
                raise NonSummableError(f"polynomial tail needs beta > 1, got {self.beta}")
            return
        if self.kind == "tabulated":
            ts, bs = np.asarray(self.ts, dtype=float), np.asarray(self.bs, dtype=float)
            if ts.ndim != 1 or ts.shape != bs.shape or ts.size < 2:
                raise ValueError("tabulated profile needs matching 1-d arrays, >= 2 nodes")
            if not np.all(np.diff(ts) > 0):
                raise ValueError("tabulated times must be strictly increasing")
            if not (ts[0] >= 0 and np.all(bs >= 0) and np.isfinite([ts, bs]).all()):
                raise ValueError("tabulated profile must be finite, with t >= 0 and b >= 0")
            object.__setattr__(self, "ts", ts)
            object.__setattr__(self, "bs", bs)
            return
        raise ValueError(f"unknown damping kind {self.kind!r}")

    @classmethod
    def zero(cls) -> "DampingProfile":
        return cls(kind="zero")

    @classmethod
    def polynomial_tail(cls, mu: float, beta: float) -> "DampingProfile":
        return cls(kind="poly", mu=mu, beta=beta)

    @classmethod
    def tabulated(cls, ts, bs) -> "DampingProfile":
        return cls(kind="tabulated", ts=np.asarray(ts, float), bs=np.asarray(bs, float))

    @classmethod
    def from_csv(cls, path) -> "DampingProfile":
        """Two-column CSV (t, b) with strictly increasing t.  The first row may
        be a header; any other row that is not two numbers is a ValueError."""
        ts, bs = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row:
                    continue
                try:
                    t, b = map(float, row)
                except ValueError:
                    if reader.line_num == 1:
                        continue
                    raise ValueError(f"table row {reader.line_num} is not two numbers t, b: "
                                     f"{row}") from None
                ts.append(t)
                bs.append(b)
        return cls.tabulated(ts, bs)

    def b(self, t):
        """Coefficient value b(t), vectorized over t >= 0.  A Python float t
        takes Python float arithmetic for the zero and poly kinds, bit-equal
        to numpy's 0-d evaluation and without its array detour."""
        if type(t) is float and self.kind != "tabulated":
            return 0.0 if self.kind == "zero" else self.mu * (1.0 + t) ** (-self.beta)
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(t)
        elif self.kind == "poly":
            out = self.mu * (1.0 + t) ** (-self.beta)
        else:
            out = np.interp(t, self.ts, self.bs, left=self.bs[0], right=0.0)
        return out if out.ndim else float(out)

    @property
    def l1(self) -> float:
        """Total mass int_0^inf b; membership in the scattering class.  A table
        counts b = bs[0] on [0, ts[0]) and its trapezoids summed from the right."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "poly":
            return self.mu / (self.beta - 1.0)
        bs = self.bs
        seg = 0.5 * (bs[1:] + bs[:-1]) * np.diff(self.ts)
        return float(bs[0] * self.ts[0] + np.cumsum(seg[::-1])[-1])
